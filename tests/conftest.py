"""Suite-wide set-up: run BLAS on one thread, as the benchmark does.

With one core busy, default BLAS threading slowed the acceptance gate's
kernel-geometry check several fold (past its runtime budget); on one thread
its time no longer depends on what else the host runs. BLAS reads these
variables once, when numpy is first imported, so this file must run before
anything imports numpy.
"""

import os
import sys

THREADS = "1"

if "numpy" in sys.modules:
    raise RuntimeError(
        "numpy was imported before tests/conftest.py could pin BLAS to one thread; "
        "the suite's runtime budgets assume a single BLAS thread"
    )
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = THREADS

# Property tests draw a fixed, bounded sequence of examples: the suite stays
# deterministic and its runtime stays bounded on a loaded host.
try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    settings.register_profile(
        "setfuse", derandomize=True, deadline=None, max_examples=60, database=None
    )
    settings.load_profile("setfuse")
