"""Benchmark for the setfuse pipeline: gallery training, probe stream, split protocol.

Usage, from the repository root:

    python3 perfbench/run.py --workload probe_stream --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the last stdout line is a JSON object carrying the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of a
traced run instead. Earlier lines print every metric by name with its unit,
the environment, and extra figures. The library is imported from ``src/`` of
the checkout that holds this file and is measured from outside only.

Timings are scaled by a fixed numpy probe (see ``Clock``) so that the
shared host's speed swings, which move every code path alike, cancel out.
"""

from __future__ import annotations

import os
import sys

THREADS = "1"
# BLAS reads these once, when numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = THREADS

import argparse
import hashlib
import json
import platform
import resource
import signal
import statistics
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

# Set-ups per untraced run; setup_s is their median.
SETUP_REPS = 5
# Probe duration that scaled times are expressed against, in seconds.
REFERENCE_PROBE_S = 0.85e-3


class Clock:
    """Wall time scaled by the speed of a fixed numpy probe measured around it.

    The probe (small symmetric eigendecompositions and products, like the
    library's own inner loops) runs just before and just after each timed
    region and, when ``sample_inside`` is set, every ``INTERVAL_S`` during it
    from a SIGALRM handler; probe time inside a region is subtracted from its
    wall time. A region's scaled time is ``wall * REFERENCE_PROBE_S / probe``,
    with ``probe`` the mean of its probes: on a host where the probe takes
    ``REFERENCE_PROBE_S`` the two agree, and a host-wide slowdown stretches
    both alike.
    """

    INTERVAL_S = 0.1

    def __init__(self, np, sample_inside: bool):
        self._np = np
        a = np.random.default_rng(20190806).standard_normal((32, 32))
        self._a = a @ a.T + 32.0 * np.eye(32)
        self.sample_inside = sample_inside
        self.probes: list[float] = []
        self._inside: list[float] | None = None
        if sample_inside:
            signal.signal(signal.SIGALRM, self._on_alarm)
        self._last = self._probe()

    def _group(self) -> float:
        eigh = self._np.linalg.eigh
        start = perf_counter()
        for _ in range(8):
            w, v = eigh(self._a)
            (v * w) @ v.T
        return perf_counter() - start

    def _probe(self) -> float:
        probe = statistics.median(self._group() for _ in range(3))
        self.probes.append(probe)
        return probe

    def _on_alarm(self, signum, frame) -> None:
        if self._inside is not None:
            self._inside.append(self._group())

    def time(self, fn, *args):
        """Run ``fn(*args)``; returns (result, wall seconds, scaled seconds)."""
        before = self._last
        self._inside = []
        if self.sample_inside:
            signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        start = perf_counter()
        try:
            result = fn(*args)
        finally:
            if self.sample_inside:
                signal.setitimer(signal.ITIMER_REAL, 0)
            wall = perf_counter() - start
            inside, self._inside = self._inside, None
        wall -= sum(inside)
        self._last = self._probe()
        probes = [before, *inside, self._last]
        return result, wall, wall * REFERENCE_PROBE_S * len(probes) / sum(probes)


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """Digest of the library sources, for checkouts that carry no git metadata."""
    h = hashlib.sha256()
    for path in sorted((SRC / "setfuse").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(np, args) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(THREADS),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_rounds(wl, clock, seconds: float, tally, tracer=None):
    """Closed loop, one client: whole rounds over ``wl.items`` until the deadline.

    Returns the scaled and wall seconds of every operation.
    """
    scaled, wall = [], []
    deadline = perf_counter() + seconds
    while True:
        for i, item in enumerate(wl.items):
            if tracer is not None:
                tracer.op += 1
            try:
                result, w, s = clock.time(wl.op, item)
            except Exception as exc:  # a failed operation is counted, not fatal
                tally.check(False, f"operation {i}: {type(exc).__name__}: {exc}")
                continue
            tally.attempted += 1
            wall.append(w)
            scaled.append(s)
            wl.record(i, result)
        if perf_counter() >= deadline:
            return scaled, wall


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "setfuse" / "__init__.py").is_file():
        print(f"error: library sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np

    import tracing
    from workloads import WORKLOADS, Tally

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    env = environment(np, args)
    print("env " + json.dumps(env, sort_keys=True))
    OUT.mkdir(exist_ok=True)
    tally = Tally()
    clock = Clock(np, sample_inside=not args.trace)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        wl = WORKLOADS[args.workload](args.seed, Path(workdir), tally)
        setup_scaled, setup_wall = [], []
        for _ in range(SETUP_REPS if not args.trace else 1):
            _, w, s = clock.time(wl.setup)
            setup_scaled.append(s)
            setup_wall.append(w)
        seconds = args.seconds / 2 if args.trace else args.seconds
        scaled, wall = run_rounds(wl, clock, seconds, tally)
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                clock.time(wl.setup)
                tracer.phase = "op"
                traced, _ = run_rounds(wl, clock, seconds, tally, tracer)
            finally:
                tracer.uninstall()
        accuracy = wl.finish()
    if not scaled or (args.trace and not traced):
        print("error: every timed operation failed", file=sys.stderr)
        for message in tally.messages:
            print(f"fail {message}", file=sys.stderr)
        return 1

    print(f"info setup_first_s {setup_scaled[0]:.6f} s (scaled, cold), wall {setup_wall[0]:.6f} s")
    print(f"info op_wall_p50_ms {1000 * statistics.median(wall):.4f} ms over {len(wall)} ops")
    if len(wall) >= 100:
        p90 = statistics.quantiles(scaled, n=10)[8]
        print(f"info op_p90_ms {1000 * p90:.4f} ms (scaled) over {len(scaled)} ops")
    print(f"info probe_p50_ms {1000 * statistics.median(clock.probes):.4f} ms over {len(clock.probes)} probes")
    print(f"info failed_ops {tally.failed}/{tally.attempted}")
    for message in tally.messages:
        print(f"fail {message}")

    if args.trace:
        values, absent = tracer.metrics(n_setups=1, n_ops=len(traced))
        values["persistence.model_bytes"] = float(getattr(wl, "model_bytes", 0))
        values["trace.overhead"] = statistics.median(traced) / statistics.median(scaled)
        values["trace.absent"] = float(len(absent))
        units = dict(tracing.per_layer_metric_units())
        if absent:
            print("info absent " + " ".join(absent))
        with open(OUT / f"trace-{args.workload}-{args.seed}.json", "w") as fh:
            json.dump({"env": env, "metrics": values, "absent": absent, **tracer.dump()}, fh)
    else:
        values = {
            "op_p50_ms": 1000 * statistics.median(scaled),
            "ops_per_s": len(scaled) / sum(scaled),
            "accuracy": accuracy,
            "setup_s": statistics.median(setup_scaled),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {"op_p50_ms": "ms", "ops_per_s": "1/s", "accuracy": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}

    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    for name, m in metrics.items():
        print(f"metric {name} {m['value']!r} {m['unit']}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
