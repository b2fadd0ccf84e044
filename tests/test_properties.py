"""Property tests: eigen convention, Gaussian embedding, Gram positivity.

Inputs are drawn by ``hypothesis`` under the derandomized, bounded profile
registered in ``conftest.py``.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from setfuse.config import TrainConfig  # noqa: E402
from setfuse.descriptors import ImageSet, embed_gaussian, encode_set  # noqa: E402
from setfuse.kernels import build_kernel_bank  # noqa: E402
from setfuse.spd import sym_eig  # noqa: E402

finite = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)


@st.composite
def symmetric_matrices(draw):
    d = draw(st.integers(1, 8))
    a = draw(arrays(np.float64, (d, d), elements=finite))
    return a + a.T


@given(symmetric_matrices())
def test_sym_eig_descending_with_positive_largest_entry(m):
    pair = sym_eig(m)
    assert np.all(pair.values[:-1] >= pair.values[1:])
    for k in range(m.shape[0]):
        v = pair.vectors[:, k]
        assert v[np.argmax(np.abs(v))] > 0.0


@given(
    st.integers(1, 6).flatmap(
        lambda d: st.tuples(
            arrays(np.float64, d, elements=st.floats(-3.0, 3.0)),
            arrays(np.float64, (d, d), elements=st.floats(-3.0, 3.0)),
        )
    )
)
def test_embed_gaussian_has_unit_determinant(mean_and_factor):
    mean, a = mean_and_factor
    cov = a @ a.T + 0.5 * np.eye(mean.size)
    p = embed_gaussian(mean, 0.5 * (cov + cov.T))
    assert abs(np.linalg.det(p) - 1.0) <= 1e-10


@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(2, 5),
    n_sets=st.integers(2, 6),
    extra_samples=st.integers(0, 6),
    scale=st.floats(1e-3, 1e3),
    normalize=st.booleans(),
)
def test_grams_of_random_sets_are_psd(seed, d, n_sets, extra_samples, scale, normalize):
    rng = np.random.default_rng(seed)
    cfg = TrainConfig(subspace_dim=min(2, d))
    sets = []
    for i in range(n_sets):
        x = rng.standard_normal(d)[:, None] + rng.standard_normal((d, d + extra_samples))
        sets.append(ImageSet(features=scale * x, label=f"c{i % 2}", set_id=f"s{i}"))
    triples = [encode_set(s, cfg) for s in sets]
    bank = build_kernel_bank(triples, cfg.kernel_ids, normalize=normalize)
    for gram in bank.grams:
        eigs = np.linalg.eigvalsh(gram)
        assert eigs.min() >= -1e-10 * max(eigs.max(), 0.0)
