"""Property tests: the eigendecomposition's symmetrization, Gaussian embedding,
Gram positivity, the trainer's centred span, and the typed-error contract
of training, prediction, loading a saved model, loading a saved dataset and
the ``setfuse train`` and ``predict`` commands.

Inputs are drawn by ``hypothesis`` under the derandomized, bounded profile
registered in ``conftest.py``.
"""

import hashlib
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402
from click.testing import CliRunner  # noqa: E402

from setfuse.classify import predict  # noqa: E402
from setfuse.cli import main as cli_main  # noqa: E402
from setfuse.config import TrainConfig  # noqa: E402
from setfuse.data import generate_synthetic, load_dataset, save_dataset  # noqa: E402
from setfuse.descriptors import ImageSet, embed_gaussian, encode_sets  # noqa: E402
from setfuse.errors import SetfuseError  # noqa: E402
from setfuse.experiment import train_on_sets  # noqa: E402
from setfuse.kernels import DESCRIPTOR_NAMES  # noqa: E402
from setfuse.persistence import load_model, save_model  # noqa: E402
from setfuse.spd import SYMMETRY_RTOL, check_symmetric, eigh  # noqa: E402
from setfuse.trainer import NULL_SPACE_RTOL  # noqa: E402

from helpers import (  # noqa: E402
    build_kernel_bank,
    kernel_bank,
    log_det,
    random_labels,
    random_simplex_weights,
    scatter_matrices,
    span_of,
)

finite = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)


@st.composite
def symmetric_matrices(draw):
    d = draw(st.integers(1, 8))
    a = draw(arrays(np.float64, (d, d), elements=finite))
    return a + a.T


@given(symmetric_matrices(), st.data())
def test_eigh_symmetrizes_its_input(s, data):
    """A matrix symmetric only to ``SYMMETRY_RTOL`` decomposes to the same
    bits as its symmetric part, so callers need not symmetrize."""
    noise = data.draw(arrays(np.float64, s.shape, elements=st.floats(-1.0, 1.0)))
    m = s + (0.25 * SYMMETRY_RTOL * float(np.max(np.abs(s)))) * noise
    check_symmetric(m)
    raw, symmetrized = eigh(m), eigh(0.5 * (m + m.T))
    assert np.array_equal(raw.values, symmetrized.values)
    assert np.array_equal(raw.vectors, symmetrized.vectors)


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
    cov = 0.5 * (cov + cov.T)
    p = embed_gaussian(mean, cov, log_det(cov))
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
    bank = build_kernel_bank(encode_sets(sets, cfg), cfg.descriptors, normalize=normalize)
    for gram in bank.grams:
        eigs = np.linalg.eigvalsh(gram)
        assert eigs.min() >= -1e-10 * max(eigs.max(), 0.0)


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 10),
    n_kernels=st.integers(1, 3),
    width=st.integers(1, 12),
)
def test_centred_span_holds_differences_and_scatters(seed, n, n_kernels, width):
    """Every Gram column difference lies in the span, and every scatter S
    over whole Gram columns equals Q (Q.T S Q) Q.T, up to what the span's
    eigenvalue cut may drop.

    A dropped direction has eigenvalue <= NULL_SPACE_RTOL * lam_max of
    sum_q K_q C K_q, so a difference K_q (e_i - e_j) keeps at most
    slack = sqrt(2 NULL_SPACE_RTOL lam_max) outside the span; a scatter's
    pair coefficients sum to at most 1, so it moves by at most
    2 D slack + slack^2 with D the largest difference norm.
    """
    rng = np.random.default_rng(seed)
    features = [rng.standard_normal((n, width)) for _ in range(n_kernels)]  # rank min(n, width)
    bank = kernel_bank(DESCRIPTOR_NAMES[:n_kernels], features)
    grams = bank.grams
    q, _ = span_of(grams)
    centred = [k - k.mean(axis=1, keepdims=True) for k in grams]
    lam_max = float(np.linalg.eigvalsh(sum(c @ c.T for c in centred)).max())
    slack = np.sqrt(2.0 * NULL_SPACE_RTOL * lam_max)
    roundoff = 1e-10 * max(float(np.max(np.abs(k))) for k in grams)

    diffs = np.concatenate([(k[:, :, None] - k[:, None, :]).reshape(n, -1) for k in grams], axis=1)
    outside = np.linalg.norm(diffs - q @ (q.T @ diffs), axis=0)
    assert outside.max() <= slack + roundoff

    labels = random_labels(rng, n)
    scatter = scatter_matrices(bank, labels, random_simplex_weights(rng, n_kernels, n))
    reach = 2.0 * float(np.linalg.norm(diffs, axis=0).max()) * slack + slack**2
    for s in (scatter.within, scatter.between):
        back = q @ (q.T @ s @ q) @ q.T
        assert np.max(np.abs(s - back)) <= reach + 1e-10 * max(float(np.max(np.abs(s))), 1.0)


# Six sets of two classes: the first is the probe, the rest the gallery;
# each example scales all of them.
GALLERY = generate_synthetic(
    classes=2, sets_per_class=3, dim=3, samples=6, separation=3.0, seed=5
)


@given(
    alpha=st.floats(1e-320, 1e308, allow_subnormal=True),
    learning_rate=st.floats(0.0, 1e308),
    exponent=st.integers(-300, 300),
)
def test_training_and_prediction_succeed_or_raise_typed_errors(alpha, learning_rate, exponent):
    """At any config ``TrainConfig`` accepts and any feature scale 10^k,
    ``train_on_sets`` and then ``predict`` either succeed or raise a
    ``SetfuseError``, and numpy warns of nothing on the way."""
    sets = [
        ImageSet(features=10.0**exponent * s.features, label=s.label, set_id=s.set_id)
        for s in GALLERY
    ]
    cfg = TrainConfig(
        subspace_dim=2, target_dim=2, iters=3, alpha=alpha, learning_rate=learning_rate
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            predict(sets[0], train_on_sets(sets[1:], cfg))
        except SetfuseError:
            pass


# One small model, saved afresh for each edit, and the probe it predicts.
MODEL = train_on_sets(GALLERY[1:], TrainConfig(subspace_dim=2, target_dim=2, iters=3))
with tempfile.TemporaryDirectory() as _tmp:
    META = json.loads(save_model(MODEL, _tmp).read_text())
# (section, key): a key of ``model.json`` (section None) or of one of its objects
META_KEYS = [(None, k) for k in sorted(META)] + [
    (section, k) for section in ("config", "checksums") for k in sorted(META[section])
]
ARRAYS = sorted(META["checksums"])

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def drawn_arrays(draw, like):
    """An array for the ``.npy`` file that holds ``like``: of its shape or
    of a drawn one, float64 or another dtype, any values."""
    shape = draw(st.just(like.shape) | st.lists(st.integers(0, 4), max_size=3).map(tuple))
    dtype = draw(st.sampled_from([np.float64, np.float32, np.int64, np.bool_]))
    return draw(arrays(dtype, shape))


@given(st.data())
def test_loading_and_predicting_an_edited_model_succeed_or_raise_typed_errors(data):
    """A saved model with one edit (a ``model.json`` key dropped, a key's
    value replaced by a drawn JSON value, or one ``.npy`` replaced by a
    drawn array with its checksum rewritten) either loads and predicts or
    raises a ``SetfuseError``, and numpy warns of nothing on the way."""
    with tempfile.TemporaryDirectory() as tmp:
        meta_path = save_model(MODEL, tmp)
        meta = json.loads(meta_path.read_text())
        edit = data.draw(st.sampled_from(["drop", "replace", "array"]))
        if edit == "array":
            name = data.draw(st.sampled_from(ARRAYS))
            path = Path(tmp) / name
            np.save(path, data.draw(drawn_arrays(np.load(path))), allow_pickle=False)
            meta["checksums"][name] = hashlib.sha256(path.read_bytes()).hexdigest()
        else:
            section, key = data.draw(st.sampled_from(META_KEYS))
            owner = meta if section is None else meta[section]
            if edit == "drop":
                del owner[key]
            else:
                owner[key] = data.draw(json_values)
        meta_path.write_text(json.dumps(meta))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                predict(GALLERY[0], load_model(tmp))
            except SetfuseError:
                pass


# The CLI flags of ``MODEL``'s config, for ``setfuse train`` on an edited dataset.
TRAIN_FLAGS = ["--q", "2", "--dw", "2", "--iters", "3"]
set_values = st.text(max_size=8) | json_values


@st.composite
def edited_dataset(draw, directory):
    """Save ``GALLERY`` to ``directory`` and apply one drawn edit: a set
    file's bytes replaced by drawn text or bytes, a manifest line (its
    header or a row) dropped, duplicated or replaced by drawn text, or a
    row pointed at a missing file. Returns the manifest path and the path
    of one set file, edited or not."""
    manifest = save_dataset(GALLERY, directory)
    lines = manifest.read_text().splitlines()
    set_file = directory / f"{draw(st.sampled_from([s.set_id for s in GALLERY]))}.csv"
    edit = draw(st.sampled_from(["set", "drop", "duplicate", "garble", "missing"]))
    if edit == "set":
        content = draw(st.text(max_size=40).map(str.encode) | st.binary(max_size=40))
        set_file.write_bytes(content)
    elif edit == "missing":
        i = draw(st.integers(1, len(lines) - 1))
        lines[i] = lines[i].rsplit(",", 1)[0] + ",missing.csv"
    else:
        i = draw(st.integers(0, len(lines) - 1))
        if edit == "drop":
            del lines[i]
        elif edit == "duplicate":
            lines.insert(i, lines[i])
        else:
            lines[i] = draw(st.text(max_size=20))
    if edit != "set":
        manifest.write_text("\n".join(lines) + "\n")
    return manifest, set_file


def invoke_cli(*args):
    """``setfuse`` run through click's runner, which must exit 0 (success),
    3 (a data error) or 4 (a numeric failure), with no traceback."""
    result = CliRunner().invoke(cli_main, list(args))
    assert result.exit_code in (0, 3, 4), result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output


@given(st.data())
def test_loading_and_training_an_edited_dataset_succeed_or_raise_typed_errors(data):
    """A saved dataset with one edit (``edited_dataset``) either loads and
    trains or raises a ``SetfuseError``; ``setfuse train`` on it and
    ``setfuse predict`` of one of its set files exit 0, 3 or 4 without a
    traceback; and an ``ImageSet`` of drawn arguments either predicts
    against a small model or raises a ``SetfuseError``. numpy warns of
    nothing on the way."""
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        manifest, set_file = data.draw(edited_dataset(Path(tmp) / "data"))
        try:
            train_on_sets(load_dataset(manifest), MODEL.config)
        except SetfuseError:
            pass
        model_dir = Path(tmp) / "model"
        invoke_cli("train", "--manifest", str(manifest), "--out", str(model_dir), *TRAIN_FLAGS)
        if not model_dir.exists():
            save_model(MODEL, model_dir)
        invoke_cli("predict", "--model", str(model_dir), "--set", str(set_file))
        features = data.draw(
            drawn_arrays(GALLERY[0].features)
            | arrays(np.complex128, GALLERY[0].features.shape)
            | st.lists(st.lists(finite | st.booleans() | st.text(max_size=2), max_size=7))
            | json_values
        )
        try:
            probe = ImageSet(
                features=features, label=data.draw(set_values), set_id=data.draw(set_values)
            )
            predict(probe, MODEL)
        except SetfuseError:
            pass
