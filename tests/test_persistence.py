"""Model serialization tests: round trips and tamper detection."""

import dataclasses
import hashlib
import io
import json
import warnings

import numpy as np
import pytest

from setfuse import persistence
from setfuse.classify import distance_profile, predict
from setfuse.config import TrainConfig
from setfuse.data import generate_synthetic
from setfuse.descriptors import ImageSet, encode_sets
from setfuse.errors import (
    BadSpec,
    ChecksumMismatch,
    FormatVersionMismatch,
    IoError,
    NonFinite,
)
from setfuse.experiment import train_on_sets
from setfuse.gating import GatingParams, gating_weights
from setfuse.persistence import META_NAME, load_model, save_model
from setfuse.trainer import ModelState

from helpers import (
    build_kernel_bank,
    fortran_read_only,
    gram_builds,
    ids_of,
    kernel_bank,
    model_bank,
    probe_rows,
    regularized_covariance,
    set_moments,
    spy,
    stack_length,
    train_one,
)


def train_small(**overrides):
    sets = generate_synthetic(
        classes=3, sets_per_class=3, dim=5, samples=10, separation=4.0, seed=31
    )
    cfg = TrainConfig(subspace_dim=3, target_dim=3, iters=3, itr_iters=10, seed=31, **overrides)
    return train_on_sets(sets, cfg), sets


@pytest.fixture(scope="module")
def trained():
    return train_small()


# Configurations whose loaded Grams must still match training bit for bit: the
# default, trace-N normalization (scales derived on load) and one channel.
VARIANTS = {
    "default": {},
    "normalized": {"normalize_kernels": True},
    "subspace": {"descriptors": ("subspace",)},
}


@pytest.fixture(scope="module", params=sorted(VARIANTS))
def trained_variant(request):
    return train_small(**VARIANTS[request.param])


def equal_content_pairs(trained, tmp_path):
    """Per public type that holds arrays, two instances of equal content."""
    model, sets = trained
    save_model(model, tmp_path)
    loaded = load_model(tmp_path)
    copy = ImageSet(features=sets[0].features.copy(), label=sets[0].label, set_id=sets[0].set_id)
    return {
        "ImageSet": (sets[0], copy),
        "Prediction": (predict(sets[0], model), predict(sets[0], loaded)),
        "ModelState": (model, loaded),
        "GatingParams": (model.gating, loaded.gating),
        "DescriptorStack": (encode_sets(sets, model.config), encode_sets(sets, model.config)),
    }


@pytest.mark.parametrize(
    "name", ["ImageSet", "Prediction", "ModelState", "GatingParams", "DescriptorStack"]
)
def test_array_holding_types_compare_and_hash_by_identity(trained, tmp_path, name):
    a, b = equal_content_pairs(trained, tmp_path)[name]
    assert type(a).__name__ == name
    assert a == a and a != b and not (a == b)
    assert a in [b, a] and a not in [b]
    assert hash(a) == hash(a) and len({a, b}) == 2


def edit_meta(model_dir, edit):
    meta_path = model_dir / META_NAME
    meta = json.loads(meta_path.read_text())
    edit(meta)
    meta_path.write_text(json.dumps(meta))


def npy_bytes(arr, version=None):
    buf = io.BytesIO()
    np.lib.format.write_array(buf, arr, version=version)
    return buf.getvalue()


def negated_shape_npy(arr):
    """``npy_bytes(arr)`` with every header dimension negated, the header kept
    at its length; for a matrix, the payload length still fits the shape."""
    blob = npy_bytes(arr)
    old, new = repr(arr.shape).encode(), repr(tuple(-n for n in arr.shape)).encode()
    return blob.replace(old + b", }" + b" " * (len(new) - len(old)), new + b", }")


def replace_array_file(model_dir, fname, blob):
    """Write ``blob`` as ``fname`` and record its checksum, so that only the
    parse of its header and payload can object."""
    (model_dir / fname).write_bytes(blob)
    digest = hashlib.sha256(blob).hexdigest()
    edit_meta(model_dir, lambda m: m["checksums"].update({fname: digest}))


class TestRoundTrip:
    def test_arrays_bit_identical(self, trained, tmp_path):
        model, _ = trained
        save_model(model, tmp_path / "m")
        back = load_model(tmp_path / "m")
        assert np.array_equal(back.transform, model.transform)
        assert np.array_equal(back.gating.coeffs, model.gating.coeffs)
        assert np.array_equal(back.gating.biases, model.gating.biases)
        assert np.array_equal(back.train_weights, model.train_weights)
        for a, b in zip(back.probe_maps, model.probe_maps, strict=True):
            for x, y in zip(a, b, strict=True):
                assert np.array_equal(x, y)
        assert back.scales == model.scales
        assert back.labels == model.labels
        assert back.objective_trace == model.objective_trace
        assert back.config == model.config

    def test_gallery_descriptors_restored(self, trained, tmp_path):
        # the gallery is stored as its lifted features, named by set ids and labels
        model, sets = trained
        save_model(model, tmp_path / "m")
        back = load_model(tmp_path / "m")
        assert len(back.features) == len(model.features)
        for a, b in zip(back.features, model.features):
            assert np.array_equal(a, b)
        assert back.set_ids == tuple(s.set_id for s in sets) == model.set_ids
        assert back.labels == tuple(s.label for s in sets) == model.labels

    def test_model_is_its_learned_arrays_and_features(self, trained, tmp_path):
        model, _ = trained
        save_model(model, tmp_path / "m")
        names = sorted(f.name for f in (tmp_path / "m").iterdir())
        assert names == [
            "features_cov.npy", "features_gauss.npy", "features_subspace.npy",
            "gating_biases.npy", "gating_coeffs.npy", META_NAME, "transform.npy",
        ]

    def test_arrays_are_plain_npy_files(self, trained, tmp_path):
        model, _ = trained
        meta_path = save_model(model, tmp_path / "m")
        stored = {
            "transform": model.transform,
            "gating_coeffs": model.gating.coeffs,
            "gating_biases": model.gating.biases,
        }
        for channel, features in zip(model.config.descriptors, model.features):
            stored[f"features_{channel}"] = features
        for name, arr in stored.items():
            assert np.array_equal(np.load(tmp_path / "m" / f"{name}.npy", allow_pickle=False), arr)
        assert sorted(json.loads(meta_path.read_text())) == sorted(
            ["format_version", "labels", "set_ids", "config", "objective_trace", "checksums"]
        )

    def test_metadata_is_strict_json(self, trained, tmp_path):
        # NaN and Infinity are not JSON; TrainConfig keeps them out of model.json
        model, _ = trained
        meta_path = save_model(model, tmp_path / "m")

        def reject(token):
            raise ValueError(f"{token} is not JSON")

        meta = json.loads(meta_path.read_text(), parse_constant=reject)
        assert meta["config"]["alpha"] == model.config.alpha

    def test_train_weights_are_derived(self, trained, tmp_path):
        model, _ = trained
        assert "train_weights" not in {f.name for f in dataclasses.fields(ModelState)}
        save_model(model, tmp_path / "m")
        back = load_model(tmp_path / "m")
        for m in (model, back):
            # read from the rows; training read the same weights from its Grams
            assert np.array_equal(m.train_weights, m.gate(m.features))
            grams = model_bank(m).grams
            assert np.allclose(m.train_weights, gating_weights(grams, m.gating), rtol=0, atol=1e-14)
            assert not m.train_weights.flags.writeable

    def test_variant_round_trip_bit_identical(self, trained_variant, tmp_path):
        model, sets = trained_variant
        save_model(model, tmp_path / "m")
        back = load_model(tmp_path / "m")
        assert back.scales == model.scales
        for a, b in zip(back.features, model.features, strict=True):
            assert np.array_equal(a, b)
        for s in sets:
            assert np.array_equal(predict(s, back).distances, predict(s, model).distances)
        # the reloaded rows rebuild the Grams training built, bit for bit, and
        # a gallery member sent as a probe is at distance 0 to rounding
        for got, want in zip(model_bank(back).grams, model_bank(model).grams, strict=True):
            assert np.array_equal(got, want)
            assert np.array_equal(got, got.T)
        probe = probe_rows(encode_sets([sets[4]], back.config), back.config.descriptors)
        assert distance_profile(probe, back)[0, 4] <= 1e-12

    def test_every_member_probes_to_itself(self, trained_variant, tmp_path):
        # every gallery member sent as a probe comes back as its own nearest
        # member, at a distance within the rounding of its projection (the
        # bound of perfbench's self-probe check), before and after a reload
        model, sets = trained_variant
        save_model(model, tmp_path / "m")
        back = load_model(tmp_path / "m")
        for m in (model, back):
            for i, s in enumerate(sets):
                pred = predict(s, m)
                d = pred.distances
                assert pred.nearest_index == i
                assert d[i] <= 1e-12 * max(float(np.median(d)), 1.0)

    def test_predictions_identical_after_reload(self, trained, tmp_path):
        model, sets = trained
        save_model(model, tmp_path / "m")
        back = load_model(tmp_path / "m")
        for s in sets:
            before = predict(s, model)
            after = predict(s, back)
            assert after.label == before.label
            assert np.array_equal(after.distances, before.distances)

    def test_fortran_order_bank_predicts_alike_after_reload(self, tmp_path):
        # load_model returns C-order features; a bank built from read-only
        # Fortran-order features stores them in C order too, so its model
        # gives the C-order model's distances before and after a reload
        sets = generate_synthetic(
            classes=3, sets_per_class=5, dim=10, samples=15, separation=4.0, seed=32
        )
        cfg = TrainConfig(subspace_dim=3, target_dim=3, iters=3, itr_iters=10, seed=32)
        gallery, probes = sets[::2], sets[1::2]
        c_bank = build_kernel_bank(encode_sets(gallery, cfg))
        fortran = tuple(fortran_read_only(f) for f in c_bank.features)
        labels = [s.label for s in gallery]
        c_model = train_one(c_bank.features, labels, ids_of(c_bank), cfg)
        f_model = train_one(fortran, labels, ids_of(c_bank), cfg)
        save_model(f_model, tmp_path / "m")
        back = load_model(tmp_path / "m")
        for s in probes:
            probe = probe_rows(encode_sets([s], cfg), c_bank.descriptors)
            want = distance_profile(probe, c_model)
            assert np.array_equal(distance_profile(probe, f_model), want)
            assert np.array_equal(distance_profile(probe, back), want)

    def test_loaded_arrays_are_read_only(self, trained, tmp_path):
        model, _ = trained
        save_model(model, tmp_path / "m")
        back = load_model(tmp_path / "m")
        assert not back.transform.flags.writeable
        assert not back.gating.coeffs.flags.writeable
        assert not back.gating.biases.flags.writeable
        assert not back.features[0].flags.writeable
        assert all(not a.flags.writeable for m in back.probe_maps for a in m)

    def test_load_and_predict_decompose_only_the_probe(self, trained, tmp_path, monkeypatch):
        # counted at numpy's public API, whichever module calls it: loading
        # factors nothing, and a probe takes two eigh calls over its three
        # matrices (its covariance and X X^T stacked, then its embedding)
        model, sets = trained
        save_model(model, tmp_path / "m")
        probe, cfg = sets[0], model.config
        second_moment = set_moments(probe)[2][None]
        covariance = regularized_covariance(probe, cfg.alpha)[None]
        embedding = encode_sets([probe], cfg).embedding
        eighs = spy(monkeypatch, np.linalg, "eigh", lambda a, *args, **kwargs: np.array(a))
        choleskys = spy(monkeypatch, np.linalg, "cholesky")
        back = load_model(tmp_path / "m")
        assert eighs == []
        predict(probe, back)
        assert [stack_length(a) for a in eighs] == [2, 1]
        assert np.array_equal(eighs[0], np.stack([covariance, second_moment]))
        assert np.array_equal(eighs[1], embedding)
        assert choleskys == []

    def test_predict_on_loaded_model_forms_no_kernel_column(
        self, trained, tmp_path, monkeypatch
    ):
        # predict reads each probe row through the model's maps, derived once
        # for the model's lifetime, and takes no dot against the N gallery rows
        model, sets = trained
        save_model(model, tmp_path / "m")
        back = load_model(tmp_path / "m")
        monkeypatch.setattr(np, "vecdot", lambda *a, **k: pytest.fail("predict took a kernel dot"))
        predict(sets[0], back)
        maps = back.probe_maps
        assert len(maps) == len(back.config.descriptors)
        for s in sets[1:]:
            predict(s, back)
        assert back.probe_maps is maps

    def test_save_is_deterministic(self, trained, tmp_path):
        model, _ = trained
        save_model(model, tmp_path / "a")
        save_model(model, tmp_path / "b")
        meta_a = (tmp_path / "a" / META_NAME).read_bytes()
        meta_b = (tmp_path / "b" / META_NAME).read_bytes()
        assert meta_a == meta_b
        for f in sorted((tmp_path / "a").iterdir()):
            assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes()

    def test_save_builds_no_gram(self, trained, tmp_path):
        # a model stores its features, and holds no Gram to save
        model, _ = trained
        with gram_builds() as built:
            save_model(model, tmp_path / "m")
        assert built == []

    def test_load_and_predict_build_no_gram(self, trained, tmp_path):
        # only training builds Grams: a loaded model derives what predict
        # reads from its stored rows
        model, sets = trained
        with gram_builds() as built:
            retrained = train_one(model.features, model.labels, model.set_ids, model.config)
        assert len(built) == len(model.config.descriptors)
        save_model(retrained, tmp_path / "m")
        with gram_builds() as built:
            back = load_model(tmp_path / "m")
            for s in sets:
                predict(s, back)
        assert built == []

    def test_write_failure_raises_io_error(self, trained, tmp_path):
        model, _ = trained
        blocker = tmp_path / "file"
        blocker.write_text("not a directory\n")
        with pytest.raises(IoError, match="cannot write model"):
            save_model(model, blocker / "sub")

    def test_scales_follow_the_config(self, trained):
        # a model derives its scales from its rows under its config, as
        # training and loading both do, so no scale can disagree with the config
        model, _ = trained
        cfg = dataclasses.replace(model.config, normalize_kernels=True)
        scaled = dataclasses.replace(model, config=cfg)
        assert model.scales == (1.0,) * len(cfg.descriptors)
        assert scaled.scales == kernel_bank(cfg.descriptors, model.features, True).scales
        assert all(s != 1.0 for s in scaled.scales)

    def test_bank_kernels_must_match_config(self, trained):
        # loading takes the channels from config.descriptors
        model, _ = trained
        cfg = dataclasses.replace(model.config, descriptors=("subspace", "cov"))
        with pytest.raises(BadSpec, match="channels"):
            dataclasses.replace(model, config=cfg)

    def test_transform_cannot_change_under_the_probe_maps(self, trained):
        model, sets = trained
        predict(sets[0], model)
        with pytest.raises(ValueError, match="read-only"):
            model.transform[0, 0] = 0.0

    @pytest.mark.parametrize(
        "field, cut",
        [
            ("transform", lambda m: m.transform[1:]),
            ("transform", lambda m: m.transform[:, 0]),
            ("transform", lambda m: m.transform[:, :0]),
            ("gating", lambda m: GatingParams(m.gating.coeffs[:, 1:], m.gating.biases)),
            ("gating", lambda m: GatingParams(m.gating.coeffs[1:], m.gating.biases)),
            ("gating", lambda m: GatingParams(m.gating.coeffs, m.gating.biases[1:])),
            ("labels", lambda m: m.labels[1:]),
            ("set_ids", lambda m: m.set_ids + ("extra",)),
        ],
        ids=["transform-rows", "transform-1d", "transform-no-columns", "coeffs-n", "coeffs-q", "biases", "labels", "ids"],
    )
    def test_arrays_must_fit_the_bank(self, trained, field, cut):
        # a hand-built model that does not fit its gallery fails when it is
        # made, not at its first predict
        model, _ = trained
        with pytest.raises(BadSpec, match="gallery sets"):
            dataclasses.replace(model, **{field: cut(model)})


class TestTamperDetection:
    def test_flipped_byte_raises_checksum(self, trained, tmp_path):
        model, _ = trained
        save_model(model, tmp_path / "m")
        target = tmp_path / "m" / "transform.npy"
        blob = bytearray(target.read_bytes())
        blob[-1] ^= 0xFF
        target.write_bytes(bytes(blob))
        with pytest.raises(ChecksumMismatch):
            load_model(tmp_path / "m")

    @pytest.mark.parametrize("version", [1, 3, 99])
    def test_future_version_rejected(self, trained, tmp_path, version):
        # format 1 stored descriptors and format 3 named features by kernel
        # number; there is no reader for either, only retraining
        model, _ = trained
        save_model(model, tmp_path / "m")
        edit_meta(tmp_path / "m", lambda m: m.update(format_version=version))
        with pytest.raises(FormatVersionMismatch, match="retrain"):
            load_model(tmp_path / "m")

    def test_format_2_directory_rejected(self, trained, tmp_path):
        # format 2 also stored train_weights, kernel numbers and an array index,
        # in .bin files; there is no reader for it, only retraining
        model, _ = trained
        meta_path = save_model(model, tmp_path / "m")
        meta = json.loads(meta_path.read_text())
        arrays = {}
        for fname in [*meta["checksums"], "train_weights.npy"]:
            name = fname.removesuffix(".npy")
            (tmp_path / "m" / f"{name}.bin").write_bytes(b"SFA1")
            arrays[name] = {"file": f"{name}.bin", "shape": [1]}
            (tmp_path / "m" / fname).unlink(missing_ok=True)
        checksums = {entry["file"]: "0" * 64 for entry in arrays.values()}
        meta.update(format_version=2, arrays=arrays, checksums=checksums)
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(FormatVersionMismatch, match="retrain"):
            load_model(tmp_path / "m")

    def test_version_checked_before_checksums(self, trained, tmp_path):
        # a bumped version wins even when array files are also corrupt
        model, _ = trained
        meta_path = save_model(model, tmp_path / "m")
        (tmp_path / "m" / "transform.npy").write_bytes(b"junk")
        meta = json.loads(meta_path.read_text())
        meta["format_version"] = 99
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(FormatVersionMismatch):
            load_model(tmp_path / "m")

    def test_missing_array_file(self, trained, tmp_path):
        model, _ = trained
        save_model(model, tmp_path / "m")
        (tmp_path / "m" / "gating_biases.npy").unlink()
        with pytest.raises(IoError):
            load_model(tmp_path / "m")

    def test_missing_metadata(self, tmp_path):
        with pytest.raises(IoError):
            load_model(tmp_path)

    def test_corrupt_metadata_json(self, trained, tmp_path):
        model, _ = trained
        meta_path = save_model(model, tmp_path / "m")
        meta_path.write_text("{not json")
        with pytest.raises(IoError):
            load_model(tmp_path / "m")

    def test_deeply_nested_metadata_raises_io_error(self, trained, tmp_path):
        # json.loads runs out of stack on deep nesting and raises RecursionError
        model, _ = trained
        meta_path = save_model(model, tmp_path / "m")
        meta_path.write_text("[" * 100_000)
        with pytest.raises(IoError, match="cannot parse .*model.json"):
            load_model(tmp_path / "m")

    def test_non_utf8_metadata_raises_io_error(self, trained, tmp_path):
        model, _ = trained
        meta_path = save_model(model, tmp_path / "m")
        meta_path.write_bytes(meta_path.read_bytes().replace(b'"labels"', b'"\xffabels"', 1))
        with pytest.raises(IoError, match="model.json"):
            load_model(tmp_path / "m")

    def test_shape_mismatch_detected(self, trained, tmp_path):
        # a header whose shape claims one row more than the payload holds
        model, _ = trained
        save_model(model, tmp_path / "m")
        t = model.transform
        blob = npy_bytes(np.zeros((t.shape[0] + 1, t.shape[1])))
        replace_array_file(tmp_path / "m", "transform.npy", blob[: -8 * t.shape[1]])
        with pytest.raises(ChecksumMismatch, match="payload"):
            load_model(tmp_path / "m")

    @pytest.mark.parametrize(
        "rewrite",
        [
            lambda t: npy_bytes(t.astype("<f4")),
            lambda t: npy_bytes(t.astype(">f8")),
            lambda t: npy_bytes(np.asfortranarray(t)),
            lambda t: npy_bytes(t[None]),
            lambda t: npy_bytes(t)[:-8],
            lambda t: npy_bytes(t, version=(2, 0)),
            negated_shape_npy,
            lambda t: b"not an npy file",
        ],
        ids=["f4", "big-endian", "fortran", "rank-3", "truncated", "version-2",
             "negative-shape", "not-npy"],
    )
    def test_rewritten_header_rejected(self, trained, tmp_path, rewrite):
        # the checksum is recomputed, so the header and payload checks must fire
        model, _ = trained
        save_model(model, tmp_path / "m")
        blob = rewrite(model.transform)
        assert blob != (tmp_path / "m" / "transform.npy").read_bytes()
        replace_array_file(tmp_path / "m", "transform.npy", blob)
        with pytest.raises(ChecksumMismatch):
            load_model(tmp_path / "m")

    def test_arrays_that_do_not_fit_rejected(self, trained, tmp_path):
        # a transform with one row too few, checksummed consistently
        model, _ = trained
        save_model(model, tmp_path / "m")
        digest = persistence._write_array(tmp_path / "m" / "transform.npy", model.transform[1:])
        edit_meta(tmp_path / "m", lambda m: m["checksums"].update({"transform.npy": digest}))
        with pytest.raises(IoError, match="do not fit"):
            load_model(tmp_path / "m")
        # gating coefficients of rank 1 are refused the same way, by the
        # shape check rather than by the finiteness check's axes
        save_model(model, tmp_path / "g")
        coeffs = model.gating.coeffs[0]
        digest = persistence._write_array(tmp_path / "g" / "gating_coeffs.npy", coeffs)
        edit_meta(tmp_path / "g", lambda m: m["checksums"].update({"gating_coeffs.npy": digest}))
        with pytest.raises(IoError, match="do not fit"):
            load_model(tmp_path / "g")

    @pytest.mark.parametrize(
        "fname, value",
        [("gating_coeffs.npy", np.nan), ("transform.npy", np.nan), ("features_gauss.npy", np.inf)],
        ids=["nan-gating", "nan-transform", "inf-feature"],
    )
    def test_non_finite_array_rejected(self, trained, tmp_path, fname, value):
        # checksummed consistently: a stored value, not a byte, is at fault,
        # so loading fails as a data error instead of predict failing later
        model, _ = trained
        save_model(model, tmp_path / "m")
        poisoned = np.load(tmp_path / "m" / fname).copy()
        poisoned.flat[0] = value
        replace_array_file(tmp_path / "m", fname, npy_bytes(poisoned))
        with pytest.raises(IoError, match="NaN or Inf"):
            load_model(tmp_path / "m")

    def test_huge_feature_refused_at_predict_without_warnings(self, trained, tmp_path):
        # a finite 1e300 loads; the distances it overflows are refused as
        # NonFinite before numpy warns of the overflow
        model, sets = trained
        save_model(model, tmp_path / "m")
        features = np.load(tmp_path / "m" / "features_cov.npy").copy()
        features[0, 0] = 1e300
        replace_array_file(tmp_path / "m", "features_cov.npy", npy_bytes(features))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            back = load_model(tmp_path / "m")
            with pytest.raises(NonFinite, match="distance profile"):
                predict(sets[0], back)

    def test_huge_feature_of_a_normalized_model_rejected(self, tmp_path):
        # its Gram trace overflows: loading refuses the scale it would take
        # as zero, without numpy's overflow warning
        model, _ = train_small(normalize_kernels=True)
        save_model(model, tmp_path / "m")
        features = np.load(tmp_path / "m" / "features_cov.npy").copy()
        features[0, 0] = 1e300
        replace_array_file(tmp_path / "m", "features_cov.npy", npy_bytes(features))
        with warnings.catch_warnings(), pytest.raises(IoError, match="gram trace overflows"):
            warnings.simplefilter("error")
            load_model(tmp_path / "m")

    @pytest.mark.parametrize("name", ["cov", "subspace", "gauss"])
    def test_features_of_no_set_dimension_rejected(self, trained, tmp_path, name):
        # one extra column, checksummed consistently: no d lifts to that width,
        # so loading names the file instead of predict failing on every probe
        model, _ = trained
        save_model(model, tmp_path / "m")
        f = model.features[model.config.descriptors.index(name)]
        wide = np.hstack([f, f[:, :1]])
        replace_array_file(tmp_path / "m", f"features_{name}.npy", npy_bytes(wide))
        with pytest.raises(IoError, match=f"features_{name}: {f.shape[1] + 1} features per set"):
            load_model(tmp_path / "m")

    def test_unlisted_array_file_rejected(self, trained, tmp_path):
        # a checksummed array file the format does not name: format 2's weights
        model, _ = trained
        save_model(model, tmp_path / "m")
        replace_array_file(tmp_path / "m", "train_weights.npy", npy_bytes(model.train_weights))
        with pytest.raises(IoError, match="checksums"):
            load_model(tmp_path / "m")

    @pytest.mark.parametrize(
        "edit",
        [
            lambda m: m.update(checksums={}),
            lambda m: m.pop("checksums"),
            lambda m: m["config"].pop("alpha"),
            lambda m: m["config"].update(momentum=0.9),
            lambda m: m.pop("labels"),
            lambda m: m.update(scales=[1.0, 1.0, 1.0]),
            lambda m: m["checksums"].pop("features_subspace.npy"),
            lambda m: m.update(labels=m["labels"][:-1]),
            lambda m: m["config"].update(descriptors=[]),
            # wrong-typed values under required keys
            lambda m: m["config"].update(descriptors=5),
            lambda m: m["config"].update(subspace_dim="x"),
            lambda m: m["config"].update(target_dim=3.0),
            lambda m: m["config"].update(normalize_kernels="no"),
            lambda m: m["config"].update(alpha=-1.0),
            lambda m: m["config"].update(alpha="1"),
            lambda m: m["config"].update(alpha=float("inf")),
            lambda m: m["config"].update(eps=True),
            lambda m: m.update(labels=7),
            lambda m: m.update(labels=[[c] for c in m["labels"]]),
            lambda m: m.update(labels=list(range(len(m["labels"])))),
            lambda m: m.update(set_ids=3),
            lambda m: m.update(set_ids=None),
            lambda m: m["config"].update(descriptors=["cov", True]),
            lambda m: m["checksums"].update(
                {"../m/transform.npy": m["checksums"].pop("transform.npy")}
            ),
            lambda m: m["checksums"].update({"transform.npy": 5}),
            lambda m: m.update(objective_trace=0.5),
            lambda m: m.update(objective_trace="0.5"),
        ],
        ids=[
            "empty-checksums", "no-checksums", "no-config-field", "unknown-config-field",
            "no-labels", "unknown-key", "no-array", "short-labels", "no-kernels",
            "descriptors-int", "subspace-dim-str", "target-dim-float", "normalize-str",
            "alpha-negative", "alpha-str", "alpha-inf", "eps-bool", "labels-int",
            "labels-nested", "labels-numbers", "set-ids-int", "set-ids-null", "kernel-id-bool",
            "file-path",
            "checksum-int", "trace-float", "trace-str",
        ],
    )
    def test_metadata_edit_rejected(self, trained, tmp_path, edit):
        model, _ = trained
        save_model(model, tmp_path / "m")
        edit_meta(tmp_path / "m", edit)
        with pytest.raises(IoError):
            load_model(tmp_path / "m")

    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), 7.5, -0.5], ids=["nan", "inf", "above-one", "negative"]
    )
    def test_impossible_objective_trace_rejected(self, trained, tmp_path, value):
        # train clips every objective into [0, 1], and json reads the NaN and
        # Infinity tokens: a model refuses any other value when it is made,
        # so loading refuses it too, and no model writes it back out
        model, _ = trained
        with pytest.raises(BadSpec, match="objective trace"):
            dataclasses.replace(model, objective_trace=model.objective_trace + (value,))
        save_model(model, tmp_path / "m")
        edit_meta(tmp_path / "m", lambda m: m["objective_trace"].append(value))
        with pytest.raises(IoError, match="objective trace"):
            load_model(tmp_path / "m")
