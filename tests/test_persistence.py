"""Model serialization tests: round trips and tamper detection."""

import dataclasses
import json
import sys

import numpy as np
import pytest

from setfuse import kernels, persistence
from setfuse.classify import distance_profile, predict
from setfuse.config import TrainConfig
from setfuse.data import generate_synthetic
from setfuse.descriptors import encode_set
from setfuse.errors import (
    BadSpec,
    ChecksumMismatch,
    FormatVersionMismatch,
    IoError,
)
from setfuse.experiment import train_on_sets
from setfuse.kernels import build_kernel_bank
from setfuse.persistence import META_NAME, load_model, save_model
from setfuse.spd import spd_log
from setfuse.trainer import train


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


def edit_meta(model_dir, edit):
    meta_path = model_dir / META_NAME
    meta = json.loads(meta_path.read_text())
    edit(meta)
    meta_path.write_text(json.dumps(meta))


class TestRoundTrip:
    def test_arrays_bit_identical(self, trained, tmp_path):
        model, _ = trained
        save_model(model, tmp_path / "m")
        back = load_model(tmp_path / "m")
        assert np.array_equal(back.transform, model.transform)
        assert np.array_equal(back.gating.coeffs, model.gating.coeffs)
        assert np.array_equal(back.gating.biases, model.gating.biases)
        assert np.array_equal(back.train_weights, model.train_weights)
        for a, b in zip(back.bank.grams, model.bank.grams):
            assert np.array_equal(a, b)
        assert back.bank.kernel_ids == model.bank.kernel_ids
        assert back.bank.scales == model.bank.scales
        assert back.labels == model.labels
        assert back.objective_trace == model.objective_trace
        assert back.config == model.config

    def test_gallery_descriptors_restored(self, trained, tmp_path):
        # the gallery is stored as its lifted features, named by set ids and labels
        model, sets = trained
        save_model(model, tmp_path / "m")
        back = load_model(tmp_path / "m")
        assert len(back.bank.features) == len(model.bank.features)
        for a, b in zip(back.bank.features, model.bank.features):
            assert np.array_equal(a, b)
        assert back.set_ids == tuple(s.set_id for s in sets) == model.set_ids
        assert back.labels == tuple(s.label for s in sets) == model.labels

    def test_model_is_its_learned_arrays_and_features(self, trained, tmp_path):
        model, _ = trained
        save_model(model, tmp_path / "m")
        names = sorted(f.name for f in (tmp_path / "m").iterdir())
        assert names == [
            "features_1.bin", "features_2.bin", "features_3.bin", "gating_biases.bin",
            "gating_coeffs.bin", META_NAME, "train_weights.bin", "transform.bin",
        ]

    def test_variant_round_trip_bit_identical(self, trained_variant, tmp_path):
        model, sets = trained_variant
        save_model(model, tmp_path / "m")
        back = load_model(tmp_path / "m")
        assert back.bank.kernel_ids == model.bank.kernel_ids
        assert back.bank.scales == model.bank.scales
        for name in ("grams", "features"):
            for a, b in zip(getattr(back.bank, name), getattr(model.bank, name)):
                assert np.array_equal(a, b)
        for s in sets:
            assert np.array_equal(predict(s, back).distances, predict(s, model).distances)
        # a gallery member sent as a probe reproduces its Gram column
        triple = encode_set(sets[4], back.config)
        for q, col in enumerate(back.bank.columns_from_rows(back.bank.probe_rows(triple))):
            assert np.array_equal(col, back.bank.grams[q][:, 4])
        assert distance_profile(triple, back)[4] <= 1e-12

    def test_predictions_identical_after_reload(self, trained, tmp_path):
        model, sets = trained
        save_model(model, tmp_path / "m")
        back = load_model(tmp_path / "m")
        for s in sets:
            before = predict(s, model)
            after = predict(s, back)
            assert after.label == before.label
            assert np.array_equal(after.distances, before.distances)

    def test_loaded_arrays_are_read_only(self, trained, tmp_path):
        model, _ = trained
        save_model(model, tmp_path / "m")
        back = load_model(tmp_path / "m")
        assert not back.transform.flags.writeable
        assert not back.bank.grams[0].flags.writeable
        assert not back.bank.features[0].flags.writeable

    def test_predict_on_loaded_model_lifts_only_the_probe(self, trained, tmp_path, monkeypatch):
        model, sets = trained
        save_model(model, tmp_path / "m")
        back = load_model(tmp_path / "m")
        calls = []
        real_log = kernels.spd_log

        def counting_log(c):
            calls.append(1)
            return real_log(c)

        monkeypatch.setattr(kernels, "spd_log", counting_log)
        predict(sets[0], back)
        # the probe's covariance and Gaussian embedding, never the gallery's
        assert len(calls) == 2

    def test_load_lifts_nothing(self, trained, tmp_path, monkeypatch):
        model, _ = trained
        save_model(model, tmp_path / "m")
        calls = []

        def counting_log(c):
            calls.append(1)
            return spd_log(c)

        # every module that binds spd_log, so no import path escapes the count
        for name, mod in list(sys.modules.items()):
            if name.startswith("setfuse") and hasattr(mod, "spd_log"):
                monkeypatch.setattr(mod, "spd_log", counting_log)
        load_model(tmp_path / "m")
        assert calls == []

    def test_save_is_deterministic(self, trained, tmp_path):
        model, _ = trained
        save_model(model, tmp_path / "a")
        save_model(model, tmp_path / "b")
        meta_a = (tmp_path / "a" / META_NAME).read_bytes()
        meta_b = (tmp_path / "b" / META_NAME).read_bytes()
        assert meta_a == meta_b
        for f in sorted((tmp_path / "a").iterdir()):
            assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes()

    def test_save_builds_no_gram(self, trained, tmp_path, monkeypatch):
        # the bank's Grams are derived from its features, so saving checks a flag
        model, _ = trained
        monkeypatch.setattr(kernels, "_gram", lambda f: pytest.fail("save_model built a Gram"))
        save_model(model, tmp_path / "m")

    def test_write_failure_raises_io_error(self, trained, tmp_path):
        model, _ = trained
        blocker = tmp_path / "file"
        blocker.write_text("not a directory\n")
        with pytest.raises(IoError, match="cannot write model"):
            save_model(model, blocker / "sub")

    def test_bank_normalization_must_match_config(self, trained, tmp_path):
        # loading rescales by config.normalize_kernels, so a bank built the
        # other way would not come back as trained
        model, sets = trained
        cfg = model.config
        triples = [encode_set(s, cfg) for s in sets]
        bank = build_kernel_bank(triples, cfg.kernel_ids, normalize=True)
        mixed = train(bank, model.labels, cfg)
        with pytest.raises(BadSpec):
            save_model(mixed, tmp_path / "m")
        assert not (tmp_path / "m").exists()

    def test_model_without_set_ids_round_trips(self, trained, tmp_path):
        model, sets = trained
        save_model(dataclasses.replace(model, set_ids=None), tmp_path / "m")
        back = load_model(tmp_path / "m")
        assert back.set_ids is None
        assert np.array_equal(predict(sets[0], back).distances, predict(sets[0], model).distances)


class TestTamperDetection:
    def test_flipped_byte_raises_checksum(self, trained, tmp_path):
        model, _ = trained
        save_model(model, tmp_path / "m")
        target = tmp_path / "m" / "transform.bin"
        blob = bytearray(target.read_bytes())
        blob[-1] ^= 0xFF
        target.write_bytes(bytes(blob))
        with pytest.raises(ChecksumMismatch):
            load_model(tmp_path / "m")

    @pytest.mark.parametrize("version", [1, 99])
    def test_future_version_rejected(self, trained, tmp_path, version):
        # format 1 stored descriptors; there is no reader for it, only retraining
        model, _ = trained
        save_model(model, tmp_path / "m")
        edit_meta(tmp_path / "m", lambda m: m.update(format_version=version))
        with pytest.raises(FormatVersionMismatch, match="retrain"):
            load_model(tmp_path / "m")

    def test_version_checked_before_checksums(self, trained, tmp_path):
        # a bumped version wins even when array files are also corrupt
        model, _ = trained
        meta_path = save_model(model, tmp_path / "m")
        (tmp_path / "m" / "transform.bin").write_bytes(b"junk")
        meta = json.loads(meta_path.read_text())
        meta["format_version"] = 99
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(FormatVersionMismatch):
            load_model(tmp_path / "m")

    def test_missing_array_file(self, trained, tmp_path):
        model, _ = trained
        save_model(model, tmp_path / "m")
        (tmp_path / "m" / "gating_biases.bin").unlink()
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

    def test_shape_mismatch_detected(self, trained, tmp_path):
        model, _ = trained
        meta_path = save_model(model, tmp_path / "m")
        meta = json.loads(meta_path.read_text())
        meta["arrays"]["transform"]["shape"] = [1, 1]
        # keep the checksum valid so the shape check itself must fire
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(ChecksumMismatch):
            load_model(tmp_path / "m")

    def test_arrays_that_do_not_fit_rejected(self, trained, tmp_path):
        # a transform with one row too few, indexed and checksummed consistently
        model, _ = trained
        save_model(model, tmp_path / "m")
        digest = persistence._write_array(tmp_path / "m" / "transform.bin", model.transform[1:])

        def edit(m):
            m["arrays"]["transform"]["shape"] = list(model.transform[1:].shape)
            m["checksums"]["transform.bin"] = digest

        edit_meta(tmp_path / "m", edit)
        with pytest.raises(IoError, match="do not fit"):
            load_model(tmp_path / "m")

    def test_unlisted_array_file_rejected(self, trained, tmp_path):
        # an index entry pointing at a file no checksum covers
        model, _ = trained
        save_model(model, tmp_path / "m")
        header = (tmp_path / "m" / "transform.bin").read_bytes()[:16]
        (tmp_path / "m" / "zeros.bin").write_bytes(header + bytes(8 * model.transform.size))
        edit_meta(tmp_path / "m", lambda m: m["arrays"]["transform"].update(file="zeros.bin"))
        with pytest.raises(IoError):
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
            lambda m: m["arrays"].pop("features_2"),
            lambda m: m.update(labels=m["labels"][:-1]),
            lambda m: m.update(
                kernel_ids=[],
                arrays={k: v for k, v in m["arrays"].items() if not k.startswith("features")},
                checksums={k: v for k, v in m["checksums"].items() if not k.startswith("features")},
            ),
            # wrong-typed values under required keys
            lambda m: m["config"].update(descriptors=5),
            lambda m: m["config"].update(subspace_dim="x"),
            lambda m: m["config"].update(target_dim=3.0),
            lambda m: m["config"].update(normalize_kernels="no"),
            lambda m: m["config"].update(alpha=-1.0),
            lambda m: m.update(labels=7),
            lambda m: m.update(labels=[[c] for c in m["labels"]]),
            lambda m: m.update(set_ids=3),
            lambda m: m.update(kernel_ids=[True, 2, 3]),
            lambda m: m["arrays"]["transform"].update(file=5),
            lambda m: m["arrays"]["transform"].update(file="../m/transform.bin"),
            lambda m: m["arrays"]["transform"].update(shape="ab"),
            lambda m: m["arrays"]["transform"].update(shape=5),
            lambda m: m["arrays"]["transform"].update(shape=[2, 2, 2]),
            lambda m: m["checksums"].update({"transform.bin": 5}),
            lambda m: m.update(objective_trace=0.5),
            lambda m: m.update(objective_trace="0.5"),
        ],
        ids=[
            "empty-checksums", "no-checksums", "no-config-field", "unknown-config-field",
            "no-labels", "unknown-key", "no-array", "short-labels", "no-kernels",
            "descriptors-int", "subspace-dim-str", "target-dim-float", "normalize-str",
            "alpha-negative", "labels-int", "labels-nested", "set-ids-int", "kernel-id-bool",
            "file-int", "file-path", "shape-str", "shape-int", "shape-rank-3",
            "checksum-int", "trace-float", "trace-str",
        ],
    )
    def test_metadata_edit_rejected(self, trained, tmp_path, edit):
        model, _ = trained
        save_model(model, tmp_path / "m")
        edit_meta(tmp_path / "m", edit)
        with pytest.raises(IoError):
            load_model(tmp_path / "m")
