"""Model serialization tests: round trips and tamper detection."""

import json

import numpy as np
import pytest

from setfuse import kernels
from setfuse.classify import predict
from setfuse.config import TrainConfig
from setfuse.data import generate_synthetic
from setfuse.errors import ChecksumMismatch, FormatVersionMismatch, IoError
from setfuse.experiment import train_on_sets
from setfuse.persistence import META_NAME, load_model, save_model


@pytest.fixture(scope="module")
def trained():
    sets = generate_synthetic(
        classes=3, sets_per_class=3, dim=5, samples=10, separation=4.0, seed=31
    )
    cfg = TrainConfig(subspace_dim=3, target_dim=3, iters=3, itr_iters=10, seed=31)
    return train_on_sets(sets, cfg), sets


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
        model, _ = trained
        save_model(model, tmp_path / "m")
        back = load_model(tmp_path / "m")
        assert back.gallery is not None
        assert len(back.gallery) == len(model.gallery)
        for a, b in zip(back.gallery, model.gallery):
            assert a.set_id == b.set_id
            assert a.label == b.label
            assert np.array_equal(a.cov, b.cov)
            assert np.array_equal(a.subspace.basis, b.subspace.basis)
            assert np.array_equal(a.gauss.mean, b.gauss.mean)
            assert np.array_equal(a.gauss.covariance, b.gauss.covariance)
            assert np.array_equal(a.gauss.embedding, b.gauss.embedding)

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
        assert not back.gallery[0].cov.flags.writeable

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

    def test_save_is_deterministic(self, trained, tmp_path):
        model, _ = trained
        save_model(model, tmp_path / "a")
        save_model(model, tmp_path / "b")
        meta_a = (tmp_path / "a" / META_NAME).read_bytes()
        meta_b = (tmp_path / "b" / META_NAME).read_bytes()
        assert meta_a == meta_b
        for f in sorted((tmp_path / "a").iterdir()):
            assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes()

    def test_modelless_gallery_round_trip(self, trained, tmp_path):
        from setfuse.trainer import ModelState

        model, _ = trained
        stripped = ModelState(
            transform=model.transform,
            gating=model.gating,
            train_weights=model.train_weights,
            bank=model.bank,
            labels=model.labels,
            config=model.config,
            objective_trace=model.objective_trace,
            gallery=None,
        )
        save_model(stripped, tmp_path / "m")
        back = load_model(tmp_path / "m")
        assert back.gallery is None


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

    def test_future_version_rejected(self, trained, tmp_path):
        model, _ = trained
        meta_path = save_model(model, tmp_path / "m")
        meta = json.loads(meta_path.read_text())
        meta["format_version"] = 99
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(FormatVersionMismatch):
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
