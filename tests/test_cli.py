"""Command-line tests via click's test runner."""

import csv
import hashlib
import io
import json
import logging
import warnings

import numpy as np
import pytest
from click.testing import CliRunner

from setfuse.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


def make_dataset(runner, root, classes=3, sets_per_class=4, separation=5.0, seed=21):
    out = root / "ds"
    result = runner.invoke(
        main,
        [
            "synth",
            "--classes", str(classes),
            "--sets-per-class", str(sets_per_class),
            "--dim", "6",
            "--samples", "12",
            "--separation", str(separation),
            "--seed", str(seed),
            "--out", str(out),
        ],
    )
    assert result.exit_code == 0, result.output
    return out / "manifest.csv"


FAST = ["--q", "4", "--dw", "4", "--iters", "3", "--itr-iters", "10"]


class TestSynth:
    def test_writes_manifest_and_set_files(self, runner, tmp_path):
        manifest = make_dataset(runner, tmp_path)
        assert manifest.is_file()
        with manifest.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["set_id", "label", "path"]
        assert len(rows) == 1 + 12
        for row in rows[1:]:
            assert (manifest.parent / row[2]).is_file()

    def test_bad_spec_exits_3(self, runner, tmp_path):
        result = runner.invoke(
            main,
            [
                "synth", "--classes", "0", "--sets-per-class", "1",
                "--dim", "4", "--samples", "5", "--separation", "1.0",
                "--out", str(tmp_path / "x"),
            ],
        )
        assert result.exit_code == 3

    def test_missing_required_option_exits_2(self, runner, tmp_path):
        result = runner.invoke(main, ["synth", "--classes", "2"])
        assert result.exit_code == 2


class TestTrain:
    def test_trains_and_saves_model(self, runner, tmp_path):
        manifest = make_dataset(runner, tmp_path)
        model_dir = tmp_path / "model"
        result = runner.invoke(
            main,
            ["train", "--manifest", str(manifest), "--out", str(model_dir), *FAST],
        )
        assert result.exit_code == 0, result.output
        assert "final objective" in result.output
        assert (model_dir / "model.json").is_file()
        assert (model_dir / "transform.npy").is_file()

    def test_missing_manifest_exits_3(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["train", "--manifest", str(tmp_path / "none.csv"),
             "--out", str(tmp_path / "m")],
        )
        assert result.exit_code == 3

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_manifest_field_over_the_csv_limit_exits_3(self, runner, tmp_path, command):
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("set_id,label,path\na,b," + "x" * 200_000 + "\n")
        args = ["--out", str(tmp_path / "m")] if command == "train" else []
        result = runner.invoke(main, [command, "--manifest", str(manifest), *args])
        assert result.exit_code == 3, result.output
        assert "manifest.csv:2: field larger than field limit" in result.output
        assert "Traceback" not in result.output

    def test_overflowing_gating_step_exits_4_without_warnings(self, runner, tmp_path):
        # the step's scores overflow: a numeric failure naming the step, and
        # no numpy RuntimeWarning on the way
        manifest = make_dataset(runner, tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = runner.invoke(
                main,
                ["train", "--manifest", str(manifest), "--out", str(tmp_path / "m"), *FAST,
                 "--gamma", "1e308"],
            )
        assert result.exit_code == 4, result.output
        assert "gating step 1.000e+308 gives non-finite gating weights" in result.output
        assert not (tmp_path / "m").exists()

    def test_descriptor_subset_accepted(self, runner, tmp_path):
        manifest = make_dataset(runner, tmp_path)
        result = runner.invoke(
            main,
            ["train", "--manifest", str(manifest), "--out", str(tmp_path / "m"),
             "--descriptors", "cov,gauss", *FAST],
        )
        assert result.exit_code == 0, result.output

    def test_bad_descriptor_name_exits_3(self, runner, tmp_path):
        manifest = make_dataset(runner, tmp_path)
        result = runner.invoke(
            main,
            ["train", "--manifest", str(manifest), "--out", str(tmp_path / "m"),
             "--descriptors", "cov,wavelet"],
        )
        assert result.exit_code == 3


class TestConstantSet:
    """A set whose samples are all equal has a zero covariance: encoding
    floors it with a warning, so it trains at q=1, while its subspace has
    rank 1, so training at q >= 2 is a numeric failure naming it."""

    @pytest.fixture()
    def manifest(self, runner, tmp_path):
        manifest = make_dataset(runner, tmp_path)
        path = manifest.parent / "class0_set0.csv"
        x = np.loadtxt(path, delimiter=",")
        np.savetxt(path, np.repeat(x[:, :1], x.shape[1], axis=1), delimiter=",")
        return manifest

    def test_trains_and_predicts_at_q1(self, runner, manifest, tmp_path, caplog):
        model_dir = tmp_path / "model"
        with caplog.at_level(logging.WARNING, logger="setfuse.descriptors"):
            result = runner.invoke(
                main,
                ["train", "--manifest", str(manifest), "--out", str(model_dir), *FAST, "--q", "1"],
            )
        assert result.exit_code == 0, result.output
        assert any("zero-trace covariance" in r.message for r in caplog.records)
        probe = manifest.parent / "class0_set0.csv"
        result = runner.invoke(main, ["predict", "--model", str(model_dir), "--set", str(probe)])
        assert result.exit_code == 0, result.output

    @pytest.mark.parametrize("q", ["2", "4"])
    def test_q_of_2_or_more_exits_4(self, runner, manifest, tmp_path, q):
        result = runner.invoke(
            main,
            ["train", "--manifest", str(manifest), "--out", str(tmp_path / "m"), *FAST, "--q", q],
        )
        assert result.exit_code == 4, result.output
        assert "class0_set0" in result.output
        assert f"rank below q={q}" in result.output


class TestPredict:
    def test_predicts_training_member_label(self, runner, tmp_path):
        manifest = make_dataset(runner, tmp_path)
        model_dir = tmp_path / "model"
        assert runner.invoke(
            main,
            ["train", "--manifest", str(manifest), "--out", str(model_dir), *FAST],
        ).exit_code == 0
        probe = manifest.parent / "class1_set0.csv"
        result = runner.invoke(
            main, ["predict", "--model", str(model_dir), "--set", str(probe)]
        )
        assert result.exit_code == 0, result.output
        assert "predicted label: class1" in result.output
        assert "closest gallery sets:" in result.output
        assert "class1_set0" in result.output

    @pytest.mark.parametrize(
        "case, code",
        [("wrong-dim", 3), ("too-few-samples", 3), ("format-1-model", 3)],
    )
    def test_bad_input_exit_code(self, runner, tmp_path, case, code):
        # the model is trained with q=4 on d=6 sets of 12 samples
        manifest = make_dataset(runner, tmp_path)
        model_dir = tmp_path / "model"
        assert runner.invoke(
            main,
            ["train", "--manifest", str(manifest), "--out", str(model_dir), *FAST],
        ).exit_code == 0
        features = np.random.default_rng(7).standard_normal((6, 12))
        if case == "wrong-dim":
            features = features[:3]
        elif case == "too-few-samples":
            features = features[:, :3]
        else:
            meta_path = model_dir / "model.json"
            meta = json.loads(meta_path.read_text())
            meta["format_version"] = 1
            meta_path.write_text(json.dumps(meta))
        probe = tmp_path / "probe.csv"
        np.savetxt(probe, features, delimiter=",")
        result = runner.invoke(
            main, ["predict", "--model", str(model_dir), "--set", str(probe)]
        )
        assert result.exit_code == code, result.output
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output

    @pytest.mark.parametrize(
        "fname, value",
        [("gating_coeffs.npy", np.nan), ("transform.npy", np.nan), ("features_gauss.npy", np.inf)],
        ids=["nan-gating", "nan-transform", "inf-feature"],
    )
    def test_non_finite_model_array_exits_3(self, runner, tmp_path, fname, value):
        # the array is re-checksummed, so only its values are at fault
        manifest = make_dataset(runner, tmp_path)
        model_dir = tmp_path / "model"
        assert runner.invoke(
            main,
            ["train", "--manifest", str(manifest), "--out", str(model_dir), *FAST],
        ).exit_code == 0
        poisoned = np.load(model_dir / fname).copy()
        poisoned.flat[0] = value
        buf = io.BytesIO()
        np.save(buf, poisoned)
        (model_dir / fname).write_bytes(buf.getvalue())
        meta_path = model_dir / "model.json"
        meta = json.loads(meta_path.read_text())
        meta["checksums"][fname] = hashlib.sha256(buf.getvalue()).hexdigest()
        meta_path.write_text(json.dumps(meta))
        probe = manifest.parent / "class0_set0.csv"
        result = runner.invoke(
            main, ["predict", "--model", str(model_dir), "--set", str(probe)]
        )
        assert result.exit_code == 3, result.output
        assert "NaN or Inf" in result.output
        assert "Traceback" not in result.output

    def test_deeply_nested_model_json_exits_3(self, runner, tmp_path):
        manifest = make_dataset(runner, tmp_path)
        probe = manifest.parent / "class0_set0.csv"
        (tmp_path / "m").mkdir()
        (tmp_path / "m" / "model.json").write_text("[" * 100_000)
        result = runner.invoke(
            main, ["predict", "--model", str(tmp_path / "m"), "--set", str(probe)]
        )
        assert result.exit_code == 3, result.output
        assert "Traceback" not in result.output

    def test_missing_model_exits_3(self, runner, tmp_path):
        manifest = make_dataset(runner, tmp_path)
        probe = manifest.parent / "class0_set0.csv"
        result = runner.invoke(
            main,
            ["predict", "--model", str(tmp_path / "ghost"), "--set", str(probe)],
        )
        assert result.exit_code == 3


class TestEval:
    def test_summary_and_report(self, runner, tmp_path):
        manifest = make_dataset(runner, tmp_path)
        report = tmp_path / "report.csv"
        result = runner.invoke(
            main,
            ["eval", "--manifest", str(manifest), "--splits", "2",
             "--train-per-class", "3", "--report", str(report), *FAST],
        )
        assert result.exit_code == 0, result.output
        assert "mean accuracy:" in result.output
        with report.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "split"
        assert rows[-2][0] == "mean"
        assert rows[-1][0] == "std"
        assert len(rows) == 1 + 2 + 2
        traces = tmp_path / "report.csv.traces.csv"
        assert traces.is_file()
        with traces.open() as fh:
            trows = list(csv.reader(fh))
        assert trows[0] == ["split", "iteration", "objective"]
        assert len(trows) > 1

    def test_too_few_sets_exits_3(self, runner, tmp_path):
        manifest = make_dataset(runner, tmp_path, sets_per_class=2)
        result = runner.invoke(
            main,
            ["eval", "--manifest", str(manifest), "--splits", "1",
             "--train-per-class", "3", *FAST],
        )
        assert result.exit_code == 3


class TestAblate:
    def test_prints_four_rows(self, runner, tmp_path):
        manifest = make_dataset(runner, tmp_path)
        report = tmp_path / "ablation.csv"
        result = runner.invoke(
            main,
            ["ablate", "--manifest", str(manifest), "--splits", "1",
             "--report", str(report), *FAST],
        )
        assert result.exit_code == 0, result.output
        for name in ("cov", "subspace", "gauss", "combined"):
            assert name in result.output
        with report.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["descriptors", "mean_accuracy", "std_accuracy"]
        assert len(rows) == 5


class TestGroup:
    def test_help_lists_subcommands(self, runner):
        result = runner.invoke(main, ["--help"])
        assert result.exit_code == 0
        for cmd in ("synth", "train", "eval", "predict", "ablate"):
            assert cmd in result.output

    def test_unknown_command_exits_2(self, runner):
        assert runner.invoke(main, ["frobnicate"]).exit_code == 2


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory):
    """A manifest and a model trained on it (q=4 on d=6 sets of 12 samples)."""
    root = tmp_path_factory.mktemp("cli")
    cli = CliRunner()
    manifest = make_dataset(cli, root)
    model_dir = root / "model"
    result = cli.invoke(main, ["train", "--manifest", str(manifest), "--out", str(model_dir), *FAST])
    assert result.exit_code == 0, result.output
    return manifest, model_dir


def _probe(features):
    def make(tmp_path, manifest, model_dir):
        probe = tmp_path / "probe.csv"
        np.savetxt(probe, features, delimiter=",")
        return ["predict", "--model", str(model_dir), "--set", str(probe)]

    return make


def _predict_edited_model(edit):
    def make(tmp_path, manifest, model_dir):
        copy = tmp_path / "model"
        copy.mkdir()
        for f in model_dir.iterdir():
            (copy / f.name).write_bytes(f.read_bytes())
        edit(copy)
        probe = manifest.parent / "class0_set0.csv"
        return ["predict", "--model", str(copy), "--set", str(probe)]

    return make


def _non_utf8_probe(tmp_path, manifest, model_dir):
    probe = tmp_path / "probe.csv"
    blob = (manifest.parent / "class0_set0.csv").read_bytes()
    probe.write_bytes(blob.replace(b"\n", b"\xff\n", 1))
    return ["predict", "--model", str(model_dir), "--set", str(probe)]


def _non_utf8_json(model_dir):
    path = model_dir / "model.json"
    path.write_bytes(b"\xff" + path.read_bytes())


def _non_utf8_manifest(tmp_path, manifest, model_dir):
    copy = tmp_path / manifest.name
    copy.write_bytes(manifest.read_bytes().replace(b"class0", b"class\xff", 1))
    return ["train", "--manifest", str(copy), "--out", str(tmp_path / "out"), *FAST]


def _edit_json(change):
    def edit(model_dir):
        path = model_dir / "model.json"
        meta = json.loads(path.read_text())
        change(meta)
        path.write_text(json.dumps(meta))

    return edit


def _truncate(name):
    def edit(model_dir):
        path = model_dir / name
        path.write_bytes(path.read_bytes()[:-8])

    return edit


def _command(*args):
    """``{manifest}`` is the dataset, ``{out}`` a fresh path, ``{file}`` a
    regular file (so ``{file}/x`` cannot be written)."""
    def make(tmp_path, manifest, model_dir):
        (tmp_path / "file").write_text("not a directory\n")
        paths = {"{manifest}": manifest, "{out}": tmp_path / "out", "{file}": tmp_path / "file"}
        out = []
        for a in args:
            for key, path in paths.items():
                a = a.replace(key, str(path))
            out.append(a)
        return out

    return make


def _synth(separation, out, *extra):
    return _command("synth", "--classes", "2", "--sets-per-class", "2", "--dim", "3",
                    "--samples", "5", "--separation", separation, "--out", out, *extra)


_RNG = np.random.default_rng(7)
_NAN_PROBE = _RNG.standard_normal((6, 12))
_NAN_PROBE[2, 3] = np.nan
# rank 1: every sample the same vector, against a q=4 model
_RANK_ONE_PROBE = np.repeat(_RNG.standard_normal((6, 1)), 12, axis=1)

# Each malformed input maps to a documented exit code: 2 usage, 3 data, 4 numeric.
EXIT_CASES = {
    "unknown-option": (_command("eval", "--manifest", "{manifest}", "--bogus"), 2),
    "eval-zero-splits": (_command("eval", "--manifest", "{manifest}", "--splits", "0", *FAST), 3),
    "eval-zero-train-per-class": (
        _command("eval", "--manifest", "{manifest}", "--train-per-class", "0", *FAST), 3
    ),
    "train-negative-alpha": (
        _command("train", "--manifest", "{manifest}", "--out", "{out}", "--alpha", "-1"), 3
    ),
    "train-inf-alpha": (
        _command("train", "--manifest", "{manifest}", "--out", "{out}", "--alpha", "inf"), 3
    ),
    "train-negative-gamma": (
        _command("train", "--manifest", "{manifest}", "--out", "{out}", "--gamma", "-1"), 3
    ),
    "eval-nan-gamma": (_command("eval", "--manifest", "{manifest}", "--gamma", "nan", *FAST), 3),
    "eval-nan-eps": (_command("eval", "--manifest", "{manifest}", "--eps", "nan", *FAST), 3),
    "train-negative-seed": (
        _command("train", "--manifest", "{manifest}", "--out", "{out}", "--seed", "-1", *FAST), 3
    ),
    "eval-negative-seed": (
        _command("eval", "--manifest", "{manifest}", "--seed", "-1", *FAST), 3
    ),
    "probe-wrong-dim": (_probe(_RNG.standard_normal((3, 12))), 3),
    "probe-too-few-samples": (_probe(_RNG.standard_normal((6, 3))), 3),
    "probe-nan-token": (_probe(_NAN_PROBE), 4),
    "probe-not-utf8": (_non_utf8_probe, 3),
    "model-json-not-utf8": (_predict_edited_model(_non_utf8_json), 3),
    "train-manifest-not-utf8": (_non_utf8_manifest, 3),
    "probe-rank-deficient": (_probe(_RANK_ONE_PROBE), 4),
    "model-truncated-npy": (_predict_edited_model(_truncate("transform.npy")), 3),
    "model-format-2": (_predict_edited_model(_edit_json(lambda m: m.update(format_version=2))), 3),
    "model-descriptors-int": (
        _predict_edited_model(_edit_json(lambda m: m["config"].update(descriptors=5))), 3
    ),
    "model-labels-int": (_predict_edited_model(_edit_json(lambda m: m.update(labels=7))), 3),
    "synth-nan-separation": (_synth("nan", "{out}"), 3),
    "synth-inf-separation": (_synth("inf", "{out}"), 3),
    "synth-out-under-file": (_synth("1", "{file}/x"), 3),
    "synth-negative-seed": (_synth("1", "{out}", "--seed", "-1"), 3),
    "train-out-under-file": (
        _command("train", "--manifest", "{manifest}", "--out", "{file}/sub", *FAST), 3
    ),
    "eval-report-under-file": (
        _command("eval", "--manifest", "{manifest}", "--report", "{file}/r.csv", *FAST), 3
    ),
}


@pytest.mark.parametrize("case", sorted(EXIT_CASES))
def test_malformed_input_exit_code(runner, trained_dir, tmp_path, case):
    make, code = EXIT_CASES[case]
    result = runner.invoke(main, make(tmp_path, *trained_dir))
    assert result.exit_code == code, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
