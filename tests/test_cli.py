"""Command-line tests via click's test runner."""

import csv
import json

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
        assert (model_dir / "transform.bin").is_file()

    def test_missing_manifest_exits_3(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["train", "--manifest", str(tmp_path / "none.csv"),
             "--out", str(tmp_path / "m")],
        )
        assert result.exit_code == 3

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
