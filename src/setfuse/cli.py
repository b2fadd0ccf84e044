"""Command line for the set-classification pipeline.

Subcommands: ``synth`` (generate a synthetic dataset), ``train`` (fit and
save a model), ``eval`` (split protocol with a CSV report), ``predict``
(classify one set file against a saved model), ``ablate`` (per-descriptor
comparison). Exit codes: 0 success, 2 usage error, 3 data error, 4 numeric
failure.
"""

from __future__ import annotations

import csv
import functools
import logging
import sys
from pathlib import Path

import click
import numpy as np

from . import persistence
from .classify import predict as predict_set
from .config import TrainConfig
from .data import generate_synthetic, load_dataset, read_set_file, save_dataset
from .descriptors import ImageSet
from .errors import DataError, IoError, SetfuseError
from .experiment import ExperimentReport, run_experiment, train_on_sets

EXIT_DATA_ERROR = 3
EXIT_NUMERIC_ERROR = 4


def _guarded(fn):
    """Map package exceptions onto the documented exit codes."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except DataError as exc:
            click.echo(f"data error: {exc}", err=True)
            sys.exit(EXIT_DATA_ERROR)
        except SetfuseError as exc:
            click.echo(f"numeric failure: {exc}", err=True)
            sys.exit(EXIT_NUMERIC_ERROR)

    return wrapper


def _train_options(fn):
    """Hyperparameter flags shared by train, eval, and ablate."""
    defaults = TrainConfig()
    options = [
        click.option("--q", "subspace_dim", type=int, default=defaults.subspace_dim,
                     show_default=True, help="Subspace descriptor dimension."),
        click.option("--alpha", type=float, default=defaults.alpha, show_default=True,
                     help="Covariance regularization divisor (spectrum shift trace/alpha)."),
        click.option("--dw", "target_dim", type=int, default=defaults.target_dim,
                     show_default=True, help="Learned projection width."),
        click.option("--gamma", "learning_rate", type=float, default=defaults.learning_rate,
                     show_default=True, help="Gating gradient-ascent step size."),
        click.option("--iters", type=int, default=defaults.iters, show_default=True,
                     help="Outer training iterations."),
        click.option("--itr-iters", type=int, default=defaults.itr_iters, show_default=True,
                     help="Inner trace-ratio iterations."),
        click.option("--eps", type=float, default=defaults.eps, show_default=True,
                     help="Stop tolerance of the gating step and of the trace ratio "
                          "(0 disables early stopping)."),
        click.option("--seed", type=int, default=defaults.seed, show_default=True,
                     help="Seed of the evaluation splits; training draws nothing at random."),
        click.option("--descriptors", type=str, default=",".join(defaults.descriptors),
                     show_default=True,
                     help="Comma-separated subset of cov,subspace,gauss."),
        click.option("--normalize-kernels", type=click.Choice(["on", "off"]), default="off",
                     show_default=True, help="Rescale each Gram matrix to trace N."),
    ]
    for opt in reversed(options):
        fn = opt(fn)
    return fn


def _build_config(descriptors, normalize_kernels, **fields) -> TrainConfig:
    """The config of the shared training flags; only the two string flags are converted."""
    names = tuple(n.strip() for n in descriptors.split(",") if n.strip())
    return TrainConfig(descriptors=names, normalize_kernels=normalize_kernels == "on", **fields)


def _write_csv(path, rows) -> None:
    """Write rows to a CSV file; a failed write raises ``IoError``."""
    try:
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def _write_report_csv(report: ExperimentReport, path) -> None:
    """Per-split CSV; ``train_seconds`` is the split's share of the training
    time: the splits train together, so each gets the Gram builds plus
    training of all of them divided by their count (each set is encoded once
    per run, shared by every split)."""
    rows = [["split", "seed", "accuracy", "n_train", "n_test", "train_seconds"]]
    for s in report.splits:
        rows.append([s.split_index, s.seed, f"{s.accuracy:.6f}", s.n_train,
                     s.n_test, f"{s.train_seconds:.4f}"])
    rows.append(["mean", "", f"{report.mean_accuracy:.6f}", "", "", ""])
    rows.append(["std", "", f"{report.std_accuracy:.6f}", "", "", ""])
    _write_csv(path, rows)
    traces = [["split", "iteration", "objective"]]
    for s in report.splits:
        for it, val in enumerate(s.objective_trace, start=1):
            traces.append([s.split_index, it, f"{val:.12f}"])
    _write_csv(str(path) + ".traces.csv", traces)


def _write_ablation_csv(report: ExperimentReport, path) -> None:
    rows = [["descriptors", "mean_accuracy", "std_accuracy"]]
    for name, row in report.ablation.items():
        rows.append([name, f"{row.mean_accuracy:.6f}", f"{row.std_accuracy:.6f}"])
    _write_csv(path, rows)


def _echo_summary(report: ExperimentReport) -> None:
    accs = " ".join(f"{s.accuracy:.3f}" for s in report.splits)
    click.echo(f"splits: {report.n_splits}  train/class: {report.train_per_class}")
    click.echo(f"per-split accuracy: {accs}")
    click.echo(f"mean accuracy: {report.mean_accuracy:.4f} (std {report.std_accuracy:.4f})")


@click.group()
@click.option("-v", "--verbose", is_flag=True, help="Log progress to stderr.")
def main(verbose):
    """Image-set classification with fused Riemannian kernels."""
    logging.basicConfig(
        level=logging.INFO if verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )


@main.command()
@click.option("--classes", type=int, required=True, help="Number of classes.")
@click.option("--sets-per-class", type=int, required=True, help="Sets per class.")
@click.option("--dim", type=int, required=True, help="Feature dimension d.")
@click.option("--samples", type=int, required=True, help="Samples per set.")
@click.option("--separation", type=float, required=True,
              help="Class separation scale (0 gives chance-level data).")
@click.option("--seed", type=int, default=0, show_default=True, help="Generator seed.")
@click.option("--out", type=click.Path(), required=True, help="Output dataset directory.")
@_guarded
def synth(classes, sets_per_class, dim, samples, separation, seed, out):
    """Generate a synthetic dataset and write it with a manifest."""
    sets = generate_synthetic(
        classes=classes,
        sets_per_class=sets_per_class,
        dim=dim,
        samples=samples,
        separation=separation,
        seed=seed,
    )
    manifest = save_dataset(sets, out)
    click.echo(f"wrote {len(sets)} sets to {manifest}")


@main.command()
@click.option("--manifest", type=click.Path(), required=True, help="Dataset manifest CSV.")
@click.option("--out", type=click.Path(), required=True, help="Model output directory.")
@_train_options
@_guarded
def train(manifest, out, **kwargs):
    """Train on every set in a manifest and save the model."""
    cfg = _build_config(**kwargs)
    sets = load_dataset(manifest)
    model = train_on_sets(sets, cfg)
    persistence.save_model(model, out)
    click.echo(
        f"trained on {model.n_train} sets "
        f"({len(set(model.labels))} classes); final objective {model.objective_trace[-1]:.4f}"
    )
    click.echo(f"model saved to {out}")


@main.command()
@click.option("--manifest", type=click.Path(), required=True, help="Dataset manifest CSV.")
@click.option("--splits", type=int, default=10, show_default=True, help="Number of random splits.")
@click.option("--train-per-class", type=int, default=3, show_default=True,
              help="Training sets drawn per class in each split.")
@click.option("--report", type=click.Path(), default=None,
              help="Write per-split results to this CSV (traces go next to it); its "
                   "train_seconds column is the splits' Gram builds plus training, which "
                   "run together, divided by the number of splits.")
@_train_options
@_guarded
def eval(manifest, splits, train_per_class, report, **kwargs):
    """Random-split evaluation protocol with accuracy summary."""
    cfg = _build_config(**kwargs)
    sets = load_dataset(manifest)
    result = run_experiment(sets, cfg, n_splits=splits, train_per_class=train_per_class)
    _echo_summary(result)
    if report:
        _write_report_csv(result, report)
        click.echo(f"report written to {report}")


@main.command()
@click.option("--model", "model_dir", type=click.Path(), required=True,
              help="Saved model directory.")
@click.option("--set", "set_file", type=click.Path(), required=True,
              help="CSV file holding one probe set (d rows, n columns).")
@_guarded
def predict(model_dir, set_file):
    """Classify one probe set and show the closest gallery members."""
    model = persistence.load_model(model_dir)
    features = read_set_file(Path(set_file))
    probe = ImageSet(features=features, label="?", set_id=Path(set_file).stem)
    result = predict_set(probe, model)
    click.echo(f"predicted label: {result.label}")
    order = np.argsort(result.distances, kind="stable")[:5]
    click.echo("closest gallery sets:")
    for rank, idx in enumerate(order, start=1):
        click.echo(
            f"  {rank}. {model.set_ids[idx]} (label {model.labels[idx]}, "
            f"distance {result.distances[idx]:.6e})"
        )


@main.command()
@click.option("--manifest", type=click.Path(), required=True, help="Dataset manifest CSV.")
@click.option("--splits", type=int, default=10, show_default=True, help="Number of random splits.")
@click.option("--train-per-class", type=int, default=3, show_default=True,
              help="Training sets drawn per class in each split.")
@click.option("--report", type=click.Path(), default=None, help="Write the table to this CSV.")
@_train_options
@_guarded
def ablate(manifest, splits, train_per_class, report, **kwargs):
    """Compare each descriptor alone against the combined model."""
    cfg = _build_config(**kwargs)
    sets = load_dataset(manifest)
    result = run_experiment(
        sets, cfg, n_splits=splits, train_per_class=train_per_class, ablate=True
    )
    click.echo(f"{'descriptors':<12} {'mean acc':>9} {'std':>8}")
    for name, row in result.ablation.items():
        click.echo(f"{name:<12} {row.mean_accuracy:>9.4f} {row.std_accuracy:>8.4f}")
    if report:
        _write_ablation_csv(result, report)
        click.echo(f"report written to {report}")


if __name__ == "__main__":
    main()
