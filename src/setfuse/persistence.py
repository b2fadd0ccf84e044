"""Model serialization, format 4: a metadata file plus one ``.npy`` file per
array that cannot be derived.

A model is stored as its learned arrays (``transform``, ``gating_coeffs``,
``gating_biases``) and, per kernel channel of ``config.descriptors``, the
gallery's lifted features (``features_<descriptor>``, such as
``features_cov``, N x D_q), each in ``<name>.npy``. These are a
``ModelState``'s fields, and it derives everything else from them (scales,
gating weights, the maps a probe is scored through), so a loaded model
gives the saved one's distances bit for bit; loading builds no Gram
matrix. ``ModelState`` checks the shapes: each features file must be as wide
as its channel's lift for one set dimension d (d^2 for ``cov`` and
``subspace``, (d+1)^2 for ``gauss``), which a probe of dimension d then
matches.

Array files are numpy's own ``.npy`` format, version 1.0, little-endian
float64, row-major, so ``np.load(path, allow_pickle=False)`` reads them. The
metadata file (a str label and a str set id per gallery set, configuration,
objective trace) records each file's SHA-256 checksum. Loading accepts
exactly those keys and files and format 4 alone (formats 1 and 2 stored more
than this, and format 3 named features by kernel number; retrain such
models), or fails with a ``DataError``. The types and values of the
configuration's fields are ``TrainConfig``'s to check, and the arrays'
shapes and finiteness, the labels, the set ids and the objective trace
``ModelState``'s; what either rejects fails to load with ``IoError``.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import tokenize
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .config import TrainConfig, check_type, is_real
from .errors import BadSpec, ChecksumMismatch, FormatVersionMismatch, IoError, NonFinite
from .gating import GatingParams
from .trainer import ModelState

FORMAT_VERSION = 4
META_NAME = "model.json"


def _write_array(path: Path, arr: np.ndarray) -> str:
    """Write one ``.npy`` file; returns the SHA-256 of the bytes written."""
    buf = io.BytesIO()
    np.save(buf, np.ascontiguousarray(arr, dtype="<f8"), allow_pickle=False)
    blob = buf.getvalue()
    path.write_bytes(blob)
    return hashlib.sha256(blob).hexdigest()


def _read_array(path: Path, digest: str) -> np.ndarray:
    """Read one ``.npy`` file, verifying its checksum on the bytes it parses.

    Only what ``_write_array`` writes is accepted: version 1.0, ``<f8``, C
    order, rank 1 or 2 and exactly the payload the shape needs. The result is
    a read-only view of the file's bytes.
    """
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise IoError(f"cannot read array file {path}: {exc}") from exc
    actual = hashlib.sha256(blob).hexdigest()
    if actual != digest:
        raise ChecksumMismatch(f"{path}: checksum {actual[:12]}... != recorded {digest[:12]}...")
    stream = io.BytesIO(blob)
    try:
        version = np.lib.format.read_magic(stream)
        if version != (1, 0):
            raise ChecksumMismatch(f"{path}: .npy version {version}, expected (1, 0)")
        shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(stream)
    # numpy's header parser raises any of these on a malformed header
    except (ValueError, TypeError, SyntaxError, tokenize.TokenError) as exc:
        raise ChecksumMismatch(f"{path}: not a .npy array: {exc}") from exc
    if dtype != np.dtype("<f8") or fortran_order or not (1 <= len(shape) <= 2 and min(shape) >= 0):
        raise ChecksumMismatch(
            f"{path}: holds {dtype.str} of shape {shape} (fortran_order={fortran_order}); "
            "expected C-ordered <f8 of rank 1 or 2"
        )
    offset = stream.tell()
    payload, expected = len(blob) - offset, 8 * math.prod(shape)
    if payload != expected:
        raise ChecksumMismatch(f"{path}: payload holds {payload} bytes, expected {expected}")
    return np.frombuffer(blob, dtype="<f8", offset=offset).reshape(shape)


_META_KEYS = {"format_version", "labels", "set_ids", "config", "objective_trace", "checksums"}
_CONFIG_KEYS = {f.name for f in fields(TrainConfig)}


def _array_names(descriptors) -> list[str]:
    """The stored arrays, in writing order; each lives in ``<name>.npy``."""
    return ["transform", "gating_coeffs", "gating_biases"] + [
        f"features_{name}" for name in descriptors
    ]


def save_model(model: ModelState, out_dir) -> Path:
    """Write a model directory; returns the metadata path.

    Loading takes the channels from ``config.descriptors``. Nothing a model
    derives is stored: ``ModelState`` derives it again from the stored
    arrays. ``BadSpec`` before anything is written unless ``model`` is a
    ``ModelState``; write failures raise ``IoError``.
    """
    check_type("model", model, ModelState)
    out = Path(out_dir)
    values = (model.transform, model.gating.coeffs, model.gating.biases) + model.features
    checksums = {}
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, arr in zip(_array_names(model.config.descriptors), values):
            fname = f"{name}.npy"
            checksums[fname] = _write_array(out / fname, arr)
        meta = {
            "format_version": FORMAT_VERSION,
            "labels": list(model.labels),
            "set_ids": list(model.set_ids),
            "config": asdict(model.config),
            "objective_trace": list(model.objective_trace),
            "checksums": checksums,
        }
        meta_path = out / META_NAME
        meta_path.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    except OSError as exc:
        raise IoError(f"cannot write model to {out}: {exc}") from exc
    return meta_path


def _expect_keys(obj, keys, where: str) -> None:
    if not isinstance(obj, dict) or obj.keys() != set(keys):
        got = sorted(obj) if isinstance(obj, dict) else type(obj).__name__
        raise IoError(f"{where}: expected keys {sorted(keys)}, got {got}")


def _expect_list(value, item_ok, where: str, what: str) -> list:
    if not isinstance(value, list) or not all(map(item_ok, value)):
        raise IoError(f"{where}: expected a list of {what}, got {value!r:.80}")
    return value


def _config(raw, where: str) -> TrainConfig:
    """A ``TrainConfig`` from its stored fields, which it checks itself."""
    _expect_keys(raw, _CONFIG_KEYS, where)
    try:
        return TrainConfig(**raw)
    except BadSpec as exc:
        raise IoError(f"{where}: {exc}") from exc


def load_model(model_dir) -> ModelState:
    """Read a model directory back, verifying version, keys and checksums;
    ``ModelState`` and ``GatingParams`` check the shapes and that every array
    is finite, and whatever they reject (``BadSpec``, ``NonFinite``) fails to
    load with ``IoError``.

    Arrays come back read-only. The channels come from ``config.descriptors``;
    everything else a model holds is derived from the stored arrays as in
    training. Nothing is re-lifted and no Gram is built.
    """
    root = Path(model_dir)
    meta_path = root / META_NAME
    if not meta_path.is_file():
        raise IoError(f"model metadata not found: {meta_path}")
    try:
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        # json raises RecursionError for nesting deeper than the interpreter's stack
        raise IoError(f"cannot parse {meta_path}: {exc}") from exc
    version = meta.get("format_version") if isinstance(meta, dict) else None
    if version != FORMAT_VERSION:
        raise FormatVersionMismatch(
            f"{meta_path}: format version {version!r}, this build reads {FORMAT_VERSION}; "
            "retrain the model to save it in this format"
        )
    where = str(meta_path)
    _expect_keys(meta, _META_KEYS, where)
    cfg = _config(meta["config"], f"{where} config")
    names = _array_names(cfg.descriptors)
    checksums = meta["checksums"]
    _expect_keys(checksums, [f"{name}.npy" for name in names], f"{where} checksums")
    if not all(isinstance(d, str) for d in checksums.values()):
        raise IoError(f"{where}: checksums must be hex digest strings")
    labels, set_ids = (
        _expect_list(meta[key], lambda x: isinstance(x, str), f"{where} {key}", "strs")
        for key in ("labels", "set_ids")
    )
    objective_trace = _expect_list(
        meta["objective_trace"], is_real, f"{where} objective_trace", "numbers"
    )
    arrays = {name: _read_array(root / f"{name}.npy", checksums[f"{name}.npy"]) for name in names}
    try:
        return ModelState(
            transform=arrays["transform"],
            gating=GatingParams(coeffs=arrays["gating_coeffs"], biases=arrays["gating_biases"]),
            features=tuple(arrays[f"features_{name}"] for name in cfg.descriptors),
            labels=tuple(labels),
            set_ids=tuple(set_ids),
            config=cfg,
            objective_trace=tuple(objective_trace),
        )
    except (BadSpec, NonFinite) as exc:
        raise IoError(f"{where}: {exc}") from exc
