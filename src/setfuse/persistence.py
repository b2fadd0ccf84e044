"""Model serialization, format 2: a metadata file plus one binary file per array.

A model is stored as its learned arrays (``transform``, ``gating_coeffs``,
``gating_biases``, ``train_weights``) and, per kernel channel, the gallery's
lifted features (``features_<kernel id>``, N x D_q). That is the whole kernel
bank: on load, ``KernelBank`` derives Grams, scales and ``n_train`` from the
features as it does in training, so they come back bit for bit.

Array files carry a 16-byte header (4-byte magic, little-endian uint32
rank, then two little-endian uint32 dimensions; the second is zero for
vectors) followed by the float64 entries, little-endian, row-major. The
metadata file (kernel ids, labels, set ids, configuration, objective trace)
indexes the arrays with their shapes and SHA-256 checksums. Loading accepts
exactly those keys and files and format 2 alone (format 1 stored
descriptors; retrain such models), or fails with a ``DataError``.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .config import TrainConfig
from .errors import (
    BadSpec,
    ChecksumMismatch,
    FormatVersionMismatch,
    IoError,
    ShapeMismatch,
)
from .gating import GatingParams
from .kernels import KernelBank, KernelId
from .trainer import ModelState

FORMAT_VERSION = 2
META_NAME = "model.json"
_MAGIC = b"SFA1"
_HEADER = struct.Struct("<4sIII")


def _write_array(path: Path, arr: np.ndarray) -> str:
    """Write one array file; returns the SHA-256 of the bytes written."""
    a = np.ascontiguousarray(arr, dtype=np.float64)
    if a.ndim == 1:
        header = _HEADER.pack(_MAGIC, 1, a.shape[0], 0)
    elif a.ndim == 2:
        header = _HEADER.pack(_MAGIC, 2, a.shape[0], a.shape[1])
    else:
        raise ShapeMismatch(f"only rank-1 and rank-2 arrays are stored, got rank {a.ndim}")
    blob = header + a.astype("<f8", copy=False).tobytes(order="C")
    path.write_bytes(blob)
    return hashlib.sha256(blob).hexdigest()


def _read_array(path: Path, expect_shape: tuple[int, ...], digest: str) -> np.ndarray:
    """Read one array file, verifying its checksum on the bytes it parses."""
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise IoError(f"cannot read array file {path}: {exc}") from exc
    actual = hashlib.sha256(blob).hexdigest()
    if actual != digest:
        raise ChecksumMismatch(f"{path}: checksum {actual[:12]}... != recorded {digest[:12]}...")
    if len(blob) < _HEADER.size:
        raise ChecksumMismatch(f"{path}: truncated header")
    magic, rank, d0, d1 = _HEADER.unpack_from(blob)
    if magic != _MAGIC:
        raise ChecksumMismatch(f"{path}: bad magic {magic!r}")
    shape = (d0,) if rank == 1 else (d0, d1)
    if rank not in (1, 2) or shape != tuple(expect_shape):
        raise ChecksumMismatch(f"{path}: stored shape {shape} does not match index {expect_shape}")
    count = int(np.prod(shape, dtype=np.int64))
    payload = len(blob) - _HEADER.size
    if payload != 8 * count:
        raise ChecksumMismatch(f"{path}: payload holds {payload} bytes, expected {8 * count}")
    # a read-only view of the file's bytes; converts only on big-endian hosts
    a = np.frombuffer(blob, dtype="<f8", offset=_HEADER.size).astype(np.float64, copy=False)
    a = a.reshape(shape)
    a.setflags(write=False)
    return a


_META_KEYS = {"format_version", "kernel_ids", "labels", "set_ids", "config",
              "objective_trace", "arrays", "checksums"}
_CONFIG_KEYS = {f.name for f in fields(TrainConfig)}


def _array_names(kernel_ids) -> list[str]:
    base = ["transform", "gating_coeffs", "gating_biases", "train_weights"]
    return base + [f"features_{int(kid)}" for kid in kernel_ids]


def save_model(model: ModelState, out_dir) -> Path:
    """Write a model directory; returns the metadata path.

    The bank derives its Grams from its features, so only its ``normalize``
    flag can disagree with what loading derives under
    ``config.normalize_kernels``; ``BadSpec`` when it does. Write failures
    raise ``IoError``.
    """
    bank = model.bank
    if bank.normalize != model.config.normalize_kernels:
        raise BadSpec(
            f"kernel bank normalize={bank.normalize} but normalize_kernels="
            f"{model.config.normalize_kernels}; the model would not load as saved"
        )
    out = Path(out_dir)
    values = (model.transform, model.gating.coeffs, model.gating.biases, model.train_weights)
    index = {}
    checksums = {}
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, arr in zip(_array_names(bank.kernel_ids), values + bank.features):
            fname = f"{name}.bin"
            checksums[fname] = _write_array(out / fname, arr)
            index[name] = {"file": fname, "shape": list(np.shape(arr))}
        meta = {
            "format_version": FORMAT_VERSION,
            "kernel_ids": [int(k) for k in bank.kernel_ids],
            "labels": list(model.labels),
            "set_ids": None if model.set_ids is None else list(model.set_ids),
            "config": asdict(model.config),
            "objective_trace": list(model.objective_trace),
            "arrays": index,
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


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x) -> bool:
    return _is_int(x) or isinstance(x, float)


def _expect_list(value, item_ok, where: str, what: str) -> list:
    if not isinstance(value, list) or not all(map(item_ok, value)):
        raise IoError(f"{where}: expected a list of {what}, got {value!r:.80}")
    return value


# JSON type check per TrainConfig field type; ``descriptors`` is a list of names.
_FIELD_CHECKS = {bool: lambda x: isinstance(x, bool), int: _is_int, float: _is_number}


def _config(raw, where: str) -> TrainConfig:
    """A ``TrainConfig`` from its stored fields, each of its field's type."""
    _expect_keys(raw, _CONFIG_KEYS, where)
    values = {}
    for f in fields(TrainConfig):
        v = raw[f.name]
        kind = type(f.default)
        if kind is tuple:
            v = tuple(_expect_list(v, lambda x: isinstance(x, str), f"{where}.{f.name}", "names"))
        elif not _FIELD_CHECKS[kind](v):
            raise IoError(f"{where}.{f.name}: {v!r:.80} is not a {kind.__name__}")
        values[f.name] = v
    try:
        return TrainConfig(**values)
    except BadSpec as exc:
        raise IoError(f"{where}: {exc}") from exc


def _array_index(index, checksums, kernel_ids, where: str) -> dict:
    """The ``arrays`` entries as ``{name: (file, shape)}``, checked against
    ``checksums``: plain file names, shapes of one or two sizes, string digests."""
    _expect_keys(index, _array_names(kernel_ids), f"{where} arrays")
    out = {}
    for name, entry in index.items():
        _expect_keys(entry, ("file", "shape"), f"{where} arrays.{name}")
        fname, shape = entry["file"], entry["shape"]
        if not isinstance(fname, str) or Path(fname).name != fname or fname in ("", ".", ".."):
            raise IoError(f"{where} arrays.{name}.file: {fname!r:.80} is not a file name")
        _expect_list(shape, lambda x: _is_int(x) and x >= 0, f"{where} arrays.{name}.shape", "sizes")
        if len(shape) not in (1, 2):
            raise IoError(f"{where} arrays.{name}.shape: {shape} is not of rank 1 or 2")
        out[name] = (fname, tuple(shape))
    if not isinstance(checksums, dict) or sorted(f for f, _ in out.values()) != sorted(checksums):
        raise IoError(f"{where}: the array index and the checksums name different files")
    if not all(isinstance(d, str) for d in checksums.values()):
        raise IoError(f"{where}: checksums must be hex digest strings")
    return out


def load_model(model_dir) -> ModelState:
    """Read a model directory back, verifying version, keys and checksums.

    Arrays come back read-only. Grams, scales and ``n_train`` are derived
    from the stored features as in training; nothing is re-lifted.
    """
    root = Path(model_dir)
    meta_path = root / META_NAME
    if not meta_path.is_file():
        raise IoError(f"model metadata not found: {meta_path}")
    try:
        meta = json.loads(meta_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
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
    raw_ids = _expect_list(meta["kernel_ids"], _is_int, f"{where} kernel_ids", "kernel ids")
    try:
        kernel_ids = tuple(KernelId(k) for k in raw_ids)
    except ValueError as exc:
        raise IoError(f"{where}: bad kernel ids {raw_ids!r}") from exc
    if not kernel_ids:
        raise IoError(f"{where}: no kernel ids")
    index = _array_index(meta["arrays"], meta["checksums"], kernel_ids, where)
    labels = _expect_list(
        meta["labels"], lambda x: isinstance(x, str) or _is_number(x), f"{where} labels", "labels"
    )
    set_ids = meta["set_ids"]
    if set_ids is not None:
        _expect_list(set_ids, lambda x: isinstance(x, str), f"{where} set_ids", "set ids")
    objective_trace = _expect_list(
        meta["objective_trace"], _is_number, f"{where} objective_trace", "numbers"
    )

    arrays = {
        name: _read_array(root / fname, shape, meta["checksums"][fname])
        for name, (fname, shape) in index.items()
    }
    features = [arrays[f"features_{int(kid)}"] for kid in kernel_ids]
    q, n = len(kernel_ids), arrays["gating_coeffs"].shape[-1]
    e = arrays["transform"]
    if not (
        n >= 1
        and arrays["gating_coeffs"].shape == arrays["train_weights"].shape == (q, n)
        and arrays["gating_biases"].shape == (q,)
        and e.ndim == 2 and e.shape[0] == n and e.shape[1] >= 1
        and all(f.ndim == 2 and f.shape[0] == n for f in features)
    ):
        shapes = {name: a.shape for name, a in arrays.items()}
        raise IoError(f"{where}: array shapes {shapes} do not fit {q} kernels and one gallery")
    bank = KernelBank(kernel_ids, tuple(features), cfg.normalize_kernels)
    if len(labels) != bank.n_train or (set_ids is not None and len(set_ids) != bank.n_train):
        raise IoError(f"{where}: labels or set ids do not match {bank.n_train} gallery sets")
    return ModelState(
        transform=arrays["transform"],
        gating=GatingParams(coeffs=arrays["gating_coeffs"], biases=arrays["gating_biases"]),
        train_weights=arrays["train_weights"],
        bank=bank,
        labels=tuple(labels),
        config=cfg,
        objective_trace=tuple(float(x) for x in objective_trace),
        set_ids=None if set_ids is None else tuple(set_ids),
    )
