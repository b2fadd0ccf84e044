"""Model serialization, format 2: a metadata file plus one binary file per array.

A model is stored as its learned arrays (``transform``, ``gating_coeffs``,
``gating_biases``, ``train_weights``) and, per kernel channel, the gallery's
lifted features (``features_<kernel id>``, N x D_q). Grams, scales and
``n_train`` are derived on load by the code training uses, so they come back
bit for bit.

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
from .errors import BadSpec, ChecksumMismatch, FormatVersionMismatch, IoError, NoGalleryFeatures
from .gating import GatingParams
from .kernels import KernelId, bank_from_features
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
        raise ValueError(f"only rank-1 and rank-2 arrays are stored, got rank {a.ndim}")
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

    Raises ``NoGalleryFeatures`` when the bank has no lifted features (such a
    model cannot score probes), and ``BadSpec`` when its Grams are not what
    loading would derive from the features under ``config.normalize_kernels``.
    """
    bank = model.bank
    if bank.features is None:
        raise NoGalleryFeatures("model's kernel bank carries no lifted gallery features")
    rebuilt = bank_from_features(bank.kernel_ids, bank.features, model.config.normalize_kernels)
    if not all(map(np.array_equal, rebuilt.grams, bank.grams)):
        raise BadSpec(
            "kernel bank Grams differ from those its features give with normalize_kernels="
            f"{model.config.normalize_kernels}; the model would not load as saved"
        )
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    values = (model.transform, model.gating.coeffs, model.gating.biases, model.train_weights)
    index = {}
    checksums = {}
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
    with meta_path.open("w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return meta_path


def _expect_keys(obj, keys, where: str) -> None:
    if not isinstance(obj, dict) or obj.keys() != set(keys):
        got = sorted(obj) if isinstance(obj, dict) else type(obj).__name__
        raise IoError(f"{where}: expected keys {sorted(keys)}, got {got}")


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
    _expect_keys(meta, _META_KEYS, str(meta_path))
    _expect_keys(meta["config"], _CONFIG_KEYS, f"{meta_path} config")
    try:
        kernel_ids = tuple(KernelId(k) for k in meta["kernel_ids"])
    except (TypeError, ValueError) as exc:
        raise IoError(f"{meta_path}: bad kernel ids {meta['kernel_ids']!r}") from exc
    if not kernel_ids:
        raise IoError(f"{meta_path}: no kernel ids")
    index, checksums = meta["arrays"], meta["checksums"]
    _expect_keys(index, _array_names(kernel_ids), f"{meta_path} arrays")
    for name, entry in index.items():
        _expect_keys(entry, ("file", "shape"), f"{meta_path} arrays.{name}")
    files = sorted(e["file"] for e in index.values())
    if not isinstance(checksums, dict) or files != sorted(checksums):
        raise IoError(f"{meta_path}: the array index and the checksums name different files")

    arrays = {
        name: _read_array(root / e["file"], tuple(e["shape"]), checksums[e["file"]])
        for name, e in index.items()
    }
    cfg = TrainConfig(**{**meta["config"], "descriptors": tuple(meta["config"]["descriptors"])})
    features = [arrays[f"features_{int(kid)}"] for kid in kernel_ids]
    bank = bank_from_features(kernel_ids, features, cfg.normalize_kernels)
    labels, set_ids = meta["labels"], meta["set_ids"]
    if len(labels) != bank.n_train or (set_ids is not None and len(set_ids) != bank.n_train):
        raise IoError(f"{meta_path}: labels or set ids do not match {bank.n_train} gallery sets")
    return ModelState(
        transform=arrays["transform"],
        gating=GatingParams(coeffs=arrays["gating_coeffs"], biases=arrays["gating_biases"]),
        train_weights=arrays["train_weights"],
        bank=bank,
        labels=tuple(labels),
        config=cfg,
        objective_trace=tuple(float(x) for x in meta["objective_trace"]),
        set_ids=None if set_ids is None else tuple(set_ids),
    )
