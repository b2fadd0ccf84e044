"""Model serialization: a metadata file plus one binary file per array.

Array files carry a 16-byte header (4-byte magic, little-endian uint32
rank, then two little-endian uint32 dimensions; the second is zero for
vectors) followed by the float64 entries, little-endian, row-major. The
metadata file records the format version, the model configuration, an index
of arrays with their shapes, and a SHA-256 checksum of every array file.
Loading verifies version and checksums, so a round trip reproduces the
model bit for bit or fails loudly.
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path

import numpy as np

from .config import TrainConfig
from .descriptors import DescriptorTriple, GaussianDescriptor, GrassmannPoint
from .errors import ChecksumMismatch, FormatVersionMismatch, IoError
from .gating import GatingParams
from .kernels import KernelBank, KernelId, lift_features
from .trainer import ModelState

FORMAT_VERSION = 1
META_NAME = "model.json"
_MAGIC = b"SFA1"
_HEADER = struct.Struct("<4sIII")


def _write_array(path: Path, arr: np.ndarray) -> None:
    a = np.ascontiguousarray(arr, dtype=np.float64)
    if a.ndim == 1:
        header = _HEADER.pack(_MAGIC, 1, a.shape[0], 0)
    elif a.ndim == 2:
        header = _HEADER.pack(_MAGIC, 2, a.shape[0], a.shape[1])
    else:
        raise ValueError(f"only rank-1 and rank-2 arrays are stored, got rank {a.ndim}")
    with path.open("wb") as fh:
        fh.write(header)
        fh.write(a.astype("<f8", copy=False).tobytes(order="C"))


def _read_array(path: Path, expect_shape: tuple[int, ...]) -> np.ndarray:
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise IoError(f"cannot read array file {path}: {exc}") from exc
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


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _model_arrays(model: ModelState) -> dict[str, np.ndarray]:
    arrays: dict[str, np.ndarray] = {
        "transform": model.transform,
        "gating_coeffs": model.gating.coeffs,
        "gating_biases": model.gating.biases,
        "train_weights": model.train_weights,
    }
    for q, kid in enumerate(model.bank.kernel_ids):
        arrays[f"gram_{int(kid)}"] = model.bank.grams[q]
    if model.gallery is not None:
        for i, t in enumerate(model.gallery):
            arrays[f"set{i:04d}_cov"] = t.cov
            arrays[f"set{i:04d}_basis"] = t.subspace.basis
            arrays[f"set{i:04d}_gmean"] = t.gauss.mean
            arrays[f"set{i:04d}_gcov"] = t.gauss.covariance
            arrays[f"set{i:04d}_gembed"] = t.gauss.embedding
    return arrays


def save_model(model: ModelState, out_dir) -> Path:
    """Write a model directory; returns the metadata path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    arrays = _model_arrays(model)
    index = {}
    checksums = {}
    for name, arr in sorted(arrays.items()):
        fname = f"{name}.bin"
        _write_array(out / fname, np.asarray(arr))
        index[name] = {"file": fname, "shape": list(np.asarray(arr).shape)}
        checksums[fname] = _sha256(out / fname)
    meta = {
        "format_version": FORMAT_VERSION,
        "n_train": model.bank.n_train,
        "kernel_ids": [int(k) for k in model.bank.kernel_ids],
        "normalized": [bool(b) for b in model.bank.normalized],
        "scales": [float(s) for s in model.bank.scales],
        "labels": list(model.labels),
        "set_ids": None
        if model.gallery is None
        else [t.set_id for t in model.gallery],
        "gallery_labels": None
        if model.gallery is None
        else [t.label for t in model.gallery],
        "config": {
            "subspace_dim": model.config.subspace_dim,
            "alpha": model.config.alpha,
            "target_dim": model.config.target_dim,
            "learning_rate": model.config.learning_rate,
            "iters": model.config.iters,
            "itr_iters": model.config.itr_iters,
            "eps": model.config.eps,
            "seed": model.config.seed,
            "normalize_kernels": model.config.normalize_kernels,
            "descriptors": list(model.config.descriptors),
        },
        "objective_trace": list(model.objective_trace),
        "arrays": index,
        "checksums": checksums,
    }
    meta_path = out / META_NAME
    with meta_path.open("w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return meta_path


def _stored_triple(arrays, key: str, label: str, set_id: str) -> DescriptorTriple:
    cov = arrays[f"{key}_cov"]
    gcov = arrays[f"{key}_gcov"]
    # encode_set shares one covariance array between the two descriptors;
    # keep that sharing when the stored copies agree
    if np.array_equal(gcov, cov):
        gcov = cov
    gauss = GaussianDescriptor(
        mean=arrays[f"{key}_gmean"], covariance=gcov, embedding=arrays[f"{key}_gembed"]
    )
    return DescriptorTriple(
        cov=cov,
        subspace=GrassmannPoint(basis=arrays[f"{key}_basis"]),
        gauss=gauss,
        label=label,
        set_id=set_id,
    )


def load_model(model_dir) -> ModelState:
    """Read a model directory back, verifying version and checksums.

    Arrays come back read-only. The gallery descriptors are lifted once into
    the kernel bank's features, so probes are scored without re-lifting.
    """
    root = Path(model_dir)
    meta_path = root / META_NAME
    if not meta_path.is_file():
        raise IoError(f"model metadata not found: {meta_path}")
    try:
        meta = json.loads(meta_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise IoError(f"cannot parse {meta_path}: {exc}") from exc
    version = meta.get("format_version")
    if version != FORMAT_VERSION:
        raise FormatVersionMismatch(
            f"{meta_path}: format version {version!r}, this build reads {FORMAT_VERSION}"
        )
    for fname, digest in sorted(meta["checksums"].items()):
        fpath = root / fname
        if not fpath.is_file():
            raise IoError(f"missing array file: {fpath}")
        actual = _sha256(fpath)
        if actual != digest:
            raise ChecksumMismatch(f"{fpath}: checksum {actual[:12]}... != recorded {digest[:12]}...")

    arrays = {}
    for name, entry in meta["arrays"].items():
        arrays[name] = _read_array(root / entry["file"], tuple(entry["shape"]))

    cfg_dict = dict(meta["config"])
    cfg_dict["descriptors"] = tuple(cfg_dict["descriptors"])
    cfg = TrainConfig(**cfg_dict)
    kernel_ids = tuple(KernelId(k) for k in meta["kernel_ids"])
    gallery = features = None
    if meta["set_ids"] is not None:
        gallery = tuple(
            _stored_triple(arrays, f"set{i:04d}", meta["gallery_labels"][i], set_id)
            for i, set_id in enumerate(meta["set_ids"])
        )
        # lifted once here, so no probe re-lifts the gallery
        features = tuple(lift_features(gallery, kid) for kid in kernel_ids)
    bank = KernelBank(
        kernel_ids=kernel_ids,
        grams=tuple(arrays[f"gram_{int(k)}"] for k in kernel_ids),
        n_train=int(meta["n_train"]),
        normalized=tuple(bool(b) for b in meta["normalized"]),
        scales=tuple(float(s) for s in meta["scales"]),
        features=features,
    )
    return ModelState(
        transform=arrays["transform"],
        gating=GatingParams(coeffs=arrays["gating_coeffs"], biases=arrays["gating_biases"]),
        train_weights=arrays["train_weights"],
        bank=bank,
        labels=tuple(meta["labels"]),
        config=cfg,
        objective_trace=tuple(float(x) for x in meta["objective_trace"]),
        gallery=gallery,
    )
