"""Dataset files, manifests, and the synthetic benchmark generator.

On disk a dataset is a directory of per-set CSV files (d rows, n columns,
no header; row k holds feature k across the set's samples) plus a manifest
CSV with header ``set_id,label,path`` whose paths are relative to the
manifest's directory.
"""

from __future__ import annotations

import csv
import io
import math
from pathlib import Path

import numpy as np

from .config import check_int, check_real
from .descriptors import ImageSet, common_dim
from .errors import BadSpec, DimensionMismatch, IoError, ParseError

MANIFEST_HEADER = ["set_id", "label", "path"]
MANIFEST_NAME = "manifest.csv"
# %.17g round-trips any float64 exactly through text.
_FLOAT_FMT = "%.17g"


def _text(path: Path, newline: str | None = None) -> io.StringIO:
    """A file's text, decoded as UTF-8 and read as ``open`` reads it with
    ``newline``; ``ParseError`` naming the file if it is not UTF-8."""
    try:
        return io.StringIO(path.read_bytes().decode("utf-8"), newline=newline)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from None


def _manifest_rows(path: Path) -> list[list[str]]:
    """The stripped ``set_id, label, path`` rows of a UTF-8 manifest CSV;
    raises ``ParseError`` citing file and line, also for a row the ``csv``
    module refuses (such as a field over its size limit)."""
    if not path.is_file():
        raise IoError(f"manifest not found: {path}")
    rows = []
    with _text(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
            if [h.strip() for h in header] != MANIFEST_HEADER:
                raise ParseError(
                    f"{path}:1: expected header {','.join(MANIFEST_HEADER)!r}, "
                    f"got {','.join(header)!r}"
                )
            for lineno, row in enumerate(reader, start=2):
                if not any(c.strip() for c in row):
                    continue
                if len(row) != 3:
                    raise ParseError(f"{path}:{lineno}: expected 3 fields, got {len(row)}")
                rows.append([c.strip() for c in row])
        except StopIteration:
            raise ParseError(f"{path}:1: empty manifest") from None
        except csv.Error as exc:
            raise ParseError(f"{path}:{reader.line_num}: {exc}") from None
    if not rows:
        raise ParseError(f"{path}: manifest lists no sets")
    return rows


def read_set_file(path: Path) -> np.ndarray:
    """One UTF-8 set CSV as a d x n matrix; ``ParseError`` cites the file,
    and the line of a bad row. A token is an ASCII decimal number or a
    ``float`` spelling of NaN or infinity, with optional whitespace around
    it."""
    if not path.is_file():
        raise IoError(f"set file not found: {path}")
    rows = []
    width = None
    with _text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            tokens = stripped.split(",")
            values = []
            for col, tok in enumerate(tokens, start=1):
                try:
                    # float() also reads "1_0" and non-ASCII digits, which no CSV writer emits
                    if not tok.isascii() or "_" in tok:
                        raise ValueError(tok)
                    values.append(float(tok))
                except ValueError:
                    raise ParseError(
                        f"{path}:{lineno}: column {col}: bad numeric token {tok.strip()!r}"
                    ) from None
            if width is None:
                width = len(values)
            elif len(values) != width:
                raise ParseError(
                    f"{path}:{lineno}: row has {len(values)} columns, expected {width}"
                )
            rows.append(values)
    if not rows:
        raise ParseError(f"{path}: file holds no data rows")
    return np.asarray(rows, dtype=np.float64)


def load_dataset(manifest_path) -> list[ImageSet]:
    """Load every set a manifest lists, reading the whole manifest first; a
    set file whose feature dimension differs from the first file's raises
    ``DimensionMismatch`` naming both files."""
    path = Path(manifest_path)
    rows = _manifest_rows(path)
    sets = []
    for set_id, label, rel in rows:
        features = read_set_file(path.parent / rel)
        if sets and features.shape[0] != sets[0].dim:
            raise DimensionMismatch(
                f"set {set_id!r} ({rel}) has {features.shape[0]} feature rows "
                f"but {rows[0][2]} has {sets[0].dim}"
            )
        sets.append(ImageSet(features=features, label=label, set_id=set_id))
    return sets


def save_dataset(sets, out_dir) -> Path:
    """Write per-set CSVs plus a manifest; returns the manifest path.

    Values are printed with enough digits to reproduce the float64 bits on
    reload. ``sets`` must be a non-empty list or tuple of ``ImageSet`` of one
    dimension (``descriptors.common_dim``), as ``load_dataset`` reads them.
    Each set is written to ``<set_id>.csv``, so set ids must be distinct
    plain file-name stems (not empty, ``.`` or ``..``, no ``/`` or ``\\``).
    ``BadSpec`` (``DimensionMismatch`` for mixed dimensions) is raised before
    anything is written otherwise. A failed write raises ``IoError``.
    """
    common_dim(sets)
    seen: set[str] = set()
    for s in sets:
        if s.set_id in ("", ".", "..") or "/" in s.set_id or "\\" in s.set_id:
            raise BadSpec(f"set id {s.set_id!r} is not a plain file-name stem")
        if s.set_id in seen:
            raise BadSpec(f"set id {s.set_id!r} repeats; each set needs its own file")
        seen.add(s.set_id)
    out = Path(out_dir)
    manifest_path = out / MANIFEST_NAME
    try:
        out.mkdir(parents=True, exist_ok=True)
        rows = []
        for s in sets:
            fname = f"{s.set_id}.csv"
            np.savetxt(out / fname, s.features, fmt=_FLOAT_FMT, delimiter=",")
            rows.append([s.set_id, s.label, fname])
        with manifest_path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(MANIFEST_HEADER)
            writer.writerows(rows)
    except OSError as exc:
        raise IoError(f"cannot write dataset to {out}: {exc}") from exc
    return manifest_path


def generate_synthetic(
    classes: int,
    sets_per_class: int,
    dim: int,
    samples: int,
    separation: float,
    seed: int,
) -> list[ImageSet]:
    """Synthetic image-set benchmark with controllable class separation.

    Class centers are drawn i.i.d. Gaussian with scale ``separation /
    sqrt(2)`` per coordinate, which makes the RMS distance between two
    centers ``separation * sqrt(dim)``. Each set then draws its own mean
    near its class center and its own random SPD covariance, and samples
    ``samples`` points from that Gaussian. Everything is a deterministic
    function of ``seed``, a non-negative integer; every count must be an
    integer too, and ``separation`` a finite non-negative number.
    """
    check_int("classes", classes, 1)
    check_int("sets_per_class", sets_per_class, 1)
    check_int("dim", dim, 2)
    check_int("samples", samples, 2)
    check_int("seed", seed, 0)
    check_real("separation", separation, 0.0)

    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((classes, dim)) * (separation / math.sqrt(2.0))
    sets = []
    for c in range(classes):
        for s in range(sets_per_class):
            mean = centers[c] + 0.5 * rng.standard_normal(dim)
            g = rng.standard_normal((dim, dim))
            cov = (g @ g.T) / dim + 0.25 * np.eye(dim)
            chol = np.linalg.cholesky(cov)
            features = mean[:, None] + chol @ rng.standard_normal((dim, samples))
            sets.append(
                ImageSet(
                    features=features,
                    label=f"class{c}",
                    set_id=f"class{c}_set{s}",
                )
            )
    return sets
