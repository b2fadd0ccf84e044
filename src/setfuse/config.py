"""Training configuration shared by the library and the command line; its
``descriptors`` name the kernel channels, from ``kernels.DESCRIPTOR_NAMES``."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from .errors import BadSpec
from .kernels import DESCRIPTOR_NAMES


def is_int(x) -> bool:
    """True for an integer (numpy's included) that is not a bool."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def check_int(name: str, value, minimum: int) -> None:
    """``BadSpec`` unless ``value`` is an integer, not a bool, and >= ``minimum``."""
    if not (is_int(value) and value >= minimum):
        raise BadSpec(f"{name} must be an integer >= {minimum}, got {value!r}")


def check_type(name: str, value, cls: type) -> None:
    """``BadSpec`` unless ``value`` is a ``cls``, naming both types."""
    if not isinstance(value, cls):
        raise BadSpec(f"{name} must be of type {cls.__name__}, got {type(value).__name__}")


def is_real(x) -> bool:
    """True for a real number (integers and numpy's included) that is not a bool."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def check_real(name: str, value, minimum: float, strict: bool = False) -> None:
    """``BadSpec`` unless ``value`` is a finite real number, not a bool, and
    >= ``minimum`` (> with ``strict``); an integer too large for a float is
    not finite."""
    try:
        above = is_real(value) and (minimum < value if strict else minimum <= value)
        ok = above and math.isfinite(value)
    except OverflowError:
        ok = False
    if not ok:
        bound = ">" if strict else ">="
        raise BadSpec(f"{name} must be a finite number {bound} {minimum}, got {value!r:.80}")


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for descriptor encoding and metric training.

    ``subspace_dim`` is the requested Grassmann dimension; pipelines cap it
    at what the gallery can support. ``target_dim`` is the width of the
    learned projection, clamped during training when the usable scatter rank
    is lower. ``alpha`` controls covariance regularization (the spectrum is
    shifted by trace/alpha) and must be finite and positive.
    ``learning_rate`` drives the gating ascent, and ``eps`` is the stop
    tolerance of the outer loop, on the max-norm gating step, and of the
    inner trace-ratio solve, on the change of the ratio (0 disables early
    stopping); both must be finite.
    ``seed`` draws a split protocol's train/test splits; training draws
    nothing at random and does not read it. It must be non-negative.
    A field of the wrong type raises ``BadSpec``: the integer fields take
    integers, ``alpha``, ``learning_rate`` and ``eps`` real numbers (integers
    too), ``normalize_kernels`` a bool and ``descriptors`` a list or tuple
    of names; no field takes a bool for a number.
    """

    subspace_dim: int = 10
    alpha: float = 1000.0
    target_dim: int = 25
    learning_rate: float = 1e-4
    iters: int = 20
    itr_iters: int = 30
    eps: float = 1e-5
    seed: int = 0
    normalize_kernels: bool = False
    descriptors: tuple[str, ...] = DESCRIPTOR_NAMES

    def __post_init__(self):
        for name in ("subspace_dim", "target_dim", "iters", "itr_iters"):
            check_int(name, getattr(self, name), 1)
        check_int("seed", self.seed, 0)
        check_real("alpha", self.alpha, 0.0, strict=True)
        check_real("learning_rate", self.learning_rate, 0.0)
        check_real("eps", self.eps, 0.0)
        if not isinstance(self.normalize_kernels, bool):
            raise BadSpec(f"normalize_kernels must be a bool, got {self.normalize_kernels!r}")
        names = self.descriptors if isinstance(self.descriptors, (list, tuple)) else ()
        if not (names and all(isinstance(n, str) and n in DESCRIPTOR_NAMES for n in names)):
            raise BadSpec(
                f"descriptors must be a non-empty list or tuple of names from "
                f"{DESCRIPTOR_NAMES}, got {self.descriptors!r}"
            )
        # canonical order, duplicates dropped
        canon = tuple(n for n in DESCRIPTOR_NAMES if n in names)
        object.__setattr__(self, "descriptors", canon)
