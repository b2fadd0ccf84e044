"""Training configuration shared by the library and the command line."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BadSpec
from .kernels import KernelId

# Canonical descriptor names, in the fixed kernel-channel order.
DESCRIPTOR_NAMES = ("cov", "subspace", "gauss")

_NAME_TO_KERNEL = {
    "cov": KernelId.LOG_EUCLIDEAN,
    "subspace": KernelId.PROJECTION,
    "gauss": KernelId.GAUSSIAN_EMBEDDED,
}


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for descriptor encoding and metric training.

    ``subspace_dim`` is the requested Grassmann dimension; pipelines cap it
    at what the gallery can support. ``target_dim`` is the width of the
    learned projection, clamped during training when the usable scatter rank
    is lower. ``alpha`` controls covariance regularization (the spectrum is
    shifted by trace/alpha). ``learning_rate`` drives the gating ascent, and
    ``eps`` is the convergence tolerance for both the outer loop and the
    inner trace-ratio solve (0 disables early stopping); both must be finite.
    ``seed``, the source of all training randomness, must be non-negative.
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
        if self.subspace_dim < 1:
            raise BadSpec(f"subspace_dim must be >= 1, got {self.subspace_dim}")
        if not self.alpha > 0.0:
            raise BadSpec(f"alpha must be positive, got {self.alpha}")
        if self.target_dim < 1:
            raise BadSpec(f"target_dim must be >= 1, got {self.target_dim}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0.0):
            raise BadSpec(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if self.iters < 1 or self.itr_iters < 1:
            raise BadSpec("iteration counts must be >= 1")
        if not (math.isfinite(self.eps) and self.eps >= 0.0):
            raise BadSpec(f"eps must be finite and >= 0, got {self.eps}")
        if self.seed < 0:
            raise BadSpec(f"seed must be >= 0, got {self.seed}")
        names = tuple(self.descriptors)
        unknown = [n for n in names if n not in DESCRIPTOR_NAMES]
        if unknown or not names:
            raise BadSpec(
                f"descriptors must be a non-empty subset of {DESCRIPTOR_NAMES}, got {names}"
            )
        # canonical order, duplicates dropped
        canon = tuple(n for n in DESCRIPTOR_NAMES if n in names)
        object.__setattr__(self, "descriptors", canon)

    @property
    def kernel_ids(self) -> tuple[KernelId, ...]:
        return tuple(_NAME_TO_KERNEL[n] for n in self.descriptors)
