"""Image-set classification with fused Riemannian kernels.

The pipeline: each labeled image set becomes three descriptors (regularized
covariance, dominant subspace, embedded Gaussian); three matching kernels
turn a gallery into Gram matrices; training learns a discriminative
projection of Gram columns together with softmax gating weights over the
kernels; classification is gated nearest neighbor in the projected space.

``__all__`` is the public API: what a user calls to run that pipeline.
Every other name lives at its module path (``setfuse.trainer.train``) and is
an internal whose arguments its one caller builds, so it does not re-check them.
"""

from .classify import Prediction, predict
from .config import TrainConfig
from .data import generate_synthetic, load_dataset, save_dataset
from .descriptors import ImageSet
from .experiment import (
    ExperimentReport,
    SplitResult,
    run_dimension_sweep,
    run_experiment,
    split_sets,
    train_on_sets,
)
from .kernels import DESCRIPTOR_NAMES
from .persistence import load_model, save_model
from .trainer import ModelState

__version__ = "0.1.0"

__all__ = [
    "DESCRIPTOR_NAMES",
    "ExperimentReport",
    "ImageSet",
    "ModelState",
    "Prediction",
    "SplitResult",
    "TrainConfig",
    "generate_synthetic",
    "load_dataset",
    "load_model",
    "predict",
    "run_dimension_sweep",
    "run_experiment",
    "save_dataset",
    "save_model",
    "split_sets",
    "train_on_sets",
]
