"""Image-set classification with fused Riemannian kernels.

The pipeline: each labeled image set becomes three descriptors (regularized
covariance, dominant subspace, embedded Gaussian); three matching kernels
turn a gallery into Gram matrices; training learns a discriminative
projection of Gram columns together with softmax gating weights over the
kernels; classification is gated nearest neighbor in the projected space.
"""

from .classify import Prediction, distance_profile, predict
from .config import TrainConfig
from .data import generate_synthetic, load_dataset, save_dataset
from .descriptors import DescriptorStack, ImageSet, embed_gaussian, encode_sets
from .experiment import (
    ExperimentReport,
    SplitResult,
    run_dimension_sweep,
    run_experiment,
    split_sets,
    train_on_sets,
)
from .gating import (
    GatingParams,
    gating_weights,
    gradient_ascent_step,
    init_gating_params,
)
from .kernels import DESCRIPTOR_NAMES, KernelBank, lift_features
from .persistence import load_model, save_model
from .spd import EigenPair, regularize_spd, spd_log, sym_eig
from .trainer import (
    GramSpan,
    ModelState,
    ScatterPair,
    TraceRatioResult,
    gram_span,
    scatter_matrices,
    solve_trace_ratio,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "DESCRIPTOR_NAMES",
    "DescriptorStack",
    "EigenPair",
    "ExperimentReport",
    "GatingParams",
    "GramSpan",
    "ImageSet",
    "KernelBank",
    "ModelState",
    "Prediction",
    "ScatterPair",
    "SplitResult",
    "TraceRatioResult",
    "TrainConfig",
    "distance_profile",
    "embed_gaussian",
    "encode_sets",
    "gating_weights",
    "generate_synthetic",
    "gradient_ascent_step",
    "gram_span",
    "init_gating_params",
    "lift_features",
    "load_dataset",
    "load_model",
    "predict",
    "regularize_spd",
    "run_dimension_sweep",
    "run_experiment",
    "save_dataset",
    "save_model",
    "scatter_matrices",
    "solve_trace_ratio",
    "spd_log",
    "split_sets",
    "sym_eig",
    "train",
    "train_on_sets",
]
