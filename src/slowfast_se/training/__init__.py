"""Losses, synthetic data, hand-written BPTT, and the training loop."""

from .backprop import GradientSet, NonFiniteLossError, backward, forward_batch
from .data import EVAL_SNRS_DB, TRAIN_SNRS_DB, make_batch, make_synthetic_pair
from .losses import (
    LossWeights,
    SISNR_CAP_DB,
    StftParams,
    sisnr,
    stft,
    total_loss,
)
from .loop import (
    AdamOptimizer,
    EpochRecord,
    TrainingDivergedError,
    TrainSchedule,
    evaluate_sisnr,
    train,
    write_log_csv,
)

__all__ = [
    "AdamOptimizer",
    "EpochRecord",
    "EVAL_SNRS_DB",
    "GradientSet",
    "LossWeights",
    "NonFiniteLossError",
    "SISNR_CAP_DB",
    "StftParams",
    "TRAIN_SNRS_DB",
    "TrainSchedule",
    "TrainingDivergedError",
    "backward",
    "evaluate_sisnr",
    "forward_batch",
    "make_batch",
    "make_synthetic_pair",
    "sisnr",
    "stft",
    "total_loss",
    "train",
    "write_log_csv",
]
