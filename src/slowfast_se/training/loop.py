"""Desk-scale training: Adam, two-stage learning-rate schedule, CSV log.

Training starts from a near-passthrough network (see ``passthrough_start``):
the fast branch copies its input frame through, and the ssmm packet opens
the input gate with a short memory. Stage 1 then optimizes the spectral MSE
alone for 24 epochs, with the learning rate starting at 1e-3 and cut by 10%
whenever the epoch loss fails to improve for two consecutive epochs. Stage 2
switches to the combined objective (weights 10 and 0.5), resets the rate to
1e-4, and cuts by 25% after a single flat epoch. Everything is a
deterministic function of the schedule seed.

``TrainSchedule`` holds the nine knobs a caller sets (epochs and learning
rate per stage, batch size, corpus sizes, seed, gradient clip) and checks
their ranges. The plateau rules (``STAGE1_PLATEAU``, ``STAGE2_PLATEAU``),
Adam's ``ADAM_*`` constants, the loss weightings, the STFT and the SNR grids
of ``data`` are fixed.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from ..engine import (
    ModelWeights,
    SlowFastConfig,
    check_integer_fields,
    init_model_weights,
    named_arrays,
)
from ..fast_branch import VARIANTS
from .backprop import GradientSet, NonFiniteLossError, backward, forward_batch
from .data import EVAL_SNRS_DB, TRAIN_SNRS_DB, make_batch
from .losses import LossWeights, StftParams, sisnr_grad


# (patience, drop) of each stage: after `patience` epochs without a lower
# epoch loss the learning rate is multiplied by `drop`
STAGE1_PLATEAU = (2, 0.9)
STAGE2_PLATEAU = (1, 0.75)

# Adam's moment decay rates and the floor of its denominator
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class TrainSchedule:
    """The knobs a caller sets; a value out of range, or a count that is not
    an integer, is a ValueError naming its key."""

    stage1_epochs: int = 24
    stage2_epochs: int = 4
    lr_stage1: float = 1e-3
    lr_stage2: float = 1e-4
    batch_size: int = 16
    train_pairs: int = 200
    eval_pairs: int = 16
    seed: int = 0
    grad_clip: float = 5.0  # global gradient norm bound; 0 does not clip

    stage1_weights: ClassVar[LossWeights] = LossWeights(1.0, 0.0)
    stage2_weights: ClassVar[LossWeights] = LossWeights(10.0, 0.5)
    stft: ClassVar[StftParams] = StftParams(256, 128)

    def __post_init__(self):
        check_integer_fields(self, "schedule")
        # (key, lower bound, bound excluded)
        for key, low, strict in (
            ("stage1_epochs", 0, False), ("stage2_epochs", 0, False),
            ("lr_stage1", 0, True), ("lr_stage2", 0, True),
            ("batch_size", 1, False), ("train_pairs", 1, False), ("eval_pairs", 1, False),
            ("seed", 0, False), ("grad_clip", 0, False),
        ):
            value = getattr(self, key)
            if not (math.isfinite(value) and (value > low if strict else value >= low)):
                op = ">" if strict else ">="
                raise ValueError(
                    f"schedule key {key} = {value!r}: expected a finite value {op} {low}"
                )


@dataclass
class EpochRecord:
    epoch: int
    loss: float
    eval_sisnr: float
    lr: float
    stage: int


class TrainingDivergedError(RuntimeError):
    """Loss went non-finite; message carries the state dump."""


class AdamOptimizer:
    """Adam with bias correction; moments keyed by canonical array names."""

    def __init__(self, weights: ModelWeights):
        self.t = 0
        self.m = {name: np.zeros_like(a) for name, a in named_arrays(weights)}
        self.v = {name: np.zeros_like(a) for name, a in named_arrays(weights)}

    def step(self, weights: ModelWeights, grads: GradientSet, lr: float) -> None:
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1**self.t
        bc2 = 1.0 - ADAM_BETA2**self.t
        for name, arr in named_arrays(weights):
            g = grads[name]
            m = self.m[name]
            v = self.v[name]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g * g
            arr -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


def clip_gradients(grads: GradientSet, max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most max_norm."""
    total = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if max_norm > 0 and total > max_norm:
        scale = max_norm / total
        for g in grads.values():
            g *= scale
    return total


def evaluate_sisnr(
    weights: ModelWeights, config: SlowFastConfig, noisy: np.ndarray, clean: np.ndarray
) -> float:
    """Mean SI-SNR of the batched forward pass over an evaluation set."""
    enhanced = forward_batch(noisy, weights, config)[0]  # the cache dies here, not after scoring
    vals, _ = sisnr_grad(enhanced, clean)
    return float(vals.mean())


def passthrough_start(config: SlowFastConfig, seed: int = 0) -> ModelWeights:
    """Near-passthrough starting point that ``train()`` uses by default.

    Begins from ``init_model_weights(config, seed)`` and overwrites the fast
    branch with the identity pair in the sample basis: f_in starts as
    ``eye(l_f, h)`` and f_out as ``eye(h, l_f)``. When ``h > l_f`` the extra
    f_in columns keep their random values and get zero f_out rows, so no
    state channel starts at a zero saddle. When ``h < l_f`` the pair is a
    projection onto the first ``h`` samples of each frame, not a passthrough.
    For ec the embedding rows of f_out start at zero. The head bias and the
    warm-up raw start at the variant's ``start_raw`` in ``VARIANTS``, each
    field's value repeated over its ``h`` channels: for ssmm
    (PASSTHROUGH_RAW_A, PASSTHROUGH_RAW_G), so the first packets barely mix
    in past frames and the network output is close to its input; film's and
    ec's zeros are identity modulation and a zero embedding.

    From this start the first gradients into the packet carry information
    about the signal, and the slow branch learns to modulate; from the random
    start it only learns to damp the random fast map (identity
    initialisation, after Le, Jaitly & Hinton 2015).
    """
    weights = init_model_weights(config, seed=seed)
    fast = weights.fast
    k = min(config.l_f, config.h)
    fast.f_in_w[:, :k] = np.eye(config.l_f, k)
    fast.f_out_w[...] = 0.0
    fast.f_out_w[: config.h] = np.eye(config.h, config.l_f)
    start = np.repeat(VARIANTS[config.variant].start_raw, config.h)
    weights.slow.fc_head_b[...] = start
    weights.slow.warmup_packet_raw[...] = start
    return weights


def _corpus(first_seed: int, snrs: tuple, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``n`` synthetic pairs, seeded first_seed, first_seed + 2, ..., cycling through ``snrs``."""
    return make_batch([int(first_seed + 2 * i) for i in range(n)],
                      [snrs[i % len(snrs)] for i in range(n)])


def _lr_controller(lr: float, best: float, bad: int, loss: float, patience: int, drop: float):
    if loss < best - 1e-12:
        return lr, loss, 0
    bad += 1
    if bad >= patience:
        return lr * drop, best, 0
    return lr, best, bad


# A diverging run overflows inside a step before its loss or its evaluation
# turns non-finite. The checks on those two report it once, as a
# TrainingDivergedError, so numpy's warnings along the way are turned off.
@np.errstate(all="ignore")
def train(
    config: SlowFastConfig,
    schedule: TrainSchedule | None = None,
    progress=None,
    init_weights: ModelWeights | None = None,
) -> tuple[ModelWeights, list[EpochRecord]]:
    """Train from scratch on the synthetic corpus; returns weights and log.

    Training starts from ``init_weights`` (mutated in place), by default
    ``passthrough_start(config, schedule.seed)``. The default schedule runs
    24 stage-1 and 4 stage-2 epochs. ``progress`` may be a callable taking
    each EpochRecord as it is produced. A non-finite loss or evaluation
    raises TrainingDivergedError; a start of another geometry, ValueError.
    """
    sched = schedule or TrainSchedule()
    rng = np.random.default_rng(sched.seed)

    first_seed = sched.seed * 1_000_003
    noisy_all, clean_all = _corpus(first_seed, TRAIN_SNRS_DB, sched.train_pairs)
    eval_noisy, eval_clean = _corpus(first_seed + 1_000_001, EVAL_SNRS_DB, sched.eval_pairs)

    weights = init_weights if init_weights is not None else passthrough_start(
        config, seed=sched.seed
    )
    optimizer = AdamOptimizer(weights)
    log: list[EpochRecord] = []

    stages = [
        (1, sched.stage1_epochs, sched.lr_stage1, sched.stage1_weights, STAGE1_PLATEAU),
        (2, sched.stage2_epochs, sched.lr_stage2, sched.stage2_weights, STAGE2_PLATEAU),
    ]

    epoch = 0
    for stage, n_epochs, lr, lw, (patience, drop) in stages:
        best = np.inf
        bad = 0
        for _ in range(n_epochs):
            epoch += 1
            perm = rng.permutation(sched.train_pairs)
            epoch_loss = 0.0
            for start in range(0, sched.train_pairs, sched.batch_size):
                idx = perm[start : start + sched.batch_size]
                batch = (noisy_all[idx], clean_all[idx])
                try:
                    loss, grads = backward(batch, weights, config, lw, sched.stft)
                except NonFiniteLossError as exc:
                    raise TrainingDivergedError(
                        f"training diverged at epoch {epoch} (lr={lr:.3e}, "
                        f"stage {stage}): {exc}"
                    ) from exc
                clip_gradients(grads, sched.grad_clip)
                optimizer.step(weights, grads, lr)
                epoch_loss += loss * len(idx)
            epoch_loss /= sched.train_pairs
            if not np.isfinite(epoch_loss):
                raise TrainingDivergedError(
                    f"non-finite epoch loss {epoch_loss} at epoch {epoch} (lr={lr:.3e})"
                )
            eval_score = evaluate_sisnr(weights, config, eval_noisy, eval_clean)
            if not np.isfinite(eval_score):  # the epoch's last step broke the network
                raise TrainingDivergedError(
                    f"training diverged at epoch {epoch} (lr={lr:.3e}, stage {stage}): "
                    f"evaluation SI-SNR is {eval_score}"
                )
            record = EpochRecord(epoch=epoch, loss=epoch_loss, eval_sisnr=eval_score,
                                 lr=lr, stage=stage)
            log.append(record)
            if progress is not None:
                progress(record)
            lr, best, bad = _lr_controller(lr, best, bad, epoch_loss, patience, drop)

    return weights, log


def write_log_csv(log: list[EpochRecord], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "loss", "eval_sisnr", "lr"])
        for rec in log:
            writer.writerow([rec.epoch, f"{rec.loss:.10g}", f"{rec.eval_sisnr:.10g}",
                             f"{rec.lr:.10g}"])
