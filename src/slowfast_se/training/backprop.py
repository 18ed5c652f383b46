"""Reverse-mode gradients through the full unrolled dual-rate graph.

The forward pass here mirrors the streaming engine but runs batched over
clips and fully vectorized where the math allows (framing, FC layers,
overlap-add); only the state recurrences stay sequential. Framing and
overlap-add are signal_io's ``frame_signal`` and ``overlap_add``, shared with
the losses, and the slow trunk is slow_branch's ``trunk_step``, the same FC
and GRU cell the streaming engine runs, here keeping each cell's gate values.
The backward pass is written by hand and retraces every step: overlap-add
(whose adjoint is framing), f_out, the modulation, packet reuse (gradients
from all frames sharing a packet accumulate into its slow frame), the GRU
stack across slow frames, and the learned warm-up packet. Correctness is
pinned by central-difference checks in the test suite.

The backward pass, too, loops only over recurrences: the GRU stack in
reverse over slow frames, and ssmm's scan inside its adjoint. Each FC weight
gradient (f_in, f_out, the head, fc_in) is one product over all frames
(``_frame_product``), and the head's gradients for every slow frame are
known before the GRU loop starts, so that loop runs only the GRU cells'
adjoints.

No variant code lives here: the modulation and its adjoint come from the
variant's row of fast_branch.VARIANTS. ``forward_batch`` checks the weights'
shapes against the config once, on entry.

Gradients are keyed by the canonical array names from engine.named_arrays;
``backward`` builds them as zeros from the parameter table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..engine import (
    ModelWeights,
    SlowFastConfig,
    check_weight_shapes,
    expected_shapes,
    model_weights_from_arrays,
    named_arrays,
)
from ..signal_io import frame_signal, make_window, overlap_add
from ..fast_branch import VARIANTS
from ..slow_branch import GruCache, GruLayerWeights, trunk_step
from .losses import LossWeights, StftParams, total_loss_grad

GradientSet = dict[str, np.ndarray]


class NonFiniteLossError(ValueError):
    """Loss left the finite range; carries diagnostics for the post-mortem."""

    def __init__(self, message: str, diagnostics: dict):
        super().__init__(f"{message}; diagnostics: {diagnostics}")
        self.diagnostics = diagnostics


@dataclass
class _Cache:
    frames: np.ndarray          # (B, NF, L) windowed fast frames
    u: np.ndarray               # (B, NF, H) f_in outputs
    groups: np.ndarray          # (NF,) packet-table index per fast frame
    xs: np.ndarray              # (B, J, LS) slow frames
    gru: list[list[GruCache]]   # [j][layer]
    top: np.ndarray             # (B, J, d) trunk outputs feeding the head
    packet: tuple[np.ndarray, ...]  # (B, J+1, H) arrays; row 0 is the warm-up packet
    feat: np.ndarray            # (B, NF, width * H) f_out inputs


def _gru_backward(
    cache: GruCache, dh: np.ndarray, w: GruLayerWeights, grad: GruLayerWeights
) -> tuple[np.ndarray, np.ndarray]:
    """Returns (dx, dh_prev) and accumulates the layer's weight gradients.

    The gate pre-activation gradients stay side by side in the fused z|r|n
    column order, so each fused array takes one product for its gradient
    and one for the gradient it passes back. The gate gradients are built
    in fresh contiguous arrays: writing them into column slices of one
    preallocated array measured about 10% slower at B=16, d=64.
    """
    d = dh.shape[-1]
    zr, n = cache.zr, cache.n
    z = zr[:, :d]
    da_n = dh * (1.0 - z) * (1.0 - n * n)
    dzr = np.concatenate([dh * (cache.h_prev - n), da_n * cache.uh_n], axis=-1)
    # through the sigmoids: d sig / d pre-activation = sig * (1 - sig)
    dzr *= zr
    dzr *= 1.0 - zr
    da = np.concatenate([dzr, da_n], axis=-1)
    # U_n h enters n through r * (U_n h), so its column block carries da_n * r
    da_u = da.copy()
    da_u[:, 2 * d :] *= zr[:, d:]

    grad.w += cache.x.T @ da
    grad.u += cache.h_prev.T @ da_u
    grad.b += da.sum(0)
    return da @ w.w.T, dh * z + da_u @ w.u.T


def _frame_product(x: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Weight gradient of ``x @ w`` over a (B, F, .) batch of frames: one BLAS
    product of the flattened frames (einsum without ``optimize`` is no BLAS call)."""
    return x.reshape(-1, x.shape[-1]).T @ dy.reshape(-1, dy.shape[-1])


def forward_batch(
    noisy: np.ndarray, weights: ModelWeights, config: SlowFastConfig
) -> tuple[np.ndarray, _Cache]:
    """Batched enhancement of (B, N) clips; returns (B, N) output and caches."""
    noisy = np.asarray(noisy, dtype=np.float64)
    if noisy.ndim != 2:
        raise ValueError("expected noisy batch of shape (B, N)")
    check_weight_shapes(weights, config)
    b, n = noisy.shape
    cfg = config
    pad = cfg.fast_pad
    n_fast = cfg.num_fast_frames(n)
    window = make_window(cfg.l_f)
    frames = frame_signal(noisy, cfg.l_f, cfg.delta_f, pad, n_fast) * window
    u = frames @ weights.fast.f_in_w + weights.fast.f_in_b

    # slow frame j spans [(j+1)*delta_s - l_s, (j+1)*delta_s) of the padded timeline
    n_slow = (n_fast - 1) // cfg.reuse
    sw = weights.slow
    xs = np.zeros((b, 0, cfg.l_s))
    if n_slow > 0:
        xs = frame_signal(noisy, cfg.l_s, cfg.delta_s, pad + cfg.l_s - cfg.delta_s, n_slow)
    hidden = [np.zeros((b, cfg.gru_width)) for _ in range(cfg.gru_layers)]
    tops = np.empty((b, n_slow, cfg.gru_width))
    gru_caches: list[list[GruCache]] = []
    for j in range(n_slow):
        gru_caches.append([])
        tops[:, j], hidden = trunk_step(xs[:, j], hidden, sw, gru_caches[-1])

    # the packet table: row 0 is the warm-up packet, row j + 1 slow frame j's
    warmup = np.broadcast_to(sw.warmup_packet_raw, (b, 1, len(sw.warmup_packet_raw)))
    variant = VARIANTS[cfg.variant]
    packet = variant.head(np.concatenate([warmup, tops @ sw.fc_head_w + sw.fc_head_b], axis=1))
    groups = np.arange(n_fast) // cfg.reuse
    feat = variant.modulate(u, packet, groups)
    y = feat @ weights.fast.f_out_w + weights.fast.f_out_b
    cache = _Cache(frames, u, groups, xs, gru_caches, tops, packet, feat)
    return overlap_add(y * window, cfg.delta_f)[:, pad : pad + n], cache


def backward(
    batch: tuple[np.ndarray, np.ndarray],
    weights: ModelWeights,
    config: SlowFastConfig,
    lw: LossWeights,
    stft_params: StftParams,
) -> tuple[float, GradientSet]:
    """Batch-mean loss and exact gradients for every trainable array."""
    noisy, clean = batch
    noisy = np.atleast_2d(np.asarray(noisy, dtype=np.float64))
    clean = np.atleast_2d(np.asarray(clean, dtype=np.float64))
    s_hat, cache = forward_batch(noisy, weights, config)
    loss, d_s_hat = total_loss_grad(s_hat, clean, lw, stft_params)
    if not np.isfinite(loss):
        raise NonFiniteLossError(
            "non-finite training loss",
            {
                "loss": loss,
                "max_abs_output": float(np.max(np.abs(s_hat))),
                "max_abs_input": float(np.max(np.abs(noisy))),
                "batch_shape": noisy.shape,
            },
        )

    cfg = config
    # gradients keep the weights' layout, so each GRU layer's nine entries
    # are views of one fused gradient layer that _gru_backward updates whole
    grad_weights = model_weights_from_arrays(
        cfg, {name: np.zeros(shape) for name, shape in expected_shapes(cfg).items()}
    )
    grads: GradientSet = dict(named_arrays(grad_weights))

    # ---- loss -> OLA -> per-frame outputs: framing is the adjoint of OLA
    window = make_window(cfg.l_f)
    dy = frame_signal(d_s_hat, cfg.l_f, cfg.delta_f, cfg.fast_pad, len(cache.groups)) * window

    # ---- f_out, then the variant's modulation back to f_in and the packet table
    grads["fast.f_out.w"] += _frame_product(cache.feat, dy)
    grads["fast.f_out.b"] += dy.sum((0, 1))
    du, draw_table = VARIANTS[cfg.variant].adjoint(
        dy @ weights.fast.f_out_w.T, cache.u, cache.packet, cache.groups, cache.feat
    )
    grads["fast.f_in.w"] += _frame_product(cache.frames, du)
    grads["fast.f_in.b"] += du.sum((0, 1))

    # ---- packet table -> warm-up parameter and the head, for all slow frames at once
    sw = weights.slow
    grads["slow.warmup_raw"] += draw_table[:, 0].sum(0)
    draw = draw_table[:, 1:]
    grads["slow.fc_head.w"] += _frame_product(cache.top, draw)
    grads["slow.fc_head.b"] += draw.sum((0, 1))
    d_top = draw @ sw.fc_head_w.T

    # ---- the GRU stack, in reverse over slow frames, then fc_in for all of them
    d_in = np.empty_like(d_top)
    carries = [np.zeros((len(noisy), cfg.gru_width)) for _ in range(cfg.gru_layers)]
    for j in range(len(cache.gru) - 1, -1, -1):
        d_act = d_top[:, j]
        for k in range(cfg.gru_layers - 1, -1, -1):
            d_act, carries[k] = _gru_backward(
                cache.gru[j][k], d_act + carries[k], sw.gru[k], grad_weights.slow.gru[k]
            )
        d_in[:, j] = d_act
    grads["slow.fc_in.w"] += _frame_product(cache.xs, d_in)
    grads["slow.fc_in.b"] += d_in.sum((0, 1))

    return loss, grads
