"""Reverse-mode gradients through the full unrolled dual-rate graph.

The forward pass here mirrors the streaming engine but runs batched over
clips and fully vectorized where the math allows (framing, FC layers,
overlap-add); only the state recurrences stay sequential. Framing and
overlap-add are signal_io's ``frame_signal`` and ``overlap_add``, shared with
the losses, and the slow trunk is slow_branch's ``trunk_step``, the same FC
and GRU cell the streaming engine runs, here keeping each cell's gate values.
The backward pass is written by hand and retraces every step: overlap-add
(whose adjoint is framing), the fast-branch recurrence, packet reuse
(gradients from all frames sharing a packet accumulate into its slow frame),
the GRU stack across slow frames, and the learned warm-up packet.
Correctness is pinned by central-difference checks in the test suite.

Gradients are keyed by the canonical array names from engine.named_arrays.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from ..engine import ModelWeights, SlowFastConfig, named_arrays
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
    n_fast: int
    n_slow: int
    xs: np.ndarray | None       # (B, J, LS) slow frames
    gru: list[list[GruCache]]   # [j][layer]
    top: np.ndarray | None      # (B, J, d) trunk outputs feeding the head
    raw_table: np.ndarray       # (B, J+1, P); row 0 is the warm-up raw
    # packet fields (fast_branch.VARIANTS) over the packet table
    a: np.ndarray | None = None
    g: np.ndarray | None = None
    alpha: np.ndarray | None = None
    beta: np.ndarray | None = None
    e: np.ndarray | None = None
    h_all: np.ndarray | None = None  # (B, NF, H) ssmm states
    mod: np.ndarray | None = None    # (B, NF, H) film pre-f_out features
    cat: np.ndarray | None = None    # (B, NF, 2H) ec concatenated features


def _gru_backward(
    cache: GruCache, dh: np.ndarray, w: GruLayerWeights, grad: GruLayerWeights
) -> tuple[np.ndarray, np.ndarray]:
    """Returns (dx, dh_prev) and accumulates the layer's weight gradients.

    The gate pre-activation gradients stay side by side in the fused z|r|n
    column order, so each fused array takes one product for its gradient
    and one for the gradient it passes back.
    """
    d = dh.shape[-1]
    z, r = cache.zr[:, :d], cache.zr[:, d:]
    da_n = dh * (1.0 - z) * (1.0 - cache.n**2)
    dzr = np.concatenate([dh * (cache.h_prev - cache.n), da_n * cache.uh_n], axis=-1)
    da = np.concatenate([dzr * cache.zr * (1.0 - cache.zr), da_n], axis=-1)
    # U_n h enters n through r * (U_n h), so its column block carries da_n * r
    da_u = np.concatenate([da[:, : 2 * d], da_n * r], axis=-1)

    grad.w += cache.x.T @ da
    grad.u += cache.h_prev.T @ da_u
    grad.b += da.sum(0)
    return da @ w.w.T, dh * z + da_u @ w.u.T


def forward_batch(
    noisy: np.ndarray, weights: ModelWeights, config: SlowFastConfig
) -> tuple[np.ndarray, _Cache]:
    """Batched enhancement of (B, N) clips; returns (B, N) output and caches."""
    noisy = np.asarray(noisy, dtype=np.float64)
    if noisy.ndim != 2:
        raise ValueError("expected noisy batch of shape (B, N)")
    b, n = noisy.shape
    cfg = config
    pad = cfg.fast_pad
    n_fast = cfg.num_fast_frames(n)
    window = make_window("sqrt_hann_periodic", cfg.l_f)
    frames = frame_signal(noisy, cfg.l_f, cfg.delta_f, pad, n_fast) * window
    u = frames @ weights.fast.f_in_w + weights.fast.f_in_b

    # slow frame j spans [(j+1)*delta_s - l_s, (j+1)*delta_s) of the padded timeline
    n_slow = (n_fast - 1) // cfg.reuse
    sw = weights.slow
    gru_caches: list[list[GruCache]] = []
    if n_slow > 0:
        xs = frame_signal(noisy, cfg.l_s, cfg.delta_s, pad + cfg.l_s - cfg.delta_s, n_slow)
        hidden = [np.zeros((b, cfg.gru_width)) for _ in range(cfg.gru_layers)]
        tops = np.empty((b, n_slow, cfg.gru_width))
        for j in range(n_slow):
            gru_caches.append([])
            tops[:, j], hidden = trunk_step(xs[:, j], hidden, sw, gru_caches[-1])
        raws = tops @ sw.fc_head_w + sw.fc_head_b
    else:
        xs = None
        tops = None
        raws = np.zeros((b, 0, len(sw.warmup_packet_raw)))

    raw_table = np.concatenate(
        [np.broadcast_to(sw.warmup_packet_raw, (b, 1, len(sw.warmup_packet_raw))), raws],
        axis=1,
    )
    groups = np.arange(n_fast) // cfg.reuse

    fields, head, _ = VARIANTS[cfg.variant]
    cache = _Cache(
        frames=frames, u=u, groups=groups, n_fast=n_fast, n_slow=n_slow,
        xs=xs, gru=gru_caches, top=tops, raw_table=raw_table,
        **dict(zip(fields, head(raw_table))),
    )

    fw = weights.fast
    if cfg.variant == "ssmm":
        h_all = np.empty((b, n_fast, cfg.h))
        h = np.zeros((b, cfg.h))
        for i in range(n_fast):
            k = groups[i]
            h = cache.a[:, k] * h + cache.g[:, k] * u[:, i]
            h_all[:, i] = h
        cache.h_all = h_all
        y = h_all @ fw.f_out_w + fw.f_out_b
    elif cfg.variant == "film":
        cache.mod = cache.alpha[:, groups] * u + cache.beta[:, groups]
        y = cache.mod @ fw.f_out_w + fw.f_out_b
    else:
        cache.cat = np.concatenate([u, cache.e[:, groups]], axis=-1)
        y = cache.cat @ fw.f_out_w + fw.f_out_b

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
    b = noisy.shape[0]
    # gradients keep the weights' layout, so each GRU layer's nine entries
    # are views of one fused gradient layer that _gru_backward updates whole
    grad_weights = copy.deepcopy(weights)
    grads: GradientSet = dict(named_arrays(grad_weights))
    for g in grads.values():
        g[...] = 0.0

    # ---- loss -> OLA -> per-frame outputs: framing is the adjoint of OLA
    window = make_window("sqrt_hann_periodic", cfg.l_f)
    dy = frame_signal(d_s_hat, cfg.l_f, cfg.delta_f, cfg.fast_pad, cache.n_fast) * window

    # ---- fast branch
    fw = weights.fast
    n_groups = cache.n_slow + 1
    group_starts = np.arange(0, cache.n_fast, cfg.reuse)
    if cfg.variant == "ssmm":
        grads["fast.f_out.w"] += np.einsum("bih,bil->hl", cache.h_all, dy)
        grads["fast.f_out.b"] += dy.sum((0, 1))
        dh_out = dy @ fw.f_out_w.T
        da_tab = np.zeros((b, n_groups, cfg.h))
        dg_tab = np.zeros((b, n_groups, cfg.h))
        du = np.empty_like(cache.u)
        carry = np.zeros((b, cfg.h))
        for i in range(cache.n_fast - 1, -1, -1):
            k = cache.groups[i]
            dh = dh_out[:, i] + carry
            h_prev = cache.h_all[:, i - 1] if i > 0 else 0.0
            da_tab[:, k] += dh * h_prev
            dg_tab[:, k] += dh * cache.u[:, i]
            du[:, i] = dh * cache.g[:, k]
            carry = dh * cache.a[:, k]
        # sigmoid head activations
        draw_a = da_tab * cache.a * (1.0 - cache.a)
        draw_g = dg_tab * cache.g * (1.0 - cache.g)
        draw_table = np.concatenate([draw_a, draw_g], axis=-1)
    elif cfg.variant == "film":
        grads["fast.f_out.w"] += np.einsum("bih,bil->hl", cache.mod, dy)
        grads["fast.f_out.b"] += dy.sum((0, 1))
        dmod = dy @ fw.f_out_w.T
        du = dmod * cache.alpha[:, cache.groups]
        dalpha = np.add.reduceat(dmod * cache.u, group_starts, axis=1)
        dbeta = np.add.reduceat(dmod, group_starts, axis=1)
        draw_table = np.concatenate([dalpha, dbeta], axis=-1)
    else:
        grads["fast.f_out.w"] += np.einsum("bic,bil->cl", cache.cat, dy)
        grads["fast.f_out.b"] += dy.sum((0, 1))
        dcat = dy @ fw.f_out_w.T
        du = dcat[..., : cfg.h]
        draw_table = np.add.reduceat(dcat[..., cfg.h :], group_starts, axis=1)

    grads["fast.f_in.w"] += np.einsum("bil,bih->lh", cache.frames, du)
    grads["fast.f_in.b"] += du.sum((0, 1))

    # ---- packet table -> warm-up parameter and slow-branch head inputs
    grads["slow.warmup_raw"] += draw_table[:, 0].sum(0)
    draws = draw_table[:, 1:]

    if cache.n_slow > 0:
        sw = weights.slow
        carries = [np.zeros((b, cfg.gru_width)) for _ in range(cfg.gru_layers)]
        for j in range(cache.n_slow - 1, -1, -1):
            draw_j = draws[:, j]
            grads["slow.fc_head.w"] += cache.top[:, j].T @ draw_j
            grads["slow.fc_head.b"] += draw_j.sum(0)
            d_act = draw_j @ sw.fc_head_w.T
            for k in range(cfg.gru_layers - 1, -1, -1):
                dh_total = d_act + carries[k]
                d_act, carries[k] = _gru_backward(
                    cache.gru[j][k], dh_total, sw.gru[k], grad_weights.slow.gru[k]
                )
            grads["slow.fc_in.w"] += cache.xs[:, j].T @ d_act
            grads["slow.fc_in.b"] += d_act.sum(0)

    return loss, grads
