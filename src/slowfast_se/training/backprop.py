"""Reverse-mode gradients through the full unrolled dual-rate graph.

The forward pass here mirrors the streaming engine but runs batched over
clips and fully vectorized where the math allows (framing, FC layers,
overlap-add); only the state recurrences stay sequential. Framing and
overlap-add are signal_io's ``frame_signal`` and ``overlap_add``, shared with
the losses, and the GRU stack runs slow_branch's ``_gru_cell``, the cell the
streaming engine runs; the backward runs it again to rebuild the gates. The
backward pass is written by hand and retraces every step: overlap-add (whose
adjoint is framing), f_out, the modulation, packet reuse (gradients from all
frames sharing a packet accumulate into its slow frame), the GRU stack
across slow frames, and the learned warm-up packet. Correctness is pinned by
central-difference checks in the test suite.

The GRU stack runs as a wavefront (``_trunk_forward``): on step t, layer k
runs slow frame t - k, whose input layer k - 1 made on step t - 1. So the
J slow frames of L layers take J + L - 1 steps, each one ``_gru_cell`` call
on the active layers' (L, B, d) inputs and states against their slice of
the stored (L, d, 3d) stack (``SlowBranchWeights.gru_w``, ``gru_u``,
``gru_b``), a view, so no weight is copied; only the first and last L - 1
steps run fewer than L layers. That makes L times fewer numpy calls than a
loop over frames and layers. The backward pass (``_trunk_backward``) runs
the same wavefront in reverse, one stacked ``_gru_backward`` per step, which
adds its weight gradients in place into the same slice of the gradient
set's own stack, whose per-gate entries are views of it as the weights'
are of theirs. Each slice of a stacked product is the same BLAS call a
single layer makes, and every other operation is elementwise or sums over
the batch axis alone, so the results are bit for bit those of
``trunk_step`` frame by frame.

The backward pass, too, loops only over recurrences: the GRU wavefront, and
ssmm's scan inside its adjoint. Each FC weight gradient (f_in, f_out, the
head, fc_in) is one product over all frames (``_frame_product``), and the
head's gradients for every slow frame are known before the GRU loop starts,
so that loop runs only the GRU cells' adjoints.

The batch runs time-major from framing to loss: the windowed frames, the
f_in outputs ``u``, the f_out inputs ``feat``, the outputs ``y`` and the
gradients ``dy`` and ``du`` are C-contiguous (NF, B, .) arrays, and the
packet table and the trunk's outputs are (J + 1, B, .) and (J, B, .), the
layout of the wavefront's states. Each frame's rows for all clips are one
(B, .) block, so the ssmm scan indexes one row per frame, and each weight
gradient flattens its frames to (NF * B, .) as a view. Frames are windowed
straight from ``frame_signal``'s view into a fresh time-major array,
``overlap_add`` reads the outputs through a (B, NF, L) view, and biases
and windows are added in place, so no step makes a whole-array temporary
beyond the arrays it computes. Each of the forward's products (f_in, the
head, f_out) is one matmul over all frames and clips.

A step's peak memory is set by how long its arrays live, so each lives
only while a later phase reads it. ``forward_batch`` drops the windowed
frames once ``u`` exists; ``backward`` frames the input again for f_in's
weight gradient, with the same multiply and so the same bits. ``backward``
unpacks the cache on entry and drops each array once its last reader
returns. The trunk forward keeps the wavefront's ``states`` and no gate
of any step: the reverse wavefront runs ``_gru_cell`` again on each step's
stored inputs and states, against the same slices of the stack, so the
rebuilt z|r, n and U h are the forward's bits, and frees them once that
step's adjoint returns. So the trunk's backward runs with only ``states``
and one step's gates alive. The trade is time for memory: the rebuild is
a second cell per step, about 40 ms of a 2 ms step on 16 one-second clips,
and that step peaks at 37.0 MiB, against 57.8 MiB with each step's z|r
cached (``scripts/step_split.py``). A forward alone, as
``loop.evaluate_sisnr`` runs it, keeps no gates either.

No variant code lives here: the modulation and its adjoint come from the
variant's row of fast_branch.VARIANTS. ``forward_batch`` checks the weights'
shapes against the config once, on entry.

Gradients are keyed by the canonical array names from engine.named_arrays;
``backward`` allocates them with ``engine._model``, the builder the
weights come from, so the gradient set is laid out as the weights are.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..engine import (
    ModelWeights,
    SlowFastConfig,
    _model,
    check_weight_shapes,
    named_arrays,
)
from ..signal_io import frame_signal, make_window, overlap_add
from ..fast_branch import VARIANTS
from ..slow_branch import SlowBranchWeights, _gru_cell
from .losses import LossWeights, StftParams, total_loss_grad

GradientSet = dict[str, np.ndarray]


class NonFiniteLossError(ValueError):
    """Loss left the finite range; carries diagnostics for the post-mortem."""

    def __init__(self, message: str, diagnostics: dict):
        super().__init__(f"{message}; diagnostics: {diagnostics}")
        self.diagnostics = diagnostics


class _Cache(NamedTuple):
    """What ``forward_batch`` keeps for ``backward``, in the order
    ``backward`` unpacks it: whole-batch arrays alone, none per wavefront
    step. ``backward`` drops the cache on entry and each array once its last
    reader returns, so a caller that keeps the cache keeps its arrays alive."""

    u: np.ndarray               # (NF, B, H) f_in outputs
    groups: np.ndarray          # (NF,) packet-table index per fast frame
    xs: np.ndarray              # (B, J, LS) slow frames, a framing view
    states: np.ndarray          # (J+L, L+1, B, d) the wavefront's inputs and states
    top: np.ndarray             # (J, B, d) trunk outputs feeding the head, a view of states
    packet: tuple[np.ndarray, ...]  # (J+1, B, H) arrays; row 0 is the warm-up packet
    feat: np.ndarray            # (NF, B, width * H) f_out inputs


def _gru_backward(
    x: np.ndarray,
    h_prev: np.ndarray,
    dh: np.ndarray,
    w: np.ndarray,
    u: np.ndarray,
    b: np.ndarray,
    grads: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Returns (dx, dh_prev) of ``_gru_cell`` and accumulates its weight gradients.

    Every array carries the same leading axes: ``x``, ``h_prev`` and ``dh``
    are (L, B, d) stacks of layers, ``w``, ``u`` and ``b`` the layers' fused
    (L, d, 3d) weights and (L, 1, 3d) biases, and ``grads`` the same layers'
    slices of the gradient stacks, (L, d, 3d), (L, d, 3d) and (L, 3d), added
    to in place. The forward keeps no gates: the cell runs again here on the
    step's stored inputs and states against the same weight slices, so its
    z|r, n and U h are the forward's own bits. That second cell, about
    160 us per step at L=4, B=16, d=64 on one BLAS thread, is the price of
    a forward that keeps no gates.
    The gate pre-activation gradients stay side by side in the fused z|r|n
    column order, so each fused array takes one product for its gradient
    and one for the gradient it passes back. The gate gradients are built
    in fresh contiguous arrays: writing them into column slices of one
    preallocated array measured about 10% slower at B=16, d=64.
    """
    d = dh.shape[-1]
    _, zr, n, uh = _gru_cell(x, h_prev, w, u, b)
    z = zr[..., :d]
    da_n = dh * (1.0 - z) * (1.0 - n * n)
    dzr = np.concatenate([dh * (h_prev - n), da_n * uh[..., 2 * d :]], axis=-1)
    # through the sigmoids: d sig / d pre-activation = sig * (1 - sig)
    dzr *= zr
    dzr *= 1.0 - zr
    da = np.concatenate([dzr, da_n], axis=-1)
    # U_n h enters n through r * (U_n h), so its column block carries da_n * r
    da_u = da.copy()
    da_u[..., 2 * d :] *= zr[..., d:]

    grad_w, grad_u, grad_b = grads
    grad_w += x.swapaxes(-1, -2) @ da
    grad_u += h_prev.swapaxes(-1, -2) @ da_u
    grad_b += da.sum(-2)
    return da @ w.swapaxes(-1, -2), dh * z + da_u @ u.swapaxes(-1, -2)


def _wavefront(n_slow: int, layers: int):
    """(t, lo, hi) per step of the wavefront: on step t, layers lo..hi-1 are
    active, layer k running slow frame t - k. No steps when there are no frames."""
    for t in range(n_slow + layers - 1 if n_slow else 0):
        yield t, max(0, t - n_slow + 1), min(layers, t + 1)


def _trunk_forward(xs: np.ndarray, sw: SlowBranchWeights) -> tuple[np.ndarray, np.ndarray]:
    """FC in and the GRU stack over (B, J, LS) slow frames, as a wavefront.

    Returns the top layer's outputs (J, B, d), a view of the states array,
    and that array; no step's gates outlive its cell, since ``_gru_backward``
    runs the cell again. ``states[t, 0]`` is slow frame t's FC-in output and
    ``states[t, k + 1]`` the state layer k made on step t - 1 (zero before
    its first frame), so step t reads its inputs ``states[t, lo:hi]`` and
    states ``states[t, lo + 1 : hi + 1]`` as two slices of one row, which no
    later step writes.
    """
    b, n_slow, _ = xs.shape
    w, u, bias = sw.gru_w, sw.gru_u, sw.gru_b[:, None]  # bias broadcasts over the batch
    layers, d = len(w), sw.fc_in_w.shape[1]
    states = np.zeros((n_slow + layers, layers + 1, b, d))
    fc_in = np.matmul(xs.swapaxes(0, 1), sw.fc_in_w, out=states[:n_slow, 0])
    fc_in += sw.fc_in_b
    for t, lo, hi in _wavefront(n_slow, layers):
        states[t + 1, lo + 1 : hi + 1] = _gru_cell(
            states[t, lo:hi], states[t, lo + 1 : hi + 1], w[lo:hi], u[lo:hi], bias[lo:hi]
        )[0]
    return states[layers:, layers], states


def _trunk_backward(
    d_top: np.ndarray,
    states: np.ndarray,
    sw: SlowBranchWeights,
    grad: SlowBranchWeights,
) -> np.ndarray:
    """The wavefront in reverse: from the gradient at the top layer's outputs
    (J, B, d), adds the GRU weight gradients in place to ``grad``'s stack and
    returns the gradient at the FC-in outputs (J, B, d).

    On step t, layer k's output gradient is the sum of what layer k + 1 passed
    down and what layer k passed back in time, both made on step t + 1.
    Each step's ``_gru_backward`` rebuilds its gates from ``states[t]`` and
    frees them when it returns, so one step's gates are alive at a time.
    """
    n_slow, b, d = d_top.shape
    w, u, bias = sw.gru_w, sw.gru_u, sw.gru_b[:, None]  # as in the forward
    grads = grad.gru_w, grad.gru_u, grad.gru_b
    layers = len(w)
    down = np.zeros((layers + 1, b, d))  # down[k + 1]: into layer k's output from above
    carry = np.zeros((layers, b, d))     # carry[k]: into layer k's output from the next frame
    d_in = np.empty_like(d_top)
    for t, lo, hi in reversed(list(_wavefront(n_slow, layers))):
        if hi == layers:
            down[layers] = d_top[t - layers + 1]
        down[lo:hi], carry[lo:hi] = _gru_backward(
            states[t, lo:hi], states[t, lo + 1 : hi + 1],
            down[lo + 1 : hi + 1] + carry[lo:hi], w[lo:hi], u[lo:hi], bias[lo:hi],
            tuple(g[lo:hi] for g in grads),
        )
        if lo == 0:
            d_in[t] = down[0]
    return d_in


def _frame_product(x: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Weight gradient of ``x @ w`` over (F, B, .) frames: one BLAS product of
    the flattened frames (einsum without ``optimize`` is no BLAS call). For
    C-contiguous operands the reshapes are views, so nothing is copied."""
    return x.reshape(-1, x.shape[-1]).T @ dy.reshape(-1, dy.shape[-1])


def _windowed_frames(x: np.ndarray, cfg: SlowFastConfig, n_fast: int,
                     window: np.ndarray) -> np.ndarray:
    """The windowed fast frames of (B, N) ``x`` as a fresh (NF, B, l_f) array."""
    return np.multiply(frame_signal(x, cfg.l_f, cfg.delta_f, cfg.fast_pad, n_fast).swapaxes(0, 1),
                       window, out=np.empty((n_fast, len(x), cfg.l_f)))


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
    # backward frames the input again for f_in's gradient, so the frames
    # do not live through the trunk
    u = _windowed_frames(noisy, cfg, n_fast, window) @ weights.fast.f_in_w
    u += weights.fast.f_in_b

    # slow frame j spans [(j+1)*delta_s - l_s, (j+1)*delta_s) of the padded timeline
    n_slow = (n_fast - 1) // cfg.reuse
    sw = weights.slow
    xs = np.zeros((b, 0, cfg.l_s))
    if n_slow > 0:
        xs = frame_signal(noisy, cfg.l_s, cfg.delta_s, pad + cfg.l_s - cfg.delta_s, n_slow)
    top, states = _trunk_forward(xs, sw)

    # the packet table: row 0 is the warm-up packet, row j + 1 slow frame j's
    raw = np.empty((n_slow + 1, b, len(sw.warmup_packet_raw)))
    raw[0] = sw.warmup_packet_raw
    head = np.matmul(top, sw.fc_head_w, out=raw[1:])
    head += sw.fc_head_b
    variant = VARIANTS[cfg.variant]
    # each field contiguous, as the scans read one (B, H) row per frame
    packet = tuple(np.ascontiguousarray(field) for field in variant.head(raw))
    groups = np.arange(n_fast) // cfg.reuse
    feat = variant.modulate(u, packet, groups)
    y = feat @ weights.fast.f_out_w
    y += weights.fast.f_out_b
    y *= window
    cache = _Cache(u, groups, xs, states, top, packet, feat)
    return overlap_add(y.swapaxes(0, 1), cfg.delta_f)[:, pad : pad + n], cache


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
    u, groups, xs, states, top, packet, feat = cache
    del cache
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
    del s_hat

    cfg = config
    # gradients keep the weights' layout, so the GRU entries are views of
    # one gradient stack that _gru_backward updates in place
    grad_weights = _model(cfg, np.zeros)
    grads: GradientSet = dict(named_arrays(grad_weights))

    # Each array is dropped once its last reader returns, so the trunk's
    # backward runs with only the trunk's own cache alive.
    # ---- loss -> OLA -> per-frame outputs: framing is the adjoint of OLA
    window = make_window(cfg.l_f)
    n_fast = len(u)
    dy = _windowed_frames(d_s_hat, cfg, n_fast, window)
    del d_s_hat

    # ---- f_out, then the variant's modulation back to f_in and the packet table;
    # the adjoint may overwrite its first argument and hand it back as du
    grads["fast.f_out.w"] += _frame_product(feat, dy)
    grads["fast.f_out.b"] += dy.sum((0, 1))
    d_feat = dy @ weights.fast.f_out_w.T
    del dy
    du, draw_table = VARIANTS[cfg.variant].adjoint(d_feat, u, packet, groups, feat)
    del d_feat, u, packet, groups, feat
    # f_in's input frames, made again from the input as forward_batch made them
    grads["fast.f_in.w"] += _frame_product(_windowed_frames(noisy, cfg, n_fast, window), du)
    grads["fast.f_in.b"] += du.sum((0, 1))
    del du

    # ---- packet table -> warm-up parameter and the head, for all slow frames at once
    sw = weights.slow
    grads["slow.warmup_raw"] += draw_table[0].sum(0)
    draw = draw_table[1:]
    grads["slow.fc_head.w"] += _frame_product(top, draw)
    grads["slow.fc_head.b"] += draw.sum((0, 1))
    d_top = draw @ sw.fc_head_w.T
    del draw_table, draw, top

    # ---- the GRU stack, a reverse wavefront over slow frames, then fc_in for all of them
    d_in = _trunk_backward(d_top, states, sw, grad_weights.slow)
    del d_top, states
    grads["slow.fc_in.w"] += _frame_product(xs.swapaxes(0, 1), d_in)
    grads["slow.fc_in.b"] += d_in.sum((0, 1))

    return loss, grads
