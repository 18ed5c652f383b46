"""Reverse-mode gradients through the full unrolled dual-rate graph.

The forward pass here mirrors the streaming engine but runs batched over
clips and fully vectorized where the math allows (framing, FC layers,
overlap-add); only the state recurrences stay sequential. Framing and
overlap-add are signal_io's ``frame_signal`` and ``overlap_add``, shared with
the losses, and the GRU stack runs slow_branch's ``_gru_cell``, the cell the
streaming engine runs; the backward runs the cell's two halves,
``_gru_gates`` and ``_gru_update``, again to rebuild what the forward did
not keep. The backward pass is written by hand and retraces
every step: overlap-add (whose adjoint is framing), f_out, the modulation,
packet reuse (gradients from all frames sharing a packet accumulate into
its slow frame), the GRU stack across slow frames, and the learned warm-up
packet. Correctness is pinned by central-difference checks in the test
suite.

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
layout of the wavefront's rows. Each frame's rows for all clips are one
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
returns. The trunk keeps checkpoints, not its history (Chen et al.,
"Training Deep Nets with Sublinear Memory Cost", arXiv 1604.06174): the
forward runs the wavefront on two rolling rows and keeps the top layer's
outputs, which the head reads, and the layers' states of every
``SEGMENT_STEPS``-th row, no gate of any step, and not the slow frames,
whose view pins a padded copy of the batch. The reverse wavefront walks
one segment of steps at a time: it frames the slow frames and makes FC in
again, rebuilds the segment's rows from its checkpoint with ``_gru_gates``
and ``_gru_update`` against the same slices of the stack, so every rebuilt
value has the forward's bits, keeps those steps' z|r, n and U h for their
adjoints, and frees them before it rebuilds the segment below. The
backward runs the gates once per step either way, so the checkpoints cost
only one h' per step, which the adjoint's leaner elementwise work pays
for. ``forward_batch`` keeps only the packet of the head's table, and the
loss scales its gradient in place.
The variant's adjoint owns ``u`` and the f_out input as well as the
gradient it is given (``fast_branch.Variant``) and uses them as scratch,
so it makes no whole-batch array but the packet's gradient, one table per
field, which ``backward`` joins once the fast branch's arrays are gone.
On 16 one-second clips a 2 ms reuse-3 step then peaks at 25.4 MiB, the
rest of the step past the loss, where ``dy`` and its product with f_out
are alive together, and 70.0 MiB at sample level (``scripts/step_split.py``).
A forward alone, as ``loop.evaluate_sisnr`` runs it, keeps the same
checkpoints, and its cache dies before the score is taken.

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
from ..slow_branch import SlowBranchWeights, _gru_cell, _gru_gates, _gru_update
from .losses import LossWeights, StftParams, total_loss_grad

GradientSet = dict[str, np.ndarray]


class NonFiniteLossError(ValueError):
    """Loss left the finite range; carries diagnostics for the post-mortem."""

    def __init__(self, message: str, diagnostics: dict):
        super().__init__(f"{message}; diagnostics: {diagnostics}")
        self.diagnostics = diagnostics


# Wavefront steps per checkpoint segment. The forward keeps the layers'
# states of every SEGMENT_STEPS-th row, and the backward rebuilds one
# segment's rows and gates at a time, so a step holds about 1/SEGMENT_STEPS
# of the rows and one segment's gates. Kept small, since a segment's gates
# are alive together: at 16-19 steps (about the square root of the 336
# steps of a 2ms-d3 backward) they took 3-4 MB, and benchmark runs read
# 5-19% less audio per second; at 3 the checkpoints take about a quarter of
# the state history and the runs read within noise.
SEGMENT_STEPS = 3


class _Cache(NamedTuple):
    """What ``forward_batch`` keeps for ``backward``, in the order
    ``backward`` unpacks it: whole-batch arrays alone, none per wavefront
    step. ``backward`` drops the cache on entry and each array once its last
    reader returns, so a caller that keeps the cache keeps its arrays alive."""

    u: np.ndarray               # (NF, B, H) f_in outputs
    groups: np.ndarray          # (NF,) packet-table index per fast frame
    checkpoints: np.ndarray     # (ceil(T / SEGMENT_STEPS), L, B, d) layers' states,
                                # T = J + L - 1 wavefront steps
    top: np.ndarray             # (J, B, d) trunk outputs feeding the head
    packet: tuple[np.ndarray, ...]  # (J+1, B, H) arrays; row 0 is the warm-up packet
    feat: np.ndarray            # (NF, B, width * H) f_out inputs


def _gru_backward(
    x: np.ndarray,
    h_prev: np.ndarray,
    dh: np.ndarray,
    gates: tuple[np.ndarray, np.ndarray, np.ndarray],
    w: np.ndarray,
    u: np.ndarray,
    grads: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Returns (dx, dh_prev) of ``_gru_cell`` and accumulates its weight gradients.

    Every array carries the same leading axes: ``x``, ``h_prev`` and ``dh``
    are (L, B, d) stacks of layers, ``gates`` the z|r, n and U h that
    ``_gru_gates`` made of ``x`` and ``h_prev``, ``w`` and ``u`` the layers'
    fused (L, d, 3d) weights, and ``grads`` the same layers' slices of the
    gradient stacks, (L, d, 3d), (L, d, 3d) and (L, 3d), added to in place.
    The gate pre-activation gradients stay side by side in the fused z|r|n
    column order, so each fused array takes one product for its gradient
    and one for the gradient it passes back. The gate gradients are built
    in fresh contiguous arrays, the hidden product's by concatenation too:
    writing them into column slices of one preallocated array measured
    about 10% slower at B=16, d=64.
    """
    zr, n, uh = gates
    d = dh.shape[-1]
    one_zr = 1.0 - zr
    da_n = dh * one_zr[..., :d] * (1.0 - n * n)
    dzr = np.concatenate([dh * (h_prev - n), da_n * uh[..., 2 * d :]], axis=-1)
    # through the sigmoids: d sig / d pre-activation = sig * (1 - sig)
    dzr *= zr
    dzr *= one_zr
    da = np.concatenate([dzr, da_n], axis=-1)
    # U_n h enters n through r * (U_n h), so its column block carries da_n * r
    da_u = np.concatenate([dzr, da_n * zr[..., d:]], axis=-1)

    grad_w, grad_u, grad_b = grads
    grad_w += x.swapaxes(-1, -2) @ da
    grad_u += h_prev.swapaxes(-1, -2) @ da_u
    grad_b += da.sum(-2)
    return da @ w.swapaxes(-1, -2), dh * zr[..., :d] + da_u @ u.swapaxes(-1, -2)


def _wavefront(n_slow: int, layers: int):
    """(t, lo, hi) per step of the wavefront: on step t, layers lo..hi-1 are
    active, layer k running slow frame t - k. No steps when there are no frames."""
    for t in range(n_slow + layers - 1 if n_slow else 0):
        yield t, max(0, t - n_slow + 1), min(layers, t + 1)


def _slow_frames(x: np.ndarray, cfg: SlowFastConfig, n_slow: int) -> np.ndarray:
    """The (B, J, LS) slow frames of (B, N) ``x``, a view of a padded copy.
    Slow frame j spans [(j+1)*delta_s - l_s, (j+1)*delta_s) of the padded
    timeline."""
    if n_slow == 0:
        return np.zeros((len(x), 0, cfg.l_s))
    return frame_signal(x, cfg.l_s, cfg.delta_s, cfg.fast_pad + cfg.l_s - cfg.delta_s, n_slow)


def _fc_in(xs: np.ndarray, sw: SlowBranchWeights) -> np.ndarray:
    """FC in over (B, J, LS) slow frames: (J, B, d), one matmul for all."""
    fc_in = xs.swapaxes(0, 1) @ sw.fc_in_w
    fc_in += sw.fc_in_b
    return fc_in


def _trunk_forward(xs: np.ndarray, sw: SlowBranchWeights) -> tuple[np.ndarray, np.ndarray]:
    """FC in and the GRU stack over (B, J, LS) slow frames, as a wavefront.

    Step t reads row t, an (L + 1, B, d) array: slow frame t's FC-in output
    at index 0 and the state layer k made on step t - 1 at index k + 1 (zero
    before its first frame), so its inputs ``row[lo:hi]`` and states
    ``row[lo + 1 : hi + 1]`` are two slices of one row; its cell's h' goes
    to row t + 1. Two rows roll, and what a step leaves stale in them (the
    states of layers that have run all their frames) no later step reads.
    Returns the top layer's outputs (J, B, d) and the layers' states of
    every ``SEGMENT_STEPS``-th row, from which ``_trunk_backward`` rebuilds
    the rest; no step's gates outlive its cell.
    """
    b, n_slow, _ = xs.shape
    w, u, bias = sw.gru_w, sw.gru_u, sw.gru_b[:, None]  # bias broadcasts over the batch
    layers, d = len(w), sw.fc_in_w.shape[1]
    fc_in = _fc_in(xs, sw)
    steps = n_slow + layers - 1 if n_slow else 0
    checkpoints = np.empty((-(-steps // SEGMENT_STEPS), layers, b, d))
    top = np.empty((n_slow, b, d))
    rows = np.zeros((2, layers + 1, b, d))
    for t, lo, hi in _wavefront(n_slow, layers):
        row = rows[t % 2]
        if lo == 0:
            row[0] = fc_in[t]
        if t % SEGMENT_STEPS == 0:
            checkpoints[t // SEGMENT_STEPS] = row[1:]
        h_new = _gru_cell(row[lo:hi], row[lo + 1 : hi + 1], w[lo:hi], u[lo:hi], bias[lo:hi])
        rows[(t + 1) % 2, lo + 1 : hi + 1] = h_new
        if hi == layers:
            top[t - layers + 1] = h_new[-1]
    return top, checkpoints


def _trunk_backward(
    d_top: np.ndarray,
    xs: np.ndarray,
    checkpoints: np.ndarray,
    sw: SlowBranchWeights,
    grad: SlowBranchWeights,
) -> np.ndarray:
    """The wavefront in reverse: from the gradient at the top layer's outputs
    (J, B, d), the (B, J, LS) slow frames and ``_trunk_forward``'s
    checkpoints, adds the GRU weight gradients in place to ``grad``'s stack
    and returns the gradient at the FC-in outputs (J, B, d).

    The steps run one segment at a time, last segment first. A segment's
    rows are rebuilt from its checkpoint and FC in, made again for all
    frames as the forward made it: each step's ``_gru_gates`` are kept and
    its ``_gru_update`` written into the next row, so every value has the
    forward's bits. Then the segment's adjoints run in reverse and its
    gates die before the segment below is rebuilt. On step t, layer k's
    output gradient is the sum of what layer k + 1 passed down and what
    layer k passed back in time, both made on step t + 1.
    """
    n_slow, b, d = d_top.shape
    w, u, bias = sw.gru_w, sw.gru_u, sw.gru_b[:, None]  # as in the forward
    grads = grad.gru_w, grad.gru_u, grad.gru_b
    layers = len(w)
    fc_in = _fc_in(xs, sw)
    steps = list(_wavefront(n_slow, layers))
    rows = np.empty((SEGMENT_STEPS, layers + 1, b, d))
    down = np.zeros((layers + 1, b, d))  # down[k + 1]: into layer k's output from above
    carry = np.zeros((layers, b, d))     # carry[k]: into layer k's output from the next frame
    d_in = np.empty_like(d_top)
    for first in reversed(range(0, len(steps), SEGMENT_STEPS)):
        segment = steps[first : first + SEGMENT_STEPS]
        rows[0, 1:] = checkpoints[first // SEGMENT_STEPS]
        gates = []
        for s, (t, lo, hi) in enumerate(segment):
            row = rows[s]
            if lo == 0:
                row[0] = fc_in[t]
            gates.append(_gru_gates(row[lo:hi], row[lo + 1 : hi + 1],
                                    w[lo:hi], u[lo:hi], bias[lo:hi]))
            if s + 1 < len(segment):
                _gru_update(*gates[-1][:2], row[lo + 1 : hi + 1],
                            out=rows[s + 1, lo + 1 : hi + 1])
                if hi < layers:  # layer hi starts on the next step, from zero
                    rows[s + 1, hi + 1] = 0.0
        for s in reversed(range(len(segment))):
            t, lo, hi = segment[s]
            row = rows[s]
            if hi == layers:
                down[layers] = d_top[t - layers + 1]
            down[lo:hi], carry[lo:hi] = _gru_backward(
                row[lo:hi], row[lo + 1 : hi + 1], down[lo + 1 : hi + 1] + carry[lo:hi],
                gates.pop(), w[lo:hi], u[lo:hi], tuple(g[lo:hi] for g in grads),
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

    # backward frames the slow frames again too, so the padded copy that
    # they view does not live through the step
    n_slow = (n_fast - 1) // cfg.reuse
    sw = weights.slow
    top, checkpoints = _trunk_forward(_slow_frames(noisy, cfg, n_slow), sw)

    # the packet table: row 0 is the warm-up packet, row j + 1 slow frame j's
    raw = np.empty((n_slow + 1, b, len(sw.warmup_packet_raw)))
    raw[0] = sw.warmup_packet_raw
    head = np.matmul(top, sw.fc_head_w, out=raw[1:])
    head += sw.fc_head_b
    variant = VARIANTS[cfg.variant]
    # each field contiguous, as the scans read one (B, H) row per frame
    packet = tuple(np.ascontiguousarray(field) for field in variant.head(raw))
    del raw, head  # the packet is all that modulate and backward read
    groups = np.arange(n_fast) // cfg.reuse
    feat = variant.modulate(u, packet, groups)
    y = feat @ weights.fast.f_out_w
    y += weights.fast.f_out_b
    y *= window
    cache = _Cache(u, groups, checkpoints, top, packet, feat)
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
    u, groups, checkpoints, top, packet, feat = cache
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
    # the adjoint owns d_feat, u and feat: it may use them as scratch and
    # hands d_feat back as du
    grads["fast.f_out.w"] += _frame_product(feat, dy)
    grads["fast.f_out.b"] += dy.sum((0, 1))
    d_feat = dy @ weights.fast.f_out_w.T
    del dy
    du, d_fields = VARIANTS[cfg.variant].adjoint(d_feat, u, packet, groups, feat)
    del d_feat, u, packet, groups, feat
    draw_table = np.concatenate(d_fields, axis=-1)  # (J + 1, B, raw width)
    del d_fields
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
    xs = _slow_frames(noisy, cfg, len(d_top))
    d_in = _trunk_backward(d_top, xs, checkpoints, sw, grad_weights.slow)
    del d_top, checkpoints
    grads["slow.fc_in.w"] += _frame_product(xs.swapaxes(0, 1), d_in)
    grads["slow.fc_in.b"] += d_in.sum((0, 1))

    return loss, grads
