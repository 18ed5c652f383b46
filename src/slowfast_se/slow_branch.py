"""Low-rate analysis branch: FC in, stacked GRU layers, FC head.

Each slow frame runs once through the trunk and emits one modulation packet
that the fast branch reuses for the next group of high-rate frames. A learned
warm-up packet covers the stream prefix before the first slow frame exists.

Gate math follows the convention where the reset gate scales the hidden
matrix product before the tanh: n = tanh(W_n x + r * (U_n h) + b_n). All
matrix/vector ops broadcast over leading batch axes, so the one cell
``_gru_cell`` serves both paths. The streaming engine calls it through
``gru_cell_step``, once per layer per slow frame, on 1-D state and one
layer's (d, 3d) slice of the stack. Batched training (training.backprop)
calls it directly, once per step of a wavefront over the whole stack:
(L, B, d) inputs and states against slices of the stack itself.

The GRU stack is stored as three gate-fused arrays: ``gru_w`` and ``gru_u``
(L, d, 3d) and ``gru_b`` (L, 3d), layer k at index k and the gate blocks of
each in the order z|r|n, so a cell makes two matrix products instead of
six. Every GRU matrix is (d, d), layer 0's input being FC in's d outputs,
so one stack holds all layers. The per-gate arrays ``slow.gru{k}.w_z`` ...
``b_n`` (``GRU_FIELDS``, the names in the model file) are writable views
of the stack that engine.named_arrays hands out. Everything that reads or
updates a gate array by name (the optimizer, gradient clipping, gradient
checks, the model file) therefore reads and writes the one storage.

This module runs the weights and does not make them: every array's name
and shape is declared once, in engine.expected_shapes. engine.zero_weights
allocates the stored arrays from that table, and every builder (the initial
draw, model_weights_from_arrays, load_model, backward's gradient set) fills
them through engine.named_arrays, the only code that knows where a named
array is stored.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fast_branch import VARIANTS, _sigmoid, check_variant


# canonical order of a layer's arrays, used for names in the model file
GRU_FIELDS = ("w_z", "w_r", "w_n", "u_z", "u_r", "u_n", "b_z", "b_r", "b_n")


@dataclass
class SlowBranchWeights:
    """Trunk weights plus the learned warm-up packet parameter.

    engine.expected_shapes gives their shapes: the head is the packet's raw
    width P, or L_F samples in the single-branch baseline.
    """

    fc_in_w: np.ndarray
    fc_in_b: np.ndarray
    gru_w: np.ndarray  # (L, d, 3d) input weights, gates z|r|n
    gru_u: np.ndarray  # (L, d, 3d) hidden weights
    gru_b: np.ndarray  # (L, 3d) biases
    fc_head_w: np.ndarray
    fc_head_b: np.ndarray
    warmup_packet_raw: np.ndarray


def _gru_cell(
    x: np.ndarray, h: np.ndarray, w: np.ndarray, u: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """z|r = sig(..), n = tanh(W_n x + r*(U_n h) + b_n), h' = (1-z)n + z h.

    ``w``, ``u`` and ``b`` are one layer's slices of the stack, or a run of
    layers' (w, u (L, d, 3d), b (L, 1, 3d)) on (L, ..., d) inputs and states.
    Returns (h', z|r, n, U h). The training forward keeps h' alone, and its
    backward calls the cell again on the same inputs to rebuild the rest.
    """
    # Numpy's per-call overhead, not arithmetic, sets a slow frame's time, so
    # the cell makes as few calls as the math allows: the bias joins the input
    # product once, n is built in its own buffer, and h' = n + z (h - n) takes
    # three calls, not four. One layer's products use .dot, the BLAS call of @
    # with less overhead; .dot does not broadcast, so a stack takes matmul.
    product = np.matmul if w.ndim > 2 else np.ndarray.dot
    d = h.shape[-1]
    a = product(x, w)
    a += b
    uh = product(h, u)
    zr = _sigmoid(a[..., : 2 * d] + uh[..., : 2 * d])
    n = zr[..., d:] * uh[..., 2 * d :]
    n += a[..., 2 * d :]
    np.tanh(n, out=n)
    return n + zr[..., :d] * (h - n), zr, n, uh


def gru_cell_step(
    x: np.ndarray, h: np.ndarray, w: np.ndarray, u: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """One shape-checked GRU step on one layer's (d, 3d) ``w``, ``u`` and
    (3d,) ``b``; returns the new hidden state."""
    if x.shape[-1] != w.shape[0] or h.shape[-1] != u.shape[0]:
        raise ValueError(
            f"gru shape mismatch: x has {x.shape[-1]} features (want {w.shape[0]}), "
            f"h has {h.shape[-1]} (want {u.shape[0]})"
        )
    return _gru_cell(x, h, w, u, b)[0]


def activate_head(raw: np.ndarray, variant: str) -> tuple[np.ndarray, ...]:
    """Turn a 1-D raw head output into the packet's arrays, in VARIANTS order.

    ssmm squashes both halves with a sigmoid so A in (0,1) keeps the fast
    recurrence stable and g acts as a gate; film maps raw zeros to the
    identity modulation (alpha=1, beta=0); ec is the identity. The packet
    may share memory with ``raw`` (ec's e, film's beta).
    """
    fields, head = VARIANTS[check_variant(variant)][:2]
    if raw.ndim != 1 or len(raw) % len(fields):
        raise ValueError(f"head output of shape {raw.shape} does not split into {fields}")
    return head(raw)


def trunk_step(
    x: np.ndarray, hidden: list[np.ndarray], w: SlowBranchWeights
) -> tuple[np.ndarray, list[np.ndarray]]:
    """One frame through FC in and the GRU stack: (top output, new hidden list).

    Each layer runs through ``gru_cell_step`` on its slice of the stack.
    """
    u = x.dot(w.fc_in_w) + w.fc_in_b
    new_hidden = []
    for k, h_prev in enumerate(hidden):
        u = gru_cell_step(u, h_prev, w.gru_w[k], w.gru_u[k], w.gru_b[k])
        new_hidden.append(u)
    return u, new_hidden


def slow_forward(
    x_s: np.ndarray, hidden: list[np.ndarray], w: SlowBranchWeights, variant: str
) -> tuple[tuple[np.ndarray, ...], list[np.ndarray]]:
    """One slow frame through FC -> GRU stack -> FC head -> activation.

    ``hidden`` holds one state per GRU layer (zeros at stream start);
    returns the packet's arrays and the new hidden list.
    """
    top, hidden = trunk_step(x_s, hidden, w)
    return activate_head(top.dot(w.fc_head_w) + w.fc_head_b, variant), hidden


def warmup_packet(w: SlowBranchWeights, variant: str) -> tuple[np.ndarray, ...]:
    """Packet used by every fast frame that predates the first slow frame."""
    # a copy, so the packet does not alias the trainable raw array
    return activate_head(w.warmup_packet_raw.copy(), variant)
