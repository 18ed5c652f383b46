"""High-rate enhancement branch: one FC in, a modulated update, one FC out.

Three slow/fast integration variants share the FC pair:

* ``ssmm`` - diagonal state-space recurrence h = A*h + g*f_in(x) whose
  transition A and input gate g come from the low-rate branch,
* ``film`` - per-feature affine modulation alpha*f_in(x) + beta, stateless,
* ``ec``   - the low-rate embedding is concatenated to f_in(x), stateless.

What differs between the variants lives in one table, ``VARIANTS``, whose
columns ``Variant`` lists; the engine, the slow branch's head, training and
the MAC model read it instead of branching on the variant.

The weights' shapes and initial draw are not stated here: engine's
parameter table (``expected_shapes``) declares every array, and
``init_model_weights`` draws them. Weights are immutable after creation and
shareable across threads. A step takes the state and the packet as plain
arrays and returns a new state, so nothing it is given is mutated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np


def check_variant(variant: str) -> str:
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}, expected one of {tuple(VARIANTS)}")
    return variant


def packet_size(variant: str, h: int) -> int:
    """Raw head width: 2H for ssmm (A, g) and film (alpha, beta), H for ec."""
    return h * len(VARIANTS[check_variant(variant)].fields)


@dataclass
class FastBranchWeights:
    """f_in and f_out, each a matrix and a bias (shapes: engine.expected_shapes)."""

    f_in_w: np.ndarray
    f_in_b: np.ndarray
    f_out_w: np.ndarray
    f_out_b: np.ndarray


# 0-d operands for the sigmoid: numpy takes about 0.35 us longer per call
# to convert a Python float operand than to use a 0-d float64 array
_ZERO, _ONE = np.array(0.0), np.array(1.0)
_ZERO.flags.writeable = _ONE.flags.writeable = False


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # 1/(1+e^-x) for x >= 0 and e^x/(1+e^x) below, so exp never overflows.
    # With e = exp(-|x|) both branches are num / (e + 1), and num =
    # exp(min(x, 0)) is exactly 1 for x >= 0 and exactly e below. So this
    # gives the same bits as the two-branch formula in seven numpy calls and
    # no mask; a slow frame makes five of them
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    e += _ONE
    out = np.minimum(x, _ZERO)
    np.exp(out, out=out)
    out /= e
    return out


# Every step maps (state, windowed frame, packet arrays, weights) to (state,
# frame output), so one frame loop runs every variant; stateless variants hand
# the state back. ``x.dot(w)`` is the BLAS call of ``x @ w`` at half the
# call overhead on one frame's short vectors.


def ssmm_step(
    h: np.ndarray, x_f: np.ndarray, p: tuple[np.ndarray, ...], w: FastBranchWeights
) -> tuple[np.ndarray, np.ndarray]:
    """One state-space update with p = (a, g): h = a*h + g*f_in(x), output f_out(h).

    The transition is diagonal, so applying it is an elementwise multiply.
    """
    a, g = p
    h = a * h + g * (x_f.dot(w.f_in_w) + w.f_in_b)
    return h, h.dot(w.f_out_w) + w.f_out_b


def film_step(
    h: np.ndarray, x_f: np.ndarray, p: tuple[np.ndarray, ...], w: FastBranchWeights
) -> tuple[np.ndarray, np.ndarray]:
    """Scale-and-shift of the hidden features with p = (alpha, beta): f_out(alpha*u + beta)."""
    alpha, beta = p
    return h, (alpha * (x_f.dot(w.f_in_w) + w.f_in_b) + beta).dot(w.f_out_w) + w.f_out_b


def ec_step(
    h: np.ndarray, x_f: np.ndarray, p: tuple[np.ndarray, ...], w: FastBranchWeights
) -> tuple[np.ndarray, np.ndarray]:
    """Concatenation of the hidden features with the embedding, p = (e,)."""
    return h, np.concatenate([x_f.dot(w.f_in_w) + w.f_in_b, p[0]]).dot(w.f_out_w) + w.f_out_b


# head activations over the last axis, which holds the two halves
def _gates(raw: np.ndarray) -> tuple[np.ndarray, ...]:
    s, h = _sigmoid(raw), raw.shape[-1] // 2
    return s[..., :h], s[..., h:]


def _affine(raw: np.ndarray) -> tuple[np.ndarray, ...]:
    return 1.0 + raw[..., : raw.shape[-1] // 2], raw[..., raw.shape[-1] // 2 :]


class Variant(NamedTuple):
    """One row of VARIANTS; ``modulate`` and ``adjoint`` run batched over clips.

    They take ``u`` (B, NF, H), every frame's f_in output, the packet's
    (B, G, H) arrays, one row per table entry, and ``groups`` (NF,), each
    frame's row, numbering runs of consecutive frames 0, 1, ... The
    adjoint's d_raw_table includes the head's derivative.

    Only a true recurrence runs frame by frame: ssmm's modulate loops over
    frames for ``h_i = a_i h_{i-1} + (g u)_i`` alone, and its adjoint for
    ``dh_i += a_{i+1} dh_{i+1}`` alone; film and ec have no loop. Packet
    gathers, products and per-group sums (``_group_sums``) are whole-array
    calls.
    """

    fields: tuple[str, ...]  # the packet's arrays, in order
    head: Callable           # raw head output -> the packet's arrays
    step: str                # name of the streaming step in this module
    feat_width: int          # f_out input width, in multiples of H
    mod_macs: int            # multiplies per state channel between f_in and f_out
    modulate: Callable       # (u, packet, groups) -> f_out input
    adjoint: Callable        # (d f_out input, u, packet, groups, f_out input) -> (du, d_raw)


def _group_sums(x, groups):
    """Sums of time-major (NF, ...) ``x`` over each group's frames: (G, ...).

    ``groups`` numbers the frames' groups 0, 1, ... in runs of consecutive
    frames. Each group adds its frames last first, in the order a reverse
    frame loop accumulates them, as one vectorized add per frame position.
    """
    starts = np.flatnonzero(np.diff(groups, prepend=-1))
    sizes = np.diff(starts, append=len(groups))
    out = np.zeros((len(starts),) + x.shape[1:])
    for r in range(sizes.max() - 1, -1, -1):
        k = np.flatnonzero(sizes > r)  # the groups that have an r-th frame
        out[k] += x[starts[k] + r]
    return out


# The ssmm scan runs time-major, on (NF, B, H) arrays whose rows are one
# frame's (B, H) block, and hands back (B, NF, H) views of them.


def _ssmm_modulate(u, p, groups):
    a, g = p
    a_t = a.swapaxes(0, 1)
    h = g.swapaxes(0, 1)[groups]
    h *= u.swapaxes(0, 1)  # g*u, then the scan in place
    for a_i, h_prev, h_i in zip(a_t[groups[1:]], h, h[1:]):
        h_i += a_i * h_prev
    return h.swapaxes(0, 1)


def _ssmm_adjoint(dfeat, u, p, groups, feat):
    # feat holds the states h_i; h_i = a_i h_{i-1} + g_i u_i gives the
    # reverse scan dh_i = dfeat_i + a_{i+1} dh_{i+1}
    a, g = p
    a_t = a.swapaxes(0, 1)
    dh = dfeat.swapaxes(0, 1).copy()
    for a_i, dh_next, dh_i in zip(a_t[groups[:0:-1]], dh[::-1], dh[-2::-1]):
        dh_i += a_i * dh_next
    # one buffer holds each group sum's terms: dh_i h_{i-1} (h_{-1} = 0), then dh_i u_i
    terms = np.zeros_like(dh)
    np.multiply(dh[1:], feat.swapaxes(0, 1)[:-1], out=terms[1:])
    da = _group_sums(terms, groups).swapaxes(0, 1)
    dg = _group_sums(np.multiply(dh, u.swapaxes(0, 1), out=terms), groups).swapaxes(0, 1)
    dh *= g.swapaxes(0, 1)[groups]  # now du
    # sigmoid heads: d sig / d raw = sig * (1 - sig)
    return dh.swapaxes(0, 1), np.concatenate([da * a * (1.0 - a), dg * g * (1.0 - g)], axis=-1)


def _film_modulate(u, p, groups):
    alpha, beta = p
    return alpha[:, groups] * u + beta[:, groups]


def _film_adjoint(dfeat, u, p, groups, feat):
    # alpha = 1 + raw and beta = raw, so the head passes gradients unchanged
    dfeat_t = dfeat.swapaxes(0, 1)
    d_raw = np.concatenate([_group_sums(dfeat_t * u.swapaxes(0, 1), groups),
                            _group_sums(dfeat_t, groups)], axis=-1)
    return dfeat * p[0][:, groups], d_raw.swapaxes(0, 1)


def _ec_modulate(u, p, groups):
    return np.concatenate([u, p[0][:, groups]], axis=-1)


def _ec_adjoint(dfeat, u, p, groups, feat):
    h = u.shape[-1]
    return dfeat[..., :h], _group_sums(dfeat[..., h:].swapaxes(0, 1), groups).swapaxes(0, 1)


# Sessions look the step up by name when they are built, so a wrapper
# installed on this module before that sees every call.
VARIANTS = {
    "ssmm": Variant(("a", "g"), _gates, "ssmm_step", 1, 2, _ssmm_modulate, _ssmm_adjoint),
    "film": Variant(("alpha", "beta"), _affine, "film_step", 1, 1, _film_modulate, _film_adjoint),
    "ec": Variant(("e",), lambda raw: (raw,), "ec_step", 2, 0, _ec_modulate, _ec_adjoint),
}
