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

    Both run time-major: they take ``u`` (NF, B, H), every frame's f_in
    output, the packet's (G, B, H) arrays, one row per table entry, and
    ``groups`` (NF,), each frame's row, numbering runs of consecutive frames
    0, 1, ..., all of one length but the last. ``modulate`` returns the f_out
    input (NF, B, feat_width * H) as a fresh C-contiguous array. The adjoint
    returns ``du`` (NF, B, H) and d_raw_table (G, B, raw width), which
    includes the head's derivative. It owns its first argument, the gradient
    at the f_out input: the caller makes it fresh and drops it, so the
    adjoint may overwrite it and hand it back as ``du``.

    Only a true recurrence runs frame by frame: ssmm's modulate loops over
    frames for ``h_i = a_i h_{i-1} + (g u)_i`` alone, and its adjoint for
    ``dh_i += a_{i+1} dh_{i+1}`` alone, each reading its frame's packet row
    ``a[k]`` in place of a gathered copy of the table; film and ec have no
    loop. Packet gathers, products and per-group sums (``_group_sums``) are
    whole-array calls.
    """

    fields: tuple[str, ...]  # the packet's arrays, in order
    head: Callable           # raw head output -> the packet's arrays
    step: str                # name of the streaming step in this module
    feat_width: int          # f_out input width, in multiples of H
    mod_macs: int            # multiplies per state channel between f_in and f_out
    modulate: Callable       # (u, packet, groups) -> f_out input
    adjoint: Callable        # (d f_out input, u, packet, groups, f_out input) -> (du, d_raw)
    start_raw: tuple[float, ...]  # each field's raw head value at the training start


def _group_sums(x, groups):
    """Sums of time-major (NF, ...) ``x`` over each group's frames: (G, ...).

    ``groups`` numbers the frames' groups 0, 1, ... in runs of consecutive
    frames, all of one length but the last, which may be shorter, as
    ``np.arange(NF) // reuse`` makes them. Each group adds its frames last
    first, in the order a reverse frame loop accumulates them: position r's
    frames are every size-th frame from r, a strided view of ``x``, and the
    groups that have one are a prefix of the result, so the adds gather nothing.
    """
    size = np.count_nonzero(groups == 0)
    out = np.zeros((groups[-1] + 1,) + x.shape[1:])
    for r in range(size - 1, -1, -1):
        rows = x[r::size]
        out[: len(rows)] += rows
    return out


# The modulations run time-major, on (NF, B, H) arrays whose rows are one
# frame's (B, H) block. ``np.take`` with ``mode="clip"`` writes its gather
# straight into ``out``; the default mode gathers into a buffer first.


def _ssmm_modulate(u, p, groups):
    a, g = p
    h = g[groups]
    h *= u  # g*u, then the scan in place
    for k, h_prev, h_i in zip(groups[1:].tolist(), h, h[1:]):
        h_i += a[k] * h_prev
    return h


def _ssmm_adjoint(dfeat, u, p, groups, feat):
    # feat holds the states h_i; h_i = a_i h_{i-1} + g_i u_i gives the
    # reverse scan dh_i = dfeat_i + a_{i+1} dh_{i+1}, run in dfeat's buffer
    a, g = p
    dh = dfeat
    for k, dh_next, dh_i in zip(groups[:0:-1].tolist(), dh[::-1], dh[-2::-1]):
        dh_i += a[k] * dh_next
    # one buffer holds each group sum's terms: dh_i h_{i-1} (h_{-1} = 0), then
    # dh_i u_i, then the gathered g_i that turns dh into du. The sums are
    # contiguous: summed straight into the head derivative's column halves,
    # they took 14 ms against 3 at sample level
    terms = np.empty_like(dh)
    terms[0] = 0.0
    np.multiply(dh[1:], feat[:-1], out=terms[1:])
    da = _group_sums(terms, groups)
    dg = _group_sums(np.multiply(dh, u, out=terms), groups)
    dh *= np.take(g, groups, axis=0, out=terms, mode="clip")  # now du
    del terms
    # sigmoid heads: d sig / d raw = sig * (1 - sig), into the halves of d_raw
    h = a.shape[-1]
    d_raw = np.empty(a.shape[:-1] + (2 * h,))
    for half, d, s in ((d_raw[..., :h], da, a), (d_raw[..., h:], dg, g)):
        np.multiply(d, s, out=half)
        half *= 1.0 - s
    return dh, d_raw


def _film_modulate(u, p, groups):
    alpha, beta = p
    feat = alpha[groups]
    feat *= u
    feat += beta[groups]
    return feat


def _film_adjoint(dfeat, u, p, groups, feat):
    # alpha = 1 + raw and beta = raw, so the head passes gradients unchanged
    terms = np.multiply(dfeat, u)
    d_raw = np.concatenate([_group_sums(terms, groups), _group_sums(dfeat, groups)], axis=-1)
    dfeat *= np.take(p[0], groups, axis=0, out=terms, mode="clip")  # now du
    return dfeat, d_raw


def _ec_modulate(u, p, groups):
    return np.concatenate([u, p[0][groups]], axis=-1)


def _ec_adjoint(dfeat, u, p, groups, feat):
    h = u.shape[-1]
    return dfeat[..., :h], _group_sums(dfeat[..., h:], groups)


# raw head value of the ssmm transition a and input gate g at the training
# start: sigmoid(-2) ~ 0.12 (short memory), sigmoid(+2) ~ 0.88 (open gate).
# film's and ec's raw zeros are identity modulation and a zero embedding.
PASSTHROUGH_RAW_A = -2.0
PASSTHROUGH_RAW_G = 2.0

# Sessions look the step up by name when they are built, so a wrapper
# installed on this module before that sees every call.
VARIANTS = {
    "ssmm": Variant(("a", "g"), _gates, "ssmm_step", 1, 2, _ssmm_modulate, _ssmm_adjoint,
                    (PASSTHROUGH_RAW_A, PASSTHROUGH_RAW_G)),
    "film": Variant(("alpha", "beta"), _affine, "film_step", 1, 1, _film_modulate, _film_adjoint,
                    (0.0, 0.0)),
    "ec": Variant(("e",), lambda raw: (raw,), "ec_step", 2, 0, _ec_modulate, _ec_adjoint, (0.0,)),
}
