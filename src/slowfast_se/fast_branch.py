"""High-rate enhancement branch: one FC in, a modulated update, one FC out.

Three slow/fast integration variants share the FC pair:

* ``ssmm`` - diagonal state-space recurrence h = A*h + g*f_in(x) whose
  transition A and input gate g come from the low-rate branch,
* ``film`` - per-feature affine modulation alpha*f_in(x) + beta, stateless,
* ``ec``   - the low-rate embedding is concatenated to f_in(x), stateless.

Weights are immutable after creation and shareable across threads. A step
takes the state and the packet as plain arrays and returns a new state, so
nothing it is given is mutated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def check_variant(variant: str) -> str:
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}, expected one of {tuple(VARIANTS)}")
    return variant


def packet_size(variant: str, h: int) -> int:
    """Raw head width: 2H for ssmm (A, g) and film (alpha, beta), H for ec."""
    return h * len(VARIANTS[check_variant(variant)][0])


@dataclass
class FastBranchWeights:
    """f_in: (L_F, H) + bias, f_out: (H_out, L_F) + bias (H_out = 2H for ec)."""

    f_in_w: np.ndarray
    f_in_b: np.ndarray
    f_out_w: np.ndarray
    f_out_b: np.ndarray


def _uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = np.sqrt(1.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


def init_fast_branch_weights(l_f: int, h: int, variant: str, rng: np.random.Generator) -> FastBranchWeights:
    """Uniform +-sqrt(1/fan_in) matrices, zero biases."""
    check_variant(variant)
    h_out = 2 * h if variant == "ec" else h
    return FastBranchWeights(
        f_in_w=_uniform(rng, (l_f, h), l_f),
        f_in_b=np.zeros(h),
        f_out_w=_uniform(rng, (h_out, l_f), h_out),
        f_out_b=np.zeros(l_f),
    )


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # 1/(1+e^-x) for x >= 0 and e^x/(1+e^x) below, so exp never overflows.
    # With e = exp(-|x|) both branches are num / (e + 1), num being 1 or e;
    # built in place, this gives the same bits as the two-branch formula with
    # fewer numpy calls and temporaries (putmask is cheaper than np.where)
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = e.copy()
    np.putmask(out, x >= 0, 1.0)
    e += 1.0
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


# The variant table. Per variant: the packet's fields in order, the head
# activation that turns the slow branch's raw output into those arrays, and
# the name of the step function in this module. Sessions look the step up by
# name when they are built, so a wrapper installed on this module before
# that sees every call.
VARIANTS = {
    "ssmm": (("a", "g"), _gates, "ssmm_step"),
    "film": (("alpha", "beta"), _affine, "film_step"),
    "ec": (("e",), lambda raw: (raw,), "ec_step"),
}
