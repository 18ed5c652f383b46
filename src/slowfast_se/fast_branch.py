"""High-rate enhancement branch: one FC in, a modulated update, one FC out.

Three slow/fast integration variants share the FC pair:

* ``ssmm`` - diagonal state-space recurrence h = A*h + g*f_in(x) whose
  transition A and input gate g come from the low-rate branch,
* ``film`` - per-feature affine modulation alpha*f_in(x) + beta, stateless,
* ``ec``   - the low-rate embedding is concatenated to f_in(x), stateless.

Weights are immutable after creation and shareable across threads; SsmState
belongs to one stream and is mutated single-threaded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

VARIANTS = ("ssmm", "film", "ec")


def check_variant(variant: str) -> str:
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}, expected one of {VARIANTS}")
    return variant


def packet_size(variant: str, h: int) -> int:
    """Raw head width: 2H for ssmm (A, g) and film (alpha, beta), H for ec."""
    check_variant(variant)
    return h if variant == "ec" else 2 * h


@dataclass(frozen=True)
class ModulationPacket:
    """Per-slow-frame conditioning payload for the fast branch.

    Exactly the fields of the given variant are set: (a, g) for ssmm with
    entries in (0, 1), (alpha, beta) for film, e for ec.
    """

    variant: str
    a: np.ndarray | None = None
    g: np.ndarray | None = None
    alpha: np.ndarray | None = None
    beta: np.ndarray | None = None
    e: np.ndarray | None = None

    def __post_init__(self):
        check_variant(self.variant)
        wanted = {"ssmm": ("a", "g"), "film": ("alpha", "beta"), "ec": ("e",)}[self.variant]
        for name in ("a", "g", "alpha", "beta", "e"):
            value = getattr(self, name)
            if (value is None) == (name in wanted):
                raise ValueError(f"packet field {name!r} inconsistent with variant {self.variant!r}")


def _require_variant(p: ModulationPacket, variant: str) -> None:
    if p.variant != variant:
        raise ValueError(f"packet variant {p.variant!r} passed to a {variant!r} step")


@dataclass
class FastBranchWeights:
    """f_in: (L_F, H) + bias, f_out: (H_out, L_F) + bias (H_out = 2H for ec)."""

    f_in_w: np.ndarray
    f_in_b: np.ndarray
    f_out_w: np.ndarray
    f_out_b: np.ndarray


@dataclass
class SsmState:
    """Fast-branch hidden state h in R^H; zeros at stream start."""

    h: np.ndarray

    @classmethod
    def initial(cls, h_dim: int) -> "SsmState":
        return cls(h=np.zeros(h_dim))


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


def ssmm_step(
    h_prev: SsmState, x_f: np.ndarray, p: ModulationPacket, w: FastBranchWeights
) -> tuple[SsmState, np.ndarray]:
    """One state-space update: h = a*h_prev + g*f_in(x), output f_out(h).

    The transition is diagonal, so applying it is an elementwise multiply.
    """
    _require_variant(p, "ssmm")
    u = x_f @ w.f_in_w + w.f_in_b
    h = p.a * h_prev.h + p.g * u
    s_hat = h @ w.f_out_w + w.f_out_b
    return SsmState(h=h), s_hat


def film_step(x_f: np.ndarray, p: ModulationPacket, w: FastBranchWeights) -> np.ndarray:
    """Stateless scale-and-shift of the hidden features: f_out(alpha*u + beta)."""
    _require_variant(p, "film")
    u = x_f @ w.f_in_w + w.f_in_b
    return (p.alpha * u + p.beta) @ w.f_out_w + w.f_out_b


def ec_step(x_f: np.ndarray, p: ModulationPacket, w: FastBranchWeights) -> np.ndarray:
    """Stateless concatenation of hidden features with the conditioning embedding."""
    _require_variant(p, "ec")
    u = x_f @ w.f_in_w + w.f_in_b
    return np.concatenate([u, p.e]) @ w.f_out_w + w.f_out_b
