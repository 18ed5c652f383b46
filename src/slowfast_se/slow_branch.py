"""Low-rate analysis branch: FC in, stacked GRU layers, FC head.

Each slow frame runs once through the trunk and emits one modulation packet
that the fast branch reuses for the next group of high-rate frames. A learned
warm-up packet covers the stream prefix before the first slow frame exists.

Gate math follows the convention where the reset gate scales the hidden
matrix product before the tanh: n = tanh(W_n x + r * (U_n h) + b_n). All
matrix/vector ops broadcast over leading batch axes, so the same functions
serve the streaming engine (1-D) and batched training (2-D).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .fast_branch import ModulationPacket, _uniform, check_variant, packet_size


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # 1/(1+e^-x) for x >= 0 and e^x/(1+e^x) below, so exp never overflows;
    # np.where instead of boolean-mask indexing halves the cost
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


@dataclass
class GruLayerWeights:
    """One GRU layer: input matrices W_*, hidden matrices U_*, biases b_*."""

    w_z: np.ndarray
    w_r: np.ndarray
    w_n: np.ndarray
    u_z: np.ndarray
    u_r: np.ndarray
    u_n: np.ndarray
    b_z: np.ndarray
    b_r: np.ndarray
    b_n: np.ndarray


# canonical order of a layer's arrays, used for names in the model file
GRU_FIELDS = tuple(f.name for f in fields(GruLayerWeights))


class GruCache(NamedTuple):
    """One cell's input, previous state and gate values, kept for backprop."""

    x: np.ndarray
    h_prev: np.ndarray
    z: np.ndarray
    r: np.ndarray
    n: np.ndarray
    uh_n: np.ndarray  # U_n h_prev, before the reset gate scales it


@dataclass
class SlowBranchWeights:
    """Trunk weights plus the learned warm-up packet parameter."""

    fc_in_w: np.ndarray   # (L_S, d)
    fc_in_b: np.ndarray   # (d,)
    gru: list[GruLayerWeights]
    fc_head_w: np.ndarray  # (d, P)
    fc_head_b: np.ndarray  # (P,)
    warmup_packet_raw: np.ndarray  # (P,)

    @property
    def width(self) -> int:
        return self.fc_in_w.shape[1]


@dataclass
class SlowState:
    """Per-layer GRU hidden vectors; zeros at stream start."""

    hidden: list[np.ndarray]

    @classmethod
    def initial(cls, layers: int, width: int) -> "SlowState":
        return cls(hidden=[np.zeros(width) for _ in range(layers)])


def init_gru_layer(in_dim: int, h_dim: int, rng: np.random.Generator) -> GruLayerWeights:
    return GruLayerWeights(
        w_z=_uniform(rng, (in_dim, h_dim), in_dim),
        w_r=_uniform(rng, (in_dim, h_dim), in_dim),
        w_n=_uniform(rng, (in_dim, h_dim), in_dim),
        u_z=_uniform(rng, (h_dim, h_dim), h_dim),
        u_r=_uniform(rng, (h_dim, h_dim), h_dim),
        u_n=_uniform(rng, (h_dim, h_dim), h_dim),
        b_z=np.zeros(h_dim),
        b_r=np.zeros(h_dim),
        b_n=np.zeros(h_dim),
    )


def init_slow_branch_weights(
    l_s: int,
    width: int,
    layers: int,
    variant: str,
    h: int,
    rng: np.random.Generator,
    head_out: int | None = None,
) -> SlowBranchWeights:
    """Uniform +-sqrt(1/fan_in) matrices, zero biases, zero warm-up raw.

    ``head_out`` overrides the head width (used by the single-branch
    baseline, whose head maps straight to time-domain samples).
    """
    check_variant(variant)
    p = packet_size(variant, h) if head_out is None else head_out
    return SlowBranchWeights(
        fc_in_w=_uniform(rng, (l_s, width), l_s),
        fc_in_b=np.zeros(width),
        gru=[init_gru_layer(width, width, rng) for _ in range(layers)],
        fc_head_w=_uniform(rng, (width, p), width),
        fc_head_b=np.zeros(p),
        warmup_packet_raw=np.zeros(p),
    )


def _gru_cell(x: np.ndarray, h: np.ndarray, w: GruLayerWeights) -> tuple[np.ndarray, GruCache]:
    """z = sig(..), r = sig(..), n = tanh(W x + r*(U h) + b), h' = (1-z)n + z h."""
    z = _sigmoid(x @ w.w_z + h @ w.u_z + w.b_z)
    r = _sigmoid(x @ w.w_r + h @ w.u_r + w.b_r)
    uh_n = h @ w.u_n
    n = np.tanh(x @ w.w_n + r * uh_n + w.b_n)
    return (1.0 - z) * n + z * h, GruCache(x, h, z, r, n, uh_n)


def gru_cell_step(x: np.ndarray, h: np.ndarray, w: GruLayerWeights) -> np.ndarray:
    """One shape-checked GRU step; returns the new hidden state."""
    if x.shape[-1] != w.w_z.shape[0] or h.shape[-1] != w.u_z.shape[0]:
        raise ValueError(
            f"gru shape mismatch: x has {x.shape[-1]} features (want {w.w_z.shape[0]}), "
            f"h has {h.shape[-1]} (want {w.u_z.shape[0]})"
        )
    return _gru_cell(x, h, w)[0]


def activate_head(raw: np.ndarray, variant: str) -> ModulationPacket:
    """Turn raw head outputs into a packet.

    ssmm squashes both halves with a sigmoid so A in (0,1) keeps the fast
    recurrence stable and g acts as a gate; film maps raw zeros to the
    identity modulation (alpha=1, beta=0); ec is the identity.
    """
    check_variant(variant)
    raw = np.asarray(raw, dtype=np.float64)
    if raw.ndim != 1:
        raise ValueError(f"head output must be 1-D, got shape {raw.shape}")
    if variant == "ec":
        return ModulationPacket(variant="ec", e=raw.copy())
    if len(raw) % 2 != 0:
        raise ValueError(f"head size {len(raw)} is not 2H")
    h = len(raw) // 2
    if variant == "ssmm":
        return ModulationPacket(variant="ssmm", a=_sigmoid(raw[:h]), g=_sigmoid(raw[h:]))
    return ModulationPacket(variant="film", alpha=1.0 + raw[:h], beta=raw[h:].copy())


def trunk_step(
    x: np.ndarray,
    hidden: list[np.ndarray],
    w: SlowBranchWeights,
    caches: list[GruCache] | None = None,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """One frame through FC in and the GRU stack: (top output, new hidden list).

    Each layer runs through ``gru_cell_step``. Given a ``caches`` list, the
    training path, each layer instead calls the cell directly and appends
    its GruCache.
    """
    u = x @ w.fc_in_w + w.fc_in_b
    new_hidden = []
    for layer, h_prev in zip(w.gru, hidden):
        if caches is None:
            u = gru_cell_step(u, h_prev, layer)
        else:
            u, cache = _gru_cell(u, h_prev, layer)
            caches.append(cache)
        new_hidden.append(u)
    return u, new_hidden


def slow_forward(
    x_s: np.ndarray, state: SlowState, w: SlowBranchWeights, variant: str
) -> tuple[ModulationPacket, SlowState]:
    """Run one slow frame through FC -> GRU stack -> FC head -> activation."""
    top, hidden = trunk_step(x_s, state.hidden, w)
    raw = top @ w.fc_head_w + w.fc_head_b
    return activate_head(raw, variant), SlowState(hidden=hidden)


def warmup_packet(w: SlowBranchWeights, variant: str) -> ModulationPacket:
    """Packet used by every fast frame that predates the first slow frame."""
    return activate_head(w.warmup_packet_raw, variant)
