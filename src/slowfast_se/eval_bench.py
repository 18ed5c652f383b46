"""Compute-cost model, latency certification, and runtime benchmarks.

MAC counting convention: one MAC per multiply in a matrix product (an FC
from m to n inputs costs m*n), biases and activations free. The dual-rate
total is slow_macs * slow_fps + fast_macs * fast_fps; the single-branch
baseline runs the identical trunk once per fast frame, which makes the
cost-reduction ratio independent of the counting convention.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass

import numpy as np

from .engine import (
    ModelWeights,
    SAMPLE_RATE,
    SessionStats,
    SlowFastConfig,
    enhance_offline,
)
from .fast_branch import packet_size


@dataclass(frozen=True)
class CostReport:
    slow_macs_per_frame: int
    fast_macs_per_frame: int
    slow_fps: float
    fast_fps: float
    total_m_macs_per_s: float
    algorithmic_latency_us: float

    @classmethod
    def build(cls, slow_macs, fast_macs, slow_fps, fast_fps, l_f) -> "CostReport":
        total = (slow_macs * slow_fps + fast_macs * fast_fps) / 1e6
        return cls(
            slow_macs_per_frame=slow_macs,
            fast_macs_per_frame=fast_macs,
            slow_fps=slow_fps,
            fast_fps=fast_fps,
            total_m_macs_per_s=total,
            algorithmic_latency_us=l_f / SAMPLE_RATE * 1e6,
        )


def fc_macs(m: int, n: int) -> int:
    return m * n


def gru_layer_macs(in_dim: int, h_dim: int) -> int:
    """Three input products plus three hidden products."""
    return 3 * (in_dim * h_dim + h_dim * h_dim)


def trunk_macs_per_frame(input_len: int, width: int, layers: int) -> int:
    """FC in + stacked GRU cost shared by the slow branch and the baseline."""
    return fc_macs(input_len, width) + layers * gru_layer_macs(width, width)


def fast_macs_per_frame(config: SlowFastConfig) -> int:
    l_f, h = config.l_f, config.h
    if config.variant == "ssmm":
        # f_in + diagonal transition and gate (2H multiplies) + f_out
        return fc_macs(l_f, h) + 2 * h + fc_macs(h, l_f)
    if config.variant == "film":
        return fc_macs(l_f, h) + h + fc_macs(h, l_f)
    return fc_macs(l_f, h) + fc_macs(2 * h, l_f)


def mac_count(config: SlowFastConfig) -> CostReport:
    """Cost of the dual-rate network for one second of 16 kHz audio."""
    slow = trunk_macs_per_frame(config.l_s, config.gru_width, config.gru_layers)
    slow += fc_macs(config.gru_width, packet_size(config.variant, config.h))
    fast = fast_macs_per_frame(config)
    return CostReport.build(
        slow_macs=slow,
        fast_macs=fast,
        slow_fps=SAMPLE_RATE / config.delta_s,
        fast_fps=SAMPLE_RATE / config.delta_f,
        l_f=config.l_f,
    )


def single_branch_mac_count(config: SlowFastConfig) -> CostReport:
    """Baseline cost: the full trunk plus a width -> L_F head at the fast rate."""
    per_frame = trunk_macs_per_frame(config.l_f, config.gru_width, config.gru_layers)
    per_frame += fc_macs(config.gru_width, config.l_f)
    return CostReport.build(
        slow_macs=0,
        fast_macs=per_frame,
        slow_fps=0.0,
        fast_fps=SAMPLE_RATE / config.delta_f,
        l_f=config.l_f,
    )


@dataclass
class LatencyReport:
    passed: bool
    horizon: int          # max observed lookahead distance m - n_first, samples
    bound: int            # certified bound: l_f - 1
    trials: int
    violations: list


def verify_latency(
    weights: ModelWeights,
    config: SlowFastConfig,
    trials: int = 100,
    signal_len: int = 4000,
    seed: int = 0,
) -> LatencyReport:
    """Perturbation probe: flipping input sample m must leave every output
    before m - L_F + 1 bit-identical. Reports the worst observed lookahead."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(signal_len) * 0.3
    y0 = enhance_offline(x, weights, config).samples
    bound = config.l_f - 1
    horizon = 0
    violations = []
    for _ in range(trials):
        m = int(rng.integers(0, signal_len))
        x2 = x.copy()
        x2[m] += rng.uniform(0.5, 1.5)
        y2 = enhance_offline(x2, weights, config).samples
        changed = np.nonzero(y2 != y0)[0]
        if changed.size == 0:
            continue
        first = int(changed[0])
        if first < m - bound:
            violations.append((m, first))
        horizon = max(horizon, m - first)
    return LatencyReport(
        passed=not violations, horizon=horizon, bound=bound, trials=trials,
        violations=violations,
    )


@dataclass
class RtfReport:
    rtf: float
    audio_seconds: float
    wall_seconds: float
    slow_seconds: float
    fast_seconds: float
    output_sha256: str


def output_hash(samples: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(samples, dtype=np.float64).tobytes()).hexdigest()


def benchmark_rtf(
    weights: ModelWeights, config: SlowFastConfig, seconds: float = 2.0, seed: int = 0
) -> RtfReport:
    """Wall-clock to enhance `seconds` of audio divided by `seconds`.

    Audio is deterministic in the seed and the output hash matches a plain
    enhance_offline call on the same input. All math runs on a single thread
    (the per-frame matrices are far below any BLAS threading threshold).
    """
    rng = np.random.default_rng(seed)
    n = int(round(seconds * SAMPLE_RATE))
    x = rng.standard_normal(n) * 0.3
    stats = SessionStats()
    t0 = time.perf_counter()
    out = enhance_offline(x, weights, config, stats)
    wall = time.perf_counter() - t0
    return RtfReport(
        rtf=wall / seconds,
        audio_seconds=seconds,
        wall_seconds=wall,
        slow_seconds=stats.slow_seconds,
        fast_seconds=stats.fast_seconds,
        output_sha256=output_hash(out.samples),
    )
