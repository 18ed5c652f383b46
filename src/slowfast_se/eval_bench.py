"""Compute-cost model, latency certification, and runtime benchmarks.

MAC counting convention, read from the parameter table
(``engine.expected_shapes``): a slow frame costs one MAC per weight of each
matrix (2-D entry) named ``slow.*``, and a fast frame one per weight of each
matrix named ``fast.*`` plus the variant's ``mod_macs`` per state channel
(ssmm 2h, film h, ec 0). Biases, the warm-up packet and activations are
free. The dual-rate total is slow_macs * slow_fps + fast_macs * fast_fps;
the single-branch baseline is the same sum over its own table
(``engine.single_branch_shapes``: the identical trunk with an L_F head)
once per fast frame, which makes the cost-reduction ratio independent of
the counting convention.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass

import numpy as np

from .engine import (
    ModelWeights,
    SAMPLE_RATE,
    SessionStats,
    SlowFastConfig,
    enhance_offline,
    expected_shapes,
    single_branch_shapes,
)
from .fast_branch import VARIANTS


@dataclass(frozen=True)
class CostReport:
    slow_macs_per_frame: int
    fast_macs_per_frame: int
    slow_fps: float
    fast_fps: float
    total_m_macs_per_s: float
    algorithmic_latency_us: float

    @classmethod
    def build(cls, slow_macs, fast_macs, slow_fps, fast_fps, latency_us) -> "CostReport":
        total = (slow_macs * slow_fps + fast_macs * fast_fps) / 1e6
        return cls(
            slow_macs_per_frame=slow_macs,
            fast_macs_per_frame=fast_macs,
            slow_fps=slow_fps,
            fast_fps=fast_fps,
            total_m_macs_per_s=total,
            algorithmic_latency_us=latency_us,
        )


def _matrix_macs(shapes: dict[str, tuple[int, ...]], prefix: str) -> int:
    """One MAC per weight of each matrix in ``shapes`` named ``prefix*``."""
    return sum(math.prod(shape) for name, shape in shapes.items()
               if len(shape) == 2 and name.startswith(prefix))


def mac_count(config: SlowFastConfig) -> CostReport:
    """Cost of the dual-rate network for one second of 16 kHz audio."""
    shapes = expected_shapes(config)
    return CostReport.build(
        slow_macs=_matrix_macs(shapes, "slow."),
        fast_macs=_matrix_macs(shapes, "fast.") + VARIANTS[config.variant].mod_macs * config.h,
        slow_fps=SAMPLE_RATE / config.delta_s,
        fast_fps=SAMPLE_RATE / config.delta_f,
        latency_us=config.algorithmic_latency_us(),
    )


def single_branch_mac_count(config: SlowFastConfig) -> CostReport:
    """Baseline cost: the full trunk plus a width -> L_F head at the fast rate."""
    return CostReport.build(
        slow_macs=0,
        fast_macs=_matrix_macs(single_branch_shapes(config), "slow."),
        slow_fps=0.0,
        fast_fps=SAMPLE_RATE / config.delta_f,
        latency_us=config.algorithmic_latency_us(),
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
    if trials < 1:
        raise ValueError(f"need at least one probe, got trials={trials}")
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
    if not (math.isfinite(seconds) and seconds > 0):
        raise ValueError(f"seconds must be positive and finite, got {seconds}")
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
