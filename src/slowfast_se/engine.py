"""Dual-rate orchestration: scheduling, causal alignment, packet reuse, streaming.

The engine frames the input twice. Fast frames (length L_F, hop D_F) are
enhanced one at a time; slow frames (length L_S, hop D_S = reuse * D_F) feed
the analysis branch, and each resulting packet is reused by the next `reuse`
fast frames. Fast frame i uses packet index j = i // reuse - 1; frames with
j = -1 take the learned warm-up packet.

Alignment runs on a zero-padded timeline shifted left by L_F - D_F samples.
That makes the sqrt-Hann analysis/synthesis pair sum to one from the very
first output sample (the raw layout loses sample 0 because the window starts
at zero), and it keeps the slow span for packet j ending exactly where the
first fast frame consuming j begins, so nothing ever reads ahead: output[n]
depends only on input[0 .. n + L_F - 1].

One StreamSession is single-threaded; sessions are independent and may share
immutable weights. Running the slow branch on a worker thread is permitted as
long as packet j is delivered before fast frame (j+1)*reuse starts (a budget
of reuse * D_F / 16000 seconds); the synchronous implementation here meets
that trivially.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import fast_branch, slow_branch
from .fast_branch import (
    FastBranchWeights,
    ModulationPacket,
    SsmState,
    check_variant,
    init_fast_branch_weights,
    packet_size,
)
from .signal_io import SAMPLE_RATE, AudioBuffer, as_mono, frame_signal, make_window, overlap_add
from .slow_branch import (
    GRU_FIELDS,
    SlowBranchWeights,
    SlowState,
    init_slow_branch_weights,
    slow_forward,
    warmup_packet,
)

PAPER_DELTAS = (1, 2, 3, 4, 5, 10)


@dataclass(frozen=True)
class SlowFastConfig:
    """Geometry and architecture hyperparameters for one dual-rate network."""

    variant: str
    l_f: int
    delta_f: int
    reuse: int
    h: int
    delta_s: int = 0      # 0 -> derived as reuse * delta_f
    l_s: int = 0          # 0 -> derived as 2 * delta_s
    gru_width: int = 64
    gru_layers: int = 4

    def __post_init__(self):
        check_variant(self.variant)
        if self.delta_s == 0:
            object.__setattr__(self, "delta_s", self.reuse * self.delta_f)
        if self.l_s == 0:
            object.__setattr__(self, "l_s", 2 * self.delta_s)
        if not (1 <= self.delta_f <= self.l_f):
            raise ValueError(f"need 1 <= delta_f <= l_f, got {self.delta_f}, {self.l_f}")
        if self.reuse < 1:
            raise ValueError(f"reuse factor must be >= 1, got {self.reuse}")
        if self.delta_s != self.reuse * self.delta_f:
            raise ValueError(
                f"delta_s must equal reuse * delta_f "
                f"({self.delta_s} != {self.reuse} * {self.delta_f})"
            )
        if self.h < 1:
            raise ValueError(f"state dim must be >= 1, got {self.h}")
        if self.l_s < 1:
            raise ValueError(f"l_s must be >= 1, got {self.l_s}")
        if self.gru_width < 1 or self.gru_layers < 1:
            raise ValueError("gru_width and gru_layers must be >= 1")

    @property
    def fast_pad(self) -> int:
        """Left zero-padding that completes window-square coverage at n=0."""
        return self.l_f - self.delta_f

    def num_fast_frames(self, n: int) -> int:
        """Frames needed so every one of n input samples is fully covered."""
        if n < 1:
            return 0
        return (self.fast_pad + n - 1) // self.delta_f + 1

    def algorithmic_latency_us(self) -> float:
        return self.l_f / SAMPLE_RATE * 1e6


def two_ms_config(reuse: int, variant: str = "ssmm") -> SlowFastConfig:
    """2 ms latency setup: L_F=32, D_F=16, H=32, L_S=2*D_S."""
    return SlowFastConfig(variant=variant, l_f=32, delta_f=16, reuse=reuse, h=32)


def sample_level_config(variant: str = "ssmm") -> SlowFastConfig:
    """Single-sample latency setup: L_F=D_F=1, D_S=16, L_S=32, H=8."""
    return SlowFastConfig(variant=variant, l_f=1, delta_f=1, reuse=16, h=8)


@dataclass
class ModelWeights:
    """All trainable arrays for both branches (warm-up packet lives in slow)."""

    slow: SlowBranchWeights
    fast: FastBranchWeights


def init_model_weights(config: SlowFastConfig, seed: int = 0) -> ModelWeights:
    rng = np.random.default_rng(seed)
    slow = init_slow_branch_weights(
        config.l_s, config.gru_width, config.gru_layers, config.variant, config.h, rng
    )
    fast = init_fast_branch_weights(config.l_f, config.h, config.variant, rng)
    return ModelWeights(slow=slow, fast=fast)


def init_single_branch_weights(config: SlowFastConfig, seed: int = 0) -> SlowBranchWeights:
    """Baseline: the same FC + GRU trunk, head mapping straight to L_F samples."""
    rng = np.random.default_rng(seed)
    return init_slow_branch_weights(
        config.l_f, config.gru_width, config.gru_layers, config.variant, config.h, rng,
        head_out=config.l_f,
    )


def named_arrays(weights: ModelWeights) -> list[tuple[str, np.ndarray]]:
    """Canonical (name, array) ordering shared by the optimizer, gradient
    checks, and the model file format."""
    out = [
        ("slow.fc_in.w", weights.slow.fc_in_w),
        ("slow.fc_in.b", weights.slow.fc_in_b),
    ]
    for k, layer in enumerate(weights.slow.gru):
        for fname in GRU_FIELDS:
            out.append((f"slow.gru{k}.{fname}", getattr(layer, fname)))
    out += [
        ("slow.fc_head.w", weights.slow.fc_head_w),
        ("slow.fc_head.b", weights.slow.fc_head_b),
        ("slow.warmup_raw", weights.slow.warmup_packet_raw),
        ("fast.f_in.w", weights.fast.f_in_w),
        ("fast.f_in.b", weights.fast.f_in_b),
        ("fast.f_out.w", weights.fast.f_out_w),
        ("fast.f_out.b", weights.fast.f_out_b),
    ]
    return out


def expected_shapes(config: SlowFastConfig) -> dict[str, tuple[int, ...]]:
    d = config.gru_width
    p = packet_size(config.variant, config.h)
    h_out = 2 * config.h if config.variant == "ec" else config.h
    shapes: dict[str, tuple[int, ...]] = {
        "slow.fc_in.w": (config.l_s, d),
        "slow.fc_in.b": (d,),
        "slow.fc_head.w": (d, p),
        "slow.fc_head.b": (p,),
        "slow.warmup_raw": (p,),
        "fast.f_in.w": (config.l_f, config.h),
        "fast.f_in.b": (config.h,),
        "fast.f_out.w": (h_out, config.l_f),
        "fast.f_out.b": (config.l_f,),
    }
    for k in range(config.gru_layers):
        for fname in GRU_FIELDS:
            shapes[f"slow.gru{k}.{fname}"] = (d,) if fname.startswith("b_") else (d, d)
    return shapes


def model_weights_from_arrays(
    config: SlowFastConfig, arrays: dict[str, np.ndarray]
) -> ModelWeights:
    """Assemble ModelWeights from canonically named arrays (see named_arrays)."""
    gru = [
        slow_branch.GruLayerWeights(
            **{f: arrays[f"slow.gru{k}.{f}"] for f in GRU_FIELDS}
        )
        for k in range(config.gru_layers)
    ]
    slow = SlowBranchWeights(
        fc_in_w=arrays["slow.fc_in.w"],
        fc_in_b=arrays["slow.fc_in.b"],
        gru=gru,
        fc_head_w=arrays["slow.fc_head.w"],
        fc_head_b=arrays["slow.fc_head.b"],
        warmup_packet_raw=arrays["slow.warmup_raw"],
    )
    fast = FastBranchWeights(
        f_in_w=arrays["fast.f_in.w"],
        f_in_b=arrays["fast.f_in.b"],
        f_out_w=arrays["fast.f_out.w"],
        f_out_b=arrays["fast.f_out.b"],
    )
    weights = ModelWeights(slow=slow, fast=fast)
    _check_weight_shapes(weights, config)
    return weights


def slow_frame_span(j: int, delta_s: int, l_s: int) -> tuple[int, int]:
    """Half-open sample interval analyzed for packet j.

    The span ends at (j+1)*delta_s, exactly where the first fast frame that
    consumes packet j begins; indices below zero read as zeros.
    """
    if j < 0:
        raise ValueError(f"slow frame index must be >= 0, got {j}")
    end = (j + 1) * delta_s
    return end - l_s, end


class _GrowBuffer:
    """Append-only float64 buffer with amortized growth."""

    def __init__(self, capacity: int = 4096):
        self._data = np.zeros(capacity)
        self.size = 0

    def _reserve(self, n: int) -> None:
        if n > len(self._data):
            cap = len(self._data)
            while cap < n:
                cap *= 2
            grown = np.zeros(cap)
            grown[: self.size] = self._data[: self.size]
            self._data = grown

    def append(self, chunk: np.ndarray) -> None:
        self._reserve(self.size + len(chunk))
        self._data[self.size : self.size + len(chunk)] = chunk
        self.size += len(chunk)

    def add_at(self, start: int, values: np.ndarray) -> None:
        self._reserve(start + len(values))
        self.size = max(self.size, start + len(values))
        self._data[start : start + len(values)] += values

    def slice_padded(self, start: int, length: int) -> np.ndarray:
        """Read [start, start+length), zero-filling outside [0, size)."""
        out = np.zeros(length)
        lo = max(start, 0)
        hi = min(start + length, self.size)
        if hi > lo:
            out[lo - start : hi - start] = self._data[lo:hi]
        return out

    def view(self, start: int, stop: int) -> np.ndarray:
        return self._data[start:stop]


@dataclass
class SessionStats:
    fast_frames: int = 0
    slow_frames: int = 0
    fast_seconds: float = 0.0
    slow_seconds: float = 0.0


class StreamSession:
    """Incremental enhancement of one audio stream.

    push_samples() consumes input and advances every fast frame whose span has
    fully arrived; pull_output() drains finalized samples exactly once;
    close() flushes the zero-padded tail so total output length equals total
    input length. Equal inputs produce bit-identical outputs for any chunking.
    """

    def __init__(self, weights: ModelWeights, config: SlowFastConfig):
        self.config = config
        self.weights = weights
        self.stats = SessionStats()
        self._window = make_window("sqrt_hann_periodic", config.l_f)  # analysis and synthesis
        self._input = _GrowBuffer()
        self._ola = _GrowBuffer()
        self._next_fast = 0
        self._slow_done = 0
        self._slow_state = SlowState.initial(config.gru_layers, config.gru_width)
        self._ssm_state = SsmState.initial(config.h)
        self._warm = warmup_packet(weights.slow, config.variant)
        self._packet: ModulationPacket = self._warm
        self._packet_k = 0
        self._pulled = 0
        self._closed = False

    # frame/packet plumbing ------------------------------------------------

    def _input_padded(self, start: int, length: int) -> np.ndarray:
        """Read the conceptual zero-padded stream at [start, start+length)."""
        return self._input.slice_padded(start - self.config.fast_pad, length)

    def _run_slow_until(self, k: int) -> None:
        cfg = self.config
        while self._slow_done < k:
            j = self._slow_done
            t0 = time.perf_counter()
            lo, hi = slow_frame_span(j, cfg.delta_s, cfg.l_s)
            x_s = self._input_padded(lo, cfg.l_s)
            self._packet, self._slow_state = slow_forward(
                x_s, self._slow_state, self.weights.slow, cfg.variant
            )
            self._slow_done += 1
            self.stats.slow_frames += 1
            self.stats.slow_seconds += time.perf_counter() - t0

    def _process_frame(self, i: int) -> None:
        cfg = self.config
        k = i // cfg.reuse
        if k > 0:
            self._run_slow_until(k)
        packet = self._warm if k == 0 else self._packet

        t0 = time.perf_counter()
        x_f = self._input_padded(i * cfg.delta_f, cfg.l_f) * self._window
        if cfg.variant == "ssmm":
            self._ssm_state, y = fast_branch.ssmm_step(
                self._ssm_state, x_f, packet, self.weights.fast
            )
        elif cfg.variant == "film":
            y = fast_branch.film_step(x_f, packet, self.weights.fast)
        else:
            y = fast_branch.ec_step(x_f, packet, self.weights.fast)
        self._ola.add_at(i * cfg.delta_f, y * self._window)
        self.stats.fast_frames += 1
        self.stats.fast_seconds += time.perf_counter() - t0

    # public streaming API ---------------------------------------------------

    def push_samples(self, chunk) -> int:
        """Feed samples; returns how many output samples are now pullable."""
        if self._closed:
            raise RuntimeError("push_samples after close")
        self._input.append(as_mono(chunk))
        cfg = self.config
        while (
            self._next_fast * cfg.delta_f - cfg.fast_pad + cfg.l_f <= self._input.size
        ):
            self._process_frame(self._next_fast)
            self._next_fast += 1
        return self.available_output()

    def available_output(self) -> int:
        cfg = self.config
        n_in = self._input.size
        if self._closed:
            finalized = n_in
        else:
            # padded samples < next_fast * delta_f have all their frames in
            finalized = min(max(self._next_fast * cfg.delta_f - cfg.fast_pad, 0), n_in)
        return finalized - self._pulled

    def pull_output(self, max_n: int | None = None) -> np.ndarray:
        """Return up to max_n finalized samples, each exactly once, in order."""
        n = self.available_output()
        if max_n is not None:
            n = min(n, max_n)
        if n <= 0:
            return np.zeros(0)
        start = self.config.fast_pad + self._pulled
        out = self._ola.view(start, start + n).copy()
        self._pulled += n
        return out

    def close(self) -> int:
        """Flush tail frames (zero-padded reads); all output becomes final."""
        if self._closed:
            return self.available_output()
        cfg = self.config
        total_frames = cfg.num_fast_frames(self._input.size)
        while self._next_fast < total_frames:
            self._process_frame(self._next_fast)
            self._next_fast += 1
        self._closed = True
        # tail of the OLA buffer may be shorter than the input if the last
        # frames were all-zero; make the readable region cover it
        self._ola._reserve(cfg.fast_pad + self._input.size)
        self._ola.size = max(self._ola.size, cfg.fast_pad + self._input.size)
        return self.available_output()


def enhance_offline(
    x, weights: ModelWeights, config: SlowFastConfig, stats: SessionStats | None = None
) -> AudioBuffer:
    """Whole-utterance enhancement; equals any chunked streaming run bit for bit.

    A ``stats`` object passed in becomes the session's counters, so the
    caller can read its per-branch frame counts and timings afterwards.
    """
    _check_weight_shapes(weights, config)
    session = StreamSession(weights, config)
    if stats is not None:
        session.stats = stats
    session.push_samples(x)
    session.close()
    return AudioBuffer(session.pull_output())


def _check_weight_shapes(weights: ModelWeights, config: SlowFastConfig) -> None:
    wanted = expected_shapes(config)
    for name, arr in named_arrays(weights):
        if arr.shape != wanted[name]:
            raise ValueError(
                f"weight {name} has shape {arr.shape}, config expects {wanted[name]}"
            )


def single_branch_forward(
    x, weights: SlowBranchWeights, config: SlowFastConfig
) -> AudioBuffer:
    """Baseline that runs the full FC + GRU trunk once per fast frame.

    Same framing, windows, and OLA as the dual-rate path; the head emits L_F
    time-domain samples directly.
    """
    if weights.fc_in_w.shape[0] != config.l_f or weights.fc_head_w.shape[1] != config.l_f:
        raise ValueError(
            f"single-branch weights map {weights.fc_in_w.shape[0]} -> "
            f"{weights.fc_head_w.shape[1]}, config wants {config.l_f} -> {config.l_f}"
        )
    samples = as_mono(x)
    n, pad = len(samples), config.fast_pad
    if n == 0:
        return AudioBuffer(samples)
    window = make_window("sqrt_hann_periodic", config.l_f)
    frames = frame_signal(samples, config.l_f, config.delta_f, pad, config.num_fast_frames(n))
    hidden = SlowState.initial(config.gru_layers, config.gru_width).hidden
    y = np.empty(frames.shape)
    for i, x_f in enumerate(frames * window):
        top, hidden = slow_branch.trunk_step(x_f, hidden, weights)
        y[i] = top @ weights.fc_head_w + weights.fc_head_b
    return AudioBuffer(overlap_add(y * window, config.delta_f)[pad : pad + n])
