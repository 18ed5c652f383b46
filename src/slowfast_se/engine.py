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

A StreamSession keeps no history: only the input that pending fast and slow
frames will still read (about max(L_F, L_S) samples plus the last chunk), the
L_F - D_F overlap-add sums that are not yet final, and finalized output until
the caller pulls it. A stream of any length runs in bounded memory.

One StreamSession is single-threaded; sessions are independent and may share
immutable weights. Running the slow branch on a worker thread is permitted as
long as packet j is delivered before fast frame (j+1)*reuse starts (a budget
of reuse * D_F / 16000 seconds); the synchronous implementation here meets
that trivially.
"""

from __future__ import annotations

import operator
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import fast_branch, slow_branch
from .fast_branch import FastBranchWeights, check_variant, packet_size
from .signal_io import SAMPLE_RATE, AudioBuffer, as_mono, frame_signal, make_window, overlap_add
from .slow_branch import GRU_FIELDS, SlowBranchWeights, slow_forward, warmup_packet

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


def _trunk_shapes(l_in: int, width: int, layers: int, head: int) -> dict[str, tuple[int, ...]]:
    """FC in from l_in samples, ``layers`` GRU layers of ``width``, a head of ``head``."""
    vector, matrix = (width,), (width, width)
    shapes = {"slow.fc_in.w": (l_in, width), "slow.fc_in.b": vector}
    for k in range(layers):
        for fname in GRU_FIELDS:
            shapes[f"slow.gru{k}.{fname}"] = vector if fname.startswith("b_") else matrix
    shapes.update({"slow.fc_head.w": (width, head), "slow.fc_head.b": (head,),
                   "slow.warmup_raw": (head,)})
    return shapes


def expected_shapes(config: SlowFastConfig) -> dict[str, tuple[int, ...]]:
    """The parameter table: every array's name and shape, in canonical order.

    The order is ``named_arrays``' and the model file's, and ``_draw``
    draws the initial values in it. Nothing else states a shape:
    ``zero_weights`` allocates the stored arrays from it.
    """
    l_f, h = config.l_f, config.h
    shapes = _trunk_shapes(
        config.l_s, config.gru_width, config.gru_layers, packet_size(config.variant, h)
    )
    h_out = fast_branch.VARIANTS[config.variant].feat_width * h
    shapes.update({"fast.f_in.w": (l_f, h), "fast.f_in.b": (h,),
                   "fast.f_out.w": (h_out, l_f), "fast.f_out.b": (l_f,)})
    return shapes


def zero_weights(shapes: dict[str, tuple[int, ...]]) -> ModelWeights | SlowBranchWeights:
    """Zeroed weights for a parameter table, each stored array allocated
    once: ModelWeights for ``expected_shapes``, a bare trunk for
    ``single_branch_shapes``. Only ``named_arrays`` knows where a named
    array lies in them, so every builder fills them through it."""
    layers = sum(name.endswith(".b_z") for name in shapes)

    def stack(kind: str) -> np.ndarray:
        *rows, d = shapes[f"slow.gru0.{kind}_z"]
        return np.zeros((layers, *rows, 3 * d))

    # the dataclasses list their other arrays in table order
    rest = [np.zeros(shape) for name, shape in shapes.items() if not name.startswith("slow.gru")]
    trunk = SlowBranchWeights(*rest[:2], stack("w"), stack("u"), stack("b"), *rest[2:5])
    return ModelWeights(trunk, FastBranchWeights(*rest[5:])) if rest[5:] else trunk


def _draw(weights: ModelWeights | SlowBranchWeights, seed: int) -> ModelWeights | SlowBranchWeights:
    """Initial values, written into zeroed ``weights`` through ``named_arrays``:
    each matrix uniform +-sqrt(1/rows), drawn in table order from one
    generator; every vector (bias, warm-up raw) stays zero."""
    rng = np.random.default_rng(seed)
    for _, arr in named_arrays(weights):
        if arr.ndim == 2:
            bound = np.sqrt(1.0 / arr.shape[0])
            arr[...] = rng.uniform(-bound, bound, size=arr.shape)
    return weights


def init_model_weights(config: SlowFastConfig, seed: int = 0) -> ModelWeights:
    return _draw(zero_weights(expected_shapes(config)), seed)


def single_branch_shapes(config: SlowFastConfig) -> dict[str, tuple[int, ...]]:
    """The baseline's parameter table: the same FC + GRU trunk, fed L_F
    samples, with its head mapping straight to L_F samples."""
    return _trunk_shapes(config.l_f, config.gru_width, config.gru_layers, config.l_f)


def init_single_branch_weights(config: SlowFastConfig, seed: int = 0) -> SlowBranchWeights:
    return _draw(zero_weights(single_branch_shapes(config)), seed)


def named_arrays(weights: ModelWeights | SlowBranchWeights) -> list[tuple[str, np.ndarray]]:
    """Canonical (name, array) ordering shared by the optimizer, gradient
    checks, and the model file format. A bare trunk, the single-branch
    baseline's weights, lists its slow.* arrays alone. Each GRU entry
    ``slow.gru{k}.{kind}_{gate}`` is a writable view of gate ``gate``'s
    column block in layer k of the stack ``gru_{kind}``."""
    trunk = weights if isinstance(weights, SlowBranchWeights) else weights.slow
    out = [("slow.fc_in.w", trunk.fc_in_w), ("slow.fc_in.b", trunk.fc_in_b)]
    stacks = {"w": trunk.gru_w, "u": trunk.gru_u, "b": trunk.gru_b}
    d = trunk.gru_b.shape[-1] // 3
    for k in range(len(trunk.gru_b)):
        for fname in GRU_FIELDS:
            block = "zrn".index(fname[-1]) * d
            out.append((f"slow.gru{k}.{fname}", stacks[fname[0]][k, ..., block : block + d]))
    out += [("slow.fc_head.w", trunk.fc_head_w), ("slow.fc_head.b", trunk.fc_head_b),
            ("slow.warmup_raw", trunk.warmup_packet_raw)]
    if weights is trunk:  # a bare trunk
        return out
    fast = weights.fast
    return out + [("fast.f_in.w", fast.f_in_w), ("fast.f_in.b", fast.f_in_b),
                  ("fast.f_out.w", fast.f_out_w), ("fast.f_out.b", fast.f_out_b)]


def check_shapes(shapes: dict[str, tuple], wanted: dict[str, tuple]) -> None:
    """ValueError naming every weight array missing from, extra to or shaped
    unlike the parameter table ``wanted``."""
    problems = [f"missing weight {name}" for name in wanted if name not in shapes]
    problems += [f"unexpected weight {name}" for name in shapes if name not in wanted]
    problems += [
        f"weight {name} has shape {shapes[name]}, config expects {shape}"
        for name, shape in wanted.items()
        if name in shapes and shapes[name] != shape
    ]
    if problems:
        raise ValueError("; ".join(problems))


def check_weight_shapes(weights: ModelWeights | SlowBranchWeights, config: SlowFastConfig) -> None:
    """``check_shapes`` of the weights' named arrays against the config's
    table: ``single_branch_shapes`` for a bare trunk, else ``expected_shapes``."""
    table = single_branch_shapes if isinstance(weights, SlowBranchWeights) else expected_shapes
    check_shapes({name: arr.shape for name, arr in named_arrays(weights)}, table(config))


def model_weights_from_arrays(
    config: SlowFastConfig, arrays: dict[str, np.ndarray]
) -> ModelWeights:
    """ModelWeights holding float64 copies of canonically named arrays (see
    named_arrays); none shares memory with ``arrays``."""
    shapes = expected_shapes(config)
    check_shapes({name: arr.shape for name, arr in arrays.items()}, shapes)
    weights = zero_weights(shapes)
    for name, arr in named_arrays(weights):
        arr[...] = arrays[name]
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


@dataclass
class SessionStats:
    """Per-session counters: frames run and seconds spent per branch.

    Frame counts are exact. ``slow_seconds`` times each slow frame;
    ``fast_seconds`` is each push's frame loop minus its slow frames, so it
    covers the fast steps and the per-frame windowing and overlap-add.
    """

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

    A session holds the padded-timeline input from the earliest sample a
    pending fast or slow frame reads, the overlap-add carry, the fast state,
    the GRU states and the current packet as plain arrays, and finalized
    output not yet pulled. So its memory stays bounded for a stream of any
    length, as long as the caller pulls.

    Overlap-add is carried in the frame: the carry is the fast_pad sums that
    earlier frames left on the next frame's span, then delta_f zeros. Each
    windowed frame output is added to it; the first delta_f sums are final
    and the rest is the next carry, so every output sample sums its frames
    in frame order from +0.0, as ``overlap_add`` does.

    The variant is bound once: the constructor looks the step function up by
    name in ``fast_branch.VARIANTS``, so a wrapper installed on
    ``fast_branch`` before the session is built sees every fast frame and one
    installed later sees none. ``slow_forward`` is looked up in this module
    on every slow frame.
    """

    def __init__(self, weights: ModelWeights, config: SlowFastConfig):
        check_weight_shapes(weights, config)
        self.config = config
        self.weights = weights
        self.stats = SessionStats()
        self._step = getattr(fast_branch, fast_branch.VARIANTS[check_variant(config.variant)].step)
        self._window = make_window(config.l_f)  # analysis and synthesis
        # padded-timeline input from sample _origin on; the first slow frame
        # may start left of padded zero, and input sample 0 sits at fast_pad
        self._origin = min(0, config.delta_s - config.l_s)
        self._input = np.zeros(config.fast_pad - self._origin)
        self._n_in = 0
        # OLA sums over the next fast frame's span, zero past fast_pad
        self._carry = np.zeros(config.l_f)
        self._output: deque[np.ndarray] = deque()  # final, not yet pulled, in order
        self._available = 0
        self._next_fast = 0
        self._slow_done = 0
        self._hidden = [np.zeros(config.gru_width) for _ in range(config.gru_layers)]
        self._h = np.zeros(config.h)
        self._packet = warmup_packet(weights.slow, config.variant)  # until slow frame 0 runs
        self._closed = False

    def _run_slow(self) -> None:
        """Slow frame _slow_done: the packet for the next group and new GRU states."""
        t0 = time.perf_counter()
        cfg = self.config
        lo, hi = slow_frame_span(self._slow_done, cfg.delta_s, cfg.l_s)
        x_s = self._input[lo - self._origin : hi - self._origin]
        self._packet, self._hidden = slow_forward(x_s, self._hidden, self.weights.slow, cfg.variant)
        self._slow_done += 1
        self.stats.slow_frames += 1
        self.stats.slow_seconds += time.perf_counter() - t0

    def _run_frames(self, frames: int) -> None:
        """Run fast frames up to `frames` and the slow frames they wait for,
        finalize output, drop spent input."""
        i0 = self._next_fast
        if frames <= i0:
            return
        cfg, stats = self.config, self.stats
        df, lf, pad, reuse = cfg.delta_f, cfg.l_f, cfg.fast_pad, cfg.reuse
        step, fast, window = self._step, self.weights.fast, self._window
        inp, origin = self._input, self._origin
        h, carry = self._h, self._carry
        finals = []
        slow_s = stats.slow_seconds
        t0 = time.perf_counter()
        for i in range(i0, frames):
            # fast frame i takes packet i // reuse - 1, so group k waits for slow frame k - 1
            if self._slow_done < i // reuse:
                self._run_slow()
            at = i * df - origin
            h, y = step(h, inp[at : at + lf] * window, self._packet, fast)
            sums = np.zeros(lf + df)  # the tail stays zero for the next carry
            np.add(carry, y * window, out=sums[:lf])
            finals.append(sums[:df])
            carry = sums[df:]
        stats.fast_seconds += time.perf_counter() - t0 - (stats.slow_seconds - slow_s)
        stats.fast_frames += frames - i0
        self._h, self._carry, self._next_fast = h, carry, frames
        # padded samples below fast_pad precede the input; output stops at its end
        base = i0 * df
        final = finals[0] if len(finals) == 1 else np.concatenate(finals)
        final = final[max(pad - base, 0) : pad + self._n_in - base]
        if len(final):
            self._output.append(final)
            self._available += len(final)
        # input before the next fast frame and the next slow frame's span is spent
        keep = min(frames * df, slow_frame_span(self._slow_done, cfg.delta_s, cfg.l_s)[0])
        self._input = inp[keep - origin :]
        self._origin = keep

    # public streaming API ---------------------------------------------------

    def push_samples(self, chunk) -> int:
        """Feed samples; returns how many output samples are now pullable."""
        if self._closed:
            raise RuntimeError("push_samples after close")
        samples = as_mono(chunk)
        self._input = np.concatenate((self._input, samples))
        self._n_in += len(samples)
        # fast frame i ends at input sample (i + 1) * delta_f
        self._run_frames(self._n_in // self.config.delta_f)
        return self._available

    def available_output(self) -> int:
        return self._available

    def pull_output(self, max_n: int | None = None) -> np.ndarray:
        """Return up to max_n finalized samples, each exactly once, in order.

        A max_n that is not an integer raises TypeError and changes nothing.
        """
        n = self._available
        if max_n is not None:
            n = min(n, operator.index(max_n))
        if n <= 0:
            return np.zeros(0)
        self._available -= n
        pieces = []
        while n > 0:
            piece = self._output.popleft()
            if len(piece) > n:
                self._output.appendleft(piece[n:])
                piece = piece[:n]
            pieces.append(piece)
            n -= len(piece)
        # pieces are views of frame outputs the session no longer writes to
        return pieces[0] if len(pieces) == 1 else np.concatenate(pieces)

    def close(self) -> int:
        """Flush tail frames (zero-padded reads); all output becomes final."""
        if not self._closed:
            self._closed = True
            self._input = np.concatenate((self._input, np.zeros(self.config.l_f)))
            self._run_frames(self.config.num_fast_frames(self._n_in))
        return self.available_output()


def enhance_offline(
    x, weights: ModelWeights, config: SlowFastConfig, stats: SessionStats | None = None
) -> AudioBuffer:
    """Whole-utterance enhancement; equals any chunked streaming run bit for bit.

    A ``stats`` object passed in becomes the session's counters, so the
    caller can read its per-branch frame counts and timings afterwards.
    """
    session = StreamSession(weights, config)
    if stats is not None:
        session.stats = stats
    session.push_samples(x)
    session.close()
    return AudioBuffer(session.pull_output())


def single_branch_forward(
    x, weights: SlowBranchWeights, config: SlowFastConfig
) -> AudioBuffer:
    """Baseline that runs the full FC + GRU trunk once per fast frame.

    Same framing, windows, and OLA as the dual-rate path; the head emits L_F
    samples directly. Weights unlike ``single_branch_shapes`` raise ValueError.
    """
    check_weight_shapes(weights, config)
    samples = as_mono(x)
    n, pad = len(samples), config.fast_pad
    if n == 0:
        return AudioBuffer(samples)
    window = make_window(config.l_f)
    frames = frame_signal(samples, config.l_f, config.delta_f, pad, config.num_fast_frames(n))
    hidden = [np.zeros(config.gru_width) for _ in range(config.gru_layers)]
    y = np.empty(frames.shape)
    for i, x_f in enumerate(frames * window):
        top, hidden = slow_branch.trunk_step(x_f, hidden, weights)
        y[i] = top @ weights.fc_head_w + weights.fc_head_b
    return AudioBuffer(overlap_add(y * window, config.delta_f)[pad : pad + n])
