"""Workload inputs and the loops that drive the package.

Every input is a pure function of the workload seed: clips come from
``make_synthetic_pair`` at SNRs cycling through 0/5/10/15 dB, and weights
from ``passthrough_start`` for the workload's config. The loops call the
package through module and class attributes (``engine.StreamSession``,
``backprop.backward``, ``loop.clip_gradients``), so the tracer's wrappers
see every call.

Each loop runs whole rounds of the same operations into buffers that the
caller allocates, so a round allocates nothing of the benchmark's own and a
``tracemalloc`` pass over it measures the package.
"""

from __future__ import annotations

import copy
import os
import time
import tracemalloc
from dataclasses import dataclass, field

import numpy as np

from slowfast_se import engine
from slowfast_se.training import backprop, data, loop

CLIP = 16000  # samples per clip: one second at 16 kHz
# pushes per timing window of a stream; 1000 leaves ten pushes above the
# window's 99th percentile
WINDOW = 1000
SNRS_DB = (0.0, 5.0, 10.0, 15.0)
ALLOWED_CPUS = frozenset(os.sched_getaffinity(0))
clock = time.perf_counter


@dataclass(frozen=True)
class Spec:
    name: str
    kind: str                # "stream" or "train"
    config: engine.SlowFastConfig
    clips: int               # clips per round (train: clips over all batches)
    hop: int = 0             # samples per push (stream)
    batch: int = 0           # clips per training step (train)

    @property
    def min_rounds(self) -> int:
        """Training needs two rounds to show the loss falling."""
        return 2 if self.kind == "train" else 1

    @property
    def audio_per_unit_s(self) -> float:
        """Seconds of audio in one timed unit: a window or a step."""
        if self.kind == "stream":
            return WINDOW * self.hop / CLIP
        return float(self.batch)


SPECS = {
    s.name: s
    for s in (
        Spec("stream_2ms_d3", "stream", engine.two_ms_config(3), clips=10, hop=16),
        Spec("train_2ms_d3", "train", engine.two_ms_config(3), clips=32, batch=16),
    )
}


@dataclass
class Inputs:
    spec: Spec
    noisy: np.ndarray        # (clips, CLIP)
    clean: np.ndarray        # (clips, CLIP)
    weights: engine.ModelWeights
    data_s: float
    weights_s: float

    @property
    def stream(self) -> np.ndarray:
        return self.noisy.reshape(-1)

    def batches(self):
        b = self.spec.batch
        return [
            (self.noisy[k : k + b], self.clean[k : k + b])
            for k in range(0, self.spec.clips, b)
        ]


def setup(spec: Spec, seed: int) -> Inputs:
    t0 = clock()
    pairs = [
        data.make_synthetic_pair(seed * 10_000 + i, SNRS_DB[i % len(SNRS_DB)])
        for i in range(spec.clips)
    ]
    noisy = np.stack([p[0] for p in pairs])
    clean = np.stack([p[1] for p in pairs])
    t1 = clock()
    weights = loop.passthrough_start(spec.config, seed=seed)
    t2 = clock()
    return Inputs(spec, noisy, clean, weights, data_s=t1 - t0, weights_s=t2 - t1)


@dataclass
class Round:
    """Buffers one round writes into, and what it leaves for the checks."""

    out: np.ndarray                      # stream output, (clips * CLIP,)
    lat: np.ndarray                      # seconds per operation
    units: np.ndarray                    # seconds per window (stream) or step
    losses: list = field(default_factory=list)
    stats: object = None                 # last session's SessionStats

    @classmethod
    def allocate(cls, inp: Inputs) -> "Round":
        spec = inp.spec
        if spec.kind == "stream":
            ops = spec.clips * CLIP // spec.hop
        else:
            ops = spec.clips // spec.batch
        units = ops // WINDOW if spec.kind == "stream" else ops
        return cls(out=np.zeros(spec.clips * CLIP), lat=np.zeros(ops), units=np.zeros(units))


def stream_round(inp: Inputs, r: Round) -> None:
    """One session over the whole stream: push one hop, pull, repeat; close.

    ``r.units`` gets the wall time of each window of WINDOW pushes; the last
    window includes the close and its final pull.
    """
    x, hop, out, lat, units = inp.stream, inp.spec.hop, r.out, r.lat, r.units
    session = engine.StreamSession(inp.weights, inp.spec.config)
    pos = 0
    k = 0
    tw = clock()
    for i in range(0, len(x), hop):
        t0 = clock()
        session.push_samples(x[i : i + hop])
        y = session.pull_output()
        lat[k] = clock() - t0
        out[pos : pos + len(y)] = y
        pos += len(y)
        k += 1
        if k % WINDOW == 0 and k < len(lat):
            now = clock()
            units[k // WINDOW - 1] = now - tw
            tw = now
    session.close()
    y = session.pull_output()
    out[pos : pos + len(y)] = y
    pos += len(y)
    units[-1] = clock() - tw
    if pos != len(out):
        raise RuntimeError(f"stream returned {pos} samples for {len(out)} pushed")
    r.stats = session.stats


class Trainer:
    """Training steps from a fixed start: backward, clip, Adam (stage 1)."""

    def __init__(self, inp: Inputs):
        self.inp = inp
        self.weights = copy.deepcopy(inp.weights)
        self.optimizer = loop.AdamOptimizer(self.weights)
        self.schedule = loop.TrainSchedule()

    def round(self, r: Round) -> None:
        s, cfg = self.schedule, self.inp.spec.config
        for k, batch in enumerate(self.inp.batches()):
            t0 = clock()
            loss, grads = backprop.backward(batch, self.weights, cfg, s.stage1_weights, s.stft)
            loop.clip_gradients(grads, s.grad_clip)
            self.optimizer.step(self.weights, grads, s.lr_stage1)
            r.lat[k] = r.units[k] = clock() - t0
            r.losses.append(loss)


def use_cpu(k: int | None) -> None:
    """Pin this process to the k-th CPU it may use, cycling; None unpins.

    Each CPU of a shared machine runs fast or slow for seconds at a time as
    other machines' work comes and goes, and the two CPUs of the reference
    machine often differ. Taking rounds in turn on each CPU lets a run's
    medians see both.
    """
    cpus = sorted(ALLOWED_CPUS)
    os.sched_setaffinity(0, ALLOWED_CPUS if k is None else {cpus[k % len(cpus)]})


def round_runner(inp: Inputs):
    """A callable that runs one round into a Round.

    Training rounds continue from the previous round's weights; every new
    runner starts again from ``inp.weights``.
    """
    if inp.spec.kind == "stream":
        return lambda r: stream_round(inp, r)
    return Trainer(inp).round


def run_rounds(inp: Inputs, seconds: float, min_rounds: int = 1):
    """Whole rounds until ``seconds`` have passed; returns (Round, same).

    Latencies, unit times and losses of every round are concatenated into
    the returned Round; its ``out`` and ``stats`` are the first round's, and
    ``same`` says whether every later round reproduced that output bit for bit.
    """
    run = round_runner(inp)
    first = None
    lats, units, losses = [], [], []
    same = True
    rounds = 0
    t_end = clock() + seconds
    try:
        while rounds < min_rounds or clock() < t_end:
            r = Round.allocate(inp)
            use_cpu(rounds)
            run(r)
            rounds += 1
            lats.append(r.lat)
            units.append(r.units)
            losses.extend(r.losses)
            if first is None:
                first = r
            elif not np.array_equal(r.out, first.out):
                same = False
    finally:
        use_cpu(None)
    merged = Round(out=first.out, lat=np.concatenate(lats), units=np.concatenate(units),
                   losses=losses, stats=first.stats)
    return merged, same


def warm_up(inp: Inputs) -> None:
    """Untimed first calls, so lazy set-up inside numpy is not timed."""
    if inp.spec.kind == "train":
        round_runner(inp)(Round.allocate(inp))
        return
    head = inp.noisy[0, : CLIP // 8]
    hop = inp.spec.hop or len(head)
    session = engine.StreamSession(inp.weights, inp.spec.config)
    for i in range(0, len(head), hop):
        session.push_samples(head[i : i + hop])
        session.pull_output()
    engine.enhance_offline(head, inp.weights, inp.spec.config)


def peak_mib(inp: Inputs) -> float:
    """tracemalloc peak of one round; its buffers exist before tracing starts."""
    r = Round.allocate(inp)
    run = round_runner(inp)
    tracemalloc.start()
    try:
        run(r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20
