"""Where a training step's time, page faults and memory go, phase by phase,
at two presets.

    python3 scripts/step_split.py --steps 9

Runs ssmm training steps as the benchmark's trainer does (``backward`` under
the stage-1 loss weights, ``clip_gradients``, one Adam step) from
``passthrough_start``, on a batch of ``CLIPS`` (16) one-second synthetic
clips, at ``two_ms_config(3)`` and at ``sample_level_config()``. The process
is pinned to one CPU and runs one BLAS thread. The first step of each
preset warms up and is not counted, then the counted steps run untraced,
then one more step runs under tracemalloc.

Every phase is metered by a wrapper around the function that runs it:

* trunk fwd:  ``backprop._trunk_forward``, fc_in and the GRU wavefront;
* rest fwd:   the rest of ``backprop.forward_batch``;
* loss:       ``backprop.total_loss_grad``;
* adjoint:    the variant row's ``adjoint`` in ``fast_branch.VARIANTS``;
* trunk bwd:  ``backprop._trunk_backward``;
* rest:       the rest of the step: framing of the loss gradient, the other
  weight gradients, clipping and Adam.

The first table gives each phase's wall ms and ``getrusage``'s minor page
faults, the median over the counted steps. Its step columns give the whole
step's wall ms, minor faults, and system (kernel) ms. A minor fault is a
page the kernel maps when fresh memory is first written, so faults count
the memory a step takes anew, 4 KiB each.

The second table comes from the traced step. tracemalloc traces that step
only, so it counts the memory the step takes anew, as the benchmark's
``peak_mib`` does. Each wrapper reads tracemalloc's live and peak memory at
the phase's boundaries and resets the peak, so each cell gives the live MiB
at the phase's last boundary (for rest, the end of the step) and the peak
MiB while the phase ran. The last column is the step's peak.

The third table gives, per preset, tracemalloc's peak MiB over one
``loop.evaluate_sisnr`` call on the same clips and start, the pass that
scores a model once per epoch in ``train`` and in ``compare``. A warm-up call
runs first, untraced. It runs before the phase wrappers go in, since they
reset tracemalloc's peak at every boundary.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import resource
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from slowfast_se import fast_branch  # noqa: E402
from slowfast_se.engine import sample_level_config, two_ms_config  # noqa: E402
from slowfast_se.training import backprop, data, loop  # noqa: E402

PHASES = ("trunk fwd", "rest fwd", "loss", "adjoint", "trunk bwd", "rest")
PRESETS = {"2ms-d3": two_ms_config(3), "sample": sample_level_config()}
CLIPS = 16  # one-second clips per batch, as in the benchmark's training steps
MIB = 2**20


def _usage() -> tuple[float, int, float]:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return time.perf_counter(), ru.ru_minflt, ru.ru_stime


class Meter:
    """Per phase since the last reset: wall seconds and minor faults, summed,
    and tracemalloc's live MiB at the phase's last boundary and peak MiB
    within it (zero while tracemalloc is not tracing)."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.wall = dict.fromkeys(PHASES, 0.0)
        self.faults = dict.fromkeys(PHASES, 0)
        self.live = dict.fromkeys(PHASES, 0.0)
        self.peak = dict.fromkeys(PHASES, 0.0)
        self._open = ["rest"]  # the phase that runs outside every wrapper

    def boundary(self) -> None:
        """Book the memory since the last boundary to the open phase."""
        live, peak = tracemalloc.get_traced_memory()
        phase = self._open[-1]
        self.live[phase] = live / MIB
        self.peak[phase] = max(self.peak[phase], peak / MIB)
        tracemalloc.reset_peak()

    def wrap(self, phase: str, fn):
        def metered(*args, **kwargs):
            self.boundary()
            self._open.append(phase)
            t0, f0, _ = _usage()
            try:
                return fn(*args, **kwargs)
            finally:
                t1, f1, _ = _usage()
                self.wall[phase] += t1 - t0
                self.faults[phase] += f1 - f0
                self.boundary()
                self._open.pop()
        return metered


def install(meter: Meter) -> None:
    """Meter each phase through wrappers on the functions the step calls.

    ``forward_batch``'s wrapper books its whole time under "rest fwd", so the
    trunk forward, booked on its own, is taken out of it in ``measure``.
    """
    backprop._trunk_forward = meter.wrap("trunk fwd", backprop._trunk_forward)
    backprop._trunk_backward = meter.wrap("trunk bwd", backprop._trunk_backward)
    backprop.total_loss_grad = meter.wrap("loss", backprop.total_loss_grad)
    backprop.forward_batch = meter.wrap("rest fwd", backprop.forward_batch)
    for name, row in fast_branch.VARIANTS.items():
        fast_branch.VARIANTS[name] = row._replace(adjoint=meter.wrap("adjoint", row.adjoint))


def start(config):
    """The batch of ``CLIPS`` clips and the ``passthrough_start`` weights
    that every measurement of a preset runs on."""
    snrs = data.TRAIN_SNRS_DB
    batch = data.make_batch(list(range(CLIPS)), [snrs[i % len(snrs)] for i in range(CLIPS)])
    return batch, loop.passthrough_start(config, seed=0)


def eval_peak(config) -> float:
    """tracemalloc's peak MiB over one ``loop.evaluate_sisnr`` call, after
    an untraced warm-up call."""
    (noisy, clean), weights = start(config)
    loop.evaluate_sisnr(weights, config, noisy, clean)
    tracemalloc.start()
    try:
        loop.evaluate_sisnr(weights, config, noisy, clean)
        return tracemalloc.get_traced_memory()[1] / MIB
    finally:
        tracemalloc.stop()


def trainer(config):
    """A callable that runs one training step, as the benchmark's trainer
    does, on ``start``'s batch and weights, and returns its gradients. Like
    that trainer, callers keep them until the next step returns, since
    which step's arrays the heap reuses, and so the page faults, depend
    on it."""
    batch, weights = start(config)
    optimizer = loop.AdamOptimizer(weights)
    schedule = loop.TrainSchedule()

    def step() -> backprop.GradientSet:
        _, grads = backprop.backward(batch, weights, config,
                                     schedule.stage1_weights, schedule.stft)
        loop.clip_gradients(grads, schedule.grad_clip)
        optimizer.step(weights, grads, schedule.lr_stage1)
        return grads

    return step


def measure(config, steps: int, meter: Meter) -> dict:
    """Medians over ``steps`` counted steps of each phase's ms and faults,
    and each phase's live and peak MiB in one more step, traced."""
    step = trainer(config)
    rows = []
    for k in range(steps + 1):
        meter.reset()
        t0, f0, s0 = _usage()
        grads = step()  # noqa: F841, kept until the next step returns
        t1, f1, s1 = _usage()
        wall, faults = dict(meter.wall), dict(meter.faults)
        wall["rest fwd"] -= wall["trunk fwd"]
        faults["rest fwd"] -= faults["trunk fwd"]
        wall["rest"] = (t1 - t0) - sum(wall[p] for p in PHASES[:-1])
        faults["rest"] = (f1 - f0) - sum(faults[p] for p in PHASES[:-1])
        if k:  # the first step warms up
            rows.append({"ms": {p: 1e3 * wall[p] for p in PHASES},
                         "faults": {p: faults[p] for p in PHASES},
                         "step_ms": 1e3 * (t1 - t0), "step_faults": f1 - f0,
                         "sys_ms": 1e3 * (s1 - s0)})
    meter.reset()
    tracemalloc.start()
    try:
        step()
        meter.boundary()
    finally:
        tracemalloc.stop()
    return {
        "ms": {p: float(np.median([r["ms"][p] for r in rows])) for p in PHASES},
        "faults": {p: float(np.median([r["faults"][p] for r in rows])) for p in PHASES},
        **{key: float(np.median([r[key] for r in rows]))
           for key in ("step_ms", "step_faults", "sys_ms")},
        "live": dict(meter.live), "peak": dict(meter.peak),
    }


def report(name: str, result: dict) -> tuple[str, str]:
    """The preset's row of the time table and of the memory table."""
    cells = [f"{result['ms'][p]:.1f} / {result['faults'][p]:.0f}" for p in PHASES]
    step = (f"{result['step_ms']:.1f} / {result['step_faults']:.0f} / "
            f"{result['sys_ms']:.1f}")
    memory = [f"{result['live'][p]:.1f} / {result['peak'][p]:.1f}" for p in PHASES]
    peak = f"{max(result['peak'].values()):.1f}"
    return ("| " + " | ".join([name, *cells, step]) + " |",
            "| " + " | ".join([name, *memory, peak]) + " |")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--steps", type=int, default=9, help="counted steps per preset")
    args = ap.parse_args(argv)
    if args.steps < 1:
        ap.error("--steps must be at least 1")
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    eval_peaks = {name: eval_peak(config) for name, config in PRESETS.items()}
    meter = Meter()
    install(meter)
    rows = [report(name, measure(config, args.steps, meter))
            for name, config in PRESETS.items()]
    print(f"ssmm, {CLIPS} clips, median of {args.steps} steps; "
          "each cell is wall ms / minor faults")
    print("| preset | " + " | ".join(PHASES) + " | step ms / faults / sys ms |")
    print("|---" * (len(PHASES) + 2) + "|")
    print("\n".join(time_row for time_row, _ in rows))
    print(f"\nssmm, {CLIPS} clips, one more step traced; "
          "each cell is live / peak MiB (tracemalloc)")
    print("| preset | " + " | ".join(PHASES) + " | step peak MiB |")
    print("|---" * (len(PHASES) + 2) + "|")
    print("\n".join(memory_row for _, memory_row in rows))
    print(f"\nloop.evaluate_sisnr, {CLIPS} clips, one call traced after a warm-up call")
    print("| preset | peak MiB |")
    print("|---|---|")
    print("\n".join(f"| {name} | {peak:.1f} |" for name, peak in eval_peaks.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
