"""In-process A/B of a training step: a parent tree against this tree.

    python3 scripts/step_ab.py --parent ../parent --steps 15

Two benchmark runs in separate processes differ by several percent with
heap state alone, which hides a change of a few percent in a step's time.
This script runs both trees in one process: it imports the parent tree's
package under a private name, ``_parent_slowfast_se``, beside this tree's
``slowfast_se``, and builds each tree's trainer with that tree's own code on
the same batch and start: ``CLIPS`` (16) one-second synthetic clips at
``two_ms_config(3)``, from ``passthrough_start`` at seed 0. A step is what
the benchmark's trainer runs: ``backward`` under the stage-1 loss weights,
``clip_gradients`` and one Adam step. Each tree runs one warm-up step, then
the trees take turns, ``--steps`` counted steps each, the parent first in
even pairs and this tree first in odd ones. The process runs one BLAS
thread, pinned to one CPU.

Prints each tree's median step ms and the median over pairs of this tree's
step time over the parent's: below 1 when this tree is faster.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import importlib.util
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE / "src"))

import slowfast_se  # noqa: E402

PARENT = "_parent_slowfast_se"
CLIPS = 16  # one-second clips per batch, as in the benchmark's training steps


def import_tree(src: Path, name: str):
    """The ``slowfast_se`` package under ``src``, imported as ``name``; its
    modules import one another relatively, so they all load from ``src``."""
    package = src / "slowfast_se"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def trainer(package: str, batch):
    """A callable that runs one training step of ``package`` on ``batch``
    from its own ``passthrough_start``, and returns the step's loss."""
    engine = importlib.import_module(f"{package}.engine")
    loop = importlib.import_module(f"{package}.training.loop")
    backprop = importlib.import_module(f"{package}.training.backprop")
    config = engine.two_ms_config(3)
    weights = loop.passthrough_start(config, seed=0)
    optimizer = loop.AdamOptimizer(weights)
    schedule = loop.TrainSchedule()

    def step() -> float:
        loss, grads = backprop.backward(batch, weights, config,
                                        schedule.stage1_weights, schedule.stft)
        loop.clip_gradients(grads, schedule.grad_clip)
        optimizer.step(weights, grads, schedule.lr_stage1)
        return loss

    return step


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    ap.add_argument("--steps", type=int, default=15, help="counted steps per tree")
    args = ap.parse_args(argv)
    if args.steps < 1:
        ap.error("--steps must be at least 1")
    if not (args.parent / "src" / "slowfast_se" / "__init__.py").is_file():
        ap.error(f"{args.parent} holds no src/slowfast_se package")
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    parent = import_tree(args.parent.resolve() / "src", PARENT)

    from slowfast_se.training import data

    snrs = data.TRAIN_SNRS_DB
    batch = data.make_batch(list(range(CLIPS)), [snrs[i % len(snrs)] for i in range(CLIPS)])
    steps = {"parent": trainer(PARENT, batch), "change": trainer("slowfast_se", batch)}
    losses = {side: step() for side, step in steps.items()}  # warm-up
    times = {side: [] for side in steps}
    for k in range(args.steps):
        for side in (("parent", "change") if k % 2 == 0 else ("change", "parent")):
            t0 = time.perf_counter()
            steps[side]()
            times[side].append(time.perf_counter() - t0)
    ratio = float(np.median(np.divide(times["change"], times["parent"])))
    print(f"parent: {Path(parent.__file__).parent}")
    print(f"change: {Path(slowfast_se.__file__).parent}")
    print(f"run: 2ms-d3, {CLIPS} clips, {args.steps} alternating steps per tree, "
          "one BLAS thread on one CPU")
    print(f"first-step loss: parent {losses['parent']!r}, change {losses['change']!r}")
    for side, values in times.items():
        print(f"{side} median step ms: {1e3 * np.median(values):.1f}")
    print(f"median per-step ratio change/parent: {ratio:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
