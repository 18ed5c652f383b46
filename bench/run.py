"""Benchmark of slowfast-se: streaming and training speed.

    python3 bench/run.py --workload stream_2ms_d3 --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics from a traced pass with
``--trace 1``. Every metric is also printed on its own line with its unit.
The exit code is 1 when an output check fails and 2 when the package cannot
be imported from the checkout. See README.md for the workloads and metrics.
"""

from __future__ import annotations

import os

# one BLAS thread: per-frame products are far below any threading threshold,
# and a second thread made no training step faster on two cores
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 3           # set-ups before and again after the measured part,
SETUP_S = 0.5        # at least this many and this long each time
OUT_DIR = HERE / "out"
TRACE_PAIRS = 2      # untraced and traced passes in a --trace 1 run


def import_package() -> None:
    """Import slowfast_se from ROOT/src, or exit 2 without a result."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import slowfast_se
    except ImportError as exc:
        print(f"cannot import slowfast_se from {ROOT / 'src'}: {exc}", file=sys.stderr)
        sys.exit(2)
    origin = Path(slowfast_se.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        print(f"slowfast_se was imported from {origin}, not from {ROOT / 'src'}", file=sys.stderr)
        sys.exit(2)


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def set_up(spec, seed: int) -> list:
    """At least SETUPS set-ups taking SETUP_S seconds; returns their Inputs."""
    from workloads import setup, use_cpu

    runs = []
    t_end = time.perf_counter() + SETUP_S
    try:
        while len(runs) < SETUPS or time.perf_counter() < t_end:
            use_cpu(len(runs))
            runs.append(setup(spec, seed))
    finally:
        use_cpu(None)
    return runs


def setup_metrics(runs, trace: bool) -> dict:
    if trace:
        return {
            "setup.data_s": metric(np.median([r.data_s for r in runs]), "s"),
            "setup.weights_s": metric(np.median([r.weights_s for r in runs]), "s"),
        }
    return {"setup_s": metric(np.median([r.data_s + r.weights_s for r in runs]), "s")}


def check_round(inp, r, same: bool, seed: int) -> list[str]:
    import checks

    spec = inp.spec
    fails = [] if same else ["a later round's output differs from the first round's"]
    if spec.kind == "train":
        return fails + checks.check_training(inp, r.losses, len(inp.batches()), seed)
    x = inp.stream
    fails += checks.check_stream(x, r.out, r.stats, inp.weights, spec.config)
    return fails + checks.check_causality(x, inp.weights, spec.config, seed)


def end_to_end(inp, seconds: float):
    """Timed rounds without tracing, then a tracemalloc pass; returns
    (metrics, attempted, round, same)."""
    from workloads import peak_mib, run_rounds, warm_up

    spec = inp.spec
    warm_up(inp)
    r, same = run_rounds(inp, seconds, spec.min_rounds)
    lat_us = r.lat * 1e6
    if spec.kind == "stream":
        # medians over windows of WINDOW pushes: a stall of the machine
        # spoils a few windows, not the figure
        windows = lat_us.reshape(len(r.units), -1)
        p50 = np.median(np.median(windows, axis=1))
        p99 = np.median(np.percentile(windows, 99, axis=1))
    else:
        p50, p99 = np.median(lat_us), np.percentile(lat_us, 99)
    metrics = {
        # a unit is a window of WINDOW pushes or a training step
        "audio_s_per_s": metric(spec.audio_per_unit_s / np.median(r.units), "s/s"),
        "push_p50_us": metric(p50, "us"),
        "push_p99_us": metric(p99, "us"),
        "peak_mib": metric(peak_mib(inp), "MiB"),
    }
    return metrics, len(r.lat), r, same


def per_layer(inp, seed: int):
    """Untraced and traced passes of the same rounds, TRACE_PAIRS of each in
    turn; returns (metrics, attempted, last traced round, failures).

    The per-layer figures come from the last traced pass; the tracing
    overhead compares the fastest pass of each kind.
    """
    import contextlib

    from checks import frame_counts
    from tracing import Tracer
    from workloads import run_rounds, warm_up
    from slowfast_se import eval_bench

    spec = inp.spec
    rounds = spec.min_rounds
    warm_up(inp)
    seconds = {False: [], True: []}
    for _ in range(TRACE_PAIRS):
        for traced_pass in (False, True):
            pass_tracer = Tracer()
            with pass_tracer.install() if traced_pass else contextlib.nullcontext():
                t0 = time.perf_counter()
                r, same = run_rounds(inp, 0, rounds)
                seconds[traced_pass].append(time.perf_counter() - t0)
            if traced_pass:
                traced, tracer = r, pass_tracer
            else:
                plain = r
    plain_s, traced_s = min(seconds[False]), min(seconds[True])
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{spec.name}-seed{seed}.csv")

    fails = [] if same else ["traced rounds differ from each other"]
    if not np.array_equal(traced.out, plain.out) or traced.losses != plain.losses:
        fails.append("traced pass output differs from the untraced pass")

    t = tracer.totals()

    def get(name, key="total_s"):
        return t.get(name, {}).get(key, 0)

    audio_s = spec.audio_per_unit_s * len(plain.units)
    plain_rate = audio_s / plain_s
    slow_frames, fast_frames = get("slow.forward", "calls"), get("fast.step", "calls")
    steps = get("train.backward", "calls")
    if spec.kind == "train":
        want = {"train.steps": rounds * len(inp.batches()), "slow.frames": 0, "fast.frames": 0}
    else:
        fast, slow = frame_counts(len(inp.stream), spec.config)
        want = {"train.steps": 0, "slow.frames": slow, "fast.frames": fast}
    got = {"train.steps": steps, "slow.frames": slow_frames, "fast.frames": fast_frames}
    want["slow.gru_calls"] = want["slow.frames"] * spec.config.gru_layers
    got["slow.gru_calls"] = get("slow.gru", "calls")
    for name in want:
        if got[name] != want[name]:
            fails.append(f"traced {name} = {got[name]}, schedule says {want[name]}")

    model = eval_bench.mac_count(spec.config).total_m_macs_per_s
    s, c = "s", "count"
    metrics = {
        "engine.push_calls": metric(get("engine.push", "calls"), c),
        "engine.push_s": metric(get("engine.push"), s),
        "engine.pull_s": metric(get("engine.pull"), s),
        "engine.close_s": metric(get("engine.close"), s),
        "engine.push_self_s": metric(get("engine.push", "self_s"), s),
        "slow.frames": metric(slow_frames, c),
        "slow.forward_s": metric(get("slow.forward"), s),
        "slow.us_per_frame": metric(get("slow.forward") / max(slow_frames, 1) * 1e6, "us"),
        "slow.gru_calls": metric(get("slow.gru", "calls"), c),
        "slow.gru_s": metric(get("slow.gru"), s),
        "slow.head_s": metric(get("slow.head"), s),
        "slow.self_s": metric(get("slow.forward", "self_s"), s),
        "fast.frames": metric(fast_frames, c),
        "fast.step_s": metric(get("fast.step"), s),
        "fast.us_per_frame": metric(get("fast.step") / max(fast_frames, 1) * 1e6, "us"),
        "macs.model_m_per_s": metric(model, "MMAC/s"),
        "macs.achieved_m_per_s": metric(model * plain_rate, "MMAC/s"),
        "train.steps": metric(steps, c),
        "train.step_s": metric(get("train.backward") + get("train.clip") + get("train.adam"), s),
        "train.forward_s": metric(get("train.forward"), s),
        "train.loss_s": metric(get("train.loss"), s),
        "train.backward_self_s": metric(get("train.backward", "self_s"), s),
        "train.clip_s": metric(get("train.clip"), s),
        "train.adam_s": metric(get("train.adam"), s),
        "trace.audio_s_per_s": metric(audio_s / traced_s, "s/s"),
        "trace.overhead_pct": metric(100.0 * (1.0 - plain_s / traced_s), "%"),
    }
    return metrics, len(traced.lat), traced, fails


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_package()
    sys.path.insert(0, str(HERE))
    from workloads import SPECS

    if args.workload not in SPECS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(SPECS)}")
    spec = SPECS[args.workload]
    runs = set_up(spec, args.seed)
    inp = runs[-1]
    if args.trace:
        metrics, attempted, r, fails = per_layer(inp, args.seed)
        same = True
    else:
        metrics, attempted, r, same = end_to_end(inp, args.seconds)
        fails = []
    # set up again a run's length later, so setup_s sees two machine states
    runs += set_up(spec, args.seed)
    metrics.update(setup_metrics(runs, bool(args.trace)))
    fails += check_round(inp, r, same, args.seed)

    for fail in fails:
        print(f"CHECK FAILED: {fail}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name:24s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not fails, "attempted": attempted, "failed": 0,
                      "metrics": metrics}))
    return 1 if fails else 0


if __name__ == "__main__":
    sys.exit(main())
