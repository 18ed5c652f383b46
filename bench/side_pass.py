"""Reference figures for README.md, measured apart from the timed runs.

    python3 bench/side_pass.py

Prints the machine (cores, BLAS, numpy, Python), and per preset the MAC
model against the achieved MACs/s of ``enhance_offline``, and the wall ratio
of the dual-rate network to ``single_branch_forward`` next to the MAC ratio.
Each time is the fastest of REPEATS alternating passes.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import platform
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from slowfast_se import engine, eval_bench
from slowfast_se.training import data, loop

REPEATS = 3


def machine() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"{os.cpu_count()} cores ({platform.processor() or platform.machine()}), "
            f"BLAS {blas.get('name')} {blas.get('version')} on 1 thread, "
            f"numpy {np.__version__}, Python {platform.python_version()}")


def seconds(fn, x) -> float:
    t0 = time.perf_counter()
    fn(x)
    return time.perf_counter() - t0


def main() -> None:
    print(machine())
    print("| preset | model MMAC/s | achieved MMAC/s | MAC ratio | wall ratio |")
    print("|---|---|---|---|---|")
    for name, config, clips in (("2ms-d3", engine.two_ms_config(3), 2),
                                ("sample-level", engine.sample_level_config(), 1)):
        x = np.concatenate([data.make_synthetic_pair(i, 5.0 * (i % 4))[0] for i in range(clips)])
        dual_w = loop.passthrough_start(config, seed=0)
        single_w = engine.init_single_branch_weights(config, seed=0)
        dual, single = [], []
        for _ in range(REPEATS):
            dual.append(seconds(lambda s: engine.enhance_offline(s, dual_w, config), x))
            single.append(seconds(lambda s: engine.single_branch_forward(s, single_w, config), x))
        model = eval_bench.mac_count(config).total_m_macs_per_s
        baseline = eval_bench.single_branch_mac_count(config).total_m_macs_per_s
        achieved = model * clips / min(dual)
        print(f"| {name} | {model:.1f} | {achieved:.1f} | {model / baseline:.3f} "
              f"| {min(dual) / min(single):.3f} |")


if __name__ == "__main__":
    main()
