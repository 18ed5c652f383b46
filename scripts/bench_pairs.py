"""Alternating A/B pairs of the benchmark: a parent tree against this tree.

    python3 scripts/bench_pairs.py --parent ../parent --pairs 10 \
        --seconds 45 --workload stream_2ms_d3 --workload train_2ms_d3 \
        --out BENCH_<n>.json

Each pair runs ``bench/run.py --trace 0`` once in the parent tree and once in
this tree, on the same seed (first seed, first seed + 1, ...), taking turns
on which side runs first. The benchmark code that runs is each tree's own,
so the parent tree should be a checkout of the commit this tree builds on
(``git clone`` or ``git archive`` of it). The two trees' absolute paths must
be of equal length, such as ../parent and ../change; the script exits 2
otherwise. With a 10- and a 20-character path on the reference machine, the
training workload's set-up, which runs no changed code, read 14% slower on
one side over ten pairs; presumably the path, which is in sys.path and every
module's file name, shifts the memory layout.

The output file records each tree's commit and a sha256 over its
``src/**/*.py``, which also identifies a tree copied without ``.git``. It
has, per workload and per end-to-end metric named in BENCHMARK.json, both
sides' median and quartiles, every run's value, the number of pairs the
change won (ties count for neither side), the ratio of the medians, whether
the change stayed within the metric's bound, and whether a gain holds: the
change wins at least nine tenths of the pairs and the medians differ by more
than the parent's interquartile distance. A metric is unresolved when the
parent's interquartile distance is wider than the bound times the parent's
median and not every change run beats every parent run: its runs spread too
widely for the bound to tell a change from the noise, such as a bimodal
set-up time. Runs that fail their checks are listed and left out of the
figures. Each pair's entry under ``runs`` gives both sides' wall seconds,
and the minor page faults and kernel seconds that
``getrusage(RUSAGE_CHILDREN)`` counts for each run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent.parent


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``tree``: its exit, wall seconds, metrics, and
    the minor page faults and kernel seconds of the run's process tree."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "metrics": {}}
    ok = proc.returncode == 0 and result.get("correct") is True
    return {"ok": ok, "exit": proc.returncode, "wall_s": round(wall, 1),
            "minflt": after.ru_minflt - before.ru_minflt,
            "sys_s": round(after.ru_stime - before.ru_stime, 3),
            "metrics": {k: v["value"] for k, v in result.get("metrics", {}).items()},
            "stderr": proc.stderr.strip()[-500:] if not ok else ""}


def quartiles(values: list[float]) -> dict:
    q1, med, q3 = np.percentile(values, [25, 50, 75]) if values else (np.nan,) * 3
    return {"median": float(med), "q1": float(q1), "q3": float(q3)}


def summarize(spec: dict, pairs: list[dict]) -> dict:
    """Per-metric figures over the pairs where both runs passed."""
    good = [p for p in pairs if p["parent"]["ok"] and p["change"]["ok"]]
    out = {}
    for m in spec["end_to_end"]:
        name, lower = m["name"], m["better"] == "lower"
        par = [p["parent"]["metrics"][name] for p in good]
        chg = [p["change"]["metrics"][name] for p in good]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(par, chg))
        losses = sum((c > p) if lower else (c < p) for p, c in zip(par, chg))
        a, b = quartiles(par), quartiles(chg)
        worse = (b["median"] - a["median"]) if lower else (a["median"] - b["median"])
        beats_all = bool(good) and (max(chg) < min(par) if lower else min(chg) > max(par))
        out[name] = {
            "unit": m["unit"], "better": m["better"], "bound": m["bound"],
            "parent": a, "change": b,
            "ratio": b["median"] / a["median"] if a["median"] else None,
            "change_wins": wins, "change_losses": losses, "pairs": len(good),
            "within_bound": bool(worse <= m["bound"] * abs(a["median"])),
            "gain_holds": bool(good and wins >= 0.9 * len(good) and -worse > a["q3"] - a["q1"]),
            "unresolved": bool(a["q3"] - a["q1"] > m["bound"] * abs(a["median"])
                               and not beats_all),
            "parent_runs": par, "change_runs": chg,
        }
    return out


def run_entries(pairs: list[dict]) -> list[dict]:
    """Per pair: its seed, which side ran first, and each side's wall
    seconds, minor page faults and kernel seconds. An allocator that hands
    memory back to the kernel and takes it again shows as faults and kernel
    time that the metrics do not name."""
    return [{"seed": p["seed"], "first": p["first"],
             **{f"{side}_{key}": p[side][key] for side in ("parent", "change")
                for key in ("wall_s", "minflt", "sys_s")}} for p in pairs]


def git_head(tree: Path) -> str | None:
    """HEAD of the tree's checkout, with "+changes" if its tracked files differ."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=tree, capture_output=True, text=True).stdout
    head = git("rev-parse", "HEAD").strip()
    changed = git("status", "--porcelain", "--untracked-files=no")
    return (head + ("+changes" if changed else "")) or None


def src_digest(tree: Path) -> str:
    """sha256 over the tree's src/**/*.py, each file's relative path then its
    bytes, in path order: it names the code measured even where git cannot."""
    digest = hashlib.sha256()
    for path in sorted((tree / "src").rglob("*.py")):
        digest.update(path.relative_to(tree).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=None,
                    help="run length per run (default: BENCHMARK.json's run_seconds)")
    ap.add_argument("--workload", action="append", default=None,
                    help="repeatable; default: every workload in BENCHMARK.json")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", required=True, type=Path,
                    help="BENCH_<n>.json, one file per measured change")
    args = ap.parse_args(argv)

    spec = json.loads((HERE / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    workloads = args.workload or names
    unknown = set(workloads) - set(names)
    if unknown or args.pairs < 1:
        ap.error(f"unknown workloads {sorted(unknown)}" if unknown else "--pairs must be >= 1")
    parent = args.parent.resolve()
    if not (parent / "bench" / "run.py").is_file():
        ap.error(f"{parent} has no bench/run.py")
    if len(str(parent)) != len(str(HERE)):
        ap.error(f"the parent tree's path {parent} ({len(str(parent))} characters) and this "
                 f"tree's {HERE} ({len(str(HERE))}) differ in length, which moves the "
                 "figures; use paths of equal length, such as ../parent and ../change")
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    report = {
        "command": " ".join(["python3", "scripts/bench_pairs.py",
                             *(sys.argv[1:] if argv is None else argv)]),
        "machine": {"platform": platform.platform(), "python": platform.python_version(),
                    "numpy": np.__version__, "cpus": len(os.sched_getaffinity(0))},
        "parent_commit": git_head(parent), "change_commit": git_head(HERE),
        "parent_src_sha256": src_digest(parent), "change_src_sha256": src_digest(HERE),
        "pairs": args.pairs, "seconds": seconds, "workloads": {},
    }
    for workload in workloads:
        pairs = []
        for k in range(args.pairs):
            seed = args.first_seed + k
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(parent if side == "parent" else HERE, workload, seed, seconds)
                status = "ok" if pair[side]["ok"] else f"FAILED (exit {pair[side]['exit']})"
                print(f"{workload} pair {k + 1}/{args.pairs} seed {seed} {side}: {status}",
                      file=sys.stderr, flush=True)
            pairs.append(pair)
        metrics = summarize(spec, pairs)
        report["workloads"][workload] = {
            "metrics": metrics,
            "failed_runs": [{"seed": p["seed"], "side": s, "exit": p[s]["exit"],
                             "stderr": p[s]["stderr"]}
                            for p in pairs for s in ("parent", "change") if not p[s]["ok"]],
            "runs": run_entries(pairs),
        }
        for name, m in metrics.items():
            verdict = (", unresolved" if m["unresolved"]
                       else "" if m["within_bound"] else ", WORSE THAN BOUND")
            print(f"{workload:14s} {name:14s} parent {m['parent']['median']:.6g} -> change "
                  f"{m['change']['median']:.6g} {m['unit']}, "
                  f"change won {m['change_wins']}/{m['pairs']}"
                  f"{', gain holds' if m['gain_holds'] else ''}"
                  f"{verdict}")
        args.out.write_text(json.dumps(report, indent=1) + "\n")  # after each workload
    return 0 if all(not w["failed_runs"] for w in report["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
