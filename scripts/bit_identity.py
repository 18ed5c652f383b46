"""Bit-for-bit comparison of this tree's numbers against a parent tree.

    python3 scripts/bit_identity.py --parent ../parent

For a refactor that must not change a single bit. Each tree computes the
same fixed matrix with its own ``src`` in a subprocess of its own, and the
arrays are compared as int64 views, so -0.0 against +0.0 and any NaN payload
count as differences. Prints ``N of N arrays equal`` and exits 0, or lists
the arrays that differ and exits 1. Each ``DIFF`` line gives the largest
absolute gap and that gap relative to the parent array's largest magnitude,
and the last line names the largest relative gap, so a change that moves
rounding on purpose reports by how much.

The matrix is variant (ssmm, film, ec) x geometry (2 ms reuse 3, sample
level, and l_f=8/delta_f=3/reuse=2/l_s=11, whose slow frame starts left of
the first fast frame) x start weights (``passthrough_start`` and
``init_model_weights``, seed 1). Per cell it records the start's own named
arrays, the bytes of its saved ``.sfse`` file and the named arrays
``load_model`` reads back from it, ``enhance_offline`` of one clip, the same
clip streamed in seeded random chunks of 0-333 samples, ``forward_batch`` of
a two-clip batch, and ``backward``'s loss and every gradient under both of
``TrainSchedule()``'s loss weightings, and, with the clip as the target and
its ``enhance_offline`` output as the estimate, ``losses.total_loss`` under
both weightings and ``losses.sisnr``. Per variant and geometry it also
records ``init_single_branch_weights(seed=1)``'s arrays,
``single_branch_forward`` of the clip, and the per-frame MACs and M MACs/s
of ``mac_count`` and ``single_branch_mac_count``.

Short batches cover the edges of the training GRU stack's wavefront, where
fewer slow frames than layers run: per variant, the 2 ms reuse 3 geometry
at 1 and 4 GRU layers (``init_model_weights``, seed 1), and two-clip
batches of the longest clips with J = 0 slow frames and with each
1 <= J < layers. Per batch it records ``forward_batch`` and ``backward``'s
loss and gradients under both weightings, with a 16-point STFT of hop 8 so
that the short clips fit.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent.parent
CLIP = 1200
CHUNK_MAX = 333
SHORT_LAYERS = (1, 4)


def compute(tree: Path, model_file: Path) -> dict[str, np.ndarray]:
    """Every array of the matrix, computed with ``tree``'s own package;
    ``model_file`` is where the model files are saved and read back."""
    sys.path.insert(0, str(tree / "src"))
    from slowfast_se import engine, eval_bench
    from slowfast_se.persistence import load_model, save_model
    from slowfast_se.training import backward, forward_batch, losses
    from slowfast_se.training.loop import TrainSchedule, passthrough_start

    src = Path(engine.__file__).resolve().parent.parent
    if src != (tree / "src").resolve():
        raise RuntimeError(f"imported slowfast_se from {src}, not from {tree / 'src'}")

    geometries = {
        "2ms-d3": lambda v: engine.two_ms_config(3, v),
        "sample": engine.sample_level_config,
        "lf8-df3-r2-ls11": lambda v: engine.SlowFastConfig(v, l_f=8, delta_f=3, reuse=2, h=6, l_s=11),
    }
    starts = {
        "passthrough": lambda cfg: passthrough_start(cfg, seed=1),
        "init": lambda cfg: engine.init_model_weights(cfg, seed=1),
    }
    schedule = TrainSchedule()
    weightings = {"stage1": schedule.stage1_weights, "stage2": schedule.stage2_weights}

    rng = np.random.default_rng(0)
    clip = rng.standard_normal(CLIP) * 0.3
    noisy = rng.standard_normal((2, CLIP)) * 0.3
    clean = noisy * 0.5 + rng.standard_normal((2, CLIP)) * 0.05

    out: dict[str, np.ndarray] = {}
    for variant in ("ssmm", "film", "ec"):
        for geo, make_config in geometries.items():
            cfg = make_config(variant)
            for start, make_weights in starts.items():
                cell = f"{variant}/{geo}/{start}"
                w = make_weights(cfg)
                for key, arr in engine.named_arrays(w):
                    out[f"{cell}/weights/{key}"] = arr
                save_model(w, cfg, model_file)
                out[f"{cell}/sfse_bytes"] = np.frombuffer(model_file.read_bytes(), np.uint8)
                for key, arr in engine.named_arrays(load_model(model_file)[0]):
                    out[f"{cell}/loaded/{key}"] = arr
                enhanced = engine.enhance_offline(clip, w, cfg).samples
                out[f"{cell}/enhance_offline"] = enhanced
                for name, lw in weightings.items():
                    out[f"{cell}/{name}/total_loss"] = np.float64(
                        losses.total_loss(enhanced, clip, lw, schedule.stft))
                out[f"{cell}/sisnr"] = np.float64(losses.sisnr(enhanced, clip))

                session = engine.StreamSession(w, cfg)
                chunks = np.random.default_rng(1)
                pieces, at = [], 0
                while at < CLIP:
                    step = int(chunks.integers(0, CHUNK_MAX + 1))
                    session.push_samples(clip[at : at + step])
                    pieces.append(session.pull_output())
                    at += step
                session.close()
                pieces.append(session.pull_output())
                out[f"{cell}/stream"] = np.concatenate(pieces)

                out[f"{cell}/forward_batch"] = forward_batch(noisy, w, cfg)[0]
                for name, lw in weightings.items():
                    loss, grads = backward((noisy, clean), w, cfg, lw, schedule.stft)
                    out[f"{cell}/{name}/loss"] = np.float64(loss)
                    for key, g in grads.items():
                        out[f"{cell}/{name}/grad/{key}"] = g

            trunk = engine.init_single_branch_weights(cfg, seed=1)
            cell = f"{variant}/{geo}/single_branch"
            for key, arr in engine.named_arrays(trunk):
                out[f"{cell}/weights/{key}"] = arr
            out[f"{cell}/forward"] = engine.single_branch_forward(clip, trunk, cfg).samples
            for name, report in (("macs", eval_bench.mac_count(cfg)),
                                 ("single_branch_macs", eval_bench.single_branch_mac_count(cfg))):
                out[f"{variant}/{geo}/{name}"] = np.array([
                    report.slow_macs_per_frame, report.fast_macs_per_frame,
                    report.total_m_macs_per_s], dtype=np.float64)

        for layers in SHORT_LAYERS:
            cfg = engine.SlowFastConfig(variant, l_f=32, delta_f=16, reuse=3, h=32,
                                        gru_layers=layers)
            w = engine.init_model_weights(cfg, seed=1)
            for n_slow in range(layers):
                n = longest_clip(cfg, n_slow)
                draw = np.random.default_rng(n_slow)
                noisy_short = draw.standard_normal((2, n)) * 0.3
                clean_short = noisy_short * 0.5 + draw.standard_normal((2, n)) * 0.05
                cell = f"{variant}/short-L{layers}-J{n_slow}"
                out[f"{cell}/forward_batch"] = forward_batch(noisy_short, w, cfg)[0]
                for name, lw in weightings.items():
                    loss, grads = backward((noisy_short, clean_short), w, cfg, lw,
                                           losses.StftParams(16, 8))
                    out[f"{cell}/{name}/loss"] = np.float64(loss)
                    for key, g in grads.items():
                        out[f"{cell}/{name}/grad/{key}"] = g
    return out


def longest_clip(cfg, n_slow: int) -> int:
    """The longest clip length whose batched forward runs ``n_slow`` slow frames."""
    n = 1
    while (cfg.num_fast_frames(n + 1) - 1) // cfg.reuse <= n_slow:
        n += 1
    return n


def run_tree(tree: Path, dest: Path) -> dict[str, np.ndarray]:
    """Computes ``tree``'s matrix in a fresh interpreter and loads it back."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    subprocess.run(
        [sys.executable, __file__, "--emit", str(dest), "--tree", str(tree)],
        check=True, env=env,
    )
    with np.load(dest) as data:
        return {key: data[key] for key in data.files}


def compare(parent: dict[str, np.ndarray], change: dict[str, np.ndarray]) -> list[tuple]:
    """(key, what differs, relative gap) per array that differs, sorted by key.

    The relative gap is the largest absolute gap over the parent array's
    largest magnitude (inf if that is zero). It is NaN where there is no gap
    to size: a missing array, a shape mismatch or a NaN element.
    """
    diffs = [(key, f"missing in {side}", np.nan) for side, a, b in
             (("change", parent, change), ("parent", change, parent)) for key in a if key not in b]
    for key in parent.keys() & change.keys():
        a, b = np.asarray(parent[key], np.float64), np.asarray(change[key], np.float64)
        if a.shape != b.shape:
            diffs.append((key, f"shape {a.shape} against {b.shape}", np.nan))
        elif not np.array_equal(a.view(np.int64), b.view(np.int64)):
            gap = np.max(np.abs(a - b)) if a.size else 0.0
            scale = np.max(np.abs(a)) if a.size else 0.0
            rel = gap / scale if scale else (np.inf if gap else 0.0)
            diffs.append((key, f"{np.count_nonzero(a.view(np.int64) != b.view(np.int64))} "
                          f"elements differ, max gap {gap:.3e}, relative {rel:.3e}", rel))
    return sorted(diffs)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", type=Path, help="tree to compare this tree against")
    p.add_argument("--emit", type=Path, help=argparse.SUPPRESS)
    p.add_argument("--tree", type=Path, help=argparse.SUPPRESS)
    args = p.parse_args()
    if args.emit:
        np.savez(args.emit, **compute(args.tree, args.emit.with_suffix(".sfse")))
        return 0
    if args.parent is None:
        p.error("--parent is required")
    with tempfile.TemporaryDirectory() as tmp:
        parent = run_tree(args.parent.resolve(), Path(tmp) / "parent.npz")
        change = run_tree(HERE, Path(tmp) / "change.npz")
    diffs = compare(parent, change)
    for key, what, _ in diffs:
        print(f"DIFF {key}: {what}")
    total = len(parent.keys() | change.keys())
    print(f"{total - len(diffs)} of {total} arrays equal")
    sized = [(rel, key) for key, _, rel in diffs if not np.isnan(rel)]
    if sized:
        rel, key = max(sized)
        print(f"largest relative gap {rel:.3e} in {key}")
    else:
        print("largest relative gap 0")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
