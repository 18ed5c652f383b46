"""Command-line frontend.

Subcommands: enhance, train, bench-mac, bench-rtf, verify-latency, compare,
make-corpus. Config files use `key = value` lines (the model file header's
config keys and, for train, the schedule's); command-line flags override
file values, geometry keys a file leaves out take the 2ms-d3 preset's
values, and an unknown key is a usage error. Exit codes: 0 on success, 1 on
usage errors and on a training run that diverges, 2 on verification failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import math
import os
import sys

import numpy as np

from . import eval_bench
from .engine import (
    PAPER_DELTAS,
    SlowFastConfig,
    enhance_offline,
    sample_level_config,
    two_ms_config,
)
from .fast_branch import VARIANTS
from .persistence import CONFIG_KEYS, fields_from_text, load_model, save_model
from .signal_io import AudioBuffer, read_wav, write_wav
from .training import (
    EVAL_SNRS_DB,
    TRAIN_SNRS_DB,
    TrainingDivergedError,
    TrainSchedule,
    evaluate_sisnr,
    make_synthetic_pair,
    train,
    write_log_csv,
)

USAGE_ERROR = 1
VERIFICATION_FAILURE = 2


def read_kv_file(path) -> dict[str, str]:
    """Parse `key = value` lines; '#' starts a comment; blank lines ignored.

    A key given twice is an error naming both lines, not a silent override.
    """
    values: dict[str, str] = {}
    linenos: dict[str, int] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key in linenos:
                raise ValueError(
                    f"{path}:{lineno}: key {key!r} given again (first on line {linenos[key]})"
                )
            values[key], linenos[key] = value, lineno
    return values


def config_from_kv(values: dict[str, str]) -> SlowFastConfig:
    """Keys left out take ``two_ms_config(3)``'s values, except that delta_s
    and l_s derive from the rest; a key that is neither a config key nor a
    schedule key is an error."""
    schedule_keys = {f.name for f in dataclasses.fields(TrainSchedule)}
    unknown = sorted(set(values) - set(CONFIG_KEYS) - schedule_keys)
    if unknown:
        raise ValueError(f"unknown config key(s): {', '.join(unknown)}")
    # delta_s = l_s = 0 derives them again from the merged keys
    changes = {"delta_s": 0, "l_s": 0, **fields_from_text(SlowFastConfig, values)}
    return dataclasses.replace(two_ms_config(3), **changes)


def schedule_from_kv(values: dict[str, str]) -> TrainSchedule:
    """The schedule keys among ``values``; the rest keep TrainSchedule's defaults."""
    return TrainSchedule(**fields_from_text(TrainSchedule, values))


def _at_least(cast, low, strict=False):
    """argparse type: a finite number >= low (> low if strict); else a usage error."""
    def parse(text: str):
        value = cast(text)
        if not (math.isfinite(value) and (value > low if strict else value >= low)):
            op = ">" if strict else ">="
            raise argparse.ArgumentTypeError(f"expected a finite value {op} {low}, got {text}")
        return value
    parse.__name__ = cast.__name__  # argparse names it in "invalid int value"
    return parse


def _preset_config(name: str, variant: str) -> SlowFastConfig:
    if name == "sample-level":
        return sample_level_config(variant)
    reuse = name.removeprefix("2ms-d")
    if reuse != name and reuse.isdecimal():
        return two_ms_config(int(reuse), variant)
    raise ValueError(f"unknown preset {name!r}; use 2ms-d<reuse> or sample-level")


def _resolve_config(args) -> SlowFastConfig:
    if getattr(args, "config", None):
        values = read_kv_file(args.config)
        if getattr(args, "variant", None):
            values["variant"] = args.variant
        return config_from_kv(values)
    preset = getattr(args, "preset", None) or "2ms-d3"
    return _preset_config(preset, getattr(args, "variant", None) or "ssmm")


def _print_cost(report: eval_bench.CostReport, label: str) -> None:
    print(f"{label}:")
    print(f"  slow: {report.slow_macs_per_frame} MACs/frame at {report.slow_fps:.2f} frames/s")
    print(f"  fast: {report.fast_macs_per_frame} MACs/frame at {report.fast_fps:.2f} frames/s")
    print(f"  total: {report.total_m_macs_per_s:.2f} M MACs/s")
    print(f"  algorithmic latency: {report.algorithmic_latency_us:.1f} us")


def _cmd_enhance(args) -> int:
    weights, config = load_model(args.model)
    audio = read_wav(args.infile)
    if args.stream_chunk:
        from .engine import StreamSession

        session = StreamSession(weights, config)
        pieces = []
        for start in range(0, len(audio.samples), args.stream_chunk):
            session.push_samples(audio.samples[start : start + args.stream_chunk])
            pieces.append(session.pull_output())
        session.close()
        pieces.append(session.pull_output())
        out = AudioBuffer(np.concatenate(pieces) if pieces else np.zeros(0))
    else:
        out = enhance_offline(audio, weights, config)
    write_wav(args.outfile, out)
    print(f"wrote {args.outfile} ({len(out.samples)} samples)")
    return 0


def _cmd_train(args) -> int:
    values = read_kv_file(args.config) if args.config else {}
    if args.variant:
        values["variant"] = args.variant
    if args.seed is not None:
        values["seed"] = str(args.seed)
    config = config_from_kv(values)
    schedule = schedule_from_kv(values)

    def progress(rec):
        print(
            f"epoch {rec.epoch:3d} (stage {rec.stage}): loss={rec.loss:.6f} "
            f"eval_sisnr={rec.eval_sisnr:.2f} dB lr={rec.lr:.3e}",
            flush=True,
        )

    weights, log = train(config, schedule, progress=progress)
    save_model(weights, config, args.out)
    print(f"saved model to {args.out}")
    if args.log:
        write_log_csv(log, args.log)
        print(f"wrote training log to {args.log}")
    return 0


def _cmd_bench_mac(args) -> int:
    config = _resolve_config(args)
    _print_cost(eval_bench.mac_count(config), f"slowfast-{config.variant} reuse={config.reuse}")
    baseline = eval_bench.single_branch_mac_count(config)
    _print_cost(baseline, "single-branch baseline (same trunk at the fast rate)")
    ratio = eval_bench.mac_count(config).total_m_macs_per_s / baseline.total_m_macs_per_s
    print(f"cost ratio dual-rate / single-branch: {ratio:.3f}")
    return 0


def _cmd_bench_rtf(args) -> int:
    weights, config = load_model(args.model)
    report = eval_bench.benchmark_rtf(weights, config, seconds=args.seconds, seed=args.seed)
    print(f"processed {report.audio_seconds:.2f} s in {report.wall_seconds:.3f} s")
    print(f"RTF = {report.rtf:.4f} (slow branch {report.slow_seconds:.3f} s, "
          f"fast branch {report.fast_seconds:.3f} s)")
    print(f"output sha256 = {report.output_sha256}")
    return 0


def _cmd_verify_latency(args) -> int:
    weights, config = load_model(args.model)
    report = eval_bench.verify_latency(weights, config, trials=args.trials, seed=args.seed)
    print(f"latency bound: {report.bound} samples lookahead "
          f"({config.algorithmic_latency_us():.1f} us frame length)")
    print(f"measured horizon over {report.trials} probes: {report.horizon} samples")
    if report.violations:
        for m, first in report.violations:
            print(f"VIOLATION: perturbing sample {m} changed output {first}", file=sys.stderr)
        return VERIFICATION_FAILURE
    print("causality verified: no output changed before m - L_F + 1")
    return 0


def _cmd_make_corpus(args) -> int:
    os.makedirs(args.out, exist_ok=True)
    snrs = EVAL_SNRS_DB if args.eval_grid else TRAIN_SNRS_DB
    manifest_path = os.path.join(args.out, "corpus.csv")
    with open(manifest_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "seed", "snr_db", "noisy", "clean"])
        for i in range(args.count):
            seed = args.seed + 2 * i
            snr = snrs[i % len(snrs)]
            noisy, clean = make_synthetic_pair(seed, snr)
            noisy_name = f"noisy_{i:04d}.wav"
            clean_name = f"clean_{i:04d}.wav"
            write_wav(os.path.join(args.out, noisy_name), noisy)
            write_wav(os.path.join(args.out, clean_name), clean)
            writer.writerow([i, seed, snr, noisy_name, clean_name])
    print(f"wrote {args.count} pairs and {manifest_path}")
    return 0


def _load_corpus(corpus_dir) -> tuple[np.ndarray, np.ndarray]:
    manifest = os.path.join(corpus_dir, "corpus.csv")
    noisy, clean = [], []
    with open(manifest) as fh:
        for row in csv.DictReader(fh):
            noisy.append(read_wav(os.path.join(corpus_dir, row["noisy"])).samples)
            clean.append(read_wav(os.path.join(corpus_dir, row["clean"])).samples)
    if not noisy:
        raise ValueError(f"{manifest}: empty corpus")
    return np.stack(noisy), np.stack(clean)


def compare_variants(
    corpus_dir,
    models_dir,
    deltas=PAPER_DELTAS,
    variants=VARIANTS,
) -> list[dict]:
    """Score every (variant, reuse) cell on a corpus.

    Model files are named <variant>_d<reuse>_s<seed>.sfse, with an integer
    reuse; other files are skipped. Each cell needs at least one seed. Returns
    one row per cell with the cost-model MACs of its first file and the
    mean/std across seeds of ``evaluate_sisnr`` on the corpus.
    """
    noisy, clean = _load_corpus(corpus_dir)
    available: dict[tuple[str, int], list[str]] = {}
    for name in sorted(os.listdir(models_dir)):
        base, ext = os.path.splitext(name)
        if ext != ".sfse":
            continue
        parts = base.split("_")
        if (len(parts) != 3 or not parts[1].startswith("d") or not parts[1][1:].isdigit()
                or not parts[2].startswith("s")):
            continue
        available.setdefault((parts[0], int(parts[1][1:])), []).append(
            os.path.join(models_dir, name)
        )

    missing = [
        f"{variant}_d{reuse}"
        for variant in variants
        for reuse in deltas
        if (variant, reuse) not in available
    ]
    if missing:
        raise FileNotFoundError(
            f"missing model files for cells: {', '.join(missing)} "
            f"(expected <variant>_d<reuse>_s<seed>.sfse in {models_dir})"
        )

    rows = []
    for variant in variants:
        for reuse in deltas:
            scores = []
            for path in available[(variant, reuse)]:
                weights, config = load_model(path)
                if config.variant != variant or config.reuse != reuse:
                    raise ValueError(
                        f"{path}: file config ({config.variant}, reuse={config.reuse}) "
                        f"disagrees with its name"
                    )
                if not scores:
                    cost = eval_bench.mac_count(config)
                scores.append(evaluate_sisnr(weights, config, noisy, clean))
            rows.append(
                {
                    "variant": variant,
                    "reuse": reuse,
                    "macs_m_per_s": cost.total_m_macs_per_s,
                    "sisnr_mean": float(np.mean(scores)),
                    "sisnr_std": float(np.std(scores)),
                    "n_seeds": len(scores),
                }
            )
    return rows


def _cmd_compare(args) -> int:
    deltas = tuple(int(d) for d in args.deltas.split(",")) if args.deltas else PAPER_DELTAS
    variants = tuple(args.variants.split(",")) if args.variants else VARIANTS
    rows = compare_variants(args.corpus, args.models, deltas=deltas, variants=variants)
    out = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        writer = csv.writer(out)
        writer.writerow(["variant", "reuse", "macs_m_per_s", "sisnr_mean", "sisnr_std", "n_seeds"])
        for row in rows:
            writer.writerow(
                [row["variant"], row["reuse"], f"{row['macs_m_per_s']:.3f}",
                 f"{row['sisnr_mean']:.4f}", f"{row['sisnr_std']:.4f}", row["n_seeds"]]
            )
    finally:
        if args.out:
            out.close()
            print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slowfast-se", description="dual-rate streaming speech enhancement"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enhance", help="enhance a WAV file with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)
    p.add_argument("--stream-chunk", type=_at_least(int, 0), default=0,
                   help="push N samples at a time through the streaming API (0: offline)")
    p.set_defaults(func=_cmd_enhance)

    p = sub.add_parser("train", help="train on the synthetic corpus")
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--variant", choices=VARIANTS)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True, help="output model path")
    p.add_argument("--log", help="write per-epoch CSV here")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("bench-mac", help="print the compute-cost report")
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--preset", help="2ms-d<reuse> or sample-level")
    p.add_argument("--variant", choices=VARIANTS)
    p.set_defaults(func=_cmd_bench_mac)

    p = sub.add_parser("bench-rtf", help="measure the real-time factor")
    p.add_argument("--model", required=True)
    p.add_argument("--seconds", type=_at_least(float, 0, strict=True), default=2.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_bench_rtf)

    p = sub.add_parser("verify-latency", help="perturbation-probe the causal horizon")
    p.add_argument("--model", required=True)
    p.add_argument("--trials", type=_at_least(int, 1), default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify_latency)

    p = sub.add_parser("compare", help="score trained models over a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--models", required=True)
    p.add_argument("--out", help="CSV output path (default: stdout)")
    p.add_argument("--deltas", help="comma-separated reuse factors")
    p.add_argument("--variants", help="comma-separated variants")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("make-corpus", help="write synthetic WAV pairs + manifest")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=_at_least(int, 1), default=20)
    p.add_argument("--eval-snrs", dest="eval_grid", action="store_true",
                   help="use the evaluation SNR grid instead of the training grid")
    p.set_defaults(func=_cmd_make_corpus)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems and 0 on --help
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (OSError, ValueError, KeyError, TrainingDivergedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
