"""Acceptance suite: one test per release criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s`. The toy-training criterion
dominates the runtime (a few minutes); everything else finishes in seconds.
"""

import time

import numpy as np
import pytest

from slowfast_se.engine import (
    SlowFastConfig,
    StreamSession,
    enhance_offline,
    init_model_weights,
    named_arrays,
    sample_level_config,
    two_ms_config,
)
from slowfast_se.eval_bench import (
    benchmark_rtf,
    mac_count,
    single_branch_mac_count,
    verify_latency,
)
from slowfast_se.persistence import (
    ModelChecksumError,
    ModelShapeError,
    ModelVersionError,
    load_model,
    save_model,
)
from slowfast_se.training import (
    LossWeights,
    StftParams,
    TrainSchedule,
    backward,
    forward_batch,
    make_batch,
    sisnr,
    train,
)

PAPER_TWO_MS_TOTALS = {1: 110.0, 2: 57.0, 3: 39.0, 4: 31.0, 5: 25.0, 10: 15.0}
PAPER_SAMPLE_LEVEL_TOTAL = 105.0


def _report(criterion: int, description: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    line = f"[{status}] criterion {criterion}: {description}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert passed, line


def test_criterion_1_cost_table_reproduction():
    t0 = time.time()
    worst = 0.0
    for reuse, target in PAPER_TWO_MS_TOTALS.items():
        total = mac_count(two_ms_config(reuse)).total_m_macs_per_s
        worst = max(worst, abs(total - target) / target)
    sample_total = mac_count(sample_level_config()).total_m_macs_per_s
    worst = max(worst, abs(sample_total - PAPER_SAMPLE_LEVEL_TOTAL) / PAPER_SAMPLE_LEVEL_TOTAL)
    elapsed = time.time() - t0
    _report(
        1, "cost table within 20% of reported totals",
        worst < 0.20 and elapsed < 1.0,
        f"worst deviation {worst * 100:.1f}%, {elapsed:.3f}s",
    )


def test_criterion_2_compute_reduction():
    t0 = time.time()
    cfg = two_ms_config(3)
    ratio = (
        mac_count(cfg).total_m_macs_per_s
        / single_branch_mac_count(cfg).total_m_macs_per_s
    )
    elapsed = time.time() - t0
    _report(
        2, "reuse-3 total is at most 40% of the single-branch trunk cost",
        ratio <= 0.40 and elapsed < 1.0,
        f"ratio {ratio:.3f}, {elapsed:.3f}s",
    )


def test_criterion_3_latency_horizons():
    t0 = time.time()
    results = []
    for cfg, bound in ((two_ms_config(3), 31), (sample_level_config(), 0)):
        weights = init_model_weights(cfg, seed=0)
        report = verify_latency(weights, cfg, trials=100, signal_len=3000, seed=1)
        results.append(report.passed and report.bound == bound and report.horizon <= bound)
    elapsed = time.time() - t0
    _report(
        3, "dependency horizon <= L_F - 1 (2 ms config) and 0 (sample-level)",
        all(results) and elapsed < 30.0,
        f"{elapsed:.1f}s",
    )


def test_criterion_4_streaming_equals_offline():
    t0 = time.time()
    cfg = two_ms_config(3)
    weights = init_model_weights(cfg, seed=2)
    rng = np.random.default_rng(3)
    ok = True
    for _ in range(3):
        x = rng.standard_normal(int(rng.integers(2000, 5000))) * 0.3
        reference = enhance_offline(x, weights, cfg).samples
        for chunk in (1, 7, 160, len(x)):
            session = StreamSession(weights, cfg)
            outs = []
            for start in range(0, len(x), chunk):
                session.push_samples(x[start : start + chunk])
                outs.append(session.pull_output())
            session.close()
            outs.append(session.pull_output())
            ok = ok and np.array_equal(np.concatenate(outs), reference)
    elapsed = time.time() - t0
    _report(4, "streaming output is bit-identical across chunk sizes",
            ok and elapsed < 30.0, f"{elapsed:.1f}s")


def test_criterion_5_gradient_correctness():
    t0 = time.time()
    step = 1e-5
    worst = 0.0
    for variant in ("ssmm", "film", "ec"):
        config = SlowFastConfig(variant=variant, l_f=4, delta_f=2, reuse=2, h=3,
                                gru_width=6, gru_layers=2)
        weights = init_model_weights(config, seed=7)
        rng = np.random.default_rng(1007)
        for _, arr in named_arrays(weights):
            arr[...] = rng.uniform(-0.6, 0.6, arr.shape)
        data_rng = np.random.default_rng(11)
        batch = (data_rng.standard_normal((2, 22)) * 0.5,
                 data_rng.standard_normal((2, 22)) * 0.5)  # 12 fast frames
        lw = LossWeights(spec_mse=1.0, sisnr=0.3)
        sp = StftParams(fft_size=8, hop=4)
        _, grads = backward(batch, weights, config, lw, sp)
        for name, arr in named_arrays(weights):
            numeric = np.zeros_like(arr)
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + step
                lp, _ = backward(batch, weights, config, lw, sp)
                arr[idx] = orig - step
                lm, _ = backward(batch, weights, config, lw, sp)
                arr[idx] = orig
                numeric[idx] = (lp - lm) / (2 * step)
            denom = np.maximum(np.abs(grads[name]) + np.abs(numeric), 1e-8)
            worst = max(worst, float(np.max(np.abs(grads[name] - numeric) / denom)))
    elapsed = time.time() - t0
    _report(5, "analytic gradients match central differences on every array",
            worst < 1e-4 and elapsed < 60.0,
            f"max rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_6_passthrough_reconstruction():
    t0 = time.time()
    worst = 0.0
    for cfg in (two_ms_config(3), sample_level_config()):
        weights = init_model_weights(cfg, seed=0)
        weights.slow.fc_in_w[...] = 0.0
        weights.slow.fc_in_b[...] = 0.0
        for stack in (weights.slow.gru_w, weights.slow.gru_u, weights.slow.gru_b):
            stack[...] = 0.0
        weights.slow.fc_head_w[...] = 0.0
        weights.slow.fc_head_b[...] = np.concatenate(
            [np.full(cfg.h, -20.0), np.full(cfg.h, 20.0)]
        )
        weights.slow.warmup_packet_raw[...] = weights.slow.fc_head_b
        weights.fast.f_in_w[...] = np.eye(cfg.l_f, cfg.h)
        weights.fast.f_in_b[...] = 0.0
        weights.fast.f_out_w[...] = np.eye(cfg.h, cfg.l_f)
        weights.fast.f_out_b[...] = 0.0
        x = np.random.default_rng(4).standard_normal(16000) * 0.3
        y = enhance_offline(x, weights, cfg).samples
        worst = max(worst, float(np.linalg.norm(y - x) / np.linalg.norm(x)))
    elapsed = time.time() - t0
    _report(6, "constructed passthrough reconstructs input to 1e-6",
            worst <= 1e-6 and elapsed < 5.0,
            f"worst rel L2 {worst:.2e}, {elapsed:.1f}s")


def test_criterion_7_toy_training():
    t0 = time.time()
    # full run for the ssmm flagship; the other variants only show that each
    # stage's loss descends, which a two-epoch stage shows as well
    cfg = two_ms_config(3, "ssmm")
    weights, log = train(cfg, TrainSchedule(seed=0))
    noisy, clean = make_batch([900001 + 2 * i for i in range(16)], [5.0] * 16)
    base = float(np.mean([sisnr(noisy[i], clean[i]) for i in range(16)]))
    enhanced, _ = forward_batch(noisy, weights, cfg)
    enh = float(np.mean([sisnr(enhanced[i], clean[i]) for i in range(16)]))
    improvement = enh - base
    # the two stages optimize different objectives, so descent is per stage
    descents = {"ssmm": _stage_descents(log)}
    short = TrainSchedule(seed=0, stage1_epochs=2, stage2_epochs=2)
    for variant in ("film", "ec"):
        _, vlog = train(two_ms_config(3, variant), short)
        descents[variant] = _stage_descents(vlog)
    losses_ok = all(all(d.values()) for d in descents.values())
    elapsed = time.time() - t0
    _report(
        7, "toy training gains >= 5 dB SI-SNR and losses descend for all variants",
        improvement >= 5.0 and losses_ok and elapsed < 900.0,
        f"improvement {improvement:.2f} dB (noisy {base:.2f} -> {enh:.2f}), "
        f"per-stage descent {descents}, {elapsed:.0f}s",
    )


def _stage_descents(log) -> dict:
    """Whether each stage's last epoch loss is below its first."""
    out = {}
    for stage in (1, 2):
        losses = [r.loss for r in log if r.stage == stage]
        out[stage] = losses[-1] < losses[0]
    return out


def test_criterion_8_real_time_factor():
    worst = 0.0
    for cfg in [two_ms_config(d) for d in (1, 2, 3, 4, 5, 10)] + [sample_level_config()]:
        weights = init_model_weights(cfg, seed=0)
        report = benchmark_rtf(weights, cfg, seconds=1.0, seed=5)
        worst = max(worst, report.rtf)
    _report(8, "real-time factor below 1.0 for every reported configuration",
            worst < 1.0, f"worst RTF {worst:.3f}")


def test_criterion_9_persistence(tmp_path):
    t0 = time.time()
    cfg = two_ms_config(3)
    weights = init_model_weights(cfg, seed=6)
    path = tmp_path / "model.sfse"
    save_model(weights, cfg, path)
    loaded, cfg2 = load_model(path)
    path2 = tmp_path / "model2.sfse"
    save_model(loaded, cfg2, path2)
    bit_exact = path.read_bytes() == path2.read_bytes()

    rejected = []
    data = path.read_bytes()
    truncated = tmp_path / "trunc.sfse"
    truncated.write_bytes(data[:-64])
    try:
        load_model(truncated)
        rejected.append(False)
    except ModelChecksumError:
        rejected.append(True)
    versioned = tmp_path / "ver.sfse"
    versioned.write_bytes(data.replace(b"SFSE-MODEL v1", b"SFSE-MODEL v7", 1))
    try:
        load_model(versioned)
        rejected.append(False)
    except ModelVersionError:
        rejected.append(True)
    shaped = tmp_path / "shape.sfse"
    shaped.write_bytes(data.replace(b"h = 32", b"h = 16", 1))
    try:
        load_model(shaped)
        rejected.append(False)
    except ModelShapeError:
        rejected.append(True)
    invariant = tmp_path / "inv.sfse"
    invariant.write_bytes(data.replace(b"reuse = 3", b"reuse = 2", 1))
    try:
        load_model(invariant)
        rejected.append(False)
    except ValueError:
        rejected.append(True)
    elapsed = time.time() - t0
    _report(9, "model files round-trip bit-exactly and invalid files are rejected",
            bit_exact and all(rejected) and elapsed < 5.0, f"{elapsed:.1f}s")
