"""Cost model, latency certification, RTF benchmark."""

from dataclasses import replace

import numpy as np
import pytest

from slowfast_se.engine import (
    enhance_offline,
    init_model_weights,
    sample_level_config,
    two_ms_config,
)
from slowfast_se.eval_bench import (
    benchmark_rtf,
    mac_count,
    output_hash,
    single_branch_mac_count,
    verify_latency,
)
from slowfast_se.fast_branch import packet_size

# paper-reported M MACs/s totals for the 2 ms geometry per reuse factor
PAPER_TOTALS = {1: 110.0, 2: 57.0, 3: 39.0, 4: 31.0, 5: 25.0, 10: 15.0}
PAPER_SAMPLE_LEVEL = 105.0


class TestMacCount:
    def test_fc_product(self):
        # an FC from m to n costs m*n: one more slow input sample adds one
        # GRU-width row to FC in; the 2ms-d3 baseline is FC in (L_F x 64),
        # four GRU layers and a (64 x L_F) head
        cfg = two_ms_config(3)
        wider_in = replace(cfg, l_s=cfg.l_s + 1)
        assert (mac_count(wider_in).slow_macs_per_frame
                - mac_count(cfg).slow_macs_per_frame) == cfg.gru_width
        assert single_branch_mac_count(cfg).fast_macs_per_frame == (
            32 * 64 + 4 * 3 * (64 * 64 + 64 * 64) + 64 * 32)

    def test_gru_layer(self):
        # one 64-wide GRU layer: three input and three hidden 64 x 64 products;
        # 2ms-d3 slow frame = FC in (96 x 64) + four layers + head (64 x 2H)
        cfg = two_ms_config(3)
        one_less = replace(cfg, gru_layers=cfg.gru_layers - 1)
        layer = 3 * (64 * 64 + 64 * 64)
        assert (mac_count(cfg).slow_macs_per_frame
                - mac_count(one_less).slow_macs_per_frame) == layer
        assert (single_branch_mac_count(cfg).fast_macs_per_frame
                - single_branch_mac_count(one_less).fast_macs_per_frame) == layer
        assert mac_count(cfg).slow_macs_per_frame == 96 * 64 + 4 * layer + 64 * 64 == 108544

    def test_two_ms_reuse_one_close_to_paper(self):
        report = mac_count(two_ms_config(1))
        assert report.total_m_macs_per_s == pytest.approx(106.56, abs=0.01)
        assert abs(report.total_m_macs_per_s - PAPER_TOTALS[1]) / PAPER_TOTALS[1] < 0.20

    def test_two_ms_reuse_three_close_to_paper(self):
        report = mac_count(two_ms_config(3))
        assert report.total_m_macs_per_s == pytest.approx(38.29, abs=0.01)
        assert abs(report.total_m_macs_per_s - PAPER_TOTALS[3]) / PAPER_TOTALS[3] < 0.20

    @pytest.mark.parametrize("reuse", sorted(PAPER_TOTALS))
    def test_all_reuse_factors_within_tolerance(self, reuse):
        report = mac_count(two_ms_config(reuse))
        assert abs(report.total_m_macs_per_s - PAPER_TOTALS[reuse]) / PAPER_TOTALS[reuse] < 0.20

    def test_sample_level_close_to_paper(self):
        report = mac_count(sample_level_config())
        assert (
            abs(report.total_m_macs_per_s - PAPER_SAMPLE_LEVEL) / PAPER_SAMPLE_LEVEL < 0.20
        )
        assert report.algorithmic_latency_us == pytest.approx(62.5)

    def test_total_is_component_sum(self):
        for cfg in (two_ms_config(2), two_ms_config(5, "film"), sample_level_config("ec")):
            r = mac_count(cfg)
            expected = (
                r.slow_macs_per_frame * r.slow_fps + r.fast_macs_per_frame * r.fast_fps
            ) / 1e6
            assert r.total_m_macs_per_s == expected

    def test_monotone_nonincreasing_in_reuse(self):
        totals = [mac_count(two_ms_config(d)).total_m_macs_per_s for d in (1, 2, 3, 4, 5, 10)]
        assert all(a >= b for a, b in zip(totals, totals[1:]))

    def test_variant_fast_costs(self):
        # ssmm: L*H + 2H + H*L; film: L*H + H + H*L; ec: L*H + 2H*L
        ssmm = mac_count(two_ms_config(1, "ssmm")).fast_macs_per_frame
        film = mac_count(two_ms_config(1, "film")).fast_macs_per_frame
        ec = mac_count(two_ms_config(1, "ec")).fast_macs_per_frame
        assert ssmm == 32 * 32 + 64 + 32 * 32
        assert film == 32 * 32 + 32 + 32 * 32
        assert ec == 32 * 32 + 64 * 32

    def test_single_branch_shares_trunk_cost(self):
        # the GRU stack costs the same in both; only the FC in (L_F, not L_S,
        # inputs) and the head (L_F, not packet, outputs) differ
        for cfg in (two_ms_config(3), sample_level_config("film")):
            slow = mac_count(cfg).slow_macs_per_frame
            baseline = single_branch_mac_count(cfg).fast_macs_per_frame
            w, head = cfg.gru_width, packet_size(cfg.variant, cfg.h)
            assert baseline - 2 * cfg.l_f * w == slow - (cfg.l_s + head) * w
        assert single_branch_mac_count(two_ms_config(3)).fast_fps == 1000.0

    def test_reduction_claim(self):
        # dual-rate at reuse 3 costs at most 40% of the same trunk run fast
        cfg = two_ms_config(3)
        ratio = mac_count(cfg).total_m_macs_per_s / single_branch_mac_count(cfg).total_m_macs_per_s
        assert ratio <= 0.40

    def test_sample_level_fold_reduction(self):
        # the single-branch trunk at 16 kHz costs ~16x the dual-rate total
        cfg = sample_level_config()
        ratio = single_branch_mac_count(cfg).total_m_macs_per_s / mac_count(cfg).total_m_macs_per_s
        assert ratio > 10.0


class TestVerifyLatency:
    def test_two_ms_horizon(self):
        cfg = two_ms_config(2)
        w = init_model_weights(cfg, seed=0)
        report = verify_latency(w, cfg, trials=40, signal_len=2000, seed=1)
        assert report.passed
        assert report.bound == 31
        assert 0 < report.horizon <= 31

    def test_sample_level_zero_lookahead(self):
        cfg = sample_level_config()
        w = init_model_weights(cfg, seed=0)
        report = verify_latency(w, cfg, trials=40, signal_len=2000, seed=2)
        assert report.passed
        assert report.bound == 0
        assert report.horizon == 0

    @pytest.mark.parametrize("variant", ["ssmm", "film", "ec"])
    def test_all_variants_pass(self, variant):
        cfg = two_ms_config(3, variant)
        w = init_model_weights(cfg, seed=3)
        report = verify_latency(w, cfg, trials=25, signal_len=1600, seed=4)
        assert report.passed

    @pytest.mark.parametrize("trials", [0, -3])
    def test_no_probes_rejected(self, trials):
        # zero probes would certify causality without testing it
        cfg = two_ms_config(3)
        with pytest.raises(ValueError, match="probe"):
            verify_latency(init_model_weights(cfg, seed=0), cfg, trials=trials)


class TestBenchmarkRtf:
    def test_reports_and_hash_match_offline(self):
        cfg = two_ms_config(3)
        w = init_model_weights(cfg, seed=0)
        report = benchmark_rtf(w, cfg, seconds=0.25, seed=5)
        assert report.rtf > 0
        assert report.slow_seconds >= 0 and report.fast_seconds >= 0
        rng = np.random.default_rng(5)
        x = rng.standard_normal(4000) * 0.3
        assert report.output_sha256 == output_hash(enhance_offline(x, w, cfg).samples)

    @pytest.mark.parametrize("seconds", [0.0, -1.0, float("inf"), float("nan"), 1e-5, 3e-5])
    def test_bad_duration_rejected(self, seconds):
        # 1e-5 and 3e-5 s are shorter than one sample: they ran no audio
        cfg = two_ms_config(3)
        with pytest.raises(ValueError, match="seconds"):
            benchmark_rtf(init_model_weights(cfg, seed=0), cfg, seconds=seconds)

    def test_audio_seconds_count_the_samples_run(self):
        # 1e-4 s is 1.6 samples, and the run takes two
        cfg = two_ms_config(3)
        report = benchmark_rtf(init_model_weights(cfg, seed=0), cfg, seconds=1e-4)
        assert report.audio_seconds == 2 / 16000
        assert report.rtf == report.wall_seconds / report.audio_seconds

    def test_slow_share_shrinks_with_reuse(self):
        shares = []
        for reuse in (1, 4):
            cfg = two_ms_config(reuse)
            w = init_model_weights(cfg, seed=1)
            r = benchmark_rtf(w, cfg, seconds=1.0, seed=6)
            shares.append(r.slow_seconds / (r.slow_seconds + r.fast_seconds))
        assert shares[1] < shares[0]
