"""Scheduling, causal alignment, streaming/offline equivalence, baseline."""

import numpy as np
import pytest

from slowfast_se import fast_branch
from slowfast_se.engine import (
    SlowFastConfig,
    StreamSession,
    enhance_offline,
    init_model_weights,
    init_single_branch_weights,
    sample_level_config,
    single_branch_forward,
    slow_frame_span,
    two_ms_config,
)


def make_passthrough_weights(cfg):
    """f_in/f_out identity, slow branch frozen at A ~ 0, g ~ 1."""
    w = init_model_weights(cfg, seed=0)
    w.slow.fc_in_w[...] = 0.0
    w.slow.fc_in_b[...] = 0.0
    for layer in w.slow.gru:
        for f in ("w_z", "w_r", "w_n", "u_z", "u_r", "u_n", "b_z", "b_r", "b_n"):
            getattr(layer, f)[...] = 0.0
    w.slow.fc_head_w[...] = 0.0
    w.slow.fc_head_b[...] = np.concatenate([np.full(cfg.h, -20.0), np.full(cfg.h, 20.0)])
    w.slow.warmup_packet_raw[...] = w.slow.fc_head_b
    w.fast.f_in_w[...] = np.eye(cfg.l_f, cfg.h)
    w.fast.f_in_b[...] = 0.0
    w.fast.f_out_w[...] = np.eye(cfg.h, cfg.l_f)
    w.fast.f_out_b[...] = 0.0
    return w


class TestConfig:
    def test_derived_fields(self):
        cfg = two_ms_config(3)
        assert (cfg.delta_s, cfg.l_s) == (48, 96)
        assert cfg.fast_pad == 16

    def test_sample_level(self):
        cfg = sample_level_config()
        assert (cfg.l_f, cfg.delta_f, cfg.delta_s, cfg.l_s, cfg.h, cfg.reuse) == (
            1, 1, 16, 32, 8, 16,
        )
        assert cfg.algorithmic_latency_us() == pytest.approx(62.5)

    def test_hop_rate_consistency_enforced(self):
        with pytest.raises(ValueError, match="delta_s"):
            SlowFastConfig(variant="ssmm", l_f=32, delta_f=16, reuse=3, h=32, delta_s=32)

    def test_bad_geometry(self):
        with pytest.raises(ValueError):
            SlowFastConfig(variant="ssmm", l_f=8, delta_f=16, reuse=1, h=4)
        with pytest.raises(ValueError):
            SlowFastConfig(variant="nope", l_f=32, delta_f=16, reuse=1, h=4)


class TestWarmupPacket:
    def test_warmup_packet_reaches_only_the_first_group(self):
        # film is stateless: the first `reuse` fast frames use the warm-up
        # packet and end at padded sample reuse * delta_f + fast_pad, so
        # outputs from reuse * delta_f on never see it
        cfg = two_ms_config(3, "film")
        w = init_model_weights(cfg, seed=4)
        x = np.random.default_rng(6).standard_normal(1000) * 0.2
        before = enhance_offline(x, w, cfg).samples
        w.slow.warmup_packet_raw[...] += 0.5
        after = enhance_offline(x, w, cfg).samples
        edge = cfg.reuse * cfg.delta_f
        for start in range(0, edge, cfg.delta_f):
            assert not np.array_equal(before[start : start + cfg.delta_f],
                                      after[start : start + cfg.delta_f])
        assert np.array_equal(before[edge:], after[edge:])


class TestSlowFrameSpan:
    def test_first_span_reaches_left_of_zero(self):
        assert slow_frame_span(0, 48, 96) == (-48, 48)

    def test_interior_span(self):
        assert slow_frame_span(2, 16, 32) == (16, 48)

    def test_span_ends_where_first_consumer_starts(self):
        # fast frame (j+1)*reuse starts at (j+1)*delta_s on the shared timeline
        delta_f, reuse = 16, 3
        delta_s = delta_f * reuse
        for j in range(5):
            _, end = slow_frame_span(j, delta_s, 2 * delta_s)
            first_consumer = (j + 1) * reuse
            assert end == first_consumer * delta_f


class TestStreaming:
    @pytest.mark.parametrize("variant", ["ssmm", "film", "ec"])
    def test_chunking_invariance(self, variant):
        cfg = two_ms_config(2, variant)
        w = init_model_weights(cfg, seed=3)
        rng = np.random.default_rng(0)
        x = rng.standard_normal(3000) * 0.2
        reference = enhance_offline(x, w, cfg).samples
        for chunk in (1, 7, 160):
            session = StreamSession(w, cfg)
            outs = []
            for start in range(0, len(x), chunk):
                session.push_samples(x[start : start + chunk])
                outs.append(session.pull_output())
            session.close()
            outs.append(session.pull_output())
            assert np.array_equal(np.concatenate(outs), reference), f"chunk={chunk}"

    def test_output_length_equals_input_length(self):
        cfg = two_ms_config(3)
        w = init_model_weights(cfg, seed=1)
        for n in (1, 15, 16, 17, 100, 1000, 1001):
            out = enhance_offline(np.ones(n) * 0.1, w, cfg)
            assert len(out.samples) == n

    def test_pull_before_push_empty(self):
        cfg = two_ms_config(1)
        session = StreamSession(init_model_weights(cfg, seed=0), cfg)
        assert session.pull_output().size == 0

    def test_pull_respects_max_and_never_repeats(self):
        cfg = two_ms_config(1)
        w = init_model_weights(cfg, seed=0)
        x = np.random.default_rng(1).standard_normal(500) * 0.1
        reference = enhance_offline(x, w, cfg).samples
        session = StreamSession(w, cfg)
        session.push_samples(x)
        session.close()
        pieces = []
        while True:
            piece = session.pull_output(max_n=37)
            if piece.size == 0:
                break
            assert piece.size <= 37
            pieces.append(piece)
        assert np.array_equal(np.concatenate(pieces), reference)

    def test_push_after_close_rejected(self):
        cfg = two_ms_config(1)
        session = StreamSession(init_model_weights(cfg, seed=0), cfg)
        session.push_samples(np.zeros(10))
        session.close()
        with pytest.raises(RuntimeError):
            session.push_samples(np.zeros(1))

    def test_output_never_outruns_input(self):
        cfg = two_ms_config(2)
        session = StreamSession(init_model_weights(cfg, seed=0), cfg)
        pushed = 0
        pulled = 0
        rng = np.random.default_rng(2)
        for _ in range(50):
            chunk = rng.standard_normal(rng.integers(1, 40)) * 0.1
            session.push_samples(chunk)
            pushed += len(chunk)
            pulled += session.pull_output().size
            assert pulled <= pushed

    def test_passthrough_reconstruction(self):
        for cfg in (two_ms_config(3), sample_level_config()):
            w = make_passthrough_weights(cfg)
            x = np.random.default_rng(4).standard_normal(8000) * 0.3
            y = enhance_offline(x, w, cfg).samples
            rel = np.linalg.norm(y - x) / np.linalg.norm(x)
            assert rel < 1e-6, cfg

    def test_determinism(self):
        cfg = two_ms_config(4, "film")
        w = init_model_weights(cfg, seed=9)
        x = np.random.default_rng(5).standard_normal(2000)
        a = enhance_offline(x, w, cfg).samples
        b = enhance_offline(x, w, cfg).samples
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("bad", [np.zeros((2, 16)), np.zeros(()), [[0.0], [1.0]]])
    def test_non_mono_push_rejected_with_its_shape(self, bad):
        cfg = two_ms_config(3)
        session = StreamSession(init_model_weights(cfg, seed=0), cfg)
        with pytest.raises(ValueError, match=r"expected 1-D .*shape \("):
            session.push_samples(bad)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejected_non_finite_chunk_leaves_session_untouched(self, value):
        cfg = two_ms_config(3)
        w = init_model_weights(cfg, seed=0)
        x = np.random.default_rng(8).standard_normal(2000) * 0.2
        bad = x[100:300].copy()
        bad[0] = value
        outputs = []
        for reject in (False, True):
            session = StreamSession(w, cfg)
            session.push_samples(x[:100])
            if reject:
                with pytest.raises(ValueError, match="non-finite"):
                    session.push_samples(bad)
            session.push_samples(x[100:])
            session.close()
            outputs.append(session.pull_output())
        assert np.array_equal(outputs[0], outputs[1])
        assert np.all(np.isfinite(outputs[1]))

    def test_wrong_shape_weights_rejected(self):
        cfg_a = two_ms_config(3)
        cfg_b = sample_level_config()
        w = init_model_weights(cfg_a, seed=0)
        with pytest.raises(ValueError, match="shape"):
            enhance_offline(np.zeros(100), w, cfg_b)


class TestPacketReuse:
    def test_slow_invocation_count(self):
        # exactly ceil(N_F / reuse) - 1 slow frames, the rest reuse or warm up
        for reuse in (1, 2, 3, 5):
            cfg = two_ms_config(reuse)
            w = init_model_weights(cfg, seed=0)
            x = np.random.default_rng(0).standard_normal(4321) * 0.1
            session = StreamSession(w, cfg)
            session.push_samples(x)
            session.close()
            n_fast = session.stats.fast_frames
            assert n_fast == cfg.num_fast_frames(len(x))
            assert session.stats.slow_frames == -(-n_fast // reuse) - 1

    def test_groups_of_reuse_frames_share_identical_packets(self, monkeypatch):
        cfg = two_ms_config(3)
        w = init_model_weights(cfg, seed=2)
        seen = []
        real_step = fast_branch.ssmm_step

        def spy(state, x_f, packet, weights):
            seen.append(packet)
            return real_step(state, x_f, packet, weights)

        monkeypatch.setattr(fast_branch, "ssmm_step", spy)
        enhance_offline(np.random.default_rng(1).standard_normal(2000) * 0.1, w, cfg)
        for i, packet in enumerate(seen):
            group = i // cfg.reuse
            first_of_group = seen[group * cfg.reuse]
            assert packet is first_of_group or (
                np.array_equal(packet.a, first_of_group.a)
                and np.array_equal(packet.g, first_of_group.g)
            )
        # warm-up frames use the warm-up packet
        for i in range(cfg.reuse):
            assert np.array_equal(seen[i].a, seen[0].a)

    def test_reuse_one_vs_two_same_code_path(self):
        x = np.random.default_rng(3).standard_normal(1500) * 0.1
        outs = {}
        for reuse in (1, 2):
            cfg = two_ms_config(reuse)
            w = init_model_weights(cfg, seed=5)
            outs[reuse] = enhance_offline(x, w, cfg).samples
        assert outs[1].shape == outs[2].shape
        assert not np.array_equal(outs[1], outs[2])  # packets refresh differently


class TestCausality:
    @pytest.mark.parametrize("cfg_factory", [lambda: two_ms_config(3), sample_level_config])
    def test_perturbation_horizon(self, cfg_factory):
        cfg = cfg_factory()
        w = init_model_weights(cfg, seed=6)
        rng = np.random.default_rng(7)
        x = rng.standard_normal(1200) * 0.2
        y0 = enhance_offline(x, w, cfg).samples
        for m in rng.integers(0, len(x), size=12):
            x2 = x.copy()
            x2[m] += 1.0
            y2 = enhance_offline(x2, w, cfg).samples
            cut = max(0, int(m) - cfg.l_f + 1)
            assert np.array_equal(y0[:cut], y2[:cut])

    def test_final_sample_perturbation_affects_at_most_tail(self):
        cfg = two_ms_config(2)
        w = init_model_weights(cfg, seed=8)
        x = np.random.default_rng(9).standard_normal(800) * 0.2
        y0 = enhance_offline(x, w, cfg).samples
        x2 = x.copy()
        x2[-1] += 1.0
        y2 = enhance_offline(x2, w, cfg).samples
        changed = np.nonzero(y0 != y2)[0]
        assert changed.size > 0
        assert changed[0] >= len(x) - cfg.l_f


class TestSingleBranch:
    def test_zero_weights_zero_output(self):
        cfg = two_ms_config(1)
        w = init_single_branch_weights(cfg, seed=0)
        for name in ("fc_in_w", "fc_in_b", "fc_head_w", "fc_head_b"):
            getattr(w, name)[...] = 0.0
        for layer in w.gru:
            for f in ("w_z", "w_r", "w_n", "u_z", "u_r", "u_n", "b_z", "b_r", "b_n"):
                getattr(layer, f)[...] = 0.0
        out = single_branch_forward(np.random.default_rng(0).standard_normal(500), w, cfg)
        assert np.allclose(out.samples, 0.0)

    def test_output_length_and_determinism(self):
        cfg = two_ms_config(1)
        w = init_single_branch_weights(cfg, seed=1)
        x = np.random.default_rng(1).standard_normal(777) * 0.1
        a = single_branch_forward(x, w, cfg)
        b = single_branch_forward(x, w, cfg)
        assert len(a.samples) == 777
        assert np.array_equal(a.samples, b.samples)

    def test_head_shape_checked(self):
        cfg = two_ms_config(1)
        w = init_single_branch_weights(sample_level_config(), seed=0)
        with pytest.raises(ValueError):
            single_branch_forward(np.zeros(100), w, cfg)
