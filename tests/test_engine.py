"""Scheduling, causal alignment, streaming/offline equivalence, baseline."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from slowfast_se import fast_branch
from slowfast_se.engine import (
    SlowFastConfig,
    StreamSession,
    check_shapes,
    enhance_offline,
    expected_shapes,
    init_model_weights,
    init_single_branch_weights,
    model_weights_from_arrays,
    named_arrays,
    sample_level_config,
    single_branch_forward,
    single_branch_shapes,
    slow_frame_span,
    two_ms_config,
)
from slowfast_se.slow_branch import warmup_packet


def make_passthrough_weights(cfg):
    """f_in/f_out identity, slow branch frozen at A ~ 0, g ~ 1."""
    w = init_model_weights(cfg, seed=0)
    w.slow.fc_in_w[...] = 0.0
    w.slow.fc_in_b[...] = 0.0
    for stack in (w.slow.gru_w, w.slow.gru_u, w.slow.gru_b):
        stack[...] = 0.0
    w.slow.fc_head_w[...] = 0.0
    w.slow.fc_head_b[...] = np.concatenate([np.full(cfg.h, -20.0), np.full(cfg.h, 20.0)])
    w.slow.warmup_packet_raw[...] = w.slow.fc_head_b
    w.fast.f_in_w[...] = np.eye(cfg.l_f, cfg.h)
    w.fast.f_in_b[...] = 0.0
    w.fast.f_out_w[...] = np.eye(cfg.h, cfg.l_f)
    w.fast.f_out_b[...] = 0.0
    return w


def small(cfg):
    """The same geometry with a tiny fast state and slow trunk."""
    return dataclasses.replace(cfg, h=4, gru_width=8, gru_layers=2)


# each exercises a different corner of the input trim and OLA carry
CHUNKING_GEOMETRIES = {
    "2ms-d2": lambda v: two_ms_config(2, v),
    "sample-level": sample_level_config,
    "pad-over-hop": lambda v: SlowFastConfig(variant=v, l_f=48, delta_f=16, reuse=2, h=4),
    "odd-hop": lambda v: SlowFastConfig(variant=v, l_f=8, delta_f=3, reuse=2, h=4, l_s=11),
    "long-slow": lambda v: SlowFastConfig(variant=v, l_f=7, delta_f=7, reuse=3, h=4, l_s=40),
}


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

    @pytest.mark.parametrize("key, value", [
        ("l_f", 32.0), ("delta_f", 16.0), ("h", 32.5), ("reuse", 3.0), ("reuse", True),
        ("gru_width", 64.0), ("gru_layers", np.float64(4.0)), ("delta_s", 48.0),
        ("l_s", 96.0), ("h", "32"),
    ])
    def test_integer_field_refuses_other_types_naming_it(self, key, value):
        fields = dict(variant="ssmm", l_f=32, delta_f=16, reuse=3, h=32)
        with pytest.raises(ValueError, match=f"key {key} = .*expected an integer"):
            SlowFastConfig(**{**fields, key: value})

    def test_numpy_integers_are_integers(self):
        cfg = SlowFastConfig(variant="ssmm", l_f=np.int64(32), delta_f=np.int32(16),
                             reuse=np.uint8(3), h=np.int16(32))
        assert cfg == two_ms_config(3)
        assert init_model_weights(cfg, seed=0).fast.f_in_w.shape == (32, 32)


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
    @pytest.mark.parametrize("geometry", list(CHUNKING_GEOMETRIES))
    @pytest.mark.parametrize("variant", ["ssmm", "film", "ec"])
    def test_chunking_invariance(self, variant, geometry):
        cfg = small(CHUNKING_GEOMETRIES[geometry](variant))
        w = init_model_weights(cfg, seed=3)
        rng = np.random.default_rng(0)
        x = rng.standard_normal(3000) * 0.2
        reference = enhance_offline(x, w, cfg).samples
        # fixed chunk sizes pulled in full, then random ones with empty pushes,
        # chunks longer than l_s, and empty, partial and full pulls
        for trial, chunk in enumerate((1, 7, 160, None, None, None)):
            session = StreamSession(w, cfg)
            outs = []
            start = 0
            while start < len(x):
                size, max_n = chunk, None
                if chunk is None:
                    size = int(rng.integers(0, 3 * cfg.l_s)) * (rng.random() > 0.1)
                    max_n = (None, 0, int(rng.integers(1, 2 * cfg.l_s)))[rng.integers(3)]
                session.push_samples(x[start : start + size])
                start += size
                outs.append(session.pull_output(max_n))
            session.close()
            outs.append(session.pull_output())
            assert np.array_equal(np.concatenate(outs), reference), f"trial={trial}"
            assert session.stats.fast_frames == cfg.num_fast_frames(len(x))

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

    @pytest.mark.parametrize("bad", [2.5, np.float64(4.0), "3"], ids=repr)
    def test_rejected_pull_leaves_session_untouched(self, bad):
        cfg = two_ms_config(3)
        w = init_model_weights(cfg, seed=0)
        x = np.random.default_rng(9).standard_normal(2000) * 0.2
        runs = []
        for reject in (False, True):
            session = StreamSession(w, cfg)
            session.push_samples(x[:1000])
            if reject:
                with pytest.raises(TypeError):
                    session.pull_output(bad)
            pieces = [session.pull_output(7)]
            session.push_samples(x[1000:])
            session.close()
            runs.append((session.available_output(), pieces + [session.pull_output()]))
        (avail_a, pieces_a), (avail_b, pieces_b) = runs
        assert avail_a == avail_b
        assert all(np.array_equal(a, b) for a, b in zip(pieces_a, pieces_b, strict=True))
        assert sum(map(len, pieces_b)) == len(x)

    def test_wrong_shape_weights_rejected(self):
        cfg_a = two_ms_config(3)
        cfg_b = sample_level_config()
        w = init_model_weights(cfg_a, seed=0)
        with pytest.raises(ValueError, match="shape"):
            enhance_offline(np.zeros(100), w, cfg_b)
        with pytest.raises(ValueError, match="shape"):
            StreamSession(w, cfg_b)

    def test_memory_stays_flat_over_a_long_stream(self):
        # buffering depends on the geometry only, so a tiny trunk keeps it quick
        cfg = dataclasses.replace(two_ms_config(3), h=4, gru_width=4, gru_layers=1)
        session = StreamSession(init_model_weights(cfg, seed=0), cfg)
        rng = np.random.default_rng(0)
        second = rng.standard_normal(16000) * 0.1
        tracemalloc.start()
        try:
            for sec in range(120):
                start = 0
                while start < len(second):
                    size = int(rng.integers(1, 401))
                    session.push_samples(second[start : start + size])
                    session.pull_output()
                    start += size
                if sec == 9:
                    after_10s = tracemalloc.get_traced_memory()[0]
            after_120s = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert abs(after_120s - after_10s) <= 64 * 1024, (after_10s, after_120s)


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
        x = np.random.default_rng(1).standard_normal(2000) * 0.1
        for variant in fast_branch.VARIANTS:
            cfg = two_ms_config(3, variant)
            w = init_model_weights(cfg, seed=2)
            step_name = fast_branch.VARIANTS[variant][2]
            seen = []
            real_step = getattr(fast_branch, step_name)

            def spy(state, x_f, packet, weights, real_step=real_step, seen=seen):
                seen.append(packet)
                return real_step(state, x_f, packet, weights)

            monkeypatch.setattr(fast_branch, step_name, spy)
            enhance_offline(x, w, cfg)
            assert len(seen) == cfg.num_fast_frames(len(x)), variant
            for i, packet in enumerate(seen):
                group = i // cfg.reuse
                first_of_group = seen[group * cfg.reuse]
                assert packet is first_of_group or all(
                    np.array_equal(a, b) for a, b in zip(packet, first_of_group)
                )
            # warm-up frames use the warm-up packet
            warm = warmup_packet(w.slow, variant)
            for i in range(cfg.reuse):
                assert all(np.array_equal(a, b) for a, b in zip(seen[i], seen[0]))
                assert all(np.array_equal(a, b) for a, b in zip(seen[i], warm))

    def test_step_is_bound_when_the_session_is_built(self, monkeypatch):
        # a wrapper installed before StreamSession(...) sees every fast frame
        # (the benchmark's tracer relies on this); one installed after sees none
        cfg = two_ms_config(3)
        w = init_model_weights(cfg, seed=2)
        x = np.random.default_rng(4).standard_normal(999) * 0.1
        calls = {"before": 0, "after": 0}
        real_step = fast_branch.ssmm_step

        def counting(key):
            def wrapper(*args):
                calls[key] += 1
                return real_step(*args)
            return wrapper

        monkeypatch.setattr(fast_branch, "ssmm_step", counting("before"))
        session = StreamSession(w, cfg)
        monkeypatch.setattr(fast_branch, "ssmm_step", counting("after"))
        for start in range(0, len(x), 100):
            session.push_samples(x[start : start + 100])
        session.close()
        assert calls == {"before": cfg.num_fast_frames(len(x)), "after": 0}
        assert session.stats.fast_frames == cfg.num_fast_frames(len(x))

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
        for stack in (w.gru_w, w.gru_u, w.gru_b):
            stack[...] = 0.0
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

    def test_trunk_of_fewer_layers_names_the_missing_layer(self):
        cfg = two_ms_config(1)
        w = init_single_branch_weights(dataclasses.replace(cfg, gru_layers=2), seed=0)
        with pytest.raises(ValueError, match="missing weight slow.gru2.w_z"):
            single_branch_forward(np.zeros(100), w, cfg)


def assert_uniform_then_zero(arrays, seed):
    """Each matrix uniform +-sqrt(1/rows), drawn in the given order from one
    generator seeded with ``seed``; every vector zero."""
    rng = np.random.default_rng(seed)
    for name, arr in arrays:
        if arr.ndim == 2:
            bound = np.sqrt(1.0 / arr.shape[0])
            assert np.array_equal(arr, rng.uniform(-bound, bound, size=arr.shape)), name
        else:
            assert arr.ndim == 1 and not arr.any(), name


# the presets and trunks of other sizes, each a function of the variant
TABLE_GEOMETRIES = {
    "2ms-d3": lambda v: two_ms_config(3, v),
    "sample": sample_level_config,
    "gru_layers=1": lambda v: dataclasses.replace(two_ms_config(3, v), gru_layers=1),
    "gru_layers=2": lambda v: dataclasses.replace(two_ms_config(3, v), gru_layers=2),
    "gru_width=16": lambda v: dataclasses.replace(two_ms_config(3, v), gru_width=16),
    "l_s=40": lambda v: dataclasses.replace(two_ms_config(3, v), l_s=40),
}


class TestParameterTable:
    """One table, ``expected_shapes``, declares every array; init, assembly,
    shape checks and model files read it. The initial draw is pinned, since
    trained results (criterion 7's gain) depend on it."""

    @pytest.mark.parametrize("variant", ["ssmm", "film", "ec"])
    @pytest.mark.parametrize("preset", list(TABLE_GEOMETRIES))
    def test_model_init_draws_in_named_arrays_order(self, variant, preset):
        cfg = TABLE_GEOMETRIES[preset](variant)
        w = init_model_weights(cfg, seed=3)
        arrays = named_arrays(w)
        assert [name for name, _ in arrays] == list(expected_shapes(cfg))
        assert all(arr.shape == expected_shapes(cfg)[name] for name, arr in arrays)
        d, layers, head = cfg.gru_width, cfg.gru_layers, fast_branch.packet_size(variant, cfg.h)
        assert len(arrays) == 2 + 9 * layers + 3 + 4
        assert (w.slow.fc_in_w.shape, w.slow.fc_head_w.shape) == ((cfg.l_s, d), (d, head))
        assert w.slow.gru_w.shape == w.slow.gru_u.shape == (layers, d, 3 * d)
        feat = fast_branch.VARIANTS[variant].feat_width * cfg.h
        assert (w.fast.f_in_w.shape, w.fast.f_out_w.shape) == ((cfg.l_f, cfg.h), (feat, cfg.l_f))
        assert_uniform_then_zero(arrays, seed=3)

    @pytest.mark.parametrize("preset", list(TABLE_GEOMETRIES))
    def test_single_branch_init_draws_the_trunk_with_an_l_f_head(self, preset):
        cfg = TABLE_GEOMETRIES[preset]("ssmm")
        w = init_single_branch_weights(cfg, seed=3)
        arrays = named_arrays(w)
        assert [name for name, _ in arrays] == list(single_branch_shapes(cfg))
        d = cfg.gru_width
        assert (w.fc_in_w.shape, w.fc_head_w.shape) == ((cfg.l_f, d), (d, cfg.l_f))
        assert w.gru_w.shape == w.gru_u.shape == (cfg.gru_layers, d, 3 * d)
        assert w.gru_b.shape == (cfg.gru_layers, 3 * d)
        assert_uniform_then_zero(arrays, seed=3)

    def test_tables_allocate_no_array_memory(self):
        # the model's arrays take about 873 KB; the tables read zero-stride stand-ins
        cfg = two_ms_config(3)
        tracemalloc.start()
        try:
            expected_shapes(cfg)
            single_branch_shapes(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_check_names_missing_extra_and_misshapen_arrays(self):
        cfg = two_ms_config(3)
        shapes = dict(expected_shapes(cfg))
        del shapes["slow.gru1.u_r"]
        shapes["slow.gru9.w_z"] = (64, 64)
        shapes["fast.f_in.w"] = (32, 16)
        with pytest.raises(ValueError, match="weight") as err:
            check_shapes(shapes, expected_shapes(cfg))
        for part in ("slow.gru1.u_r", "slow.gru9.w_z", "fast.f_in.w", "(32, 16)"):
            assert part in str(err.value)
        check_shapes(expected_shapes(cfg), expected_shapes(cfg))  # the table itself passes

    def test_assembly_rejects_a_missing_array(self):
        cfg = two_ms_config(3)
        arrays = dict(named_arrays(init_model_weights(cfg)))
        del arrays["slow.fc_head.b"]
        with pytest.raises(ValueError, match="missing weight slow.fc_head.b"):
            model_weights_from_arrays(cfg, arrays)
