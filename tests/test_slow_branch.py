"""GRU cell, stacked gate-fused storage, slow trunk, head activations, warm-up packet."""

import copy
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from slowfast_se.engine import (
    SlowFastConfig,
    enhance_offline,
    expected_shapes,
    init_model_weights,
    init_single_branch_weights,
    model_weights_from_arrays,
    named_arrays,
    sample_level_config,
    two_ms_config,
)
from slowfast_se.slow_branch import (
    GRU_FIELDS,
    _sigmoid,
    activate_head,
    gru_cell_step,
    slow_forward,
    warmup_packet,
)
from slowfast_se.persistence import load_model
from slowfast_se.training.backprop import SEGMENT_STEPS, _Cache, backward, forward_batch
from slowfast_se.training.losses import LossWeights, StftParams

TINY_MODEL = Path(__file__).parent / "data" / "tiny_ssmm.sfse"


def initial_hidden(layers, width):
    """The slow branch's state at stream start: one zero vector per GRU layer."""
    return [np.zeros(width) for _ in range(layers)]


def random_slow(variant, layers, seed):
    """The slow branch of a freshly initialised l_s=8, width-6, h=4 model."""
    cfg = SlowFastConfig(variant, l_f=4, delta_f=2, reuse=2, h=4, l_s=8,
                         gru_width=6, gru_layers=layers)
    return init_model_weights(cfg, seed).slow


def zero_gru(in_dim, h_dim):
    """One layer's fused (w, u, b), all zero, gate blocks z|r|n."""
    return np.zeros((in_dim, 3 * h_dim)), np.zeros((h_dim, 3 * h_dim)), np.zeros(3 * h_dim)


def fused(parts):
    """One layer's fused (w, u, b) from its nine per-gate arrays."""
    return tuple(np.concatenate([parts[f"{kind}_{gate}"] for gate in "zrn"], axis=-1)
                 for kind in "wub")


class TestGruCell:
    def test_zero_weights_halve_state(self):
        # z = r = 0.5, n = 0 -> h' = 0.5 h, for any input
        rng = np.random.default_rng(0)
        w = zero_gru(3, 5)
        for _ in range(10):
            h = rng.standard_normal(5)
            x = rng.standard_normal(3)
            assert np.allclose(gru_cell_step(x, h, *w), 0.5 * h, atol=1e-12)

    def test_saturated_update_gate_freezes_state(self):
        w, u, b = zero_gru(3, 4)
        b[:4] = 20.0  # z ~ 1
        h = np.array([1.0, -2.0, 3.0, 0.5])
        x = np.array([5.0, -5.0, 1.0])
        assert np.allclose(gru_cell_step(x, h, w, u, b), h, atol=1e-8)

    def test_open_gates_pass_tanh_of_input(self):
        # z ~ 0 and h = 0 -> h' ~ tanh(W_n x)
        w, u, b = zero_gru(4, 4)
        b[:4] = -20.0
        w[:, 8:] = np.eye(4)
        x = np.array([0.1, -0.2, 0.05, 0.0])
        got = gru_cell_step(x, np.zeros(4), w, u, b)
        assert np.allclose(got, np.tanh(x), atol=1e-8)

    @staticmethod
    def textbook(x, h, p):
        """The per-gate GRU, one product per gate array, as the equations read."""
        def sig(v):
            return 1.0 / (1.0 + np.exp(-v))
        z = sig(x @ p["w_z"] + h @ p["u_z"] + p["b_z"])
        r = sig(x @ p["w_r"] + h @ p["u_r"] + p["b_r"])
        n = np.tanh(x @ p["w_n"] + r * (h @ p["u_n"]) + p["b_n"])
        return (1.0 - z) * n + z * h

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("batch", [(), (16,)], ids=["1-D", "B=16"])
    def test_matches_textbook_gru_with_random_weights(self, seed, batch):
        rng = np.random.default_rng(seed)
        in_dim, d = (64, 64) if seed % 2 else (40, 24)
        parts = {
            f: rng.uniform(-1.0, 1.0, ((d,) if f.startswith("b_") else
                                       (in_dim if f.startswith("w_") else d, d)))
            for f in GRU_FIELDS
        }
        for _ in range(5):
            x = rng.standard_normal(batch + (in_dim,))
            h = rng.uniform(-1.0, 1.0, batch + (d,))
            got = gru_cell_step(x, h, *fused(parts))
            assert got.shape == h.shape
            np.testing.assert_allclose(got, self.textbook(x, h, parts), rtol=0, atol=1e-14)

    def test_shape_mismatch_rejected(self):
        w = zero_gru(3, 4)
        with pytest.raises(ValueError):
            gru_cell_step(np.zeros(5), np.zeros(4), *w)


class TestSigmoid:
    @staticmethod
    def reference(x):
        with np.errstate(over="ignore", invalid="ignore"):
            return np.where(x >= 0, 1.0 / (1.0 + np.exp(-x)), np.exp(x) / (1.0 + np.exp(x)))

    def inputs(self):
        rng = np.random.default_rng(8)
        special = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 800.0, -800.0, 1e-300, -1e-300])
        wide = rng.standard_normal((40, 64)) * 20.0
        return [
            rng.standard_normal(100_000) * 30.0,
            wide,
            wide[::3, 1::2],  # strided view
            wide.T,
            special,
            special.reshape(3, 3),
        ]

    def test_bit_identical_to_two_branch_formula(self):
        for x in self.inputs():
            got = _sigmoid(x)
            want = self.reference(x)
            assert got.shape == x.shape
            # same bits everywhere; a NaN's sign and payload carry nothing
            nan = np.isnan(want)
            assert np.array_equal(np.isnan(got), nan)
            assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))

    def test_input_left_unchanged(self):
        for x in self.inputs():
            before = x.copy()
            _sigmoid(x)
            assert np.array_equal(x, before, equal_nan=True)


def _stored(weights):
    """A builder's named arrays and its three GRU stacks."""
    trunk = getattr(weights, "slow", weights)
    return dict(named_arrays(weights)), {kind: getattr(trunk, f"gru_{kind}") for kind in "wub"}


def _gradient_set():
    """``backward``'s gradient set, and the stacks its GRU entries view."""
    cfg = two_ms_config(3)
    x = np.random.default_rng(8).standard_normal((2, 200)) * 0.3
    _, grads = backward((x, x), init_model_weights(cfg, seed=8), cfg,
                        LossWeights(1.0, 0.3), StftParams(8, 4))
    return grads, {kind: grads[f"slow.gru0.{kind}_z"].base for kind in "wub"}


# every builder of a weight set (or a gradient set) and what it returns
BUILDERS = {
    "init_model_weights": lambda: _stored(init_model_weights(two_ms_config(3), seed=0)),
    "init_single_branch_weights": lambda: _stored(
        init_single_branch_weights(sample_level_config(), seed=0)),
    "load_model": lambda: _stored(load_model(TINY_MODEL)[0]),
    "backward": _gradient_set,
}


class TestFusedStorage:
    """The GRU stack is gru_w, gru_u (L, d, 3d) and gru_b (L, 3d), gates z|r|n;
    the per-gate names are views of it."""

    def test_constructor_places_gates_in_z_r_n_order(self):
        cfg = two_ms_config(3)
        rng = np.random.default_rng(9)
        arrays = {name: rng.standard_normal(shape) for name, shape in expected_shapes(cfg).items()}
        weights = model_weights_from_arrays(cfg, arrays)
        slow = weights.slow
        layers, d = cfg.gru_layers, cfg.gru_width
        assert slow.gru_w.shape == slow.gru_u.shape == (layers, d, 3 * d)
        assert slow.gru_b.shape == (layers, 3 * d)
        for k in range(layers):
            for f in GRU_FIELDS:
                block = "zrn".index(f[-1])
                stored = getattr(slow, f"gru_{f[0]}")[k, ..., block * d : (block + 1) * d]
                assert np.array_equal(stored, arrays[f"slow.gru{k}.{f}"]), (k, f)
        # every array is a copy, so a later write to the input reaches none
        for name, stored in named_arrays(weights):
            assert np.array_equal(stored, arrays[name]), name
            for given in arrays.values():
                assert not np.shares_memory(stored, given), name

    def test_named_arrays_share_the_fused_storage(self):
        for builder, build in BUILDERS.items():
            entries, stacks = build()
            for kind, stack in stacks.items():
                assert stack.flags.c_contiguous and stack.base is None, (builder, kind)
            # numbering the entries through their views numbers every stored
            # value once: the views tile the stacks, z|r|n within each layer
            layers, d = len(stacks["b"]), stacks["b"].shape[-1] // 3
            for stack in stacks.values():
                stack[...] = -1.0
            for i, f in enumerate(GRU_FIELDS):
                for k in range(layers):
                    entry = entries[f"slow.gru{k}.{f}"]
                    assert entry.base is stacks[f[0]], (builder, k, f)
                    entry[...] = 10 * k + i
            for kind, stack in stacks.items():
                for k in range(layers):
                    for block, gate in enumerate("zrn"):
                        want = 10 * k + GRU_FIELDS.index(f"{kind}_{gate}")
                        got = stack[k, ..., block * d : (block + 1) * d]
                        assert np.all(got == want), (builder, kind, k)

    @pytest.mark.parametrize("field", ["w_z", "u_n", "b_r"])
    def test_writes_through_a_gate_view_reach_every_path(self, field):
        cfg = two_ms_config(3, "ssmm")
        weights = init_model_weights(cfg, seed=3)
        x = np.random.default_rng(4).standard_normal(600) * 0.3
        offline = enhance_offline(x, weights, cfg).samples
        batch, _ = forward_batch(x[None], weights, cfg)
        dict(named_arrays(weights))[f"slow.gru1.{field}"][...] += 0.5
        assert not np.array_equal(enhance_offline(x, weights, cfg).samples, offline)
        assert not np.array_equal(forward_batch(x[None], weights, cfg)[0], batch)

    def test_deepcopy_is_independent(self):
        cfg = two_ms_config(3, "film")
        weights = init_model_weights(cfg, seed=5)
        clone = copy.deepcopy(weights)
        before = [a.copy() for _, a in named_arrays(weights)]
        for _, arr in named_arrays(clone):
            arr += 1.0
        for (name, arr), old in zip(named_arrays(weights), before):
            assert np.array_equal(arr, old), name
        for kind in "wub":
            stack, twin = getattr(weights.slow, f"gru_{kind}"), getattr(clone.slow, f"gru_{kind}")
            assert not np.shares_memory(stack, twin), kind
            assert np.shares_memory(dict(named_arrays(clone))[f"slow.gru2.{kind}_n"], twin), kind

    def test_training_caches_hold_no_wider_views(self):
        # the cache holds whole-batch arrays alone, no field per wavefront
        # step: the trunk keeps the layers' states of every SEGMENT_STEPS-th
        # wavefront row and its top outputs, each in an array of its own,
        # and the backward rebuilds the rest. No array it holds views a
        # wider one, and none views the input's padded copy
        cfg = two_ms_config(3, "ssmm")
        weights = init_model_weights(cfg, seed=6)
        x = np.random.default_rng(7).standard_normal((2, 400)) * 0.3
        _, cache = forward_batch(x, weights, cfg)
        n_slow, layers = len(cache.top), cfg.gru_layers
        assert n_slow == (cfg.num_fast_frames(400) - 1) // cfg.reuse > layers
        assert _Cache._fields == ("u", "groups", "checkpoints", "top", "packet", "feat")
        assert not any(isinstance(field, list) for field in cache)
        steps = n_slow + layers - 1
        assert cache.checkpoints.shape == (-(-steps // SEGMENT_STEPS), layers, 2, cfg.gru_width)
        assert cache.top.shape == (n_slow, 2, cfg.gru_width)
        assert cache.checkpoints.base is None and cache.top.base is None
        for name in ("u", "groups", "feat"):
            arr = getattr(cache, name)
            assert arr.base is None or arr.base.nbytes <= arr.nbytes, name
        for arr in cache.packet:
            assert len(arr) == n_slow + 1
            assert arr.base is None or arr.base.nbytes <= arr.nbytes

    def test_training_cache_holds_no_array_the_size_of_the_state_history(self):
        # the trunk's whole state history, (J + L, L + 1, B, d), is no
        # longer kept: tracemalloc sees no live block that large once the
        # forward returns, and the trunk's two arrays take under half of it
        cfg = two_ms_config(3, "ssmm")
        weights = init_model_weights(cfg, seed=6)
        x = np.random.default_rng(8).standard_normal((2, 1600)) * 0.3
        forward_batch(x, weights, cfg)  # warm-up: first-call caches stay out of the trace
        tracemalloc.start()
        try:
            _, cache = forward_batch(x, weights, cfg)
            blocks = [trace.size for trace in tracemalloc.take_snapshot().traces]
        finally:
            tracemalloc.stop()
        n_slow, layers = len(cache.top), cfg.gru_layers
        history = (n_slow + layers) * (layers + 1) * 2 * cfg.gru_width * 8
        assert n_slow > 8 * layers and max(blocks) < history
        assert cache.checkpoints.nbytes + cache.top.nbytes < history / 2


class TestActivateHead:
    def test_ssmm_zero_raw(self):
        a, g = activate_head(np.zeros(8), "ssmm")
        assert np.allclose(a, 0.5) and np.allclose(g, 0.5)

    def test_film_zero_raw_is_identity(self):
        alpha, beta = activate_head(np.zeros(6), "film")
        assert np.allclose(alpha, 1.0) and np.allclose(beta, 0.0)

    def test_ec_identity(self):
        raw = np.array([1.0, -2.0, 3.0])
        (e,) = activate_head(raw, "ec")
        assert np.array_equal(e, raw)

    def test_ssmm_saturation_stays_below_one(self):
        raw = np.zeros(4)
        raw[0] = 20.0
        a, _ = activate_head(raw, "ssmm")
        assert a[0] > 0.999999 and a[0] < 1.0

    def test_ssmm_range_property(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a, g = activate_head(rng.standard_normal(16) * 10, "ssmm")
            assert np.all((a > 0) & (a < 1))
            assert np.all((g > 0) & (g < 1))

    def test_odd_size_rejected_for_two_halves(self):
        with pytest.raises(ValueError):
            activate_head(np.zeros(5), "ssmm")


class TestSlowForward:
    def test_zero_weights_give_sigmoid_of_head_bias(self):
        w = random_slow("ssmm", 2, seed=0)
        for name in ("fc_in_w", "fc_in_b", "fc_head_w", "fc_head_b"):
            getattr(w, name)[...] = 0.0
        for stack in (w.gru_w, w.gru_u, w.gru_b):
            stack[...] = 0.0
        (a, g), _ = slow_forward(np.zeros(8), initial_hidden(2, 6), w, "ssmm")
        assert np.allclose(a, 0.5) and np.allclose(g, 0.5)

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        w = random_slow("film", 3, seed=1)
        x = rng.standard_normal(8)
        s0 = initial_hidden(3, 6)
        (alpha1, beta1), s1 = slow_forward(x, s0, w, "film")
        (alpha2, beta2), s2 = slow_forward(x, s0, w, "film")
        assert np.array_equal(alpha1, alpha2) and np.array_equal(beta1, beta2)
        for a, b in zip(s1, s2):
            assert np.array_equal(a, b)

    def test_ssmm_packets_bounded(self):
        rng = np.random.default_rng(2)
        w = random_slow("ssmm", 2, seed=2)
        state = initial_hidden(2, 6)
        for _ in range(20):
            (a, g), state = slow_forward(rng.standard_normal(8) * 5, state, w, "ssmm")
            assert np.all((a > 0) & (a < 1))
            assert np.all((g > 0) & (g < 1))

    def test_sequence_equals_stepwise(self):
        # running ten frames through one state chain = stepping one at a time
        rng = np.random.default_rng(4)
        w = random_slow("ec", 4, seed=4)
        frames = rng.standard_normal((10, 8))
        state_a = initial_hidden(4, 6)
        outs_a = []
        for f in frames:
            (e,), state_a = slow_forward(f, state_a, w, "ec")
            outs_a.append(e)
        state_b = initial_hidden(4, 6)
        outs_b = []
        for f in frames:
            (e,), state_b = slow_forward(f, state_b, w, "ec")
            outs_b.append(e)
        assert all(np.array_equal(a, b) for a, b in zip(outs_a, outs_b))


class TestWarmupPacket:
    def test_zero_raw_ssmm(self):
        w = random_slow("ssmm", 2, seed=0)
        a, g = warmup_packet(w, "ssmm")
        assert np.allclose(a, 0.5) and np.allclose(g, 0.5)

    def test_zero_raw_film_identity(self):
        w = random_slow("film", 2, seed=0)
        alpha, beta = warmup_packet(w, "film")
        assert np.allclose(alpha, 1.0) and np.allclose(beta, 0.0)

    def test_stable_across_calls(self):
        w = random_slow("ssmm", 2, seed=5)
        w.warmup_packet_raw[...] = np.random.default_rng(6).standard_normal(8)
        a1, g1 = warmup_packet(w, "ssmm")
        a2, g2 = warmup_packet(w, "ssmm")
        assert np.array_equal(a1, a2) and np.array_equal(g1, g2)
