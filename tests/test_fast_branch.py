"""Fast-branch steps: recurrence, modulation variants, stability, linearity.

Steps take the state and the packet as plain arrays: a packet is the tuple
of its variant's fields in VARIANTS order, (a, g), (alpha, beta) or (e,).
"""

import dataclasses

import numpy as np
import pytest

from slowfast_se.engine import SlowFastConfig, StreamSession, init_model_weights
from slowfast_se.fast_branch import (
    VARIANTS,
    FastBranchWeights,
    _group_sums,
    ec_step,
    film_step,
    packet_size,
    ssmm_step,
)
from slowfast_se.slow_branch import activate_head


def identity_weights(l_f, h, h_out=None):
    h_out = h_out or h
    return FastBranchWeights(
        f_in_w=np.eye(l_f, h), f_in_b=np.zeros(h),
        f_out_w=np.eye(h_out, l_f), f_out_b=np.zeros(l_f),
    )


def random_weights(variant, seed):
    """The fast branch of a freshly initialised l_f=4, h=3 model."""
    cfg = SlowFastConfig(variant, l_f=4, delta_f=2, reuse=2, h=3, gru_width=4, gru_layers=1)
    return init_model_weights(cfg, seed).fast


def assert_variant_checked_once(variant, weights_of):
    """Steps do not check the packet's variant: a session takes its packets
    from its own variant's head and binds its step once, so a mismatch must
    fail when the session is built, before any push."""
    cfg = SlowFastConfig(variant, l_f=4, delta_f=2, reuse=2, h=3, gru_width=4, gru_layers=1)
    other = init_model_weights(dataclasses.replace(cfg, variant=weights_of))
    with pytest.raises(ValueError, match="weight"):
        StreamSession(other, cfg)
    forged = dataclasses.replace(cfg)
    object.__setattr__(forged, "variant", "bogus")
    with pytest.raises(ValueError, match="unknown variant"):
        StreamSession(init_model_weights(cfg), forged)
    StreamSession(init_model_weights(cfg), cfg)  # the matching pair builds


class TestSsmmStep:
    def test_recurrence_sequence(self):
        # H=1 identity pipe, A=0.5, g=1, inputs 1,1,1 -> states 1, 1.5, 1.75
        w = identity_weights(1, 1)
        p = (np.array([0.5]), np.array([1.0]))  # a, g
        state = np.zeros(1)
        seen = []
        for _ in range(3):
            state, _ = ssmm_step(state, np.array([1.0]), p, w)
            seen.append(state[0])
        assert seen == [1.0, 1.5, 1.75]

    def test_zero_transition_is_memoryless(self):
        rng = np.random.default_rng(0)
        w = random_weights("ssmm", seed=0)
        p = (np.zeros(3), rng.uniform(0.2, 0.9, 3))
        x = rng.standard_normal(4)
        _, y1 = ssmm_step(rng.standard_normal(3), x, p, w)
        _, y2 = ssmm_step(rng.standard_normal(3), x, p, w)
        assert np.array_equal(y1, y2)

    def test_zero_gate_ignores_input(self):
        rng = np.random.default_rng(1)
        w = random_weights("ssmm", seed=1)
        a, g = rng.uniform(0.1, 0.9, 3), np.zeros(3)
        p = (a, g)
        h0 = rng.standard_normal(3)
        _, y1 = ssmm_step(h0.copy(), rng.standard_normal(4), p, w)
        _, y2 = ssmm_step(h0.copy(), rng.standard_normal(4), p, w)
        assert np.array_equal(y1, y2)
        assert np.allclose(y1, (a * h0) @ w.f_out_w + w.f_out_b)

    def test_variant_mismatch(self):
        assert_variant_checked_once("ssmm", weights_of="ec")

    def test_bounded_state_property(self):
        # |h| <= B / (1 - a_max) for any bounded input stream
        rng = np.random.default_rng(2)
        w = identity_weights(3, 3)
        a_max = 0.9
        p = (np.full(3, a_max), np.full(3, 1.0))
        bound = 1.0 / (1.0 - a_max)
        state = np.zeros(3)
        for _ in range(500):
            x = rng.uniform(-1.0, 1.0, 3)
            state, _ = ssmm_step(state, x, p, w)
            assert np.all(np.abs(state) <= bound + 1e-12)

    def test_linearity_in_state_and_input(self):
        # superposition for a fixed packet, to near machine precision
        rng = np.random.default_rng(3)
        w = random_weights("ssmm", seed=3)
        w.f_in_b[...] = 0.0
        w.f_out_b[...] = 0.0
        p = (rng.uniform(0.1, 0.9, 3), rng.uniform(0.1, 0.9, 3))
        h1, x1 = rng.standard_normal(3), rng.standard_normal(4)
        h2, x2 = rng.standard_normal(3), rng.standard_normal(4)
        s_sum, y_sum = ssmm_step(h1 + h2, x1 + x2, p, w)
        s_a, y_a = ssmm_step(h1, x1, p, w)
        s_b, y_b = ssmm_step(h2, x2, p, w)
        assert np.allclose(s_sum, s_a + s_b, atol=1e-12)
        assert np.allclose(y_sum, y_a + y_b, atol=1e-12)


class TestFilmStep:
    def test_identity_modulation(self):
        rng = np.random.default_rng(4)
        w = random_weights("film", seed=4)
        p = (np.ones(3), np.zeros(3))  # alpha, beta
        x = rng.standard_normal(4)
        h = np.zeros(3)
        state, got = film_step(h, x, p, w)
        assert state is h  # stateless: the state passes through
        assert np.allclose(got, (x @ w.f_in_w + w.f_in_b) @ w.f_out_w + w.f_out_b)

    def test_zero_scale_ignores_input(self):
        rng = np.random.default_rng(5)
        w = random_weights("film", seed=5)
        p = (np.zeros(3), rng.standard_normal(3))
        _, y1 = film_step(np.zeros(3), rng.standard_normal(4), p, w)
        _, y2 = film_step(np.zeros(3), rng.standard_normal(4), p, w)
        assert np.array_equal(y1, y2)

    def test_affine_map_by_hand(self):
        # H=1 identity pipe: alpha=2, beta=1, x=3 -> 7
        w = identity_weights(1, 1)
        p = (np.array([2.0]), np.array([1.0]))
        assert film_step(np.zeros(1), np.array([3.0]), p, w)[1][0] == 7.0

    def test_variant_mismatch(self):
        assert_variant_checked_once("film", weights_of="ec")


class TestEcStep:
    def test_zero_embedding_columns_reduce_to_pipe(self):
        rng = np.random.default_rng(6)
        w = random_weights("ec", seed=6)
        w.f_out_w[3:, :] = 0.0  # kill the embedding half of f_out
        p = (rng.standard_normal(3),)  # e
        x = rng.standard_normal(4)
        h = np.zeros(3)
        state, got = ec_step(h, x, p, w)
        assert state is h  # stateless: the state passes through
        expected = (x @ w.f_in_w + w.f_in_b) @ w.f_out_w[:3] + w.f_out_b
        assert np.allclose(got, expected)

    def test_zero_input_depends_only_on_embedding(self):
        rng = np.random.default_rng(7)
        w = random_weights("ec", seed=7)
        w.f_in_b[...] = 0.0
        e = rng.standard_normal(3)
        p = (e,)
        _, got = ec_step(np.zeros(3), np.zeros(4), p, w)
        assert np.allclose(got, np.concatenate([np.zeros(3), e]) @ w.f_out_w + w.f_out_b)

    def test_concatenated_sum_by_hand(self):
        # H=1, f_out sums its two inputs: x=2, e=3 -> 5
        w = FastBranchWeights(
            f_in_w=np.eye(1), f_in_b=np.zeros(1),
            f_out_w=np.array([[1.0], [1.0]]), f_out_b=np.zeros(1),
        )
        p = (np.array([3.0]),)
        assert ec_step(np.zeros(1), np.array([2.0]), p, w)[1][0] == 5.0

    def test_variant_mismatch(self):
        assert_variant_checked_once("ec", weights_of="ssmm")


class TestModulationPacket:
    # a packet is made only by the head activation, which checks it against
    # its variant's fields once per slow frame; steps take it unchecked
    def test_field_variant_consistency_enforced(self):
        with pytest.raises(ValueError):
            activate_head(np.zeros(5), "ssmm")  # no (a, g) halves
        with pytest.raises(ValueError):
            activate_head(np.zeros(3), "film")  # no (alpha, beta) halves
        with pytest.raises(ValueError):
            activate_head(np.zeros((2, 4)), "ec")  # one packet is 1-D
        assert [len(f) for f in activate_head(np.zeros(6), "film")] == [3, 3]
        assert [len(f) for f in activate_head(np.zeros(3), "ec")] == [3]

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            activate_head(np.zeros(2), "bogus")
        with pytest.raises(ValueError):
            packet_size("bogus", 2)


# The per-frame loops the batched kernels replaced: the references they must
# match, one frame and one packet row at a time. Arrays are time-major: u,
# dfeat and feat (NF, B, .), the packet's arrays (G, B, H).
def reference_ssmm_modulate(u, p, groups):
    a, g = p
    feat = np.empty_like(u)
    h = np.zeros(u.shape[1:])
    for i, k in enumerate(groups):
        h = a[k] * h + g[k] * u[i]
        feat[i] = h
    return feat


def reference_ssmm_adjoint(dfeat, u, p, groups, feat):
    a, g = p
    da, dg, du = np.zeros(a.shape), np.zeros(g.shape), np.empty_like(u)
    carry = np.zeros(u.shape[1:])
    for i in range(len(groups) - 1, -1, -1):
        k = groups[i]
        dh = dfeat[i] + carry
        h_prev = feat[i - 1] if i > 0 else 0.0
        da[k] += dh * h_prev
        dg[k] += dh * u[i]
        du[i] = dh * g[k]
        carry = dh * a[k]
    return du, np.concatenate([da * a * (1.0 - a), dg * g * (1.0 - g)], axis=-1)


def reference_film_modulate(u, p, groups):
    alpha, beta = p
    return np.stack([alpha[k] * u[i] + beta[k] for i, k in enumerate(groups)])


def reference_film_adjoint(dfeat, u, p, groups, feat):
    alpha, _ = p
    d_alpha, d_beta, du = np.zeros(alpha.shape), np.zeros(alpha.shape), np.empty_like(u)
    for i in range(len(groups) - 1, -1, -1):
        k = groups[i]
        d_alpha[k] += dfeat[i] * u[i]
        d_beta[k] += dfeat[i]
        du[i] = dfeat[i] * alpha[k]
    return du, np.concatenate([d_alpha, d_beta], axis=-1)


def reference_ec_modulate(u, p, groups):
    return np.stack([np.concatenate([u[i], p[0][k]], axis=-1) for i, k in enumerate(groups)])


def reference_ec_adjoint(dfeat, u, p, groups, feat):
    h = u.shape[-1]
    de = np.zeros(p[0].shape)
    for i in range(len(groups) - 1, -1, -1):
        de[groups[i]] += dfeat[i, :, h:]
    return dfeat[..., :h], de


def scan_inputs(b, nf, h, reuse, seed):
    rng = np.random.default_rng(seed)
    groups = np.arange(nf) // reuse
    n_rows = groups[-1] + 1
    a, g = rng.uniform(0.05, 0.95, (2, n_rows, b, h))
    return rng.standard_normal((nf, b, h)), (a, g), groups, rng.standard_normal((nf, b, h))


def head_inputs(variant, b, nf, h, reuse, seed):
    """u, the packet its head makes of a random raw table, groups, and dfeat."""
    rng = np.random.default_rng(seed)
    groups = np.arange(nf) // reuse
    row = VARIANTS[variant]
    raw = rng.standard_normal((groups[-1] + 1, b, h * len(row.fields)))
    dfeat = rng.standard_normal((nf, b, h * row.feat_width))
    return rng.standard_normal((nf, b, h)), row.head(raw), groups, dfeat


def assert_close_relative(got, want, rel):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


# (B, NF, H, reuse): 2 ms reuse 3 with a ragged last group, reuse 1, a
# sample-level shape, one clip, and a single frame
SCAN_SHAPES = [(3, 20, 5, 3), (2, 7, 4, 1), (2, 70, 8, 16), (1, 11, 3, 4), (2, 1, 3, 3)]
REFERENCES = {
    "film": (reference_film_modulate, reference_film_adjoint),
    "ec": (reference_ec_modulate, reference_ec_adjoint),
}


class TestBatchedModulation:
    @pytest.mark.parametrize("shape", SCAN_SHAPES)
    def test_ssmm_modulate_equals_per_frame_loop(self, shape):
        b, nf, h, reuse = shape
        u, p, groups, _ = scan_inputs(b, nf, h, reuse, seed=nf)
        feat = VARIANTS["ssmm"].modulate(u, p, groups)
        assert np.array_equal(feat, reference_ssmm_modulate(u, p, groups))

    @pytest.mark.parametrize("shape", SCAN_SHAPES)
    def test_ssmm_adjoint_matches_per_frame_loop(self, shape):
        b, nf, h, reuse = shape
        u, p, groups, dfeat = scan_inputs(b, nf, h, reuse, seed=nf + 1)
        feat = reference_ssmm_modulate(u, p, groups)
        # the adjoint owns its first argument and may overwrite it
        du, d_raw = VARIANTS["ssmm"].adjoint(dfeat.copy(), u, p, groups, feat)
        want_du, want_raw = reference_ssmm_adjoint(dfeat, u, p, groups, feat)
        assert_close_relative(du, want_du, 1e-12)
        assert_close_relative(d_raw, want_raw, 1e-12)

    @pytest.mark.parametrize("variant", ["film", "ec"])
    @pytest.mark.parametrize("shape", SCAN_SHAPES)
    def test_stateless_modulate_equals_per_frame_loop(self, variant, shape):
        b, nf, h, reuse = shape
        u, p, groups, _ = head_inputs(variant, b, nf, h, reuse, seed=nf + 2)
        feat = VARIANTS[variant].modulate(u, p, groups)
        assert feat.flags.c_contiguous
        assert np.array_equal(feat, REFERENCES[variant][0](u, p, groups))

    @pytest.mark.parametrize("variant", ["film", "ec"])
    @pytest.mark.parametrize("shape", SCAN_SHAPES)
    def test_stateless_adjoint_matches_per_frame_loop(self, variant, shape):
        b, nf, h, reuse = shape
        u, p, groups, dfeat = head_inputs(variant, b, nf, h, reuse, seed=nf + 3)
        feat = REFERENCES[variant][0](u, p, groups)
        du, d_raw = VARIANTS[variant].adjoint(dfeat.copy(), u, p, groups, feat)
        want_du, want_raw = REFERENCES[variant][1](dfeat, u, p, groups, feat)
        assert np.array_equal(du, want_du)
        assert np.array_equal(d_raw, want_raw)

    @pytest.mark.parametrize("groups", [[0, 0, 0, 1, 1, 1, 2], [0, 1, 2], [0, 0, 1, 1, 2, 2], [0]])
    def test_group_sums_add_each_group_of_frames(self, groups):
        groups = np.array(groups)
        x = np.random.default_rng(len(groups)).standard_normal((len(groups), 2, 3))
        want = np.stack([x[groups == k].sum(0) for k in range(groups[-1] + 1)])
        assert_close_relative(_group_sums(x, groups), want, 1e-15)
