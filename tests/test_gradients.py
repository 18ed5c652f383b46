"""Analytic BPTT gradients against the central-difference oracle."""

import functools
import weakref

import numpy as np
import pytest

from slowfast_se import slow_branch
from slowfast_se.engine import (
    SlowFastConfig,
    _model,
    enhance_offline,
    init_model_weights,
    named_arrays,
    sample_level_config,
    two_ms_config,
)
from slowfast_se.slow_branch import trunk_step
from slowfast_se.training import backprop
from slowfast_se.training.backprop import NonFiniteLossError, backward, forward_batch
from slowfast_se.signal_io import frame_signal, make_window
from slowfast_se.training.losses import LossWeights, StftParams

TINY = dict(l_f=4, delta_f=2, reuse=2, h=3, gru_width=6, gru_layers=2)
# one sample per fast frame: f_in has one input row and f_out one output column
ONE_SAMPLE = dict(l_f=1, delta_f=1, reuse=4, h=3, gru_width=6, gru_layers=2)
VARIANTS = ["ssmm", "film", "ec"]
FD_STEP = 1e-5
TOLERANCE = 1e-4


def tiny_config(variant):
    return SlowFastConfig(variant=variant, **TINY)


def randomized_weights(config, seed):
    """Weights at a generic point so no gradient sits under the fd noise floor."""
    weights = init_model_weights(config, seed=seed)
    rng = np.random.default_rng(seed + 1000)
    for _, arr in named_arrays(weights):
        arr[...] = rng.uniform(-0.6, 0.6, arr.shape)
    return weights


def tiny_batch(n=22, b=2, seed=11):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((b, n)) * 0.5, rng.standard_normal((b, n)) * 0.5


def central_difference(weights, arr, idx, batch, config, lw, sp):
    orig = arr[idx]
    arr[idx] = orig + FD_STEP
    lp, _ = backward(batch, weights, config, lw, sp)
    arr[idx] = orig - FD_STEP
    lm, _ = backward(batch, weights, config, lw, sp)
    arr[idx] = orig
    return (lp - lm) / (2.0 * FD_STEP)


@pytest.mark.parametrize("variant, geometry", [
    *(pytest.param(v, TINY, id=v) for v in VARIANTS),
    *(pytest.param(v, ONE_SAMPLE, id=f"{v}-one_sample") for v in VARIANTS)])
def test_every_weight_array_matches_finite_differences(variant, geometry):
    config = SlowFastConfig(variant=variant, **geometry)
    weights = randomized_weights(config, seed=7)
    batch = tiny_batch()
    lw = LossWeights(spec_mse=1.0, sisnr=0.3)
    sp = StftParams(fft_size=8, hop=4)
    _, grads = backward(batch, weights, config, lw, sp)
    for name, arr in named_arrays(weights):
        analytic = grads[name]
        numeric = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            numeric[it.multi_index] = central_difference(
                weights, arr, it.multi_index, batch, config, lw, sp
            )
        denom = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-8)
        rel = np.max(np.abs(analytic - numeric) / denom)
        assert rel < TOLERANCE, f"{name}: rel err {rel:.3e}"


@pytest.mark.parametrize("variant", ["ssmm", "film", "ec"])
def test_spec_only_loss_leaves_untouched_weights_at_zero(variant):
    # with a short clip every fast frame is warm-up, so the whole GRU trunk
    # and head never run and their gradients are exactly zero
    config = SlowFastConfig(variant=variant, l_f=4, delta_f=2, reuse=4, h=3,
                            gru_width=6, gru_layers=2)
    weights = randomized_weights(config, seed=3)
    rng = np.random.default_rng(5)
    short = 5  # N_F = 4 = reuse, so every frame uses packet index -1
    assert config.num_fast_frames(short) == config.reuse
    batch = (rng.standard_normal((1, short)), rng.standard_normal((1, short)))
    lw = LossWeights(spec_mse=1.0, sisnr=0.0)
    _, grads = backward(batch, weights, config, lw, StftParams(fft_size=4, hop=2))
    for name in grads:
        if name.startswith("slow.") and name != "slow.warmup_raw":
            assert np.all(grads[name] == 0.0), name
    assert np.any(grads["slow.warmup_raw"] != 0.0)
    assert np.any(grads["fast.f_in.w"] != 0.0)


def test_warmup_gradient_flows_when_warmup_frames_exist():
    config = tiny_config("film")
    weights = randomized_weights(config, seed=9)
    batch = tiny_batch(n=40, b=1, seed=13)
    _, grads = backward(
        batch, weights, config, LossWeights(1.0, 0.1), StftParams(fft_size=8, hop=4)
    )
    assert np.any(grads["slow.warmup_raw"] != 0.0)
    assert np.any(grads["slow.fc_in.w"] != 0.0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_loss_raises_with_diagnostics():
    config = tiny_config("ssmm")
    weights = randomized_weights(config, seed=1)
    weights.fast.f_out_w[...] = 1e200  # provoke overflow
    batch = tiny_batch()
    with pytest.raises(NonFiniteLossError) as err:
        backward(batch, weights, config, LossWeights(1.0, 0.0), StftParams(8, 4))
    assert "max_abs_output" in str(err.value)


class TestForwardConsistency:
    @pytest.mark.parametrize("variant", ["ssmm", "film", "ec"])
    def test_training_forward_matches_streaming_engine(self, variant):
        # two independent implementations of the same unrolled graph; sample
        # level has one f_out column and one clip one row per frame
        rng = np.random.default_rng(22)
        for config, clips in ((two_ms_config(3, variant), 2),
                              (sample_level_config(variant), 2),
                              (two_ms_config(3, variant), 1)):
            weights = init_model_weights(config, seed=21)
            x = rng.standard_normal((clips, 2500)) * 0.4
            batched, _ = forward_batch(x, weights, config)
            for row in range(clips):
                single = enhance_offline(x[row], weights, config).samples
                assert np.max(np.abs(batched[row] - single)) < 1e-10

    def test_weights_of_another_geometry_rejected_on_entry(self):
        # checked once against the config, not left to fail inside a product
        weights = init_model_weights(two_ms_config(3, "ssmm"), seed=0)
        x = np.random.default_rng(4).standard_normal((1, 200)) * 0.3
        with pytest.raises(ValueError, match="weight"):
            forward_batch(x, weights, tiny_config("ssmm"))

    def test_tiny_config_consistency(self):
        config = tiny_config("ssmm")
        weights = randomized_weights(config, seed=2)
        x = np.random.default_rng(3).standard_normal((1, 50)) * 0.3
        batched, _ = forward_batch(x, weights, config)
        single = enhance_offline(x[0], weights, config).samples
        assert np.max(np.abs(batched[0] - single)) < 1e-10


class TestTimeMajorLayout:
    """Training runs time-major from framing to loss: the windowed frames, f_in
    outputs and f_out inputs are C-contiguous (NF, B, .) arrays, so the
    weight-gradient products flatten them without a copy."""

    @pytest.mark.parametrize("variant", ["ssmm", "film", "ec"])
    def test_cached_frames_are_contiguous_and_flatten_without_a_copy(self, monkeypatch, variant):
        config = tiny_config(variant)
        weights = randomized_weights(config, seed=8)
        batch = tiny_batch(n=23, b=3, seed=9)
        n_fast = config.num_fast_frames(23)
        caches, products = [], []

        # backward drops the cache's arrays as it spends them, so they are
        # read when forward_batch returns
        def spy_forward(*args):
            out, cache = forward_batch(*args)
            caches.append(cache)
            return out, cache

        def spy_product(x, dy):
            products.append((x, dy))
            return frame_product(x, dy)

        frame_product = backprop._frame_product
        monkeypatch.setattr(backprop, "forward_batch", spy_forward)
        monkeypatch.setattr(backprop, "_frame_product", spy_product)
        backward(batch, weights, config, LossWeights(1.0, 0.3), StftParams(4, 2))
        [cache] = caches
        # f_out's and f_in's products: the cached f_out inputs, the windowed
        # frames framed again, and the frame gradients; ec's du is a column
        # slice of its f_out gradient
        (feat, dy), (frames, du) = products[:2]
        width = {"ssmm": 1, "film": 1, "ec": 2}[variant] * config.h
        n_slow = (n_fast - 1) // config.reuse
        for arr, shape in ((frames, (n_fast, 3, config.l_f)),
                           (cache.u, (n_fast, 3, config.h)), (cache.feat, (n_fast, 3, width)),
                           (cache.top, (n_slow, 3, config.gru_width))):
            assert arr.shape == shape and arr.flags.c_contiguous
        window = make_window(config.l_f)
        want = frame_signal(batch[0], config.l_f, config.delta_f, config.fast_pad, n_fast)
        assert feat is cache.feat and np.array_equal(frames, want.swapaxes(0, 1) * window)
        for arr in (feat, dy, frames) + ((du,) if variant != "ec" else ()):
            assert np.shares_memory(arr.reshape(-1, arr.shape[-1]), arr)


class TestLifetimes:
    """``backward`` drops each array once its last reader returns: the trunk's
    backward runs with only the trunk's cache alive, which holds no gates,
    and frees each segment's rebuilt gates before it rebuilds the next."""

    @pytest.mark.parametrize("variant", ["ssmm", "film", "ec"])
    def test_trunk_backward_starts_with_the_fast_branch_freed(self, monkeypatch, variant):
        config = tiny_config(variant)
        weights = randomized_weights(config, seed=8)
        batch = tiny_batch(n=23, b=3, seed=9)
        refs = {}

        def spy_forward(*args):
            out, cache = forward_batch(*args)
            refs.update(s_hat=weakref.ref(out), u=weakref.ref(cache.u),
                        feat=weakref.ref(cache.feat),
                        **{f"packet{i}": weakref.ref(p) for i, p in enumerate(cache.packet)})
            return out, cache

        def spy_loss(*args):
            loss, d_s_hat = total_loss_grad(*args)
            refs["d_s_hat"] = weakref.ref(d_s_hat)
            return loss, d_s_hat

        def spy_product(x, dy):
            refs.update({f"product{len(products)}.x": weakref.ref(x),
                         f"product{len(products)}.dy": weakref.ref(dy)})
            if dy.base is not None:  # the head's rows of backward's packet gradient table
                refs[f"product{len(products)}.dy.base"] = weakref.ref(dy.base)
            products.append(len(products))
            return frame_product(x, dy)

        def spy_adjoint(dfeat, *args):
            refs["d_feat"] = weakref.ref(dfeat)
            du, d_fields = adjoint(dfeat, *args)
            assert len(d_fields) == len(backprop.VARIANTS[variant].fields)
            refs.update(du=weakref.ref(du),
                        **{f"d_field{i}": weakref.ref(d) for i, d in enumerate(d_fields)})
            return du, d_fields

        def spy_trunk_backward(*args):
            # the products of f_out (feat, dy), f_in (frames, du) and the
            # head (top, its rows of the draw table) have run
            assert products == [0, 1, 2]
            assert {"du", "d_feat", "d_field0", "product2.dy.base"} <= set(refs)
            alive = sorted(key for key, ref in refs.items() if ref() is not None)
            assert alive == [], alive
            entered.append(True)
            return trunk_backward(*args)

        total_loss_grad, frame_product = backprop.total_loss_grad, backprop._frame_product
        adjoint, trunk_backward = backprop.VARIANTS[variant].adjoint, backprop._trunk_backward
        entered, products = [], []
        monkeypatch.setattr(backprop, "forward_batch", spy_forward)
        monkeypatch.setattr(backprop, "total_loss_grad", spy_loss)
        monkeypatch.setattr(backprop, "_frame_product", spy_product)
        monkeypatch.setattr(backprop, "_trunk_backward", spy_trunk_backward)
        monkeypatch.setitem(backprop.VARIANTS, variant,
                            backprop.VARIANTS[variant]._replace(adjoint=spy_adjoint))
        backward(batch, weights, config, LossWeights(1.0, 0.3), StftParams(4, 2))
        assert entered == [True]

    @pytest.mark.parametrize("variant", ["ssmm", "film"])
    def test_head_table_dies_once_the_packet_exists(self, monkeypatch, variant):
        # ec's packet is the head table itself, so it has no table to drop
        config = tiny_config(variant)
        weights = randomized_weights(config, seed=8)
        x = tiny_batch(n=23, b=3, seed=9)[0]
        refs, modulated = {}, []

        def spy_head(raw):
            refs["raw"] = weakref.ref(raw)
            return row.head(raw)

        def spy_modulate(*args):
            assert refs["raw"]() is None
            modulated.append(True)
            return row.modulate(*args)

        row = backprop.VARIANTS[variant]
        monkeypatch.setitem(backprop.VARIANTS, variant,
                            row._replace(head=spy_head, modulate=spy_modulate))
        forward_batch(x, weights, config)
        assert modulated == [True]

    @pytest.mark.parametrize("variant", ["ssmm", "film", "ec"])
    def test_no_cell_output_but_states_outlives_the_forward(self, monkeypatch, variant):
        # the trunk forward copies each cell's h' into its rolling row (the
        # top layer's also into top) and keeps no gate, so h' and the z|r, n
        # and U h it was made of are dead on return
        config = SlowFastConfig(variant=variant, l_f=4, delta_f=2, reuse=2, h=3,
                                gru_width=4, gru_layers=3)
        weights = randomized_weights(config, seed=8)
        x = tiny_batch(n=23, b=3, seed=9)[0]
        refs = []

        def spy_gates(*args):
            out = gates(*args)
            refs.append([weakref.ref(arr) for arr in out])
            return out

        def spy_cell(*args):
            out = cell(*args)
            refs[-1].append(weakref.ref(out))
            return out

        cell, gates = backprop._gru_cell, slow_branch._gru_gates
        monkeypatch.setattr(backprop, "_gru_cell", spy_cell)
        monkeypatch.setattr(slow_branch, "_gru_gates", spy_gates)
        _, cache = forward_batch(x, weights, config)
        assert len(refs) == len(cache.top) + config.gru_layers - 1 > config.gru_layers
        assert all(len(step) == 4 for step in refs)
        alive = [(t, i) for t, step in enumerate(refs) for i, ref in enumerate(step)
                 if ref() is not None]
        assert alive == [], alive

    @pytest.mark.parametrize("variant", ["ssmm", "film", "ec"])
    def test_each_steps_gates_die_before_the_step_below_runs(self, monkeypatch, variant):
        # the reverse wavefront rebuilds one segment's gates, runs that
        # segment's adjoints, and frees the gates before it rebuilds the
        # segment below; no rebuild runs outside it
        config = SlowFastConfig(variant=variant, l_f=4, delta_f=2, reuse=2, h=3,
                                gru_width=4, gru_layers=3)
        weights = randomized_weights(config, seed=8)
        batch = tiny_batch(n=23, b=3, seed=9)
        entered, events, segments = [], [], []

        def spy_gates(*args):
            assert entered, "a rebuild ran outside the reverse wavefront"
            if not events or events[-1] != "gates":  # the first rebuild of a segment
                assert events.count("gates") == events.count("adjoint")
                alive = [(i, t, k) for i, segment in enumerate(segments)
                         for t, step in enumerate(segment)
                         for k, ref in enumerate(step) if ref() is not None]
                assert alive == [], alive
                segments.append([])
            events.append("gates")
            out = gates(*args)
            segments[-1].append([weakref.ref(arr) for arr in out])
            return out

        def spy_trunk_backward(*args):
            entered.append(True)
            return trunk_backward(*args)

        def spy_gru_backward(*args):
            events.append("adjoint")
            return gru_backward(*args)

        gates, gru_backward = backprop._gru_gates, backprop._gru_backward
        trunk_backward = backprop._trunk_backward
        monkeypatch.setattr(backprop, "_gru_gates", spy_gates)
        monkeypatch.setattr(backprop, "_gru_backward", spy_gru_backward)
        monkeypatch.setattr(backprop, "_trunk_backward", spy_trunk_backward)
        backward(batch, weights, config, LossWeights(1.0, 0.3), StftParams(4, 2))
        steps = events.count("gates")
        sizes = [min(SEGMENT, steps - first) for first in reversed(range(0, steps, SEGMENT))]
        assert steps > config.gru_layers and len(sizes) > 1
        assert [len(segment) for segment in segments] == sizes
        assert events == [e for n in sizes for e in ["gates"] * n + ["adjoint"] * n]
        assert all(ref() is None for segment in segments for step in segment for ref in step)


SEGMENT = backprop.SEGMENT_STEPS


def rebuild_order(steps):
    """The wavefront step of each rebuild, in the order the backward runs
    them: the last segment first, each segment's steps in forward order."""
    return [t for first in reversed(range(0, steps, SEGMENT))
            for t in range(first, min(first + SEGMENT, steps))]


@functools.cache
def wavefront_cells(batch, width):
    """Per wavefront step of one ``backward``: (lo, hi), the forward cell's
    h' and the gates it was made of, the gates of that step's rebuild, and
    the h' the rebuild wrote into the next row (None for a segment's last
    step, whose h' the next checkpoint holds), at 4 layers and 7 slow
    frames, so the steps cover both ramps, the full stack and a segment cut
    short."""
    config = SlowFastConfig(variant="ssmm", l_f=4, delta_f=2, reuse=4, h=3,
                            gru_width=width, gru_layers=4)
    weights = randomized_weights(config, seed=width)
    clips = tiny_batch(n=clip_of_slow_frames(config, 7), b=batch, seed=batch)
    cells, forward_gates, rebuilds, updates = [], [], [], []

    def spy(fn, outputs):
        def spied(*args, **kwargs):
            out = fn(*args, **kwargs)
            outputs.append(out)
            return out
        return spied

    def spy_update(*args, out):
        # the rebuild writes h' into a row it overwrites later: copy it
        updates.append((len(rebuilds), backprop_update(*args, out=out).copy()))
        return out

    backprop_update = backprop._gru_update
    with pytest.MonkeyPatch.context() as mp:
        # the forward's cell makes its gates through slow_branch's name,
        # the rebuild through backprop's
        mp.setattr(backprop, "_gru_cell", spy(backprop._gru_cell, cells))
        mp.setattr(slow_branch, "_gru_gates", spy(slow_branch._gru_gates, forward_gates))
        mp.setattr(backprop, "_gru_gates", spy(backprop._gru_gates, rebuilds))
        mp.setattr(backprop, "_gru_update", spy_update)
        backward(clips, weights, config, LossWeights(1.0, 0.3), StftParams(4, 2))
    steps = list(backprop._wavefront(7, 4))
    assert len(cells) == len(forward_gates) == len(rebuilds) == len(steps) == 10
    order = rebuild_order(len(steps))
    # each update follows its step's rebuild
    rebuilt_h = dict((order[i - 1], h) for i, h in updates)
    assert len(rebuilt_h) == len(steps) - len(range(0, len(steps), SEGMENT))
    rebuilt = {t: rebuilds[i] for i, t in enumerate(order)}
    return [((lo, hi), cells[t], forward_gates[t], rebuilt[t], rebuilt_h.get(t))
            for t, lo, hi in steps]


class TestRebuiltGates:
    """The trunk forward keeps no gates; the reverse wavefront rebuilds each
    segment's steps from its checkpoint with the forward cell's gates and
    update."""

    @pytest.mark.parametrize("batch, width", [(16, 64), (3, 4)], ids=["B16-d64", "tiny"])
    @pytest.mark.parametrize("lo, hi", [(0, 4), (0, 2), (1, 4), (3, 4)],
                             ids=["full", "ramp_up", "ramp_down", "top_only"])
    def test_rebuilt_n_and_uh_n_equal_the_cells_bit_for_bit(self, batch, width, lo, hi):
        matched = [step[1:] for step in wavefront_cells(batch, width) if step[0] == (lo, hi)]
        assert matched
        for h_new, fwd, rebuilt, rebuilt_h in matched:
            # z|r, n and U h of the active layers, and h' where the rebuild made it
            assert h_new.shape == rebuilt[1].shape == (hi - lo, batch, width)
            assert len(rebuilt) == 3
            for want, got in zip(fwd, rebuilt, strict=True):
                assert got.shape == want.shape and np.array_equal(got, want)
            assert rebuilt_h is None or np.array_equal(rebuilt_h, h_new)
        if (lo, hi) == (0, 4):  # 4 full steps, one of them a segment's last
            assert sum(h is None for *_, h in matched) == 1 < len(matched)


def clip_of_slow_frames(config, n_slow):
    """The longest clip length whose batched forward runs ``n_slow`` slow frames."""
    n = 1
    while (config.num_fast_frames(n + 1) - 1) // config.reuse <= n_slow:
        n += 1
    return n


def stack_config(layers, variant="ssmm"):
    # reuse 4 leaves a clip of no slow frame long enough for a 4-point STFT
    return SlowFastConfig(variant=variant, l_f=4, delta_f=2, reuse=4, h=3,
                          gru_width=4, gru_layers=layers)


def rebuilt_rows(xs, config, sw):
    """``_trunk_forward`` of (B, J, LS) slow frames, and every row the
    reverse wavefront rebuilt: (top, checkpoints, rows), where rows[t] maps
    each entry step t read (0 the FC-in output, k + 1 layer k's state) to a
    copy of it. The backward runs on a random top-layer gradient."""
    top, checkpoints = backprop._trunk_forward(xs, sw)
    rows = {}

    def spy_adjoint(x, h_prev, dh, step_gates, w, u, grads):
        t, lo, _ = next(steps)
        rows[t] = {**{lo + i: a.copy() for i, a in enumerate(x)},
                   **{lo + 1 + i: a.copy() for i, a in enumerate(h_prev)}}
        return adjoint(x, h_prev, dh, step_gates, w, u, grads)

    steps = reversed(list(backprop._wavefront(xs.shape[1], config.gru_layers)))
    d_top = np.random.default_rng(0).standard_normal(top.shape)
    grad = _model(config, np.zeros).slow
    adjoint = backprop._gru_backward
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(backprop, "_gru_backward", spy_adjoint)
        backprop._trunk_backward(d_top, xs, checkpoints, sw, grad)
    return top, checkpoints, rows


def assert_trunk_equals_trunk_step(xs, config, sw):
    """The trunk's outputs, and every state at every frame in the rows the
    reverse wavefront rebuilt, equal ``trunk_step`` run frame by frame, bit
    for bit, and each segment starts from its checkpoint."""
    top, checkpoints, rows = rebuilt_rows(xs, config, sw)
    b, n_slow, _ = xs.shape
    layers, width = config.gru_layers, config.gru_width
    assert top.shape == (n_slow, b, width) and top.flags.c_contiguous
    steps = n_slow + layers - 1 if n_slow else 0
    assert checkpoints.shape == (-(-steps // SEGMENT), layers, b, width)
    assert sorted(rows) == list(range(steps))
    hidden = [np.zeros((b, width)) for _ in range(layers)]
    for j in range(n_slow):
        assert np.array_equal(rows[j][0], xs[:, j].dot(sw.fc_in_w) + sw.fc_in_b), j
        want, hidden = trunk_step(xs[:, j], hidden, sw)
        assert np.array_equal(top[j], want), j
        for k, h in enumerate(hidden):
            # layer k ran frame j on step j + k and handed its state to
            # step j + k + 1, which reads it unless that step is past the end
            if j + k + 1 < steps:
                assert np.array_equal(rows[j + k + 1][k + 1], h), (j, k)
    for t in range(0, steps, SEGMENT):  # each segment starts from its checkpoint
        for e, entry in rows[t].items():
            if e:
                assert np.array_equal(checkpoints[t // SEGMENT][e - 1], entry), (t, e)


class TestWavefront:
    """The GRU stack runs as a wavefront: step t runs layer k on slow frame t - k."""

    @pytest.mark.parametrize("layers", [1, 2, 4])
    @pytest.mark.parametrize("extra", ["0", "1", "L-1", "L", "L+5"])
    def test_batched_trunk_equals_per_frame_trunk_step(self, layers, extra):
        n_slow = {"0": 0, "1": 1, "L-1": layers - 1, "L": layers, "L+5": layers + 5}[extra]
        config = stack_config(layers)
        sw = randomized_weights(config, seed=layers).slow
        xs = np.random.default_rng(n_slow).standard_normal((3, n_slow, config.l_s))
        assert_trunk_equals_trunk_step(xs, config, sw)

    # the checkpointed trunk's edges: (layers, slow frames) and the wavefront steps
    EDGES = {
        "no_slow_frames": (2, 0),            # no step
        "fewer_frames_than_layers": (4, 2),  # 5 steps, the last segment cut short
        "steps_not_a_multiple": (2, 6),      # 7 steps, a last segment of one
        "one_full_segment": (2, 2),          # 3 steps
        "one_short_segment": (1, 2),         # 2 steps
    }

    @pytest.mark.parametrize("layers, n_slow", EDGES.values(), ids=EDGES)
    def test_checkpointed_trunk_edges_match_trunk_step_and_finite_differences(
            self, layers, n_slow):
        # the objective sum(top * d_top) has the trunk backward's gradients
        config = stack_config(layers)
        sw = randomized_weights(config, seed=31).slow
        rng = np.random.default_rng(10 * layers + n_slow)
        xs = rng.standard_normal((2, n_slow, config.l_s))
        assert_trunk_equals_trunk_step(xs, config, sw)
        d_top = rng.standard_normal((n_slow, 2, config.gru_width))
        grad = _model(config, np.zeros).slow
        d_in = backprop._trunk_backward(d_top, xs, backprop._trunk_forward(xs, sw)[1], sw, grad)
        assert d_in.shape == d_top.shape
        analytic = {"fc_in_w": backprop._frame_product(xs.swapaxes(0, 1), d_in),
                    "fc_in_b": d_in.sum((0, 1)),
                    **{name: getattr(grad, name) for name in ("gru_w", "gru_u", "gru_b")}}
        for name, want in analytic.items():
            arr = getattr(sw, name)
            numeric = np.zeros_like(arr)
            for idx in np.ndindex(arr.shape):
                orig = arr[idx]
                sides = []
                for value in (orig + FD_STEP, orig - FD_STEP):
                    arr[idx] = value
                    sides.append(np.sum(backprop._trunk_forward(xs, sw)[0] * d_top))
                arr[idx] = orig
                numeric[idx] = (sides[0] - sides[1]) / (2.0 * FD_STEP)
            assert want.shape == arr.shape
            if n_slow == 0:
                assert not np.any(want) and not np.any(numeric), name
                continue
            rel = np.max(np.abs(want - numeric)) / max(np.max(np.abs(numeric)), 1e-6)
            assert rel < TOLERANCE, f"{name}: rel err {rel:.3e}"

    @pytest.mark.parametrize("n_slow", [1, 3])
    def test_gru_arrays_match_finite_differences_below_the_stack_depth(self, n_slow):
        # fewer slow frames than layers: every step is ramp-up or ramp-down.
        # The gap is sized by the array's largest gradient: some entries sit
        # near 1e-7, where the difference quotient's own error is 1e-10, and
        # at one frame the arrays that meet only h_prev = 0 have zero gradients
        config = stack_config(4)
        weights = randomized_weights(config, seed=17)
        batch = tiny_batch(n=clip_of_slow_frames(config, n_slow), seed=19)
        lw, sp = LossWeights(spec_mse=1.0, sisnr=0.3), StftParams(fft_size=4, hop=2)
        _, grads = backward(batch, weights, config, lw, sp)
        checked = 0
        for name, arr in named_arrays(weights):
            if not name.startswith("slow.gru"):
                continue
            analytic = grads[name]
            numeric = np.zeros_like(arr)
            for idx in np.ndindex(arr.shape):
                numeric[idx] = central_difference(weights, arr, idx, batch, config, lw, sp)
            rel = np.max(np.abs(analytic - numeric)) / max(np.max(np.abs(numeric)), 1e-6)
            assert rel < TOLERANCE, f"{name}: rel err {rel:.3e}"
            checked += 1
        assert checked == 4 * 9
        for k in range(4):  # every layer ran its frames
            assert np.any(grads[f"slow.gru{k}.w_n"] != 0.0), k

    @pytest.mark.parametrize("layers,n_slow", [(1, 0), (1, 3), (4, 0), (4, 2), (4, 4), (4, 9)])
    def test_one_stacked_cell_and_adjoint_per_step(self, monkeypatch, layers, n_slow):
        config = stack_config(layers)
        weights = randomized_weights(config, seed=5)
        calls = {"cell": 0, "gates": 0, "adjoint": 0, "update": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        def streaming_cell(*args, **kwargs):
            raise AssertionError("training called the streaming gru_cell_step")

        monkeypatch.setattr(backprop, "_gru_cell", counted("cell", backprop._gru_cell))
        monkeypatch.setattr(backprop, "_gru_gates", counted("gates", backprop._gru_gates))
        monkeypatch.setattr(backprop, "_gru_backward", counted("adjoint", backprop._gru_backward))
        monkeypatch.setattr(slow_branch, "gru_cell_step", streaming_cell)
        monkeypatch.setattr(backprop, "_gru_update", counted("update", backprop._gru_update))
        batch = tiny_batch(n=clip_of_slow_frames(config, n_slow), seed=23)
        _, cache = forward_batch(batch[0], weights, config)
        assert len(cache.top) == n_slow
        steps = n_slow + layers - 1 if n_slow else 0
        assert calls == {"cell": steps, "gates": 0, "adjoint": 0, "update": 0}
        backward(batch, weights, config, LossWeights(1.0, 0.3), StftParams(4, 2))
        # backward's own forward, then one rebuild per adjoint, and an h'
        # for every rebuilt step but a segment's last
        segments = len(range(0, steps, SEGMENT))
        assert calls == {"cell": 2 * steps, "gates": steps, "adjoint": steps,
                         "update": steps - segments}

    def test_wavefront_reads_and_writes_the_stored_stacks(self, monkeypatch):
        # every cell's, rebuild's and adjoint's weight operands are slices of
        # the weights' own stacks; each adjoint runs on its step's rebuilt
        # gates and on the rows they were rebuilt from, whose values are the
        # forward cell's; and every adjoint adds into the gradient set's
        # stacks, whose per-gate entries are the gradients backward returns
        config = stack_config(4)
        weights = randomized_weights(config, seed=5)
        sw = weights.slow
        cells, rebuilds, adjoints = [], [], []

        def copies(arrays):  # the rows roll and are rebuilt, so keep their values
            return [a.copy() for a in arrays]

        def spy_cell(*args):
            cells.append((args, copies(args[:2])))
            return cell(*args)

        def spy_gates(*args):
            out = gates(*args)
            rebuilds.append((args, copies(args[:2]), out))
            return out

        def spy_adjoint(x, h_prev, dh, step_gates, w, u, grads):
            adjoints.append(((x, h_prev, w, u), copies((x, h_prev)), step_gates, grads))
            return adjoint(x, h_prev, dh, step_gates, w, u, grads)

        cell, gates, adjoint = backprop._gru_cell, backprop._gru_gates, backprop._gru_backward
        monkeypatch.setattr(backprop, "_gru_cell", spy_cell)
        monkeypatch.setattr(backprop, "_gru_gates", spy_gates)
        monkeypatch.setattr(backprop, "_gru_backward", spy_adjoint)
        batch = tiny_batch(n=clip_of_slow_frames(config, 6), seed=23)
        _, grads = backward(batch, weights, config, LossWeights(1.0, 0.3), StftParams(4, 2))
        steps = 6 + 4 - 1
        assert len(adjoints) == len(cells) == len(rebuilds) == steps
        rebuilt = dict(zip(rebuild_order(steps), rebuilds, strict=True))
        for i, (operands, values, step_gates, _) in enumerate(adjoints):
            t = steps - 1 - i  # the reverse wavefront's step i is step t
            args, rebuilt_values, out = rebuilt[t]
            assert step_gates is out, t
            for a, b in zip(operands, args[:4], strict=True):
                assert np.shares_memory(a, b) and a.shape == b.shape, t
            for a, b, c in zip(values, rebuilt_values, cells[t][1], strict=True):
                assert np.array_equal(a, b) and np.array_equal(a, c), t
        for x, h, w, u, b in [args for args, _ in cells] + [args for args, *_ in rebuilds]:
            assert np.shares_memory(w, sw.gru_w) and np.shares_memory(u, sw.gru_u)
            assert np.shares_memory(b, sw.gru_b)
        full = adjoints[len(adjoints) // 2][3]  # a step of every layer
        assert full[0].shape == sw.gru_w.shape and full[2].shape == sw.gru_b.shape
        for *_, step in adjoints:
            assert all(np.shares_memory(g, stack) for g, stack in zip(step, full))
        for k in range(4):
            for f in slow_branch.GRU_FIELDS:
                stack = full["wub".index(f[0])]
                assert np.shares_memory(grads[f"slow.gru{k}.{f}"], stack), (k, f)
