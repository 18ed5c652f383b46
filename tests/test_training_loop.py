"""Optimizer, schedule mechanics, determinism, divergence handling."""

import csv
import dataclasses
import weakref

import numpy as np
import pytest

from slowfast_se.engine import (
    SlowFastConfig,
    init_model_weights,
    named_arrays,
    sample_level_config,
    two_ms_config,
)
from slowfast_se.training import LossWeights, StftParams, forward_batch, loop, make_batch, sisnr
from slowfast_se.training.loop import (
    STAGE1_PLATEAU,
    STAGE2_PLATEAU,
    AdamOptimizer,
    TrainingDivergedError,
    TrainSchedule,
    _lr_controller,
    clip_gradients,
    passthrough_start,
    train,
    write_log_csv,
)


def tiny_config(variant="ssmm"):
    # full-rate geometry (so 1 s clips stay cheap) with a scaled-down trunk
    return SlowFastConfig(variant=variant, l_f=32, delta_f=16, reuse=2, h=8,
                          gru_width=8, gru_layers=1)


def tiny_schedule(**overrides):
    defaults = dict(
        stage1_epochs=3, stage2_epochs=2, batch_size=4, train_pairs=8,
        eval_pairs=4, seed=0,
    )
    defaults.update(overrides)
    return TrainSchedule(**defaults)


class TestAdam:
    def test_single_step_magnitude(self):
        # with constant gradient g, the first Adam step is ~ -lr * sign(g)
        cfg = tiny_config()
        w = init_model_weights(cfg, seed=0)
        before = {name: arr.copy() for name, arr in named_arrays(w)}
        grads = {name: np.ones_like(arr) for name, arr in named_arrays(w)}
        AdamOptimizer(w).step(w, grads, lr=0.01)
        for name, arr in named_arrays(w):
            delta = arr - before[name]
            assert np.allclose(delta, -0.01, atol=1e-6), name

    def test_moments_persist(self):
        cfg = tiny_config()
        w = init_model_weights(cfg, seed=0)
        opt = AdamOptimizer(w)
        grads = {name: np.ones_like(arr) for name, arr in named_arrays(w)}
        opt.step(w, grads, lr=0.01)
        assert opt.t == 1
        opt.step(w, grads, lr=0.01)
        assert opt.t == 2


class TestClip:
    def test_noop_below_threshold(self):
        grads = {"a": np.array([3.0]), "b": np.array([4.0])}  # norm 5
        norm = clip_gradients(grads, max_norm=10.0)
        assert norm == pytest.approx(5.0)
        assert grads["a"][0] == 3.0

    def test_scales_above_threshold(self):
        grads = {"a": np.array([30.0]), "b": np.array([40.0])}  # norm 50
        clip_gradients(grads, max_norm=5.0)
        total = np.sqrt(grads["a"][0] ** 2 + grads["b"][0] ** 2)
        assert total == pytest.approx(5.0)


class TestLrController:
    def test_improvement_resets(self):
        lr, best, bad = _lr_controller(1e-3, best=1.0, bad=1, loss=0.9, patience=2, drop=0.9)
        assert (lr, best, bad) == (1e-3, 0.9, 0)

    def test_two_epoch_plateau_drops_ten_percent(self):
        lr, best, bad = _lr_controller(1e-3, best=1.0, bad=0, loss=1.0, patience=2, drop=0.9)
        assert (lr, bad) == (1e-3, 1)
        lr, best, bad = _lr_controller(lr, best, bad, loss=1.0, patience=2, drop=0.9)
        assert lr == pytest.approx(9e-4)
        assert bad == 0

    def test_stage2_single_epoch_plateau_drops_quarter(self):
        lr, best, bad = _lr_controller(1e-4, best=0.5, bad=0, loss=0.6, patience=1, drop=0.75)
        assert lr == pytest.approx(7.5e-5)


class TestSchedule:
    def test_only_the_settable_knobs_are_fields(self):
        assert [f.name for f in dataclasses.fields(TrainSchedule)] == [
            "stage1_epochs", "stage2_epochs", "lr_stage1", "lr_stage2", "batch_size",
            "train_pairs", "eval_pairs", "seed", "grad_clip",
        ]

    def test_fixed_settings_keep_their_values(self):
        sched = TrainSchedule()
        assert sched.stage1_weights == LossWeights(1.0, 0.0)
        assert sched.stage2_weights == LossWeights(10.0, 0.5)
        assert sched.stft == StftParams(256, 128)
        assert (STAGE1_PLATEAU, STAGE2_PLATEAU) == ((2, 0.9), (1, 0.75))

    @pytest.mark.parametrize("key, value", [
        ("stage1_epochs", -1), ("stage2_epochs", -1), ("batch_size", 0), ("train_pairs", 0),
        ("eval_pairs", 0), ("seed", -1), ("lr_stage1", 0.0), ("lr_stage1", float("nan")),
        ("lr_stage2", float("inf")), ("lr_stage2", -1e-4), ("grad_clip", -1.0),
        ("grad_clip", float("inf")), ("grad_clip", float("nan")),
    ])
    def test_out_of_range_value_names_its_key(self, key, value):
        with pytest.raises(ValueError, match=key):
            TrainSchedule(**{key: value})

    @pytest.mark.parametrize("key, value", [
        ("stage1_epochs", 1.5), ("stage2_epochs", 2.0), ("batch_size", 2.5),
        ("train_pairs", 3.0), ("eval_pairs", True), ("seed", 1.5), ("seed", False),
    ])
    def test_count_that_is_not_an_integer_names_its_key(self, key, value):
        with pytest.raises(ValueError, match=f"key {key} = .*expected an integer"):
            TrainSchedule(**{key: value})

    def test_numpy_integers_and_float_rates_accepted(self):
        sched = TrainSchedule(batch_size=np.int64(4), seed=np.uint32(7), lr_stage1=1,
                              grad_clip=np.float32(2.0))
        assert (sched.batch_size, sched.seed) == (4, 7)

    def test_boundary_values_accepted(self):
        sched = TrainSchedule(stage1_epochs=0, stage2_epochs=0, batch_size=1, train_pairs=1,
                              eval_pairs=1, grad_clip=0.0, lr_stage1=1e-12)
        assert sched.grad_clip == 0.0


class TestTrainingStart:
    # From a random start the packet only learns to damp the random fast map
    # and the trained model stays a static filter; training must begin close
    # to a passthrough so that the slow branch learns to modulate.
    @pytest.mark.parametrize("config", [
        two_ms_config(3, "ssmm"), two_ms_config(3, "film"), two_ms_config(3, "ec"),
        sample_level_config("ssmm"),
    ], ids=["2ms-d3-ssmm", "2ms-d3-film", "2ms-d3-ec", "sample-level-ssmm"])
    def test_start_output_is_close_to_input(self, config):
        weights, log = train(config, TrainSchedule(stage1_epochs=0, stage2_epochs=0,
                                                   train_pairs=1, eval_pairs=1))
        assert log == []
        noisy, _ = make_batch([11, 13], [5.0, 5.0])
        enhanced, _ = forward_batch(noisy, weights, config)
        for i in range(len(noisy)):
            assert sisnr(enhanced[i], noisy[i]) >= 15.0


    @pytest.mark.parametrize("variant", ["ssmm", "film", "ec"])
    def test_head_starts_at_the_variants_raw_values(self, variant):
        config = two_ms_config(3, variant)
        slow = passthrough_start(config).slow
        want = {"ssmm": [-2.0] * config.h + [2.0] * config.h,
                "film": [0.0] * (2 * config.h), "ec": [0.0] * config.h}[variant]
        assert slow.fc_head_b.tolist() == want
        assert slow.warmup_packet_raw.tolist() == want


class TestTrain:
    def test_logs_cover_both_stages(self):
        weights, log = train(tiny_config(), tiny_schedule())
        assert len(log) == 5
        assert [r.stage for r in log] == [1, 1, 1, 2, 2]
        assert [r.epoch for r in log] == [1, 2, 3, 4, 5]
        assert log[0].lr == pytest.approx(1e-3)
        assert log[3].lr == pytest.approx(1e-4)

    def test_seed_reproduces_loss_curve_exactly(self):
        _, log_a = train(tiny_config(), tiny_schedule(seed=3))
        _, log_b = train(tiny_config(), tiny_schedule(seed=3))
        assert [r.loss for r in log_a] == [r.loss for r in log_b]
        assert [r.eval_sisnr for r in log_a] == [r.eval_sisnr for r in log_b]

    def test_loss_decreases_on_toy_task_for_all_variants(self):
        for variant in ("ssmm", "film", "ec"):
            _, log = train(tiny_config(variant), tiny_schedule(stage2_epochs=0,
                                                               stage1_epochs=5))
            assert log[-1].loss < log[0].loss, variant

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts_with_dump(self):
        cfg = tiny_config()
        w = init_model_weights(cfg, seed=0)
        w.fast.f_out_w[...] = 1e200
        with pytest.raises(TrainingDivergedError, match="epoch 1"):
            train(cfg, tiny_schedule(), init_weights=w)

    def test_an_infinite_evaluation_is_divergence(self, monkeypatch):
        # a network whose output is all zero scores -inf SI-SNR, which must
        # end the run rather than reach the log
        monkeypatch.setattr(loop, "evaluate_sisnr", lambda *args: -np.inf)
        records = []
        with pytest.raises(TrainingDivergedError, match="epoch 1 .*SI-SNR is -inf"):
            train(tiny_config(), tiny_schedule(stage1_epochs=1, stage2_epochs=0),
                  progress=records.append)
        assert records == []

    def test_start_of_another_geometry_is_a_value_error(self):
        # only a non-finite loss is divergence; a wrong start is the caller's error
        w = init_model_weights(dataclasses.replace(tiny_config(), gru_width=4), seed=0)
        with pytest.raises(ValueError, match="slow.fc_in.w has shape"):
            train(tiny_config(), tiny_schedule(stage1_epochs=1, stage2_epochs=0), init_weights=w)

    def test_csv_log_format(self, tmp_path):
        _, log = train(tiny_config(), tiny_schedule())
        path = tmp_path / "log.csv"
        write_log_csv(log, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["epoch", "loss", "eval_sisnr", "lr"]
        assert len(rows) == 6
        assert float(rows[1][1]) == pytest.approx(log[0].loss, rel=1e-9)


def test_evaluation_scores_with_the_forward_cache_freed(monkeypatch):
    config = tiny_config()
    weights = passthrough_start(config, seed=0)
    noisy, clean = make_batch([1, 3], [5.0, 10.0])
    refs, scored = [], []

    def spy_forward(*args):
        out, cache = forward_batch(*args)
        refs.extend(weakref.ref(arr) for arr in cache if isinstance(arr, np.ndarray))
        return out, cache

    def spy_sisnr_grad(*args):
        assert [ref() for ref in refs if ref() is not None] == []
        scored.append(True)
        return sisnr_grad(*args)

    sisnr_grad = loop.sisnr_grad
    monkeypatch.setattr(loop, "forward_batch", spy_forward)
    monkeypatch.setattr(loop, "sisnr_grad", spy_sisnr_grad)
    score = loop.evaluate_sisnr(weights, config, noisy, clean)
    assert scored == [True] and len(refs) == 6 and np.isfinite(score)
