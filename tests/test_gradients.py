"""Analytic BPTT gradients against the central-difference oracle."""

import numpy as np
import pytest

from slowfast_se.engine import (
    SlowFastConfig,
    enhance_offline,
    init_model_weights,
    named_arrays,
    two_ms_config,
)
from slowfast_se.training.backprop import NonFiniteLossError, backward, forward_batch
from slowfast_se.training.losses import LossWeights, StftParams

TINY = dict(l_f=4, delta_f=2, reuse=2, h=3, gru_width=6, gru_layers=2)
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


@pytest.mark.parametrize("variant", ["ssmm", "film", "ec"])
def test_every_weight_array_matches_finite_differences(variant):
    config = tiny_config(variant)
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
        # two independent implementations of the same unrolled graph
        config = two_ms_config(3, variant)
        weights = init_model_weights(config, seed=21)
        rng = np.random.default_rng(22)
        x = rng.standard_normal((2, 2500)) * 0.4
        batched, _ = forward_batch(x, weights, config)
        for row in range(2):
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
