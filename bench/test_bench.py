"""Tests of the benchmark itself: python3 -m pytest bench"""

import json

import numpy as np
import pytest

import checks
import run
import workloads
from reference import reference_forward
from slowfast_se import engine, fast_branch
from slowfast_se.training import backprop


def _random_weights(config, seed):
    weights = engine.init_model_weights(config, seed)
    rng = np.random.default_rng(seed)
    for _, arr in engine.named_arrays(weights):
        arr += 0.3 * rng.standard_normal(arr.shape)
    return weights


@pytest.mark.parametrize(
    "config",
    [
        engine.SlowFastConfig("ssmm", l_f=8, delta_f=3, reuse=2, h=5, l_s=11,
                              gru_width=6, gru_layers=2),
        engine.SlowFastConfig("ssmm", l_f=1, delta_f=1, reuse=4, h=3,
                              gru_width=5, gru_layers=1),
    ],
)
def test_reference_agrees_with_enhance_offline(config):
    weights = _random_weights(config, 3)
    x = 0.3 * np.random.default_rng(4).standard_normal(517)
    ref = reference_forward(x, weights, config)
    out = engine.enhance_offline(x, weights, config).samples
    assert len(ref) == len(out) == len(x)
    assert np.max(np.abs(ref - out)) <= checks.REFERENCE_TOL


SHORT = {
    "stream_2ms_d3": dict(clips=1),
    "train_2ms_d3": dict(clips=4, batch=2),
}


@pytest.fixture
def short_specs(monkeypatch):
    for name, change in SHORT.items():
        spec = workloads.SPECS[name]
        monkeypatch.setitem(workloads.SPECS, name, workloads.Spec(
            spec.name, spec.kind, spec.config, change["clips"], spec.hop,
            change.get("batch", spec.batch)))
    monkeypatch.setattr(run, "SETUPS", 1)
    monkeypatch.setattr(run, "SETUP_S", 0.0)


def _run(capsys, tmp_path, monkeypatch, workload, trace):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    code = run.main(["--workload", workload, "--seed", "5", "--seconds", "0",
                     "--trace", str(trace)])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    return code, result


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(SHORT))
def test_shortened_run_completes(short_specs, capsys, tmp_path, monkeypatch, workload, trace):
    code, result = _run(capsys, tmp_path, monkeypatch, workload, trace)
    assert code == 0
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = (
        ["engine.push_calls", "slow.frames", "fast.frames", "train.steps",
         "setup.data_s", "trace.overhead_pct"]
        if trace else
        ["setup_s", "audio_s_per_s", "push_p50_us", "push_p99_us", "peak_mib"]
    )
    assert set(wanted) <= set(result["metrics"])
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_corrupted_output_is_caught():
    config = engine.two_ms_config(3)
    weights = _random_weights(config, 1)
    x = 0.3 * np.random.default_rng(2).standard_normal(3000)
    y = engine.enhance_offline(x, weights, config).samples
    assert checks.check_output(x, y, weights, config) == []
    bad = y.copy()
    bad[100] += 1e-6
    assert checks.check_output(x, bad, weights, config)
    assert checks.check_output(x, y[:-1], weights, config)
    nan = y.copy()
    nan[-1] = np.nan
    assert checks.check_output(x, nan, weights, config)


def test_corrupted_fast_branch_fails_the_run(short_specs, capsys, tmp_path, monkeypatch):
    step = fast_branch.ssmm_step

    def off_by_a_little(state, x_f, packet, w):
        state, y = step(state, x_f, packet, w)
        return state, y + 1e-7

    monkeypatch.setattr(fast_branch, "ssmm_step", off_by_a_little)
    code, result = _run(capsys, tmp_path, monkeypatch, "stream_2ms_d3", 0)
    assert code == 1 and result["correct"] is False


def test_wrong_gradient_fails_the_run(short_specs, capsys, tmp_path, monkeypatch):
    backward = backprop.backward

    def skewed(*args, **kwargs):
        loss, grads = backward(*args, **kwargs)
        grads["fast.f_out.w"] += 1e-3 * max(float(np.max(np.abs(g))) for g in grads.values())
        return loss, grads

    monkeypatch.setattr(backprop, "backward", skewed)
    code, result = _run(capsys, tmp_path, monkeypatch, "train_2ms_d3", 0)
    assert code == 1 and result["correct"] is False
