"""Output checks. Each returns a list of failure messages; empty means pass.

They compare against the reference pass in ``reference.py`` and against
properties the method guarantees, never against a stored copy of an output.
"""

from __future__ import annotations

import copy

import numpy as np

from reference import fast_frame_count, reference_forward, slow_frame_count
from slowfast_se import engine
from slowfast_se.training import backprop, losses, loop

REFERENCE_TOL = 1e-9        # program vs reference pass on a prefix
FORWARD_BATCH_TOL = 1e-12   # batched training forward vs enhance_offline
PREFIX = 4000               # samples compared with the reference pass
PROBE_LEN = 2000            # samples in the perturbation probe
PROBES = 3                  # perturbed positions per probe


def frame_counts(n: int, config) -> tuple[int, int]:
    """(fast, slow) frames one closed session of n samples runs."""
    fast = fast_frame_count(n, config.l_f, config.delta_f)
    return fast, slow_frame_count(n, config.l_f, config.delta_f, config.reuse)


def check_output(x: np.ndarray, y: np.ndarray, weights, config) -> list[str]:
    """Length, finiteness, and agreement with the reference on a prefix."""
    fails = []
    if len(y) != len(x):
        return [f"output length {len(y)} != input length {len(x)}"]
    if not np.all(np.isfinite(y)):
        fails.append(f"{int(np.sum(~np.isfinite(y)))} non-finite outputs")
    p = min(PREFIX, len(x))
    # outputs before p - l_f + 1 depend only on x[:p]
    m = p - config.l_f + 1
    ref = reference_forward(x[:p], weights, config)[:m]
    err = float(np.max(np.abs(y[:m] - ref)))
    if not err <= REFERENCE_TOL:
        fails.append(f"output differs from the reference pass by {err:.3e} on a {m}-sample prefix")
    return fails


def check_stream(x: np.ndarray, y: np.ndarray, stats, weights, config) -> list[str]:
    """A pushed stream: check_output, the chunking contract and frame counts."""
    fails = check_output(x, y, weights, config)
    whole = engine.enhance_offline(x, weights, config).samples
    if len(whole) != len(y) or not np.array_equal(whole, y):
        fails.append("pushed stream is not bit-identical to enhance_offline on the whole input")
    fast, slow = frame_counts(len(x), config)
    if (stats.fast_frames, stats.slow_frames) != (fast, slow):
        fails.append(
            f"session ran {stats.fast_frames} fast / {stats.slow_frames} slow frames, "
            f"schedule says {fast} / {slow}"
        )
    return fails


def check_causality(x: np.ndarray, weights, config, seed: int) -> list[str]:
    """Changing input m leaves every output before m - l_f + 1 unchanged."""
    rng = np.random.default_rng(seed)
    x = x[:PROBE_LEN].copy()
    y0 = engine.enhance_offline(x, weights, config).samples
    fails = []
    for m in rng.integers(config.l_f, len(x), size=PROBES):
        x1 = x.copy()
        x1[m] += 0.5
        y1 = engine.enhance_offline(x1, weights, config).samples
        keep = m - config.l_f + 1
        if not np.array_equal(y1[:keep], y0[:keep]):
            first = int(np.nonzero(y1[:keep] != y0[:keep])[0][0])
            fails.append(f"input {m} changed output {first}, before {keep}")
    return fails


def check_training(inp, loss_log: list[float], steps_per_round: int, seed: int) -> list[str]:
    """Losses finite and falling; forward_batch and gradients at the start weights."""
    fails = []
    losses_ = np.asarray(loss_log)
    if not np.all(np.isfinite(losses_)):
        fails.append("non-finite training loss")
    elif len(losses_) < 2 * steps_per_round:
        fails.append(f"only {len(losses_)} steps, need two rounds to see the loss fall")
    elif not losses_[-steps_per_round:].mean() < losses_[:steps_per_round].mean():
        fails.append(
            f"loss did not fall: first round {losses_[:steps_per_round].mean():.6g}, "
            f"last round {losses_[-steps_per_round:].mean():.6g}"
        )

    cfg, w = inp.spec.config, inp.weights
    noisy = inp.noisy[: inp.spec.batch]
    batched, _ = backprop.forward_batch(noisy, w, cfg)
    for b, clip in enumerate(noisy):
        err = float(np.max(np.abs(batched[b] - engine.enhance_offline(clip, w, cfg).samples)))
        if not err <= FORWARD_BATCH_TOL:
            fails.append(f"forward_batch clip {b} differs from enhance_offline by {err:.3e}")
    return fails + check_gradients(inp, seed)


GRAD_ARRAYS = ("slow.fc_in.w", "slow.gru0.u_r", "slow.gru3.w_n", "slow.fc_head.b",
               "slow.warmup_raw", "fast.f_in.w", "fast.f_out.w")
GRAD_CLIPS = 2
GRAD_SAMPLES = 2400
GRAD_EPS = 1e-5
GRAD_RTOL = 1e-5


def check_gradients(inp, seed: int) -> list[str]:
    """Sampled entries of ``backward`` against central differences of
    ``losses.total_loss`` through ``enhance_offline``, at the start weights."""
    cfg = inp.spec.config
    sched = loop.TrainSchedule()
    lw, stft = sched.stage1_weights, sched.stft
    noisy = inp.noisy[:GRAD_CLIPS, :GRAD_SAMPLES]
    clean = inp.clean[:GRAD_CLIPS, :GRAD_SAMPLES]
    w = copy.deepcopy(inp.weights)
    _, grads = backprop.backward((noisy, clean), w, cfg, lw, stft)
    arrays = dict(engine.named_arrays(w))
    rng = np.random.default_rng(seed)

    def loss() -> float:
        return float(np.mean([
            losses.total_loss(engine.enhance_offline(x, w, cfg).samples, s, lw, stft)
            for x, s in zip(noisy, clean)
        ]))

    scale = max(float(np.max(np.abs(g))) for g in grads.values())
    fails = []
    for name in GRAD_ARRAYS:
        arr = arrays[name]
        idx = tuple(int(rng.integers(0, d)) for d in arr.shape)
        keep = arr[idx]
        arr[idx] = keep + GRAD_EPS
        up = loss()
        arr[idx] = keep - GRAD_EPS
        down = loss()
        arr[idx] = keep
        fd = (up - down) / (2 * GRAD_EPS)
        g = float(grads[name][idx])
        if not abs(fd - g) <= GRAD_RTOL * (abs(g) + scale):
            fails.append(f"gradient {name}{list(idx)}: backward {g:.6e}, central difference {fd:.6e}")
    return fails
