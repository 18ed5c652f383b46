"""Synthetic denoising corpus: harmonic "speech surrogate" plus pink noise.

Each pair is one second of 16 kHz audio. The clean signal is a pulse-train
of harmonics with a random fundamental in [80, 300] Hz, shaped by a few
formant-like resonances and a slow amplitude envelope; the noise is pink.
The two are mixed at an exact SNR and jointly peak-normalized (one shared
gain, so the mix SNR is preserved bit for bit). Everything is a pure
function of the seed.
"""

from __future__ import annotations

import numpy as np

from ..signal_io import SAMPLE_RATE

PAIR_SECONDS = 1.0

TRAIN_SNRS_DB = (0.0, 5.0, 10.0, 15.0)
EVAL_SNRS_DB = (2.5, 7.5, 12.5, 17.5)


def _speech_surrogate(rng: np.random.Generator, n: int) -> np.ndarray:
    t = np.arange(n) / SAMPLE_RATE
    f0 = rng.uniform(80.0, 300.0)

    # formant-like band emphasis: three resonances with random centers, kept
    # above the strongest part of the pink-noise floor so the denoising task
    # stays solvable at the fast branch's coarse spectral resolution
    centers = np.array(
        [rng.uniform(600.0, 900.0), rng.uniform(900.0, 2500.0), rng.uniform(2500.0, 3600.0)]
    )
    bandwidths = np.array([150.0, 250.0, 350.0])

    max_harmonic = int(6000.0 / f0)
    x = np.zeros(n)
    for k in range(1, max_harmonic + 1):
        freq = k * f0
        resonance = np.sum(1.0 / (1.0 + ((freq - centers) / bandwidths) ** 2))
        amp = 0.01 + resonance
        x += amp * np.cos(2.0 * np.pi * freq * t + rng.uniform(0, 2.0 * np.pi) * 0.1)

    # syllable-rate amplitude modulation with deep inter-syllable gaps
    am_rate = rng.uniform(2.0, 6.0)
    am_phase = rng.uniform(0, 2.0 * np.pi)
    envelope = 0.05 + 0.95 * (0.5 + 0.5 * np.sin(2.0 * np.pi * am_rate * t + am_phase)) ** 3
    return x * envelope


def _pink_noise(rng: np.random.Generator, n: int) -> np.ndarray:
    white = rng.standard_normal(n)
    spectrum = np.fft.rfft(white)
    freqs = np.fft.rfftfreq(n, d=1.0 / SAMPLE_RATE)
    shaping = 1.0 / np.sqrt(np.maximum(freqs, 20.0))  # flat below 20 Hz
    return np.fft.irfft(spectrum * shaping, n=n)


def make_synthetic_pair(seed: int, snr_db: float) -> tuple[np.ndarray, np.ndarray]:
    """Return (noisy, clean), mixed at exactly snr_db and jointly peak-normalized."""
    if not np.isfinite(snr_db):
        raise ValueError(f"snr_db must be finite, got {snr_db}")
    rng = np.random.default_rng(seed)
    n = int(SAMPLE_RATE * PAIR_SECONDS)
    clean = _speech_surrogate(rng, n)
    noise = _pink_noise(rng, n)

    clean_power = np.mean(clean**2)
    noise_power = np.mean(noise**2)
    noise = noise * np.sqrt(clean_power / (noise_power * 10.0 ** (snr_db / 10.0)))
    noisy = clean + noise

    gain = 0.95 / max(np.max(np.abs(noisy)), np.max(np.abs(clean)))
    return noisy * gain, clean * gain


def make_batch(
    seeds: list[int], snrs_db: list[float]
) -> tuple[np.ndarray, np.ndarray]:
    """Stack pairs into (B, N) arrays; seeds and snrs are zipped."""
    pairs = [make_synthetic_pair(seed, snr) for seed, snr in zip(seeds, snrs_db)]
    noisy = np.stack([p[0] for p in pairs])
    clean = np.stack([p[1] for p in pairs])
    return noisy, clean
