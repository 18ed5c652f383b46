"""Training objective: spectral MSE plus negative scale-invariant SNR.

The spectral term compares magnitude, real, and imaginary parts of a Hann
STFT; the SI-SNR term projects the estimate onto the target so the score is
invariant to rescaling the estimate. Both come with hand-derived gradients
w.r.t. the estimate, used by the network backward pass and verified against
finite differences in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..signal_io import frame_signal, make_window, overlap_add

SISNR_CAP_DB = 60.0
SISNR_EPS = 1e-8
_LOG10 = np.log(10.0)


@dataclass(frozen=True)
class LossWeights:
    """Scale factors for the spectral MSE and SI-SNR terms."""

    spec_mse: float
    sisnr: float

    def __post_init__(self):
        if self.spec_mse < 0 or self.sisnr < 0:
            raise ValueError("loss weights must be non-negative")
        if self.spec_mse == 0 and self.sisnr == 0:
            raise ValueError("at least one loss weight must be positive")


@dataclass(frozen=True)
class StftParams:
    fft_size: int
    hop: int
    window: str = "hann"

    def __post_init__(self):
        if self.fft_size < 2 or self.fft_size & (self.fft_size - 1) != 0:
            raise ValueError(f"fft_size must be a power of two, got {self.fft_size}")
        if not (1 <= self.hop <= self.fft_size):
            raise ValueError(f"need 1 <= hop <= fft_size, got hop={self.hop}")
        if self.window not in ("hann", "rectangular"):
            raise ValueError(f"unknown stft window {self.window!r}")


def _stft_window(p: StftParams) -> np.ndarray:
    if p.window == "rectangular":
        return make_window("rectangular", p.fft_size)
    # periodic Hann is the square of the periodic sqrt-Hann
    return make_window("sqrt_hann_periodic", p.fft_size) ** 2


def _segments(x: np.ndarray, p: StftParams) -> np.ndarray:
    """(..., n_frames, fft_size) windowed segments, no padding."""
    n = x.shape[-1]
    if n < p.fft_size:
        raise ValueError(f"signal length {n} shorter than fft_size {p.fft_size}")
    n_frames = 1 + (n - p.fft_size) // p.hop
    return frame_signal(x, p.fft_size, p.hop, 0, n_frames) * _stft_window(p)


def stft(x, p: StftParams) -> np.ndarray:
    """One-sided complex spectrogram, shape (..., n_frames, fft_size/2 + 1)."""
    x = np.asarray(x, dtype=np.float64)
    return np.fft.rfft(_segments(x, p), axis=-1)


def _spectral_errors(s_hat, s, p: StftParams):
    """STFT of s_hat, its magnitude, and its magnitude/real/imaginary errors against s."""
    if np.shape(s_hat) != np.shape(s):
        raise ValueError(f"length mismatch: {np.shape(s_hat)} vs {np.shape(s)}")
    x_hat, x_ref = stft(s_hat, p), stft(s, p)
    mag = np.abs(x_hat)
    return x_hat, mag, mag - np.abs(x_ref), x_hat.real - x_ref.real, x_hat.imag - x_ref.imag


def spec_mse_loss(s_hat, s, p: StftParams) -> float:
    """Mean over (frame, bin) of squared magnitude + real + imaginary errors."""
    _, _, d_mag, d_re, d_im = _spectral_errors(s_hat, s, p)
    per_bin = d_mag**2 + d_re**2 + d_im**2
    return float(np.mean(per_bin.reshape(*per_bin.shape[:-2], -1), axis=-1).mean())


def spec_mse_loss_grad(s_hat: np.ndarray, s: np.ndarray, p: StftParams) -> tuple[float, np.ndarray]:
    """Loss and its gradient w.r.t. s_hat, batched over leading axes.

    The per-clip loss averages over frames*bins; for a batch the returned
    scalar additionally averages over the batch and the gradient matches it.
    """
    x_hat, mag, d_mag, d_re, d_im = _spectral_errors(s_hat, s, p)
    n_frames, n_bins = x_hat.shape[-2], x_hat.shape[-1]
    batch = int(np.prod(x_hat.shape[:-2], dtype=int)) if x_hat.ndim > 2 else 1
    scale = 1.0 / (n_frames * n_bins * batch)
    per_bin = d_mag**2 + d_re**2 + d_im**2
    loss = float(per_bin.sum() * scale)

    safe_mag = np.where(mag > 0, mag, 1.0)
    g_re = 2.0 * scale * (d_mag * np.where(mag > 0, x_hat.real / safe_mag, 0.0) + d_re)
    g_im = 2.0 * scale * (d_mag * np.where(mag > 0, x_hat.imag / safe_mag, 0.0) + d_im)

    # adjoint of the one-sided DFT: d/dseg[n] = Re(sum_k G_k e^{+2pi i k n / M})
    g_full = np.zeros(x_hat.shape[:-1] + (p.fft_size,), dtype=np.complex128)
    g_full[..., :n_bins] = g_re + 1j * g_im
    seg_grad = np.fft.ifft(g_full, axis=-1).real * p.fft_size
    # adjoint of the framing: overlap-add, zero past the last frame
    ola = overlap_add(seg_grad * _stft_window(p), p.hop)
    grad = np.zeros(np.shape(s_hat))
    grad[..., : ola.shape[-1]] = ola
    return loss, grad


def sisnr(s_hat, s) -> float:
    """Scale-invariant SNR in dB, capped at +60; raises on an all-zero target."""
    val, _ = _sisnr_with_grad(
        np.asarray(s_hat, dtype=np.float64)[None, :],
        np.asarray(s, dtype=np.float64)[None, :],
        need_grad=False,
    )
    return float(val[0])


def sisnr_grad(s_hat: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-clip SI-SNR values (B,) and gradients (B, N) w.r.t. s_hat."""
    val, grad = _sisnr_with_grad(s_hat, s, need_grad=True)
    return val, grad


def _sisnr_with_grad(s_hat: np.ndarray, s: np.ndarray, need_grad: bool):
    if s_hat.shape != s.shape:
        raise ValueError(f"length mismatch: {s_hat.shape} vs {s.shape}")
    if s_hat.ndim != 2:
        raise ValueError("expected (batch, samples)")
    t = s - s.mean(axis=1, keepdims=True)
    t_energy = np.sum(t * t, axis=1, keepdims=True)
    if np.any(t_energy == 0):
        raise ValueError("SI-SNR target is all zero after mean removal")
    e = s_hat - s_hat.mean(axis=1, keepdims=True)
    alpha = np.sum(e * t, axis=1, keepdims=True) / t_energy
    target = alpha * t
    err = e - target
    num = np.sum(target * target, axis=1)
    den = np.sum(err * err, axis=1) + SISNR_EPS
    raw = 10.0 * np.log10(num / den)
    capped = np.minimum(raw, SISNR_CAP_DB)
    if not need_grad:
        return capped, None

    # d(raw)/d(e) = (20/ln10) * (t/(alpha*|t|^2) - err/den); <t, err> = 0 makes
    # the target-energy branch collapse to this form. Capped entries get 0.
    active = (raw < SISNR_CAP_DB)[:, None]
    safe_num = np.where(num[:, None] > 0, num[:, None], 1.0)
    g_e = (20.0 / _LOG10) * (alpha * t / safe_num - err / den[:, None])
    g_e = np.where(active, g_e, 0.0)
    grad = g_e - g_e.mean(axis=1, keepdims=True)
    return capped, grad


def total_loss(s_hat, s, lw: LossWeights, p: StftParams) -> float:
    """lambda1 * SpecMSE + lambda2 * (-SISNR)."""
    value = 0.0
    if lw.spec_mse > 0:
        value += lw.spec_mse * spec_mse_loss(s_hat, s, p)
    if lw.sisnr > 0:
        value += lw.sisnr * (-sisnr(s_hat, s))
    return value


def total_loss_grad(
    s_hat: np.ndarray, s: np.ndarray, lw: LossWeights, p: StftParams
) -> tuple[float, np.ndarray]:
    """Batch-mean total loss and its gradient w.r.t. s_hat, shape (B, N)."""
    if s_hat.ndim != 2:
        raise ValueError("expected (batch, samples)")
    b = s_hat.shape[0]
    loss = 0.0
    grad = np.zeros_like(s_hat)
    if lw.spec_mse > 0:
        spec_loss, spec_grad = spec_mse_loss_grad(s_hat, s, p)
        loss += lw.spec_mse * spec_loss
        grad += lw.spec_mse * spec_grad
    if lw.sisnr > 0:
        vals, g = sisnr_grad(s_hat, s)
        loss += lw.sisnr * float(-vals.mean())
        grad += lw.sisnr * (-g / b)
    return loss, grad
