"""Training objective: spectral MSE plus negative scale-invariant SNR.

The spectral term compares magnitude, real, and imaginary parts of a Hann
STFT; the SI-SNR term projects the estimate onto the target so the score is
invariant to rescaling the estimate. Each objective is one function that
returns its value and its hand-derived gradient w.r.t. the estimate:
``spec_mse_loss_grad``, ``sisnr_grad`` and ``total_loss_grad``, the last
used by the network backward pass; the tests check all three against finite
differences. ``sisnr`` and ``total_loss`` are the values of those functions,
for scoring and for gradient checks, so no objective is written twice.

The spectral gradient is one complex array over the one-sided bins, and its
adjoint through the DFT is one ``irfft``. A real inverse transform counts
each interior bin twice, once for its mirror image above Nyquist, and the
DC and Nyquist bins once, so the interior bins enter it at half weight.

``spec_mse_loss_grad`` runs one clip at a time. A clip's spectra, segments
and gradient take about 1.4 MB under the 256-point STFT, so they stay in
cache, and each clip's temporaries reuse the memory the previous clip's
freed. A batch of 16 one-second clips at once took about 7,400 minor page
faults (29 MB of fresh memory) per call and about twice the time. Every clip's terms land in one array that
is summed once, so the value keeps the bits of the batched sum.
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
    """Frame length and hop of the periodic-Hann STFT."""

    fft_size: int
    hop: int

    def __post_init__(self):
        if self.fft_size < 2 or self.fft_size & (self.fft_size - 1) != 0:
            raise ValueError(f"fft_size must be a power of two, got {self.fft_size}")
        if not (1 <= self.hop <= self.fft_size):
            raise ValueError(f"need 1 <= hop <= fft_size, got hop={self.hop}")


def _stft_window(p: StftParams) -> np.ndarray:
    # periodic Hann is the square of the periodic sqrt-Hann
    return make_window(p.fft_size) ** 2


def _frames(x: np.ndarray, p: StftParams) -> np.ndarray:
    """(..., n_frames, fft_size) unwindowed segments, no padding: a view of x."""
    n = x.shape[-1]
    if n < p.fft_size:
        raise ValueError(f"signal length {n} shorter than fft_size {p.fft_size}")
    return frame_signal(x, p.fft_size, p.hop, 0, 1 + (n - p.fft_size) // p.hop)


def stft(x, p: StftParams) -> np.ndarray:
    """One-sided complex spectrogram, shape (..., n_frames, fft_size/2 + 1)."""
    x = np.asarray(x, dtype=np.float64)
    return np.fft.rfft(_frames(x, p) * _stft_window(p), axis=-1)


def spec_mse_loss_grad(s_hat: np.ndarray, s: np.ndarray, p: StftParams) -> tuple[float, np.ndarray]:
    """Mean over (frame, bin) of squared magnitude + real + imaginary errors,
    and its gradient w.r.t. s_hat, batched over leading axes.

    For a batch the returned scalar additionally averages over the batch and
    the gradient matches it. The clips run one at a time, each windowing its
    segments into one shared buffer.
    """
    s_hat = np.asarray(s_hat, dtype=np.float64)
    s = np.asarray(s, dtype=np.float64)
    if s_hat.shape != s.shape:
        raise ValueError(f"length mismatch: {s_hat.shape} vs {s.shape}")
    frames_hat, frames_ref = _frames(s_hat, p), _frames(s, p)
    n_frames, n_bins = frames_hat.shape[-2], p.fft_size // 2 + 1
    scale = 1.0 / (n_frames * n_bins * int(np.prod(s_hat.shape[:-1], dtype=int)))
    # adjoint of the one-sided DFT: d/dseg[n] = Re(sum_k dL/dX_k e^{+2pi i k n / M}),
    # which is M irfft of dL/dX with its interior bins halved, as irfft counts
    # each of them twice; one weight per bin folds in 2 scale, the halving and M
    weight = np.full(n_bins, scale * p.fft_size)
    weight[[0, -1]] *= 2.0
    window = _stft_window(p)
    terms = np.empty(s_hat.shape[:-1] + (n_frames, n_bins))
    grad = np.zeros(s_hat.shape)
    seg = np.empty((n_frames, p.fft_size))
    for idx in np.ndindex(s_hat.shape[:-1]):
        x_hat = np.fft.rfft(np.multiply(frames_hat[idx], window, out=seg), axis=-1)
        x_ref = np.fft.rfft(np.multiply(frames_ref[idx], window, out=seg), axis=-1)
        mag = np.abs(x_hat)
        d_mag = mag - np.abs(x_ref)
        d = np.subtract(x_hat, x_ref, out=x_ref)
        clip_terms = np.square(d_mag, out=terms[idx])
        clip_terms += d.real**2
        clip_terms += d.imag**2

        # dL/dX = 2 scale (X d_mag / |X| + X - X_ref), with d_mag / |X| taken as 0 at |X| = 0
        ratio = np.divide(d_mag, mag, out=np.zeros_like(mag), where=mag > 0)
        g = np.multiply(x_hat, ratio, out=x_hat)
        g += d
        g *= weight
        seg_grad = np.fft.irfft(g, n=p.fft_size, axis=-1)
        seg_grad *= window
        # adjoint of the framing: overlap-add, zero past the last frame
        ola = overlap_add(seg_grad, p.hop)
        grad[idx][: ola.shape[-1]] = ola
    return float(terms.sum() * scale), grad


def sisnr_grad(s_hat: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-clip SI-SNR values (B,) and gradients (B, N) w.r.t. s_hat."""
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

    # d(raw)/d(e) = (20/ln10) * (t/(alpha*|t|^2) - err/den); <t, err> = 0 makes
    # the target-energy branch collapse to this form. Capped entries get 0.
    active = (raw < SISNR_CAP_DB)[:, None]
    safe_num = np.where(num[:, None] > 0, num[:, None], 1.0)
    g_e = (20.0 / _LOG10) * (alpha * t / safe_num - err / den[:, None])
    g_e = np.where(active, g_e, 0.0)
    grad = g_e - g_e.mean(axis=1, keepdims=True)
    return capped, grad


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
        spec_grad *= lw.spec_mse
        grad += spec_grad
    if lw.sisnr > 0:
        vals, g = sisnr_grad(s_hat, s)
        loss += lw.sisnr * float(-vals.mean())
        grad += lw.sisnr * (-g / b)
    return loss, grad


def sisnr(s_hat, s) -> float:
    """Scale-invariant SNR in dB, capped at +60; raises on an all-zero target."""
    vals, _ = sisnr_grad(
        np.asarray(s_hat, dtype=np.float64)[None, :], np.asarray(s, dtype=np.float64)[None, :]
    )
    return float(vals[0])


def total_loss(s_hat, s, lw: LossWeights, p: StftParams) -> float:
    """lambda1 * SpecMSE + lambda2 * (-SISNR) of one clip, or the batch mean:
    the value of ``total_loss_grad``."""
    s_hat = np.atleast_2d(np.asarray(s_hat, dtype=np.float64))
    return total_loss_grad(s_hat, np.atleast_2d(np.asarray(s, dtype=np.float64)), lw, p)[0]
