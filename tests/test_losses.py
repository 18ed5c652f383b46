"""Spectral MSE, SI-SNR, and combined loss, checked against naive oracles."""

import tracemalloc

import numpy as np
import pytest

from slowfast_se.signal_io import frame_signal, make_window, overlap_add
from slowfast_se.training.losses import (
    LossWeights,
    StftParams,
    sisnr,
    sisnr_grad,
    spec_mse_loss_grad,
    stft,
    total_loss,
    total_loss_grad,
)


def naive_dft_frames(x, p):
    """Independent O(N^2) STFT oracle: direct DFT of Hann-windowed segments."""
    w = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(p.fft_size) / p.fft_size)
    n_frames = 1 + (len(x) - p.fft_size) // p.hop
    bins = p.fft_size // 2 + 1
    out = np.zeros((n_frames, bins), dtype=complex)
    for f in range(n_frames):
        seg = x[f * p.hop : f * p.hop + p.fft_size] * w
        for k in range(bins):
            out[f, k] = np.sum(
                seg * np.exp(-2j * np.pi * k * np.arange(p.fft_size) / p.fft_size)
            )
    return out


class TestStft:
    def test_impulse_flat_spectrum(self):
        # the periodic Hann window is exactly 1 at the frame centre, so an
        # impulse there has a magnitude spectrum of ones
        p = StftParams(fft_size=8, hop=8)
        x = np.zeros(8)
        x[4] = 1.0
        spec = stft(x, p)
        assert spec.shape == (1, 5)
        assert np.allclose(np.abs(spec), 1.0, rtol=0, atol=1e-12)

    def test_cosine_at_bin_concentrates(self):
        # Hann = 1/2 - (e^{+} + e^{-})/4 spreads a bin-centred cosine over
        # bins k-1, k, k+1 only: N/8, N/4, N/8
        p = StftParams(fft_size=64, hop=64)
        k = 5
        n = np.arange(64)
        mags = np.abs(stft(np.cos(2 * np.pi * k * n / 64), p)[0])
        assert np.argmax(mags) == k
        assert np.allclose(mags[k - 1 : k + 2], [8.0, 16.0, 8.0], rtol=0, atol=1e-12)
        others = np.delete(mags, [k - 1, k, k + 1])
        assert np.all(others < 1e-12)

    def test_parseval(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(512)
        p = StftParams(fft_size=128, hop=64)
        spec = stft(x, p)
        hann = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(128) / 128)
        for f in range(spec.shape[0]):
            seg = x[f * 64 : f * 64 + 128] * hann
            time_energy = np.sum(seg**2)
            mags = np.abs(spec[f]) ** 2
            freq_energy = (mags[0] + mags[-1] + 2 * np.sum(mags[1:-1])) / 128
            assert abs(time_energy - freq_energy) < 1e-9

    def test_matches_naive_dft(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(96)
        p = StftParams(fft_size=32, hop=16)
        assert np.allclose(stft(x, p), naive_dft_frames(x, p), atol=1e-10)

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            StftParams(fft_size=48, hop=16)

    @pytest.mark.parametrize("fft_size, hop, key", [
        (256.0, 128, "fft_size"), (256, 128.0, "hop"), (256, True, "hop"), (True, 1, "fft_size"),
    ])
    def test_field_that_is_not_an_integer_names_its_key(self, fft_size, hop, key):
        with pytest.raises(ValueError, match=f"key {key} = .*expected an integer"):
            StftParams(fft_size, hop)

    def test_numpy_integers_accepted(self):
        p = StftParams(np.int64(32), np.uint16(16))
        x = np.random.default_rng(3).standard_normal(96)
        assert np.array_equal(stft(x, p), stft(x, StftParams(32, 16)))

    def test_short_signal_rejected(self):
        with pytest.raises(ValueError):
            stft(np.zeros(16), StftParams(fft_size=32, hop=16))


class TestSpecMse:
    def test_zero_for_identical(self):
        x = np.random.default_rng(2).standard_normal(300)
        assert spec_mse_loss_grad(x, x, StftParams(64, 32))[0] == 0.0

    def test_non_negative(self):
        rng = np.random.default_rng(3)
        p = StftParams(64, 32)
        for _ in range(5):
            a, b = rng.standard_normal((2, 200))
            assert spec_mse_loss_grad(a, b, p)[0] >= 0.0

    def test_negated_estimate_oracle(self):
        # magnitudes match, real/imag double -> loss = 4 * mean(Re^2 + Im^2),
        # evaluated through the independent naive DFT
        rng = np.random.default_rng(4)
        s = rng.standard_normal(128)
        p = StftParams(32, 16)
        ref = naive_dft_frames(s, p)
        expected = float(np.mean(4.0 * (ref.real**2 + ref.imag**2)))
        got = spec_mse_loss_grad(-s, s, p)[0]
        assert got == pytest.approx(expected, rel=1e-10)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            spec_mse_loss_grad(np.zeros(64), np.zeros(65), StftParams(32, 16))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        s_hat = rng.standard_normal((2, 80))
        s = rng.standard_normal((2, 80))
        p = StftParams(16, 8)
        loss, grad = spec_mse_loss_grad(s_hat, s, p)
        eps = 1e-6
        for _ in range(24):
            b = rng.integers(0, 2)
            n = rng.integers(0, 80)
            bumped = s_hat.copy()
            bumped[b, n] += eps
            lp, _ = spec_mse_loss_grad(bumped, s, p)
            bumped[b, n] -= 2 * eps
            lm, _ = spec_mse_loss_grad(bumped, s, p)
            fd = (lp - lm) / (2 * eps)
            assert grad[b, n] == pytest.approx(fd, rel=1e-5, abs=1e-9)


    # (2, 1) has only the DC and Nyquist bins, (4, 2) one interior bin too;
    # every sample's derivative is checked
    @pytest.mark.parametrize("fft_size, hop", [(2, 1), (4, 2)])
    def test_gradient_matches_finite_differences_at_the_smallest_ffts(self, fft_size, hop):
        rng = np.random.default_rng(fft_size)
        s_hat, s = rng.standard_normal((2, 2, 13))
        assert_spec_grad_matches_central_differences(s_hat, s, StftParams(fft_size, hop))

    def test_gradient_matches_finite_differences_where_the_estimate_is_silent(self):
        # samples 16..39 of the estimate are zero, so frames 2 to 3 have |X| = 0
        # in every bin, where d|X| / dX is taken as 0
        rng = np.random.default_rng(6)
        s_hat, s = rng.standard_normal((2, 2, 64))
        s_hat[:, 16:40] = 0.0
        p = StftParams(16, 8)
        assert np.all(np.abs(stft(s_hat, p)[:, 2:4]) == 0.0)
        assert_spec_grad_matches_central_differences(s_hat, s, p)


def batched_spec_mse_loss_grad(s_hat, s, p):
    """The spectral loss with every clip's spectra in one batched array: the
    formula ``spec_mse_loss_grad`` runs one clip at a time, kept as its
    bit-for-bit reference."""
    n_frames = 1 + (s_hat.shape[-1] - p.fft_size) // p.hop
    window = make_window(p.fft_size) ** 2

    def spectra(x):
        return np.fft.rfft(frame_signal(x, p.fft_size, p.hop, 0, n_frames) * window, axis=-1)

    x_hat, x_ref = spectra(s_hat), spectra(s)
    mag = np.abs(x_hat)
    d_mag, d = mag - np.abs(x_ref), x_hat - x_ref
    n_bins = x_hat.shape[-1]
    batch = int(np.prod(x_hat.shape[:-2], dtype=int)) if x_hat.ndim > 2 else 1
    scale = 1.0 / (n_frames * n_bins * batch)
    loss = float((d_mag**2 + d.real**2 + d.imag**2).sum() * scale)
    ratio = np.divide(d_mag, mag, out=np.zeros_like(mag), where=mag > 0)
    g = x_hat * ratio
    g += d
    weight = np.full(n_bins, scale * p.fft_size)
    weight[[0, -1]] *= 2.0
    g *= weight
    ola = overlap_add(np.fft.irfft(g, n=p.fft_size, axis=-1) * window, p.hop)
    grad = np.zeros(np.shape(s_hat))
    grad[..., : ola.shape[-1]] = ola
    return loss, grad


class TestSpecMseOneClipAtATime:
    # a one-second clip under the training STFT, a batch of clips with a
    # partial last frame, and two leading axes
    @pytest.mark.parametrize("shape, fft_size, hop", [
        ((16000,), 256, 128), ((4, 4000), 256, 128), ((2, 3, 1001), 32, 8)])
    def test_value_and_gradient_equal_the_batched_formula_bit_for_bit(self, shape, fft_size, hop):
        rng = np.random.default_rng(len(shape))
        s_hat, s = rng.standard_normal((2,) + shape)
        s_hat[..., 40:90] = 0.0  # silent frames, where |X| = 0
        p = StftParams(fft_size, hop)
        loss, grad = spec_mse_loss_grad(s_hat, s, p)
        want_loss, want_grad = batched_spec_mse_loss_grad(s_hat, s, p)
        assert np.float64(loss).view(np.int64) == np.float64(want_loss).view(np.int64)
        assert grad.shape == shape
        assert np.array_equal(grad.view(np.int64), want_grad.view(np.int64))


def assert_spec_grad_matches_central_differences(s_hat, s, p, eps=1e-6):
    _, grad = spec_mse_loss_grad(s_hat, s, p)
    for idx in np.ndindex(s_hat.shape):
        bumped = s_hat.copy()
        bumped[idx] += eps
        lp, _ = spec_mse_loss_grad(bumped, s, p)
        bumped[idx] -= 2 * eps
        lm, _ = spec_mse_loss_grad(bumped, s, p)
        assert grad[idx] == pytest.approx((lp - lm) / (2 * eps), rel=1e-5, abs=1e-9), idx

class TestSisnr:
    def test_scaled_estimate_hits_cap(self):
        s = np.random.default_rng(6).standard_normal(100)
        assert sisnr(2.0 * s, s) == 60.0

    def test_projection_by_hand(self):
        # s = [1,-1], s_hat = [1,0]: after mean removal the error is zero
        assert sisnr(np.array([1.0, 0.0]), np.array([1.0, -1.0])) == 60.0

    def test_orthogonal_equal_energy_noise_is_zero_db(self):
        s = np.array([1.0, 0.0, -1.0, 0.0])
        s_hat = np.array([1.0, 1.0, -1.0, -1.0])
        assert sisnr(s_hat, s) == pytest.approx(0.0, abs=1e-6)

    def test_scale_invariance_property(self):
        rng = np.random.default_rng(7)
        s = rng.standard_normal(500)
        s_hat = s + 0.3 * rng.standard_normal(500)
        base = sisnr(s_hat, s)
        # the numerical floor in the denominator makes invariance approximate
        # for very small scales, so the tolerance is loose of machine epsilon
        for scale in (0.01, 0.5, 3.0, -2.0):
            assert sisnr(scale * s_hat, s) == pytest.approx(base, abs=1e-4)

    def test_all_zero_target_rejected(self):
        with pytest.raises(ValueError):
            sisnr(np.ones(10), np.zeros(10))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        s = rng.standard_normal((2, 60))
        s_hat = s + 0.5 * rng.standard_normal((2, 60))
        vals, grad = sisnr_grad(s_hat, s)
        eps = 1e-6
        for _ in range(24):
            b = rng.integers(0, 2)
            n = rng.integers(0, 60)
            bumped = s_hat.copy()
            bumped[b, n] += eps
            vp, _ = sisnr_grad(bumped, s)
            bumped[b, n] -= 2 * eps
            vm, _ = sisnr_grad(bumped, s)
            fd = (vp[b] - vm[b]) / (2 * eps)
            assert grad[b, n] == pytest.approx(fd, rel=1e-4, abs=1e-9)


class TestTotalLoss:
    def test_perfect_estimate_scores_capped_sisnr(self):
        # 10 * 0 + 0.5 * (-60) = -30
        s = np.random.default_rng(9).standard_normal(300)
        lw = LossWeights(spec_mse=10.0, sisnr=0.5)
        assert total_loss(s, s, lw, StftParams(64, 32)) == pytest.approx(-30.0)

    def test_composition(self):
        rng = np.random.default_rng(10)
        s = rng.standard_normal(200)
        s_hat = s + 0.2 * rng.standard_normal(200)
        p = StftParams(64, 32)
        lw = LossWeights(spec_mse=10.0, sisnr=0.5)
        expected = 10.0 * spec_mse_loss_grad(s_hat, s, p)[0] + 0.5 * (-sisnr(s_hat, s))
        assert total_loss(s_hat, s, lw, p) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("lw", [LossWeights(1.0, 0.0), LossWeights(10.0, 0.5),
                                    LossWeights(0.0, 2.0)])
    def test_value_is_the_grad_functions_on_one_row(self, lw):
        # total_loss and sisnr are the values of total_loss_grad and
        # sisnr_grad, bit for bit, on a one-row batch
        rng = np.random.default_rng(12)
        s = rng.standard_normal(300)
        s_hat = s + 0.4 * rng.standard_normal(300)
        p = StftParams(64, 32)
        assert total_loss(s_hat, s, lw, p) == total_loss_grad(s_hat[None], s[None], lw, p)[0]
        assert sisnr(s_hat, s) == sisnr_grad(s_hat[None], s[None])[0][0]

    def test_zero_weights_rejected(self):
        with pytest.raises(ValueError):
            LossWeights(0.0, 0.0)
        with pytest.raises(ValueError):
            LossWeights(-1.0, 1.0)

    def test_grad_combines_terms(self):
        rng = np.random.default_rng(11)
        s = rng.standard_normal((2, 100))
        s_hat = s + 0.3 * rng.standard_normal((2, 100))
        p = StftParams(32, 16)
        lw = LossWeights(spec_mse=2.0, sisnr=0.7)
        loss, grad = total_loss_grad(s_hat, s, lw, p)
        eps = 1e-6
        for _ in range(12):
            b = rng.integers(0, 2)
            n = rng.integers(0, 100)
            bumped = s_hat.copy()
            bumped[b, n] += eps
            lp, _ = total_loss_grad(bumped, s, lw, p)
            bumped[b, n] -= 2 * eps
            lm, _ = total_loss_grad(bumped, s, lw, p)
            assert grad[b, n] == pytest.approx((lp - lm) / (2 * eps), rel=1e-4, abs=1e-9)

    @pytest.mark.parametrize("lw", [LossWeights(1.0, 0.0), LossWeights(10.0, 0.5),
                                    LossWeights(0.0, 2.0)])
    def test_grad_has_the_bits_of_a_sum_from_zero(self, lw):
        # row 0 is a perfect estimate, whose capped SI-SNR has a zero gradient
        rng = np.random.default_rng(13)
        s = rng.standard_normal((2, 300))
        s_hat = s + np.array([[0.0], [0.4]]) * rng.standard_normal((2, 300))
        p = StftParams(64, 32)
        want = np.zeros_like(s_hat)
        if lw.spec_mse > 0:
            want += lw.spec_mse * spec_mse_loss_grad(s_hat, s, p)[1]
        if lw.sisnr > 0:
            want += lw.sisnr * (-sisnr_grad(s_hat, s)[1] / len(s))
        grad = total_loss_grad(s_hat, s, lw, p)[1]
        # int64 views: a -0.0 where the sum reads +0.0 is a difference
        assert np.array_equal(grad.view(np.int64), want.view(np.int64))
        if lw.spec_mse == 0:
            assert np.all(grad[0] == 0.0) and not np.any(np.signbit(grad[0]))

    def test_spectral_gradient_is_scaled_in_its_own_buffer(self):
        # the spectral term's gradient is the returned one, so the call
        # holds no second (B, N) array beside it
        rng = np.random.default_rng(14)
        s = rng.standard_normal((4, 8000))
        s_hat = s + 0.3 * rng.standard_normal((4, 8000))
        p, lw = StftParams(256, 128), LossWeights(1.0, 0.0)
        peaks = []
        for fn, args in ((spec_mse_loss_grad, (s_hat, s, p)),
                         (total_loss_grad, (s_hat, s, lw, p))):
            fn(*args)  # warm-up, untraced
            tracemalloc.start()
            try:
                fn(*args)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        spec_peak, total_peak = peaks
        assert total_peak < spec_peak + s_hat.nbytes / 2, (spec_peak, total_peak, s_hat.nbytes)
