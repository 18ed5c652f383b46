"""Framing, windows, overlap-add, and WAV round trips."""

import numpy as np
import pytest

from slowfast_se.signal_io import (
    AudioBuffer,
    WavFormatError,
    frame_signal,
    make_window,
    overlap_add,
    read_wav,
    write_wav,
)


class TestFrameSignal:
    def test_non_overlapping_partition(self):
        frames = frame_signal([1, 2, 3, 4], 2, 2)
        assert frames.tolist() == [[1, 2], [3, 4]]

    def test_one_second_frame_count(self):
        # frame starts 0, 16, ..., 15984 -> 1000 frames
        x = np.arange(16000, dtype=float)
        frames = frame_signal(x, 32, 16)
        assert frames.shape == (1000, 32)
        assert frames[0, 0] == 0 and frames[999, 0] == 15984
        # last frame runs past the signal end and is zero-padded
        assert frames[999, 16] == 0.0

    def test_left_pad(self):
        frames = frame_signal([5.0], 4, 2, left_pad=2)
        assert frames.tolist() == [[0, 0, 5, 0]]

    def test_explicit_num_frames_extends_tail(self):
        frames = frame_signal([1.0, 2.0], 2, 2, num_frames=3)
        assert frames.tolist() == [[1, 2], [0, 0], [0, 0]]

    def test_empty_signal_rejected(self):
        with pytest.raises(ValueError):
            frame_signal([], 2, 2)

    def test_pure_function(self):
        x = np.random.default_rng(0).standard_normal(100)
        assert np.array_equal(frame_signal(x, 8, 4, 4), frame_signal(x, 8, 4, 4))

    def test_negative_left_pad_skips_leading_samples(self):
        frames = frame_signal([1.0, 2.0, 3.0, 4.0, 5.0], 2, 2, left_pad=-1, num_frames=2)
        assert frames.tolist() == [[2, 3], [4, 5]]

    def test_batch_axis_frames_each_row(self):
        x = np.random.default_rng(3).standard_normal((3, 50))
        frames = frame_signal(x, 8, 3, 5, 20)
        assert frames.shape == (3, 20, 8)
        for row in range(3):
            assert np.array_equal(frames[row], frame_signal(x[row], 8, 3, 5, 20))


class TestMakeWindow:
    def test_sqrt_hann_length_4(self):
        w = make_window(4)
        assert np.allclose(w, [0.0, 0.70710678, 1.0, 0.70710678], atol=1e-8)

    def test_degenerate_length_one(self):
        assert make_window(1).tolist() == [1]

    def test_cola_identity(self):
        # shifted squared sqrt-Hann windows sum to one at 50% overlap
        for length in (4, 32, 64):
            w = make_window(length) ** 2
            hop = length // 2
            acc = np.zeros(length * 6)
            for i in range(11):
                acc[i * hop : i * hop + length] += w
            interior = acc[length : len(acc) - length]
            assert np.max(np.abs(interior - 1.0)) < 1e-12


class TestOverlapAdd:
    def test_direct_summation(self):
        out = overlap_add([[1, 1], [1, 1]], hop=1)
        assert out.tolist() == [1, 2, 1]

    def test_single_frame(self):
        assert overlap_add([[3, 4]], hop=2).tolist() == [3, 4]

    def test_ragged_frames_rejected(self):
        with pytest.raises(ValueError):
            overlap_add([[1, 2], [1, 2, 3]], hop=1)

    def test_sqrt_hann_pair_reconstructs_interior(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(1024)
        length, hop = 32, 16
        w = make_window(length)
        frames = frame_signal(x, length, hop) * w
        out = overlap_add(frames * w, hop)
        n_frames = len(frames)
        interior = slice(hop, (n_frames - 1) * hop)
        err = np.linalg.norm(out[interior] - x[interior]) / np.linalg.norm(x[interior])
        assert err < 1e-6

    def test_rectangular_partition_roundtrip(self):
        # hop == window: framing partitions, OLA re-concatenates exactly
        rng = np.random.default_rng(2)
        x = rng.standard_normal(100)
        out = overlap_add(frame_signal(x, 10, 10), 10)
        assert np.array_equal(out[: len(x)], x)

    def test_sums_in_frame_order(self):
        # three frames overlap at every sample; the result must equal a
        # per-frame accumulation in frame order, as the streaming engine does
        frames = np.random.default_rng(4).standard_normal((2, 40, 48))
        expected = np.zeros((2, 39 * 16 + 48))
        for i in range(40):
            expected[:, i * 16 : i * 16 + 48] += frames[:, i]
        assert np.array_equal(overlap_add(frames, 16), expected)


class TestFramingAdjoint:
    """overlap_add is the adjoint of frame_signal: the training backward
    pass frames the output gradient to run OLA in reverse."""

    @pytest.mark.parametrize("window_len, hop", [(32, 16), (1, 1), (256, 128), (8, 3)])
    @pytest.mark.parametrize("batch", [(), (3,)])
    def test_inner_products_agree(self, window_len, hop, batch):
        rng = np.random.default_rng(window_len * 10 + hop)
        n, left_pad = 1000, window_len - hop
        x = rng.standard_normal(batch + (n,))
        num = -(-(left_pad + n) // hop)
        frames = rng.standard_normal(batch + (num, window_len))
        lhs = np.sum(frame_signal(x, window_len, hop, left_pad, num) * frames)
        rhs = np.sum(x * overlap_add(frames, hop)[..., left_pad : left_pad + n])
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


class TestWav:
    def test_round_trip_quantization(self, tmp_path):
        path = tmp_path / "t.wav"
        values = np.array([0.0, 0.5, -0.5])
        write_wav(path, AudioBuffer(values))
        back = read_wav(path)
        assert back.sample_rate == 16000
        assert np.max(np.abs(back.samples - values)) <= 2.0**-15

    def test_saturating_write(self, tmp_path):
        path = tmp_path / "t.wav"
        write_wav(path, np.array([2.0, -2.0]))
        back = read_wav(path).samples
        assert back[0] == pytest.approx(1.0 - 2.0**-15, abs=1e-9)
        assert back[0] == pytest.approx(0.99997, abs=1e-4)
        assert back[1] == -1.0

    def test_wrong_sample_rate_rejected(self, tmp_path):
        import struct

        path = tmp_path / "8k.wav"
        payload = struct.pack("<4h", 0, 1, 2, 3)
        header = b"".join(
            [
                b"RIFF", struct.pack("<I", 36 + len(payload)), b"WAVE",
                b"fmt ", struct.pack("<IHHIIHH", 16, 1, 1, 8000, 16000, 2, 16),
                b"data", struct.pack("<I", len(payload)),
            ]
        )
        path.write_bytes(header + payload)
        with pytest.raises(WavFormatError, match="sample rate"):
            read_wav(path)

    def test_stereo_rejected(self, tmp_path):
        import struct

        path = tmp_path / "st.wav"
        payload = struct.pack("<4h", 0, 1, 2, 3)
        header = b"".join(
            [
                b"RIFF", struct.pack("<I", 36 + len(payload)), b"WAVE",
                b"fmt ", struct.pack("<IHHIIHH", 16, 1, 2, 16000, 64000, 4, 16),
                b"data", struct.pack("<I", len(payload)),
            ]
        )
        path.write_bytes(header + payload)
        with pytest.raises(WavFormatError, match="channel"):
            read_wav(path)

    def test_not_riff_rejected(self, tmp_path):
        path = tmp_path / "x.wav"
        path.write_bytes(b"OggS" + b"\x00" * 40)
        with pytest.raises(WavFormatError, match="RIFF"):
            read_wav(path)

    def test_chunk_longer_than_the_file_rejected(self, tmp_path):
        # a 1000-sample file cut to 500 bytes: its data chunk still claims 2000
        path = tmp_path / "cut.wav"
        write_wav(path, np.zeros(1000))
        path.write_bytes(path.read_bytes()[:500])
        message = "'data' chunk claims 2000 bytes, the file holds 456"
        with pytest.raises(WavFormatError, match=message):
            read_wav(path)

    @pytest.mark.parametrize("codec", ["pcm16", "float32"])
    def test_data_chunk_with_a_partial_sample_rejected(self, codec, tmp_path):
        # a trailing byte that is not a whole sample was dropped without a word
        import struct

        path = tmp_path / f"{codec}.wav"
        if codec == "pcm16":
            write_wav(path, np.array([0.1, 0.2, 0.3]))
            payload, fmt = path.read_bytes()[44:] + b"\x07", (1, 32000, 2, 16)
        else:
            payload, fmt = np.array([0.25, -0.75], dtype="<f4").tobytes() + b"\x00\x00", (3, 64000, 4, 32)
        path.write_bytes(b"".join([
            b"RIFF", struct.pack("<I", 36 + len(payload)), b"WAVE",
            b"fmt ", struct.pack("<IHHIIHH", 16, fmt[0], 1, 16000, *fmt[1:]),
            b"data", struct.pack("<I", len(payload)), payload,
        ]))
        width = fmt[2]
        message = f"data chunk holds {len(payload)} bytes, not a whole number of {width}-byte"
        with pytest.raises(WavFormatError, match=message):
            read_wav(path)

    def test_float32_wav_read(self, tmp_path):
        import struct

        path = tmp_path / "f32.wav"
        values = np.array([0.25, -0.75], dtype="<f4")
        payload = values.tobytes()
        header = b"".join(
            [
                b"RIFF", struct.pack("<I", 36 + len(payload)), b"WAVE",
                b"fmt ", struct.pack("<IHHIIHH", 16, 3, 1, 16000, 64000, 4, 32),
                b"data", struct.pack("<I", len(payload)),
            ]
        )
        path.write_bytes(header + payload)
        back = read_wav(path)
        assert np.allclose(back.samples, [0.25, -0.75], atol=1e-7)


class TestAudioBuffer:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            AudioBuffer(np.array([0.0, np.nan]))

    def test_finite_samples_whose_energy_overflows_accepted(self):
        # the sum-of-squares probe overflows; the exact check must decide
        with np.errstate(over="ignore"):
            assert len(AudioBuffer(np.array([1e200, -1e200]))) == 2

    def test_rejects_wrong_rate(self):
        with pytest.raises(WavFormatError):
            AudioBuffer(np.zeros(4), sample_rate=8000)
