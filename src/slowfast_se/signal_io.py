"""WAV I/O, framing, analysis/synthesis windows, and overlap-add.

``frame_signal`` and its adjoint ``overlap_add`` are the package's one
batched framing and overlap-add: the training forward and backward passes,
the spectral loss and the single-branch baseline all go through them. Only
the streaming engine frames incrementally, one frame per step.

Everything here is a pure function: identical inputs give bit-identical
outputs, so any number of threads may call into this module concurrently.
Only mono 16 kHz audio is supported; anything else fails loudly instead of
silently resampling or downmixing.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

SAMPLE_RATE = 16000

_INT16_SCALE = 32768.0
_FLOAT_CEIL = 1.0 - 2.0 ** -15  # largest amplitude an int16 sample can encode


class WavFormatError(ValueError):
    """A WAV file (or write request) violates the supported format."""


@dataclass
class AudioBuffer:
    """Mono float64 samples at 16 kHz, nominal amplitude range [-1, 1]."""

    samples: np.ndarray
    sample_rate: int = SAMPLE_RATE

    def __post_init__(self):
        self.samples = as_mono(self.samples)
        if self.sample_rate != SAMPLE_RATE:
            raise WavFormatError(
                f"unsupported sample rate {self.sample_rate}, expected {SAMPLE_RATE}"
            )

    def __len__(self):
        return len(self.samples)


def as_mono(x) -> np.ndarray:
    """1-D float64 samples of an AudioBuffer or array-like.

    Raises ValueError, before anything else happens, for input that is not
    1-D or holds non-finite samples. The dot product x.x sums squares, so it
    is finite exactly when every sample is, unless it overflows; the exact
    per-sample test runs only when it is not finite.
    """
    samples = x.samples if isinstance(x, AudioBuffer) else np.asarray(x, dtype=np.float64)
    if samples.ndim != 1:
        raise ValueError(f"expected 1-D mono samples, got shape {samples.shape}")
    if not math.isfinite(samples.dot(samples)) and not np.isfinite(samples).all():
        raise ValueError("samples contain non-finite values")
    return samples


def frame_signal(
    x, window_len: int, hop: int, left_pad: int = 0, num_frames: int | None = None
) -> np.ndarray:
    """Slice the last axis of x into overlapping frames: (..., num_frames, window_len).

    Frame i is x[..., i*hop - left_pad : i*hop - left_pad + window_len]; reads
    outside the signal are zeros. By default the frame count is
    ceil(len / hop), which covers every input sample. The result is a
    read-only view whose values are the samples bit for bit; ``overlap_add``
    is its adjoint.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[-1]
    if n < 1:
        raise ValueError("cannot frame an empty signal")
    if window_len < 1 or hop < 1:
        raise ValueError(f"need window_len, hop >= 1, got {window_len}, {hop}")
    if num_frames is None:
        num_frames = -(-n // hop)  # ceil division
    span = (num_frames - 1) * hop + window_len
    if left_pad <= 0 and n + left_pad >= span:
        padded = x[..., -left_pad : span - left_pad]
    else:
        padded = np.zeros(x.shape[:-1] + (span,))
        lo, hi = max(left_pad, 0), min(left_pad + n, span)
        if hi > lo:
            padded[..., lo:hi] = x[..., lo - left_pad : hi - left_pad]
    windows = np.lib.stride_tricks.sliding_window_view(padded, window_len, axis=-1)
    return windows[..., ::hop, :]


def make_window(length: int) -> np.ndarray:
    """Periodic sqrt-Hann window, the analysis and synthesis window of every frame.

    The degenerate length-1 window is [1], so sample-level framing
    (window_len == hop == 1) passes audio through unchanged.
    """
    if length < 1:
        raise ValueError(f"window length must be >= 1, got {length}")
    if length == 1:
        return np.ones(1)
    n = np.arange(length)
    return np.sqrt(0.5 - 0.5 * np.cos(2.0 * np.pi * n / length))


def overlap_add(frames, hop: int) -> np.ndarray:
    """Sum hop-shifted frames over (..., num_frames, window_len) arrays.

    out[..., n] = sum_i frames[..., i, n - i*hop], length
    (num_frames - 1) * hop + window_len; truncating back to the input length
    is the caller's job. Each sample sums its frames in frame order, as the
    streaming engine's per-frame accumulation does.
    """
    if hop < 1:
        raise ValueError(f"hop must be >= 1, got {hop}")
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim < 2 or frames.shape[-2] < 1:
        raise ValueError(f"need frames shaped (..., num_frames, window_len), got {frames.shape}")
    *batch, num, length = frames.shape
    # Scratch is padded to num*hop + length so every offset chunk reshapes
    # cleanly to (num, hop); chunks at one offset never overlap each other.
    # The highest offset belongs to the earliest frame, so it goes first.
    scratch = np.zeros((*batch, num * hop + length))
    for offset in reversed(range(0, length, hop)):
        width = min(hop, length - offset)
        view = scratch[..., offset : offset + num * hop].reshape(*batch, num, hop)
        view[..., :width] += frames[..., :, offset : offset + width]
    return scratch[..., : (num - 1) * hop + length]


# --- RIFF/WAVE (mono, 16 kHz, PCM16 or IEEE float32) ---------------------
#
# The stdlib wave module rejects IEEE-float WAVs, so the parser is written
# against the RIFF chunk layout directly.


def read_wav(path) -> AudioBuffer:
    """Read a mono 16 kHz WAV file (PCM 16-bit or IEEE float 32-bit)."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise WavFormatError(f"{path}: not a RIFF/WAVE file")

    fmt = None
    payload = None
    pos = 12
    while pos + 8 <= len(data):
        chunk_id = data[pos : pos + 4]
        (chunk_len,) = struct.unpack_from("<I", data, pos + 4)
        if pos + 8 + chunk_len > len(data):
            raise WavFormatError(f"{path}: {chunk_id.decode('latin-1')!r} chunk claims "
                                 f"{chunk_len} bytes, the file holds {len(data) - pos - 8}")
        body = data[pos + 8 : pos + 8 + chunk_len]
        if chunk_id == b"fmt ":
            fmt = body
        elif chunk_id == b"data":
            payload = body
        pos += 8 + chunk_len + (chunk_len & 1)  # chunks are word-aligned

    if fmt is None or len(fmt) < 16:
        raise WavFormatError(f"{path}: missing fmt chunk")
    if payload is None:
        raise WavFormatError(f"{path}: missing data chunk")

    audio_format, channels, rate, _, _, bits = struct.unpack_from("<HHIIHH", fmt, 0)
    if channels != 1:
        raise WavFormatError(f"{path}: unsupported channel count {channels}, expected mono")
    if rate != SAMPLE_RATE:
        raise WavFormatError(f"{path}: unsupported sample rate {rate}, expected {SAMPLE_RATE}")
    if audio_format == 1 and bits == 16:
        raw = np.frombuffer(payload[: len(payload) // 2 * 2], dtype="<i2")
        samples = raw.astype(np.float64) / _INT16_SCALE
    elif audio_format == 3 and bits == 32:
        raw = np.frombuffer(payload[: len(payload) // 4 * 4], dtype="<f4")
        samples = raw.astype(np.float64)
    else:
        raise WavFormatError(
            f"{path}: unsupported codec (format tag {audio_format}, {bits}-bit); "
            "expected PCM 16-bit or IEEE float 32-bit"
        )
    return AudioBuffer(samples)


def write_wav(path, audio: AudioBuffer | np.ndarray) -> None:
    """Write mono 16 kHz PCM 16-bit, clipping to [-1, 1 - 2**-15]."""
    samples = as_mono(audio)
    clipped = np.clip(samples, -1.0, _FLOAT_CEIL)
    ints = np.round(clipped * _INT16_SCALE).astype("<i2")
    payload = ints.tobytes()

    header = b"".join(
        [
            b"RIFF",
            struct.pack("<I", 36 + len(payload)),
            b"WAVE",
            b"fmt ",
            struct.pack("<IHHIIHH", 16, 1, 1, SAMPLE_RATE, SAMPLE_RATE * 2, 2, 16),
            b"data",
            struct.pack("<I", len(payload)),
        ]
    )
    with open(path, "wb") as fh:
        fh.write(header + payload)
