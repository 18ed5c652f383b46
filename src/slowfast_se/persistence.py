"""Versioned model files: readable header, float32 payload, CRC-32.

Layout: a text header (magic line, config key = value lines, payload size
and checksum, one manifest line per array with byte offset and shape, then
`end`), followed by the concatenated little-endian float32 arrays. The
header is diff-friendly and language-portable; the checksum covers the
payload. Files are written atomically via temp-file rename.
"""

from __future__ import annotations

import os
import tempfile
import zlib

import numpy as np

from .engine import (
    ModelWeights,
    SlowFastConfig,
    expected_shapes,
    model_weights_from_arrays,
    named_arrays,
)

MAGIC = "SFSE-MODEL v1"

CONFIG_KEYS = (
    "variant", "l_f", "delta_f", "reuse", "h", "delta_s", "l_s",
    "gru_width", "gru_layers",
)


class ModelFileError(ValueError):
    """Base for all model-file problems; a ValueError, so callers that reject
    bad input treat a bad model file the same way."""


class ModelVersionError(ModelFileError):
    """Unknown magic line or format version."""


class ModelParseError(ModelFileError):
    """Header is malformed."""


class ModelChecksumError(ModelFileError):
    """Payload is truncated or fails the CRC-32 check."""


class ModelShapeError(ModelFileError):
    """Array shapes disagree with the config."""


def save_model(weights: ModelWeights, config: SlowFastConfig, path) -> None:
    """Serialize weights + config; arrays stored as little-endian float32."""
    arrays = named_arrays(weights)
    for name, arr in arrays:
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"array {name} contains non-finite values")

    blobs = []
    manifest = []
    offset = 0
    for name, arr in arrays:
        blob = np.ascontiguousarray(arr, dtype="<f4").tobytes()
        shape = " ".join(str(d) for d in arr.shape) if arr.ndim else "scalar"
        manifest.append(f"array = {name} {offset} {shape}")
        blobs.append(blob)
        offset += len(blob)
    payload = b"".join(blobs)

    lines = [MAGIC]
    for key in CONFIG_KEYS:
        lines.append(f"{key} = {getattr(config, key)}")
    lines.append(f"payload_bytes = {len(payload)}")
    lines.append(f"payload_crc32 = {zlib.crc32(payload)}")
    lines.extend(manifest)
    lines.append("end")
    header = ("\n".join(lines) + "\n").encode("utf-8")

    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(header + payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_model(path) -> tuple[ModelWeights, SlowFastConfig]:
    """Parse, checksum-verify, and shape-check a model file."""
    with open(path, "rb") as fh:
        data = fh.read()

    newline = data.find(b"\n")
    if newline < 0 or data[:newline].decode("utf-8", "replace") != MAGIC:
        raise ModelVersionError(
            f"{path}: unrecognized magic/version "
            f"(expected {MAGIC!r}, got {data[:newline].decode('utf-8', 'replace')!r})"
        )

    fields: dict[str, str] = {}
    manifest: list[tuple[str, int, tuple[int, ...]]] = []
    pos = newline + 1
    while True:
        newline = data.find(b"\n", pos)
        if newline < 0:
            raise ModelParseError(f"{path}: header not terminated by 'end'")
        line = data[pos:newline].decode("utf-8", "replace")
        pos = newline + 1
        if line == "end":
            break
        if " = " not in line:
            raise ModelParseError(f"{path}: malformed header line {line!r}")
        key, value = line.split(" = ", 1)
        if key == "array":
            parts = value.split()
            if len(parts) < 2:
                raise ModelParseError(f"{path}: malformed array line {line!r}")
            name, offset = parts[0], int(parts[1])
            shape = tuple(int(d) for d in parts[2:])
            manifest.append((name, offset, shape))
        else:
            fields[key] = value

    try:
        config = SlowFastConfig(
            **{key: fields[key] if key == "variant" else int(fields[key]) for key in CONFIG_KEYS}
        )
        payload_bytes = int(fields["payload_bytes"])
        payload_crc = int(fields["payload_crc32"])
    except KeyError as exc:
        raise ModelParseError(f"{path}: missing header field {exc}") from exc

    payload = data[pos:]
    if len(payload) != payload_bytes:
        raise ModelChecksumError(
            f"{path}: payload is {len(payload)} bytes, header says {payload_bytes} "
            "(file truncated or trailing garbage)"
        )
    if zlib.crc32(payload) != payload_crc:
        raise ModelChecksumError(f"{path}: payload CRC-32 mismatch")

    wanted = expected_shapes(config)
    if {name for name, _, _ in manifest} != set(wanted):
        missing = set(wanted) - {name for name, _, _ in manifest}
        extra = {name for name, _, _ in manifest} - set(wanted)
        raise ModelShapeError(
            f"{path}: array set mismatch (missing {sorted(missing)}, extra {sorted(extra)})"
        )

    arrays: dict[str, np.ndarray] = {}
    for name, offset, shape in manifest:
        if shape != wanted[name]:
            raise ModelShapeError(
                f"{path}: array {name} has shape {shape}, config expects {wanted[name]}"
            )
        count = int(np.prod(shape, dtype=int)) if shape else 1
        end = offset + 4 * count
        if end > len(payload):
            raise ModelShapeError(f"{path}: array {name} extends past the payload")
        arr = np.frombuffer(payload, dtype="<f4", count=count, offset=offset)
        arrays[name] = arr.astype(np.float64).reshape(shape)

    return model_weights_from_arrays(config, arrays), config
