"""Versioned model files: readable header, float32 payload, CRC-32.

Layout: a text header (magic line, config key = value lines, payload size
and checksum, one manifest line per array with byte offset and shape, then
`end`), followed by the concatenated little-endian float32 arrays. The
header is diff-friendly and language-portable; the checksum covers the
payload. Files are written atomically via temp-file rename. Loading reads
each array as a float32 view of the file's bytes and copies it once, as
float64, into weights allocated for the config.
"""

from __future__ import annotations

import dataclasses
import os
import tempfile
import typing
import zlib

import numpy as np

from .engine import (
    ModelWeights,
    SlowFastConfig,
    check_shapes,
    check_weight_shapes,
    expected_shapes,
    model_weights_from_arrays,
    named_arrays,
)

MAGIC = "SFSE-MODEL v1"

CONFIG_KEYS = tuple(f.name for f in dataclasses.fields(SlowFastConfig))
_HEADER_KEYS = CONFIG_KEYS + ("payload_bytes", "payload_crc32")


def fields_from_text(cls, values: dict[str, str]) -> dict:
    """The ``key = value`` strings among ``values`` that name fields of the
    dataclass ``cls``, each cast by its field's type; other keys are left
    out. A value its type rejects is a ValueError naming the key and value."""
    types = typing.get_type_hints(cls)
    kwargs = {}
    for key in (f.name for f in dataclasses.fields(cls) if f.name in values):
        try:
            kwargs[key] = types[key](values[key])
        except ValueError:
            raise ValueError(f"config key {key} = {values[key]!r}: "
                             f"not a valid {types[key].__name__}") from None
    return kwargs


class ModelFileError(ValueError):
    """Base for all model-file problems; a ValueError, so callers that reject
    bad input treat a bad model file the same way."""


class ModelVersionError(ModelFileError):
    """Unknown magic line or format version."""


class ModelParseError(ModelFileError):
    """Header or payload values are malformed."""


class ModelChecksumError(ModelFileError):
    """Payload is truncated or fails the CRC-32 check."""


class ModelShapeError(ModelFileError):
    """The manifest's arrays disagree with the config's parameter table."""


class ModelLayoutError(ModelFileError):
    """The manifest's arrays do not tile the payload: an array starts
    anywhere but where the one listed before it ends (the first at 0), or
    the last does not end at the payload's end."""


def save_model(weights: ModelWeights, config: SlowFastConfig, path) -> None:
    """Serialize weights + config; arrays stored as little-endian float32.

    Weights whose shapes the config does not expect, or whose float32 values
    are not finite (NaN, inf, or beyond float32's range), raise ValueError,
    so no file is written that ``load_model`` would reject.
    """
    check_weight_shapes(weights, config)
    blobs = []
    manifest = []
    offset = 0
    for name, arr in named_arrays(weights):
        with np.errstate(over="ignore"):  # an overflow is refused just below
            values = np.ascontiguousarray(arr, dtype="<f4")
        if not np.isfinite(values).all():
            raise ValueError(f"array {name} holds values that are not finite as float32")
        manifest.append(f"array = {name} {offset} {' '.join(str(d) for d in arr.shape)}")
        blobs.append(values.tobytes())
        offset += values.nbytes
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
    manifest: dict[str, tuple[int, tuple[int, ...]]] = {}
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
            try:
                offset, shape = int(parts[1]), tuple(int(d) for d in parts[2:])
            except (IndexError, ValueError) as exc:
                raise ModelParseError(f"{path}: malformed array line {line!r} ({exc})") from exc
            if offset < 0:
                raise ModelParseError(f"{path}: array offset must be non-negative in {line!r}")
            if parts[0] in manifest:
                raise ModelParseError(f"{path}: array {parts[0]} listed twice")
            manifest[parts[0]] = offset, shape
        elif key not in _HEADER_KEYS or key in fields:
            # the CRC covers only the payload, so a second value must not quietly win
            raise ModelParseError(
                f"{path}: {'repeated' if key in fields else 'unknown'} header key {key!r}"
            )
        else:
            fields[key] = value

    if missing := [key for key in _HEADER_KEYS if key not in fields]:
        raise ModelParseError(f"{path}: missing header field(s) {', '.join(missing)}")
    try:
        config = SlowFastConfig(**fields_from_text(SlowFastConfig, fields))
        payload_bytes = int(fields["payload_bytes"])
        payload_crc = int(fields["payload_crc32"])
    except ValueError as exc:  # a non-integer value or an invalid geometry
        raise ModelParseError(f"{path}: {exc}") from exc

    payload = memoryview(data)[pos:]  # read in place, not copied
    if len(payload) != payload_bytes:
        raise ModelChecksumError(
            f"{path}: payload is {len(payload)} bytes, header says {payload_bytes} "
            "(file truncated or trailing garbage)"
        )
    if zlib.crc32(payload) != payload_crc:
        raise ModelChecksumError(f"{path}: payload CRC-32 mismatch")

    # before any read, so a hostile shape is never allocated
    try:
        check_shapes({name: shape for name, (_, shape) in manifest.items()},
                     expected_shapes(config))
    except ValueError as exc:
        raise ModelShapeError(f"{path}: {exc}") from exc

    # the CRC does not cover the offsets, so arrays that overlap or leave a
    # gap must be refused here, before any is read
    end = 0
    for name, (offset, shape) in manifest.items():
        if offset != end:
            raise ModelLayoutError(
                f"{path}: array {name} starts at byte {offset}, where the array "
                f"before it ends is byte {end}"
            )
        end += 4 * int(np.prod(shape))
    if end != payload_bytes:
        raise ModelLayoutError(f"{path}: arrays end at byte {end}, the payload at {payload_bytes}")

    arrays: dict[str, np.ndarray] = {}
    for name, (offset, shape) in manifest.items():
        arr = np.frombuffer(payload, dtype="<f4", count=int(np.prod(shape)), offset=offset)
        if not np.isfinite(arr).all():
            raise ModelParseError(f"{path}: array {name} holds non-finite values")
        arrays[name] = arr.reshape(shape)

    return model_weights_from_arrays(config, arrays), config
