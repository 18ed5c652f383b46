"""Model file round trips and typed rejection of invalid files."""

import re
import warnings
import zlib
from pathlib import Path

import numpy as np
import pytest

from slowfast_se.engine import (
    init_model_weights,
    named_arrays,
    sample_level_config,
    two_ms_config,
)
from slowfast_se.persistence import (
    ModelChecksumError,
    ModelLayoutError,
    ModelParseError,
    ModelShapeError,
    ModelVersionError,
    load_model,
    save_model,
)


@pytest.fixture
def model(tmp_path):
    cfg = two_ms_config(3, "ssmm")
    weights = init_model_weights(cfg, seed=42)
    path = tmp_path / "m.sfse"
    save_model(weights, cfg, path)
    return weights, cfg, path


class TestRoundTrip:
    def test_save_load_save_identical_bytes(self, model, tmp_path):
        _, cfg, path = model
        weights2, cfg2 = load_model(path)
        assert cfg2 == cfg
        path2 = tmp_path / "m2.sfse"
        save_model(weights2, cfg2, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_arrays_survive_at_float32_precision(self, model):
        weights, _, path = model
        loaded, _ = load_model(path)
        for (name, orig), (_, back) in zip(named_arrays(weights), named_arrays(loaded)):
            assert np.array_equal(back, orig.astype(np.float32).astype(np.float64)), name

    def test_float32_valued_weights_roundtrip_bit_exact(self, model, tmp_path):
        _, cfg, path = model
        loaded, _ = load_model(path)  # arrays now carry exact float32 values
        p2 = tmp_path / "n.sfse"
        save_model(loaded, cfg, p2)
        again, _ = load_model(p2)
        for (name, a), (_, b) in zip(named_arrays(loaded), named_arrays(again)):
            assert np.array_equal(a, b), name

    def test_file_of_per_gate_layout_resaves_identically(self, tmp_path):
        # written before GRU layers were stored gate-fused; the format did not change
        path = Path(__file__).parent / "data" / "tiny_ssmm.sfse"
        weights, cfg = load_model(path)
        assert cfg.gru_layers == 2
        again = tmp_path / "again.sfse"
        save_model(weights, cfg, again)
        assert again.read_bytes() == path.read_bytes()

    def test_loaded_arrays_do_not_view_the_payload(self):
        # each array is a float64 copy whose storage the weights own, not a
        # view of the file's bytes
        weights, _ = load_model(Path(__file__).parent / "data" / "tiny_ssmm.sfse")
        for name, arr in named_arrays(weights):
            owner = arr if arr.base is None else arr.base
            assert arr.dtype == np.float64, name
            assert isinstance(owner, np.ndarray) and owner.base is None, name

    def test_sample_level_config_roundtrip(self, tmp_path):
        cfg = sample_level_config("ec")
        weights = init_model_weights(cfg, seed=1)
        path = tmp_path / "s.sfse"
        save_model(weights, cfg, path)
        _, cfg2 = load_model(path)
        assert cfg2 == cfg


class TestRejection:
    def test_truncated_payload_is_checksum_error(self, model):
        _, _, path = model
        data = path.read_bytes()
        path.write_bytes(data[:-100])
        with pytest.raises(ModelChecksumError):
            load_model(path)

    def test_corrupted_payload_is_checksum_error(self, model):
        _, _, path = model
        data = bytearray(path.read_bytes())
        data[-50] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(ModelChecksumError):
            load_model(path)

    def test_unknown_version_rejected(self, model):
        _, _, path = model
        data = path.read_bytes()
        patched = data.replace(b"SFSE-MODEL v1", b"SFSE-MODEL v9", 1)
        path.write_bytes(patched)
        with pytest.raises(ModelVersionError):
            load_model(path)

    def test_not_a_model_file(self, tmp_path):
        path = tmp_path / "x.sfse"
        path.write_bytes(b"RIFF....WAVE")
        with pytest.raises(ModelVersionError):
            load_model(path)

    def test_invariant_violating_config_rejected(self, model):
        # editing reuse so delta_s != reuse * delta_f must fail on load
        _, _, path = model
        data = path.read_bytes()
        patched = data.replace(b"reuse = 3", b"reuse = 2", 1)
        path.write_bytes(patched)
        with pytest.raises(ValueError, match="delta_s"):
            load_model(path)

    def test_shape_mismatch_rejected(self, model):
        # shrink h in the header; manifest shapes no longer match the config
        _, _, path = model
        data = path.read_bytes()
        patched = data.replace(b"h = 32", b"h = 16", 1)
        path.write_bytes(patched)
        with pytest.raises(ModelShapeError):
            load_model(path)

    @pytest.mark.parametrize("old, new", [
        (b"array = slow.fc_in.b ", b"array = slow.fc_in.q "),
        (b"slow.fc_in.b 24576 64", b"slow.fc_in.b 24576 -64"),
        (b"slow.fc_in.b 24576 64", b"slow.fc_in.b 24576 100000000000000"),
        (b"slow.fc_in.w 0 96 64", b"slow.fc_in.w 0 96000000 64000000"),
    ], ids=["renamed array", "negative dimension", "oversized dimension",
            "oversized matrix"])
    def test_manifest_unlike_the_table_is_shape_error(self, model, old, new):
        # checked before any array is read, so no hostile shape is allocated
        _, _, path = model
        data = path.read_bytes()
        assert old in data
        path.write_bytes(data.replace(old, new, 1))
        with pytest.raises(ModelShapeError):
            load_model(path)

    def test_array_listed_twice_is_parse_error(self, model):
        # the CRC covers only the payload, so a second manifest line for
        # fc_in.b, pointing at fc_in.w's bytes, must not quietly win
        _, _, path = model
        data = path.read_bytes()
        real = b"array = slow.fc_in.b 24576 64\n"
        assert real in data
        path.write_bytes(data.replace(real, real + b"array = slow.fc_in.b 0 64\n", 1))
        with pytest.raises(ModelParseError, match="twice"):
            load_model(path)

    @pytest.mark.parametrize("old, new, match", [
        (b"slow.fc_in.b 24576 64", b"slow.fc_in.b 0 64", "starts at byte 0"),
        (b"slow.fc_in.b 24576 64", b"slow.fc_in.b 24580 64", "starts at byte 24580"),
    ], ids=["aliased offset", "gap"])
    def test_arrays_that_do_not_tile_the_payload_are_layout_errors(self, model, old, new, match):
        # the CRC covers only the payload: fc_in.b at offset 0 would read
        # fc_in.w's first 64 floats
        _, _, path = model
        data = path.read_bytes()
        assert old in data
        path.write_bytes(data.replace(old, new, 1))
        with pytest.raises(ModelLayoutError, match=match):
            load_model(path)

    def test_payload_past_the_last_array_is_layout_error(self, model):
        # a payload with four bytes no array claims, size and CRC kept consistent
        _, _, path = model
        data = path.read_bytes()
        start = data.index(b"\nend\n") + len(b"\nend\n")
        payload = data[start:] + bytes(4)
        header = re.sub(rb"payload_crc32 = \d+", b"payload_crc32 = %d" % zlib.crc32(payload),
                        data[:start])
        header = re.sub(rb"payload_bytes = \d+", b"payload_bytes = %d" % len(payload), header)
        path.write_bytes(header + payload)
        with pytest.raises(ModelLayoutError, match="payload at"):
            load_model(path)

    @pytest.mark.parametrize("old, new", [
        (b"l_f = 32", b"l_f = four"),
        (b"l_f = 32", b"l_f = 0"),
        (b"slow.fc_in.b 24576 64", b"slow.fc_in.b 24576.5 64"),
        (b"slow.fc_in.b 24576 64", b"slow.fc_in.b -4 64"),
    ], ids=["non-integer config value", "invalid geometry",
            "non-integer offset", "negative offset"])
    def test_bad_header_value_is_parse_error(self, model, old, new):
        _, _, path = model
        data = path.read_bytes()
        assert old in data
        path.write_bytes(data.replace(old, new, 1))
        with pytest.raises(ModelParseError):
            load_model(path)

    @pytest.mark.parametrize("old, new, match", [
        (b"reuse = 3\n", b"reuse = 3\npacket_lag = 1\n", "unknown header key 'packet_lag'"),
        # film's packet has ssmm's width, so a second variant line that won
        # would load every array as another variant's
        (b"variant = ssmm\n", b"variant = ssmm\nvariant = film\n",
         "repeated header key 'variant'"),
    ], ids=["unknown key", "repeated config key"])
    def test_header_key_outside_the_config_fields_is_parse_error(self, model, old, new, match):
        _, _, path = model
        data = path.read_bytes()
        assert old in data
        path.write_bytes(data.replace(old, new, 1))
        with pytest.raises(ModelParseError, match=match):
            load_model(path)

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_payload_value_is_parse_error(self, model, value):
        # the CRC is recomputed, so only the value is wrong
        _, _, path = model
        data = path.read_bytes()
        start = data.index(b"\nend\n") + len(b"\nend\n")
        payload = data[start:-4] + np.array([value], "<f4").tobytes()  # last fast.f_out.b
        header = re.sub(rb"payload_crc32 = \d+", b"payload_crc32 = %d" % zlib.crc32(payload),
                        data[:start])
        path.write_bytes(header + payload)
        with pytest.raises(ModelParseError, match="fast.f_out.b"):
            load_model(path)

    def test_missing_header_field(self, model):
        _, _, path = model
        data = path.read_bytes()
        patched = data.replace(b"payload_crc32 = ", b"payload_crcXX = ", 1)
        path.write_bytes(patched)
        with pytest.raises(ModelParseError):
            load_model(path)

    def test_weights_of_another_geometry_refused_on_save(self, tmp_path):
        # such a file would only fail later, in load_model
        weights = init_model_weights(two_ms_config(1), seed=0)
        with pytest.raises(ValueError, match="weight"):
            save_model(weights, sample_level_config(), tmp_path / "bad.sfse")
        assert not (tmp_path / "bad.sfse").exists()

    def test_non_finite_weights_refused_on_save(self, tmp_path):
        cfg = two_ms_config(1)
        weights = init_model_weights(cfg, seed=0)
        weights.fast.f_in_w[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            save_model(weights, cfg, tmp_path / "bad.sfse")

    def test_weight_beyond_float32_refused_on_save(self, tmp_path):
        # finite in float64, inf once written as float32
        cfg = two_ms_config(1)
        weights = init_model_weights(cfg, seed=0)
        weights.fast.f_out_b[0] = 1e39
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="fast.f_out.b"):
                save_model(weights, cfg, tmp_path / "big.sfse")
        assert list(tmp_path.iterdir()) == []


class TestAtomicity:
    def test_failed_save_leaves_no_partial_file(self, tmp_path, monkeypatch):
        cfg = two_ms_config(1)
        weights = init_model_weights(cfg, seed=0)
        target = tmp_path / "out.sfse"

        import os as _os
        real_replace = _os.replace

        def boom(src, dst):
            raise OSError("simulated failure")

        monkeypatch.setattr("slowfast_se.persistence.os.replace", boom)
        with pytest.raises(OSError):
            save_model(weights, cfg, target)
        monkeypatch.setattr("slowfast_se.persistence.os.replace", real_replace)
        assert not target.exists()
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []
