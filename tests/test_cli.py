"""Command-line surface: exit codes, file outputs, determinism."""

import csv
import os

import numpy as np
import pytest

from slowfast_se.cli import compare_variants, config_from_kv, read_kv_file, run
from slowfast_se.engine import (
    SlowFastConfig,
    init_model_weights,
    two_ms_config,
)
from slowfast_se.persistence import (
    ModelChecksumError,
    ModelParseError,
    ModelShapeError,
    ModelVersionError,
    load_model,
    save_model,
)
from slowfast_se.signal_io import AudioBuffer, read_wav, write_wav


@pytest.fixture
def model_path(tmp_path):
    cfg = two_ms_config(3, "ssmm")
    weights = init_model_weights(cfg, seed=0)
    path = tmp_path / "model.sfse"
    save_model(weights, cfg, path)
    return str(path)


@pytest.fixture
def wav_path(tmp_path):
    rng = np.random.default_rng(0)
    path = tmp_path / "in.wav"
    write_wav(path, AudioBuffer(rng.uniform(-0.3, 0.3, 4000)))
    return str(path)


class TestExitCodes:
    def test_missing_required_flag_is_usage_error(self, capsys):
        assert run(["enhance", "--in", "a.wav", "--out", "b.wav"]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_flag_rejected(self):
        assert run(["bench-mac", "--bogus"]) == 1

    def test_unknown_subcommand_rejected(self):
        assert run(["frobnicate"]) == 1

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        assert "enhance" in capsys.readouterr().out
        for sub in ("enhance", "train", "bench-mac", "bench-rtf", "verify-latency",
                    "compare", "make-corpus"):
            assert run([sub, "--help"]) == 0

    def test_missing_model_file_reported(self, capsys, wav_path, tmp_path):
        code = run(["enhance", "--model", str(tmp_path / "no.sfse"),
                    "--in", wav_path, "--out", str(tmp_path / "o.wav")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("damage, error", [
        ("garbage bytes", ModelVersionError),
        ("malformed header", ModelParseError),
        ("flipped payload byte", ModelChecksumError),
        ("truncated payload", ModelChecksumError),
        ("wrong manifest shape", ModelShapeError),
    ])
    def test_damaged_model_file_reported(self, damage, error, capsys, model_path, wav_path, tmp_path):
        with open(model_path, "rb") as fh:
            data = bytearray(fh.read())
        payload_start = data.index(b"\nend\n") + len(b"\nend\n")
        if damage == "garbage bytes":
            data = bytearray(np.random.default_rng(0).integers(0, 256, 512, dtype=np.uint8))
        elif damage == "malformed header":
            data = data.replace(b"\nh = 32\n", b"\nh: 32\n")
        elif damage == "flipped payload byte":
            data[payload_start + 10] ^= 0xFF
        elif damage == "truncated payload":
            data = data[:-8]
        else:
            data = data.replace(b"slow.fc_in.w 0 96 64", b"slow.fc_in.w 0 64 96")
        with open(model_path, "wb") as fh:
            fh.write(data)
        with pytest.raises(error):
            load_model(model_path)
        code = run(["enhance", "--model", model_path, "--in", wav_path,
                    "--out", str(tmp_path / "o.wav")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")


class TestBenchMac:
    def test_reuse_three_prints_total_near_39(self, capsys):
        assert run(["bench-mac", "--preset", "2ms-d3"]) == 0
        out = capsys.readouterr().out
        total = float(next(line for line in out.splitlines() if "total:" in line).split()[1])
        assert abs(total - 39.0) / 39.0 < 0.20

    def test_sample_level_preset(self, capsys):
        assert run(["bench-mac", "--preset", "sample-level"]) == 0
        out = capsys.readouterr().out
        assert "62.5 us" in out

    def test_config_file(self, tmp_path, capsys):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text("variant = film\nl_f = 32\ndelta_f = 16\nreuse = 2\nh = 32\n")
        assert run(["bench-mac", "--config", str(cfg_file)]) == 0
        assert "film" in capsys.readouterr().out


class TestEnhance:
    def test_stream_chunk_equals_offline(self, model_path, wav_path, tmp_path):
        out_a = str(tmp_path / "a.wav")
        out_b = str(tmp_path / "b.wav")
        assert run(["enhance", "--model", model_path, "--in", wav_path,
                    "--out", out_a]) == 0
        assert run(["enhance", "--model", model_path, "--in", wav_path,
                    "--out", out_b, "--stream-chunk", "1"]) == 0
        with open(out_a, "rb") as fa, open(out_b, "rb") as fb:
            assert fa.read() == fb.read()

    def test_output_length_matches_input(self, model_path, wav_path, tmp_path):
        out = str(tmp_path / "o.wav")
        assert run(["enhance", "--model", model_path, "--in", wav_path, "--out", out]) == 0
        assert len(read_wav(out).samples) == len(read_wav(wav_path).samples)


class TestVerifyLatency:
    def test_passes_on_valid_model(self, model_path, capsys):
        assert run(["verify-latency", "--model", model_path, "--trials", "10"]) == 0
        assert "verified" in capsys.readouterr().out


class TestMakeCorpusAndCompare:
    def test_corpus_manifest_and_determinism(self, tmp_path):
        out_a = str(tmp_path / "ca")
        out_b = str(tmp_path / "cb")
        assert run(["make-corpus", "--out", out_a, "--seed", "5", "--count", "3"]) == 0
        assert run(["make-corpus", "--out", out_b, "--seed", "5", "--count", "3"]) == 0
        with open(os.path.join(out_a, "corpus.csv")) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        for row in rows:
            wav_a = read_wav(os.path.join(out_a, row["noisy"])).samples
            wav_b = read_wav(os.path.join(out_b, row["noisy"])).samples
            assert np.array_equal(wav_a, wav_b)

    def test_compare_smoke_and_missing_cells(self, tmp_path, capsys):
        corpus = str(tmp_path / "corpus")
        assert run(["make-corpus", "--out", corpus, "--count", "2", "--eval-snrs"]) == 0

        models = tmp_path / "models"
        models.mkdir()
        for reuse in (1, 2):
            cfg = SlowFastConfig(variant="ssmm", l_f=32, delta_f=16, reuse=reuse, h=32,
                                 gru_width=8, gru_layers=1)
            save_model(init_model_weights(cfg, seed=reuse), cfg,
                       models / f"ssmm_d{reuse}_s0.sfse")

        out_csv = str(tmp_path / "cmp.csv")
        code = run(["compare", "--corpus", corpus, "--models", str(models),
                    "--deltas", "1,2", "--variants", "ssmm", "--out", out_csv])
        assert code == 0
        with open(out_csv) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["variant", "reuse", "macs_m_per_s", "sisnr_mean",
                           "sisnr_std", "n_seeds"]
        assert len(rows) == 3

        # a missing cell is an error naming the absent combination
        code = run(["compare", "--corpus", corpus, "--models", str(models),
                    "--deltas", "1,2,3", "--variants", "ssmm"])
        assert code == 1
        assert "ssmm_d3" in capsys.readouterr().err

    def test_mac_column_nonincreasing_in_reuse(self, tmp_path):
        corpus = str(tmp_path / "corpus")
        run(["make-corpus", "--out", corpus, "--count", "2"])
        models = tmp_path / "models"
        models.mkdir()
        for reuse in (1, 3, 5):
            cfg = SlowFastConfig(variant="film", l_f=32, delta_f=16, reuse=reuse, h=32,
                                 gru_width=8, gru_layers=1)
            save_model(init_model_weights(cfg, seed=0), cfg, models / f"film_d{reuse}_s0.sfse")
        rows = compare_variants(corpus, str(models), deltas=(1, 3, 5), variants=("film",))
        macs = [row["macs_m_per_s"] for row in rows]
        assert macs == sorted(macs, reverse=True)


class TestKvParsing:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# comment\nvariant = ec\nl_f = 32\ndelta_f = 16\n"
                        "reuse = 4  # inline\nh = 32\n")
        cfg = config_from_kv(read_kv_file(path))
        assert cfg.variant == "ec"
        assert cfg.reuse == 4
        assert cfg.delta_s == 64

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("variant ssmm\n")
        with pytest.raises(ValueError, match="key = value"):
            read_kv_file(path)
