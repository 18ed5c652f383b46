"""Command-line surface: exit codes, file outputs, determinism."""

import csv
import dataclasses
import os
import warnings

import numpy as np
import pytest

from slowfast_se import cli
from slowfast_se.cli import _load_corpus, compare_variants, config_from_kv, read_kv_file, run
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
from slowfast_se.training import TrainingDivergedError, TrainSchedule, evaluate_sisnr


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

    @pytest.mark.parametrize("case", ["model is a directory", "config is a directory",
                                      "corpus out is a file"])
    def test_unusable_path_reported(self, case, capsys, wav_path, tmp_path):
        # an OSError beyond a missing file (IsADirectoryError, FileExistsError)
        # is one error line and exit 1, not a traceback
        argv = {
            "model is a directory": ["enhance", "--model", str(tmp_path), "--in", wav_path,
                                     "--out", str(tmp_path / "o.wav")],
            "config is a directory": ["bench-mac", "--config", str(tmp_path)],
            "corpus out is a file": ["make-corpus", "--out", wav_path, "--count", "1"],
        }[case]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert "Traceback" not in err

    def test_truncated_wav_reported(self, capsys, model_path, wav_path, tmp_path):
        with open(wav_path, "rb") as fh:
            data = fh.read()
        with open(wav_path, "wb") as fh:
            fh.write(data[:500])
        code = run(["enhance", "--model", model_path, "--in", wav_path,
                    "--out", str(tmp_path / "o.wav")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert "chunk claims" in err and not (tmp_path / "o.wav").exists()

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

    @pytest.mark.parametrize("argv", [
        ["enhance", "--stream-chunk", "-5"],
        ["bench-rtf", "--seconds", "0"],
        ["verify-latency", "--trials", "0"],
        ["verify-latency", "--trials", "-3"],
        ["make-corpus", "--count", "-2"],
    ], ids=" ".join)
    def test_bad_numeric_flag_rejected(self, argv, capsys, model_path, wav_path, tmp_path):
        out = tmp_path / "out"
        paths = {"enhance": ["--model", model_path, "--in", wav_path, "--out", str(out)],
                 "bench-rtf": ["--model", model_path],
                 "verify-latency": ["--model", model_path],
                 "make-corpus": ["--out", str(out)]}
        assert run(argv + paths[argv[0]]) == 1
        assert f"argument {argv[1]}" in capsys.readouterr().err
        assert not out.exists()


class TestBenchMac:
    def test_reuse_three_prints_total_near_39(self, capsys):
        assert run(["bench-mac", "--preset", "2ms-d3"]) == 0
        out = capsys.readouterr().out
        total = float(next(line for line in out.splitlines() if "total:" in line).split()[1])
        assert abs(total - 39.0) / 39.0 < 0.20

    @pytest.mark.parametrize("preset", ["2ms-dx", "2ms-d", "2ms-d+3", "2ms-d 3"])
    def test_preset_without_an_integer_reuse_is_unknown(self, preset, capsys):
        assert run(["bench-mac", "--preset", preset]) == 1
        err = capsys.readouterr().err
        assert err == (f"error: unknown preset {preset!r}; "
                       "use 2ms-d<reuse> or sample-level\n"), err

    def test_sample_level_preset(self, capsys):
        assert run(["bench-mac", "--preset", "sample-level"]) == 0
        out = capsys.readouterr().out
        assert "62.5 us" in out

    def test_config_file(self, tmp_path, capsys):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text("variant = film\nl_f = 32\ndelta_f = 16\nreuse = 2\nh = 32\n")
        assert run(["bench-mac", "--config", str(cfg_file)]) == 0
        assert "film" in capsys.readouterr().out


class TestConfigFile:
    @pytest.fixture
    def instant_train(self, monkeypatch):
        seen = []

        def train(config, schedule, progress=None):
            seen.append(config)
            return init_model_weights(config, seed=0), []

        monkeypatch.setattr(cli, "train", train)
        return seen

    def test_train_without_config_takes_the_2ms_d3_geometry(self, instant_train, tmp_path):
        out = tmp_path / "model.sfse"
        assert run(["train", "--out", str(out)]) == 0
        assert instant_train == [two_ms_config(3)]
        assert load_model(out)[1] == two_ms_config(3)

    def test_missing_geometry_keys_take_2ms_d3_values(self, tmp_path, capsys):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text("variant = film\nreuse = 2\n")
        assert run(["bench-mac", "--config", str(cfg_file)]) == 0
        from_file = capsys.readouterr().out
        assert run(["bench-mac", "--preset", "2ms-d2", "--variant", "film"]) == 0
        assert from_file == capsys.readouterr().out

    @pytest.mark.parametrize("command", ["bench-mac", "train"])
    def test_unknown_key_is_a_usage_error(self, command, instant_train, tmp_path, capsys):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text("reuse = 3\ngru_widht = 8\n")
        argv = [command, "--config", str(cfg_file)]
        if command == "train":
            argv += ["--out", str(tmp_path / "m.sfse")]
        assert run(argv) == 1
        assert "gru_widht" in capsys.readouterr().err
        assert instant_train == []


class TestScheduleKeys:
    @pytest.fixture
    def schedules(self, monkeypatch):
        seen = []

        def train(config, schedule, progress=None):
            seen.append(schedule)
            return init_model_weights(config, seed=0), []

        monkeypatch.setattr(cli, "train", train)
        return seen

    def test_keys_are_the_schedule_fields(self, schedules, tmp_path):
        values = {"stage1_epochs": 3, "stage2_epochs": 1, "lr_stage1": 0.002,
                  "lr_stage2": 3e-5, "batch_size": 5, "train_pairs": 7, "eval_pairs": 2,
                  "seed": 9, "grad_clip": 0.0}
        assert list(values) == [f.name for f in dataclasses.fields(TrainSchedule)]
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
        assert run(["train", "--config", str(cfg_file), "--out", str(tmp_path / "m.sfse")]) == 0
        assert schedules == [TrainSchedule(**values)]
        assert type(schedules[0].stage1_epochs) is int and type(schedules[0].lr_stage2) is float

    @pytest.mark.parametrize("line", ["drop_stage1 = 0.5", "patience_stage2 = 3",
                                      "train_snrs = 5", "stft = 512"])
    def test_fixed_setting_is_an_unknown_key(self, line, schedules, tmp_path, capsys):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text(line + "\n")
        assert run(["train", "--config", str(cfg_file), "--out", str(tmp_path / "m.sfse")]) == 1
        assert line.split()[0] in capsys.readouterr().err
        assert schedules == []

    @pytest.mark.parametrize("line", ["batch_size = 0", "eval_pairs = 0", "train_pairs = 0",
                                      "stage2_epochs = -1", "lr_stage1 = nan",
                                      "lr_stage1 = inf", "lr_stage2 = 0", "seed = -1",
                                      "grad_clip = -1"])
    def test_out_of_range_value_fails_before_training(self, line, schedules, tmp_path, capsys):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text(line + "\n")
        out = tmp_path / "m.sfse"
        assert run(["train", "--config", str(cfg_file), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and line.split()[0] in err
        assert schedules == [] and not out.exists()

    def test_diverged_training_is_an_error_line(self, monkeypatch, tmp_path, capsys):
        def train(config, schedule, progress=None):
            raise TrainingDivergedError("non-finite epoch loss nan at epoch 2 (lr=1.000e-03)")

        monkeypatch.setattr(cli, "train", train)
        out = tmp_path / "m.sfse"
        assert run(["train", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "epoch 2" in err and "Traceback" not in err
        assert not out.exists()


    # one training step per epoch (the weights break after it and the
    # evaluation reads nan) and two (the second step's loss is nan)
    @pytest.mark.parametrize("train_pairs", [2, 4])
    def test_diverging_run_prints_one_error_line_and_no_warning(self, train_pairs, tmp_path,
                                                                 capsys):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text(
            "l_f = 4\ndelta_f = 2\nreuse = 2\nh = 3\ngru_width = 4\ngru_layers = 1\n"
            "stage1_epochs = 1\nstage2_epochs = 0\nlr_stage1 = 1e300\nbatch_size = 2\n"
            f"train_pairs = {train_pairs}\neval_pairs = 1\n"
        )
        out = tmp_path / "m.sfse"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["train", "--config", str(cfg_file), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: training diverged at epoch 1")
        assert err.count("\n") == 1 and "Warning" not in err
        assert not out.exists()


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


    def test_compare_skips_stray_file_and_scores_with_evaluate_sisnr(self, tmp_path):
        corpus = str(tmp_path / "corpus")
        run(["make-corpus", "--out", corpus, "--count", "2"])
        models = tmp_path / "models"
        models.mkdir()
        cfg = SlowFastConfig(variant="ec", l_f=32, delta_f=16, reuse=2, h=32,
                             gru_width=8, gru_layers=1)
        save_model(init_model_weights(cfg, seed=4), cfg, models / "ec_d2_s0.sfse")
        (models / "ec_dx_s0.sfse").write_bytes(b"not a model")
        rows = compare_variants(corpus, str(models), deltas=(2,), variants=("ec",))
        assert len(rows) == 1 and rows[0]["n_seeds"] == 1
        weights, _ = load_model(models / "ec_d2_s0.sfse")
        assert rows[0]["sisnr_mean"] == evaluate_sisnr(weights, cfg, *_load_corpus(corpus))


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

    @pytest.mark.parametrize("command", ["bench-mac", "train"])
    def test_repeated_key_names_the_key_and_both_lines(self, command, capsys, tmp_path):
        # the second line used to win silently: bench-mac reported reuse 5
        path = tmp_path / "twice.cfg"
        path.write_text("reuse = 2\n# comment\nh = 8\nreuse = 5\n")
        with pytest.raises(ValueError, match=r":4: key 'reuse' given again \(first on line 1\)"):
            read_kv_file(path)
        out = ["--out", str(tmp_path / "m.sfse")] if command == "train" else []
        assert run([command, "--config", str(path), *out]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "'reuse'" in captured.err
        assert captured.out == "" and not (tmp_path / "m.sfse").exists()

    @pytest.mark.parametrize("command, line", [
        ("bench-mac", "reuse = three"),
        ("train", "batch_size = 1.5"),
        ("train", "lr_stage1 = fast"),
    ])
    def test_bad_value_names_key_and_value(self, command, line, capsys, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(line + "\n")
        key, value = (part.strip() for part in line.split("="))
        out = ["--out", str(tmp_path / "m.sfse")] if command == "train" else []
        assert run([command, "--config", str(path), *out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err and repr(value) in err
