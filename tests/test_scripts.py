"""The repository's scripts: argument checks that run nothing, bit_identity's
comparison, and seconds-long runs of step_split and step_memory."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_refuses_trees_at_paths_of_unequal_length(tmp_path, capsys):
    bench_pairs = load_script("bench_pairs")
    name = "p" if len(str(tmp_path / "p")) != len(str(bench_pairs.HERE)) else "pp"
    parent = tmp_path / name
    (parent / "bench").mkdir(parents=True)
    (parent / "bench" / "run.py").write_text("raise SystemExit('must not run')\n")
    out = tmp_path / "BENCH.json"
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--parent", str(parent), "--pairs", "1", "--out", str(out)])
    assert exc.value.code == 2
    assert "differ in length" in capsys.readouterr().err
    assert not out.exists()


def run_step_split(*args):
    return subprocess.run([sys.executable, str(ROOT / "scripts" / "step_split.py"), *args],
                          capture_output=True, text=True, timeout=300)


def test_step_split_prints_every_phase_of_both_presets():
    proc = run_step_split("--steps", "1")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[1].split(" | ")[1:7] == ["trunk fwd", "rest fwd", "loss", "adjoint",
                                          "trunk bwd", "rest"]
    rows = [line.strip("| ").split(" | ") for line in lines[3:]]
    assert [row[0] for row in rows] == ["2ms-d3", "sample"]
    for row in rows:
        phases = [[float(v) for v in cell.split(" / ")] for cell in row[1:7]]
        step_ms, step_faults, sys_ms = (float(v) for v in row[7].split(" / "))
        assert step_ms > 0 and step_faults >= 0 and sys_ms >= 0
        # the phases split the step; rest takes what the wrappers did not see
        assert sum(ms for ms, _ in phases) == pytest.approx(step_ms, abs=0.4)
        assert min(ms for ms, _ in phases[:5]) > 0


def test_step_memory_prints_every_phase_of_both_presets():
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "step_memory.py")],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[1].split(" | ")[1:7] == ["trunk fwd", "rest fwd", "loss", "adjoint",
                                          "trunk bwd", "rest"]
    rows = [line.strip("| ").split(" | ") for line in lines[3:]]
    assert [row[0] for row in rows] == ["2ms-d3", "sample"]
    for row in rows:
        cells = [[float(v) for v in cell.split(" / ")] for cell in row[1:7]]
        # a phase's live memory at its last boundary is within its peak,
        # and the step's peak is the largest phase's
        assert all(0 <= live <= peak for live, peak in cells)
        assert float(row[7]) == max(peak for _, peak in cells) > 0


def test_step_split_refuses_zero_steps():
    proc = run_step_split("--steps", "0")
    assert proc.returncode == 2 and "at least 1" in proc.stderr


class TestBitIdentityCompare:
    """``bit_identity.compare``, the gate of refactors that keep every bit."""

    @pytest.fixture(scope="class")
    def compare(self):
        return load_script("bit_identity").compare

    def test_equal_inputs_give_no_difference(self, compare):
        arrays = {"a": np.array([1.0, -0.0, np.nan]), "b": np.arange(3, dtype=np.uint8)}
        assert compare(arrays, {key: arr.copy() for key, arr in arrays.items()}) == []

    def test_signed_zeros_and_nan_payloads_differ(self, compare):
        nan = np.array([np.nan])
        other_nan = (nan.view(np.int64) + 1).view(np.float64)
        assert np.isnan(other_nan[0])
        diffs = compare({"zero": np.array([0.0]), "nan": nan},
                        {"zero": np.array([-0.0]), "nan": other_nan})
        assert [(key, what.split(",")[0]) for key, what, _ in diffs] == [
            ("nan", "1 elements differ"), ("zero", "1 elements differ")]

    def test_shape_mismatch_and_missing_keys_have_a_nan_gap(self, compare):
        diffs = compare({"a": np.zeros(2), "only_parent": np.zeros(1)},
                        {"a": np.zeros(3), "only_change": np.zeros(1)})
        assert [(key, what) for key, what, _ in diffs] == [
            ("a", "shape (2,) against (3,)"),
            ("only_change", "missing in parent"),
            ("only_parent", "missing in change"),
        ]
        assert all(np.isnan(rel) for _, _, rel in diffs)

    def test_relative_gap_is_over_the_parents_largest_magnitude(self, compare):
        [(key, what, rel)] = compare({"a": np.array([1.0, -4.0, 2.0])},
                                     {"a": np.array([1.5, -4.0, 1.75])})
        assert key == "a" and "2 elements differ" in what
        assert rel == 0.5 / 4.0
