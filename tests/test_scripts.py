"""The repository's scripts: argument checks that run nothing, the summaries
of bench_pairs and bit_identity, bench_pairs' per-run record of a stand-in
benchmark, and a seconds-long run of step_split."""

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


def test_bench_pairs_records_each_runs_faults_and_kernel_seconds(tmp_path):
    bench_pairs = load_script("bench_pairs")
    (tmp_path / "bench").mkdir()
    # writes 32 MiB, about 8,200 fresh pages, then reports one metric
    (tmp_path / "bench" / "run.py").write_text(
        "import json\n"
        "block = b'x' * (32 << 20)\n"
        "print(json.dumps({'correct': True, 'metrics': {'peak_mib': {'value': 32.0}}}))\n")
    run = bench_pairs.run_once(tmp_path, "train_2ms_d3", 1, 0.1)
    assert run["ok"] and run["metrics"] == {"peak_mib": 32.0}
    assert isinstance(run["minflt"], int) and run["minflt"] > (32 << 20) // 4096 * 0.9
    assert isinstance(run["sys_s"], float) and run["sys_s"] >= 0.0
    other = bench_pairs.run_once(tmp_path, "train_2ms_d3", 1, 0.1)
    [entry] = bench_pairs.run_entries([{"seed": 1, "first": "parent",
                                        "parent": run, "change": other}])
    assert entry == {"seed": 1, "first": "parent",
                     **{f"{side}_{key}": r[key] for side, r in (("parent", run), ("change", other))
                        for key in ("wall_s", "minflt", "sys_s")}}


class TestBenchPairsSummarize:
    """``bench_pairs.summarize``: a metric whose parent runs spread wider than
    its bound is unresolved, unless every change run beats every parent run."""

    SPEC = {"end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]}

    @pytest.fixture(scope="class")
    def summarize(self):
        return load_script("bench_pairs").summarize

    def figures(self, summarize, parent, change):
        pairs = [{"parent": {"ok": True, "metrics": {"setup_s": p}},
                  "change": {"ok": True, "metrics": {"setup_s": c}}}
                 for p, c in zip(parent, change)]
        pairs.append({"parent": {"ok": True, "metrics": {"setup_s": 1e9}},
                      "change": {"ok": False, "metrics": {}}})  # left out
        return summarize(self.SPEC, pairs)["setup_s"]

    def test_bimodal_runs_are_unresolved_whatever_the_medians(self, summarize):
        # parent and change draw from the same two modes: the quartiles span
        # both, and the change's median lands on the slow one
        bimodal = [1.0, 2.0] * 5
        m = self.figures(summarize, bimodal, [2.0, 2.0, 1.0, 2.0, 2.0] * 2)
        assert m["pairs"] == 10 and m["parent"]["q3"] - m["parent"]["q1"] == 1.0
        assert m["unresolved"] and not m["within_bound"]

    def test_tight_runs_are_resolved(self, summarize):
        parent = [1.0, 1.01, 0.99, 1.02, 0.98] * 2
        m = self.figures(summarize, parent, [1.5] * 10)
        assert not m["unresolved"] and not m["within_bound"]
        m = self.figures(summarize, parent, parent)
        assert not m["unresolved"] and m["within_bound"]

    def test_wide_runs_all_beaten_are_resolved(self, summarize):
        m = self.figures(summarize, [1.0, 2.0] * 5, [0.1, 0.2] * 5)
        assert not m["unresolved"] and m["gain_holds"]
        m = self.figures(summarize, [1.0, 2.0] * 5, [0.5, 1.0] * 5)  # a tie is no win
        assert m["unresolved"]


def run_step_split(*args):
    return subprocess.run([sys.executable, str(ROOT / "scripts" / "step_split.py"), *args],
                          capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def step_split_tables():
    """One run of step_split: its time table, its memory table and its
    evaluation table, each the header followed by one row per preset, every
    row split into its cells."""
    proc = run_step_split("--steps", "1")
    assert proc.returncode == 0, proc.stderr
    # three tables, each a title, a header, a rule and one row per preset
    tables = [[line.strip("| ").split(" | ") for line in block.splitlines()[1:]]
              for block in proc.stdout.split("\n\n")]
    assert len(tables) == 3
    for header, _, *rows in tables[:2]:
        assert header[1:7] == ["trunk fwd", "rest fwd", "loss", "adjoint", "trunk bwd", "rest"]
    assert tables[2][0] == ["preset", "peak MiB"]
    for _, _, *rows in tables:
        assert [row[0] for row in rows] == ["2ms-d3", "sample"]
    return [rows for _, _, *rows in tables]


def test_step_split_prints_every_phase_of_both_presets(step_split_tables):
    time_rows, _, _ = step_split_tables
    for row in time_rows:
        phases = [[float(v) for v in cell.split(" / ")] for cell in row[1:7]]
        step_ms, step_faults, sys_ms = (float(v) for v in row[7].split(" / "))
        assert step_ms > 0 and step_faults >= 0 and sys_ms >= 0
        # the phases split the step; rest takes what the wrappers did not see
        assert sum(ms for ms, _ in phases) == pytest.approx(step_ms, abs=0.4)
        assert min(ms for ms, _ in phases[:5]) > 0


def test_step_memory_prints_every_phase_of_both_presets(step_split_tables):
    _, memory_rows, _ = step_split_tables
    for row in memory_rows:
        cells = [[float(v) for v in cell.split(" / ")] for cell in row[1:7]]
        # a phase's live memory at its last boundary is within its peak,
        # and the step's peak is the largest phase's
        assert all(0 <= live <= peak for live, peak in cells)
        assert float(row[7]) == max(peak for _, peak in cells) > 0


def test_step_split_prints_the_evaluation_peak_of_both_presets(step_split_tables):
    *_, eval_rows = step_split_tables
    assert all(len(row) == 2 and float(row[1]) > 0 for row in eval_rows)


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
