"""The repository's scripts: argument checks that run nothing."""

import importlib.util
from pathlib import Path

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
