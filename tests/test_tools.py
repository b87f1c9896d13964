"""The repository's tools, run without launching a benchmark."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def load_paired_bench():
    spec = importlib.util.spec_from_file_location("paired_bench", ROOT / "tools" / "paired_bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_paired_bench_refuses_checkout_paths_of_unequal_length(tmp_path, monkeypatch, capsys):
    bench = load_paired_bench()

    def run_once(*args):
        raise AssertionError("a benchmark was launched")

    monkeypatch.setattr(bench, "run_once", run_once)
    (tmp_path / "base").mkdir()
    (tmp_path / "change-longer").mkdir()
    with pytest.raises(SystemExit) as exit_info:
        bench.main([str(tmp_path / "base"), str(tmp_path / "change-longer"),
                    "--workload", "ring15-run", "--seed", "12"])
    assert exit_info.value.code == 2
    assert "checkout paths must be of equal length" in capsys.readouterr().err
