"""Tests of the benchmark itself: arithmetic, output checks and its contract.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from spans import TraceContractError, Tracer, aggregate, install, self_times

ROOT = run.ROOT


def test_self_times_on_a_synthetic_span_tree():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 3.0, 0],
        ["b", 4.0, 8.0, 0],
        ["b.inner", 5.0, 6.5, 2],
        ["stray", 7.5, 12.0, 0],  # overlaps b and overruns root: adds only 8..10
        ["late", 11.0, 12.0, -1],
    ]
    assert self_times(spans) == pytest.approx([10 - 2 - 4 - 2, 2, 2.5, 1.5, 4.5, 1.0])
    agg = aggregate(spans)
    assert agg["by_name"]["b"] == {"calls": 1, "total_s": 4.0, "self_s": pytest.approx(2.5)}
    assert agg["root_sum_s"] == pytest.approx(11.0)


def test_nested_spans_self_times_sum_to_the_root_spans():
    tracer = Tracer()

    def leaf():
        return sum(range(1000))

    leaf_t = tracer.wrap("leaf", leaf)
    mid = tracer.wrap("mid", lambda: [leaf_t() for _ in range(3)])
    top = tracer.wrap("top", lambda: (mid(), leaf_t()))
    top()
    top()
    agg = aggregate(tracer.spans)
    assert agg["by_name"]["leaf"]["calls"] == 8
    assert [s[3] for s in tracer.spans[:3]] == [-1, 0, 1]
    assert agg["self_sum_s"] == pytest.approx(agg["root_sum_s"], abs=1e-9)
    assert all(v >= -1e-12 for v in self_times(tracer.spans))


def test_a_missing_wrapped_name_breaks_the_trace_contract():
    with pytest.raises(TraceContractError, match="soclearn.harness.no_such_name"):
        install(Tracer(), [("soclearn.harness:no_such_name", "x", None)])


def test_a_span_that_never_fires_breaks_the_trace_contract():
    trace = {"by_name": {"harness.engine": {"calls": 1, "total_s": 1.0, "self_s": 1.0}},
             "self_sum_s": 1.0, "root_sum_s": 1.0, "n_spans": 1}
    with pytest.raises(run.BenchmarkError, match="learning.tv, harness.normalize never fired on ring63") as info:
        run.check_trace_contract("ring63-m64-engine", trace)
    assert info.value.status == 3


def _small_run(tmp_path):
    import soclearn.cli

    config = dict(run.workload_config("ring15-run", 12), rounds=30, replicas=1)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert soclearn.cli.main(["run", "--config", str(path), "--out", str(out)]) == 0
    return config, out, stdout.getvalue()


def test_a_one_byte_output_change_is_caught_by_the_digest_check(tmp_path):
    config, out, stdout = _small_run(tmp_path)
    outcome, errors = run.check_run(out, stdout, config, deep=True)
    assert errors == []
    pinned = outcome["digests"]
    assert run.digest_mismatches(pinned, pinned) == []

    beliefs = out / "beliefs.csv"
    blob = bytearray(beliefs.read_bytes())
    # the last mantissa digit of the last belief: row counts and sums still hold
    end = len(blob.rstrip())
    value = bytes(blob[blob.rfind(b",", 0, end) + 1 : end])
    digit = end - len(value) + (value.find(b"e") if b"e" in value else len(value)) - 1
    blob[digit] = ord("1") if blob[digit] != ord("1") else ord("2")
    beliefs.write_bytes(bytes(blob))
    changed, errors = run.check_run(out, stdout, config, deep=True)
    assert errors == []
    assert run.digest_mismatches(pinned, changed["digests"]) == [
        "beliefs.csv differs from its pinned digest"
    ]


def test_the_structural_checks_catch_a_dropped_row(tmp_path):
    config, out, stdout = _small_run(tmp_path)
    beliefs = out / "beliefs.csv"
    lines = beliefs.read_bytes().splitlines(keepends=True)
    beliefs.write_bytes(b"".join(lines[:-1]))
    _, errors = run.check_run(out, stdout, config, deep=False)
    assert any("rows" in e for e in errors)


def _tree_state():
    configs = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted((ROOT / "configs").iterdir())}
    status = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        status = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain"],
                                capture_output=True, text=True, check=True).stdout
    return configs, status


@pytest.fixture(scope="module")
def short_runs():
    """One untraced and one traced run of the quickest workload at a fresh seed."""
    before = _tree_state()
    lines = {}
    for trace in (0, 1):
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "complete5-compare",
             "--seed", "7", "--seconds", "0.1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
        )
        assert done.returncode == 0, done.stderr
        lines[trace] = done.stdout.splitlines()
    return before, _tree_state(), lines


def test_a_seed_override_leaves_configs_and_the_git_tree_untouched(short_runs):
    before, after, lines = short_runs
    assert after == before
    detail = json.loads(lines[0][-2])
    assert detail["manifest"]["config"]["seed"] == 7
    assert json.loads((ROOT / "configs/complete5_tables.json").read_text())["seed"] == 21


def test_result_names_match_benchmark_json(short_runs):
    _, _, lines = short_runs
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in declared["workloads"]) == sorted(run.WORKLOADS)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = json.loads(lines[trace][-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in declared[key]
        }


def test_a_directory_without_the_package_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ring15-run",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 2
    assert "not a soclearn checkout" in done.stderr
    assert done.stdout == ""
