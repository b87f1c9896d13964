"""The traced benchmark's wrap targets exist and its spans fire.

``perfbench/job.py`` wraps the names in its ``WRAPS`` table before a
traced run and exits 3 when one is missing, so renaming or moving any
of them breaks the benchmark. The traced benchmark also fails when a
span it expects never fires, as when the package stops calling a
wrapped name. These tests check both with the benchmark's own code, on
tiny versions of its workloads, so such a change fails here first.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("job"), importlib.import_module("spans")


def test_every_wrap_target_resolves(bench):
    job, spans = bench
    missing = []
    for target, _, _ in job.WRAPS:
        try:
            spans._resolve(target)
        except spans.TraceContractError as exc:
            missing.append(str(exc))
    assert not missing


def traced_job(tmp_path, kind, config, cli=()):
    """Run ``job.py`` traced on ``config``; returns its result and stdout."""
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    result = tmp_path / "result.json"
    cmd = [sys.executable, str(PERFBENCH / "job.py"), kind, "--result", str(result),
           "--trace", str(tmp_path / "spans.json")]
    if kind == "engine":
        cmd += ["--config", str(config_path)]
    else:
        cmd += ["--", *cli, "--config", str(config_path)]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True)
    return json.loads(result.read_text()), done.stdout


@pytest.fixture
def bench_run(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("run")


def tiny(run, name, seed, **overrides):
    return {**run.workload_config(name, seed), "replicas": 1, "rounds": 30, **overrides}


def test_run_workload_fires_every_expected_span(bench_run, tmp_path):
    # at the default threshold the ring's first exchange comes after ~200 rounds
    config = tiny(bench_run, "ring15-run", 12, rounds=400)
    out = tmp_path / "out"
    result, _ = traced_job(tmp_path, "cli", config, ("run", "--out", str(out)))
    bench_run.check_trace_contract("ring15-run", result["trace"])
    comm_rows = len((out / "comm.csv").read_text().splitlines()) - 1
    assert comm_rows > 0
    assert result["trace"]["counters"]["events"] == comm_rows


def test_compare_workload_fires_every_expected_span(bench_run, tmp_path):
    config = tiny(bench_run, "complete5-compare", 21)
    result, stdout = traced_job(tmp_path, "cli", config, ("compare",))
    bench_run.check_trace_contract("complete5-compare", result["trace"])
    total = next(s for s in stdout.splitlines() if s.startswith("total exchanges: "))
    switching, baseline = total.split(": ")[1].split(" baseline")[0].split(" vs ")
    assert result["trace"]["counters"]["events"] == int(switching) + int(baseline)


def test_engine_workload_fires_every_expected_span(bench_run, tmp_path):
    config = tiny(bench_run, "ring15-long-engine", 12)
    result, _ = traced_job(tmp_path, "engine", config)
    bench_run.check_trace_contract("ring15-long-engine", result["trace"])
    counted = result["trace"]["counters"]["uninformative"]
    assert counted == result["facts"]["uninformative_count"]
