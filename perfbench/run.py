"""soclearn's end-to-end and per-layer benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``. Each workload execution is a fresh child process, one at a
time (a closed loop with one client). The config for the seed is
written to a temporary directory under ``.perfbench-work/`` in the
checkout, and the program receives only that file.

``--trace 0`` repeats untraced runs, each followed by a fresh-process
``soclearn validate``, until ``S`` seconds have passed. It reports the
medians of the gated end-to-end metrics (``END_TO_END``) and prints
the wall-clock timings next to them, ungated (``REPORT_ONLY``).
``--trace 1`` alternates untraced and traced runs for ``S`` seconds and
reports the medians of the per-layer metrics, which come from spans
that ``job.py`` records around soclearn's cross-module calls. Every
run's outputs are checked; a run that exits non-zero or fails its
check counts as failed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The line before
it holds the full detail: manifest, output digests and per-run values.
Exit status is 2 when the checkout lacks the package, and 3 when the
trace contract breaks (a wrapped name is missing or an expected span
never fired).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
MIB = 2**20

SETUP_REPS = 5
CHILD_TIMEOUT_S = 120.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
RUN_OUTPUTS = ("beliefs.csv", "comm.csv", "summary.txt")
# span coverage may differ from the summed self times by clock rounding
SELF_SUM_SLACK_S = 1e-3


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``kind`` is ``run`` or ``compare`` (the CLI subcommand, on a config
    derived from ``base`` under ``configs/``) or ``engine`` (the library
    ``run_experiment`` on ``reference_config(**overrides)``).
    ``expect`` lists the spans a traced run must record; ``dominant``
    is the layer (see ``layer_of``) expected to have the largest self
    time, which the traced detail confirms or refutes.
    """

    kind: str
    arms: int
    expect: tuple
    dominant: str
    base: str = ""
    overrides: dict = field(default_factory=dict)
    # traced runs also run half the horizon, to relate peak RSS to history bytes
    horizon_check: bool = False


_ENGINE_SPANS = (
    "harness.engine",
    "model.build",
    "model.validate",
    "harness.signals",
    "learning.tv",
    "harness.normalize",
)
_LEDGER_SPANS = ("switching.ledger", "switching.matrix_build", "switching.record")

WORKLOADS = {
    # export and ledger; the TV kernel is a small share
    "ring15-run": Workload(
        kind="run",
        arms=1,
        base="configs/ring15.json",
        overrides={"replicas": 2},
        expect=("cli.main", "harness.export", "analysis.report", "analysis.rate")
        + _ENGINE_SPANS
        + _LEDGER_SPANS,
        dominant="harness.export",
    ),
    # dense ledger replay (tau = 1 arm on a complete graph), no export
    "complete5-compare": Workload(
        kind="compare",
        arms=2,
        base="configs/complete5_tables.json",
        overrides={"replicas": 10},
        expect=("cli.main", "harness.compare", "harness.summary")
        + _ENGINE_SPANS
        + _LEDGER_SPANS,
        dominant="switching",
    ),
    # the O(m^2) informativeness kernel
    "ring63-m64-engine": Workload(
        kind="engine",
        arms=1,
        overrides={"agents": 63, "states": 64, "replicas": 2, "rounds": 1000},
        expect=_ENGINE_SPANS,
        dominant="learning",
    ),
    # fixed per-round cost and horizon-proportional state, thinning on
    "ring15-long-engine": Workload(
        kind="engine",
        arms=1,
        overrides={"replicas": 2, "rounds": 20_000},
        expect=_ENGINE_SPANS,
        dominant="harness.engine",
        horizon_check=True,
    ),
}

# Gated end-to-end metrics. Wall-clock times are printed with them but not
# gated: on the 2-core reference host, CPU speed drifts by up to 1.45x over
# minutes, and the spread of run medians across ten seeds reached 0.34,
# more than any allowed bound (see README). ``output_mb`` is 0 on the
# library workloads, and a failure already shows in ``failed``.
END_TO_END = {"peak_rss_mb": "MB", "setup_s": "s"}
REPORT_ONLY = {
    "wall_s": "s",
    "cpu_s": "s",
    "agent_rounds_per_s": "1/s",
    "output_mb": "MB",
    "failed_frac": "ratio",
}

PER_LAYER = {
    "process.wall_s": "s",
    "process.cpu_s": "s",
    "process.agent_rounds_per_s": "1/s",
    "model.build_s": "s",
    "model.validate_s": "s",
    "harness.signals_s": "s",
    "harness.signals_mb_computed": "MB",
    "learning.tv_s": "s",
    "learning.tv_calls": "count",
    "learning.tv_us_per_agent_round": "us",
    "learning.tv_mb_computed": "MB",
    "learning.uninformative_frac": "ratio",
    "harness.engine_s": "s",
    "harness.engine_self_s": "s",
    "harness.normalize_s": "s",
    "harness.engine_us_per_round": "us",
    "harness.history_mb_computed": "MB",
    "switching.ledger_s": "s",
    "switching.matrix_builds": "count",
    "switching.matrix_build_s": "s",
    "switching.record_s": "s",
    "switching.events": "count",
    "switching.useful_round_frac": "ratio",
    "harness.export_s": "s",
    "harness.export_self_s": "s",
    "harness.export_rows": "count",
    "harness.export_mb": "MB",
    "harness.export_rows_per_s": "1/s",
    "analysis.report_s": "s",
    "analysis.rate_s": "s",
    "harness.compare_s": "s",
    "harness.summary_s": "s",
    "harness.summary_self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_s": "s",
}


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here, or its own contract broke."""

    def __init__(self, message, status):
        super().__init__(message)
        self.status = status


# ---------------------------------------------------------------- inputs


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def workload_config(name: str, seed: int) -> dict:
    """The config dict a workload runs at ``seed``; ``configs/`` is only read."""
    w = WORKLOADS[name]
    if w.kind == "engine":
        from soclearn.harness import reference_config

        return reference_config(**w.overrides, seed=seed).to_dict()
    config = json.loads((ROOT / w.base).read_text())
    config.update(w.overrides, seed=seed)
    return config


def expected_stored_rounds(config: dict) -> list:
    """Rounds whose beliefs a run keeps, by the documented thinning rule."""
    horizon = config["rounds"]
    stride = config["thin_every"]
    if stride is None:
        stride = 1 if horizon <= 10_000 else -(-horizon // 10_000)
    return sorted(set(range(0, horizon + 1, stride)) | {0, horizon})


def edge_set(config: dict) -> set:
    n = config["agents"]
    if config["topology_kind"] == "ring":
        pairs = [(i, (i + 1) % n) for i in range(n)] if n > 2 else [(0, 1)]
    elif config["topology_kind"] == "complete":
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    else:
        pairs = config["topology_edges"]
    return {(min(i, j), max(i, j)) for i, j in pairs if i != j}


# ---------------------------------------------------------------- checks


def check_run(out_dir: Path, stdout: str, config: dict, deep: bool):
    """Digests of a ``soclearn run`` export and what is wrong with it.

    Always checks row counts, the summary and the ledger rows; ``deep``
    also parses every belief row and checks each distribution sums to 1.
    """
    errors = []
    data = {}
    for name in RUN_OUTPUTS:
        path = out_dir / name
        if not path.is_file():
            return {}, [f"{name} missing"]
        data[name] = path.read_bytes()
    digests = {name: sha256(blob) for name, blob in data.items()}
    n, m, reps = config["agents"], config["states"], config["replicas"]
    horizon = config["rounds"]
    stored = expected_stored_rounds(config)

    belief_rows = data["beliefs.csv"].count(b"\n") - 3
    if belief_rows != reps * len(stored) * n * m:
        errors.append(
            f"beliefs.csv has {belief_rows} rows, expected "
            f"{reps} x {len(stored)} x {n} x {m}"
        )
    edges = edge_set(config)
    comm = data["comm.csv"].decode().splitlines()
    if comm[:1] != ["replica,t,agent_i,agent_j"]:
        errors.append("comm.csv header")
    events = [tuple(int(v) for v in line.split(",")) for line in comm[1:]]
    if events != sorted(events):
        errors.append("comm.csv rows out of order")
    for r, t, i, j in events:
        if not (0 <= r < reps and 1 <= t <= horizon and (i, j) in edges and i < j):
            errors.append(f"comm.csv row {(r, t, i, j)} is not an exchange of this run")
            break

    summary = data["summary.txt"].decode().splitlines()
    consensus_lines = [s for s in summary if s.startswith("replica ")]
    printed = [s for s in stdout.splitlines() if s.startswith("consensus rounds: ")]
    if len(consensus_lines) != reps or len(printed) != 1:
        errors.append("summary.txt or stdout lacks a line per replica")
    else:
        from_summary = [s.split("consensus round ")[1].split(",")[0] for s in consensus_lines]
        if f"consensus rounds: [{', '.join(from_summary)}]" != printed[0]:
            errors.append("consensus rounds differ between stdout and summary.txt")

    if deep:
        errors += _check_belief_rows(data["beliefs.csv"].decode(), config, stored)
    facts = {"belief_rows": belief_rows, "comm_rows": len(events)}
    return {"digests": digests, "facts": facts}, errors


def _check_belief_rows(text: str, config: dict, stored: list) -> list:
    lines = text.splitlines()
    if lines[:3] != [
        "# generator: philox4x64",
        f"# seed: {config['seed']}",
        "replica,t,agent,state_label,belief",
    ]:
        return ["beliefs.csv header"]
    n, m = config["agents"], config["states"]
    labels = config["state_labels"] or [f"state_{k}" for k in range(m)]
    row = 3
    for r in range(config["replicas"]):
        for t in stored:
            for i in range(n):
                total = 0.0
                for label in labels:
                    rep, rnd, agent, lab, value = lines[row].split(",")
                    if (int(rep), int(rnd), int(agent), lab) != (r, t, i, label):
                        return [f"beliefs.csv line {row + 1} out of place"]
                    total += float(value)
                    row += 1
                if abs(total - 1.0) > 1e-9:
                    return [f"beliefs of replica {r}, round {t}, agent {i} sum to {total!r}"]
    return []


def check_compare(stdout: str, config: dict):
    """Digest of a ``soclearn compare`` summary and what is wrong with it.

    The baseline arm (tau = 1) fires every edge every round, so its
    exchange count is known exactly at any seed.
    """
    errors = []
    lines = stdout.splitlines()
    reps, horizon = config["replicas"], config["rounds"]
    full = horizon * len(edge_set(config))
    replica_lines = [s for s in lines if s.startswith("replica ")]
    totals = [s for s in lines if s.startswith("total exchanges: ")]
    switching, baseline = [], []
    for s in replica_lines:
        pair = s.split("exchanges ")[1].split(" baseline")[0]
        a, b = pair.split(" vs ")
        switching.append(int(a))
        baseline.append(int(b))
    if len(replica_lines) != reps or len(totals) != 1:
        errors.append("compare output lacks a line per replica or the total")
    elif any(b != full for b in baseline):
        errors.append(f"baseline exchanges {baseline}, expected {full} each")
    elif any(not 0 <= a <= b for a, b in zip(switching, baseline)):
        errors.append("switching arm exchanged more than the baseline")
    elif not totals[0].startswith(
        f"total exchanges: {sum(switching)} vs {sum(baseline)} baseline"
    ):
        errors.append("total exchanges disagree with the per-replica lines")
    facts = {"events": sum(switching) + sum(baseline)}
    return {"digests": {"stdout": sha256(stdout.encode())}, "facts": facts}, errors


def check_engine(result: dict, config: dict):
    """Digests of a library engine run and what is wrong with it."""
    errors = []
    facts = result["facts"]
    reps, horizon = config["replicas"], config["rounds"]
    n, m = config["agents"], config["states"]
    if facts["uninformative_shape"] != [reps, horizon, n]:
        errors.append(f"uninformative shape {facts['uninformative_shape']}")
    if facts["final_shape"] != [reps, n, m]:
        errors.append(f"final belief shape {facts['final_shape']}")
    if facts["stored_rounds"] != expected_stored_rounds(config):
        errors.append("stored rounds do not follow the thinning rule")
    if not facts["max_abs_log_norm"] < 1e-9:
        errors.append(f"final beliefs off normalisation by {facts['max_abs_log_norm']}")
    if len(result["digests"]["consensus_rounds"]) != reps:
        errors.append("consensus rounds missing")
    kept = {k: v for k, v in facts.items() if k != "stored_rounds"}
    kept["stored_rounds"] = len(facts["stored_rounds"])
    return {"digests": result["digests"], "facts": kept}, errors


def digest_mismatches(pinned: dict, digests: dict) -> list:
    return [
        f"{key} differs from its pinned digest"
        for key, value in pinned.items()
        if digests.get(key) != value
    ]


def pin_mismatches(name: str, seed: int, digests: dict) -> list:
    """Digests that differ from those pinned for this workload, at its pin seed."""
    pin = json.loads((HERE / "pins.json").read_text()).get(name)
    if pin is None or pin["seed"] != seed:
        return []
    return digest_mismatches(pin["digests"], digests)


# ---------------------------------------------------------------- children


@dataclass
class Child:
    status: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str
    stderr: str


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    nproc = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        env.setdefault(var, nproc)
    return env


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_child(cmd, workdir: Path, env: dict) -> Child:
    """Run one fresh process to completion; its wall clock and own rusage.

    The process is started by ``launch.py`` in a session of its own, so
    a timeout or an interrupt stops the launcher and the child together.
    """
    out_path, err_path = workdir / "stdout.txt", workdir / "stderr.txt"
    report = workdir / "launch.txt"
    report.unlink(missing_ok=True)
    launcher = [sys.executable, "-S", str(HERE / "launch.py"), str(report), "--"]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(
            launcher + cmd, stdout=out, stderr=err, env=env, cwd=ROOT,
            start_new_session=True,
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            proc.wait()
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
    stdout, stderr = out_path.read_text(), err_path.read_text()
    if proc.returncode != 0 or not report.is_file():
        return Child(proc.returncode or -1, 0.0, 0.0, 0.0, stdout, stderr + "\nlauncher failed")
    status, wall, cpu, maxrss = report.read_text().split()
    return Child(int(status), float(wall), float(cpu), int(maxrss) * 1024 / MIB, stdout, stderr)


def workload_command(name: str, config_path: Path, workdir: Path, trace: bool) -> list:
    w = WORKLOADS[name]
    py = sys.executable
    result = ["--result", str(workdir / "result.json")]
    spans = ["--trace", str(workdir / "spans.json")] if trace else []
    if w.kind == "engine":
        return [py, str(HERE / "job.py"), "engine", "--config", str(config_path)] + result + spans
    cli = [w.kind, "--config", str(config_path)]
    if w.kind == "run":
        cli += ["--out", str(workdir / "out")]
    if trace:
        return [py, str(HERE / "job.py"), "cli"] + result + spans + ["--"] + cli
    return [py, "-m", "soclearn.cli"] + cli


def run_workload(name, config, config_path, workdir, env, trace, deep, pinned=True):
    """One execution of a workload; returns the child, check outcome and job result.

    ``pinned`` is false for a config other than the workload's own, whose
    digests the pins cannot cover.
    """
    w = WORKLOADS[name]
    out = workdir / "out"
    shutil.rmtree(out, ignore_errors=True)
    child = run_child(workload_command(name, config_path, workdir, trace), workdir, env)
    if child.status == 3 and trace:
        raise BenchmarkError(child.stderr.strip(), 3)
    if child.status != 0:
        return child, {}, [f"exit status {child.status}: {child.stderr.strip()[-500:]}"], {}
    job = {}
    try:
        if w.kind == "engine" or trace:
            job = json.loads((workdir / "result.json").read_text())
        if w.kind == "run":
            outcome, errors = check_run(out, child.stdout, config, deep)
            if outcome:
                outcome["facts"]["output_bytes"] = sum(
                    (out / f).stat().st_size for f in RUN_OUTPUTS
                )
        elif w.kind == "compare":
            outcome, errors = check_compare(child.stdout, config)
        else:
            outcome, errors = check_engine(job, config)
    except (ValueError, IndexError, KeyError, OSError) as exc:
        # output the checks cannot even parse is wrong output
        outcome, errors = {}, [f"unreadable output: {exc!r}"]
    shutil.rmtree(out, ignore_errors=True)
    if pinned:
        errors += pin_mismatches(name, config["seed"], outcome.get("digests", {}))
    if trace and outcome and not errors:
        errors += _check_trace_counts(name, job["trace"]["counters"], outcome["facts"])
    return child, outcome, errors, job


def _check_trace_counts(name, counters, facts) -> list:
    kind = WORKLOADS[name].kind
    if kind == "run" and counters.get("events", 0) != facts["comm_rows"]:
        return [f"comm.csv has {facts['comm_rows']} rows, ledger {counters.get('events')}"]
    if kind == "compare" and counters.get("events", 0) != facts["events"]:
        return [f"compare printed {facts['events']} exchanges, ledger {counters.get('events')}"]
    if kind == "engine" and counters.get("uninformative") != facts["uninformative_count"]:
        return ["uninformative count differs between trace and output"]
    return []


# ---------------------------------------------------------------- metrics


def median(values):
    return statistics.median(values) if values else 0.0


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(trace: dict, wall_s: float) -> dict:
    """Per-layer values of one traced run.

    The ``process.*`` timings and ``trace.overhead_frac`` are missing:
    they come from the run's untraced executions.
    """
    spans, c = trace["by_name"], trace["counters"]

    def total(name):
        return spans.get(name, {}).get("total_s", 0.0)

    def own(name):
        return spans.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    rows = c.get("export_rows", 0)
    return {
        "model.build_s": total("model.build"),
        "model.validate_s": total("model.validate"),
        "harness.signals_s": total("harness.signals"),
        "harness.signals_mb_computed": c.get("signals_bytes", 0) / MIB,
        "learning.tv_s": total("learning.tv"),
        "learning.tv_calls": calls("learning.tv"),
        "learning.tv_us_per_agent_round": 1e6 * _ratio(
            total("learning.tv"), c.get("tv_agent_rounds", 0)
        ),
        "learning.tv_mb_computed": c.get("tv_bytes", 0) / MIB,
        "learning.uninformative_frac": _ratio(
            c.get("uninformative", 0), c.get("engine_agent_rounds", 0)
        ),
        "harness.engine_s": total("harness.engine"),
        "harness.engine_self_s": own("harness.engine"),
        "harness.normalize_s": total("harness.normalize"),
        "harness.engine_us_per_round": 1e6 * _ratio(
            total("harness.engine"), c.get("engine_rounds", 0)
        ),
        "harness.history_mb_computed": c.get("history_bytes", 0) / MIB,
        "switching.ledger_s": total("switching.ledger"),
        "switching.matrix_builds": calls("switching.matrix_build"),
        "switching.matrix_build_s": total("switching.matrix_build"),
        "switching.record_s": total("switching.record"),
        "switching.events": c.get("events", 0),
        "switching.useful_round_frac": _ratio(
            c.get("ledger_rounds_with_events", 0), c.get("ledger_rounds", 0)
        ),
        "harness.export_s": total("harness.export"),
        "harness.export_self_s": own("harness.export"),
        "harness.export_rows": rows,
        "harness.export_mb": c.get("export_bytes", 0) / MIB,
        "harness.export_rows_per_s": _ratio(rows, total("harness.export")),
        "analysis.report_s": total("analysis.report"),
        "analysis.rate_s": total("analysis.rate"),
        "harness.compare_s": total("harness.compare"),
        "harness.summary_s": total("harness.summary"),
        "harness.summary_self_s": own("harness.summary"),
        "cli.self_s": own("cli.main"),
        "trace.unattributed_s": wall_s - trace["post_s"] - trace["root_sum_s"],
    }


def check_trace_contract(name: str, trace: dict) -> dict:
    """Raise unless every expected span fired and self times add up.

    Returns the self-time bookkeeping recorded in the detail line.
    """
    spans = trace["by_name"]
    silent = [s for s in WORKLOADS[name].expect if spans.get(s, {}).get("calls", 0) == 0]
    if silent:
        raise BenchmarkError(
            f"trace contract broken: {', '.join(silent)} never fired on {name}", 3
        )
    gap = abs(trace["self_sum_s"] - trace["root_sum_s"])
    if gap > SELF_SUM_SLACK_S:
        raise BenchmarkError(
            f"trace contract broken: self times sum to {trace['self_sum_s']:.6f} s, "
            f"root spans cover {trace['root_sum_s']:.6f} s",
            3,
        )
    by_layer: dict = {}
    for span, entry in spans.items():
        layer = layer_of(span)
        by_layer[layer] = by_layer.get(layer, 0.0) + entry["self_s"]
    return {
        "self_sum_s": trace["self_sum_s"],
        "root_sum_s": trace["root_sum_s"],
        "n_spans": trace["n_spans"],
        "layer_self_s": by_layer,
        "largest_self": max(by_layer, key=by_layer.get),
    }


def layer_of(span: str) -> str:
    """A span's layer: its module, or for harness one of signals, engine,
    export and compare."""
    if span == "harness.normalize":
        return "harness.engine"
    if span == "harness.summary":
        return "harness.compare"
    return span if span.startswith("harness.") else span.split(".")[0]


# ---------------------------------------------------------------- manifest


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _tree_digest(top: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(top.rglob("*.py")):
        h.update(str(path.relative_to(top)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def manifest(name: str, seed: int, config: dict, env: dict, seconds, trace) -> dict:
    import numpy
    import soclearn.harness

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "git_commit": _git_commit(),
        "src_sha256": _tree_digest(ROOT / "src"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "thread_env": {var: env.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "platform": platform.platform(),
        "generator": soclearn.harness.GENERATOR_NAME,
        "config": config,
    }


# ---------------------------------------------------------------- main


def check_checkout():
    missing = [
        p for p in ["src/soclearn/__init__.py"] + [w.base for w in WORKLOADS.values() if w.base]
        if not (ROOT / p).is_file()
    ]
    if missing:
        raise BenchmarkError(
            f"not a soclearn checkout (missing {', '.join(missing)}); "
            "run from the repository root",
            2,
        )
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in declared[key]}
        if listed != table:
            raise BenchmarkError(f"BENCHMARK.json {key} disagrees with run.py", 2)
    if sorted(w["name"] for w in declared["workloads"]) != sorted(WORKLOADS):
        raise BenchmarkError("BENCHMARK.json workloads disagree with run.py", 2)


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one benchmark measurement and return its detail record."""
    check_checkout()
    sys.path.insert(0, str(ROOT / "src"))
    config = workload_config(name, seed)
    env = child_env()
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        config_path = workdir / "config.json"
        config_path.write_text(json.dumps(config, indent=2))
        detail = _measure(name, config, config_path, workdir, env, seconds, trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    detail["manifest"] = manifest(name, seed, config, env, seconds, trace)
    return detail


def _measure(name, config, config_path, workdir, env, seconds, trace):
    w = WORKLOADS[name]
    errors: list = []
    attempted = failed = 0
    validate = [sys.executable, "-m", "soclearn.cli", "validate", "--config", str(config_path)]

    def record(problems):
        nonlocal attempted, failed
        attempted += 1
        if problems:
            failed += 1
            errors.extend(problems)

    setup = []

    def time_setup():
        child = run_child(validate, workdir, env)
        record([] if child.status == 0 else [f"validate exit {child.status}: {child.stderr[-300:]}"])
        setup.append(child.wall_s)

    # warm the page cache and bytecode once; users pay that only on first use
    run_child(validate, workdir, env)

    plain, traced, layers, outcomes, bookkeeping = [], [], [], [], []
    start = time.perf_counter()
    while True:
        for tracing in (False, True) if trace else (False,):
            child, outcome, problems, job = run_workload(
                name, config, config_path, workdir, env, tracing, deep=not outcomes
            )
            if outcomes and outcome and outcome["digests"] != outcomes[0]["digests"]:
                problems.append("outputs differ between repeated runs of one seed")
            record(problems)
            if problems:
                continue
            outcomes.append(outcome)
            if tracing:
                bookkeeping.append(check_trace_contract(name, job["trace"]))
                layers.append(layer_metrics(dict(job["trace"], post_s=job["post_s"]), child.wall_s))
                traced.append(child)
            else:
                plain.append(child)
        if not trace:
            # set-up samples spread over the run see the same host load as the workload
            time_setup()
        if time.perf_counter() - start >= seconds:
            break
    while not trace and len(setup) < SETUP_REPS:
        time_setup()
    horizon = None
    if trace and w.horizon_check and plain:
        half = dict(config, rounds=config["rounds"] // 2)
        half_path = workdir / "half.json"
        half_path.write_text(json.dumps(half))
        child, outcome, problems, _ = run_workload(
            name, half, half_path, workdir, env, trace=False, deep=False, pinned=False
        )
        record(problems)
        if not problems:
            horizon = horizon_growth(half, config, child, outcome, plain, layers)

    detail = {
        "workload": name,
        "errors": errors[:20],
        "digests": outcomes[0]["digests"] if outcomes else {},
        "facts": outcomes[0]["facts"] if outcomes else {},
        "runs": {
            "wall_s": [c.wall_s for c in plain],
            "cpu_s": [c.cpu_s for c in plain],
            "peak_rss_mb": [c.rss_mb for c in plain],
            "setup_s": setup,
            "traced_wall_s": [c.wall_s for c in traced],
        },
    }
    wall = median([c.wall_s for c in plain])
    work = w.arms * config["replicas"] * config["rounds"] * config["agents"]
    timings = {
        "wall_s": wall,
        "cpu_s": median([c.cpu_s for c in plain]),
        "agent_rounds_per_s": _ratio(work, wall),
    }
    if trace:
        metrics = {f"process.{k}": v for k, v in timings.items()}
        metrics["trace.overhead_frac"] = _ratio(median([c.wall_s for c in traced]), wall) - 1.0
        for k in PER_LAYER.keys() - metrics.keys():
            metrics[k] = median([run[k] for run in layers])
        detail["self_time"] = bookkeeping[-1] if bookkeeping else {}
        if bookkeeping:
            detail["self_time"]["traced_total_s"] = traced[-1].wall_s
            detail["self_time"]["slack_s"] = SELF_SUM_SLACK_S
            detail["purpose_holds"] = bookkeeping[-1]["largest_self"] == w.dominant
        if horizon:
            detail["horizon_check"] = horizon
        units = PER_LAYER
    else:
        metrics = {
            "peak_rss_mb": median([c.rss_mb for c in plain]),
            "setup_s": median(setup),
        }
        detail["report_only"] = dict(
            timings,
            output_mb=median([o["facts"].get("output_bytes", 0) for o in outcomes]) / MIB,
            failed_frac=_ratio(failed, attempted),
        )
        units = END_TO_END
    detail["metrics"] = {k: {"value": metrics[k], "unit": units[k]} for k in units}
    detail["attempted"] = attempted
    detail["failed"] = failed
    return detail


def horizon_growth(half, config, child, outcome, plain, layers) -> dict:
    """Peak RSS growth from half the horizon to the full one.

    Set against the growth of the engine's history bytes over the same
    step, the state that thinning leaves proportional to the horizon.
    """
    rss_full = median([c.rss_mb for c in plain])
    history_full = median([run["harness.history_mb_computed"] for run in layers])
    history_half = outcome["facts"]["history_bytes"] / MIB
    return {
        "rounds": [half["rounds"], config["rounds"]],
        "peak_rss_mb": [child.rss_mb, rss_full],
        "history_mb_computed": [history_half, history_full],
        "rss_growth_mb": rss_full - child.rss_mb,
        "history_growth_mb": history_full - history_half,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated benchmark still stops the process it is waiting for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    seed = args.seed % 2**64
    try:
        detail = measure(args.workload, seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return exc.status
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1)
    )
    for key, metric in detail["metrics"].items():
        print(f"  {key:34s} {metric['value']:>16.6g} {metric['unit']}")
    for key, value in detail.get("report_only", {}).items():
        print(f"  {key:34s} {value:>16.6g} {REPORT_ONLY[key]}  (not gated)")
    print(json.dumps(detail))
    print(
        json.dumps(
            {
                "correct": detail["failed"] == 0,
                "attempted": detail["attempted"],
                "failed": detail["failed"],
                "metrics": detail["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
