"""One workload execution in a fresh process, optionally traced.

    python3 perfbench/job.py engine --config CFG --result OUT [--trace SPANS]
    python3 perfbench/job.py cli --result OUT --trace SPANS -- run --config CFG ...

``engine`` calls ``run_experiment`` on the config file and writes the
output digests, shape facts and in-process engine time to ``OUT``.
``cli`` runs ``soclearn.cli.main`` on the arguments after ``--``; the
untraced benchmark runs the CLI as ``python3 -m soclearn.cli`` instead,
so this form exists only for tracing. With ``--trace``, every name in
``WRAPS`` is wrapped in a span before the workload starts, and the
aggregated spans and counters go to ``OUT`` as well. The raw spans are
written to ``SPANS``.

Exit status 3 means the trace contract broke: a wrapped name no longer
exists in the package.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from spans import TraceContractError, Tracer, aggregate, install

def history_bytes(records) -> int:
    """Bytes the engine keeps per run, from shapes.

    Stored beliefs, ``tv_series`` and ``uninformative`` of every record,
    plus the ``(rounds + 1, agents)`` signal index array per replica.
    """
    total = 0
    for rec in records:
        total += rec.log_beliefs.nbytes + rec.tv_series.nbytes + rec.uninformative.nbytes
        total += (rec.rounds + 1) * rec.last_below.size * np.dtype(np.intp).itemsize
    return total


def _count_tv(tracer, result, args, kwargs):
    log_mu = args[0]
    m = log_mu.shape[-1]
    rows = log_mu.size // m
    tracer.counters["tv_agent_rounds"] += rows
    tracer.counters["tv_bytes"] += rows * m * m * 8


def _count_signals(tracer, result, args, kwargs):
    # the uniform draw (float64) and the returned index array
    tracer.counters["signals_bytes"] += result.nbytes + result.size * 8


def _count_engine(tracer, result, args, kwargs):
    config = args[0] if args else kwargs["config"]
    tracer.counters["engine_rounds"] += config.rounds
    tracer.counters["engine_agent_rounds"] += config.replicas * config.rounds * config.agents
    tracer.counters["uninformative"] += sum(int(rec.uninformative.sum()) for rec in result)
    tracer.counters["history_bytes"] += history_bytes(result)


def _count_ledger(tracer, result, args, kwargs):
    tracer.counters["events"] += len(result.events)
    tracer.counters["ledger_rounds"] += result.rounds_recorded
    tracer.counters["ledger_rounds_with_events"] += len({t for t, _, _ in result.events})


def _count_export(tracer, result, args, kwargs):
    out = Path(args[1])
    beliefs = (out / "beliefs.csv").read_bytes()
    comm = (out / "comm.csv").read_bytes()
    # two '#' comment lines and a header in beliefs.csv, a header in comm.csv
    tracer.counters["export_rows"] += beliefs.count(b"\n") - 3 + comm.count(b"\n") - 1
    tracer.counters["export_bytes"] += (
        len(beliefs) + len(comm) + (out / "summary.txt").stat().st_size
    )


# (target, span name, counter hook). Targets name the attribute a caller
# in the package looks up, so a call across a module boundary is caught
# on the caller's side: cli -> harness and harness -> the other modules.
WRAPS = (
    ("soclearn.cli:main", "cli.main", None),
    ("soclearn.cli:run_experiment", "harness.engine", _count_engine),
    ("soclearn.cli:compare_baseline", "harness.compare", None),
    ("soclearn.cli:export", "harness.export", _count_export),
    ("soclearn.cli:build_model", "model.build", None),
    ("soclearn.cli:validate_assumptions", "model.validate", None),
    ("soclearn.cli:identifiability_report", "analysis.report", None),
    ("soclearn.harness:run_experiment", "harness.engine", _count_engine),
    ("soclearn.harness:export", "harness.export", _count_export),
    ("soclearn.harness:build_model", "model.build", None),
    ("soclearn.harness:validate_assumptions", "model.validate", None),
    ("soclearn.harness:identifiability_report", "analysis.report", None),
    ("soclearn.harness:estimate_rate", "analysis.rate", None),
    ("soclearn.harness:generate_signals", "harness.signals", _count_signals),
    ("soclearn.harness:_bayes_tv_rows", "learning.tv", _count_tv),
    ("soclearn.harness:_lse_last", "harness.normalize", None),
    ("soclearn.harness:build_switching_matrix", "switching.matrix_build", None),
    ("soclearn.harness:record_round", "switching.record", None),
    ("soclearn.harness:TrajectoryRecord.ledger", "switching.ledger", _count_ledger),
    ("soclearn.harness:BaselineComparison.summary", "harness.summary", None),
)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def engine_outputs(records) -> dict:
    """Digests of an engine run and the facts the benchmark checks them by."""
    final = np.stack([rec.final_log_belief for rec in records])
    uninformative = np.stack([rec.uninformative for rec in records])
    peak = final.max(axis=-1, keepdims=True)
    lse = peak[..., 0] + np.log(np.exp(final - peak).sum(axis=-1))
    return {
        "digests": {
            "final_log_beliefs": sha256(final.tobytes()),
            "uninformative_bits": sha256(np.packbits(uninformative).tobytes()),
            "consensus_rounds": [rec.consensus_round for rec in records],
        },
        "facts": {
            "replicas": len(records),
            "uninformative_shape": list(uninformative.shape),
            "uninformative_count": int(uninformative.sum()),
            "stored_rounds": [int(t) for t in records[0].stored_rounds],
            "final_shape": list(final.shape),
            "max_abs_log_norm": float(np.max(np.abs(lse))),
            "history_bytes": history_bytes(records),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="job.py")
    parser.add_argument("kind", choices=("engine", "cli"))
    parser.add_argument("--config")
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", help="write raw spans here and trace the run")
    argv = sys.argv[1:] if argv is None else list(argv)
    split = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:split])
    cli_args = argv[split + 1 :]

    tracer = None
    if args.trace:
        tracer = Tracer()
        try:
            install(tracer, WRAPS)
        except TraceContractError as exc:
            print(f"trace contract broken: {exc}", file=sys.stderr)
            return 3

    import soclearn.cli
    import soclearn.harness

    result: dict = {}
    status = 0
    if args.kind == "engine":
        config = soclearn.harness.ExperimentConfig.from_json(args.config)
        start = time.perf_counter()
        records = soclearn.harness.run_experiment(config)
        result["engine_s"] = time.perf_counter() - start
        done = time.perf_counter()
        result.update(engine_outputs(records))
    else:
        status = soclearn.cli.main(cli_args)
        done = time.perf_counter()

    if tracer is not None:
        result["trace"] = aggregate(tracer.spans)
        result["trace"]["n_spans"] = len(tracer.spans)
        result["trace"]["counters"] = dict(tracer.counters)
        names = sorted({span[0] for span in tracer.spans})
        index = {name: k for k, name in enumerate(names)}
        with open(args.trace, "w") as fh:
            json.dump(
                {
                    "names": names,
                    "spans": [[index[n], s, e, p] for n, s, e, p in tracer.spans],
                },
                fh,
            )
    # time spent after the workload, which the parent's wall clock includes
    result["post_s"] = time.perf_counter() - done
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return status


if __name__ == "__main__":
    sys.exit(main())
