"""Command-line front end.

Four subcommands: ``run`` executes a configuration and exports CSVs,
``compare`` runs the switching protocol against its always-communicate
baseline, ``analyze`` prints the identifiability structure, and
``validate`` checks the standing assumptions (exit status 2 on
failure, for scripting).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

from .analysis import identifiability_report, validate_assumptions
from .harness import ExperimentConfig, build_model, compare_baseline, export
# not called here: bound so that perfbench/job.py can trace soclearn.cli.run_experiment
from .harness import run_experiment  # noqa: F401
from .model import AssumptionViolation


def _load_config(args) -> ExperimentConfig:
    config = ExperimentConfig.from_json(args.config)
    overrides = {name: getattr(args, name) for name in ("seed", "replicas", "comparison_agent")
                 if getattr(args, name, None) is not None}
    return dataclasses.replace(config, **overrides)


def _cmd_run(args) -> int:
    config = _load_config(args)
    settled = []
    export(config, args.out, lambda rec: settled.append(rec.consensus_round))
    print(f"ran {len(settled)} replica(s) of {config.rounds} rounds")
    print(f"consensus rounds: {settled}")
    print(f"wrote beliefs.csv, comm.csv, summary.txt to {args.out}")
    return 0


def _cmd_compare(args) -> int:
    config = _load_config(args)
    summary = compare_baseline(config, args.out or None).summary()
    print(summary)
    if args.out:
        (Path(args.out) / "comparison.txt").write_text(summary + "\n")
        print(f"wrote comparison to {args.out}")
    return 0


def _cmd_analyze(args) -> int:
    config = _load_config(args)
    space, _, lik, _ = build_model(config)
    report = identifiability_report(lik, space)
    print(report.summary())
    if args.out:
        report.write_csv(args.out)
        print(f"wrote kl.csv, divergence.csv to {args.out}")
    return 0


def _cmd_validate(args) -> int:
    config = _load_config(args)
    space, _, lik, net = build_model(config)
    report = validate_assumptions(lik, net, space)
    print(report.summary())
    return 0 if report.passed else 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="soclearn",
        description="Networked social learning with informativeness-triggered "
        "communication.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # --config and the config overrides of the commands that simulate
    sim = argparse.ArgumentParser(add_help=False)
    sim.add_argument("--config", required=True, help="path to a JSON config")
    sim.add_argument("--seed", type=int, help="override the config seed")
    sim.add_argument("--replicas", type=int, help="override the replica count")

    run_p = sub.add_parser(
        "run", parents=[sim], help="run an experiment and export CSVs"
    )
    run_p.add_argument("--out", default="out", help="output directory")
    run_p.set_defaults(func=_cmd_run)

    cmp_p = sub.add_parser(
        "compare", parents=[sim],
        help="run against the always-communicate baseline",
    )
    cmp_p.add_argument(
        "--agent", dest="comparison_agent", type=int,
        help="override the config's designated agent (comparison_agent)",
    )
    cmp_p.add_argument("--out", default=None, help="output directory (optional)")
    cmp_p.set_defaults(func=_cmd_compare)

    ana_p = sub.add_parser("analyze", help="print identifiability structure")
    ana_p.add_argument("--config", required=True, help="path to a JSON config")
    ana_p.add_argument("--out", default=None, help="CSV output directory (optional)")
    ana_p.set_defaults(func=_cmd_analyze)

    val_p = sub.add_parser("validate", help="check the standing assumptions")
    val_p.add_argument("--config", required=True, help="path to a JSON config")
    val_p.set_defaults(func=_cmd_validate)

    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        if sys.stdout is not None:  # None when started with stdout closed
            sys.stdout.flush()
        return status
    except AssumptionViolation as exc:
        print(f"assumption violation: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader closed stdout; send what is still buffered to devnull,
        # so the interpreter's flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
