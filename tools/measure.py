"""Named, re-runnable measurements: each prints one figure as ROADMAP.md quotes it.

    python3 tools/measure.py NAME

Each NAME is one seeded function over this checkout's ``src``:

- ``regime-shares``: on each bundled config, the share of
  replica-rounds whose verdicts flag nobody, every agent, or some but
  not all.
- ``verdict-margins``: on each bundled config, the smallest relative
  margin ``|tv - tau| / tau`` over every verdict of every replica.
- ``warm-calls``: the calls cProfile counts in
  ``run_experiment(reference_config(replicas=2, rounds=2000))``, made
  twice with one config in one process: the first call also builds the
  model's cached tables, the second is warm, and its count is also
  given per round.
- ``compare-split``: ``compare_baseline`` on complete5 at 10 replicas,
  in-process, best of 5: both arms' engine time, the time to replay
  every record's ledger, then ``summary()``'s time; and the
  ``build_switching_matrix`` calls of one comparison, counted apart.

Each function takes keyword overrides of the configs it runs, so that
a test can take its row at a small size.
"""

from __future__ import annotations

import argparse
import cProfile
import dataclasses
import pstats
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from soclearn import harness  # noqa: E402
from soclearn.harness import (  # noqa: E402
    ExperimentConfig, compare_baseline, reference_config, run_experiment)

BUNDLED = {"ring15": "ring15.json", "complete5": "complete5_tables.json"}


def bundled(overrides: dict):
    """``(name, config)`` of each bundled config, with ``overrides`` applied."""
    for name, file in BUNDLED.items():
        yield name, dataclasses.replace(ExperimentConfig.from_json(ROOT / "configs" / file),
                                        **overrides)


def sized(config) -> str:
    plural = "s" if config.replicas != 1 else ""
    return f"{config.rounds:,} rounds, {config.replicas} replica{plural}"


def regime_shares(**overrides) -> None:
    for name, config in bundled(overrides):
        # only the verdicts are read, so the records store the end rounds alone
        records = run_experiment(dataclasses.replace(config, thin_every=config.rounds))
        flagged = np.concatenate([rec.uninformative.sum(axis=1) for rec in records])
        nobody, everybody = np.mean(flagged == 0), np.mean(flagged == config.agents)
        print(f"{name} ({sized(config)}): {nobody:.1%} nobody flagged, {everybody:.1%} all, "
              f"{1.0 - nobody - everybody:.1%} mixed")


def verdict_margins(**overrides) -> None:
    for name, config in bundled(overrides):
        # one replica per call, storing every round's TVs
        one = dataclasses.replace(config, replicas=1, thin_every=1)
        smallest, verdicts = np.inf, 0
        for replica in range(config.replicas):
            (rec,) = run_experiment(one, replica)
            smallest = min(smallest, np.min(np.abs(rec.tv_series - config.tau)) / config.tau)
            verdicts += rec.tv_series.size
        print(f"{name} ({sized(config)}): {smallest:.1e} over {verdicts:,} verdicts")


def warm_calls(**overrides) -> None:
    config = reference_config(**{"replicas": 2, "rounds": 2000, **overrides})
    counts = []
    for _ in range(2):
        profile = cProfile.Profile()
        profile.runcall(run_experiment, config)
        counts.append(pstats.Stats(profile).total_calls)
    print(f"run_experiment(reference_config(replicas={config.replicas}, "
          f"rounds={config.rounds})): {counts[0]:,} calls on the first call, then "
          f"{counts[1]:,} on a warm call: {counts[1] / config.rounds:.1f} per round")


def compare_split(**overrides) -> None:
    config = dataclasses.replace(ExperimentConfig.from_json(ROOT / "configs" / BUNDLED["complete5"]),
                                 **{"replicas": 10, **overrides})
    best = [np.inf] * 3
    for _ in range(5):
        marks = [time.perf_counter()]
        comparison = compare_baseline(config)
        marks.append(time.perf_counter())
        for rec in comparison.switching + comparison.baseline:
            rec.ledger
        marks.append(time.perf_counter())
        comparison.summary()
        marks.append(time.perf_counter())
        best = [min(b, hi - lo) for b, lo, hi in zip(best, marks, marks[1:])]
    # counted on a run of its own, so the wrapper slows no timed run
    with mock.patch.object(harness, "build_switching_matrix",
                           wraps=harness.build_switching_matrix) as build:
        comparison = compare_baseline(config)
        for rec in comparison.switching + comparison.baseline:
            rec.ledger
    engines, replays, summary = (f"{t * 1e3:.1f} ms" for t in best)
    print(f"complete5 ({sized(config)}), best of 5: engines {engines}, ledger replays "
          f"{replays}, summary() {summary}; {build.call_count:,} build_switching_matrix calls")


MEASUREMENTS = {
    "regime-shares": regime_shares,
    "verdict-margins": verdict_margins,
    "warm-calls": warm_calls,
    "compare-split": compare_split,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("name", choices=MEASUREMENTS)
    MEASUREMENTS[parser.parse_args(argv).name]()
    return 0


if __name__ == "__main__":
    sys.exit(main())
