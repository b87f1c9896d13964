"""Paired end-to-end benchmark of two checkouts, one workload after another.

    python3 tools/paired_bench.py BASE CHANGE --workload W [--workload W2 ...] --seed N --pairs 10 \
        [--out BENCH_NN_label.json [--what TEXT]]

For each workload in turn, runs ``perfbench/run.py --workload W --seed N
--trace 0`` once in each checkout per pair, alternating which side goes
first, so slow drifts of the host fall on both sides alike. Then it
prints that workload's verdict block and a JSON report line. For every
end-to-end metric that ``BENCHMARK.json`` (read from CHANGE) declares,
the block gives each side's median and quartiles and the number of
pairs the change wins. A gain may be claimed when the change wins at
least 9 pairs in 10 and its median beats the base median by more than
the base's interquartile range. It also says whether the change's
median is within the bound by which the benchmark lets the metric
worsen, and marks the metric "unresolved" when the base's interquartile
range exceeds that bound times the base median and not every change run
beats every base run: the spread then hides a change as large as the
bound. It also prints each side's median and quartiles of the ungated
``wall_s``, read from each run's detail line and labelled "not gated":
the benchmark does not bound it, so no claim or bound is judged on it.
Before the first workload it prints each checkout's line count of
Python source under ``src/`` and the path (relative to ``src/``) and
byte size of its largest module, which every report also records as
``src_lines`` and ``largest_module``. A run without a bytecode cache
(``PYTHONDONTWRITEBYTECODE`` set) compiles ``src`` from source, so the
largest module's compile shows in every workload's peak RSS: the pair
tells code-size drift from a change in the data.
A pair in which either side fails makes the script exit 1.
With ``--out``, a run in which every workload passes also writes a
``BENCH_*.json`` document: its label (the file name without ``BENCH_``
and ``.json``), the ``--what`` text, the command line, each checkout's
``git rev-parse HEAD`` (null where that fails), the host and the
per-workload reports.
The two checkouts must sit at resolved paths of equal length, since
the benchmark's peak RSS moves with the checkout's directory; the
script exits 2 before any run when they do not.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import shlex
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> tuple:
    """The gated metrics and the ungated ``wall_s`` of one benchmark run.

    The metrics come from the result object (the last stdout line), the
    wall time from the detail line before it.
    """
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{checkout}: exit {done.returncode}\n{done.stderr}")
    detail, result = map(json.loads, done.stdout.strip().splitlines()[-2:])
    if result["failed"]:
        raise RuntimeError(f"{checkout}: {result['failed']} failed execution(s)")
    return result["metrics"], detail["report_only"]["wall_s"]


def src_lines(checkout: Path) -> int:
    """Lines of the Python files under ``checkout/src``, as ``wc -l`` counts them."""
    return sum(path.read_bytes().count(b"\n") for path in (checkout / "src").rglob("*.py"))


def largest_module(checkout: Path):
    """``{"name", "bytes"}`` of the largest Python file under ``checkout/src``, or ``None``.

    The name is relative to ``src``; of files of equal size, the first by name.
    """
    sizes = {path.relative_to(checkout / "src").as_posix(): path.stat().st_size
             for path in (checkout / "src").rglob("*.py")}
    if not sizes:
        return None
    name = min(sizes, key=lambda name: (-sizes[name], name))
    return {"name": name, "bytes": sizes[name]}


def head_commit(checkout: Path):
    """``git rev-parse HEAD`` in ``checkout``, or ``None`` where it gives none."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout,
                              capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def host() -> dict:
    """Python and numpy versions, usable cores, CPU model and platform of this host."""
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "platform": platform.platform(),
    }


def quartiles(values: list) -> tuple:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(base: list, change: list, better: str, bound: float) -> dict:
    """Medians, quartiles, wins, the claim rule, the bound and the spread mark of one metric."""
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    bq, cq = quartiles(base), quartiles(change)
    gain = sign * (cq[1] - bq[1])
    return {
        "base": bq,
        "change": cq,
        "wins": wins,
        "gain": gain,
        "claim_holds": wins >= math.ceil(0.9 * len(base)) and gain > bq[2] - bq[0],
        "within_bound": -gain <= bound * abs(bq[1]),
        # the base's own spread is wider than the bound, so a median inside
        # it shows nothing unless every change run beats every base run
        "unresolved": bq[2] - bq[0] > bound * abs(bq[1])
        and not all(sign * (c - b) > 0 for b in base for c in change),
    }


def bench(args, workload: str, better: dict, bounds: dict, sizes: dict) -> dict:
    """Run ``args.pairs`` pairs of one workload, print its verdict block, return its report.

    Raises ``RuntimeError`` when a run fails.
    """
    values = {"base": {name: [] for name in better}, "change": {name: [] for name in better}}
    wall = {"base": [], "change": []}
    for k in range(args.pairs):
        order = ("base", "change") if k % 2 == 0 else ("change", "base")
        for side in order:
            try:
                metrics, wall_s = run_once(getattr(args, side), workload, args.seed,
                                           args.seconds)
            except RuntimeError as exc:
                raise RuntimeError(f"{workload} pair {k + 1}, {side}: {exc}") from None
            for name in better:
                values[side][name].append(metrics[name]["value"])
            wall[side].append(wall_s)
        print(f"pair {k + 1}/{args.pairs} ({order[0]} first): "
              + ", ".join(f"{name} {values['base'][name][-1]:.4g} -> "
                          f"{values['change'][name][-1]:.4g}" for name in better),
              flush=True)

    print(f"{workload} seed {args.seed}, {args.pairs} pairs")
    report = {"workload": workload, **sizes}
    for name, direction in better.items():
        v = verdict(values["base"][name], values["change"][name], direction, bounds[name])
        report[name] = {**v, "values": {side: values[side][name] for side in values}}
        (b1, bm, b3), (c1, cm, c3) = v["base"], v["change"]
        print(f"  {name} ({direction} is better): base {bm:.4g} [{b1:.4g}, {b3:.4g}], "
              f"change {cm:.4g} [{c1:.4g}, {c3:.4g}], change wins {v['wins']}/{args.pairs}, "
              f"gain {v['gain']:.4g} vs base IQR {b3 - b1:.4g}: "
              f"claim {'holds' if v['claim_holds'] else 'does not hold'}, "
              f"{'within' if v['within_bound'] else 'OUTSIDE'} the "
              f"{bounds[name]:.0%} bound"
              + (", UNRESOLVED: base IQR exceeds the bound" if v["unresolved"] else ""))
    (b1, bm, b3), (c1, cm, c3) = quartiles(wall["base"]), quartiles(wall["change"])
    print(f"  wall_s (not gated): base {bm:.4g} [{b1:.4g}, {b3:.4g}], "
          f"change {cm:.4g} [{c1:.4g}, {c3:.4g}]")
    report["wall_s"] = {"not_gated": True, "values": wall}
    print(json.dumps(report), flush=True)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", action="append", required=True,
                        help="a workload to run; give it once per workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--out", type=Path,
                        help="write the BENCH_*.json document of the run here")
    parser.add_argument("--what", default="", help="what the change does, for --out")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    base, change = (len(str(path.resolve())) for path in (args.base, args.change))
    if base != change:
        parser.error(f"checkout paths must be of equal length, got {base} and {change} "
                     "characters: peak RSS moves with the checkout's directory")

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    sides = {side: getattr(args, side) for side in ("base", "change")}
    sizes = {"src_lines": {side: src_lines(path) for side, path in sides.items()},
             "largest_module": {side: largest_module(path) for side, path in sides.items()}}
    lines, largest = sizes["src_lines"], sizes["largest_module"]
    print(f"src/ lines: base {lines['base']}, change {lines['change']}")
    print("largest src/ module: " + ", ".join(
        f"{side} " + (f"{module['name']} {module['bytes']} bytes" if module else "none")
        for side, module in largest.items()), flush=True)
    reports = []
    for workload in args.workload:
        try:
            reports.append(bench(args, workload, better, bounds, sizes))
        except RuntimeError as exc:
            print(exc, file=sys.stderr)
            return 1
    if args.out:
        argv = sys.argv[1:] if argv is None else argv
        document = {
            "label": args.out.name.removeprefix("BENCH_").removesuffix(".json"),
            "what": args.what,
            "command": shlex.join(["python3", "tools/paired_bench.py", *argv]),
            "base_commit": head_commit(args.base),
            "change_commit": head_commit(args.change),
            "host": host(),
            "reports": reports,
        }
        args.out.write_text(json.dumps(document, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
