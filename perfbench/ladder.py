"""Report-only engine scale ladder over agents n and states m.

    python3 perfbench/ladder.py [--seed N]

For each (n, m) in ``POINTS`` it runs the library ``run_experiment`` on
the reference family twice in fresh processes, once untraced and once
traced, and prints microseconds per agent-round, the shares of the TV
kernel and of the engine's own code in engine time, peak RSS, and the
computed sizes of the TV tensor and of ``switching_sequence``. Nothing
is gated; the numbers inform where the engine's cost goes as n and m
grow. Run from the root of a source checkout.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run

# (agents, states, replicas, rounds)
POINTS = ((15, 16, 2, 1000), (63, 64, 2, 500), (255, 16, 1, 500))


def measure_point(n, m, reps, rounds, seed, env, workdir) -> dict:
    from soclearn.harness import reference_config

    config = reference_config(agents=n, states=m, replicas=reps, rounds=rounds, seed=seed).to_dict()
    path = workdir / "config.json"
    path.write_text(json.dumps(config))
    cmd = [sys.executable, str(run.HERE / "job.py"), "engine", "--config", str(path),
           "--result", str(workdir / "result.json")]
    plain = run.run_child(cmd, workdir, env)
    if plain.status != 0:
        raise run.BenchmarkError(f"ladder point ({n}, {m}) failed: {plain.stderr}", 1)
    job = json.loads((workdir / "result.json").read_text())
    _, errors = run.check_engine(job, config)
    traced = run.run_child(cmd + ["--trace", str(workdir / "spans.json")], workdir, env)
    if traced.status != 0:
        raise run.BenchmarkError(f"traced ladder point ({n}, {m}) failed: {traced.stderr}", 1)
    trace = json.loads((workdir / "result.json").read_text())["trace"]
    layers = run.layer_metrics(dict(trace, post_s=0.0), traced.wall_s)
    engine = layers["harness.engine_s"]
    return {
        "agents": n,
        "states": m,
        "replicas": reps,
        "rounds": rounds,
        "errors": errors,
        "us_per_agent_round": 1e6 * job["engine_s"] / (reps * rounds * n),
        "tv_share": layers["learning.tv_s"] / engine,
        "engine_self_share": layers["harness.engine_self_s"] / engine,
        "peak_rss_mb": plain.rss_mb,
        "wall_s": plain.wall_s,
        "learning.tv_mb_computed": layers["learning.tv_mb_computed"],
        "switching.matrices_mb_computed": reps * rounds * n * n * 8 / run.MIB,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/ladder.py")
    parser.add_argument("--seed", type=int, default=12)
    args = parser.parse_args(argv)
    try:
        run.check_checkout()
    except run.BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return exc.status
    sys.path.insert(0, str(run.ROOT / "src"))
    env = run.child_env()
    run.WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="ladder-", dir=run.WORK))
    try:
        rows = [measure_point(*point, args.seed, env, workdir) for point in POINTS]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{'n':>4} {'m':>4} {'us/agent-round':>15} {'tv share':>9} {'self share':>11} "
          f"{'peak RSS MB':>12} {'TV MB':>10} {'seq MB':>9}")
    for r in rows:
        print(f"{r['agents']:>4} {r['states']:>4} {r['us_per_agent_round']:>15.3f} "
              f"{r['tv_share']:>9.3f} {r['engine_self_share']:>11.3f} {r['peak_rss_mb']:>12.1f} "
              f"{r['learning.tv_mb_computed']:>10.1f} {r['switching.matrices_mb_computed']:>9.1f}")
    manifest = run.manifest("ladder", args.seed, {"points": POINTS}, env, None, 1)
    print(json.dumps({"ladder": rows, "manifest": manifest}))
    return 1 if any(r["errors"] for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
