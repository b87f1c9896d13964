"""Check that two checkouts give the same CLI and library outputs, byte for byte.

    python3 tools/same_outputs.py BASE CHANGE [--replicas N]

For each ``configs/*.json``, runs ``python -m soclearn.cli`` in each
checkout, with ``PYTHONPATH=<checkout>/src``, as ``run --out``,
``compare``, ``compare --out``, ``analyze --out`` and ``validate``,
then ``library``: a child process runs ``library_digests``, which
prints the sha256 of the engine's record arrays, of their ledgers and
of the threshold-1 arm's ledgers, and of a ``run_round`` chain's final
beliefs, TVs and flagged masks. ``--replicas`` is passed
on to ``run``, ``compare`` and ``library``. Each command writes into a fresh
temporary directory. It compares the exit codes, stdout and stderr
with the output directory masked, and every output file, byte for
byte, and prints one line per config and command. It exits 0 when
everything matches, 1 at the first difference, which it names, and 2
before any run when the two checkouts' ``configs/`` differ.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

CLI = ("-m", "soclearn.cli")
# imports this file in the child, which finds the checkout's package on its path
LIBRARY = ("-c", f"import sys; sys.path.insert(0, {str(Path(__file__).resolve().parent)!r}); "
                 "import same_outputs; same_outputs.library_digests(sys.argv[1:])")
# (name, python arguments, takes --replicas); "OUT" stands for the output directory
COMMANDS = (
    ("run --out", (*CLI, "run", "--out", "OUT"), True),
    ("compare", (*CLI, "compare"), True),
    ("compare --out", (*CLI, "compare", "--out", "OUT"), True),
    ("analyze --out", (*CLI, "analyze", "--out", "OUT"), False),
    ("validate", (*CLI, "validate"), False),
    ("library", LIBRARY, True),
)


def library_digests(argv) -> None:
    """Print the sha256 of ``run_experiment``'s record arrays, each over
    all replicas in order; of each record's ledger, its ``len`` (int64),
    its ``events`` (int64 triples), its ``communication_fractions()`` and
    its ``rounds_recorded`` (int64), for ``config`` and for its ``tau = 1``
    arm; and of a ``run_round`` chain over replica 0's signals, for
    ``config.rounds`` rounds: its final ``log_belief``, and every round's
    ``tv`` and flagged mask, in round order. ``argv`` is
    ``[--replicas N] --config PATH``."""
    import numpy as np

    from soclearn.harness import ExperimentConfig, run_experiment
    from soclearn.learning import initial_state, run_round
    from soclearn.model import generate_signals

    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True)
    parser.add_argument("--replicas", type=int)
    args = parser.parse_args(argv)
    config = ExperimentConfig.from_json(args.config)
    if args.replicas is not None:
        config = dataclasses.replace(config, replicas=args.replicas)
    records = run_experiment(config)
    for name in ("log_beliefs", "tv_series", "uninformative", "last_below"):
        digest = hashlib.sha256(b"".join(getattr(rec, name).tobytes() for rec in records))
        print(f"run_experiment {name}: {digest.hexdigest()}")
    baseline = run_experiment(dataclasses.replace(config, tau=1.0))
    for arm, arm_records in (("ledger", records), ("tau=1 ledger", baseline)):
        digests = {name: hashlib.sha256()
                   for name in ("len", "events", "communication_fractions", "rounds_recorded")}
        for rec in arm_records:
            ledger = rec.ledger
            digests["len"].update(np.int64(len(ledger)).tobytes())
            digests["events"].update(np.array(ledger.events, np.int64).reshape(-1, 3).tobytes())
            digests["communication_fractions"].update(ledger.communication_fractions().tobytes())
            digests["rounds_recorded"].update(np.int64(ledger.rounds_recorded).tobytes())
        for name, digest in digests.items():
            print(f"{arm} {name}: {digest.hexdigest()}")
    space, prior, lik, net = config.model
    signals = generate_signals(lik, space, config.seed, config.rounds + 1)
    state = initial_state(prior, lik, signals[0])
    tvs, flagged = hashlib.sha256(), hashlib.sha256()
    for t in range(1, config.rounds + 1):
        state, q, tv = run_round(state, net, lik, config.tau, signals[t])
        tvs.update(tv.tobytes())
        flagged.update(q.flagged.tobytes())
    print(f"run_round final log_belief: {hashlib.sha256(state.log_belief.tobytes()).hexdigest()}")
    print(f"run_round tv: {tvs.hexdigest()}")
    print(f"run_round flagged: {flagged.hexdigest()}")


def configs(checkout: Path) -> dict:
    """``{file name: bytes}`` of the checkout's ``configs/*.json``."""
    return {path.name: path.read_bytes() for path in sorted((checkout / "configs").glob("*.json"))}


def outputs(checkout: Path, config: str, args: tuple) -> tuple:
    """``(exit code, masked stdout, masked stderr, {relative path: bytes})`` of one command."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        cmd = [sys.executable, *(str(out) if a == "OUT" else a for a in args),
               "--config", str(checkout / "configs" / config)]
        env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
        done = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
        files = {str(path.relative_to(out)): path.read_bytes()
                 for path in sorted(out.rglob("*")) if path.is_file()}
    return (done.returncode, done.stdout.replace(str(out), "OUT"),
            done.stderr.replace(str(out), "OUT"), files)


def difference(base: tuple, change: tuple):
    """The first difference between two ``outputs``, in words, or ``None``."""
    (code_b, *streams_b, files_b), (code_c, *streams_c, files_c) = base, change
    if code_b != code_c:
        return f"exit {code_b} vs {code_c}"
    for stream, text_b, text_c in zip(("stdout", "stderr"), streams_b, streams_c):
        lines_b, lines_c = text_b.splitlines(), text_c.splitlines()
        for k, (b, c) in enumerate(zip(lines_b, lines_c), start=1):
            if b != c:
                return f"{stream} line {k}: {b!r} vs {c!r}"
        if text_b != text_c:
            return f"{stream} has {len(lines_b)} lines vs {len(lines_c)}"
    if files_b.keys() != files_c.keys():
        return f"files {sorted(files_b)} vs {sorted(files_c)}"
    for name in files_b:
        if files_b[name] != files_c[name]:
            return f"{name} differs"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--replicas", type=int, help="passed on to run, compare and library")
    args = parser.parse_args(argv)
    base, change = args.base.resolve(), args.change.resolve()
    names = configs(base)
    if names != configs(change):
        print("the two checkouts' configs/ differ", file=sys.stderr)
        return 2
    for config in names:
        for name, command, replicated in COMMANDS:
            if replicated and args.replicas is not None:
                command += ("--replicas", str(args.replicas))
            got = [outputs(checkout, config, command) for checkout in (base, change)]
            diff = difference(*got)
            if diff:
                print(f"{config} {name}: DIFFERS, {diff}")
                return 1
            code, *_, files = got[0]
            if name == "library" and code:
                print(f"{config} {name}: FAILED on both (exit {code})")
                return 1
            print(f"{config} {name}: same (exit {code}, {len(files)} files)", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
