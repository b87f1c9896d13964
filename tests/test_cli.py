"""The command line's own rules: the exit status of ``validate``, the
``--seed``, ``--replicas`` and ``--agent`` overrides, a closed or absent
stdout, and README's examples, each driven through ``cli.main``."""

import dataclasses
import json
import os
import shlex
import subprocess
import sys

import pytest

from conftest import (
    CONFIG_DIR,
    beliefs_csv_rows,
    bernoulli,
    package_env,
    settling_config,
    write_config,
)
from soclearn.analysis import estimate_rate, identifiability_report
from soclearn.cli import main
from soclearn.harness import ExperimentConfig, build_model, run_experiment


# ------------------------------------------------- exit status and overrides


def test_cli_validate_ok(tmp_path, capsys):
    path = write_config(tmp_path, settling_config(replicas=1, rounds=10))
    assert main(["validate", "--config", str(path)]) == 0
    assert "A1" in capsys.readouterr().out


def test_cli_validate_failure_exit_code(tmp_path, capsys):
    config = settling_config(
        agents=2,
        states=3,
        tables=(bernoulli((0.5, 0.25, 0.5)), bernoulli((0.5, 0.25, 0.5))),
        replicas=1,
        rounds=10,
    )
    path = write_config(tmp_path, config)
    assert main(["validate", "--config", str(path)]) == 2
    assert "A2" in capsys.readouterr().out


def test_cli_run_overrides_seed_and_replicas(tmp_path):
    path = write_config(tmp_path, settling_config(replicas=1, rounds=15))
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    main(["run", "--config", str(path), "--out", str(out_a)])
    main(
        ["run", "--config", str(path), "--seed", "99", "--replicas", "2",
         "--out", str(out_b)]
    )
    comments_a, rows_a = beliefs_csv_rows(out_a / "beliefs.csv")
    comments_b, rows_b = beliefs_csv_rows(out_b / "beliefs.csv")
    assert comments_a[1] == "# seed: 21\n"
    assert comments_b[1] == "# seed: 99\n"
    assert {row[0] for row in rows_a} == {"0"}
    assert {row[0] for row in rows_b} == {"0", "1"}


def test_cli_compare_agent_sets_the_exported_rate_agent(tmp_path, capsys):
    # --agent overrides comparison_agent, so the exported rate follows it
    config = dataclasses.replace(
        ExperimentConfig.from_json(CONFIG_DIR / "complete5_tables.json"),
        replicas=1, rounds=60,
    )
    path = write_config(tmp_path, config)
    out = tmp_path / "cmp"
    argv = ["compare", "--config", str(path), "--agent", "3", "--out", str(out)]
    assert main(argv) == 0
    assert "designated agent: 3" in capsys.readouterr().out
    space, _, lik, _ = build_model(config)
    binding = identifiability_report(lik, space).slowest_state
    window = (30, 60)
    (rec,) = run_experiment(config)
    rate = estimate_rate(rec.stored_rounds, rec.log_beliefs[:, 3, binding], window)
    summary = (out / "switching" / "summary.txt").read_text()
    assert f"estimated rate {rate:.6g} nats/round over rounds 30..60" in summary
    assert rate != estimate_rate(rec.stored_rounds, rec.log_beliefs[:, 0, binding], window)


def test_cli_compare_overrides_seed_and_replicas(tmp_path, capsys):
    config = settling_config(replicas=2, rounds=30)
    path = write_config(tmp_path, config)
    argv = ["compare", "--config", str(path), "--agent", "3"]
    assert main(argv + ["--replicas", "1"]) == 0
    out = capsys.readouterr().out
    assert sum(line.startswith("replica ") for line in out.splitlines()) == 1
    assert main(argv + ["--replicas", "1", "--seed", "99"]) == 0
    assert capsys.readouterr().out != out

# -------------------------------------------------------------------- stdout


def test_cli_exits_quietly_when_stdout_is_closed(tmp_path):
    # the reader of the pipe is gone before the first write, as after `| head -0`
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps({"agents": 3, "states": 4, "rounds": 5, "replicas": 2}))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "soclearn.cli", "compare", "--config", str(config)],
            env=package_env(), stdout=write_end, stderr=subprocess.PIPE, text=True,
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (1, "")


def test_cli_runs_with_no_stdout_at_all(tmp_path):
    # started as `soclearn validate ... >&-`, Python sets sys.stdout to None
    path = write_config(tmp_path, settling_config(replicas=1, rounds=10))
    done = subprocess.run(
        [sys.executable, "-m", "soclearn.cli", "validate", "--config", str(path)],
        env=package_env(), stderr=subprocess.PIPE, text=True,
        preexec_fn=lambda: os.close(1),
    )
    assert (done.returncode, done.stderr) == (0, "")

# ----------------------------------------------------------- README examples


def readme_example(command: str) -> tuple:
    """``(argv, lines)`` of README's ``$ soclearn <command> ...`` block: the
    arguments after ``soclearn``, and the lines it shows printed."""
    readme = (CONFIG_DIR.parent / "README.md").read_text()
    for block in readme.split("```\n")[1::2]:
        first, *lines = block.splitlines()
        if first.startswith(f"$ soclearn {command} "):
            return shlex.split(first)[2:], lines
    raise AssertionError(f"README shows no `soclearn {command}` example")


def assert_shows(printed, shown):
    """Each line of ``shown`` is printed, in order: a ``...`` line skips any
    number of printed lines, and a line ending in ``, ...`` is a prefix."""
    at, skip = 0, False
    for line in shown:
        if line.strip() == "...":
            skip = True
            continue
        prefix = line[:-3] if line.endswith(", ...") else None
        hits = [k for k in range(at, len(printed) if skip else min(at + 1, len(printed)))
                if (printed[k].startswith(prefix) if prefix else printed[k] == line)]
        assert hits, f"README line {line!r} is not printed after line {at} of {printed}"
        at, skip = hits[0] + 1, False
    assert skip or at == len(printed), f"printed more than README shows: {printed[at:]}"


@pytest.mark.parametrize("command", ["run", "compare", "analyze", "validate"])
def test_readme_examples_print_what_readme_shows(tmp_path, capsys, monkeypatch, command):
    # the example's configs/ paths are the checkout's; only out/ moves to tmp_path
    argv, shown = readme_example(command)
    out = str(tmp_path / "out") + os.sep
    monkeypatch.chdir(CONFIG_DIR.parent)
    assert main([out if arg == "out/" else arg for arg in argv]) == 0
    assert_shows(capsys.readouterr().out.replace(out, "out/").splitlines(), shown)
