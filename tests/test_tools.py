"""The repository's tools, run without launching a benchmark."""

import importlib.util
import json
import shlex
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_paired_bench():
    return load_tool("paired_bench")


def test_paired_bench_refuses_checkout_paths_of_unequal_length(tmp_path, monkeypatch, capsys):
    bench = load_paired_bench()

    def run_once(*args):
        raise AssertionError("a benchmark was launched")

    monkeypatch.setattr(bench, "run_once", run_once)
    (tmp_path / "base").mkdir()
    (tmp_path / "change-longer").mkdir()
    with pytest.raises(SystemExit) as exit_info:
        bench.main([str(tmp_path / "base"), str(tmp_path / "change-longer"),
                    "--workload", "ring15-run", "--seed", "12"])
    assert exit_info.value.code == 2
    assert "checkout paths must be of equal length" in capsys.readouterr().err


def test_paired_bench_reads_wall_time_from_the_detail_line(monkeypatch):
    bench = load_paired_bench()
    detail = {"report_only": {"wall_s": 1.25, "cpu_s": 1.5}}
    result = {"failed": 0, "metrics": {"peak_rss_mb": {"value": 33.8, "unit": "MB"}}}
    stdout = "  peak_rss_mb 33.8 MB\n" + json.dumps(detail) + "\n" + json.dumps(result) + "\n"

    def run(cmd, **kwargs):
        return subprocess.CompletedProcess(cmd, 0, stdout=stdout, stderr="")

    monkeypatch.setattr(bench.subprocess, "run", run)
    metrics, wall_s = bench.run_once(ROOT, "ring15-run", 12, 1.0)
    assert metrics == result["metrics"]
    assert wall_s == 1.25


def test_paired_bench_prints_wall_time_as_not_gated(tmp_path, monkeypatch, capsys):
    bench = load_paired_bench()
    runs = {"base": iter([30.0, 31.0, 32.0]), "chng": iter([20.0, 21.0, 22.0])}

    def run_once(checkout, workload, seed, seconds):
        value = next(runs[checkout.name])
        metrics = {"peak_rss_mb": {"value": value}, "setup_s": {"value": 0.3}}
        return metrics, value / 10

    monkeypatch.setattr(bench, "run_once", run_once)
    for side in ("base", "chng"):
        (tmp_path / side).mkdir()
    (tmp_path / "chng" / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    assert bench.main([str(tmp_path / "base"), str(tmp_path / "chng"),
                       "--workload", "ring15-run", "--seed", "12", "--pairs", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "  wall_s (not gated): base 3.1 [3, 3.2], change 2.1 [2, 2.2]" in lines
    report = json.loads(lines[-1])
    assert report["wall_s"] == {"not_gated": True,
                                "values": {"base": [3.0, 3.1, 3.2], "change": [2.0, 2.1, 2.2]}}
    assert report["peak_rss_mb"]["wins"] == 3


def test_paired_bench_prints_one_verdict_block_per_workload(tmp_path, monkeypatch, capsys):
    bench = load_paired_bench()
    calls = []

    def run_once(checkout, workload, seed, seconds):
        calls.append((workload, checkout.name))
        # the change halves the first workload's RSS and leaves the second's alone
        value = 20.0 if (workload, checkout.name) == ("ring15-run", "chng") else 40.0
        metrics = {"peak_rss_mb": {"value": value}, "setup_s": {"value": 0.3}}
        return metrics, 1.0

    monkeypatch.setattr(bench, "run_once", run_once)
    for side in ("base", "chng"):
        (tmp_path / side).mkdir()
    (tmp_path / "chng" / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    assert bench.main([str(tmp_path / "base"), str(tmp_path / "chng"),
                       "--workload", "ring15-run", "--workload", "complete5-compare",
                       "--seed", "12", "--pairs", "2"]) == 0
    # every pair of one workload runs before the next workload starts
    assert [w for w, _ in calls] == ["ring15-run"] * 4 + ["complete5-compare"] * 4
    lines = capsys.readouterr().out.splitlines()
    heads = [line for line in lines if " seed 12, 2 pairs" in line]
    assert heads == ["ring15-run seed 12, 2 pairs", "complete5-compare seed 12, 2 pairs"]
    reports = [json.loads(line) for line in lines if line.startswith("{")]
    assert [r["workload"] for r in reports] == ["ring15-run", "complete5-compare"]
    assert reports[0]["peak_rss_mb"]["values"] == {"base": [40.0, 40.0],
                                                   "change": [20.0, 20.0]}
    assert reports[0]["peak_rss_mb"]["wins"] == 2
    assert reports[1]["peak_rss_mb"]["wins"] == 0


def test_paired_bench_stops_at_the_first_failing_workload(tmp_path, monkeypatch, capsys):
    bench = load_paired_bench()
    calls = []

    def run_once(checkout, workload, seed, seconds):
        calls.append(workload)
        raise RuntimeError(f"{checkout}: exit 1")

    monkeypatch.setattr(bench, "run_once", run_once)
    for side in ("base", "chng"):
        (tmp_path / side).mkdir()
    (tmp_path / "chng" / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    out = tmp_path / "BENCH_99_x.json"
    assert bench.main([str(tmp_path / "base"), str(tmp_path / "chng"),
                       "--workload", "ring15-run", "--workload", "complete5-compare",
                       "--seed", "12", "--pairs", "2", "--out", str(out)]) == 1
    assert calls == ["ring15-run"]
    assert "ring15-run pair 1, base: " in capsys.readouterr().err
    assert not out.exists()  # no document of a failed run


def test_paired_bench_reports_each_checkouts_src_line_count(tmp_path, monkeypatch, capsys):
    bench = load_paired_bench()

    def run_once(checkout, workload, seed, seconds):
        return {"peak_rss_mb": {"value": 30.0}, "setup_s": {"value": 0.3}}, 1.0

    monkeypatch.setattr(bench, "run_once", run_once)
    for side, modules in (("base", {"a.py": "x = 1\ny = 2\n", "b.py": "z = 3\n"}),
                          ("chng", {"a.py": "x = 1\n"})):
        package = tmp_path / side / "src" / "pkg"
        package.mkdir(parents=True)
        for name, text in modules.items():
            (package / name).write_text(text)
        (package / "notes.txt").write_text("not source\n" * 5)
    (tmp_path / "chng" / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    assert bench.main([str(tmp_path / "base"), str(tmp_path / "chng"),
                       "--workload", "ring15-run", "--seed", "12", "--pairs", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "src/ lines: base 3, change 1"
    assert lines[1] == "largest src/ module: base pkg/a.py 12 bytes, change pkg/a.py 6 bytes"
    report = json.loads(lines[-1])
    assert report["src_lines"] == {"base": 3, "change": 1}
    assert report["largest_module"] == {"base": {"name": "pkg/a.py", "bytes": 12},
                                        "change": {"name": "pkg/a.py", "bytes": 6}}


def test_paired_bench_marks_a_metric_unresolved_when_the_base_spread_exceeds_its_bound(
        tmp_path, monkeypatch, capsys):
    bench = load_paired_bench()
    # setup_s: the base IQR (0.25) is far above 25% of its median (0.35);
    # on "complete5-compare" every change run beats every base run
    setup = {("ring15-run", "base"): [0.2, 0.3, 0.4, 0.5],
             ("ring15-run", "chng"): [0.45, 0.25, 0.35, 0.3],
             ("complete5-compare", "base"): [0.2, 0.3, 0.4, 0.5],
             ("complete5-compare", "chng"): [0.1, 0.1, 0.1, 0.1]}
    runs = {key: iter(values) for key, values in setup.items()}

    def run_once(checkout, workload, seed, seconds):
        metrics = {"peak_rss_mb": {"value": 30.0 + len(checkout.name)},
                   "setup_s": {"value": next(runs[workload, checkout.name])}}
        return metrics, 1.0

    monkeypatch.setattr(bench, "run_once", run_once)
    for side in ("base", "chng"):
        (tmp_path / side).mkdir()
    (tmp_path / "chng" / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    assert bench.main([str(tmp_path / "base"), str(tmp_path / "chng"),
                       "--workload", "ring15-run", "--workload", "complete5-compare",
                       "--seed", "12", "--pairs", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    reports = [json.loads(line) for line in lines if line.startswith("{")]
    assert [(r["setup_s"]["unresolved"], r["peak_rss_mb"]["unresolved"]) for r in reports] \
        == [(True, False), (False, False)]
    marked = [line for line in lines if "UNRESOLVED" in line]
    assert len(marked) == 1 and marked[0].startswith("  setup_s (lower is better): base 0.35 ")
    assert marked[0].endswith(", UNRESOLVED: base IQR exceeds the bound")


def test_paired_bench_writes_the_bench_document(tmp_path, monkeypatch, capsys):
    bench = load_paired_bench()

    def run_once(checkout, workload, seed, seconds):
        value = 20.0 if checkout.name == "chng" else 30.0
        return {"peak_rss_mb": {"value": value}, "setup_s": {"value": 0.3}}, 1.0

    monkeypatch.setattr(bench, "run_once", run_once)
    for side in ("base", "chng"):
        (tmp_path / side).mkdir()
    (tmp_path / "chng" / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    # git looks for no repository above tmp_path, so "base" is none
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@example.com"]
    subprocess.run(git + ["init", "-q"], cwd=tmp_path / "chng", check=True)
    subprocess.run(git + ["commit", "-q", "--allow-empty", "-m", "x"], cwd=tmp_path / "chng",
                   check=True)
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=tmp_path / "chng", check=True,
                          capture_output=True, text=True).stdout.strip()
    out = tmp_path / "BENCH_99_smaller history.json"
    argv = [str(tmp_path / "base"), str(tmp_path / "chng"), "--workload", "ring15-run",
            "--workload", "complete5-compare", "--seed", "7", "--pairs", "2",
            "--out", str(out), "--what", "keeps less"]
    assert bench.main(argv) == 0
    reports = [json.loads(line) for line in capsys.readouterr().out.splitlines()
               if line.startswith("{")]
    document = json.loads(out.read_text())
    assert document["label"] == "99_smaller history"
    assert document["what"] == "keeps less"
    assert shlex.split(document["command"]) == ["python3", "tools/paired_bench.py", *argv]
    assert document["base_commit"] is None  # not a git checkout
    assert document["change_commit"] == head
    assert set(document["host"]) == {"python", "numpy", "nproc", "cpu", "platform"}
    assert document["host"]["nproc"] >= 1
    assert document["reports"] == reports
    assert [r["peak_rss_mb"]["wins"] for r in reports] == [2, 2]


CRITERION_1, CRITERION_9 = (
    "tests.test_acceptance::test_criterion_01_all_agents_settle_on_default_scenario",
    "tests.test_acceptance::test_criterion_09_mixing_product_converges",
)


def junit_xml(times=None, **cases) -> str:
    """A JUnit report of one suite that took 87.5 s; ``cases`` maps a test id to its children.

    ``times`` maps a test id to its seconds; every other test took 0.1 s.
    """
    times = times or {}
    body = "".join(
        f'<testcase classname="{test_id.split("::")[0]}" name="{test_id.split("::")[1]}" '
        f'time="{times.get(test_id, 0.1)}">{children}</testcase>'
        for test_id, children in cases.items()
    )
    return (f'<?xml version="1.0" encoding="utf-8"?><testsuites name="pytest tests">'
            f'<testsuite name="pytest" time="87.5">{body}</testsuite></testsuites>')


def run_tier1(monkeypatch, capsys, xml):
    """``tools/tier1.py``'s exit status and stdout, with pytest's report canned as ``xml``."""
    tier1 = load_tool("tier1")
    commands = []

    def run(cmd, cwd, env):
        commands.append((cmd, cwd))
        report = next(arg for arg in cmd if arg.startswith("--junitxml="))
        Path(report.split("=", 1)[1]).write_text(xml)
        return subprocess.CompletedProcess(cmd, 1)

    monkeypatch.setattr(tier1.subprocess, "run", run)
    status = tier1.main()
    (cmd, cwd), = commands
    assert cmd[1:5] == ["-m", "pytest", "-q", "--continue-on-collection-errors"]
    assert cwd == ROOT
    return status, capsys.readouterr().out.splitlines()


FAILED = '<failure message="assert False">trace</failure>'


def slowest_block(*test_ids) -> list:
    """tier1's slowest-tests lines for tests that each took 0.1 s."""
    return ["slowest tests:", *(f"    0.10 s  {test_id}" for test_id in sorted(test_ids))]


def test_tier1_accepts_exactly_the_by_design_failures(monkeypatch, capsys):
    xml = junit_xml(**{CRITERION_1: FAILED, CRITERION_9: FAILED, "tests.test_a::test_x": "",
                       "tests.test_a::test_y": '<skipped message="no"/>'})
    status, lines = run_tier1(monkeypatch, capsys, xml)
    assert status == 0
    assert lines == ["tier-1: 1 passed, 2 failed, 0 errors, 1 skipped in 87.5 s",
                     *slowest_block(CRITERION_1, CRITERION_9, "tests.test_a::test_x",
                                    "tests.test_a::test_y")]


def test_tier1_names_each_unexpected_failure_and_error(monkeypatch, capsys):
    xml = junit_xml(**{CRITERION_1: FAILED, CRITERION_9: FAILED,
                       "tests.test_a::test_x": FAILED,
                       "tests.test_a::test_y": '<error message="fixture">trace</error>',
                       "tests.test_a::test_z": ""})
    status, lines = run_tier1(monkeypatch, capsys, xml)
    assert status == 1
    assert lines == ["tier-1: 1 passed, 3 failed, 1 errors, 0 skipped in 87.5 s",
                     *slowest_block(CRITERION_1, CRITERION_9, "tests.test_a::test_x",
                                    "tests.test_a::test_y", "tests.test_a::test_z"),
                     "unexpected failed: tests.test_a::test_x",
                     "unexpected error: tests.test_a::test_y"]


def test_tier1_names_a_by_design_failure_that_did_not_fail(monkeypatch, capsys):
    status, lines = run_tier1(monkeypatch, capsys, junit_xml(**{CRITERION_9: ""}))
    assert status == 1
    assert lines == ["tier-1: 1 passed, 0 failed, 0 errors, 0 skipped in 87.5 s",
                     *slowest_block(CRITERION_9),
                     f"fails by design but did not run: {CRITERION_1}",
                     f"fails by design but passed: {CRITERION_9}"]


def test_tier1_prints_the_ten_slowest_tests_slowest_first(monkeypatch, capsys):
    # twelve tests: the two fastest drop out, and the tie at 2.5 s goes by test id
    times = {f"tests.test_a::test_{k:02d}": seconds for k, seconds in
             enumerate([0.01, 11.7, 2.5, 0.3, 6.9, 2.5, 0.02, 1.0, 0.5, 0.4, 3.0, 0.2])}
    xml = junit_xml(times=times, **{CRITERION_1: FAILED, CRITERION_9: FAILED},
                    **dict.fromkeys(times, ""))
    status, lines = run_tier1(monkeypatch, capsys, xml)
    assert status == 0
    assert lines[1:] == ["slowest tests:",
                         "   11.70 s  tests.test_a::test_01",
                         "    6.90 s  tests.test_a::test_04",
                         "    3.00 s  tests.test_a::test_10",
                         "    2.50 s  tests.test_a::test_02",
                         "    2.50 s  tests.test_a::test_05",
                         "    1.00 s  tests.test_a::test_07",
                         "    0.50 s  tests.test_a::test_08",
                         "    0.40 s  tests.test_a::test_09",
                         "    0.30 s  tests.test_a::test_03",
                         "    0.20 s  tests.test_a::test_11"]


def same_outputs_checkouts(tmp_path, change_config=b"{}"):
    """Checkouts "base" and "chng" with configs a.json and b.json; chng's b.json is given."""
    for side, b in (("base", b"{}"), ("chng", change_config)):
        (tmp_path / side / "configs").mkdir(parents=True)
        (tmp_path / side / "configs" / "a.json").write_bytes(b"{}")
        (tmp_path / side / "configs" / "b.json").write_bytes(b)
    return [str(tmp_path / "base"), str(tmp_path / "chng")]


def stub_cli(monkeypatch, tool, files=lambda checkout, args: {"x.csv": b"1\r\n"}):
    """Replace the CLI runs with one that echoes its out directory and writes ``files``."""
    calls = []

    def run(cmd, cwd, env, capture_output, text):
        assert cmd[1:3] == ["-m", "soclearn.cli"]
        assert env["PYTHONPATH"] == str(Path(cwd) / "src")
        args = cmd[3:]
        calls.append((Path(cwd).name, args))
        stdout = f"ran {' '.join(args[:1])}\n"
        if "--out" in args:
            out = Path(args[args.index("--out") + 1])
            out.mkdir()
            for name, data in files(Path(cwd).name, args).items():
                (out / name).write_bytes(data)
            stdout += f"wrote to {out}\n"
        return subprocess.CompletedProcess(cmd, 0, stdout=stdout, stderr="")

    monkeypatch.setattr(tool.subprocess, "run", run)
    return calls


def test_same_outputs_runs_every_command_on_every_config(tmp_path, monkeypatch, capsys):
    tool = load_tool("same_outputs")
    calls = stub_cli(monkeypatch, tool)
    assert tool.main([*same_outputs_checkouts(tmp_path), "--replicas", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:5] == [f"a.json {name}: same (exit 0, {files} files)" for name, files in (
        ("run --out", 1), ("compare", 0), ("compare --out", 1), ("analyze --out", 1),
        ("validate", 0))]
    assert len(lines) == 10 and lines[5].startswith("b.json run --out: same")
    # each command runs in base, then in the change, on that checkout's config
    assert [side for side, _ in calls] == ["base", "chng"] * 10
    commands = [args for side, args in calls if side == "base"]
    for args in commands:
        assert args[-2] == "--config" and Path(args[-1]).parent == tmp_path / "base" / "configs"
    assert [args[0] for args in commands[:5]] == ["run", "compare", "compare", "analyze",
                                                  "validate"]
    assert [("--replicas", "3") == tuple(args[-4:-2]) for args in commands[:5]] \
        == [True, True, True, False, False]


def test_same_outputs_names_the_first_differing_file(tmp_path, monkeypatch, capsys):
    tool = load_tool("same_outputs")

    def files(side, args):
        return {"x.csv": b"1\r\n", "y.txt": b"same\n" if side == "base" or args[0] == "run"
                else b"other\n"}

    calls = stub_cli(monkeypatch, tool, files)
    assert tool.main(same_outputs_checkouts(tmp_path)) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["a.json run --out: same (exit 0, 2 files)",
                     "a.json compare: same (exit 0, 0 files)",
                     "a.json compare --out: DIFFERS, y.txt differs"]
    assert len(calls) == 6  # nothing runs after the first difference


def test_same_outputs_compares_exit_codes_and_stdout():
    tool = load_tool("same_outputs")
    same = (0, "ran\nwrote to OUT\n", {"x.csv": b"1"})
    assert tool.difference(same, same) is None
    assert tool.difference(same, (2, *same[1:])) == "exit 0 vs 2"
    assert tool.difference(same, (0, "ran\nwrote to out\n", same[2])) \
        == "stdout line 2: 'wrote to OUT' vs 'wrote to out'"
    assert tool.difference(same, (0, "ran\nwrote to OUT\nmore\n", same[2])) \
        == "stdout has 2 lines vs 3"
    assert tool.difference(same, (0, same[1], {})) == "files ['x.csv'] vs []"


def test_same_outputs_refuses_checkouts_whose_configs_differ(tmp_path, monkeypatch, capsys):
    tool = load_tool("same_outputs")
    calls = stub_cli(monkeypatch, tool)
    assert tool.main(same_outputs_checkouts(tmp_path, change_config=b'{"seed": 1}')) == 2
    assert "the two checkouts' configs/ differ" in capsys.readouterr().err
    assert calls == []
