"""The repository's tools, run without launching a benchmark."""

import importlib.util
import json
import re
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


@pytest.mark.parametrize("side", ["base", "chng"])
def test_paired_bench_refuses_a_checkout_that_holds_bytecode(tmp_path, monkeypatch, capsys, side):
    bench = load_paired_bench()

    def run_once(*args):
        raise AssertionError("a benchmark was launched")

    monkeypatch.setattr(bench, "run_once", run_once)
    for name in ("base", "chng"):
        (tmp_path / name / "src" / "soclearn").mkdir(parents=True)
    cache = tmp_path / side / "src" / "soclearn" / "__pycache__"
    cache.mkdir()
    (cache / "model.cpython-311.pyc").write_bytes(b"")
    with pytest.raises(SystemExit) as exit_info:
        bench.main([str(tmp_path / "base"), str(tmp_path / "chng"),
                    "--workload", "ring15-run", "--seed", "12"])
    assert exit_info.value.code == 2
    assert f"{cache / 'model.cpython-311.pyc'} is compiled bytecode" in capsys.readouterr().err


def test_paired_bench_reads_wall_time_from_the_detail_line(monkeypatch):
    bench = load_paired_bench()
    detail = {"report_only": {"wall_s": 1.25, "cpu_s": 1.5},
              "runs": {"wall_s": [1.25], "setup_s": [0.21, 0.19, 0.2]}}
    result = {"failed": 0, "metrics": {"peak_rss_mb": {"value": 33.8, "unit": "MB"}}}
    stdout = "  peak_rss_mb 33.8 MB\n" + json.dumps(detail) + "\n" + json.dumps(result) + "\n"

    def run(cmd, **kwargs):
        return subprocess.CompletedProcess(cmd, 0, stdout=stdout, stderr="")

    monkeypatch.setattr(bench.subprocess, "run", run)
    metrics, wall_s, setup_s = bench.run_once(ROOT, "ring15-run", 12, 1.0)
    assert metrics == result["metrics"]
    assert wall_s == 1.25
    assert setup_s == [0.21, 0.19, 0.2]


def test_paired_bench_prints_wall_time_as_not_gated(tmp_path, monkeypatch, capsys):
    bench = load_paired_bench()
    runs = {"base": iter([30.0, 31.0, 32.0]), "chng": iter([20.0, 21.0, 22.0])}

    def run_once(checkout, workload, seed, seconds):
        value = next(runs[checkout.name])
        metrics = {"peak_rss_mb": {"value": value}, "setup_s": {"value": 0.3}}
        # each run's set-up samples; the floor is the least of all of a side's
        return metrics, value / 10, [value / 100, value / 200]

    monkeypatch.setattr(bench, "run_once", run_once)
    for side in ("base", "chng"):
        (tmp_path / side).mkdir()
    (tmp_path / "chng" / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    assert bench.main([str(tmp_path / "base"), str(tmp_path / "chng"),
                       "--workload", "ring15-run", "--seed", "12", "--pairs", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "  wall_s (not gated): base 3.1 [3, 3.2], change 2.1 [2, 2.2]" in lines
    assert "  setup_s floor (not gated): base 0.15, change 0.1" in lines
    report = json.loads(lines[-1])
    assert report["wall_s"] == {"not_gated": True,
                                "values": {"base": [3.0, 3.1, 3.2], "change": [2.0, 2.1, 2.2]}}
    assert report["setup_floor_s"] == {"not_gated": True,
                                       "values": {"base": 0.15, "change": 0.1}}
    assert report["peak_rss_mb"]["wins"] == 3


def test_paired_bench_prints_one_verdict_block_per_workload(tmp_path, monkeypatch, capsys):
    bench = load_paired_bench()
    calls = []

    def run_once(checkout, workload, seed, seconds):
        calls.append((workload, checkout.name))
        # the change halves the first workload's RSS and leaves the second's alone
        value = 20.0 if (workload, checkout.name) == ("ring15-run", "chng") else 40.0
        metrics = {"peak_rss_mb": {"value": value}, "setup_s": {"value": 0.3}}
        return metrics, 1.0, [0.3]

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
        return {"peak_rss_mb": {"value": 30.0}, "setup_s": {"value": 0.3}}, 1.0, [0.3]

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
        return metrics, 1.0, [0.3]

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
        return {"peak_rss_mb": {"value": value}, "setup_s": {"value": 0.3}}, 1.0, [0.3]

    monkeypatch.setattr(bench, "run_once", run_once)
    for side in ("base", "chng"):
        (tmp_path / side).mkdir()
    (tmp_path / "chng" / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    # git looks for no repository above tmp_path, so "base" is none
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
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
    assert set(document["host"]) == {"python", "numpy", "nproc", "cpu", "platform",
                                     "openblas_core", "blas", "blas_version",
                                     "simd_dispatch", "libc", "PYTHONDONTWRITEBYTECODE"}
    assert document["host"]["nproc"] >= 1
    assert document["host"]["PYTHONDONTWRITEBYTECODE"] == "1"
    assert document["reports"] == reports
    assert [r["peak_rss_mb"]["wins"] for r in reports] == [2, 2]


def test_paired_bench_host_gives_null_for_numerics_it_cannot_read(tmp_path, monkeypatch):
    bench = load_paired_bench()
    assert bench.openblas_core(tmp_path) is None  # no library there
    (tmp_path / "libscipy_openblas64_-0.so").write_bytes(b"not a library")
    assert bench.openblas_core(tmp_path) is None
    monkeypatch.setattr(bench, "openblas_core", lambda: None)
    monkeypatch.setattr("numpy.show_config", lambda: None)  # numpy < 1.26 takes no mode
    monkeypatch.setattr(bench.platform, "libc_ver", lambda: ("", ""))
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    numerics = {key: bench.host()[key] for key in ("openblas_core", "blas", "blas_version",
                                                   "simd_dispatch", "libc",
                                                   "PYTHONDONTWRITEBYTECODE")}
    assert numerics == dict.fromkeys(numerics)


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
                     "per file:",
                     "    2 tests   0 failed     0.20 s  tests.test_a",
                     "    2 tests   2 failed     0.20 s  tests.test_acceptance",
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
                     "per file:",
                     "    3 tests   2 failed     0.30 s  tests.test_a",
                     "    2 tests   2 failed     0.20 s  tests.test_acceptance",
                     *slowest_block(CRITERION_1, CRITERION_9, "tests.test_a::test_x",
                                    "tests.test_a::test_y", "tests.test_a::test_z"),
                     "unexpected failed: tests.test_a::test_x",
                     "unexpected error: tests.test_a::test_y"]


def test_tier1_names_a_by_design_failure_that_did_not_fail(monkeypatch, capsys):
    status, lines = run_tier1(monkeypatch, capsys, junit_xml(**{CRITERION_9: ""}))
    assert status == 1
    assert lines == ["tier-1: 1 passed, 0 failed, 0 errors, 0 skipped in 87.5 s",
                     "per file:",
                     "    1 tests   0 failed     0.10 s  tests.test_acceptance",
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
    assert lines[1:] == ["per file:",
                         "   12 tests   0 failed    29.03 s  tests.test_a",
                         "    2 tests   2 failed     0.20 s  tests.test_acceptance",
                         "slowest tests:",
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


def test_tier1_prints_each_files_tests_failures_and_seconds(monkeypatch, capsys):
    # files by name; a failure and an error both count as failed, a skip does not
    times = {"tests.test_b::test_x": 1.25, "tests.test_b::test_y": 0.5,
             "tests.test_a::test_z": 2.0, CRITERION_1: 40.0, CRITERION_9: 3.5}
    xml = junit_xml(times=times, **{CRITERION_1: FAILED, CRITERION_9: FAILED,
                                    "tests.test_b::test_x": FAILED,
                                    "tests.test_b::test_y": '<error message="fixture">trace</error>',
                                    "tests.test_a::test_z": '<skipped message="no"/>'})
    status, lines = run_tier1(monkeypatch, capsys, xml)
    assert status == 1
    assert lines[1:5] == ["per file:",
                          "    1 tests   0 failed     2.00 s  tests.test_a",
                          "    2 tests   2 failed    43.50 s  tests.test_acceptance",
                          "    2 tests   2 failed     1.75 s  tests.test_b"]


def same_outputs_checkouts(tmp_path, change_config=b"{}"):
    """Checkouts "base" and "chng" with configs a.json and b.json; chng's b.json is given."""
    for side, b in (("base", b"{}"), ("chng", change_config)):
        (tmp_path / side / "configs").mkdir(parents=True)
        (tmp_path / side / "configs" / "a.json").write_bytes(b"{}")
        (tmp_path / side / "configs" / "b.json").write_bytes(b)
    return [str(tmp_path / "base"), str(tmp_path / "chng")]


def stub_cli(monkeypatch, tool, files=lambda checkout, args: {"x.csv": b"1\r\n"}):
    """Replace the CLI and library runs with one that echoes its out directory
    and writes ``files``; a library run is recorded as ``("library", *args)``."""
    calls = []

    def run(cmd, cwd, env, capture_output, text):
        assert cmd[1:3] in (["-m", "soclearn.cli"], list(tool.LIBRARY))
        assert env["PYTHONPATH"] == str(Path(cwd) / "src")
        args = cmd[3:] if cmd[1] == "-m" else ["library", *cmd[3:]]
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
    assert lines[:6] == [f"a.json {name}: same (exit 0, {files} files)" for name, files in (
        ("run --out", 1), ("compare", 0), ("compare --out", 1), ("analyze --out", 1),
        ("validate", 0), ("library", 0))]
    assert len(lines) == 12 and lines[6].startswith("b.json run --out: same")
    # each command runs in base, then in the change, on that checkout's config
    assert [side for side, _ in calls] == ["base", "chng"] * 12
    commands = [args for side, args in calls if side == "base"]
    for args in commands:
        assert args[-2] == "--config" and Path(args[-1]).parent == tmp_path / "base" / "configs"
    assert [args[0] for args in commands[:6]] == ["run", "compare", "compare", "analyze",
                                                  "validate", "library"]
    assert [("--replicas", "3") == tuple(args[-4:-2]) for args in commands[:6]] \
        == [True, True, True, False, False, True]


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
    same = (0, "ran\nwrote to OUT\n", "", {"x.csv": b"1"})
    assert tool.difference(same, same) is None
    assert tool.difference(same, (2, *same[1:])) == "exit 0 vs 2"
    assert tool.difference(same, (0, "ran\nwrote to out\n", *same[2:])) \
        == "stdout line 2: 'wrote to OUT' vs 'wrote to out'"
    assert tool.difference(same, (0, "ran\nwrote to OUT\nmore\n", *same[2:])) \
        == "stdout has 2 lines vs 3"
    assert tool.difference(same, (*same[:3], {})) == "files ['x.csv'] vs []"


def test_same_outputs_compares_stderr_with_the_output_directory_masked(tmp_path, monkeypatch,
                                                                       capsys):
    tool = load_tool("same_outputs")
    warned = (0, "", "warning: kept OUT\nseed 1\n", {})
    assert tool.difference(warned, warned) is None
    assert tool.difference(warned, (0, "", "warning: kept OUT\nseed 2\n", {})) \
        == "stderr line 2: 'seed 1' vs 'seed 2'"
    assert tool.difference(warned, (0, "", "warning: kept OUT\n", {})) \
        == "stderr has 2 lines vs 1"
    stub_cli(monkeypatch, tool)
    run = tool.subprocess.run

    def stderr(cmd, cwd, **kwargs):
        # each side's own out directory, masked alike; the change's compare
        # differs in one stderr line
        done = run(cmd, cwd, **kwargs)
        out = cmd[cmd.index("--out") + 1] if "--out" in cmd else "-"
        late = Path(cwd).name == "chng" and cmd[3] == "compare"
        done.stderr = f"wrote {out}\n{'late' if late else 'done'}\n"
        return done

    monkeypatch.setattr(tool.subprocess, "run", stderr)
    assert tool.main(same_outputs_checkouts(tmp_path)) == 1
    assert capsys.readouterr().out.splitlines() == [
        "a.json run --out: same (exit 0, 1 files)",
        "a.json compare: DIFFERS, stderr line 2: 'done' vs 'late'"]


def test_same_outputs_names_differing_library_digests(tmp_path, monkeypatch, capsys):
    tool = load_tool("same_outputs")
    stub_cli(monkeypatch, tool)
    run = tool.subprocess.run

    def digests(cmd, cwd, **kwargs):
        done = run(cmd, cwd, **kwargs)
        if cmd[1] == "-c":
            done.stdout += f"run_experiment tv_series: {Path(cwd).name}\n"
        return done

    monkeypatch.setattr(tool.subprocess, "run", digests)
    assert tool.main(same_outputs_checkouts(tmp_path)) == 1
    assert capsys.readouterr().out.splitlines()[5] \
        == "a.json library: DIFFERS, stdout line 2: 'run_experiment tv_series: base' " \
           "vs 'run_experiment tv_series: chng'"


def test_same_outputs_stops_when_the_library_fails_on_both_sides(tmp_path, monkeypatch, capsys):
    tool = load_tool("same_outputs")
    stub_cli(monkeypatch, tool)
    run = tool.subprocess.run

    def failing(cmd, cwd, **kwargs):
        done = run(cmd, cwd, **kwargs)
        done.returncode = int(cmd[1] == "-c")
        return done

    monkeypatch.setattr(tool.subprocess, "run", failing)
    assert tool.main(same_outputs_checkouts(tmp_path)) == 1
    assert capsys.readouterr().out.splitlines()[5:] == ["a.json library: FAILED on both (exit 1)"]


def test_library_digests_cover_the_engine_and_the_reference_round(tmp_path, capsys):
    # run in this process, on this checkout's package; --replicas reaches the engine
    tool = load_tool("same_outputs")
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps({"agents": 3, "states": 4, "rounds": 5, "replicas": 2}))
    tool.library_digests(["--config", str(config)])
    tool.library_digests(["--replicas", "1", "--config", str(config)])
    lines = capsys.readouterr().out.splitlines()
    two, one = (dict(line.split(": ") for line in part) for part in (lines[:15], lines[15:]))
    reference = [f"run_round {name}" for name in ("final log_belief", "tv", "flagged")]
    ledgers = [f"{arm} {name}" for arm in ("ledger", "tau=1 ledger")
               for name in ("len", "events", "communication_fractions", "rounds_recorded")]
    assert list(two) == [f"run_experiment {name}" for name in (
        "log_beliefs", "tv_series", "uninformative", "last_below")] + ledgers + reference
    assert all(len(digest) == 64 for digest in two.values())
    assert two["run_experiment log_beliefs"] != one["run_experiment log_beliefs"]
    # this config's own arm exchanges nothing in 5 rounds; its tau = 1 arm does
    assert all(two[key] != one[key] for key in ledgers if key != "ledger events")
    assert all(two[key] == one[key] for key in reference)


def test_same_outputs_refuses_checkouts_whose_configs_differ(tmp_path, monkeypatch, capsys):
    tool = load_tool("same_outputs")
    calls = stub_cli(monkeypatch, tool)
    assert tool.main(same_outputs_checkouts(tmp_path, change_config=b'{"seed": 1}')) == 2
    assert "the two checkouts' configs/ differ" in capsys.readouterr().err
    assert calls == []


NUMBER = r"[\d,.e+-]+"


@pytest.mark.parametrize("name, row", [
    ("regime-shares", rf"\({NUMBER} rounds, 1 replica\): {NUMBER}% nobody flagged, "
                      rf"{NUMBER}% all, {NUMBER}% mixed"),
    ("verdict-margins", rf"\({NUMBER} rounds, 1 replica\): {NUMBER} over {NUMBER} verdicts"),
])
def test_measure_prints_one_row_per_bundled_config(name, row, capsys):
    load_tool("measure").MEASUREMENTS[name](replicas=1, rounds=3)
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(" ", 1)[0] for line in lines] == ["ring15", "complete5"]
    for line in lines:
        assert re.fullmatch(rf"\w+ {row}", line), line


def test_measure_prints_the_warm_call_count(capsys):
    load_tool("measure").MEASUREMENTS["warm-calls"](replicas=1, rounds=3)
    assert re.fullmatch(
        rf"run_experiment\(reference_config\(replicas=1, rounds=3\)\): {NUMBER} calls on the "
        rf"first call, then {NUMBER} on a warm call: {NUMBER} per round\n",
        capsys.readouterr().out)


def test_measure_prints_the_compare_split(capsys):
    load_tool("measure").MEASUREMENTS["compare-split"](replicas=1, rounds=3)
    assert re.fullmatch(
        rf"complete5 \(3 rounds, 1 replica\), best of 5: engines {NUMBER} ms, ledger replays "
        rf"{NUMBER} ms, summary\(\) {NUMBER} ms; {NUMBER} build_switching_matrix calls\n",
        capsys.readouterr().out)
