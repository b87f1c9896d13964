"""Run the tier-1 suite once and check that only the by-design failures fail.

    python3 tools/tier1.py

Runs ROADMAP.md's tier-1 command, ``python -m pytest -q
--continue-on-collection-errors``, at the repository root with ``src``
on ``PYTHONPATH`` and ``--junitxml`` into a temporary file, then prints
the counts of passed, failed, errored and skipped tests and the suite's
time, then the ten slowest tests with their seconds (setup and teardown
included), as the report gives them. It exits 0 only when no test errored and the failed tests are
exactly acceptance criteria 1 and 9, which fail by design (README
"Known failures"). Otherwise it exits 1 and names each unexpected
failure or error, and each by-design failure that did not fail.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

BY_DESIGN = (
    "tests.test_acceptance::test_criterion_01_all_agents_settle_on_default_scenario",
    "tests.test_acceptance::test_criterion_09_mixing_product_converges",
)


def outcomes(xml_path) -> tuple:
    """``({test id: outcome}, {test id: seconds}, seconds)`` from a JUnit XML report.

    A test id is ``classname::name``, as the suite prints it; the
    outcome is "error", "failed", "skipped" or "passed". An error in
    any phase of a test, setup and teardown included, counts as its
    outcome.
    """
    root = ET.parse(xml_path).getroot()
    seconds = sum(float(suite.get("time", 0.0)) for suite in root.iter("testsuite"))
    result, times = {}, {}
    for case in root.iter("testcase"):
        test_id = f"{case.get('classname')}::{case.get('name')}"
        tags = {child.tag for child in case}
        result[test_id] = next(
            (outcome for tag, outcome in (("error", "error"), ("failure", "failed"),
                                          ("skipped", "skipped")) if tag in tags), "passed")
        times[test_id] = float(case.get("time", 0.0))
    return result, times, seconds


def slowest(times: dict, count: int = 10) -> list:
    """One line per test of the ``count`` slowest, slowest first, ties by test id."""
    ranked = sorted(times.items(), key=lambda item: (-item[1], item[0]))[:count]
    return [f"{seconds:8.2f} s  {test_id}" for test_id, seconds in ranked]


def problems(results: dict) -> list:
    """One line per unexpected failure or error, and per by-design failure that did not fail."""
    lines = [f"unexpected {outcome}: {test_id}" for test_id, outcome in sorted(results.items())
             if outcome == "error" or (outcome == "failed" and test_id not in BY_DESIGN)]
    lines += [f"fails by design but {results.get(test_id, 'did not run')}: {test_id}"
              for test_id in BY_DESIGN if results.get(test_id) != "failed"]
    return lines


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        xml_path = Path(tmp) / "tier1.xml"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
        subprocess.run([sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
                        f"--junitxml={xml_path}"], cwd=ROOT, env=env)
        if not xml_path.exists():
            print("pytest wrote no report", file=sys.stderr)
            return 1
        results, times, seconds = outcomes(xml_path)
    counts = {o: sum(v == o for v in results.values())
              for o in ("passed", "failed", "error", "skipped")}
    print(f"tier-1: {counts['passed']} passed, {counts['failed']} failed, "
          f"{counts['error']} errors, {counts['skipped']} skipped in {seconds:.1f} s")
    print("slowest tests:")
    for line in slowest(times):
        print(line)
    lines = problems(results)
    for line in lines:
        print(line)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
