"""The traced benchmark's wrap targets all exist in the package.

``perfbench/job.py`` wraps the names in its ``WRAPS`` table before a
traced run and exits 3 when one is missing, so renaming or moving any
of them breaks the benchmark. This test resolves every target with the
benchmark's own resolver, which makes such a rename fail here first.
"""

import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("job"), importlib.import_module("spans")


def test_every_wrap_target_resolves(bench):
    job, spans = bench
    missing = []
    for target, _, _ in job.WRAPS:
        try:
            spans._resolve(target)
        except spans.TraceContractError as exc:
            missing.append(str(exc))
    assert not missing
