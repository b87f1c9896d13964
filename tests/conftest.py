"""Shared pytest plumbing: the acceptance suite's criterion report, the
closed-form Bayes oracle and the flagged-mask helper."""

import numpy as np

CRITERION_RESULTS = {}


def log_normalized(rows):
    """Log rows ``(..., m)`` shifted so each exponentiates to one.

    Applied to the prior plus the running sum of an agent's fresh
    log-likelihood rows, this is that agent's pure Bayes posterior.
    """
    rows = np.asarray(rows, dtype=float)
    peak = rows.max(axis=-1, keepdims=True)
    return rows - peak - np.log(np.sum(np.exp(rows - peak), axis=-1, keepdims=True))


def flagged_mask(n: int, members) -> np.ndarray:
    """The ``(n,)`` boolean mask with the agents in ``members`` flagged."""
    mask = np.zeros(n, dtype=bool)
    mask[list(members)] = True
    return mask


def record_criterion(number: int, title: str, passed: bool, detail: str) -> bool:
    """Stash one criterion verdict for the end-of-run report."""
    CRITERION_RESULTS[number] = (title, passed, detail)
    return passed


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not CRITERION_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(CRITERION_RESULTS):
        title, passed, detail = CRITERION_RESULTS[number]
        verdict = "PASS" if passed else "FAIL"
        terminalreporter.write_line(
            f"criterion {number:2d} [{verdict}] {title}: {detail}"
        )
