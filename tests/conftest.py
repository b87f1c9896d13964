"""Shared pytest plumbing: the acceptance suite's criterion report, the
closed-form Bayes oracle, the flagged-mask helper and the binary signal
tables the suites build their models from."""

import numpy as np

from soclearn.model import LikelihoodModel

CRITERION_RESULTS = {}


def bernoulli(p1s):
    """A binary signal table as config ``tables`` take it: P(symbol 1 | state k) is ``p1s[k]``."""
    return (tuple(1.0 - p for p in p1s), tuple(p1s))


def bernoulli_table(p_one_per_state):
    # rows are symbols {0, 1}, columns are states
    return np.array([[1.0 - p for p in p_one_per_state], list(p_one_per_state)])


def reference_like_model(n=4, m=5, p_eq=0.5, p_diff=0.25):
    # agent i's signal law differs only in state 1 + (i mod (m-1))
    tables = []
    for i in range(n):
        special = 1 + (i % (m - 1))
        tables.append(
            bernoulli_table([p_diff if k == special else p_eq for k in range(m)])
        )
    return LikelihoodModel.from_probabilities(tables)


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
