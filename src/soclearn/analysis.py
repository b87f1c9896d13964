"""Identifiability diagnostics, the standing assumptions, convergence measurements.

The central quantity is the network divergence of a candidate state:
the per-agent Kullback-Leibler divergence from the realized signal
distribution to the candidate's, averaged over agents and negated.
A state other than the realized one is ruled out asymptotically iff
its network divergence is strictly negative, and the slowest such
state sets the asymptotic learning rate. ``validate_assumptions`` judges
the standing assumptions A1-A3 (Jadbabaie et al., GEB 2012): bounded
likelihoods, no state ``not_excluded`` (A2) and a connected network.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .model import LikelihoodModel, Network, StateSpace, _is_index

__all__ = [
    "equivalence_classes",
    "IdentifiabilityReport",
    "identifiability_report",
    "ValidationReport",
    "validate_assumptions",
    "estimate_rate",
    "mixing_gap",
    "product_convergence_gap",
]

# Two states are observationally equivalent for an agent when their
# log-likelihood columns agree to within this.
CLASS_TOL = 1e-12


def _csv_cell(value) -> str:
    """``value`` as a ``csv.writer`` of the "excel" dialect writes it inside a row.

    That dialect quotes a field only when it holds a comma, a quote or a
    line break, and doubles the quotes inside; it writes floats by
    ``repr`` and everything else by ``str``.
    """
    text = repr(value) if isinstance(value, float) else str(value)
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _write_csv(path: Path, rows) -> None:
    """Rows of two or more cells, written as a ``csv.writer`` writes them."""
    path.write_text("".join(",".join(map(_csv_cell, row)) + "\r\n" for row in rows),
                    newline="")


def equivalence_classes(lik: LikelihoodModel, agent: int) -> tuple:
    """Partition of states into groups this agent cannot tell apart.

    States land in the same class when their log-likelihood columns
    coincide entrywise (within CLASS_TOL; -inf matches only -inf). The
    lowest unclaimed state leads each new class and claims every
    unclaimed column that matches it. Classes are sorted tuples,
    ordered by their smallest member.
    """
    table = lik.log_lik[agent]
    unclaimed = np.ones(table.shape[1], dtype=bool)
    classes = []
    while unclaimed.any():
        lead = table[:, [np.argmax(unclaimed)]]
        # -inf minus -inf is nan, which fails the tolerance; == catches it
        with np.errstate(invalid="ignore"):
            close = (table == lead) | (np.abs(table - lead) <= CLASS_TOL)
        members = unclaimed & close.all(axis=0)
        classes.append(tuple(int(k) for k in np.flatnonzero(members)))
        unclaimed &= ~members
    return tuple(classes)


def _kl_matrix(lik: LikelihoodModel, t: int, classes: tuple) -> np.ndarray:
    """Per-agent divergences from the realized signal law to each state's.

    Entry ``[i, k]`` is D(signal law of agent i under the realized state
    || its law under state k), ``inf`` where state k gives zero mass to
    a symbol the realized state can emit. Computed from the log tables
    directly and snapped to exactly 0.0 on the realized state's class in
    ``classes[i]``: the divergence is second order in the column log
    difference, so anything below the class tolerance is pure noise.
    """
    out = np.empty((lik.agent_count, lik.state_count))
    for i, table in enumerate(lik.log_lik):
        p = np.exp(table[:, t])
        support = p > 0.0
        # one C-contiguous row of terms per state, so each row sums in
        # the same order as a 1-d np.sum over the support
        lq = np.ascontiguousarray(table[support].T)
        out[i] = np.sum(p[support] * (table[support, t] - lq), axis=1)
        out[i, list(next(c for c in classes[i] if t in c))] = 0.0
    return out


@dataclass(frozen=True)
class IdentifiabilityReport:
    """Identifiability structure of a model triple.

    ``kl`` is the (agents, states) divergence matrix from the realized
    signal laws. The verdict, the slowest false state and the
    asymptotic rate are all read off ``network_divergence``.
    """

    kl: np.ndarray
    true_state_index: int
    state_labels: tuple

    def __post_init__(self):
        kl = np.array(self.kl, dtype=float)
        kl.setflags(write=False)
        object.__setattr__(self, "kl", kl)

    @cached_property
    def network_divergence(self) -> np.ndarray:
        """Column means of ``kl``, negated; exactly 0.0 at the realized state."""
        div = -np.mean(self.kl, axis=0)
        div[self.true_state_index] = 0.0
        div.setflags(write=False)
        return div

    @property
    def not_excluded(self) -> tuple:
        """False states whose network divergence is not strictly negative."""
        div, t = self.network_divergence, self.true_state_index
        return tuple(k for k in range(div.size) if k != t and not div[k] < 0.0)

    @property
    def globally_identifiable(self) -> bool:
        """Every false state is ruled out asymptotically."""
        return not self.not_excluded

    @property
    def slowest_state(self) -> int:
        """The first false state of largest network divergence."""
        div, t = self.network_divergence, self.true_state_index
        return max((k for k in range(div.size) if k != t), key=lambda k: div[k])

    @property
    def asymptotic_rate(self) -> float:
        """Exclusion rate of ``slowest_state`` in nats per round; > 0 iff identifiable."""
        return float(-self.network_divergence[self.slowest_state])

    def summary(self) -> str:
        lines = [
            f"states: {len(self.state_labels)}, agents: {self.kl.shape[0]}",
            f"realized state: {self.state_labels[self.true_state_index]!r}",
            f"globally identifiable: {'yes' if self.globally_identifiable else 'NO'}",
        ]
        if self.globally_identifiable:
            lines.append(f"asymptotic rate: {self.asymptotic_rate:.12g} nats/round")
        else:
            stuck = [repr(self.state_labels[k]) for k in self.not_excluded]
            lines.append(f"states not excluded: {', '.join(stuck)}")
        lines.append("network divergence by state:")
        for k, label in enumerate(self.state_labels):
            tag = "  (realized)" if k == self.true_state_index else ""
            lines.append(f"  {label!r}: {self.network_divergence[k]:.12g}{tag}")
        return "\n".join(lines)

    def write_csv(self, out_dir) -> None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _write_csv(out / "kl.csv", [
            ["agent"] + [f"kl_to_{label}_nats" for label in self.state_labels],
            *([i] + [format(v, ".17g") for v in row] for i, row in enumerate(self.kl)),
        ])
        _write_csv(out / "divergence.csv", [
            ["state_label", "network_divergence_nats"],
            *([label, format(v, ".17g")] for label, v in zip(self.state_labels,
                                                             self.network_divergence)),
        ])


def identifiability_report(
    lik: LikelihoodModel, space: StateSpace
) -> IdentifiabilityReport:
    """Divergences of ``lik`` over ``space`` from the realized state.

    Raises ``ValueError`` when the tables and the space disagree on the
    number of states.
    """
    if lik.state_count != space.size:
        raise ValueError(
            f"likelihood tables cover {lik.state_count} states, space has {space.size}"
        )
    t = space.true_state_index
    classes = tuple(equivalence_classes(lik, i) for i in range(lik.agent_count))
    return IdentifiabilityReport(
        kl=_kl_matrix(lik, t, classes),
        true_state_index=t,
        state_labels=tuple(space.states),
    )


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of checking the three standing assumptions.

    A1: every log likelihood is bounded (no zero-probability signals).
    A2: the realized state is globally identifiable, i.e. the network
        divergence of every other state is strictly negative.
    A3: the communication graph is connected.
    """

    log_bound: float
    a2_violations: tuple
    a3_unreachable: tuple

    @property
    def a1_passed(self) -> bool:
        return bool(np.isfinite(self.log_bound))

    @property
    def a2_passed(self) -> bool:
        return not self.a2_violations

    @property
    def a3_passed(self) -> bool:
        return not self.a3_unreachable

    @property
    def passed(self) -> bool:
        return self.a1_passed and self.a2_passed and self.a3_passed

    def summary(self) -> str:
        mark = {True: "pass", False: "FAIL"}
        a2 = f" (states not identified: {list(self.a2_violations)})" if self.a2_violations else ""
        a3 = f" (unreachable agents: {list(self.a3_unreachable)})" if self.a3_unreachable else ""
        return "\n".join([
            f"A1 bounded likelihoods: {mark[self.a1_passed]} (log bound {self.log_bound:.6g})",
            f"A2 global identifiability: {mark[self.a2_passed]}{a2}",
            f"A3 connected network: {mark[self.a3_passed]}{a3}",
        ])


def _reachable(support: np.ndarray) -> np.ndarray:
    """Nodes a breadth-first walk from node 0 reaches over a boolean support.

    Each step reads the rows of the frontier, the nodes first reached by
    the step before, so every node's row is read once.
    """
    seen = np.zeros(len(support), dtype=bool)
    frontier = np.arange(len(support)) == 0
    while frontier.any():
        seen |= frontier
        frontier = support[frontier].any(axis=0) & ~seen
    return seen


def validate_assumptions(
    lik: LikelihoodModel, net: Network, space: StateSpace
) -> ValidationReport:
    """Check A1-A3 for a model triple and report per-assumption outcomes.

    The one place that decides the standing assumptions: constructors
    only check that their inputs are well formed. Pure function; raises
    ``ValueError`` only on dimension mismatches between the three inputs.
    """
    if lik.agent_count != net.n:
        raise ValueError(f"likelihoods cover {lik.agent_count} agents, network has {net.n}")
    return ValidationReport(
        log_bound=lik.log_bound,
        a2_violations=identifiability_report(lik, space).not_excluded,
        a3_unreachable=tuple(int(i) for i in np.flatnonzero(~_reachable(net.adjacency))),
    )


def estimate_rate(stored_rounds, values, window) -> float:
    """Empirical exclusion rate from one column of log beliefs.

    ``values[k]`` is an agent's log belief on a false state at round
    ``stored_rounds[k]``. Fits a least-squares line to the values at the
    stored rounds inside ``window`` (inclusive) and returns the negated
    slope in nats per round. The slope is the closed form
    ``sum(x * y) / sum(x * x)`` with the rounds centred on their mean as
    ``x``. Raises ``ValueError`` when ``values`` and ``stored_rounds``
    differ in length, a value is not finite, the stored rounds do not
    strictly increase, or ``window`` is not exactly two integer bounds,
    is empty, reaches outside the stored rounds or covers fewer than
    two of them.
    """
    if len(window) != 2 or not all(_is_index(bound) for bound in window):
        raise ValueError(f"window bounds must be integers, exactly two, got {window!r}")
    lo, hi = map(int, window)
    if lo > hi:
        raise ValueError(f"window {window} is empty")
    stored, values = np.asarray(stored_rounds), np.asarray(values)
    if len(stored) != len(values):
        raise ValueError(
            f"values has {len(values)} entries, stored_rounds has {len(stored)}"
        )
    if not np.all(np.isfinite(values)):
        raise ValueError("values must be finite")
    if np.any(np.diff(stored) <= 0):
        raise ValueError("stored_rounds must strictly increase")
    keep = (stored >= lo) & (stored <= hi)
    if stored.size and (lo < stored[0] or hi > stored[-1]):
        raise ValueError(
            f"window {window} reaches outside stored rounds "
            f"[{stored[0]}, {stored[-1]}]"
        )
    rounds = stored[keep]
    if rounds.size < 2:
        raise ValueError("window covers fewer than two stored rounds")
    x = rounds - rounds.mean()
    slope = np.dot(x, values[keep]) / np.dot(x, x)
    return float(-slope)


def mixing_gap(matrix: np.ndarray) -> float:
    """Distance from a square matrix to the flat averaging matrix.

    Measured in the induced infinity norm: the largest absolute row sum
    of ``matrix - J/n``. A matrix with an inf or NaN entry is refused.
    """
    mat = np.asarray(matrix, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("need a square matrix")
    if not np.isfinite(mat).all():
        raise ValueError("matrix must be finite, without inf or NaN")
    n = mat.shape[0]
    return float(np.max(np.sum(np.abs(mat - 1.0 / n), axis=1)))


def product_convergence_gap(q_sequence) -> float:
    """Mixing gap of the left-ordered product of a matrix sequence.

    ``q_sequence`` yields per-round matrices oldest first; the product
    applies them in run order (each new round multiplies on the left).
    The product is accumulated while iterating, so a generator is never
    held in memory as a whole. The first matrix must be square, the
    others of its shape, and all finite; a refusal names the matrix by
    its position.
    """
    prod = None
    for k, q in enumerate(q_sequence):
        mat = np.asarray(q, dtype=float)
        want = mat.shape[:1] * 2 if prod is None else prod.shape
        if mat.shape != want:
            raise ValueError(f"matrix {k} has shape {mat.shape}, not {want}")
        if not np.isfinite(mat).all():
            raise ValueError(f"matrix {k} must be finite, without inf or NaN")
        prod = mat if prod is None else mat @ prod
    if prod is None:
        raise ValueError("need at least one matrix")
    return mixing_gap(prod)
