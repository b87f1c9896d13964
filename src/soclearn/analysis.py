"""Identifiability diagnostics and convergence measurements.

The central quantity is the network divergence of a candidate state:
the per-agent Kullback-Leibler divergence from the realized signal
distribution to the candidate's, averaged over agents and negated.
A state other than the realized one is ruled out asymptotically iff
its network divergence is strictly negative, and the slowest such
state sets the asymptotic learning rate.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .model import StateSpace, LikelihoodModel, is_strongly_connected

__all__ = [
    "kl_divergence",
    "equivalence_classes",
    "network_divergence",
    "IdentifiabilityReport",
    "identifiability_report",
    "estimate_rate",
    "mixing_gap",
    "product_convergence_gap",
    "check_interval_connectivity",
]

# Two states are observationally equivalent for an agent when their
# log-likelihood columns agree to within this.
CLASS_TOL = 1e-12


def kl_divergence(p, q) -> float:
    """Kullback-Leibler divergence D(p || q) in nats.

    Zero-probability entries of ``p`` contribute nothing; a zero in
    ``q`` where ``p`` has mass makes the divergence undefined and is
    rejected.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape or p.ndim != 1:
        raise ValueError("p and q must be 1-d distributions of equal length")
    support = p > 0.0
    if np.any(q[support] == 0.0):
        raise ValueError("q must dominate p (no q=0 where p>0)")
    return float(np.sum(p[support] * np.log(p[support] / q[support])))


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


def _not_excluded(div: np.ndarray, t: int) -> tuple:
    """False states whose network divergence is not strictly negative."""
    return tuple(k for k in range(div.size) if k != t and not div[k] < 0.0)


def network_divergence(lik: LikelihoodModel, space: StateSpace) -> np.ndarray:
    """Agent-averaged negated divergence of each state, length m.

    The realized state's entry is exactly 0.0. A strictly negative
    entry means the network as a whole accumulates evidence against
    that state.
    """
    return identifiability_report(lik, space).network_divergence.copy()


@dataclass(frozen=True)
class IdentifiabilityReport:
    """Identifiability structure of a model triple.

    ``kl`` is the (agents, states) divergence matrix from the realized
    signal laws; ``network_divergence`` its column means, negated;
    ``asymptotic_rate`` the slowest false state's exclusion rate in
    nats per round (positive iff globally identifiable).
    """

    kl: np.ndarray
    network_divergence: np.ndarray
    equivalence_classes: tuple
    globally_identifiable: bool
    asymptotic_rate: float
    true_state_index: int
    state_labels: tuple

    def __post_init__(self):
        kl = np.array(self.kl, dtype=float)
        div = np.array(self.network_divergence, dtype=float)
        kl.setflags(write=False)
        div.setflags(write=False)
        object.__setattr__(self, "kl", kl)
        object.__setattr__(self, "network_divergence", div)

    @property
    def not_excluded(self) -> tuple:
        """False states the network does not rule out asymptotically."""
        return _not_excluded(self.network_divergence, self.true_state_index)

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
        with open(out / "kl.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["agent"] + [f"kl_to_{label}_nats" for label in self.state_labels]
            )
            for i in range(self.kl.shape[0]):
                writer.writerow([i] + [format(v, ".17g") for v in self.kl[i]])
        with open(out / "divergence.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["state_label", "network_divergence_nats"])
            for k, label in enumerate(self.state_labels):
                writer.writerow([label, format(self.network_divergence[k], ".17g")])


def identifiability_report(
    lik: LikelihoodModel, space: StateSpace
) -> IdentifiabilityReport:
    t = space.true_state_index
    classes = tuple(equivalence_classes(lik, i) for i in range(lik.agent_count))
    kl = _kl_matrix(lik, t, classes)
    div = -np.mean(kl, axis=0)
    div[t] = 0.0
    return IdentifiabilityReport(
        kl=kl,
        network_divergence=div,
        equivalence_classes=classes,
        globally_identifiable=not _not_excluded(div, t),
        asymptotic_rate=float(min(-div[k] for k in range(space.size) if k != t)),
        true_state_index=t,
        state_labels=tuple(space.states),
    )


def estimate_rate(trajectory, agent: int, false_state: int, window) -> float:
    """Empirical exclusion rate of one false state for one agent.

    Fits a least-squares line to the agent's log belief on the state
    over the stored rounds inside ``window`` (inclusive) and returns
    the negated slope in nats per round. The trajectory only needs
    ``stored_rounds``, ``log_beliefs``, and ``true_state_index``.
    """
    lo, hi = int(window[0]), int(window[1])
    if lo > hi:
        raise ValueError(f"window {window} is empty")
    if false_state == trajectory.true_state_index:
        raise ValueError("rate is defined for false states only")
    stored = np.asarray(trajectory.stored_rounds)
    keep = (stored >= lo) & (stored <= hi)
    if stored.size and (lo < stored[0] or hi > stored[-1]):
        raise ValueError(
            f"window {window} reaches outside stored rounds "
            f"[{stored[0]}, {stored[-1]}]"
        )
    rounds = stored[keep]
    if rounds.size < 2:
        raise ValueError("window covers fewer than two stored rounds")
    values = np.asarray(trajectory.log_beliefs)[keep, agent, false_state]
    slope = np.polyfit(rounds.astype(float), values, 1)[0]
    return float(-slope)


def mixing_gap(matrix: np.ndarray) -> float:
    """Distance from a square matrix to the flat averaging matrix.

    Measured in the induced infinity norm: the largest absolute row sum
    of ``matrix - J/n``.
    """
    mat = np.asarray(matrix, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("need a square matrix")
    n = mat.shape[0]
    return float(np.max(np.sum(np.abs(mat - 1.0 / n), axis=1)))


def product_convergence_gap(q_sequence) -> float:
    """Mixing gap of the left-ordered product of a matrix sequence.

    ``q_sequence`` lists per-round matrices oldest first; the product
    applies them in run order (each new round multiplies on the left).
    """
    mats = [np.asarray(getattr(q, "q", q), dtype=float) for q in q_sequence]
    if not mats:
        raise ValueError("need at least one matrix")
    prod = np.eye(mats[0].shape[0])
    for mat in mats:
        prod = mat @ prod
    return mixing_gap(prod)


def check_interval_connectivity(q_sequence, interval) -> bool:
    """Whether a round interval's unioned exchanges connect the agents.

    ``interval`` is an inclusive positional pair into ``q_sequence``.
    The union of off-diagonal supports over the interval is treated as
    an undirected graph; returns True iff it is connected.
    """
    mats = [np.asarray(getattr(q, "q", q), dtype=float) for q in q_sequence]
    lo, hi = int(interval[0]), int(interval[1])
    if not mats:
        raise ValueError("empty matrix sequence")
    if lo > hi or lo < 0 or hi >= len(mats):
        raise ValueError(
            f"interval {interval} invalid for a sequence of {len(mats)} matrices"
        )
    support = np.zeros(mats[0].shape, dtype=bool)
    for mat in mats[lo : hi + 1]:
        support |= mat > 0.0
    return is_strongly_connected(support)
