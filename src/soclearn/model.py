"""Domain types for networked belief-learning experiments.

Holds the finite state space, the shared prior, per-agent signal
likelihoods, and the communication network. Every type validates its
invariants at construction and is immutable afterwards, so downstream
update code can assume well-formed inputs and instances can be shared
freely across replicas.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

# Tolerance for probability tables supplied as input.
PROB_SUM_TOL = 1e-12
# Looser tolerance for belief rows evolved over many rounds.
BELIEF_SUM_TOL = 1e-10

__all__ = [
    "PROB_SUM_TOL",
    "BELIEF_SUM_TOL",
    "AssumptionViolation",
    "StateSpace",
    "Prior",
    "LikelihoodModel",
    "Network",
    "BeliefState",
    "ValidationReport",
    "validate_assumptions",
    "metropolis_weights",
    "ring_edges",
    "complete_edges",
    "is_strongly_connected",
]


class AssumptionViolation(RuntimeError):
    """A run was requested on a model that fails a standing assumption."""


def _readonly(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class StateSpace:
    """Finite set of candidate world states, one of which is realized.

    Parameters
    ----------
    states : sequence
        Opaque state labels, at least two, all distinct.
    true_state_index : int
        Index of the realized state within ``states``.
    """

    states: tuple
    true_state_index: int

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        if len(self.states) < 2:
            raise ValueError("state space needs at least two states")
        if len(set(self.states)) != len(self.states):
            raise ValueError("state labels must be distinct")
        if not 0 <= self.true_state_index < len(self.states):
            raise ValueError(
                f"true_state_index {self.true_state_index} out of range "
                f"for {len(self.states)} states"
            )

    @property
    def size(self) -> int:
        return len(self.states)

    @property
    def true_state(self):
        return self.states[self.true_state_index]


@dataclass(frozen=True)
class Prior:
    """Shared full-support prior over the state space, kept in log form."""

    log_mass: np.ndarray

    def __post_init__(self):
        arr = _readonly(self.log_mass)
        if arr.ndim != 1 or arr.size < 2:
            raise ValueError("prior needs a 1-d log-mass vector over >= 2 states")
        if not np.all(np.isfinite(arr)):
            raise ValueError("prior must have full support (finite log mass)")
        total = np.sum(np.exp(arr))
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"prior mass sums to {total!r}, not 1")
        object.__setattr__(self, "log_mass", arr)

    @classmethod
    def uniform(cls, size: int) -> "Prior":
        return cls(np.full(size, -np.log(size)))

    @classmethod
    def from_probabilities(cls, mass) -> "Prior":
        arr = np.asarray(mass, dtype=float)
        if np.any(arr <= 0.0):
            raise ValueError("prior must place positive mass on every state")
        return cls(np.log(arr))

    @property
    def size(self) -> int:
        return self.log_mass.size


@dataclass(frozen=True)
class LikelihoodModel:
    """Per-agent signal likelihoods over a common state space.

    ``log_lik[i]`` has shape ``(len(alphabets[i]), m)``; entry ``[s, k]``
    is the log probability that agent ``i`` observes its ``s``-th symbol
    when state ``k`` is realized. Columns therefore exponentiate to one.
    ``log_bound`` is the largest log-magnitude in any table; it is finite
    exactly when no symbol has zero probability under some state.
    """

    alphabets: tuple
    log_lik: tuple

    def __post_init__(self):
        alphabets = tuple(tuple(a) for a in self.alphabets)
        tables = tuple(_readonly(t) for t in self.log_lik)
        if len(alphabets) != len(tables) or not tables:
            raise ValueError("need one likelihood table per agent")
        m = tables[0].shape[1] if tables[0].ndim == 2 else 0
        for i, (alpha, table) in enumerate(zip(alphabets, tables)):
            if len(set(alpha)) != len(alpha):
                raise ValueError(f"agent {i}: alphabet symbols must be distinct")
            if table.ndim != 2 or table.shape != (len(alpha), m):
                raise ValueError(
                    f"agent {i}: table shape {table.shape} does not match "
                    f"alphabet size {len(alpha)} and state count {m}"
                )
            if np.any(np.isnan(table)) or np.any(table == np.inf):
                raise ValueError(f"agent {i}: log likelihoods must be < inf")
            sums = np.sum(np.exp(table), axis=0)
            if np.max(np.abs(sums - 1.0)) > PROB_SUM_TOL:
                raise ValueError(f"agent {i}: likelihood columns must sum to 1")
        object.__setattr__(self, "alphabets", alphabets)
        object.__setattr__(self, "log_lik", tables)

    @classmethod
    def from_probabilities(cls, tables, alphabets=None, allow_zero: bool = False):
        """Build from linear-domain tables, one ``(symbols, states)`` per agent.

        Zero entries are rejected unless ``allow_zero`` is set; a model
        with zeros has an infinite log bound and is unusable for protocol
        runs, but can still drive signal generation in tests.
        """
        arrs = [np.asarray(t, dtype=float) for t in tables]
        if alphabets is None:
            alphabets = [tuple(range(a.shape[0])) for a in arrs]
        logs = []
        for i, a in enumerate(arrs):
            if np.any(a < 0.0):
                raise ValueError(f"agent {i}: negative probabilities")
            if not allow_zero and np.any(a == 0.0):
                raise ValueError(
                    f"agent {i}: zero-probability signals give an unbounded "
                    "log likelihood; pass allow_zero=True only for testing"
                )
            with np.errstate(divide="ignore"):
                logs.append(np.log(a))
        return cls(tuple(alphabets), tuple(logs))

    @property
    def agent_count(self) -> int:
        return len(self.log_lik)

    @property
    def state_count(self) -> int:
        return self.log_lik[0].shape[1]

    @cached_property
    def log_bound(self) -> float:
        """Largest log-likelihood magnitude across all tables."""
        return float(max(np.max(np.abs(t)) for t in self.log_lik))

    @property
    def bounded(self) -> bool:
        return np.isfinite(self.log_bound)

    @cached_property
    def _symbol_maps(self) -> tuple:
        return tuple({sym: k for k, sym in enumerate(alpha)} for alpha in self.alphabets)

    def symbol_index(self, agent: int, symbol) -> int:
        """Map an alphabet symbol of ``agent`` to its table row."""
        try:
            return self._symbol_maps[agent][symbol]
        except KeyError:
            raise ValueError(f"symbol {symbol!r} not in agent {agent}'s alphabet") from None

    def signal_distribution(self, agent: int, state_index: int) -> np.ndarray:
        """Linear-domain symbol distribution for one agent and state."""
        return np.exp(self.log_lik[agent][:, state_index])

    @cached_property
    def padded_log_lik(self) -> np.ndarray:
        """Tables stacked into ``(n, max_alphabet, m)``, -inf padded.

        The padding rows are never addressed by valid signal indices;
        if a bug selects one, the resulting non-finite beliefs surface
        immediately.
        """
        n, m = self.agent_count, self.state_count
        width = max(len(a) for a in self.alphabets)
        out = np.full((n, width, m), -np.inf)
        for i, table in enumerate(self.log_lik):
            out[i, : table.shape[0], :] = table
        out.setflags(write=False)
        return out

    def fresh_rows(self, signals) -> np.ndarray:
        """Log-likelihood rows ``(n, m)`` of one round's signal row indices.

        Rejects anything but one index per agent, and any index that
        hits a zero-probability or padded table row.
        """
        n = self.agent_count
        sig = np.asarray(signals)
        if sig.shape != (n,):
            raise ValueError(f"need one signal index per agent, got shape {sig.shape}")
        fresh = self.padded_log_lik[np.arange(n), sig, :]
        if not np.all(np.isfinite(fresh)):
            bad = int(np.nonzero(~np.all(np.isfinite(fresh), axis=1))[0][0])
            raise ValueError(
                f"agent {bad}: signal index {int(sig[bad])} hits a zero-probability "
                "or padded table row"
            )
        return fresh


def _reachable(support: np.ndarray) -> np.ndarray:
    """Nodes a breadth first search from node 0 reaches over a boolean support."""
    n = support.shape[0]
    seen = np.zeros(n, dtype=bool)
    frontier = [0] if n else []
    seen[frontier] = True
    while frontier:
        nxt = []
        for i in frontier:
            for j in np.nonzero(support[i])[0]:
                if not seen[j]:
                    seen[j] = True
                    nxt.append(int(j))
        frontier = nxt
    return seen


def is_strongly_connected(weights: np.ndarray) -> bool:
    """Reachability check on the positive off-diagonal support.

    The weight matrices used here are symmetric, so a single breadth
    first search from node 0 settles connectivity.
    """
    return bool(_reachable(np.asarray(weights) > 0.0).all())


@dataclass(frozen=True)
class Network:
    """Symmetric stochastic communication weights over ``n`` agents.

    ``edges`` holds unordered pairs with positive weight, self-loops
    included. Off-diagonal entry ``(i, j)`` is positive exactly when the
    pair is an edge, every diagonal entry is positive, and rows sum to
    one, which together with symmetry makes the matrix doubly stochastic.
    """

    n: int
    edges: frozenset
    weights: np.ndarray

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        if w.shape != (self.n, self.n):
            raise ValueError(f"weights must be {self.n}x{self.n}")
        if np.max(np.abs(w - w.T), initial=0.0) > PROB_SUM_TOL:
            raise ValueError("weights must be symmetric")
        w = (w + w.T) / 2.0
        if np.any(w < 0.0):
            raise ValueError("weights must be nonnegative")
        if np.max(np.abs(np.sum(w, axis=1) - 1.0)) > PROB_SUM_TOL:
            raise ValueError("weight rows must sum to 1")
        if np.any(np.diag(w) <= 0.0):
            raise ValueError("every agent must keep positive self-weight")
        edges = frozenset(tuple(sorted(e)) for e in self.edges)
        for i in range(self.n):
            for j in range(i + 1, self.n):
                if (w[i, j] > 0.0) != ((i, j) in edges):
                    raise ValueError(
                        f"edge set and positive weights disagree at ({i}, {j})"
                    )
        edges |= {(i, i) for i in range(self.n)}
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "edges", edges)

    @classmethod
    def from_weights(cls, weights, require_connected: bool = True) -> "Network":
        """Build a network from a weight matrix, deriving the edge set.

        ``require_connected`` may be dropped only to build instances for
        diagnostic use; protocol runs re-check connectivity anyway.
        """
        w = np.asarray(weights, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError("weights must be a square matrix")
        n = w.shape[0]
        edges = {
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if w[i, j] > 0.0 or w[j, i] > 0.0
        }
        if require_connected and not is_strongly_connected(w):
            raise ValueError("communication graph is not connected")
        return cls(n=n, edges=frozenset(edges), weights=w)

    def neighbors(self, agent: int) -> tuple:
        return tuple(
            int(j) for j in np.nonzero(self.weights[agent] > 0.0)[0] if j != agent
        )

    @cached_property
    def adjacency(self) -> np.ndarray:
        """Boolean off-diagonal support of the weights."""
        adj = self.weights > 0.0
        adj = adj.copy()
        np.fill_diagonal(adj, False)
        adj.setflags(write=False)
        return adj


def ring_edges(n: int) -> list:
    """Undirected cycle on ``n`` nodes (a single edge for n=2, none for n=1)."""
    if n < 1:
        raise ValueError("need at least one node")
    if n == 1:
        return []
    if n == 2:
        return [(0, 1)]
    return [(i, (i + 1) % n) for i in range(n)]


def complete_edges(n: int) -> list:
    if n < 1:
        raise ValueError("need at least one node")
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def metropolis_weights(adjacency: Iterable, n: int) -> Network:
    """Network with Metropolis weights on an undirected adjacency.

    Each undirected edge ``(i, j)`` receives weight ``1 / (1 + max(d_i, d_j))``
    where ``d`` are node degrees, and the diagonal absorbs the remainder.
    The result is symmetric and doubly stochastic with positive diagonal.

    Raises ``ValueError`` on self-loops, out-of-range nodes, or a
    disconnected adjacency.
    """
    pairs = set()
    for e in adjacency:
        i, j = int(e[0]), int(e[1])
        if i == j:
            raise ValueError("self-loops are implicit; adjacency must not list them")
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge ({i}, {j}) out of range for {n} nodes")
        pairs.add((min(i, j), max(i, j)))
    degree = np.zeros(n, dtype=int)
    for i, j in pairs:
        degree[i] += 1
        degree[j] += 1
    w = np.zeros((n, n))
    for i, j in pairs:
        w[i, j] = w[j, i] = 1.0 / (1.0 + max(degree[i], degree[j]))
    for i in range(n):
        w[i, i] = 1.0 - np.sum(w[i])
    return Network.from_weights(w, require_connected=True)


@dataclass(frozen=True)
class BeliefState:
    """Joint belief state of all agents after some round.

    ``log_belief`` rows are normalized log beliefs, ``potentials`` the
    accumulated averaged log-likelihood scores, and ``log_belief_initial``
    the round-0 belief rows that anchor the potential-to-belief map for
    the rest of the run. Potentials start at exactly zero.
    """

    log_belief: np.ndarray
    potentials: np.ndarray
    log_belief_initial: np.ndarray
    round: int

    def __post_init__(self):
        logb = _readonly(self.log_belief)
        phi = _readonly(self.potentials)
        logb0 = _readonly(self.log_belief_initial)
        if logb.ndim != 2:
            raise ValueError("log_belief must be (agents, states)")
        if phi.shape != logb.shape or logb0.shape != logb.shape:
            raise ValueError("belief, potential, and anchor shapes must agree")
        if self.round < 0:
            raise ValueError("round must be nonnegative")
        for name, rows in (("log_belief", logb), ("log_belief_initial", logb0)):
            sums = np.sum(np.exp(rows), axis=1)
            if np.max(np.abs(sums - 1.0)) > BELIEF_SUM_TOL:
                raise ValueError(f"{name} rows must exponentiate to 1")
        if self.round == 0 and np.any(phi != 0.0):
            raise ValueError("potentials must be identically zero at round 0")
        object.__setattr__(self, "log_belief", logb)
        object.__setattr__(self, "potentials", phi)
        object.__setattr__(self, "log_belief_initial", logb0)

    @property
    def agent_count(self) -> int:
        return self.log_belief.shape[0]

    @property
    def state_count(self) -> int:
        return self.log_belief.shape[1]


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of checking the three standing assumptions.

    A1: every log likelihood is bounded (no zero-probability signals).
    A2: the realized state is globally identifiable, i.e. the network
        divergence of every other state is strictly negative.
    A3: the communication graph is connected.
    """

    a1_passed: bool
    log_bound: float
    a2_passed: bool
    a2_violations: tuple
    a3_passed: bool
    a3_unreachable: tuple

    @property
    def passed(self) -> bool:
        return self.a1_passed and self.a2_passed and self.a3_passed

    def summary(self) -> str:
        lines = []
        mark = {True: "pass", False: "FAIL"}
        lines.append(
            f"A1 bounded likelihoods: {mark[self.a1_passed]}"
            f" (log bound {self.log_bound:.6g})"
        )
        detail = ""
        if self.a2_violations:
            detail = f" (states not identified: {list(self.a2_violations)})"
        lines.append(f"A2 global identifiability: {mark[self.a2_passed]}{detail}")
        detail = ""
        if self.a3_unreachable:
            detail = f" (unreachable agents: {list(self.a3_unreachable)})"
        lines.append(f"A3 connected network: {mark[self.a3_passed]}{detail}")
        return "\n".join(lines)


def validate_assumptions(
    lik: LikelihoodModel, net: Network, space: StateSpace
) -> ValidationReport:
    """Check A1-A3 for a model triple and report per-assumption outcomes.

    Pure function; raises ``ValueError`` only on dimension mismatches
    between the three inputs.
    """
    if lik.agent_count != net.n:
        raise ValueError(
            f"likelihoods cover {lik.agent_count} agents, network has {net.n}"
        )
    if lik.state_count != space.size:
        raise ValueError(
            f"likelihood tables cover {lik.state_count} states, space has {space.size}"
        )

    a1 = bool(np.isfinite(lik.log_bound))

    from .analysis import identifiability_report  # local import, avoids a cycle

    if a1:
        violations = identifiability_report(lik, space).not_excluded
    else:
        violations = tuple(
            k for k in range(space.size) if k != space.true_state_index
        )
    a2 = not violations

    reachable = _reachable(net.weights > 0.0)
    unreachable = tuple(int(i) for i in np.nonzero(~reachable)[0])
    a3 = not unreachable

    return ValidationReport(
        a1_passed=a1,
        log_bound=lik.log_bound,
        a2_passed=a2,
        a2_violations=violations,
        a3_passed=a3,
        a3_unreachable=unreachable,
    )
