"""Domain types for networked belief-learning experiments.

Holds the finite state space, the shared prior, per-agent signal
likelihoods and the communication network, and the tables derived from
them. Every type checks that it is well formed at construction (shapes,
symmetry, stochasticity, finiteness) and is immutable afterwards, so
instances can be shared freely across replicas. ``generate_signals``
draws the signals from the law ``LikelihoodModel.signal_cdf`` tabulates,
through the package's own Philox4x64-10 generator. The module is a leaf:
it imports nothing from the package. It holds the package's two range
rules, ``_check_integer`` and ``_check_unit``, through which every
range refusal goes. Whether a model meets the standing assumptions
A1-A3 is judged in ``analysis``.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence, Union

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
    "metropolis_weights",
    "ring_edges",
    "complete_edges",
    "generate_signals",
]


class AssumptionViolation(RuntimeError):
    """A run was requested on a model that fails a standing assumption."""


def _is_index(value) -> bool:
    """An integer, numpy integers included, but not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _check_integer(name: str, value, lo: int, hi: Optional[int] = None) -> None:
    """The integer range rule: refuse ``value`` unless it is an integer
    (``_is_index``) in ``[lo, hi)``, or ``>= lo`` when ``hi`` is None."""
    if _is_index(value) and lo <= value and (hi is None or value < hi):
        return
    bound = f">= {lo}" if hi is None else f"in [{lo}, {hi})"
    raise ValueError(f"{name} must be an integer {bound}, got {value!r}")


def _check_unit(name: str, value, closed: bool = False) -> None:
    """The unit-interval rule: refuse ``value`` unless it lies in ``(0, 1)``,
    or in ``(0, 1]`` when ``closed``. NaN lies in neither."""
    if not (0.0 < value < 1.0 or (closed and value == 1.0)):
        raise ValueError(f"{name} must lie in (0, 1{']' if closed else ')'}, got {value!r}")


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
        _check_integer("true_state_index", self.true_state_index, 0, len(self.states))

    @property
    def size(self) -> int:
        return len(self.states)


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
            raise ValueError(f"prior mass sums to {float(total)!r}, not 1")
        object.__setattr__(self, "log_mass", arr)

    @classmethod
    def uniform(cls, size: int) -> "Prior":
        return cls(np.full(size, -np.log(size)))

    @classmethod
    def from_probabilities(cls, mass) -> "Prior":
        arr = np.asarray(mass, dtype=float)
        if not np.all((arr > 0.0) & (arr < np.inf)):
            raise ValueError("prior must place positive, finite mass on every state")
        return cls(np.log(arr))


@dataclass(frozen=True)
class LikelihoodModel:
    """Per-agent signal likelihoods over a common state space.

    ``log_lik[i]`` has shape ``(symbols_i, m)``; entry ``[s, k]`` is the
    log probability that agent ``i`` observes its ``s``-th symbol when
    state ``k`` is realized. Columns therefore exponentiate to one.
    Signals are table row indices; a table's row count is its agent's
    alphabet size. ``log_bound`` is the largest log-magnitude in any
    table; it is finite exactly when no symbol has zero probability
    under some state.
    """

    log_lik: tuple

    def __post_init__(self):
        tables = tuple(_readonly(t) for t in self.log_lik)
        if not tables:
            raise ValueError("need one likelihood table per agent")
        m = tables[0].shape[1] if tables[0].ndim == 2 else 0
        for i, table in enumerate(tables):
            if table.ndim != 2 or table.shape[1] != m:
                raise ValueError(
                    f"agent {i}: table shape {table.shape} does not match "
                    f"state count {m}"
                )
            if np.any(np.isnan(table)) or np.any(table == np.inf):
                raise ValueError(f"agent {i}: log likelihoods must be < inf")
            sums = np.sum(np.exp(table), axis=0)
            if np.max(np.abs(sums - 1.0)) > PROB_SUM_TOL:
                raise ValueError(f"agent {i}: likelihood columns must sum to 1")
        object.__setattr__(self, "log_lik", tables)

    @classmethod
    def from_probabilities(cls, tables):
        """Build from linear-domain tables, one ``(symbols, states)`` per agent.

        Zero entries are accepted as ``-inf`` log likelihoods; such a
        model is unbounded and fails A1 in ``analysis.validate_assumptions``.
        """
        arrs = [np.asarray(t, dtype=float) for t in tables]
        for i, a in enumerate(arrs):
            if not np.all((a >= 0.0) & (a < np.inf)):
                raise ValueError(f"agent {i}: probabilities must be finite and >= 0")
        with np.errstate(divide="ignore"):
            logs = tuple(np.log(a) for a in arrs)
        return cls(logs)

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

    @cached_property
    def padded_log_lik(self) -> np.ndarray:
        """Tables stacked into ``(n, max_symbols, m)``, -inf padded.

        The padding rows are never addressed by valid signal indices;
        if a bug selects one, the resulting non-finite beliefs surface
        immediately.
        """
        n, m = self.agent_count, self.state_count
        out = np.full((n, max(len(t) for t in self.log_lik), m), -np.inf)
        for i, table in enumerate(self.log_lik):
            out[i, : table.shape[0], :] = table
        out.setflags(write=False)
        return out

    @cached_property
    def value_classes(self) -> tuple:
        """``_value_classes`` of every padded table row, built on first use.

        States fall in one class exactly when their likelihoods
        ``exp(log_lik)`` are equal. Returns ``(label, levels)`` of shapes
        ``(n, max_symbols, m)`` and ``(n, max_symbols, C)``, with C the
        largest class count in the model. Validation never builds it.
        """
        label, levels = _value_classes(np.exp(self.padded_log_lik))
        label.setflags(write=False)
        levels.setflags(write=False)
        return label, levels

    @cached_property
    def signal_cdf(self) -> np.ndarray:
        """``(n, max_symbols, m)`` cumulative symbol laws, built on first use.

        ``[i, :, k]`` is the running sum of agent ``i``'s symbol
        probabilities under state ``k``, its last real entry set to
        exactly 1.0, then ``+inf`` padding. The number of entries at or
        below a uniform draw in ``[0, 1)`` is therefore a valid row index
        of agent ``i``'s table.
        """
        cdf = np.cumsum(np.exp(self.padded_log_lik), axis=1)
        sizes = np.array([len(t) for t in self.log_lik])
        cdf[np.arange(self.agent_count), sizes - 1] = 1.0
        cdf[np.arange(cdf.shape[1]) >= sizes[:, None]] = np.inf
        cdf.setflags(write=False)
        return cdf

    def signal_rows(self, signals) -> tuple:
        """``(fresh, label, levels)`` at each agent's signal, for signals ``(..., n)``.

        ``fresh`` holds the ``(..., n, m)`` log-likelihood rows, and
        ``label`` and ``levels`` the ``value_classes`` rows. The indices
        are not checked; ``checked_signals`` does that.
        """
        label, levels = self.value_classes
        at = np.arange(self.agent_count), signals
        return self.padded_log_lik[at], label[at], levels[at]

    @cached_property
    def _usable_rows(self) -> np.ndarray:
        """``(n, max_symbols)``, true where a padded row is finite, so a signal may pick it."""
        out = np.isfinite(self.padded_log_lik).all(axis=-1)
        out.setflags(write=False)
        return out

    def checked_signals(self, signals) -> np.ndarray:
        """One round's signal row indices as an array, checked.

        Rejects anything but one index per agent, and any index that
        hits a zero-probability or padded table row or lies outside the
        padded tables, negative ones included.
        """
        n = self.agent_count
        sig = np.asarray(signals)
        if sig.shape != (n,) or not np.issubdtype(sig.dtype, np.integer):
            raise ValueError(
                f"need one integer signal index per agent, got {sig.dtype} of shape {sig.shape}"
            )
        inside = (sig >= 0) & (sig < self._usable_rows.shape[1])
        usable = inside & self._usable_rows[np.arange(n), np.where(inside, sig, 0)]
        if not usable.all():
            bad = int(np.argmin(usable))
            raise ValueError(
                f"agent {bad}: signal index {int(sig[bad])} hits a zero-probability, "
                "padded or missing table row"
            )
        return sig

    def fresh_rows(self, signals) -> np.ndarray:
        """Log-likelihood rows ``(n, m)`` of one round's signal row indices.

        The indices go through ``checked_signals`` first.
        """
        return self.signal_rows(self.checked_signals(signals))[0]


def _value_classes(values: np.ndarray) -> tuple:
    """Group the entries of each row of ``values`` by exact equality.

    Returns ``(label, levels)``. ``label[..., k]`` is the class of entry
    ``k``, classes numbered in increasing value, and ``levels[..., c]``
    is the value of class ``c``. Rows with fewer than C classes are
    zero-padded. Values must be free of NaN.
    """
    order = np.argsort(values, axis=-1, kind="stable")
    ordered = np.take_along_axis(values, order, axis=-1)
    step = np.diff(ordered, axis=-1, prepend=ordered[..., :1]) > 0.0
    rank = np.cumsum(step, axis=-1)
    label = np.empty_like(order)
    np.put_along_axis(label, order, rank, axis=-1)
    levels = np.zeros(values.shape[:-1] + (int(rank.max(initial=0)) + 1,))
    np.put_along_axis(levels, rank, ordered, axis=-1)
    return label, levels


_WORD = 2**64 - 1
_HALF = np.uint64(2**32 - 1)
# Philox4x64 multipliers and Weyl key increments (Salmon et al., SC 2011)
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10


def _mulhilo(a: int, b: np.ndarray) -> tuple:
    """High and low 64-bit words of ``a * b``, multiplied in 32-bit halves."""
    a_lo, a_hi = a & 0xFFFFFFFF, a >> 32
    low, high = b & _HALF, b >> 32
    # Hacker's Delight mulhu, in place: every partial sum stays below 2**64
    mid = low * a_hi
    low *= a_lo
    low >>= 32
    mid += low
    cross = high * a_lo
    cross += mid & _HALF
    high *= a_hi
    high += mid >> 32
    high += cross >> 32
    return high, np.multiply(b, a, out=low)


def _philox_blocks(seed: int, replicas: np.ndarray, counters: np.ndarray) -> np.ndarray:
    """Philox4x64-10 of counters ``(c, 0, 0, 0)`` under keys ``(seed, replica)``.

    ``replicas`` holds uint64 keys of shape ``(reps, 1)``; the result is
    ``(reps, len(counters), 4)`` words. Round keys are Python ints masked
    to 64 bits, so no numpy scalar ever overflows.
    """
    shape = (len(replicas), len(counters))
    x0 = np.broadcast_to(counters, shape)
    x1 = x2 = x3 = np.zeros(shape, dtype=np.uint64)
    for r in range(_PHILOX_ROUNDS):
        k0 = (seed + r * _PHILOX_W[0]) & _WORD
        k1 = replicas + np.uint64((r * _PHILOX_W[1]) & _WORD)
        # the next word 2 waits in x0, so the spent word 0 is freed early
        hi, lo = _mulhilo(_PHILOX_M[0], x0)
        hi ^= x3
        hi ^= k1
        x0, x3 = hi, lo
        hi, lo = _mulhilo(_PHILOX_M[1], x2)
        hi ^= x1
        hi ^= k0
        x0, x1, x2 = hi, lo, x0
    return np.stack((x0, x1, x2, x3), axis=-1)


def _philox_doubles(seed: int, replicas: np.ndarray, first: int, count: int) -> np.ndarray:
    """Doubles ``first .. first + count - 1`` of the streams keyed ``(seed, replica)``.

    The result has shape ``(reps, count)``. Double ``g`` is word
    ``g % 4`` of the block at counter ``(g // 4 + 1, 0, 0, 0)``, shifted
    right by 11 and scaled by 2**-53: what numpy's
    ``Generator(Philox(key=[seed, replica])).random()`` draws. The
    caller keeps the last counter below 2**64, since no carry reaches
    word 1.
    """
    block, last = first // 4, (first + count - 1) // 4
    counters = np.arange(last - block + 1, dtype=np.uint64) + (block + 1)
    words = _philox_blocks(seed, replicas, counters)
    words >>= 11
    skip = first - 4 * block
    # cast, then scale in place: a mixed-type multiply would add a cast buffer
    doubles = words.reshape(len(replicas), -1)[:, skip:skip + count].astype(np.float64)
    doubles *= 2.0**-53
    return doubles


def generate_signals(
    lik: LikelihoodModel,
    space: StateSpace,
    seed: int,
    rounds: int,
    replica: Union[int, Sequence[int]] = 0,
    start: int = 0,
) -> np.ndarray:
    """Draw every agent's signal stream under the realized state.

    Returns a ``(rounds, agents)`` array of table row indices for
    rounds ``start .. start + rounds - 1``. The stream is a pure
    function of ``(seed, replica)``: each replica gets an independent
    counter-based key, so adding replicas or reordering calls never
    perturbs existing streams, and consecutive slices concatenate to
    exactly one longer draw. A sequence of replicas draws them all at
    once, with shape ``(rounds, len(replica), agents)``.

    The package computes Philox4x64-10 itself: round ``t`` of agent
    ``i`` reads double ``t * agents + i`` of the stream, bit-identical
    to numpy's ``Philox(key=[seed, replica])`` with ``Generator.random``
    doubles, and picks the symbol whose cumulative law first exceeds it.
    """
    single = np.ndim(replica) == 0
    keys = [replica] if single else list(replica)
    n = lik.agent_count
    if not keys:
        raise ValueError("replica must name at least one replica")
    for name, value in (("seed", seed), *(("replica", r) for r in keys)):
        _check_integer(name, value, 0, 2**64)
    # numpy integers become Python ints, so no Philox key arithmetic overflows
    seed, keys = int(seed), [int(r) for r in keys]
    _check_integer("rounds", rounds, 1)
    _check_integer("start", start, 0)
    if ((start + rounds) * n + 3) // 4 > _WORD:
        raise ValueError(
            f"rounds {start} .. {start + rounds - 1} need a Philox block "
            "counter past 2**64 - 1"
        )
    replicas = np.array(keys, dtype=np.uint64)[:, None]
    draws = _philox_doubles(seed, replicas, start * n, rounds * n)
    draws = draws.reshape(len(keys), rounds, n).transpose(1, 0, 2)
    cdf = lik.signal_cdf[:, :, space.true_state_index]
    # the symbol is the number of cdf entries at or below the draw; each
    # row's last entry is 1.0 or +inf padding, which no draw in [0, 1) reaches
    out = np.zeros((rounds, len(keys), n), dtype=np.intp)
    for column in cdf.T[:-1]:
        out += column <= draws
    return out[:, 0] if single else out


def _check_mixing(mat: np.ndarray, what: str) -> None:
    """Reject a matrix that cannot mix: the one mixing-matrix invariant.

    ``mat`` must be square, finite, symmetric, nonnegative, have rows
    and columns summing to one and a positive diagonal, all within
    ``PROB_SUM_TOL``. Only ``Network`` calls it, on its weights; with
    its self-weight rule, every round's switching matrix meets it too.
    """
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{what} must be a square matrix")
    # ahead of any arithmetic, where inf - inf would warn and NaN would
    # slip through every comparison
    if not np.isfinite(mat).all():
        raise ValueError(f"{what} must be finite, without inf or NaN")
    if np.max(np.abs(mat - mat.T), initial=0.0) > PROB_SUM_TOL:
        raise ValueError(f"{what} must be symmetric")
    if np.any(mat < 0.0):
        raise ValueError(f"{what} must be nonnegative")
    if (
        np.max(np.abs(np.sum(mat, axis=1) - 1.0)) > PROB_SUM_TOL
        or np.max(np.abs(np.sum(mat, axis=0) - 1.0)) > PROB_SUM_TOL
    ):
        raise ValueError(f"{what} must be doubly stochastic")
    if np.any(np.diag(mat) <= 0.0):
        raise ValueError(f"{what} must have a positive diagonal")


def _self_weights(edges: np.ndarray) -> np.ndarray:
    """Each agent's self-weight: 1 minus its row sum of ``edges``, whose diagonal is zero."""
    return 1.0 - np.sum(edges, axis=-1)


@dataclass(frozen=True)
class Network:
    """Symmetric stochastic communication weights over ``n`` agents.

    The weights are the one record of the graph: agents ``i != j`` are
    neighbours exactly when entry ``(i, j)`` is positive, and ``n`` and
    ``adjacency`` are both read off the matrix. Input that passes the
    mixing-matrix checks, so is within ``PROB_SUM_TOL`` of symmetric, is
    then symmetrised: the stored weights are exactly symmetric. Each
    agent must keep a positive self-weight, 1 minus its summed edge
    weights; float sums being monotone, every round's matrix then mixes.
    """

    weights: np.ndarray

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        _check_mixing(w, "weights")
        # averaging with the transpose keeps every checked property
        w = (w + w.T) / 2.0
        kept = _self_weights(w - np.diag(np.diag(w))) > 0.0
        if not kept.all():
            raise ValueError(f"agent {np.argmin(kept)}: weights must leave a positive "
                             "self-weight, 1 minus the agent's summed edge weights")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    @cached_property
    def adjacency(self) -> np.ndarray:
        """Boolean off-diagonal support of the weights."""
        adj = self.weights > 0.0
        np.fill_diagonal(adj, False)
        adj.setflags(write=False)
        return adj


def ring_edges(n: int) -> list:
    """Undirected cycle on ``n`` nodes (a single edge for n=2, none for n=1)."""
    _check_integer("n", n, 1)
    if n == 1:
        return []
    if n == 2:
        return [(0, 1)]
    return [(i, (i + 1) % n) for i in range(n)]


def complete_edges(n: int) -> list:
    _check_integer("n", n, 1)
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def metropolis_weights(adjacency: Iterable, n: int) -> Network:
    """Network with Metropolis weights on an undirected adjacency.

    Each undirected edge ``(i, j)`` receives weight ``1 / (1 + max(d_i, d_j))``
    where ``d`` are node degrees, and the diagonal absorbs the remainder.
    The result is symmetric and doubly stochastic with positive diagonal.

    Raises ``ValueError`` on an edge that is not a pair, non-integer or
    bool node ids, self-loops or out-of-range nodes. A disconnected
    adjacency gives a valid network that fails A3 in
    ``analysis.validate_assumptions``. ``n`` must be an integer >= 1.
    """
    _check_integer("n", n, 1)
    adj = np.zeros((n, n), dtype=bool)
    for e in adjacency:
        try:
            i, j = e
        except (TypeError, ValueError):
            raise ValueError(f"edge {e!r} must be a pair of node ids") from None
        if not (_is_index(i) and _is_index(j)):
            raise ValueError(f"edge ({i!r}, {j!r}): node ids must be integers")
        if i == j:
            raise ValueError("self-loops are implicit; adjacency must not list them")
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge ({i}, {j}) out of range for {n} nodes")
        adj[i, j] = adj[j, i] = True
    degree = adj.sum(axis=1)
    w = np.where(adj, 1.0 / (1.0 + np.maximum.outer(degree, degree)), 0.0)
    w[np.diag_indices(n)] = _self_weights(w)
    return Network(w)


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
        _check_integer("round", self.round, 0)
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
