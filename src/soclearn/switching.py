"""Round-by-round mixing matrices and the communication ledger.

The protocol communicates selectively: a network edge carries weight in
a given round only when at least one endpoint found its own signal
uninformative. Everyone else leans on their own accumulated potential,
which the diagonal absorbs. The ledger records which edges actually
fired so a run's communication cost can be audited afterwards.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .model import Network, _check_mixing, _is_index

__all__ = [
    "SwitchingMatrix",
    "build_switching_matrix",
    "CommLedger",
    "record_round",
]


@dataclass(frozen=True, eq=False)
class SwitchingMatrix:
    """One round's switching rule: the read-only ``(n,)`` mask of agents
    that found their signal uninformative, on its network.

    ``q`` is the mixing matrix that follows, built and checked on each
    read; ``fired_pairs()`` needs no matrix.
    """

    network: Network
    flagged: np.ndarray
    round: int

    def __post_init__(self):
        mask = np.asarray(self.flagged).view()  # the caller's mask stays writable
        if mask.dtype != bool or mask.shape != (self.network.n,):
            raise ValueError(f"flagged must be {self.network.n} booleans, got "
                             f"{mask.dtype} of shape {mask.shape}")
        if not (_is_index(self.round) and self.round >= 0):
            raise ValueError(f"round must be a nonnegative integer, got {self.round!r}")
        mask.setflags(write=False)
        object.__setattr__(self, "flagged", mask)

    @property
    def q(self) -> np.ndarray:
        mat = _mixing_matrices(self.network, self.flagged)
        _check_mixing(mat, "mixing matrix")
        mat.setflags(write=False)
        return mat

    def fired_pairs(self) -> tuple:
        """Index arrays ``(i, j)`` of the pairs that exchanged this round.

        Each unordered pair appears once, with ``i < j``, in row-major
        order.
        """
        rows, cols = np.nonzero(_fired(self.network, self.flagged))
        upper = rows < cols
        return rows[upper], cols[upper]


def _fired(net: Network, flagged: np.ndarray) -> np.ndarray:
    """The one fired-edge rule: an edge of ``net`` fires iff either
    endpoint is flagged. Masks ``(..., n)`` give ``(..., n, n)``."""
    return (flagged[..., :, None] | flagged[..., None, :]) & net.adjacency


def _mixing_matrices(net: Network, flagged: np.ndarray) -> np.ndarray:
    """Mixing matrices ``(..., n, n)`` for uninformative masks ``(..., n)``.

    The one implementation of the mixing rule, shared by the reference
    round and the batched engine. Where every agent is flagged the
    network weights are copied verbatim, since the diagonal fill only
    matches them to ~1 ulp; their positive entries are the fired edges.
    """
    q = np.where(_fired(net, flagged), net.weights, 0.0)
    agents = np.arange(net.n)
    q[..., agents, agents] = 1.0 - np.sum(q, axis=-1)
    q[np.all(flagged, axis=-1)] = net.weights
    return q


def build_switching_matrix(net: Network, flagged, round: int) -> SwitchingMatrix:
    """One round's switching rule from the ``(n,)`` boolean mask ``flagged``.

    An edge carries its network weight iff either endpoint is flagged;
    the diagonal absorbs whatever each row sheds. No agent flagged
    yields the exact identity, every agent the network weights
    themselves. An index list is refused, like any other non-mask.
    """
    return SwitchingMatrix(network=net, flagged=flagged, round=round)


# events decoded per step of iterating a ledger, about 48 bytes each while
# decoded; a round is never split
_DECODE_EVENTS = 1024


class CommLedger:
    """Mutable record of which edges fired in which rounds.

    Exchanges live in compressed rows (CSR): ``_rounds`` holds the round
    of each recorded round that had at least one exchange, ``_ends`` the
    running exchange count after it, and ``_pairs`` each undirected
    exchange ``i < j`` as the code ``i * n + j`` in the narrowest
    unsigned typecode that holds ``n² - 1`` (two bytes up to 256
    agents). A round without exchanges stores nothing. On a dense ledger
    that is about 4 bytes per exchange. Events keep their recorded
    order (rounds as recorded, pairs row-major within a round).
    Iterating the ledger yields the ``(round, i, j)`` tuples one at a
    time, decoding about a thousand at once; ``events`` builds a fresh
    list of them on each access, and ``len(ledger)`` is the cheap count.
    Per-agent communication fractions are read off the verdicts, by
    ``TrajectoryRecord.communication_fractions``.
    """

    def __init__(self, n: int):
        if not (_is_index(n) and n >= 1):
            raise ValueError(f"need a positive integer count of agents, got {n!r}")
        self.n = n
        self._rounds = array("q")
        self._ends = array("q")
        self._pairs = array(next(c for c in "HIq" if n * n - 1 <= np.iinfo(c).max))
        self.rounds_recorded = 0

    def __len__(self) -> int:
        return len(self._pairs)

    def __iter__(self):
        return chain.from_iterable(self._blocks())

    def _blocks(self):
        lo = 0
        while lo < len(self._rounds):
            lo, block = self._decode(lo)
            yield block

    def _decode(self, lo: int):
        """Events of whole rounds from row ``lo`` on, about ``_DECODE_EVENTS``.

        Returns the next row and an iterator of ``(round, i, j)`` tuples.
        The numpy views of the storage end with this call, so the ledger
        can still grow while an iteration is paused.
        """
        ends = np.frombuffer(self._ends, np.int64)
        first = int(ends[lo - 1]) if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, first + _DECODE_EVENTS, side="right")))
        codes = np.frombuffer(self._pairs, self._pairs.typecode)[first:ends[hi - 1]]
        triples = np.empty((codes.size, 3), dtype=np.int64)
        triples[:, 0] = np.repeat(
            np.frombuffer(self._rounds, np.int64)[lo:hi], np.diff(ends[lo:hi], prepend=first)
        )
        # cheaper than np.divmod, which skips numpy's fast division by a scalar
        rows = codes // self.n
        triples[:, 1] = rows
        triples[:, 2] = codes - rows * self.n
        flat = array("q")
        flat.frombytes(triples.data.cast("B"))  # one copy, where tobytes() makes two
        flat = iter(flat)
        return hi, zip(flat, flat, flat)

    @property
    def events(self) -> list:
        """``(round, i, j)`` tuples of Python ints, rebuilt on each access."""
        return list(self)

    def record(self, q: SwitchingMatrix) -> None:
        if q.network.n != self.n:
            raise ValueError(f"ledger covers {self.n} agents, matrix {q.network.n}")
        rows, cols = q.fired_pairs()
        if rows.size:
            codes = rows * self.n + cols
            self._pairs.frombytes(codes.astype(self._pairs.typecode).tobytes())
            self._rounds.append(q.round)
            self._ends.append(len(self._pairs))
        self.rounds_recorded += 1


def record_round(ledger: CommLedger, q: SwitchingMatrix) -> CommLedger:
    """Record one round's exchanges; returns the same ledger for chaining."""
    ledger.record(q)
    return ledger
