"""Mixing matrices of a round or a block of rounds, the potential update and the ledger.

The protocol communicates selectively: a network edge carries weight in
a given round only when at least one endpoint found its own signal
uninformative. Everyone else leans on their own accumulated potential,
which the diagonal absorbs; ``_mix`` applies the round's mixing to the
potentials, for the reference round and the engine. The ledger keeps
each round's mask and reads the fired edges off it by the mixing's
rule, so a run's communication cost can be audited afterwards.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from .model import Network, _check_integer, _self_weights

__all__ = [
    "SwitchingMatrix",
    "build_switching_matrix",
    "CommLedger",
    "record_round",
]


@dataclass(frozen=True, eq=False)
class SwitchingMatrix:
    """A switching rule: the read-only mask of agents that found their
    signal uninformative, ``(n,)`` for round ``round`` or ``(rows, n)``
    for rounds ``round .. round + rows - 1``, on its network.

    ``q`` is the mixing matrix that follows, one per row, built on each
    read. It needs no check: ``Network``'s self-weight rule makes it mix.
    """

    network: Network
    flagged: np.ndarray
    round: int

    def __post_init__(self):
        mask = np.asarray(self.flagged).view()  # the caller's mask stays writable
        if mask.dtype != bool or mask.ndim not in (1, 2) or mask.shape[-1] != self.network.n:
            raise ValueError(f"flagged must be {self.network.n} booleans or rows of them, "
                             f"got {mask.dtype} of shape {mask.shape}")
        _check_integer("round", self.round, 0)
        mask.setflags(write=False)
        object.__setattr__(self, "flagged", mask)

    @property
    def q(self) -> np.ndarray:
        mat = _mixing_matrices(self.network, self.flagged)
        mat.setflags(write=False)
        return mat


def _fired(net: Network, flagged: np.ndarray) -> np.ndarray:
    """The one fired-edge rule: an edge of ``net`` fires iff either
    endpoint is flagged. Masks ``(..., n)`` give ``(..., n, n)``."""
    return (flagged[..., :, None] | flagged[..., None, :]) & net.adjacency


# fired-edge cells (rounds x n x n) per step of a walk over a run's
# masks; a round is never split
_BLOCK_CELLS = 4096


def _mixing_matrices(net: Network, flagged: np.ndarray) -> np.ndarray:
    """Mixing matrices ``(..., n, n)`` for uninformative masks ``(..., n)``.

    The one implementation of the mixing rule, shared by the reference
    round and the batched engine. Where every agent is flagged the
    network weights are copied verbatim, since the diagonal fill only
    matches them to ~1 ulp; their positive entries are the fired edges.
    """
    q = np.where(_fired(net, flagged), net.weights, 0.0)
    agents = np.arange(net.n)
    q[..., agents, agents] = _self_weights(q)
    q[np.all(flagged, axis=-1)] = net.weights
    return q


def _mix(net: Network, flagged: np.ndarray, phi: np.ndarray, fresh: np.ndarray) -> np.ndarray:
    """The one potential update ``Q phi + fresh``, masks ``(..., n)``, rows
    ``(..., n, m)``. A batch flagging nobody mixes with I, one flagging
    everybody with ``net.weights``: no matrix, the dense product's bits."""
    if not flagged.any():
        return phi + fresh
    if flagged.all():
        return net.weights @ phi + fresh
    return _mixing_matrices(net, flagged) @ phi + fresh


def build_switching_matrix(net: Network, flagged, round: int) -> SwitchingMatrix:
    """A switching rule from an ``(n,)`` boolean mask or a ``(rows, n)`` block.

    An edge carries its network weight iff either endpoint is flagged;
    the diagonal absorbs whatever each row sheds. No agent flagged
    yields the exact identity, every agent the network weights
    themselves. An index list is refused, like any other non-mask.
    """
    return SwitchingMatrix(network=net, flagged=flagged, round=round)


class CommLedger:
    """Mutable record of which edges of ``network`` fired in which rounds.

    For each recorded round that flagged an agent, the ledger keeps its
    round number (int64) and its flagged mask, packed 8 agents to a
    byte. Everything else is read off those masks in one walk,
    ``_blocks``, by ``_fired``, the rule the mixing follows: iterating
    the ledger yields the ``(round, i, j)`` tuples with ``i < j``,
    rounds in recorded order and pairs row-major within a round;
    ``events`` lists them afresh on each access, and ``_tally`` counts
    them and which agents each round touched, for ``len(ledger)`` and
    ``communication_fractions``. No temporary of the walk grows with the
    horizon. Only rules on the ledger's own network object are recorded.
    """

    def __init__(self, network: Network):
        if not isinstance(network, Network):
            raise ValueError(f"need a Network, got {network!r}")
        self.network = network
        self._rounds = array("q")
        self._masks = bytearray()
        self.rounds_recorded = 0

    def __len__(self) -> int:
        return self._tally()[0]

    def __iter__(self):
        for rounds, fired in self._blocks():
            t, i, j = np.nonzero(np.triu(fired, 1))
            yield from zip(rounds[t].tolist(), i.tolist(), j.tolist())

    def _blocks(self):
        """The stored rows in blocks of ``_BLOCK_CELLS`` cells, each as its
        round numbers and its ``(rows, n, n)`` fired edges, which
        ``_fired`` reads off the unpacked masks.

        Each block is copied out of the storage, so the ledger can still
        grow while a walk is paused; rows recorded meanwhile start the next.
        """
        n = self.network.n
        width, step = -(-n // 8), max(1, _BLOCK_CELLS // n ** 2)
        lo = 0
        while lo < len(self._rounds):
            hi = min(lo + step, len(self._rounds))
            packed = np.frombuffer(self._masks[lo * width:hi * width], np.uint8)
            masks = np.unpackbits(packed.reshape(-1, width), axis=1, count=n).view(bool)
            yield np.frombuffer(self._rounds[lo:hi], np.int64), _fired(self.network, masks)
            lo = hi

    def _tally(self) -> tuple:
        """The exchange count and each agent's rounds with a fired edge, in one walk."""
        exchanges, touched = 0, np.zeros(self.network.n, dtype=np.int64)
        for _, fired in self._blocks():
            exchanges += np.count_nonzero(fired) // 2  # symmetric: each pair twice
            touched += fired.any(axis=-1).sum(axis=0)
        return exchanges, touched

    @property
    def events(self) -> list:
        """``(round, i, j)`` tuples of Python ints, rebuilt on each access."""
        return list(iter(self))  # list(self) would walk once more for len()

    def communication_fractions(self) -> np.ndarray:
        """Per agent, the fraction of recorded rounds in which one of its
        edges fired; ``ValueError`` when no round was recorded."""
        if not self.rounds_recorded:
            raise ValueError("no round was recorded, so there is no fraction of rounds")
        return self._tally()[1] / self.rounds_recorded

    def record(self, q: SwitchingMatrix) -> None:
        if q.network is not self.network:
            raise ValueError("the round is on another network than the ledger's")
        # packed first, so no temporary holds more than a bit per agent-round
        packed = np.packbits(q.flagged.reshape(-1, self.network.n), axis=1)
        rows = np.flatnonzero(packed.any(axis=1))
        self._rounds.frombytes((rows + q.round).astype(np.int64).tobytes())
        self._masks += packed[rows].tobytes()
        self.rounds_recorded += len(packed)


def record_round(ledger: CommLedger, q: SwitchingMatrix) -> CommLedger:
    """Record a round's or a block's exchanges; returns the same ledger for chaining."""
    ledger.record(q)
    return ledger
