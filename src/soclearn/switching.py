"""Round-by-round mixing matrices and the communication ledger.

The protocol communicates selectively: a network edge carries weight in
a given round only when at least one endpoint found its own signal
uninformative. Everyone else leans on their own accumulated potential,
which the diagonal absorbs. The ledger keeps each round's flagged mask
and reads which edges fired off it, by the same rule as the mixing, so
a run's communication cost can be audited afterwards.
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
    """One round's switching rule: the read-only ``(n,)`` mask of agents
    that found their signal uninformative, on its network.

    ``q`` is the mixing matrix that follows, built on each read. It
    needs no check: ``Network``'s self-weight rule makes it mix.
    """

    network: Network
    flagged: np.ndarray
    round: int

    def __post_init__(self):
        mask = np.asarray(self.flagged).view()  # the caller's mask stays writable
        if mask.dtype != bool or mask.shape != (self.network.n,):
            raise ValueError(f"flagged must be {self.network.n} booleans, got "
                             f"{mask.dtype} of shape {mask.shape}")
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


def _block_rounds(n: int) -> int:
    """Rounds of ``(n,)`` masks per step of a walk over a run's masks."""
    return max(1, _BLOCK_CELLS // n ** 2)


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


def build_switching_matrix(net: Network, flagged, round: int) -> SwitchingMatrix:
    """One round's switching rule from the ``(n,)`` boolean mask ``flagged``.

    An edge carries its network weight iff either endpoint is flagged;
    the diagonal absorbs whatever each row sheds. No agent flagged
    yields the exact identity, every agent the network weights
    themselves. An index list is refused, like any other non-mask.
    """
    return SwitchingMatrix(network=net, flagged=flagged, round=round)


class CommLedger:
    """Mutable record of which edges of ``network`` fired in which rounds.

    For each recorded round that had at least one exchange, the ledger
    keeps its round number (int64) and its flagged mask, packed 8 agents
    to a byte; a round without exchanges stores nothing. The exchanges
    are read off the masks by ``_fired``, the rule the mixing follows:
    iterating the ledger unpacks blocks of masks and yields the
    ``(round, i, j)`` tuples with ``i < j``, rounds in recorded order
    and pairs row-major within a round. ``events`` builds a fresh list
    of them on each access, and ``len(ledger)`` is a running count.
    Only rounds on the ledger's own network object are recorded.
    """

    def __init__(self, network: Network):
        if not isinstance(network, Network):
            raise ValueError(f"need a Network, got {network!r}")
        self.network = network
        self._rounds = array("q")
        self._masks = bytearray()
        self._count = 0
        self.rounds_recorded = 0

    def __len__(self) -> int:
        return self._count

    def __iter__(self):
        step = _block_rounds(self.network.n)
        lo = 0
        while lo < len(self._rounds):
            hi = min(lo + step, len(self._rounds))
            yield from self._decode(lo, hi)
            lo = hi  # rows recorded during this block start the next

    def _decode(self, lo: int, hi: int):
        """The ``(round, i, j)`` tuples of rows ``lo .. hi - 1``, as an iterator.

        The numpy views of the storage end with this call, so the ledger
        can still grow while an iteration is paused.
        """
        n = self.network.n
        width = -(-n // 8)
        packed = np.frombuffer(self._masks, np.uint8)[lo * width:hi * width]
        masks = np.unpackbits(packed.reshape(-1, width), axis=1, count=n).view(bool)
        t, i, j = np.nonzero(np.triu(_fired(self.network, masks), 1))
        rounds = np.frombuffer(self._rounds, np.int64)[lo:hi][t]
        return zip(rounds.tolist(), i.tolist(), j.tolist())

    @property
    def events(self) -> list:
        """``(round, i, j)`` tuples of Python ints, rebuilt on each access."""
        return list(self)

    def record(self, q: SwitchingMatrix) -> None:
        if q.network is not self.network:
            raise ValueError("the round is on another network than the ledger's")
        # fired edges are symmetric with a false diagonal: each pair twice
        exchanges = np.count_nonzero(_fired(self.network, q.flagged)) // 2
        if exchanges:
            self._rounds.append(q.round)
            self._masks += np.packbits(q.flagged).tobytes()
            self._count += exchanges
        self.rounds_recorded += 1


def record_round(ledger: CommLedger, q: SwitchingMatrix) -> CommLedger:
    """Record one round's exchanges; returns the same ledger for chaining."""
    ledger.record(q)
    return ledger
