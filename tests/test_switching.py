"""Mixing-matrix construction from the uninformative set, plus the ledger."""

import dataclasses
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    CONFIG_DIR,
    engine_configs,
    flagged_mask,
    reference_rounds,
    settling_config,
    valid_model,
)
from soclearn import harness, switching
from soclearn.harness import ExperimentConfig, TrajectoryRecord, reference_config, run_experiment
from soclearn.model import Network, complete_edges, metropolis_weights, ring_edges
from soclearn.switching import (
    CommLedger,
    SwitchingMatrix,
    _fired,
    _mix,
    build_switching_matrix,
    record_round,
)

# complete on 3 agents, every entry 1/3: the diagonal is not bitwise
# 1 - 2/3, so a round that fires every edge must copy the weights
THIRDS = Network(np.full((3, 3), 1 / 3))


@pytest.fixture
def path3():
    # path 0-1-2; degrees 1, 2, 1 give weights 1/3 on both edges
    return metropolis_weights([(0, 1), (1, 2)], 3)


def pairs(q):
    """Pairs ``i < j`` that exchange in round ``q``: its matrix's positive
    upper off-diagonals, which the ledger does not read."""
    i, j = np.nonzero(np.triu(q.q > 0.0, 1))
    return set(zip(i.tolist(), j.tolist()))


def record_of(net, uninformative):
    """A trajectory holding only the given ``(rounds, n)`` verdicts, and
    zero beliefs at round 0 and the final round."""
    u = np.array(uninformative, dtype=bool)
    n = net.n
    stored = np.unique([0, len(u)])
    return TrajectoryRecord(
        replica=0,
        stored_rounds=stored,
        log_beliefs=np.zeros((len(stored), n, 1)),
        tv_series=np.zeros((len(stored) - 1, n)),
        uninformative=u,
        last_below=np.full(n, -1),
        network=net,
    )


def test_path_weights_are_the_expected_matrix(path3):
    expect = np.array(
        [
            [2 / 3, 1 / 3, 0.0],
            [1 / 3, 1 / 3, 1 / 3],
            [0.0, 1 / 3, 2 / 3],
        ]
    )
    assert np.allclose(path3.weights, expect, atol=1e-15)


def test_empty_set_gives_exact_identity(path3):
    q = build_switching_matrix(path3, flagged_mask(path3.n, ()), round=1)
    assert np.array_equal(q.q, np.eye(3))
    assert pairs(q) == set()


def test_full_set_gives_exact_network_weights(path3):
    q = build_switching_matrix(path3, flagged_mask(path3.n, (0, 1, 2)), round=1)
    assert np.array_equal(q.q, path3.weights)


def test_middle_agent_activates_both_edges(path3):
    # both edges touch agent 1, so the result is the full weight matrix
    q = build_switching_matrix(path3, flagged_mask(path3.n, (1,)), round=1)
    assert np.array_equal(q.q, path3.weights)
    assert pairs(q) == {(0, 1), (1, 2)}


def test_end_agent_activates_one_edge(path3):
    q = build_switching_matrix(path3, flagged_mask(path3.n, (0,)), round=1)
    expect = np.array(
        [
            [2 / 3, 1 / 3, 0.0],
            [1 / 3, 2 / 3, 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    assert np.allclose(q.q, expect, atol=1e-15)
    assert pairs(q) == {(0, 1)}


def test_constructed_matrices_satisfy_invariants():
    rng = np.random.default_rng(17)
    net = metropolis_weights(ring_edges(7), 7)
    for trial in range(200):
        size = int(rng.integers(0, 8))
        uninformative = tuple(rng.choice(7, size=size, replace=False))
        q = build_switching_matrix(net, flagged_mask(net.n, uninformative), round=trial).q
        assert np.array_equal(q, q.T)
        assert np.max(np.abs(q.sum(axis=1) - 1.0)) <= 1e-12
        assert np.max(np.abs(q.sum(axis=0) - 1.0)) <= 1e-12
        assert np.all(q >= 0.0)
        assert np.all(np.diag(q) > 0.0)


@st.composite
def mix_cases(draw):
    """``(net, flagged, phi, fresh)``: masks ``(n,)`` or ``(reps, n)`` whose
    rows flag nobody, everybody or some agents, and finite rows for them."""
    if draw(st.booleans()):
        net = THIRDS
    else:
        n = draw(st.integers(2, 6))
        tree = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
        extra = draw(st.lists(st.sampled_from(complete_edges(n)), max_size=n))
        net = metropolis_weights(tree + extra, n)
    n, m = net.n, draw(st.integers(1, 4))
    reps = draw(st.sampled_from([(), (1,), (2,), (3,)]))
    kinds = draw(st.lists(st.sampled_from(["none", "all", "some"]),
                          min_size=max(reps, default=1), max_size=max(reps, default=1)))
    rows = [np.zeros(n, bool) if k == "none" else np.ones(n, bool) if k == "all"
            else np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
            for k in kinds]
    flagged = np.array(rows).reshape(reps + (n,))
    # + 0.0 turns -0.0 into 0.0: I @ phi + fresh loses the sign of a zero
    # that phi + fresh keeps, and no run's potentials or rows hold -0.0
    finite = st.floats(-1e6, 1e6).map(lambda x: x + 0.0)
    phi, fresh = (np.array(draw(st.lists(finite, min_size=len(rows) * n * m,
                                         max_size=len(rows) * n * m))).reshape(reps + (n, m))
                  for _ in range(2))
    return net, flagged, phi, fresh


@settings(max_examples=300, deadline=None)
@given(case=mix_cases())
@example(case=(THIRDS, np.ones(3, bool), np.array([[1.0], [0.0], [0.0]]), np.zeros((3, 1))))
def test_mix_gives_the_bits_of_the_dense_product(case):
    # the engine and the reference round both update through _mix, so
    # its shortcuts are held here to the dense round matrix q.q
    net, flagged, phi, fresh = case
    n, m = phi.shape[-2:]
    got = _mix(net, flagged, phi, fresh)
    assert got.shape == phi.shape
    for mask, p, f, g in zip(flagged.reshape(-1, n), phi.reshape(-1, n, m),
                             fresh.reshape(-1, n, m), got.reshape(-1, n, m)):
        q = build_switching_matrix(net, mask, round=1)
        assert np.array_equal(g.view(np.uint64), (q.q @ p + f).view(np.uint64))


def test_exchanges_stay_on_network_edges():
    # an uninformative agent pulls in its weight row, which is zero off
    # its neighborhood, so no exchange can appear off the edge set
    net = metropolis_weights(ring_edges(6), 6)
    q = build_switching_matrix(net, flagged_mask(net.n, (0, 3)), round=1)
    for i, j in pairs(q):
        assert net.weights[i, j] > 0.0
    assert pairs(q) == {(0, 1), (0, 5), (2, 3), (3, 4)}


def test_growing_the_set_only_adds_support():
    rng = np.random.default_rng(23)
    net = metropolis_weights(complete_edges(6), 6)
    for _ in range(100):
        smaller = set(rng.choice(6, size=int(rng.integers(0, 4)), replace=False))
        extra = set(rng.choice(6, size=int(rng.integers(0, 3)), replace=False))
        larger = smaller | extra
        q_small = build_switching_matrix(net, flagged_mask(net.n, smaller), round=1)
        q_large = build_switching_matrix(net, flagged_mask(net.n, larger), round=1)
        assert pairs(q_small) <= pairs(q_large)


def test_switching_matrix_validates_input(path3):
    for flagged in (np.zeros(3, dtype=int), np.zeros((3, 1), dtype=bool), [0, 2]):
        with pytest.raises(ValueError, match="flagged must be 3 booleans"):
            SwitchingMatrix(network=path3, flagged=flagged, round=1)
    with pytest.raises(ValueError, match="round"):
        SwitchingMatrix(network=path3, flagged=np.zeros(3, dtype=bool), round=-1)


@pytest.mark.parametrize("round_", [1.5, 2.0, "3", True, np.float64(1)])
def test_switching_matrix_rejects_a_round_that_is_not_an_integer(path3, round_):
    # round 1.5 used to pass here and fail later, inside the ledger's array
    with pytest.raises(ValueError, match="^round must be an integer >= 0, got "):
        build_switching_matrix(path3, flagged_mask(path3.n, (0,)), round_)
    assert build_switching_matrix(path3, flagged_mask(path3.n, (0,)), np.int64(2)).round == 2


@pytest.mark.parametrize("n", [2.5, 3.0, "3", True, 0, -1])
def test_ledger_rejects_an_agent_count_that_is_not_a_positive_integer(n):
    # the ledger takes its network, which decoding needs, so no agent
    # count is accepted; test_ledger_takes_its_network covers the integers
    with pytest.raises(ValueError, match="^need a Network"):
        CommLedger(n)


@pytest.mark.parametrize("network", [3, np.int64(3), None, np.eye(3)],
                         ids=["int", "numpy-int", "none", "matrix"])
def test_ledger_takes_its_network(path3, network):
    with pytest.raises(ValueError, match="^need a Network"):
        CommLedger(network)
    assert CommLedger(path3).network is path3


def test_out_of_range_agents_rejected(path3):
    # only an (n,) boolean mask names the flagged agents: an index list,
    # even one of n in-range indices, is refused, and so is a longer mask
    for flagged in ((3,), (0, 1, 2), (), [True, False, False, True]):
        with pytest.raises(ValueError, match="flagged must be 3 booleans"):
            build_switching_matrix(path3, flagged, round=1)


def test_mask_stays_the_callers_and_is_read_only(path3):
    mask = np.array([True, False, False])
    q = build_switching_matrix(path3, mask, round=1)
    assert not q.flagged.flags.writeable and mask.flags.writeable
    assert not q.q.flags.writeable


# -------------------------------------------------------------------- ledger


def test_identity_round_records_nothing(path3):
    ledger = CommLedger(path3)
    record_round(ledger, build_switching_matrix(path3, flagged_mask(path3.n, ()), round=1))
    assert ledger.events == []
    assert ledger.rounds_recorded == 1
    rec = record_of(path3, [[False, False, False]])
    assert np.array_equal(rec.ledger.communication_fractions(), np.zeros(3))


def test_full_round_records_every_edge(path3):
    ledger = CommLedger(path3)
    record_round(ledger, build_switching_matrix(path3, flagged_mask(path3.n, (0, 1, 2)), round=5))
    assert ledger.events == [(5, 0, 1), (5, 1, 2)]
    rec = record_of(path3, [[True, True, True]])
    assert np.array_equal(rec.ledger.communication_fractions(), np.ones(3))


def test_agent_round_counts_are_per_round_not_per_edge():
    # the middle agent of a path touches two edges in one round but the
    # round counts once
    net = metropolis_weights([(0, 1), (1, 2)], 3)
    ledger = CommLedger(net)
    for t in (1, 2, 3):
        record_round(ledger, build_switching_matrix(net, flagged_mask(net.n, (1,)), round=t))
    assert len(ledger.events) == 6
    rec = record_of(net, [[False, True, False]] * 3)
    assert np.array_equal(rec.ledger.communication_fractions(), np.array([3, 3, 3]) / 3)


def test_fraction_is_rounds_touched_over_rounds_recorded(path3):
    masks = [[True, False, False], [False] * 3, [False, False, True], [False] * 3]
    rec = record_of(path3, masks)
    assert np.array_equal(rec.ledger.communication_fractions(), np.array([1, 2, 1]) / 4)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from([(False,) * 3, (True,) * 3]) | st.tuples(*[st.booleans()] * 3),
                min_size=1, max_size=40))
@example([(False,) * 3, (True,) * 3, (True, False, False), (False, True, False)])
def test_fractions_of_a_ledger_built_directly_match_the_dense_oracle(rows):
    # quiet, all-flagged and mixed rounds, recorded with record_round alone
    net = metropolis_weights([(0, 1), (1, 2)], 3)
    masks = np.array(rows, dtype=bool)
    ledger = CommLedger(net)
    for t, mask in enumerate(masks, start=1):
        record_round(ledger, build_switching_matrix(net, mask, t))
    fired = _fired(net, masks)
    oracle = fired.any(-1).sum(0) / len(masks)
    assert np.array_equal(ledger.communication_fractions(), oracle)
    t, i, j = np.nonzero(np.triu(fired, 1))
    assert ledger.events == list(zip((t + 1).tolist(), i.tolist(), j.tolist()))
    assert len(ledger) == np.count_nonzero(fired) // 2


def test_recording_reads_no_fired_edges_and_each_walk_reads_them(path3, monkeypatch):
    # the ledger stores masks alone; the fired-edge rule runs only when
    # the ledger is read
    calls = []

    def counted(net, flagged):
        calls.append(flagged.shape)
        return _fired(net, flagged)

    monkeypatch.setattr(switching, "_fired", counted)
    ledger = CommLedger(path3)
    for t, members in enumerate([(), (0,), (), (0, 1, 2)], start=1):
        record_round(ledger, build_switching_matrix(path3, flagged_mask(3, members), t))
    assert calls == []
    assert len(ledger) == 3
    assert calls == [(2, 3)]
    assert ledger.events == [(2, 0, 1), (4, 0, 1), (4, 1, 2)]
    assert calls == [(2, 3)] * 2


def test_a_lone_agent_fires_nothing():
    # its flagged rounds are stored, but it has no edge to fire
    net = metropolis_weights([], 1)
    ledger = CommLedger(net)
    for t in (1, 2, 3):
        record_round(ledger, build_switching_matrix(net, np.ones(1, dtype=bool), t))
    assert len(ledger) == 0
    assert ledger.events == []
    assert ledger.rounds_recorded == 3
    assert np.array_equal(ledger.communication_fractions(), np.zeros(1))


def test_a_fraction_over_no_rounds_is_refused(path3):
    # 0 / 0 would be NaN and a numpy warning, which the suite makes an error
    with pytest.raises(ValueError, match="no round was recorded"):
        CommLedger(path3).communication_fractions()
    rec = record_of(path3, np.zeros((0, 3), dtype=bool))
    with pytest.raises(ValueError, match="no round was recorded"):
        rec.ledger.communication_fractions()


def test_events_match_positive_offdiagonals(path3):
    rng = np.random.default_rng(31)
    ledger = CommLedger(path3)
    per_round = {}
    for t in range(1, 30):
        members = tuple(rng.choice(3, size=int(rng.integers(0, 4)), replace=False))
        q = build_switching_matrix(path3, flagged_mask(path3.n, members), round=t)
        per_round[t] = {(i, j) for i in range(3) for j in range(i + 1, 3) if q.q[i, j] > 0}
        record_round(ledger, q)
    for t, i, j in ledger.events:
        assert (i, j) in per_round[t]
    recorded = {}
    for t, i, j in ledger.events:
        recorded.setdefault(t, set()).add((i, j))
    for t, support in per_round.items():
        assert recorded.get(t, set()) == support


ANOTHER_NETWORK = "^the round is on another network than the ledger's"


def test_ledger_rejects_size_mismatch(path3):
    ledger = CommLedger(ring(4))
    with pytest.raises(ValueError, match=ANOTHER_NETWORK):
        record_round(ledger, build_switching_matrix(path3, flagged_mask(path3.n, (0,)), round=1))
    assert len(ledger) == 0
    assert ledger.rounds_recorded == 0


def test_ledger_record_rejects_size_mismatch(path3):
    # decoding reads the ledger's adjacency, so a round on any other
    # network, of another size or the same, is refused before it is kept
    for ledger in (CommLedger(ring(4)), CommLedger(complete(3))):
        with pytest.raises(ValueError, match=ANOTHER_NETWORK):
            ledger.record(build_switching_matrix(path3, flagged_mask(path3.n, (0,)), round=1))
        assert len(ledger) == 0
        assert ledger.rounds_recorded == 0


def test_a_paused_iteration_also_yields_rounds_recorded_meanwhile(path3):
    # decoding holds no view of the storage across a yield, so recording
    # while an iteration is paused neither fails nor goes unseen
    ledger = CommLedger(path3)
    for t in (1, 2):
        ledger.record(build_switching_matrix(path3, flagged_mask(3, (0,)), round=t))
    events = iter(ledger)
    assert next(events) == (1, 0, 1)
    ledger.record(build_switching_matrix(path3, flagged_mask(3, (2,)), round=3))
    assert list(events) == [(2, 0, 1), (3, 1, 2)]
    assert ledger.events == [(1, 0, 1), (2, 0, 1), (3, 1, 2)]


def ring(n):
    return metropolis_weights(ring_edges(n), n)


def complete(n):
    return metropolis_weights(complete_edges(n), n)


# per case: the network, the recorded (flagged agents, round) sequence,
# and one event the case must produce. A decode block holds 4096 // n²
# rounds, at least one.
LEDGER_CASES = {
    # n = 256 fills a 32-byte mask; (254, 255) is its largest pair
    "n256-largest-2-byte-pair": (ring(256), [((254,), 1)], (1, 254, 255)),
    # n = 257 needs a 33rd byte, which holds agent 256 alone
    "n257-ring-wider-code": (ring(257), [((256,), 1)], (1, 255, 256)),
    "round-2**40": (ring(5), [((0,), 2**40)], (2**40, 0, 4)),
    "rounds-out-of-order": (
        ring(5), [((1,), 7), ((0,), 3), ((3,), 3)], (3, 0, 4)
    ),
    "empty-rounds-between": (
        ring(5),
        [((), 1), ((2,), 2), ((), 3), ((), 4), ((0, 3), 5), ((), 6)],
        (5, 3, 4),
    ),
    # 150 rounds of 28 exchanges span three decode blocks of 64 rounds
    "several-decode-blocks": (
        complete(8), [(range(8), t) for t in range(1, 151)], (150, 6, 7)
    ),
    # at n = 64 one round's 4,096 cells fill a decode block exactly
    "n64-one-round-per-block": (
        ring(64), [((0,), 1), ((), 2), ((63,), 3), (range(64), 4)], (3, 0, 63)
    ),
    # one round of 4,950 exchanges has 10,000 cells, more than a block
    "round-larger-than-a-block": (
        complete(100), [((0,), 1), (range(100), 2), ((5,), 3)], (2, 98, 99)
    ),
}


@pytest.mark.parametrize("case", LEDGER_CASES.values(), ids=LEDGER_CASES.keys())
def test_ledger_round_trips_the_per_round_pairs(case):
    net, rounds, witness = case
    ledger = CommLedger(net)
    expect = []
    for members, t in rounds:
        q = build_switching_matrix(net, flagged_mask(net.n, members), round=t)
        expect += [(q.round, i, j) for i, j in sorted(pairs(q))]
        record_round(ledger, q)
    assert witness in expect
    assert ledger.events == expect
    assert len(ledger) == len(expect)
    assert ledger.rounds_recorded == len(rounds)


# ----------------------------- communication fractions and the ledger replay


@settings(max_examples=60, deadline=None)
@given(engine_configs())
def test_fired_pairs_are_the_positive_offdiagonals(config):
    # the matrix's support is the oracle of the fired-edge rule, also when
    # every agent is flagged and the network weights are copied verbatim;
    # a one-round ledger decodes its round's pairs by that rule
    for _, _, _, q, _ in reference_rounds(config):
        rows, cols = np.nonzero(np.triu(q.q > 0.0, 1))
        ledger = switching.CommLedger(q.network)
        ledger.record(q)
        assert ledger.events == [(q.round, i, j) for i, j in zip(rows.tolist(), cols.tolist())]
        assert len(ledger) == rows.size


def test_communication_stays_sparse_under_switching():
    config = reference_config(replicas=4)
    records = run_experiment(config)
    baseline = run_experiment(dataclasses.replace(config, tau=1.0))
    sw_events = sum(len(rec.ledger.events) for rec in records)
    base_events = sum(len(rec.ledger.events) for rec in baseline)
    assert sw_events < base_events
    fractions = np.concatenate([rec.ledger.communication_fractions() for rec in records])
    assert fractions.mean() < 0.2


def ledger_fractions(rec):
    """Per agent, the share of rounds with a ledger event that includes it."""
    rounds = [set() for _ in range(rec.network.n)]
    for t, i, j in rec.ledger:
        rounds[i].add(t)
        rounds[j].add(t)
    return np.array([len(r) for r in rounds]) / rec.rounds


def test_fraction_definitions_agree():
    # the ledger's fraction (uninformative or uninformative neighbor)
    # must equal the one counted from its events
    records = run_experiment(reference_config(replicas=2))
    for rec in records:
        assert np.array_equal(rec.ledger.communication_fractions(), ledger_fractions(rec))


@settings(max_examples=40, deadline=None)
@given(engine_configs(), st.data())
def test_communication_fractions_match_the_dense_fired_oracle(config, data):
    # any block size, so the ledger's walk also crosses block boundaries
    # mid-run, in the blocks its iteration uses. One more record is quiet
    # but for one lone flagged round, which is all its ledger stores
    valid_model(config)
    cells = data.draw(st.integers(1, 2 * config.agents ** 2))
    records = run_experiment(config)
    n = config.agents
    quiet = np.zeros((data.draw(st.integers(1, 600)), n), dtype=bool)
    lone = data.draw(st.integers(0, len(quiet) - 1))
    quiet[lone] = data.draw(st.lists(st.booleans(), min_size=n, max_size=n).filter(any))
    records.append(record_of(records[0].network, quiet))
    with mock.patch.object(switching, "_BLOCK_CELLS", cells):
        for rec in records:
            touched = switching._fired(rec.network, rec.uninformative).any(axis=-1)
            fractions = rec.ledger.communication_fractions()
            assert np.array_equal(fractions, touched.sum(axis=0) / rec.rounds)
            assert np.array_equal(fractions, ledger_fractions(rec))


def test_communication_fractions_walk_the_masks_in_blocks():
    # at n = 64 a block is one round, whose fired edges take 4 KiB; blocks
    # of 256 rounds would hold about 1 MiB of them. The first call replays
    # the ledger, which the record caches, so the bar measures the ledger's
    # walk over its stored masks after the replay
    net = metropolis_weights(ring_edges(64), 64)
    u = np.random.default_rng(3).random((5000, 64)) < 0.05
    rec = record_of(net, u)
    rec.ledger.communication_fractions()
    tracemalloc.start()
    try:
        rec.ledger.communication_fractions()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 1024


@st.composite
def networks(draw):
    """Connected graphs on 2..7 agents, Metropolis or explicit weights."""
    n = draw(st.integers(2, 7))
    # a random spanning tree keeps the graph connected; extra edges on top
    edges = {(draw(st.integers(0, k - 1)), k) for k in range(1, n)}
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))))
    if draw(st.booleans()):
        return metropolis_weights(edges, n)
    # explicit: edge weights in (0, 1 / (1 + max degree)], diagonal fills
    degree = max(sum(k in e for e in edges) for k in range(n))
    w = np.zeros((n, n))
    for i, j in sorted(edges):
        w[i, j] = w[j, i] = draw(st.integers(1, 4)) / (4.0 * (1 + degree))
    w[np.arange(n), np.arange(n)] = 1.0 - w.sum(axis=1)
    return Network(w)


@st.composite
def replayed_masks(draw):
    """A network and a ``(rounds, n)`` uninformative mask for it."""
    net = draw(networks())
    n = net.n
    row = st.one_of(
        st.just([False] * n),
        st.just([True] * n),
        st.lists(st.booleans(), min_size=n, max_size=n),
    )
    return net, np.array(draw(st.lists(row, min_size=1, max_size=12)), dtype=bool)


@settings(max_examples=60, deadline=None)
@given(replayed_masks())
def test_ledger_replay_matches_vectorised_events(case):
    net, u = case
    rec = record_of(net, u)
    fired = np.triu((u[:, :, None] | u[:, None, :]) & net.adjacency, k=1)
    expect = [(int(t) + 1, int(i), int(j)) for t, i, j in zip(*np.nonzero(fired))]
    ledger = rec.ledger
    assert ledger.events == expect
    assert len(ledger) == len(ledger.events)
    assert ledger.rounds_recorded == len(u)
    assert np.array_equal(ledger_fractions(rec), rec.ledger.communication_fractions())


def test_ledger_replay_builds_no_mixing_matrix(monkeypatch):
    # the replay reads only each round's fired edges; tau = 1 fires every
    # edge, so a matrix built for any round would show up here
    recs = run_experiment(settling_config(replicas=1, rounds=20, tau=1.0))

    def no_matrix(net, flagged):
        raise AssertionError("the ledger replay built a mixing matrix")

    monkeypatch.setattr(switching, "_mixing_matrices", no_matrix)
    ledger = recs[0].ledger
    net = recs[0].network
    assert len(ledger) == 20 * int(np.triu(net.adjacency).sum()) > 0
    assert ledger.rounds_recorded == 20


def test_ledger_keeps_at_most_6_bytes_per_exchange():
    # tau = 1 on a complete graph fires every edge in every round, so the
    # ledger dominates what the replay retains; one Python tuple per
    # exchange kept ~75 bytes each, packed int64 triples ~26, a 2-byte
    # pair code per exchange ~3.9, and a round number and a one-byte
    # mask per round with exchanges (10 of them here) keep ~1.0
    config = dataclasses.replace(
        ExperimentConfig.from_json(CONFIG_DIR / "complete5_tables.json"),
        tau=1.0,
        replicas=2,
    )
    records = run_experiment(config)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ledgers = [rec.ledger for rec in records]
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    events = sum(len(ledger) for ledger in ledgers)
    assert events == 2 * config.rounds * 10
    assert retained <= 6 * events



# ------------------------------------------------------------ blocks of rounds


def ledger_bytes(ledger):
    """What a ledger stores and counts, for comparing two ledgers."""
    return (ledger._rounds.tobytes(), bytes(ledger._masks), ledger.rounds_recorded)


@settings(max_examples=80, deadline=None)
@given(replayed_masks(), st.integers(0, 5), st.data())
def test_a_block_records_as_its_rounds_do(case, start, data):
    # one block, row by row, and consecutive blocks split anywhere (empty
    # blocks included) store the same rounds and masks and read the same
    net, u = case
    bounds = sorted([0, len(u), *data.draw(st.lists(st.integers(0, len(u)), max_size=6))])
    whole, by_row, split = CommLedger(net), CommLedger(net), CommLedger(net)
    record_round(whole, build_switching_matrix(net, u, start))
    for t, mask in enumerate(u, start=start):
        record_round(by_row, build_switching_matrix(net, mask, t))
    for lo, hi in zip(bounds, bounds[1:]):
        record_round(split, build_switching_matrix(net, u[lo:hi], start + lo))
    assert whole.rounds_recorded == len(u)
    for ledger in (by_row, split):
        assert ledger_bytes(ledger) == ledger_bytes(whole)
        assert ledger.events == whole.events
        assert len(ledger) == len(whole)
        assert np.array_equal(ledger.communication_fractions(), whole.communication_fractions())


@settings(max_examples=60, deadline=None)
@given(replayed_masks())
def test_a_blocks_matrices_are_its_rounds_matrices(case):
    net, u = case
    block = build_switching_matrix(net, u, 1).q
    rounds = np.stack([build_switching_matrix(net, mask, t).q for t, mask in enumerate(u, 1)])
    assert block.shape == (len(u), net.n, net.n) and not block.flags.writeable
    assert block.tobytes() == rounds.tobytes()


@pytest.mark.parametrize("flagged, got", [
    (np.zeros((2, 2, 3), dtype=bool), "bool of shape (2, 2, 3)"),
    (np.bool_(True), "bool of shape ()"),
    (np.zeros((2, 4), dtype=bool), "bool of shape (2, 4)"),
    (np.zeros((2, 0), dtype=bool), "bool of shape (2, 0)"),
    (np.zeros((2, 3), dtype=np.int64), "int64 of shape (2, 3)"),
    ([[0.0, 1.0, 0.0]], "float64 of shape (1, 3)"),
], ids=["3-d", "0-d", "last-axis-4", "last-axis-0", "ints", "floats"])
def test_a_block_must_be_rows_of_n_booleans(path3, flagged, got):
    message = f"flagged must be 3 booleans or rows of them, got {got}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build_switching_matrix(path3, flagged, round=1)


def test_a_records_ledger_is_one_build_and_one_record(path3):
    # the replay records the verdicts of every round as one block
    u = np.random.default_rng(5).random((300, 3)) < 0.2
    with mock.patch.object(harness, "build_switching_matrix",
                           wraps=harness.build_switching_matrix) as build, \
            mock.patch.object(harness, "record_round", wraps=harness.record_round) as record:
        ledger = record_of(path3, u).ledger
    assert (build.call_count, record.call_count) == (1, 1)
    assert ledger.rounds_recorded == 300
    fired = np.triu(_fired(path3, u), 1)
    assert ledger.events == [(int(t) + 1, int(i), int(j)) for t, i, j in zip(*np.nonzero(fired))]
