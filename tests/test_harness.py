"""Experiment orchestration: config, the batched engine, trajectory records,
export, and the baseline comparison, also as ``cli.main`` reaches them: the
config refusals, the runs and their pinned outputs."""

import csv
import dataclasses
import hashlib
import io
import itertools
import json
import math
import re
import subprocess
import sys
import tracemalloc
from decimal import Decimal
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    AWKWARD_LABELS,
    CONFIG_DIR,
    EXPORT_CASES,
    beliefs_csv_rows,
    bernoulli,
    decimal_protocol,
    engine_configs,
    oracle_beliefs_csv,
    package_env,
    settling_config,
    valid_model,
    write_config,
)
from test_trace_contract import traced_job
from soclearn.analysis import estimate_rate, identifiability_report, validate_assumptions
from soclearn import harness, switching
from soclearn.cli import main
from soclearn.harness import (
    GENERATOR_NAME,
    ExperimentConfig,
    build_likelihoods,
    build_model,
    compare_baseline,
    distinguished_state,
    export,
    generate_signals,
    reference_config,
    run_experiment,
)
from soclearn.learning import initial_state, run_round
from soclearn.model import AssumptionViolation, LikelihoodModel, metropolis_weights, ring_edges


# symmetric and doubly stochastic, but three diagonal entries are not
# what a row fill gives: 1 - (0.1 + 0.2 + 0.3) == 0.3999999999999999
EXPLICIT_WEIGHTS = (
    (0.4, 0.1, 0.2, 0.3),
    (0.1, 0.5, 0.3, 0.1),
    (0.2, 0.3, 0.3, 0.2),
    (0.3, 0.1, 0.2, 0.4),
)


# -------------------------------------------------------------------- config


def test_reference_defaults():
    config = reference_config()
    assert config.agents == 15
    assert config.states == 16
    assert config.tau == 1e-17
    assert config.rounds == 1000
    assert config.replicas == 20
    assert config.topology_kind == "ring"
    assert (config.p_eq, config.p_diff) == (0.5, 0.25)


def test_config_rejects_zero_rounds():
    with pytest.raises(ValueError):
        reference_config(rounds=0)


def test_config_rejects_threshold_outside_unit_interval():
    with pytest.raises(ValueError):
        reference_config(tau=0.0)
    with pytest.raises(ValueError):
        reference_config(tau=1.5)


def test_config_rejects_prior_mass_of_wrong_length():
    with pytest.raises(ValueError, match="prior_mass.*states"):
        reference_config(prior_mass=(0.2, 0.3, 0.5))


def test_config_rejects_bad_consensus_delta():
    with pytest.raises(ValueError):
        reference_config(consensus_delta=0.0)
    with pytest.raises(ValueError):
        reference_config(consensus_delta=1.0)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_config_rejects_a_seed_outside_64_bits(seed):
    # -1 used to be refused only for not fitting in 64 bits
    with pytest.raises(ValueError, match=rf"^seed must be an integer in \[0, {2**64}\), "
                                         rf"got {seed}$"):
        reference_config(seed=seed)


@pytest.mark.parametrize(
    "field, value, rule",
    [
        ("agents", 0, "be an integer >= 1"),
        ("states", 1, "be an integer >= 2"),
        ("true_state", -1, "be an integer in [0, 16)"),
        ("true_state", 16, "be an integer in [0, 16)"),
        ("rounds", 0, "be an integer >= 1"),
        ("seed", -1, f"be an integer in [0, {2**64})"),
        ("seed", 2**64, f"be an integer in [0, {2**64})"),
        ("replicas", 0, "be an integer >= 1"),
        ("thin_every", 0, "be an integer >= 1"),
        ("comparison_agent", -1, "be an integer in [0, 15)"),
        ("comparison_agent", 15, "be an integer in [0, 15)"),
        ("p_eq", 0.0, "lie in (0, 1)"),
        ("p_eq", 1.0, "lie in (0, 1)"),
        ("p_diff", 0.0, "lie in (0, 1)"),
        ("p_diff", 1.0, "lie in (0, 1)"),
        ("tau", 0.0, "lie in (0, 1]"),
        ("tau", math.nextafter(1.0, 2.0), "lie in (0, 1]"),
        ("consensus_delta", 0.0, "lie in (0, 1)"),
        ("consensus_delta", 1.0, "lie in (0, 1)"),
    ],
)
def test_config_refusals_name_the_field_its_range_and_the_value(field, value, rule):
    # each range-checked field one step outside its range, on the
    # 15-agent, 16-state reference config
    with pytest.raises(ValueError) as refused:
        reference_config(**{field: value})
    assert str(refused.value) == f"{field} must {rule}, got {value!r}"


@pytest.mark.parametrize(
    "labels, cell",
    [(("1", 1), "1"), ((0.5, "0.5"), "0.5"), (("a", "a"), "a"), (('a"b', 'a"b'), '"a""b"')],
)
def test_config_rejects_state_labels_that_write_the_same_csv_cell(labels, cell):
    # beliefs.csv and divergence.csv could not tell such states apart
    first, second = labels
    with pytest.raises(ValueError, match=re.escape(
            f"state_labels {first!r} and {second!r} both write the CSV cell {cell}")):
        reference_config(agents=2, states=3, state_labels=("z", *labels))
    reference_config(agents=2, states=3, state_labels=("z", first, "other"))


EDGES_RULE = "topology_edges is required for topology_kind='edges' and meaningless otherwise"


@pytest.mark.parametrize("fields, message", [
    ({"state_labels": ("a", "b", "c")}, "state_labels length must equal states"),
    ({"topology_kind": "star"}, "topology_kind must be one of ('ring', 'complete', 'edges')"),
    ({"topology_kind": "edges"}, EDGES_RULE),
    ({"topology_edges": ((0, 1),)}, EDGES_RULE),
    ({"topology_kind": "complete", "topology_edges": ((0, 1),)}, EDGES_RULE),
], ids=["labels", "kind", "edges-missing", "edges-on-a-ring", "edges-on-complete"])
def test_config_refuses_labels_and_topologies_that_do_not_fit(fields, message):
    with pytest.raises(ValueError) as refused:
        ExperimentConfig(agents=3, states=4, **fields)
    assert str(refused.value) == message


@pytest.mark.parametrize("labels", [(1, 1.0), (0.0, -0.0), (2, 2.0)])
def test_config_rejects_state_labels_equal_as_values(labels):
    # they write different CSV cells, but as labels they would name one state
    first, second = labels
    message = f"state_labels {first!r} and {second!r} are equal as values"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ExperimentConfig(agents=3, states=4, state_labels=(*labels, "a", "b"))


def test_equal_bernoulli_parameters_fail_a2():
    # the config allows it; with every signal law the same, A2 fails for
    # every false state and the run is refused
    config = reference_config(p_eq=0.3, p_diff=0.3, replicas=1, rounds=10)
    space, _, lik, net = build_model(config)
    report = validate_assumptions(lik, net, space)
    assert report.a1_passed and report.a3_passed
    assert report.a2_violations == tuple(range(1, config.states))
    with pytest.raises(AssumptionViolation, match="A2"):
        run_experiment(config)


def test_config_rejects_alphabets_without_tables():
    # signals are table row indices, so no config field names symbols; a
    # config that still carries alphabets fails, with tables or without
    for config in (reference_config(), settling_config()):
        data = {**config.to_dict(), "alphabets": [[0, 1]] * config.agents}
        with pytest.raises(ValueError, match="unknown config keys: alphabets"):
            ExperimentConfig.from_dict(data)


def test_config_dict_round_trip():
    config = settling_config()
    again = ExperimentConfig.from_dict(config.to_dict())
    assert again == config


def test_config_json_round_trip(tmp_path):
    config = reference_config(rounds=50, replicas=2)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config.to_dict()))
    assert ExperimentConfig.from_json(path) == config


def test_config_stores_a_numpy_seed_as_the_equal_python_int():
    # a numpy seed used to overflow in the Philox key arithmetic and
    # to make the config's dict unserialisable
    config = reference_config(seed=np.int64(7), replicas=2, rounds=40)
    assert type(config.seed) is int
    assert json.loads(json.dumps(config.to_dict()))["seed"] == 7
    want = run_experiment(reference_config(seed=7, replicas=2, rounds=40))
    for got, rec in zip(run_experiment(config), want, strict=True):
        for name in ("log_beliefs", "tv_series", "uninformative", "last_below"):
            assert getattr(got, name).tobytes() == getattr(rec, name).tobytes()
    # generate_signals takes numpy integer seeds and replicas as the equal ints
    space, _, lik, _ = config.model
    got = generate_signals(lik, space, seed=np.uint64(7), rounds=9, replica=np.arange(2))
    assert np.array_equal(got, generate_signals(lik, space, seed=7, rounds=9, replica=[0, 1]))


def test_distinguished_state_cycles_over_false_states():
    assert [distinguished_state(i, 16) for i in range(15)] == list(range(1, 16))
    assert distinguished_state(15, 16) == 1


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 20), st.integers(2, 9), st.floats(0.01, 0.99), st.floats(0.01, 0.99))
@example(12, 4, 0.5, 0.25)
def test_reference_likelihoods_match_the_per_state_loop(agents, states, p_eq, p_diff):
    # the loop form of the reference family is the bit-for-bit reference;
    # with agents > states - 1 the distinguished states wrap around
    tables = []
    for i in range(agents):
        special = distinguished_state(i, states)
        table = np.empty((2, states))
        for k in range(states):
            p_one = p_diff if k == special else p_eq
            table[0, k] = 1.0 - p_one
            table[1, k] = p_one
        tables.append(table)
    expect = LikelihoodModel.from_probabilities(tables)
    lik = build_likelihoods(
        reference_config(agents=agents, states=states, p_eq=p_eq, p_diff=p_diff)
    )
    for got, want in zip(lik.log_lik, expect.log_lik, strict=True):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


# ------------------------------------------------------------ run_experiment


def test_replicas_are_deterministic():
    config = settling_config(replicas=3, rounds=80)
    first = run_experiment(config)
    second = run_experiment(config)
    for a, b in zip(first, second):
        assert np.array_equal(a.log_beliefs, b.log_beliefs)
        assert np.array_equal(a.uninformative, b.uninformative)
        assert a.ledger.events == b.ledger.events


def test_unidentifiable_config_is_refused():
    # no agent separates state 2 from the realized state
    config = settling_config(
        agents=2,
        states=3,
        tables=(
            bernoulli((0.5, 0.25, 0.5)),
            bernoulli((0.5, 0.25, 0.5)),
        ),
        replicas=1,
        rounds=10,
    )
    with pytest.raises(AssumptionViolation, match="A2"):
        run_experiment(config)


# one replica each, so a round is quiet or all-flagged for the whole call:
# quiet stretches of up to 156 rounds between single mixed rounds, 200
# all-flagged rounds at tau = 1, and over 20 switches among all three
REGIME_CASES = [
    pytest.param(reference_config(replicas=1, rounds=400), id="quiet-stretches"),
    pytest.param(reference_config(replicas=1, rounds=200, tau=1.0), id="tau1-all-flagged"),
    pytest.param(
        reference_config(agents=4, states=5, replicas=1, rounds=200, tau=1e-2),
        id="alternation",
    ),
]


# horizons that cross signal slab boundaries: 2, 4 and 3 slabs of 546,
# 54 and 327 rounds
SLAB_CASES = [
    pytest.param(
        reference_config(replicas=2, rounds=harness._SIGNAL_CHUNK + 37),
        id="reference-second-chunk",
    ),
    pytest.param(reference_config(replicas=20, rounds=200), id="reference-20-replicas"),
    pytest.param(
        dataclasses.replace(
            ExperimentConfig.from_json(CONFIG_DIR / "complete5_tables.json"),
            replicas=10, rounds=700,
        ),
        id="complete5-10-replicas",
    ),
]


@pytest.mark.parametrize("config", SLAB_CASES)
def test_engine_draws_signals_in_bounded_slabs(config, monkeypatch):
    # every draw but the last is a full slab of at most _SIGNAL_CELLS
    # indices, and the slabs concatenate to one draw of the whole horizon
    draws = []

    def recorded(*args, **kwargs):
        draws.append(generate_signals(*args, **kwargs))
        return draws[-1]

    monkeypatch.setattr(harness, "generate_signals", recorded)
    run_experiment(config)
    slab = harness._slab_rounds(config.replicas, config.agents)
    assert len(draws) == -(-(config.rounds + 1) // slab) >= 2
    for signals in draws:
        assert len(signals) <= min(slab, harness._SIGNAL_CHUNK)
        assert signals.size <= harness._SIGNAL_CELLS
    space, _, lik, _ = config.model
    whole = generate_signals(lik, space, config.seed, config.rounds + 1,
                             replica=range(config.replicas))
    assert np.array_equal(np.concatenate(draws), whole)


@pytest.mark.parametrize(
    "config",
    [
        pytest.param(reference_config(replicas=2, rounds=60), id="reference"),
        pytest.param(
            dataclasses.replace(
                ExperimentConfig.from_json(CONFIG_DIR / "complete5_tables.json"),
                tau=1.0, replicas=2, rounds=60,
            ),
            id="complete5-tau1",
        ),
        pytest.param(
            ExperimentConfig(
                agents=4, states=5,
                weight_matrix=EXPLICIT_WEIGHTS, tau=1.0, rounds=60, replicas=2,
            ),
            id="explicit4-tau1",
        ),
        *SLAB_CASES,
        pytest.param(
            settling_config(
                agents=4, states=3, topology_kind="ring", tau=0.05,
                tables=(
                    ((0.2, 0.5, 0.3), (0.3, 0.2, 0.3), (0.5, 0.3, 0.4)),
                    bernoulli((0.5, 0.25, 0.5)),
                    bernoulli((0.6, 0.6, 0.3)),
                    bernoulli((0.4, 0.5, 0.4)),
                ),
                rounds=60, replicas=2,
            ),
            id="unequal-alphabets",
        ),
        *REGIME_CASES,
    ],
)
def test_batched_engine_matches_reference_rounds(config):
    assert_engine_matches_reference(config)


def regime_runs(rec) -> list:
    """``(regime, length)`` runs of a record's rounds: "quiet" flags no agent,
    "all" flags every agent, "mixed" the rest."""
    u = rec.uninformative
    regime = np.where(~u.any(axis=1), "quiet", np.where(u.all(axis=1), "all", "mixed"))
    return [(k, len(list(g))) for k, g in itertools.groupby(regime.tolist())]


def test_regime_cases_force_their_regimes(monkeypatch):
    # the engine and the reference round skip the matrix build on quiet and
    # all-flagged rounds; these cases hold the rounds they skip to each other
    built, build = [], switching._mixing_matrices

    def counted(net, flagged):
        built.append(len(flagged))
        return build(net, flagged)

    monkeypatch.setattr(switching, "_mixing_matrices", counted)
    runs = {}
    for case in REGIME_CASES:
        config = case.values[0]
        built.clear()
        (rec,) = run_experiment(config)
        runs[case.id] = regime_runs(rec)
        mixed = sum(n for k, n in runs[case.id] if k == "mixed")
        assert len(built) == mixed
        built.clear()
        space, prior, lik, net = config.model
        sig = generate_signals(lik, space, config.seed, config.rounds + 1)
        state = initial_state(prior, lik, sig[0])
        for t in range(1, config.rounds + 1):
            state, _, _ = run_round(state, net, lik, config.tau, sig[t])
        assert len(built) == mixed
    assert max(n for k, n in runs["quiet-stretches"] if k == "quiet") >= 100
    assert sum(k == "quiet" for k, _ in runs["quiet-stretches"]) >= 5
    assert runs["tau1-all-flagged"] == [("all", 200)]
    alternation = runs["alternation"]
    assert {k for k, _ in alternation} == {"quiet", "all", "mixed"}
    assert len(alternation) >= 20


def assert_engine_matches_reference(config):
    # the vectorized replica engine must be bit-identical to the
    # one-round reference implementation: beliefs and tvs at the stored
    # rounds, masks at every round. Each tv lies in [0, 1], and the mask
    # flags exactly the tvs below tau. A streamed call hands over the
    # beliefs of those same rounds, and its records are, bit for bit, the
    # records of thin_every = rounds
    space, prior, lik, net = build_model(config)
    records = run_experiment(config)
    handed = {}

    def collect(replica, t, log_belief):
        assert not log_belief.flags.writeable
        assert log_belief.shape == (config.agents, config.states)
        handed[replica, t] = log_belief.copy()

    streamed = run_experiment(config, rows=collect)
    stride = config.thin_every or -(-config.rounds // 10_000)
    stored = sorted({*range(0, config.rounds, stride), config.rounds})
    slot = {t: k for k, t in enumerate(stored)}
    # dicts keep insertion order: every replica of a round, in replica order
    assert list(handed) == [(r, t) for t in stored for r in range(config.replicas)]
    thinned = run_experiment(config._derived(thin_every=config.rounds))
    for rec, want in zip(streamed, thinned, strict=True):
        assert rec.stored_rounds.tolist() == [0, config.rounds]
        for name in ("log_beliefs", "tv_series", "uninformative", "last_below"):
            got, expected = getattr(rec, name), getattr(want, name)
            assert got.shape == expected.shape and got.tobytes() == expected.tobytes(), name
    for r, rec in enumerate(records):
        assert rec.stored_rounds.tolist() == stored
        sig = generate_signals(lik, space, config.seed, config.rounds + 1, replica=r)
        state = initial_state(prior, lik, sig[0])
        assert np.array_equal(rec.log_beliefs[0], state.log_belief)
        assert handed[r, 0].tobytes() == state.log_belief.tobytes()
        for t in range(1, config.rounds + 1):
            state, q, tv = run_round(state, net, lik, config.tau, sig[t])
            if t in slot:
                assert np.array_equal(rec.log_beliefs[slot[t]], state.log_belief)
                assert np.array_equal(rec.tv_series[slot[t] - 1], tv)
                assert handed[r, t].tobytes() == state.log_belief.tobytes()
            assert np.all((tv >= 0.0) & (tv <= 1.0))
            assert np.array_equal(rec.uninformative[t - 1], tv < config.tau)


@settings(max_examples=60, deadline=None)
@given(engine_configs(), st.integers(1, 64))
def test_batched_engine_matches_reference_on_random_models(config, cells):
    # run_experiment refuses exactly the models validate_assumptions fails;
    # a small slab budget cuts the signal stream at arbitrary rounds
    space, _, lik, net = build_model(config)
    if validate_assumptions(lik, net, space).passed:
        with mock.patch.object(harness, "_SIGNAL_CELLS", cells):
            assert_engine_matches_reference(config)
    else:
        with pytest.raises(AssumptionViolation):
            run_experiment(config)


@settings(max_examples=40, deadline=None)
@given(engine_configs(), st.data())
def test_a_replica_range_matches_those_replicas_of_one_run(config, data):
    # streams are keyed by (seed, replica), so replicas r .. r + k - 1 run
    # on their own are records r .. r + k - 1 of one run over them all
    valid_model(config)
    whole = run_experiment(dataclasses.replace(config, replicas=data.draw(st.integers(1, 4))))
    first = data.draw(st.integers(0, len(whole) - 1))
    count = data.draw(st.integers(1, len(whole) - first))
    part = run_experiment(dataclasses.replace(config, replicas=count), first_replica=first)
    assert len(part) == count
    for got, want in zip(part, whole[first:first + count]):
        assert got.replica == want.replica
        for name in ("log_beliefs", "tv_series", "uninformative", "last_below"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name


# the largest relative gaps from the 60-digit oracle over two passes of
# 2,000 drawn examples were 6.2e-14 (TVs) and 9.4e-14 (beliefs)
ORACLE_RELATIVE = Decimal("1e-12")


@settings(max_examples=60, deadline=None)
@given(engine_configs())
def test_engine_follows_the_protocol_from_its_equations(config):
    """The engine against ``decimal_protocol``, which shares no rule of the round with it.

    Every verdict the oracle does not call fragile must be the engine's.
    TVs and beliefs at the stored rounds must agree within
    ``ORACLE_RELATIVE``: the engine keeps beliefs as float64 logs, whose
    rounding of a few ulps of their magnitude (up to about 10^2 after 40
    rounds of log-likelihoods and a 1e-8 prior) exponentiates into a
    relative error of the same size, about 1e-14; the bound is ten times
    the largest gap measured. A TV the oracle puts within 1e-57 of the
    engine's is also accepted: that is its own rounding at 60 digits, so
    an exact 0 where all likelihoods are equal still matches.
    """
    valid_model(config)
    tau = Decimal(config.tau)
    for rec in run_experiment(config):
        tvs, beliefs, fragile = decimal_protocol(config, rec.replica, rec.uninformative)
        if fragile:
            print(f"replica {rec.replica}: {len(fragile)} fragile verdicts at (t, agent) {fragile}")
        for t, row in enumerate(tvs, start=1):
            for i, tv in enumerate(row):
                if (t, i) not in fragile:
                    assert rec.uninformative[t - 1, i] == (tv < tau), (t, i)
        for k, t in enumerate(rec.stored_rounds.tolist()):
            for got, want in zip(rec.log_beliefs[k].ravel().tolist(),
                                 itertools.chain.from_iterable(beliefs[t])):
                assert abs(Decimal(got).exp() - want) <= ORACLE_RELATIVE * want, (t, got, want)
            if t:
                for got, want in zip(rec.tv_series[k - 1].tolist(), tvs[t - 1]):
                    slack = abs(Decimal(got) - want) - Decimal("1e-57")
                    assert slack <= ORACLE_RELATIVE * want, (t, got, want)


@pytest.mark.parametrize("first", [-1, 1.5, 2.0, "1", True, None])
def test_first_replica_must_be_a_nonnegative_integer(first):
    with pytest.raises(ValueError, match=r"^first_replica must be an integer in \[0, "):
        run_experiment(settling_config(replicas=1, rounds=2), first_replica=first)
    rec, = run_experiment(settling_config(replicas=1, rounds=2), first_replica=np.int64(3))
    assert rec.replica == 3


def test_a_replica_range_past_64_bits_is_refused_before_any_allocation():
    # used to allocate the history buffers, then fail inside
    # generate_signals on replica 2**64
    config = settling_config(replicas=2, rounds=200_000)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=rf"^first_replica must be an integer in "
                                             rf"\[0, {2**64 - 1}\), got {2**64 - 1}$"):
            run_experiment(config, first_replica=2**64 - 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    records = run_experiment(dataclasses.replace(config, rounds=2), first_replica=2**64 - 2)
    assert [rec.replica for rec in records] == [2**64 - 2, 2**64 - 1]


def test_switching_and_baseline_share_round_zero():
    config = settling_config(replicas=2, rounds=30)
    switching = run_experiment(config)
    baseline = run_experiment(dataclasses.replace(config, tau=1.0))
    for s, b in zip(switching, baseline):
        assert np.array_equal(s.log_beliefs[0], b.log_beliefs[0])


def test_thinning_keeps_stride_multiples_and_endpoints():
    config = settling_config(agents=2, states=2,
                             tables=(bernoulli((0.5, 0.25)), bernoulli((0.5, 0.3))),
                             rounds=10001, replicas=1)
    rec = run_experiment(config)[0]
    stored = np.asarray(rec.stored_rounds)
    assert stored[0] == 0
    assert stored[-1] == 10001
    assert np.all((stored[:-1] % 2) == 0)
    assert rec.log_beliefs.shape[0] == stored.size


def test_explicit_thinning_stride():
    config = settling_config(rounds=100, replicas=1)
    full = run_experiment(config)[0]
    for stride, stored in ((30, (0, 30, 60, 90, 100)), (150, (0, 100))):
        rec = run_experiment(dataclasses.replace(config, thin_every=stride))[0]
        assert tuple(rec.stored_rounds) == stored
        # each row is its own round's, the final one included
        assert np.array_equal(rec.log_beliefs, full.log_beliefs[list(stored)])
        assert np.array_equal(rec.tv_series, full.tv_series[np.array(stored[1:]) - 1])
        assert np.array_equal(rec.uninformative, full.uninformative)
    # a streamed record keeps the final round's TVs, as thin_every = rounds does
    streamed = run_experiment(config, rows=lambda *args: None)[0]
    assert np.array_equal(streamed.tv_series, full.tv_series[-1:])


def _engine_overhead_bytes(config):
    """Traced peak of ``run_experiment`` minus the bytes its records hold."""
    tracemalloc.start()
    try:
        records = run_experiment(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    held = records[0].stored_rounds.nbytes + sum(
        rec.log_beliefs.nbytes
        + rec.tv_series.nbytes
        + rec.uninformative.nbytes
        + rec.last_below.nbytes
        for rec in records
    )
    return peak - held


def test_engine_memory_does_not_grow_with_the_horizon():
    # Both horizons store 101 rounds and draw past two signal slabs, so
    # the working set beyond the returned history is the same: one
    # signal slab and its draws (~0.15 MiB here), the per-round
    # temporaries and the model. A copy of the history or a full-horizon
    # signal array would add ~0.26 MiB between the two runs.
    run_experiment(reference_config(agents=3, states=4, rounds=5))  # warm caches
    overhead = {}
    for rounds in (2100, 4200):
        config = reference_config(
            agents=3, states=4, replicas=2, rounds=rounds, thin_every=rounds // 100
        )
        overhead[rounds] = _engine_overhead_bytes(config)
    assert max(overhead.values()) < 256 * 1024
    assert overhead[4200] <= overhead[2100] + 16 * 1024


def test_engine_memory_does_not_grow_with_replicas_and_agents():
    # A slab holds at most _SIGNAL_CELLS signal indices, so the working
    # set beyond the returned history stays under one bound at any
    # replicas x agents: about 0.5 MiB at both sizes here. Slabs of 1,024
    # rounds took 5.3 MiB at 20 x 15 and 2.4 MiB at 2 x 63.
    run_experiment(reference_config(agents=3, states=4, rounds=5))  # warm caches
    for replicas, agents in ((20, 15), (2, 63)):
        config = reference_config(
            agents=agents, replicas=replicas, rounds=1100, thin_every=1100
        )
        assert _engine_overhead_bytes(config) < 1024 * 1024, (replicas, agents)


def test_streamed_record_grows_by_its_verdict_mask_alone():
    # A streamed record keeps beliefs at rounds 0 and rounds and one TV
    # row at any horizon, so its bytes grow by the bool verdicts alone:
    # n bytes a round. A dense float64 TV history would add 9 n.
    held = {}
    for rounds in (1000, 4000):
        config = reference_config(agents=31, states=4, replicas=1, rounds=rounds)
        (rec,) = run_experiment(config, 0, rows=lambda *args: None)
        held[rounds] = sum(getattr(rec, name).nbytes for name in (
            "stored_rounds", "log_beliefs", "tv_series", "uninformative", "last_below"))
    assert held[4000] - held[1000] == 31 * 3000
    # a stored record keeps one TV row per stored round after round 0
    config = reference_config(agents=31, states=4, replicas=1, rounds=1000, thin_every=2)
    (rec,) = run_experiment(config)
    assert rec.tv_series.shape == (500, 31)


def test_engine_records_are_read_only():
    for rec in run_experiment(settling_config(replicas=2, rounds=30)):
        for arr in (
            rec.stored_rounds,
            rec.log_beliefs,
            rec.tv_series,
            rec.uninformative,
            rec.last_below,
        ):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[...] = 0


# ---------------------------------------------------------- TrajectoryRecord


def hand_record_arrays() -> dict:
    """The arrays of a 3-agent, 2-state record of 2 rounds that stores rounds 0 and 2."""
    return dict(
        stored_rounds=np.array([0, 2]),
        log_beliefs=np.full((2, 3, 2), np.log(0.5)),
        tv_series=np.zeros((1, 3)),
        uninformative=np.zeros((2, 3), dtype=bool),
        last_below=np.full(3, -1),
    )


def hand_record(**arrays):
    net = metropolis_weights(ring_edges(3), 3)
    return harness.TrajectoryRecord(replica=0, network=net, **arrays)


def test_record_leaves_the_callers_arrays_writable():
    arrays = hand_record_arrays()
    rec = hand_record(**arrays)
    for name, arr in arrays.items():
        assert arr.flags.writeable
        assert not getattr(rec, name).flags.writeable
        assert np.shares_memory(getattr(rec, name), arr)


@pytest.mark.parametrize(
    "name, shape, what",
    [
        ("log_beliefs", (3, 3, 2), "(len(stored_rounds), n, m)"),
        ("log_beliefs", (2, 3), "(len(stored_rounds), n, m)"),
        # the dense layout of one TV row per round
        ("tv_series", (2, 3), "(len(stored_rounds) - 1, n)"),
        ("tv_series", (1, 2), "(len(stored_rounds) - 1, n)"),
        ("uninformative", (2, 4), "(rounds, n)"),
        ("uninformative", (6,), "(rounds, n)"),
        # one entry per agent, so consensus_round cannot outrun the record
        ("last_below", (2,), "(n,)"),
        ("last_below", (1, 3), "(n,)"),
    ],
)
def test_record_refuses_a_field_of_the_wrong_shape(name, shape, what):
    arrays = hand_record_arrays()
    arrays[name] = np.zeros(shape, dtype=arrays[name].dtype)
    message = f"{name} must be {what} with len(stored_rounds) = 2 and n = 3, got shape {shape}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        hand_record(**arrays)


def test_record_refuses_verdicts_that_are_not_booleans():
    # the ledger replays the verdicts as masks, which only booleans are
    arrays = hand_record_arrays()
    arrays["uninformative"] = np.zeros((2, 3))
    message = "uninformative must be booleans, got float64"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        hand_record(**arrays)


STORED_RULE = "stored_rounds must start at 0, strictly increase and end at rounds = "
LAST_BELOW_RULE = "last_below must lie in [-1, rounds] with rounds = 2, got "


@pytest.mark.parametrize(
    "fields, message",
    [
        # consensus_round would report round 10 of a 2-round record
        ({"last_below": [5, 7, 9]}, LAST_BELOW_RULE + "[5 7 9]"),
        ({"last_below": [3, -1, -1]}, LAST_BELOW_RULE + "[ 3 -1 -1]"),
        # a per-agent consensus round of -4
        ({"last_below": [-5, 0, 0]}, LAST_BELOW_RULE + "[-5  0  0]"),
        ({"stored_rounds": [2, 0]}, STORED_RULE + "2, got [2 0]"),
        ({"stored_rounds": [1, 2]}, STORED_RULE + "2, got [1 2]"),
        ({"stored_rounds": [0, 1]}, STORED_RULE + "2, got [0 1]"),
        # no rounds: [0, 0] starts at 0 and ends at rounds, but repeats a round
        ({"stored_rounds": [0, 0], "uninformative": np.zeros((0, 3), dtype=bool)},
         STORED_RULE + "0, got [0 0]"),
    ],
    ids=["last-below-past-the-end", "last-below-one-past", "last-below-under-minus-one",
         "stored-decreasing", "stored-after-0", "stored-before-rounds", "stored-repeated"],
)
def test_record_refuses_values_no_run_can_produce(fields, message):
    arrays = {**hand_record_arrays(), **{name: np.array(v) for name, v in fields.items()}}
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        hand_record(**arrays)


def test_most_replicas_learn_the_realized_state():
    # strong-signal config: every replica should settle all agents
    # above 1 - consensus_delta well before the horizon
    records = run_experiment(settling_config())
    settled = [rec for rec in records if rec.consensus_round is not None]
    assert len(settled) > 0.95 * len(records)
    for rec in settled:
        assert np.all(np.exp(rec.final_log_belief[:, 0]) > 1.0 - 1e-6)
        per_agent = rec.per_agent_consensus_rounds()
        assert all(r is not None for r in per_agent)
        assert rec.consensus_round == max(per_agent)


# ---------------------------------------------------------- compare_baseline


def test_comparison_with_threshold_one_is_self_identical():
    config = settling_config(replicas=2, rounds=40, tau=1.0)
    comparison = compare_baseline(config)
    for s, b in zip(comparison.switching, comparison.baseline):
        assert np.array_equal(s.log_beliefs, b.log_beliefs)
        assert s.ledger.events == b.ledger.events


def test_comparison_reports_savings():
    comparison = compare_baseline(reference_config(replicas=2))
    for s, b in zip(comparison.switching, comparison.baseline):
        assert len(s.ledger) < len(b.ledger)
    text = comparison.summary()
    assert "designated agent: 0" in text
    assert "baseline" in text


def test_comparison_designated_agent_override():
    config = settling_config(replicas=1, rounds=30)
    comparison = compare_baseline(dataclasses.replace(config, comparison_agent=3))
    assert comparison.config.comparison_agent == 3
    assert "designated agent: 3" in comparison.summary()
    with pytest.raises(ValueError, match="comparison_agent"):
        dataclasses.replace(config, comparison_agent=9)


def test_comparison_without_edges_has_none_to_avoid():
    # a lone agent has no neighbour, so neither arm ever exchanges
    config = ExperimentConfig.from_dict({"agents": 1, "states": 2, "rounds": 20})
    lines = compare_baseline(config).summary().splitlines()
    assert lines[-1] == "total exchanges: 0 vs 0 baseline (none to avoid)"


def test_summary_walks_each_ledger_once(monkeypatch):
    # one walk of a switching ledger gives both its exchange count and its
    # communication fractions; each walk applies _fired once per block
    comparison = compare_baseline(reference_config(replicas=2))
    fired, calls = switching._fired, []
    monkeypatch.setattr(switching, "_fired", lambda *args: calls.append(1) or fired(*args))
    walks = []
    for rec in comparison.switching + comparison.baseline:
        calls.clear()
        len(rec.ledger)
        walks.append(len(calls))
    assert min(walks) > 0
    calls.clear()
    comparison.summary()
    assert len(calls) == sum(walks)


def test_compare_baseline_stores_only_the_ends(tmp_path):
    # the summary reads only the final stored round, so both routes keep
    # rounds 0 and `rounds` of each record; with out_dir the config's
    # thinning decides what both arms export
    config = settling_config(replicas=2, rounds=30, thin_every=7)
    bare = compare_baseline(config)
    written = compare_baseline(config, tmp_path / "cmp")
    assert written.summary() == bare.summary()
    for rec in bare.switching + bare.baseline + written.switching + written.baseline:
        assert rec.stored_rounds.tolist() == [0, 30]
    for arm in ("switching", "baseline"):
        _, rows = beliefs_csv_rows(tmp_path / "cmp" / arm / "beliefs.csv")
        assert sorted({int(row[1]) for row in rows}) == [0, 7, 14, 21, 28, 30]


# -------------------------------------------------------------------- export


def test_export_round_trip(tmp_path):
    config = settling_config(replicas=2, rounds=12)
    records = run_experiment(config)
    export(config, tmp_path)
    comments, rows = beliefs_csv_rows(tmp_path / "beliefs.csv")
    assert comments == [f"# generator: {GENERATOR_NAME}\n", f"# seed: {config.seed}\n"]

    # every stored belief survives the 17-digit round trip
    by_key = {}
    for replica, t, agent, _, belief in rows:
        by_key.setdefault((int(replica), int(t), int(agent)), []).append(float(belief))
    for rec in records:
        belief = np.exp(rec.log_beliefs)
        for s, t in enumerate(rec.stored_rounds):
            for agent in range(config.agents):
                got = np.array(by_key[(rec.replica, int(t), agent)])
                assert np.allclose(got, belief[s, agent], atol=1e-15)
                assert abs(got.sum() - 1.0) <= 1e-12


def test_export_is_byte_deterministic(tmp_path):
    config = settling_config(replicas=2, rounds=25)
    for name in ("a", "b"):
        export(config, tmp_path / name)
    for fname in ("beliefs.csv", "comm.csv", "summary.txt"):
        assert (tmp_path / "a" / fname).read_bytes() == (
            tmp_path / "b" / fname
        ).read_bytes()


@pytest.mark.parametrize("config", EXPORT_CASES)
def test_export_matches_the_per_row_csv_writer(tmp_path, config):
    export(config, tmp_path)
    assert (tmp_path / "beliefs.csv").read_bytes() == oracle_beliefs_csv(
        run_experiment(config), config
    )
    _, rows = beliefs_csv_rows(tmp_path / "beliefs.csv")
    labels = [str(label) for label in build_model(config)[0].states]
    assert [row[3] for row in rows[: len(labels)]] == labels


def _export_peak_bytes(records, out_dir, config):
    """Traced peak of ``export`` replaying stored records, with the ledgers replayed beforehand.

    Export's engine call is replaced by one that sends a stored record's
    rounds to ``rows`` and returns it, as a streamed engine call would,
    so the peak is export's own working set.
    """
    for rec in records:
        rec.ledger

    def replay(one, replica, *, rows):
        rec = records[replica]
        for t, log_belief in zip(rec.stored_rounds, rec.log_beliefs):
            rows(rec.replica, int(t), log_belief)
        return [rec]

    with mock.patch.object(harness, "run_experiment", replay):
        tracemalloc.start()
        try:
            export(config, out_dir)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    return peak


def test_export_memory_does_not_grow_with_the_horizon(tmp_path):
    # Export converts and writes one stored round at a time, so its
    # working set is one round's rows, the model behind summary.txt and
    # the rate fit. Exponentiating a replica's whole history would add
    # ~1.9 MiB per 500 rounds here.
    config = reference_config(replicas=2, rounds=20)
    _export_peak_bytes(run_experiment(config), tmp_path / "warm", config)
    peak = {}
    for rounds in (500, 1000):
        config = reference_config(replicas=2, rounds=rounds)
        peak[rounds] = _export_peak_bytes(
            run_experiment(config), tmp_path / str(rounds), config
        )
    assert max(peak.values()) <= 512 * 1024
    assert peak[1000] <= peak[500] + 16 * 1024


def test_summary_rate_matches_analysis_to_the_digit(tmp_path):
    config = settling_config(replicas=1, rounds=40)
    export(config, tmp_path)
    space, _, lik, _ = build_model(config)
    expected = identifiability_report(lik, space).asymptotic_rate
    summary = (tmp_path / "summary.txt").read_text()
    assert f"theoretical asymptotic rate: {expected:.12g} nats/round" in summary


def test_comm_csv_matches_ledgers(tmp_path):
    config = reference_config(replicas=2, rounds=200)
    records = []
    export(config, tmp_path, records.append)
    lines = (tmp_path / "comm.csv").read_text().splitlines()
    assert lines[0] == "replica,t,agent_i,agent_j"
    expected = [
        f"{rec.replica},{t},{i},{j}"
        for rec in records
        for (t, i, j) in rec.ledger.events
    ]
    assert lines[1:] == expected


def test_export_line_endings_are_pinned(tmp_path):
    # every CSV row ends with \r\n; the two '#' lines of beliefs.csv end
    # with \n. Pinned output digests depend on this mix.
    config = settling_config(replicas=1, rounds=15, tau=1.0)
    export(config, tmp_path)
    beliefs = (tmp_path / "beliefs.csv").read_bytes()
    assert beliefs.startswith(
        b"# generator: philox4x64\n# seed: 21\n"
        b"replica,t,agent,state_label,belief\r\n"
    )
    assert beliefs.count(b"\n") == beliefs.count(b"\r\n") + 2
    comm = (tmp_path / "comm.csv").read_bytes()
    assert comm.startswith(b"replica,t,agent_i,agent_j\r\n")
    assert comm.count(b"\n") == comm.count(b"\r\n") > 1
    summary = (tmp_path / "summary.txt").read_bytes()
    assert summary.endswith(b"\n") and b"\r" not in summary


# --------------------------------------------------- config keys and imports


def test_config_rejects_unknown_keys(tmp_path, capsys):
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict({"agents": 3, "states": 4, "bogus": 1})
    # the weight, likelihood and prior kinds follow from the data fields
    # and are not config keys
    path = tmp_path / "config.json"
    for key, value in (
        ("weight_rule", "metropolis"),
        ("likelihood_kind", "tables"),
        ("prior_kind", "uniform"),
    ):
        data = json.loads((CONFIG_DIR / "complete5_tables.json").read_text())
        path.write_text(json.dumps({**data, key: value}))
        assert main(["validate", "--config", str(path)]) == 1
        assert capsys.readouterr().err == f"error: unknown config keys: {key}\n"

def test_run_and_compare_leave_numpy_random_unloaded(tmp_path):
    # the package draws Philox itself; importing numpy.random costs every
    # process several MB of memory
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps({"agents": 3, "states": 4, "rounds": 5, "replicas": 2}))
    script = (
        "import sys\n"
        "from soclearn.cli import main\n"
        f"assert main(['run', '--config', {str(config)!r}, '--out', {str(tmp_path / 'out')!r}]) == 0\n"
        f"assert main(['compare', '--config', {str(config)!r}]) == 0\n"
        "print('numpy.random' in sys.modules)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], env=package_env(), capture_output=True, text=True,
        check=True,
    )
    assert done.stdout.splitlines()[-1] == "False"

# --------------------------------------------------------------- subcommands


@pytest.mark.parametrize("config", EXPORT_CASES)
def test_cli_run_writes_what_export_writes_from_stored_records(tmp_path, capsys, config):
    # run streams each replica's rows and keeps only the rate fit's
    # column; the oracles read the records of one stored run
    path = write_config(tmp_path, config)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    records = run_experiment(config)
    assert (tmp_path / "out" / "beliefs.csv").read_bytes() == oracle_beliefs_csv(
        records, config
    )
    comm = (tmp_path / "out" / "comm.csv").read_text().splitlines()
    assert comm[1:] == [f"{rec.replica},{t},{i},{j}" for rec in records for t, i, j in rec.ledger]
    space, _, lik, _ = build_model(config)
    state = identifiability_report(lik, space).slowest_state
    window = (math.ceil(config.rounds / 2), config.rounds)
    summary = (tmp_path / "out" / "summary.txt").read_text().splitlines()[3:]
    for rec, line in zip(records, summary, strict=True):
        if config.rounds > 1:
            rate = estimate_rate(
                rec.stored_rounds, rec.log_beliefs[:, config.comparison_agent, state], window
            )
            assert f"estimated rate {rate:.6g} nats/round over rounds " in line
        else:
            assert "estimated rate not estimated (" in line


def _cli_peak_bytes(out, config, command="run"):
    """Traced peak of ``soclearn run`` (or ``compare``) on ``config``, writing under ``out``."""
    out.mkdir()
    path = write_config(out, config)
    tracemalloc.start()
    try:
        assert main([command, "--config", str(path), "--out", str(out / "out")]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_cli_run_memory_does_not_grow_with_the_replica_count(tmp_path, capsys):
    """``run`` builds, exports and releases one replica at a time.

    One replica's record here is its verdicts (1 byte per agent-round,
    3 KB for 600 rounds of 5 agents) plus its ledger and the record
    itself, about 6 KB in all, so a run that kept its records until
    export ended would peak about 90 KB higher at sixteen replicas than
    at one. The 64 KiB slack covers what differs between the two runs
    without being history: the open output files and the summary lines
    while later replicas run, numpy's and Python's free-list caches and
    tracemalloc's own bookkeeping, seen at about 12 KB.
    """
    config = reference_config(agents=5, states=6, rounds=600)
    _cli_peak_bytes(tmp_path / "warm", dataclasses.replace(config, rounds=2, replicas=1))
    one, sixteen = (
        _cli_peak_bytes(tmp_path / str(k), dataclasses.replace(config, replicas=k))
        for k in (1, 16)
    )
    assert sixteen <= one + 64 * 1024


def _ledger_bytes(config):
    """Traced bytes the replayed ledgers of ``config``'s replicas retain."""
    records = run_experiment(config)
    tracemalloc.start()
    try:
        for rec in records:
            rec.ledger
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def test_cli_run_memory_does_not_grow_with_the_horizon(tmp_path, capsys):
    """``run`` writes belief rows as the engine makes them.

    What a replica keeps that grows with the horizon is its verdicts
    (the uninformative mask, 1 byte per agent-round; its TVs are kept
    for the final round only) and its ledger. A run that stored the
    replica's beliefs would add 1,800 rounds of 5 x 6 doubles, about
    432 KB, between the two horizons. The 64 KiB slack covers the rate
    fit's column (16 bytes per round of the window's 900 extra rounds,
    about 14 KiB), the fit's copies of it and the free-list and
    bookkeeping noise of the replica-count test.
    """
    config = reference_config(agents=5, states=6, replicas=1)
    _cli_peak_bytes(tmp_path / "warm", dataclasses.replace(config, rounds=2))
    peak, ledger = {}, {}
    for rounds in (600, 2400):
        sized = dataclasses.replace(config, rounds=rounds)
        peak[rounds] = _cli_peak_bytes(tmp_path / str(rounds), sized)
        ledger[rounds] = _ledger_bytes(sized)
    verdicts = config.agents * (2400 - 600)
    assert peak[2400] <= peak[600] + verdicts + ledger[2400] - ledger[600] + 64 * 1024


def test_cli_compare_out_memory_does_not_grow_with_the_horizon(tmp_path, capsys):
    """``compare --out`` writes both arms' belief rows as the engine makes them.

    The summary reads every record of both arms, so what grows with the
    horizon is their verdicts (1 byte per agent-round) and ledgers; the
    tau = 1 arm's ledgers alone grow by about 32 KB here. Storing the
    belief histories, as ``compare --out`` once did, would add 1,800
    rounds of 5 x 6 doubles per replica and arm, about 864 KB, between
    the two horizons. The 64 KiB slack is the run horizon test's.
    """
    config = reference_config(agents=5, states=6, replicas=2)
    _cli_peak_bytes(tmp_path / "warm", dataclasses.replace(config, rounds=2), "compare")
    peak, ledger = {}, {}
    for rounds in (600, 2400):
        sized = dataclasses.replace(config, rounds=rounds)
        peak[rounds] = _cli_peak_bytes(tmp_path / str(rounds), sized, "compare")
        ledger[rounds] = _ledger_bytes(sized) + _ledger_bytes(sized._baseline)
    verdicts = config.agents * (2400 - 600) * config.replicas * 2
    assert peak[2400] <= peak[600] + verdicts + ledger[2400] - ledger[600] + 64 * 1024

def test_cli_run_writes_outputs(tmp_path):
    path = write_config(tmp_path, settling_config(replicas=1, rounds=15))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    for fname in ("beliefs.csv", "comm.csv", "summary.txt"):
        assert (out / fname).exists()

def test_cli_analyze_prints_report(tmp_path, capsys):
    path = write_config(tmp_path, settling_config(replicas=1, rounds=10))
    assert main(["analyze", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "rate" in out


def test_cli_compare_writes_comparison(tmp_path):
    path = write_config(tmp_path, settling_config(replicas=1, rounds=15))
    out = tmp_path / "cmp"
    assert main(["compare", "--config", str(path), "--out", str(out)]) == 0
    assert (out / "comparison.txt").exists()
    for arm in ("switching", "baseline"):
        for fname in ("beliefs.csv", "comm.csv", "summary.txt"):
            assert (out / arm / fname).exists()

def test_cli_run_builds_the_model_as_often_at_any_replica_count(tmp_path):
    # each one-replica engine call used to build and check the model again
    config = {**json.loads((CONFIG_DIR / "ring15.json").read_text()), "rounds": 30}
    builds = []
    for replicas in (1, 4):
        work = tmp_path / str(replicas)
        work.mkdir()
        result, _ = traced_job(work, "cli", {**config, "replicas": replicas},
                               ("run", "--out", str(work / "out")))
        spans = result["trace"]["by_name"]
        builds.append((spans["model.build"]["calls"], spans["model.validate"]["calls"]))
    assert builds == [(1, 1), (1, 1)]


def test_cli_compare_builds_one_model(tmp_path, monkeypatch, capsys):
    # compare --out used to build four models: two for the engines, two in
    # export; the tau = 1 arm and the one-replica configs share the first
    builds = []

    def counted(config):
        builds.append(config.tau)
        return build_model(config)

    monkeypatch.setattr(harness, "build_model", counted)
    config = dataclasses.replace(
        ExperimentConfig.from_json(CONFIG_DIR / "complete5_tables.json"),
        replicas=2, rounds=30,
    )
    path = write_config(tmp_path, config)
    for out in ([], ["--out", str(tmp_path / "cmp")]):
        builds.clear()
        assert main(["compare", "--config", str(path), *out]) == 0
        assert builds == [config.tau]


@pytest.mark.parametrize("name", ["ring15.json", "complete5_tables.json"])
def test_cli_compare_prints_the_same_with_or_without_out(tmp_path, capsys, name):
    config = dataclasses.replace(
        ExperimentConfig.from_json(CONFIG_DIR / name), replicas=2, rounds=120
    )
    path = write_config(tmp_path, config)
    assert main(["compare", "--config", str(path)]) == 0
    bare = capsys.readouterr().out
    out = tmp_path / "cmp"
    assert main(["compare", "--config", str(path), "--out", str(out)]) == 0
    exported = capsys.readouterr().out
    assert exported == bare + f"wrote comparison to {out}\n"
    assert (out / "comparison.txt").read_text() == bare

# ------------------------------------------------------------ pinned outputs


# Golden digests of the outputs the ledger feeds, on runs small enough
# for every test session. A change that means to alter these bytes
# re-pins them: run the test, copy the digest it reports, and say in
# CHANGES.md which output changed and why.
COMM_CSV_SHA256 = "919f86e792e80817e474bfe4bde0bff93a2fa6dda24c0305e1e913fe2d0dfa43"


COMPARE_STDOUT_SHA256 = "6e1ec610848e51dba4336d8750832c72779f5e735cf12d4cb3e10b50511fcda0"


COMPARE_TREE_SHA256 = "4f2d69c9e91b3e68e4fe6c46dd865bfb8362b30348af26a09d9595442a1fda3d"


def test_run_comm_csv_digest_is_pinned(tmp_path):
    config = dataclasses.replace(
        ExperimentConfig.from_json(CONFIG_DIR / "ring15.json"), replicas=2, rounds=200
    )
    path = write_config(tmp_path, config)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    comm = (tmp_path / "out" / "comm.csv").read_bytes()
    assert comm.count(b"\n") > 1
    assert hashlib.sha256(comm).hexdigest() == COMM_CSV_SHA256


def test_compare_stdout_digest_is_pinned(tmp_path, capsys):
    config = dataclasses.replace(
        ExperimentConfig.from_json(CONFIG_DIR / "complete5_tables.json"),
        replicas=2, rounds=100,
    )
    path = write_config(tmp_path, config)
    assert main(["compare", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "vs 2000 baseline" in out
    assert hashlib.sha256(out.encode()).hexdigest() == COMPARE_STDOUT_SHA256


def test_compare_out_tree_digest_is_pinned(tmp_path, capsys):
    config = dataclasses.replace(
        ExperimentConfig.from_json(CONFIG_DIR / "complete5_tables.json"),
        replicas=2, rounds=100,
    )
    path = write_config(tmp_path, config)
    out = tmp_path / "cmp"
    assert main(["compare", "--config", str(path), "--out", str(out)]) == 0
    # comparison.txt and both arms' beliefs.csv, comm.csv and summary.txt
    tree = ["comparison.txt"] + [
        f"{arm}/{name}"
        for arm in ("switching", "baseline")
        for name in ("beliefs.csv", "comm.csv", "summary.txt")
    ]
    digest = hashlib.sha256()
    for rel in tree:
        digest.update(rel.encode() + b"\0" + hashlib.sha256((out / rel).read_bytes()).digest())
    assert digest.hexdigest() == COMPARE_TREE_SHA256


def compare_out_in_subprocess(config_path, out, **env) -> str:
    """``soclearn compare --out`` in a fresh interpreter; its stdout, ``out`` masked."""
    done = subprocess.run(
        [sys.executable, "-m", "soclearn.cli", "compare", "--config", str(config_path),
         "--out", str(out)],
        env={**package_env(), **env}, capture_output=True, text=True, check=True,
    )
    return done.stdout.replace(str(out), "OUT")


def belief_values(path) -> tuple:
    """``(row keys, beliefs)`` of a ``beliefs.csv``: its text before the last
    cell of each row, and that cell as floats."""
    keys, values = zip(*(line.rsplit(",", 1) for line in path.read_text().splitlines()
                         if line[:1].isdigit()))
    return keys, np.array(values, dtype=float)


def test_compare_out_is_portable_across_blas_kernels(tmp_path):
    """Everything but the last bits of ``beliefs.csv`` is the same whether
    the BLAS mixes with FMA (as the host computes) or without
    (``OPENBLAS_CORETYPE=Sandybridge``).

    The beliefs may differ by rounding alone. Each mixed potential is a
    dot product of n terms, so the two kernels round it apart by at most
    n eps |phi| (a row of weights sums to 1), and |phi| <= t L after t
    rounds, L the model's log bound. Mixing is an average and does not
    amplify earlier differences, so after T rounds the potentials differ
    by at most n eps L T^2 / 2; a log belief, a potential less the
    logsumexp of its row, by twice that; and a belief, relatively, by
    as much as its log belief. Here n = 5, L = ln 5 and T = 300, so
    n eps L T^2 = 1.6e-10. The bound allows 1e-9 for the roundings this
    count leaves out. On this config 4.3e-13 was measured, the same
    order as 5.7e-13 on the full-size configs. A host without OpenBLAS
    ignores the setting, and the two runs agree exactly.
    """
    config = dataclasses.replace(
        ExperimentConfig.from_json(CONFIG_DIR / "complete5_tables.json"),
        replicas=2, rounds=300,
    )
    path = write_config(tmp_path, config)
    host, plain = tmp_path / "host", tmp_path / "plain"
    assert compare_out_in_subprocess(path, host) == compare_out_in_subprocess(
        path, plain, OPENBLAS_CORETYPE="Sandybridge")
    same = ["comparison.txt"] + [f"{arm}/{name}" for arm in ("switching", "baseline")
                                 for name in ("comm.csv", "summary.txt")]
    for rel in same:
        assert (host / rel).read_bytes() == (plain / rel).read_bytes(), rel
    for arm in ("switching", "baseline"):
        keys, want = belief_values(host / arm / "beliefs.csv")
        got_keys, got = belief_values(plain / arm / "beliefs.csv")
        assert keys == got_keys
        assert len(keys) == 2 * 301 * 5 * 4
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=0.0)


# analyze and validate on the bundled configs as shipped: their stdout,
# and the two CSVs of `analyze --out`
REPORT_SHA256 = {
    "ring15.json": {
        "analyze": "a17268cb55ab0b3edbc5cd6106d718a5b1154bdfefd006f2c10bf11273ffab18",
        "validate": "ce4b8b18bb993d925b5d92c37a4c9f5854b5f20494c9f0c58824629113af29f3",
        "kl.csv": "9b5c91b649424c0823b54eff2cee5a9f216925e3dfff82c5746b4546fb730f6e",
        "divergence.csv": "ece86d90c2f583845a629299aca33ef371063d643ced0dd72bff8497a8ce697d",
    },
    "complete5_tables.json": {
        "analyze": "b01987945a1b40bb2c847a183a0e5a64b0523b62d4d24bad8e18ff2a59c3ef25",
        "validate": "bd789096678e06e6b558752f2133fbb2aa6b93a90ddf3647915cb5afb253e1be",
        "kl.csv": "cb11993ae108426ced57607312ac0202fbadbe6bdfc717fcf8ac444fdc11f13b",
        "divergence.csv": "b61d25d70847c6a43eff96ae12f5cca4cf02ec78a39b17c32db850ddca107c70",
    },
}


@pytest.mark.parametrize("name", sorted(REPORT_SHA256))
def test_report_output_digests_are_pinned(tmp_path, capsys, name):
    path = str(CONFIG_DIR / name)
    got = {}
    for command in ("analyze", "validate"):
        assert main([command, "--config", path]) == 0
        got[command] = capsys.readouterr().out.encode()
    assert main(["analyze", "--config", path, "--out", str(tmp_path)]) == 0
    for csv_name in ("kl.csv", "divergence.csv"):
        got[csv_name] = (tmp_path / csv_name).read_bytes()
    digests = {key: hashlib.sha256(data).hexdigest() for key, data in got.items()}
    assert digests == REPORT_SHA256[name]


def oracle_report_csvs(report) -> dict:
    """kl.csv and divergence.csv as one ``csv.writer`` row per line writes them."""
    files = {}
    for name, rows in (
        ("kl.csv", [["agent"] + [f"kl_to_{label}_nats" for label in report.state_labels]]
         + [[i] + [format(v, ".17g") for v in row] for i, row in enumerate(report.kl)]),
        ("divergence.csv", [["state_label", "network_divergence_nats"]]
         + [[label, format(v, ".17g")]
            for label, v in zip(report.state_labels, report.network_divergence)]),
    ):
        buf = io.StringIO(newline="")
        csv.writer(buf).writerows(rows)
        files[name] = buf.getvalue().encode()
    return files


def test_cli_analyze_out_quotes_labels_as_the_csv_module_does(tmp_path, capsys):
    config = reference_config(agents=len(AWKWARD_LABELS) - 1, states=len(AWKWARD_LABELS),
                              state_labels=AWKWARD_LABELS)
    path = write_config(tmp_path, config)
    assert main(["analyze", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    space, _, lik, _ = build_model(ExperimentConfig.from_json(path))
    for name, want in oracle_report_csvs(identifiability_report(lik, space)).items():
        assert (tmp_path / "out" / name).read_bytes() == want, name

# ------------------------------------------------------------------ refusals


def test_cli_refuses_an_overflowing_prior_in_one_line(tmp_path):
    # with warnings as errors, numpy's overflow warning would end in a traceback
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps({"agents": 3, "states": 4, "rounds": 5,
                                  "prior_mass": [1e308] * 4}))
    done = subprocess.run(
        [sys.executable, "-W", "error", "-m", "soclearn.cli", "validate", "--config", str(config)],
        env=package_env(), capture_output=True, text=True,
    )
    assert (done.returncode, done.stderr) == (1, "error: prior mass sums to inf, not 1\n")


def test_cli_names_the_range_of_an_agent_override(tmp_path, capsys):
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps({"agents": 3, "states": 4, "rounds": 5, "replicas": 2}))
    assert main(["compare", "--config", str(config), "--agent", "9"]) == 1
    assert capsys.readouterr().err == "error: comparison_agent must be an integer in [0, 3), got 9\n"


def test_cli_rejects_invalid_config_file(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"agents": 3, "states": 4, "rounds": 0}))
    assert main(["validate", "--config", str(path)]) == 1
    assert "error" in capsys.readouterr().err.lower()


ASSUMPTION_FAILURES = [
    pytest.param(
        reference_config(
            agents=4, states=5, topology_kind="edges",
            topology_edges=((0, 1), (2, 3)), replicas=1, rounds=10,
        ),
        "A3 connected network: FAIL (unreachable agents: [2, 3])",
        id="disconnected-edges",
    ),
    pytest.param(
        settling_config(
            tables=(bernoulli((0.20, 0.0, 0.70, 0.35)),)
            + settling_config().tables[1:],
            replicas=1, rounds=10,
        ),
        "A1 bounded likelihoods: FAIL (log bound inf)",
        id="zero-table-entry",
    ),
    pytest.param(
        reference_config(agents=3, states=4, p_eq=0.3, p_diff=0.3, replicas=1),
        "A2 global identifiability: FAIL (states not identified: [1, 2, 3])",
        id="equal-bernoulli-parameters",
    ),
]


@pytest.mark.parametrize("config, fail_line", ASSUMPTION_FAILURES)
def test_cli_reports_each_assumption_failure(tmp_path, capsys, config, fail_line):
    path = write_config(tmp_path, config)
    assert main(["validate", "--config", str(path)]) == 2
    assert fail_line in capsys.readouterr().out.splitlines()
    for command in (["run", "--out", str(tmp_path / "out")], ["compare"]):
        assert main(command + ["--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith("assumption violation:")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "data, field",
    [
        ({"agents": 2, "states": 3, "tables": [[[0.4, 0.5], [0.6, 0.5]]] * 2}, "tables[0]"),
        ({"agents": 3, "states": 2, "tables": [[[0.4, 0.5], [0.6, 0.5]]] * 2}, "tables"),
        ({"agents": 3, "states": 2, "weight_matrix": [[0.5, 0.5], [0.5, 0.5]]},
         "weight_matrix"),
    ],
    ids=["table-rows-vs-states", "tables-vs-agents", "weight-matrix-vs-agents"],
)
def test_cli_analyze_rejects_a_config_run_rejects(tmp_path, capsys, data, field):
    # analyze reads the same config as run, so it fails as early and as clearly
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    assert main(["analyze", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {field} ")


def test_cli_analyze_accepts_zero_table_entries(tmp_path, capsys):
    # state 1 gives no mass to a symbol the realized state emits
    path = write_config(tmp_path, ASSUMPTION_FAILURES[1].values[0])
    assert main(["analyze", "--config", str(path)]) == 0
    assert "  'state_1': -inf" in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize(
    "overrides, field",
    [
        ({"state_labels": 5}, "state_labels"),
        ({"topology_kind": "edges", "topology_edges": 5}, "topology_edges"),
        ({"topology_kind": "edges", "topology_edges": [1, 2]}, "topology_edges"),
        ({"topology_kind": "edges", "topology_edges": [[0, 1, 2]]}, "topology_edges"),
        ({"tables": 5}, "tables"),
        ({"tables": [[0.5, 0.5]]}, "tables"),
        ({"alphabets": 5}, "alphabets"),
        ({"weight_matrix": [1.0]}, "weight_matrix"),
        ({"prior_mass": "uniform"}, "prior_mass"),
        ({"agents": "15"}, "agents"),
        ({"tau": "x"}, "tau"),
        ({"rounds": 10.5}, "rounds"),
        ({"replicas": 1.5}, "replicas"),
        ({"thin_every": 2.0}, "thin_every"),
        ({"seed": True}, "seed"),
    ],
)
def test_cli_rejects_mistyped_config_fields(tmp_path, capsys, overrides, field):
    data = json.loads((CONFIG_DIR / "complete5_tables.json").read_text())
    data.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    assert main(["validate", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err


@pytest.mark.parametrize(
    "overrides, field",
    [
        ({}, "topology_kind"),
        ({"topology_kind": "edges", "topology_edges": [[0, 1]]}, "topology_kind"),
        ({"topology_kind": "ring", "topology_edges": [[0, 1]]}, "topology_edges"),
    ],
    ids=["complete", "edges", "ring-with-edges"],
)
def test_cli_rejects_a_topology_next_to_weight_matrix(
    tmp_path, capsys, overrides, field
):
    # complete5_tables.json sets topology_kind 'complete'
    data = json.loads((CONFIG_DIR / "complete5_tables.json").read_text())
    data.update(weight_matrix=[[0.2] * 5] * 5, **overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    assert main(["validate", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: weight_matrix ") and field in err


@pytest.mark.parametrize(
    "overrides, message",
    [
        (
            {"weight_matrix": [[1.0], [0.5, 0.5]]},
            "weight_matrix row 1 has 2 entries, row 0 has 1",
        ),
        (
            {"tables": [[[0.5, 0.5, 0.5, 0.5], [0.5, 0.5, 0.5]]] * 5},
            "tables[0] row 1 has 3 entries, row 0 has 4",
        ),
    ],
    ids=["weight-matrix", "table"],
)
def test_cli_names_the_ragged_row(tmp_path, capsys, overrides, message):
    data = json.loads((CONFIG_DIR / "complete5_tables.json").read_text())
    data.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    assert main(["validate", "--config", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "data, message",
    [([1, 2], "JSON object"), ({"agents": 3}, "missing config keys: states")],
    ids=["not-an-object", "missing-key"],
)
def test_cli_rejects_malformed_config_document(tmp_path, capsys, data, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    assert main(["validate", "--config", str(path)]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "path", sorted(CONFIG_DIR.glob("*.json")), ids=lambda p: p.name
)
def test_bundled_configs_are_complete_templates(path):
    # every field written out, in a form that round-trips unchanged, and
    # the README's fields table names exactly the fields, in order
    assert main(["validate", "--config", str(path)]) == 0
    data = json.loads(path.read_text())
    assert data == ExperimentConfig.from_dict(data).to_dict()
    readme = (CONFIG_DIR.parent / "README.md").read_text()
    table = readme.split("Fields and defaults:", 1)[1].split("\n\n")[1]
    documented = [line.split("`")[1] for line in table.splitlines()[2:]]
    assert documented == [f.name for f in dataclasses.fields(ExperimentConfig)]
