"""Experiment orchestration: config, signals, round loop, export, CLI."""

import dataclasses
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soclearn.analysis import identifiability_report
from soclearn import harness
from soclearn.cli import main
from soclearn.harness import (
    GENERATOR_NAME,
    ExperimentConfig,
    build_model,
    compare_baseline,
    distinguished_state,
    export,
    generate_signals,
    initial_state,
    read_beliefs_csv,
    reference_config,
    run_experiment,
    run_round,
)
from soclearn.learning import bayes_update, initial_belief
from soclearn.model import AssumptionViolation, LikelihoodModel, Network, \
    metropolis_weights


def bernoulli(p1s):
    return (tuple(1.0 - p for p in p1s), tuple(p1s))


CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

# symmetric and doubly stochastic, but three diagonal entries are not
# what a row fill gives: 1 - (0.1 + 0.2 + 0.3) == 0.3999999999999999
EXPLICIT_WEIGHTS = (
    (0.4, 0.1, 0.2, 0.3),
    (0.1, 0.5, 0.3, 0.1),
    (0.2, 0.3, 0.3, 0.2),
    (0.3, 0.1, 0.2, 0.4),
)


def settling_config(**overrides):
    # five agents on a complete graph, every state distinguishable by
    # several of them; strong signals settle all agents well inside the
    # horizon
    base = dict(
        agents=5,
        states=4,
        true_state=0,
        topology_kind="complete",
        likelihood_kind="tables",
        tables=(
            bernoulli((0.20, 0.50, 0.70, 0.35)),
            bernoulli((0.60, 0.30, 0.45, 0.80)),
            bernoulli((0.35, 0.65, 0.25, 0.50)),
            bernoulli((0.75, 0.40, 0.60, 0.30)),
            bernoulli((0.50, 0.70, 0.30, 0.55)),
        ),
        tau=1e-8,
        rounds=700,
        seed=21,
        replicas=20,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


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


def test_config_rejects_bad_consensus_delta():
    with pytest.raises(ValueError):
        reference_config(consensus_delta=0.0)
    with pytest.raises(ValueError):
        reference_config(consensus_delta=1.0)


def test_config_rejects_equal_bernoulli_parameters():
    with pytest.raises(ValueError):
        reference_config(p_eq=0.3, p_diff=0.3)


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict({"agents": 3, "states": 4, "bogus": 1})


def test_config_requires_tables_only_with_table_kind():
    with pytest.raises(ValueError):
        reference_config(tables=(bernoulli((0.5, 0.25)),))
    with pytest.raises(ValueError):
        reference_config(likelihood_kind="tables")


def test_config_dict_round_trip():
    config = settling_config()
    again = ExperimentConfig.from_dict(config.to_dict())
    assert again == config


def test_config_json_round_trip(tmp_path):
    config = reference_config(rounds=50, replicas=2)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config.to_dict()))
    assert ExperimentConfig.from_json(path) == config


def test_distinguished_state_cycles_over_false_states():
    assert [distinguished_state(i, 16) for i in range(15)] == list(range(1, 16))
    assert distinguished_state(15, 16) == 1


# ------------------------------------------------------------------- signals


def test_signal_generation_is_deterministic():
    config = reference_config()
    space, _, lik, _ = build_model(config)
    a = generate_signals(lik, space, seed=5, rounds=100, replica=3)
    b = generate_signals(lik, space, seed=5, rounds=100, replica=3)
    assert np.array_equal(a, b)


def test_replicas_get_distinct_streams():
    config = reference_config()
    space, _, lik, _ = build_model(config)
    a = generate_signals(lik, space, seed=5, rounds=100, replica=0)
    b = generate_signals(lik, space, seed=5, rounds=100, replica=1)
    assert not np.array_equal(a, b)


def test_signal_frequencies_match_the_conditional_law():
    # empirical symbol-1 rates against their binomial three-sigma bands
    config = reference_config(agents=3, states=4)
    space, _, lik, _ = build_model(config)
    rounds = 100_000
    sig = generate_signals(lik, space, seed=11, rounds=rounds, replica=0)
    assert sig.shape == (rounds, 3)
    for i in range(3):
        p = lik.signal_distribution(i, space.true_state_index)[1]
        got = sig[:, i].mean()
        band = 3.0 * math.sqrt(p * (1.0 - p) / rounds)
        assert abs(got - p) <= band


@pytest.mark.parametrize("agents", [15, 4])
def test_signal_slices_concatenate_to_one_draw(agents):
    # with 15 agents, starts 7 and 22 leave 1 and 2 doubles of a
    # partly used Philox block; with 4 agents every start is block-aligned
    config = reference_config(agents=agents, states=5)
    space, _, lik, _ = build_model(config)
    rounds, a, b = 40, 7, 22
    whole = generate_signals(lik, space, seed=5, rounds=rounds, replica=2)
    parts = [
        generate_signals(lik, space, seed=5, rounds=hi - lo, replica=2, start=lo)
        for lo, hi in ((0, a), (a, b), (b, rounds))
    ]
    assert np.array_equal(np.concatenate(parts), whole)


def test_signal_start_must_be_nonnegative():
    config = reference_config()
    space, _, lik, _ = build_model(config)
    with pytest.raises(ValueError, match="start"):
        generate_signals(lik, space, seed=5, rounds=10, start=-1)


def test_signals_are_valid_alphabet_indices():
    config = settling_config()
    space, _, lik, _ = build_model(config)
    sig = generate_signals(lik, space, seed=2, rounds=500)
    assert sig.min() >= 0
    assert sig.max() <= 1


# ----------------------------------------------------------------- run_round


def test_round_with_informative_agents_is_pure_bayes():
    # a threshold this small never trips, so every agent stays Bayesian
    config = settling_config(replicas=1)
    space, prior, lik, net = build_model(config)
    sig = generate_signals(lik, space, config.seed, rounds=4)
    state = initial_state(prior, lik, space, sig[0])
    expected = state.log_belief.copy()
    for t in (1, 2, 3):
        state, q, verdicts = run_round(state, net, lik, space, 1e-300, sig[t])
        assert np.array_equal(q.q, np.eye(config.agents))
        assert all(v.informative for v in verdicts)
        expected = np.stack(
            [
                bayes_update(expected[i], lik, i, int(sig[t, i]))
                for i in range(config.agents)
            ]
        )
        assert np.allclose(state.log_belief, expected, atol=1e-12)


def test_round_with_threshold_one_always_mixes():
    config = settling_config(replicas=1)
    space, prior, lik, net = build_model(config)
    sig = generate_signals(lik, space, config.seed, rounds=4)
    state = initial_state(prior, lik, space, sig[0])
    for t in (1, 2, 3):
        state, q, verdicts = run_round(state, net, lik, space, 1.0, sig[t])
        assert np.array_equal(q.q, net.weights)
        assert not any(v.informative for v in verdicts)


def test_single_agent_ignores_the_threshold():
    # no neighbors means no exchanges regardless of the verdict
    config = ExperimentConfig(agents=1, states=2, rounds=5, seed=1, replicas=1)
    space, prior, lik, net = build_model(config)
    sig = generate_signals(lik, space, config.seed, rounds=6)
    for tau in (1e-300, 0.5, 1.0):
        state = initial_state(prior, lik, space, sig[0])
        solo = initial_belief(prior, lik, 0, int(sig[0, 0]))
        for t in range(1, 6):
            state, q, _ = run_round(state, net, lik, space, tau, sig[t])
            solo = bayes_update(solo, lik, 0, int(sig[t, 0]))
            assert np.array_equal(q.q, np.array([[1.0]]))
            assert np.allclose(state.log_belief[0], solo, atol=1e-12)


def test_round_validates_threshold_and_shapes():
    config = settling_config(replicas=1)
    space, prior, lik, net = build_model(config)
    sig = generate_signals(lik, space, config.seed, rounds=2)
    state = initial_state(prior, lik, space, sig[0])
    with pytest.raises(ValueError):
        run_round(state, net, lik, space, 0.0, sig[1])
    with pytest.raises(ValueError):
        run_round(state, net, lik, space, 0.5, sig[1][:3])


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
                agents=4, states=5, weight_rule="explicit",
                weight_matrix=EXPLICIT_WEIGHTS, tau=1.0, rounds=60, replicas=2,
            ),
            id="explicit4-tau1",
        ),
        pytest.param(
            reference_config(replicas=2, rounds=harness._SIGNAL_CHUNK + 37),
            id="reference-second-chunk",
        ),
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
    ],
)
def test_batched_engine_matches_reference_rounds(config):
    # the vectorized replica engine must be bit-identical to the
    # one-round reference implementation
    space, prior, lik, net = build_model(config)
    records = run_experiment(config)
    for r, rec in enumerate(records):
        sig = generate_signals(lik, space, config.seed, config.rounds + 1, replica=r)
        state = initial_state(prior, lik, space, sig[0])
        assert np.array_equal(rec.log_beliefs[0], state.log_belief)
        for t in range(1, config.rounds + 1):
            state, q, verdicts = run_round(
                state, net, lik, space, config.tau, sig[t]
            )
            assert np.array_equal(rec.log_beliefs[t], state.log_belief)
            flagged = {v.agent for v in verdicts if not v.informative}
            assert set(np.nonzero(rec.uninformative[t - 1])[0]) == flagged


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
    config = settling_config(rounds=100, replicas=1, thin_every=30)
    rec = run_experiment(config)[0]
    assert tuple(rec.stored_rounds) == (0, 30, 60, 90, 100)


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
    # Both horizons store 101 rounds and draw past two signal chunks, so
    # the working set beyond the returned history is the same: one
    # signal chunk and its draws (~0.15 MiB here), the per-round
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


def test_most_replicas_learn_the_realized_state():
    # strong-signal config: every replica should settle all agents
    # above 1 - consensus_delta well before the horizon
    records = run_experiment(settling_config())
    settled = [rec for rec in records if rec.consensus_round is not None]
    assert len(settled) > 0.95 * len(records)
    for rec in settled:
        assert np.all(rec.final_belief[:, 0] > 1.0 - 1e-6)
        per_agent = rec.per_agent_consensus_rounds()
        assert all(r is not None for r in per_agent)
        assert rec.consensus_round == max(per_agent)


def test_communication_stays_sparse_under_switching():
    config = reference_config(replicas=4)
    records = run_experiment(config)
    baseline = run_experiment(dataclasses.replace(config, tau=1.0))
    sw_events = sum(len(rec.ledger.events) for rec in records)
    base_events = sum(len(rec.ledger.events) for rec in baseline)
    assert sw_events < base_events
    fractions = np.concatenate([rec.communication_fractions() for rec in records])
    assert fractions.mean() < 0.2


def test_fraction_definitions_agree():
    # the trajectory's fraction (uninformative or uninformative
    # neighbor) must equal the ledger replay
    records = run_experiment(reference_config(replicas=2))
    for rec in records:
        assert np.array_equal(
            rec.communication_fractions(),
            rec.ledger.communication_fraction(),
        )


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
    return Network.from_weights(w)


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
    n = net.n
    rec = harness.TrajectoryRecord(
        replica=0,
        seed=0,
        tau=0.5,
        rounds=len(u),
        true_state_index=0,
        state_labels=("a",),
        consensus_delta=1e-6,
        stored_rounds=np.array([0]),
        log_beliefs=np.zeros((1, n, 1)),
        tv_series=np.zeros(u.shape),
        uninformative=u,
        last_below=np.full(n, -1),
        network=net,
    )
    fired = np.triu((u[:, :, None] | u[:, None, :]) & net.adjacency, k=1)
    expect = [(int(t) + 1, int(i), int(j)) for t, i, j in zip(*np.nonzero(fired))]
    ledger = rec.ledger
    assert ledger.events == expect
    assert len(ledger) == len(ledger.events)
    assert ledger.rounds_recorded == len(u)
    assert np.array_equal(
        ledger.per_agent_rounds / ledger.rounds_recorded,
        rec.communication_fractions(),
    )


def test_ledger_keeps_at_most_32_bytes_per_exchange():
    # tau = 1 on a complete graph fires every edge in every round, so the
    # ledger dominates what the replay retains; one Python tuple per
    # exchange kept ~75 bytes each, packed int64 triples keep ~26
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
    assert retained <= 32 * events


# ---------------------------------------------------------- compare_baseline


def test_comparison_with_threshold_one_is_self_identical():
    config = settling_config(replicas=2, rounds=40, tau=1.0)
    comparison = compare_baseline(config)
    for s, b in zip(comparison.switching, comparison.baseline):
        assert np.array_equal(s.log_beliefs, b.log_beliefs)
        assert s.ledger.events == b.ledger.events


def test_comparison_reports_savings():
    comparison = compare_baseline(reference_config(replicas=2))
    assert np.all(comparison.switching_event_counts() < comparison.baseline_event_counts())
    text = comparison.summary()
    assert "designated agent: 0" in text
    assert "baseline" in text


def test_comparison_designated_agent_override():
    comparison = compare_baseline(settling_config(replicas=1, rounds=30), agent=3)
    assert comparison.agent == 3
    with pytest.raises(ValueError):
        compare_baseline(settling_config(replicas=1, rounds=30), agent=9)


def test_comparison_write(tmp_path):
    comparison = compare_baseline(settling_config(replicas=1, rounds=30))
    comparison.write(tmp_path)
    assert (tmp_path / "comparison.txt").exists()
    assert (tmp_path / "switching" / "beliefs.csv").exists()
    assert (tmp_path / "baseline" / "beliefs.csv").exists()


# -------------------------------------------------------------------- export


def test_export_round_trip(tmp_path):
    config = settling_config(replicas=2, rounds=12)
    records = run_experiment(config)
    export(records, tmp_path, config)
    meta, rows = read_beliefs_csv(tmp_path / "beliefs.csv")
    assert meta["generator"] == GENERATOR_NAME
    assert meta["seed"] == str(config.seed)

    # every stored belief survives the 17-digit round trip
    by_key = {}
    for row in rows:
        key = (row["replica"], row["t"], row["agent"])
        by_key.setdefault(key, []).append(row["belief"])
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
        export(run_experiment(config), tmp_path / name, config)
    for fname in ("beliefs.csv", "comm.csv", "summary.txt"):
        assert (tmp_path / "a" / fname).read_bytes() == (
            tmp_path / "b" / fname
        ).read_bytes()


def test_summary_rate_matches_analysis_to_the_digit(tmp_path):
    config = settling_config(replicas=1, rounds=40)
    records = run_experiment(config)
    export(records, tmp_path, config)
    space, _, lik, _ = build_model(config)
    expected = identifiability_report(lik, space).asymptotic_rate
    summary = (tmp_path / "summary.txt").read_text()
    assert f"theoretical asymptotic rate: {expected:.12g} nats/round" in summary


def test_comm_csv_matches_ledgers(tmp_path):
    config = reference_config(replicas=2, rounds=200)
    records = run_experiment(config)
    export(records, tmp_path, config)
    lines = (tmp_path / "comm.csv").read_text().splitlines()
    assert lines[0] == "replica,t,agent_i,agent_j"
    expected = [
        f"{rec.replica},{t},{i},{j}"
        for rec in records
        for (t, i, j) in rec.ledger.events
    ]
    assert lines[1:] == expected


# ----------------------------------------------------------------------- CLI


def write_config(tmp_path, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config.to_dict()))
    return path


def test_cli_validate_ok(tmp_path, capsys):
    path = write_config(tmp_path, settling_config(replicas=1, rounds=10))
    assert main(["validate", "--config", str(path)]) == 0
    assert "A1" in capsys.readouterr().out


def test_cli_validate_failure_exit_code(tmp_path, capsys):
    config = settling_config(
        agents=2,
        states=3,
        tables=(bernoulli((0.5, 0.25, 0.5)), bernoulli((0.5, 0.25, 0.5))),
        replicas=1,
        rounds=10,
    )
    path = write_config(tmp_path, config)
    assert main(["validate", "--config", str(path)]) == 2
    assert "A2" in capsys.readouterr().out


def test_cli_run_writes_outputs(tmp_path):
    path = write_config(tmp_path, settling_config(replicas=1, rounds=15))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    for fname in ("beliefs.csv", "comm.csv", "summary.txt"):
        assert (out / fname).exists()


def test_export_line_endings_are_pinned(tmp_path):
    # csv.writer ends rows with \r\n; the two '#' lines of beliefs.csv are
    # written by hand with \n. Pinned output digests depend on this mix.
    config = settling_config(replicas=1, rounds=15, tau=1.0)
    export(run_experiment(config), tmp_path, config)
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


def test_cli_run_overrides_seed_and_replicas(tmp_path):
    path = write_config(tmp_path, settling_config(replicas=1, rounds=15))
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    main(["run", "--config", str(path), "--out", str(out_a)])
    main(
        ["run", "--config", str(path), "--seed", "99", "--replicas", "2",
         "--out", str(out_b)]
    )
    meta_a, rows_a = read_beliefs_csv(out_a / "beliefs.csv")
    meta_b, rows_b = read_beliefs_csv(out_b / "beliefs.csv")
    assert meta_a["seed"] == "21"
    assert meta_b["seed"] == "99"
    assert {row["replica"] for row in rows_a} == {0}
    assert {row["replica"] for row in rows_b} == {0, 1}


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


def test_cli_rejects_invalid_config_file(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"agents": 3, "states": 4, "rounds": 0}))
    assert main(["validate", "--config", str(path)]) == 1
    assert "error" in capsys.readouterr().err.lower()
