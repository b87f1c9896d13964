"""Acceptance suite: one test per advertised guarantee of the package.

Each test prints a single pass/fail line (also echoed in the terminal
summary) and pins its tolerance explicitly. Two criteria fail by design
of the default parameterization and are asserted anyway rather than
weakened; the analysis lives with the failing asserts below.
"""

import dataclasses
import time

import numpy as np
import pytest

from conftest import flagged_mask, log_normalized, record_criterion
from soclearn.analysis import identifiability_report, product_convergence_gap
from soclearn.harness import (
    ExperimentConfig,
    build_model,
    export,
    generate_signals,
    reference_config,
    run_experiment,
)
from soclearn.learning import _bayes_tv_rows, binary_informative, initial_state, run_round
from soclearn.model import (
    LikelihoodModel,
    Network,
    Prior,
    StateSpace,
    metropolis_weights,
)
from soclearn.switching import _mixing_matrices, build_switching_matrix


def bernoulli(p1s):
    return (tuple(1.0 - p for p in p1s), tuple(p1s))


@pytest.fixture(scope="module")
def default_scenario():
    """Reference run shared by the consensus / savings / mixing checks.

    15 agents on a Metropolis-weighted ring, 16 states, threshold 1e-17,
    1000 rounds, 20 replicas.
    """
    config = reference_config()
    start = time.perf_counter()
    records = run_experiment(config)
    elapsed = time.perf_counter() - start
    return config, records, elapsed


def test_criterion_01_all_agents_settle_on_default_scenario(default_scenario):
    """At least 19 of 20 replicas must end with every agent above 1-1e-6.

    This fails under the default signal family, and not marginally: the
    mixing matrices all have columns summing to one, so the agent-sum of
    accumulated evidence is conserved and the worst agent can never hold
    more than the network average of about 9.6 nats against any false
    state by round 1000, while the bar needs about 13.8. Even the
    always-communicate arm tops out near belief 0.9954. Raising the
    evidence per round enough to settle pushes communication above the
    sparsity bound of the savings criterion, so the two cannot hold at
    once; the savings default is kept and this failure is accepted.
    """
    config, records, elapsed = default_scenario
    settled = sum(1 for rec in records if rec.consensus_round is not None)
    ok = settled >= 19 and elapsed < 10.0
    record_criterion(
        1,
        "consensus on the default scenario",
        ok,
        f"{settled}/20 replicas settled above 1-1e-6 by round 1000 "
        f"(need >= 19); run took {elapsed:.2f}s (limit 10s)",
    )
    print(f"criterion 1 {'PASS' if ok else 'FAIL'}: {settled}/20 settled, {elapsed:.2f}s")
    assert elapsed < 10.0
    assert settled >= 19


def test_criterion_02_communication_savings(default_scenario):
    """Mean exchange fraction below 20%, inside the 1%-20% band, and the
    always-communicate baseline at exactly 100%."""
    config, records, _ = default_scenario
    fractions = np.array([rec.communication_fractions() for rec in records])
    mean_frac = float(fractions.mean())
    agent0 = float(fractions[:, config.comparison_agent].mean())

    baseline = run_experiment(dataclasses.replace(config, tau=1.0))
    base_fracs = np.array([rec.communication_fractions() for rec in baseline])
    baseline_full = bool(np.all(base_fracs == 1.0))

    ok = (
        mean_frac < 0.20
        and 0.01 <= mean_frac <= 0.20
        and 0.01 <= agent0 <= 0.20
        and baseline_full
    )
    record_criterion(
        2,
        "communication savings",
        ok,
        f"mean fraction {mean_frac:.4f}, designated agent {agent0:.4f} "
        f"(band 0.01..0.20); baseline exactly 1.0: {baseline_full}",
    )
    print(f"criterion 2 {'PASS' if ok else 'FAIL'}: mean {mean_frac:.4f}")
    assert mean_frac < 0.20
    assert 0.01 <= mean_frac <= 0.20
    assert 0.01 <= agent0 <= 0.20
    assert baseline_full


def test_criterion_03_asymptotic_rate_matches_divergence():
    """Fitted log-ratio slopes match the network divergence within 10%.

    Three agents, three states, complete graph, fixed Bernoulli tables,
    horizon 20000, slopes fitted on the second half and averaged over
    20 replicas, checked per agent and per false state.
    """
    config = ExperimentConfig(
        agents=3,
        states=3,
        true_state=0,
        topology_kind="complete",
        tables=(
            bernoulli((0.50, 0.25, 0.70)),
            bernoulli((0.40, 0.60, 0.30)),
            bernoulli((0.55, 0.35, 0.50)),
        ),
        tau=1e-17,
        rounds=20000,
        seed=5,
        replicas=20,
    )
    space, _, lik, _ = build_model(config)
    divergence = identifiability_report(lik, space).network_divergence

    start = time.perf_counter()
    records = run_experiment(config)
    elapsed = time.perf_counter() - start

    stored = np.asarray(records[0].stored_rounds)
    window = (stored >= config.rounds // 2) & (stored <= config.rounds)
    ts = stored[window].astype(float)
    worst = 0.0
    for false_state in (1, 2):
        expected = divergence[false_state]
        slopes = np.zeros((len(records), config.agents))
        for ri, rec in enumerate(records):
            lb = rec.log_beliefs[window]
            for agent in range(config.agents):
                ratio = lb[:, agent, false_state] - lb[:, agent, 0]
                slopes[ri, agent] = np.polyfit(ts, ratio, 1)[0]
        rel = np.abs((slopes.mean(axis=0) - expected) / expected)
        worst = max(worst, float(rel.max()))

    ok = worst <= 0.10 and elapsed < 30.0
    record_criterion(
        3,
        "learning rate matches network divergence",
        ok,
        f"worst relative slope error {worst:.4f} (limit 0.10) over both "
        f"false states and all agents; run took {elapsed:.1f}s (limit 30s)",
    )
    print(f"criterion 3 {'PASS' if ok else 'FAIL'}: worst rel err {worst:.4f}")
    assert elapsed < 30.0
    assert worst <= 0.10


def test_criterion_04_recursion_equals_expanded_form():
    """Recursive potentials equal the unrolled mixed-evidence sum.

    100 random instances (n <= 5, m <= 4, T <= 12) with mixing matrices
    generated by the protocol itself, compared entrywise to 1e-10.
    """
    rng = np.random.default_rng(2024)
    worst = 0.0
    for trial in range(100):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(2, 5))
        rounds = int(rng.integers(1, 13))

        # random connected graph: a random spanning tree plus extras
        edges = set()
        order = rng.permutation(n)
        for k in range(1, n):
            a = int(order[k])
            b = int(order[int(rng.integers(0, k))])
            edges.add((min(a, b), max(a, b)))
        for _ in range(int(rng.integers(0, n))):
            a, b = rng.choice(n, size=2, replace=False)
            edges.add((min(int(a), int(b)), max(int(a), int(b))))
        net = metropolis_weights(sorted(edges), n)

        # random strictly positive tables, a random alphabet per agent
        tables = []
        for _ in range(n):
            size = int(rng.integers(2, 5))
            raw = rng.uniform(0.05, 1.0, size=(size, m))
            tables.append(raw / raw.sum(axis=0, keepdims=True))
        lik = LikelihoodModel.from_probabilities(tables)
        prior = Prior.uniform(m)

        # mixed regimes: always-identity, always-full, and in between
        tau = float(rng.choice([1.0, 1e-300, 10 ** rng.uniform(-3.0, -0.3)]))

        signals = np.stack(
            [
                rng.integers(0, tables[i].shape[0], size=rounds + 1)
                for i in range(n)
            ],
            axis=1,
        )
        state = initial_state(prior, lik, signals[0])
        qs = []
        fresh_rows = []
        for t in range(1, rounds + 1):
            state, q, _ = run_round(state, net, lik, tau, signals[t])
            qs.append(q.q)
            fresh_rows.append(
                np.stack([lik.log_lik[i][signals[t, i]] for i in range(n)])
            )

        expanded = np.zeros((n, m))
        trailing = np.eye(n)
        for t in range(rounds, 0, -1):
            expanded += trailing @ fresh_rows[t - 1]
            trailing = trailing @ qs[t - 1]
        worst = max(worst, float(np.abs(state.potentials - expanded).max()))

    ok = worst <= 1e-10
    record_criterion(
        4,
        "potential recursion equals its unrolled form",
        ok,
        f"worst entry difference {worst:.3e} over 100 random instances "
        "(limit 1e-10)",
    )
    print(f"criterion 4 {'PASS' if ok else 'FAIL'}: worst diff {worst:.3e}")
    assert worst <= 1e-10


def test_criterion_05_vanishing_threshold_is_pure_bayes():
    """With threshold 1e-300 every signal is informative and the network
    never mixes, so trajectories must match independent per-agent Bayes
    chains to 1e-10 per log-belief entry."""
    config = reference_config(rounds=800, replicas=1, tau=1e-300)
    space, prior, lik, _ = build_model(config)
    record = run_experiment(config)[0]
    never_mixed = int(record.uninformative.sum()) == 0

    signals = generate_signals(lik, space, config.seed, config.rounds + 1, replica=0)
    # each agent's Bayes chain: the prior plus the running sum of its fresh rows
    evidence = np.cumsum([lik.fresh_rows(sig) for sig in signals], axis=0)
    chain = log_normalized(prior.log_mass + evidence)
    position = {int(t): k for k, t in enumerate(record.stored_rounds)}
    worst = max(
        float(np.abs(record.log_beliefs[position[t]] - chain[t]).max())
        for t in range(config.rounds + 1)
    )

    ok = worst <= 1e-10 and never_mixed
    record_criterion(
        5,
        "vanishing threshold reduces to independent Bayes",
        ok,
        f"max log-belief gap to the per-agent chains {worst:.3e} "
        f"(limit 1e-10); exchanges: {int(record.uninformative.sum())}",
    )
    print(f"criterion 5 {'PASS' if ok else 'FAIL'}: worst diff {worst:.3e}")
    assert never_mixed
    assert worst <= 1e-10


def test_criterion_06_equivalent_states_keep_their_ratio():
    """A lone Bayesian agent cannot move the log ratio between two states
    whose signal laws coincide: drift must stay within 1e-12 over 10^4
    rounds, from a uniform and from a skewed prior."""
    # states 0 and 2 share a column
    table = np.array(
        [
            [0.55, 0.30, 0.55, 0.70],
            [0.45, 0.70, 0.45, 0.30],
        ]
    )
    lik = LikelihoodModel.from_probabilities([table])
    space = StateSpace(states=tuple(range(4)), true_state_index=0)
    net = metropolis_weights([], 1)
    rounds = 10_000
    signals = generate_signals(lik, space, seed=40, rounds=rounds + 1, replica=0)

    drifts = {}
    for name, prior in (
        ("uniform", Prior.uniform(4)),
        ("skewed", Prior.from_probabilities([0.4, 0.1, 0.3, 0.2])),
    ):
        state = initial_state(prior, lik, signals[0])
        start_ratio = state.log_belief[0, 2] - state.log_belief[0, 0]
        drift = 0.0
        for t in range(1, rounds + 1):
            state, _, _ = run_round(state, net, lik, 0.5, signals[t])
            ratio = state.log_belief[0, 2] - state.log_belief[0, 0]
            drift = max(drift, abs(ratio - start_ratio))
        drifts[name] = drift

    worst = max(drifts.values())
    ok = worst <= 1e-12
    record_criterion(
        6,
        "equivalent-state ratios are conserved",
        ok,
        f"max drift over 10^4 rounds: uniform prior {drifts['uniform']:.3e}, "
        f"skewed prior {drifts['skewed']:.3e} (limit 1e-12)",
    )
    print(f"criterion 6 {'PASS' if ok else 'FAIL'}: worst drift {worst:.3e}")
    assert worst <= 1e-12


def test_criterion_07_mixing_matrix_invariants():
    """10^4 random (weights, uninformative-set) pairs: symmetric, doubly
    stochastic within 1e-12, positive diagonal, empty set gives the
    identity exactly, full set gives the weight matrix exactly."""
    rng = np.random.default_rng(77)
    checked = 0

    def assert_invariants(net, members, round_no):
        q = build_switching_matrix(net, flagged_mask(net.n, members), round=round_no)
        mat = q.q
        assert np.array_equal(mat, mat.T)
        assert np.max(np.abs(mat.sum(axis=1) - 1.0)) <= 1e-12
        assert np.max(np.abs(mat.sum(axis=0) - 1.0)) <= 1e-12
        assert np.all(np.diag(mat) > 0.0)
        if len(members) == 0:
            assert np.array_equal(mat, np.eye(net.n))
        if len(set(members)) == net.n:
            assert np.array_equal(mat, net.weights)

    networks = []
    while len(networks) < 240:
        n = int(rng.integers(2, 9))
        edges = set()
        order = rng.permutation(n)
        for k in range(1, n):
            a = int(order[k])
            b = int(order[int(rng.integers(0, k))])
            edges.add((min(a, b), max(a, b)))
        for _ in range(int(rng.integers(0, 2 * n))):
            a, b = rng.choice(n, size=2, replace=False)
            edges.add((min(int(a), int(b)), max(int(a), int(b))))
        networks.append(metropolis_weights(sorted(edges), n))
    # a few dense non-Metropolis weight matrices as well
    for _ in range(10):
        n = int(rng.integers(2, 9))
        perms = np.zeros((n, n))
        for _ in range(4):
            perms += np.eye(n)[rng.permutation(n)]
        sym = (perms + perms.T) / 8.0
        weights = 0.4 * np.eye(n) + 0.2 * np.full((n, n), 1.0 / n) + 0.4 * sym
        networks.append(Network(weights))

    per_network = 40
    for net in networks:
        n = net.n
        assert_invariants(net, (), 1)
        assert_invariants(net, tuple(range(n)), 1)
        checked += 2
        for k in range(per_network - 2):
            size = int(rng.integers(0, n + 1))
            members = tuple(rng.choice(n, size=size, replace=False))
            assert_invariants(net, members, k + 2)
            checked += 1

    ok = checked >= 10_000
    record_criterion(
        7,
        "mixing-matrix invariants",
        ok,
        f"{checked} random (weights, set) pairs checked: symmetry, double "
        "stochasticity within 1e-12, positive diagonal, exact identity and "
        "exact weight-matrix endpoints",
    )
    print(f"criterion 7 {'PASS' if ok else 'FAIL'}: {checked} pairs")
    assert ok


def test_criterion_08_binary_closed_form_agrees_with_tv_test():
    """The two-state closed-form verdict must agree with the general
    total-variation test on the full grid: belief 0.01..0.99 step 0.01,
    ratio 10^-3..10^3 (61 log-spaced points), thresholds 0.05/0.1/0.5.
    Zero disagreements allowed wherever the move is more than 1e-12 away
    from the threshold (none land closer)."""
    epsilons = [i / 100.0 for i in range(1, 100)]
    ratios = np.logspace(-3.0, 3.0, 61)
    taus = (0.05, 0.1, 0.5)

    disagreements = 0
    near_ties = 0
    prev = np.log([[1.0 - eps, eps] for eps in epsilons])
    first = np.zeros(len(epsilons), dtype=int)
    for r in ratios:
        # two symbols with likelihood ratio exactly r on the first; the
        # kernel takes every belief of the grid against symbol 0 at once
        lik = LikelihoodModel.from_probabilities(
            [np.array([[r / (1.0 + r), 1.0 / (1.0 + r)],
                       [1.0 / (1.0 + r), r / (1.0 + r)]])]
        )
        tvs = _bayes_tv_rows(prev, *lik.signal_rows(first)[1:])
        for eps, tv in zip(epsilons, tvs):
            for tau in taus:
                closed = binary_informative(eps, float(r), tau)
                if abs(tv - tau) <= 1e-12:
                    near_ties += 1
                elif closed != (tv >= tau):
                    disagreements += 1

    ok = disagreements == 0
    record_criterion(
        8,
        "binary closed form agrees with the general test",
        ok,
        f"{len(epsilons) * len(ratios) * len(taus)} grid points, "
        f"{disagreements} disagreements, {near_ties} within 1e-12 of the "
        "threshold",
    )
    print(f"criterion 8 {'PASS' if ok else 'FAIL'}: {disagreements} disagreements")
    assert ok


def round_matrices(rec, block=256):
    """Each round's mixing matrix, oldest first, built unchecked from the
    record's verdict masks a block of rounds at a time."""
    for start in range(0, rec.rounds, block):
        yield from _mixing_matrices(rec.network, rec.uninformative[start:start + block])


def test_block_built_matrices_give_the_per_round_product_gap():
    # the validated per-round matrices are the reference for criterion 9's
    # block-built ones: the same products, bit for bit
    (rec,) = run_experiment(reference_config(replicas=1, rounds=150, tau=1e-4))
    assert 0 < rec.uninformative.sum() < rec.uninformative.size
    reference = product_convergence_gap(
        build_switching_matrix(rec.network, mask, t).q
        for t, mask in enumerate(rec.uninformative, start=1)
    )
    for block in (7, 256):
        assert product_convergence_gap(round_matrices(rec, block)) == reference


def test_criterion_09_mixing_product_converges(default_scenario):
    """The left product of the run's mixing matrices should flatten to
    the averaging matrix within 1e-6 by round 1000.

    This fails under the default signal family for the same reason the
    consensus criterion does: driving the product gap below 1e-6 on this
    ring needs the equivalent of at least 237 full-exchange rounds
    (second eigenvalue 0.94236...), i.e. a mean communication fraction
    above 23%, which the savings criterion caps at 20%. At the default
    parameterization the run communicates in about 2% of agent-rounds
    and the product gap stays near 0.86.
    """
    config, records, _ = default_scenario
    gap = product_convergence_gap(round_matrices(records[0]))
    ok = gap < 1e-6
    record_criterion(
        9,
        "mixing product flattens by round 1000",
        ok,
        f"replica-0 product gap {gap:.3e} (limit 1e-6)",
    )
    print(f"criterion 9 {'PASS' if ok else 'FAIL'}: gap {gap:.3e}")
    assert gap < 1e-6


def test_criterion_10_outputs_are_byte_deterministic(tmp_path):
    """Identical (config, seed) must produce byte-identical CSV files."""
    config = reference_config(replicas=2, rounds=300)
    for name in ("first", "second"):
        export(config, tmp_path / name)

    same = {}
    for fname in ("beliefs.csv", "comm.csv", "summary.txt"):
        same[fname] = (
            (tmp_path / "first" / fname).read_bytes()
            == (tmp_path / "second" / fname).read_bytes()
        )
    ok = all(same.values())
    record_criterion(
        10,
        "byte-identical outputs for identical (config, seed)",
        ok,
        ", ".join(f"{fname}: {'same' if flag else 'DIFFER'}"
                  for fname, flag in same.items()),
    )
    print(f"criterion 10 {'PASS' if ok else 'FAIL'}")
    assert ok
