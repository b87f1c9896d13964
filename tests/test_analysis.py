"""Identifiability diagnostics, rate estimation, and mixing checks."""

import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soclearn.analysis import (
    CLASS_TOL,
    check_interval_connectivity,
    equivalence_classes,
    identifiability_report,
    kl_divergence,
    mixing_gap,
    network_divergence,
    product_convergence_gap,
)
from soclearn.harness import ExperimentConfig, build_model, run_experiment
from soclearn.model import (
    LikelihoodModel,
    StateSpace,
    metropolis_weights,
    ring_edges,
    validate_assumptions,
)

# the reference signal family: fair coin everywhere except one state
D_HALF_QUARTER = 0.5 * math.log(0.5 / 0.25) + 0.5 * math.log(0.5 / 0.75)


def bernoulli_table(p_one_per_state):
    return np.array([[1.0 - p for p in p_one_per_state], list(p_one_per_state)])


def reference_like_model(n, m, p_eq=0.5, p_diff=0.25):
    tables = []
    for i in range(n):
        special = 1 + (i % (m - 1))
        tables.append(
            bernoulli_table([p_diff if k == special else p_eq for k in range(m)])
        )
    return LikelihoodModel.from_probabilities(tables, alphabets=[(0, 1)] * n)


# ------------------------------------------------------------- kl_divergence


def test_kl_identical_is_zero():
    assert kl_divergence([0.2, 0.3, 0.5], [0.2, 0.3, 0.5]) == 0.0


def test_kl_fair_coin_vs_quarter_coin():
    got = kl_divergence([0.5, 0.5], [0.75, 0.25])
    assert got == pytest.approx(D_HALF_QUARTER, abs=1e-15)
    assert got == pytest.approx(0.1438410362, abs=1e-9)


def test_kl_is_asymmetric():
    forward = kl_divergence([0.5, 0.5], [0.75, 0.25])
    backward = kl_divergence([0.75, 0.25], [0.5, 0.5])
    assert forward != pytest.approx(backward, abs=1e-6)


def test_kl_zero_mass_terms_drop_out():
    assert kl_divergence([1.0, 0.0], [0.5, 0.5]) == pytest.approx(
        math.log(2.0), abs=1e-15
    )


def test_kl_rejects_unmatched_zero():
    with pytest.raises(ValueError):
        kl_divergence([0.5, 0.5], [1.0, 0.0])


# ------------------------------------------------------- equivalence_classes


def test_reference_agent_separates_exactly_one_state():
    lik = reference_like_model(n=3, m=4)
    # agent 0 singles out state 1; the rest look identical to it
    assert equivalence_classes(lik, 0) == ((0, 2, 3), (1,))
    assert equivalence_classes(lik, 1) == ((0, 1, 3), (2,))


def test_identical_columns_collapse_to_one_class():
    lik = LikelihoodModel.from_probabilities([bernoulli_table([0.4, 0.4, 0.4])])
    assert equivalence_classes(lik, 0) == ((0, 1, 2),)


def test_distinct_columns_give_singletons():
    lik = LikelihoodModel.from_probabilities([bernoulli_table([0.2, 0.5, 0.8])])
    assert equivalence_classes(lik, 0) == ((0,), (1,), (2,))


def test_zero_entries_classify_without_warnings():
    # log(0) columns meet -inf against -inf, which must match silently
    lik = LikelihoodModel.from_probabilities(
        [[[0.0, 0.5, 0.0], [1.0, 0.5, 1.0]]], allow_zero=True
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert equivalence_classes(lik, 0) == ((0, 2), (1,))


def greedy_classes(table):
    """Plain greedy oracle: each state joins the first matching leader."""
    classes = []
    for k in range(table.shape[1]):
        for cls in classes:
            if all(a == b or abs(a - b) <= CLASS_TOL
                   for a, b in zip(table[:, k], table[:, cls[0]])):
                cls.append(k)
                break
        else:
            classes.append([k])
    return tuple(tuple(cls) for cls in classes)


@st.composite
def identifiability_models(draw):
    """1-4 agents over 2-6 states with alphabets of 2-13 symbols.

    Each column after the first is fresh, an exact copy of an earlier
    one, or a copy with mass moved between its two largest entries by a
    relative 1e-14 (inside CLASS_TOL in the log domain) or 1e-11
    (outside it). Some tables hold zero entries.
    """
    m = draw(st.integers(2, 6))
    tables = []
    for _ in range(draw(st.integers(1, 4))):
        s = draw(st.integers(2, 13))
        weight = st.floats(0.01, 1.0)
        if draw(st.booleans()):
            weight = st.one_of(weight, st.just(0.0))
        cols = []
        for k in range(m):
            kind = draw(st.sampled_from(["fresh", "copy", "near", "far"]))
            if k == 0 or kind == "fresh":
                w = np.array(draw(st.lists(weight, min_size=s, max_size=s)))
                w[0] += w.sum() == 0.0
                cols.append(w / w.sum())
                continue
            col = cols[draw(st.integers(0, k - 1))].copy()
            if kind != "copy":
                lo, hi = np.argsort(col)[-2:]
                shift = (1e-14 if kind == "near" else 1e-11) * col[lo]
                col[lo] += shift
                col[hi] -= shift
            cols.append(col)
        tables.append(np.column_stack(cols))
    lik = LikelihoodModel.from_probabilities(tables, allow_zero=True)
    space = StateSpace(states=tuple(range(m)),
                       true_state_index=draw(st.integers(0, m - 1)))
    return lik, space


@settings(max_examples=150, deadline=None)
@given(identifiability_models())
def test_report_matches_oracles_on_random_tables(model):
    lik, space = model
    t = space.true_state_index
    report = identifiability_report(lik, space)
    for i in range(lik.agent_count):
        assert equivalence_classes(lik, i) == greedy_classes(lik.log_lik[i])
        assert report.equivalence_classes[i] == equivalence_classes(lik, i)
        same = next(cls for cls in report.equivalence_classes[i] if t in cls)
        p = lik.signal_distribution(i, t)
        for k in range(space.size):
            q = lik.signal_distribution(i, k)
            if k in same:
                assert report.kl[i, k] == 0.0
            elif np.any((p > 0.0) & (q == 0.0)):
                assert report.kl[i, k] == np.inf
            else:
                assert abs(report.kl[i, k] - kl_divergence(p, q)) <= 1e-12
                # bit for bit the 1-d sum over the support, in its order
                lp, lq = lik.log_lik[i][p > 0.0][:, [t, k]].T
                assert report.kl[i, k] == np.sum(p[p > 0.0] * (lp - lq))
    n = lik.agent_count
    net = metropolis_weights([(i, j) for i in range(n) for j in range(i + 1, n)], n)
    violations = validate_assumptions(lik, net, space).a2_violations
    if lik.bounded:
        assert violations == report.not_excluded
    else:
        assert violations == tuple(k for k in range(space.size) if k != t)
    assert report.globally_identifiable == (not report.not_excluded)


# ------------------------------------------------------- network_divergence


def test_divergence_is_zero_at_the_realized_state():
    lik = reference_like_model(n=3, m=4)
    space = StateSpace(states=tuple(range(4)), true_state_index=0)
    div = network_divergence(lik, space)
    assert div[0] == 0.0


def test_divergence_single_discriminating_agent():
    # exactly one of n agents tells each false state apart, so the
    # network average is that agent's divergence over n
    n, m = 15, 16
    lik = reference_like_model(n=n, m=m)
    space = StateSpace(states=tuple(range(m)), true_state_index=0)
    div = network_divergence(lik, space)
    for false_state in range(1, m):
        assert div[false_state] == pytest.approx(-D_HALF_QUARTER / n, abs=1e-15)
    assert div[1] == pytest.approx(-0.009589402417, abs=1e-10)


def test_divergence_signs_cross_check_class_structure():
    lik = reference_like_model(n=4, m=5)
    space = StateSpace(states=tuple(range(5)), true_state_index=0)
    div = network_divergence(lik, space)
    for false_state in range(1, 5):
        separated = any(
            all(false_state not in cls or 0 not in cls for cls in
                equivalence_classes(lik, agent))
            for agent in range(4)
        )
        assert (div[false_state] < 0.0) == separated


# -------------------------------------------------------------------- report


def test_report_fields_and_rate():
    lik = reference_like_model(n=4, m=5)
    space = StateSpace(states=tuple(range(5)), true_state_index=0)
    report = identifiability_report(lik, space)
    assert report.globally_identifiable
    assert report.asymptotic_rate == -max(report.network_divergence[1:])
    assert report.asymptotic_rate == pytest.approx(D_HALF_QUARTER / 4, abs=1e-15)
    assert report.kl.shape == (4, 5)
    assert np.all(report.kl >= 0.0)
    # kl is exactly zero precisely on observationally equivalent pairs
    for agent in range(4):
        classes = equivalence_classes(lik, agent)
        true_class = next(cls for cls in classes if 0 in cls)
        for state in range(5):
            if state in true_class:
                assert report.kl[agent, state] == 0.0
            else:
                assert report.kl[agent, state] > 0.0


def test_report_flags_unidentifiable_model():
    # two agents, both blind to state 2
    tables = [
        bernoulli_table([0.5, 0.25, 0.5]),
        bernoulli_table([0.5, 0.25, 0.5]),
    ]
    lik = LikelihoodModel.from_probabilities(tables)
    space = StateSpace(states=("t", "u", "v"), true_state_index=0)
    report = identifiability_report(lik, space)
    assert not report.globally_identifiable
    assert report.network_divergence[2] == 0.0
    assert report.asymptotic_rate == 0.0


def test_report_summary_and_csv(tmp_path):
    lik = reference_like_model(n=3, m=4)
    space = StateSpace(states=tuple(range(4)), true_state_index=0)
    report = identifiability_report(lik, space)
    text = report.summary()
    assert "identifiable" in text
    assert f"{report.asymptotic_rate:.12g}" in text
    report.write_csv(tmp_path)
    kl_lines = (tmp_path / "kl.csv").read_text().splitlines()
    div_lines = (tmp_path / "divergence.csv").read_text().splitlines()
    assert "nats" in kl_lines[0]
    assert len(kl_lines) == 1 + 3  # one row per agent
    assert len(div_lines) == 1 + 4  # one row per state


# ------------------------------------------------------------- estimate_rate


def test_rate_zero_for_an_indistinguishable_state():
    # flat likelihoods: the belief series is frozen, so the fitted
    # slope carries nothing but representation noise
    lik = LikelihoodModel.from_probabilities([bernoulli_table([0.4, 0.4])])
    logb = np.log(np.full((51, 1, 2), 0.5))
    record = SimpleNamespace(
        stored_rounds=tuple(range(51)), log_beliefs=logb, true_state_index=0
    )
    from soclearn.analysis import estimate_rate

    assert estimate_rate(record, 0, 1, (0, 50)) == pytest.approx(0.0, abs=1e-15)


def test_rate_matches_divergence_for_a_lone_agent():
    from soclearn.analysis import estimate_rate

    config = ExperimentConfig(
        agents=1, states=2, rounds=10000, seed=3, replicas=1, tau=0.5
    )
    record = run_experiment(config)[0]
    rate = estimate_rate(record, 0, 1, (5000, 10000))
    assert rate == pytest.approx(D_HALF_QUARTER, rel=0.15)


def test_rate_window_validation():
    from soclearn.analysis import estimate_rate

    record = SimpleNamespace(
        stored_rounds=(0, 1, 2),
        log_beliefs=np.log(np.full((3, 1, 2), 0.5)),
        true_state_index=0,
    )
    with pytest.raises(ValueError):
        estimate_rate(record, 0, 1, (2, 1))
    with pytest.raises(ValueError):
        estimate_rate(record, 0, 1, (0, 9))
    with pytest.raises(ValueError):
        estimate_rate(record, 0, 0, (0, 2))


# --------------------------------------------------- product_convergence_gap


def test_identity_sequence_never_mixes():
    gap = product_convergence_gap([np.eye(4)] * 10)
    assert gap == 2.0 * 3.0 / 4.0


def test_flat_matrix_mixes_in_one_round():
    net = metropolis_weights([(0, 1), (0, 2), (1, 2)], 3)
    assert product_convergence_gap([net.weights]) <= 1e-12


def test_ring_powers_cross_the_mixing_bar_near_237():
    # frozen from the spectral gap of the 15-ring with these weights:
    # the second eigenvalue is about 0.94236, putting the 1e-6 crossing
    # of the left product between 236 and 237 factors
    net = metropolis_weights(ring_edges(15), 15)
    assert product_convergence_gap([net.weights] * 236) > 1e-6
    assert product_convergence_gap([net.weights] * 237) < 1e-6


def test_prefix_gaps_never_increase():
    # every extra doubly stochastic factor is an averaging step, so the
    # gap of the running product cannot grow
    rng = np.random.default_rng(9)
    net = metropolis_weights(ring_edges(7), 7)
    from soclearn.switching import build_switching_matrix

    prod = np.eye(7)
    prev_gap = mixing_gap(prod)
    for t in range(60):
        members = tuple(rng.choice(7, size=int(rng.integers(0, 4)), replace=False))
        q = build_switching_matrix(net, members, round=t + 1)
        prod = q.q @ prod
        gap = mixing_gap(prod)
        assert gap <= prev_gap + 1e-14
        prev_gap = gap


def test_gap_requires_matrices():
    with pytest.raises(ValueError):
        product_convergence_gap([])


# ------------------------------------------------- check_interval_connectivity


def test_identity_rounds_do_not_connect():
    seq = [np.eye(3)] * 5
    assert not check_interval_connectivity(seq, (0, 4))


def test_one_full_round_connects():
    net = metropolis_weights(ring_edges(5), 5)
    seq = [np.eye(5), net.weights, np.eye(5)]
    assert check_interval_connectivity(seq, (0, 2))
    assert not check_interval_connectivity(seq, (2, 2))


def test_single_agent_is_trivially_connected():
    assert check_interval_connectivity([np.eye(1)], (0, 0))


def test_connectivity_interval_validation():
    seq = [np.eye(2)] * 3
    with pytest.raises(ValueError):
        check_interval_connectivity(seq, (2, 1))
    with pytest.raises(ValueError):
        check_interval_connectivity(seq, (0, 3))
    with pytest.raises(ValueError):
        check_interval_connectivity([], (0, 0))


def test_union_of_partial_rounds_can_connect():
    # no single round connects the path, but the union across rounds does
    from soclearn.switching import build_switching_matrix

    net = metropolis_weights([(0, 1), (1, 2), (2, 3)], 4)
    seq = [
        build_switching_matrix(net, (0,), round=1),
        build_switching_matrix(net, (2,), round=2),
        build_switching_matrix(net, (3,), round=3),
    ]
    assert not check_interval_connectivity(seq, (0, 0))
    assert check_interval_connectivity(seq, (0, 2))
