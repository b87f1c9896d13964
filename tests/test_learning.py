"""Belief updates, informativeness, and the potential recursion."""

import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import flagged_mask, log_normalized
from soclearn.harness import build_likelihoods, reference_config
from soclearn.learning import (
    _bayes_tv_rows,
    _lse_last,
    belief_from_potentials,
    binary_informative,
    binary_tv,
    initial_state,
    potential_update,
    run_round,
)
from soclearn.model import BeliefState, LikelihoodModel, Prior, _value_classes, \
    metropolis_weights
from soclearn.switching import build_switching_matrix

LONE = metropolis_weights([], 1)
PATH3 = metropolis_weights([(0, 1), (1, 2)], 3)


def two_state_model(p1, p2):
    # binary signals; P(symbol 1 | state k) given per state
    table = np.array([[1.0 - p1, 1.0 - p2], [p1, p2]])
    return LikelihoodModel.from_probabilities([table])


def log_rows(*rows):
    return np.log(np.array(rows, dtype=float))


def lone_round(log_row, lik, signal, tau=0.5):
    """``run_round`` of one agent holding ``log_row``: its new log belief and its tv.

    The agent has no neighbour, so the round is its Bayes step on
    ``signal`` whatever the verdict.
    """
    row = np.asarray(log_row, dtype=float)[None, :]
    state = BeliefState(
        log_belief=row, potentials=np.zeros(row.shape), log_belief_initial=row, round=0
    )
    new, _, tv = run_round(state, LONE, lik, tau, [signal])
    return new.log_belief[0], float(tv[0])


# ------------------------------------------------------------- round 0


def test_initial_belief_uniform_when_likelihood_flat():
    lik = two_state_model(0.3, 0.3)
    row = initial_state(Prior.uniform(2), lik, [1]).log_belief[0]
    assert np.allclose(np.exp(row), [0.5, 0.5], atol=1e-12)


def test_initial_belief_direct_evaluation():
    # mass 0.5/0.5 against likelihoods 0.8/0.2 concentrates to 0.8/0.2
    table = np.array([[0.8, 0.2], [0.2, 0.8]])
    lik = LikelihoodModel.from_probabilities([table])
    row = initial_state(Prior.uniform(2), lik, [0]).log_belief[0]
    assert np.allclose(np.exp(row), [0.8, 0.2], atol=1e-12)


def test_degenerate_prior_rejected_upstream():
    with pytest.raises(ValueError):
        Prior.from_probabilities([1.0, 0.0])


# ------------------------------------------------------------- one Bayes step


def test_bayes_flat_likelihood_is_identity():
    lik = two_state_model(0.4, 0.4)
    before = log_rows([0.7, 0.3])[0]
    after, _ = lone_round(before, lik, 1)
    assert np.allclose(after, before, atol=1e-12)


def test_bayes_direct_evaluation():
    table = np.array([[0.8, 0.2], [0.2, 0.8]])
    lik = LikelihoodModel.from_probabilities([table])
    after, _ = lone_round(log_rows([0.5, 0.5])[0], lik, 0)
    assert np.allclose(np.exp(after), [0.8, 0.2], atol=1e-12)


def test_bayes_preserves_ratio_on_equivalent_states():
    # states 0 and 2 share a column, so their log ratio cannot move
    table = np.array([[0.6, 0.3, 0.6], [0.4, 0.7, 0.4]])
    lik = LikelihoodModel.from_probabilities([table])
    rng = np.random.default_rng(8)
    start = log_rows([0.2, 0.5, 0.3])[0]
    ratio0 = start[0] - start[2]
    row = start
    for signal in rng.integers(0, 2, size=100):
        row, _ = lone_round(row, lik, int(signal))
        assert abs((row[0] - row[2]) - ratio0) <= 1e-12

    # equal mass on the pair stays equal bit for bit: both entries see
    # identical additions and the same normalizer
    row = log_rows([0.25, 0.5, 0.25])[0]
    for signal in rng.integers(0, 2, size=100):
        row, _ = lone_round(row, lik, int(signal))
        assert row[0] == row[2]


def test_bayes_rejects_unknown_symbol():
    # a signal is a row index of the agent's table; -1 must not wrap around
    lik = two_state_model(0.4, 0.6)
    for signal in (2, -1):
        with pytest.raises(ValueError, match=f"signal index {signal} hits"):
            lone_round(log_rows([0.5, 0.5])[0], lik, signal)


# ----------------------------------------------------------- informativeness


def test_flat_signal_never_informative():
    lik = two_state_model(0.4, 0.4)
    _, tv = lone_round(log_rows([0.5, 0.5])[0], lik, 1)
    assert tv == 0.0
    assert not tv >= 1e-300


def test_threshold_one_never_informative():
    # tv = 1 needs a zero likelihood somewhere, which construction forbids
    lik = two_state_model(0.5, 0.25)
    for signal in (0, 1):
        for belief in ([0.5, 0.5], [0.999, 0.001], [0.01, 0.99]):
            _, tv = lone_round(log_rows(belief)[0], lik, signal)
            assert tv < 1.0


def test_informative_worked_example():
    # belief (1/2, 1/2), likelihood ratio 2: the posterior is (2/3, 1/3)
    # and the move is 1/6, which clears tau = 0.1
    lik = two_state_model(0.5, 0.25)
    _, tv = lone_round(log_rows([0.5, 0.5])[0], lik, 1)
    assert tv == pytest.approx(1.0 / 6.0, abs=1e-15)
    assert tv >= 0.1


def test_verdict_consistency_enforced():
    # run_round flags exactly the agents with tv < tau, and its tvs lie in
    # [0, 1] and cannot be edited afterwards
    lik = LikelihoodModel.from_probabilities([
        [[0.5, 0.75], [0.5, 0.25]], [[0.5, 0.5], [0.5, 0.5]], [[0.2, 0.9], [0.8, 0.1]],
    ])
    net = metropolis_weights([(0, 1), (1, 2), (0, 2)], 3)
    state = initial_state(Prior.uniform(2), lik, [0, 0, 0])
    _, _, tv = run_round(state, net, lik, 1.0, [1, 1, 1])
    assert tv.shape == (3,) and np.all((tv >= 0.0) & (tv <= 1.0))
    assert not tv.flags.writeable
    for tau in sorted({*tv[tv > 0.0], 1e-300, 1.0}):
        _, q, _ = run_round(state, net, lik, tau, [1, 1, 1])
        flagged = tv < tau
        assert np.array_equal(q.q, build_switching_matrix(net, flagged, 1).q)


def test_round_refuses_a_signal_its_belief_gives_zero_probability():
    # the signal is possible under state 0 only, which the belief rules out;
    # its likelihood exp(-800) under state 1 underflows, yet A1-A3 hold
    lik = LikelihoodModel((np.array([[0.0, -800.0], [-800.0, 0.0]]),))
    with pytest.raises(ValueError, match="^signal has zero probability under every "
                       "state its agent's belief supports$"):
        lone_round([-np.inf, 0.0], lik, 0)


def test_tiny_threshold_tracks_tiny_moves():
    # belief already near-certain: the move shrinks with the leftover mass,
    # but stays resolvable far below machine epsilon of the belief itself
    lik = two_state_model(0.5, 0.25)
    eps = 1e-12
    row = log_rows([1.0 - eps, eps])[0]
    _, tv = lone_round(row, lik, 1)
    expect = binary_tv(eps, 2.0)
    assert tv == pytest.approx(expect, rel=1e-9, abs=0.0)
    assert tv >= 1e-17  # ~6.7e-13 still above 1e-17
    assert not tv >= 1e-3


# ----------------------------------------------------- informativeness kernel


def dense_bayes_tv(log_mu, log_l):
    """The state-wise O(m^2) form of ``_bayes_tv_rows``, kept as its oracle.

    tv = 0.5 * sum_k mu_k |sum_j mu_j (l_k - l_j)| / sum_j mu_j l_j over
    the full (..., m, m) tensor of likelihood differences.
    """
    mu, lvec = np.exp(log_mu), np.exp(log_l)
    diff = lvec[..., :, None] - lvec[..., None, :]
    skew = np.einsum("...kj,...j->...k", diff, mu)
    return 0.5 * np.sum(mu * np.abs(skew), axis=-1) / np.sum(mu * lvec, axis=-1)


def grouped_bayes_tv(log_mu, log_l):
    return _bayes_tv_rows(log_mu, *_value_classes(np.exp(log_l)))


@st.composite
def kernel_rows(draw):
    """Belief rows over 2-8 states and one likelihood row for each.

    Likelihoods are built from 1-3 base values: each entry is an exact
    copy of one, a copy 1e-15 apart, or zero, and sometimes every
    supported state gets the same value. Belief masses range down to
    1e-300, and some states are unsupported.
    """
    rows, m = draw(st.integers(1, 3)), draw(st.integers(2, 8))
    base = draw(st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=3))
    entry = st.tuples(st.sampled_from(base), st.sampled_from([1.0, 1.0 + 1e-15, 0.0]))
    mass = st.one_of(
        st.just(0.0),
        st.builds(lambda f, d: f * 10.0**d, st.floats(1.0, 9.0), st.integers(-300, 0)),
    )
    lik = np.empty((rows, m))
    mu = np.empty((rows, m))
    for r in range(rows):
        lik[r] = [v * f for v, f in draw(st.lists(entry, min_size=m, max_size=m))]
        mu[r] = draw(st.lists(mass, min_size=m, max_size=m))
        mu[r, draw(st.integers(0, m - 1))] = 1.0
        if draw(st.booleans()):
            lik[r, mu[r] > 0.0] = lik[r, np.argmax(mu[r])]
    with np.errstate(divide="ignore"):
        return np.log(mu / mu.sum(axis=1, keepdims=True)), np.log(lik)


@settings(max_examples=300, deadline=None)
@given(kernel_rows())
def test_grouped_kernel_matches_the_dense_oracle(case):
    log_mu, log_l = case
    mu, lvec = np.exp(log_mu), np.exp(log_l)
    total = np.sum(mu * lvec, axis=-1)
    if np.any(total == 0.0):
        with pytest.raises(ValueError, match="zero probability"):
            grouped_bayes_tv(log_mu, log_l)
        return
    tv = grouped_bayes_tv(log_mu, log_l)
    oracle = dense_bayes_tv(log_mu, log_l)
    # within 1e-15 relative, above an underflow floor: each of the
    # oracle's m^2 products may round to a subnormal (error <= half the
    # smallest one), and the result divides by the row's total
    m = log_mu.shape[-1]
    floor = m * m * np.finfo(float).smallest_subnormal / total
    assert np.all(np.abs(tv - oracle) <= 1e-15 * oracle + floor)
    # every supported state shares the observed value: exactly no move
    for row in range(log_mu.shape[0]):
        support = mu[row] > 0.0
        if np.all(lvec[row, support] == lvec[row, support][0]):
            assert tv[row] == 0.0


def exact_bayes_tv(mu, lvec) -> Fraction:
    """``dense_bayes_tv``'s formula on one row of doubles, evaluated exactly."""
    mu, lvec = [Fraction(x) for x in mu], [Fraction(x) for x in lvec]
    skew = [sum(mj * (lk - lj) for mj, lj in zip(mu, lvec)) for lk in lvec]
    total = sum(mk * lk for mk, lk in zip(mu, lvec))
    return sum(mk * abs(sk) for mk, sk in zip(mu, skew)) / (2 * total)


@settings(max_examples=300, deadline=None)
@given(kernel_rows())
def test_grouped_kernel_is_within_8m_ulp_of_the_exact_value(case):
    """The kernel's claim of relative accuracy down to underflow, against
    exact rational arithmetic on the same doubles.

    A first-order count of the kernel's roundings, each off by at most
    u = eps / 2 relative, for m states in C <= m classes:
    - the class masses, sums of up to m doubles: m - 1;
    - each skew, a C-term sum of rounded gaps times masses: C + m on
      the sum of its terms' magnitudes, and that sum is at most twice
      the numerator, since a mean pairwise difference is at most twice
      the mean deviation from the mean;
    - the numerator's products and sum: m + C - 1 more;
    - the total: m + C - 1; the division: 1.
    That is 4(m + C) - 1 <= 8m - 1 times u relative, and u times a value
    is under one ulp of it, so the bound is 8m ulp. The worst error
    measured over 5,000 rows of this strategy was 2.3 ulp. Underflow
    adds the dense-oracle test's floor.
    """
    log_mu, log_l = case
    mu, lvec = np.exp(log_mu), np.exp(log_l)
    total = np.sum(mu * lvec, axis=-1)
    assume(np.all(total > 0.0))
    tv = grouped_bayes_tv(log_mu, log_l)
    m = log_mu.shape[-1]
    floor = m * m * np.finfo(float).smallest_subnormal / total
    for row in range(len(tv)):
        exact = exact_bayes_tv(mu[row], lvec[row])
        error = abs(Fraction(tv[row]) - exact)
        assert error <= 8 * m * Fraction(math.ulp(float(exact))) + Fraction(floor[row])


def test_grouped_kernel_keeps_relative_accuracy_far_below_epsilon():
    # two classes, the second holding about 1e-200 of the mass: the binary
    # closed form on the class masses, with nothing lost to the normalizer
    log_l = np.log([[0.5, 0.5, 0.5, 0.25]])
    log_mu = np.log([[0.25, 0.5, 0.25, 1e-200]])
    tv = grouped_bayes_tv(log_mu, log_l)
    expect = binary_tv(float(np.exp(log_mu[0, 3])), 2.0)
    assert tv[0] == pytest.approx(expect, rel=1e-15, abs=0.0)
    assert tv[0] == pytest.approx(dense_bayes_tv(log_mu, log_l)[0], rel=1e-15, abs=0.0)


def test_value_classes_group_exactly_equal_likelihoods():
    values = np.array([[0.5, 0.25, 0.5, 0.5 * (1 + 1e-15)], [0.0, 1.0, 0.0, 0.0]])
    label, levels = _value_classes(values)
    assert label.tolist() == [[1, 0, 1, 2], [0, 1, 0, 0]]
    assert levels.tolist() == [[0.25, 0.5, 0.5 * (1 + 1e-15)], [0.0, 1.0, 0.0]]
    lik = build_likelihoods(reference_config(agents=4, states=6))
    label, levels = lik.value_classes
    assert label.shape == (4, 2, 6) and levels.shape == (4, 2, 2)
    assert np.array_equal(np.take_along_axis(levels, label, axis=-1),
                          np.exp(lik.padded_log_lik))


def test_grouped_kernel_allocates_far_less_than_the_dense_tensor():
    # one call at (reps, n, m) = (2, 63, 64): the dense form built a
    # 2 * 63 * 64 * 64 * 8 byte (3.94 MiB) difference tensor
    lik = build_likelihoods(reference_config(agents=63, states=64))
    rng = np.random.default_rng(5)
    log_mu = np.log(rng.dirichlet(np.ones(64), size=(2, 63)))
    _, label, levels = lik.signal_rows(rng.integers(0, 2, (2, 63)))
    dense_bytes = 2 * 63 * 64 * 64 * 8
    tracemalloc.start()
    try:
        _bayes_tv_rows(log_mu, label, levels)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < dense_bytes / 10


# ------------------------------------------------------------- binary closed form


def test_binary_tv_worked_values():
    assert binary_tv(0.5, 2.0) == pytest.approx(1.0 / 6.0, abs=1e-15)
    assert binary_tv(0.5, 1.0) == 0.0
    assert binary_tv(0.2, 0.5) == pytest.approx(
        0.2 * 0.8 * 0.5 / (0.8 * 0.5 + 0.2), abs=1e-15
    )


def test_binary_skeptical_agent_ignores_confirming_signals():
    # nearly no mass left on the second state: ratios above one do nothing
    for r in (1.0, 1.5, 10.0, 1e3):
        assert not binary_informative(0.05, r, tau=0.1)


def test_binary_convinced_agent_ignores_contradicting_signals():
    # nearly all mass on the second state: ratios below one do nothing
    for r in (0.9, 0.5, 1e-3):
        assert not binary_informative(0.95, r, tau=0.1)


def test_binary_worked_threshold():
    # at eps = 0.5, tau = 0.1 the ratio must clear 1.5
    assert binary_informative(0.5, 2.0, 0.1)
    assert binary_informative(0.5, 1.51, 0.1)
    assert not binary_informative(0.5, 1.49, 0.1)
    # symmetric branch below one
    assert binary_informative(0.5, 1.0 / 2.0, 0.1)
    assert not binary_informative(0.5, 1.0 / 1.49, 0.1)


def test_binary_matches_general_test_on_a_grid():
    # coarse sweep here; the exhaustive grid runs in the acceptance suite
    taus = (0.05, 0.1, 0.5)
    ratios = np.logspace(-2, 2, 21)
    for eps in (0.02, 0.2, 0.5, 0.8, 0.98):
        prev = np.log(np.array([1.0 - eps, eps]))
        for r in ratios:
            lik = two_state_model(r / (1.0 + r), 1.0 / (1.0 + r))
            for tau in taus:
                _, tv = lone_round(prev, lik, 1, tau)
                closed = binary_informative(eps, float(r), tau)
                if abs(tv - tau) > 1e-12:
                    assert closed == (tv >= tau)


def test_binary_rejects_bad_epsilon():
    with pytest.raises(ValueError):
        binary_informative(0.0, 2.0, 0.1)
    with pytest.raises(ValueError):
        binary_tv(1.0, 2.0)
    # a NaN ratio used to give tv nan and the verdict False
    for r in (-0.5, np.nan):
        with pytest.raises(ValueError, match="likelihood ratio"):
            binary_tv(0.3, r)
        with pytest.raises(ValueError, match="likelihood ratio"):
            binary_informative(0.3, r, 0.1)


# ------------------------------------------------------------ potential_update


def three_agent_model():
    tables = [
        np.array([[0.5, 0.75, 0.5], [0.5, 0.25, 0.5]]),
        np.array([[0.5, 0.5, 0.75], [0.5, 0.5, 0.25]]),
        np.array([[0.4, 0.6, 0.5], [0.6, 0.4, 0.5]]),
    ]
    return LikelihoodModel.from_probabilities(tables)


def identity_round():
    """A round in which no agent of ``PATH3`` is flagged: its matrix is the identity."""
    return build_switching_matrix(PATH3, flagged_mask(3, ()), round=1)


def test_identity_mixing_adds_fresh_evidence_exactly():
    lik = three_agent_model()
    phi = np.arange(9, dtype=float).reshape(3, 3)
    sig = np.array([1, 0, 1])
    out = potential_update(phi, identity_round(), lik.fresh_rows(sig))
    fresh = np.stack([lik.log_lik[i][sig[i]] for i in range(3)])
    assert np.array_equal(out, phi + fresh)


def test_round_zero_convention_is_all_zero_potentials():
    # the recursion starts from nothing accumulated
    lik = three_agent_model()
    out = potential_update(np.zeros((3, 3)), identity_round(), lik.fresh_rows([0, 0, 0]))
    fresh = np.stack([lik.log_lik[i][0] for i in range(3)])
    assert np.array_equal(out, fresh)


def test_potential_update_takes_the_round_and_refuses_other_shapes():
    # the round's SwitchingMatrix, not a bare matrix: Network has checked its rule
    fresh = three_agent_model().fresh_rows([0, 0, 0])
    with pytest.raises(ValueError, match="^need the round's SwitchingMatrix, got ndarray$"):
        potential_update(np.zeros((3, 3)), np.eye(3), fresh)
    for phi, rows in ((np.zeros((2, 3)), fresh[:2]), (np.zeros(3), fresh[0]),
                      (np.zeros((3, 3)), fresh[:, :2])):
        with pytest.raises(ValueError, match=r"^potentials and fresh rows must both be \(3, m\)"):
            potential_update(phi, identity_round(), rows)


def test_recursion_matches_expanded_product_form():
    # unrolled check: potentials at T equal the mixed sum of every past
    # round's fresh evidence, with each round's evidence pushed through
    # the product of all later mixing matrices
    rng = np.random.default_rng(11)
    lik = three_agent_model()
    net = metropolis_weights([(0, 1), (1, 2)], 3)
    rounds = 7
    signals = rng.integers(0, 2, size=(rounds + 1, 3))
    sets = [(), (1,), (0, 1, 2), (), (2,), (0, 2), (1,)]

    phi = np.zeros((3, 3))
    qs = []
    fresh_list = []
    for t in range(1, rounds + 1):
        q = build_switching_matrix(net, flagged_mask(3, sets[t - 1]), round=t)
        qs.append(q)
        fresh_list.append(
            np.stack([lik.log_lik[i][signals[t, i]] for i in range(3)])
        )
        phi = potential_update(phi, q, lik.fresh_rows(signals[t]))

    expanded = np.zeros((3, 3))
    trailing = np.eye(3)
    for t in range(rounds, 0, -1):
        expanded += trailing @ fresh_list[t - 1]
        trailing = trailing @ qs[t - 1].q
    assert np.allclose(phi, expanded, atol=1e-12)


# ------------------------------------------------------ belief_from_potentials


def test_zero_potentials_return_anchor_beliefs():
    mu0 = log_rows([0.2, 0.3, 0.5], [0.6, 0.2, 0.2])
    out = belief_from_potentials(mu0, np.zeros((2, 3)))
    assert np.allclose(out, mu0, atol=1e-12)


def test_per_agent_constant_shift_is_invisible():
    mu0 = log_rows([0.2, 0.3, 0.5], [0.6, 0.2, 0.2])
    phi = np.array([[0.4, -1.2, 0.3], [2.0, 0.1, -0.7]])
    shifted = phi + np.array([[3.7], [-5.2]])
    assert np.allclose(
        belief_from_potentials(mu0, phi),
        belief_from_potentials(mu0, shifted),
        atol=1e-12,
    )


def test_one_identity_round_reproduces_bayes():
    lik = three_agent_model()
    prior = Prior.uniform(3)
    mu0 = initial_state(prior, lik, [0, 0, 0]).log_belief
    sig = np.array([1, 0, 1])
    phi = potential_update(np.zeros((3, 3)), identity_round(), lik.fresh_rows(sig))
    composed = belief_from_potentials(mu0, phi)
    direct = log_normalized(prior.log_mass + lik.fresh_rows([0, 0, 0]) + lik.fresh_rows(sig))
    assert np.allclose(composed, direct, atol=1e-12)


def test_agent_behind_identity_row_stays_bayesian():
    # path 0-1-2 with only the far pair exchanging: row 0 of every mixing
    # matrix is a coordinate row, so agent 0 must evolve by pure Bayes
    rng = np.random.default_rng(29)
    lik = three_agent_model()
    net = metropolis_weights([(0, 1), (1, 2)], 3)
    prior = Prior.uniform(3)
    signals = rng.integers(0, 2, size=(40, 3))

    mu0 = initial_state(prior, lik, signals[0]).log_belief
    phi = np.zeros((3, 3))
    # agent 0's pure Bayes chain: the prior plus the running sum of its rows
    solo = prior.log_mass + np.cumsum(lik.log_lik[0][signals[:, 0]], axis=0)
    for t in range(1, 40):
        q = build_switching_matrix(net, flagged_mask(3, (2,)), round=t)
        assert np.array_equal(q.q[0], np.array([1.0, 0.0, 0.0]))
        phi = potential_update(phi, q, lik.fresh_rows(signals[t]))
        mixed = belief_from_potentials(mu0, phi)
        assert np.allclose(mixed[0], log_normalized(solo[t]), atol=1e-10)


def test_outputs_normalize():
    rng = np.random.default_rng(4)
    lik = three_agent_model()
    mu0 = np.log(np.full((3, 3), 1.0 / 3.0))
    phi = rng.normal(size=(3, 3)) * 5
    out = belief_from_potentials(mu0, phi)
    assert np.allclose(np.exp(out).sum(axis=1), 1.0, atol=1e-10)


@pytest.mark.parametrize("rows", [(3,), (2, 3)], ids=["agents", "replicas-agents"])
def test_a_prior_row_anchors_rows_of_any_batch_shape(rows):
    # round 0 conditions the prior row on each agent's first signal: the
    # broadcast sum, then the shared normaliser, bit for bit
    rng = np.random.default_rng(11)
    prior = Prior.from_probabilities([0.2, 0.3, 0.1, 0.4])
    fresh = rng.normal(size=rows + (4,)) * 3
    x = prior.log_mass + fresh
    want = x - _lse_last(x)
    got = belief_from_potentials(prior.log_mass, fresh)
    assert got.shape == fresh.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize(
    "anchor, phi",
    [((3,), (2, 4)), ((2, 3, 4), (3, 4))],
    ids=["rows-do-not-broadcast", "anchor-enlarges-the-result"],
)
def test_an_anchor_must_broadcast_to_the_potentials(anchor, phi):
    message = f"anchor of shape {anchor} must broadcast to the potentials' shape {phi}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        belief_from_potentials(np.zeros(anchor), np.zeros(phi))
