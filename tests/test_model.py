"""Domain types: state space, prior, likelihoods, network, assumptions."""

import itertools
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soclearn.analysis import validate_assumptions
from soclearn.cli import main
from soclearn.model import (
    PROB_SUM_TOL,
    BeliefState,
    LikelihoodModel,
    Network,
    Prior,
    StateSpace,
    _check_mixing,
    complete_edges,
    metropolis_weights,
    ring_edges,
)
from soclearn.switching import build_switching_matrix


def bernoulli_table(p_one_per_state):
    # rows are symbols {0, 1}, columns are states
    return np.array([[1.0 - p for p in p_one_per_state], list(p_one_per_state)])


def reference_like_model(n=4, m=5, p_eq=0.5, p_diff=0.25):
    # agent i's signal law differs only in state 1 + (i mod (m-1))
    tables = []
    for i in range(n):
        special = 1 + (i % (m - 1))
        tables.append(
            bernoulli_table([p_diff if k == special else p_eq for k in range(m)])
        )
    return LikelihoodModel.from_probabilities(tables)


# ---------------------------------------------------------------- StateSpace


def test_state_space_basics():
    space = StateSpace(states=("a", "b", "c"), true_state_index=1)
    assert space.size == 3


def test_state_space_rejects_duplicate_labels():
    with pytest.raises(ValueError):
        StateSpace(states=("a", "a"), true_state_index=0)


def test_state_space_rejects_single_state():
    with pytest.raises(ValueError):
        StateSpace(states=("only",), true_state_index=0)


def test_state_space_rejects_bad_true_index():
    with pytest.raises(ValueError):
        StateSpace(states=("a", "b"), true_state_index=2)


@pytest.mark.parametrize("index", [0.5, 1.0, "1", True, -1, None])
def test_state_space_rejects_a_true_index_that_is_not_an_integer_index(index):
    # 0.5 used to construct, and indexing the labels by it then raised a raw TypeError
    with pytest.raises(ValueError, match="^true_state_index must be an integer in"):
        StateSpace(states=("a", "b"), true_state_index=index)
    assert StateSpace(states=("a", "b"), true_state_index=np.int64(1)).true_state_index == 1


# --------------------------------------------------------------------- Prior


def test_prior_uniform():
    prior = Prior.uniform(4)
    assert np.allclose(np.exp(prior.log_mass), 0.25, atol=1e-15)


def test_prior_from_probabilities_round_trips():
    prior = Prior.from_probabilities([0.1, 0.2, 0.7])
    assert np.allclose(np.exp(prior.log_mass), [0.1, 0.2, 0.7], atol=1e-15)


def test_prior_rejects_zero_mass():
    # every state needs positive prior mass
    with pytest.raises(ValueError):
        Prior.from_probabilities([1.0, 0.0])


def test_prior_rejects_unnormalized():
    # the sum used to print as a numpy repr, np.float64(1.1)
    with pytest.raises(ValueError, match=r"^prior mass sums to 1\.1\d*, not 1$"):
        Prior.from_probabilities([0.5, 0.6])


# ----------------------------------------------------------- LikelihoodModel


def test_likelihood_columns_must_normalize():
    bad = np.array([[0.5, 0.4], [0.4, 0.6]])  # first column sums to 0.9
    with pytest.raises(ValueError):
        LikelihoodModel.from_probabilities([bad])


def test_likelihood_accepts_zero_entries():
    table = np.array([[1.0, 0.5], [0.0, 0.5]])
    lik = LikelihoodModel.from_probabilities([table])
    assert lik.log_bound == np.inf
    assert np.isneginf(lik.log_lik[0][1, 0])


def test_zero_entries_fail_a1():
    # the constructor takes the zero; validate_assumptions is where A1 fails
    tables = [bernoulli_table([0.0, 0.5, 0.25]), bernoulli_table([0.5, 0.25, 0.5])]
    lik = LikelihoodModel.from_probabilities(tables)
    net = metropolis_weights([(0, 1)], 2)
    space = StateSpace(states=("t", "u", "v"), true_state_index=0)
    report = validate_assumptions(lik, net, space)
    assert not report.a1_passed and report.log_bound == np.inf
    assert report.a2_passed and report.a3_passed
    assert not report.passed
    assert "A1 bounded likelihoods: FAIL (log bound inf)" in report.summary()


def test_log_bound_is_exact_max_entry():
    lik = LikelihoodModel.from_probabilities([bernoulli_table([0.5, 0.25])])
    entries = np.abs(lik.log_lik[0])
    assert lik.log_bound == entries.max()
    assert lik.log_bound == abs(math.log(0.25))
    assert np.isfinite(lik.log_bound)


def test_likelihood_symbol_lookup():
    # a symbol is its table row index: fresh_rows reads that row, and
    # rejects an index outside the table
    lik = LikelihoodModel.from_probabilities([bernoulli_table([0.5, 0.25])])
    assert np.array_equal(lik.fresh_rows([1]), [np.log([0.5, 0.25])])
    for bad in (2, -1):
        with pytest.raises(ValueError, match=f"signal index {bad} hits"):
            lik.fresh_rows([bad])


def test_padded_log_lik_pads_with_neginf():
    tables = [
        bernoulli_table([0.5, 0.25]),
        np.full((4, 2), 0.25),  # four-symbol alphabet
    ]
    lik = LikelihoodModel.from_probabilities(tables)
    padded = lik.padded_log_lik
    assert padded.shape == (2, 4, 2)
    assert np.all(np.isneginf(padded[0, 2:, :]))
    assert np.allclose(padded[1], np.log(0.25))


@st.composite
def ragged_models(draw):
    """1-4 agents over 2-64 states, alphabets of 1-5 symbols, zero entries likely."""
    m = draw(st.integers(2, 64))
    tables = []
    for _ in range(draw(st.integers(1, 4))):
        weight = st.lists(st.sampled_from([0.0, 0.0, 0.1, 0.5, 1.0, 3.0]), min_size=m, max_size=m)
        w = np.array(draw(st.lists(weight, min_size=1, max_size=5)))
        w[0] += w.sum(axis=0) == 0.0
        tables.append(w / w.sum(axis=0))
    return LikelihoodModel.from_probabilities(tables)


def cdf_oracle(lik, k):
    """Each agent's running sum of its law under state k, last entry 1.0, inf padded."""
    out = np.full((lik.agent_count, max(len(t) for t in lik.log_lik)), np.inf)
    for i, table in enumerate(lik.log_lik):
        out[i, : len(table)] = np.cumsum(np.exp(table[:, k]))
        out[i, len(table) - 1] = 1.0
    return out


@settings(max_examples=100, deadline=None)
@given(ragged_models())
def test_signal_cdf_matches_the_per_agent_laws_bit_for_bit(lik):
    cdf = lik.signal_cdf
    assert cdf.shape == lik.padded_log_lik.shape
    assert cdf is lik.signal_cdf and not cdf.flags.writeable
    for k in range(lik.state_count):
        assert np.array_equal(cdf[:, :, k].view(np.uint64), cdf_oracle(lik, k).view(np.uint64))


# ------------------------------------------------------------------- Network


def test_metropolis_complete_three():
    net = metropolis_weights(complete_edges(3), 3)
    # degrees all 2, so every weight is 1/(1+2) and the diagonal fills to 1/3
    assert np.allclose(net.weights, 1.0 / 3.0, atol=1e-15)


def test_metropolis_single_edge():
    net = metropolis_weights([(0, 1)], 2)
    assert np.array_equal(net.weights, np.array([[0.5, 0.5], [0.5, 0.5]]))


def test_metropolis_isolated_single_agent():
    net = metropolis_weights([], 1)
    assert np.array_equal(net.weights, np.array([[1.0]]))


def test_metropolis_ring_weights():
    net = metropolis_weights(ring_edges(5), 5)
    w = net.weights
    assert np.allclose(w[0, 1], 1.0 / 3.0, atol=1e-15)
    assert np.allclose(np.diag(w), 1.0 / 3.0, atol=1e-15)
    assert w[0, 2] == 0.0


def test_metropolis_disconnected_fails_a3():
    net = metropolis_weights([(0, 1), (2, 3)], 4)
    assert np.array_equal(net.weights, np.kron(np.eye(2), np.full((2, 2), 0.5)))
    lik = reference_like_model(n=4, m=5)
    space = StateSpace(states=tuple(range(5)), true_state_index=0)
    report = validate_assumptions(lik, net, space)
    assert not report.a3_passed and report.a3_unreachable == (2, 3)
    assert "A3 connected network: FAIL (unreachable agents: [2, 3])" in report.summary()


@st.composite
def edge_lists(draw):
    n = draw(st.integers(2, 40))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    return n, draw(st.lists(st.sampled_from(pairs), max_size=3 * n))


@settings(max_examples=100, deadline=None)
@given(edge_lists())
def test_metropolis_matches_the_per_edge_loop(case):
    # the loop form of the construction is the bit-for-bit reference
    n, edges = case
    pairs = {(min(i, j), max(i, j)) for i, j in edges}
    degree = [sum(k in pair for pair in pairs) for k in range(n)]
    w = np.zeros((n, n))
    for i, j in pairs:
        w[i, j] = w[j, i] = 1.0 / (1.0 + max(degree[i], degree[j]))
    for i in range(n):
        w[i, i] = 1.0 - np.sum(w[i])
    assert np.array_equal(metropolis_weights(edges, n).weights, w)


def test_metropolis_rejects_self_loop_input():
    with pytest.raises(ValueError):
        metropolis_weights([(0, 0), (0, 1)], 2)


@pytest.mark.parametrize("edge", [(0, 1.7), (0, True), ("1", 2), (np.float64(0), 1), (None, 1)])
def test_metropolis_rejects_node_ids_that_are_not_integers(edge):
    # int() used to truncate (0, 1.7) to the edge (0, 1) without a word
    with pytest.raises(ValueError, match=r"^edge \(.*\): node ids must be integers$"):
        metropolis_weights([edge, (1, 2)], 3)


@pytest.mark.parametrize("edge", [(0, 1, 2), (0,), 1])
def test_metropolis_rejects_an_edge_that_is_not_a_pair(edge):
    # (0, 1, 2) used to build the edge (0, 1) without a word
    with pytest.raises(ValueError, match=r"must be a pair of node ids$"):
        metropolis_weights([edge, (1, 2)], 3)


@pytest.mark.parametrize(
    "build, n",
    [(ring_edges, True), (complete_edges, True), (ring_edges, 2.5), (complete_edges, 2.5),
     (ring_edges, 0), (complete_edges, -1), (lambda n: metropolis_weights([], n), 0),
     (lambda n: metropolis_weights([], n), True)],
)
def test_graph_builders_refuse_a_node_count_that_is_not_a_positive_integer(build, n):
    # the two True cases used to build empty graphs; 2.5 and metropolis_weights([], True)
    # raised a raw TypeError, and metropolis_weights([], 0) numpy's empty-reduction error
    with pytest.raises(ValueError, match=rf"^n must be an integer >= 1, got {n!r}$"):
        build(n)


def test_metropolis_accepts_numpy_integer_node_ids():
    edges = [(np.int64(0), np.int32(1)), (np.intp(1), 2)]
    assert np.array_equal(metropolis_weights(edges, 3).weights,
                          metropolis_weights([(0, 1), (1, 2)], 3).weights)


def test_network_invariants_hold_for_constructions():
    for edges, n in [(ring_edges(6), 6), (complete_edges(4), 4), ([(0, 1)], 2)]:
        net = metropolis_weights(edges, n)
        w = net.weights
        assert np.array_equal(w, w.T)
        assert np.allclose(w.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(np.diag(w) > 0)
        off = w.copy()
        np.fill_diagonal(off, 0.0)
        for i in range(n):
            for j in range(n):
                if i != j:
                    assert (off[i, j] > 0) == (
                        (min(i, j), max(i, j)) in {tuple(sorted(e)) for e in edges}
                    )


def test_network_neighbors():
    net = metropolis_weights(ring_edges(4), 4)
    assert np.flatnonzero(net.adjacency[0]).tolist() == [1, 3]


@st.composite
def symmetric_weights(draw):
    # random symmetric support and weights; the diagonal takes up each
    # row's remainder and stays positive
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.0, 0.3, 0.7, 1.0]))
    upper = np.triu(rng.uniform(0.01, 1.0, (n, n)) * (rng.random((n, n)) < density), 1)
    w = upper + upper.T
    w /= 1.0 + w.sum(axis=1).max()
    np.fill_diagonal(w, 1.0 - w.sum(axis=1))
    return w


@settings(max_examples=150, deadline=None)
@given(symmetric_weights())
def test_network_structure_is_read_off_the_weights(w):
    net = Network(w)
    n = w.shape[0]
    off = (w > 0.0) & ~np.eye(n, dtype=bool)
    assert net.n == n
    assert np.array_equal(net.adjacency, off)
    for i in range(n):
        assert np.array_equal(np.flatnonzero(net.adjacency[i]), np.flatnonzero(off[i]))


SELF_WEIGHT = "weights must leave a positive self-weight, 1 minus the agent's summed edge weights"
# both rows pass every mixing check, but 1 - 1.0 leaves no self-weight when the edge fires
NO_SELF_WEIGHT = [[1e-20, 1 - 1e-20], [1 - 1e-20, 1e-20]]


@pytest.mark.parametrize(
    "weights, message",
    [
        # rows sum to one, but columns 1 and 2 do not: entry (1, 2) has no mirror
        ([[0.9, 0.1, 0.0], [0.1, 0.8, 0.1], [0.0, 0.0, 1.0]], "weights must be symmetric"),
        # doubly stochastic but not symmetric: a cyclic shift mixed with the identity
        ([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]], "weights must be symmetric"),
        # rows sum to one, columns do not: the 2-agent case
        ([[0.5, 0.5], [0.2, 0.8]], "weights must be symmetric"),
        ([[0.5, 0.25], [0.25, 0.5]], "weights must be doubly stochastic"),
        # symmetric and doubly stochastic, but agent 0 drops its own potential
        ([[0.0, 0.5, 0.5], [0.5, 0.5, 0.0], [0.5, 0.0, 0.5]],
         "weights must have a positive diagonal"),
        # the swap: every agent hands all its potential to the other
        ([[0.0, 1.0], [1.0, 0.0]], "weights must have a positive diagonal"),
        (NO_SELF_WEIGHT, "agent 0: " + SELF_WEIGHT),
    ],
    ids=["column-sums-off", "asymmetric", "asymmetric-rows-stochastic", "symmetric-rows-short",
         "zero-diagonal", "zero-diagonal-swap", "self-weight-rounds-to-zero"],
)
def test_network_refuses_weights_that_cannot_mix(weights, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Network(weights)


@st.composite
def nearly_full_weights(draw):
    # symmetric and doubly stochastic within PROB_SUM_TOL: the fullest
    # row's edge weights sum to about 1 and it stores a tiny self-weight
    n = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.3, 0.7, 1.0]))
    upper = np.triu(rng.uniform(0.01, 1.0, (n, n)) * (rng.random((n, n)) < density), 1)
    upper[0, 1] = rng.uniform(0.01, 1.0)  # at least one edge
    w = upper + upper.T
    w /= w.sum(axis=1).max()
    self_weight = draw(st.floats(1e-20, 1e-13))
    diagonal = np.maximum(1.0 - w.sum(axis=1), self_weight)
    diagonal[np.argmax(w.sum(axis=1))] = self_weight
    np.fill_diagonal(w, diagonal)
    assert np.max(np.abs(w.sum(axis=1) - 1.0)) <= PROB_SUM_TOL
    return w


@settings(max_examples=200, deadline=None)
@given(nearly_full_weights())
def test_every_switching_matrix_of_an_accepted_network_mixes(w):
    # Network checks its rule once; every round's matrix must then pass
    # the mixing check that no round repeats
    try:
        net = Network(w)
    except ValueError as exc:
        assert str(exc).endswith(SELF_WEIGHT)
        return
    for mask in itertools.product([False, True], repeat=net.n):
        _check_mixing(build_switching_matrix(net, np.array(mask), 1).q, "switching matrix")


def test_cli_validate_names_the_self_weight_rule(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"agents": 2, "states": 3, "tau": 1e-3, "seed": 3,
                                "weight_matrix": NO_SELF_WEIGHT}))
    assert main(["validate", "--config", str(path)]) == 1
    assert capsys.readouterr().err == f"error: agent 0: {SELF_WEIGHT}\n"


def test_network_disconnected_weights_fail_a3():
    net = Network(np.eye(3))
    assert not net.adjacency.any()
    lik = reference_like_model(n=3, m=4)
    space = StateSpace(states=tuple(range(4)), true_state_index=0)
    report = validate_assumptions(lik, net, space)
    assert report.a1_passed and report.a2_passed
    assert not report.a3_passed and report.a3_unreachable == (1, 2)


@pytest.mark.parametrize(
    "weights",
    [
        [[np.nan]],
        [[0.5, np.nan, 0.25], [np.nan, 0.5, 0.25], [0.25, 0.25, 0.5]],
    ],
    ids=["1x1", "3x3-offdiagonal-pair"],
)
def test_network_rejects_nan(weights):
    with pytest.raises(ValueError, match="NaN"):
        Network(weights)


@pytest.mark.parametrize(
    "weights",
    [
        [[np.inf]],
        [[0.5, np.inf], [np.inf, 0.5]],
        [[0.5, np.inf], [-np.inf, 0.5]],
    ],
    ids=["1x1", "mirrored-inf-pair", "mirrored-plus-minus-inf-pair"],
)
def test_network_rejects_inf_without_a_warning(weights):
    # the suite turns warnings into errors, so an inf - inf on the way to
    # the rejection would surface as a RuntimeWarning, not a ValueError
    with pytest.raises(ValueError, match="finite"):
        Network(weights)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.5], ids=["nan", "inf", "-inf", "neg"])
def test_probability_tables_reject_non_finite_and_negative_entries_without_a_warning(bad):
    table = [[0.5, bad], [0.5, 0.5]]
    with pytest.raises(ValueError, match="^agent 0: probabilities must be finite and >= 0$"):
        LikelihoodModel.from_probabilities([table])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0], ids=["nan", "inf", "-inf", "zero"])
def test_prior_rejects_non_finite_and_nonpositive_mass_without_a_warning(bad):
    with pytest.raises(ValueError, match="^prior must place positive, finite mass on every state$"):
        Prior.from_probabilities([0.5, bad])


def test_strong_connectivity_check():
    # A3 is the one connectivity check: a search over the positive weights
    lik = reference_like_model(n=2, m=3)
    space = StateSpace(states=(0, 1, 2), true_state_index=0)
    assert validate_assumptions(lik, Network([[0.5, 0.5], [0.5, 0.5]]), space).a3_passed
    report = validate_assumptions(lik, Network(np.eye(2)), space)
    assert not report.a3_passed and report.a3_unreachable == (1,)


# --------------------------------------------------------------- BeliefState


def test_belief_state_requires_normalized_rows():
    logb = np.log(np.array([[0.5, 0.4]]))  # sums to 0.9
    with pytest.raises(ValueError):
        BeliefState(
            log_belief=logb,
            potentials=np.zeros((1, 2)),
            log_belief_initial=logb,
            round=0,
        )


def test_belief_state_round_zero_needs_zero_potentials():
    logb = np.log(np.full((1, 2), 0.5))
    with pytest.raises(ValueError):
        BeliefState(
            log_belief=logb,
            potentials=np.ones((1, 2)),
            log_belief_initial=logb,
            round=0,
        )


@pytest.mark.parametrize("round_", [0.5, 2.0, "1", True, -1, None])
def test_belief_state_rejects_a_round_that_is_not_a_nonnegative_integer(round_):
    # round 0.5 used to construct, and run_round failed on it only later
    logb = np.log(np.full((1, 2), 0.5))
    with pytest.raises(ValueError, match="^round must be an integer >= 0, got "):
        BeliefState(log_belief=logb, potentials=np.zeros((1, 2)),
                    log_belief_initial=logb, round=round_)
    state = BeliefState(log_belief=logb, potentials=np.zeros((1, 2)),
                        log_belief_initial=logb, round=np.int64(3))
    assert state.round == 3


def test_belief_state_arrays_are_readonly():
    logb = np.log(np.full((1, 2), 0.5))
    state = BeliefState(
        log_belief=logb,
        potentials=np.zeros((1, 2)),
        log_belief_initial=logb,
        round=0,
    )
    with pytest.raises(ValueError):
        state.potentials[0, 0] = 1.0


# ------------------------------------------------------- validate_assumptions


def test_assumptions_pass_on_reference_structure():
    # each agent singles out one false state; jointly they cover all of them
    lik = reference_like_model(n=4, m=5)
    net = metropolis_weights(ring_edges(4), 4)
    space = StateSpace(states=tuple(range(5)), true_state_index=0)
    report = validate_assumptions(lik, net, space)
    assert report.passed
    assert report.a1_passed and report.a2_passed and report.a3_passed
    assert report.log_bound == pytest.approx(abs(math.log(0.25)))
    assert report.a2_violations == ()


def test_assumptions_flag_unidentifiable_state():
    # nobody distinguishes state 2 from the true state
    tables = [
        bernoulli_table([0.5, 0.25, 0.5]),
        bernoulli_table([0.5, 0.25, 0.5]),
    ]
    lik = LikelihoodModel.from_probabilities(tables)
    net = metropolis_weights([(0, 1)], 2)
    space = StateSpace(states=("t", "u", "v"), true_state_index=0)
    report = validate_assumptions(lik, net, space)
    assert not report.a2_passed
    assert report.a2_violations == (2,)
    assert not report.passed
    assert "A2" in report.summary()


def test_assumptions_flag_disconnected_network():
    lik = reference_like_model(n=4, m=5)
    w = np.zeros((4, 4))
    w[0, 1] = w[1, 0] = 0.5
    w[2, 3] = w[3, 2] = 0.5
    np.fill_diagonal(w, 0.5)
    net = Network(w)
    space = StateSpace(states=tuple(range(5)), true_state_index=0)
    report = validate_assumptions(lik, net, space)
    assert not report.a3_passed
    assert report.a3_unreachable == (2, 3)


def test_assumptions_reject_dimension_mismatch():
    lik = reference_like_model(n=3, m=4)
    net = metropolis_weights(ring_edges(4), 4)
    space = StateSpace(states=tuple(range(4)), true_state_index=0)
    with pytest.raises(ValueError):
        validate_assumptions(lik, net, space)


def test_validate_assumptions_is_pure():
    lik = reference_like_model()
    net = metropolis_weights(ring_edges(4), 4)
    space = StateSpace(states=tuple(range(5)), true_state_index=0)
    first = validate_assumptions(lik, net, space)
    second = validate_assumptions(lik, net, space)
    assert first == second
