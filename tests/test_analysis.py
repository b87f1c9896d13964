"""Identifiability diagnostics, rate estimation, and mixing checks."""

import csv
import io
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import AWKWARD_LABELS, bernoulli_table, reference_like_model
from soclearn.analysis import (
    CLASS_TOL,
    _csv_cell,
    _reachable,
    equivalence_classes,
    identifiability_report,
    mixing_gap,
    product_convergence_gap,
    validate_assumptions,
)
from soclearn.harness import ExperimentConfig, run_experiment
from soclearn.model import (
    LikelihoodModel,
    StateSpace,
    metropolis_weights,
    ring_edges,
)

# the reference signal family: fair coin everywhere except one state
D_HALF_QUARTER = 0.5 * math.log(0.5 / 0.25) + 0.5 * math.log(0.5 / 0.75)


def kl(p, q):
    """``report.kl`` of one agent with signal law ``p`` under the realized
    state and ``q`` under the other."""
    lik = LikelihoodModel.from_probabilities([np.column_stack([p, q])])
    return identifiability_report(lik, StateSpace(("p", "q"), 0)).kl[0, 1]


# ------------------------------------------------------------------ report.kl


def test_kl_identical_is_zero():
    assert kl([0.2, 0.3, 0.5], [0.2, 0.3, 0.5]) == 0.0


def test_kl_fair_coin_vs_quarter_coin():
    got = kl([0.5, 0.5], [0.75, 0.25])
    assert got == pytest.approx(D_HALF_QUARTER, abs=1e-15)
    assert got == pytest.approx(0.1438410362, abs=1e-9)


def test_kl_is_asymmetric():
    forward = kl([0.5, 0.5], [0.75, 0.25])
    backward = kl([0.75, 0.25], [0.5, 0.5])
    assert forward != pytest.approx(backward, abs=1e-6)


def test_kl_zero_mass_terms_drop_out():
    assert kl([1.0, 0.0], [0.5, 0.5]) == pytest.approx(math.log(2.0), abs=1e-15)


def test_kl_unmatched_zero_is_infinite():
    # the other state gives no mass to a symbol the realized state emits
    assert kl([0.5, 0.5], [1.0, 0.0]) == np.inf


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
    lik = LikelihoodModel.from_probabilities([[[0.0, 0.5, 0.0], [1.0, 0.5, 1.0]]])
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
    lik = LikelihoodModel.from_probabilities(tables)
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
        same = next(cls for cls in equivalence_classes(lik, i) if t in cls)
        p = np.exp(lik.log_lik[i][:, t])
        for k in range(space.size):
            q = np.exp(lik.log_lik[i][:, k])
            if k in same:
                assert report.kl[i, k] == 0.0
            elif np.any((p > 0.0) & (q == 0.0)):
                assert report.kl[i, k] == np.inf
            else:
                # bit for bit the 1-d sum over the support, in its order
                lp, lq = lik.log_lik[i][p > 0.0][:, [t, k]].T
                assert report.kl[i, k] == np.sum(p[p > 0.0] * (lp - lq))
    n = lik.agent_count
    net = metropolis_weights([(i, j) for i in range(n) for j in range(i + 1, n)], n)
    # one A2 rule, bounded or not: a state that gives zero mass to a
    # symbol the truth emits has divergence -inf and is excluded
    assert validate_assumptions(lik, net, space).a2_violations == report.not_excluded
    assert report.globally_identifiable == (not report.not_excluded)
    # the slowest state is the first false state of maximal divergence
    div = report.network_divergence
    false_states = [k for k in range(space.size) if k != t]
    top = max(div[k] for k in false_states)
    assert report.slowest_state == next(k for k in false_states if div[k] == top)
    assert report.asymptotic_rate == -div[report.slowest_state]


# --------------------------------------------------- report.network_divergence


def bfs_oracle(support):
    """Nodes reached from node 0, one queue entry per node, in plain Python."""
    rows, seen, queue = support.tolist(), {0}, [0]
    for i in queue:
        for j, edge in enumerate(rows[i]):
            if edge and j not in seen:
                seen.add(j)
                queue.append(j)
    return [i in seen for i in range(len(support))]


@st.composite
def supports(draw):
    """Boolean supports of 1-24 nodes from up to 2n random arcs, often disconnected."""
    n = draw(st.integers(1, 24))
    node = st.integers(0, n - 1)
    support = np.zeros((n, n), dtype=bool)
    for i, j in draw(st.lists(st.tuples(node, node), max_size=2 * n)):
        support[i, j] = True
    return support | support.T if draw(st.booleans()) else support


@settings(max_examples=200, deadline=None)
@given(supports())
@example(np.ones((1, 1), dtype=bool))
@example(np.zeros((1, 1), dtype=bool))
@example(np.kron(np.eye(2, dtype=bool), np.ones((3, 3), dtype=bool)))
@example(np.roll(np.eye(511, dtype=bool), 1, axis=1) | np.roll(np.eye(511, dtype=bool), -1, axis=1))
def test_reachable_matches_a_breadth_first_search(support):
    assert _reachable(support).tolist() == bfs_oracle(support)


def test_divergence_is_zero_at_the_realized_state():
    lik = reference_like_model(n=3, m=4)
    space = StateSpace(states=tuple(range(4)), true_state_index=0)
    div = identifiability_report(lik, space).network_divergence
    assert div[0] == 0.0


def test_divergence_single_discriminating_agent():
    # exactly one of n agents tells each false state apart, so the
    # network average is that agent's divergence over n
    n, m = 15, 16
    lik = reference_like_model(n=n, m=m)
    space = StateSpace(states=tuple(range(m)), true_state_index=0)
    div = identifiability_report(lik, space).network_divergence
    for false_state in range(1, m):
        assert div[false_state] == pytest.approx(-D_HALF_QUARTER / n, abs=1e-15)
    assert div[1] == pytest.approx(-0.009589402417, abs=1e-10)


def test_divergence_signs_cross_check_class_structure():
    lik = reference_like_model(n=4, m=5)
    space = StateSpace(states=tuple(range(5)), true_state_index=0)
    div = identifiability_report(lik, space).network_divergence
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


def test_report_rejects_a_state_count_mismatch():
    lik = LikelihoodModel.from_probabilities([bernoulli_table([0.4, 0.5])])
    with pytest.raises(ValueError, match="tables cover 2 states, space has 3"):
        identifiability_report(lik, StateSpace(states=("t", "u", "v"), true_state_index=0))


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


def test_report_summary_names_the_states_not_excluded():
    # both agents are blind to state "v", so A2 fails and no rate is given
    tables = [bernoulli_table([0.5, 0.25, 0.5]), bernoulli_table([0.5, 0.25, 0.5])]
    lik = LikelihoodModel.from_probabilities(tables)
    report = identifiability_report(lik, StateSpace(states=("t", "u", "v"), true_state_index=0))
    lines = report.summary().splitlines()
    assert lines[2:4] == ["globally identifiable: NO", "states not excluded: 'v'"]
    assert not any(line.startswith("asymptotic rate") for line in lines)


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
    from soclearn.analysis import estimate_rate

    values = np.log(np.full(51, 0.5))
    assert estimate_rate(range(51), values, (0, 50)) == pytest.approx(0.0, abs=1e-15)


def test_rate_matches_divergence_for_a_lone_agent():
    from soclearn.analysis import estimate_rate

    config = ExperimentConfig(
        agents=1, states=2, rounds=10000, seed=3, replicas=1, tau=0.5
    )
    record = run_experiment(config)[0]
    rate = estimate_rate(record.stored_rounds, record.log_beliefs[:, 0, 1], (5000, 10000))
    assert rate == pytest.approx(D_HALF_QUARTER, rel=0.15)


def test_rate_window_validation():
    from soclearn.analysis import estimate_rate

    stored, values = (0, 1, 2), np.log(np.full(3, 0.5))
    with pytest.raises(ValueError, match="is empty"):
        estimate_rate(stored, values, (2, 1))
    with pytest.raises(ValueError, match="reaches outside stored rounds"):
        estimate_rate(stored, values, (0, 9))
    with pytest.raises(ValueError, match="fewer than two stored rounds"):
        estimate_rate(stored, values, (1, 1))


@pytest.mark.parametrize("count", [2, 4])
def test_rate_rejects_values_and_rounds_of_unequal_length(count):
    # used to fail with a raw IndexError from the window mask
    from soclearn.analysis import estimate_rate

    with pytest.raises(ValueError, match=f"^values has {count} entries, stored_rounds has 3$"):
        estimate_rate((0, 1, 2), np.zeros(count), (0, 2))


@pytest.mark.parametrize("stored, values, message", [
    ((0, 1, 2), [0.0, np.nan, 1.0], "values must be finite"),
    ((0, 1, 2), [0.0, -np.inf, 1.0], "values must be finite"),
    ((2, 1, 0), [0.0, 0.5, 1.0], "stored_rounds must strictly increase"),
    ((0, 1, 1, 2), [0.0, 0.5, 0.5, 1.0], "stored_rounds must strictly increase"),
], ids=["nan", "-inf", "decreasing", "repeated"])
def test_rate_refuses_input_it_would_fit_wrongly(stored, values, message):
    # a NaN used to come back as the rate, and rounds stored in
    # decreasing order as a window reaching outside rounds [2, 0]
    from soclearn.analysis import estimate_rate

    with pytest.raises(ValueError, match=f"^{message}$"):
        estimate_rate(stored, values, (0, 2))


@pytest.mark.parametrize(
    "window",
    [(2.9, 9.5), (2.0, 9), (2, 9.0), (np.float64(2), 9), ("2", 9), (True, 9),
     (2, 9, 11), (2,)],
    ids=["floats", "float-lo", "float-hi", "numpy-float", "str", "bool",
         "three-bounds", "one-bound"],
)
def test_rate_rejects_a_window_bound_that_is_not_an_integer(window):
    # (2.9, 9.5) used to be truncated to rounds 2..9 without a word, and
    # so was (2, 9, 11); (2,) failed with a raw IndexError
    from soclearn.analysis import estimate_rate

    stored, values = range(11), np.log(np.full(11, 0.5))
    with pytest.raises(ValueError, match="^window bounds must be integers"):
        estimate_rate(stored, values, window)
    assert estimate_rate(stored, values, (np.int64(2), np.int32(9))) == \
        estimate_rate(stored, values, (2, 9))


@pytest.mark.parametrize("thin_every", [None, 7])
def test_rate_matches_polyfit_on_random_windows(thin_every):
    # np.polyfit is the oracle. A slope fit's rounding error scales with
    # the size of the values, not of the slope, and the switching
    # protocol freezes some beliefs for long stretches; so the error is
    # measured against the larger of |slope| and max|y| over the window
    from soclearn.analysis import estimate_rate

    config = ExperimentConfig(
        agents=5, states=4, rounds=600, replicas=2, seed=4, thin_every=thin_every
    )
    rng = np.random.default_rng(17)
    for record in run_experiment(config):
        stored = record.stored_rounds
        for _ in range(100):
            a, b = np.sort(rng.choice(stored.size, 2, replace=False))
            lo, hi = int(stored[a]), int(stored[b])
            agent, false_state = int(rng.integers(5)), int(rng.integers(1, 4))
            keep = (stored >= lo) & (stored <= hi)
            values = record.log_beliefs[keep, agent, false_state]
            want = -np.polyfit(stored[keep].astype(float), values, 1)[0]
            got = estimate_rate(stored, record.log_beliefs[:, agent, false_state], (lo, hi))
            scale = max(abs(want), np.max(np.abs(values)) / (hi - lo))
            assert abs(got - want) <= 1e-12 * scale


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
    from conftest import flagged_mask
    from soclearn.switching import build_switching_matrix

    prod = np.eye(7)
    prev_gap = mixing_gap(prod)
    for t in range(60):
        members = tuple(rng.choice(7, size=int(rng.integers(0, 4)), replace=False))
        q = build_switching_matrix(net, flagged_mask(7, members), round=t + 1)
        prod = q.q @ prod
        gap = mixing_gap(prod)
        assert gap <= prev_gap + 1e-14
        prev_gap = gap


def test_gap_streams_a_generator():
    # 500 factors of 32 KiB each: a list of them would peak near 16 MiB,
    # a running product near a few factors
    size = 64
    factor = np.eye(size).nbytes

    def factors():
        for _ in range(500):
            yield np.full((size, size), 1.0 / size)

    tracemalloc.start()
    try:
        gap = product_convergence_gap(factors())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert gap <= 1e-12
    assert peak < 6 * factor


def test_gap_requires_matrices():
    with pytest.raises(ValueError):
        product_convergence_gap([])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_gap_refuses_a_matrix_it_cannot_measure(bad):
    # a NaN entry used to give a NaN gap
    with pytest.raises(ValueError, match="must be finite"):
        mixing_gap([[bad, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="^matrix 1 must be finite"):
        product_convergence_gap([np.eye(2), [[bad, 0.0], [0.0, 1.0]]])


@pytest.mark.parametrize("matrix", [np.ones(2), np.ones((2, 3)), np.ones((1, 2, 2))],
                         ids=["1-d", "2x3", "3-d"])
def test_gap_refuses_a_matrix_that_is_not_square(matrix):
    with pytest.raises(ValueError, match="^need a square matrix$"):
        mixing_gap(matrix)


def test_gap_names_the_first_matrix_of_another_shape():
    # used to surface as numpy's raw matmul core-dimension error
    with pytest.raises(ValueError, match=r"^matrix 2 has shape \(3, 3\), not \(2, 2\)$"):
        product_convergence_gap([np.eye(2), np.eye(2), np.eye(3), np.eye(4)])
    with pytest.raises(ValueError, match=r"^matrix 0 has shape \(2, 3\), not \(2, 2\)$"):
        product_convergence_gap([np.ones((2, 3))] * 2)


# ----------------------------------------------------------------- _csv_cell


@given(st.one_of(st.sampled_from(AWKWARD_LABELS), st.text(), st.floats(), st.integers()))
def test_csv_cell_quotes_as_the_csv_module_does(label):
    buf = io.StringIO(newline="")
    csv.writer(buf).writerow([label, ""])
    assert _csv_cell(label) + ",\r\n" == buf.getvalue()

