"""Shared pytest plumbing: the acceptance suite's criterion report, the
closed-form Bayes oracle, the 60-digit protocol oracle, the flagged-mask
helper, the binary signal tables the suites build their models from, and
the configs, strategies, reference rounds, CSV oracles and config-file
helpers that more than one test file reads."""

import csv
import decimal
import io
import json
import os
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume
from hypothesis import strategies as st

from soclearn import harness
from soclearn.analysis import validate_assumptions
from soclearn.harness import (
    GENERATOR_NAME,
    ExperimentConfig,
    build_model,
    generate_signals,
    reference_config,
)
from soclearn.learning import initial_state, run_round
from soclearn.model import LikelihoodModel

CRITERION_RESULTS = {}


def bernoulli(p1s):
    """A binary signal table as config ``tables`` take it: P(symbol 1 | state k) is ``p1s[k]``."""
    return (tuple(1.0 - p for p in p1s), tuple(p1s))


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


def log_normalized(rows):
    """Log rows ``(..., m)`` shifted so each exponentiates to one.

    Applied to the prior plus the running sum of an agent's fresh
    log-likelihood rows, this is that agent's pure Bayes posterior.
    """
    rows = np.asarray(rows, dtype=float)
    peak = rows.max(axis=-1, keepdims=True)
    return rows - peak - np.log(np.sum(np.exp(rows - peak), axis=-1, keepdims=True))


def flagged_mask(n: int, members) -> np.ndarray:
    """The ``(n,)`` boolean mask with the agents in ``members`` flagged."""
    mask = np.zeros(n, dtype=bool)
    mask[list(members)] = True
    return mask


def record_criterion(number: int, title: str, passed: bool, detail: str) -> bool:
    """Stash one criterion verdict for the end-of-run report."""
    CRITERION_RESULTS[number] = (title, passed, detail)
    return passed


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not CRITERION_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(CRITERION_RESULTS):
        title, passed, detail = CRITERION_RESULTS[number]
        verdict = "PASS" if passed else "FAIL"
        terminalreporter.write_line(
            f"criterion {number:2d} [{verdict}] {title}: {detail}"
        )


CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def settling_config(**overrides):
    # five agents on a complete graph, every state distinguishable by
    # several of them; strong signals settle all agents well inside the
    # horizon
    base = dict(
        agents=5,
        states=4,
        true_state=0,
        topology_kind="complete",
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


@st.composite
def engine_configs(draw):
    """Small random experiments, some of which fail A1 or A3.

    1-6 agents on a random edge set, usually grown from a spanning tree
    (connected) and sometimes not; Metropolis or explicit weights on it.
    Tables over 2-4 states with 2-4 symbols per agent, now and then with
    zero entries; uniform or skewed explicit priors; three thresholds;
    the default thinning or any stride up to the horizon.
    """
    n, m = draw(st.integers(1, 6)), draw(st.integers(2, 4))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = set()
    if pairs:
        edges = set(draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))))
    if draw(st.integers(0, 3)):
        edges |= {(draw(st.integers(0, k - 1)), k) for k in range(1, n)}
    net = {"topology_kind": "edges", "topology_edges": tuple(sorted(edges))}
    if draw(st.booleans()):
        degree = max((sum(k in e for e in edges) for k in range(n)), default=0)
        w = np.zeros((n, n))
        for i, j in sorted(edges):
            w[i, j] = w[j, i] = draw(st.integers(1, 4)) / (4.0 * (1 + degree))
        w[np.arange(n), np.arange(n)] = 1.0 - w.sum(axis=1)
        net = {"weight_matrix": w.tolist()}
    weight = st.integers(0 if draw(st.integers(0, 4)) == 0 else 1, 9)
    tables = []
    for _ in range(n):
        s = draw(st.integers(2, 4))
        t = np.array(draw(st.lists(weight, min_size=s * m, max_size=s * m)), float)
        t = t.reshape(s, m)
        t[0] += t.sum(axis=0) == 0.0
        tables.append((t / t.sum(axis=0)).tolist())
    prior = {}
    if draw(st.booleans()):
        decades = draw(st.lists(st.integers(-8, 0), min_size=m, max_size=m))
        mass = 10.0 ** np.array(decades)
        prior = {"prior_mass": (mass / mass.sum()).tolist()}
    rounds = draw(st.integers(1, 40))
    return ExperimentConfig(
        agents=n, states=m, true_state=draw(st.integers(0, m - 1)),
        tables=tables,
        tau=draw(st.sampled_from([1e-17, 0.05, 1.0])),
        rounds=rounds, replicas=draw(st.integers(1, 2)),
        seed=draw(st.integers(0, 2**32)),
        thin_every=draw(st.one_of(st.none(), st.integers(1, rounds))), **net, **prior,
    )


def valid_model(config):
    """``build_model`` of a config that passes A1-A3; rejects the example otherwise."""
    space, prior, lik, net = build_model(config)
    assume(validate_assumptions(lik, net, space).passed)
    return space, prior, lik, net


def reference_rounds(config):
    """``(state, signals, new_state, switching, tv)`` of each ``run_round``
    step, replica 0."""
    space, prior, lik, net = valid_model(config)
    sig = generate_signals(lik, space, config.seed, config.rounds + 1)
    state = initial_state(prior, lik, sig[0])
    for t in range(1, config.rounds + 1):
        new, q, tv = run_round(state, net, lik, config.tau, sig[t])
        yield state, sig[t], new, q, tv
        state = new


# a verdict whose oracle margin |tv - tau| / tau is at most this could
# go either way on a host whose last bits differ
FRAGILE_MARGIN = Decimal("1e-9")


def decimal_protocol(config, replica, engine_verdicts):
    """The protocol run from its equations in 60-digit ``decimal``.

    From the package it takes only ``valid_model``'s model objects and
    the signals of ``generate_signals``; every rule is written here
    afresh, in the linear domain, with ``L = exp(log_lik)`` and the
    prior mass ``exp(log_mass)`` taken exactly. Round 0 conditions the
    prior on each agent's first signal. In round t each agent's Bayes
    posterior is ``mu_k L_k / sum_j mu_j L_j``, its TV is ``0.5 sum_k
    |posterior_k - mu_k|``, and it is flagged when ``tv < tau``. An
    edge fires when an endpoint is flagged; the round's dense matrix
    gives a fired edge its network weight and the diagonal the rest of
    the row. Potentials follow ``phi_t = Q_t phi_(t-1) + log L(s_t)``
    from zero, and beliefs ``mu_t,k = mu_0,k exp(phi_t,k)``, normalised.

    Returns ``(tvs, beliefs, fragile)``: the ``(rounds, n)`` TVs, the
    ``(rounds + 1, n, m)`` beliefs, and the ``(t, i)`` of each fragile
    verdict, one whose margin ``|tv - tau| / tau`` is at most
    ``FRAGILE_MARGIN``. There the oracle applies ``engine_verdicts[t -
    1, i]``, so the two runs stay comparable; elsewhere its own.
    """
    space, prior, lik, net = valid_model(config)
    signals = generate_signals(lik, space, config.seed, config.rounds + 1, replica=replica)
    n, m = net.n, lik.state_count
    with decimal.localcontext(decimal.Context(prec=60)):
        exp = [[[Decimal(float(v)).exp() for v in row] for row in table] for table in lik.log_lik]
        tau = Decimal(config.tau)
        weights = [[Decimal(float(w)) for w in row] for row in net.weights]

        def normalised(rows):
            return [[v / sum(row) for v in row] for row in rows]

        mass = [Decimal(float(v)).exp() for v in prior.log_mass]
        mu0 = normalised([[mass[k] * exp[i][signals[0, i]][k] for k in range(m)]
                          for i in range(n)])
        phi = [[Decimal(0)] * m for _ in range(n)]
        tvs, beliefs, fragile = [], [mu0], []
        for t in range(1, config.rounds + 1):
            mu, lik_t = beliefs[-1], [exp[i][signals[t, i]] for i in range(n)]
            post = normalised([[mu[i][k] * lik_t[i][k] for k in range(m)] for i in range(n)])
            tv = [sum(abs(p - b) for p, b in zip(post[i], mu[i])) / 2 for i in range(n)]
            flagged = []
            for i in range(n):
                if abs(tv[i] - tau) / tau <= FRAGILE_MARGIN:
                    fragile.append((t, i))
                    flagged.append(bool(engine_verdicts[t - 1, i]))
                else:
                    flagged.append(tv[i] < tau)
            q = [[weights[i][j] if i != j and weights[i][j] > 0 and (flagged[i] or flagged[j])
                  else Decimal(0) for j in range(n)] for i in range(n)]
            for i in range(n):
                q[i][i] = 1 - sum(q[i])
            phi = [[sum(q[i][j] * phi[j][k] for j in range(n))
                    + Decimal(float(lik.log_lik[i][signals[t, i], k])) for k in range(m)]
                   for i in range(n)]
            tvs.append(tv)
            beliefs.append(normalised([[mu0[i][k] * phi[i][k].exp() for k in range(m)]
                                       for i in range(n)]))
    return tvs, beliefs, fragile


def beliefs_csv_rows(path):
    """The two comment lines and the data rows of a beliefs.csv, as ``csv`` reads them."""
    with open(path, newline="") as fh:
        comments = [next(fh), next(fh)]
        rows = list(csv.reader(fh))
    assert rows[0] == ["replica", "t", "agent", "state_label", "belief"]
    return comments, rows[1:]


def oracle_beliefs_csv(records, config) -> bytes:
    """beliefs.csv as one ``csv.writer`` row per belief writes it."""
    buf = io.StringIO(newline="")
    buf.write(f"# generator: {GENERATOR_NAME}\n")
    buf.write(f"# seed: {config.seed}\n")
    writer = csv.writer(buf)
    writer.writerow(["replica", "t", "agent", "state_label", "belief"])
    labels = build_model(config)[0].states
    for rec in records:
        belief = np.exp(rec.log_beliefs)
        n_agents = belief.shape[1]
        for s, t in enumerate(rec.stored_rounds):
            for i in range(n_agents):
                for label, value in zip(labels, belief[s, i]):
                    writer.writerow(
                        [rec.replica, int(t), i, label, format(value, ".17g")]
                    )
    return buf.getvalue().encode()


# labels the csv module must quote, an empty one, one it leaves
# unquoted despite its space, ones a %-template must escape, and numbers
AWKWARD_LABELS = ("a,b", 'say "hi"', "line\nbreak", "", " lead", "cr\r", '"', "50%", "%s",
                  0.1, 3)


EXPORT_CASES = [
    pytest.param(settling_config(replicas=2, rounds=25), id="two-replicas"),
    pytest.param(settling_config(replicas=1, rounds=10, thin_every=3), id="thinned"),
    pytest.param(
        reference_config(
            agents=len(AWKWARD_LABELS) - 1, states=len(AWKWARD_LABELS),
            state_labels=AWKWARD_LABELS,
            replicas=2, rounds=20,
        ),
        id="awkward-labels",
    ),
    pytest.param(
        settling_config(replicas=2, rounds=harness._SIGNAL_CHUNK + 37),
        id="past-a-signal-chunk",
    ),
    pytest.param(settling_config(replicas=2, rounds=1), id="one-round"),
    pytest.param(settling_config(replicas=2, rounds=40, comparison_agent=3),
                 id="designated-agent-3"),
]


def write_config(tmp_path, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config.to_dict()))
    return path


def package_env() -> dict:
    """The environment, with this checkout's package first on the path."""
    src = str(Path(harness.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
