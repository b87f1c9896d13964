"""Experiment configuration, simulation engine, and result export.

An ``ExperimentConfig`` declares a full scenario: model family,
network, threshold, horizon, seeding, and replication.
``run_experiment`` advances all replicas of the normative round,
``learning.run_round``, in lockstep with batched array arithmetic and
records trajectories. It draws its signals through
``model.generate_signals``, whose streams are a pure function of
``(seed, replica)``, so results are reproducible run to run and
replica by replica.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
from array import array
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Optional

import numpy as np

from .analysis import _csv_cell, estimate_rate, identifiability_report, validate_assumptions
from .learning import _bayes_tv_rows, _lse_last, belief_from_potentials
from .model import AssumptionViolation, LikelihoodModel, Network, Prior, \
    StateSpace, _check_integer, _check_unit, complete_edges, generate_signals, \
    metropolis_weights, ring_edges
from .switching import CommLedger, _mix, build_switching_matrix, record_round

__all__ = [
    "GENERATOR_NAME",
    "ExperimentConfig",
    "reference_config",
    "distinguished_state",
    "build_likelihoods",
    "build_model",
    "TrajectoryRecord",
    "run_experiment",
    "BaselineComparison",
    "compare_baseline",
    "export",
]

# Recorded in export headers; the only generator the package uses.
GENERATOR_NAME = "philox4x64"

# The batched engine draws its signals in slabs of whole rounds: at most
# _SIGNAL_CHUNK rounds, and at most _SIGNAL_CELLS signal indices (rounds
# x replicas x agents) unless one round alone holds more. So the signal
# buffer and its Philox words stay the same size however long the
# horizon, and stop growing with replicas x agents past one slab. The
# round cap is not redundant: without it a slab of few replicas x agents
# spans the whole horizon, and the engine's memory grows with it.
_SIGNAL_CHUNK = 1024
_SIGNAL_CELLS = 16384


def _slab_rounds(replicas: int, agents: int) -> int:
    """Rounds of signals per draw of an engine call over ``replicas x agents``."""
    return max(1, min(_SIGNAL_CHUNK, _SIGNAL_CELLS // (replicas * agents)))


_TOPOLOGIES = ("ring", "complete", "edges")


# Expected JSON type of each config field that is not a string: lists
# nested this deep around values of this kind, and how to say so.
_INTEGER, _NUMBER = (0, numbers.Integral, "an integer"), (0, numbers.Real, "a number")
_FIELD_TYPES = {
    **dict.fromkeys(("agents", "states", "true_state", "rounds", "seed", "replicas",
                     "thin_every", "comparison_agent"), _INTEGER),
    **dict.fromkeys(("p_eq", "p_diff", "tau", "consensus_delta"), _NUMBER),
    "state_labels": (1, (str, numbers.Real), "a list of labels"),
    "topology_edges": (2, numbers.Integral, "a list of [i, j] agent pairs"),
    "weight_matrix": (2, numbers.Real, "a list of rows of numbers"),
    "tables": (3, numbers.Real, "one list of rows of numbers per agent"),
    "prior_mass": (1, numbers.Real, "a list of numbers"),
}


def _typed(value, depth: int, kind):
    """``value`` as tuples nested ``depth`` deep around ``kind`` values.

    Raises ``TypeError`` where it is not that shape. bool is an int
    subclass, but never a valid count, number or label here.
    """
    if depth and isinstance(value, (list, tuple)):
        return tuple(_typed(v, depth - 1, kind) for v in value)
    if depth or not isinstance(value, kind) or isinstance(value, bool):
        raise TypeError
    return value.item() if isinstance(value, np.generic) else value


def _check_rows(name: str, rows) -> None:
    """Reject a matrix field with rows of unequal length, naming the first."""
    for r, row in enumerate(rows):
        if len(row) != len(rows[0]):
            raise ValueError(
                f"{name} row {r} has {len(row)} entries, row 0 has {len(rows[0])}"
            )


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one experiment.

    Defaults reproduce the reference scenario: 15 agents on a ring with
    Metropolis weights, 16 states, binary signals in which agent ``i``
    tells state ``i + 1`` apart from everything else and no agent can
    identify the realized state alone, uniform prior, threshold 1e-17,
    1000 rounds.

    Each data field replaces a default when given: ``weight_matrix``
    the Metropolis weights of the topology, ``tables`` the built-in
    binary family of ``p_eq`` and ``p_diff``, and ``prior_mass`` the
    uniform prior.

    ``model`` is the checked model, built on first read and kept, so
    the engine calls and exports handed one config object share it, and
    so do the configs ``_derived`` from it.
    """

    agents: int
    states: int
    true_state: int = 0
    state_labels: Optional[tuple] = None
    topology_kind: str = "ring"
    topology_edges: Optional[tuple] = None
    weight_matrix: Optional[tuple] = None
    p_eq: float = 0.5
    p_diff: float = 0.25
    tables: Optional[tuple] = None
    prior_mass: Optional[tuple] = None
    tau: float = 1e-17
    rounds: int = 1000
    seed: int = 12
    replicas: int = 1
    consensus_delta: float = 1e-6
    thin_every: Optional[int] = None
    comparison_agent: int = 0

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if value is None and f.default is None:
                continue
            depth, kind, what = _FIELD_TYPES.get(f.name, (0, str, "a string"))
            try:
                object.__setattr__(self, f.name, _typed(value, depth, kind))
            except TypeError:
                raise ValueError(f"{f.name} must be {what}") from None
        for name, value, lo, hi in (
            ("agents", self.agents, 1, None), ("states", self.states, 2, None),
            ("true_state", self.true_state, 0, self.states), ("rounds", self.rounds, 1, None),
            ("seed", self.seed, 0, 2**64), ("replicas", self.replicas, 1, None),
            ("thin_every", self.thin_every, 1, None),
            ("comparison_agent", self.comparison_agent, 0, self.agents),
        ):
            if value is not None:  # thin_every may be left out
                _check_integer(name, value, lo, hi)
        if self.state_labels is not None and len(self.state_labels) != self.states:
            raise ValueError("state_labels length must equal states")
        first, equal = {}, {}  # CSV cell, label value -> index of the first label with it
        for k, label in enumerate(self.state_labels or ()):
            cell = _csv_cell(label)
            j = first.setdefault(cell, k)
            if j != k:
                raise ValueError(
                    f"state_labels {self.state_labels[j]!r} and {label!r} "
                    f"both write the CSV cell {cell}"
                )
            j = equal.setdefault(label, k)
            if j != k:
                raise ValueError(
                    f"state_labels {self.state_labels[j]!r} and {label!r} are equal as values"
                )
        if self.prior_mass is not None and np.shape(self.prior_mass) != (self.states,):
            raise ValueError("prior_mass must be a vector whose length equals states")
        if self.topology_kind not in _TOPOLOGIES:
            raise ValueError(f"topology_kind must be one of {_TOPOLOGIES}")
        if self.weight_matrix is not None:
            _check_rows("weight_matrix", self.weight_matrix)
            if np.shape(self.weight_matrix) != (self.agents, self.agents):
                raise ValueError(
                    f"weight_matrix must be {self.agents} x {self.agents}, "
                    "one row and column per agent"
                )
            if self.topology_kind != "ring" or self.topology_edges is not None:
                raise ValueError(
                    "weight_matrix replaces the topology: give it with the "
                    "default topology_kind 'ring' and no topology_edges"
                )
        if (self.topology_kind == "edges") != (self.topology_edges is not None):
            raise ValueError(
                "topology_edges is required for topology_kind='edges' "
                "and meaningless otherwise"
            )
        for i, table in enumerate(self.tables or ()):
            _check_rows(f"tables[{i}]", table)
            if np.shape(table)[1:] != (self.states,):
                raise ValueError(
                    f"tables[{i}] rows must have {self.states} entries, one per state"
                )
        if self.tables is not None and len(self.tables) != self.agents:
            raise ValueError(f"tables must hold {self.agents} tables, one per agent")
        edges = self.topology_edges
        if edges is not None and any(len(e) != 2 for e in edges):
            raise ValueError("topology_edges must be a list of [i, j] agent pairs")
        if self.tables is None:
            _check_unit("p_eq", self.p_eq)
            _check_unit("p_diff", self.p_diff)
        _check_unit("tau", self.tau, closed=True)
        _check_unit("consensus_delta", self.consensus_delta)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ValueError("config must be a JSON object")
        fields = dataclasses.fields(cls)
        unknown = sorted(set(data) - {f.name for f in fields})
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        missing = [f.name for f in fields
                   if f.default is dataclasses.MISSING and f.name not in data]
        if missing:
            raise ValueError(f"missing config keys: {', '.join(missing)}")
        return cls(**data)

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self) -> dict:
        def untuple(value):
            if isinstance(value, tuple):
                return [untuple(v) for v in value]
            return value

        return {
            f.name: untuple(getattr(self, f.name))
            for f in dataclasses.fields(self)
        }

    @cached_property
    def model(self) -> tuple:
        """``build_model(self)``, refused unless it passes the standing assumptions."""
        space, prior, lik, net = build_model(self)
        report = validate_assumptions(lik, net, space)
        if not report.passed:
            raise AssumptionViolation(
                "model fails standing assumptions\n" + report.summary()
            )
        return space, prior, lik, net

    def _derived(self, **settings) -> "ExperimentConfig":
        """A copy with run settings changed, sharing this config's checked ``model``.

        Only ``replicas``, ``tau`` and ``thin_every`` may change: the model reads none of them.
        """
        assert settings.keys() <= {"replicas", "tau", "thin_every"}, settings
        config = dataclasses.replace(self, **settings)
        object.__setattr__(config, "model", self.model)
        return config

    @cached_property
    def _baseline(self) -> "ExperimentConfig":
        """The always-communicate arm of this config: threshold 1.0."""
        return self._derived(tau=1.0)


def reference_config(**overrides) -> ExperimentConfig:
    """The 15-agent ring scenario the acceptance suite exercises."""
    config = ExperimentConfig(agents=15, states=16, replicas=20)
    return dataclasses.replace(config, **overrides) if overrides else config


def distinguished_state(agent: int, states: int) -> int:
    """State an agent's signal law singles out in the reference family."""
    return 1 + (agent % (states - 1))


def build_likelihoods(config: ExperimentConfig) -> LikelihoodModel:
    if config.tables is not None:
        return LikelihoodModel.from_probabilities(config.tables)
    n, m = config.agents, config.states
    agents = np.arange(n)
    p_one = np.full((n, m), config.p_eq)
    p_one[agents, distinguished_state(agents, m)] = config.p_diff
    tables = np.stack([1.0 - p_one, p_one], axis=1)
    return LikelihoodModel.from_probabilities(tables)


def build_model(config: ExperimentConfig) -> tuple:
    """``(space, prior, likelihoods, network)`` for a configuration."""
    labels = config.state_labels
    if labels is None:
        labels = tuple(f"state_{k}" for k in range(config.states))
    space = StateSpace(states=tuple(labels), true_state_index=config.true_state)
    if config.prior_mass is None:
        prior = Prior.uniform(config.states)
    else:
        prior = Prior.from_probabilities(config.prior_mass)
    n = config.agents
    if config.weight_matrix is not None:
        net = Network(config.weight_matrix)
    elif config.topology_kind == "ring":
        net = metropolis_weights(ring_edges(n), n)
    elif config.topology_kind == "complete":
        net = metropolis_weights(complete_edges(n), n)
    else:
        net = metropolis_weights(config.topology_edges, n)
    return space, prior, build_likelihoods(config), net


@dataclass(frozen=True, eq=False)
class TrajectoryRecord:
    """One replica's recorded trajectory.

    Beliefs are stored at ``stored_rounds`` (always including round 0
    and the final round; intermediate rounds may be thinned), with
    shape ``(len(stored_rounds), n, m)``. ``tv_series[k - 1]`` holds
    the TVs of round ``stored_rounds[k]``, so it has one row fewer, as
    round 0 has no test. The verdicts ``uninformative`` cover rounds
    ``1..rounds`` densely, so ``rounds`` is the number of their rows.
    ``last_below[i]`` is the last round at which agent ``i``'s belief on
    the realized state was below the run's ``1 - consensus_delta``, or
    -1 if it never was. A record whose arrays break this layout, whose
    verdicts are not booleans, whose ``stored_rounds`` do not run
    strictly upward from 0 to ``rounds``, or whose ``last_below`` leaves
    ``[-1, rounds]``, is refused with a ``ValueError`` that names the
    field.

    The arrays are read-only. Records from ``run_experiment`` hold views
    into one history buffer per call, shared by all the replicas of that
    call, so keeping any one record alive keeps the whole call's history
    in memory; copy the arrays you need to release it. A streamed
    record (``run_experiment(..., rows=...)``) is the ``thin_every =
    rounds`` record, so what it holds that grows with the horizon is its
    verdicts: 1 byte per agent-round.
    """

    replica: int
    true_state_index: int
    stored_rounds: np.ndarray
    log_beliefs: np.ndarray
    tv_series: np.ndarray
    uninformative: np.ndarray
    last_below: np.ndarray
    network: Network

    def __post_init__(self):
        for name in (
            "stored_rounds",
            "log_beliefs",
            "tv_series",
            "uninformative",
            "last_below",
        ):
            # a view, so the caller's own arrays stay writable
            arr = np.asarray(getattr(self, name)).view()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        k, n = len(self.stored_rounds), self.network.n
        for name, want, what in (
            ("log_beliefs", (k, n, None), "(len(stored_rounds), n, m)"),
            ("tv_series", (k - 1, n), "(len(stored_rounds) - 1, n)"),
            ("uninformative", (None, n), "(rounds, n)"),
            ("last_below", (n,), "(n,)"),
        ):
            shape = getattr(self, name).shape
            if len(shape) != len(want) or any(w not in (None, g) for w, g in zip(want, shape)):
                raise ValueError(
                    f"{name} must be {what} with len(stored_rounds) = {k} "
                    f"and n = {n}, got shape {shape}"
                )
        if self.uninformative.dtype != bool:
            raise ValueError(f"uninformative must be booleans, got {self.uninformative.dtype}")
        rounds, stored = len(self.uninformative), self.stored_rounds
        if stored[0] != 0 or stored[-1] != rounds or np.any(stored[1:] <= stored[:-1]):
            raise ValueError(f"stored_rounds must start at 0, strictly increase and end at "
                             f"rounds = {rounds}, got {stored}")
        if np.any((self.last_below < -1) | (self.last_below > rounds)):
            raise ValueError(f"last_below must lie in [-1, rounds] with rounds = {rounds}, "
                             f"got {self.last_below}")

    @property
    def rounds(self) -> int:
        return len(self.uninformative)

    @property
    def final_log_belief(self) -> np.ndarray:
        return self.log_beliefs[-1]

    @property
    def final_belief(self) -> np.ndarray:
        return np.exp(self.log_beliefs[-1])

    def per_agent_consensus_rounds(self) -> tuple:
        """First round from which each agent stays at belief >= 1 - delta.

        ``None`` for agents still below the bar at the final round.
        """
        return tuple(
            None if last == self.rounds else int(last) + 1
            for last in self.last_below
        )

    @property
    def consensus_round(self) -> Optional[int]:
        """First round from which every agent stays settled, if any."""
        per_agent = self.per_agent_consensus_rounds()
        if any(r is None for r in per_agent):
            return None
        return max(per_agent)

    @cached_property
    def ledger(self) -> CommLedger:
        """Communication ledger replayed from the recorded verdicts.

        Rounds are recorded one at a time from their masks, so the
        replay builds no mixing matrix. The ledger is cached on the
        record and keeps, per round that flags an agent, the round number
        and the flagged mask packed 8 agents to a byte; its exchanges and
        each agent's communication fraction are read off those masks by
        the fired-edge rule.
        """
        ledger = CommLedger(self.network)
        for t, mask in enumerate(self.uninformative, start=1):
            record_round(ledger, build_switching_matrix(self.network, mask, t))
        return ledger


def run_experiment(
    config: ExperimentConfig, first_replica: int = 0, *, rows=None
) -> list:
    """Run the switching protocol for ``config.replicas`` replicas.

    The replicas are ``first_replica .. first_replica + config.replicas
    - 1``: each record carries its global index and draws that
    replica's signal stream, so a run split into replica ranges gives
    the same records, bit for bit, as one run over all of them.
    Reads the checked ``config.model`` up front, then advances the
    call's replicas in lockstep with batched array arithmetic. The
    dynamics are those of ``learning.run_round``; the batched path exists
    because long multi-replica sweeps dominate this package's runtime.
    The records share one history buffer per call, so a caller that
    wants one replica's history in memory at a time makes one call per
    replica.

    The records store beliefs at rounds 0, the multiples of the
    stride and the final round, and the TVs at those rounds after 0.
    The stride is ``config.thin_every``, or by default the least that
    stores at most 10,000 rounds after round 0, so 1 up to 10,000
    rounds. The verdicts ``uninformative`` are kept for every round.
    With ``rows``, each of those rounds goes instead to ``rows(replica,
    t, log_belief)``, once per replica in replica order, with that
    replica's read-only ``(n, m)`` log beliefs, and the records are the
    ``thin_every = rounds`` records.
    """
    # the last replica key must fit in 64 bits
    _check_integer("first_replica", first_replica, 0, 2**64 - config.replicas + 1)
    space, prior, lik, net = config.model

    reps, horizon = config.replicas, config.rounds
    replicas = range(first_replica, first_replica + reps)
    n, m = net.n, lik.state_count
    slab = _slab_rounds(reps, n)

    def signal_slab(start):
        # (rounds, reps, n) signal indices for rounds start .. start + slab - 1
        rounds = min(slab, horizon + 1 - start)
        return generate_signals(
            lik, space, config.seed, rounds, replica=replicas, start=start
        )

    stride = config.thin_every or math.ceil(horizon / 10_000)
    # the record keeps the multiples of its step and the horizon; a
    # streamed record is the one of step = horizon
    step = stride if rows is None else horizon
    stored = np.arange(0, horizon + step, step, dtype=np.int64)
    stored[-1] = horizon
    # replica-major, so each record is a view of its own contiguous block;
    # tv_hist[:, k - 1] holds the TVs of round stored[k]
    store = np.empty((reps, len(stored), n, m))
    tv_hist = np.empty((reps, len(stored) - 1, n))
    uninf_hist = np.empty((reps, horizon, n), dtype=bool)
    last_below = np.full((reps, n), -1, dtype=np.int64)
    log_settled = math.log1p(-config.consensus_delta)

    def close(t, logb, tv=None):
        # the end of round t: consensus, then the hand-off and the record
        last_below[logb[:, :, space.true_state_index] < log_settled] = t
        if t % stride and t != horizon:
            return
        if rows is not None:
            view = logb.view()
            view.setflags(write=False)
            for r, replica in enumerate(replicas):
                rows(replica, t, view[r])
        if t % step == 0 or t == horizon:
            slot = -(-t // step)
            store[:, slot] = logb
            if t:
                tv_hist[:, slot - 1] = tv

    signals = signal_slab(0)
    anchor = logb = belief_from_potentials(prior.log_mass, lik.signal_rows(signals[0])[0])
    phi = np.zeros((reps, n, m))
    close(0, logb)

    for t in range(1, horizon + 1):
        if t % slab == 0:
            del signals  # the spent slab goes before the next is drawn
            signals = signal_slab(t)
        fresh, label, levels = lik.signal_rows(signals[t % slab])
        tv = _bayes_tv_rows(logb, label, levels)
        uninf = tv < config.tau
        uninf_hist[:, t - 1] = uninf
        phi = _mix(net, uninf, phi, fresh)
        logb = anchor + phi
        logb -= _lse_last(logb)
        close(t, logb, tv)

    return [
        TrajectoryRecord(
            replica=replica,
            true_state_index=space.true_state_index,
            stored_rounds=stored,
            log_beliefs=store[r],
            tv_series=tv_hist[r],
            uninformative=uninf_hist[r],
            last_below=last_below[r],
            network=net,
        )
        for r, replica in enumerate(replicas)
    ]


@dataclass(frozen=True, eq=False)
class BaselineComparison:
    """Paired runs: the switching protocol vs always-communicate.

    Both arms consume identical signal streams, so every difference is
    attributable to the communication rule alone. The baseline arm is
    the same configuration with threshold 1.0, under which no signal is
    ever informative and the network mixes every round.
    """

    config: ExperimentConfig
    switching: tuple
    baseline: tuple

    @property
    def agent(self) -> int:
        """The designated agent, ``config.comparison_agent``."""
        return self.config.comparison_agent

    def summary(self) -> str:
        lines = [
            f"replicas: {len(self.switching)}, rounds: {self.config.rounds}, "
            f"threshold: {self.config.tau:g}",
            f"designated agent: {self.agent}",
        ]
        sw_events = [len(rec.ledger) for rec in self.switching]
        base_events = [len(rec.ledger) for rec in self.baseline]
        for rec_s, rec_b, ne_s, ne_b in zip(
            self.switching, self.baseline, sw_events, base_events
        ):
            frac = float(np.mean(rec_s.ledger.communication_fractions()))
            final_s = float(rec_s.final_belief[self.agent, rec_s.true_state_index])
            final_b = float(rec_b.final_belief[self.agent, rec_b.true_state_index])
            lines.append(
                f"replica {rec_s.replica}: exchanges {ne_s} vs {ne_b} baseline, "
                f"mean comm fraction {frac:.4f}, "
                f"final belief on realized state {final_s:.12g} vs {final_b:.12g}, "
                f"consensus round {rec_s.consensus_round} vs {rec_b.consensus_round}"
            )
        total_s, total_b = sum(sw_events), sum(base_events)
        # a lone agent has no edges, so even the baseline never exchanges
        saved = f"{1.0 - total_s / total_b:.1%} avoided" if total_b else "none to avoid"
        lines.append(f"total exchanges: {total_s} vs {total_b} baseline ({saved})")
        return "\n".join(lines)


def compare_baseline(config: ExperimentConfig, out_dir=None) -> BaselineComparison:
    """Run a configuration against its always-communicate counterpart.

    The designated agent of the summary and of both arms' exported
    rates is ``config.comparison_agent``. The summary reads only each
    record's final round, so without ``out_dir`` each arm is one engine
    call that stores rounds 0 and ``rounds`` alone. Given ``out_dir``,
    ``export`` writes the arms to ``out_dir/switching`` and
    ``out_dir/baseline``, and the comparison holds the records it streamed.
    Both arms read ``config``'s checked model.
    """
    if out_dir is None:
        ends = config._derived(thin_every=config.rounds)
        arms = [run_experiment(arm) for arm in (ends, ends._baseline)]
    else:
        arms = [], []
        export(config, Path(out_dir) / "switching", arms[0].append)
        export(config._baseline, Path(out_dir) / "baseline", arms[1].append)
    return BaselineComparison(config, tuple(arms[0]), tuple(arms[1]))


def export(config: ExperimentConfig, out_dir, keep=None) -> None:
    """Run ``config``'s replicas and write beliefs.csv, comm.csv and summary.txt.

    Beliefs are written in the linear domain with 17 significant digits
    (round-trip exact for doubles). The header comments pin the signal
    generator and seed so an export is traceable to its streams.

    Each replica is one engine call, ``run_experiment(one, r,
    rows=rows)`` with ``one`` the one-replica config derived from
    ``config``. ``rows`` writes each ``(n, m)`` round as the engine
    hands it over and keeps what the rate fit reads: the designated
    agent's log belief on the slowest state at round 0 and inside the
    window. Then the replica's exchanges and summary line are written,
    ``keep(rec)``, when given, sees the record, and the record is
    released before the next replica runs. So export keeps one
    replica's record in memory, however many replicas, and no belief
    history at all. ``config.model``, the checked model every engine
    call reads, is read before any file is made, so a run that fails
    the standing assumptions writes nothing.
    """
    space, _, lik, _ = config.model
    report = identifiability_report(lik, space)
    agent, state = config.comparison_agent, report.slowest_state
    window = (math.ceil(config.rounds / 2), config.rounds)
    # one row template per (agent, state); "%.17g" writes as f"{v:.17g}"
    labels = [_csv_cell(label).replace("%", "%%") for label in space.states]
    cells = [f",{i},{label},%.17g" for i in range(config.agents) for label in labels]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    lines = []

    with open(out / "beliefs.csv", "w", newline="") as beliefs, \
            open(out / "comm.csv", "wb") as comm:

        def rows(replica, t, log_belief):
            head = f"{replica},{t}"
            beliefs.write((head + ("\r\n" + head).join(cells) + "\r\n")
                          % tuple(np.exp(log_belief).ravel().tolist()))
            if t == 0 or t >= window[0]:
                fit_rounds.append(t)
                fit_values.append(log_belief[agent, state])

        beliefs.write(f"# generator: {GENERATOR_NAME}\n")
        beliefs.write(f"# seed: {config.seed}\n")
        beliefs.write("replica,t,agent,state_label,belief\r\n")
        comm.write(b"replica,t,agent_i,agent_j\r\n")
        one = config._derived(replicas=1)
        for r in range(config.replicas):
            fit_rounds, fit_values = array("q"), array("d")
            (rec,) = run_experiment(one, r, rows=rows)
            # bytes go straight to the file buffer, where a text file would
            # hold up to 8 KiB of pending rows as separate str objects
            comm.writelines(f"{rec.replica},{t},{i},{j}\r\n".encode() for t, i, j in rec.ledger)
            frac = float(np.mean(rec.ledger.communication_fractions()))
            try:
                rate = estimate_rate(fit_rounds, fit_values, window)
                rate_text = f"{rate:.6g} nats/round over rounds {window[0]}..{window[1]}"
            except ValueError as exc:
                rate_text = f"not estimated ({exc})"
            lines.append(
                f"replica {rec.replica}: consensus round {rec.consensus_round}, "
                f"mean comm fraction {frac:.4f}, estimated rate {rate_text}"
            )
            if keep is not None:
                keep(rec)
            del rec  # released before the next replica is built

    head = [
        f"agents: {config.agents}, states: {config.states}, "
        f"rounds: {config.rounds}, replicas: {config.replicas}",
        f"threshold: {config.tau:g}, seed: {config.seed}, "
        f"generator: {GENERATOR_NAME}",
        f"theoretical asymptotic rate: {report.asymptotic_rate:.12g} nats/round",
    ]
    (out / "summary.txt").write_text("\n".join(head + lines) + "\n")
