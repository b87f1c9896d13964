"""The protocol round: informativeness tests, potential recursion, beliefs.

``run_round`` is the normative round, from ``initial_state`` on: it
composes the engine's own rules, ``LikelihoodModel.signal_rows``, the
tests of ``_bayes_tv_rows`` and ``switching._mix``, then renormalises
the round-0 anchor plus potentials into beliefs.
A ``BeliefState`` stores only that anchor, the potentials and the
round; its beliefs are derived from them.

All belief arithmetic happens in the natural-log domain. Linear-domain
probabilities appear only at the API boundary (total variation values,
CSV export). The informativeness test compares the one-step Bayesian
posterior against the current belief in total variation and declares
the signal informative when the distance reaches the threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import LikelihoodModel, Network, Prior, _check_integer, _check_unit, _readonly, \
    _sums_to_one
from .switching import _mix, build_switching_matrix

# Tolerance for belief rows evolved over many rounds.
BELIEF_SUM_TOL = 1e-10

__all__ = [
    "BELIEF_SUM_TOL",
    "BeliefState",
    "binary_tv",
    "binary_informative",
    "belief_from_potentials",
    "initial_state",
    "run_round",
]


def _check_binary(epsilon_prev: float, r: float) -> None:
    """Reject arguments outside the binary closed form's domain."""
    _check_unit("epsilon_prev", epsilon_prev)
    if not r >= 0.0:  # NaN fails every comparison
        raise ValueError("likelihood ratio must be nonnegative")


def _lse_last(arr: np.ndarray) -> np.ndarray:
    """Logsumexp over the last axis, keepdims, max-shifted."""
    peak = np.max(arr, axis=-1, keepdims=True)
    peak = np.where(np.isfinite(peak), peak, 0.0)
    return peak + np.log(np.sum(np.exp(arr - peak), axis=-1, keepdims=True))


def _bayes_tv_rows(log_mu: np.ndarray, label: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """Total variation from each belief row to its one-step posterior.

    The posterior never materializes: normalizing it would bury a tiny
    move under the normalizer's machine-epsilon noise, and thresholds
    sit far below that (1e-17 by default). Instead the observed
    signal's likelihood column comes grouped into classes of exactly
    equal value, as ``LikelihoodModel.value_classes`` gives them:
    ``label`` holds each state's class and ``levels`` the likelihood
    L_c of each class. With M_c the belief mass of class c,

        tv = 0.5 * sum_c M_c |sum_b M_b (L_c - L_b)| / sum_b M_b L_b,

    which is the state-wise sum_k mu_k |sum_j mu_j (l_k - l_j)| with
    the states of one class gathered. The gap L_c - L_c is exactly 0,
    so states of equal likelihood cancel exactly and the result keeps
    relative accuracy down to the underflow limit. The cost is O(m) to
    sum the class masses plus O(C^2) for C classes, in place of the
    O(m^2) of the state-wise form. Rows where the denominator vanishes
    (the signal is impossible under every supported state) are rejected.
    """
    mu = np.exp(log_mu)
    rows, width = math.prod(label.shape[:-1]), levels.shape[-1]
    # one bincount bin per (row, class); each bin sums its states in order
    bins = label + np.arange(0, rows * width, width).reshape(label.shape[:-1] + (1,))
    mass = np.bincount(
        bins.ravel(), weights=mu.ravel(), minlength=rows * width
    ).reshape(label.shape[:-1] + (width,))
    total = (mass * levels).sum(axis=-1)
    if not total.all():
        raise ValueError(
            "signal has zero probability under every state its agent's "
            "belief supports"
        )
    gaps = levels[..., :, None] - levels[..., None, :]
    skew = np.einsum("...cb,...b->...c", gaps, mass)
    # each term is >= 0, so only rounding can push tv past 1
    tv = (mass * np.abs(skew)).sum(axis=-1) / (2.0 * total)
    return np.minimum(tv, 1.0)


def binary_tv(epsilon_prev: float, r: float) -> float:
    """Closed-form belief move for a binary state space.

    ``epsilon_prev`` is the current mass on the second state and ``r``
    the likelihood ratio (first state over second) of the new signal.
    """
    _check_binary(epsilon_prev, r)
    e = epsilon_prev
    return e * (1.0 - e) * abs(r - 1.0) / ((1.0 - e) * r + e)


def binary_informative(epsilon_prev: float, r: float, tau: float) -> bool:
    """Closed-form informativeness verdict for a binary state space.

    Matches the total-variation test branch by branch: a ratio r >= 1
    is informative iff epsilon_prev exceeds tau and r clears a threshold
    that is always >= 1, and symmetrically for r < 1. Ties informative.
    """
    _check_binary(epsilon_prev, r)
    _check_unit("threshold", tau, closed=True)
    e = epsilon_prev
    if r >= 1.0:
        if e <= tau:
            return False
        return r >= (tau * e + e * (1.0 - e)) / (e * (1.0 - e) - tau * (1.0 - e))
    if 1.0 - e <= tau:
        return False
    return r <= (e * (1.0 - e) - tau * e) / (e * (1.0 - e) + tau * (1.0 - e))


def belief_from_potentials(log_mu0: np.ndarray, potentials: np.ndarray) -> np.ndarray:
    """Normalized log beliefs from an anchor and potentials, ``anchor + phi`` renormalised.

    The anchor is the round-0 belief rows, or the prior row ``(m,)``
    that round 0 conditions on its first signals: it must broadcast to
    the potentials' shape without enlarging it.
    """
    log_mu0 = np.asarray(log_mu0, dtype=float)
    phi = np.asarray(potentials, dtype=float)
    if log_mu0.ndim > phi.ndim or any(
            a not in (1, b) for a, b in zip(log_mu0.shape[::-1], phi.shape[::-1])):
        raise ValueError(f"anchor of shape {log_mu0.shape} must broadcast to the "
                         f"potentials' shape {phi.shape}")
    logb = log_mu0 + phi
    return logb - _lse_last(logb)


def _checked_potentials(potentials, shape: tuple) -> np.ndarray:
    """``potentials`` as a read-only array, refused unless finite and of the anchor's ``shape``."""
    phi = _readonly(potentials)
    if phi.shape != shape:
        raise ValueError(f"potentials {phi.shape} must have the anchor's shape {shape}")
    if not np.isfinite(phi).all():
        raise ValueError("potentials must be finite, without inf or NaN")
    return phi


@dataclass(frozen=True)
class BeliefState:
    """Joint belief state of all agents after some round.

    ``log_belief_initial`` holds the round-0 belief rows, normalized in
    log form, that anchor the run, and ``potentials`` the accumulated
    averaged log-likelihood scores, exactly zero at round 0. The log
    beliefs are derived from the two, never stored.
    """

    potentials: np.ndarray
    log_belief_initial: np.ndarray
    round: int

    def __post_init__(self):
        anchor = _readonly(self.log_belief_initial)
        if anchor.ndim != 2:
            raise ValueError("log_belief_initial must be (agents, states)")
        if not _sums_to_one(anchor, BELIEF_SUM_TOL, axis=1, log=True)[1]:
            raise ValueError("log_belief_initial rows must exponentiate to 1")
        phi = _checked_potentials(self.potentials, anchor.shape)
        _check_integer("round", self.round, 0)
        if self.round == 0 and np.any(phi != 0.0):
            raise ValueError("potentials must be identically zero at round 0")
        object.__setattr__(self, "potentials", phi)
        object.__setattr__(self, "log_belief_initial", anchor)

    def _successor(self, potentials: np.ndarray) -> BeliefState:
        """The next round's state: this state's checked, read-only anchor and new potentials.

        Only the potentials are new, so only they are checked.
        """
        phi = _checked_potentials(potentials, self.log_belief_initial.shape)
        new = object.__new__(BeliefState)
        object.__setattr__(new, "potentials", phi)
        object.__setattr__(new, "log_belief_initial", self.log_belief_initial)
        object.__setattr__(new, "round", self.round + 1)
        return new

    @cached_property
    def log_belief(self) -> np.ndarray:
        """Normalized log beliefs, read-only: the anchor at round 0, then anchor plus potentials."""
        if self.round == 0:
            return self.log_belief_initial
        return _readonly(belief_from_potentials(self.log_belief_initial, self.potentials))


def initial_state(prior: Prior, lik: LikelihoodModel, signals_0) -> BeliefState:
    """Round-0 state: each agent conditions the shared prior on its first signal."""
    fresh = lik.signal_rows(lik.checked_signals(signals_0))[0]
    logb = belief_from_potentials(prior.log_mass, fresh)
    return BeliefState(potentials=np.zeros(logb.shape), log_belief_initial=logb, round=0)


def run_round(state: BeliefState, net: Network, lik: LikelihoodModel, tau: float,
              signals_t):
    """Advance all agents by one protocol round.

    Each agent tests its fresh signal for informativeness against its
    current belief; the round's mixing matrix couples exactly the edges
    with an uninformative endpoint; potentials mix and absorb the fresh
    log likelihoods; beliefs follow from the round-0 anchor and the new
    potentials. Returns ``(new_state, mixing_matrix, tv)``, with ``tv``
    the read-only ``(n,)`` total variation of each agent's one-step
    Bayes move. Agent ``i``'s signal is informative iff
    ``tv[i] >= tau``; the others are flagged uninformative and mix.

    This is the reference implementation; ``harness.run_experiment``
    reproduces it in batched form.
    """
    _check_unit("threshold", tau, closed=True)
    n, m = state.potentials.shape
    if lik.agent_count != n or net.n != n or lik.state_count != m:
        raise ValueError("state, network, and likelihood dimensions disagree")
    fresh, label, levels = lik.signal_rows(lik.checked_signals(signals_t))
    tv = _bayes_tv_rows(state.log_belief, label, levels)
    tv.setflags(write=False)
    q = build_switching_matrix(net, tv < tau, round=state.round + 1)
    return state._successor(_mix(net, q.flagged, state.potentials, fresh)), q, tv
