"""Scoring, classification and most-likely state decoding.

Histories may be shorter than the model horizon: the forward likelihood is
terminated by summing over all states at the last observed step, and the
Viterbi score maximizes over all states there.  Longer-than-horizon input
is a usage error.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np

from .core import (LrHmmModel, ObservationSequence, UsageError, _band_diagonals, _log_b,
                   _logsumexp)
from .training import _check_scorable, _forward


@dataclass(frozen=True)
class ClassDecision:
    """Outcome of a two-model comparison.

    ``label`` is 1 when the first model is at least as likely (ties go to
    1); ``margin`` is the winning log-likelihood minus the losing one.
    """

    label: int
    log_likelihoods: tuple[float, float]
    margin: float


@dataclass(frozen=True, eq=False)
class ViterbiResult:
    """Most likely state path (0-based indices) and its joint log probability."""

    path: np.ndarray
    log_prob: float


# Log emission densities kept for the scorers called inside one
# ``_shared_emissions`` block, keyed by the identities of the sequence and the
# model; the caller of the block holds both, so the identities stay unique.
_emission_memo: ContextVar[dict | None] = ContextVar("_emission_memo", default=None)


@contextmanager
def _shared_emissions():
    """Score each (sequence, model) pair's emissions at most once in this block."""
    token = _emission_memo.set({})
    try:
        yield
    finally:
        _emission_memo.reset(token)


def _emissions(seq: ObservationSequence, model: LrHmmModel) -> np.ndarray:
    """Log densities (T, N) of a scorable ``seq`` under every state of ``model``."""
    _check_scorable(seq, model)
    memo = _emission_memo.get()
    key = (id(seq), id(model))
    if memo is not None and key in memo:
        return memo[key]
    log_b = _log_b(seq.values, model.means, model._chols, model._log_norms)
    if memo is not None:
        memo[key] = log_b
    return log_b


def _forward_table(seq: ObservationSequence, model: LrHmmModel) -> np.ndarray:
    diags = _band_diagonals(model.log_A, model.band_width)
    return _forward(_emissions(seq, model), model.log_pi, diags)


def log_likelihood(seq: ObservationSequence, model: LrHmmModel) -> float:
    """Forward log-likelihood log P(seq | model) for a history of length <= N."""
    log_alpha = _forward_table(seq, model)
    return float(_logsumexp(log_alpha[-1, :]))


def prefix_log_likelihoods(seq: ObservationSequence, model: LrHmmModel,
                           steps) -> np.ndarray:
    """Log-likelihoods of several prefixes of ``seq`` from one forward pass.

    ``steps`` holds prefix lengths (1-based step counts); entry ``s`` of the
    result equals ``log_likelihood(seq truncated to s steps, model)``.
    """
    steps = np.asarray(steps, dtype=int)
    if steps.size == 0:
        raise UsageError("steps must be non-empty")
    if steps.min() < 1 or steps.max() > seq.n_steps:
        raise UsageError(f"prefix lengths must lie in [1, {seq.n_steps}]")
    log_alpha = _forward_table(seq, model)
    return _logsumexp(log_alpha[steps - 1, :])


def classify(history: ObservationSequence, model_1: LrHmmModel,
             model_2: LrHmmModel) -> ClassDecision:
    """Label a history 1 or 2 by comparing forward log-likelihoods."""
    ll_1 = log_likelihood(history, model_1)
    ll_2 = log_likelihood(history, model_2)
    if ll_1 >= ll_2:
        return ClassDecision(1, (ll_1, ll_2), ll_1 - ll_2)
    return ClassDecision(2, (ll_1, ll_2), ll_2 - ll_1)


def viterbi(seq: ObservationSequence, model: LrHmmModel) -> ViterbiResult:
    """Decode the most likely state path by max-plus recursion in log space.

    All argmax ties (per-step predecessor choice and the final state) break
    toward the lowest state index, so decoding is deterministic.
    """
    log_b = _emissions(seq, model)
    n_steps, n_states = seq.n_steps, model.n_states
    diags = _band_diagonals(model.log_A, model.band_width)

    delta = np.full((n_steps, n_states), -np.inf)
    psi = np.zeros((n_steps, n_states), dtype=int)
    delta[0] = model.log_pi + log_b[0]
    states = np.arange(n_states)
    # delta is exactly -inf outside [lo, hi): below the first state of
    # finite delta[0], and above the band's reach from its last
    finite = np.flatnonzero(delta[0] > -np.inf)
    lo, hi = (finite[0], finite[-1] + 1) if finite.size else (0, 0)
    for t in range(1, n_steps):
        hi = min(hi + model.band_width, n_states)
        prev, best, arg = delta[t - 1], delta[t, lo:hi], psi[t, lo:hi]
        np.add(prev[lo:hi], diags[0][lo:hi], out=best)
        arg[:] = states[lo:hi]
        # a farther predecessor replaces the best so far when at least as
        # good, so ties go to the lowest predecessor
        for d in range(1, len(diags)):
            cand = prev[lo:hi - d] + diags[d][lo:hi - d]
            better = cand >= best[d:]
            np.copyto(best[d:], cand, where=better)
            np.copyto(arg[d:], states[lo:hi - d], where=better)
        best += log_b[t, lo:hi]

    end = int(np.argmax(delta[-1]))
    path = np.empty(n_steps, dtype=int)
    path[-1] = end
    for t in range(n_steps - 2, -1, -1):
        path[t] = psi[t + 1, path[t + 1]]
    return ViterbiResult(path, float(delta[-1, end]))
