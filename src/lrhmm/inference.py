"""Scoring, classification and most-likely state decoding.

Histories may be shorter than the model horizon: the forward likelihood is
terminated by summing over all states at the last observed step, and the
Viterbi score maximizes over all states there.  Longer-than-horizon input
is a usage error.  Every step of both recursions runs over the states that
can hold mass at that step (``core._live_spans``) and gives the same bits
as a recursion over all states.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np

from .core import LrHmmModel, ModelError, ObservationSequence, UsageError, _log_b, _logsumexp
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


# Log emission blocks kept for the scorers called inside one
# ``_shared_emissions`` block, keyed by the identities of the sequence and the
# model; the caller of the block holds both, so the identities stay unique.
_emission_memo: ContextVar[dict | None] = ContextVar("_emission_memo", default=None)

# Steps per block of emission scoring: a history of up to 64 steps, such as
# every T = 40 one, is scored in one call of the kernel.
_SCORING_BLOCK = 64


@contextmanager
def _shared_emissions():
    """Score each (sequence, model) pair's emissions at most once in this block."""
    token = _emission_memo.set({})
    try:
        yield
    finally:
        _emission_memo.reset(token)


def _span_blocks(x: np.ndarray, model: LrHmmModel):
    """Log densities of sequences ``x`` (..., T, M) under the states that
    :func:`training._forward` reads, ``_SCORING_BLOCK`` steps at a time:
    blocks (base, scores), scores (..., steps, W) of states base .. base +
    W - 1, over the states from lo_{t0-2} to hi_{t1-1} for steps t0 .. t1-1."""
    lo, hi = model._spans
    n_steps = x.shape[-2]
    for t0 in range(0, n_steps, _SCORING_BLOCK):
        t1 = min(t0 + _SCORING_BLOCK, n_steps)
        states = slice(lo[max(t0 - 2, 0)], hi[t1 - 1])
        yield states.start, _log_b(x[..., t0:t1, :], model.means[states],
                                   model._chols[states], model._log_norms[states])


def _emissions(seq: ObservationSequence, model: LrHmmModel):
    """The log emission blocks of a scorable ``seq`` under ``model``."""
    _check_scorable(seq, model)
    memo = _emission_memo.get()
    key = (id(seq), id(model))
    if memo is None:
        return _span_blocks(seq.values, model)
    if key not in memo:
        memo[key] = list(_span_blocks(seq.values, model))
    return memo[key]


def _prefix_scores(log_b, model: LrHmmModel, batch: tuple, ends: list) -> np.ndarray:
    """Log-likelihoods (S, *batch) of the prefixes that end at steps
    ``ends`` (distinct, 0-based) of sequences with emission blocks ``log_b``
    (batch dimensions ``batch``).  The forward rolls through two rows and
    keeps the S it returns."""
    kept = np.empty((len(ends),) + batch + (model.n_states,))
    _forward(log_b, model.log_pi, model._diags, model._spans,
             np.empty(batch + (2, model.n_states)),
             keep={t: kept[i] for i, t in enumerate(ends)})
    return _logsumexp(kept)


def _set_log_likelihoods(sequences, model: LrHmmModel) -> np.ndarray:
    """Log-likelihoods (K,) of scorable sequences that share one length,
    scored together in one pass."""
    x = np.stack([seq.values for seq in sequences])
    return _prefix_scores(_span_blocks(x, model), model, (len(x),), [x.shape[1] - 1])[0]


def log_likelihood(seq: ObservationSequence, model: LrHmmModel) -> float:
    """Forward log-likelihood log P(seq | model) for a history of length <= N."""
    return float(_prefix_scores(_emissions(seq, model), model, (), [seq.n_steps - 1])[0])


def prefix_log_likelihoods(seq: ObservationSequence, model: LrHmmModel,
                           steps) -> np.ndarray:
    """Log-likelihoods of several prefixes of ``seq`` from one forward pass
    over the longest of them.

    ``steps`` holds prefix lengths (1-based whole step counts); entry ``s``
    of the result equals ``log_likelihood(seq truncated to s steps, model)``.
    """
    _check_scorable(seq, model)
    steps = np.asarray(steps)
    if steps.dtype.kind not in "iu" and not (
            steps.dtype.kind == "f" and np.all(np.isfinite(steps))
            and np.all(steps == np.round(steps))):
        raise UsageError(f"prefix lengths must be whole numbers of steps, got {steps}")
    lengths = steps.ravel().tolist()
    if not lengths:
        raise UsageError("steps must be non-empty")
    if min(lengths) < 1 or max(lengths) > seq.n_steps:
        raise UsageError(f"prefix lengths must lie in [1, {seq.n_steps}]")
    distinct = sorted({int(length) for length in lengths})
    scores = _prefix_scores(_span_blocks(seq.values[:distinct[-1]], model), model, (),
                            [end - 1 for end in distinct])
    index = {end: i for i, end in enumerate(distinct)}
    return scores[[index[length] for length in lengths]].reshape(steps.shape)


def classify(history: ObservationSequence, model_1: LrHmmModel,
             model_2: LrHmmModel) -> ClassDecision:
    """Label a history 1 or 2 by comparing forward log-likelihoods.

    Raises ModelError if the history has zero likelihood under both models.
    """
    ll_1 = log_likelihood(history, model_1)
    ll_2 = log_likelihood(history, model_2)
    if ll_1 == ll_2 == -np.inf:
        raise ModelError("the history has zero likelihood under both models")
    if ll_1 >= ll_2:
        return ClassDecision(1, (ll_1, ll_2), ll_1 - ll_2)
    return ClassDecision(2, (ll_1, ll_2), ll_2 - ll_1)


def viterbi(seq: ObservationSequence, model: LrHmmModel) -> ViterbiResult:
    """Decode the most likely state path by max-plus recursion in log space.

    All argmax ties (per-step predecessor choice and the final state) break
    toward the lowest state index, so decoding is deterministic.  Each step
    runs over the model's live span, outside which delta is exactly -inf.
    """
    log_b = _emissions(seq, model)
    n_steps, n_states = seq.n_steps, model.n_states
    diags = model._diags
    delta = np.full((n_steps, n_states), -np.inf)
    psi = np.zeros((n_steps, n_states), dtype=int)
    states = np.arange(n_states)
    lows, highs = model._spans
    t = 0
    for base, block in log_b:
        for step_scores in block:
            lo, hi = lows[t], highs[t]
            best, arg = delta[t, lo:hi], psi[t, lo:hi]
            scores = step_scores[lo - base:hi - base]
            if t == 0:
                np.add(model.log_pi[lo:hi], scores, out=best)
            else:
                prev = delta[t - 1]
                np.add(prev[lo:hi], diags[0][lo:hi], out=best)
                arg[:] = states[lo:hi]
                # a farther predecessor replaces the best so far when at
                # least as good, so ties go to the lowest predecessor
                for d in range(1, len(diags)):
                    start = max(lo, d)
                    if start >= hi:
                        continue
                    cand = prev[start - d:hi - d] + diags[d][start - d:hi - d]
                    better = cand >= best[start - lo:]
                    np.copyto(best[start - lo:], cand, where=better)
                    np.copyto(arg[start - lo:], states[start - d:hi - d], where=better)
                best += scores
            t += 1

    end = int(np.argmax(delta[-1]))
    path = np.empty(n_steps, dtype=int)
    path[-1] = end
    for t in range(n_steps - 2, -1, -1):
        path[t] = psi[t + 1, path[t + 1]]
    return ViterbiResult(path, float(delta[-1, end]))
