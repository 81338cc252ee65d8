"""Scoring, classification and most-likely state decoding.

Histories may be shorter than the model horizon: the forward likelihood is
terminated by summing over all states at the last observed step, and the
Viterbi score maximizes over all states there.  Longer-than-horizon input
is a usage error.  Both recursions are :func:`training._forward` on the
chain past the forced run that :func:`training._split` cuts, Viterbi's with
``np.maximum`` in place of log-sum-exp; every step runs over the states
that can hold mass at that step or two steps before (``core._live_spans``)
and gives the same bits as a recursion over all states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import LrHmmModel, ModelError, ObservationSequence, UsageError, _logsumexp
from .training import _check_scorable, _emission_blocks, _forward, _split


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


def _model_split(x: np.ndarray, model: LrHmmModel):
    """:func:`training._split` of sequences ``x`` (..., T, M) under ``model``."""
    return _split(x, (model.means, model._chols, model._log_norms), model.log_pi,
                  model.log_A_band, model._spans, model._forced)


def _prefix_scores(x: np.ndarray, model: LrHmmModel, ends: list) -> np.ndarray:
    """Log-likelihoods (S,) or (S, K) of the prefixes that end at steps
    ``ends`` (distinct, ascending, 0-based) of a sequence ``x`` (T, M) or of
    sequences (K, T, M), T = ends[-1] + 1.  A prefix that ends at or before
    step c of the forced run (see :func:`training._split`) takes the run's
    value: a forced step's row has at most one finite entry, which is its
    log-sum-exp.  The others take the log-sum-exp of the rows of the
    forward over the chain past c, which a hook keeps N states wide, -inf
    below col, so that the sum runs over the terms of the whole chain's
    row, in its order."""
    cut, col, run, (x, params, (log_pi, diags, ranges)) = _model_split(x, model)
    early = [t for t in ends if t < run.shape[-1]]
    if len(early) == len(ends):
        return run[..., ends].T
    kept = np.full((len(ends) - len(early),) + x.shape[:-2] + (model.n_states,), -np.inf)
    slots = {t - cut: kept[i, ..., col:] for i, t in enumerate(ends[len(early):])}

    def keep(t, row, base, scores):
        if t in slots:
            slots[t][...] = row

    _forward(_emission_blocks(x, params, ranges, model.band_width), log_pi, diags, ranges,
             np.empty(x.shape[:-2] + (2, model.n_states - col)), after=keep)
    return np.concatenate([run[..., early].T, _logsumexp(kept)])


def _set_log_likelihoods(sequences, model: LrHmmModel) -> np.ndarray:
    """Log-likelihoods (K,) of scorable sequences that share one length,
    scored together in one pass."""
    x = np.stack([seq.values for seq in sequences])
    return _prefix_scores(x, model, [x.shape[1] - 1])[0]


def log_likelihood(seq: ObservationSequence, model: LrHmmModel) -> float:
    """Forward log-likelihood log P(seq | model) for a history of length <= N."""
    _check_scorable(seq, model)
    return float(_prefix_scores(seq.values, model, [seq.n_steps - 1])[0])


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
    scores = _prefix_scores(seq.values[:distinct[-1]], model, [end - 1 for end in distinct])
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

    The path holds the one live state s0 + t at each step t of the forced
    run (see :func:`training._split`); a history that the run covers has
    that one path and its score.  Otherwise the recursion runs on the chain
    past step c of the run.  Delta rolls through two rows, and each step's
    is kept over the range the forward computes, outside which it is
    exactly -inf, so no (T, N) table is allocated.  Backtracking recovers
    the predecessors from the kept delta by the recursion's own sums.  All
    argmax ties (per-step predecessor choice and the final state) break
    toward the lowest state index, so decoding is deterministic.  Raises
    ModelError if the history has zero likelihood under the model: then no
    path is more likely than another.
    """
    _check_scorable(seq, model)
    cut, col, run, (x, params, (log_pi, diags, ranges)) = _model_split(seq.values, model)
    n_steps, forced = seq.n_steps, run.size
    path = np.empty(n_steps, dtype=int)
    path[:forced] = model._spans[0][0] + np.arange(forced)
    firsts, ends = ranges
    kept = []                   # chain step s: delta of states first_s .. end_s - 1
    last, state = run, forced - 1
    if forced < n_steps:
        rows = np.empty((2, model.n_states - col))
        _forward(_emission_blocks(x, params, ranges, model.band_width), log_pi, diags, ranges,
                 rows, combine=np.maximum,
                 after=lambda s, row, base, scores: kept.append(row[firsts[s]:ends[s]].copy()))
        last = rows[(n_steps - cut - 1) % 2]
        state = int(np.argmax(last))
        path[-1] = col + state
    if last[state] == -np.inf:
        raise ModelError("the history has zero likelihood under the model")
    log_prob = float(last[state])
    for s in range(n_steps - cut - 2, forced - cut - 1, -1):
        delta, first, end = kept[s], firsts[s], ends[s]
        best = -np.inf
        # a farther predecessor replaces the best so far when at least as
        # good, so ties go to the lowest state; one outside the range is
        # -inf and cannot precede a state of the path, whose delta is finite
        for d in range(min(len(diags) - 1, state) + 1):
            i = state - d
            if first <= i < end:
                cand = delta[i - first] + diags[d][i]
                if cand >= best:
                    best, pick = cand, i
        state = pick
        path[cut + s] = col + state
    return ViterbiResult(path, log_prob)
