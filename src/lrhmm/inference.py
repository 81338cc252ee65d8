"""Scoring, classification and most-likely state decoding.

Histories may be shorter than the model horizon: the forward likelihood is
terminated by summing over all states at the last observed step, and the
Viterbi score maximizes over all states there.  Longer-than-horizon input
is a usage error.  Both recursions are :func:`training._forward`, Viterbi's
with ``np.maximum`` in place of log-sum-exp; every step runs over the states
that can hold mass at that step or two steps before (``core._live_spans``)
and gives the same bits as a recursion over all states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import LrHmmModel, ModelError, ObservationSequence, UsageError, _logsumexp
from .training import _check_scorable, _emission_blocks, _forward


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


def _span_blocks(x: np.ndarray, model: LrHmmModel):
    """The log emission blocks of sequences ``x`` (..., T, M) that the
    forward over ``model``'s live spans reads: its forced steps paired, the
    rest in rectangles (see :func:`training._emission_blocks`)."""
    return _emission_blocks(x, (model.means, model._chols, model._log_norms), model._spans,
                            model.band_width, model._forced)


def _prefix_scores(log_b, model: LrHmmModel, batch: tuple, ends: list) -> np.ndarray:
    """Log-likelihoods (S, *batch) of the prefixes that end at steps
    ``ends`` (distinct, ascending, 0-based) of sequences with emission
    blocks ``log_b`` (batch dimensions ``batch``).  The forward rolls
    through two rows.  A forced step's row has at most one finite entry,
    which is its log-sum-exp, so those ends take the value the forward
    returns; a hook keeps the rows of the others."""
    forced = model._forced
    early = [t for t in ends if t < forced]
    kept = np.empty((len(ends) - len(early),) + batch + (model.n_states,))
    slots = {t: kept[i] for i, t in enumerate(ends[len(early):])}

    def keep(t, row, base, scores):
        if t in slots:
            slots[t][...] = row

    values = _forward(log_b, model.log_pi, model.log_A_band, model._spans,
                      np.empty(batch + (2, model.n_states)), after=keep if slots else None,
                      forced=forced)
    scores = _logsumexp(kept)
    if early:
        scores = np.concatenate([np.moveaxis(values[..., early], -1, 0), scores])
    return scores


def _set_log_likelihoods(sequences, model: LrHmmModel) -> np.ndarray:
    """Log-likelihoods (K,) of scorable sequences that share one length,
    scored together in one pass."""
    x = np.stack([seq.values for seq in sequences])
    return _prefix_scores(_span_blocks(x, model), model, (len(x),), [x.shape[1] - 1])[0]


def log_likelihood(seq: ObservationSequence, model: LrHmmModel) -> float:
    """Forward log-likelihood log P(seq | model) for a history of length <= N."""
    _check_scorable(seq, model)
    return float(_prefix_scores(_span_blocks(seq.values, model), model, (),
                                [seq.n_steps - 1])[0])


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

    Delta rolls through two rows; each step's after the forced ones is kept
    over the range the forward computes, outside which it is exactly -inf,
    so no (T, N) table is allocated.  Backtracking recovers the
    predecessors from the kept delta by the recursion's own sums; at a
    forced step t the path is at the one live state, first_0 + t.  All
    argmax ties (per-step
    predecessor choice and the final state) break toward the lowest state
    index, so decoding is deterministic.  Raises ModelError if the history
    has zero likelihood under the model: then no path is more likely than
    another.
    """
    _check_scorable(seq, model)
    diags = model.log_A_band
    firsts, ends = model._spans
    forced = model._forced
    kept = []                   # step t >= forced: delta of states first_t .. end_t - 1
    rows = np.empty((2, model.n_states))
    _forward(_span_blocks(seq.values, model), model.log_pi, diags, model._spans, rows,
             after=lambda t, row, base, scores: kept.append(row[firsts[t]:ends[t]].copy()),
             combine=np.maximum, forced=forced)

    last = rows[(seq.n_steps - 1) % 2]
    path = np.empty(seq.n_steps, dtype=int)
    path[-1] = state = int(np.argmax(last))
    if last[state] == -np.inf:
        raise ModelError("the history has zero likelihood under the model")
    for t in range(seq.n_steps - 2, -1, -1):
        if t < forced:
            path[:t + 1] = firsts[0] + np.arange(t + 1)
            break
        delta, first, end = kept[t - forced], firsts[t], ends[t]
        best = -np.inf
        # a farther predecessor replaces the best so far when at least as
        # good, so ties go to the lowest state; one outside the range is
        # -inf and cannot precede a state of the path, whose delta is finite
        for d in range(min(len(diags) - 1, state) + 1):
            i = state - d
            if first <= i < end:
                cand = delta[i - first] + diags[d][i]
                if cand >= best:
                    best, path[t] = cand, i
        state = path[t]
    return ViterbiResult(path, float(last[path[-1]]))
