"""Cross-fitness distance between two trained models.

Each model scores its own training set and the rival's; the distance is
how much likelihood is lost by swapping models between sets:

    D = ll_11 + ll_22 - ll_12 - ll_21

where ``ll_cd`` is the summed forward log-likelihood of set ``c`` under
model ``d``.  D is zero for identical (set, model) pairs and grows as the
two motions become easier to tell apart.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import LrHmmError, LrHmmModel, UsageError
from .inference import _set_log_likelihoods
from .training import _check_scorable


@dataclass(frozen=True)
class CrossFitnessReport:
    """The four summed log-likelihood terms and their combination."""

    ll_11: float
    ll_22: float
    ll_12: float
    ll_21: float
    distance: float


def _score_set(sequences, model: LrHmmModel, set_name: str) -> float:
    """Summed log-likelihood of ``sequences`` under ``model``, in set order;
    sequences of one length are scored together in one batched pass."""
    for seq in sequences:
        try:
            _check_scorable(seq, model)
        except LrHmmError as exc:
            raise type(exc)(f"{set_name} trial {seq.trial_id}: {exc}") from exc
    lengths = np.array([seq.n_steps for seq in sequences])
    scores = np.empty(len(sequences))
    for n_steps in np.unique(lengths):
        group = np.flatnonzero(lengths == n_steps)
        scores[group] = _set_log_likelihoods([sequences[i] for i in group], model)
    # one by one: the built-in sum compensates its rounding from Python 3.12 on
    total = 0.0
    for score in scores.tolist():
        total += score
    return total


def cross_fitness_distance(set_1, set_2, model_1: LrHmmModel,
                           model_2: LrHmmModel) -> CrossFitnessReport:
    """Score both sequence sets under both models and combine the terms.

    The distance is computed as (ll_11 - ll_12) + (ll_22 - ll_21), which is
    exactly zero when the two (set, model) pairs are identical and is
    bit-for-bit symmetric under jointly swapping them.
    """
    set_1 = list(set_1)
    set_2 = list(set_2)
    if not set_1 or not set_2:
        raise UsageError("both sequence sets must be non-empty")
    ll_11 = _score_set(set_1, model_1, "set_1")
    ll_12 = _score_set(set_1, model_2, "set_1")
    ll_21 = _score_set(set_2, model_1, "set_2")
    ll_22 = _score_set(set_2, model_2, "set_2")
    distance = (ll_11 - ll_12) + (ll_22 - ll_21)
    return CrossFitnessReport(ll_11, ll_22, ll_12, ll_21, distance)
