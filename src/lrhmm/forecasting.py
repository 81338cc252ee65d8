"""Probabilistic trajectory forecasting from a partial observation.

Given a history covering the first t < N steps, the history is classified
against the two candidate models, decoded to its most likely partial state
path under the winner, and the path is extended greedily along the most
probable in-band transitions.  The forecast for each remaining step is the
Gaussian mean of the corresponding state with a one-standard-deviation band
per channel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import LrHmmModel, ObservationSequence, UsageError
from .inference import classify, viterbi
from .training import _check_scorable

FORECAST_CSV_HEADER = "time_s,channel,mean,lower,upper,class"


@dataclass(frozen=True, eq=False)
class ProbabilisticTrajectory:
    """Forecast of steps ``split_index .. N-1`` of a motion.

    ``means`` and ``stddevs`` have one row per forecast step; ``state_path``
    is the full length-N state sequence (decoded prefix plus greedy
    extension) that produced them.
    """

    split_index: int
    means: np.ndarray
    stddevs: np.ndarray
    class_label: int
    state_path: np.ndarray


def forecast(history: ObservationSequence, model_1: LrHmmModel,
             model_2: LrHmmModel) -> ProbabilisticTrajectory:
    """Forecast the remainder of a motion from its first ``t`` steps."""
    _check_scorable(history, model_1)
    if (model_1.n_states != model_2.n_states
            or model_1.n_dims != model_2.n_dims
            or model_1.band_width != model_2.band_width):
        raise UsageError("the two candidate models must share shape and band width")
    n_states = model_1.n_states
    if history.n_steps >= n_states:
        raise UsageError(
            f"history of {history.n_steps} steps already spans the model horizon "
            f"of {n_states} states; nothing to forecast")

    decision = classify(history, model_1, model_2)
    winner = model_1 if decision.label == 1 else model_2
    prefix = viterbi(history, winner).path
    split = history.n_steps
    # row d holds A[i, i + d] of the non-empty diagonals, -inf past the last
    # state; the first max wins, so ties go to the lowest successor state
    diags = winner.log_A_band[:n_states]
    table = np.full((len(diags), n_states), -np.inf)
    for d, diag in enumerate(diags):
        table[d, :diag.size] = diag
    successors = (np.arange(n_states) + table.argmax(axis=0)).tolist()
    path = prefix.tolist()
    while len(path) < n_states:
        path.append(successors[path[-1]])
    path = np.array(path)

    future = path[split:]
    means = winner.means[future]
    stddevs = np.sqrt(np.diagonal(winner.covariances, axis1=1, axis2=2)[future])
    return ProbabilisticTrajectory(split, means, stddevs, decision.label, path)


def export_forecast(traj: ProbabilisticTrajectory, dt: float) -> list[tuple]:
    """Flatten a forecast to (time_s, channel, mean, lower, upper, class) rows.

    Row times continue the history's sampling grid: forecast step ``r``
    lies at ``(split_index + r) * dt`` seconds.
    """
    if not 0 < dt < math.inf:
        raise UsageError(f"dt must be positive and finite, got {dt}")
    rows = []
    n_dims = traj.means.shape[1]
    for r in range(traj.means.shape[0]):
        time_s = (traj.split_index + r) * dt
        for c in range(n_dims):
            mean = float(traj.means[r, c])
            sd = float(traj.stddevs[r, c])
            rows.append((time_s, c, mean, mean - sd, mean + sd, traj.class_label))
    return rows


def write_forecast_csv(traj: ProbabilisticTrajectory, dt: float, path) -> None:
    """Write :func:`export_forecast` rows with the standard header."""
    with open(path, "w") as fh:
        fh.write(FORECAST_CSV_HEADER + "\n")
        for time_s, channel, mean, lower, upper, label in export_forecast(traj, dt):
            fh.write(f"{time_s!r},{channel},{mean!r},{lower!r},{upper!r},{label}\n")
