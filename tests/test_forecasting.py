import math

import numpy as np
import pytest

import lrhmm.inference
from lrhmm import (
    FORECAST_CSV_HEADER,
    LrHmmModel,
    ObservationSequence,
    UsageError,
    classify,
    export_forecast,
    forecast,
    log_likelihood,
    viterbi,
    write_forecast_csv,
)
from helpers import random_banded_model


def _ladder_model(n_states, advance=0.9, means=None, var=0.04):
    """Canonical model whose states emit distinct levels and mostly advance."""
    if means is None:
        means = [float(j) for j in range(n_states)]
    log_pi = np.full(n_states, -np.inf)
    log_pi[0] = 0.0
    log_a = np.full((n_states, n_states), -np.inf)
    for i in range(n_states - 1):
        log_a[i, i] = math.log(1.0 - advance)
        log_a[i, i + 1] = math.log(advance)
    log_a[-1, -1] = 0.0
    return LrHmmModel(log_pi, log_a, np.array(means, dtype=float)[:, None],
                      np.full((n_states, 1, 1), var), 1)


def test_forecast_extends_along_the_most_probable_transitions():
    model_1 = _ladder_model(5)
    model_2 = _ladder_model(5, means=[10.0 + j for j in range(5)])
    history = ObservationSequence(np.array([[0.05], [1.1]]), 0.025)
    traj = forecast(history, model_1, model_2)
    assert traj.class_label == 1
    assert traj.split_index == 2
    assert np.array_equal(traj.state_path, [0, 1, 2, 3, 4])
    assert np.array_equal(traj.means[:, 0], [2.0, 3.0, 4.0])
    assert np.allclose(traj.stddevs, 0.2)


def test_forecast_picks_the_other_class_when_it_fits_better():
    model_1 = _ladder_model(4)
    model_2 = _ladder_model(4, means=[10.0 + j for j in range(4)])
    history = ObservationSequence(np.array([[10.1], [10.9]]), 0.025)
    traj = forecast(history, model_1, model_2)
    assert traj.class_label == 2
    assert np.array_equal(traj.means[:, 0], [12.0, 13.0])


def test_forecast_tie_in_transition_row_stays_in_place():
    model = _ladder_model(4, advance=0.5)   # stay and advance tie exactly
    rival = _ladder_model(4, means=[50.0] * 4)
    history = ObservationSequence(np.array([[0.0]]), 0.025)
    traj = forecast(history, model, rival)
    # greedy extension prefers the lower state on exact ties, so it never
    # advances past the first state
    assert np.array_equal(traj.state_path, [0, 0, 0, 0])


def test_forecast_stops_at_the_final_state():
    model = _ladder_model(3, advance=0.95)
    rival = _ladder_model(3, means=[9.0, 10.0, 11.0])
    history = ObservationSequence(np.array([[0.0], [1.0]]), 0.025)
    traj = forecast(history, model, rival)
    assert traj.state_path[-1] == 2
    assert traj.means.shape == (1, 1)


def test_forecast_rejects_full_and_overlong_histories():
    model = _ladder_model(3)
    rival = _ladder_model(3, means=[5.0, 6.0, 7.0])
    with pytest.raises(UsageError):
        forecast(ObservationSequence(np.zeros((3, 1)), 0.025), model, rival)
    with pytest.raises(UsageError):
        forecast(ObservationSequence(np.zeros((4, 1)), 0.025), model, rival)


def test_forecast_rejects_mismatched_model_pair():
    rng = np.random.default_rng(40)
    a = random_banded_model(rng, 4, 1)
    b = random_banded_model(rng, 5, 1)
    c = random_banded_model(rng, 4, 1, band_width=2)
    history = ObservationSequence(np.zeros((2, 1)), 0.025)
    with pytest.raises(UsageError):
        forecast(history, a, b)
    with pytest.raises(UsageError):
        forecast(history, a, c)


def test_export_rows_continue_the_sampling_grid():
    model_1 = _ladder_model(5)
    model_2 = _ladder_model(5, means=[10.0 + j for j in range(5)])
    history = ObservationSequence(np.array([[0.0], [1.0]]), 0.025)
    traj = forecast(history, model_1, model_2)
    rows = export_forecast(traj, 0.025)
    assert len(rows) == 3   # three forecast steps, one channel
    times = [r[0] for r in rows]
    assert times == pytest.approx([0.05, 0.075, 0.1])
    for time_s, channel, mean, lower, upper, label in rows:
        assert channel == 0
        assert label == 1
        assert lower == pytest.approx(mean - 0.2)
        assert upper == pytest.approx(mean + 0.2)


def test_export_rejects_bad_dt():
    model_1 = _ladder_model(3)
    model_2 = _ladder_model(3, means=[5.0, 6.0, 7.0])
    traj = forecast(ObservationSequence(np.array([[0.0]]), 0.025), model_1, model_2)
    with pytest.raises(UsageError):
        export_forecast(traj, 0.0)


def test_forecast_csv_layout(tmp_path):
    model_1 = _ladder_model(4)
    model_2 = _ladder_model(4, means=[10.0 + j for j in range(4)])
    history = ObservationSequence(np.array([[0.0], [1.0]]), 0.025)
    traj = forecast(history, model_1, model_2)
    out = tmp_path / "forecast.csv"
    write_forecast_csv(traj, 0.025, out)
    lines = out.read_text().splitlines()
    assert lines[0] == FORECAST_CSV_HEADER
    assert len(lines) == 1 + 2
    cells = lines[1].split(",")
    assert len(cells) == 6
    assert float(cells[0]) == 0.05
    assert int(cells[1]) == 0
    assert float(cells[3]) < float(cells[2]) < float(cells[4])
    assert cells[5] == "1"


def test_forecast_reads_the_winner_emissions_exactly():
    rng = np.random.default_rng(42)
    model_1 = random_banded_model(rng, 8, 3, band_width=2)
    model_2 = random_banded_model(rng, 8, 3, band_width=2)
    for split in (1, 4, 7):
        history = ObservationSequence(rng.normal(0.0, 2.0, (split, 3)), 0.05)
        traj = forecast(history, model_1, model_2)
        winner = model_1 if traj.class_label == 1 else model_2
        future = traj.state_path[split:]
        assert np.array_equal(traj.means, np.stack([winner.means[j] for j in future]))
        assert np.array_equal(traj.stddevs, np.stack(
            [np.sqrt(np.diag(winner.covariances[j])) for j in future]))


def test_forecast_scores_each_model_once(monkeypatch):
    rng = np.random.default_rng(43)
    model_1 = random_banded_model(rng, 6, 2)
    model_2 = random_banded_model(rng, 6, 2)
    history = ObservationSequence(rng.normal(0.0, 1.0, (3, 2)), 0.05)
    label = classify(history, model_1, model_2).label
    path = viterbi(history, model_1 if label == 1 else model_2).path

    # history steps scored per model; a block of scores may cover any
    # states of one model, so calls are told apart by the means they read
    scored = {1: 0, 2: 0}
    real_log_b = lrhmm.inference._log_b

    def counting_log_b(values, means, *rest):
        owners = [k for k, model in ((1, model_1), (2, model_2))
                  if np.shares_memory(means, model.means)]
        assert len(owners) == 1
        scored[owners[0]] += values.shape[-2]
        return real_log_b(values, means, *rest)

    monkeypatch.setattr(lrhmm.inference, "_log_b", counting_log_b)
    traj = forecast(history, model_1, model_2)
    assert traj.class_label == label
    assert np.array_equal(traj.state_path[:3], path)
    assert scored == {1: 3, 2: 3}
    # the shared scores do not outlive the forecast
    log_likelihood(history, model_1)
    assert scored == {1: 6, 2: 3}


def test_forecast_with_multichannel_emissions(tmp_path):
    rng = np.random.default_rng(41)
    model_1 = random_banded_model(rng, 5, 2)
    model_2 = random_banded_model(rng, 5, 2)
    history = ObservationSequence(rng.normal(0.0, 1.0, (2, 2)), 0.05)
    traj = forecast(history, model_1, model_2)
    assert traj.means.shape == (3, 2)
    assert traj.stddevs.shape == (3, 2)
    winner = model_1 if traj.class_label == 1 else model_2
    for r, j in enumerate(traj.state_path[2:]):
        assert np.array_equal(traj.means[r], winner.means[j])
        assert np.allclose(traj.stddevs[r], np.sqrt(np.diag(winner.covariances[j])))
    rows = export_forecast(traj, 0.05)
    assert len(rows) == 6   # three steps times two channels
    write_forecast_csv(traj, 0.05, tmp_path / "fc.csv")
    text = (tmp_path / "fc.csv").read_text().splitlines()
    assert len(text) == 7
