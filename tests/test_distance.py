import numpy as np
import pytest

from lrhmm import (
    ObservationSequence,
    UsageError,
    cross_fitness_distance,
    log_likelihood,
)
from helpers import random_banded_model, sample_sequence


def _model_and_set(rng, n_states=5, shift=0.0, n_seqs=4):
    model = random_banded_model(rng, n_states, 1)
    if shift:
        from lrhmm import LrHmmModel
        model = LrHmmModel(model.log_pi, model.log_A_band, model.means + shift,
                           model.covariances)
    seqs = [sample_sequence(rng, model, n_states, trial_id=k) for k in range(n_seqs)]
    return model, seqs


def test_identical_pairs_give_exactly_zero():
    rng = np.random.default_rng(50)
    model, seqs = _model_and_set(rng)
    report = cross_fitness_distance(seqs, seqs, model, model)
    assert report.distance == 0.0
    assert report.ll_11 == report.ll_12 == report.ll_21 == report.ll_22


def test_distance_is_symmetric_bit_for_bit():
    rng = np.random.default_rng(51)
    model_1, set_1 = _model_and_set(rng)
    model_2, set_2 = _model_and_set(rng, shift=3.0)
    forward_report = cross_fitness_distance(set_1, set_2, model_1, model_2)
    swapped_report = cross_fitness_distance(set_2, set_1, model_2, model_1)
    assert forward_report.distance == swapped_report.distance
    assert forward_report.ll_11 == swapped_report.ll_22
    assert forward_report.ll_12 == swapped_report.ll_21


def test_distance_combines_the_four_terms():
    rng = np.random.default_rng(52)
    model_1, set_1 = _model_and_set(rng)
    model_2, set_2 = _model_and_set(rng, shift=2.0)
    report = cross_fitness_distance(set_1, set_2, model_1, model_2)
    assert report.distance == ((report.ll_11 - report.ll_12)
                               + (report.ll_22 - report.ll_21))
    expected_ll_11 = sum(log_likelihood(s, model_1) for s in set_1)
    assert report.ll_11 == pytest.approx(expected_ll_11, abs=1e-12)


def test_distance_is_positive_for_well_fit_models():
    rng = np.random.default_rng(53)
    model_1, set_1 = _model_and_set(rng)
    model_2, set_2 = _model_and_set(rng, shift=4.0)
    report = cross_fitness_distance(set_1, set_2, model_1, model_2)
    assert report.distance > 0


def test_distance_grows_with_model_separation():
    distances = []
    for shift in (0.5, 2.0, 8.0):
        rng = np.random.default_rng(54)   # same draws, different separation
        model_1, set_1 = _model_and_set(rng)
        model_2, set_2 = _model_and_set(rng, shift=shift)
        distances.append(cross_fitness_distance(set_1, set_2, model_1, model_2).distance)
    assert distances[0] < distances[1] < distances[2]


def test_distance_rejects_empty_sets():
    rng = np.random.default_rng(55)
    model, seqs = _model_and_set(rng)
    with pytest.raises(UsageError):
        cross_fitness_distance([], seqs, model, model)
    with pytest.raises(UsageError):
        cross_fitness_distance(seqs, [], model, model)


def test_scoring_errors_name_the_offending_set_and_trial():
    rng = np.random.default_rng(56)
    model, seqs = _model_and_set(rng)
    bad = seqs[:-1] + [ObservationSequence(np.zeros((5, 2)), 0.025, trial_id=77)]
    with pytest.raises(UsageError, match="set_2 trial 77"):
        cross_fitness_distance(seqs, bad, model, model)
