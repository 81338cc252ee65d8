"""Property tests: model files round-trip for arbitrary valid models, and
scoring over live spans equals the recursions over all states.

Examples are derandomized and bounded, so every run checks the same models.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import lrhmm.inference
from lrhmm import (LrHmmModel, ObservationSequence, log_likelihood, model_from_json,
                   model_to_json, prefix_log_likelihoods, viterbi)
from lrhmm.core import _logsumexp
from lrhmm.inference import _set_log_likelihoods
from helpers import reference_forward, reference_viterbi

# in-band probabilities: exact zeros (structural -inf in log space) or
# weights that stay normal floats after normalisation
_WEIGHTS = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))


def _band_row(draw, width):
    """A probability vector of ``width`` entries."""
    w = np.array(draw(st.lists(_WEIGHTS, min_size=width, max_size=width)))
    if w.sum() == 0.0:
        w[0] = 1.0
    return w / w.sum()


@st.composite
def banded_models(draw):
    """A valid model: random band rows at band 1 or 2, arbitrary finite
    means and covariances L L^T of random lower-triangular L."""
    n_states = draw(st.integers(1, 6))
    n_dims = draw(st.integers(1, 3))
    band = draw(st.sampled_from([1, 2]))
    a = np.zeros((n_states, n_states))
    for i in range(n_states - 1):
        width = min(band, n_states - 1 - i) + 1
        a[i, i:i + width] = _band_row(draw, width)
    a[-1, -1] = 1.0
    pi = np.zeros(n_states)
    pi[:min(band + 1, n_states)] = _band_row(draw, min(band + 1, n_states))

    means = draw(arrays(float, (n_states, n_dims),
                        elements=st.floats(allow_nan=False, allow_infinity=False)))
    lower = np.tril(draw(arrays(float, (n_states, n_dims, n_dims),
                                elements=st.floats(-10.0, 10.0))), -1)
    diag = draw(arrays(float, (n_states, n_dims), elements=st.floats(0.1, 10.0)))
    chol = lower + diag[:, :, None] * np.eye(n_dims)
    covs = chol @ chol.transpose(0, 2, 1)
    covs = 0.5 * (covs + covs.transpose(0, 2, 1))
    with np.errstate(divide="ignore"):
        return LrHmmModel(np.log(pi), np.log(a), means, covs, band)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(banded_models())
def test_model_json_round_trip_for_arbitrary_models(model):
    back = model_from_json(model_to_json(model))
    assert back.band_width == model.band_width
    assert back.means.tobytes() == model.means.tobytes()
    assert back.covariances.tobytes() == model.covariances.tobytes()
    for name in ("log_pi", "log_A"):
        got, want = getattr(back, name), getattr(model, name)
        # structural -inf entries survive exactly; exp -> decimal text -> log
        # keeps the rest to 1e-15
        assert np.array_equal(np.isneginf(got), np.isneginf(want)), name
        assert np.allclose(got, want, rtol=1e-15, atol=1e-15), name


@st.composite
def holey_models_and_histories(draw):
    """A valid model at band 1 to 3 whose band rows and start distribution
    have zero entries anywhere, self-loops included, three histories of one
    length between 1 and N steps, and prefix lengths in any order, repeats
    allowed."""
    n_states = draw(st.integers(1, 8))
    n_dims = draw(st.integers(1, 2))
    band = draw(st.integers(1, 3))
    a = np.zeros((n_states, n_states))
    for i in range(n_states - 1):
        width = min(band, n_states - 1 - i) + 1
        a[i, i:i + width] = _band_row(draw, width)
    a[-1, -1] = 1.0
    pi = _band_row(draw, n_states)
    level = st.floats(-3.0, 3.0)
    means = draw(arrays(float, (n_states, n_dims), elements=level))
    scales = draw(arrays(float, (n_states, n_dims), elements=st.floats(0.3, 3.0)))
    covs = scales[:, :, None] * np.eye(n_dims)
    with np.errstate(divide="ignore"):
        model = LrHmmModel(np.log(pi), np.log(a), means, covs, band)
    n_steps = draw(st.integers(1, n_states))
    histories = [ObservationSequence(draw(arrays(float, (n_steps, n_dims), elements=level)),
                                     0.025, trial_id=k) for k in range(3)]
    steps = draw(st.lists(st.integers(1, n_steps), min_size=1, max_size=2 * n_steps))
    return model, histories, np.array(steps)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(holey_models_and_histories(), st.sampled_from([1, 2, 3, 64]))
def test_span_scoring_equals_the_recursions_over_all_states(case, block):
    model, histories, steps = case
    totals = []
    # short emission blocks put block boundaries inside these short histories
    with mock.patch.object(lrhmm.inference, "_SCORING_BLOCK", block):
        for seq in histories:
            alpha = reference_forward(seq.values, model)
            totals.append(_logsumexp(alpha[-1]))
            assert log_likelihood(seq, model) == totals[-1]
            assert np.array_equal(prefix_log_likelihoods(seq, model, steps),
                                  _logsumexp(alpha[steps - 1]))
            path, score = reference_viterbi(seq.values, model)
            decoded = viterbi(seq, model)
            assert np.isfinite(score)
            assert np.array_equal(decoded.path, path) and decoded.log_prob == score
        assert np.array_equal(_set_log_likelihoods(histories, model), totals)
