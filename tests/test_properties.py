"""Property tests: model files round-trip for arbitrary valid models,
scoring over live spans and over forced prefixes equals the recursions over
all states, and the E-step's posteriors and backward variables equal those
of path enumeration.

Examples are derandomized and bounded, so every run checks the same models.
"""

import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import lrhmm.inference
import lrhmm.training
from lrhmm import (LrHmmModel, ModelError, ObservationSequence, forecast, forward_backward,
                   log_likelihood, model_from_json, model_to_json, prefix_log_likelihoods,
                   viterbi)
from lrhmm.core import _logsumexp
from lrhmm.inference import _set_log_likelihoods
from helpers import (band_diagonals, dense_log_a, enum_log_backward, enum_posteriors,
                     reference_extension, reference_forward, reference_viterbi)

# in-band probabilities: exact zeros (structural -inf in log space) or
# weights that stay normal floats after normalisation
_WEIGHTS = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))


def _band_row(draw, width, weights=_WEIGHTS):
    """A probability vector of ``width`` entries drawn from ``weights``."""
    w = np.array(draw(st.lists(weights, min_size=width, max_size=width)))
    if w.sum() == 0.0:
        w[0] = 1.0
    return w / w.sum()


@st.composite
def banded_models(draw):
    """A valid model: random band diagonals at band 1 to 7, so that some
    bands reach past the last state and end in empty diagonals, arbitrary
    finite means and covariances L L^T of random lower-triangular L."""
    n_states = draw(st.integers(1, 6))
    n_dims = draw(st.integers(1, 3))
    band = draw(st.integers(1, 7))
    diags = [np.zeros(max(n_states - d, 0)) for d in range(band + 1)]
    for i in range(n_states - 1):
        for d, p in enumerate(_band_row(draw, min(band, n_states - 1 - i) + 1)):
            diags[d][i] = p
    diags[0][-1] = 1.0
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
        return LrHmmModel(np.log(pi), [np.log(diag) for diag in diags], means, covs)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(banded_models())
def test_model_json_round_trip_for_arbitrary_models(model):
    back = model_from_json(model_to_json(model))
    # a band past the last state reads as the full band, N - 1 (at least
    # 1); the diagonals it drops are empty
    assert back.band_width == min(model.band_width, max(model.n_states - 1, 1))
    assert not any(diag.size for diag in model.log_A_band[back.band_width + 1:])
    assert back.means.tobytes() == model.means.tobytes()
    assert back.covariances.tobytes() == model.covariances.tobytes()
    pairs = [("log_pi", back.log_pi, model.log_pi)]
    pairs += [(f"diagonal {d}", got, want)
              for d, (got, want) in enumerate(zip(back.log_A_band, model.log_A_band))]
    for name, got, want in pairs:
        # structural -inf entries survive exactly; exp -> decimal text -> log
        # keeps the rest to 1e-15
        assert got.shape == want.shape, name
        assert np.array_equal(np.isneginf(got), np.isneginf(want)), name
        assert np.allclose(got, want, rtol=1e-15, atol=1e-15), name


@st.composite
def holey_models_and_histories(draw):
    """A valid model at band 1 to 3 whose band rows and start distribution
    have zero entries anywhere, self-loops included, three histories of one
    length between 1 and N steps, and prefix lengths in any order, repeats
    allowed.  Some models are tied: their nonzero band and start
    weights are equal, their covariances are unit, and means and histories
    take the values -1, 0 and 1 only, so that paths often score exactly
    alike."""
    n_states = draw(st.integers(1, 8))
    n_dims = draw(st.integers(1, 2))
    band = draw(st.integers(1, 3))
    tied = draw(st.booleans())
    weights = st.sampled_from([0.0, 1.0]) if tied else _WEIGHTS
    a = np.zeros((n_states, n_states))
    for i in range(n_states - 1):
        width = min(band, n_states - 1 - i) + 1
        a[i, i:i + width] = _band_row(draw, width, weights)
    a[-1, -1] = 1.0
    pi = _band_row(draw, n_states, weights)
    level = st.sampled_from([-1.0, 0.0, 1.0]) if tied else st.floats(-3.0, 3.0)
    means = draw(arrays(float, (n_states, n_dims), elements=level))
    scales = draw(arrays(float, (n_states, n_dims),
                         elements=st.just(1.0) if tied else st.floats(0.3, 3.0)))
    covs = scales[:, :, None] * np.eye(n_dims)
    with np.errstate(divide="ignore"):
        model = LrHmmModel(np.log(pi), band_diagonals(np.log(a), band), means, covs)
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
    with mock.patch.object(lrhmm.training, "_BLOCK", block):
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


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(holey_models_and_histories().filter(lambda case: case[0].n_states > 1))
def test_forecast_extends_by_the_greedy_rule(case):
    # tied models hold exact ties among band weights, holey ones -inf
    # entries, and every extension runs to the last state
    model, histories, _ = case
    for seq in histories:
        history = ObservationSequence(seq.values[:model.n_states - 1], seq.dt)
        split = history.n_steps
        path = forecast(history, model, model).state_path
        assert np.array_equal(path[:split], viterbi(history, model).path)
        assert path[split:].tolist() == reference_extension(model, path[split - 1],
                                                             model.n_states - split)


@st.composite
def forced_prefix_models_and_histories(draw, max_states=12):
    """A band-1 model of up to ``max_states`` states with one start state s0
    anywhere and -inf self-loops on its first L states, L from s0 to N, so
    that its forced prefix takes every length; a final state with or
    without a self-loop; and moves or emissions of -inf that may fall
    inside the run.  Rows need not sum to 1.  Returns the model, two
    histories of one length between 1 and N steps that follow the run, and
    the number F of forced steps."""
    n_states = draw(st.integers(1, max_states))
    n_dims = draw(st.integers(1, 2))
    start = draw(st.integers(0, n_states - 1))
    holes = draw(st.integers(start, n_states))
    stay = np.array(draw(st.lists(st.floats(0.05, 0.95), min_size=n_states,
                                  max_size=n_states)))
    stay[-1] = draw(st.sampled_from([0.0, 1.0]))
    stay[:holes] = 0.0
    # drawn apart from the self-loops, so that a run's moves are not all
    # log 1 = 0 and the order of its additions shows
    move = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=n_states - 1,
                                  max_size=n_states - 1)))
    if n_states > 1:
        move[draw(st.lists(st.integers(0, n_states - 2), max_size=2))] = 0.0
    pi = np.zeros(n_states)
    pi[start] = 1.0
    means = np.repeat(np.arange(n_states, dtype=float)[:, None], n_dims, axis=1)
    with np.errstate(divide="ignore"):
        model = LrHmmModel(np.log(pi), [np.log(stay), np.log(move)], means,
                           np.broadcast_to(np.eye(n_dims), (n_states, n_dims, n_dims)))
    n_steps = n_states - draw(st.integers(0, n_states - 1))    # mostly long
    run = means[np.minimum(start + np.arange(n_steps), n_states - 1)]
    histories = []
    for k in range(2):
        values = run + draw(arrays(float, run.shape, elements=st.floats(-1.0, 1.0)))
        if draw(st.booleans()):
            values[draw(st.integers(0, n_steps - 1))] = 1e200    # a density of 0
        histories.append(ObservationSequence(values, 0.025, trial_id=k))
    loops = np.flatnonzero(stay[start:] > 0.0)
    settle = start + loops[0] if loops.size else n_states
    return model, histories, min(settle, n_states - 1) - start + 1


@pytest.mark.parametrize("block", [1, 2, 3, 64])
@settings(max_examples=250, derandomize=True, database=None, deadline=None)
@given(forced_prefix_models_and_histories())
def test_forced_prefix_scoring_equals_the_recursions_over_all_states(block, case):
    # The recursion runs on the chain past step c = max(min(F, T) - 1, 0),
    # whose states start at col = s0 + c, or at 0 if c is 0: each of its
    # steps after the first folds its move in by exactly one combine call
    # when the chain holds more than one state.  A one-state chain, and a
    # history that the forced run covers, run no per-step update.
    model, histories, forced = case
    assert model._forced == forced
    n_steps = histories[0].n_steps
    cut = max(min(forced, n_steps) - 1, 0)
    col = model._spans[0][0] + cut if cut else 0
    updates = n_steps - 1 - cut if model.n_states - col > 1 else 0
    calls = []

    def counted(*args, combine=np.logaddexp, **kwargs):
        def count(*operands, **options):
            calls.append(None)
            return combine(*operands, **options)
        return lrhmm.training._forward(*args, combine=count, **kwargs)

    totals = []
    lengths = np.arange(1, n_steps + 1)
    with mock.patch.object(lrhmm.training, "_BLOCK", block), \
            mock.patch.object(lrhmm.inference, "_forward", counted):
        for seq in histories:
            alpha = reference_forward(seq.values, model)
            totals.append(_logsumexp(alpha[-1]))
            calls.clear()
            assert log_likelihood(seq, model) == totals[-1]
            assert len(calls) == updates
            assert np.array_equal(prefix_log_likelihoods(seq, model, lengths),
                                  _logsumexp(alpha))
            path, score = reference_viterbi(seq.values, model)
            calls.clear()
            if score == -np.inf:
                with pytest.raises(ModelError):
                    viterbi(seq, model)
            else:
                decoded = viterbi(seq, model)
                assert np.array_equal(decoded.path, path) and decoded.log_prob == score
            assert len(calls) == updates
        assert np.array_equal(_set_log_likelihoods(histories, model), totals)


def _spaced_walk(model, data, n_steps):
    """The model with state j's mean moved by 100 j, and a history of up to
    ``n_steps`` that sits on the means of a drawn path of it.  Every state
    off the path then trails by hundreds of nats, so that a window of a
    few states follows the path and drops states whose mass it certifies
    as lost."""
    log_a = dense_log_a(model.log_A_band, model.n_states)
    path = [data.draw(st.sampled_from(np.flatnonzero(model.log_pi > -np.inf).tolist()))]
    for _ in range(n_steps - 1):
        ways_on = np.flatnonzero(log_a[path[-1]] > -np.inf).tolist()
        if not ways_on:                     # a state with no way on ends the walk
            break
        path.append(data.draw(st.sampled_from(ways_on)))
    means = model.means + 100.0 * np.arange(model.n_states)[:, None]
    return LrHmmModel(model.log_pi, model.log_A_band, means, model.covariances), means[path]


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.one_of(holey_models_and_histories(), forced_prefix_models_and_histories(4)),
       st.data())
def test_e_step_equals_path_enumeration(case, data):
    # The backward pass runs over the forward's ranges, reversed.  A term
    # it leaves out below lo_t+1 must be one whose state's -inf self-loop
    # made lo advance; the holey draws have such holes, several start
    # states and ties.  The forced-prefix draws split the E-step after
    # min(F, T) - 1 forced steps, F from 1 to N and s0 anywhere; their -inf
    # moves and 1e200 readings give histories of zero likelihood, which
    # have no posteriors.  Each history is cut to at most 4096 paths, and
    # each runs densely and with windows of 2 states, as does a walk along
    # a drawn path of the model with its means spaced apart, both with the
    # posteriors in one block and a step at a time behind the backward pass.
    model, histories, _ = case
    n_states = model.n_states
    n_steps = min(int(math.log(4096, n_states)), n_states) if n_states > 1 else 1
    cases = [(model, seq.values[:n_steps]) for seq in histories]
    for hmm, values in cases + [_spaced_walk(model, data, n_steps)]:
        if _logsumexp(reference_forward(values, hmm)[-1]) == -np.inf:
            with pytest.raises(ModelError, match="zero likelihood"):
                forward_backward(ObservationSequence(values, 0.025), hmm)
            continue
        log_lik, gamma, xi = enum_posteriors(values, hmm)
        log_beta = enum_log_backward(values, hmm)
        finite = np.isfinite(log_beta)
        for window, elements in ((64, None), (2, None), (64, 1), (2, 1)):
            with mock.patch.object(lrhmm.training, "_WINDOW", window), \
                    mock.patch.object(lrhmm.training, "_POSTERIOR_ELEMENTS",
                                      elements or lrhmm.training._POSTERIOR_ELEMENTS):
                cache = forward_backward(ObservationSequence(values, 0.025), hmm)
            assert abs(cache.log_likelihood - log_lik) < 1e-9
            assert np.abs(cache.gamma - gamma).max() < 1e-9
            assert np.abs(np.exp(dense_log_a(cache.log_xi_sums, n_states)) - xi).max() < 1e-9
            assert np.array_equal(np.isfinite(cache.log_beta), finite)
            assert np.abs(cache.log_beta[finite] - log_beta[finite]).max() < 1e-9
