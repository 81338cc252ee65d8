import math
from unittest import mock

import numpy as np
import pytest

import lrhmm.inference
from lrhmm import (
    LrHmmModel,
    ModelError,
    ObservationSequence,
    UsageError,
    classify,
    log_likelihood,
    prefix_log_likelihoods,
    viterbi,
)
from lrhmm.core import _logsumexp
from helpers import (band_diagonals, enum_log_likelihood, enum_viterbi, oracle_log_density,
                     random_banded_model, reference_forward, reference_viterbi,
                     sample_sequence)


def _shifted_model(model, offset):
    """The same model with every emission mean translated by ``offset``."""
    return LrHmmModel(model.log_pi, model.log_A_band, model.means + offset,
                      model.covariances)


# ---------------------------------------------------------------------------
# likelihood scoring
# ---------------------------------------------------------------------------

def test_forced_path_likelihood_is_a_density_sum():
    # all advance probabilities are 1, so the only path is 0 -> 1 -> 2 and
    # the likelihood reduces to a sum of per-step densities
    means = np.arange(3.0)[:, None]
    log_pi = np.array([0.0, -np.inf, -np.inf])
    log_a_band = ([-np.inf, -np.inf, 0.0], [0.0, 0.0])
    model = LrHmmModel(log_pi, log_a_band, means, np.full((3, 1, 1), 0.81))
    values = np.array([[0.1], [-0.7], [1.2]])
    seq = ObservationSequence(values, 0.025)
    expected = sum(oracle_log_density(v, mean, [[0.81]]) for v, mean in zip(values, means))
    assert abs(log_likelihood(seq, model) - expected) < 1e-12


def _check_likelihood_against_enumeration(rng, n_models, n_dims):
    for _ in range(n_models):
        n_states = int(rng.integers(1, 5))
        n_steps = int(rng.integers(1, n_states + 1))
        model = random_banded_model(rng, n_states, n_dims,
                                    band_width=int(rng.integers(1, 3)))
        seq = ObservationSequence(rng.normal(0.0, 2.0, (n_steps, n_dims)), 0.025)
        assert abs(log_likelihood(seq, model) - enum_log_likelihood(seq.values, model)) < 1e-9


def test_forced_run_across_emission_blocks_leaves_no_stale_row():
    # 150 states, forced for the first 101 steps: the forced run is longer
    # than a 64-step emission block, and the chain past it starts at step
    # and state 100, in rolling rows of its own.  The history fits the run
    # and then leaves the means far behind, so a finite value left from an
    # earlier step would dominate the final log-sum-exp.
    n_states = 150
    stay = np.full(n_states, 0.5)
    stay[:100] = 0.0
    stay[-1] = 1.0
    with np.errstate(divide="ignore"):
        log_pi = np.log(np.eye(n_states)[0])
        model = LrHmmModel(log_pi, [np.log(stay), np.log1p(-stay[:-1])],
                           np.zeros((n_states, 1)), np.ones((n_states, 1, 1)))
    assert model._forced == 101
    values = np.zeros((n_states, 1))
    values[110:] = 30.0
    seq = ObservationSequence(values, 0.025)
    alpha = reference_forward(values, model)
    assert log_likelihood(seq, model) == _logsumexp(alpha[-1]) < -10000.0
    assert np.array_equal(prefix_log_likelihoods(seq, model, np.arange(1, n_states + 1)),
                          _logsumexp(alpha))
    path, score = reference_viterbi(values, model)
    decoded = viterbi(seq, model)
    assert np.array_equal(decoded.path, path) and decoded.log_prob == score


def test_likelihood_matches_enumeration():
    _check_likelihood_against_enumeration(np.random.default_rng(21), 20, 2)


def test_likelihood_matches_enumeration_with_three_channels():
    _check_likelihood_against_enumeration(np.random.default_rng(24), 10, 3)


def test_prefix_likelihoods_match_truncated_scoring():
    rng = np.random.default_rng(22)
    model = random_banded_model(rng, 6, 1)
    seq = ObservationSequence(rng.normal(0.0, 1.0, (6, 1)), 0.025)
    steps = np.arange(1, 7)
    batch = prefix_log_likelihoods(seq, model, steps)
    for s, value in zip(steps, batch):
        prefix = ObservationSequence(seq.values[:s], seq.dt)
        assert abs(value - log_likelihood(prefix, model)) < 1e-12


def test_prefix_likelihood_input_validation():
    rng = np.random.default_rng(23)
    model = random_banded_model(rng, 4, 1)
    seq = ObservationSequence(np.zeros((4, 1)), 0.025)
    with pytest.raises(UsageError):
        prefix_log_likelihoods(seq, model, [])
    with pytest.raises(UsageError):
        prefix_log_likelihoods(seq, model, [0])
    with pytest.raises(UsageError):
        prefix_log_likelihoods(seq, model, [5])


@pytest.mark.parametrize("steps", [[2.7], [1, 2.5], [float("nan")], [float("inf")], [True]],
                         ids=["fraction", "mixed", "nan", "inf", "bool"])
def test_prefix_lengths_must_be_whole_steps(steps):
    # a fractional length used to be truncated: [2.7] scored 2 steps
    rng = np.random.default_rng(23)
    model = random_banded_model(rng, 4, 1)
    seq = ObservationSequence(np.zeros((4, 1)), 0.025)
    with pytest.raises(UsageError, match="whole numbers"):
        prefix_log_likelihoods(seq, model, steps)


def test_prefix_lengths_may_be_whole_floats_in_any_shape():
    rng = np.random.default_rng(23)
    model = random_banded_model(rng, 4, 1)
    seq = ObservationSequence(rng.normal(0.0, 1.0, (4, 1)), 0.025)
    want = prefix_log_likelihoods(seq, model, [[3, 1], [3, 4]])
    assert want.shape == (2, 2)
    assert np.array_equal(prefix_log_likelihoods(seq, model, np.array([[3.0, 1.0], [3.0, 4.0]])),
                          want)
    assert want[0, 0] == want[1, 0] == prefix_log_likelihoods(seq, model, [3])[0]


def test_likelihood_rejects_overlong_history():
    rng = np.random.default_rng(24)
    model = random_banded_model(rng, 3, 1)
    with pytest.raises(UsageError):
        log_likelihood(ObservationSequence(np.zeros((4, 1)), 0.025), model)


def test_likelihood_is_translation_equivariant():
    rng = np.random.default_rng(25)
    model = random_banded_model(rng, 5, 1)
    shifted = _shifted_model(model, 37.5)
    seq = ObservationSequence(rng.normal(0.0, 1.0, (5, 1)), 0.025)
    moved = ObservationSequence(seq.values + 37.5, 0.025)
    assert abs(log_likelihood(seq, model) - log_likelihood(moved, shifted)) < 1e-9


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_classify_prefers_the_generating_model():
    rng = np.random.default_rng(26)
    model_1 = random_banded_model(rng, 5, 1)
    model_2 = _shifted_model(model_1, 50.0)
    seq = sample_sequence(rng, model_1, 5)
    decision = classify(seq, model_1, model_2)
    assert decision.label == 1
    assert decision.margin > 0
    flipped = classify(seq, model_2, model_1)
    assert flipped.label == 2
    assert flipped.margin == decision.margin


def test_classify_reports_both_likelihoods():
    rng = np.random.default_rng(27)
    model_1 = random_banded_model(rng, 4, 1)
    model_2 = random_banded_model(rng, 4, 1)
    seq = ObservationSequence(rng.normal(0.0, 1.0, (4, 1)), 0.025)
    decision = classify(seq, model_1, model_2)
    assert decision.log_likelihoods[0] == log_likelihood(seq, model_1)
    assert decision.log_likelihoods[1] == log_likelihood(seq, model_2)
    assert decision.margin == abs(decision.log_likelihoods[0]
                                  - decision.log_likelihoods[1])


def test_classify_breaks_exact_ties_toward_label_1():
    rng = np.random.default_rng(28)
    model = random_banded_model(rng, 3, 1)
    seq = ObservationSequence(rng.normal(0.0, 1.0, (3, 1)), 0.025)
    decision = classify(seq, model, model)
    assert decision.label == 1
    assert decision.margin == 0.0


def test_classify_rejects_a_history_impossible_under_both_models():
    # readings at 1e200 overflow every quadratic form: both densities are
    # exactly 0, so there is no decision (the margin used to be NaN)
    rng = np.random.default_rng(28)
    model_1 = random_banded_model(rng, 3, 2)
    model_2 = random_banded_model(rng, 3, 2)
    seq = ObservationSequence(np.full((3, 2), 1e200), 0.025)
    assert log_likelihood(seq, model_1) == -math.inf
    with pytest.raises(ModelError, match="zero likelihood"):
        classify(seq, model_1, model_2)


def test_viterbi_rejects_a_history_with_zero_likelihood():
    # every path has probability 0, so no path is the most likely one (the
    # decoder used to return the path [0, 0, 0] with log_prob -inf).  A
    # 6-state model forced for 4 steps meets a 1e200 reading at step 1 in
    # a history that its forced run covers, which runs no recursion, and in
    # one that runs past the run; the prefix scores are -inf from there on.
    model = random_banded_model(np.random.default_rng(29), 3, 1)
    cases = [(model, np.full((3, 1), 1e200), None)]
    stay = np.array([0.0, 0.0, 0.0, 0.5, 0.5, 1.0])
    with np.errstate(divide="ignore"):
        forced = LrHmmModel(np.log(np.eye(6)[0]), [np.log(stay), np.log1p(-stay[:-1])],
                            np.arange(6.0)[:, None], np.full((6, 1, 1), 0.04))
    assert forced._forced == 4
    for n_steps, recursions in ((3, 0), (6, 1)):
        values = np.arange(n_steps, dtype=float)[:, None] + 0.1
        values[1] = 1e200
        cases.append((forced, values, recursions))
    for hmm, values, recursions in cases:
        seq = ObservationSequence(values, 0.025)
        with mock.patch.object(lrhmm.inference, "_forward",
                               wraps=lrhmm.inference._forward) as spy:
            with pytest.raises(ModelError, match="zero likelihood"):
                viterbi(seq, hmm)
        if recursions is None:
            continue
        assert spy.call_count == recursions
        assert log_likelihood(seq, hmm) == -math.inf
        scores = prefix_log_likelihoods(seq, hmm, np.arange(1, len(values) + 1))
        assert np.isfinite(scores[0]) and np.all(scores[1:] == -math.inf)


def test_classify_is_reliable_at_wide_separation():
    # the two models differ by five standard deviations per step, so
    # essentially every sampled sequence must be attributed correctly
    rng = np.random.default_rng(29)
    base = random_banded_model(rng, 6, 1)
    sigma = math.sqrt(float(base.covariances[:, 0, 0].max()))
    other = _shifted_model(base, 5.0 * sigma)
    correct = 0
    for k in range(50):
        seq_1 = sample_sequence(rng, base, 6)
        seq_2 = sample_sequence(rng, other, 6)
        correct += classify(seq_1, base, other).label == 1
        correct += classify(seq_2, base, other).label == 2
    assert correct >= 99


# ---------------------------------------------------------------------------
# Viterbi decoding
# ---------------------------------------------------------------------------

def _check_viterbi_against_enumeration(rng, n_models, dims):
    """``dims`` is the [low, high) range each model draws its channel count from."""
    for _ in range(n_models):
        n_states = int(rng.integers(1, 5))
        n_steps = int(rng.integers(1, n_states + 1))
        n_dims = int(rng.integers(*dims))
        model = random_banded_model(rng, n_states, n_dims,
                                    band_width=int(rng.integers(1, 3)),
                                    canonical_pi=bool(rng.integers(0, 2)))
        seq = ObservationSequence(rng.normal(0.0, 2.0, (n_steps, n_dims)), 0.025)
        result = viterbi(seq, model)
        ref_path, ref_score = enum_viterbi(seq.values, model)
        assert np.array_equal(result.path, ref_path)
        assert abs(result.log_prob - ref_score) < 1e-9


def test_viterbi_matches_enumeration():
    _check_viterbi_against_enumeration(np.random.default_rng(30), 30, (1, 3))


def test_viterbi_matches_enumeration_with_three_channels():
    _check_viterbi_against_enumeration(np.random.default_rng(32), 10, (3, 4))


def test_viterbi_path_is_monotone_within_the_band():
    rng = np.random.default_rng(31)
    model = random_banded_model(rng, 6, 1, band_width=2)
    seq = ObservationSequence(rng.normal(0.0, 1.0, (6, 1)), 0.025)
    path = viterbi(seq, model).path
    assert path[0] == 0   # canonical start distribution
    diffs = np.diff(path)
    assert np.all(diffs >= 0)
    assert np.all(diffs <= 2)


def test_viterbi_score_never_exceeds_total_likelihood():
    rng = np.random.default_rng(32)
    for _ in range(10):
        model = random_banded_model(rng, 4, 1)
        seq = ObservationSequence(rng.normal(0.0, 1.0, (4, 1)), 0.025)
        assert viterbi(seq, model).log_prob <= log_likelihood(seq, model) + 1e-9


def test_viterbi_breaks_ties_toward_lower_states():
    # identical emissions and a 50/50 stay-or-advance row make the two
    # two-step paths (0,0) and (0,1) score identically
    log_pi = np.array([0.0, -np.inf])
    log_a_band = ([math.log(0.5), 0.0], [math.log(0.5)])
    model = LrHmmModel(log_pi, log_a_band, np.zeros((2, 1)), np.ones((2, 1, 1)))
    seq = ObservationSequence(np.zeros((2, 1)), 0.025)
    result = viterbi(seq, model)
    assert np.array_equal(result.path, [0, 0])
    ref_path, _ = enum_viterbi(seq.values, model)
    assert np.array_equal(result.path, ref_path)


def test_viterbi_is_translation_equivariant():
    rng = np.random.default_rng(33)
    model = random_banded_model(rng, 5, 1)
    shifted = _shifted_model(model, -12.25)
    seq = ObservationSequence(rng.normal(0.0, 1.0, (5, 1)), 0.025)
    moved = ObservationSequence(seq.values - 12.25, 0.025)
    assert np.array_equal(viterbi(seq, model).path, viterbi(moved, shifted).path)


@pytest.mark.parametrize("band", [1, 2, 3])
def test_viterbi_matches_the_reference_loop(band):
    # long paths over many states, with start mass on several states, and
    # histories shorter than the horizon; paths and scores bit for bit
    rng = np.random.default_rng(34 + band)
    for n_states, n_steps, canonical in ((40, 40, True), (60, 25, False), (90, 90, True)):
        model = random_banded_model(rng, n_states, 2, band_width=band, canonical_pi=canonical)
        seq = ObservationSequence(rng.normal(0.0, 2.0, (n_steps, 2)), 0.025)
        result = viterbi(seq, model)
        ref_path, ref_score = reference_viterbi(seq.values, model)
        assert np.array_equal(result.path, ref_path)
        assert result.log_prob == ref_score


def test_viterbi_breaks_band_2_ties_like_the_reference_loop():
    # Identical emissions for states 0-5 and uniform band-2 rows make many
    # paths score the same; a last sample on state 6's mean pulls the path
    # to the top, so the predecessor chosen at each tie shows in it.
    n_states = 7
    means = np.zeros((n_states, 1))
    means[6] = 4.0
    log_a = np.full((n_states, n_states), -np.inf)
    for i in range(n_states):
        hi = min(i + 2, n_states - 1)
        log_a[i, i:hi + 1] = -math.log(hi - i + 1)
    log_pi = np.full(n_states, -np.inf)
    log_pi[:3] = -math.log(3.0)
    model = LrHmmModel(log_pi, band_diagonals(log_a, 2), means, np.ones((n_states, 1, 1)))
    for n_steps in (1, 2, 4, 5, 7):
        values = np.zeros((n_steps, 1))
        values[-1] = 4.0
        seq = ObservationSequence(values, 0.025)
        result = viterbi(seq, model)
        ref_path, ref_score = reference_viterbi(seq.values, model)
        assert np.array_equal(result.path, ref_path)
        assert result.log_prob == ref_score
        if n_steps <= 4:
            assert np.array_equal(result.path, enum_viterbi(seq.values, model)[0])
