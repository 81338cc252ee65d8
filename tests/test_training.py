import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import logsumexp

import lrhmm.training
from lrhmm import (
    DegenerateStateError,
    LrHmmModel,
    ModelError,
    ObservationSequence,
    SyntheticConfig,
    TrainingConfig,
    UsageError,
    baum_welch,
    forward_backward,
    generate_synthetic,
    initialize_model,
    log_likelihood,
    validate_model,
)
from helpers import (
    enum_log_likelihood,
    enum_pair_posteriors,
    enum_paths,
    path_log_score,
    random_banded_model,
    sample_sequence,
)


def _random_sequences(rng, n_seqs, n_steps, n_dims, scale=1.0):
    return [
        ObservationSequence(rng.normal(0.0, scale, (n_steps, n_dims)), 0.025,
                            trial_id=k)
        for k in range(n_seqs)
    ]


# ---------------------------------------------------------------------------
# forward-backward against path enumeration
# ---------------------------------------------------------------------------

def test_forward_backward_matches_enumeration():
    rng = np.random.default_rng(42)
    for _ in range(30):
        n_states = int(rng.integers(1, 5))
        n_steps = int(rng.integers(1, n_states + 1))
        n_dims = int(rng.integers(1, 3))
        band = int(rng.integers(1, 3))
        model = random_banded_model(rng, n_states, n_dims, band_width=band,
                                    canonical_pi=bool(rng.integers(0, 2)))
        seq = ObservationSequence(rng.normal(0.0, 2.0, (n_steps, n_dims)), 0.025)
        cache = forward_backward(seq, model)

        assert abs(cache.log_likelihood - enum_log_likelihood(seq.values, model)) < 1e-9

        # every prefix likelihood falls out of the same forward table
        for t in range(n_steps):
            prefix_ll = float(logsumexp(cache.log_alpha[t]))
            assert abs(prefix_ll - enum_log_likelihood(seq.values[:t + 1], model)) < 1e-9

        # state posteriors, by brute force over complete paths
        gamma_ref = np.zeros((n_steps, n_states))
        for path in enum_paths(n_states, n_steps):
            w = math.exp(path_log_score(seq.values, model, path) - cache.log_likelihood)
            for t, j in enumerate(path):
                gamma_ref[t, j] += w
        assert np.abs(cache.gamma - gamma_ref).max() < 1e-9

        xi_ref = enum_pair_posteriors(seq.values, model)
        assert np.abs(np.exp(cache.log_xi_sums) - xi_ref).max() < 1e-9


def test_posteriors_are_normalized_with_exact_structural_zeros():
    rng = np.random.default_rng(5)
    model = random_banded_model(rng, 4, 1, band_width=1, canonical_pi=True)
    seq = ObservationSequence(rng.normal(0.0, 1.0, (4, 1)), 0.025)
    cache = forward_backward(seq, model)
    assert np.abs(cache.gamma.sum(axis=1) - 1.0).max() < 1e-9
    assert np.all(cache.gamma >= 0.0)
    # starting from state 0 with band 1, state j is unreachable before step j
    for t in range(4):
        for j in range(t + 1, 4):
            assert cache.gamma[t, j] == 0.0


def test_forward_backward_single_step_sequence():
    rng = np.random.default_rng(6)
    model = random_banded_model(rng, 3, 1)
    seq = ObservationSequence(np.array([[0.3]]), 0.025)
    cache = forward_backward(seq, model)
    assert abs(cache.log_likelihood - enum_log_likelihood(seq.values, model)) < 1e-9
    assert np.all(np.isneginf(cache.log_xi_sums))


def test_forward_backward_rejects_overlong_and_mismatched_input():
    rng = np.random.default_rng(7)
    model = random_banded_model(rng, 3, 1)
    with pytest.raises(UsageError):
        forward_backward(ObservationSequence(np.zeros((4, 1)), 0.025), model)
    with pytest.raises(UsageError):
        forward_backward(ObservationSequence(np.zeros((3, 2)), 0.025), model)


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------

def test_initialize_model_structure():
    rng = np.random.default_rng(8)
    seqs = _random_sequences(rng, 5, 7, 2)
    model = initialize_model(seqs, TrainingConfig(rng_seed=1))
    assert model.n_states == 7
    assert model.n_dims == 2
    assert validate_model(model) == []
    assert model.log_pi[0] == 0.0
    assert np.all(np.isneginf(model.log_pi[1:]))
    # uniform over the band: {stay, advance} everywhere except the end
    assert model.log_A[0, 0] == pytest.approx(math.log(0.5))
    assert model.log_A[0, 1] == pytest.approx(math.log(0.5))
    assert model.log_A[6, 6] == 0.0


def test_initialize_model_uses_per_step_statistics():
    rng = np.random.default_rng(9)
    x = np.stack([np.linspace(0.0, 1.0, 6) + rng.normal(0.0, 0.05, 6)
                  for _ in range(40)])
    seqs = [ObservationSequence(row, 0.025, trial_id=k) for k, row in enumerate(x)]
    model = initialize_model(seqs, TrainingConfig(rng_seed=0))
    step_means = x.mean(axis=0)
    for j in range(model.n_states):
        assert abs(model.means[j, 0] - step_means[j]) < 0.05
        assert model.covariances[j].shape == (1, 1)
        assert model.covariances[j, 0, 0] > 0


def test_initialize_model_is_seeded():
    rng = np.random.default_rng(10)
    seqs = _random_sequences(rng, 4, 5, 1)
    a = initialize_model(seqs, TrainingConfig(rng_seed=3))
    b = initialize_model(seqs, TrainingConfig(rng_seed=3))
    c = initialize_model(seqs, TrainingConfig(rng_seed=4))
    assert np.array_equal(a.means, b.means)
    assert not np.array_equal(a.means, c.means)


def test_recordings_whose_variance_overflows_are_a_model_error():
    # values near 1e200 square to inf: a data problem, reported without a
    # NumPy warning (it used to be a UsageError about non-finite parameters)
    rng = np.random.default_rng(12)
    seqs = [ObservationSequence(1e200 * (1.0 + rng.normal(0.0, 1.0, (10, 1))), 0.025,
                                trial_id=k) for k in range(6)]
    for train in (lambda: initialize_model(seqs, TrainingConfig()),
                  lambda: baum_welch(seqs, TrainingConfig())):
        with pytest.raises(ModelError, match="overflows"):
            train()


# ---------------------------------------------------------------------------
# Baum-Welch
# ---------------------------------------------------------------------------

def test_single_state_training_recovers_sample_statistics():
    rng = np.random.default_rng(11)
    values = rng.normal(1.7, 0.6, 8)
    seqs = [ObservationSequence(np.array([[v]]), 0.025, trial_id=k)
            for k, v in enumerate(values)]
    config = TrainingConfig(max_iterations=10, covariance_floor_eps=1e-6)
    model, trace = baum_welch(seqs, config)

    assert model.n_states == 1
    mean = values.sum() / len(values)
    scatter = sum((v - mean) ** 2 for v in values) / len(values)
    floor = max(config.covariance_floor_eps * scatter, 1e-9)
    assert abs(model.means[0, 0] - mean) < 1e-12
    assert abs(model.covariances[0, 0, 0] - (scatter + floor)) < 1e-12
    assert model.log_pi[0] == 0.0
    assert model.log_A[0, 0] == 0.0
    assert trace.converged


def test_training_likelihood_is_monotone():
    rng = np.random.default_rng(12)
    for case in range(5):
        seqs = _random_sequences(rng, 4, 6, 1, scale=0.5)
        _, trace = baum_welch(seqs, TrainingConfig(max_iterations=40, rng_seed=case))
        lls = trace.log_likelihoods
        assert len(lls) >= 2
        for a, b in zip(lls, lls[1:]):
            assert b >= a - 1e-8 * max(1.0, abs(a))


def test_first_trace_entry_scores_the_initial_model():
    rng = np.random.default_rng(13)
    seqs = _random_sequences(rng, 3, 3, 1)
    config = TrainingConfig(max_iterations=1, rng_seed=2)
    initial = initialize_model(seqs, config)
    _, trace = baum_welch(seqs, config)
    expected = sum(enum_log_likelihood(s.values, initial) for s in seqs)
    assert abs(trace.log_likelihoods[0] - expected) < 1e-9


def test_trained_model_keeps_left_right_structure():
    rng = np.random.default_rng(14)
    seqs = _random_sequences(rng, 5, 6, 1, scale=0.5)
    model, _ = baum_welch(seqs, TrainingConfig(max_iterations=25))
    assert validate_model(model) == []
    assert model.log_pi[0] == 0.0
    assert np.all(np.isneginf(model.log_pi[1:]))
    assert model.log_A[5, 5] == 0.0
    n = model.n_states
    for i in range(n):
        for j in range(n):
            if not i <= j <= min(i + 1, n - 1):
                assert np.isneginf(model.log_A[i, j])


def _assert_order_invariant():
    rng = np.random.default_rng(15)
    seqs = _random_sequences(rng, 5, 5, 2, scale=0.7)
    config = TrainingConfig(max_iterations=15, rng_seed=9)
    model_a, trace_a = baum_welch(list(seqs), config)
    model_b, trace_b = baum_welch(list(reversed(seqs)), config)
    assert trace_a.log_likelihoods == trace_b.log_likelihoods
    assert np.array_equal(model_a.log_A, model_b.log_A)
    assert np.array_equal(model_a.means, model_b.means)
    assert np.array_equal(model_a.covariances, model_b.covariances)


def test_training_is_invariant_to_sequence_order():
    _assert_order_invariant()


def test_chunked_training_is_invariant_to_sequence_order(monkeypatch):
    monkeypatch.setattr(lrhmm.training, "_ESTEP_ELEMENTS", 1)
    _assert_order_invariant()


@pytest.mark.parametrize("n_dims, band", [(1, 1), (2, 2)])
def test_training_is_invariant_to_chunking(monkeypatch, n_dims, band):
    rng = np.random.default_rng(20)
    ramp = np.linspace(-1.0, 1.0, 8)[:, None]
    seqs = [ObservationSequence(ramp + rng.normal(0.0, 0.3, (8, n_dims)), 0.025,
                                trial_id=k) for k in range(7)]
    config = TrainingConfig(max_iterations=12, rng_seed=3, band_width=band)
    whole, trace_whole = baum_welch(seqs, config)
    # a budget of one element puts every sequence in its own chunk
    monkeypatch.setattr(lrhmm.training, "_ESTEP_ELEMENTS", 1)
    split, trace_split = baum_welch(seqs, config)

    assert trace_split.iterations_run == trace_whole.iterations_run
    assert trace_split.converged == trace_whole.converged
    np.testing.assert_allclose(trace_split.log_likelihoods, trace_whole.log_likelihoods,
                               rtol=1e-10)
    with np.errstate(over="ignore"):
        np.testing.assert_allclose(np.exp(split.log_A), np.exp(whole.log_A),
                                   rtol=1e-10, atol=1e-300)
    np.testing.assert_allclose(split.means, whole.means, rtol=1e-10)
    np.testing.assert_allclose(split.covariances, whole.covariances, rtol=1e-10)


def test_training_memory_does_not_grow_with_the_number_of_sequences():
    # at T = 800 the E-step runs a few sequences at a time, so the peak
    # allocation of one EM iteration is that of one chunk, whatever K is
    rng = np.random.default_rng(21)
    wave = np.sin(np.linspace(0.0, 12.0, 800))[:, None]
    peaks = []
    for n_seqs in (3, 12):
        seqs = [ObservationSequence(wave + rng.normal(0.0, 0.05, (800, 1)), 0.025,
                                    trial_id=k) for k in range(n_seqs)]
        tracemalloc.start()
        try:
            baum_welch(seqs, TrainingConfig(max_iterations=1))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0]


def test_training_memory_is_bounded_by_the_e_step_workspace():
    # At T = 800 a chunk holds 3 sequences, so one (chunk, T, N) array is
    # 3 * 800 * 800 float64 <= 2**21 * 8 bytes.  A one-iteration fit over
    # two chunks allocates the E-step's four such arrays once, and all else
    # it allocates at a time fits in one more.
    rng = np.random.default_rng(22)
    wave = np.sin(np.linspace(0.0, 12.0, 800))[:, None]
    seqs = [ObservationSequence(wave + rng.normal(0.0, 0.05, (800, 1)), 0.025,
                                trial_id=k) for k in range(6)]
    tracemalloc.start()
    try:
        baum_welch(seqs, TrainingConfig(max_iterations=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (4 + 1) * 2 ** 21 * 8


# ---------------------------------------------------------------------------
# probability-space E-step against the log-space path
# ---------------------------------------------------------------------------

def _crank_recordings(label, n_steps, n_sequences=6, n_dims=1):
    """Recordings of the calibrated class pair: dr1, the rigid sensor, then
    for ``n_dims`` > 1 loose sensors df2 and df3 (artifact levels 0, 0.3)."""
    cfg = SyntheticConfig(omega=(1.05 if label == 1 else 1.48) * math.pi,
                          artifact_phase_lag=math.pi / 2 + (0.04 if label == 2 else -0.04),
                          noise_std=0.015, duration_s=n_steps * 0.025, dt=0.025,
                          n_sequences=n_sequences, random_start_phase=False,
                          rng_seed=100 * label + n_steps)
    if n_dims == 1:
        return generate_synthetic(cfg, (), label)["dr1"]
    by_sensor = generate_synthetic(cfg, (0.0, 0.3), label)
    sensors = ("dr1", "df2", "df3")[:n_dims]
    return [ObservationSequence(np.hstack([by_sensor[name][k].values for name in sensors]),
                                cfg.dt, trial_id=k) for k in range(n_sequences)]


def _fit_both_ways(monkeypatch, seqs, config, initial_model=None):
    """Fit twice: as shipped and forced onto the log-space backward pass.

    Returns both fits and the number of sequences the shipped fit sent
    through the log-space path.
    """
    fallback_rows = []
    log_backward = lrhmm.training._backward

    def counting_backward(log_b, diags):
        fallback_rows.append(log_b.shape[0])
        return log_backward(log_b, diags)

    with monkeypatch.context() as patch:
        patch.setattr(lrhmm.training, "_backward", counting_backward)
        fit = baum_welch(seqs, config, initial_model=initial_model)
    with monkeypatch.context() as patch:
        # no sequence passes a negative tolerance
        patch.setattr(lrhmm.training, "_POSTERIOR_SUM_TOL", -1.0)
        log_fit = baum_welch(seqs, config, initial_model=initial_model)
    return fit, log_fit, sum(fallback_rows)


def _assert_same_fit(fit, log_fit):
    (model, trace), (log_model, log_trace) = fit, log_fit
    assert trace.iterations_run == log_trace.iterations_run
    np.testing.assert_allclose(trace.log_likelihoods, log_trace.log_likelihoods,
                               rtol=1e-10)
    with np.errstate(over="ignore"):
        np.testing.assert_allclose(np.exp(model.log_pi), np.exp(log_model.log_pi),
                                   rtol=1e-10, atol=1e-300)
        np.testing.assert_allclose(np.exp(model.log_A), np.exp(log_model.log_A),
                                   rtol=1e-10, atol=1e-300)
    np.testing.assert_allclose(model.means, log_model.means, rtol=1e-10)
    np.testing.assert_allclose(model.covariances, log_model.covariances, rtol=1e-10)


@pytest.mark.parametrize("n_steps", [40, 200])
def test_wrong_class_e_step_matches_the_log_space_path(monkeypatch, n_steps):
    # one EM iteration from a class-2 model on class-1 recordings (plus
    # class-2 ones): the probability-space backward pass fails its check on
    # the mismatched recordings, which must go through the log-space path
    class_1 = _crank_recordings(1, n_steps)
    class_2 = _crank_recordings(2, n_steps)
    model_2, _ = baum_welch(class_2, TrainingConfig(max_iterations=3))
    seqs = [ObservationSequence(s.values, s.dt, trial_id=k)
            for k, s in enumerate(class_1 + class_2)]
    fit, log_fit, fallback_rows = _fit_both_ways(
        monkeypatch, seqs, TrainingConfig(max_iterations=1), initial_model=model_2)
    assert 0 < fallback_rows < len(seqs)
    assert fit[1].estep_fallbacks == fallback_rows == 6
    _assert_same_fit(fit, log_fit)


def test_long_horizon_fit_stays_in_probability_space(monkeypatch):
    seqs = _crank_recordings(1, 800, n_sequences=4)
    fit, log_fit, fallback_rows = _fit_both_ways(monkeypatch, seqs,
                                                 TrainingConfig(max_iterations=2))
    assert fallback_rows == 0
    model, trace = fit
    assert trace.estep_fallbacks == 0
    assert np.all(np.isfinite(trace.log_likelihoods))
    assert np.all(np.isfinite(model.means)) and np.all(np.isfinite(model.covariances))
    _assert_same_fit(fit, log_fit)


@pytest.mark.parametrize("band", [1, 2])
@pytest.mark.parametrize("n_dims", [1, 3])
@pytest.mark.parametrize("n_steps", [40, 200, 800])
def test_windowed_e_step_fits_as_in_log_space(monkeypatch, n_steps, n_dims, band):
    # T = 40 runs densely (W >= N); at T = 200 and 800 each row of the
    # E-step holds 64 of the N states.  One E-step each from the initial
    # model and from a once-trained one: over more iterations, last-bit
    # differences in the parameters grow in the tiny transition
    # probabilities, exp(-100) and below.  The channels are mixed and set
    # at level 10, so that no mean or covariance is near zero, where a
    # relative tolerance measures rounding rather than the E-step.
    mix = np.tril(np.full((n_dims, n_dims), 0.5), -1) + np.eye(n_dims)
    seqs = [ObservationSequence(10.0 + s.values @ mix.T, s.dt, trial_id=s.trial_id)
            for s in _crank_recordings(1, n_steps, n_sequences=8, n_dims=n_dims)]
    config = TrainingConfig(max_iterations=1, band_width=band)
    initial = initialize_model(seqs, config)
    for start in (initial, baum_welch(seqs, config)[0]):
        fit, log_fit, fallback_rows = _fit_both_ways(monkeypatch, seqs, config,
                                                     initial_model=start)
        assert fallback_rows == fit[1].estep_fallbacks == 0
        _assert_same_fit(fit, log_fit)
        # the windowed forward scores the start as the dense one does
        expected = sum(log_likelihood(s, start) for s in seqs)
        assert fit[1].log_likelihoods[0] == pytest.approx(expected, rel=1e-12)


def test_fallback_memory_stays_near_an_own_class_fit():
    # One-iteration T = 800 fits of 12 recordings from a class-2 model.  The
    # 6 class-1 recordings of the mixed set go through the dense log-space
    # path, one at a time and in the E-step's workspace, so they add about
    # one (T, N) array to the own-class fit's peak.
    model_2, _ = baum_welch(_crank_recordings(2, 800), TrainingConfig(max_iterations=3))
    class_1 = _crank_recordings(1, 800)
    class_2 = _crank_recordings(2, 800, n_sequences=12)
    peaks, fallbacks = [], []
    for group in (class_2, class_1 + class_2[:6]):
        seqs = [ObservationSequence(s.values, s.dt, trial_id=k) for k, s in enumerate(group)]
        tracemalloc.start()
        try:
            _, trace = baum_welch(seqs, TrainingConfig(max_iterations=1),
                                  initial_model=model_2)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        fallbacks.append(trace.estep_fallbacks)
    assert fallbacks == [0, 6]
    assert peaks[1] <= 1.5 * peaks[0]


def _narrow_window(monkeypatch):
    """Rows of 2 states, keeping those within 1 nat per step of the best."""
    monkeypatch.setattr(lrhmm.training, "_WINDOW", 2)
    monkeypatch.setattr(lrhmm.training, "_WINDOW_NATS_PER_STEP", 1.0)


def _count_log_space_posteriors(monkeypatch):
    """A list that gets one entry per forward_backward redone in log space."""
    calls = []
    xi_prob_sums = lrhmm.training._xi_prob_sums

    def counting(*args):
        calls.append(1)
        return xi_prob_sums(*args)

    monkeypatch.setattr(lrhmm.training, "_xi_prob_sums", counting)
    return calls


def _assert_matches_enumeration(seq, model, cache):
    assert abs(cache.log_likelihood - enum_log_likelihood(seq.values, model)) < 1e-9
    gamma_ref = np.zeros((seq.n_steps, model.n_states))
    for path in enum_paths(model.n_states, seq.n_steps):
        w = math.exp(path_log_score(seq.values, model, path) - cache.log_likelihood)
        for t, j in enumerate(path):
            gamma_ref[t, j] += w
    assert np.abs(cache.gamma - gamma_ref).max() < 1e-9
    xi_ref = enum_pair_posteriors(seq.values, model)
    assert np.abs(np.exp(cache.log_xi_sums) - xi_ref).max() < 1e-9


def _spaced_model(rng, n_states, band, spacing):
    """A random banded model whose state j's mean is moved by spacing * j."""
    model = random_banded_model(rng, n_states, 1, band_width=band,
                                canonical_pi=bool(rng.integers(0, 2)))
    means = model.means + spacing * np.arange(n_states)[:, None]
    return LrHmmModel(model.log_pi, model.log_A, means, model.covariances, band)


def test_windowed_posteriors_match_enumeration(monkeypatch):
    # With 2 of 3-4 states per row the window slides on nearly every step.
    # Well separated states leave the dropped ones far behind, so the
    # certificate holds; close ones do not, and the sequence falls back.
    _narrow_window(monkeypatch)
    fallbacks = _count_log_space_posteriors(monkeypatch)
    rng = np.random.default_rng(23)
    windowed = 0
    for case in range(30):
        n_states = int(rng.integers(3, 5))
        model = _spaced_model(rng, n_states, int(rng.integers(1, 3)),
                              spacing=float(rng.choice([2.0, 15.0])))
        seq = sample_sequence(rng, model, int(rng.integers(2, n_states + 1)))
        before = len(fallbacks)
        _assert_matches_enumeration(seq, model, forward_backward(seq, model))
        windowed += len(fallbacks) == before
    assert 0 < windowed < 30


def test_path_dropped_early_that_dominates_later_falls_back(monkeypatch):
    # Sample 1 sits on state 1's mean, 72 nats above state 0, so the window
    # drops state 0 at t = 1.  Samples 2 and 3 then fit only state 0: the
    # path that stays in state 0 wins by about 72 nats, and the window has
    # lost it.  The certificate must see this and send the sequence to the
    # log-space path.
    _narrow_window(monkeypatch)
    fallbacks = _count_log_space_posteriors(monkeypatch)
    with np.errstate(divide="ignore"):
        log_a = np.log(np.array([[0.5, 0.5, 0.0, 0.0], [0.0, 0.5, 0.5, 0.0],
                                 [0.0, 0.0, 0.5, 0.5], [0.0, 0.0, 0.0, 1.0]]))
    model = LrHmmModel(np.array([0.0, -np.inf, -np.inf, -np.inf]), log_a,
                       12.0 * np.arange(4.0)[:, None], np.ones((4, 1, 1)), 1)
    seq = ObservationSequence(np.array([[0.0], [12.0], [0.0], [0.0]]), 0.025)

    x = seq.values[None]
    params = (model.means, model._chols, model._log_norms)
    log_b, alpha = np.empty((2, 1, 4, 2))
    lo, window_log_lik, trusted = lrhmm.training._window_forward(
        x, params, model.log_pi, lrhmm.core._band_diagonals(model.log_A, 1),
        log_b, alpha)
    exact = enum_log_likelihood(seq.values, model)
    assert list(lo) == [0, 1, 1, 1]
    assert window_log_lik[0] < exact - 60.0
    assert not trusted[0]

    cache = forward_backward(seq, model)
    assert fallbacks == [1]
    _assert_matches_enumeration(seq, model, cache)
    assert cache.gamma[1, 0] > 0.99


def test_posteriors_of_a_forward_state_behind_by_e705():
    # State 0 starts e^-705 less likely than state 1, but the second sample
    # fits only state 0, so gamma_0 is about (1, 0).  The filtered forward
    # weight of state 0 at t = 0 is below the probability-space pass's
    # flush threshold while its backward weight is about e^705; the lost
    # term leaves a finite deficit in the posterior sum, which must send
    # the sequence to the log-space path.
    far = math.sqrt(2000.0)                    # e^-1000 density ratio
    log_pi = np.array([-705.0, math.log1p(-math.exp(-705.0))])
    log_a = np.array([[math.log(0.5), math.log(0.5)], [-np.inf, 0.0]])
    model = LrHmmModel(log_pi, log_a, np.array([[0.0], [far]]), np.ones((2, 1, 1)), 1)
    seq = ObservationSequence(np.array([[far / 2], [0.0]]), 0.025)
    cache = forward_backward(seq, model)

    gamma_ref = np.zeros((2, 2))
    for path in enum_paths(2, 2):
        w = math.exp(path_log_score(seq.values, model, path) - cache.log_likelihood)
        for t, j in enumerate(path):
            gamma_ref[t, j] += w
    assert gamma_ref[0, 0] > 0.99
    assert np.abs(cache.gamma - gamma_ref).max() < 1e-9


def test_pair_posteriors_ignore_a_state_the_band_cannot_reach_yet():
    # The second sample fits state 2 e^1700 times better than the states
    # the band allows at t = 1, so its scaled emission overflows; it must
    # not reach the pair posteriors as 0 * inf.
    with np.errstate(divide="ignore"):
        log_a = np.log(np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.0, 0.0, 1.0]]))
    model = LrHmmModel(np.array([0.0, -np.inf, -np.inf]), log_a,
                       np.array([[0.0], [1.0], [60.0]]), np.ones((3, 1, 1)), 1)
    seq = ObservationSequence(np.array([[0.0], [60.0]]), 0.025)
    cache = forward_backward(seq, model)
    assert abs(cache.log_likelihood - enum_log_likelihood(seq.values, model)) < 1e-9
    xi_ref = enum_pair_posteriors(seq.values, model)
    assert np.abs(np.exp(cache.log_xi_sums) - xi_ref).max() < 1e-9


def test_training_set_with_a_glitch_fits_as_in_log_space(monkeypatch):
    seqs = _crank_recordings(2, 40, n_sequences=8)
    values = np.array(seqs[3].values)
    values[17] += 5.0
    seqs[3] = ObservationSequence(values, seqs[3].dt, trial_id=seqs[3].trial_id)
    fit, log_fit, _ = _fit_both_ways(monkeypatch, seqs, TrainingConfig(max_iterations=30))
    _assert_same_fit(fit, log_fit)


def test_converged_model_is_a_fixed_point():
    rng = np.random.default_rng(16)
    ramp = np.linspace(-1.0, 1.0, 5)
    seqs = [ObservationSequence(ramp + rng.normal(0.0, 0.05, 5), 0.025, trial_id=k)
            for k in range(6)]
    config = TrainingConfig(max_iterations=200, loglik_rel_tolerance=1e-10)
    model, trace = baum_welch(seqs, config)
    assert trace.converged

    model_2, trace_2 = baum_welch(seqs, config, initial_model=model)
    # restarting from the fitted model reproduces its likelihood bit for bit
    # and converges immediately
    assert trace_2.log_likelihoods[0] == trace.log_likelihoods[-1]
    assert trace_2.converged
    assert trace_2.iterations_run == 2
    assert np.allclose(model.means, model_2.means, rtol=1e-6, atol=1e-9)


def test_training_accepts_explicit_initial_model():
    rng = np.random.default_rng(17)
    seqs = _random_sequences(rng, 4, 4, 1)
    start = random_banded_model(rng, 4, 1)
    model, trace = baum_welch(seqs, TrainingConfig(max_iterations=10),
                              initial_model=start)
    assert model.n_states == 4
    for a, b in zip(trace.log_likelihoods, trace.log_likelihoods[1:]):
        assert b >= a - 1e-8 * max(1.0, abs(a))


def test_degenerate_state_is_reported_by_index():
    # state 1 sits a million sigma away from all data, so every path through
    # it carries zero posterior weight
    data = [ObservationSequence(np.zeros((3, 1)), 0.025, trial_id=k)
            for k in range(2)]
    log_pi = np.array([0.0, -np.inf, -np.inf])
    with np.errstate(divide="ignore"):
        log_a = np.log(np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.0, 0.0, 1.0]]))
    start = LrHmmModel(log_pi, log_a, np.array([[0.0], [1e6], [0.0]]),
                       np.array([[[1.0]], [[1e-6]], [[1.0]]]), 1)
    with pytest.raises(DegenerateStateError, match="state 1"):
        baum_welch(data, TrainingConfig(max_iterations=5), initial_model=start)


def test_training_input_validation():
    rng = np.random.default_rng(18)
    config = TrainingConfig()
    with pytest.raises(UsageError):
        baum_welch([], config)
    with pytest.raises(UsageError):
        baum_welch([np.zeros((3, 1))], config)
    mixed_len = [ObservationSequence(np.zeros((3, 1)), 0.025),
                 ObservationSequence(np.zeros((4, 1)), 0.025)]
    with pytest.raises(UsageError):
        baum_welch(mixed_len, config)
    mixed_dim = [ObservationSequence(np.zeros((3, 1)), 0.025),
                 ObservationSequence(np.zeros((3, 2)), 0.025)]
    with pytest.raises(UsageError):
        baum_welch(mixed_dim, config)
    seqs = _random_sequences(rng, 2, 3, 1)
    with pytest.raises(UsageError):
        baum_welch(seqs, config, initial_model=random_banded_model(rng, 5, 1))
    with pytest.raises(UsageError):
        baum_welch(seqs, config, initial_model=random_banded_model(rng, 3, 2))


@pytest.mark.parametrize("kwargs", [
    dict(max_iterations=0),
    dict(loglik_rel_tolerance=0.0),
    dict(covariance_floor_eps=0.0),
    dict(band_width=0),
    dict(loglik_rel_tolerance=math.inf),
    dict(covariance_floor_eps=math.inf),
    dict(covariance_floor_eps=math.nan),
])
def test_training_config_validation(kwargs):
    with pytest.raises(UsageError):
        TrainingConfig(**kwargs)


def test_wider_band_is_trainable():
    rng = np.random.default_rng(19)
    seqs = _random_sequences(rng, 4, 6, 1, scale=0.5)
    model, trace = baum_welch(seqs, TrainingConfig(max_iterations=20, band_width=2))
    assert validate_model(model) == []
    assert model.band_width == 2
    for a, b in zip(trace.log_likelihoods, trace.log_likelihoods[1:]):
        assert b >= a - 1e-8 * max(1.0, abs(a))
