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
    band_diagonals,
    dense_log_a,
    enum_log_likelihood,
    enum_pair_posteriors,
    enum_paths,
    enum_posteriors,
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
        assert np.abs(np.exp(dense_log_a(cache.log_xi_sums, n_states)) - xi_ref).max() < 1e-9


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
    assert all(np.all(np.isneginf(sums)) for sums in cache.log_xi_sums)


def test_forward_backward_rejects_a_sequence_with_zero_likelihood():
    # posteriors given an impossible sequence are 0 / 0; they used to come
    # back NaN after a RuntimeWarning, which the test configuration raises
    rng = np.random.default_rng(10)
    model = initialize_model(_random_sequences(rng, 4, 3, 1), TrainingConfig())
    with pytest.raises(ModelError, match="zero likelihood"):
        forward_backward(ObservationSequence(np.full((3, 1), 1e200), 0.025), model)


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
    assert model.log_A_band[0][0] == pytest.approx(math.log(0.5))
    assert model.log_A_band[1][0] == pytest.approx(math.log(0.5))
    assert model.log_A_band[0][6] == 0.0


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


@pytest.mark.parametrize("n_steps", [10, 70])
def test_training_sequence_with_zero_likelihood_is_a_model_error(n_steps):
    # A recording at 1e200 has zero likelihood under the initial model of
    # four N(0, 1) recordings, so its posteriors are 0 / 0.  They used to
    # pass the M-step's mass test as NaN, after RuntimeWarnings, and end in
    # a UsageError about non-finite emission parameters.  T = 70 runs the
    # windowed E-step.
    # The same start with -inf self-loops on its first half of states is
    # forced for N / 2 + 1 steps, whose statistics the E-step adds in
    # closed form; a single 1e200 reading inside them reaches the E-step
    # past them only through its start, and must still end in the error.
    rng = np.random.default_rng(26)
    seqs = _random_sequences(rng, 4, n_steps, 1)
    far = ObservationSequence(np.full((n_steps, 1), 1e200), 0.025, trial_id=4)
    start = initialize_model(seqs, TrainingConfig())
    with pytest.raises(ModelError, match="trial 4 has zero likelihood"):
        baum_welch(seqs + [far], TrainingConfig(), initial_model=start)
    stay, move = start.log_A_band
    half = n_steps // 2
    forced = LrHmmModel(start.log_pi, [np.where(np.arange(n_steps) < half, -np.inf, stay),
                                       np.where(np.arange(n_steps - 1) < half, 0.0, move)],
                        start.means, start.covariances)
    assert forced._forced == half + 1
    glitch = np.array(seqs[0].values)
    glitch[half - 2] = 1e200
    with pytest.raises(ModelError, match="trial 4 has zero likelihood"):
        baum_welch(seqs + [ObservationSequence(glitch, 0.025, trial_id=4)], TrainingConfig(),
                   initial_model=forced)


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
    assert model.log_A_band[0][0] == 0.0
    assert trace.converged


def test_forced_steps_add_the_statistics_of_path_enumeration(monkeypatch):
    # A 6-state band-1 model with -inf self-loops on states 0-2 is forced
    # for 4 steps, so an EM iteration adds the statistics of steps 0-2 in
    # closed form and runs the E-step on steps 3-5 over states 3-5, whose
    # statistics go to those states.  Its M-step must equal one taken from
    # the posteriors of path enumeration.  The histories come from that
    # model; EM starts from it with the forced rows' moves below 1, so that
    # a forced move left out of the pair sums shows: its row would keep the
    # old move rather than get 1.
    rng = np.random.default_rng(27)
    n_states, n_dims = 6, 2
    base = random_banded_model(rng, n_states, n_dims)
    stay, move = base.log_A_band
    stay = np.where(np.arange(n_states) < 3, -np.inf, stay)
    sampler = LrHmmModel(base.log_pi, [stay, np.where(np.arange(n_states - 1) < 3, 0.0, move)],
                         base.means, base.covariances)
    model = LrHmmModel(base.log_pi, [stay, move], base.means, base.covariances)
    assert model._forced == 4
    seqs = [sample_sequence(rng, sampler, n_states, trial_id=k) for k in range(5)]
    widths = _posterior_widths(monkeypatch)
    fitted, _ = baum_welch(seqs, TrainingConfig(max_iterations=1), initial_model=model)
    assert widths == [3]

    x = np.array([seq.values for seq in seqs])                      # (K, T, M)
    _, gamma, pairs = zip(*(enum_posteriors(seq.values, model) for seq in seqs))
    gamma, pairs = np.array(gamma), sum(pairs)
    mass = gamma.sum(axis=(0, 1))
    means = np.einsum("ktn,ktm->nm", gamma, x) / mass[:, None]
    diff = x[:, :, None, :] - means                                 # (K, T, N, M)
    covs = np.einsum("ktn,ktnm,ktnp->nmp", gamma, diff, diff) / mass[:, None, None]
    eps = np.maximum(1e-6 * np.trace(covs, axis1=1, axis2=2) / n_dims, 1e-9)
    covs += eps[:, None, None] * np.eye(n_dims)
    rows = pairs.sum(axis=1)[:, None]
    a = np.where(rows > 0, pairs / np.where(rows > 0, rows, 1.0),
                 np.exp(dense_log_a(model.log_A_band, n_states)))
    assert np.abs(np.exp(fitted.log_pi) - gamma[:, 0].mean(axis=0)).max() < 1e-9
    assert np.abs(np.exp(dense_log_a(fitted.log_A_band, n_states)) - a).max() < 1e-9
    assert np.abs(fitted.means - means).max() < 1e-9
    assert np.abs(fitted.covariances - covs).max() < 1e-9


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
    assert model.log_A_band[0][5] == 0.0
    assert [diag.size for diag in model.log_A_band] == [6, 5]


def _assert_order_invariant():
    rng = np.random.default_rng(15)
    seqs = _random_sequences(rng, 5, 5, 2, scale=0.7)
    config = TrainingConfig(max_iterations=15, rng_seed=9)
    model_a, trace_a = baum_welch(list(seqs), config)
    model_b, trace_b = baum_welch(list(reversed(seqs)), config)
    assert trace_a.log_likelihoods == trace_b.log_likelihoods
    assert np.array_equal(np.concatenate(model_a.log_A_band),
                          np.concatenate(model_b.log_A_band))
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
        np.testing.assert_allclose(np.exp(np.concatenate(split.log_A_band)),
                                   np.exp(np.concatenate(whole.log_A_band)),
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


def _fit_peak(n_seqs):
    """The tracemalloc peak of a one-iteration fit of ``n_seqs`` noisy
    sine recordings of 800 steps."""
    rng = np.random.default_rng(22)
    wave = np.sin(np.linspace(0.0, 12.0, 800))[:, None]
    seqs = [ObservationSequence(wave + rng.normal(0.0, 0.05, (800, 1)), 0.025,
                                trial_id=k) for k in range(n_seqs)]
    tracemalloc.start()
    try:
        baum_welch(seqs, TrainingConfig(max_iterations=1))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_training_memory_is_bounded_by_the_e_step_workspace():
    # At T = 800 the 6 recordings form one chunk, whose E-step keeps log b
    # and alpha (6, 800, 64) for the whole chain and u, the pair terms and
    # gamma for blocks of 341 steps: 7.7 MiB.  The workspace also holds one
    # sequence's E-step at W = N, (800, 800) log b and alpha and blocks of
    # 163 steps: 1 672 000 float64, 12.8 MiB, which it allocates once.  All
    # else the fit allocates at a time fits in 1.2 MiB more.
    assert _fit_peak(6) <= 14 * 2 ** 20


def test_benchmark_sized_fit_keeps_its_e_step_to_two_chain_arrays():
    # 29 recordings at T = 800, as the long-horizon benchmark trains: one
    # chunk whose log b and alpha (29, 800, 64) take 22.7 MiB; u, the pair
    # terms and gamma for blocks of 70 steps take 3.0 MiB more.  Holding
    # u, the terms and gamma for the whole chain, it peaked at 47.7 MiB.
    assert _fit_peak(29) <= 32 * 2 ** 20


# ---------------------------------------------------------------------------
# windowed E-step against the dense one (W = N)
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


def _fit_both_ways(monkeypatch, seqs, config, initial_model=None, window=None):
    """Fit twice: with rows of ``window`` states (as shipped if None) and
    with every E-step dense, its rows as wide as the model (W = N)."""
    with monkeypatch.context() as patch:
        if window is not None:
            patch.setattr(lrhmm.training, "_WINDOW", window)
        fit = baum_welch(seqs, config, initial_model=initial_model)
    with monkeypatch.context() as patch:
        patch.setattr(lrhmm.training, "_WINDOW", seqs[0].n_steps)
        dense_fit = baum_welch(seqs, config, initial_model=initial_model)
    assert dense_fit[1].estep_fallbacks == 0
    return fit, dense_fit


def _assert_same_fit(fit, dense_fit):
    (model, trace), (dense_model, dense_trace) = fit, dense_fit
    assert trace.iterations_run == dense_trace.iterations_run
    np.testing.assert_allclose(trace.log_likelihoods, dense_trace.log_likelihoods,
                               rtol=1e-10)
    with np.errstate(over="ignore"):
        np.testing.assert_allclose(np.exp(model.log_pi), np.exp(dense_model.log_pi),
                                   rtol=1e-10, atol=1e-300)
        np.testing.assert_allclose(np.exp(np.concatenate(model.log_A_band)),
                                   np.exp(np.concatenate(dense_model.log_A_band)),
                                   rtol=1e-10, atol=1e-300)
    np.testing.assert_allclose(model.means, dense_model.means, rtol=1e-10)
    np.testing.assert_allclose(model.covariances, dense_model.covariances, rtol=1e-10)


@pytest.mark.parametrize("n_steps, window, fallbacks", [
    pytest.param(40, 16, 6, id="40"),
    pytest.param(200, 16, 6, id="200"),
    pytest.param(800, 4, 6, id="800"),
])
def test_wrong_class_e_step_matches_the_log_space_path(monkeypatch, n_steps, window,
                                                       fallbacks):
    # one EM iteration from a class-2 model on class-1 recordings (plus
    # class-2 ones), windowed against W = N.  The class-2 model is forced
    # for 20, 179 and 794 steps, so the E-step's chain past them holds 21,
    # 22 and 7 states and would run densely as shipped; the window is cut
    # below that, and the 6 mismatched recordings fail its certificate and
    # are redone at W = N.
    class_1 = _crank_recordings(1, n_steps)
    class_2 = _crank_recordings(2, n_steps)
    model_2, _ = baum_welch(class_2, TrainingConfig(max_iterations=3))
    seqs = [ObservationSequence(s.values, s.dt, trial_id=k)
            for k, s in enumerate(class_1 + class_2)]
    widths = _posterior_widths(monkeypatch)
    fit, dense_fit = _fit_both_ways(monkeypatch, seqs, TrainingConfig(max_iterations=1),
                                    initial_model=model_2, window=window)
    assert widths[0] == window                  # the windowed E-step ran
    assert fit[1].estep_fallbacks == fallbacks
    _assert_same_fit(fit, dense_fit)


def test_long_horizon_fit_keeps_its_window(monkeypatch):
    seqs = _crank_recordings(1, 800, n_sequences=4)
    fit, dense_fit = _fit_both_ways(monkeypatch, seqs, TrainingConfig(max_iterations=2))
    model, trace = fit
    assert trace.estep_fallbacks == 0
    assert np.all(np.isfinite(trace.log_likelihoods))
    assert np.all(np.isfinite(model.means)) and np.all(np.isfinite(model.covariances))
    _assert_same_fit(fit, dense_fit)


@pytest.mark.parametrize("band", [1, 2])
@pytest.mark.parametrize("n_dims", [1, 3])
@pytest.mark.parametrize("n_steps", [40, 200, 800])
def test_windowed_e_step_fits_as_in_log_space(monkeypatch, n_steps, n_dims, band):
    # T = 40 runs densely (W >= N); at T = 200 and 800 each row of the
    # E-step holds 64 of the N states.  One E-step each from the initial
    # model and from a once-trained one: over more iterations, last-bit
    # differences in the parameters grow in the tiny transition
    # probabilities, exp(-100) and below.  A once-trained band-1 model is
    # forced for F steps, up to 777, and the E-step runs the chain of the
    # last N - F + 1 states, 24 to 72 of them, which would run densely; its
    # rows hold 4 states fewer.  The channels are mixed and set at level
    # 10, so that no mean or covariance is near zero, where a relative
    # tolerance measures rounding rather than the E-step.
    mix = np.tril(np.full((n_dims, n_dims), 0.5), -1) + np.eye(n_dims)
    seqs = [ObservationSequence(10.0 + s.values @ mix.T, s.dt, trial_id=s.trial_id)
            for s in _crank_recordings(1, n_steps, n_sequences=8, n_dims=n_dims)]
    config = TrainingConfig(max_iterations=1, band_width=band)
    initial = initialize_model(seqs, config)
    once = baum_welch(seqs, config)[0]
    widths = _posterior_widths(monkeypatch)
    narrow = n_steps - once._forced - 3 if band == 1 else None
    for start, window in ((initial, None), (once, narrow)):
        widths.clear()
        fit, dense_fit = _fit_both_ways(monkeypatch, seqs, config, initial_model=start,
                                        window=window)
        assert window is None or widths[0] == window        # the windowed E-step ran
        assert fit[1].estep_fallbacks == 0
        _assert_same_fit(fit, dense_fit)
        # the windowed forward scores the start as the dense one does
        expected = sum(log_likelihood(s, start) for s in seqs)
        assert fit[1].log_likelihoods[0] == pytest.approx(expected, rel=1e-12)


def test_fallback_memory_stays_near_an_own_class_fit():
    # One-iteration T = 800 fits of 12 recordings from the initial model of
    # class 2, whose windows the 6 class-1 recordings of the mixed set fail
    # to certify.  They are redone at W = N one at a time, in the E-step's
    # workspace, so they add little to the own-class fit's peak.
    model_2 = initialize_model(_crank_recordings(2, 800), TrainingConfig())
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


@pytest.mark.parametrize("band", [1, 2])
def test_fits_do_not_depend_on_the_emission_block_length(monkeypatch, band):
    # One E-step from the initial model of T = 200 recordings, in rows of
    # 64 of the 200 states: the windowed forward scores a block of steps at
    # a time, over the states the window can reach by the block's last
    # step, and each block length puts the boundaries elsewhere.
    seqs = _crank_recordings(1, 200, n_sequences=4, n_dims=2)
    config = TrainingConfig(max_iterations=1, band_width=band)
    widths = _posterior_widths(monkeypatch)
    fits = []
    for block in (1, 3, 32, 64):
        monkeypatch.setattr(lrhmm.training, "_BLOCK", block)
        fits.append(baum_welch(seqs, config))
    assert widths == [64] * 4
    model, trace = fits[0]
    for other, other_trace in fits[1:]:
        assert other_trace == trace
        for name in ("log_pi", "means", "covariances"):
            assert getattr(other, name).tobytes() == getattr(model, name).tobytes(), name
        assert [d.tobytes() for d in other.log_A_band] == [d.tobytes() for d in model.log_A_band]


def _posterior_blocks(monkeypatch):
    """A list that gets (t0, steps, W) of each block of posteriors that an
    E-step adds to a fit's statistics."""
    blocks = []
    add = lrhmm.training._Statistics.add

    def recording(self, t0, x, gamma, *args):
        blocks.append((t0, gamma.shape[1], gamma.shape[2]))
        return add(self, t0, x, gamma, *args)

    monkeypatch.setattr(lrhmm.training._Statistics, "add", recording)
    return blocks


def _with_blocks_of(monkeypatch, steps, n_seq, width, run):
    """``run()`` with posterior blocks of ``steps`` steps (the whole chain
    if None) for chunks of ``n_seq`` sequences at rows of ``width`` states."""
    with monkeypatch.context() as patch:
        patch.setattr(lrhmm.training, "_POSTERIOR_ELEMENTS",
                      steps * n_seq * width if steps else 2 ** 40)
        return run()


def _assert_same_fit_and_forward(fits, caches):
    (_, trace), cache = fits[-1], caches[-1]
    for fit, other in zip(fits[:-1], caches[:-1]):
        # the forward does not depend on the blocks; the statistics add
        # each block's sums in turn, so they may round apart
        assert fit[1] == trace
        _assert_same_fit(fit, fits[-1])
        assert other.gamma.tobytes() == cache.gamma.tobytes()
        assert other.log_beta.tobytes() == cache.log_beta.tobytes()
        with np.errstate(divide="ignore"):
            for sums, ref in zip(other.log_xi_sums, cache.log_xi_sums):
                np.testing.assert_allclose(np.exp(sums), np.exp(ref), rtol=1e-12, atol=1e-300)


@pytest.mark.parametrize("band", [1, 2])
def test_fits_do_not_depend_on_the_posterior_block_length(monkeypatch, band):
    # One E-step from the initial model of 4 T = 200 recordings, in rows of
    # 64 states, with the posteriors formed 1 and 3 steps at a time behind
    # the backward pass, and for the whole chain at once; and forward-
    # backward on one recording the same ways.  The channels are mixed and
    # set at level 10, so that no mean or covariance is near zero.
    mix = np.array([[1.0, 0.0], [0.5, 1.0]])
    seqs = [ObservationSequence(10.0 + s.values @ mix.T, s.dt, trial_id=s.trial_id)
            for s in _crank_recordings(1, 200, n_sequences=4, n_dims=2)]
    config = TrainingConfig(max_iterations=1, band_width=band)
    model = initialize_model(seqs, config)
    blocks = _posterior_blocks(monkeypatch)
    fits, caches, counts = [], [], []
    for steps in (1, 3, None):
        blocks.clear()
        fits.append(_with_blocks_of(monkeypatch, steps, 4, 64,
                                    lambda: baum_welch(seqs, config)))
        counts.append([b[1] for b in blocks])
        caches.append(_with_blocks_of(monkeypatch, steps, 1, 64,
                                      lambda: forward_backward(seqs[0], model)))
    # blocks are laid from the chain's end, so the first one is short
    assert counts == [[1] * 200, [3] * 66 + [2], [200]]
    _assert_same_fit_and_forward(fits, caches)


def test_fallback_fits_do_not_depend_on_the_posterior_block_length(monkeypatch):
    # One-iteration T = 800 fits of 3 class-1 and 3 class-2 recordings, set
    # at level 10, from the initial model of 6 class-2 ones: the class-1
    # recordings fail their windows' certificates and are redone at W = N =
    # 800, in blocks of 163 steps as shipped.  Blocks of 1 and 3 steps at
    # W = N (2 and 6 for the windowed chunk) and of the whole chain give the
    # same fit, and forward-backward the same posteriors.
    class_1, class_2 = _crank_recordings(1, 800, n_sequences=3), _crank_recordings(2, 800)
    seqs = [ObservationSequence(10.0 + s.values, s.dt, trial_id=k)
            for k, s in enumerate(class_1 + class_2)]
    model_2 = initialize_model(seqs[3:], TrainingConfig())
    seqs = seqs[:6]
    config = TrainingConfig(max_iterations=1)
    blocks = _posterior_blocks(monkeypatch)
    baum_welch(seqs, config, initial_model=model_2)
    assert [b[:2] for b in blocks if b[2] == 800] == 3 * (
        [(t0, 163) for t0 in range(637, 0, -163)] + [(0, 148)])
    fits, caches = [], []
    for steps in (1, 3, None):
        fits.append(_with_blocks_of(monkeypatch, steps, 1, 800,
                                    lambda: baum_welch(seqs, config, initial_model=model_2)))
        caches.append(_with_blocks_of(monkeypatch, steps, 1, 800,
                                      lambda: forward_backward(seqs[0], model_2)))
    assert fits[0][1].estep_fallbacks == 3
    _assert_same_fit_and_forward(fits, caches)


def test_a_chunk_with_no_certified_window_has_only_dense_posteriors(monkeypatch):
    # One EM iteration from a class-2 model on 6 class-1 recordings, then 6
    # class-2 ones, in chunks of 6.  Past the model's forced prefix the
    # chain holds 21 states; in rows of 16 of them every class-1 recording
    # fails its certificate, so their chunk has no windowed posteriors to
    # add, and each recording is redone at W = N.
    class_1, class_2 = _crank_recordings(1, 40), _crank_recordings(2, 40)
    model_2, _ = baum_welch(class_2, TrainingConfig(max_iterations=3))
    seqs = [ObservationSequence(s.values, s.dt, trial_id=k)
            for k, s in enumerate(class_1 + class_2)]
    monkeypatch.setattr(lrhmm.training, "_ESTEP_ELEMENTS", 6 * 40 * 16)
    widths = _posterior_widths(monkeypatch)
    fit, dense_fit = _fit_both_ways(monkeypatch, seqs, TrainingConfig(max_iterations=1),
                                    initial_model=model_2, window=16)
    assert fit[1].estep_fallbacks == 6
    assert widths[:7] == [21] * 6 + [16]
    _assert_same_fit(fit, dense_fit)


def _narrow_window(monkeypatch):
    """Rows of 2 states, keeping those within 1 nat per step of the best."""
    monkeypatch.setattr(lrhmm.training, "_WINDOW", 2)
    monkeypatch.setattr(lrhmm.training, "_WINDOW_NATS_PER_STEP", 1.0)


def _posterior_widths(monkeypatch):
    """A list that gets the row width W of each E-step's posteriors: that
    of the window, or N for one redone at W = N."""
    widths = []
    posteriors = lrhmm.training._posteriors

    def recording(log_b, alpha, *args):
        widths.append(alpha.shape[2])
        return posteriors(log_b, alpha, *args)

    monkeypatch.setattr(lrhmm.training, "_posteriors", recording)
    return widths


def _assert_matches_enumeration(seq, model, cache):
    assert abs(cache.log_likelihood - enum_log_likelihood(seq.values, model)) < 1e-9
    gamma_ref = np.zeros((seq.n_steps, model.n_states))
    for path in enum_paths(model.n_states, seq.n_steps):
        w = math.exp(path_log_score(seq.values, model, path) - cache.log_likelihood)
        for t, j in enumerate(path):
            gamma_ref[t, j] += w
    assert np.abs(cache.gamma - gamma_ref).max() < 1e-9
    xi_ref = enum_pair_posteriors(seq.values, model)
    xi = np.exp(dense_log_a(cache.log_xi_sums, model.n_states))
    assert np.abs(xi - xi_ref).max() < 1e-9


def _spaced_model(rng, n_states, band, spacing):
    """A random banded model whose state j's mean is moved by spacing * j."""
    model = random_banded_model(rng, n_states, 1, band_width=band,
                                canonical_pi=bool(rng.integers(0, 2)))
    means = model.means + spacing * np.arange(n_states)[:, None]
    return LrHmmModel(model.log_pi, model.log_A_band, means, model.covariances)


def test_windowed_posteriors_match_enumeration(monkeypatch):
    # With 2 of 3-4 states per row the window slides on nearly every step.
    # Well separated states leave the dropped ones far behind, so the
    # certificate holds; close ones do not, and the sequence falls back.
    _narrow_window(monkeypatch)
    widths = _posterior_widths(monkeypatch)
    rng = np.random.default_rng(23)
    windowed = 0
    for case in range(30):
        n_states = int(rng.integers(3, 5))
        model = _spaced_model(rng, n_states, int(rng.integers(1, 3)),
                              spacing=float(rng.choice([2.0, 15.0])))
        seq = sample_sequence(rng, model, int(rng.integers(2, n_states + 1)))
        _assert_matches_enumeration(seq, model, forward_backward(seq, model))
        windowed += widths[-1] == 2
    assert len(widths) == 30
    assert 0 < windowed < 30


def test_path_dropped_early_that_dominates_later_falls_back(monkeypatch):
    # Sample 1 sits on state 1's mean, 72 nats above state 0, so the window
    # drops state 0 at t = 1.  Samples 2 and 3 then fit only state 0: the
    # path that stays in state 0 wins by about 72 nats, and the window has
    # lost it.  The certificate must see this and send the sequence to
    # W = N.
    _narrow_window(monkeypatch)
    widths = _posterior_widths(monkeypatch)
    with np.errstate(divide="ignore"):
        log_a = np.log(np.array([[0.5, 0.5, 0.0, 0.0], [0.0, 0.5, 0.5, 0.0],
                                 [0.0, 0.0, 0.5, 0.5], [0.0, 0.0, 0.0, 1.0]]))
    model = LrHmmModel(np.array([0.0, -np.inf, -np.inf, -np.inf]), band_diagonals(log_a, 1),
                       12.0 * np.arange(4.0)[:, None], np.ones((4, 1, 1)))
    seq = ObservationSequence(np.array([[0.0], [12.0], [0.0], [0.0]]), 0.025)

    x = seq.values[None]
    params = (model.means, model._chols, model._log_norms)
    log_b, alpha = np.empty((2, 1, 4, 2))
    lo, window_log_lik, trusted = lrhmm.training._window_forward(
        x, params, (model.log_pi, model.log_A_band, model._spans), log_b, alpha)
    exact = enum_log_likelihood(seq.values, model)
    assert list(lo) == [0, 1, 1, 1]
    assert window_log_lik[0] < exact - 60.0
    assert not trusted[0]

    cache = forward_backward(seq, model)
    assert widths == [4]
    _assert_matches_enumeration(seq, model, cache)
    assert cache.gamma[1, 0] > 0.99


def test_posteriors_of_a_forward_state_behind_by_e705():
    # State 0 starts e^-705 less likely than state 1, but the second sample
    # fits only state 0, so gamma_0 is about (1, 0).  Its forward weight at
    # t = 0 is e^-705 of the best while its backward weight is about e^705
    # of the best: a pass that flushed either factor alone would lose the
    # path that carries the posterior.
    far = math.sqrt(2000.0)                    # e^-1000 density ratio
    log_pi = np.array([-705.0, math.log1p(-math.exp(-705.0))])
    log_a_band = ([math.log(0.5), 0.0], [math.log(0.5)])
    model = LrHmmModel(log_pi, log_a_band, np.array([[0.0], [far]]), np.ones((2, 1, 1)))
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
    # the band allows at t = 1; its backward weight at state 2 is that
    # large, but its forward weight is zero, so it must not reach the pair
    # posteriors as 0 * inf.
    with np.errstate(divide="ignore"):
        log_a = np.log(np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.0, 0.0, 1.0]]))
    model = LrHmmModel(np.array([0.0, -np.inf, -np.inf]), band_diagonals(log_a, 1),
                       np.array([[0.0], [1.0], [60.0]]), np.ones((3, 1, 1)))
    seq = ObservationSequence(np.array([[0.0], [60.0]]), 0.025)
    cache = forward_backward(seq, model)
    assert abs(cache.log_likelihood - enum_log_likelihood(seq.values, model)) < 1e-9
    xi_ref = enum_pair_posteriors(seq.values, model)
    assert np.abs(np.exp(dense_log_a(cache.log_xi_sums, 3)) - xi_ref).max() < 1e-9


def test_training_set_with_a_glitch_fits_as_in_log_space(monkeypatch):
    # rows of 20 of the 40 states
    seqs = _crank_recordings(2, 40, n_sequences=8)
    values = np.array(seqs[3].values)
    values[17] += 5.0
    seqs[3] = ObservationSequence(values, seqs[3].dt, trial_id=seqs[3].trial_id)
    fit, dense_fit = _fit_both_ways(monkeypatch, seqs, TrainingConfig(max_iterations=30),
                                    window=20)
    _assert_same_fit(fit, dense_fit)


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
    start = LrHmmModel(log_pi, band_diagonals(log_a, 1), np.array([[0.0], [1e6], [0.0]]),
                       np.array([[[1.0]], [[1e-6]], [[1.0]]]))
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


@pytest.mark.parametrize("n_steps", [20, 70])
def test_band_wider_than_the_recordings_fits_as_the_full_band(n_steps):
    # every band_width >= T - 1 allows every forward move, so the model
    # keeps the band T - 1 (T = 70 runs the windowed E-step)
    rng = np.random.default_rng(24)
    seqs = _random_sequences(rng, 3, n_steps, 1, scale=0.5)
    full, trace = baum_welch(seqs, TrainingConfig(max_iterations=3, band_width=n_steps - 1))
    for band in (n_steps, n_steps + 1, n_steps + 5, n_steps + 10_000):
        wide, wide_trace = baum_welch(seqs, TrainingConfig(max_iterations=3, band_width=band))
        assert wide.band_width == n_steps - 1
        assert wide_trace.log_likelihoods == trace.log_likelihoods
        for name in ("log_pi", "means", "covariances"):
            assert np.array_equal(getattr(wide, name), getattr(full, name)), name
        assert all(np.array_equal(a, b) for a, b in zip(wide.log_A_band, full.log_A_band))
        assert validate_model(wide) == []


def test_band_far_past_the_horizon_builds_only_the_full_band():
    # a band_width of 10^5 on 20-step recordings used to build 100 001
    # diagonals, all but 20 of them empty, in every model of the fit
    rng = np.random.default_rng(25)
    seqs = _random_sequences(rng, 4, 20, 1, scale=0.5)
    config = TrainingConfig(max_iterations=5, band_width=10 ** 5)
    assert len(initialize_model(seqs, config).log_A_band) == 20
    model, _ = baum_welch(seqs, config)
    assert len(model.log_A_band) == 20


def test_wider_band_is_trainable():
    rng = np.random.default_rng(19)
    seqs = _random_sequences(rng, 4, 6, 1, scale=0.5)
    model, trace = baum_welch(seqs, TrainingConfig(max_iterations=20, band_width=2))
    assert validate_model(model) == []
    assert model.band_width == 2
    for a, b in zip(trace.log_likelihoods, trace.log_likelihoods[1:]):
        assert b >= a - 1e-8 * max(1.0, abs(a))
