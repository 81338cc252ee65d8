"""Model initialization and Baum-Welch training.

The model has as many states as the training sequences have time steps, so
the initializer can seed each state's emission from the cross-sequence
statistics of the matching step.  All recursions run over the transition
band only.  The forward recursion runs in log space and is exact; the
E-step's backward pass runs in probability space on the filtered forward
variables, and a sequence whose posteriors fail an exact normalisation
check is redone in log space.  Expectation quantities are accumulated over
sequences in a canonical order (sorted by ``trial_id``) so that training
results do not depend on how the caller happened to order the input list.

Training memory is bounded per chunk of sequences, not per data set: each
EM iteration runs the E-step on a few sequences at a time and keeps only
their sufficient statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .core import (
    DegenerateStateError,
    ForwardBackwardCache,
    GaussianEmission,
    LrHmmModel,
    ObservationSequence,
    UsageError,
    _band_diagonals,
    _log_a_from_band,
    _log_b,
    _log_norms,
)

# A state whose total posterior mass falls below this is unusable: its
# emission update would divide by (numerical) zero.
DEGENERATE_MASS = 1e-12

# Largest deviation of a sequence's state posteriors from summing to one at
# any step for which the probability-space backward pass is trusted.
# Rounding drift reaches about 2e-11 over 800 steps; an underflow loses more.
_POSTERIOR_SUM_TOL = 1e-9

# NumPy's exp is several times slower on arguments whose result underflows,
# so the probability-space E-step flushes results below exp(-700) to zero.
# Flushing only removes mass, which the posterior-sum check above detects.
_EXP_FLOOR = -700.0

# Absolute floor for the covariance regularization increment.
_COV_EPS_ABS = 1e-9

# Elements of one (chunk, T, N) E-step array (16 MiB in float64); sets how
# many sequences an EM iteration processes at a time.  29 sequences stay in
# one chunk up to T = 268.
_ESTEP_ELEMENTS = 2 ** 21


@dataclass(frozen=True)
class TrainingConfig:
    """Hyperparameters for :func:`baum_welch`.

    ``covariance_floor_eps`` scales the ridge added to every estimated
    covariance: eps = max(covariance_floor_eps * trace(cov) / M, 1e-9).
    """

    max_iterations: int = 100
    loglik_rel_tolerance: float = 1e-6
    covariance_floor_eps: float = 1e-6
    rng_seed: int = 0
    band_width: int = 1

    def __post_init__(self):
        if self.max_iterations < 1:
            raise UsageError("max_iterations must be >= 1")
        if not self.loglik_rel_tolerance > 0:
            raise UsageError("loglik_rel_tolerance must be > 0")
        if not self.covariance_floor_eps > 0:
            raise UsageError("covariance_floor_eps must be > 0")
        if self.band_width < 1:
            raise UsageError("band_width must be >= 1")


@dataclass(frozen=True)
class TrainingTrace:
    """Per-iteration total log-likelihood of the model that entered the
    iteration, plus convergence bookkeeping.  ``estep_fallbacks`` counts the
    sequence E-steps redone in log space, summed over iterations."""

    log_likelihoods: tuple
    iterations_run: int
    converged: bool
    estep_fallbacks: int


# ---------------------------------------------------------------------------
# banded log-space recursions (leading batch dimensions allowed)
# ---------------------------------------------------------------------------

def _forward(log_b: np.ndarray, log_pi: np.ndarray, diags: list[np.ndarray],
             out: np.ndarray | None = None) -> np.ndarray:
    """Forward log variables; ``log_b`` is (..., T, N), result matches and is
    written to ``out`` if given."""
    n_steps = log_b.shape[-2]
    if out is None:
        out = np.empty_like(log_b)
    out[..., 0, :] = log_pi + log_b[..., 0, :]
    for t in range(1, n_steps):
        prev = out[..., t - 1, :]
        acc = prev + diags[0]
        for d in range(1, len(diags)):
            if diags[d].size == 0:
                continue
            acc[..., d:] = np.logaddexp(acc[..., d:], prev[..., :-d] + diags[d])
        out[..., t, :] = acc + log_b[..., t, :]
    return out


def _backward(log_b: np.ndarray, diags: list[np.ndarray]) -> np.ndarray:
    n_steps = log_b.shape[-2]
    out = np.empty_like(log_b)
    out[..., n_steps - 1, :] = 0.0
    for t in range(n_steps - 2, -1, -1):
        nxt = log_b[..., t + 1, :] + out[..., t + 1, :]
        acc = nxt + diags[0]
        for d in range(1, len(diags)):
            if diags[d].size == 0:
                continue
            acc[..., :-d] = np.logaddexp(acc[..., :-d], nxt[..., d:] + diags[d])
        out[..., t, :] = acc
    return out


def _state_posteriors(log_alpha: np.ndarray, log_beta: np.ndarray) -> np.ndarray:
    """Posterior state probabilities, exact 0.0 where a state is unreachable."""
    log_ab = log_alpha + log_beta
    norm = logsumexp(log_ab, axis=-1, keepdims=True)
    return np.exp(log_ab - norm)


def _xi_prob_sums(log_alpha, log_beta, log_b, diags, log_lik):
    """Pairwise posteriors summed over sequences and t = 1..T-1, one vector
    per band diagonal.  Exponents are bounded above by ~0, so this is safe
    to accumulate in probability space."""
    sums = []
    ll = np.asarray(log_lik)[..., None, None]
    for d, diag in enumerate(diags):
        if diag.size == 0:
            sums.append(np.zeros(0))
            continue
        hi = log_alpha.shape[-1] - d
        expo = (log_alpha[..., :-1, :hi] + diag
                + log_b[..., 1:, d:] + log_beta[..., 1:, d:] - ll)
        term = np.exp(expo)
        sums.append(term.sum(axis=tuple(range(term.ndim - 1))))
    return sums


def _exp_flushed(x: np.ndarray) -> None:
    """exp(x) in place, with results below exp(_EXP_FLOOR) flushed to exactly 0."""
    kept = x > _EXP_FLOOR
    np.maximum(x, _EXP_FLOOR, out=x)
    np.exp(x, out=x)
    x *= kept


def _posteriors(log_b, alpha, log_lik, log_pi, diags, weighted=None, gamma=None):
    """State posteriors (K, T, N), per-diagonal pairwise posterior sums and
    the number of sequences redone in log space, for a chunk of K sequences
    from their exact log forward variables.

    ``alpha`` holds the log forward variables on entry and is overwritten.
    ``weighted`` and ``gamma`` are (K, T, N) arrays to work in; the
    posteriors are returned in ``gamma``.  Fresh arrays are used if they are
    not given.

    The backward pass runs in probability space over the states the band
    lets the forward reach, on the filtered forward variables alpha_hat_t =
    alpha_t / P(x_0..t) and on the emissions divided by the forward's
    per-step scale c_t = P(x_t | x_0..t-1).  The forward is exact and every
    term is non-negative, so a backward underflow shows as a deficit in
    sum_i alpha_hat_ti beta_hat_ti = 1 and an overflow as a non-finite sum.
    Sequences that fail this check at any step are redone in log space.
    """
    n_steps, n_states = log_b.shape[1:]
    if weighted is None:
        weighted = np.empty_like(log_b)
    if gamma is None:
        gamma = np.empty_like(log_b)
    a_diags = [np.exp(diag) for diag in diags]
    starts = np.flatnonzero(log_pi > -np.inf)
    first = starts[-1] + 1 if starts.size else n_states
    reach = np.minimum(first + (len(diags) - 1) * np.arange(n_steps), n_states)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        peak = alpha.max(axis=2, keepdims=True)
        alpha -= peak
        _exp_flushed(alpha)
        norm = alpha.sum(axis=2, keepdims=True)
        alpha /= norm
        log_scale = np.diff(peak + np.log(norm), axis=1, prepend=0.0)
        np.subtract(log_b, log_scale, out=weighted)     # b_hat, then b_hat * beta_hat
        _exp_flushed(weighted)
        weighted[:, np.arange(n_states) >= reach[:, None]] = 0.0

        gamma.fill(0.0)                                 # beta_hat, then gamma
        gamma[:, -1, :] = 1.0
        for t in range(n_steps - 2, -1, -1):
            r = reach[t]
            nxt = weighted[:, t + 1, :]
            beta = gamma[:, t, :r]
            np.multiply(nxt[:, :r], a_diags[0][:r], out=beta)
            for d in range(1, len(a_diags)):
                hi = min(r, n_states - d)
                if hi > 0:
                    beta[:, :hi] += a_diags[d][:hi] * nxt[:, d:hi + d]
            weighted[:, t, :r] *= beta
        gamma *= alpha
        sums = gamma.sum(axis=2)
        ok = np.all(np.abs(sums - 1.0) <= _POSTERIOR_SUM_TOL, axis=1)
        gamma /= sums[:, :, None]

    good, bad = np.flatnonzero(ok), np.flatnonzero(~ok)
    if bad.size:
        for row, k in enumerate(good):          # the passing sequences move up
            alpha[row], weighted[row] = alpha[k], weighted[k]
    xi = [np.einsum("ktn,ktn->n", alpha[:good.size, :-1, :a_d.size],
                    weighted[:good.size, 1:, d:]) * a_d
          for d, a_d in enumerate(a_diags)]
    if bad.size:
        # the overwritten forward of a failing sequence is recomputed, bit for bit
        log_b = log_b[bad]
        log_alpha = _forward(log_b, log_pi, diags, out=alpha[:bad.size])
        log_beta = _backward(log_b, diags)
        gamma[bad] = _state_posteriors(log_alpha, log_beta)
        for total, term in zip(xi, _xi_prob_sums(log_alpha, log_beta, log_b, diags,
                                                 log_lik[bad])):
            total += term
    return gamma, xi, bad.size


def forward_backward(seq: ObservationSequence, model: LrHmmModel) -> ForwardBackwardCache:
    """Run the forward-backward recursions for one sequence.

    The sequence may be shorter than the model horizon (truncated history);
    it must not be longer.  Returns the log forward/backward variables, the
    state posteriors, the (N, N) log sum of pairwise transition posteriors
    over t = 1..T-1, and the forward log-likelihood (summed over all states
    at the final step).  Posteriors come from the E-step that training runs.
    """
    _check_scorable(seq, model)
    diags = _band_diagonals(model.log_A, model.band_width)
    log_b = _log_b(seq.values[None], model.means, model._chols,
                   model._log_norms)                            # (1, T, N)
    log_alpha = _forward(log_b, model.log_pi, diags)
    log_lik = logsumexp(log_alpha[:, -1, :], axis=-1)
    gamma, xi, _ = _posteriors(log_b, log_alpha.copy(), log_lik, model.log_pi, diags)
    with np.errstate(divide="ignore"):
        log_xi = _log_a_from_band([np.log(sums) for sums in xi], model.n_states)
    return ForwardBackwardCache(log_alpha[0], _backward(log_b, diags)[0], gamma[0],
                                log_xi, float(log_lik[0]))


def _check_scorable(seq: ObservationSequence, model: LrHmmModel) -> None:
    if not isinstance(seq, ObservationSequence):
        raise UsageError("expected an ObservationSequence")
    if seq.n_dims != model.n_dims:
        raise UsageError(
            f"sequence has {seq.n_dims} channels, model expects {model.n_dims}")
    if seq.n_steps > model.n_states:
        raise UsageError(
            f"history of {seq.n_steps} steps exceeds the model horizon of "
            f"{model.n_states} states")


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------

def _prepare_batch(sequences) -> tuple[list[ObservationSequence], np.ndarray]:
    seqs = list(sequences)
    if not seqs:
        raise UsageError("at least one training sequence is required")
    for s in seqs:
        if not isinstance(s, ObservationSequence):
            raise UsageError("training data must be ObservationSequence instances")
    n_steps = seqs[0].n_steps
    n_dims = seqs[0].n_dims
    for s in seqs[1:]:
        if s.n_steps != n_steps or s.n_dims != n_dims:
            raise UsageError(
                f"all sequences must share shape ({n_steps}, {n_dims}); "
                f"trial {s.trial_id} has ({s.n_steps}, {s.n_dims})")
    # Canonical accumulation order: sorted by trial id (stable on ties).
    seqs.sort(key=lambda s: s.trial_id)
    return seqs, np.stack([s.values for s in seqs])


def _floor_covariances(covs: np.ndarray, eps_rel: float) -> np.ndarray:
    """Add eps * I per state, eps = max(eps_rel * trace / M, 1e-9)."""
    n_dims = covs.shape[-1]
    traces = np.trace(covs, axis1=-2, axis2=-1)
    eps = np.maximum(eps_rel * traces / n_dims, _COV_EPS_ABS)
    out = covs.copy()
    idx = np.arange(n_dims)
    out[..., idx, idx] += eps[..., None]
    return out


def _banded_uniform_log_a(n_states: int, band_width: int) -> np.ndarray:
    log_a = np.full((n_states, n_states), -np.inf)
    for i in range(n_states):
        hi = min(i + band_width, n_states - 1)
        width = hi - i + 1
        log_a[i, i:hi + 1] = -np.log(width)
    return log_a


def initialize_model(sequences, config: TrainingConfig) -> LrHmmModel:
    """Build the canonical starting model for a set of sequences.

    One state per time step.  The start distribution is a point mass on the
    first state; transition rows are uniform over the band.  State ``j``'s
    emission mean is the cross-sequence mean of step ``j``, perturbed by
    seeded noise of scale 0.01x the per-channel standard deviation (pooled
    over sequences and steps); its covariance is the diagonal per-channel
    variance of step ``j``, floored.
    """
    seqs, x = _prepare_batch(sequences)
    _, n_steps, n_dims = x.shape
    n_states = n_steps

    step_means = x.mean(axis=0)                             # (T, M)
    step_vars = x.var(axis=0)                               # (T, M)
    pooled_std = x.std(axis=(0, 1))                         # (M,)
    rng = np.random.default_rng(config.rng_seed)
    means = step_means + 0.01 * pooled_std * rng.standard_normal((n_states, n_dims))

    covs = np.zeros((n_states, n_dims, n_dims))
    idx = np.arange(n_dims)
    covs[:, idx, idx] = step_vars
    covs = _floor_covariances(covs, config.covariance_floor_eps)

    log_pi = np.full(n_states, -np.inf)
    log_pi[0] = 0.0
    log_a = _banded_uniform_log_a(n_states, config.band_width)
    emissions = tuple(GaussianEmission(means[j], covs[j]) for j in range(n_states))
    return LrHmmModel(n_states, n_dims, log_pi, log_a, emissions, config.band_width)


# ---------------------------------------------------------------------------
# Baum-Welch
# ---------------------------------------------------------------------------

class _Statistics:
    """Sufficient statistics of one EM iteration, summed over sequences.

    Second moments are taken about ``ref_means``, the means of the model
    entering the iteration, so that they do not cancel against the squared
    new means.
    """

    def __init__(self, ref_means: np.ndarray, n_diags: int):
        n_states, n_dims = ref_means.shape
        self.ref_means = ref_means
        self.n_sequences = 0
        self.gamma0 = np.zeros(n_states)                    # sum of gamma at t = 0
        self.mass = np.zeros(n_states)                      # sum of gamma
        self.first = np.zeros((n_states, n_dims))           # sum of gamma x
        self.second = np.zeros((n_states, n_dims, n_dims))  # about ref_means
        self.xi = [np.zeros(max(n_states - d, 0)) for d in range(n_diags)]

    def add(self, x, work, log_lik, log_pi, diags) -> int:
        """Finish the E-step of one chunk of sequences and add its sums.

        ``work`` holds four (chunk, T, N) arrays: the chunk's log emissions
        and log forward variables, then two to work in.  Returns the number
        of sequences whose E-step was redone in log space.
        """
        log_b, alpha, weighted, gamma = work
        gamma, xi, fallbacks = _posteriors(log_b, alpha, log_lik, log_pi, diags,
                                           weighted, gamma)
        for total, term in zip(self.xi, xi):
            total += term
        self.n_sequences += x.shape[0]
        self.gamma0 += gamma[:, 0, :].sum(axis=0)
        self.mass += gamma.sum(axis=(0, 1))
        self.first += np.einsum("ktn,ktm->nm", gamma, x)
        # one (chunk, T, N) contraction per channel pair: a single einsum over
        # (chunk, T, N, M) differences runs an inner loop of length M.  The
        # differences go to the two arrays the posteriors no longer need.
        for m in range(x.shape[2]):
            diff_m = np.subtract(x[:, :, m, None], self.ref_means[:, m], out=log_b)
            for p in range(m + 1):
                diff_p = diff_m if p == m else np.subtract(
                    x[:, :, p, None], self.ref_means[:, p], out=alpha)
                term = np.einsum("ktn,ktn,ktn->n", gamma, diff_m, diff_p)
                self.second[:, m, p] += term
                if p != m:
                    self.second[:, p, m] += term
        return fallbacks


def _m_step(stats: _Statistics, log_diags_old, eps_rel):
    """Re-estimate (log_pi, log band diagonals of A, means, covs) from
    sufficient statistics."""
    pi = stats.gamma0 / stats.n_sequences
    pi = pi / pi.sum()

    # Rows of A are the pairwise posterior sums normalised.  A row without
    # transition evidence (e.g. the absorbing final state, or T == 1) keeps
    # its previous entries.
    row_sums = stats.xi[0].copy()
    for numer in stats.xi[1:]:
        row_sums[:numer.size] += numer
    evidence = row_sums > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        log_diags = [np.log(np.where(evidence[:numer.size], numer / row_sums[:numer.size],
                                     np.exp(old)))
                     for numer, old in zip(stats.xi, log_diags_old)]

    mass = stats.mass
    weakest = int(np.argmin(mass))
    if mass[weakest] < DEGENERATE_MASS:
        raise DegenerateStateError(
            f"state {weakest} has total posterior mass {mass[weakest]:.3e}")

    means = stats.first / mass[:, None]
    shift = means - stats.ref_means
    covs = (stats.second / mass[:, None, None]
            - shift[:, :, None] * shift[:, None, :])
    covs = 0.5 * (covs + covs.transpose(0, 2, 1))
    covs = _floor_covariances(covs, eps_rel)

    with np.errstate(divide="ignore"):
        return np.log(pi), log_diags, means, covs


def _relative_change(current: float, previous: float) -> float:
    return abs(current - previous) / max(1.0, abs(current), abs(previous))


def _expectation_maximization(x, log_pi, log_diags, means, covs, config):
    """The EM loop of :func:`baum_welch` over sequences ``x`` (K, T, M), from
    the given parameters.  Returns the final (log_pi, log band diagonals,
    means, covs) and the trace.

    The E-step works in four (chunk, T, N) arrays allocated once here: the
    log emissions, the log forward variables (then the filtered ones), the
    scaled emissions times the backward variables, and the posteriors.
    """
    n_seq, n_steps, _ = x.shape
    chunk = min(n_seq, max(1, _ESTEP_ELEMENTS // (n_steps * n_steps)))
    work = [np.empty((chunk, n_steps, n_steps)) for _ in range(4)]
    starts = range(0, n_seq, chunk)
    log_lik = np.empty(n_seq)
    trace: list[float] = []
    fallbacks = 0
    converged = False
    previous = np.nan
    for _ in range(config.max_iterations):
        chols = np.linalg.cholesky(covs)
        log_norms = _log_norms(chols)
        stats = _Statistics(means, len(log_diags))
        for lo in starts:
            part = slice(lo, lo + chunk)
            chunk_work = [array[:len(x[part])] for array in work]
            log_b, log_alpha = chunk_work[:2]
            _log_b(x[part], means, chols, log_norms, out=log_b)
            _forward(log_b, log_pi, log_diags, out=log_alpha)
            log_lik[part] = logsumexp(log_alpha[:, -1, :], axis=-1)
            if lo != starts[-1]:
                fallbacks += stats.add(x[part], chunk_work, log_lik[part], log_pi, log_diags)
        total = float(log_lik.sum())
        trace.append(total)
        if len(trace) > 1 and _relative_change(total, previous) < config.loglik_rel_tolerance:
            converged = True
            break
        previous = total

        # The last chunk's posteriors wait for the convergence test, so a
        # single-chunk fit skips them in its final iteration.
        fallbacks += stats.add(x[part], chunk_work, log_lik[part], log_pi, log_diags)
        log_pi, log_diags, means, covs = _m_step(stats, log_diags,
                                                 config.covariance_floor_eps)
    return (log_pi, log_diags, means, covs,
            TrainingTrace(tuple(trace), len(trace), converged, fallbacks))


def baum_welch(sequences, config: TrainingConfig,
               initial_model: LrHmmModel | None = None
               ) -> tuple[LrHmmModel, TrainingTrace]:
    """Fit a left-right HMM to ``sequences`` by expectation-maximization.

    Starts from :func:`initialize_model` unless ``initial_model`` is given.
    Each iteration records the total log-likelihood of the model entering
    it; the loop stops when the relative change drops below
    ``config.loglik_rel_tolerance`` or after ``config.max_iterations``
    iterations.  Raises :class:`DegenerateStateError` if a state loses all
    posterior mass.

    Returns the fitted model and a :class:`TrainingTrace`.  The trace's
    log-likelihood list is non-decreasing (up to tiny rounding); permuting
    the input sequences does not change the result because accumulation
    order is fixed by ``trial_id``.  Transitions stay band diagonals through
    the EM loop; the dense (N, N) matrix is built once, for the model.
    """
    seqs, x = _prepare_batch(sequences)
    _, n_steps, n_dims = x.shape
    if initial_model is None:
        model0 = initialize_model(seqs, config)
    else:
        model0 = initial_model
        if model0.n_states != n_steps:
            raise UsageError(
                f"initial model has {model0.n_states} states, sequences have "
                f"{n_steps} steps")
        if model0.n_dims != n_dims:
            raise UsageError("initial model dimensionality does not match data")
    band_width = model0.band_width
    start = (model0.log_pi, _band_diagonals(model0.log_A, band_width),
             model0.means, model0.covariances)
    del model0                          # its dense A is not needed during EM
    log_pi, log_diags, means, covs, trace = _expectation_maximization(x, *start, config)
    emissions = tuple(GaussianEmission(means[j], covs[j]) for j in range(n_steps))
    model = LrHmmModel(n_steps, n_dims, log_pi, _log_a_from_band(log_diags, n_steps),
                       emissions, band_width)
    return model, trace
