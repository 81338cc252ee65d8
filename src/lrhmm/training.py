"""Model initialization and Baum-Welch training.

The model has as many states as the training sequences have time steps, so
the initializer can seed each state's emission from the cross-sequence
statistics of the matching step.  All recursions run over the transition
band only.  The E-step runs the exact log-space forward recursion over a
sliding window of the states that hold the forward mass, then the backward
pass in probability space on the filtered forward variables.  A sequence is
redone by the dense log-space recursions when the mass its window dropped
could show in its results, or when its posteriors fail an exact
normalisation check.  Expectation quantities are accumulated over sequences
in a canonical order (sorted by ``trial_id``) so that training results do
not depend on how the caller happened to order the input list.

Training memory is bounded per chunk of sequences, not per data set: each
EM iteration runs the E-step on a few sequences at a time and keeps only
their sufficient statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DegenerateStateError,
    ForwardBackwardCache,
    LrHmmModel,
    ModelError,
    ObservationSequence,
    UsageError,
    _cholesky_factors,
    _log_a_from_band,
    _live_spans,
    _log_b,
    _log_norms,
    _logsumexp,
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

# Elements of one (chunk, T, W) E-step array (16 MiB in float64); sets how
# many sequences an EM iteration processes at a time.  29 sequences stay in
# one chunk up to T = 1129.
_ESTEP_ELEMENTS = 2 ** 21

# States per row of the E-step's arrays (W): row t holds states lo[t] ..
# lo[t] + W - 1.  A model of at most W states runs densely, with lo = 0.
_WINDOW = 64

# The window keeps every state whose log forward variable lies within
# tau = _WINDOW_NATS_PER_STEP * T nats of some sequence's best state at its
# step, so dropped states trail by more than tau.  The certificate of
# _window_forward allows for what they can regain: up to about 6 nats per
# step on 4 crank recordings at T = 800, whose initial model has narrow
# states, and about 2 on the benchmark's 29.  The states within tau then
# span at most about 40.
_WINDOW_NATS_PER_STEP = 8.0

# A windowed E-step stands when the mass its window dropped changes the
# sequence's likelihood by a factor below 1 + e^-40, far under rounding.
_CERTIFICATE_NATS = 40.0

# Steps per block of emission scoring in the windowed forward, and of the
# log-space fallback's posteriors.
_BLOCK = 32


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
        if not 0 < self.loglik_rel_tolerance < math.inf:
            raise UsageError("loglik_rel_tolerance must be finite and > 0")
        if not 0 < self.covariance_floor_eps < math.inf:
            raise UsageError("covariance_floor_eps must be finite and > 0")
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

def _forward(log_b, log_pi, diags, spans, out, keep=None):
    """Forward log variables (leading batch dimensions allowed), computed
    over each step's live span (``spans`` from :func:`core._live_spans`);
    outside it they are exactly -inf, as the recursion over all states
    gives.

    ``log_b`` holds the log emissions as blocks (base, scores) in step
    order: scores (..., steps, W) are those of states base .. base + W - 1,
    and cover at each of their steps t the states from lo_{t-2} to hi_t.
    Step t goes to row t % R of ``out`` (..., R, N): with R = T it is the
    table of every step, with R = 2 only the last two steps are held.  Step
    t is computed from state lo_{t-2} on, so a rolling row's values of step
    t - 2 below lo_t are overwritten with the -inf the recursion gives
    there.  ``keep`` maps steps to arrays (..., N) that receive their rows.
    """
    rows = list(out.swapaxes(-2, 0))
    n_rows = len(rows)
    lo, hi = spans
    firsts = lo[:1] * 2 + lo                        # lo_{t-2}, from lo_0
    stay, moves = diags[0], list(enumerate(diags))[1:]
    keep = keep or {}
    out.fill(-np.inf)
    t = 0
    for base, block in log_b:
        for scores in block.swapaxes(-2, 0):
            first, end = firsts[t], hi[t]
            row = rows[t % n_rows]
            acc = row[..., first:end]
            # positional out arguments: this loop runs once per step
            if t == 0:
                np.add(log_pi[first:end], scores[..., first - base:end - base], acc)
            else:
                np.add(prev[..., first:end], stay[first:end], acc)
                for d, diag in moves:
                    if first >= d:
                        np.logaddexp(acc, prev[..., first - d:end - d] + diag[first - d:end - d],
                                     acc)
                    elif d < end:
                        tail = acc[..., d - first:]
                        np.logaddexp(tail, prev[..., :end - d] + diag[:end - d], tail)
                np.add(acc, scores[..., first - base:end - base], acc)
            if t in keep:
                keep[t][...] = row
            prev = row
            t += 1


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
    """Posterior state probabilities, exact 0.0 where a state is unreachable.
    They overwrite ``log_alpha``, a block of steps at a time."""
    for t0 in range(0, log_alpha.shape[-2], _BLOCK):
        block = log_alpha[..., t0:t0 + _BLOCK, :]
        block += log_beta[..., t0:t0 + _BLOCK, :]
        block -= _logsumexp(block)[..., None]
        np.exp(block, out=block)
    return log_alpha


def _xi_prob_sums(log_alpha, log_beta, log_b, diags, log_lik):
    """Pairwise posteriors summed over sequences and t = 1..T-1, one vector
    per band diagonal, a block of steps at a time.  Exponents are bounded
    above by ~0, so this is safe to accumulate in probability space."""
    n_steps, n_states = log_alpha.shape[-2:]
    ll = np.asarray(log_lik)[..., None, None]
    sums = [np.zeros(diag.size) for diag in diags]
    for t0 in range(0, n_steps - 1, _BLOCK):
        t1 = min(t0 + _BLOCK, n_steps - 1)
        for d, diag in enumerate(diags):
            if diag.size == 0:
                continue
            expo = (log_alpha[..., t0:t1, :n_states - d] + diag
                    + log_b[..., t0 + 1:t1 + 1, d:] + log_beta[..., t0 + 1:t1 + 1, d:] - ll)
            term = np.exp(expo)
            sums[d] += term.sum(axis=tuple(range(term.ndim - 1)))
    return sums


# ---------------------------------------------------------------------------
# the E-step over a sliding window of live states
# ---------------------------------------------------------------------------

def _slide(row: np.ndarray, limit: int, tau: float, width: int,
           dropped: np.ndarray) -> int:
    """How far the window moves over ``row`` (K, E), the log forward
    variables of the states it can hold at this step: to the lowest column
    within ``tau`` of some sequence's best, but at most ``limit``.  The
    columns it leaves out fold their margins below each sequence's best
    into ``dropped`` (K,)."""
    peak = row.max(axis=1)
    with np.errstate(invalid="ignore"):         # rows of only -inf give NaN
        live = row > (peak - tau)[:, None]
        shift = min(int(live.any(axis=0).argmax()), limit)
        for out in (row[:, :shift], row[:, shift + width:]):
            if out.shape[1]:
                np.maximum(dropped, out.max(axis=1) - peak, out=dropped)
    return shift


def _window_forward(x, params, log_pi, diags, log_b, alpha):
    """Exact log forward variables of sequences ``x`` (K, T, M) over a
    sliding window of states.  Returns the window offsets ``lo`` (T,), the
    log-likelihoods (K,) and which sequences' windows are certified.

    Row t of ``log_b`` and ``alpha`` (K, T, W) receives states lo[t] ..
    lo[t] + W - 1, shared by the chunk; lo advances by at most the band
    width per step.  The window keeps every state within tau nats of some
    sequence's best state.  Emissions are scored a block of steps at a
    time, over the states the window can reach in the block.  With W = N
    this is the dense forward and nothing is dropped.

    Certificate: let m be a sequence's worst dropped margin (a dropped log
    forward variable minus its step's best; -inf if none), L_t the log sum
    of row t and P the largest Gaussian log normaliser.  No density exceeds
    its peak e^P, so mass dropped at step t regains at most e^(P (T-1-t))
    by the end, and a kept row's mass grows by at most e^P per step.  The
    N T dropped terms together then change the likelihood by a factor below
    1 + N T e^(m + G), G = (T - 1) P - (L_{T-1} - L_0); a sequence is
    certified when m + G + log(N T) <= -40.
    """
    means, chols, log_norms = params
    n_seq, n_steps, width = alpha.shape
    n_states = means.shape[0]
    lo = np.zeros(n_steps, dtype=int)
    dropped = np.full(n_seq, -np.inf)
    if width == n_states:
        _log_b(x, *params, out=log_b)
        _forward([(0, log_b)], log_pi, diags, _live_spans(log_pi, diags), alpha)
    else:
        band = len(diags) - 1
        tau = _WINDOW_NATS_PER_STEP * n_steps
        scores = _log_b(x[:, 0], *params)               # step 0 scores every state
        first = log_pi + scores
        shift = _slide(first, n_states - width, tau, width, dropped)
        lo[0] = shift
        alpha[:, 0], log_b[:, 0] = first[:, shift:shift + width], scores[:, shift:shift + width]
        row = np.empty((n_seq, width + band))
        for t0 in range(1, n_steps, _BLOCK):
            t1 = min(t0 + _BLOCK, n_steps)
            base = lo[t0 - 1]
            top = min(base + width + band * (t1 - t0), n_states)
            block = _log_b(x[:, t0:t1], means[base:top], chols[base:top],
                           log_norms[base:top])
            for t in range(t0, t1):
                prev, start = alpha[:, t - 1], lo[t - 1]
                ext = row[:, :min(width + band, n_states - start)]
                np.add(prev, diags[0][start:start + width], out=ext[:, :width])
                ext[:, width:] = -np.inf
                for d in range(1, band + 1):
                    hi = min(width, ext.shape[1] - d)
                    if hi > 0:
                        np.logaddexp(ext[:, d:d + hi], prev[:, :hi] + diags[d][start:start + hi],
                                     out=ext[:, d:d + hi])
                scores = block[:, t - t0, start - base:]
                ext += scores[:, :ext.shape[1]]
                shift = _slide(ext, min(band, n_states - width - start), tau, width, dropped)
                lo[t] = start + shift
                alpha[:, t], log_b[:, t] = (ext[:, shift:shift + width],
                                            scores[:, shift:shift + width])
    log_lik = _logsumexp(alpha[:, -1, :])
    if width == n_states:
        return lo, log_lik, np.ones(n_seq, dtype=bool)
    with np.errstate(invalid="ignore"):
        regain = (n_steps - 1) * log_norms.max() - (log_lik - _logsumexp(alpha[:, 0, :]))
        trusted = dropped + regain + math.log(n_states * n_steps) <= -_CERTIFICATE_NATS
    return lo, log_lik, trusted


def _exp_flushed(x: np.ndarray) -> None:
    """exp(x) in place, with results below exp(_EXP_FLOOR) flushed to exactly 0."""
    kept = x > _EXP_FLOOR
    np.maximum(x, _EXP_FLOOR, out=x)
    np.exp(x, out=x)
    x *= kept


def _state_sums(subscripts, operands, lo, size, col0=0, rows=None) -> np.ndarray:
    """Sums over sequences and steps of window terms, per state: (size, ...).

    ``subscripts`` take the (K, T', W') ``operands`` to (T', W', ...) terms,
    and term (t, w) belongs to state lo[t] + col0 + w.  ``rows`` (T',)
    selects steps.  A window that never moves sums its steps in einsum.
    """
    if rows is None or rows.all():
        if lo[0] == lo[-1]:
            inputs, output = subscripts.split("->")
            sums = np.einsum(f"{inputs}->{output[1:]}", *operands)
            out = np.zeros((size,) + sums.shape[1:])
            out[lo[0] + col0:lo[0] + col0 + len(sums)] = sums
            return out
        rows = slice(None)
    terms = np.einsum(subscripts, *operands)[rows]
    states = (lo[rows, None] + np.arange(col0, col0 + terms.shape[1])).ravel()
    flat = terms.reshape(states.size, -1)
    out = np.stack([np.bincount(states, col, minlength=size) for col in flat.T], axis=1)
    return out.reshape((size,) + terms.shape[2:])


def _xi_sums(alpha, weighted, lo, a_diags):
    """Pairwise posteriors per band diagonal, summed over sequences and
    steps, from the filtered forward variables and the scaled emissions
    times backward variables (K, T, W).  State lo[t] + w moves by diagonal
    d to column w + d - s of row t + 1, s = lo[t+1] - lo[t]."""
    width = alpha.shape[2]
    shifts = np.diff(lo)
    xi = []
    for d, a_d in enumerate(a_diags):
        total = np.zeros(a_d.size)
        for s in np.unique(shifts):
            w0, w1 = max(0, s - d), min(width, width + s - d)
            if w1 <= w0:
                continue
            pairs = alpha[:, :-1, w0:w1], weighted[:, 1:, w0 + d - s:w1 + d - s]
            total += _state_sums("ktw,ktw->tw", pairs, lo[:-1], a_d.size, w0, shifts == s)
        xi.append(total * a_d)
    return xi


def _posteriors(log_b, alpha, lo, trusted, log_pi, diags, weighted, gamma):
    """State posteriors in the window, pairwise posterior sums per band
    diagonal, and which sequences passed, for a chunk of K sequences.

    The (K, T, W) arrays are laid out as :func:`_window_forward` leaves
    them: ``log_b`` and ``alpha`` hold its log emissions and log forward
    variables, ``alpha`` is overwritten, and ``weighted`` and ``gamma`` are
    arrays to work in; the posteriors are returned in ``gamma``.

    The backward pass runs in probability space over the window's states
    that the band lets the forward reach, on the filtered forward variables
    alpha_hat_t = alpha_t / P(x_0..t) and on the emissions divided by the
    forward's per-step scale c_t = P(x_t | x_0..t-1).  The windowed forward
    is exact and every term is non-negative, so a backward underflow shows
    as a deficit in sum_i alpha_hat_ti beta_hat_ti = 1 and an overflow as a
    non-finite sum.  A sequence passes when this check holds at every step
    and ``trusted`` certifies its window; the rows of the others come back
    zero and add nothing to the sums.
    """
    n_steps, width = log_b.shape[1:]
    n_states = diags[0].size
    a_diags = [np.exp(diag) for diag in diags]
    starts = np.flatnonzero(log_pi > -np.inf)
    first = starts[-1] + 1 if starts.size else n_states
    reach = np.minimum(first + (len(diags) - 1) * np.arange(n_steps), n_states)
    reach = np.clip(reach - lo, 0, width)              # in window columns
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        peak = alpha.max(axis=2, keepdims=True)
        alpha -= peak
        _exp_flushed(alpha)
        norm = alpha.sum(axis=2, keepdims=True)
        alpha /= norm
        log_scale = np.diff(peak + np.log(norm), axis=1, prepend=0.0)
        np.subtract(log_b, log_scale, out=weighted)     # b_hat, then b_hat * beta_hat
        _exp_flushed(weighted)
        weighted[:, np.arange(width) >= reach[:, None]] = 0.0

        gamma.fill(0.0)                                 # beta_hat, then gamma
        gamma[:, -1, :] = 1.0
        row_lo, shifts, reach = lo.tolist(), np.diff(lo).tolist(), reach.tolist()
        for t in range(n_steps - 2, -1, -1):
            r, s, here = reach[t], shifts[t], row_lo[t]
            nxt = weighted[:, t + 1, :]
            beta = gamma[:, t, :r]
            for d, a_d in enumerate(a_diags):
                # column w of row t reaches column w + d - s of row t + 1
                w0, w1 = (s - d, r) if d <= s else (0, min(r, width + s - d))
                if w1 <= w0:
                    continue
                if d == 0:
                    np.multiply(nxt[:, w0 - s:w1 - s], a_d[here + w0:here + w1],
                                out=beta[:, w0:w1])
                else:
                    beta[:, w0:w1] += a_d[here + w0:here + w1] * nxt[:, w0 + d - s:w1 + d - s]
            weighted[:, t, :r] *= beta
        gamma *= alpha
        sums = gamma.sum(axis=2)
        ok = trusted & np.all(np.abs(sums - 1.0) <= _POSTERIOR_SUM_TOL, axis=1)
        gamma /= sums[:, :, None]
    if not ok.all():
        gamma[~ok] = alpha[~ok] = weighted[~ok] = 0.0
    return gamma, _xi_sums(alpha, weighted, lo, a_diags), ok


def forward_backward(seq: ObservationSequence, model: LrHmmModel) -> ForwardBackwardCache:
    """Run the forward-backward recursions for one sequence.

    The sequence may be shorter than the model horizon (truncated history);
    it must not be longer.  Returns the log forward/backward variables, the
    state posteriors, the (N, N) log sum of pairwise transition posteriors
    over t = 1..T-1, and the forward log-likelihood (summed over all states
    at the final step).  Posteriors come from the E-step that training runs.
    """
    _check_scorable(seq, model)
    diags = model._diags
    x = seq.values[None]
    params = (model.means, model._chols, model._log_norms)
    n_steps, n_states = seq.n_steps, model.n_states
    width = min(_WINDOW, n_states)
    log_b_w, alpha, weighted, gamma = np.empty((4, 1, n_steps, width))
    lo, _, trusted = _window_forward(x, params, model.log_pi, diags, log_b_w, alpha)
    gamma, xi, ok = _posteriors(log_b_w, alpha, lo, trusted, model.log_pi, diags,
                                weighted, gamma)
    log_b = _log_b(x, *params)                                  # (1, T, N)
    log_alpha = np.empty_like(log_b)
    _forward([(0, log_b)], model.log_pi, diags, model._spans, log_alpha)
    log_beta = _backward(log_b, diags)
    log_lik = _logsumexp(log_alpha[:, -1, :])
    if ok[0]:
        dense = np.zeros((n_steps, n_states))
        dense[np.arange(n_steps)[:, None], lo[:, None] + np.arange(width)] = gamma[0]
    else:
        xi = _xi_prob_sums(log_alpha, log_beta, log_b, diags, log_lik)
        dense = _state_posteriors(log_alpha.copy(), log_beta)[0]
    with np.errstate(divide="ignore"):
        log_xi = _log_a_from_band([np.log(sums) for sums in xi], n_states)
    return ForwardBackwardCache(log_alpha[0], log_beta[0], dense, log_xi,
                                float(log_lik[0]))


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
    widths = np.minimum(band_width, n_states - 1 - np.arange(n_states)) + 1
    return _log_a_from_band([-np.log(widths[:n_states - d]) for d in range(band_width + 1)],
                            n_states)


def initialize_model(sequences, config: TrainingConfig) -> LrHmmModel:
    """Build the canonical starting model for a set of sequences.

    One state per time step.  The start distribution is a point mass on the
    first state; transition rows are uniform over the band.  State ``j``'s
    emission mean is the cross-sequence mean of step ``j``, perturbed by
    seeded noise of scale 0.01x the per-channel standard deviation (pooled
    over sequences and steps); its covariance is the diagonal per-channel
    variance of step ``j``, floored.  Raises ModelError if the recordings
    are so large that their variance overflows.
    """
    seqs, x = _prepare_batch(sequences)
    _, n_steps, n_dims = x.shape
    n_states = n_steps

    with np.errstate(over="ignore"):
        step_means = x.mean(axis=0)                         # (T, M)
        step_vars = x.var(axis=0)                           # (T, M)
        pooled_std = x.std(axis=(0, 1))                     # (M,)
    if not (np.all(np.isfinite(step_vars)) and np.all(np.isfinite(pooled_std))):
        raise ModelError("the variance of the recordings overflows: their values are "
                         "too large to train on")
    rng = np.random.default_rng(config.rng_seed)
    means = step_means + 0.01 * pooled_std * rng.standard_normal((n_states, n_dims))

    covs = np.zeros((n_states, n_dims, n_dims))
    idx = np.arange(n_dims)
    covs[:, idx, idx] = step_vars
    covs = _floor_covariances(covs, config.covariance_floor_eps)

    log_pi = np.full(n_states, -np.inf)
    log_pi[0] = 0.0
    log_a = _banded_uniform_log_a(n_states, config.band_width)
    return LrHmmModel(log_pi, log_a, means, covs, config.band_width)


# ---------------------------------------------------------------------------
# Baum-Welch
# ---------------------------------------------------------------------------

class _Statistics:
    """Sufficient statistics of one EM iteration, summed over sequences.

    Second moments are taken about ``ref_means``, the means of the model
    entering the iteration, so that they do not cancel against the squared
    new means.
    """

    def __init__(self, ref_means: np.ndarray, n_diags: int, n_sequences: int):
        n_states, n_dims = ref_means.shape
        self.ref_means = ref_means
        self.n_sequences = n_sequences
        self.gamma0 = np.zeros(n_states)                    # sum of gamma at t = 0
        self.mass = np.zeros(n_states)                      # sum of gamma
        self.first = np.zeros((n_states, n_dims))           # sum of gamma x
        self.second = np.zeros((n_states, n_dims, n_dims))  # about ref_means
        self.xi = [np.zeros(max(n_states - d, 0)) for d in range(n_diags)]

    def add(self, x, gamma, lo, scratch, xi) -> None:
        """Add the sums of posteriors ``gamma`` (K, T, W) of sequences ``x``
        (K, T, M), whose row t holds states lo[t] .. lo[t] + W - 1, and their
        pairwise sums ``xi``.  ``scratch`` holds two arrays shaped like
        ``gamma`` to work in."""
        for total, term in zip(self.xi, xi):
            total += term
        n_states, width = self.mass.size, gamma.shape[2]
        self.gamma0[lo[0]:lo[0] + width] += gamma[:, 0, :].sum(axis=0)
        self.mass += _state_sums("ktw->tw", (gamma,), lo, n_states)
        self.first += _state_sums("ktw,ktm->twm", (gamma, x), lo, n_states)
        if lo[0] == lo[-1]:
            ref = self.ref_means[lo[0]:lo[0] + width]          # (W, M), every step
        else:
            ref = self.ref_means[lo[:, None] + np.arange(width)]   # (T, W, M)
        # one (K, T, W) contraction per channel pair: a single einsum over
        # (K, T, W, M) differences runs an inner loop of length M
        for m in range(x.shape[2]):
            diff_m = np.subtract(x[:, :, m, None], ref[..., m], out=scratch[0])
            for p in range(m + 1):
                diff_p = diff_m if p == m else np.subtract(
                    x[:, :, p, None], ref[..., p], out=scratch[1])
                term = _state_sums("ktw,ktw,ktw->tw", (gamma, diff_m, diff_p), lo, n_states)
                self.second[:, m, p] += term
                if p != m:
                    self.second[:, p, m] += term


def _log_space_e_step(stats, x, params, log_pi, diags, work) -> np.ndarray:
    """Add the statistics of one sequence ``x`` (1, T, M) from the dense
    log-space recursions and return its log-likelihood (1,).

    ``params`` are the model's stacked means, Cholesky factors and log
    normalisers.  The log emissions go to ``work[0]``, and the forward
    variables, then the posteriors, to ``work[1]``, both (1, T, N).
    """
    log_b, log_alpha = work
    _log_b(x, *params, out=log_b)
    _forward([(0, log_b)], log_pi, diags, _live_spans(log_pi, diags), log_alpha)
    log_lik = _logsumexp(log_alpha[:, -1, :])
    log_beta = _backward(log_b, diags)
    xi = _xi_prob_sums(log_alpha, log_beta, log_b, diags, log_lik)
    gamma = _state_posteriors(log_alpha, log_beta)
    stats.add(x, gamma, np.zeros(x.shape[1], dtype=int), (log_b, log_beta), xi)
    return log_lik


def _finish_chunk(stats, work, x, lo, trusted, log_lik, params, log_pi, diags) -> int:
    """Finish the E-step of one chunk of sequences ``x`` (K, T, M) from its
    windowed forward and add its statistics.

    ``work`` is the (4, chunk, T, W) workspace, whose first K rows hold the
    chunk's log emissions and log forward variables.  A sequence that
    fails its certificate or the posterior-sum check is redone by the dense
    log-space recursions, one at a time and in the workspace when it is
    large enough, and its entry of ``log_lik`` (K,) is replaced by the exact
    value.  Returns the number of such sequences.
    """
    log_b, alpha, weighted, gamma = work[:, :len(x)]
    gamma, xi, ok = _posteriors(log_b, alpha, lo, trusted, log_pi, diags, weighted, gamma)
    stats.add(x, gamma, lo, (log_b, alpha), xi)
    bad = np.flatnonzero(~ok)
    if bad.size:
        n_steps, n_states = x.shape[1], params[0].shape[0]
        size = 2 * n_steps * n_states
        flat = work.reshape(-1)
        dense = (flat[:size] if flat.size >= size else np.empty(size)).reshape(
            2, 1, n_steps, n_states)
        for k in bad:
            log_lik[k:k + 1] = _log_space_e_step(stats, x[k:k + 1], params, log_pi,
                                                 diags, dense)
    return bad.size


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

    The E-step works in four (chunk, T, W) arrays allocated once here: the
    window's log emissions, its log forward variables (then the filtered
    ones), the scaled emissions times the backward variables, and the
    posteriors.
    """
    n_seq, n_steps, _ = x.shape
    width = min(_WINDOW, n_steps)
    chunk = min(n_seq, max(1, _ESTEP_ELEMENTS // (n_steps * width)))
    work = np.empty((4, chunk, n_steps, width))
    starts = range(0, n_seq, chunk)
    log_lik = np.empty(n_seq)
    trace: list[float] = []
    fallbacks = 0
    converged = False
    previous = np.nan
    for _ in range(config.max_iterations):
        chols = _cholesky_factors(means, covs)
        params = (means, chols, _log_norms(chols))
        stats = _Statistics(means, len(log_diags), n_seq)
        for begin in starts:
            part = slice(begin, begin + chunk)
            log_b, alpha = work[:2, :len(x[part])]
            lo, log_lik[part], trusted = _window_forward(x[part], params, log_pi,
                                                         log_diags, log_b, alpha)
            pending = (x[part], lo, trusted, log_lik[part])
            # an uncertified likelihood is replaced before the convergence test
            if begin != starts[-1] or not trusted.all():
                fallbacks += _finish_chunk(stats, work, *pending, params, log_pi, log_diags)
                pending = None
        total = float(log_lik.sum())
        trace.append(total)
        if len(trace) > 1 and _relative_change(total, previous) < config.loglik_rel_tolerance:
            converged = True
            break
        previous = total

        # The last chunk's posteriors wait for the convergence test, so a
        # single-chunk fit skips them in its final iteration.
        if pending is not None:
            fallbacks += _finish_chunk(stats, work, *pending, params, log_pi, log_diags)
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
    start = (model0.log_pi, model0._diags,
             model0.means, model0.covariances)
    del model0                          # its dense A is not needed during EM
    log_pi, log_diags, means, covs, trace = _expectation_maximization(x, *start, config)
    return LrHmmModel(log_pi, _log_a_from_band(log_diags, n_steps), means, covs,
                      band_width), trace
