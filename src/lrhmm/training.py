"""Model initialization and Baum-Welch training.

The model has as many states as the training sequences have time steps, so
the initializer can seed each state's emission from the cross-sequence
statistics of the matching step.  All recursions run over the transition
band only.  The steps of a band-1 chain's forced prefix hold every
sequence at one state with posterior exactly 1, so the E-step adds their
statistics in closed form and runs on the rest of the chain only.  There
it runs the exact log-space forward recursion over a sliding window of the
states that hold the forward mass, then the backward recursion as the same
forward on the reversed chain, over the same window, and takes the
posteriors from both in log space.  A sequence is redone with the window
as wide as that chain (W = N) when the mass its window dropped could show
in its results.  Expectation quantities are accumulated over
sequences in a canonical order (sorted by ``trial_id``) so that training
results do not depend on how the caller happened to order the input list.

Training memory is bounded per chunk of sequences, not per data set: each
EM iteration runs the E-step on a few sequences at a time and keeps only
their sufficient statistics.  Within a chunk only the window's log
emissions and forward variables span the chain; the backward variables,
pair terms and posteriors are formed a block of steps at a time, from the
chain's end, as the backward recursion reaches them.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .core import (
    DegenerateStateError,
    ForwardBackwardCache,
    LrHmmModel,
    ModelError,
    ObservationSequence,
    UsageError,
    _cholesky_factors,
    _live_spans,
    _log_b,
    _log_norms,
    _logsumexp,
)

# A state whose total posterior mass falls below this is unusable: its
# emission update would divide by (numerical) zero.
DEGENERATE_MASS = 1e-12

# NumPy's exp is several times slower on arguments whose result underflows,
# so the E-step flushes posterior terms below exp(-700) to exactly zero.
# It forms them 2^64 times too large and scales their sums back, so what it
# flushes lies below 2^-64 e^-700 = 2e-323, near the least subnormal double.
_EXP_FLOOR = -700.0
_TERM_SCALE = 2.0 ** 64

# Absolute floor for the covariance regularization increment.
_COV_EPS_ABS = 1e-9

# Elements of one (chunk, T, W) E-step array (16 MiB in float64); sets how
# many sequences an EM iteration processes at a time.  29 sequences stay in
# one chunk up to T = 1129.
_ESTEP_ELEMENTS = 2 ** 21

# Elements of one (chunk, B, W) block of posteriors (1 MiB in float64); sets
# the B steps whose backward variables, pair terms and posteriors the E-step
# holds at a time: B = 70 for 29 sequences at W = 64.
_POSTERIOR_ELEMENTS = 2 ** 17

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

# Steps per rectangle of emission scoring (see _emission_blocks).  A
# rectangle of the windowed E-step holds about W + 32 * band states.
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
    sequence E-steps whose window failed its certificate and that were
    redone with the window as wide as the model (W = N), summed over
    iterations."""

    log_likelihoods: tuple
    iterations_run: int
    converged: bool
    estep_fallbacks: int


# ---------------------------------------------------------------------------
# banded log-space recursions (leading batch dimensions allowed)
# ---------------------------------------------------------------------------

def _forward(log_b, log_pi, diags, ranges, out, after=None, combine=np.logaddexp):
    """Forward log variables (leading batch dimensions allowed), each step t
    computed over the states [first_t, end_t) that ``ranges`` (firsts, ends)
    give, read one step at a time; outside them a row keeps what it held.
    ``log_pi`` (N,) may carry the batch dimensions too.

    ``log_b`` holds the log emissions as blocks (base, scores) in step
    order: scores (..., steps, W) are those of states base .. base + W - 1,
    and cover at each of their steps t the states first_t .. end_t - 1.
    Step t goes to row t % R of ``out`` (..., R, N): with R = T it is the
    table of every step, with R = 2 only the last two steps are held, and
    ranges from :func:`core._live_spans` overwrite a rolling row's values
    of step t - 2 with the -inf the recursion gives there.  ``after(t, row,
    base, scores)`` runs after each step; it may read or change the row and
    append the range of step t + 1.  ``combine`` folds each state's terms,
    stay first, then outward: np.logaddexp sums, np.maximum gives Viterbi.
    """
    rows = list(out.swapaxes(-2, 0))
    n_rows = len(rows)
    firsts, ends = ranges
    stay, moves = diags[0], list(enumerate(diags[:diags[0].size]))[1:]    # the non-empty
    out.fill(-np.inf)
    t = 0
    for base, block in log_b:
        for scores in block.swapaxes(-2, 0):
            first, end = firsts[t], ends[t]
            row = rows[t % n_rows]
            acc = row[..., first:end]
            # out by position, a little faster once per step; np.maximum's must be out=
            if t == 0:
                np.add(log_pi[..., first:end], scores[..., first - base:end - base], acc)
            else:
                np.add(prev[..., first:end], stay[first:end], acc)
                for d, diag in moves:
                    if first >= d:
                        combine(acc, prev[..., first - d:end - d] + diag[first - d:end - d],
                                out=acc)
                    elif d < end:
                        tail = acc[..., d - first:]
                        combine(tail, prev[..., :end - d] + diag[:end - d], out=tail)
                np.add(acc, scores[..., first - base:end - base], acc)
            if after:
                after(t, row, base, scores)
            prev = row
            t += 1


def _emission_blocks(x, params, ranges, band):
    """Log densities of sequences ``x`` (..., T, M) under the states that
    ``params`` (means, Cholesky factors, log normalisers) stack, as the
    blocks (base, scores) that :func:`_forward` reads over ``ranges``
    (firsts, ends), ``_BLOCK`` steps at a time: scores (..., steps, W) of
    states base .. base + W - 1, from first_{t0} to end_{t0} + band (t1 - 1
    - t0) - 1 for steps t0 .. t1 - 1, as a range's end moves on by at most
    ``band`` states per step.  The ranges of a block are read when it is
    made, so the hook of the forward that reads the blocks may append them.
    """
    firsts, ends = ranges
    n_steps, n_states = x.shape[-2], params[0].shape[0]
    for t0 in range(0, n_steps, _BLOCK):
        t1 = min(t0 + _BLOCK, n_steps)
        states = slice(firsts[t0], min(ends[t0] + band * (t1 - 1 - t0), n_states))
        yield states.start, _log_b(x[..., t0:t1, None, :], *(p[states] for p in params))


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


def _window_forward(x, params, chain, log_b, alpha):
    """Exact log forward variables of sequences ``x`` (K, T, M) under
    ``chain`` (log_pi, the log band diagonals, and their ranges from
    :func:`core._live_spans`) over a sliding window of states.  Returns the
    window offsets ``lo`` (T,), the log-likelihoods (K,) and which
    sequences' windows are certified.

    Row t of ``log_b`` and ``alpha`` (K, T, W) receives states lo[t] ..
    lo[t] + W - 1, shared by the chunk; lo advances by at most the band
    width per step.  The window keeps every state within tau nats of some
    sequence's best state.  The recursion is :func:`_forward` over two
    rolling rows of all N states; after each step its hook slides the
    window, copies the window's columns out, sets the dropped ones to -inf
    and appends the next step's range.  Step 0 runs W states past the end
    of its range, so that the window can begin at any state there.
    Emissions are scored by :func:`_emission_blocks`.  With W = N this is
    the dense forward: nothing is dropped, and every sequence of nonzero
    likelihood is certified.

    Certificate: let m be a sequence's worst dropped margin (a dropped log
    forward variable minus its step's best; -inf if none), L_t the log sum
    of row t and P the largest Gaussian log normaliser.  No density exceeds
    its peak e^P, so mass dropped at step t regains at most e^(P (T-1-t))
    by the end, and a kept row's mass grows by at most e^P per step.  The
    N T dropped terms together then change the likelihood by a factor below
    1 + N T e^(m + G), G = (T - 1) P - (L_{T-1} - L_0); a sequence is
    certified when m + G + log(N T) <= -40.
    """
    log_pi, diags, spans = chain
    n_seq, n_steps, width = alpha.shape
    n_states = params[0].shape[0]
    if width == n_states:
        _log_b(x[:, :, None], *params, out=log_b)
        _forward([(0, log_b)], log_pi, diags, spans, alpha)
        log_lik = _logsumexp(alpha[:, -1, :])
        return np.zeros(n_steps, dtype=int), log_lik, log_lik > -np.inf
    band = len(diags) - 1
    tau = _WINDOW_NATS_PER_STEP * n_steps
    lo = [0] * n_steps
    dropped = np.full(n_seq, -np.inf)
    firsts, ends = [0], [min(spans[1][0] + width, n_states)]

    def slide(t, row, base, scores):
        start, end = lo[t - 1] if t else 0, ends[t]
        limit = min(band if t else n_states, n_states - width - start)
        lo[t] = low = start + _slide(row[:, start:end], limit, tau, width, dropped)
        alpha[:, t] = row[:, low:low + width]
        log_b[:, t] = scores[:, low - base:low - base + width]
        row[:, start:low] = row[:, low + width:end] = -np.inf
        # the next step's row still holds step t - 1, from lo[t - 1] on
        firsts.append(lo[max(t - 1, 0)])
        ends.append(min(low + width + band, n_states))

    _forward(_emission_blocks(x, params, (firsts, ends), band), log_pi, diags, (firsts, ends),
             np.empty((n_seq, 2, n_states)), after=slide)
    log_lik = _logsumexp(alpha[:, -1, :])
    with np.errstate(invalid="ignore"):
        regain = (n_steps - 1) * params[2].max() - (log_lik - _logsumexp(alpha[:, 0, :]))
        trusted = dropped + regain + math.log(n_states * n_steps) <= -_CERTIFICATE_NATS
    return np.array(lo), log_lik, trusted


def _exp_flushed(x: np.ndarray) -> None:
    """exp(x) in place, with results below exp(_EXP_FLOOR) flushed to exactly 0."""
    kept = x > _EXP_FLOOR
    np.maximum(x, _EXP_FLOOR, out=x)
    np.exp(x, out=x)
    x *= kept


def _state_sums(subscripts, operands, lo, size) -> np.ndarray:
    """Sums over sequences and steps of window terms, per state: (size, ...).

    ``subscripts`` take the (K, T', W') ``operands`` to (T', W', ...) terms,
    and term (t, w) belongs to state lo[t] + w.  A window that never moves
    sums its steps in einsum.
    """
    if lo[0] == lo[-1]:
        inputs, output = subscripts.split("->")
        sums = np.einsum(f"{inputs}->{output[1:]}", *operands)
        out = np.zeros((size,) + sums.shape[1:])
        out[lo[0]:lo[0] + len(sums)] = sums
        return out
    terms = np.einsum(subscripts, *operands)
    states = (lo[:, None] + np.arange(terms.shape[1])).ravel()
    flat = terms.reshape(states.size, -1)
    out = np.stack([np.bincount(states, col, minlength=size) for col in flat.T], axis=1)
    return out.reshape((size,) + terms.shape[2:])


def _window_backward(log_b, lo, start, chain, u, block, finish):
    """Backward log variables of sequences whose windowed forward left the
    log emissions ``log_b`` (K, T, W) and window offsets ``lo`` (T,), plus
    their emissions and ``start`` (K,): u_t = log b_t + log beta_t + start,
    handed on a block of steps at a time.

    u_{T-1} = log b_{T-1} + start and u_t(i) = log b_t(i) + logsumexp_d(
    log A_d[i] + u_{t+1}(i + d)) is :func:`_forward` on the reversed chain:
    time and states reversed, each band diagonal reversed, and log pi' =
    start at every state (Rabiner, Proc. IEEE 77(2), 1989, for the
    recursions; Mann, "Numerically stable hidden Markov model
    implementation", 2006, for the log-space form).  Step t runs over the
    states of window t, lo[t] .. lo[t] + W - 1, within the range that the
    ranges of ``chain`` give the forward, since the forward holds no mass
    outside it.  Below the live span lo_t+1 the backward is not computed;
    the one term that would read it there, state lo_t's self-loop when
    lo_t+1 = lo_t + 1, is -inf, which is why the span advanced.

    Blocks of ``block`` steps are laid from the chain's end: [T - B, T),
    [T - 2B, T - B), ..., and a first one from step 0.  Row j of ``u`` (K,
    B + 1, F), or (K, T, F) for a chain of one block, receives u_{t0+j} of
    block [t0, t1), for j = 1 .. min(t1, T - 1) - t0, at the states
    lo[t0+j-1] .. lo[t0+j-1] + F - 1 that window t0 + j - 1 reaches, F =
    min(W + band, N), and -inf where the step did not run.  Once they hold
    their values, ``finish(t0, t1)`` runs, before the next block's rows
    overwrite them.  A chain of one block at W = N is computed straight
    into ``u``.  Otherwise the recursion rolls through two rows of all N
    states, and after each step a hook clears what step t + 2 left above
    step t's range and copies the row out.
    """
    diags, (firsts, ends) = chain[1:3]
    n_seq, n_steps, width = log_b.shape
    n_states, frame = diags[0].size, u.shape[2]
    low = np.maximum(lo, firsts[:n_steps])
    high = np.maximum(np.minimum(lo + width, ends[:n_steps]), low)
    ranges = ((n_states - high)[::-1].tolist(), (n_states - low)[::-1].tolist())
    log_pi = np.broadcast_to(start[:, None], (n_seq, n_states))
    reversed_diags = [diag[::-1] for diag in diags]
    bounds = iter([(max(t1 - block, 0), t1) for t1 in range(n_steps, 0, -block)])
    t0, t1 = next(bounds)
    if width == n_states and not t0:
        _forward([(0, log_b[:, ::-1, ::-1])], log_pi, reversed_diags, ranges,
                 u[:, ::-1, ::-1])
        return finish(t0, t1)
    lo, high = lo.tolist(), high.tolist() + [0, 0]

    def copy(s, row, base, scores):
        nonlocal t0, t1
        t = n_steps - 1 - s
        states = row[:, ::-1]
        states[:, high[t]:high[t + 2]] = -np.inf
        if t == t0:
            finish(t0, t1)
            if not t:
                return
            t0, t1 = next(bounds)
        first = lo[t - 1]
        kept = min(frame, n_states - first)
        u[:, t - t0, :kept] = states[:, first:first + kept]
        u[:, t - t0, kept:] = -np.inf

    blocks = ((n_states - lo[t] - width, log_b[:, t:t + 1, ::-1])
              for t in range(n_steps - 1, -1, -1))
    _forward(blocks, log_pi, reversed_diags, ranges, np.empty((n_seq, 2, n_states)),
             after=copy)


def _posteriors(log_b, alpha, lo, log_lik, trusted, x, chain, buffers, add):
    """State posteriors in the window and pairwise posterior sums per
    non-empty band diagonal of K sequences ``x`` (K, T, M) of ``chain``,
    handed to ``add(t0, x, gamma, lo, scratch, xi)`` a block of steps t0 ..
    t1 - 1 at a time (see :meth:`_Statistics.add`), the chain's last block
    first.

    ``log_b`` and ``alpha`` (K, T, W) hold the log emissions and log forward
    variables that :func:`_window_forward` leaves, with window offsets
    ``lo``, log-likelihoods ``log_lik`` (K,) and which sequences
    ``trusted`` certifies; the others get zero posteriors and add nothing
    to the sums.  ``buffers`` are the u, pair terms and gamma of
    :func:`_e_step_arrays`; gamma's size sets the block length B.

    The backward pass is :func:`_window_backward` with start log s -
    log_lik, s = ``_TERM_SCALE``, so that alpha_t(i) + log A_d[i] +
    u_{t+1}(i + d) is the log of s times the posterior of the pair (i, i +
    d) at steps t, t + 1.  Once it has left a block's rows of u, gamma_t
    sums these terms over d for the block's steps t < T - 1, and gamma_{T-1}
    = exp(alpha_{T-1} - log_lik).  No term reads log b_t, so a density that
    underflowed to 0 gives no -inf - -inf.  ``scratch`` holds two arrays
    shaped like the block's gamma, the pair terms' and u's, free by then.
    """
    n_seq, n_steps, width = alpha.shape
    diags = chain[1]
    u, terms, gamma = buffers
    n_states, frame = diags[0].size, u.shape[2]
    block = gamma.size // (n_seq * width)
    shift = np.where(trusted, log_lik, 0.0) - math.log(_TERM_SCALE)
    alpha[~trusted] = -np.inf

    def finish(t0, t1):
        pairs = min(t1, n_steps - 1) - t0          # of steps t0 .. t0 + pairs - 1
        post = gamma[:n_seq * (t1 - t0) * width].reshape(n_seq, t1 - t0, width)
        offsets = lo[t0:t1]
        states = (slice(offsets[0], offsets[0] + width) if offsets[0] == offsets[-1]
                  else offsets[:pairs, None] + np.arange(width))    # unless the window moves
        xi = []
        for d, diag in enumerate(diags[:n_states]):
            n = min(width, frame - d)           # columns whose pairs stay in the frame
            term = terms[:n_seq * pairs * n].reshape(n_seq, pairs, n)
            np.add(alpha[:, t0:t0 + pairs, :n], u[:, 1:pairs + 1, d:d + n], out=term)
            term += np.append(diag, np.full(d, -np.inf))[states][..., :n]
            _exp_flushed(term)
            if d:
                post[:, :pairs, :n] += term
            else:
                post[:, :pairs] = term
            sums = (_state_sums("ktw->tw", (term,), offsets[:pairs], n_states)[:diag.size]
                    if pairs else np.zeros(diag.size))
            xi.append(sums / _TERM_SCALE)
        if t1 == n_steps:
            np.subtract(alpha[:, -1], shift[:, None], out=post[:, -1])
            _exp_flushed(post[:, -1])
        post /= _TERM_SCALE
        scratch = [a[:post.size].reshape(post.shape) for a in (terms, u.reshape(-1))]
        add(t0, x[:, t0:t1], post, offsets, scratch, xi)

    _window_backward(log_b, lo, -shift, chain, u, block, finish)


def _split(x, params, log_pi, diags, spans, forced):
    """The forced prefix of sequences ``x`` (..., T, M) and the chain past
    it, steps c .. T - 1 and states col .. N - 1, that every recursion runs.

    With F forced steps from start state s0 = first_0 (see
    :func:`core._live_spans`), step t < F holds all forward mass at state
    s0 + t.  For F > 1 the forced run (..., min(F, T)) is alpha_t(s0 + t)
    of those steps: one cumulative sum of log pi(s0), then the emission of
    step t under state s0 + t only and the move on, in turn.  These are the
    additions of the forward over the whole chain, in its order, under
    log-sum-exp and max alike.  c = max(min(F, T) - 1, 0): steps t < c hold
    every sequence at state s0 + t with posterior exactly 1, and step c at
    col = s0 + c.  From there the chain runs over the sequences x[..., c:],
    the emissions and band diagonals of states col on, and the start log
    pi'(0) = alpha_{c-1}(col - 1) + log A_1[col - 1] of each sequence, so
    alpha, u, the pair terms and the log-likelihoods keep their bits; its
    step 0 gives run[..., c] again.

    Returns c, col, the run and the chain (x', params', (log pi' (..., N -
    col), band diagonals, ranges)).  With F <= 1 the run is empty, as the
    chain scores step 0 itself, c = col = 0 and the chain is the whole
    chain, log pi broadcast over the leading dimensions.
    """
    batch, n_steps = x.shape[:-2], x.shape[-2]
    firsts, ends = spans
    s0, steps = firsts[0], min(forced, n_steps) if forced > 1 else 0
    terms = np.empty(batch + (2 * steps,))
    if steps:
        terms[..., 0] = log_pi[s0]
        terms[..., 1::2] = _log_b(x[..., :steps, :], *(p[s0:s0 + steps] for p in params))
        terms[..., 2::2] = diags[1][s0:s0 + steps - 1]
    run = np.cumsum(terms, axis=-1)[..., 1::2]
    cut = max(steps - 1, 0)
    if not cut:
        return 0, 0, run, (x, params, (np.broadcast_to(log_pi, batch + log_pi.shape), diags,
                                       spans))
    col = s0 + cut
    start = np.full(batch + log_pi[col:].shape, -np.inf)
    start[..., 0] = run[..., -2] + diags[1][col - 1]
    # the ranges of steps c .. T - 1, shifted by col: those of log pi' for as
    # many steps as the history has, which may outnumber the chain's states
    ranges = ([max(first - col, 0) for first in firsts[cut:n_steps]],
              [end - col for end in ends[cut:n_steps]])
    return cut, col, run, (x[..., cut:, :], tuple(p[col:] for p in params),
                           (start, [diag[col:] for diag in diags], ranges))


def forward_backward(seq: ObservationSequence, model: LrHmmModel) -> ForwardBackwardCache:
    """Run the forward-backward recursions for one sequence.

    The sequence may be shorter than the model horizon (truncated history);
    it must not be longer.  Returns the log forward/backward variables, the
    state posteriors, the log sums of pairwise transition posteriors over
    t = 1..T-1 per band diagonal, and the forward log-likelihood (summed
    over all states at the final step).  Posteriors come from the E-step
    that training runs, as a chunk of one sequence, redone at W = N when
    its window is not certified.  Raises ModelError if the sequence has
    zero likelihood under the model: it has no posteriors.
    """
    _check_scorable(seq, model)
    diags = model.log_A_band
    x = seq.values[None]
    params = (model.means, model._chols, model._log_norms)
    n_steps, n_states = seq.n_steps, model.n_states

    # log alpha and log beta at every state: beta_{T-1} = 0, and beta_t sums
    # the terms log A_d + u_{t+1}(. + d) of the backward with start 0
    every = ((0,) * n_steps, (n_states,) * n_steps)
    log_b, log_alpha, u = np.empty((3, 1, n_steps, n_states))
    _, (dense_log_lik,), _ = _window_forward(x, params, (model.log_pi, diags, every), log_b,
                                             log_alpha)
    if dense_log_lik == -np.inf:
        raise ModelError("the sequence has zero likelihood under the model")
    log_beta = np.full((n_steps, n_states), -np.inf)
    log_beta[-1] = 0.0

    def betas(t0, t1):
        for diag in diags[:n_states]:
            d = n_states - diag.size
            np.logaddexp(log_beta[:-1, :diag.size], diag + u[0, 1:, d:],
                         out=log_beta[:-1, :diag.size])

    _window_backward(log_b, np.zeros(n_steps, int), np.zeros(1), (None, diags, every), u,
                     n_steps, betas)

    cut, col, _, rest = _split(x, params, model.log_pi, diags, model._spans, model._forced)
    work = np.empty(_workspace_size(1, n_steps - cut, n_states - col, len(diags) - 1))
    arrays = _e_step_arrays(work, *rest, _WINDOW)
    lo, log_lik, trusted = _window_forward(*rest, *arrays[:2])
    gamma = np.zeros((n_steps, n_states))
    gamma[np.arange(cut), col - cut + np.arange(cut)] = 1.0
    sums = [np.zeros(diag.size) for diag in diags[:n_states]]
    if cut:
        sums[1][col - cut:col] += 1.0              # the forced moves

    def scatter(t0, x, posteriors, lo, scratch, xi):
        steps = cut + t0 + np.arange(posteriors.shape[1])
        states = col + lo[:, None] + np.arange(posteriors.shape[2])
        gamma[steps[:, None], states] = posteriors[0]
        for total, term in zip(sums, xi):
            total[col:] += term

    _finish_chunk(scatter, work, rest, arrays, lo, trusted, log_lik, (seq.trial_id,))
    with np.errstate(divide="ignore"):
        log_xi = tuple(np.log(total) for total in sums) + diags[len(sums):]   # and the empty
    return ForwardBackwardCache(log_alpha[0], log_beta, gamma, log_xi, float(log_lik[0]))


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


def _banded_uniform_log_a(n_states: int, band_width: int) -> list[np.ndarray]:
    """Log band diagonals of transition rows uniform over the band."""
    widths = np.minimum(band_width, n_states - 1 - np.arange(n_states)) + 1
    return [-np.log(widths[:max(n_states - d, 0)]) for d in range(band_width + 1)]


def initialize_model(sequences, config: TrainingConfig) -> LrHmmModel:
    """Build the canonical starting model for a set of sequences.

    One state per time step.  The start distribution is a point mass on the
    first state; transition rows are uniform over the band.  A band_width
    past the last state allows the moves of the full band, N - 1, which is
    the band the model keeps.  State ``j``'s
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
    log_a_band = _banded_uniform_log_a(n_states, max(min(config.band_width, n_states - 1), 1))
    return LrHmmModel(log_pi, log_a_band, means, covs)


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
        self.xi = [np.zeros(n_states - d) for d in range(min(n_diags, n_states))]

    def add(self, t0, x, gamma, lo, scratch, xi) -> None:
        """Add the sums of posteriors ``gamma`` (K, B, W) of sequences ``x``
        (K, B, M) at steps t0 .. t0 + B - 1, whose row t holds states lo[t]
        .. lo[t] + W - 1, and their pairwise sums ``xi``.  ``scratch`` holds
        two arrays shaped like ``gamma`` to work in."""
        for total, term in zip(self.xi, xi):
            total += term
        n_states, width = self.mass.size, gamma.shape[2]
        if not t0:
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

    def add_forced(self, x, first) -> None:
        """Add the statistics of sequences ``x`` (K, c, M) held at state
        first + t at step t with posterior exactly 1, each moving on one
        state per step, the last move into state first + c."""
        n_seq, cut, _ = x.shape
        states = slice(first, first + cut)
        self.gamma0[first] += n_seq
        self.mass[states] += n_seq
        self.xi[1][states] += n_seq
        self.first[states] += x.sum(axis=0)
        diff = x - self.ref_means[states]
        self.second[states] += np.einsum("ktm,ktp->tmp", diff, diff)

    def tail(self, cut, col) -> "_Statistics":
        """The statistics of states ``col`` on, as views of these, for the
        chain from step ``cut`` on: its step 0 is the chain's only if cut
        is 0, so otherwise its gamma0 goes to an array of its own."""
        if not cut:
            return self
        tail = copy.copy(self)
        tail.ref_means, tail.mass, tail.first, tail.second = (
            part[col:] for part in (self.ref_means, self.mass, self.first, self.second))
        tail.gamma0 = np.zeros(tail.mass.size)
        tail.xi = [sums[col:] for sums in self.xi]
        return tail


def _e_step_sizes(n_seq, n_steps, width, frame):
    """Elements of the E-step's arrays for K = ``n_seq`` sequences of T =
    ``n_steps`` steps at rows of W = ``width`` states: log b and alpha (K, T,
    W) for the whole chain, then u (K, min(B + 1, T), F), F = ``frame``, and
    the pair terms and gamma (K, B, W) for a block of B <= T steps.  A chain
    of one block (B = T) forms its pair terms in log b's array."""
    block = min(max(1, _POSTERIOR_ELEMENTS // (n_seq * width)), n_steps)
    chain, rows = n_seq * n_steps * width, n_seq * block * width
    return chain, chain, n_seq * min(block + 1, n_steps) * frame, rows * (block < n_steps), rows


def _workspace_size(n_seq, n_steps, n_states, band):
    """Elements of a workspace for the E-steps of chunks of ``n_seq``
    sequences over a chain of ``n_steps`` steps and ``n_states`` states, at
    rows of the window and, for one sequence at a time, of W = N."""
    width = min(_WINDOW, n_states)
    return max(sum(_e_step_sizes(n_seq, n_steps, width, min(width + band, n_states))),
               sum(_e_step_sizes(1, n_steps, n_states, n_states)))


def _e_step_arrays(work, x, params, chain, width):
    """The E-step's arrays for sequences ``x`` (K, T, M) of the chain
    ``chain`` of N states, at rows of W = min(``width``, N) states, carved
    in turn from the flat ``work`` (see :func:`_e_step_sizes`): log b and
    alpha (K, T, W), u (K, rows, F), F = min(W + band, N), and flat pair
    terms and gamma.  The pair terms of a chain of one block are log b's
    array."""
    n_seq, n_steps, _ = x.shape
    n_states, diags = params[0].shape[0], chain[1]
    width = min(width, n_states)
    frame = min(width + len(diags) - 1, n_states)
    sizes = _e_step_sizes(n_seq, n_steps, width, frame)
    log_b, alpha, u, terms, gamma = (work[end - size:end]
                                     for size, end in zip(sizes, accumulate(sizes)))
    log_b, alpha = (a.reshape(n_seq, n_steps, width) for a in (log_b, alpha))
    return (log_b, alpha, u.reshape(n_seq, -1, frame), terms if terms.size else log_b.reshape(-1),
            gamma)


def _finish_chunk(add, work, rest, arrays, lo, trusted, log_lik, trial_ids) -> int:
    """Finish the E-step of one chunk of sequences from the windowed
    forward in ``arrays`` (from :func:`_e_step_arrays`) of their chain
    ``rest`` (x, params, chain) past the forced prefix, as :func:`_split`
    gives it: hand the posteriors to ``add(t0, x, gamma, lo, scratch, xi)``
    a block of steps at a time (see :func:`_posteriors`).  A chunk in which
    no window is certified has none to hand on.

    A sequence that fails its certificate is redone with W = N, one at a
    time and in the flat workspace ``work``, and its entry of ``log_lik``
    (K,) is replaced by the exact value.  Returns the number of such
    sequences.  Raises ModelError, naming the trial, if a sequence has zero
    likelihood.
    """
    x, params, chain = rest
    if trusted.any():
        _posteriors(*arrays[:2], lo, log_lik, trusted, x, chain, arrays[2:], add)
    bad = np.flatnonzero(~trusted)
    for k in bad:
        single = (x[k:k + 1], params, (chain[0][k:k + 1],) + chain[1:])
        dense = _e_step_arrays(work, *single, params[0].shape[0])
        lo_k, log_lik[k:k + 1], ok = _window_forward(*single, *dense[:2])
        if not ok[0]:
            raise ModelError(f"trial {trial_ids[k]} has zero likelihood under the model "
                             "entering the EM iteration")
        _finish_chunk(add, work, single, dense, lo_k, ok, log_lik[k:k + 1], None)
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
    log_diags += log_diags_old[len(log_diags):]             # the empty diagonals

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


def _expectation_maximization(x, trial_ids, log_pi, log_diags, means, covs, config):
    """The EM loop of :func:`baum_welch` over sequences ``x`` (K, T, M) of
    trials ``trial_ids``, from the given parameters.  Returns the final
    (log_pi, log band diagonals, means, covs) and the trace.

    The E-step works in arrays carved from one workspace (see
    :func:`_e_step_arrays`): the window's log emissions and log forward
    variables for the whole chain, and for a block of steps the backward
    variables, with the band's columns past the window, the pair terms and
    the posteriors.  It also holds one sequence's E-step at W = N, the
    fallback's.  The first chunk allocates it, by :func:`_workspace_size`,
    and a later one only if its chain past the forced prefix needs more.
    """
    n_seq, n_steps, _ = x.shape
    chunk = min(n_seq, max(1, _ESTEP_ELEMENTS // (n_steps * min(_WINDOW, n_steps))))
    work = np.empty(0)
    starts = range(0, n_seq, chunk)
    log_lik = np.empty(n_seq)
    trace: list[float] = []
    fallbacks = 0
    converged = False
    previous = np.nan
    for _ in range(config.max_iterations):
        chols = _cholesky_factors(means, covs)
        params = (means, chols, _log_norms(chols))
        spans, forced = _live_spans(log_pi, log_diags)
        stats = _Statistics(means, len(log_diags), n_seq)
        for begin in starts:
            part = slice(begin, begin + chunk)
            cut, col, _, rest = _split(x[part], params, log_pi, log_diags, spans, forced)
            size = _workspace_size(len(rest[0]), n_steps - cut, n_steps - col, len(log_diags) - 1)
            if work.size < size:        # the first chain, or a later one that needs more
                work = np.empty(size)
            arrays = _e_step_arrays(work, *rest, _WINDOW)
            lo, log_lik[part], trusted = _window_forward(*rest, *arrays[:2])
            if cut:
                stats.add_forced(x[part, :cut], col - cut)
            pending = (stats.tail(cut, col).add, work, rest, arrays, lo, trusted, log_lik[part],
                       trial_ids[part])
            # an uncertified likelihood is replaced before the convergence test
            if begin != starts[-1] or not trusted.all():
                fallbacks += _finish_chunk(*pending)
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
            fallbacks += _finish_chunk(*pending)
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
    posterior mass, and ModelError, naming the trial, if a sequence has
    zero likelihood under the model entering an iteration.

    Returns the fitted model and a :class:`TrainingTrace`.  The trace's
    log-likelihood list is non-decreasing (up to tiny rounding); permuting
    the input sequences does not change the result because accumulation
    order is fixed by ``trial_id``.
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
    log_pi, log_diags, means, covs, trace = _expectation_maximization(
        x, [s.trial_id for s in seqs], model0.log_pi, model0.log_A_band, model0.means, model0.covariances, config)
    return LrHmmModel(log_pi, log_diags, means, covs), trace
