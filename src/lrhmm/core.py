"""Core types for left-right hidden Markov models with Gaussian emissions.

A model holds one state per time step of the training sequences.  Transition
structure is banded: from state ``i`` only states ``i .. i + band_width`` are
reachable, the last state is absorbing, and the start distribution normally
puts all mass on the first state.  Every probability the package manipulates
is kept in log space; structurally impossible transitions are ``-inf``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

_LOG_2PI = math.log(2.0 * math.pi)

# Tolerances for model invariants (row stochasticity, covariance symmetry).
ROW_SUM_TOL = 1e-9
SYMMETRY_RTOL = 1e-12

# Largest distance, in sampling steps, of a duration from the sampling grid.
_GRID_TOL_STEPS = 1e-6


class LrHmmError(Exception):
    """Base class for all errors raised by this package."""


class UsageError(LrHmmError):
    """The caller violated an interface contract (bad shapes, bad arguments)."""


class ModelError(LrHmmError):
    """A model or data set is invalid or numerically unusable."""


class DegenerateStateError(ModelError):
    """A state lost all posterior mass during training."""


class ParseError(LrHmmError):
    """A data file could not be parsed."""


def _frozen_array(values, dtype=float) -> np.ndarray:
    out = np.array(values, dtype=dtype, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class ObservationSequence:
    """A single recorded trial: ``values`` has one row per time step.

    Parameters
    ----------
    values : array, shape (T, M)
        Sensor readings; a 1-D array is treated as a single channel.
    dt : float
        Sampling interval in seconds, finite and > 0.
    sensor_id : str
        Identifier of the sensor that produced the trial.
    trial_id : int
        Index of the trial within its recording session.
    label : int or None
        Motion class (1 or 2) when known.
    """

    values: np.ndarray
    dt: float
    sensor_id: str = ""
    trial_id: int = 0
    label: int | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim == 1:
            values = values[:, None]
        if values.ndim != 2:
            raise UsageError(f"sequence values must be 2-D, got shape {values.shape}")
        if values.shape[0] < 1 or values.shape[1] < 1:
            raise UsageError("sequence must have at least one step and one channel")
        if not np.all(np.isfinite(values)):
            raise UsageError("sequence contains non-finite values")
        if not 0 < self.dt < math.inf:
            raise UsageError(f"dt must be positive and finite, got {self.dt}")
        if self.label not in (None, 1, 2):
            raise UsageError(f"label must be 1, 2 or None, got {self.label!r}")
        object.__setattr__(self, "values", _frozen_array(values))
        object.__setattr__(self, "dt", float(self.dt))

    @property
    def n_steps(self) -> int:
        return self.values.shape[0]

    @property
    def n_dims(self) -> int:
        return self.values.shape[1]

    @property
    def duration_s(self) -> float:
        return self.n_steps * self.dt


def _grid_steps(duration_s: float, dt: float) -> int:
    """The number of sampling steps of ``dt`` seconds in ``duration_s``.

    Raises UsageError unless the duration lies on the sampling grid (to
    ``_GRID_TOL_STEPS``): rounding 2.5 steps to 2 would silently score a
    shorter history than the one asked for.
    """
    steps = duration_s / dt
    if not math.isfinite(steps) or abs(steps - round(steps)) > _GRID_TOL_STEPS:
        raise UsageError(f"duration {duration_s} s is {steps:.6g} steps of {dt} s, "
                         "not a whole number of sampling steps")
    return round(steps)


def _asymmetric(covs: np.ndarray) -> np.ndarray:
    """Which stacked covariances (N, M, M) are not symmetric to
    ``SYMMETRY_RTOL`` relative to their largest entry: shape (N,)."""
    scale = np.maximum(np.abs(covs).max(axis=(1, 2)), np.finfo(float).tiny)
    skew = np.abs(covs - covs.transpose(0, 2, 1)).max(axis=(1, 2))
    return skew > SYMMETRY_RTOL * scale


def _cholesky_factors(means: np.ndarray, covs: np.ndarray) -> np.ndarray:
    """Lower Cholesky factors (N, M, M) of the stacked covariances ``covs``
    of Gaussians with means ``means`` (N, M), in one batched factorisation.
    Raises UsageError if a parameter is not finite, and ModelError if a
    covariance is not symmetric or not positive definite."""
    if not (np.all(np.isfinite(means)) and np.all(np.isfinite(covs))):
        raise UsageError("emission parameters contain non-finite values")
    if np.any(_asymmetric(covs)):
        raise ModelError("covariance is not symmetric")
    try:
        return np.linalg.cholesky(covs)
    except np.linalg.LinAlgError:
        raise ModelError("covariance is not positive definite") from None


@dataclass(frozen=True, eq=False)
class GaussianEmission:
    """Gaussian observation density of one state: N(mean, covariance).

    The covariance must be symmetric (to ``SYMMETRY_RTOL`` relative) and
    positive definite; the Cholesky factor is computed once at construction.
    """

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        cov = np.asarray(self.covariance, dtype=float)
        if cov.ndim == 0:
            cov = cov[None, None]
        if mean.ndim != 1 or cov.shape != (mean.size, mean.size):
            raise UsageError(f"mean shape {mean.shape} and covariance shape {cov.shape} "
                             "do not describe one Gaussian")
        chol = _cholesky_factors(mean[None], cov[None])[0]
        for name, value in (("mean", mean), ("covariance", cov), ("_chol", chol)):
            object.__setattr__(self, name, _frozen_array(value))

    @property
    def n_dims(self) -> int:
        return self.mean.shape[0]


def _log_norms(chols: np.ndarray) -> np.ndarray:
    """Gaussian log normalisers -(M log 2pi + log det) / 2 from Cholesky
    factors (N, M, M): shape (N,)."""
    log_dets = 2.0 * np.log(np.diagonal(chols, axis1=1, axis2=2)).sum(axis=1)
    return -0.5 * (chols.shape[-1] * _LOG_2PI + log_dets)


def _logsumexp(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """log(sum(exp(x))) along ``axis``: the maximum plus log1p of the other
    terms' shifted sum, divided among tied maxima (Blanchard, Higham &
    Higham, IMA J. Numer. Anal. 41, 2021; SciPy's ``logsumexp`` computes
    the same).  A slice of only -inf gives -inf, without a warning."""
    peak = x.max(axis=axis, keepdims=True)
    is_peak = x == peak
    ties = is_peak.sum(axis=axis, keepdims=True)
    with np.errstate(invalid="ignore"):             # -inf - -inf, masked out
        rest = np.exp(np.where(is_peak, -np.inf, x - peak))
    rest = rest.sum(axis=axis, keepdims=True) / ties
    return np.squeeze(np.log1p(rest) + np.log(ties) + peak, axis=axis)


def _log_b(values, means: np.ndarray, chols: np.ndarray,
           log_norms: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Log densities of ``values`` (..., M) under every state: (..., N).

    ``means`` (N, M), ``chols`` (N, M, M) lower Cholesky factors and
    ``log_norms`` (N,) stack the states.  The whitened difference y solves
    L y = x - mean by forward substitution, one NumPy operation over all
    states per entry of L.  The result is written to ``out`` if given.
    Every step runs in place, so at most M + 1 arrays of the result's shape
    are alive, ``out`` included.
    """
    values = np.asarray(values, dtype=float)
    n_dims = means.shape[1]
    if out is None:
        out = np.empty(values.shape[:-1] + means.shape[:1])
    whitened = []
    scratch = np.empty_like(out) if n_dims > 1 else None
    # a quadratic form that overflows to inf is a density of exactly 0
    with np.errstate(over="ignore"):
        for i in range(n_dims):
            last = i == n_dims - 1
            # the last row's y is not kept, so it needs no array of its own
            y = out if n_dims == 1 else scratch if last else np.empty_like(out)
            np.subtract(values[..., i, None], means[:, i], out=y)
            for k, y_k in enumerate(whitened):
                product = y_k if last else scratch      # the last row reads y_k last
                np.multiply(chols[:, i, k], y_k, out=product)
                y -= product
            y /= chols[:, i, i]
            if i == 0:
                np.multiply(y, y, out=out)              # the quadratic form
            else:
                square = y if last else scratch
                np.multiply(y, y, out=square)
                out += square
            whitened.append(y)
    out *= -0.5                         # (-0.5 q) + c is exactly c - 0.5 q
    out += log_norms
    return out


def _live_spans(log_pi: np.ndarray, diags: list[np.ndarray]) -> tuple[tuple, tuple]:
    """The states [lo_t, hi_t) that can hold forward mass at step t, from the
    start distribution and the log band diagonals ``diags`` of A: the tuples
    (lo_0, .., lo_{N-1}) and (hi_0, .., hi_{N-1}).

    A path starts at a state of finite ``log_pi`` and moves at most
    len(diags) - 1 states per step, so it lies below hi_t = last start + 1 +
    (len(diags) - 1) t.  It must move on from every state whose self-loop
    (``diags[0]``) is -inf, so it lies at or above lo_t = min(first start +
    t, the first state from there with a finite self-loop).  Forward and
    Viterbi variables outside the span are -inf whatever the data.  A model
    without a start state has empty spans.
    """
    n_states = log_pi.size
    steps = np.arange(n_states)
    starts = np.flatnonzero(log_pi > -np.inf)
    if not starts.size:
        return (0,) * n_states, (0,) * n_states
    first, last = starts[0], starts[-1]
    loops = np.flatnonzero(diags[0][first:] > -np.inf)
    settle = first + loops[0] if loops.size else n_states
    return (tuple(np.minimum(first + steps, settle).tolist()),
            tuple(np.minimum(last + 1 + (len(diags) - 1) * steps, n_states).tolist()))


def gaussian_log_density(x, emission: GaussianEmission) -> float:
    """Log density of observation ``x`` under ``emission``.

    Evaluated through the cached Cholesky factor of the covariance.  A scalar
    ``x`` is accepted for single-channel emissions.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (emission.n_dims,):
        raise UsageError(
            f"observation shape {x.shape} does not match emission dimension {emission.n_dims}"
        )
    chols = emission._chol[None]
    return float(_log_b(x, emission.mean[None], chols, _log_norms(chols))[0])


@dataclass(frozen=True, eq=False)
class LrHmmModel:
    """A left-right HMM: banded transitions, Gaussian state emissions.

    ``log_pi`` and ``log_A`` store log probabilities with ``-inf`` for
    structural zeros.  State j emits N(means[j], covariances[j]): ``means``
    is (N, M), ``covariances`` (N, M, M).  Instances are immutable; semantic
    invariants (stochastic rows, band structure) are checked by
    :func:`validate_model`, not here.
    """

    log_pi: np.ndarray
    log_A: np.ndarray
    means: np.ndarray
    covariances: np.ndarray
    band_width: int = 1

    def __post_init__(self):
        means = np.asarray(self.means, dtype=float)
        covs = np.asarray(self.covariances, dtype=float)
        if means.ndim != 2 or means.size == 0:
            raise UsageError(f"means shape {means.shape}, expected (N, M) with N, M >= 1")
        n, m = means.shape
        if covs.shape != (n, m, m):
            raise UsageError(f"covariances shape {covs.shape}, expected ({n}, {m}, {m})")
        if self.band_width < 1:
            raise UsageError("band_width must be >= 1")
        log_pi = np.asarray(self.log_pi, dtype=float)
        log_A = np.asarray(self.log_A, dtype=float)
        if log_pi.shape != (n,):
            raise UsageError(f"log_pi shape {log_pi.shape}, expected ({n},)")
        if log_A.shape != (n, n):
            raise UsageError(f"log_A shape {log_A.shape}, expected ({n}, {n})")
        if np.any(np.isnan(log_pi)) or np.any(np.isnan(log_A)):
            raise UsageError("log probabilities contain NaN")
        if np.any(np.isposinf(log_pi)):
            raise UsageError("log_pi contains +inf")
        if np.any(np.isposinf(log_A)):
            raise UsageError("log_A contains +inf")
        chols = _cholesky_factors(means, covs)
        for name, value in (("log_pi", log_pi), ("log_A", log_A), ("means", means),
                            ("covariances", covs), ("_chols", chols),
                            ("_log_norms", _log_norms(chols))):
            object.__setattr__(self, name, _frozen_array(value))
        diags = tuple(_frozen_array(diag) for diag in _band_diagonals(log_A, self.band_width))
        object.__setattr__(self, "_diags", diags)
        object.__setattr__(self, "_spans", _live_spans(log_pi, diags))

    @property
    def n_states(self) -> int:
        return self.means.shape[0]

    @property
    def n_dims(self) -> int:
        return self.means.shape[1]


@dataclass(frozen=True, eq=False)
class ForwardBackwardCache:
    """Per-sequence E-step quantities.

    ``log_alpha`` and ``log_beta`` are the forward/backward log variables
    (T, N); ``gamma`` holds state posteriors as probabilities with exact 0.0
    where the band makes a state unreachable; ``log_xi_sums`` is the (N, N)
    log of pairwise transition posteriors summed over t = 1..T-1.
    """

    log_alpha: np.ndarray
    log_beta: np.ndarray
    gamma: np.ndarray
    log_xi_sums: np.ndarray
    log_likelihood: float


def validate_model(model: LrHmmModel) -> list[str]:
    """Check every model invariant; return a list of violations (empty = valid).

    Checks the band structure of ``log_A``, row stochasticity of ``A`` and
    ``pi`` (to ``ROW_SUM_TOL``), the absorbing final state, and symmetry /
    positive definiteness of every emission covariance.  Never raises.
    """
    violations: list[str] = []
    n = model.n_states
    band = model.band_width
    with np.errstate(over="ignore"):
        a = np.exp(model.log_A)
        pi = np.exp(model.log_pi)

    offset = np.arange(n)[None, :] - np.arange(n)[:, None]          # j - i
    outside = ((offset < 0) | (offset > band)) & ~np.isneginf(model.log_A)
    for i, j in np.argwhere(outside):
        violations.append(f"transition {i}->{j} outside the band is not -inf")

    row_sums = a.sum(axis=1)
    for i, s in enumerate(row_sums):
        if not np.isfinite(s) or abs(s - 1.0) > ROW_SUM_TOL:
            violations.append(f"row {i} of A sums to {float(s)!r}, expected 1")
    if abs(a[n - 1, n - 1] - 1.0) > ROW_SUM_TOL:
        violations.append("final state is not absorbing "
                          f"(self-transition {float(a[n - 1, n - 1])!r})")

    pi_sum = pi.sum()
    if not np.isfinite(pi_sum) or abs(pi_sum - 1.0) > ROW_SUM_TOL:
        violations.append(f"pi sums to {float(pi_sum)!r}, expected 1")

    asymmetric = _asymmetric(model.covariances)
    min_eigs = np.linalg.eigvalsh(model.covariances).min(axis=1)
    for j in np.flatnonzero(asymmetric | ~(min_eigs > 0)):
        if asymmetric[j]:
            violations.append(f"emission {j} covariance is not symmetric")
        else:
            violations.append(f"emission {j} covariance is not positive definite "
                              f"(min eigenvalue {float(min_eigs[j])!r})")
    return violations


# ---------------------------------------------------------------------------
# band storage of the transition matrix
# ---------------------------------------------------------------------------

def _band_diagonals(log_a: np.ndarray, band_width: int) -> list[np.ndarray]:
    """Diagonals 0..band_width of an (N, N) matrix; diagonal d has max(N - d, 0)
    entries."""
    return [np.ascontiguousarray(np.diagonal(log_a, offset=d))
            for d in range(band_width + 1)]


def _log_a_from_band(diags: list[np.ndarray], n_states: int) -> np.ndarray:
    """The (N, N) log transition matrix with ``diags`` (log diagonals
    0..band_width) on its band and -inf elsewhere."""
    log_a = np.full((n_states, n_states), -np.inf)
    for d, diag in enumerate(diags):
        idx = np.arange(diag.size)
        log_a[idx, idx + d] = diag
    return log_a


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

def model_to_json(model: LrHmmModel) -> str:
    """Serialize a model to a JSON document (probabilities, not logs).

    Transitions are written as ``A_band``: the band_width + 1 diagonals of A,
    diagonal d holding A[i, i + d] for i = 0..N-d-1.
    """
    with np.errstate(over="ignore"):
        pi = np.exp(model.log_pi)
        a_band = [np.exp(diag).tolist()
                  for diag in model._diags]
    doc = {
        "n_states": model.n_states,
        "n_dims": model.n_dims,
        "band_width": model.band_width,
        "pi": pi.tolist(),
        "A_band": a_band,
        "emissions": [
            {"mean": mean, "covariance": cov}
            for mean, cov in zip(model.means.tolist(), model.covariances.tolist())
        ],
    }
    return json.dumps(doc, indent=2)


def _read_transitions(doc: dict, n_states: int, band_width: int) -> np.ndarray:
    """Log transition matrix from a document's dense ``A`` or its ``A_band``.

    Diagonal count and lengths are checked before the (N, N) matrix is
    allocated, so a document cannot claim a size its diagonals do not have.
    """
    if ("A" in doc) == ("A_band" in doc):
        raise ParseError("malformed model document: expected exactly one of "
                         "'A' and 'A_band'")
    with np.errstate(divide="ignore", invalid="ignore"):
        if "A" in doc:
            return np.log(np.asarray(doc["A"], dtype=float))
        diags = [np.asarray(diag, dtype=float) for diag in doc["A_band"]]
        if len(diags) != band_width + 1:
            raise ModelError(f"invalid model: A_band has {len(diags)} diagonals, "
                             f"expected band_width + 1 = {band_width + 1}")
        for d, diag in enumerate(diags):
            if diag.shape != (max(n_states - d, 0),):
                raise ModelError(f"invalid model: A_band diagonal {d} has shape "
                                 f"{diag.shape}, expected ({max(n_states - d, 0)},)")
        return _log_a_from_band([np.log(diag) for diag in diags], n_states)


def model_from_json(text: str) -> LrHmmModel:
    """Parse a model document; raises ModelError if invariants are violated.

    Reads transitions from either ``A_band`` (as written by
    :func:`model_to_json`) or a dense ``A``.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid model JSON: {exc}") from None
    try:
        header = [doc[key] for key in ("n_states", "n_dims", "band_width")]
        if any(type(value) is not int for value in header):     # not bool or float
            raise ParseError("malformed model document: n_states, n_dims and "
                             f"band_width must be integers, got {header}")
        n_states, n_dims, band_width = header
        means = np.asarray([e["mean"] for e in doc["emissions"]], dtype=float)
        covs = np.asarray([e["covariance"] for e in doc["emissions"]], dtype=float)
        if means.shape != (n_states, n_dims):
            raise ModelError(f"invalid model: emission means have shape {means.shape}, "
                             f"expected ({n_states}, {n_dims})")
        pi = np.asarray(doc["pi"], dtype=float)
        log_a = _read_transitions(doc, n_states, band_width)
        with np.errstate(divide="ignore", invalid="ignore"):
            model = LrHmmModel(np.log(pi), log_a, means, covs, band_width)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed model document: {exc}") from None
    except UsageError as exc:
        # the document's values, not the caller, break a constructor contract
        raise ModelError(f"invalid model: {exc}") from None
    problems = validate_model(model)
    if problems:
        raise ModelError("invalid model: " + "; ".join(problems))
    return model


def save_model(model: LrHmmModel, path) -> None:
    with open(path, "w") as fh:
        fh.write(model_to_json(model))
        fh.write("\n")


def _read_text(path, kind: str) -> str:
    """Read an input file; raises ParseError if it cannot be read as text."""
    try:
        with open(path) as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ParseError(f"{path}: cannot read {kind} file: {reason}") from None


def load_model(path) -> LrHmmModel:
    """Read a model file; raises ParseError if it cannot be read as text."""
    return model_from_json(_read_text(path, "model"))
