"""Shared brute-force oracles and the command line runner for the test suite.

Everything here is deliberately naive: densities through explicit inverse
and determinant, likelihoods and decodings by enumerating every state path.
The naive versions are only usable for tiny models, which is exactly the
regime where the real implementations are checked against them.
"""

import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import lrhmm
from lrhmm import LrHmmModel, ObservationSequence
from lrhmm.core import _band_diagonals, _log_b

# the directory holding the lrhmm package these tests imported
# (``src`` in a checkout), as an absolute path
_PACKAGE_PARENT = str(Path(lrhmm.__file__).resolve().parent.parent)


def run_cli(*args, cwd=None):
    """Run ``python -m lrhmm ARGS`` and return the CompletedProcess.

    The subprocess gets the parent's environment with the package under
    test first on PYTHONPATH, so it imports the same lrhmm as the tests
    whatever its working directory, and an installed copy cannot shadow it.
    """
    env = dict(os.environ)
    inherited = [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join([_PACKAGE_PARENT, *inherited])
    return subprocess.run([sys.executable, "-m", "lrhmm", *map(str, args)],
                          capture_output=True, text=True, cwd=cwd, env=env)


def oracle_log_density(x, mean, cov):
    """Multivariate normal log density via inv + slogdet (no Cholesky)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    diff = x - mean
    quad = float(diff @ np.linalg.inv(cov) @ diff)
    sign, logdet = np.linalg.slogdet(cov)
    assert sign > 0
    return -0.5 * (x.size * math.log(2.0 * math.pi) + logdet + quad)


def random_spd(rng, n_dims):
    a = rng.normal(0.0, 1.0, (n_dims, n_dims))
    return a @ a.T + (0.3 + 0.1 * n_dims) * np.eye(n_dims)


def random_banded_model(rng, n_states, n_dims, band_width=1, canonical_pi=True):
    """A valid left-right model with random in-band rows and random Gaussians."""
    log_a = np.full((n_states, n_states), -np.inf)
    for i in range(n_states - 1):
        hi = min(i + band_width, n_states - 1)
        row = rng.dirichlet(np.full(hi - i + 1, 2.0))
        log_a[i, i:hi + 1] = np.log(row)
    log_a[n_states - 1, n_states - 1] = 0.0

    log_pi = np.full(n_states, -np.inf)
    if canonical_pi or n_states == 1:
        log_pi[0] = 0.0
    else:
        width = min(band_width + 1, n_states)
        log_pi[:width] = np.log(rng.dirichlet(np.full(width, 2.0)))

    means = rng.normal(0.0, 2.0, (n_states, n_dims))
    covs = np.stack([random_spd(rng, n_dims) for _ in range(n_states)])
    return LrHmmModel(log_pi, log_a, means, covs, band_width)


def path_log_score(values, model, path):
    """Joint log probability of one complete state path and the data."""
    j = path[0]
    score = float(model.log_pi[j]) + oracle_log_density(
        values[0], model.means[j], model.covariances[j])
    for t in range(1, len(path)):
        j = path[t]
        score += float(model.log_A[path[t - 1], j])
        score += oracle_log_density(values[t], model.means[j], model.covariances[j])
    return score


def enum_paths(n_states, n_steps):
    return itertools.product(range(n_states), repeat=n_steps)


def enum_log_likelihood(values, model):
    """Total likelihood by summing over every state path."""
    total = -np.inf
    for path in enum_paths(model.n_states, len(values)):
        total = np.logaddexp(total, path_log_score(values, model, path))
    return float(total)


def enum_viterbi(values, model):
    """Best path by enumeration; exact ties break to the path whose
    reversed tuple is smallest (final state first, then predecessors)."""
    best_score = -np.inf
    best_paths = []
    for path in enum_paths(model.n_states, len(values)):
        score = path_log_score(values, model, path)
        if score > best_score:
            best_score = score
            best_paths = [path]
        elif score == best_score:
            best_paths.append(path)
    best = min(best_paths, key=lambda p: tuple(reversed(p)))
    return np.array(best, dtype=int), float(best_score)


def reference_forward(values, model):
    """Forward log variables (T, N) by the plain recursion over all N states
    at every step, with no live-span bookkeeping."""
    log_b = _log_b(values, model.means, model._chols, model._log_norms)
    diags = _band_diagonals(model.log_A, model.band_width)
    alpha = np.empty_like(log_b)
    alpha[0] = model.log_pi + log_b[0]
    for t in range(1, len(log_b)):
        prev = alpha[t - 1]
        acc = prev + diags[0]
        for d in range(1, len(diags)):
            if diags[d].size:
                acc[d:] = np.logaddexp(acc[d:], prev[:-d] + diags[d])
        alpha[t] = acc + log_b[t]
    return alpha


def reference_viterbi(values, model):
    """Viterbi by the plain max-plus loop over all N states: per step, a
    (band + 1, N) candidate table whose row k holds predecessor j - (band - k),
    so np.argmax's first-max rule picks the lowest predecessor on ties.
    Returns the path and its score."""
    log_b = _log_b(values, model.means, model._chols, model._log_norms)
    n_steps, n_states = log_b.shape
    band = model.band_width
    diags = _band_diagonals(model.log_A, band)
    delta = np.empty((n_steps, n_states))
    psi = np.zeros((n_steps, n_states), dtype=int)
    delta[0] = model.log_pi + log_b[0]
    offsets = np.arange(n_states)
    for t in range(1, n_steps):
        prev = delta[t - 1]
        cand = np.full((band + 1, n_states), -np.inf)
        for k in range(band + 1):
            d = band - k
            if d == 0:
                cand[k] = prev + diags[0]
            elif diags[d].size > 0:
                cand[k, d:] = prev[:-d] + diags[d]
        best = np.argmax(cand, axis=0)
        delta[t] = cand[best, offsets] + log_b[t]
        psi[t] = offsets - (band - best)
    path = np.empty(n_steps, dtype=int)
    path[-1] = int(np.argmax(delta[-1]))
    for t in range(n_steps - 2, -1, -1):
        path[t] = psi[t + 1, path[t + 1]]
    return path, float(delta[-1, path[-1]])


def enum_pair_posteriors(values, model):
    """Pairwise transition posteriors summed over t, by enumeration."""
    ll = enum_log_likelihood(values, model)
    xi = np.zeros((model.n_states, model.n_states))
    for path in enum_paths(model.n_states, len(values)):
        weight = math.exp(path_log_score(values, model, path) - ll)
        if weight == 0.0:
            continue
        for t in range(len(path) - 1):
            xi[path[t], path[t + 1]] += weight
    return xi


def sample_sequence(rng, model, n_steps, dt=0.025, **kwargs):
    """Draw one observation sequence from a model's own generative process."""
    pi = np.exp(model.log_pi)
    a = np.exp(model.log_A)
    chols = [np.linalg.cholesky(cov) for cov in model.covariances]
    state = int(rng.choice(model.n_states, p=pi))
    rows = []
    for t in range(n_steps):
        if t:
            state = int(rng.choice(model.n_states, p=a[state]))
        rows.append(model.means[state] + chols[state] @ rng.standard_normal(model.n_dims))
    return ObservationSequence(np.array(rows), dt, **kwargs)


# Defects of a model document's ``A_band`` and of the integer header fields
# it is read against, one per entry; each edits a document written by
# ``model_to_json`` in place.
BROKEN_BAND_DOCS = {
    "diagonal_count": lambda doc: doc["A_band"].append([0.0]),
    "diagonal_length": lambda doc: doc["A_band"][1].append(0.0),
    "negative": lambda doc: doc["A_band"][1].__setitem__(0, -0.5),
    "nan": lambda doc: doc["A_band"][0].__setitem__(0, float("nan")),
    "both_keys": lambda doc: doc.update(A=[[1.0]]),
    "huge_n_states": lambda doc: doc.update(n_states=10 ** 9),
    "infinite_n_states": lambda doc: doc.update(n_states=float("inf")),
    "fractional_band_width": lambda doc: doc.update(band_width=1.5),
}
