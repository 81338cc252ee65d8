import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy.special import logsumexp

from lrhmm import (
    GaussianEmission,
    LrHmmModel,
    ModelError,
    ObservationSequence,
    ParseError,
    UsageError,
    gaussian_log_density,
    load_model,
    model_from_json,
    model_to_json,
    save_model,
    validate_model,
)
from lrhmm.core import _log_b, _logsumexp
from helpers import (_PACKAGE_PARENT, BROKEN_BAND_DOCS, oracle_log_density, random_banded_model,
                     random_spd)


# ---------------------------------------------------------------------------
# observation sequences
# ---------------------------------------------------------------------------

def test_sequence_basic_properties():
    seq = ObservationSequence(np.zeros((8, 2)), 0.025, sensor_id="df2",
                              trial_id=3, label=1)
    assert seq.n_steps == 8
    assert seq.n_dims == 2
    assert seq.duration_s == pytest.approx(0.2)
    assert seq.sensor_id == "df2"
    assert seq.trial_id == 3
    assert seq.label == 1


def test_sequence_promotes_1d_to_single_channel():
    seq = ObservationSequence(np.arange(5.0), 0.1)
    assert seq.values.shape == (5, 1)
    assert seq.values[3, 0] == 3.0


def test_sequence_copies_and_freezes_values():
    raw = np.zeros((4, 1))
    seq = ObservationSequence(raw, 0.1)
    raw[0, 0] = 99.0
    assert seq.values[0, 0] == 0.0
    with pytest.raises(ValueError):
        seq.values[0, 0] = 1.0


@pytest.mark.parametrize("bad", [
    dict(values=np.zeros((0, 1)), dt=0.1),
    dict(values=np.zeros((2, 2, 2)), dt=0.1),
    dict(values=np.array([[np.nan]]), dt=0.1),
    dict(values=np.zeros((3, 1)), dt=0.0),
    dict(values=np.zeros((3, 1)), dt=-1.0),
    dict(values=np.zeros((3, 1)), dt=0.1, label=3),
    dict(values=np.zeros((3, 1)), dt=np.inf),
])
def test_sequence_rejects_bad_input(bad):
    with pytest.raises(UsageError):
        ObservationSequence(**bad)


# ---------------------------------------------------------------------------
# Gaussian emissions and densities
# ---------------------------------------------------------------------------

def test_standard_normal_density_at_mean():
    e = GaussianEmission(np.zeros(1), np.eye(1))
    assert abs(gaussian_log_density(0.0, e) - (-0.9189385332046727)) < 1e-12


def test_standard_normal_density_one_sigma_out():
    e = GaussianEmission(np.zeros(1), np.eye(1))
    assert abs(gaussian_log_density(1.0, e) - (-1.4189385332046727)) < 1e-12


def test_correlated_bivariate_density():
    e = GaussianEmission(np.array([0.5, -0.25]),
                         np.array([[2.0, 0.3], [0.3, 1.0]]))
    value = gaussian_log_density(np.array([1.0, 1.0]), e)
    assert abs(value - (-2.94676900157474)) < 1e-12


def test_density_matches_literal_formula():
    rng = np.random.default_rng(7)
    for _ in range(50):
        m = int(rng.integers(1, 5))
        mean = rng.normal(0.0, 3.0, m)
        cov = random_spd(rng, m)
        x = rng.normal(0.0, 3.0, m)
        e = GaussianEmission(mean, cov)
        assert abs(gaussian_log_density(x, e) - oracle_log_density(x, mean, cov)) < 1e-10


def test_density_integrates_to_one():
    # Midpoint rule over +-8 sigma for a single-channel emission.
    e = GaussianEmission(np.array([1.5]), np.array([[0.49]]))
    grid = np.linspace(1.5 - 8 * 0.7, 1.5 + 8 * 0.7, 20001)
    step = grid[1] - grid[0]
    total = sum(math.exp(gaussian_log_density(x, e)) for x in grid) * step
    assert abs(total - 1.0) < 1e-3


def test_density_rejects_dimension_mismatch():
    e = GaussianEmission(np.zeros(2), np.eye(2))
    with pytest.raises(UsageError):
        gaussian_log_density(np.zeros(3), e)


def test_emission_accepts_scalar_parameters():
    e = GaussianEmission(0.5, 2.0)
    assert e.n_dims == 1
    assert e.covariance.shape == (1, 1)


def test_emission_rejects_asymmetric_covariance():
    with pytest.raises(ModelError):
        GaussianEmission(np.zeros(2), np.array([[1.0, 0.2], [0.1, 1.0]]))


def test_emission_rejects_non_positive_definite():
    with pytest.raises(ModelError):
        GaussianEmission(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(ModelError):
        GaussianEmission(np.zeros(1), np.array([[0.0]]))


def test_emission_rejects_non_finite_and_bad_shapes():
    with pytest.raises(UsageError):
        GaussianEmission(np.array([np.inf]), np.eye(1))
    with pytest.raises(UsageError):
        GaussianEmission(np.zeros(2), np.eye(3))
    with pytest.raises(UsageError):
        GaussianEmission(np.zeros((2, 2)), np.eye(2))


# ---------------------------------------------------------------------------
# the stacked emission kernel
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n_dims", [1, 2, 3, 4])
@pytest.mark.parametrize("lead", [(), (7,), (3, 5)], ids=["M", "TxM", "KxTxM"])
def test_log_b_matches_the_oracle(n_dims, lead):
    rng = np.random.default_rng(60 + n_dims)
    model = random_banded_model(rng, 6, n_dims)
    # each point sits near one state's mean or 30 standard deviations out
    owner = rng.integers(0, 6, lead)
    scale = rng.choice([1e-3, 30.0], lead)[..., None]
    values = (model.means[owner] + scale * np.einsum(
        "...ij,...j->...i", model._chols[owner], rng.normal(0.0, 1.0, lead + (n_dims,))))
    got = _log_b(values, model.means, model._chols, model._log_norms)
    assert got.shape == lead + (6,)
    expected = np.array([[oracle_log_density(x, mean, cov)
                          for mean, cov in zip(model.means, model.covariances)]
                         for x in values.reshape(-1, n_dims)]).reshape(got.shape)
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)


def test_log_b_is_the_division_formula_for_one_channel():
    rng = np.random.default_rng(64)
    model = random_banded_model(rng, 9, 1)
    values = rng.normal(0.0, 3.0, (4, 9, 1))
    z = (values - model.means[:, 0]) / model._chols[:, 0, 0]
    expected = model._log_norms - 0.5 * (z * z)
    assert np.array_equal(_log_b(values, model.means, model._chols, model._log_norms),
                          expected)


def test_package_imports_without_scipy():
    # SciPy serves the tests as an oracle only; the package needs NumPy alone
    env = dict(os.environ, PYTHONPATH=_PACKAGE_PARENT)
    code = "import sys, lrhmm; print('scipy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


@pytest.mark.parametrize("axis", [0, 1, -1])
def test_logsumexp_matches_scipy_bit_for_bit(axis):
    rng = np.random.default_rng(66)
    for case in range(200):
        x = rng.normal(0.0, 10.0 ** rng.uniform(-3, 3), (int(rng.integers(1, 30)), 40))
        if case % 3 == 0:
            x[rng.random(x.shape) < 0.5] = -np.inf
        if case % 5 == 0:
            x[:, 1] = x[:, 0]                   # tied maxima
        assert np.array_equal(_logsumexp(x, axis=axis), logsumexp(x, axis=axis))


def test_logsumexp_of_only_minus_infinity_is_minus_infinity_without_a_warning():
    x = np.array([[-np.inf, -np.inf, -np.inf], [0.0, -np.inf, math.log(3.0)]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _logsumexp(x)
    assert got[0] == -np.inf
    assert got[1] == pytest.approx(math.log(4.0), rel=1e-15)


def test_model_stacks_emission_parameters_read_only():
    rng = np.random.default_rng(65)
    model = random_banded_model(rng, 4, 3)
    assert (model.n_states, model.n_dims) == (4, 3)
    means, covs = np.array(model.means), np.array(model.covariances)
    copy = LrHmmModel(model.log_pi, model.log_A, means, covs, 1)
    means[0, 0] += 1.0                  # the model keeps copies of its arrays
    covs[0, 0, 0] += 1.0
    assert np.array_equal(copy.means, model.means)
    assert np.array_equal(copy.covariances, model.covariances)
    for stacked in (model.means, model.covariances, model._chols, model._log_norms,
                    *model._diags):
        assert not stacked.flags.writeable


def test_live_spans_follow_the_forced_moves():
    # band 1 from state 1: states 1..3 have no self-loop, so the forward
    # mass moves one state per step until state 4, the first that can stay
    with np.errstate(divide="ignore"):
        a = np.zeros((7, 7))
        for i in range(6):
            a[i, i:i + 2] = (0.0, 1.0) if i < 4 else (0.5, 0.5)
        a[6, 6] = 1.0
        model = LrHmmModel(np.log(np.eye(7)[1]), np.log(a), np.zeros((7, 1)),
                           np.ones((7, 1, 1)))
        assert model._spans == ((1, 2, 3, 4, 4, 4, 4), (2, 3, 4, 5, 6, 7, 7))
        # band 2 from states 0 and 2: state 0 can stay, the top moves by 2
        wide = LrHmmModel(np.log([0.5, 0.0, 0.5, 0.0, 0.0, 0.0, 0.0]),
                          np.log(np.triu(np.tril(np.ones((7, 7)), 2)) / 3), np.zeros((7, 1)),
                          np.ones((7, 1, 1)), band_width=2)
    assert wide._spans == ((0,) * 7, (3, 5, 7, 7, 7, 7, 7))


# ---------------------------------------------------------------------------
# model construction and validation
# ---------------------------------------------------------------------------

def _canonical_model(n_states=3, n_dims=1):
    log_pi = np.full(n_states, -np.inf)
    log_pi[0] = 0.0
    log_a = np.full((n_states, n_states), -np.inf)
    for i in range(n_states - 1):
        log_a[i, i] = math.log(0.5)
        log_a[i, i + 1] = math.log(0.5)
    log_a[-1, -1] = 0.0
    means = np.repeat(np.arange(n_states, dtype=float)[:, None], n_dims, axis=1)
    covs = np.broadcast_to(np.eye(n_dims), (n_states, n_dims, n_dims))
    return LrHmmModel(log_pi, log_a, means, covs, 1)


def test_valid_model_has_no_violations():
    assert validate_model(_canonical_model()) == []
    rng = np.random.default_rng(3)
    for _ in range(10):
        model = random_banded_model(rng, int(rng.integers(1, 6)), 2,
                                    band_width=int(rng.integers(1, 3)))
        assert validate_model(model) == []


def test_validate_flags_bad_row_sum():
    model = _canonical_model()
    log_a = np.array(model.log_A)
    log_a[1, 1] = math.log(0.4)   # row 1 now sums to 0.9
    bad = LrHmmModel(model.log_pi, log_a, model.means, model.covariances, 1)
    problems = validate_model(bad)
    assert len(problems) == 1
    assert "row 1" in problems[0]


def test_validate_messages_print_plain_numbers():
    model = _canonical_model()
    log_a = np.array(model.log_A)
    log_a[0, :2] = math.log(0.25)     # row 0 halved
    log_a[2, 2] = math.log(0.5)       # final state no longer absorbing
    log_pi = np.array(model.log_pi)
    log_pi[0] = math.log(0.5)
    bad = LrHmmModel(log_pi, log_a, model.means, model.covariances, 1)
    assert validate_model(bad) == [
        "row 0 of A sums to 0.5, expected 1",
        "row 2 of A sums to 0.5, expected 1",
        "final state is not absorbing (self-transition 0.5)",
        "pi sums to 0.5, expected 1",
    ]


def test_validate_flags_out_of_band_transition():
    model = _canonical_model()
    log_a = np.array(model.log_A)
    log_a[0, 0] = math.log(1.0 / 3.0)   # keep the row stochastic...
    log_a[0, 1] = math.log(1.0 / 3.0)
    log_a[0, 2] = math.log(1.0 / 3.0)   # ...but jump over state 1
    bad = LrHmmModel(model.log_pi, log_a, model.means, model.covariances, 1)
    problems = validate_model(bad)
    assert len(problems) == 1
    assert "0->2" in problems[0]


def test_validate_flags_backward_transition_and_non_absorbing_end():
    model = _canonical_model()
    log_a = np.array(model.log_A)
    log_a[2, 1] = math.log(0.5)
    log_a[2, 2] = math.log(0.5)
    bad = LrHmmModel(model.log_pi, log_a, model.means, model.covariances, 1)
    problems = validate_model(bad)
    assert any("2->1" in p for p in problems)
    assert any("absorbing" in p for p in problems)


def test_validate_band_check_matches_the_double_loop():
    rng = np.random.default_rng(4)
    model = random_banded_model(rng, 9, 1, band_width=2)
    log_a = np.array(model.log_A)
    for i, j in ((0, 3), (2, 1), (4, 8), (5, 0), (8, 6), (3, 7)):
        log_a[i, j] = math.log(0.1)
    bad = LrHmmModel(model.log_pi, log_a, model.means, model.covariances, 2)
    expected = [f"transition {i}->{j} outside the band is not -inf"
                for i in range(9) for j in range(9)
                if not i <= j <= min(i + 2, 8) and not np.isneginf(log_a[i, j])]
    band_problems = [p for p in validate_model(bad) if p.startswith("transition")]
    assert len(expected) == 6
    assert band_problems == expected


def test_validate_flags_bad_start_distribution():
    model = _canonical_model()
    log_pi = np.full(3, math.log(0.25))
    bad = LrHmmModel(log_pi, model.log_A, model.means, model.covariances, 1)
    problems = validate_model(bad)
    assert len(problems) == 1
    assert "pi" in problems[0]


@pytest.mark.parametrize("mutate", [
    lambda kw: kw.update(log_pi=np.zeros(4)),
    lambda kw: kw.update(log_A=np.zeros((2, 2))),
    lambda kw: kw.update(log_pi=np.array([np.nan, -np.inf, -np.inf])),
    lambda kw: kw.update(log_pi=np.array([np.inf, -np.inf, -np.inf])),
    lambda kw: kw.update(means=np.zeros((0, 1)), covariances=np.zeros((0, 1, 1))),
    lambda kw: kw.update(band_width=0),
    lambda kw: kw.update(means=np.zeros(3)),
    lambda kw: kw.update(covariances=np.ones((2, 1, 1))),
    lambda kw: kw.update(log_A=np.zeros((4, 4))),
    lambda kw: kw.update(means=np.array([[0.0], [np.inf], [2.0]])),
])
def test_model_constructor_rejects_malformed_input(mutate):
    model = _canonical_model()
    kwargs = dict(log_pi=model.log_pi, log_A=model.log_A, means=model.means,
                  covariances=model.covariances, band_width=1)
    mutate(kwargs)
    with pytest.raises(UsageError):
        LrHmmModel(**kwargs)


def test_model_rejects_mismatched_emission_dimension():
    model = _canonical_model()
    covs = np.broadcast_to(np.eye(2), (3, 2, 2))
    with pytest.raises(UsageError):
        LrHmmModel(model.log_pi, model.log_A, model.means, covs, 1)


@pytest.mark.parametrize("cov, message", [
    ([[1.0, 0.2], [0.1, 1.0]], "not symmetric"),
    ([[1.0, 2.0], [2.0, 1.0]], "not positive definite"),
])
def test_model_rejects_a_bad_covariance(cov, message):
    model = _canonical_model(n_dims=2)
    covs = np.array(model.covariances)
    covs[1] = cov
    with pytest.raises(ModelError, match=message):
        LrHmmModel(model.log_pi, model.log_A, model.means, covs, 1)


def test_model_is_immutable():
    model = _canonical_model()
    with pytest.raises(Exception):
        model.n_states = 5
    with pytest.raises(ValueError):
        model.log_A[0, 0] = 0.0


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------

def test_model_json_round_trip():
    rng = np.random.default_rng(11)
    for _ in range(5):
        model = random_banded_model(rng, int(rng.integers(2, 6)), 2,
                                    band_width=int(rng.integers(1, 3)))
        back = model_from_json(model_to_json(model))
        assert back.n_states == model.n_states
        assert back.band_width == model.band_width
        # exp -> decimal text -> log keeps 1e-15 relative accuracy, and
        # structural -inf entries survive exactly.
        assert np.allclose(back.log_pi, model.log_pi, rtol=1e-15, atol=1e-15)
        assert np.allclose(back.log_A, model.log_A, rtol=1e-15, atol=1e-15)
        assert np.array_equal(back.means, model.means)
        assert np.array_equal(back.covariances, model.covariances)


def test_model_file_round_trip(tmp_path):
    model = _canonical_model()
    path = tmp_path / "model.json"
    save_model(model, path)
    back = load_model(path)
    assert np.array_equal(back.log_A, model.log_A)
    assert np.array_equal(back.log_pi, model.log_pi)


# A model file in the dense format, written by model_to_json before it
# switched to band diagonals.
_DENSE_MODEL_JSON = """{
  "n_states": 3,
  "n_dims": 1,
  "band_width": 1,
  "pi": [
    1.0,
    0.0,
    0.0
  ],
  "A": [
    [
      0.16452397753138,
      0.83547602246862,
      0.0
    ],
    [
      0.0,
      0.24464423164042903,
      0.755355768359571
    ],
    [
      0.0,
      0.0,
      1.0
    ]
  ],
  "emissions": [
    {
      "mean": [
        -3.216375568372778
      ],
      "covariance": [
        [
          2.882597390924461
        ]
      ]
    },
    {
      "mean": [
        0.4835437537537026
      ],
      "covariance": [
        [
          0.5002640664564911
        ]
      ]
    },
    {
      "mean": [
        0.4707618374749095
      ],
      "covariance": [
        [
          0.6606578937706062
        ]
      ]
    }
  ]
}"""


def _banded_doc(dense_doc):
    """``dense_doc`` with its dense ``A`` rewritten as ``A_band``."""
    doc = dict(dense_doc)
    a = doc.pop("A")
    n = len(a)
    doc["A_band"] = [[a[i][i + d] for i in range(n - d)]
                     for d in range(doc["band_width"] + 1)]
    return doc


def test_model_json_is_plain_probabilities():
    doc = json.loads(model_to_json(_canonical_model()))
    assert doc["pi"] == [1.0, 0.0, 0.0]
    assert "A" not in doc
    # A is written as its diagonals 0..band_width, so out-of-band zeros
    # such as A[0][2] are not written at all
    assert doc["A_band"] == [[0.5, 0.5, 1.0], [0.5, 0.5]]
    assert doc["A_band"][0][2] == 1.0

    # the dense format is still read
    dense = model_from_json(_DENSE_MODEL_JSON)
    assert np.exp(dense.log_A[2]).tolist() == [0.0, 0.0, 1.0]
    assert np.exp(dense.log_A[0, 2]) == 0.0


def test_dense_model_file_loads_as_its_band_rewrite():
    dense_doc = json.loads(_DENSE_MODEL_JSON)
    dense = model_from_json(_DENSE_MODEL_JSON)
    banded = model_from_json(json.dumps(_banded_doc(dense_doc)))
    for name in ("log_pi", "log_A", "means", "covariances"):
        assert getattr(dense, name).tobytes() == getattr(banded, name).tobytes(), name
    # the writer produces that rewrite
    assert json.loads(model_to_json(dense)) == _banded_doc(dense_doc)


def test_model_from_json_rejects_garbage():
    with pytest.raises(ParseError):
        model_from_json("{not json")
    with pytest.raises(ParseError):
        model_from_json(json.dumps({"n_states": 2}))


def test_model_from_json_rejects_invalid_model():
    # row 0 of A no longer sums to 1
    doc = json.loads(model_to_json(_canonical_model()))
    doc["A_band"][0][0] = doc["A_band"][1][0] = 0.4
    with pytest.raises(ModelError):
        model_from_json(json.dumps(doc))
    doc = json.loads(_DENSE_MODEL_JSON)
    doc["A"][0] = [0.4, 0.4, 0.0]
    with pytest.raises(ModelError):
        model_from_json(json.dumps(doc))


@pytest.mark.parametrize("corrupt", [
    lambda doc: doc.update(n_states=4),                          # shape mismatch
    lambda doc: doc.update(n_dims=2),
    lambda doc: doc["emissions"][1].update(mean=[float("nan")]),
    lambda doc: doc["A_band"][0].__setitem__(0, -0.5),            # negative probability
])
def test_model_from_json_reports_malformed_parameters_as_model_errors(corrupt):
    doc = json.loads(model_to_json(_canonical_model()))
    corrupt(doc)
    with pytest.raises(ModelError):
        model_from_json(json.dumps(doc))


def test_model_from_json_reports_a_negative_dense_probability():
    doc = json.loads(_DENSE_MODEL_JSON)
    doc["A"][0][0] = -0.5
    with pytest.raises(ModelError):
        model_from_json(json.dumps(doc))


@pytest.mark.parametrize("defect", sorted(BROKEN_BAND_DOCS))
def test_model_from_json_rejects_a_broken_band(defect):
    doc = json.loads(model_to_json(_canonical_model()))
    BROKEN_BAND_DOCS[defect](doc)
    with pytest.raises((ParseError, ModelError)):
        model_from_json(json.dumps(doc))
