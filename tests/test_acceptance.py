"""End-to-end capability checks, one per numbered check below.

Each test records a ``check N (...): PASS`` or ``FAIL`` verdict; the
conftest summary hook prints one line per verdict at the end of the run
so they show up even with output capture on.  These run the library at
realistic scale: exact inference against brute-force enumeration, EM
monotonicity, cross-fitness identities, the artifact-level accuracy and
distance trends, forecast band calibration, and byte-level determinism
of the command line interface.
"""

import contextlib
import math
import time
from pathlib import Path

import numpy as np

from lrhmm import (
    ExperimentConfig,
    ObservationSequence,
    SyntheticConfig,
    TrainingConfig,
    baum_welch,
    cross_fitness_distance,
    generate_synthetic,
    log_likelihood,
    run_accuracy_experiment,
    run_distance_experiment,
    run_forecast_demo,
    viterbi,
)
from lrhmm.experiments import DEFAULT_DURATIONS
from helpers import (
    enum_log_likelihood,
    enum_viterbi,
    random_banded_model,
    run_cli,
    sample_sequence,
)


# (number, text, verdict) triples; conftest prints these in its
# end-of-run summary section, which bypasses output capture
RECORDED_VERDICTS = []


def _emit(number, text, verdict):
    RECORDED_VERDICTS.append((number, text, verdict))
    print(f"check {number} ({text}): {verdict}")


@contextlib.contextmanager
def _report(number, text):
    try:
        yield
    except BaseException:
        _emit(number, text, "FAIL")
        raise
    _emit(number, text, "PASS")


# With a shared phase lag the two classes are identical at the very first
# sample (their frequencies need time to separate), so one-sample accuracy
# would sit at chance for every artifact level.  Splitting the lag by
# +/- 0.04 rad gives the loose channels a class-dependent first sample
# whose separation grows with the artifact level, while the level-0
# channel stays uninformative until the frequencies diverge.
_LAG_SPLIT = 0.04


def _calibrated_pair(duration_s):
    common = dict(amplitude=1.0, noise_std=0.015, duration_s=duration_s,
                  dt=0.025, n_sequences=30, random_start_phase=False)
    return (SyntheticConfig(omega=1.05 * math.pi,
                            artifact_phase_lag=math.pi / 2 - _LAG_SPLIT,
                            rng_seed=101, **common),
            SyntheticConfig(omega=1.48 * math.pi,
                            artifact_phase_lag=math.pi / 2 + _LAG_SPLIT,
                            rng_seed=202, **common))


def _random_instance(rng):
    n_states = int(rng.integers(1, 5))
    n_dims = int(rng.integers(1, 3))
    model = random_banded_model(rng, n_states, n_dims)
    n_steps = int(rng.integers(1, n_states + 1))
    seq = sample_sequence(rng, model, n_steps)
    return model, seq


def test_forward_likelihood_matches_enumeration():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    with _report(1, "forward log-likelihood matches path enumeration"):
        for _ in range(100):
            model, seq = _random_instance(rng)
            expected = enum_log_likelihood(seq.values, model)
            assert abs(log_likelihood(seq, model) - expected) <= 1e-9
        assert time.perf_counter() - start < 10.0


def test_viterbi_matches_enumeration():
    rng = np.random.default_rng(2025)
    start = time.perf_counter()
    with _report(2, "best state path matches exhaustive search"):
        for _ in range(100):
            model, seq = _random_instance(rng)
            expected_path, expected_score = enum_viterbi(seq.values, model)
            result = viterbi(seq, model)
            assert np.array_equal(result.path, expected_path)
            assert abs(result.log_prob - expected_score) <= 1e-9
        assert time.perf_counter() - start < 10.0


def test_em_monotone_and_single_state_closed_form():
    with _report(3, "EM trace non-decreasing; one-state fit is closed form"):
        for run in range(50):
            # seeds 64 apart keep the per-trial noise streams of the 50
            # data sets disjoint; fixed start phase keeps the repetitions
            # coherent so a per-step template is learnable
            cfg = SyntheticConfig(omega=1.05 * math.pi, duration_s=1.0,
                                  dt=0.025, n_sequences=10, noise_std=0.05,
                                  rng_seed=3000 + 64 * run,
                                  random_start_phase=False)
            sequences = generate_synthetic(cfg, ())["dr1"]
            _, trace = baum_welch(sequences, TrainingConfig(
                max_iterations=25, rng_seed=run))
            lls = trace.log_likelihoods
            assert all(b >= a - 1e-8 for a, b in zip(lls, lls[1:]))

        rng = np.random.default_rng(7)
        for _ in range(10):
            data = rng.normal(0.0, 1.0, (10, 1, 1))
            sequences = [ObservationSequence(x, 0.025, trial_id=i)
                         for i, x in enumerate(data)]
            model, _ = baum_welch(sequences, TrainingConfig(max_iterations=5))
            values = data[:, 0, 0]
            mean = values.mean()
            scatter = float(((values - mean) ** 2).mean())
            floored = scatter + max(1e-6 * scatter, 1e-9)
            assert abs(model.means[0, 0] - mean) <= 1e-10
            assert abs(model.covariances[0, 0, 0] - floored) <= 1e-10


def test_distance_identities():
    rng = np.random.default_rng(11)
    with _report(4, "distance is exactly 0 on identical pairs, swap-symmetric"):
        for _ in range(5):
            n_states = int(rng.integers(2, 5))
            n_dims = int(rng.integers(1, 3))
            model_1 = random_banded_model(rng, n_states, n_dims)
            model_2 = random_banded_model(rng, n_states, n_dims)
            set_1 = [sample_sequence(rng, model_1, n_states, trial_id=i)
                     for i in range(3)]
            set_2 = [sample_sequence(rng, model_2, n_states, trial_id=i)
                     for i in range(3)]
            same = cross_fitness_distance(set_1, set_1, model_1, model_1)
            assert same.distance == 0.0
            report = cross_fitness_distance(set_1, set_2, model_1, model_2)
            swapped = cross_fitness_distance(set_2, set_1, model_2, model_1)
            assert swapped.ll_11 == report.ll_22
            assert swapped.ll_22 == report.ll_11
            assert swapped.ll_12 == report.ll_21
            assert swapped.ll_21 == report.ll_12
            assert swapped.distance == report.distance


def _first_reaching(curve, sensor, threshold):
    for duration in curve.durations:
        if curve.accuracy(sensor, duration) >= threshold:
            return duration
    return None


def test_accuracy_grows_with_artifact_level():
    start = time.perf_counter()
    with _report(5, "looser sensors classify faster, 100 repetitions"):
        config = ExperimentConfig(
            n_repetitions=100, history_durations=DEFAULT_DURATIONS,
            rng_seed=7, synthetic=_calibrated_pair(1.0),
            artifact_levels=(0.0, 0.3, 0.6, 1.0),
            sensors=("df2", "df3", "df4", "df5"),
            training=TrainingConfig(max_iterations=100))
        curve = run_accuracy_experiment(config)
        shortest = curve.durations[0]
        step_1 = [curve.accuracy(s, shortest)
                  for s in ("df2", "df3", "df4", "df5")]
        assert all(a <= b for a, b in zip(step_1, step_1[1:]))
        assert step_1[-1] - step_1[0] >= 0.15
        reach_level_0 = _first_reaching(curve, "df2", 0.95)
        reach_level_1 = _first_reaching(curve, "df5", 0.95)
        assert reach_level_0 is not None and reach_level_1 is not None
        assert reach_level_0 > reach_level_1
        assert time.perf_counter() - start < 300.0


def test_distance_grows_with_artifact_level():
    with _report(6, "mean distance non-decreasing in artifact level"):
        config = ExperimentConfig(
            n_repetitions=10, history_durations=(0.025,), rng_seed=7,
            synthetic=_calibrated_pair(1.0),
            artifact_levels=(0.0, 0.3, 0.6, 1.0),
            sensors=("df2", "df3", "df4", "df5"),
            training=TrainingConfig(max_iterations=100))
        table = run_distance_experiment(config)
        means = [table.mean_distance(s) for s in ("df2", "df3", "df4", "df5")]
        assert all(a <= b for a, b in zip(means, means[1:]))


def test_forecast_band_is_calibrated(tmp_path):
    with _report(7, "one-sigma band covers 55-80% of true future points"):
        config = ExperimentConfig(
            n_repetitions=1, history_durations=(2.5,), rng_seed=7,
            synthetic=_calibrated_pair(5.0),
            artifact_levels=(0.0, 0.3, 0.6, 1.0),
            sensors=("df2", "df3", "df4", "df5"),
            training=TrainingConfig(max_iterations=100))
        records = run_forecast_demo(config, 2.5, tmp_path)
        n_points = sum(r.n_points for r in records
                       if r.predicted_label == r.true_label)
        n_covered = sum(r.n_covered for r in records
                        if r.predicted_label == r.true_label)
        assert n_points >= 500
        assert 0.55 <= n_covered / n_points <= 0.80


# ---------------------------------------------------------------------------
# command line determinism
# ---------------------------------------------------------------------------

_GEN_CFG = """\
duration_s = 0.25
n_sequences = 4
noise_std = 0.03
artifact_levels = 0.0,0.8
"""


def _run_cli(*args, cwd):
    proc = run_cli(*args, cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return proc


def _tree_bytes(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(Path(root).rglob("*")) if p.is_file()}


def test_cli_outputs_are_deterministic(tmp_path):
    with _report(8, "every subcommand byte-identical across runs and workers"):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text(_GEN_CFG)

        data_a, data_b = tmp_path / "data_a", tmp_path / "data_b"
        for out in (data_a, data_b):
            _run_cli("generate", "--seed", 5, "--config", cfg, "--out", out,
                     cwd=tmp_path)
        assert _tree_bytes(data_a) == _tree_bytes(data_b)

        models = {}
        for label in (1, 2):
            paths = [tmp_path / f"m{label}{tag}.json" for tag in "ab"]
            for path in paths:
                _run_cli("train", "--data", data_a, "--label", label,
                         "--sensor", "df2", "--seed", 0, "--out", path,
                         cwd=tmp_path)
            assert paths[0].read_bytes() == paths[1].read_bytes()
            models[label] = paths[0]

        recording = data_a / "df2-class1-trial000.csv"
        for name, extra in (("classify", ["--duration", 0.25]),
                            ("forecast", ["--history", 0.125])):
            outs = [tmp_path / f"{name}_{tag}.csv" for tag in "ab"]
            for out in outs:
                _run_cli(name, "--model1", models[1], "--model2", models[2],
                         "--input", recording, "--out", out, *extra,
                         cwd=tmp_path)
            assert outs[0].read_bytes() == outs[1].read_bytes()

        for name, extra in (("distance", []),
                            ("accuracy-curve", ["--durations", "0.05,0.25"])):
            outs = [tmp_path / f"{name}_{tag}.csv" for tag in ("a", "b", "p")]
            for out, workers in zip(outs, (1, 1, 2)):
                _run_cli(name, "--data", data_a, "--reps", 2, "--seed", 3,
                         "--workers", workers, "--out", out, *extra,
                         cwd=tmp_path)
            assert outs[0].read_bytes() == outs[1].read_bytes()
            assert outs[0].read_bytes() == outs[2].read_bytes()
