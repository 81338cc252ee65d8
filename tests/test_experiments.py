import dataclasses
import math

import numpy as np
import pytest

from lrhmm import (
    ACCURACY_CSV_HEADER,
    DISTANCE_CSV_HEADER,
    DegenerateStateError,
    ExperimentConfig,
    ModelError,
    SyntheticConfig,
    TrainingConfig,
    UsageError,
    baum_welch,
    generate_synthetic,
    load_datasets,
    run_accuracy_experiment,
    run_distance_experiment,
    run_forecast_demo,
    save_csv,
)


def _synthetic_pair(duration_s=0.25, n_sequences=4, noise_std=0.03):
    common = dict(duration_s=duration_s, dt=0.025, n_sequences=n_sequences,
                  noise_std=noise_std, random_start_phase=False)
    return (SyntheticConfig(omega=1.05 * math.pi, rng_seed=1, **common),
            SyntheticConfig(omega=1.48 * math.pi, rng_seed=2, **common))


def _config(**kwargs):
    defaults = dict(
        n_repetitions=3,
        history_durations=(0.05, 0.25),
        rng_seed=9,
        synthetic=_synthetic_pair(),
        artifact_levels=(0.0, 0.8),
        training=TrainingConfig(max_iterations=25),
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


# ---------------------------------------------------------------------------
# configuration and data resolution
# ---------------------------------------------------------------------------

def test_config_requires_exactly_one_data_source(tmp_path):
    with pytest.raises(UsageError):
        ExperimentConfig()                               # neither
    with pytest.raises(UsageError):
        ExperimentConfig(synthetic=_synthetic_pair(), data_dir=str(tmp_path))


@pytest.mark.parametrize("kwargs", [
    dict(n_repetitions=0),
    dict(history_durations=()),
    dict(history_durations=(0.0,)),
    dict(scale_divisor=0.0),
    dict(n_workers=0),
    dict(rng_seed=-1),
])
def test_config_validation(kwargs):
    base = dict(synthetic=_synthetic_pair())
    base.update(kwargs)
    with pytest.raises(UsageError):
        ExperimentConfig(**base)


def test_load_datasets_groups_by_sensor_and_class():
    datasets = load_datasets(_config())
    assert sorted(datasets) == ["df2", "df3", "dr1"]
    for class_1, class_2 in datasets.values():
        assert len(class_1) == 4 and len(class_2) == 4
        assert all(s.label == 1 for s in class_1)
        assert all(s.label == 2 for s in class_2)


def test_load_datasets_can_restrict_sensors():
    datasets = load_datasets(_config(sensors=("df2",)))
    assert list(datasets) == ["df2"]
    with pytest.raises(UsageError):
        load_datasets(_config(sensors=("nope",)))


def test_load_datasets_from_directory_matches_synthetic(tmp_path):
    config = _config()
    cfg_1, cfg_2 = config.synthetic
    for label, cfg in ((1, cfg_1), (2, cfg_2)):
        for sensor, seqs in generate_synthetic(cfg, config.artifact_levels,
                                               label=label).items():
            for seq in seqs:
                save_csv(seq, tmp_path / f"{sensor}-c{label}-t{seq.trial_id}.csv")
    from_files = load_datasets(_config(synthetic=None, data_dir=str(tmp_path)))
    from_memory = load_datasets(config)
    assert sorted(from_files) == sorted(from_memory)
    for sensor in from_files:
        for side in (0, 1):
            a = sorted(from_files[sensor][side], key=lambda s: s.trial_id)
            b = sorted(from_memory[sensor][side], key=lambda s: s.trial_id)
            for x, y in zip(a, b):
                assert np.array_equal(x.values, y.values)


def test_load_datasets_needs_two_trials_per_class(tmp_path):
    pair = _synthetic_pair(n_sequences=1)
    with pytest.raises(UsageError, match=">= 2"):
        load_datasets(_config(synthetic=pair))


def test_load_datasets_rejects_unlabeled_sequences(tmp_path):
    data = generate_synthetic(_synthetic_pair()[0], [], label=None)
    for seq in data["dr1"]:
        save_csv(seq, tmp_path / f"t{seq.trial_id}.csv")
    with pytest.raises(UsageError, match="unlabeled"):
        load_datasets(_config(synthetic=None, data_dir=str(tmp_path)))


# ---------------------------------------------------------------------------
# accuracy experiment
# ---------------------------------------------------------------------------

def test_accuracy_experiment_shape_and_range():
    curve = run_accuracy_experiment(_config())
    assert curve.sensors == ["df2", "df3", "dr1"]
    assert curve.durations == (0.05, 0.25)
    assert curve.n_total == 6
    for sensor in curve.sensors:
        for duration in curve.durations:
            value = curve.accuracy(sensor, duration)
            assert 0.0 <= value <= 1.0
            assert value * curve.n_total == int(value * curve.n_total)


def test_accuracy_experiment_is_deterministic():
    config = _config()
    a = run_accuracy_experiment(config)
    b = run_accuracy_experiment(config)
    assert a.table == b.table
    assert a.resampled == b.resampled


def test_accuracy_experiment_parallel_matches_serial():
    config = _config()
    serial = run_accuracy_experiment(config)
    parallel = run_accuracy_experiment(dataclasses.replace(config, n_workers=2))
    assert serial.table == parallel.table


def test_accuracy_improves_with_longer_history():
    # with clearly different frequencies, the full recording must be easier
    # to classify than a two-sample prefix
    curve = run_accuracy_experiment(_config(n_repetitions=5, sensors=("df3",)))
    assert curve.accuracy("df3", 0.25) >= curve.accuracy("df3", 0.05)
    assert curve.accuracy("df3", 0.25) >= 0.8


def test_identical_classes_score_at_chance():
    # both classes draw from the same waveform family, so no classifier can
    # beat a coin flip.  A single data set leaves a residual bias (every
    # repetition reuses the same 30 + 30 draws), so this averages 10
    # repetitions over each of ten independently drawn pairs: 200 held-out
    # decisions tested against the 3-sigma binomial band around 0.5.
    #
    # seed pairs (128i, 128i + 64) keep all per-trial streams (seed ^ trial)
    # disjoint; adjacent seeds would make data sets share noise draws
    common = dict(duration_s=0.25, dt=0.025, n_sequences=30, noise_std=0.05,
                  random_start_phase=False)
    durations = (0.05, 0.25)
    correct = {d: 0 for d in durations}
    total = 0
    for i in range(10):
        pair = (SyntheticConfig(omega=1.05 * math.pi, rng_seed=128 * i,
                                **common),
                SyntheticConfig(omega=1.05 * math.pi, rng_seed=128 * i + 64,
                                **common))
        curve = run_accuracy_experiment(_config(
            n_repetitions=10, synthetic=pair, artifact_levels=(0.0,),
            sensors=("dr1",), history_durations=durations, rng_seed=i))
        total += curve.n_total
        for d in durations:
            correct[d] += round(curve.accuracy("dr1", d) * curve.n_total)
    assert total == 200
    bound = 3.0 * math.sqrt(0.25 / 200)
    for d in durations:
        assert abs(correct[d] / total - 0.5) <= bound


def test_overwhelming_separation_gives_perfect_accuracy():
    # amplitudes 0.05 vs 0.65 with noise_std 0.05 keep the class means at
    # least 8 sigma apart at every sample, so full-length histories must be
    # classified perfectly
    common = dict(duration_s=0.25, dt=0.025, n_sequences=8, noise_std=0.05,
                  random_start_phase=False)
    pair = (SyntheticConfig(omega=1.05 * math.pi, amplitude=0.05,
                            rng_seed=64, **common),
            SyntheticConfig(omega=1.05 * math.pi, amplitude=0.65,
                            rng_seed=128, **common))
    curve = run_accuracy_experiment(_config(
        n_repetitions=10, synthetic=pair, artifact_levels=(0.0,),
        sensors=("dr1",), history_durations=(0.25,)))
    assert curve.accuracy("dr1", 0.25) == 1.0


def test_accuracy_csv_round_trip(tmp_path):
    curve = run_accuracy_experiment(_config(sensors=("dr1",)))
    out = tmp_path / "accuracy.csv"
    curve.to_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0] == ACCURACY_CSV_HEADER
    assert len(lines) == 1 + len(curve.durations)
    for line in lines[1:]:
        sensor, duration, accuracy, n_total = line.split(",")
        assert sensor == "dr1"
        assert curve.accuracy(sensor, float(duration)) == float(accuracy)
        assert int(n_total) == curve.n_total


def test_accuracy_rejects_out_of_range_durations():
    with pytest.raises(UsageError):
        run_accuracy_experiment(_config(history_durations=(0.05, 5.0)))
    with pytest.raises(UsageError):
        run_accuracy_experiment(_config(history_durations=(0.001,)))


def test_off_grid_durations_are_rejected(tmp_path):
    # 0.0625 s is 2.5 steps of 0.025 s; rounding would score 2 steps
    with pytest.raises(UsageError, match="whole number of sampling steps"):
        run_accuracy_experiment(_config(history_durations=(0.05, 0.0625)))
    with pytest.raises(UsageError, match="whole number of sampling steps"):
        run_forecast_demo(_config(), 0.0625, tmp_path)


# ---------------------------------------------------------------------------
# distance experiment
# ---------------------------------------------------------------------------

def test_distance_experiment_runs_and_serializes(tmp_path):
    config = _config(n_repetitions=2)
    table = run_distance_experiment(config)
    assert [r.sensor_id for r in table.rows] == ["df2", "df3", "dr1"]
    for row in table.rows:
        assert math.isfinite(row.mean_distance)
        assert row.n_repetitions == 2
        assert row.motion_type == "simple_harmonic"
    out = tmp_path / "distance.csv"
    table.to_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0] == DISTANCE_CSV_HEADER
    assert len(lines) == 4
    for line, row in zip(lines[1:], table.rows):
        cells = line.split(",")
        assert cells[0] == row.sensor_id
        assert float(cells[2]) == row.mean_distance
    with pytest.raises(KeyError):
        table.mean_distance("nope")


def test_distance_experiment_parallel_matches_serial():
    config = _config(n_repetitions=2, sensors=("df2", "dr1"))
    serial = run_distance_experiment(config)
    parallel = run_distance_experiment(dataclasses.replace(config, n_workers=2))
    assert [r.mean_distance for r in serial.rows] == \
        [r.mean_distance for r in parallel.rows]


def test_identical_classes_have_near_zero_distance():
    # two samples of the same process should look interchangeable to the
    # cross-fitness score: their distance (pure overfitting noise) must be
    # a small fraction of the distance between genuinely different
    # frequencies, which grows with sequence length and count
    common = dict(duration_s=1.0, dt=0.025, n_sequences=30, noise_std=0.015,
                  random_start_phase=False)
    same = (SyntheticConfig(omega=1.05 * math.pi, rng_seed=64, **common),
            SyntheticConfig(omega=1.05 * math.pi, rng_seed=128, **common))
    apart = (SyntheticConfig(omega=1.05 * math.pi, rng_seed=64, **common),
             SyntheticConfig(omega=1.48 * math.pi, rng_seed=128, **common))
    near = run_distance_experiment(_config(
        n_repetitions=3, synthetic=same, artifact_levels=(0.0,),
        sensors=("dr1",)))
    far = run_distance_experiment(_config(
        n_repetitions=3, synthetic=apart, artifact_levels=(0.0,),
        sensors=("dr1",)))
    assert abs(near.mean_distance("dr1")) < 0.05 * abs(far.mean_distance("dr1"))


# ---------------------------------------------------------------------------
# resampling degenerate trainings
# ---------------------------------------------------------------------------

def _degenerate_when(monkeypatch, fails):
    """Make every experiment fit whose training seed satisfies ``fails``
    raise DegenerateStateError; a fork pool inherits the patch."""
    def fit(sequences, training):
        if fails(training.rng_seed):
            raise DegenerateStateError("forced degeneracy")
        return baum_welch(sequences, training)
    monkeypatch.setattr("lrhmm.experiments.baum_welch", fit)


@pytest.mark.parametrize("run", [run_accuracy_experiment, run_distance_experiment],
                         ids=["accuracy", "distance"])
def test_degenerate_trainings_are_resampled_alike_on_any_pool(monkeypatch, tmp_path,
                                                              run):
    _degenerate_when(monkeypatch, lambda seed: seed % 3 == 0)
    config = _config(n_repetitions=2, sensors=("df2", "dr1"))
    serial = run(config)
    parallel = run(dataclasses.replace(config, n_workers=2))
    assert all(n > 0 for n in serial.resampled.values())
    assert serial.resampled == parallel.resampled
    serial.to_csv(tmp_path / "serial.csv")
    parallel.to_csv(tmp_path / "parallel.csv")
    assert (tmp_path / "serial.csv").read_bytes() == (tmp_path / "parallel.csv").read_bytes()


def test_training_that_always_degenerates_is_an_error(monkeypatch):
    _degenerate_when(monkeypatch, lambda seed: True)
    with pytest.raises(ModelError, match="training degenerated 20 times in a row"):
        run_accuracy_experiment(_config(n_repetitions=1, sensors=("df2",)))


# ---------------------------------------------------------------------------
# forecast demo
# ---------------------------------------------------------------------------

def test_forecast_demo_writes_forecast_and_truth_files(tmp_path):
    config = _config(sensors=("df2", "dr1"))
    records = run_forecast_demo(config, 0.125, tmp_path)
    assert len(records) == 4   # two sensors times two classes
    split = 5
    n_future = 10 - split
    for record in records:
        assert record.predicted_label in (1, 2)
        assert record.n_points == n_future
        assert 0 <= record.n_covered <= record.n_points
        forecast_lines = open(record.forecast_path).read().splitlines()
        assert forecast_lines[0] == "time_s,channel,mean,lower,upper,class"
        assert len(forecast_lines) == 1 + n_future
        truth_lines = open(record.truth_path).read().splitlines()
        assert truth_lines[0] == "time_s,channel,value"
        assert len(truth_lines) == 1 + n_future
        # both files cover the same time stamps
        assert [l.split(",")[0] for l in forecast_lines[1:]] == \
            [l.split(",")[0] for l in truth_lines[1:]]


def test_forecast_demo_validates_history(tmp_path):
    with pytest.raises(UsageError):
        run_forecast_demo(_config(), 0.25, tmp_path)   # no future left
    with pytest.raises(UsageError):
        run_forecast_demo(_config(), 0.001, tmp_path)  # shorter than one step
