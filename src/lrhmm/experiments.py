"""Experiment harness: accuracy curves, model distances, forecast exports.

The protocol mirrors a leave-one-out study over labeled trials: per
repetition one trial per class is held out, both class models are trained
on the rest, and the held-out pair is classified at several truncated
history lengths.  Every repetition derives its own random stream from
``rng_seed XOR repetition_index`` and is reduced in repetition order, so
results are identical whether repetitions run serially or on a process
pool.  A repetition whose training degenerates is resampled (and counted).
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np

from .core import (
    DegenerateStateError,
    ModelError,
    ObservationSequence,
    UsageError,
    _grid_steps,
)
from .dataio import generate_synthetic, load_csv, preprocess
from .distance import cross_fitness_distance
from .forecasting import forecast, write_forecast_csv
from .inference import prefix_log_likelihoods
from .training import TrainingConfig, baum_welch

DEFAULT_DURATIONS = tuple(round(0.025 * (i + 1), 9) for i in range(16))

ACCURACY_CSV_HEADER = "sensor,duration_s,accuracy,n_total"
DISTANCE_CSV_HEADER = "sensor_id,motion_type,mean_distance,n_repetitions"


@dataclass(frozen=True)
class ExperimentConfig:
    """Data source plus protocol parameters for the experiment runners.

    Exactly one of ``synthetic`` (a pair of class configs) or ``data_dir``
    must be set.  ``sensors`` optionally restricts which sensors run.
    """

    n_repetitions: int = 100
    history_durations: tuple = DEFAULT_DURATIONS
    rng_seed: int = 0
    synthetic: tuple | None = None
    artifact_levels: tuple = ()
    data_dir: str | None = None
    sensors: tuple | None = None
    scale_divisor: float = 1.0
    align: bool = False
    training: TrainingConfig = TrainingConfig()
    n_workers: int = 1
    motion_type: str = "simple_harmonic"

    def __post_init__(self):
        if self.n_repetitions < 1:
            raise UsageError("n_repetitions must be >= 1")
        if not self.history_durations:
            raise UsageError("history_durations must be non-empty")
        if any(not d > 0 for d in self.history_durations):
            raise UsageError("history durations must be positive")
        if (self.synthetic is None) == (self.data_dir is None):
            raise UsageError("set exactly one of 'synthetic' and 'data_dir'")
        if self.synthetic is not None and len(self.synthetic) != 2:
            raise UsageError("'synthetic' must hold one SyntheticConfig per class")
        if self.scale_divisor == 0:
            raise UsageError("scale_divisor must be non-zero")
        if self.n_workers < 1:
            raise UsageError("n_workers must be >= 1")


@dataclass(frozen=True, eq=False)
class AccuracyCurve:
    """Per (sensor, history duration) classification accuracy."""

    durations: tuple
    table: dict
    n_total: int
    resampled: dict

    def accuracy(self, sensor_id: str, duration_s: float) -> float:
        return self.table[(sensor_id, duration_s)]

    @property
    def sensors(self) -> list[str]:
        return sorted({s for s, _ in self.table})

    def to_csv(self, path) -> None:
        lines = [ACCURACY_CSV_HEADER]
        for sensor, duration in sorted(self.table):
            lines.append(f"{sensor},{duration!r},{self.table[(sensor, duration)]!r},"
                         f"{self.n_total}")
        Path(path).write_text("\n".join(lines) + "\n")


@dataclass(frozen=True)
class DistanceRow:
    sensor_id: str
    motion_type: str
    mean_distance: float
    n_repetitions: int


@dataclass(frozen=True)
class DistanceTable:
    rows: tuple
    resampled: dict

    def mean_distance(self, sensor_id: str) -> float:
        for row in self.rows:
            if row.sensor_id == sensor_id:
                return row.mean_distance
        raise KeyError(sensor_id)

    def to_csv(self, path) -> None:
        lines = [DISTANCE_CSV_HEADER]
        for row in self.rows:
            lines.append(f"{row.sensor_id},{row.motion_type},"
                         f"{row.mean_distance!r},{row.n_repetitions}")
        Path(path).write_text("\n".join(lines) + "\n")


@dataclass(frozen=True)
class ForecastRecord:
    """Outcome of forecasting one held-out trial."""

    sensor_id: str
    true_label: int
    predicted_label: int
    n_points: int
    n_covered: int
    forecast_path: str
    truth_path: str


# ---------------------------------------------------------------------------
# dataset resolution
# ---------------------------------------------------------------------------

def load_datasets(config: ExperimentConfig) -> dict[str, tuple[list, list]]:
    """Resolve the configured data source to per-sensor class pools.

    Returns ``{sensor_id: (class_1_sequences, class_2_sequences)}`` after
    preprocessing (channel scaling and optional joint time alignment across
    both classes).
    """
    if config.synthetic is not None:
        cfg_1, cfg_2 = config.synthetic
        by_sensor_1 = generate_synthetic(cfg_1, config.artifact_levels, label=1)
        by_sensor_2 = generate_synthetic(cfg_2, config.artifact_levels, label=2)
        pools = {s: by_sensor_1[s] + by_sensor_2[s] for s in by_sensor_1}
    else:
        pools = {}
        for seq in load_csv(config.data_dir):
            pools.setdefault(seq.sensor_id, []).append(seq)

    if config.sensors is not None:
        missing = [s for s in config.sensors if s not in pools]
        if missing:
            raise UsageError(f"sensors not present in the data: {missing}")
        pools = {s: pools[s] for s in config.sensors}

    datasets = {}
    for sensor in sorted(pools):
        processed = preprocess(pools[sensor], config.scale_divisor, None, config.align)
        class_1 = [s for s in processed if s.label == 1]
        class_2 = [s for s in processed if s.label == 2]
        if len(class_1) + len(class_2) != len(processed):
            raise UsageError(f"sensor {sensor} has unlabeled sequences")
        if len(class_1) < 2 or len(class_2) < 2:
            raise UsageError(f"sensor {sensor} needs >= 2 sequences per class")
        datasets[sensor] = (class_1, class_2)
    return datasets


def _common_dt(datasets) -> float:
    dts = {seq.dt for c1, c2 in datasets.values() for seq in (*c1, *c2)}
    if len(dts) != 1:
        raise UsageError(f"sequences disagree on dt: {sorted(dts)}")
    return dts.pop()


def _duration_steps(durations, dt: float, n_steps: int) -> np.ndarray:
    steps = np.array([_grid_steps(d, dt) for d in durations])
    if steps.min() < 1:
        raise UsageError("a history duration is shorter than one sampling step")
    if steps.max() > n_steps:
        raise UsageError("a history duration exceeds the sequence duration")
    return steps


# ---------------------------------------------------------------------------
# the leave-one-out repetition (module level so process pools can pickle it)
# ---------------------------------------------------------------------------

_MAX_RETRAIN_ATTEMPTS = 20


def _drop(sequences, index):
    return sequences[:index] + sequences[index + 1:]


def _train_pair(class_1, class_2, config: ExperimentConfig, rep: int):
    """Hold one trial out per class and train both models for repetition
    ``rep``, drawing from its stream ``default_rng(rng_seed XOR rep)``.

    Degenerate trainings are resampled from the same stream; returns
    ``(model_1, model_2, holdout_1, holdout_2, n_resampled)``.
    """
    rng = np.random.default_rng(config.rng_seed ^ rep)
    for resamples in range(_MAX_RETRAIN_ATTEMPTS):
        i_1 = int(rng.integers(len(class_1)))
        i_2 = int(rng.integers(len(class_2)))
        seed_1 = int(rng.integers(2 ** 63))
        seed_2 = int(rng.integers(2 ** 63))
        try:
            model_1, _ = baum_welch(_drop(class_1, i_1),
                                    replace(config.training, rng_seed=seed_1))
            model_2, _ = baum_welch(_drop(class_2, i_2),
                                    replace(config.training, rng_seed=seed_2))
        except DegenerateStateError:
            continue
        return model_1, model_2, i_1, i_2, resamples
    raise ModelError(f"training degenerated {_MAX_RETRAIN_ATTEMPTS} times in a row")


def _repetitions(fn, config: ExperimentConfig, *args):
    """Run ``fn(config, *args, rep)`` for repetitions 0..n_repetitions-1.

    ``fn`` returns ``(result, n_resampled)``.  Returns the results in
    repetition order and their total resamples, the same whether the
    repetitions run serially or on a pool of ``n_workers`` processes.
    """
    job = partial(fn, config, *args)
    reps = range(config.n_repetitions)
    if config.n_workers <= 1 or config.n_repetitions <= 1:
        outcomes = list(map(job, reps))
    else:
        context = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods() else None)
        with ProcessPoolExecutor(max_workers=config.n_workers,
                                 mp_context=context) as pool:
            outcomes = list(pool.map(job, reps))
    return [result for result, _ in outcomes], sum(n for _, n in outcomes)


def _accuracy_repetition(config, class_1, class_2, steps, rep):
    model_1, model_2, i_1, i_2, resamples = _train_pair(class_1, class_2, config, rep)
    correct = np.zeros(len(steps), dtype=int)
    for holdout, is_class_1 in ((class_1[i_1], True), (class_2[i_2], False)):
        label_1_wins = (prefix_log_likelihoods(holdout, model_1, steps)
                        >= prefix_log_likelihoods(holdout, model_2, steps))
        correct += label_1_wins == is_class_1
    return correct, resamples


def _distance_repetition(config, class_1, class_2, rep):
    model_1, model_2, i_1, i_2, resamples = _train_pair(class_1, class_2, config, rep)
    report = cross_fitness_distance(_drop(class_1, i_1), _drop(class_2, i_2),
                                    model_1, model_2)
    return report.distance, resamples


# ---------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------

def run_accuracy_experiment(config: ExperimentConfig) -> AccuracyCurve:
    """Leave-one-out accuracy per sensor over truncated history durations.

    Each repetition contributes one prediction per class, so every accuracy
    cell is out of ``2 * n_repetitions`` predictions.
    """
    datasets = load_datasets(config)
    dt = _common_dt(datasets)
    table: dict = {}
    resampled: dict = {}
    n_total = 2 * config.n_repetitions
    for sensor in sorted(datasets):
        class_1, class_2 = datasets[sensor]
        steps = _duration_steps(config.history_durations, dt, class_1[0].n_steps)
        corrects, resampled[sensor] = _repetitions(
            _accuracy_repetition, config, class_1, class_2, steps)
        for duration, count in zip(config.history_durations, sum(corrects)):
            table[(sensor, duration)] = int(count) / n_total
    return AccuracyCurve(tuple(config.history_durations), table, n_total, resampled)


def run_distance_experiment(config: ExperimentConfig) -> DistanceTable:
    """Mean cross-fitness distance per sensor over repeated retrainings."""
    datasets = load_datasets(config)
    rows = []
    resampled: dict = {}
    for sensor in sorted(datasets):
        class_1, class_2 = datasets[sensor]
        distances, resampled[sensor] = _repetitions(
            _distance_repetition, config, class_1, class_2)
        total = 0.0
        for distance in distances:   # builtin sum() compensates from Python 3.12
            total += distance
        rows.append(DistanceRow(sensor, config.motion_type,
                                total / config.n_repetitions, config.n_repetitions))
    return DistanceTable(tuple(rows), resampled)


def run_forecast_demo(config: ExperimentConfig, history_s: float,
                      out_dir) -> list[ForecastRecord]:
    """Train per sensor, forecast one held-out trial per class, write CSVs.

    For every (sensor, class) pair this writes the forecast table and a
    companion ``truth_*`` file with the held-out trial's actual future, and
    reports how many future points fell inside the one-standard-deviation
    band.  The models and held-out trials are those of the leave-one-out
    protocol's repetition 0.
    """
    datasets = load_datasets(config)
    dt = _common_dt(datasets)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    records = []
    for sensor in sorted(datasets):
        class_1, class_2 = datasets[sensor]
        n_steps = class_1[0].n_steps
        split = _grid_steps(history_s, dt)
        if not 1 <= split < n_steps:
            raise UsageError(
                f"history of {history_s} s maps to {split} steps, needs 1 <= "
                f"steps < {n_steps}")
        model_1, model_2, i_1, i_2, _ = _train_pair(class_1, class_2, config, 0)
        for true_label, holdout in ((1, class_1[i_1]), (2, class_2[i_2])):
            history = ObservationSequence(
                holdout.values[:split], dt, sensor_id=sensor,
                trial_id=holdout.trial_id, label=holdout.label)
            traj = forecast(history, model_1, model_2)
            forecast_path = out / f"forecast_{sensor}_class{true_label}.csv"
            write_forecast_csv(traj, dt, forecast_path)

            future = holdout.values[split:]
            truth_path = out / f"truth_{sensor}_class{true_label}.csv"
            lines = ["time_s,channel,value"]
            for r in range(future.shape[0]):
                for c in range(future.shape[1]):
                    lines.append(f"{(split + r) * dt!r},{c},{float(future[r, c])!r}")
            truth_path.write_text("\n".join(lines) + "\n")

            covered = np.abs(future - traj.means) <= traj.stddevs
            records.append(ForecastRecord(
                sensor, true_label, traj.class_label, int(covered.size),
                int(covered.sum()), str(forecast_path), str(truth_path)))
    return records
