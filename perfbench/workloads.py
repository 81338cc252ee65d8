"""Set-up and measured phase of each benchmark workload.

All three workloads use the calibrated two-class synthetic pair of the
acceptance checks (crank motions at 1.05*pi and 1.48*pi rad/s, loose-sensor
harmonic lagging pi/2 -/+ 0.04 rad, noise 0.015, dt 0.025 s, fixed start
phase).  Every data and protocol seed is derived from the workload seed.

A set-up writes its artifacts under ``<work>/inputs``; a pass reads them in
a fresh process, runs the measured phase inside ``with phase:``, then checks
the outputs.  Only the measured phase is timed and traced.  Calls into lrhmm
go through module attributes (``lrhmm.baum_welch``) so that tracing
wrappers installed after import are seen.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from pathlib import Path

import numpy as np

import lrhmm
from lrhmm.experiments import DEFAULT_DURATIONS

DT = 0.025
LOOSE_LEVELS = (0.0, 0.3, 0.6, 1.0)     # df2..df5, as in acceptance check 5
EM_SLACK = 1e-8                         # acceptance check 3's monotonicity slack

# Repetitions are spread over independent data sets, one each: EM iteration
# counts depend mostly on the data set, so one data set per run would make
# the pass's work vary by about 15% between seeds.
LOO_DATASETS = 16
LONG_STEPS = 800
LONG_SENSOR = "df3"                      # artifact level 0.3
LONG_EM_CAP = 1
LONG_HELD_OUT_PER_CLASS = 30
STREAM_STEPS = 200
STREAM_EM_CAP = 2
STREAM_TEST_PER_CLASS = 20
STREAM_PREFIXES = 16
STREAM_SENSORS = ("dr1", "df2", "df3")
COVERAGE_BAND = (0.55, 0.80)            # acceptance check 7
TRAIN_PER_CLASS = 29


def derive(seed: int, tag: str) -> int:
    """A 31-bit seed for ``tag``, fixed by the workload seed."""
    digest = hashlib.sha256(f"{seed}/{tag}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def synthetic_pair(seed: int, n_steps: int, n_sequences: int, tag: str = "data"):
    """Class 1 and class 2 generator configs; the class seeds differ in bit
    15 so their per-trial streams (seed XOR trial) never coincide."""
    base = derive(seed, tag) << 16
    common = dict(amplitude=1.0, noise_std=0.015, duration_s=n_steps * DT,
                  dt=DT, n_sequences=n_sequences, random_start_phase=False)
    return (lrhmm.SyntheticConfig(omega=1.05 * math.pi, rng_seed=base,
                                  artifact_phase_lag=math.pi / 2 - 0.04, **common),
            lrhmm.SyntheticConfig(omega=1.48 * math.pi, rng_seed=base | 0x8000,
                                  artifact_phase_lag=math.pi / 2 + 0.04, **common))


def digest_dir(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(f.relative_to(path).as_posix().encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def em_monotone(log_likelihoods) -> bool:
    return all(b >= a - EM_SLACK for a, b in zip(log_likelihoods, log_likelihoods[1:]))


class Phase:
    """Times the measured phase and switches span recording on inside it."""

    def __init__(self, tracer, run_id: str):
        self.tracer = tracer
        self.run_id = run_id
        self.wall_s = 0.0

    def __enter__(self):
        self.tracer.run_id = self.run_id
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall_s = time.perf_counter() - self._start
        self.tracer.run_id = None
        return False


class Ops:
    """Operations attempted and failed: fits, scored recordings, model
    loads and distances.  An exception or a failed output check is a
    failure; an aborted phase fails every planned operation not yet done."""

    def __init__(self, planned: int):
        self.planned = planned
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.faults: list[str] = []

    def fault(self, detail: str) -> None:
        """A failed check that belongs to no single operation."""
        self.faults.append(detail)

    def check(self, kind: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(f"{kind}: {detail}")

    def abort(self, exc: BaseException) -> None:
        missing = max(self.planned - self.attempted, 1)
        self.attempted += missing
        self.failed += missing
        self.errors.append(f"phase aborted, {missing} operations lost: {exc!r}")


# ---------------------------------------------------------------------------
# loo_accuracy_t40: acceptance check 5's protocol at fewer repetitions
# ---------------------------------------------------------------------------

def _loo_configs(seed: int):
    """One single-repetition experiment per data set."""
    return [lrhmm.ExperimentConfig(
        n_repetitions=1, history_durations=DEFAULT_DURATIONS,
        rng_seed=derive(seed, f"protocol{i}"),
        synthetic=synthetic_pair(seed, 40, TRAIN_PER_CLASS + 1, tag=f"data{i}"),
        artifact_levels=LOOSE_LEVELS, sensors=("df2", "df3", "df4", "df5"),
        training=lrhmm.TrainingConfig(max_iterations=100), n_workers=1)
        for i in range(LOO_DATASETS)]


class LooAccuracy:
    name = "loo_accuracy_t40"
    min_passes = 1
    # The experiment makes these calls itself; the untraced pass wraps just
    # them to check each fit's EM trace and time each held-out scoring.
    probe = ("training.baum_welch", "inference.prefix_log_likelihoods")
    expect_setup = ("dataio.generate_synthetic",)
    expect_pass = ("experiments.run_accuracy_experiment", "experiments.load_datasets",
                   "dataio.generate_synthetic", "dataio.preprocess",
                   "training.baum_welch", "training.initialize_model",
                   "inference.prefix_log_likelihoods")
    n_sensors = 4

    def planned(self, role):
        # per data set and sensor: two fits and two held-out recordings
        return 0 if role == "setup" else 4 * LOO_DATASETS * self.n_sensors

    def setup(self, work: Path, seed: int, phase: Phase, ops: Ops) -> dict:
        with phase:
            digests = {}
            for i, config in enumerate(_loo_configs(seed)):
                for label, cfg in enumerate(config.synthetic, start=1):
                    by_sensor = lrhmm.generate_synthetic(cfg, config.artifact_levels, label)
                    for sensor in config.sensors:
                        values = np.stack([s.values for s in by_sensor[sensor]])
                        digests[f"data{i}/{sensor}/class{label}"] = hashlib.sha256(
                            values.tobytes()).hexdigest()
            (work / "inputs" / "datasets.json").write_text(json.dumps(digests, indent=1))
        return {}

    def run_pass(self, work: Path, seed: int, phase: Phase, ops: Ops) -> dict:
        configs = _loo_configs(seed)
        with phase:
            curves = [lrhmm.run_accuracy_experiment(config) for config in configs]
        spans = phase.tracer.spans
        # A fit that raised DegenerateStateError was resampled by the
        # experiment; the protocol counts it in curve.resampled.
        fits = [s for s in spans if s[0] == "training.baum_welch" and "raised" not in s[5]]
        for s in fits:
            ops.check("fit", em_monotone(s[5]["log_likelihoods"]),
                      f"EM trace decreases: {s[5]['log_likelihoods']}")
        # Each repetition scores its class 1 recording under both models, then
        # its class 2 recording: four consecutive calls per sensor.  The first
        # call after the fits runs cold, so one sample is the repetition's mean
        # time per recording, not each recording's own time (half cold, half
        # warm).
        scoring = [s for s in spans if s[0] == "inference.prefix_log_likelihoods"]
        reps = [scoring[i:i + 4] for i in range(0, len(scoring), 4)]
        score_ms = [sum(s[2] - s[1] for s in rep) * 1e3 / 2 for rep in reps
                    if len(rep) == 4 and rep[0][5]["seq"] == rep[1][5]["seq"]
                    and rep[2][5]["seq"] == rep[3][5]["seq"]]
        if len(score_ms) != len(reps):
            ops.fault("held-out scoring calls do not come in fours per repetition")
        # Accuracy at the longest history is pooled over the data sets.  A
        # sensor below 0.95 fails its misclassified recordings; above it, a
        # few misses are within the protocol.
        longest = DEFAULT_DURATIONS[-1]
        n_total = sum(curve.n_total for curve in curves)
        for sensor in configs[0].sensors:
            hits = sum(round(curve.accuracy(sensor, longest) * curve.n_total)
                       for curve in curves)
            accuracy = hits / n_total
            failing = n_total - hits if accuracy < 0.95 else 0
            for i in range(n_total):
                ops.check("recording", i >= failing,
                          f"{sensor} accuracy {accuracy} < 0.95 at {longest} s")
        decisions = len(DEFAULT_DURATIONS) * 2 * len(score_ms)
        return {"score_ms": score_ms, "decisions": decisions,
                "resamples": sum(sum(curve.resampled.values()) for curve in curves)}


# ---------------------------------------------------------------------------
# long_horizon_t800: train, save, reload, distance and forecast at T = 800
# ---------------------------------------------------------------------------

def _long_sequences(work: Path, label: int):
    values = np.load(work / "inputs" / f"class{label}.npy")
    return [lrhmm.ObservationSequence(v, DT, sensor_id=LONG_SENSOR, trial_id=i, label=label)
            for i, v in enumerate(values)]


class LongHorizon:
    name = "long_horizon_t800"
    min_passes = 1
    probe = ()
    expect_setup = ("dataio.generate_synthetic",)
    expect_pass = ("training.baum_welch", "training.initialize_model",
                   "core.save_model", "core.model_to_json", "core.load_model",
                   "core.model_from_json", "core.validate_model",
                   "distance.cross_fitness_distance", "inference.log_likelihood",
                   "inference.classify", "inference.viterbi", "forecasting.forecast")

    def planned(self, role):
        return 0 if role == "setup" else 2 + 2 + 1 + 2 * LONG_HELD_OUT_PER_CLASS

    def setup(self, work: Path, seed: int, phase: Phase, ops: Ops) -> dict:
        with phase:
            for label, cfg in enumerate(synthetic_pair(
                    seed, LONG_STEPS, TRAIN_PER_CLASS + LONG_HELD_OUT_PER_CLASS), start=1):
                seqs = lrhmm.generate_synthetic(cfg, LOOSE_LEVELS[:2], label)[LONG_SENSOR]
                np.save(work / "inputs" / f"class{label}.npy",
                        np.stack([s.values for s in seqs]))
        return {}

    def run_pass(self, work: Path, seed: int, phase: Phase, ops: Ops) -> dict:
        sets = [_long_sequences(work, label) for label in (1, 2)]
        train = [s[:TRAIN_PER_CLASS] for s in sets]
        held_out = [r for s in sets for r in s[TRAIN_PER_CLASS:]]
        histories = [lrhmm.ObservationSequence(
            s.values[:LONG_STEPS // 2], s.dt, sensor_id=s.sensor_id,
            trial_id=s.trial_id, label=s.label) for s in held_out]
        configs = [lrhmm.TrainingConfig(max_iterations=LONG_EM_CAP,
                                        rng_seed=derive(seed, f"fit{label}"))
                   for label in (1, 2)]
        paths = [work / f"{phase.run_id}-model{label}.json" for label in (1, 2)]
        score_ms = []
        with phase:
            fitted = [lrhmm.baum_welch(seqs, config) for seqs, config in zip(train, configs)]
            for (model, _), path in zip(fitted, paths):
                lrhmm.save_model(model, path)
            loaded = [lrhmm.load_model(path) for path in paths]
            report = lrhmm.cross_fitness_distance(train[0], train[1], *loaded)
            forecasts = []
            for history in histories:
                start = time.perf_counter()
                forecasts.append(lrhmm.forecast(history, *loaded))
                score_ms.append((time.perf_counter() - start) * 1e3)

        for model, trace in fitted:
            ops.check("fit", em_monotone(trace.log_likelihoods),
                      f"EM trace decreases: {trace.log_likelihoods}")
        checked = [s[TRAIN_PER_CLASS] for s in sets] + [t[0] for t in train]
        for (model, _), reloaded, path in zip(fitted, loaded, paths):
            violations = lrhmm.validate_model(reloaded)
            same = all(lrhmm.log_likelihood(s, model) == lrhmm.log_likelihood(s, reloaded)
                       for s in checked)
            ops.check("model load", same and not violations,
                      f"{path.name}: log-likelihoods identical={same}, "
                      f"violations={violations[:3]}")
            path.unlink()
        ops.check("distance", math.isfinite(report.distance) and report.distance > 0,
                  f"distance {report.distance!r} is not finite and > 0")
        for history, traj in zip(histories, forecasts):
            ops.check("recording", traj.class_label == history.label,
                      f"held-out class {history.label} forecast as {traj.class_label}")
        return {"score_ms": score_ms, "decisions": len(forecasts)}


# ---------------------------------------------------------------------------
# stream_score_t200_m3: load models and recordings, score prefixes, forecast
# ---------------------------------------------------------------------------

def _stacked(cfg, label: int):
    by_sensor = lrhmm.generate_synthetic(cfg, LOOSE_LEVELS[:2], label)
    return [lrhmm.ObservationSequence(
        np.hstack([by_sensor[s][i].values for s in STREAM_SENSORS]), cfg.dt,
        sensor_id="stack", trial_id=i, label=label) for i in range(cfg.n_sequences)]


class StreamScore:
    name = "stream_score_t200_m3"
    min_passes = 2          # the outputs of two passes are compared byte for byte
    probe = ()
    expect_setup = ("dataio.generate_synthetic", "dataio.save_csv",
                    "training.baum_welch", "training.initialize_model",
                    "core.save_model", "core.model_to_json")
    expect_pass = ("core.load_model", "core.model_from_json", "core.validate_model",
                   "dataio.load_csv", "inference.prefix_log_likelihoods",
                   "forecasting.forecast", "inference.classify",
                   "inference.log_likelihood", "inference.viterbi",
                   "forecasting.write_forecast_csv", "forecasting.export_forecast")

    def planned(self, role):
        return 2 if role == "setup" else 2 + 2 * STREAM_TEST_PER_CLASS

    def setup(self, work: Path, seed: int, phase: Phase, ops: Ops) -> dict:
        inputs = work / "inputs"
        (inputs / "recordings").mkdir()
        traces = []
        with phase:
            for label, cfg in enumerate(synthetic_pair(
                    seed, STREAM_STEPS, TRAIN_PER_CLASS + STREAM_TEST_PER_CLASS), start=1):
                seqs = _stacked(cfg, label)
                for s in seqs[TRAIN_PER_CLASS:]:
                    lrhmm.save_csv(s, inputs / "recordings"
                                   / f"class{label}-trial{s.trial_id:03d}.csv")
                config = lrhmm.TrainingConfig(max_iterations=STREAM_EM_CAP,
                                              rng_seed=derive(seed, f"fit{label}"))
                model, trace = lrhmm.baum_welch(seqs[:TRAIN_PER_CLASS], config)
                traces.append(trace)
                lrhmm.save_model(model, inputs / f"model{label}.json")
        for trace in traces:
            ops.check("fit", em_monotone(trace.log_likelihoods),
                      f"EM trace decreases: {trace.log_likelihoods}")
        return {}

    def run_pass(self, work: Path, seed: int, phase: Phase, ops: Ops) -> dict:
        inputs = work / "inputs"
        out = work / phase.run_id
        out.mkdir()
        steps = np.arange(1, STREAM_PREFIXES + 1) * STREAM_STEPS // STREAM_PREFIXES
        split = STREAM_STEPS // 2
        score_ms, scored = [], []
        with phase:
            models = [lrhmm.load_model(inputs / f"model{label}.json") for label in (1, 2)]
            recordings = lrhmm.load_csv(inputs / "recordings")
            for i, rec in enumerate(recordings):
                start = time.perf_counter()
                lls = [lrhmm.prefix_log_likelihoods(rec, m, steps) for m in models]
                history = lrhmm.ObservationSequence(
                    rec.values[:split], rec.dt, sensor_id=rec.sensor_id,
                    trial_id=rec.trial_id, label=rec.label)
                traj = lrhmm.forecast(history, *models)
                lrhmm.write_forecast_csv(traj, rec.dt, out / f"forecast{i:03d}.csv")
                score_ms.append((time.perf_counter() - start) * 1e3)
                scored.append((rec, lls, traj))

        for model in models:
            ops.check("model load", (model.n_states, model.n_dims)
                      == (STREAM_STEPS, len(STREAM_SENSORS)),
                      f"loaded a {model.n_states}-state {model.n_dims}-channel model")
        hits = [np.abs(rec.values[split:] - traj.means) <= traj.stddevs
                for rec, _, traj in scored]
        coverage = sum(int(h.sum()) for h in hits) / max(sum(h.size for h in hits), 1)
        covered = COVERAGE_BAND[0] <= coverage <= COVERAGE_BAND[1]
        # File names encode the true class; the CSV label is program output.
        truth = [int(p.name[len("class")]) for p in
                 sorted((inputs / "recordings").glob("*.csv"))]
        if len(scored) > len(truth):
            ops.fault(f"loaded {len(scored)} recordings, set up {len(truth)}")
        for _ in range(len(truth) - len(scored)):
            ops.check("recording", False,
                      f"loaded {len(scored)} recordings, set up {len(truth)}")
        digests = []
        for i, ((rec, lls, traj), label) in enumerate(zip(scored, truth)):
            decision = 1 if lls[0][-1] >= lls[1][-1] else 2
            text = (out / f"forecast{i:03d}.csv").read_bytes()
            digests.append(hashlib.sha256(
                text + repr([ll.tolist() for ll in lls]).encode()).hexdigest())
            ops.check("recording", covered and decision == label == rec.label,
                      f"trial {rec.trial_id}: class {label} (file label {rec.label}) "
                      f"decided as {decision}; one-sigma band coverage "
                      f"{coverage:.3f}, required {COVERAGE_BAND}")
        return {"score_ms": score_ms, "decisions": STREAM_PREFIXES * len(scored),
                "coverage": coverage, "digests": digests}


WORKLOADS = {w.name: w for w in (LooAccuracy(), LongHorizon(), StreamScore())}
