"""Command line interface.

Subcommands: ``generate``, ``train``, ``classify``, ``forecast``,
``distance``, ``accuracy-curve``.  ``--out`` names the output file or
directory.  All but ``classify`` and ``forecast`` take ``--seed``, which
fixes the random stream, and ``--config``, a ``key=value`` text file; the
experiment subcommands also take ``--workers``, their process pool size.
``--durations`` takes ``start:stop:step`` (inclusive) or a comma list of
seconds.

Exit codes: 0 on success, 2 on usage errors, 1 on data or model errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path

from .core import (
    LrHmmError,
    ObservationSequence,
    UsageError,
    _grid_steps,
    _read_text,
    load_model,
    save_model,
)
from .dataio import SyntheticConfig, generate_synthetic, load_csv, preprocess, save_csv
from .experiments import (
    DEFAULT_DURATIONS,
    ExperimentConfig,
    run_accuracy_experiment,
    run_distance_experiment,
)
from .forecasting import forecast, write_forecast_csv
from .inference import classify
from .training import TrainingConfig, baum_welch


# ---------------------------------------------------------------------------
# config files and argument parsing helpers
# ---------------------------------------------------------------------------

def _bool(raw: str) -> bool:
    if raw.lower() in ("1", "true", "yes"):
        return True
    if raw.lower() in ("0", "false", "no"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _floats(raw: str) -> tuple:
    return tuple(float(x) for x in raw.split(",") if x.strip())


# Every key some subcommand reads from a config file, with its type.
_CONFIG_KEYS = {
    # generation
    "omega1": float, "omega2": float, "amplitude": float,
    "artifact_amplitude": float, "artifact_phase_lag": float,
    "artifact_phase_lag1": float, "artifact_phase_lag2": float,
    "noise_std": float, "duration_s": float, "dt": float, "n_sequences": int,
    "random_start_phase": _bool, "seed1": int, "seed2": int,
    "artifact_levels": _floats,
    # training
    "max_iterations": int, "loglik_rel_tolerance": float,
    "covariance_floor_eps": float, "band_width": int,
    # experiments
    "n_repetitions": int, "scale_divisor": float, "align": _bool, "motion_type": str,
}


def read_config(path) -> dict[str, str]:
    """Parse a ``key=value`` text file; '#' starts a comment line.

    A key that no subcommand reads is a usage error, so a misspelt key
    cannot silently leave its default in force.
    """
    config: dict[str, str] = {}
    text = _read_text(path, "config")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise UsageError(f"{path}:{lineno}: expected 'key=value', got {line!r}")
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        config[key] = value.strip()
    return config


def _get(config: dict, key: str, default):
    if key not in config:
        return default
    try:
        return _CONFIG_KEYS[key](config[key])
    except ValueError as exc:
        raise UsageError(f"config key {key!r}: {exc}") from None


def parse_durations(text: str) -> tuple:
    """Parse ``start:stop:step`` (inclusive) or a comma list of seconds."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise UsageError(f"durations range must be start:stop:step, got {text!r}")
        try:
            start, stop, step = (float(p) for p in parts)
        except ValueError as exc:
            raise UsageError(f"bad durations range {text!r}: {exc}") from None
        if step <= 0 or stop < start or not all(
                map(math.isfinite, (start, stop, step, (stop - start) / step))):
            raise UsageError(f"bad durations range {text!r}")
        count = int(round((stop - start) / step)) + 1
        return tuple(round(start + i * step, 9) for i in range(count))
    try:
        values = tuple(float(p) for p in text.split(",") if p.strip())
    except ValueError as exc:
        raise UsageError(f"bad durations list {text!r}: {exc}") from None
    if not values:
        raise UsageError("empty durations list")
    if not all(map(math.isfinite, values)):
        raise UsageError(f"durations must be finite, got {text!r}")
    return values


def _training_config(config: dict) -> TrainingConfig:
    return TrainingConfig(
        max_iterations=_get(config, "max_iterations", 100),
        loglik_rel_tolerance=_get(config, "loglik_rel_tolerance", 1e-6),
        covariance_floor_eps=_get(config, "covariance_floor_eps", 1e-6),
        band_width=_get(config, "band_width", 1),
    )


def _synthetic_pair(config: dict, seed: int):
    common = dict(
        amplitude=_get(config, "amplitude", 1.0),
        artifact_amplitude=_get(config, "artifact_amplitude", 0.0),
        noise_std=_get(config, "noise_std", 0.05),
        duration_s=_get(config, "duration_s", 5.0),
        dt=_get(config, "dt", 0.025),
        n_sequences=_get(config, "n_sequences", 30),
        random_start_phase=_get(config, "random_start_phase", False),
    )
    lag = _get(config, "artifact_phase_lag", math.pi / 2)
    # class 2 defaults to a seed in a disjoint XOR range so the two classes
    # never share per-trial noise streams
    cfg_1 = SyntheticConfig(omega=_get(config, "omega1", 1.05 * math.pi),
                            artifact_phase_lag=_get(config, "artifact_phase_lag1", lag),
                            rng_seed=_get(config, "seed1", seed), **common)
    cfg_2 = SyntheticConfig(omega=_get(config, "omega2", 1.48 * math.pi),
                            artifact_phase_lag=_get(config, "artifact_phase_lag2", lag),
                            rng_seed=_get(config, "seed2", seed + 2 ** 32),
                            **common)
    levels = _get(config, "artifact_levels", (0.0, 0.3, 0.6, 1.0))
    return cfg_1, cfg_2, levels


def _experiment_config(args, default_reps: int) -> ExperimentConfig:
    config = read_config(args.config) if args.config else {}
    durations = (parse_durations(args.durations) if getattr(args, "durations", None)
                 else DEFAULT_DURATIONS)
    reps = args.reps if args.reps is not None else _get(config, "n_repetitions",
                                                        default_reps)
    return ExperimentConfig(
        n_repetitions=reps,
        history_durations=durations,
        rng_seed=args.seed,
        data_dir=args.data,
        scale_divisor=_get(config, "scale_divisor", 1.0),
        align=_get(config, "align", False),
        training=_training_config(config),
        n_workers=args.workers,
        motion_type=_get(config, "motion_type", "simple_harmonic"),
    )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_generate(args) -> None:
    config = read_config(args.config) if args.config else {}
    cfg_1, cfg_2, levels = _synthetic_pair(config, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for label, cfg in ((1, cfg_1), (2, cfg_2)):
        for sensor, seqs in generate_synthetic(cfg, levels, label=label).items():
            for seq in seqs:
                save_csv(seq, out / f"{sensor}-class{label}-trial{seq.trial_id:03d}.csv")


def _load_training_pool(args, config: dict):
    pool = load_csv(args.data)
    sensors = sorted({s.sensor_id for s in pool})
    sensor = args.sensor
    if sensor is None:
        if len(sensors) != 1:
            raise UsageError(f"--sensor is required; data contains {sensors}")
        sensor = sensors[0]
    elif sensor not in sensors:
        raise UsageError(f"sensor {sensor!r} not in data (found {sensors})")
    pool = [s for s in pool if s.sensor_id == sensor]
    pool = preprocess(pool, _get(config, "scale_divisor", 1.0), None,
                      _get(config, "align", False))
    pool = [s for s in pool if s.label == args.label]
    if not pool:
        raise UsageError(f"no sequences with label {args.label} for sensor {sensor!r}")
    return pool


def _cmd_train(args) -> None:
    config = read_config(args.config) if args.config else {}
    pool = _load_training_pool(args, config)
    training = _training_config(config)
    if args.seed is not None:
        training = dataclasses.replace(training, rng_seed=args.seed)
    model, trace = baum_welch(pool, training)
    save_model(model, args.out)
    print(f"trained {model.n_states}-state model on {len(pool)} sequences "
          f"({trace.iterations_run} iterations, "
          f"{'converged' if trace.converged else 'iteration cap reached'})")


def _truncated(seq, duration_s: float | None):
    if duration_s is None:
        return seq
    steps = _grid_steps(duration_s, seq.dt)
    if not 1 <= steps <= seq.n_steps:
        raise UsageError(
            f"duration {duration_s} s maps to {steps} steps, needs 1 <= steps "
            f"<= {seq.n_steps}")
    return ObservationSequence(seq.values[:steps], seq.dt, sensor_id=seq.sensor_id,
                               trial_id=seq.trial_id, label=seq.label)


def _single_recording(path) -> ObservationSequence:
    seqs = load_csv(path)
    if len(seqs) != 1:
        raise UsageError(f"--input must name one recording; {path} holds {len(seqs)}")
    return seqs[0]


def _cmd_classify(args) -> None:
    model_1 = load_model(args.model1)
    model_2 = load_model(args.model2)
    seq = _single_recording(args.input)
    decision = classify(_truncated(seq, args.duration), model_1, model_2)
    lines = ["label,ll_1,ll_2,margin",
             f"{decision.label},{decision.log_likelihoods[0]!r},"
             f"{decision.log_likelihoods[1]!r},{decision.margin!r}"]
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _cmd_forecast(args) -> None:
    model_1 = load_model(args.model1)
    model_2 = load_model(args.model2)
    seq = _single_recording(args.input)
    history = _truncated(seq, args.history)
    traj = forecast(history, model_1, model_2)
    write_forecast_csv(traj, seq.dt, args.out)


def _cmd_distance(args) -> None:
    run_distance_experiment(_experiment_config(args, default_reps=10)).to_csv(args.out)


def _cmd_accuracy_curve(args) -> None:
    run_accuracy_experiment(_experiment_config(args, default_reps=100)).to_csv(args.out)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lrhmm",
        description="Left-right HMM motion classification and forecasting.")
    sub = parser.add_subparsers(dest="command", required=True)

    def seeded(p, seed_default=0, workers=False):
        p.add_argument("--seed", type=int, default=seed_default,
                       help="base random seed")
        p.add_argument("--config", help="key=value configuration file")
        if workers:
            p.add_argument("--workers", type=int, default=1, help="process pool size")

    p = sub.add_parser("generate", help="write a synthetic two-class data set")
    seeded(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("train", help="train one class model from sequence CSVs")
    seeded(p, seed_default=None)
    p.add_argument("--data", required=True, help="sequence CSV file or directory")
    p.add_argument("--label", type=int, required=True, choices=(1, 2))
    p.add_argument("--sensor", help="sensor id (required if the data has several)")
    p.add_argument("--out", required=True, help="output model JSON path")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("classify", help="label a recording with two models")
    p.add_argument("--model1", required=True)
    p.add_argument("--model2", required=True)
    p.add_argument("--input", required=True, help="sequence CSV file")
    p.add_argument("--duration", type=float,
                   help="truncate the input to this many seconds")
    p.add_argument("--out", help="write the decision CSV here instead of stdout")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("forecast", help="forecast the remainder of a recording")
    p.add_argument("--model1", required=True)
    p.add_argument("--model2", required=True)
    p.add_argument("--input", required=True, help="sequence CSV file")
    p.add_argument("--history", type=float, required=True,
                   help="observed history length in seconds")
    p.add_argument("--out", required=True, help="output forecast CSV path")
    p.set_defaults(func=_cmd_forecast)

    p = sub.add_parser("distance", help="mean cross-fitness distance per sensor")
    seeded(p, workers=True)
    p.add_argument("--data", required=True, help="sequence CSV directory")
    p.add_argument("--reps", type=int, help="number of repetitions (default 10)")
    p.add_argument("--out", required=True, help="output distance CSV path")
    p.set_defaults(func=_cmd_distance)

    p = sub.add_parser("accuracy-curve",
                       help="leave-one-out accuracy over history durations")
    seeded(p, workers=True)
    p.add_argument("--data", required=True, help="sequence CSV directory")
    p.add_argument("--reps", type=int, help="number of repetitions (default 100)")
    p.add_argument("--durations", help="start:stop:step or comma list of seconds")
    p.add_argument("--out", required=True, help="output accuracy CSV path")
    p.set_defaults(func=_cmd_accuracy_curve)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LrHmmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        # inputs are read through ParseError, so this is an output that
        # could not be written, e.g. an --out inside a missing directory
        print(f"error: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
