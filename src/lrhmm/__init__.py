"""Left-right hidden Markov models for motion classification and forecasting.

The package trains one Gaussian-emission state per time step of a set of
fixed-length sensor recordings, classifies new (possibly truncated)
recordings by comparing forward log-likelihoods between two trained class
models, forecasts the remainder of a partial recording as per-state means
with uncertainty bands, and measures how separable two motions are via a
cross-fitness likelihood distance.
"""

from .core import (
    DegenerateStateError,
    ForwardBackwardCache,
    LrHmmError,
    LrHmmModel,
    ModelError,
    ObservationSequence,
    ParseError,
    UsageError,
    load_model,
    model_from_json,
    model_to_json,
    save_model,
    validate_model,
)
from .dataio import (
    RIGID_SENSOR_ID,
    SyntheticConfig,
    generate_synthetic,
    load_csv,
    preprocess,
    save_csv,
)
from .distance import CrossFitnessReport, cross_fitness_distance
from .experiments import (
    ACCURACY_CSV_HEADER,
    DISTANCE_CSV_HEADER,
    AccuracyCurve,
    DistanceRow,
    DistanceTable,
    ExperimentConfig,
    ForecastRecord,
    load_datasets,
    run_accuracy_experiment,
    run_distance_experiment,
    run_forecast_demo,
)
from .forecasting import (
    FORECAST_CSV_HEADER,
    ProbabilisticTrajectory,
    export_forecast,
    forecast,
    write_forecast_csv,
)
from .inference import (
    ClassDecision,
    ViterbiResult,
    classify,
    log_likelihood,
    prefix_log_likelihoods,
    viterbi,
)
from .training import (
    TrainingConfig,
    TrainingTrace,
    baum_welch,
    forward_backward,
    initialize_model,
)

__version__ = "0.1.0"

__all__ = [
    "ACCURACY_CSV_HEADER",
    "DISTANCE_CSV_HEADER",
    "FORECAST_CSV_HEADER",
    "RIGID_SENSOR_ID",
    "AccuracyCurve",
    "ClassDecision",
    "CrossFitnessReport",
    "DegenerateStateError",
    "DistanceRow",
    "DistanceTable",
    "ExperimentConfig",
    "ForecastRecord",
    "ForwardBackwardCache",
    "LrHmmError",
    "LrHmmModel",
    "ModelError",
    "ObservationSequence",
    "ParseError",
    "ProbabilisticTrajectory",
    "SyntheticConfig",
    "TrainingConfig",
    "TrainingTrace",
    "UsageError",
    "ViterbiResult",
    "baum_welch",
    "classify",
    "cross_fitness_distance",
    "export_forecast",
    "forecast",
    "forward_backward",
    "generate_synthetic",
    "initialize_model",
    "load_csv",
    "load_datasets",
    "load_model",
    "log_likelihood",
    "model_from_json",
    "model_to_json",
    "prefix_log_likelihoods",
    "preprocess",
    "run_accuracy_experiment",
    "run_distance_experiment",
    "run_forecast_demo",
    "save_csv",
    "save_model",
    "validate_model",
    "viterbi",
    "write_forecast_csv",
]
