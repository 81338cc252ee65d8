import json
import os
import subprocess
import sys

import numpy as np
import pytest

from lrhmm import (
    ObservationSequence,
    ParseError,
    UsageError,
    classify,
    load_csv,
    load_model,
    save_csv,
)
from lrhmm.cli import parse_durations, read_config
from helpers import _PACKAGE_PARENT, BROKEN_BAND_DOCS, dense_a_doc, run_cli

GEN_CFG = """\
# small data set so the commands stay fast
duration_s = 0.25
n_sequences = 4
noise_std = 0.03
artifact_levels = 0.0,0.8
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A generated data set plus one trained model per class."""
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "gen.cfg"
    cfg.write_text(GEN_CFG)
    data = root / "data"
    assert run_cli("generate", "--seed", 5, "--config", cfg, "--out", data).returncode == 0
    for label in (1, 2):
        result = run_cli("train", "--data", data, "--label", label,
                         "--sensor", "df2", "--seed", label,
                         "--out", root / f"m{label}.json", "--config", cfg)
        assert result.returncode == 0, result.stderr
    return root


def test_generate_writes_one_file_per_sensor_trial_and_class(workspace):
    names = sorted(p.name for p in (workspace / "data").glob("*.csv"))
    assert len(names) == 3 * 4 * 2   # sensors {dr1, df2, df3} x 4 trials x 2 classes
    assert "dr1-class1-trial000.csv" in names
    assert "df3-class2-trial003.csv" in names


def test_generate_is_reproducible(workspace, tmp_path):
    cfg = workspace / "gen.cfg"
    assert run_cli("generate", "--seed", 5, "--config", cfg,
                   "--out", tmp_path / "again").returncode == 0
    for path in sorted((workspace / "data").glob("*.csv")):
        assert (tmp_path / "again" / path.name).read_bytes() == path.read_bytes()


def test_trained_model_file_is_loadable(workspace):
    model = load_model(workspace / "m1.json")
    assert model.n_states == 10
    assert model.n_dims == 1


def test_train_is_deterministic_for_a_seed(workspace, tmp_path):
    cfg = workspace / "gen.cfg"
    for out in ("a.json", "b.json"):
        assert run_cli("train", "--data", workspace / "data", "--label", 1,
                       "--sensor", "df2", "--seed", 1, "--config", cfg,
                       "--out", tmp_path / out).returncode == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    assert (tmp_path / "a.json").read_bytes() == (workspace / "m1.json").read_bytes()


def test_train_with_a_band_wider_than_the_recordings(workspace, tmp_path):
    cfg = tmp_path / "train.cfg"
    cfg.write_text("band_width = 12\n")        # the recordings have 10 steps
    result = run_cli("train", "--data", workspace / "data", "--label", 1,
                     "--sensor", "df2", "--config", cfg, "--out", tmp_path / "m.json")
    assert result.returncode == 0, result.stderr
    # the model keeps the full band of its 10 states
    assert load_model(tmp_path / "m.json").band_width == 9


def test_commands_run_without_scipy(workspace, tmp_path):
    # SciPy serves the tests only: train, classify and forecast must run,
    # and train the same models, with every import of it failing
    data = workspace / "data"
    commands = [["train", "--data", data, "--label", label, "--sensor", "df2",
                 "--seed", label, "--config", workspace / "gen.cfg",
                 "--out", tmp_path / f"m{label}.json"] for label in (1, 2)]
    models = ["--model1", tmp_path / "m1.json", "--model2", tmp_path / "m2.json",
              "--input", data / "df2-class1-trial000.csv"]
    commands += [["classify", *models, "--out", tmp_path / "decision.csv"],
                 ["forecast", *models, "--history", 0.1, "--out", tmp_path / "fc.csv"]]
    code = ("import json, sys\n"
            "sys.modules['scipy'] = None\n"
            "from lrhmm.cli import main\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    assert main(argv) == 0, argv\n")
    argv = json.dumps([[str(arg) for arg in command] for command in commands])
    result = subprocess.run([sys.executable, "-c", code, argv], capture_output=True,
                            text=True, env=dict(os.environ, PYTHONPATH=_PACKAGE_PARENT))
    assert result.returncode == 0, result.stderr
    for label in (1, 2):
        assert ((tmp_path / f"m{label}.json").read_bytes()
                == (workspace / f"m{label}.json").read_bytes())
    assert (tmp_path / "decision.csv").read_text().startswith("label,ll_1,ll_2,margin\n1,")
    assert (tmp_path / "fc.csv").stat().st_size > 0


def test_train_requires_sensor_choice_on_mixed_data(workspace):
    result = run_cli("train", "--data", workspace / "data", "--label", 1,
                     "--out", "/dev/null")
    assert result.returncode == 2
    assert "--sensor" in result.stderr


def test_classify_prints_a_decision(workspace):
    result = run_cli("classify", "--model1", workspace / "m1.json",
                     "--model2", workspace / "m2.json",
                     "--input", workspace / "data" / "df2-class1-trial000.csv")
    assert result.returncode == 0, result.stderr
    header, row = result.stdout.splitlines()
    assert header == "label,ll_1,ll_2,margin"
    label, ll_1, ll_2, margin = row.split(",")
    assert label == "1"
    assert float(margin) == abs(float(ll_1) - float(ll_2))


def test_classify_with_truncated_duration(workspace):
    # the CLI decision on a 0.1 s prefix must match classifying the
    # truncated sequence through the library directly
    recording = workspace / "data" / "df2-class2-trial001.csv"
    result = run_cli("classify", "--model1", workspace / "m1.json",
                     "--model2", workspace / "m2.json",
                     "--input", recording, "--duration", 0.1)
    assert result.returncode == 0, result.stderr
    row = result.stdout.splitlines()[1].split(",")

    sequence = load_csv(recording)[0]
    truncated = ObservationSequence(sequence.values[:4], sequence.dt)
    expected = classify(truncated, load_model(workspace / "m1.json"),
                        load_model(workspace / "m2.json"))
    assert int(row[0]) == expected.label
    assert float(row[1]) == expected.log_likelihoods[0]
    assert float(row[2]) == expected.log_likelihoods[1]

    full = run_cli("classify", "--model1", workspace / "m1.json",
                   "--model2", workspace / "m2.json", "--input", recording)
    assert full.stdout.splitlines()[1] != result.stdout.splitlines()[1]


def test_forecast_writes_the_expected_rows(workspace, tmp_path):
    out = tmp_path / "fc.csv"
    result = run_cli("forecast", "--model1", workspace / "m1.json",
                     "--model2", workspace / "m2.json",
                     "--input", workspace / "data" / "df2-class1-trial002.csv",
                     "--history", 0.125, "--out", out)
    assert result.returncode == 0, result.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == "time_s,channel,mean,lower,upper,class"
    assert len(lines) == 1 + 5   # ten steps total, five observed
    assert float(lines[1].split(",")[0]) == pytest.approx(0.125)


def test_distance_subcommand(workspace, tmp_path):
    out = tmp_path / "distance.csv"
    result = run_cli("distance", "--data", workspace / "data", "--reps", 2,
                     "--seed", 3, "--out", out)
    assert result.returncode == 0, result.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == "sensor_id,motion_type,mean_distance,n_repetitions"
    assert [l.split(",")[0] for l in lines[1:]] == ["df2", "df3", "dr1"]


def test_accuracy_curve_subcommand(workspace, tmp_path):
    out = tmp_path / "accuracy.csv"
    result = run_cli("accuracy-curve", "--data", workspace / "data", "--reps", 2,
                     "--durations", "0.05:0.25:0.1", "--seed", 3, "--out", out)
    assert result.returncode == 0, result.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == "sensor,duration_s,accuracy,n_total"
    assert len(lines) == 1 + 3 * 3   # three sensors, durations 0.05/0.15/0.25
    for line in lines[1:]:
        assert 0.0 <= float(line.split(",")[2]) <= 1.0


def test_experiment_outputs_are_identical_across_workers(workspace, tmp_path):
    outputs = []
    for name, workers in (("s.csv", 1), ("p.csv", 2)):
        out = tmp_path / name
        result = run_cli("accuracy-curve", "--data", workspace / "data",
                         "--reps", 2, "--durations", "0.05,0.25",
                         "--seed", 3, "--workers", workers, "--out", out)
        assert result.returncode == 0, result.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_usage_errors_exit_with_2(workspace, tmp_path):
    result = run_cli("accuracy-curve", "--data", workspace / "data",
                     "--durations", "0.05:0.25", "--out", tmp_path / "x.csv")
    assert result.returncode == 2
    assert "start:stop:step" in result.stderr
    result = run_cli("train", "--data", workspace / "data", "--label", 7,
                     "--out", tmp_path / "m.json")
    assert result.returncode == 2   # argparse rejects the label choice


@pytest.mark.parametrize("args", [
    ("classify", "--model1", "m1.json", "--model2", "m2.json", "--input", "r.csv",
     "--config", "missing.cfg"),
    ("train", "--data", "data", "--label", 1, "--out", "m.json", "--workers", 2),
], ids=["classify_config", "train_workers"])
def test_options_a_subcommand_never_reads_are_usage_errors(workspace, args):
    result = run_cli(*args, cwd=workspace)
    assert result.returncode == 2
    assert "error: unrecognized arguments: " in result.stderr


def test_data_errors_exit_with_1(tmp_path):
    result = run_cli("distance", "--data", tmp_path / "missing",
                     "--out", tmp_path / "d.csv")
    assert result.returncode == 1
    assert "error:" in result.stderr


@pytest.mark.parametrize("corrupt", [
    lambda doc: doc.update(n_states=doc["n_states"] + 1),
    lambda doc: doc["emissions"][3].update(mean=[float("nan")]),
    lambda doc: doc["pi"].__setitem__(0, -1.0),
], ids=["n_states", "nan_mean", "negative_probability"])
def test_malformed_model_file_exits_with_1(workspace, tmp_path, corrupt):
    doc = json.loads((workspace / "m1.json").read_text())
    corrupt(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    result = run_cli("classify", "--model1", bad, "--model2", workspace / "m2.json",
                     "--input", workspace / "data" / "df2-class1-trial000.csv")
    assert result.returncode == 1, result.stderr
    assert result.stderr.startswith("error: invalid model")


@pytest.mark.parametrize("defect", sorted(BROKEN_BAND_DOCS))
def test_broken_band_model_file_exits_with_1(workspace, tmp_path, defect):
    doc = json.loads((workspace / "m1.json").read_text())
    BROKEN_BAND_DOCS[defect](doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    result = run_cli("classify", "--model1", bad, "--model2", workspace / "m2.json",
                     "--input", workspace / "data" / "df2-class1-trial000.csv")
    assert result.returncode == 1, result.stderr
    assert result.stderr.startswith("error: ")
    assert "Traceback" not in result.stderr


def test_dense_a_model_file_exits_with_1(workspace, tmp_path):
    # a dense A was read as its band; the package writes only A_band
    dense = tmp_path / "dense.json"
    dense.write_text(json.dumps(dense_a_doc(json.loads((workspace / "m1.json").read_text()))))
    with pytest.raises(ParseError, match="A_band"):
        load_model(dense)
    result = run_cli("classify", "--model1", dense, "--model2", workspace / "m2.json",
                     "--input", workspace / "data" / "df2-class1-trial000.csv")
    assert result.returncode == 1, result.stderr
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "A_band" in lines[0]


@pytest.mark.parametrize("command", [["classify"], ["forecast", "--history", 0.1]])
def test_deeply_nested_model_file_exits_with_1(workspace, tmp_path, command):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    result = run_cli(*command, "--model1", deep, "--model2", workspace / "m2.json",
                     "--input", workspace / "data" / "df2-class1-trial000.csv",
                     "--out", tmp_path / "out.csv")
    assert result.returncode == 1, result.stderr
    assert result.stderr.startswith("error: invalid model JSON")
    assert "Traceback" not in result.stderr


def test_missing_model_file_exits_with_1(workspace, tmp_path):
    result = run_cli("forecast", "--model1", workspace / "m1.json",
                     "--model2", tmp_path / "missing.json",
                     "--input", workspace / "data" / "df2-class1-trial000.csv",
                     "--history", 0.1, "--out", tmp_path / "fc.csv")
    assert result.returncode == 1
    assert result.stderr.startswith("error:")
    assert "missing.json" in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("command", [["classify"], ["forecast", "--history", 0.1]])
def test_input_directory_exits_with_2(workspace, tmp_path, command):
    result = run_cli(*command, "--model1", workspace / "m1.json",
                     "--model2", workspace / "m2.json",
                     "--input", workspace / "data", "--out", tmp_path / "out.csv")
    assert result.returncode == 2
    assert result.stderr.startswith("error:")
    assert "holds 24" in result.stderr


def test_bad_config_file_exits_with_2(workspace, tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("duration_s: 1.0\n")
    result = run_cli("generate", "--config", bad, "--out", tmp_path / "d")
    assert result.returncode == 2
    assert "key=value" in result.stderr


def test_unknown_config_key_exits_with_2(workspace, tmp_path):
    cfg = tmp_path / "train.cfg"
    cfg.write_text("# one letter short of max_iterations\nmax_iteration = 1\n")
    result = run_cli("train", "--data", workspace / "data", "--label", 1,
                     "--sensor", "df2", "--config", cfg, "--out", tmp_path / "m.json")
    assert result.returncode == 2
    assert result.stderr.startswith("error:")
    assert "train.cfg:2" in result.stderr
    assert "'max_iteration'" in result.stderr
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("key", ["covariance_floor_eps", "loglik_rel_tolerance"])
def test_non_finite_training_config_exits_with_2(workspace, tmp_path, key):
    cfg = tmp_path / "train.cfg"
    cfg.write_text(f"{key} = inf\n")
    result = run_cli("train", "--data", workspace / "data", "--label", 1,
                     "--sensor", "df2", "--config", cfg, "--out", tmp_path / "m.json")
    assert result.returncode == 2
    assert result.stderr.startswith("error:")
    assert key in result.stderr
    assert not (tmp_path / "m.json").exists()


def test_non_positive_definite_em_covariance_exits_with_1(tmp_path):
    # the second channel is 3x the first at level 1e9: with a negligible
    # covariance floor an M-step covariance loses positive definiteness
    rng = np.random.default_rng(0)
    data = tmp_path / "data"
    data.mkdir()
    for k in range(6):
        first = 1e9 + rng.normal(0.0, 1.0, 10)
        seq = ObservationSequence(np.stack([first, 3.0 * first], axis=1), 0.025,
                                  sensor_id="s0", trial_id=k, label=1)
        save_csv(seq, data / f"s0-class1-trial{k:03d}.csv")
    cfg = tmp_path / "train.cfg"
    cfg.write_text("covariance_floor_eps = 1e-30\nmax_iterations = 5\n")
    result = run_cli("train", "--data", data, "--label", 1, "--config", cfg,
                     "--out", tmp_path / "m.json")
    assert result.returncode == 1
    assert result.stderr.startswith("error:")
    assert "positive definite" in result.stderr
    assert "Traceback" not in result.stderr


def test_train_on_overflowing_recordings_exits_with_1(tmp_path):
    rng = np.random.default_rng(0)
    data = tmp_path / "data"
    data.mkdir()
    for k in range(6):
        seq = ObservationSequence(1e200 * (1.0 + rng.normal(0.0, 1.0, 10)), 0.025,
                                  sensor_id="s0", trial_id=k, label=1)
        save_csv(seq, data / f"s0-class1-trial{k:03d}.csv")
    result = run_cli("train", "--data", data, "--label", 1, "--out", tmp_path / "m.json")
    assert result.returncode == 1
    assert result.stderr.startswith("error:")
    assert "overflows" in result.stderr
    assert "Warning" not in result.stderr and "Traceback" not in result.stderr
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("command", [
    ["classify"],
    ["forecast", "--history", "0.125"],
], ids=["classify", "forecast"])
def test_history_impossible_under_both_models_exits_with_1(workspace, tmp_path, command):
    # readings at 1e200 have zero likelihood under both models: classify
    # used to print a NaN margin and forecast a class-1 forecast, exit 0
    recording = tmp_path / "far.csv"
    save_csv(ObservationSequence(np.full(10, 1e200), 0.025, sensor_id="df2", label=1),
             recording)
    out = tmp_path / "out.csv"
    result = run_cli(*command, "--model1", workspace / "m1.json",
                     "--model2", workspace / "m2.json", "--input", recording, "--out", out)
    assert result.returncode == 1
    assert result.stderr.startswith("error:")
    assert "zero likelihood" in result.stderr
    assert "Warning" not in result.stderr and "Traceback" not in result.stderr
    assert result.stdout == "" and not out.exists()


def test_missing_config_file_exits_with_1(tmp_path):
    result = run_cli("generate", "--config", tmp_path / "missing.cfg",
                     "--out", tmp_path / "d")
    assert result.returncode == 1
    assert result.stderr.startswith("error:")
    assert "missing.cfg" in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("command", [
    ["classify", "--duration", "nan"],
    ["classify", "--duration", "inf"],
    ["forecast", "--history", "nan"],
], ids=["classify-nan", "classify-inf", "forecast-nan"])
def test_non_finite_duration_exits_with_2(workspace, tmp_path, command):
    result = run_cli(*command, "--model1", workspace / "m1.json",
                     "--model2", workspace / "m2.json",
                     "--input", workspace / "data" / "df2-class1-trial000.csv",
                     "--out", tmp_path / "out.csv")
    assert result.returncode == 2
    assert result.stderr.startswith("error:")
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("command", [
    ["classify", "--duration", "0.0625"],
    ["forecast", "--history", "0.0625"],
], ids=["classify", "forecast"])
def test_off_grid_duration_exits_with_2(workspace, tmp_path, command):
    # 0.0625 s is 2.5 sampling steps of 0.025 s
    result = run_cli(*command, "--model1", workspace / "m1.json",
                     "--model2", workspace / "m2.json",
                     "--input", workspace / "data" / "df2-class1-trial000.csv",
                     "--out", tmp_path / "out.csv")
    assert result.returncode == 2
    assert result.stderr.startswith("error:")
    assert "whole number of sampling steps" in result.stderr
    assert "Traceback" not in result.stderr


def test_non_finite_durations_range_exits_with_2(workspace, tmp_path):
    # the second has finite ends and step, but (stop - start) / step is inf
    for durations in ("0:inf:0.1", "1:1e308:1e-300"):
        result = run_cli("accuracy-curve", "--data", workspace / "data",
                         "--durations", durations, "--out", tmp_path / "a.csv")
        assert result.returncode == 2
        assert result.stderr.startswith("error: bad durations range")
        assert len(result.stderr.splitlines()) == 1


@pytest.mark.parametrize("setting", ["duration_s = inf", "dt = 1e-320"])
def test_synthetic_config_of_no_finite_step_count_exits_with_2(tmp_path, setting):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text(setting + "\n")
    result = run_cli("generate", "--config", cfg, "--out", tmp_path / "d")
    assert result.returncode == 2
    assert result.stderr.startswith("error:")
    assert len(result.stderr.splitlines()) == 1
    assert "step count must be finite" in result.stderr
    assert not (tmp_path / "d").exists()


def test_synthetic_config_of_more_steps_than_an_array_holds_exits_with_2(tmp_path):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("dt = 1e-300\n")
    result = run_cli("generate", "--config", cfg, "--out", tmp_path / "d")
    assert result.returncode == 2
    assert result.stderr.startswith("error:")
    assert len(result.stderr.splitlines()) == 1
    assert "more steps than an array can hold" in result.stderr
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("command", ["train", "classify", "forecast"])
def test_output_in_missing_directory_exits_with_1(workspace, tmp_path, command):
    recording = workspace / "data" / "df2-class1-trial000.csv"
    models = ["--model1", workspace / "m1.json", "--model2", workspace / "m2.json"]
    args = {"train": ["--data", workspace / "data", "--label", 1, "--sensor", "df2"],
            "classify": [*models, "--input", recording],
            "forecast": [*models, "--input", recording, "--history", 0.1]}[command]
    out = tmp_path / "missing" / "out.csv"
    result = run_cli(command, *args, "--out", out)
    assert result.returncode == 1
    assert result.stderr.startswith(f"error: {out}: ")
    assert "Traceback" not in result.stderr


# ---------------------------------------------------------------------------
# helper parsing (in process)
# ---------------------------------------------------------------------------

def test_parse_durations_range_is_inclusive():
    assert parse_durations("0.025:0.1:0.025") == (0.025, 0.05, 0.075, 0.1)
    assert parse_durations("0.5:0.5:0.1") == (0.5,)


def test_parse_durations_comma_list():
    assert parse_durations("0.1,0.4") == (0.1, 0.4)


@pytest.mark.parametrize("spec", ["", "a:b:c", "0.1:0.5", "0.5:0.1:0.1",
                                  "0.1:0.5:0", "x,y", "0:inf:0.1", "0:nan:0.1",
                                  "0.1,inf"])
def test_parse_durations_rejects_bad_specs(spec):
    with pytest.raises(UsageError):
        parse_durations(spec)


def test_read_config_skips_comments_and_blanks(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("# a comment\n\nnoise_std = 0.05\nalign=true\n")
    assert read_config(cfg) == {"noise_std": "0.05", "align": "true"}


def test_read_config_rejects_non_assignments(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("noise_std 0.05\n")
    with pytest.raises(UsageError, match="c.cfg:1"):
        read_config(cfg)


def test_read_config_reports_an_unreadable_file_as_a_parse_error(tmp_path):
    with pytest.raises(ParseError, match="missing.cfg"):
        read_config(tmp_path / "missing.cfg")
    binary = tmp_path / "binary.cfg"
    binary.write_bytes(b"\xff\xfe\x00")
    with pytest.raises(ParseError, match="binary.cfg"):
        read_config(binary)
