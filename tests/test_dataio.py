import math

import numpy as np
import pytest

from lrhmm import (
    RIGID_SENSOR_ID,
    ObservationSequence,
    ParseError,
    SyntheticConfig,
    UsageError,
    generate_synthetic,
    load_csv,
    preprocess,
    save_csv,
)


def _cfg(**kwargs):
    defaults = dict(omega=1.48 * math.pi, duration_s=1.0, dt=0.025, n_sequences=3,
                    noise_std=0.02, rng_seed=7)
    defaults.update(kwargs)
    return SyntheticConfig(**defaults)


# ---------------------------------------------------------------------------
# synthetic generation
# ---------------------------------------------------------------------------

def test_config_step_count():
    assert _cfg(duration_s=5.0, dt=0.025).n_steps == 200
    assert _cfg(duration_s=1.0, dt=0.025).n_steps == 40


@pytest.mark.parametrize("kwargs", [
    dict(omega=0.0),
    dict(amplitude=0.0),
    dict(artifact_amplitude=-0.1),
    dict(noise_std=-0.1),
    dict(dt=0.0),
    dict(duration_s=0.0),
    dict(n_sequences=0),
    dict(rng_seed=-1),
    dict(duration_s=0.001),
    dict(duration_s=math.inf),
    dict(dt=1e-320),            # duration_s / dt overflows
    dict(dt=1e-300),            # 5e300 steps: finite, but no array holds them
])
def test_config_validation(kwargs):
    with pytest.raises(UsageError):
        _cfg(**kwargs)


def test_generated_sensor_family():
    data = generate_synthetic(_cfg(), [0.0, 0.4, 1.0], label=1)
    assert sorted(data) == ["df2", "df3", "df4", RIGID_SENSOR_ID]
    for name, seqs in data.items():
        assert len(seqs) == 3
        for trial, seq in enumerate(seqs):
            assert seq.n_steps == 40
            assert seq.n_dims == 1
            assert seq.dt == 0.025
            assert seq.sensor_id == name
            assert seq.trial_id == trial
            assert seq.label == 1


def test_generation_follows_the_stated_waveform():
    cfg = _cfg(noise_std=0.0, amplitude=1.3, artifact_phase_lag=0.9,
               random_start_phase=False)
    data = generate_synthetic(cfg, [0.7])
    t = np.arange(cfg.n_steps) * cfg.dt
    base = cfg.amplitude * np.cos(cfg.omega * t)
    artifact = 0.7 * cfg.amplitude * np.cos(cfg.omega * t + 0.9)
    assert np.allclose(data[RIGID_SENSOR_ID][0].values[:, 0], base, atol=1e-12)
    assert np.allclose(data["df2"][0].values[:, 0], base + artifact, atol=1e-12)


def test_zero_artifact_level_reproduces_the_rigid_sensor():
    data = generate_synthetic(_cfg(noise_std=0.0), [0.0])
    for trial in range(3):
        assert np.array_equal(data["df2"][trial].values,
                              data[RIGID_SENSOR_ID][trial].values)


def test_sensors_share_the_start_phase_but_not_the_noise():
    data = generate_synthetic(_cfg(noise_std=0.05), [0.0])
    rigid = data[RIGID_SENSOR_ID][0].values[:, 0]
    loose = data["df2"][0].values[:, 0]
    # same clean signal underneath: differences are only the noise draws
    assert not np.array_equal(rigid, loose)
    assert np.abs(rigid - loose).max() < 6 * 0.05 * math.sqrt(2)


def test_generation_is_deterministic_per_trial():
    a = generate_synthetic(_cfg(n_sequences=5), [0.3])
    b = generate_synthetic(_cfg(n_sequences=3), [0.3])
    # each trial has its own stream, so a shorter run is a prefix of a longer one
    for trial in range(3):
        assert np.array_equal(a["df2"][trial].values, b["df2"][trial].values)
    c = generate_synthetic(_cfg(rng_seed=8), [0.3])
    assert not np.array_equal(a["df2"][0].values, c["df2"][0].values)


def test_random_start_phase_varies_between_trials():
    data = generate_synthetic(_cfg(noise_std=0.0, random_start_phase=True), [])
    seqs = data[RIGID_SENSOR_ID]
    assert not np.array_equal(seqs[0].values, seqs[1].values)


def test_generated_frequency_lands_on_the_right_spectral_bin():
    cfg = _cfg(duration_s=5.0, noise_std=0.0, random_start_phase=False)
    values = generate_synthetic(cfg, [])[RIGID_SENSOR_ID][0].values[:, 0]
    spectrum = np.abs(np.fft.rfft(values))
    peak_hz = np.argmax(spectrum[1:]) + 1
    assert abs(peak_hz / cfg.duration_s - cfg.omega / (2 * math.pi)) <= 1.0 / cfg.duration_s


def test_artifact_levels_must_be_non_negative():
    with pytest.raises(UsageError):
        generate_synthetic(_cfg(), [0.5, -0.1])


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------

def test_csv_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(60)
    seq = ObservationSequence(rng.normal(0.0, 1.0, (12, 2)), 0.025,
                              sensor_id="df3", trial_id=9, label=2)
    path = tmp_path / "trial.csv"
    save_csv(seq, path)
    [back] = load_csv(path)
    assert np.array_equal(back.values, seq.values)   # repr round trip is exact
    assert back.dt == seq.dt
    assert back.sensor_id == "df3"
    assert back.trial_id == 9
    assert back.label == 2


def test_csv_layout(tmp_path):
    seq = ObservationSequence(np.array([[1.0, 2.0], [3.0, 4.0]]), 0.5,
                              sensor_id="dr1", trial_id=1, label=1)
    path = tmp_path / "trial.csv"
    save_csv(seq, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,dr1_c0,dr1_c1"
    assert "# trial_id=1" in lines
    assert "# label=1" in lines
    assert "# dt=0.5" in lines
    assert lines[-1] == "0.5,3.0,4.0"


def test_csv_omits_missing_label(tmp_path):
    seq = ObservationSequence(np.zeros((2, 1)), 0.1, sensor_id="dr1")
    save_csv(seq, tmp_path / "t.csv")
    text = (tmp_path / "t.csv").read_text()
    assert "label" not in text
    [back] = load_csv(tmp_path / "t.csv")
    assert back.label is None


def test_load_directory_sorts_by_file_name(tmp_path):
    for k in (2, 0, 1):
        save_csv(ObservationSequence(np.full((3, 1), float(k)), 0.1,
                                     sensor_id="df2", trial_id=k),
                 tmp_path / f"trial{k}.csv")
    seqs = load_csv(tmp_path)
    assert [s.trial_id for s in seqs] == [0, 1, 2]


def test_dt_inferred_from_time_column(tmp_path):
    (tmp_path / "t.csv").write_text("t,df2_c0\n0.0,1.0\n0.25,2.0\n0.5,3.0\n")
    [seq] = load_csv(tmp_path / "t.csv")
    assert seq.dt == 0.25
    assert seq.sensor_id == "df2"


@pytest.mark.parametrize("text,lineno", [
    ("x,df2_c0\n0.0,1.0\n", 1),                    # first column must be t
    ("t,df2\n0.0,1.0\n", 1),                       # channel must be <sensor>_c<k>
    ("t,df2_c0,df3_c1\n0.0,1.0,2.0\n", 1),         # one sensor per file
    ("t,df2_c0\n0.0,1.0,9.0\n", 2),                # ragged row
    ("t,df2_c0\n0.0,abc\n", 2),                    # non-numeric cell
    ("t,df2_c0\n0.0,1.0\n0.1,inf\n", 3),           # non-finite value
    ("t,df2_c0\n0.0,1.0\n0.1,2.0\n0.3,3.0\n", 4),                # dropped row
    ("t,df2_c0\n0.0,1.0\n0.1,2.0\n0.1,2.0\n0.2,3.0\n", 4),      # duplicated row
    ("t,df2_c0\n0.0,1.0\n0.1,2.0\n0.2,3.0\n0.1,4.0\n", 5),      # time runs backwards
    ("t,df2_c0\n# dt=0.05\n0.0,1.0\n0.1,2.0\n0.2,3.0\n", 4),    # dt contradicts times
])
def test_parse_errors_carry_line_numbers(tmp_path, text, lineno):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ParseError, match=f"bad.csv:{lineno}"):
        load_csv(path)


@pytest.mark.parametrize("header", ["x" * 200_000, "t," + "x" * 200_000],
                         ids=["header", "channel_column"])
def test_a_long_bad_header_is_quoted_cut_short(tmp_path, header):
    path = tmp_path / "bad.csv"
    path.write_text(f"{header}\n0.0,1.0\n")
    with pytest.raises(ParseError) as info:
        load_csv(path)
    message = str(info.value)
    assert f"{'x' * 80}'... (" in message and "characters)" in message
    assert len(message) < len(str(path)) + 200


def test_a_long_bad_cell_is_quoted_cut_short(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(f"t,df2_c0\n0.0,1.0\n0.025,{'x' * 100_001}\n")
    with pytest.raises(ParseError, match="bad.csv:3: not a number") as info:
        load_csv(path)
    message = str(info.value)
    assert f"{'x' * 80}'... (100001 characters)" in message
    assert len(message) < len(str(path)) + 200


def test_time_column_rounded_on_export_loads(tmp_path):
    # dt = 1/30 s with times rounded to milliseconds: off the exact grid by
    # up to half a millisecond, far less than half a step
    rows = "".join(f"{round(i / 30, 3)},{float(i)}\n" for i in range(90))
    (tmp_path / "t.csv").write_text(f"t,df2_c0\n# dt={1 / 30!r}\n{rows}")
    [seq] = load_csv(tmp_path / "t.csv")
    assert seq.n_steps == 90
    assert seq.dt == 1 / 30


def test_undecodable_file_is_a_parse_error(tmp_path):
    path = tmp_path / "binary.csv"
    path.write_bytes(b"t,df2_c0\n0.0,\xff\xfe\n")
    with pytest.raises(ParseError, match="binary.csv: cannot read sequence file"):
        load_csv(path)


def test_parse_errors_for_degenerate_files(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ParseError):
        load_csv(empty)
    headers_only = tmp_path / "headers.csv"
    headers_only.write_text("t,df2_c0\n# trial_id=0\n")
    with pytest.raises(ParseError, match="no data rows"):
        load_csv(headers_only)
    single = tmp_path / "single.csv"
    single.write_text("t,df2_c0\n0.0,1.0\n")
    with pytest.raises(ParseError, match="dt"):
        load_csv(single)
    with pytest.raises(ParseError, match="no such file"):
        load_csv(tmp_path / "missing.csv")
    empty_dir = tmp_path / "nothing"
    empty_dir.mkdir()
    with pytest.raises(ParseError, match="no .csv files"):
        load_csv(empty_dir)


def test_bad_metadata_is_a_parse_error(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,df2_c0\n# trial_id=xyz\n0.0,1.0\n0.1,2.0\n")
    with pytest.raises(ParseError, match="metadata"):
        load_csv(path)


@pytest.mark.parametrize("key", ["label", "dt", "trial_id"])
def test_a_repeated_metadata_key_is_a_parse_error(tmp_path, key):
    # a second value would silently replace the first
    path = tmp_path / "twice.csv"
    path.write_text(f"t,df2_c0\n# {key}=1\n0.0,1.0\n#{key} = 2\n1.0,2.0\n")
    with pytest.raises(ParseError, match=f"twice.csv:4: metadata key '{key}' repeated"):
        load_csv(path)


# ---------------------------------------------------------------------------
# preprocessing
# ---------------------------------------------------------------------------

def test_preprocess_scales_and_selects_channels():
    rng = np.random.default_rng(61)
    values = rng.normal(0.0, 1.0, (10, 3))
    seq = ObservationSequence(values, 0.025, sensor_id="df2", trial_id=4, label=2)
    [out] = preprocess([seq], scale_divisor=2.0, channels=[2, 0])
    assert out.n_dims == 2
    assert np.allclose(out.values[:, 0], values[:, 2] / 2.0)
    assert np.allclose(out.values[:, 1], values[:, 0] / 2.0)
    assert (out.sensor_id, out.trial_id, out.label) == ("df2", 4, 2)


def test_preprocess_truncates_to_common_length():
    seqs = [ObservationSequence(np.zeros((12, 1)), 0.1),
            ObservationSequence(np.zeros((10, 1)), 0.1)]
    out = preprocess(seqs)
    assert [s.n_steps for s in out] == [10, 10]


def test_alignment_undoes_a_circular_shift():
    rng = np.random.default_rng(62)
    base = np.cos(1.48 * math.pi * np.arange(40) * 0.025) + rng.normal(0, 0.01, 40)
    rolled = np.roll(base, 5)
    seqs = [ObservationSequence(base, 0.025, trial_id=0),
            ObservationSequence(rolled, 0.025, trial_id=1)]
    out = preprocess(seqs, align=True)
    assert np.array_equal(out[0].values, out[1].values)
    # and the reference sequence itself is left untouched (zero lag wins)
    assert np.array_equal(out[0].values[:, 0], base)


def test_alignment_without_shift_is_a_no_op():
    rng = np.random.default_rng(63)
    base = np.cos(1.05 * math.pi * np.arange(30) * 0.025)
    seqs = [ObservationSequence(base + rng.normal(0, 0.01, 30), 0.025, trial_id=k)
            for k in range(3)]
    plain = preprocess(seqs, align=False)
    aligned = preprocess(seqs, align=True)
    for a, b in zip(plain, aligned):
        assert np.array_equal(a.values, b.values)


@pytest.mark.parametrize("kwargs", [
    dict(scale_divisor=0.0),
    dict(channels=[]),
    dict(channels=[5]),
])
def test_preprocess_input_validation(kwargs):
    seqs = [ObservationSequence(np.zeros((4, 2)), 0.1)]
    with pytest.raises(UsageError):
        preprocess(seqs, **kwargs)


def test_preprocess_rejects_empty_input():
    with pytest.raises(UsageError):
        preprocess([])
