"""Sequence CSV files, preprocessing, and the synthetic motion generator.

File format (one file per trial): the first line is the header
``t,<sensor_id>_c0[,<sensor_id>_c1,...]``; lines starting with ``#`` carry
``key=value`` metadata (``trial_id``, ``label``, ``dt``), each key at most
once; every other line is one sampling step.  Values are written with
``repr`` so a round trip is exact.

The generator mimics a crank mechanism observed by one rigidly attached
sensor and a family of loosely attached ones: every channel is a harmonic
at the motion frequency, and loose sensors add a second, phase-lagged
harmonic whose relative amplitude (the artifact level) models how loose
the attachment is.  Each trial draws from its own seeded stream (seed XOR
trial id), so generation order does not matter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import ObservationSequence, ParseError, UsageError, _read_text

RIGID_SENSOR_ID = "dr1"

# Characters of an offending header, cell or key that a parse error quotes.
_QUOTE_CHARS = 80

# The most steps a float64 array can hold: its size in bytes must fit an intp.
_MAX_STEPS = np.iinfo(np.intp).max // np.dtype(np.float64).itemsize


@dataclass(frozen=True)
class SyntheticConfig:
    """Generation parameters for one motion class.

    ``omega`` is the angular frequency in rad/s; ``artifact_amplitude`` is
    the loose-attachment harmonic's amplitude relative to ``amplitude`` (0
    for a rigidly attached sensor).

    Trial ``t`` draws from ``default_rng(rng_seed ^ t)``.  When generating
    two datasets meant to be independent, pick seeds whose XOR ranges do not
    overlap (e.g. distinct multiples of a power of two larger than
    ``n_sequences``); seeds that differ only in their low bits would make
    the datasets share noise streams trial-for-trial.
    """

    omega: float
    amplitude: float = 1.0
    artifact_amplitude: float = 0.0
    artifact_phase_lag: float = math.pi / 2
    noise_std: float = 0.05
    duration_s: float = 5.0
    dt: float = 0.025
    n_sequences: int = 30
    rng_seed: int = 0
    random_start_phase: bool = True

    def __post_init__(self):
        if not self.omega > 0:
            raise UsageError("omega must be > 0")
        if not self.amplitude > 0:
            raise UsageError("amplitude must be > 0")
        if self.artifact_amplitude < 0:
            raise UsageError("artifact_amplitude must be >= 0")
        if self.noise_std < 0:
            raise UsageError("noise_std must be >= 0")
        if not (0 < self.duration_s < math.inf and 0 < self.dt < math.inf
                and self.duration_s / self.dt < math.inf):
            raise UsageError("duration_s, dt and their step count must be finite and > 0")
        if self.n_sequences < 1:
            raise UsageError("n_sequences must be >= 1")
        if self.rng_seed < 0:
            raise UsageError("rng_seed must be >= 0")
        if self.n_steps < 1:
            raise UsageError("duration_s shorter than one sampling step")
        if self.n_steps > _MAX_STEPS:
            raise UsageError("duration_s / dt gives more steps than an array can hold")

    @property
    def n_steps(self) -> int:
        return int(round(self.duration_s / self.dt))


def generate_synthetic(rigid_cfg: SyntheticConfig, artifact_levels,
                       label: int | None = 1) -> dict[str, list[ObservationSequence]]:
    """Generate one labeled sequence set per sensor.

    The rigid sensor is named ``dr1``; one loose sensor per artifact level
    follows as ``df2``, ``df3``, ...  All sensors of a trial share the same
    start phase (they watch the same motion) but draw independent noise.
    """
    levels = [float(a) for a in artifact_levels]
    for a in levels:
        if a < 0:
            raise UsageError("artifact levels must be >= 0")
    cfg = rigid_cfg
    sensors = [(RIGID_SENSOR_ID, cfg.artifact_amplitude)]
    sensors += [(f"df{i + 2}", a) for i, a in enumerate(levels)]

    t_grid = np.arange(cfg.n_steps) * cfg.dt
    out: dict[str, list[ObservationSequence]] = {name: [] for name, _ in sensors}
    for trial in range(cfg.n_sequences):
        rng = np.random.default_rng(cfg.rng_seed ^ trial)
        phi0 = rng.uniform(0.0, 2.0 * math.pi) if cfg.random_start_phase else 0.0
        base = cfg.amplitude * np.cos(cfg.omega * t_grid + phi0)
        rigid = base + rng.normal(0.0, cfg.noise_std, cfg.n_steps)
        for name, level in sensors:
            if name == RIGID_SENSOR_ID and level == 0.0:
                values = rigid
            else:
                # a loose sensor rides on the rigid channel (noise included)
                # and adds its own phase-lagged harmonic plus fresh noise
                artifact = level * cfg.amplitude * np.cos(
                    cfg.omega * t_grid + cfg.artifact_phase_lag)
                values = rigid + artifact + rng.normal(0.0, cfg.noise_std,
                                                       cfg.n_steps)
            out[name].append(ObservationSequence(
                values[:, None], cfg.dt, sensor_id=name, trial_id=trial, label=label))
    return out


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------

def save_csv(seq: ObservationSequence, path) -> None:
    """Write one trial to ``path`` in the package's sequence CSV format."""
    sensor = seq.sensor_id or "s0"
    header = "t," + ",".join(f"{sensor}_c{c}" for c in range(seq.n_dims))
    lines = [header, f"# trial_id={seq.trial_id}"]
    if seq.label is not None:
        lines.append(f"# label={seq.label}")
    lines.append(f"# dt={seq.dt!r}")
    for i in range(seq.n_steps):
        cells = [repr(i * seq.dt)] + [repr(float(v)) for v in seq.values[i]]
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n")


def _quote(text: str) -> str:
    """``text`` quoted for an error message, cut to ``_QUOTE_CHARS``
    characters and its length when longer."""
    if len(text) <= _QUOTE_CHARS:
        return repr(text)
    return f"{text[:_QUOTE_CHARS]!r}... ({len(text)} characters)"


def _parse_file(path: Path) -> ObservationSequence:
    lines = _read_text(path, "sequence").splitlines()
    if not lines:
        raise ParseError(f"{path}:1: empty file")
    header = lines[0].strip()
    columns = [c.strip() for c in header.split(",")]
    if len(columns) < 2 or columns[0] != "t":
        raise ParseError(f"{path}:1: header must be 't,<sensor>_c0[,...]', got {_quote(header)}")
    sensor_ids = set()
    for c, col in enumerate(columns[1:]):
        stem, sep, chan = col.rpartition("_c")
        if not sep or not chan.isdigit():
            raise ParseError(f"{path}:1: channel column {_quote(col)} is not '<sensor>_c<k>'")
        sensor_ids.add(stem)
    if len(sensor_ids) != 1:
        raise ParseError(f"{path}:1: channel columns name several sensors: {sorted(sensor_ids)}")
    sensor_id = sensor_ids.pop()
    n_channels = len(columns) - 1

    meta: dict[str, str] = {}
    rows: list[list[float]] = []
    times: list[float] = []
    linenos: list[int] = []
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            key, sep, value = (part.strip() for part in line.lstrip("#").partition("="))
            if sep:
                if key in meta:
                    raise ParseError(f"{path}:{lineno}: metadata key {_quote(key)} repeated")
                meta[key] = value
            continue
        cells = line.split(",")
        if len(cells) != len(columns):
            raise ParseError(
                f"{path}:{lineno}: expected {len(columns)} columns, got {len(cells)}")
        numbers = []
        for cell in cells:
            try:
                numbers.append(float(cell))
            except ValueError:
                raise ParseError(f"{path}:{lineno}: not a number: {_quote(cell)}") from None
        if not all(math.isfinite(v) for v in numbers):
            raise ParseError(f"{path}:{lineno}: non-finite value")
        times.append(numbers[0])
        rows.append(numbers[1:])
        linenos.append(lineno)
    if not rows:
        raise ParseError(f"{path}: no data rows")

    try:
        if "dt" in meta:
            dt = float(meta["dt"])
        elif len(times) >= 2:
            dt = times[1] - times[0]
        else:
            raise ParseError(f"{path}: single-row file without a '# dt=' line")
        trial_id = int(meta.get("trial_id", "0"))
        label = int(meta["label"]) if "label" in meta else None
    except ValueError as exc:
        raise ParseError(f"{path}: bad metadata: {exc}") from None

    values = np.array(rows, dtype=float).reshape(len(rows), n_channels)
    try:
        seq = ObservationSequence(values, dt, sensor_id=sensor_id,
                                  trial_id=trial_id, label=label)
    except UsageError as exc:
        raise ParseError(f"{path}: {exc}") from None
    # Row i must lie within half a step of t0 + i * dt: a dropped,
    # duplicated or reordered row, or a '# dt=' that contradicts the time
    # column, breaks the grid; rounding on export does not.
    expected = times[0] + np.arange(len(times)) * seq.dt
    off_grid = np.flatnonzero(np.abs(np.array(times) - expected) > 0.5 * seq.dt)
    if off_grid.size:
        i = off_grid[0]
        raise ParseError(f"{path}:{linenos[i]}: time {times[i]!r} is off the sampling "
                         f"grid (expected {float(expected[i])!r} with dt={seq.dt!r})")
    return seq


def load_csv(path) -> list[ObservationSequence]:
    """Load one trial file, or every ``*.csv`` in a directory (sorted by name)."""
    path = Path(path)
    if path.is_dir():
        files = sorted(path.glob("*.csv"))
        if not files:
            raise ParseError(f"{path}: no .csv files found")
        return [_parse_file(f) for f in files]
    if not path.exists():
        raise ParseError(f"{path}: no such file")
    return [_parse_file(path)]


# ---------------------------------------------------------------------------
# preprocessing
# ---------------------------------------------------------------------------

def _circular_lag(reference: np.ndarray, signal: np.ndarray) -> int:
    """Lag maximizing the circular cross-correlation, first max on ties."""
    n = reference.shape[0]
    scores = np.empty(n)
    for lag in range(n):
        scores[lag] = float(reference @ np.roll(signal, -lag))
    return int(np.argmax(scores))


def preprocess(sequences, scale_divisor: float = 1.0, channels=None,
               align: bool = False) -> list[ObservationSequence]:
    """Select channels, rescale, and optionally time-align a sequence set.

    Alignment circularly shifts each sequence so the lag maximizing the
    cross-correlation of its first selected channel against the first
    sequence's is zero (ties break toward the smallest shift), then
    truncates everything to the common length.
    """
    seqs = list(sequences)
    if not seqs:
        raise UsageError("no sequences to preprocess")
    if scale_divisor == 0:
        raise UsageError("scale_divisor must be non-zero")
    if channels is None:
        channels = list(range(seqs[0].n_dims))
    channels = [int(c) for c in channels]
    if not channels:
        raise UsageError("channel selection is empty")
    for s in seqs:
        for c in channels:
            if not 0 <= c < s.n_dims:
                raise UsageError(f"channel {c} out of range for trial {s.trial_id}")

    selected = [s.values[:, channels] / scale_divisor for s in seqs]
    min_len = min(v.shape[0] for v in selected)
    if align:
        reference = selected[0][:min_len, 0]
        shifted = []
        for v in selected:
            lag = _circular_lag(reference, v[:min_len, 0])
            shifted.append(np.roll(v, -lag, axis=0))
        selected = shifted
    return [
        ObservationSequence(v[:min_len], s.dt, sensor_id=s.sensor_id,
                            trial_id=s.trial_id, label=s.label)
        for v, s in zip(selected, seqs)
    ]
