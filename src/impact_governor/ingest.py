"""Trial acquisition loading and stream alignment.

A bench trial is recorded as two independently-clocked streams plus a JSON
manifest describing the airframe under test:

* force stream CSV, header ``t_s,f1_N,f2_N,f3_N,accel_mps2,trigger``
  (three load-cell channels, one accelerometer channel, sync trigger),
  nominally 6250 samples/s;
* range stream CSV, header ``t_s,range_m,trigger``, nominally 1000 samples/s;
* manifest JSON with keys ``configuration, mass_kg, angle_deg,
  nominal_speed_mps, material, force_csv, range_csv`` and optional
  ``sample_rate_force_hz`` / ``sample_rate_range_hz`` overrides.

Both loggers record the same hardware sync pulse in their ``trigger`` column
(0/1; the first rising edge defines that stream's trigger time). Alignment
shifts both timelines so the pulse sits at t = 0 and resamples range onto the
force grid by zero-order hold — range values are never interpolated, every
resampled value is one of the original readings.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import (
    AlignmentOutOfTolerance,
    EmptyStream,
    InvariantViolation,
    LengthMismatch,
    MalformedRow,
    ManifestError,
    MissingColumn,
    RateMismatch,
    TriggerMissing,
)

FS_FORCE_DEFAULT = 6250.0
FS_RANGE_DEFAULT = 1000.0

#: maximum tolerated mismatch between a trigger instant and the sample grid
ALIGNMENT_TOLERANCE_S = 1e-4

#: relative tolerance between declared rate and observed row spacing
RATE_TOLERANCE = 1e-4

FORCE_COLUMNS = ("t_s", "f1_N", "f2_N", "f3_N", "accel_mps2", "trigger")
RANGE_COLUMNS = ("t_s", "range_m", "trigger")

MANIFEST_KEYS = (
    "configuration",
    "mass_kg",
    "angle_deg",
    "nominal_speed_mps",
    "material",
    "force_csv",
    "range_csv",
)


@dataclass
class TrialMeta:
    """Airframe and trial parameters carried alongside the signal data."""

    configuration: str
    mass_kg: float
    angle_deg: float
    nominal_speed_mps: float
    material: str
    alignment_residual_s: float = 0.0

    def __post_init__(self) -> None:
        if self.mass_kg <= 0:
            raise InvariantViolation(f"mass_kg must be positive, got {self.mass_kg}")
        if not 0.0 <= self.angle_deg <= 90.0:
            raise InvariantViolation(
                f"angle_deg must lie in [0, 90], got {self.angle_deg}"
            )
        if self.nominal_speed_mps <= 0:
            raise InvariantViolation(
                f"nominal_speed_mps must be positive, got {self.nominal_speed_mps}"
            )


@dataclass
class RawAcquisition:
    """Two unaligned streams exactly as logged, plus trial metadata.

    ``trigger_time_force`` / ``trigger_time_range`` are the timestamps of the
    first trigger-high sample in each stream's own clock.
    """

    force_time: np.ndarray          # s, force-logger clock
    force_channels: np.ndarray      # (n, 3) N
    accel: np.ndarray               # m/s^2
    force_trigger: np.ndarray       # 0/1
    range_time: np.ndarray          # s, range-logger clock
    range_m: np.ndarray             # m
    range_trigger: np.ndarray       # 0/1
    meta: TrialMeta
    fs_force: float = FS_FORCE_DEFAULT
    fs_range: float = FS_RANGE_DEFAULT
    trigger_time_force: float | None = None
    trigger_time_range: float | None = None

    def __post_init__(self) -> None:
        if self.trigger_time_force is None:
            self.trigger_time_force = _first_rising_edge(
                self.force_time, self.force_trigger
            )
        if self.trigger_time_range is None:
            self.trigger_time_range = _first_rising_edge(
                self.range_time, self.range_trigger
            )


@dataclass
class TrialRecord:
    """Streams merged onto the force-logger grid, trigger at t = 0.

    ``time`` is the ideal uniform grid (step 1/fs) anchored at the trigger
    sample; negative times precede the sync pulse.
    """

    time: np.ndarray             # s, uniform
    force_total: np.ndarray      # N, summed load cells
    accel: np.ndarray            # m/s^2
    range_resampled: np.ndarray  # m, zero-order hold
    fs: float
    meta: TrialMeta


def _first_rising_edge(time: np.ndarray, trigger: np.ndarray) -> float | None:
    high = np.flatnonzero(np.asarray(trigger) >= 0.5)
    if high.size == 0:
        return None
    return float(time[high[0]])


#: characters of a row that holds no data; csv.reader yields such rows as
#: empty or whitespace-only cells, and np.loadtxt would reject them
_BLANK_ROW_CHARS = " \t\r\n,"


def _read_csv_columns(path: str | Path, required: tuple[str, ...]) -> dict[str, np.ndarray]:
    path = Path(path)
    with path.open(newline="") as fh:
        try:
            header = next(csv.reader(fh))
        except StopIteration:
            raise EmptyStream(f"{path} is empty") from None
        header = [h.strip() for h in header]
        missing = [c for c in required if c not in header]
        if missing:
            raise MissingColumn(f"{path} lacks column(s) {missing}")
        body = fh.readlines()
    rows = [ln for ln in body if ln.strip(_BLANK_ROW_CHARS)]
    if not rows:
        raise EmptyStream(f"{path} has a header but no data rows")
    try:
        data = _parse_rows(rows)
    except ValueError:
        raise _malformed_row(path, body) from None
    width = max(header.index(name) for name in required) + 1
    if data.shape[1] < width:
        raise MalformedRow(
            f"{path} row {_data_row_numbers(body)[0]}: {data.shape[1]} cells, "
            f"the header needs {width}"
        )
    if not np.isfinite(data).all():
        bad = int(np.flatnonzero(~np.isfinite(data).all(axis=1))[0])
        raise MalformedRow(f"{path} row {_data_row_numbers(body)[bad]}: non-finite sample")
    return {name: data[:, header.index(name)] for name in required}


def _parse_rows(rows: list[str]) -> np.ndarray:
    return np.loadtxt(rows, delimiter=",", quotechar='"', comments=None, ndmin=2)


def _data_row_numbers(body: list[str]) -> list[int]:
    """File row number (the header is row 1) of each non-blank body line."""
    return [i for i, ln in enumerate(body, start=2) if ln.strip(_BLANK_ROW_CHARS)]


def _malformed_row(path: Path, body: list[str]) -> MalformedRow:
    """Name the first row that made the whole-table parse fail.

    Only runs after that parse failed. Each data row is parsed on its own; a
    row that parses but has another cell count than the first row is ragged.
    """
    width = None
    for lineno in _data_row_numbers(body):
        line = body[lineno - 2]
        try:
            cells = _parse_rows([line]).shape[1]
        except ValueError:
            return MalformedRow(f"{path} row {lineno}: {line.strip()!r} is not all numbers")
        if width is None:
            width = cells
        elif cells != width:
            return MalformedRow(
                f"{path} row {lineno}: {cells} cells where the first row has {width}"
            )
    return MalformedRow(f"{path}: the rows do not form a numeric table")


def _check_rate(time: np.ndarray, declared_fs: float, label: str) -> None:
    if time.size < 2:
        return
    spacing = float(np.median(np.diff(time)))
    expected = 1.0 / declared_fs
    if abs(spacing - expected) > RATE_TOLERANCE * expected:
        raise RateMismatch(
            f"{label}: declared {declared_fs:g} Hz but rows step "
            f"{spacing:.6g} s (expected {expected:.6g} s)"
        )


def read_force_csv(path: str | Path, fs: float = FS_FORCE_DEFAULT) -> dict[str, np.ndarray]:
    """Read and validate a force-stream CSV; returns its columns by name."""
    cols = _read_csv_columns(path, FORCE_COLUMNS)
    _check_rate(cols["t_s"], fs, str(path))
    return cols


def read_range_csv(path: str | Path, fs: float = FS_RANGE_DEFAULT) -> dict[str, np.ndarray]:
    """Read and validate a range-stream CSV; returns its columns by name."""
    cols = _read_csv_columns(path, RANGE_COLUMNS)
    _check_rate(cols["t_s"], fs, str(path))
    return cols


def load_trial(path: str | Path) -> RawAcquisition:
    """Load one trial from its manifest JSON.

    Stream paths in the manifest are resolved relative to the manifest file.
    """
    path = Path(path)
    try:
        manifest = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ManifestError(f"cannot read manifest {path}: {exc}") from exc
    missing = [k for k in MANIFEST_KEYS if k not in manifest]
    if missing:
        raise ManifestError(f"{path} lacks manifest key(s) {missing}")

    meta = TrialMeta(
        configuration=str(manifest["configuration"]),
        mass_kg=float(manifest["mass_kg"]),
        angle_deg=float(manifest["angle_deg"]),
        nominal_speed_mps=float(manifest["nominal_speed_mps"]),
        material=str(manifest["material"]),
    )
    fs_force = float(manifest.get("sample_rate_force_hz", FS_FORCE_DEFAULT))
    fs_range = float(manifest.get("sample_rate_range_hz", FS_RANGE_DEFAULT))

    force_path = path.parent / manifest["force_csv"]
    range_path = path.parent / manifest["range_csv"]
    for p in (force_path, range_path):
        if not p.exists():
            raise ManifestError(f"{path} references missing stream file {p}")

    force = read_force_csv(force_path, fs_force)
    rng = read_range_csv(range_path, fs_range)

    return RawAcquisition(
        force_time=force["t_s"],
        force_channels=np.column_stack(
            [force["f1_N"], force["f2_N"], force["f3_N"]]
        ),
        accel=force["accel_mps2"],
        force_trigger=force["trigger"],
        range_time=rng["t_s"],
        range_m=rng["range_m"],
        range_trigger=rng["trigger"],
        meta=meta,
        fs_force=fs_force,
        fs_range=fs_range,
    )


def sum_load_cells(f1: np.ndarray, f2: np.ndarray, f3: np.ndarray) -> np.ndarray:
    """Total normal force: the unweighted sum of the three load-cell channels.

    The cells share one mounting plate, so the plate-normal force is simply
    their sum; no per-channel calibration weights are applied.
    """
    f1, f2, f3 = (np.asarray(f) for f in (f1, f2, f3))
    if not (f1.shape == f2.shape == f3.shape):
        raise LengthMismatch(
            f"load-cell channels differ in shape: {f1.shape}, {f2.shape}, {f3.shape}"
        )
    return f1 + f2 + f3


def _grid_residual(trigger_time: float, time: np.ndarray) -> float:
    return float(np.min(np.abs(time - trigger_time)))


def align_streams(raw: RawAcquisition) -> TrialRecord:
    """Merge the two streams onto the force grid with the trigger at t = 0.

    The shift applied to each stream is exactly its trigger timestamp, so the
    operation is idempotent: aligning an already-aligned acquisition (both
    triggers at 0 on their grids) reproduces it unchanged.

    Raises AlignmentOutOfTolerance when either trigger instant sits more than
    0.1 ms from that stream's nearest sample — inconsistent trigger metadata
    would otherwise silently skew every downstream timing metric.
    """
    if raw.trigger_time_force is None:
        raise TriggerMissing("force stream has no trigger edge")
    if raw.trigger_time_range is None:
        raise TriggerMissing("range stream has no trigger edge")

    residual = _grid_residual(raw.trigger_time_force, raw.force_time) + _grid_residual(
        raw.trigger_time_range, raw.range_time
    )
    if residual > ALIGNMENT_TOLERANCE_S:
        raise AlignmentOutOfTolerance(
            f"trigger instants sit {residual * 1e3:.3f} ms off the sample grids "
            f"(tolerance {ALIGNMENT_TOLERANCE_S * 1e3:.1f} ms)"
        )

    n = raw.force_time.size
    i_trig = int(np.argmin(np.abs(raw.force_time - raw.trigger_time_force)))
    # Regenerate the ideal grid (row timestamps may carry logger jitter within
    # the rate tolerance; downstream math assumes an exactly uniform step).
    time = (np.arange(n) - i_trig) / raw.fs_force

    range_time_aligned = raw.range_time - raw.trigger_time_range
    # Keep only the span both loggers actually covered: holding the last
    # range reading past its logger's stop (or the first one before its
    # start) would fabricate a stationary target.
    keep = (time >= range_time_aligned[0] - 1e-12) & (
        time <= range_time_aligned[-1] + 1e-12
    )
    if not np.any(keep):
        raise AlignmentOutOfTolerance("streams share no common time span")
    time = time[keep]
    idx = np.searchsorted(range_time_aligned, time, side="right") - 1
    idx = np.clip(idx, 0, raw.range_m.size - 1)
    range_resampled = raw.range_m[idx]

    force_total = sum_load_cells(
        raw.force_channels[:, 0], raw.force_channels[:, 1], raw.force_channels[:, 2]
    )
    meta = replace(raw.meta, alignment_residual_s=residual)
    return TrialRecord(
        time=time,
        force_total=force_total[keep],
        accel=np.asarray(raw.accel, dtype=float)[keep],
        range_resampled=np.asarray(range_resampled, dtype=float),
        fs=raw.fs_force,
        meta=meta,
    )
