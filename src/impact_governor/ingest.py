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
shifts both timelines so the pulse sits at t = 0 and maps each force-grid
sample to the range reading it holds by zero-order hold. The record keeps the
range readings as logged, with the range logger's rate, so that they are
despiked and filtered at the sensor's own rate; only the velocity estimated
from them is held onto the force grid. Range values are never interpolated:
every held value is one of the original readings.
"""

from __future__ import annotations

import csv
import math
import os
import warnings
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import (
    FINITE,
    REQUIRED,
    STR,
    IngestError,
    InvariantViolation,
    not_utf8,
    open_input,
    read_json_file,
    read_object,
)

FS_FORCE_DEFAULT = 6250.0
FS_RANGE_DEFAULT = 1000.0

#: maximum tolerated mismatch between a trigger instant and the sample grid
ALIGNMENT_TOLERANCE_S = 1e-4

#: relative tolerance between declared rate and observed row spacing
RATE_TOLERANCE = 1e-4

FORCE_COLUMNS = ("t_s", "f1_N", "f2_N", "f3_N", "accel_mps2", "trigger")
RANGE_COLUMNS = ("t_s", "range_m", "trigger")

#: the trial manifest: the keys every manifest holds, then the optional
#: rates, each overriding its stream's default; other keys are ignored
_MANIFEST = {
    "configuration": (STR, REQUIRED), "mass_kg": (FINITE, REQUIRED),
    "angle_deg": (FINITE, REQUIRED), "nominal_speed_mps": (FINITE, REQUIRED),
    "material": (STR, REQUIRED), "force_csv": (STR, REQUIRED), "range_csv": (STR, REQUIRED),
    "sample_rate_force_hz": (FINITE, FS_FORCE_DEFAULT),
    "sample_rate_range_hz": (FINITE, FS_RANGE_DEFAULT),
}
MANIFEST_KEYS = tuple(key for key, (_, default) in _MANIFEST.items() if default is REQUIRED)
SAMPLE_RATE_KEYS = tuple(key for key in _MANIFEST if key not in MANIFEST_KEYS)


def is_trial_manifest(path: Path) -> bool:
    """Whether ``path`` is a JSON object naming both stream files; one that
    does is a trial manifest, whatever else it holds or lacks."""
    try:
        data = read_json_file(path, IngestError)
    except IngestError:
        return False
    return isinstance(data, dict) and "force_csv" in data and "range_csv" in data


@dataclass
class TrialMeta:
    """Airframe and trial parameters carried alongside the signal data."""

    configuration: str
    mass_kg: float
    angle_deg: float
    nominal_speed_mps: float
    material: str

    def __post_init__(self) -> None:
        # written as "not (0 < v < inf)" so that NaN fails too
        if not 0 < self.mass_kg < math.inf:
            raise InvariantViolation(f"mass_kg must be finite and positive, got {self.mass_kg}")
        if not 0.0 <= self.angle_deg <= 90.0:
            raise InvariantViolation(
                f"angle_deg must lie in [0, 90], got {self.angle_deg}"
            )
        if not 0 < self.nominal_speed_mps < math.inf:
            raise InvariantViolation(
                f"nominal_speed_mps must be finite and positive, got {self.nominal_speed_mps}"
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
    sample; negative times precede the sync pulse. ``range_m`` holds the
    range readings as logged at ``fs_range``, and ``range_index[i]`` is the
    reading that the zero-order hold holds at ``time[i]``.
    """

    time: np.ndarray         # s, uniform
    force_total: np.ndarray  # N, summed load cells
    range_m: np.ndarray      # m, native range readings
    range_index: np.ndarray  # index into range_m for each grid sample
    fs_range: float          # Hz, the range logger's declared rate
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


#: the suffixes by which np.loadtxt opens a path as a compressed file; a
#: plain-text stream so named would fail there (lzma's error is no OSError)
_NUMPY_DECOMPRESSES = (".gz", ".bz2", ".xz", ".lzma")


def _read_csv_columns(path: str | Path, required: tuple[str, ...]) -> dict[str, np.ndarray]:
    """The columns ``required`` of the CSV stream ``path``, by name.

    ``errors.open_input`` opens the file and the csv module reads the
    header. The body is then read in one ``np.loadtxt`` pass from the path
    string, which alone gets numpy's chunked C reader (an open file or a
    list of lines is fed to it line by line). That pass skips the header's
    physical lines, which a quoted cell can make more than one, and runs
    while the file stays open: a pass that read another file
    (``_check_same_file``) is an IngestError. A name with a suffix by which
    numpy would decompress the file (``_NUMPY_DECOMPRESSES``) is read line
    by line instead. Where the pass fails, finds no rows or cannot open the
    file (removed after its header was read), the lines are read and judged
    one by one, through ``open_input`` again.
    """
    path = Path(path)
    try:
        with open_input(path, IngestError, newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise IngestError(f"{path} is empty") from None
            except csv.Error as exc:
                raise IngestError(f"{path} header: {exc}") from None
            header = [h.strip() for h in header]
            missing = [c for c in required if c not in header]
            if missing:
                raise IngestError(f"{path} lacks column(s) {missing}")
            data = None
            if os.path.splitext(path)[1] not in _NUMPY_DECOMPRESSES:
                # The pass fails on a row that holds no data, a bad cell or a
                # ragged row, and finds no rows in an empty body (with a
                # warning, silenced: _parse_lines refuses an empty body).
                try:
                    with warnings.catch_warnings():
                        warnings.filterwarnings(
                            "ignore", "loadtxt: input contained no data", UserWarning
                        )
                        data = _parse_rows(os.fspath(path), skiprows=reader.line_num)
                except (ValueError, OSError):
                    pass
                else:
                    _check_same_file(path, fh)
        if data is None or not len(data):
            data = _parse_lines(path)
    except UnicodeDecodeError as exc:
        raise not_utf8(path, exc) from None
    width = max(header.index(name) for name in required) + 1
    if data.shape[1] < width:
        raise IngestError(
            f"{path} row {_file_row(path, 0)}: {data.shape[1]} cells, the header needs {width}"
        )
    if not np.isfinite(data).all():
        bad = int(np.flatnonzero(~np.isfinite(data).all(axis=1))[0])
        raise IngestError(f"{path} row {_file_row(path, bad)}: non-finite sample")
    return {name: data[:, header.index(name)] for name in required}


def _check_same_file(path: Path, fh) -> None:
    """Refuse ``path`` unless it still names the open file ``fh``: its
    device and inode, which no other file can take while ``fh`` is open.

    numpy opens the path anew, and where it is gone numpy reads a sibling
    (``path.gz``, ``.bz2``, ``.xz`` or ``.lzma``) in its place.
    """
    try:
        same = os.path.samestat(os.fstat(fh.fileno()), os.stat(path))
    except OSError:
        same = False
    if not same:
        raise IngestError(f"{path} changed while it was read")


def _parse_rows(rows, skiprows: int = 0) -> np.ndarray:
    """The numeric table of ``rows``, a path string or a list of lines,
    past its first ``skiprows`` lines."""
    return np.loadtxt(
        rows, delimiter=",", quotechar='"', comments=None, ndmin=2,
        skiprows=skiprows, encoding="utf-8",
    )


def _data_rows(path: Path) -> list[tuple[int, str]]:
    """Each data row of ``path``: the file line its csv record starts on (the
    header starts on line 1) and the record's text.

    A record spans more than one line where a quoted cell holds a line
    break, so row numbers follow records, not lines. A record of blank
    cells is no data row. Past a cell too long for the csv module, each
    remaining line is one record.
    """
    with open_input(path, IngestError, newline="") as fh:
        lines = fh.readlines()
    ends: list[int] = []  # the line count read at the end of each record
    reader = csv.reader(lines)
    try:
        for _ in reader:
            ends.append(reader.line_num)
    except csv.Error:
        pass
    ends += range(ends[-1] + 1 if ends else 1, len(lines) + 1)
    rows = []
    for start, end in zip(ends, ends[1:]):
        text = "".join(lines[start:end])
        if text.strip(_BLANK_ROW_CHARS):
            rows.append((start + 1, text))
    return rows


def _file_row(path: Path, k: int) -> int:
    """File row number of data row ``k`` (from 0) of ``path``."""
    return _data_rows(path)[k][0]


def _parse_lines(path: Path) -> np.ndarray:
    """The table of ``path``'s data rows, read record by record.

    Only runs when the one-pass read failed, found no rows or was not made
    (see ``_read_csv_columns``): an empty body, a header with no data rows,
    is an IngestError, and so is a table that still does not parse, naming
    its first bad row.
    """
    rows = _data_rows(path)
    if not rows:
        raise IngestError(f"{path} has a header but no data rows")
    try:
        return _parse_rows([text for _, text in rows])
    except ValueError:
        raise _malformed_row(path, rows) from None


#: characters of a bad row that its error quotes; a longer row is cut to them
_QUOTED_ROW_CHARS = 60


def _malformed_row(path: Path, rows: list[tuple[int, str]]) -> IngestError:
    """Name the first row that made the whole-table parse fail.

    Only runs after that parse failed. Each data row is parsed on its own; a
    row that parses but has another cell count than the first row is ragged.
    A row that does not parse is quoted, cut to its first
    ``_QUOTED_ROW_CHARS`` characters if it is longer.
    """
    width = None
    for lineno, text in rows:
        try:
            cells = _parse_rows([text]).shape[1]
        except ValueError:
            row = text.strip()
            quoted = repr(row)
            if len(row) > _QUOTED_ROW_CHARS:
                quoted = (
                    f"{row[:_QUOTED_ROW_CHARS]!r} "
                    f"(the first {_QUOTED_ROW_CHARS} of {len(row)} characters)"
                )
            return IngestError(f"{path} row {lineno}: {quoted} is not all numbers")
        if width is None:
            width = cells
        elif cells != width:
            return IngestError(
                f"{path} row {lineno}: {cells} cells where the first row has {width}"
            )
    return IngestError(f"{path}: the rows do not form a numeric table")


def _check_rate(time: np.ndarray, declared_fs: float, path: Path) -> None:
    """Refuse, as an IngestError, time stamps that do not strictly increase
    (naming the first row that does not step forward) or whose median step
    is not ``1 / declared_fs`` within ``RATE_TOLERANCE``, 0.01%."""
    if time.size < 2:
        return
    steps = np.diff(time)
    back = np.flatnonzero(steps <= 0)
    if back.size:
        k = int(back[0]) + 1
        raise IngestError(
            f"{path} row {_file_row(path, k)}: t_s {time[k]:.9g} s does not follow "
            f"{time[k - 1]:.9g} s of the row before"
        )
    spacing = _median(steps)
    expected = 1.0 / declared_fs
    if abs(spacing - expected) > RATE_TOLERANCE * expected:
        raise IngestError(
            f"{path}: declared {declared_fs:g} Hz but rows step "
            f"{spacing:.6g} s (expected {expected:.6g} s)"
        )


def _median(x: np.ndarray) -> float:
    """``np.median`` of a non-empty array of finite numbers or infinities,
    bit for bit, without the NaN check that loads ``numpy.ma``: the middle
    one or two values by ``np.partition``, summed as ``np.mean`` sums them
    (from +0.0, so -0.0 and 0.0 give the same), over their count."""
    half = x.size // 2
    kth = [half] if x.size % 2 else [half - 1, half]
    middle = np.partition(x, kth)[kth[0] : half + 1]
    return float(middle.sum()) / middle.size


def read_force_csv(path: str | Path, fs: float = FS_FORCE_DEFAULT) -> dict[str, np.ndarray]:
    """Read and validate a force-stream CSV; returns its columns by name."""
    cols = _read_csv_columns(path, FORCE_COLUMNS)
    _check_rate(cols["t_s"], fs, Path(path))
    return cols


def read_range_csv(path: str | Path, fs: float = FS_RANGE_DEFAULT) -> dict[str, np.ndarray]:
    """Read and validate a range-stream CSV; returns its columns by name."""
    cols = _read_csv_columns(path, RANGE_COLUMNS)
    _check_rate(cols["t_s"], fs, Path(path))
    return cols


def load_trial(path: str | Path) -> RawAcquisition:
    """Load one trial from its manifest JSON.

    Stream paths in the manifest are resolved relative to the manifest file.
    Each refusal is an IngestError. A manifest that cannot be opened is one
    naming it; one that is not a JSON object, lacks a key of ``_MANIFEST``
    or holds a field of the wrong kind, or a sample rate that is not > 0 or
    whose period 1 / rate overflows, is one naming the manifest and the key.
    A stream file that is missing is one naming both; one that exists but
    cannot be opened (a directory, an unreadable file) is one naming it.
    """
    path = Path(path)
    values = read_object(read_json_file(path, IngestError), _MANIFEST, str(path), IngestError)
    meta = TrialMeta(**{f.name: values[f.name] for f in fields(TrialMeta)})
    fs_force, fs_range = rates = [values[key] for key in SAMPLE_RATE_KEYS]
    for key, rate in zip(SAMPLE_RATE_KEYS, rates):
        if not (rate > 0 and 1.0 / rate < math.inf):
            raise IngestError(f"{path}: {key} must be > 0 with a finite period, got {rate:g}")

    force_path = path.parent / values["force_csv"]
    range_path = path.parent / values["range_csv"]
    for p in (force_path, range_path):
        if not p.exists():
            raise IngestError(f"{path} references missing stream file {p}")

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
    """Total normal force: the unweighted sum of the three load-cell channels,
    which must share one shape (an IngestError if they do not).

    The cells share one mounting plate, so the plate-normal force is simply
    their sum; no per-channel calibration weights are applied.
    """
    f1, f2, f3 = (np.asarray(f) for f in (f1, f2, f3))
    if not (f1.shape == f2.shape == f3.shape):
        raise IngestError(
            f"load-cell channels differ in shape: {f1.shape}, {f2.shape}, {f3.shape}"
        )
    return f1 + f2 + f3


def align_streams(raw: RawAcquisition) -> TrialRecord:
    """Merge the two streams onto the force grid with the trigger at t = 0.

    The shift applied to each stream is exactly its trigger timestamp, so the
    operation is idempotent: aligning an already-aligned acquisition (both
    triggers at 0 on their grids) reproduces it unchanged.

    Raises an IngestError when either stream has no rising trigger edge, when
    the streams share no time span, and when either trigger instant sits
    more than 0.1 ms from that stream's nearest sample — inconsistent trigger
    metadata would otherwise silently skew every downstream timing metric.
    """
    if raw.trigger_time_force is None:
        raise IngestError("force stream has no trigger edge")
    if raw.trigger_time_range is None:
        raise IngestError("range stream has no trigger edge")

    i_trig = int(np.argmin(np.abs(raw.force_time - raw.trigger_time_force)))
    residual = float(abs(raw.force_time[i_trig] - raw.trigger_time_force)) + float(
        np.min(np.abs(raw.range_time - raw.trigger_time_range))
    )
    if residual > ALIGNMENT_TOLERANCE_S:
        raise IngestError(
            f"trigger instants sit {residual * 1e3:.3f} ms off the sample grids "
            f"(tolerance {ALIGNMENT_TOLERANCE_S * 1e3:.1f} ms)"
        )

    n = raw.force_time.size
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
        raise IngestError("streams share no common time span")
    time = time[keep]
    idx = np.searchsorted(range_time_aligned, time, side="right") - 1
    idx = np.clip(idx, 0, raw.range_m.size - 1)

    force_total = sum_load_cells(
        raw.force_channels[:, 0], raw.force_channels[:, 1], raw.force_channels[:, 2]
    )
    return TrialRecord(
        time=time,
        force_total=force_total[keep],
        range_m=np.asarray(raw.range_m, dtype=float),
        range_index=idx,
        fs_range=raw.fs_range,
        fs=raw.fs_force,
        meta=raw.meta,
    )
