"""Impact event detection and Table-style per-trial metrics.

A trial record enters as time-aligned force and range series; this module
conditions them, finds the contact event, and reduces it to scalar metrics:
peak force, rectified impulse, effective contact duration, approach/rebound
speeds, kinetic-energy retention, and effective restitution.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

from .dsp import FilterSpec, KalmanConfig, butterworth_lowpass, kalman_smooth, median_despike
from .errors import (
    FINITE,
    INT,
    NUMBER,
    REQUIRED,
    STR,
    IngestError,
    InvariantViolation,
    not_utf8,
    open_input,
    read_object,
    write_output,
)
from .ingest import TrialRecord

F_THRESHOLD_N = 6.0
V_THRESHOLD_MPS = 2.5

#: averaging window for approach and rebound speed estimates
SPEED_WINDOW_S = 0.010

#: fraction of the contact impulse that defines the effective duration
IMPULSE_FRACTION = 0.99


@dataclass
class ImpactWindow:
    """A detected contact: onset, above-threshold extent, and context.

    ``time``/``force`` hold the record tail from the onset sample through the
    end of the record (the duration rule needs the tail); slicing to
    ``t_end`` gives the above-threshold contact itself.
    """

    t_start: float
    t_end: float
    time: np.ndarray
    force: np.ndarray
    v_in: float

    def contact_slice(self) -> slice:
        stop = int(np.searchsorted(self.time, self.t_end, side="right"))
        return slice(0, max(stop, 2))


@dataclass
class ImpactMetrics:
    """One trial reduced to scalars, plus the airframe identity."""

    configuration: str
    mass_kg: float
    angle_deg: float
    v_in_mps: float
    f_max_n: float
    dt_j_s: float
    j_ns: float
    ec_i_j: float
    ec_r: float
    v_f_mps: float
    e_hat: float
    v_f_impulse_mps: float
    flags: list[str] = field(default_factory=list)


METRIC_FIELDS = (
    "v_in_mps",
    "f_max_n",
    "dt_j_s",
    "j_ns",
    "ec_i_j",
    "ec_r",
    "v_f_mps",
    "e_hat",
    "v_f_impulse_mps",
)

#: the numbers of a metrics CSV row, between its configuration and its flags
_METRICS_CSV_NUMBERS = ("mass_kg", "angle_deg") + METRIC_FIELDS

METRICS_CSV_COLUMNS = ("configuration",) + _METRICS_CSV_NUMBERS + ("flags",)

#: the version of the configuration summary JSON that ``to_dict`` writes
SUMMARY_SCHEMA = 1


def write_metrics_csv(path, metrics: list[ImpactMetrics]) -> None:
    """The ``METRICS_CSV_COLUMNS`` header, then one row per trial: each number
    as ``%.9g`` and the flags joined by ``;``."""
    text = io.StringIO(newline="")
    writer = csv.writer(text)
    writer.writerow(METRICS_CSV_COLUMNS)
    writer.writerows(
        [m.configuration]
        + [format(float(getattr(m, name)), ".9g") for name in _METRICS_CSV_NUMBERS]
        + [";".join(m.flags)]
        for m in metrics
    )
    write_output(path, text.getvalue(), newline="")


def read_metrics_csv(path) -> list[ImpactMetrics]:
    """The trials of a ``write_metrics_csv`` file, whose flags column may be
    left out. A file without a header, or whose header lacks another column,
    is an IngestError naming the file and the missing columns; a row with a
    cell that is not a number and a row with fewer or more cells than the
    header are each one naming the file and the row; a file that is not
    UTF-8 text is one naming the file and the byte, and one that cannot be
    opened an IngestError naming the file."""
    try:
        with open_input(path, IngestError, newline="") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise not_utf8(path, exc) from None
    metrics = []
    reader = csv.DictReader(io.StringIO(text, newline=""))
    missing = [c for c in METRICS_CSV_COLUMNS[:-1] if c not in (reader.fieldnames or ())]
    if missing:
        raise IngestError(f"{path}: not a metrics CSV (no column {', '.join(missing)})")
    for row in reader:
        try:
            configuration = row["configuration"]
            numbers = {name: float(row[name]) for name in _METRICS_CSV_NUMBERS}
            flags = row.get("flags", "")
            if flags is None:
                raise ValueError("the row ends before its flags cell")
            if None in row:  # where DictReader puts the cells past the header
                raise ValueError(f"{len(row[None])} cell(s) past the header")
        except (TypeError, ValueError) as exc:
            raise IngestError(
                f"{path} row {reader.line_num}: not a metrics row "
                f"({type(exc).__name__}: {exc})"
            ) from exc
        flags = [f for f in flags.split(";") if f]
        metrics.append(ImpactMetrics(configuration=configuration, flags=flags, **numbers))
    return metrics


def detect_impact(time: np.ndarray, force: np.ndarray, velocity: np.ndarray) -> ImpactWindow:
    """Find the contact onset and extent.

    Onset is the first sample where force exceeds ``F_THRESHOLD_N`` while the
    estimated speed exceeds ``V_THRESHOLD_MPS`` (the velocity gate rejects
    bench knocks and cable tugs). The window ends one sample after the last
    above-threshold force sample. ``v_in`` is the mean |velocity| over the
    ``SPEED_WINDOW_S`` preceding onset. An IngestError rejects a record in
    which no sample exceeds the force threshold, or none while the speed
    does (a false positive, such as a bench knock or a cable tug), or with
    no sample in the window before onset; and one whose series differ in shape.
    """
    time = np.asarray(time, dtype=float)
    force = np.asarray(force, dtype=float)
    velocity = np.asarray(velocity, dtype=float)
    if not (time.shape == force.shape == velocity.shape):
        raise IngestError(
            f"time/force/velocity shapes differ: {time.shape}, {force.shape}, {velocity.shape}"
        )

    above = force > F_THRESHOLD_N
    if not above.any():
        raise IngestError(f"no sample exceeds {F_THRESHOLD_N:g} N")
    joint = above & (np.abs(velocity) > V_THRESHOLD_MPS)
    if not joint.any():
        raise IngestError(
            f"force exceeds {F_THRESHOLD_N:g} N but never while |v| > {V_THRESHOLD_MPS:g} m/s"
        )

    i_start = int(np.argmax(joint))
    t_start = float(time[i_start])

    i_last_above = int(np.flatnonzero(above[i_start:])[-1]) + i_start
    i_end = min(i_last_above + 1, time.size - 1)
    t_end = float(time[i_end])

    pre = (time >= t_start - SPEED_WINDOW_S) & (time < t_start)
    if not pre.any():
        raise IngestError("no pre-impact samples to estimate approach speed")
    v_in = float(np.mean(np.abs(velocity[pre])))

    return ImpactWindow(
        t_start=t_start,
        t_end=t_end,
        time=time[i_start:].copy(),
        force=force[i_start:].copy(),
        v_in=v_in,
    )


def _cumulative_rectified(window: ImpactWindow) -> np.ndarray:
    dt = float(window.time[1] - window.time[0])
    fpos = np.clip(window.force, 0.0, None)
    cum = np.empty_like(fpos)
    cum[0] = 0.0
    np.cumsum((fpos[1:] + fpos[:-1]) * (0.5 * dt), out=cum[1:])
    return cum


def contact_duration(window: ImpactWindow) -> float:
    """Effective contact duration: time from onset until the cumulative
    rectified impulse reaches 99% of its value at the last downward crossing
    of the force threshold.

    Evaluating the target at the last threshold crossing (rather than the end
    of the record) keeps the duration independent of how much post-contact
    tail was logged: rectified sensor noise after separation would otherwise
    creep the target upward. Sub-threshold lulls between contact stages still
    count, so multi-stage contacts are spanned.
    """
    cum = _cumulative_rectified(window)
    above = np.flatnonzero(window.force > F_THRESHOLD_N)
    i_cap = min(int(above[-1]) + 1, window.force.size - 1) if above.size else cum.size - 1
    target = IMPULSE_FRACTION * cum[i_cap]
    idx = int(np.argmax(cum >= target))
    return float(window.time[idx] - window.time[0])


def rectified_impulse(window: ImpactWindow) -> float:
    """Transferred impulse J: trapezoidal integral of max(F, 0) over the
    contact window. Rectification keeps plate-resonance undershoot (the
    sensor swinging negative) from cancelling real momentum transfer."""
    cum = _cumulative_rectified(window)
    stop = window.contact_slice().stop
    return float(cum[stop - 1])


def peak_force(window: ImpactWindow) -> float:
    """Largest filtered force sample within the contact window."""
    return float(np.max(window.force[window.contact_slice()]))


def rebound_velocity(
    window: ImpactWindow, mass: float, post_velocity: np.ndarray
) -> tuple[float, float, list[str]]:
    """Two independent rebound-speed estimates.

    ``post_velocity`` is a velocity series starting at the window end (the
    caller supplies the best available estimate for that segment; see
    summarize_trial). The kinematic estimate averages |post_velocity| over the
    first ``SPEED_WINDOW_S``. The impulse-route estimate is J/m - v_in, floored
    at zero; when J/m < v_in the flag ``negative-impulse-residual`` marks that
    the rectified impulse undercounted (support losses), in which case the
    kinematic estimate is the one to trust.
    """
    if mass <= 0:
        raise ValueError(f"mass must be positive, got {mass}")
    post_velocity = np.asarray(post_velocity, dtype=float)
    if post_velocity.size == 0:
        raise ValueError("post_velocity is empty")

    flags: list[str] = []
    dt = float(window.time[1] - window.time[0])
    k = max(int(round(SPEED_WINDOW_S / dt)), 1)
    if post_velocity.size < k:
        flags.append("short-rebound-window")
        k = post_velocity.size
    v_f_kinematic = float(np.mean(np.abs(post_velocity[:k])))

    residual = rectified_impulse(window) / mass - window.v_in
    if residual < 0.0:
        flags.append("negative-impulse-residual")
    v_f_impulse = max(residual, 0.0)
    return v_f_kinematic, v_f_impulse, flags


def kinetic_energies(mass: float, v_in: float, v_f: float) -> tuple[float, float]:
    """Incident kinetic energy and retained-energy ratio.

    EC_i = m v_in^2 / 2;  EC_r = (v_f / v_in)^2. A rebound faster than the
    approach is unphysical for a passive impact and rejects the trial, as
    does an EC_i that is not a finite number (NaN, or an overflow).
    """
    if mass <= 0 or v_in <= 0:
        raise ValueError("mass and v_in must be positive")
    if v_f > v_in:
        raise IngestError(
            f"rebound {v_f:.3g} m/s exceeds approach {v_in:.3g} m/s"
        )
    try:
        ec_i = 0.5 * mass * v_in**2
    except OverflowError:
        ec_i = math.inf
    if not math.isfinite(ec_i):
        raise IngestError(
            f"incident kinetic energy of {mass:.3g} kg at {v_in:.3g} m/s is not finite"
        )
    ec_r = (v_f / v_in) ** 2
    return ec_i, ec_r


def summarize_trial(record: TrialRecord) -> ImpactMetrics:
    """Run the full conditioning + detection + metrics chain on one trial.

    Force takes the zero-phase low-pass. The range readings are despiked and
    Kalman-filtered as logged, at the sensor's own rate, so that one bad
    reading is one sample of the despike window and the filter steps once per
    reading whatever that rate. The filter is initialised at the first reading
    and the manifest's nominal approach speed (negative because range shrinks
    on approach); only its velocity is held onto the force grid, for
    detection. The rebound segment is re-estimated by running the same Kalman
    over the readings from the contact end onward in reverse time: a forward
    filter tuned for smooth approach cannot re-converge within 10 ms of a
    multi-m/s velocity reversal, whereas the reverse-time pass reaches the
    window end fully informed by the whole rebound.
    """
    force_f = butterworth_lowpass(record.force_total, FilterSpec(fs=record.fs))

    range_d = median_despike(record.range_m)
    dt_range = 1.0 / record.fs_range
    kcfg = KalmanConfig(
        dt=dt_range,
        initial_state=(float(range_d[0]), -abs(record.meta.nominal_speed_mps)),
    )
    _, vel_native = kalman_smooth(range_d, kcfg)
    vel = vel_native[record.range_index]

    window = detect_impact(record.time, force_f, vel)
    dt_j = contact_duration(window)
    j = rectified_impulse(window)
    f_max = peak_force(window)

    i_end = int(np.searchsorted(record.time, window.t_end))
    j_end = int(record.range_index[i_end])
    tail = range_d[j_end:]
    if tail.size >= 2:
        rev_cfg = KalmanConfig(dt=dt_range, initial_state=(float(tail[-1]), 0.0))
        _, v_rev = kalman_smooth(tail[::-1], rev_cfg)
        post_velocity = -v_rev[::-1][record.range_index[i_end:] - j_end]
    else:
        post_velocity = vel[i_end:]

    v_f_kin, v_f_imp, flags = rebound_velocity(window, record.meta.mass_kg, post_velocity)
    ec_i, ec_r = kinetic_energies(record.meta.mass_kg, window.v_in, v_f_kin)

    return ImpactMetrics(
        configuration=record.meta.configuration,
        mass_kg=record.meta.mass_kg,
        angle_deg=record.meta.angle_deg,
        v_in_mps=window.v_in,
        f_max_n=f_max,
        dt_j_s=dt_j,
        j_ns=j,
        ec_i_j=ec_i,
        ec_r=ec_r,
        v_f_mps=v_f_kin,
        e_hat=math.sqrt(ec_r),
        v_f_impulse_mps=v_f_imp,
        flags=flags,
    )


@dataclass(frozen=True)
class MetricStat:
    mean: float
    std: float
    cv: float


@dataclass
class ConfigurationSummary:
    """Per-configuration aggregate over repeated trials (n >= 2)."""

    configuration: str
    n: int
    mass_kg: float
    angle_deg: float
    stats: dict[str, MetricStat]

    def to_dict(self) -> dict:
        return {
            "schema": SUMMARY_SCHEMA,
            "configuration": self.configuration,
            "n": self.n,
            "mass_kg": self.mass_kg,
            "angle_deg": self.angle_deg,
            "metrics": {
                name: {"mean": s.mean, "std": s.std, "cv": s.cv}
                for name, s in self.stats.items()
            },
        }

    @classmethod
    def from_dict(cls, d: dict, path="document") -> "ConfigurationSummary":
        """The summary of a ``to_dict`` document, read by ``_SUMMARY``; a missing
        key, a field not of its kind, a schema other than the integer
        ``SUMMARY_SCHEMA`` or an ``n`` below 2 is an IngestError naming ``path``."""
        where = f"{path}: not a configuration summary"
        values = read_object(d, _SUMMARY, where, IngestError)
        if values["schema"] != SUMMARY_SCHEMA:
            raise IngestError(
                f"{where}: summary schema {values['schema']!r} not supported "
                f"(expected the integer {SUMMARY_SCHEMA})"
            )
        if values["n"] < 2:
            raise IngestError(f"{where}: n must be at least 2, got {values['n']}")
        del values["schema"]
        stats = {name: MetricStat(**stat) for name, stat in values.pop("metrics").items()}
        return cls(stats=stats, **values)


#: the summary document: a stat of each metric field, each a finite number
#: but for the ``cv`` (NaN when the mean is 0); other keys are ignored
_STAT = {"mean": (FINITE, REQUIRED), "std": (FINITE, REQUIRED), "cv": (NUMBER, REQUIRED)}
_SUMMARY = {
    "schema": (INT, REQUIRED), "configuration": (STR, REQUIRED), "n": (INT, REQUIRED),
    "mass_kg": (FINITE, REQUIRED), "angle_deg": (FINITE, REQUIRED),
    "metrics": (dict.fromkeys(METRIC_FIELDS, (_STAT, REQUIRED)), REQUIRED),
}


def aggregate_configuration(metrics: list[ImpactMetrics]) -> ConfigurationSummary:
    """Mean / sample std (n-1) / coefficient of variation per metric.

    At least two trials (an IngestError otherwise), all of one configuration;
    order does not matter.
    """
    if len(metrics) < 2:
        raise IngestError(f"need at least 2 trials to aggregate, got {len(metrics)}")
    names = {m.configuration for m in metrics}
    if len(names) != 1:
        raise InvariantViolation(f"mixed configurations in one aggregate: {sorted(names)}")

    # One C-contiguous (fields x trials) table, reduced along its rows: each
    # row's sums run over contiguous memory in the order the sums over that
    # field alone do, so the means and stds are theirs, bit for bit.
    table = np.array(
        [[getattr(m, name) for m in metrics] for name in _METRICS_CSV_NUMBERS], dtype=float
    )
    mean = dict(zip(_METRICS_CSV_NUMBERS, np.mean(table, axis=1).tolist()))
    std = dict(zip(_METRICS_CSV_NUMBERS, np.std(table, axis=1, ddof=1).tolist()))
    stats = {
        f: MetricStat(mean[f], std[f], std[f] / mean[f] if mean[f] != 0.0 else math.nan)
        for f in METRIC_FIELDS
    }

    return ConfigurationSummary(
        configuration=metrics[0].configuration,
        n=len(metrics),
        mass_kg=mean["mass_kg"],
        angle_deg=mean["angle_deg"],
        stats=stats,
    )
