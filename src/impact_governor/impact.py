"""Impact event detection and Table-style per-trial metrics.

A trial record enters as time-aligned force and range series; this module
conditions them, finds the contact event, and reduces it to scalar metrics:
peak force, rectified impulse, effective contact duration, approach/rebound
speeds, kinetic-energy retention, and effective restitution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dsp import FilterSpec, KalmanConfig, butterworth_lowpass, kalman_smooth, median_despike
from .errors import (
    EmptyInput,
    InvariantViolation,
    LengthMismatch,
    NoImpactFound,
    RestitutionAboveUnity,
    VelocityTooLow,
)
from .ingest import TrialRecord

F_THRESHOLD_N = 6.0
V_THRESHOLD_MPS = 2.5

#: averaging window for approach and rebound speed estimates
SPEED_WINDOW_S = 0.010

#: fraction of the contact impulse that defines the effective duration
IMPULSE_FRACTION = 0.99

#: pipeline despike window on the resampled grid — covers five native range
#: periods (6250/1000 Hz), so a single bad range reading held by the
#: zero-order hold is still a minority within the window
RESAMPLED_DESPIKE_WINDOW = 31


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

METRICS_CSV_COLUMNS = ("configuration", "mass_kg", "angle_deg") + METRIC_FIELDS + ("flags",)


def detect_impact(time: np.ndarray, force: np.ndarray, velocity: np.ndarray) -> ImpactWindow:
    """Find the contact onset and extent.

    Onset is the first sample where force exceeds ``F_THRESHOLD_N`` while the
    estimated speed exceeds ``V_THRESHOLD_MPS`` (the velocity gate rejects
    bench knocks and cable tugs). The window ends one sample after the last
    above-threshold force sample. ``v_in`` is the mean |velocity| over the
    ``SPEED_WINDOW_S`` preceding onset.
    """
    time = np.asarray(time, dtype=float)
    force = np.asarray(force, dtype=float)
    velocity = np.asarray(velocity, dtype=float)
    if not (time.shape == force.shape == velocity.shape):
        raise LengthMismatch(
            f"time/force/velocity shapes differ: {time.shape}, {force.shape}, {velocity.shape}"
        )

    above = force > F_THRESHOLD_N
    if not above.any():
        raise NoImpactFound(f"no sample exceeds {F_THRESHOLD_N:g} N")
    joint = above & (np.abs(velocity) > V_THRESHOLD_MPS)
    if not joint.any():
        raise VelocityTooLow(
            f"force exceeds {F_THRESHOLD_N:g} N but never while |v| > {V_THRESHOLD_MPS:g} m/s"
        )

    i_start = int(np.argmax(joint))
    t_start = float(time[i_start])

    i_last_above = int(np.flatnonzero(above[i_start:])[-1]) + i_start
    i_end = min(i_last_above + 1, time.size - 1)
    t_end = float(time[i_end])

    pre = (time >= t_start - SPEED_WINDOW_S) & (time < t_start)
    if not pre.any():
        raise VelocityTooLow("no pre-impact samples to estimate approach speed")
    v_in = float(np.mean(np.abs(velocity[pre])))

    return ImpactWindow(
        t_start=t_start,
        t_end=t_end,
        time=time[i_start:].copy(),
        force=force[i_start:].copy(),
        v_in=v_in,
    )


def _cumulative_rectified(window: ImpactWindow) -> tuple[np.ndarray, float]:
    dt = float(window.time[1] - window.time[0])
    fpos = np.clip(window.force, 0.0, None)
    cum = np.empty_like(fpos)
    cum[0] = 0.0
    np.cumsum((fpos[1:] + fpos[:-1]) * (0.5 * dt), out=cum[1:])
    return cum, dt


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
    cum, _ = _cumulative_rectified(window)
    above = np.flatnonzero(window.force > F_THRESHOLD_N)
    i_cap = min(int(above[-1]) + 1, window.force.size - 1) if above.size else cum.size - 1
    target = IMPULSE_FRACTION * cum[i_cap]
    idx = int(np.argmax(cum >= target))
    return float(window.time[idx] - window.time[0])


def rectified_impulse(window: ImpactWindow) -> float:
    """Transferred impulse J: trapezoidal integral of max(F, 0) over the
    contact window. Rectification keeps plate-resonance undershoot (the
    sensor swinging negative) from cancelling real momentum transfer."""
    cum, _ = _cumulative_rectified(window)
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
    approach is unphysical for a passive impact and rejects the trial.
    """
    if mass <= 0 or v_in <= 0:
        raise ValueError("mass and v_in must be positive")
    if v_f > v_in:
        raise RestitutionAboveUnity(
            f"rebound {v_f:.3g} m/s exceeds approach {v_in:.3g} m/s"
        )
    ec_i = 0.5 * mass * v_in**2
    ec_r = (v_f / v_in) ** 2
    return ec_i, ec_r


def summarize_trial(record: TrialRecord) -> ImpactMetrics:
    """Run the full conditioning + detection + metrics chain on one trial.

    Force takes the zero-phase low-pass; range takes despike then the Kalman
    filter (initialised at the manifest's nominal approach speed, negative
    because range shrinks on approach). The rebound segment is re-estimated by
    running the same Kalman over the post-contact range in reverse time: a
    forward filter tuned for smooth approach cannot re-converge within 10 ms
    of a multi-m/s velocity reversal, whereas the reverse-time pass reaches
    the window end fully informed by the whole rebound.
    """
    dt = 1.0 / record.fs
    force_f = butterworth_lowpass(record.force_total, FilterSpec(fs=record.fs))

    range_d = median_despike(record.range_resampled, window=RESAMPLED_DESPIKE_WINDOW)
    kcfg = KalmanConfig(
        dt=dt,
        initial_state=(float(range_d[0]), -abs(record.meta.nominal_speed_mps)),
    )
    _, vel = kalman_smooth(range_d, kcfg)

    window = detect_impact(record.time, force_f, vel)
    dt_j = contact_duration(window)
    j = rectified_impulse(window)
    f_max = peak_force(window)

    i_end = int(np.searchsorted(record.time, window.t_end))
    tail = range_d[i_end:]
    if tail.size >= 2:
        rev_cfg = KalmanConfig(dt=dt, initial_state=(float(tail[-1]), 0.0))
        _, v_rev = kalman_smooth(tail[::-1], rev_cfg)
        post_velocity = -v_rev[::-1]
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
            "schema": 1,
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
    def from_dict(cls, d: dict) -> "ConfigurationSummary":
        stats = {
            name: MetricStat(float(v["mean"]), float(v["std"]), float(v["cv"]))
            for name, v in d["metrics"].items()
        }
        return cls(
            configuration=str(d["configuration"]),
            n=int(d["n"]),
            mass_kg=float(d["mass_kg"]),
            angle_deg=float(d["angle_deg"]),
            stats=stats,
        )


def aggregate_configuration(metrics: list[ImpactMetrics]) -> ConfigurationSummary:
    """Mean / sample std (n-1) / coefficient of variation per metric.

    All trials must belong to one configuration; order does not matter.
    """
    if len(metrics) < 2:
        raise EmptyInput(f"need at least 2 trials to aggregate, got {len(metrics)}")
    names = {m.configuration for m in metrics}
    if len(names) != 1:
        raise InvariantViolation(f"mixed configurations in one aggregate: {sorted(names)}")

    stats: dict[str, MetricStat] = {}
    for fname in METRIC_FIELDS:
        vals = np.array([getattr(m, fname) for m in metrics], dtype=float)
        mean = float(np.mean(vals))
        std = float(np.std(vals, ddof=1))
        cv = std / mean if mean != 0.0 else math.nan
        stats[fname] = MetricStat(mean=mean, std=std, cv=cv)

    return ConfigurationSummary(
        configuration=metrics[0].configuration,
        n=len(metrics),
        mass_kg=float(np.mean([m.mass_kg for m in metrics])),
        angle_deg=float(np.mean([m.angle_deg for m in metrics])),
        stats=stats,
    )
