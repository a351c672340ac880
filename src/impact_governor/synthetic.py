"""Physics-consistent synthetic bench trials.

Builds complete two-logger acquisitions (force plate at 6250 Hz, range
finder at 1000 Hz, deliberately offset clocks, shared hardware trigger)
for half-sine or two-stage contact pulses, together with an independent
ground-truth record computed on a dense 2 microsecond grid straight
from the closed-form force history.  The truth values never touch the
estimation pipeline, so they can stand as oracles against it.

Sign conventions: range decreases during approach, the contact force
pushes the range rate positive, and a trial with restitution e launched
at v_in rebounds at e * v_in.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .errors import write_json_file, write_output
from .ingest import (
    FORCE_COLUMNS,
    FS_FORCE_DEFAULT,
    FS_RANGE_DEFAULT,
    MANIFEST_KEYS,
    RANGE_COLUMNS,
    SAMPLE_RATE_KEYS,
    RawAcquisition,
    TrialMeta,
)

TRIGGER_TIME_S = 0.08
RANGE_CLOCK_OFFSET_S = 0.013  # range logger clock runs ahead by this much
WALL_OFFSET_M = 0.05
DENSE_DT_S = 2e-6
_CHANNEL_WEIGHTS = (0.40, 0.35, 0.25)
_F_THRESHOLD_N = 6.0
_IMPULSE_FRACTION = 0.99


def _pulse_train(kind: str, v_in: float, e: float, mass: float, tau_s: float,
                 t_contact: float, v_mid: float, gap_s: float, tau2_s: float):
    """Return [(t0, amplitude, tau)] half-sine lobes for the requested shape."""
    if kind in ("elastic", "plastic"):
        impulse = mass * v_in * (1.0 + e)
        return [(t_contact, math.pi * impulse / (2.0 * tau_s), tau_s)]
    if kind == "two_stage":
        if not (0.0 < v_mid < v_in):
            raise ValueError("two_stage needs 0 < v_mid < v_in")
        j1 = mass * (v_in - v_mid)
        j2 = mass * (v_mid + e * v_in)
        return [
            (t_contact, math.pi * j1 / (2.0 * tau_s), tau_s),
            (t_contact + tau_s + gap_s, math.pi * j2 / (2.0 * tau2_s), tau2_s),
        ]
    raise ValueError(f"unknown fixture kind: {kind!r}")


def _force_history(t: np.ndarray, pulses) -> np.ndarray:
    f = np.zeros_like(t)
    for t0, amp, tau in pulses:
        phase = (t - t0) / tau
        mask = (phase >= 0.0) & (phase <= 1.0)
        f[mask] += amp * np.sin(np.pi * phase[mask])
    return f


def synth_trial(
    kind: str = "elastic",
    v_in: float = 4.0,
    e: float = 0.4,
    mass: float = 0.27,
    tau_s: float = 0.020,
    v_mid: float = 1.0,
    gap_s: float = 0.005,
    tau2_s: float = 0.010,
    approach_s: float = 0.57,
    post_s: float = 0.15,
    noise_force_n: float = 0.0,
    noise_range_m: float = 0.0,
    seed: int = 0,
    configuration: str = "Fixture",
    angle_deg: float = 0.0,
    material: str = "synthetic",
) -> tuple[RawAcquisition, dict]:
    """Generate one acquisition plus its ground truth.

    ``noise_force_n`` is the standard deviation of the summed force
    (split evenly across the three load cells); ``noise_range_m``
    applies to each raw range sample.
    """
    if kind == "plastic":
        e = 0.0
    if v_in <= 0 or mass <= 0 or tau_s <= 0:
        raise ValueError("v_in, mass and tau_s must be positive")
    if not 0.0 <= e <= 1.0:
        raise ValueError(f"restitution must be in [0, 1], got {e}")

    rng = np.random.default_rng(seed)
    t_contact = TRIGGER_TIME_S + approach_s
    pulses = _pulse_train(kind, v_in, e, mass, tau_s, t_contact, v_mid, gap_s, tau2_s)
    t_contact_end = max(t0 + tau for t0, _, tau in pulses)
    duration = t_contact_end + post_s

    # Dense closed-loop kinematics; grid starts early enough to cover the
    # range logger's skewed first samples.
    t_dense = np.arange(-RANGE_CLOCK_OFFSET_S - 0.005, duration, DENSE_DT_S)
    f_dense = _force_history(t_dense, pulses)
    v_dense = -v_in + np.concatenate(
        ([0.0], np.cumsum((f_dense[1:] + f_dense[:-1]) * 0.5 * DENSE_DT_S))
    ) / mass
    r_cum = np.concatenate(
        ([0.0], np.cumsum((v_dense[1:] + v_dense[:-1]) * 0.5 * DENSE_DT_S))
    )
    r_at_contact = np.interp(t_contact, t_dense, r_cum)
    r_dense = WALL_OFFSET_M + (r_cum - r_at_contact)

    truth = _truth_from_dense(t_dense, f_dense, pulses, v_in, e, mass)

    # Force logger: samples physical time directly.
    n_f = int(round(duration * FS_FORCE_DEFAULT))
    t_force = np.arange(n_f) / FS_FORCE_DEFAULT
    f_clean = np.interp(t_force, t_dense, f_dense)
    channels = np.empty((n_f, 3))
    sigma_ch = noise_force_n / math.sqrt(3.0)
    for i, w in enumerate(_CHANNEL_WEIGHTS):
        channels[:, i] = w * f_clean + rng.normal(0.0, sigma_ch, n_f)
    accel = f_clean / mass + rng.normal(0.0, sigma_ch / mass, n_f)
    trig_force = (t_force >= TRIGGER_TIME_S - 1e-9).astype(float)

    # Range logger: local clock ahead of physical time by the skew.
    n_r = int(round(duration * FS_RANGE_DEFAULT))
    t_range_local = np.arange(n_r) / FS_RANGE_DEFAULT
    t_range_phys = t_range_local - RANGE_CLOCK_OFFSET_S
    r_samples = np.interp(t_range_phys, t_dense, r_dense)
    r_samples = r_samples + rng.normal(0.0, noise_range_m, n_r)
    trig_range = (
        t_range_local >= TRIGGER_TIME_S + RANGE_CLOCK_OFFSET_S - 1e-9
    ).astype(float)

    meta = TrialMeta(
        configuration=configuration,
        mass_kg=mass,
        angle_deg=angle_deg,
        nominal_speed_mps=v_in,
        material=material,
    )
    raw = RawAcquisition(
        force_time=t_force,
        force_channels=channels,
        accel=accel,
        force_trigger=trig_force,
        range_time=t_range_local,
        range_m=r_samples,
        range_trigger=trig_range,
        meta=meta,
        fs_force=FS_FORCE_DEFAULT,
        fs_range=FS_RANGE_DEFAULT,
    )
    return raw, truth


def _truth_from_dense(t_dense, f_dense, pulses, v_in, e, mass) -> dict:
    """Oracle metrics straight from the closed-form force history.

    Times are expressed on the trigger-aligned axis (t=0 at the trigger)
    to match what the pipeline reports.
    """
    above = f_dense > _F_THRESHOLD_N
    idx = np.flatnonzero(above)
    if idx.size == 0:
        raise ValueError("fixture force never exceeds the detection threshold")
    i_start, i_cap = int(idx[0]), int(idx[-1])
    rectified = np.clip(f_dense, 0.0, None)
    cum = np.concatenate(
        ([0.0], np.cumsum((rectified[1:] + rectified[:-1]) * 0.5 * DENSE_DT_S))
    )
    target = _IMPULSE_FRACTION * cum[i_cap]
    i99 = int(np.searchsorted(cum, target))
    v_f = e * v_in
    return {
        "v_in_mps": v_in,
        "e": e,
        "mass_kg": mass,
        "f_max_n": float(max(amp for _, amp, _ in pulses)),
        "j_ns": mass * v_in * (1.0 + e),
        "dt_j_s": float(t_dense[i99] - t_dense[i_start]),
        "t_start_s": float(t_dense[i_start] - TRIGGER_TIME_S),
        "t_end_s": float(t_dense[i_cap] - TRIGGER_TIME_S),
        "v_f_mps": v_f,
        "ec_i_j": 0.5 * mass * v_in**2,
        "ec_r": e**2,
    }


def write_trial(raw: RawAcquisition, out_dir, stem: str) -> Path:
    """Write force/range CSVs plus the trial manifest; returns manifest path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    force_path = out_dir / f"{stem}_force.csv"
    range_path = out_dir / f"{stem}_range.csv"
    manifest = out_dir / f"{stem}.json"

    # each table holds the columns of its header, in order; the last, the
    # trigger, is an integer
    force = np.column_stack((raw.force_time, raw.force_channels, raw.accel, raw.force_trigger))
    rng = np.column_stack((raw.range_time, raw.range_m, raw.range_trigger))
    tables = ((force_path, FORCE_COLUMNS, force), (range_path, RANGE_COLUMNS, rng))
    for path, columns, table in tables:
        line = ",".join(["%.9g"] * (len(columns) - 1) + ["%d"]) + "\n"
        write_output(path, "".join([",".join(columns) + "\n",
                                    *(line % tuple(row) for row in table.tolist())]))

    meta = raw.meta  # the values of the manifest keys, in their order
    values = (meta.configuration, meta.mass_kg, meta.angle_deg, meta.nominal_speed_mps,
              meta.material, force_path.name, range_path.name, raw.fs_force, raw.fs_range)
    write_json_file(manifest, dict(zip(MANIFEST_KEYS + SAMPLE_RATE_KEYS, values, strict=True)))
    return manifest


def make_campaign(
    out_dir,
    configuration: str = "Carbon-0deg",
    speeds: tuple[float, ...] = (3.0, 3.5, 4.0),
    trials_per_speed: int = 4,
    mass: float = 0.25,
    retained_energy_poly: tuple[float, ...] = (0.10, 0.02, -0.001),
    tau_s: float = 0.030,
    speed_jitter: float = 0.05,
    noise_force_n: float = 0.5,
    noise_range_m: float = 0.002,
    seed: int = 7,
    angle_deg: float = 0.0,
    material: str = "synthetic",
) -> list[Path]:
    """Write a multi-speed batch of elastic trials for one configuration.

    The underlying restitution follows ``EC_r(v)`` given by
    ``retained_energy_poly`` (ascending coefficients), so a campaign is
    fittable end to end: analyze -> aggregate -> profile.
    """
    rng = np.random.default_rng(seed)
    paths = []
    counter = 0
    for v_nom in speeds:
        for _ in range(trials_per_speed):
            v = float(v_nom + rng.normal(0.0, speed_jitter))
            ec_r = float(np.polynomial.polynomial.polyval(v, retained_energy_poly))
            ec_r = min(max(ec_r, 0.0), 0.95)
            raw, _ = synth_trial(
                kind="elastic",
                v_in=v,
                e=math.sqrt(ec_r),
                mass=mass,
                tau_s=tau_s,
                noise_force_n=noise_force_n,
                noise_range_m=noise_range_m,
                seed=int(rng.integers(0, 2**31 - 1)),
                configuration=configuration,
                angle_deg=angle_deg,
                material=material,
            )
            # group trials of one nominal speed under that speed in the
            # manifest so the analyzer can form per-speed aggregates
            raw.meta.nominal_speed_mps = float(v_nom)
            paths.append(write_trial(raw, out_dir, f"trial_{counter:03d}"))
            counter += 1
    return paths
