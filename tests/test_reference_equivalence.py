"""The fast ingest, dsp, simulation and governor paths against the plain
implementations they replaced.

The oracles below are the earlier, straightforward versions of the CSV
reader, the per-field configuration summary, the Kalman loop, the despike
edge loop, the numpy 2-vector simulation (pilot, integrator,
nearest-human distance and closed loop), the governor's command limiting, the stream's message parse, reply format and
compliance row, and the numpy airframe model (polyval, linspace grids, the
force map and its checks), kept verbatim. The current code must
return bitwise-equal results (``tobytes``, or the IEEE-754 bytes of each
float) on every input the oracles accept, and raise the same error where
they raise one.

One oracle changes the numbers on purpose: the trial summary that ran both
Kalman passes over the range held onto the force grid, where the filter now
runs at the range sensor's own rate. Its metrics must stay within stated
tolerances of that oracle's.
"""

import csv
import dataclasses
import io
import json
import math
import struct
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Optional
from unittest import mock

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from numpy.polynomial import polynomial as npoly
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from impact_governor.dsp import (
    MAD_SCALE,
    FilterSpec,
    KalmanConfig,
    _gain_schedule,
    butterworth_lowpass,
    kalman_smooth,
    median_despike,
)
from impact_governor import fit, impact, stream
from impact_governor.errors import (
    FINITE,
    IngestError,
    InvariantViolation,
    NonMonotoneForceMapWarning,
    ProtocolError,
    RestitutionOutOfRange,
    read_field,
)
from impact_governor.governor import (
    CAP_EPSILON,
    _NORM_SLACK,
    ComplianceRecord,
    GovernorConfig,
    GovernorRuntime,
    VelocityCommand,
    force_speed_cap,
)
from impact_governor.ingest import (
    FORCE_COLUMNS,
    RANGE_COLUMNS,
    _median,
    _read_csv_columns,
    align_streams,
    load_trial,
)
from impact_governor.fit import build_airframe_profile
from impact_governor.profile import (
    BODY_REGION_LIMITS_N,
    AirframeProfile,
    PolyModel,
    _check_restitution_range,
    linspace,
    load_profile,
    polyval,
)
from impact_governor.sim import (
    SimScenario,
    _norm,
    human_distances,
    load_scenario,
    nearest_human_distance,
    potential_field_cmd,
    run_scenario,
    step,
)
from impact_governor.synthetic import make_campaign, synth_trial

from conftest import make_profile

REPO_ROOT = Path(__file__).resolve().parents[1]

# --- oracles -----------------------------------------------------------------


def oracle_read_csv_columns(path, required):
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestError(f"{path} is empty") from None
        header = [h.strip() for h in header]
        missing = [c for c in required if c not in header]
        if missing:
            raise IngestError(f"{path} lacks column(s) {missing}")
        rows = [row for row in reader if row and any(cell.strip() for cell in row)]
    if not rows:
        raise IngestError(f"{path} has a header but no data rows")
    data = np.asarray(rows, dtype=float)
    return {name: data[:, header.index(name)] for name in required}


def oracle_aggregate_configuration(metrics):
    stats = {}
    for fname in impact.METRIC_FIELDS:
        vals = np.array([getattr(m, fname) for m in metrics], dtype=float)
        mean = float(np.mean(vals))
        std = float(np.std(vals, ddof=1))
        cv = std / mean if mean != 0.0 else math.nan
        stats[fname] = impact.MetricStat(mean=mean, std=std, cv=cv)
    return impact.ConfigurationSummary(
        configuration=metrics[0].configuration,
        n=len(metrics),
        mass_kg=float(np.mean([m.mass_kg for m in metrics])),
        angle_deg=float(np.mean([m.angle_deg for m in metrics])),
        stats=stats,
    )


def oracle_kalman_smooth(series, cfg):
    z = np.asarray(series, dtype=float)
    if z.size < 2:
        raise ValueError(f"need at least 2 samples, got {z.size}")

    dt = cfg.dt
    q_var = cfg.sigma_s**2
    q00 = q_var * dt**4 / 4.0
    q01 = q_var * dt**3 / 2.0
    q11 = q_var * dt**2
    r = cfg.measurement_noise_r

    if cfg.initial_state is None:
        x0, x1 = float(z[0]), 0.0
    else:
        x0, x1 = (float(v) for v in cfg.initial_state)
    p00, p11 = (float(v) for v in cfg.initial_covariance)
    p01 = 0.0

    pos = np.empty_like(z)
    vel = np.empty_like(z)
    for i, zi in enumerate(z):
        x0 = x0 + dt * x1
        p00 = p00 + dt * (2.0 * p01 + dt * p11) + q00
        p01 = p01 + dt * p11 + q01
        p11 = p11 + q11
        s = p00 + r
        k0 = p00 / s
        k1 = p01 / s
        innov = zi - x0
        x0 += k0 * innov
        x1 += k1 * innov
        p11 = p11 - k1 * p01
        p01 = (1.0 - k0) * p01
        p00 = (1.0 - k0) * p00
        if not (
            np.isfinite(p00)
            and np.isfinite(p11)
            and p00 > 0.0
            and p11 > 0.0
            and p00 * p11 - p01 * p01 > 0.0
        ):
            raise IngestError(f"covariance lost positive definiteness at step {i}")
        pos[i] = x0
        vel[i] = x1
    return pos, vel


def oracle_median_despike(series, window=5, k=3.0):
    x = np.asarray(series, dtype=float)
    if window % 2 == 0 or window < 3:
        raise ValueError(f"window must be odd and >= 3, got {window}")
    if x.size < window:
        raise IngestError(f"series of {x.size} samples < window {window}")

    half = window // 2
    out = x.copy()

    wins = sliding_window_view(x, window)
    med = np.median(wins, axis=1)
    mad = np.median(np.abs(wins - med[:, None]), axis=1)
    centers = x[half : x.size - half]
    bad = np.abs(centers - med) > k * MAD_SCALE * mad
    out[half : x.size - half] = np.where(bad, med, centers)

    for i in list(range(half)) + list(range(x.size - half, x.size)):
        lo = max(0, i - half)
        hi = min(x.size, i + half + 1)
        w = x[lo:hi]
        m = float(np.median(w))
        sigma = MAD_SCALE * float(np.median(np.abs(w - m)))
        if abs(x[i] - m) > k * sigma:
            out[i] = m
    return out


def oracle_summarize_on_the_held_grid(record):
    """``impact.summarize_trial`` as it was while both Kalman passes ran over
    the despiked range held onto the force grid, at the force rate."""
    dt = 1.0 / record.fs
    force_f = butterworth_lowpass(record.force_total, FilterSpec(fs=record.fs))
    range_d = median_despike(record.range_m)[record.range_index]
    kcfg = KalmanConfig(
        dt=dt, initial_state=(float(range_d[0]), -abs(record.meta.nominal_speed_mps))
    )
    _, vel = kalman_smooth(range_d, kcfg)
    window = impact.detect_impact(record.time, force_f, vel)
    i_end = int(np.searchsorted(record.time, window.t_end))
    tail = range_d[i_end:]
    if tail.size >= 2:
        _, v_rev = kalman_smooth(tail[::-1], KalmanConfig(dt=dt, initial_state=(float(tail[-1]), 0.0)))
        post_velocity = -v_rev[::-1]
    else:
        post_velocity = vel[i_end:]
    v_f, _, flags = impact.rebound_velocity(window, record.meta.mass_kg, post_velocity)
    _, ec_r = impact.kinetic_energies(record.meta.mass_kg, window.v_in, v_f)
    return {
        "v_in_mps": window.v_in,
        "f_max_n": impact.peak_force(window),
        "dt_j_s": impact.contact_duration(window),
        "j_ns": impact.rectified_impulse(window),
        "ec_r": ec_r,
        "v_f_mps": v_f,
        "flags": flags,
    }


@dataclass
class ZoneEntry:
    t_entry_s: float
    t_compliant_s: Optional[float] = None

    @property
    def time_to_compliance_s(self) -> Optional[float]:
        if self.t_compliant_s is None:
            return None
        return self.t_compliant_s - self.t_entry_s


@dataclass
class OracleState:
    position: np.ndarray
    velocity: np.ndarray
    t: float = 0.0
    goal_index: int = 0

    @property
    def speed(self) -> float:
        return float(np.hypot(self.velocity[0], self.velocity[1]))


def oracle_nearest_human_distance(position, humans):
    if not humans:
        return math.inf
    pts = np.asarray(humans, dtype=float)
    return float(np.min(np.hypot(pts[:, 0] - position[0], pts[:, 1] - position[1])))


def oracle_potential_field_cmd(state, scenario):
    v0 = scenario.cfg.v_cruise_mps
    goal = np.asarray(scenario.goals[state.goal_index], dtype=float)
    offset = goal - state.position
    dist = float(np.hypot(offset[0], offset[1]))
    if dist < 0.5 and len(scenario.goals) > 1:
        state.goal_index = (state.goal_index + 1) % len(scenario.goals)
        goal = np.asarray(scenario.goals[state.goal_index], dtype=float)
        offset = goal - state.position
        dist = float(np.hypot(offset[0], offset[1]))

    desired = np.zeros(2)
    if dist > 1e-12:
        desired += scenario.k_attract * (offset / dist) * v0
    for human in scenario.humans:
        away = state.position - np.asarray(human, dtype=float)
        d_h = float(np.hypot(away[0], away[1]))
        if d_h < 1e-12 or d_h >= scenario.repulse_radius_m:
            continue
        weight = 1.0 - d_h / scenario.repulse_radius_m
        desired += scenario.k_repulse * (away / d_h) * weight * v0

    norm = float(np.hypot(desired[0], desired[1]))
    if norm > v0 and norm > 0.0:
        desired *= v0 / norm
    return VelocityCommand(
        vx=float(desired[0]), vy=float(desired[1]), vz=0.0, timestamp=state.t
    )


def oracle_step(state, cmd, dt, a_max):
    target = np.array([cmd.vx, cmd.vy], dtype=float)
    dv = target - state.velocity
    dv_norm = float(np.hypot(dv[0], dv[1]))
    max_dv = a_max * dt
    if dv_norm > max_dv and dv_norm > 0.0:
        dv *= max_dv / dv_norm
    state.velocity = state.velocity + dv
    state.position = state.position + state.velocity * dt
    state.t += dt


def oracle_limit_command(cmd, cap):
    if cap < 0:
        raise ValueError(f"cap must be >= 0, got {cap}")
    if not all(math.isfinite(c) for c in (cmd.vx, cmd.vy, cmd.vz)):
        return VelocityCommand(0.0, 0.0, 0.0, cmd.timestamp)
    n = cmd.speed()
    if n <= cap * (1.0 + _NORM_SLACK):
        return cmd
    s = cap / n
    return VelocityCommand(cmd.vx * s, cmd.vy * s, cmd.vz * s, cmd.timestamp)


class OracleRuntime(GovernorRuntime):
    """The runtime with the earlier command limiter (telemetry intake shared)."""

    def __init__(self, cfg, profile):
        super().__init__(cfg, profile)
        self._eff_cfg = cfg  # only its staleness timeout is read, which a peak target leaves as is
        self._last_emitted_t = None

    def on_command(self, cmd):
        flags: list[str] = []
        if self._last_emitted_t is not None and cmd.timestamp < self._last_emitted_t:
            flags.append("clock-skew")
        if self._late_readings != self._late_flagged:  # the shared intake dropped a late reading
            self._late_flagged = self._late_readings
            flags.append("stale-range")

        snap = self._snapshot
        if snap is None:
            d, cap = math.nan, None
        else:
            d, t_range, cap, source = snap
            if cap is None:
                flags.append("invalid-range")
            elif not 0.0 <= cmd.timestamp - t_range <= self._eff_cfg.staleness_timeout_s:
                cap = None
        if cap is None:
            cap, source = self.stale_cap, "stale-failsafe"

        finite = all(math.isfinite(c) for c in (cmd.vx, cmd.vy, cmd.vz))
        if not finite:
            flags.append("non-finite-command")
        out = oracle_limit_command(cmd, cap)
        in_speed = cmd.speed() if finite else math.nan
        out_speed = out.speed()

        self.last_record = ComplianceRecord(
            timestamp=cmd.timestamp,
            input_speed_mps=in_speed,
            output_speed_mps=out_speed,
            d_m=d,
            cap_mps=cap,
            cap_source=source,
            violated=out_speed > cap + CAP_EPSILON,
            flags=flags,
        )
        self._last_emitted_t = cmd.timestamp
        return out


def oracle_run_scenario(scenario):
    runtime = OracleRuntime(scenario.cfg, scenario.profile)
    cfg = scenario.cfg
    dt = scenario.physics_dt_s
    v_force = runtime.v_force
    s_zone = runtime.s_zone
    transient_bound_s = (
        cfg.t_q_s
        + max(0.0, cfg.v_cruise_mps - v_force) / cfg.a_mps2
        + 2.0 * dt
    )

    state = OracleState(
        position=np.asarray(scenario.start, dtype=float),
        velocity=np.zeros(2),
    )
    n_steps = int(round(scenario.duration_s / dt))
    period = 1.0 / scenario.detection_rate_hz
    next_detection_t = 0.0

    rows: list[tuple] = []
    entries: list[ZoneEntry] = []
    in_zone = oracle_nearest_human_distance(state.position, scenario.humans) < s_zone
    if in_zone:
        entries.append(ZoneEntry(t_entry_s=0.0))
    violations = 0
    reach_margin_breaches = 0
    min_distance = math.inf
    max_speed_after_transient = None
    goal_switches = 0

    for _ in range(n_steps):
        t = state.t
        if t >= next_detection_t - 1e-12:
            d_detect = oracle_nearest_human_distance(state.position, scenario.humans)
            runtime.on_range(d_detect, t)
            next_detection_t += period

        idx_before = state.goal_index
        cmd = oracle_potential_field_cmd(state, scenario)
        if state.goal_index != idx_before:
            goal_switches += 1
        limited = runtime.on_command(cmd)
        record = runtime.last_record
        if record.violated:
            violations += 1
        oracle_step(state, limited, dt, cfg.a_mps2)

        d_true = oracle_nearest_human_distance(state.position, scenario.humans)
        min_distance = min(min_distance, d_true)
        speed = state.speed

        if d_true < s_zone:
            if not in_zone:
                entries.append(ZoneEntry(t_entry_s=state.t))
            entry = entries[-1]
            if entry.t_compliant_s is None and speed <= v_force + 1e-9:
                entry.t_compliant_s = state.t
            since_entry = state.t - entry.t_entry_s
            if since_entry > transient_bound_s:
                if (
                    max_speed_after_transient is None
                    or speed > max_speed_after_transient
                ):
                    max_speed_after_transient = speed
        in_zone = d_true < s_zone

        if d_true < cfg.c_m and speed > v_force + cfg.a_mps2 * dt:
            reach_margin_breaches += 1

        rows.append(
            (
                state.t,
                float(state.position[0]),
                float(state.position[1]),
                float(state.velocity[0]),
                float(state.velocity[1]),
                speed,
                d_true,
                record.cap_mps,
                record.cap_source,
            )
        )

    times_to_comply = [
        e.time_to_compliance_s for e in entries if e.time_to_compliance_s is not None
    ]
    summary = {
        "scenario": scenario.name,
        "steps": n_steps,
        "physics_dt_s": dt,
        "detection_rate_hz": scenario.detection_rate_hz,
        "v_force_mps": v_force,
        "zone_radius_m": s_zone,
        "transient_bound_s": transient_bound_s,
        "violations": violations,
        "reach_margin_breaches": reach_margin_breaches,
        "zone_entries": [
            {
                "t_entry_s": e.t_entry_s,
                "t_compliant_s": e.t_compliant_s,
                "time_to_compliance_s": e.time_to_compliance_s,
            }
            for e in entries
        ],
        "max_time_to_compliance_s": max(times_to_comply) if times_to_comply else None,
        "max_speed_in_zone_after_transient_mps": max_speed_after_transient,
        "min_distance_m": None if math.isinf(min_distance) else min_distance,
        "max_speed_mps": max(r[5] for r in rows) if rows else 0.0,
        "final_position_m": [float(state.position[0]), float(state.position[1])],
        "goal_switches": goal_switches,
    }
    return rows, summary


def _oracle_reject_constant(name):
    raise ProtocolError(f"non-finite number {name} is not allowed")


_ORACLE_DECODER = json.JSONDecoder(parse_constant=_oracle_reject_constant)

_ORACLE_REQUIRED_FIELDS = {
    "range": ("d_m", "t_s"),
    "odom": ("vx", "vy", "vz", "t_s"),
    "cmd": ("vx", "vy", "vz", "t_s"),
}


def oracle_parse_message(text):
    try:
        msg = _ORACLE_DECODER.decode(text)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"invalid JSON: {exc}") from exc
    if not isinstance(msg, dict):
        raise ProtocolError("message must be a JSON object")
    mtype = msg.get("type")
    if mtype not in _ORACLE_REQUIRED_FIELDS:
        raise ProtocolError(f"unknown message type: {mtype!r}")
    for key in _ORACLE_REQUIRED_FIELDS[mtype]:
        value = msg.get(key)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ProtocolError(f"{mtype} message field {key!r} must be a number")
        if not -math.inf < value < math.inf:  # a literal like 1e999 decodes to inf
            raise ProtocolError(f"{mtype} message field {key!r} must be finite")
    return msg


def oracle_format_cmd_limited(out, record):
    payload = {
        "type": "cmd_limited",
        "vx": out.vx,
        "vy": out.vy,
        "vz": out.vz,
        "cap_mps": record.cap_mps,
        "source": record.cap_source,
        "t_s": out.timestamp,
    }
    return json.dumps(payload, separators=(",", ":"))


def _oracle_fmt(value):
    if isinstance(value, float) and math.isnan(value):
        return "nan"
    return format(float(value), ".9g")


class OracleComplianceLog(stream.ComplianceLog):
    """The compliance log with the earlier row writer."""

    def write(self, record):
        row = (
            _oracle_fmt(record.timestamp),
            _oracle_fmt(record.input_speed_mps),
            _oracle_fmt(record.output_speed_mps),
            _oracle_fmt(record.d_m),
            _oracle_fmt(record.cap_mps),
            record.cap_source,
            "true" if record.violated else "false",
            ";".join(record.flags),
        )
        self._fh.write(",".join(row) + "\n")


def assert_bitwise(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


# --- CSV reader --------------------------------------------------------------

RANGE_HEADER = "t_s,range_m,trigger"

CSV_TABLE = {
    "plain": RANGE_HEADER + "\n0.000,1.5,0\n0.001,1.49,1\n",
    "no-final-newline": RANGE_HEADER + "\n0.000,1.5,0\n0.001,1.49,1",
    "blank-lines": RANGE_HEADER + "\n\n0.000,1.5,0\n\n\n0.001,1.49,1\n\n",
    "whitespace-only-rows": RANGE_HEADER + "\n   \n0.000,1.5,0\n\t\n0.001,1.49,1\n \t \n",
    "separator-only-rows": RANGE_HEADER + "\n, , ,\n0.000,1.5,0\n,,\n0.001,1.49,1\n,\n",
    "crlf": RANGE_HEADER + "\r\n0.000,1.5,0\r\n\r\n0.001,1.49,1\r\n",
    "cr-only": RANGE_HEADER + "\r0.000,1.5,0\r0.001,1.49,1\r",
    "quoted-numbers": RANGE_HEADER + '\n"0.000","1.5",0\n0.001,"1.49","1"\n',
    "padded-cells": RANGE_HEADER + "\n 0.000 , 1.5,0 \n0.001,\t1.49 ,1\n",
    "padded-header": " t_s , range_m ,trigger \n0.000,1.5,0\n0.001,1.49,1\n",
    "quoted-header": '"t_s","range_m","trigger"\n0.000,1.5,0\n',
    "reordered-and-extra-columns": "trigger,note,range_m,t_s\n0,7,1.5,0.0\n1,8,1.49,0.001\n",
    "number-spellings": RANGE_HEADER + "\n+0.5e-3,.5,5.\n1E2,-0.0,-1e-310\n",
    "single-row": RANGE_HEADER + "\n0.1,0.30000000000000004,1\n",
}

#: each file the reader refuses, and the end of the error that names it
CSV_ERRORS = {
    "empty-file": ("", " is empty"),
    "header-only": (RANGE_HEADER + "\n", " has a header but no data rows"),
    "header-and-blank-rows": (RANGE_HEADER + "\n\n , ,\n\r\n", " has a header but no data rows"),
    "missing-column": ("t_s,trigger\n0.0,1\n", " lacks column(s) ['range_m']"),
    "blank-first-line": ("\n" + RANGE_HEADER + "\n0.0,1.5,0\n",
                         " lacks column(s) ['t_s', 'range_m', 'trigger']"),
}


@pytest.mark.parametrize("name", sorted(CSV_TABLE))
def test_csv_reader_matches_oracle(tmp_path, name):
    p = tmp_path / "s.csv"
    p.write_bytes(CSV_TABLE[name].encode())
    want = oracle_read_csv_columns(p, RANGE_COLUMNS)
    got = _read_csv_columns(p, RANGE_COLUMNS)
    assert list(got) == list(want)
    for col in RANGE_COLUMNS:
        assert_bitwise(got[col], want[col])


@pytest.mark.parametrize("name", sorted(CSV_ERRORS))
def test_csv_reader_errors_match_oracle(tmp_path, name):
    text, why = CSV_ERRORS[name]
    p = tmp_path / "s.csv"
    p.write_bytes(text.encode())
    with pytest.raises(IngestError) as want:
        oracle_read_csv_columns(p, RANGE_COLUMNS)
    with pytest.raises(IngestError) as got:
        _read_csv_columns(p, RANGE_COLUMNS)
    assert str(got.value) == str(want.value) == f"{p}{why}"


finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
cell_format = st.sampled_from(["{!r}", "{:.9g}", "{:.6f}", "{:.3e}", '"{!r}"', " {:.9g} "])


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    values=st.lists(st.lists(finite, min_size=6, max_size=6), min_size=1, max_size=40),
    fmt=cell_format,
    newline=st.sampled_from(["\n", "\r\n"]),
    blank_every=st.integers(0, 5),
)
def test_csv_reader_matches_oracle_on_random_tables(tmp_path, values, fmt, newline, blank_every):
    lines = [",".join(FORCE_COLUMNS)]
    for i, row in enumerate(values):
        if blank_every and i % blank_every == 0:
            lines.append(" , ")
        lines.append(",".join(fmt.format(v) for v in row))
    p = tmp_path / "f.csv"
    p.write_bytes((newline.join(lines) + newline).encode())
    want = oracle_read_csv_columns(p, FORCE_COLUMNS)
    if not all(np.isfinite(v).all() for v in want.values()):
        # a cell that overflows its format to inf is rejected, not read
        with pytest.raises(IngestError, match=r"^.*f\.csv row \d+: non-finite sample$"):
            _read_csv_columns(p, FORCE_COLUMNS)
        return
    got = _read_csv_columns(p, FORCE_COLUMNS)
    for col in FORCE_COLUMNS:
        assert_bitwise(got[col], want[col])


#: cells of a generated stream row: numbers written several ways, quoted
#: ones among them, and cells that are not numbers or not finite
number_cell = st.one_of(
    finite.map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["0", "-0.0", "+.5", "5.", "1E2", " 7 ", '"1.5"', '" 2 "', '"3\n"']),
)
odd_cell = st.sampled_from(["abc", "", "1.5.5", "nan", "-inf", "1e999", '"4', '5"'])
number_row = st.lists(number_cell, min_size=3, max_size=3).map(",".join)
no_data_row = st.sampled_from(["", " ", "\t", ",", ", ,", ",,,"])
odd_row = st.one_of(
    st.lists(st.one_of(number_cell, odd_cell), min_size=3, max_size=3),
    st.lists(number_cell, min_size=4, max_size=4),  # ragged, unless it is the only row
).map(",".join)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    header=st.sampled_from([RANGE_HEADER, '"t_s","range_m",trigger', '"t_s\n",range_m,trigger',
                            'trigger,"range_m\r\n",t_s,note']),
    lines=st.lists(st.one_of(number_row, number_row, no_data_row), max_size=12),
    odd=st.one_of(st.none(), odd_row),
    at=st.integers(0, 12),
    ends=st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=1, max_size=13),
    final_newline=st.booleans(),
)
@example(header=RANGE_HEADER, lines=["0,1,0", "", "0.001,1,1"], odd=None, at=0,
         ends=["\r", "\n", "\r\n"], final_newline=False)
def test_csv_reader_matches_oracle_on_random_files(
    tmp_path, header, lines, odd, at, ends, final_newline
):
    # line endings mixed or not, blank and comma-only rows, quoted and bad
    # cells, a ragged row, and a last line with or without its newline
    if odd is not None:
        lines.insert(at, odd)
    text = "".join(line + ends[i % len(ends)] for i, line in enumerate([header, *lines]))
    if not final_newline:
        text = text.rstrip("\r\n")
    p = tmp_path / "s.csv"
    p.write_bytes(text.encode())
    try:
        want = oracle_read_csv_columns(p, RANGE_COLUMNS)
    except Exception:
        want = None
    if want is None or not all(np.isfinite(v).all() for v in want.values()):
        with pytest.raises(IngestError):
            _read_csv_columns(p, RANGE_COLUMNS)
        return
    got = _read_csv_columns(p, RANGE_COLUMNS)
    for col in RANGE_COLUMNS:
        assert_bitwise(got[col], want[col])


@settings(max_examples=200, deadline=None)
@example(t=np.array([0.0, -0.0]))  # np.median sums from +0.0: the step -0.0 is 0.0
@example(t=np.array([0.0, -0.0, -0.0, 0.0, 1.0]))
@given(t=arrays(np.float64, st.integers(2, 41), elements=st.floats(-1e300, 1e300, width=64)))
def test_step_median_matches_np_median(t):
    # odd and even step counts, negative and signed-zero steps included
    steps = np.diff(t)
    assert struct.pack("<d", _median(steps)) == struct.pack("<d", float(np.median(steps)))


distinct_speeds = st.lists(
    st.sampled_from([0.0, -0.0, 3.0, 3.0 + 4e-10, 3.0 + 6e-10, 3.5, 3.5 - 4e-10, 1e-10]),
    min_size=1, max_size=8,
)


@settings(max_examples=100, deadline=None)
@given(speeds=distinct_speeds)
def test_build_profile_counts_distinct_speeds_as_np_unique(speeds):
    # the profile downgrades to a constant exactly below degree + 1 distinct
    # speeds, so degrees 1-8 pin the count down
    speeds = [*speeds, 4.0]  # a positive domain
    want = np.unique(np.round(np.array(speeds), 9)).size
    summaries = []
    for v in speeds:
        metrics = [impact.ImpactMetrics(
            configuration="c", mass_kg=0.25, angle_deg=0.0, v_in_mps=3.0, f_max_n=100.0,
            dt_j_s=0.036, j_ns=1.1, ec_i_j=1.0, ec_r=0.5, v_f_mps=1.0, e_hat=0.7,
            v_f_impulse_mps=0.0,
        )] * 2
        s = impact.aggregate_configuration(metrics)
        s.stats["v_in_mps"] = impact.MetricStat(v, 0.0, 0.0)
        summaries.append(s)

    def constant(x, y, degree):
        return PolyModel([0.5], 0, 1.0, 0.0, (float(np.min(x)), float(np.max(x))))

    with mock.patch.object(fit, "fit_polynomial", constant):
        got = [build_airframe_profile(summaries, d).downgraded for d in range(1, 9)]
    assert got == [want < d + 1 for d in range(1, 9)]


# --- configuration summary ---------------------------------------------------

#: metric values, repeated ones and both zeros among them
summary_value = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 0.1, 3.0, 1e-300]),
    st.floats(-1e6, 1e6, width=64),
)


def _summary_floats(s):
    floats = [s.mass_kg, s.angle_deg]
    for f in impact.METRIC_FIELDS:
        floats += [s.stats[f].mean, s.stats[f].std, s.stats[f].cv]
    return [struct.pack("<d", x) for x in floats]


@settings(max_examples=200, deadline=None)
@given(
    rows=st.integers(2, 40).flatmap(
        lambda n: st.lists(st.lists(summary_value, min_size=11, max_size=11), min_size=n, max_size=n)
    )
)
def test_aggregate_configuration_matches_the_per_field_oracle(rows):
    # n up to 40 runs past numpy's 8-wide pairwise-sum unroll
    metrics = [
        impact.ImpactMetrics("c", abs(row[0]) + 0.1, abs(row[1]) % 90.0, *row[2:])
        for row in rows
    ]
    got = impact.aggregate_configuration(metrics)
    want = oracle_aggregate_configuration(metrics)
    assert (got.configuration, got.n) == (want.configuration, want.n)
    assert _summary_floats(got) == _summary_floats(want)


# --- Kalman ------------------------------------------------------------------


@st.composite
def range_series(draw, min_size=2, max_size=400):
    """Approach ramps with noise and spikes, or arbitrary float arrays."""
    n = draw(st.integers(min_size, max_size))
    if draw(st.booleans()):
        return draw(arrays(np.float64, n, elements=st.floats(-1e3, 1e3, width=64)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p0 = draw(st.floats(-5.0, 5.0))
    v = draw(st.floats(-6.0, 6.0))
    noise = draw(st.sampled_from([0.0, 1e-4, 2e-3, 0.05]))
    x = p0 + v * np.arange(n) * 1e-3 + rng.normal(0.0, noise, n)
    n_spikes = draw(st.integers(0, 3))
    for _ in range(n_spikes):
        i = draw(st.sampled_from([0, n - 1, draw(st.integers(0, n - 1))]))
        x[i] += draw(st.floats(-2.0, 2.0))
    return x


kalman_configs = st.builds(
    KalmanConfig,
    dt=st.floats(1e-5, 1e-1),
    sigma_s=st.floats(1e-4, 1e2),
    measurement_noise_r=st.floats(1e-9, 1e-1),
    initial_state=st.none() | st.tuples(st.floats(-10, 10), st.floats(-10, 10)),
    initial_covariance=st.tuples(st.floats(0.0, 1e3, exclude_min=True),
                                 st.floats(0.0, 1e3, exclude_min=True)),
)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (IngestError, ValueError) as exc:
        return type(exc), str(exc)


def assert_kalman_matches_oracle(z, cfg):
    with np.errstate(all="ignore"):
        want = _outcome(oracle_kalman_smooth, z, cfg)
        got = _outcome(kalman_smooth, z, cfg)
    if isinstance(want[0], type):
        assert got == want
    else:
        assert_bitwise(got[0], want[0])
        assert_bitwise(got[1], want[1])


@settings(max_examples=200, deadline=None)
@given(z=range_series(), cfg=kalman_configs, reverse=st.booleans())
def test_kalman_matches_oracle(z, cfg, reverse):
    if reverse:  # the rebound pass filters a reversed view
        z = z[::-1]
    assert_kalman_matches_oracle(z, cfg)


@pytest.mark.parametrize("order", ["long-short", "short-long", "forward-reversed-tail"])
def test_kalman_gains_cached_by_one_call_serve_the_next(order):
    # one cached gain schedule per tuning, grown to the longest series seen
    _gain_schedule.cache_clear()
    dt = 1.0 / 6250.0
    rng = np.random.default_rng(5)
    z = 3.0 - 3.0 * dt * np.arange(3000) + rng.normal(0.0, 0.002, 3000)
    cfg = KalmanConfig(dt=dt, initial_state=(3.0, -3.0))
    tail = z[2200:]
    calls = {
        "long-short": [(z, cfg), (z[:700], cfg)],
        "short-long": [(z[:700], cfg), (z, cfg)],
        "forward-reversed-tail": [
            (z, cfg),
            (tail[::-1], KalmanConfig(dt=dt, initial_state=(float(tail[-1]), 0.0))),
        ],
    }[order]
    for series, c in calls:
        assert_kalman_matches_oracle(series, c)
    assert _gain_schedule.cache_info().currsize == 1


#: a tuning that ``kalman_configs`` can draw whose covariance first fails at
#: step 259
FAILING_TUNING = dict(
    dt=1e-5, sigma_s=1e-4, measurement_noise_r=4e-3, initial_covariance=(1e-21, 1.0)
)


@pytest.mark.parametrize("longer_first", [False, True])
def test_kalman_gain_schedule_fails_only_past_the_failing_step(longer_first):
    _gain_schedule.cache_clear()
    cfg = KalmanConfig(**FAILING_TUNING)
    z = np.linspace(1.0, 0.0, 400)
    failing = r"^covariance lost positive definiteness at step \d+$"
    with pytest.raises(IngestError, match=failing) as failed:
        oracle_kalman_smooth(z, cfg)
    m = int(str(failed.value).rsplit(" ", 1)[1])
    assert 0 < m < z.size - 1
    lengths = [m + 1, m, z.size, m] if longer_first else [m, m + 1, m, z.size]
    for n in lengths:  # m samples succeed, m + 1 or more fail
        assert_kalman_matches_oracle(z[:n], cfg)


def test_kalman_gain_schedule_cache_is_bounded():
    bound = _gain_schedule.cache_info().maxsize
    z = np.linspace(1.0, 0.0, 50)
    for k in range(bound + 3):
        assert_kalman_matches_oracle(z, KalmanConfig(dt=1e-3 * (k + 1)))
    assert _gain_schedule.cache_info().currsize == bound


def test_kalman_matches_oracle_on_two_samples_and_degenerate_tuning():
    for z in ([1.0, 1.0], [0.0, -0.0], [3.0, np.nan]):
        cfg = KalmanConfig(dt=1e-3, initial_state=(1.0, -4.0))
        want, got = oracle_kalman_smooth(z, cfg), kalman_smooth(z, cfg)
        assert_bitwise(got[0], want[0])
        assert_bitwise(got[1], want[1])
    # an initial covariance that is not finite and > 0 is refused before any
    # filtering; (-1e-09, 0.0) cancelled the measurement noise in the first gain
    refused = r"^initial_covariance entries must be finite and > 0, got "
    with pytest.raises(IngestError, match=refused):
        KalmanConfig(dt=1e-3, initial_covariance=(1.0, -1.0))
    with pytest.raises(IngestError, match=refused):
        KalmanConfig(
            dt=1e-05, sigma_s=0.00390625, measurement_noise_r=1e-09,
            initial_covariance=(-1e-09, 0.0),
        )
    for covariance in ((math.nan, 1.0), (1.0, math.inf)):
        with pytest.raises(IngestError, match=refused):
            KalmanConfig(dt=1e-3, initial_covariance=covariance)


# --- despike -----------------------------------------------------------------


@st.composite
def despike_case(draw):
    window = draw(st.sampled_from(range(3, 32, 2)))
    x = draw(range_series(min_size=window, max_size=window + 120))
    half = window // 2
    # spikes and repeated values at both clipped edges
    for i in draw(st.lists(st.sampled_from(
        list(range(half + 1)) + list(range(x.size - half - 1, x.size))
    ), max_size=4)):
        x[i] = draw(st.sampled_from([x[0], x[-1], 0.0, -0.0, x[i] + 1.0, x[i] - 50.0]))
    k = draw(st.floats(0.0, 8.0))
    return x, window, k


@settings(max_examples=300, deadline=None)
@given(case=despike_case())
def test_despike_matches_oracle(case):
    x, window, k = case
    with np.errstate(all="ignore"):
        assert_bitwise(median_despike(x, window, k), oracle_median_despike(x, window, k))


@pytest.mark.parametrize("window", [3, 5, 31])
def test_despike_matches_oracle_on_non_finite_edges(window):
    x = np.linspace(1.0, 2.0, window + 4)
    for values in ([np.nan], [np.inf], [-np.inf], [np.inf] * window, [np.nan, np.inf]):
        for at in (0, x.size - len(values)):
            y = x.copy()
            y[at : at + len(values)] = values
            with np.errstate(all="ignore"):
                assert_bitwise(median_despike(y, window), oracle_median_despike(y, window))


@pytest.mark.parametrize("window", [3, 5, 7, 31])
def test_despike_matches_oracle_on_signed_zero_edges(window):
    # the even-sized clipped window around the spike has two -0.0 middle values
    for spike_at in (1, -2):
        x = np.full(window + 3, -0.0)
        x[spike_at] = 9.0
        want = oracle_median_despike(x, window)
        assert_bitwise(median_despike(x, window), want)


def test_pipeline_despikes_the_native_range_then_holds_it(monkeypatch):
    # the Kalman filter takes the readings as logged, despiked over a window
    # of native readings, at the range logger's rate; detection takes the
    # filter's velocity held onto the force grid
    raw, _ = synth_trial(kind="elastic", noise_range_m=0.002, seed=4)
    raw.range_m[300] += 0.5
    record = align_streams(raw)
    filtered, detected = [], []

    def recording_kalman(series, cfg):
        filtered.append((np.array(series, copy=True), cfg))
        return kalman_smooth(series, cfg)

    def recording_detect(time, force, velocity):
        detected.append(np.array(velocity, copy=True))
        return detect_impact(time, force, velocity)

    detect_impact = impact.detect_impact
    monkeypatch.setattr(impact, "kalman_smooth", recording_kalman)
    monkeypatch.setattr(impact, "detect_impact", recording_detect)
    impact.summarize_trial(record)
    series, cfg = filtered[0]
    assert_bitwise(series, oracle_median_despike(raw.range_m))
    assert cfg.dt == 1.0 / raw.fs_range
    _, vel = kalman_smooth(series, cfg)
    assert_bitwise(detected[0], vel[record.range_index])


#: how far the native-rate filter may move each metric from the held-grid
#: oracle, relative; the others must keep their bits
HELD_GRID_TOLERANCE = {"v_in_mps": 2e-4, "v_f_mps": 2.5e-3, "ec_r": 5e-3}


@pytest.mark.parametrize(
    "campaign",
    [{"seed": 7}, {"seed": 901},
     {"seed": 13, "mass": 0.27, "tau_s": 0.020, "retained_energy_poly": (0.30, -0.04)}],
    ids=["carbon-7", "carbon-901", "bamboo-13"],
)
def test_native_rate_filter_stays_near_the_held_grid_oracle(tmp_path, campaign):
    for manifest in make_campaign(tmp_path, **campaign):
        record = align_streams(load_trial(manifest))
        got = impact.summarize_trial(record)
        want = oracle_summarize_on_the_held_grid(record)
        for name in ("f_max_n", "dt_j_s", "j_ns"):
            assert float_bits(getattr(got, name)) == float_bits(want[name]), (manifest, name)
        assert got.flags == want["flags"], manifest
        for name, rel in HELD_GRID_TOLERANCE.items():
            assert getattr(got, name) == pytest.approx(want[name], rel=rel), (manifest, name)


# --- simulation: pilot, integrator, nearest human, closed loop ---------------


def float_bits(v):
    """The IEEE-754 bytes of a float. Every NaN maps to one value: NaN sign and
    payload reach no output (trajectory and summary print them as nan/NaN)."""
    assert type(v) is float, type(v)
    return "nan" if v != v else struct.pack("<d", v)


def tree_bits(obj):
    """``obj`` with every float replaced by ``float_bits``."""
    if isinstance(obj, float):
        return float_bits(obj)
    if isinstance(obj, dict):
        return {k: tree_bits(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return type(obj)(tree_bits(v) for v in obj)
    return obj


def cmd_bits(cmd):
    return tree_bits((cmd.vx, cmd.vy, cmd.vz, cmd.timestamp))


def _sim_outcome(fn, *args):
    with np.errstate(all="ignore"):
        try:
            return fn(*args)
        except Exception as exc:  # both sides must fail the same way
            return type(exc)


PROFILE = make_profile()

#: coordinates that hit the branches: signed zeros, the capture and repulse
#: radii, the 1e-12 guards, non-finite values, and pairs whose norm overflows
SPECIAL = [
    0.0, -0.0, 0.5, -0.5, 0.25, 3.0, -3.0, 1e-13, 5e-324,
    math.nan, math.inf, -math.inf, 1.5e308, -1.5e308,
]
coords = st.one_of(st.floats(-30.0, 30.0), st.sampled_from(SPECIAL), st.floats())
offsets = st.one_of(
    st.sampled_from([0.0, -0.0, 0.25, 0.4999999999999999, 0.5, -0.5, 3.0, -3.0, 1e-12, 1e-13]),
    st.floats(-4.0, 4.0),
)


@st.composite
def points_near(draw, px, py, radius):
    """A point on the vehicle, on or inside the capture or repulse radius,
    or anywhere at all."""
    if draw(st.booleans()):
        return draw(coords), draw(coords)
    dx = draw(offsets | st.sampled_from([radius, -radius]))
    dy = draw(offsets | st.sampled_from([radius, -radius]))
    return px + dx, py + dy


@st.composite
def pilot_cases(draw):
    px, py = draw(coords), draw(coords)
    radius = draw(st.sampled_from([0.0, 3.0]) | st.floats(0.0, 10.0))
    near = points_near(px, py, radius)
    goals = draw(st.lists(near, min_size=1, max_size=3))
    scenario = SimScenario(
        name="pilot",
        start=(0.0, 0.0),
        goals=goals,
        humans=draw(st.lists(near, max_size=4)),
        cfg=GovernorConfig(v_cruise_mps=draw(st.sampled_from([8.0, 1.0]) | st.floats(1e-3, 50.0))),
        profile=PROFILE,
        k_attract=draw(st.sampled_from([0.0, 1.0, math.inf]) | st.floats(0.0, 5.0)),
        k_repulse=draw(st.sampled_from([0.0, 2.0, math.inf]) | st.floats(0.0, 5.0)),
        repulse_radius_m=radius,
    )
    goal_index = draw(st.integers(0, len(goals) - 1))
    t = draw(st.floats(0.0, 100.0))
    return scenario, (px, py), goal_index, t


@settings(max_examples=400, deadline=None)
@given(position=st.tuples(coords, coords), humans=st.lists(st.tuples(coords, coords), max_size=5))
def test_nearest_human_distance_matches_oracle(position, humans):
    want = _sim_outcome(oracle_nearest_human_distance, np.array(position), humans)
    got = _sim_outcome(_nearest, position, humans)
    assert tree_bits(got) == tree_bits(want)


def _nearest(position, humans):
    return nearest_human_distance(human_distances(position, humans))


def test_nearest_human_distance_is_nan_if_any_distance_is():
    for humans in ([(math.nan, 0.0), (1.0, 0.0)], [(1.0, 0.0), (0.0, math.nan)]):
        assert math.isnan(_nearest((0.0, 0.0), humans))
        assert math.isnan(oracle_nearest_human_distance(np.zeros(2), humans))
    # an overflowing norm leaves errno set, and CPython then reports the next
    # NaN norm as an overflow too
    humans = [(0.0, 1.5e308), (0.0, math.nan)]
    assert math.isnan(_nearest((1.5e308, 0.0), humans))
    with np.errstate(all="ignore"):
        assert math.isnan(oracle_nearest_human_distance(np.array([1.5e308, 0.0]), humans))
    # hypot(inf, nan) is inf, as np.hypot has it
    assert _nearest((0.0, 0.0), [(math.inf, math.nan), (1.0, 0.0)]) == 1.0
    assert _nearest((0.0, 0.0), []) == math.inf


def _pilot_both(scenario, position, goal_index, t):
    """(command, goal index) from the pilot and from the oracle; a raised
    exception's type stands for the command, with no goal index."""
    old = OracleState(np.array(position), np.zeros(2), t=t, goal_index=goal_index)
    want = _sim_outcome(oracle_potential_field_cmd, old, scenario)
    got = _sim_outcome(_pilot, position, goal_index, t, scenario)
    want = (want, None) if isinstance(want, type) else (want, old.goal_index)
    return (got, None) if isinstance(got, type) else got, want


def _pilot(position, goal_index, t, scenario):
    distances = human_distances(position, scenario.humans)
    return potential_field_cmd(position, distances, goal_index, t, scenario)


@settings(max_examples=500, deadline=None)
@given(case=pilot_cases())
def test_pilot_matches_oracle(case):
    (got, got_index), (want, want_index) = _pilot_both(*case)
    assert got_index == want_index
    if isinstance(want, type):
        assert got is want
    else:
        assert cmd_bits(got) == cmd_bits(want)


@pytest.mark.parametrize(
    "position, goals, humans, k_repulse",
    [
        ((0.0, 0.0), [(-0.0, -0.0)], [], 2.0),  # -0.0 offset, no attraction
        ((-0.0, 0.0), [(0.0, -0.0)], [(-0.0, -0.0)], 2.0),  # human on the vehicle
        ((0.0, 0.0), [(0.0, 0.0), (5.0, -0.0)], [], 2.0),  # capture, then head on
        ((4.5, 0.0), [(5.0, 0.0), (0.0, 0.0)], [], 2.0),  # exactly 0.5 m: no capture
        ((4.75, 0.0), [(5.0, 0.0)], [], 2.0),  # single goal: never captured
        ((0.0, 0.0), [(10.0, 0.0)], [(3.0, 0.0), (0.0, -3.0)], 2.0),  # on the radius
        # on the radius the weight is 0: only an infinite gain shows the skip
        ((0.0, 0.0), [(10.0, 0.0)], [(3.0, 0.0)], math.inf),
        ((0.0, 0.0), [(10.0, 0.0)], [(2.9999999999999996, 0.0)], 2.0),  # just inside
        ((0.0, 0.0), [(-10.0, 0.0)], [(-1e-13, 0.0)], 2.0),  # under the 1e-12 guard
        ((0.0, 0.0), [(10.0, 0.0)], [(1e-12, 0.0)], 2.0),  # on the 1e-12 guard
    ],
)
def test_pilot_matches_oracle_on_signed_zeros_capture_and_radii(position, goals, humans, k_repulse):
    scenario = SimScenario(
        name="edges", start=(0.0, 0.0), goals=goals, humans=humans,
        cfg=GovernorConfig(), profile=PROFILE, k_repulse=k_repulse,
    )
    (got, got_index), (want, want_index) = _pilot_both(scenario, position, 0, 1.0)
    assert got_index == want_index
    assert cmd_bits(got) == cmd_bits(want)


@settings(max_examples=400, deadline=None)
@given(
    position=st.tuples(coords, coords),
    velocity=st.tuples(coords, coords),
    target=st.tuples(coords, coords),
    dt=st.sampled_from([0.004]) | st.floats(1e-6, 1.0),
    a_max=st.sampled_from([0.0, 15.0]) | st.floats(0.0, 100.0),
)
def test_step_matches_oracle(position, velocity, target, dt, a_max):
    cmd = VelocityCommand(target[0], target[1], 0.0, 0.0)
    old = OracleState(np.array(position), np.array(velocity), t=0.25)
    assert _sim_outcome(oracle_step, old, cmd, dt, a_max) is None
    new_position, new_velocity = _sim_outcome(step, position, velocity, cmd, dt, a_max)
    assert tree_bits(new_position) == tree_bits(tuple(old.position.tolist()))
    assert tree_bits(new_velocity) == tree_bits(tuple(old.velocity.tolist()))
    with np.errstate(all="ignore"):
        assert float_bits(_norm(*new_velocity)) == float_bits(old.speed)


#: also ints: small ones, one whose square is too large for a float and one
#: that float() refuses (on_command raises OverflowError where it reaches it)
command_parts = st.one_of(
    st.floats(-30.0, 30.0), st.sampled_from([0.0, -0.0, math.nan, math.inf, 1e200]), st.floats(),
    st.integers(-30, 30), st.sampled_from([10**200, -(10**400)]),
)


@settings(max_examples=300, deadline=None)
@given(
    events=st.lists(
        st.one_of(
            st.tuples(st.just("range"), st.sampled_from([0.5, 5.0, 9.0, math.nan, -1.0, math.inf])
                      | st.floats(0.0, 30.0), st.floats(-1.0, 3.0)),
            st.tuples(st.just("cmd"), command_parts, command_parts, command_parts,
                      st.floats(-1.0, 3.0)),
        ),
        max_size=12,
    ),
    mode=st.sampled_from(["binary", "ramp"]),
    stale_cap=st.sampled_from([None, 0.0, 1.0]),
)
def test_on_command_records_match_oracle(events, mode, stale_cap):
    cfg = GovernorConfig(mode=mode, stale_cap_mps=stale_cap)
    runtimes = GovernorRuntime(cfg, PROFILE), OracleRuntime(cfg, PROFILE)
    for event in events:
        outcomes = []
        for rt in runtimes:
            if event[0] == "range":
                rt.on_range(*event[1:])
                continue
            cmd = VelocityCommand(*event[1:])
            out = _sim_outcome(rt.on_command, cmd)
            rec = rt.last_record
            outcomes.append((
                out if isinstance(out, type) else cmd_bits(out),
                None if rec is None else tree_bits(dataclasses.astuple(rec)),
            ))
        if outcomes:
            assert outcomes[0] == outcomes[1]


def _assert_same_run(scenario):
    rows, summary = run_scenario(scenario)
    want_rows, want_summary = oracle_run_scenario(scenario)
    assert len(rows) == len(want_rows)
    for got, want in zip(rows, want_rows):
        assert tree_bits(got) == tree_bits(want)
    assert tree_bits(summary) == tree_bits(want_summary)


@pytest.mark.parametrize(
    "name, overrides",
    [
        ("three_humans_chest", {}),
        ("three_humans_face", {}),
        ("three_humans_chest", {"mode": "ramp"}),
    ],
    ids=["chest", "face", "chest-ramp"],
)
def test_closed_loop_matches_oracle_on_shipped_scenarios(name, overrides):
    scenario = load_scenario(REPO_ROOT / "scenarios" / f"{name}.json", overrides)
    _assert_same_run(scenario)


@settings(max_examples=25, deadline=None)
@given(
    start=st.tuples(st.floats(-5.0, 15.0), st.floats(-5.0, 5.0)),
    goals=st.lists(st.tuples(st.floats(-5.0, 15.0), st.floats(-5.0, 5.0)), min_size=1, max_size=3),
    humans=st.lists(st.tuples(st.floats(-5.0, 15.0), st.floats(-5.0, 5.0)), max_size=3),
    mode=st.sampled_from(["binary", "ramp"]),
    f_star=st.sampled_from([65.0, 140.0]),
)
def test_closed_loop_matches_oracle_on_random_fields(start, goals, humans, mode, f_star):
    scenario = SimScenario(
        name="random", start=start, goals=goals, humans=humans,
        cfg=GovernorConfig(mode=mode, f_star_n=f_star), profile=PROFILE, duration_s=1.5,
    )
    _assert_same_run(scenario)


# --- stream: message parse, reply format, compliance row ---------------------


def _parse_outcome(parse, text):
    """The decoded message with every float as its bits, or the error text."""
    try:
        return tree_bits(parse(text))
    except ProtocolError as exc:
        return "ProtocolError", str(exc)
    except (TypeError, ValueError, RecursionError) as exc:
        return type(exc).__name__, str(exc)


def _expected_parse_outcome(text):
    """The earlier parse's outcome, except where it let a message crash the
    stream; the current parse refuses those with a protocol error."""
    want = _parse_outcome(oracle_parse_message, text)
    if not isinstance(want, dict) and want[0] in ("ValueError", "RecursionError"):
        return "ProtocolError", f"invalid JSON: {want[1]}"  # int digit limit, nesting depth
    if not isinstance(want, dict) and want[0] == "TypeError":  # an unhashable "type"
        return "ProtocolError", f"unknown message type: {json.loads(text)['type']!r}"
    # an int that float() refuses passed the earlier checks (and crashed the
    # stream when it routed the message); now it is not finite, in the order
    # the fields are checked
    try:
        msg = _ORACLE_DECODER.decode(text)
        fields = _ORACLE_REQUIRED_FIELDS[msg["type"]]
    except (ProtocolError, ValueError, TypeError, KeyError):
        return want
    for key in fields:
        value = msg.get(key)
        if type(value) is int and abs(value) >= 2**1024 - 2**970:
            return "ProtocolError", f"{msg['type']} message field {key!r} must be finite"
        if type(value) not in (int, float) or not math.isfinite(value):
            break  # the earlier parse's own error comes first
    return want


#: numbers the decoder turns into edge values: signed zeros, a subnormal,
#: exact and inexact large values, overflow to inf, and the literals that
#: json writes for non-finite floats
NUMBER_TEXTS = [
    "0", "-0", "0.0", "-0.0", "5e-324", "1e-400", "1e16", "12345678901234567890",
    "1.7976931348623157e308", "1e999", "-1e999", "NaN", "Infinity", "-Infinity",
    "true", "false", "null", '"1.5"', "[]", "{}", '["cmd"]',
    str(2**1024 - 2**970 - 1), str(2**1024 - 2**970), str(-(2**1024)), "1" * 5000,
]
number_texts = st.one_of(
    st.sampled_from(NUMBER_TEXTS),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(10**20), 10**20).map(str),
)
whitespace = st.text(" \t\r\n", max_size=3)


@st.composite
def message_texts(draw):
    """One NDJSON line: a well-formed message, a message with any value in a
    required field, extra or duplicate keys, surrounding whitespace, or one
    of the framing faults."""
    mtype = draw(st.sampled_from(["range", "odom", "cmd", "bogus"]))
    keys = list(_ORACLE_REQUIRED_FIELDS.get(mtype, ("t_s",)))
    keys += draw(st.lists(st.sampled_from(["vx", "d_m", "extra", "type"]), max_size=2))
    if draw(st.booleans()):  # duplicate keys: the last one wins
        keys.append(draw(st.sampled_from(keys)))
    fields = [f'"type":"{mtype}"'] + [f'"{k}":{draw(number_texts)}' for k in keys]
    if draw(st.booleans()):
        fields = draw(st.permutations(fields))
    sep = draw(st.sampled_from([",", ", ", " , "]))
    text = "{" + sep.join(fields) + "}"
    text = draw(st.sampled_from([
        text, text, text,
        text + " x", text + text, text + "\n" + text, text[:-1], "[" + text + "]",
        "{not json", "[]", "", "null", '"cmd"', "1.5", "[" * 100_000,
    ]))
    return draw(whitespace) + text + draw(whitespace)


@settings(max_examples=1000, deadline=None)
@given(text=message_texts())
def test_parse_message_matches_oracle(text):
    assert _parse_outcome(stream.parse_message, text) == _expected_parse_outcome(text)


_FLOAT_MAX_INT = int(sys.float_info.max)

#: a value for one required field, as JSON text: every kind the decoder
#: makes, ints on both sides of the float range's end and of the first int
#: that float() refuses, and floats with the literals that decode to NaN or
#: an infinity
field_texts = st.one_of(
    number_texts,
    st.floats().map(json.dumps),
    st.sampled_from(["1e999", "-1e999", "1e308", "-2e308"]),
    st.sampled_from([_FLOAT_MAX_INT, 2**1024 - 2**970])
    .flatmap(lambda edge: st.integers(edge - 2**971, edge + 2**971))
    .flatmap(lambda n: st.sampled_from([n, -n]))
    .map(str),
    st.text(max_size=4).map(json.dumps),
    st.lists(st.integers(0, 9), max_size=2).map(json.dumps),
)


@settings(max_examples=500, deadline=None)
@given(mtype=st.sampled_from(["range", "cmd"]), index=st.integers(0, 3), text=field_texts)
def test_parse_message_accepts_a_field_exactly_when_read_field_finds_a_finite_number(
    mtype, index, text
):
    # parse_message keeps its own copy of the rule on the hot path
    try:
        value = json.loads(text)  # json reads NaN and Infinity too
    except ValueError:  # an int past the digit limit decodes to no value
        return
    keys = _ORACLE_REQUIRED_FIELDS[mtype]
    key = keys[index % len(keys)]
    fields = [f'"{k}":{text if k == key else "0"}' for k in keys]
    line = '{"type":"%s",%s}' % (mtype, ",".join(fields))
    try:
        read_field(value, FINITE, key)
        read = True
    except ValueError:
        read = False
    try:
        stream.parse_message(line)
        parsed = True
    except ProtocolError:
        parsed = False
    assert parsed == read, (line, value)


@pytest.mark.parametrize(
    "mtype, key", [(mtype, key) for mtype, keys in _ORACLE_REQUIRED_FIELDS.items() for key in keys]
)
@pytest.mark.parametrize(
    "text, finite",
    [("1.7976931348623157e308", True), ("-1.7976931348623157e308", True), ("5e-324", True),
     ("-0.0", True), ("1e999", False), ("-1e999", False)],
)
def test_parse_message_finiteness_holds_at_the_float_edges(mtype, key, text, finite):
    # the largest floats, the smallest subnormal and a negative zero are
    # finite; literals past the largest float decode to an infinity, which is not
    keys = _ORACLE_REQUIRED_FIELDS[mtype]
    line = '{"type":"%s",%s}' % (mtype, ",".join(f'"{k}":{text if k == key else "0"}' for k in keys))
    if finite:
        msg = stream.parse_message(line)
        assert msg == json.loads(line)
        assert repr(msg[key]) == repr(float(text))
    else:
        with pytest.raises(ProtocolError) as exc:
            stream.parse_message(line)
        assert str(exc.value) == f"{mtype} message field {key!r} must be finite"


@pytest.mark.parametrize(
    "text",
    [
        '{"type":"cmd","vx":1.5,"vy":0,"vz":-0.0,"t_s":0.1}',
        ' {"type":"range","d_m":4,"t_s":0}\n',
        '{"type":"range","d_m":4,"t_s":0}\r\n',
        "{not json", "[]", "", "   ", '{"type":"range","d_m":4,"t_s":0} trailing',
        '{"type":"range","d_m":4,"t_s":0}{"type":"range","d_m":5,"t_s":0}',
        '{"type":"range","d_m":4,"d_m":5,"t_s":0}',
        '{"type":"range","d_m":4,"d_m":true,"t_s":0}',
        '{"type":"range","d_m":NaN,"t_s":0}', '{"type":"range","d_m":4,"t_s":-Infinity}',
        '{"type":"range","d_m":4,"t_s":0,"note":NaN}',
        '{"type":"range","d_m":4,"t_s":0} NaN',
        '{"type":"range","d_m":1e999,"t_s":0}', '{"type":"range","d_m":4,"t_s":0,"x":1e999}',
        '{"type":"cmd","vx":true,"vy":0,"vz":0,"t_s":0}',
        '{"type":"cmd","vx":1,"vy":0,"t_s":0}', '{"type":"odom"}', '{"type":null}',
        '{"vx":1}', '"range"', "nul", '{"type":"range","d_m":4,"t_s":0',
        '{"type":["cmd"]}', '{"type":{}}', '{"type":"range","d_m":1' + "0" * 400 + ',"t_s":0}',
        '{"type":"range","d_m":4,"t_s":' + "9" * 5000 + "}", "[" * 100_000,
    ],
)
def test_parse_message_matches_oracle_on_edge_lines(text):
    assert _parse_outcome(stream.parse_message, text) == _expected_parse_outcome(text)


EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-7, 0.1, 1e15, 1e16, -1e16,
    1.2345678901234567e17, 1e200, 1.7976931348623157e308, -1.7976931348623157e308,
    # where repr switches between fixed and exponent notation
    1e-4, 9.999999999999999e-05, 1e-5, -1e-5, 9999999999999998.0,
]
reply_floats = st.one_of(st.sampled_from(EDGE_FLOATS),
                         st.floats(allow_nan=False, allow_infinity=False))
reply_caps = st.one_of(reply_floats.map(abs), st.integers(0, 10**20))
CAP_SOURCES = ["none", "iso", "force", "stale-failsafe"]


@settings(max_examples=1000, deadline=None)
@given(parts=st.tuples(reply_floats, reply_floats, reply_floats, reply_floats),
       cap=reply_caps, source=st.sampled_from(CAP_SOURCES))
def test_format_cmd_limited_matches_oracle(parts, cap, source):
    out = VelocityCommand(*parts)
    record = ComplianceRecord(parts[3], 0.0, 0.0, 0.0, cap, source, False)
    assert stream.format_cmd_limited(out, record) == oracle_format_cmd_limited(out, record)


def _nan_with_sign():
    return struct.unpack("<d", struct.pack("<Q", 0xFFF8000000000001))[0]


row_numbers = st.one_of(
    st.sampled_from(EDGE_FLOATS + [math.nan, _nan_with_sign(), math.inf, -math.inf]),
    st.floats(),
    st.integers(-(10**20), 10**20),
    st.booleans(),
)
FLAGS = ["clock-skew", "invalid-range", "non-finite-command"]


def _row_bytes(log_class, path, records):
    path.unlink(missing_ok=True)
    with log_class(path) as log:
        for record in records:
            log.write(record)
    return path.read_bytes()


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(records=st.lists(
    st.builds(ComplianceRecord, row_numbers, row_numbers, row_numbers, row_numbers,
              row_numbers, st.sampled_from(CAP_SOURCES), st.booleans(),
              st.lists(st.sampled_from(FLAGS), unique=True)),
    min_size=1, max_size=5,
))
def test_compliance_row_matches_oracle(tmp_path, records):
    want = _row_bytes(OracleComplianceLog, tmp_path / "oracle.csv", records)
    assert _row_bytes(stream.ComplianceLog, tmp_path / "new.csv", records) == want


def _number(lo, hi):
    """A float in [lo, hi], or an int where the range holds one."""
    if math.ceil(lo) > math.floor(hi):
        return st.floats(lo, hi)
    return st.floats(lo, hi) | st.integers(math.ceil(lo), math.floor(hi))


governor_configs = st.builds(
    GovernorConfig,
    t_q_s=_number(0.01, 0.5),
    a_mps2=_number(1.0, 30.0),
    c_m=_number(0.1, 3.0),
    v_cruise_mps=_number(1.0, 15.0),
    f_star_n=_number(20.0, max(BODY_REGION_LIMITS_N.values())),
    v_platform_max_mps=_number(1.0, 40.0),
    staleness_timeout_s=_number(0.05, 1.0),
    mode=st.sampled_from(["binary", "ramp"]),
    stale_cap_mps=st.none() | _number(0.0, 30.0),
    f_star_is_peak=st.booleans(),
)
wire_numbers = st.one_of(
    st.floats(-30.0, 30.0), st.integers(-30, 30),
    st.sampled_from([0.0, -0.0, 5e-324, 1e16, 1e200, -1.7e308]),
)
wire_messages = st.one_of(
    st.fixed_dictionaries({"type": st.just("range"), "d_m": st.floats(-1.0, 40.0) | st.integers(0, 40),
                           "t_s": st.floats(0.0, 3.0)}),
    st.fixed_dictionaries({"type": st.sampled_from(["odom", "cmd", "cmd"]), "vx": wire_numbers,
                           "vy": wire_numbers, "vz": wire_numbers, "t_s": st.floats(0.0, 3.0)}),
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cfg=governor_configs, messages=st.lists(wire_messages, max_size=30),
       tail=st.sampled_from(["", '{"type":"cmd","vx":NaN,"vy":0,"vz":0,"t_s":1}']))
def test_governed_stream_matches_oracle_path(tmp_path, cfg, messages, tail):
    lines = [json.dumps(m) for m in messages] + [tail]
    texts = []
    for name, parse, format_reply, log_class in (
        ("new", stream.parse_message, stream.format_cmd_limited, stream.ComplianceLog),
        ("oracle", oracle_parse_message, oracle_format_cmd_limited, OracleComplianceLog),
    ):
        path = tmp_path / f"{name}.csv"
        path.unlink(missing_ok=True)
        out = io.StringIO()
        with mock.patch.multiple(stream, parse_message=parse, format_cmd_limited=format_reply), \
                log_class(path) as log:
            try:
                ended = stream.run_stream(GovernorRuntime(cfg, PROFILE), lines, out, compliance=log)
            except ProtocolError as exc:  # the NaN tail
                ended = (type(exc), str(exc))
        texts.append((ended, out.getvalue(), path.read_text()))
    assert texts[0] == texts[1]


# --- airframe model: Horner, grids, force map --------------------------------
#
# One difference is intended: an EC_r of NaN on the domain now fails the range
# check, where the numpy check's NaN minimum and maximum let the profile pass
# (test_fit.py::test_profile_refuses_non_finite_values). The models drawn here
# keep EC_r finite.


def oracle_avg_force_on_grid(grid, profile):
    lo, hi = profile.restitution.domain
    clamped = np.clip(grid, lo, hi)
    ec_r = np.clip(npoly.polyval(clamped, profile.restitution.coefficients), 0.0, None)
    return profile.mass_kg * grid * (1.0 + np.sqrt(ec_r)) / profile.dt_s


def oracle_avg_impact_force(v, profile):
    """The scalar force path: numpy's polyval at the clamped speed."""
    rest = profile.restitution
    ec_r = float(npoly.polyval(rest.clamp(v), rest.coefficients))
    return profile.mass_kg * v * (1.0 + math.sqrt(max(ec_r, 0.0))) / profile.dt_s


def oracle_force_speed_cap(f_star, profile, cfg):
    """The cap and whether the force map decreases on the numpy grid."""
    vmax = cfg.v_platform_max_mps
    fvals = oracle_avg_force_on_grid(np.linspace(0.0, vmax, 1000), profile)
    warned = bool(np.any(np.diff(fvals) < -1e-9))
    if oracle_avg_impact_force(vmax, profile) < f_star:
        return vmax, warned
    lo, hi = 0.0, vmax
    while hi - lo > 1e-7:
        mid = 0.5 * (lo + hi)
        if oracle_avg_impact_force(mid, profile) > f_star:
            hi = mid
        else:
            lo = mid
    return lo, warned


def oracle_check_restitution_range(model):
    grid = np.linspace(model.domain[0], model.domain[1], 1000)
    vals = npoly.polyval(grid, model.coefficients)
    if float(np.min(vals)) < -1e-9 or float(np.max(vals)) > 1.0 + 1e-9:
        bad = vals[(vals < -1e-9) | (vals > 1.0 + 1e-9)]
        return float(bad[0])
    return None


def oracle_peak_to_average_ratio(profile):
    v_ref = 0.5 * (profile.restitution.domain[0] + profile.restitution.domain[1])
    f_avg = oracle_avg_impact_force(v_ref, profile)
    if not (f_avg > 0 and np.isfinite(f_avg)):
        raise InvariantViolation(
            f"average force at the reference speed must be finite and > 0, got {f_avg}"
        )
    return profile.f_max_ref_N / f_avg


@settings(max_examples=1000, deadline=None)
@given(coeffs=st.lists(st.floats(), min_size=1, max_size=6), x=st.floats(),
       lo=st.floats(-10.0, 10.0), width=st.floats(0.0, 10.0))
def test_polyval_and_evaluate_match_numpy(coeffs, x, lo, width):
    with np.errstate(all="ignore"):
        assert float_bits(polyval(x, coeffs)) == float_bits(float(npoly.polyval(x, coeffs)))
        model = PolyModel(coeffs, len(coeffs) - 1, 1.0, 0.0, (lo, lo + width))
        want = float(npoly.polyval(model.clamp(x), coeffs))
    assert float_bits(model.evaluate(x)) == float_bits(want)


# numpy.linspace takes another branch where the step underflows to zero on a
# nonzero (subnormal) span, so spans start at 1e-300
@settings(max_examples=500, deadline=None)
@given(start=st.floats(-1e3, 1e3, allow_subnormal=False),
       span=st.just(0.0) | st.floats(1e-300, 1e3))
def test_linspace_matches_numpy(start, span):
    stop = start + span
    assert tree_bits(linspace(start, stop)) == tree_bits(np.linspace(start, stop, 1000).tolist())


@st.composite
def restitution_models(draw):
    lo = draw(st.floats(0.0, 15.0))
    width = draw(st.just(0.0) | st.floats(0.01, 10.0))
    kind = draw(st.sampled_from(["line", "steep", "gentle", "wild", "edge"]))
    if kind in ("line", "steep"):  # through two EC_r values in [0, 1]
        y_lo, y_hi = draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0))
        if kind == "steep":  # a fall steep enough to bend v (1 + e(v)) down
            y_lo, y_hi = 0.5 + 0.5 * y_lo, 0.1 * y_hi
            width = draw(st.floats(0.05, 2.0))
        slope = 0.0 if width == 0.0 else (y_hi - y_lo) / width
        coeffs = [y_lo - slope * lo, slope]
    elif kind == "gentle":
        coeffs = [draw(st.floats(0.0, 1.0)), draw(st.floats(-0.1, 0.1)),
                  draw(st.floats(-0.01, 0.01))]
    elif kind == "wild":
        coeffs = draw(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=4))
    else:  # a constant at the edges of the [0, 1] tolerance
        coeffs = [draw(st.sampled_from([-2e-9, -1e-9, -5e-10, -0.0, 1.0, 1.0 + 5e-10, 1.0 + 2e-9]))]
    return PolyModel(coeffs, len(coeffs) - 1, 1.0, 0.0, (lo, lo + width))


@settings(max_examples=300, deadline=None)
@given(model=restitution_models(), mass=st.floats(0.05, 5.0), dt=st.floats(0.005, 0.2),
       vmax=st.floats(0.5, 40.0), f_star=st.floats(1.0, 210.0), f_peak=st.floats(1.0, 500.0),
       bind_at=st.none() | st.just(1.0) | st.floats(0.99, 1.0))
@example(model=PolyModel([0.1], 0, 1.0, 0.0, (3.0, 4.0)), mass=1e300, dt=1e-10,  # force overflows
         vmax=20.0, f_star=140.0, f_peak=105.6, bind_at=None)
@example(model=PolyModel([0.1], 0, 1.0, 0.0, (3.0, 4.0)), mass=1e300, dt=1e-7,  # past the domain
         vmax=20.0, f_star=140.0, f_peak=105.6, bind_at=None)
@example(model=PolyModel([0.1], 0, 1.0, 0.0, (0.0, 0.0)), mass=0.25, dt=0.036,  # no speed > 0
         vmax=20.0, f_star=140.0, f_peak=105.6, bind_at=None)
def test_airframe_model_matches_numpy_oracles(model, mass, dt, vmax, f_star, f_peak, bind_at):
    offending = _check_restitution_range(model)
    assert tree_bits(offending) == tree_bits(oracle_check_restitution_range(model))
    make = lambda: AirframeProfile("P", mass, dt, 0.0, model, 0.0, f_peak)  # noqa: E731
    if model.domain[0] < 0 or model.domain[1] <= 0:  # checked before the EC_r range
        with pytest.raises(InvariantViolation, match="measured speed domain"):
            make()
        return
    if offending is not None:
        with pytest.raises(RestitutionOutOfRange):
            make()
        return
    # a profile is refused where the force map's bound on its domain, at the
    # top speed and the highest restitution the range check lets through,
    # overflows; the bound holds wherever the map on the domain's grid does
    with np.errstate(over="ignore"):
        bound = mass * model.domain[1] * (1.0 + np.sqrt(1.0 + 1e-9)) / dt
        on_domain = oracle_avg_force_on_grid(np.linspace(*model.domain, 1000), SimpleNamespace(
            mass_kg=mass, dt_s=dt, restitution=model))
    assert np.isinf(bound) or np.isfinite(on_domain).all()
    if np.isinf(bound):
        with pytest.raises(InvariantViolation, match="^profile force map is not finite on its "
                           rf"measured speed domain \({model.domain[0]!r}, {model.domain[1]!r}\)$"):
            make()
        return
    profile = make()

    grid = oracle_avg_force_on_grid(np.linspace(0.0, vmax, 1000), profile).tolist()
    assert tree_bits([profile.avg_force(v) for v in linspace(0.0, vmax)]) == tree_bits(grid)

    if bind_at is not None:  # a limit that binds at or just below vmax
        f_star = max(oracle_avg_impact_force(bind_at * vmax, profile), f_star * 1e-3)
    cfg = GovernorConfig(v_platform_max_mps=vmax)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cap = force_speed_cap(f_star, profile, cfg)
    warned = any(issubclass(w.category, NonMonotoneForceMapWarning) for w in caught)
    assert tree_bits((cap, warned)) == tree_bits(oracle_force_speed_cap(f_star, profile, cfg))

    outcomes = []
    for ratio in (profile.peak_to_average_ratio, lambda: oracle_peak_to_average_ratio(profile)):
        try:
            outcomes.append(float_bits(ratio()))
        except InvariantViolation as exc:
            outcomes.append((type(exc), str(exc)))
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("name", ["carbon_0deg", "bamboo_0deg"])
def test_force_grid_matches_numpy_on_shipped_profiles(name):
    profile = load_profile(REPO_ROOT / "profiles" / f"{name}.json")
    vmax = GovernorConfig().v_platform_max_mps
    grid = oracle_avg_force_on_grid(np.linspace(0.0, vmax, 1000), profile).tolist()
    assert tree_bits([profile.avg_force(v) for v in linspace(0.0, vmax)]) == tree_bits(grid)
