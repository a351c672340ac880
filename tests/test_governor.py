import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from impact_governor.errors import (
    GovernorConfigError,
    InvariantViolation,
    NonMonotoneForceMapWarning,
)
from impact_governor.fit import AirframeProfile, PolyModel
from impact_governor.governor import (
    CAP_EPSILON,
    GovernorConfig,
    GovernorRuntime,
    VelocityCommand,
    avg_impact_force,
    force_speed_cap,
    iso_radius,
    iso_speed_cap,
    limit_command,
)

from conftest import child_env, make_profile

REPO_ROOT = Path(__file__).resolve().parents[1]

# conftest const_profile: m=0.25, dt=0.036, EC_r=0.145924 -> e_hat=0.382
E_HAT = 0.382


def closed_form_cap(f_star, m=0.25, dt=0.036, e=E_HAT):
    return f_star * dt / (m * (1.0 + e))


# --- zone geometry -----------------------------------------------------------


def test_iso_radius_reference_point(default_cfg):
    # v=8 with T_q=0.1, a=15, C=1.2: 0.8 + 6.4 + 1.2
    assert iso_radius(8.0, default_cfg) == pytest.approx(8.4, abs=1e-12)
    assert iso_radius(0.0, default_cfg) == pytest.approx(1.2)
    with pytest.raises(ValueError):
        iso_radius(-1.0, default_cfg)


def test_iso_speed_cap_inverts_radius(default_cfg):
    assert iso_speed_cap(8.4, default_cfg) == pytest.approx(8.0, abs=1e-9)
    assert iso_speed_cap(2.4, default_cfg) == pytest.approx(3.0, abs=1e-9)


def test_iso_speed_cap_edges(default_cfg):
    assert iso_speed_cap(1.2, default_cfg) == 0.0  # at the reach margin
    assert iso_speed_cap(0.3, default_cfg) == 0.0
    assert iso_speed_cap(1e6, default_cfg) == default_cfg.v_platform_max_mps


def test_iso_round_trip_and_monotonicity(default_cfg):
    for v in np.linspace(0.01, default_cfg.v_platform_max_mps, 57):
        assert iso_speed_cap(iso_radius(v, default_cfg), default_cfg) == pytest.approx(
            v, abs=1e-9
        )
    d = np.linspace(0.0, 50.0, 500)
    caps = [iso_speed_cap(x, default_cfg) for x in d]
    assert all(b >= a for a, b in zip(caps, caps[1:]))


# --- force model -------------------------------------------------------------


def test_avg_impact_force(const_profile):
    assert avg_impact_force(3.0, const_profile) == pytest.approx(
        0.25 * 3.0 * 1.382 / 0.036
    )
    assert avg_impact_force(0.0, const_profile) == 0.0
    with pytest.raises(ValueError):
        avg_impact_force(-0.1, const_profile)


def test_force_speed_cap_matches_closed_form(const_profile, default_cfg):
    # constant restitution makes the exact cap F* dt / (m (1 + e))
    assert force_speed_cap(140.0, const_profile, default_cfg) == pytest.approx(
        closed_form_cap(140.0), abs=1e-6
    )
    assert force_speed_cap(65.0, const_profile, default_cfg) == pytest.approx(
        closed_form_cap(65.0), abs=1e-6
    )
    # anchor magnitudes
    assert closed_form_cap(140.0) == pytest.approx(14.588, abs=5e-4)
    assert closed_form_cap(65.0) == pytest.approx(6.77, abs=5e-3)


def test_force_speed_cap_never_exceeds_limit(const_profile, default_cfg):
    for f_star in (20.0, 65.0, 140.0, 210.0):
        v = force_speed_cap(f_star, const_profile, default_cfg)
        assert avg_impact_force(v, const_profile) <= f_star + 1e-6


def test_force_speed_cap_non_binding_returns_platform_max(const_profile, default_cfg):
    # F_avg(20) = 0.25*20*1.382/0.036 = 191.9 N < 210 N
    assert force_speed_cap(210.0, const_profile, default_cfg) == pytest.approx(20.0)
    with pytest.raises(ValueError):
        force_speed_cap(0.0, const_profile, default_cfg)


def test_force_speed_cap_warns_on_non_monotone_map(default_cfg):
    # retained energy falling from 0.90 to 0.02 across the domain makes
    # v (1 + e(v)) dip near the fast end
    profile = AirframeProfile(
        name="Dip",
        mass_kg=0.25,
        dt_s=0.036,
        dt_std_s=0.001,
        restitution=PolyModel(
            coefficients=[3.54, -0.88], degree=1, r_squared=1.0, mae=0.0,
            domain=(3.0, 4.0),
        ),
        angle_deg=0.0,
        f_max_ref_N=100.0,
    )
    with pytest.warns(NonMonotoneForceMapWarning):
        v = force_speed_cap(35.0, profile, default_cfg)
    # the bracket answer still respects the limit
    assert avg_impact_force(v, profile) <= 35.0 + 1e-6


# --- command saturation ------------------------------------------------------


def test_limit_command_pass_through_is_exact():
    cmd = VelocityCommand(3.0, 4.0, 0.0, timestamp=1.0)
    assert limit_command(cmd, 5.0) is cmd
    assert limit_command(cmd, 6.0) is cmd


def test_limit_command_scales_preserving_direction():
    cmd = VelocityCommand(3.0, 4.0, 0.0, timestamp=1.0)
    out = limit_command(cmd, 2.5)
    assert out.speed() == pytest.approx(2.5)
    assert out.vx / out.vy == pytest.approx(3.0 / 4.0)
    assert out.vz == 0.0 and out.timestamp == 1.0
    # saturation is idempotent
    again = limit_command(out, 2.5)
    assert (again.vx, again.vy, again.vz) == (out.vx, out.vy, out.vz)


def test_limit_command_zero_cap_and_bad_inputs():
    cmd = VelocityCommand(1.0, 1.0, 1.0, timestamp=0.0)
    assert limit_command(cmd, 0.0).speed() == 0.0
    nonfinite = VelocityCommand(math.nan, 0.0, 0.0, timestamp=2.0)
    out = limit_command(nonfinite, 5.0)
    assert (out.vx, out.vy, out.vz, out.timestamp) == (0.0, 0.0, 0.0, 2.0)
    with pytest.raises(ValueError):
        limit_command(cmd, -1.0)


# --- configuration -----------------------------------------------------------


def test_config_defaults_and_round_trip(default_cfg):
    assert default_cfg.t_q_s == 0.1
    assert default_cfg.a_mps2 == 15.0
    assert default_cfg.c_m == 1.2
    assert default_cfg.f_star_n == 140.0
    back = GovernorConfig.from_dict(default_cfg.to_dict())
    assert back == default_cfg
    # an unknown key is refused: ignored, it could only leave a looser default in force
    d = default_cfg.to_dict()
    d["someday"] = 1
    with pytest.raises(GovernorConfigError, match="unknown key 'someday'"):
        GovernorConfig.from_dict(d)


def test_config_validation():
    with pytest.raises(ValueError):
        GovernorConfig(t_q_s=0.0)
    with pytest.raises(ValueError):
        GovernorConfig(a_mps2=-3.0)
    with pytest.raises(ValueError):
        GovernorConfig(mode="sometimes")
    with pytest.raises(ValueError):
        GovernorConfig(f_star_n=211.0)  # above every body-region limit
    with pytest.raises(ValueError):
        GovernorConfig(stale_cap_mps=-1.0)


_NUMERIC_FIELDS = (
    "t_q_s", "a_mps2", "c_m", "v_cruise_mps", "f_star_n", "v_platform_max_mps",
    "staleness_timeout_s", "stale_cap_mps",
)


@pytest.mark.parametrize("name", _NUMERIC_FIELDS)
@pytest.mark.parametrize(
    "value", [math.nan, math.inf, -math.inf, True, False, np.float64(1.0), "1.0"],
    ids=["nan", "inf", "-inf", "true", "false", "numpy", "str"],
)
def test_config_rejects_non_finite_bool_and_non_numbers(name, value):
    # NaN passes every <= bound, an infinite platform maximum never ends the
    # force-cap bisection, and a bool would reach the wire as true/false
    with pytest.raises(ValueError, match=f"^{name} must be a finite number, got "):
        GovernorConfig(**{name: value})


# --- runtime -----------------------------------------------------------------


def test_runtime_precomputes_caps(const_profile, default_cfg):
    rt = GovernorRuntime(default_cfg, const_profile)
    assert rt.v_force == pytest.approx(closed_form_cap(140.0), abs=1e-6)
    assert rt.s_zone == pytest.approx(8.4)
    assert rt.stale_cap == pytest.approx(rt.v_force)
    assert rt.last_record is None


def test_runtime_binary_caps_inside_zone(const_profile, default_cfg):
    rt = GovernorRuntime(default_cfg, const_profile)
    rt.on_range(5.0, t=0.0)
    rt.on_odom(3.0, 4.0, 0.0, t=0.01)
    out = rt.on_command(VelocityCommand(20.0, 0.0, 0.0, timestamp=0.05))
    assert out.speed() == pytest.approx(rt.v_force)
    rec = rt.last_record
    assert rec.cap_source == "force"
    assert rec.d_m == 5.0
    assert rec.input_speed_mps == pytest.approx(20.0)
    assert rec.output_speed_mps <= rec.cap_mps + CAP_EPSILON
    assert not rec.violated and rec.flags == []
    assert rec.s_m == pytest.approx(iso_radius(5.0, default_cfg))  # |v| = 5


def test_runtime_binary_open_field_passes_through(const_profile, default_cfg):
    rt = GovernorRuntime(default_cfg, const_profile)
    rt.on_range(30.0, t=0.0)
    cmd = VelocityCommand(6.0, 0.0, 0.0, timestamp=0.1)
    assert rt.on_command(cmd) is cmd
    assert rt.last_record.cap_source == "none"
    rt.on_range(5.0, t=0.2)
    rt.on_range(8.4, t=0.3)  # S(v_cruise) = 8.4 itself releases the zone
    rt.on_command(VelocityCommand(19.0, 0.0, 0.0, timestamp=0.35))
    assert (rt.last_record.cap_mps, rt.last_record.cap_source) == (20.0, "none")


def test_runtime_stale_failsafe(const_profile, default_cfg):
    rt = GovernorRuntime(default_cfg, const_profile)
    # no range data at all: failsafe from the first command
    out = rt.on_command(VelocityCommand(20.0, 0.0, 0.0, timestamp=0.0))
    assert out.speed() == pytest.approx(rt.stale_cap)
    rec = rt.last_record
    assert rec.cap_source == "stale-failsafe"
    assert math.isnan(rec.d_m)

    rt.on_range(30.0, t=1.0)
    rt.on_command(VelocityCommand(6.0, 0.0, 0.0, timestamp=1.2))  # fresh (0.2 s)
    assert rt.last_record.cap_source == "none"
    rt.on_command(VelocityCommand(6.0, 0.0, 0.0, timestamp=1.3))  # stale (0.3 s)
    rec = rt.last_record
    assert rec.cap_source == "stale-failsafe"
    assert rec.d_m == 30.0  # last known distance is still reported


def test_runtime_strict_stale_cap_grounds_platform(const_profile):
    cfg = GovernorConfig(stale_cap_mps=0.0)
    rt = GovernorRuntime(cfg, const_profile)
    out = rt.on_command(VelocityCommand(5.0, 0.0, 0.0, timestamp=0.0))
    assert out.speed() == 0.0
    assert rt.last_record.cap_source == "stale-failsafe"


def test_runtime_stale_cap_never_relaxes_failsafe(const_profile):
    # a stale cap above the force-safe speed would weaken the failsafe; it
    # clamps down to v_force instead
    cfg = GovernorConfig(stale_cap_mps=100.0)
    rt = GovernorRuntime(cfg, const_profile)
    assert rt.stale_cap == pytest.approx(rt.v_force)


def test_runtime_ramp_hysteresis(const_profile):
    cfg = GovernorConfig(mode="ramp", f_star_n=65.0)
    rt = GovernorRuntime(cfg, const_profile)

    def cap_at(d, t):
        rt.on_range(d, t)
        rt.on_command(VelocityCommand(19.0, 0.0, 0.0, timestamp=t + 0.01))
        return rt.last_record

    assert cap_at(9.0, 0.0).cap_source == "none"  # outside, never engaged
    assert cap_at(8.3, 1.0).cap_source == "iso"  # crossed below S(v_cruise)=8.4
    inside = cap_at(8.7, 2.0)  # back above 8.4 but below 8.82: stays engaged
    assert inside.cap_source == "iso"
    assert inside.cap_mps == pytest.approx(iso_speed_cap(8.7, cfg), abs=1e-9)
    assert cap_at(8.9, 3.0).cap_source == "none"  # above 1.05 * 8.4: releases
    assert cap_at(8.7, 4.0).cap_source == "none"  # re-entry needs d < 8.4 again
    assert cap_at(8.39, 5.0).cap_source == "iso"


def test_runtime_ramp_floors_at_force_safe_speed(const_profile):
    cfg = GovernorConfig(mode="ramp", f_star_n=65.0)
    rt = GovernorRuntime(cfg, const_profile)
    rt.on_range(1.5, t=0.0)  # nearly at the reach margin
    out = rt.on_command(VelocityCommand(19.0, 0.0, 0.0, timestamp=0.01))
    assert out.speed() == pytest.approx(rt.v_force)
    assert rt.last_record.cap_source == "force"


def test_runtime_clock_skew_flag(const_profile, default_cfg):
    rt = GovernorRuntime(default_cfg, const_profile)
    rt.on_range(30.0, t=0.0)
    rt.on_command(VelocityCommand(1.0, 0.0, 0.0, timestamp=0.10))
    rt.on_command(VelocityCommand(1.0, 0.0, 0.0, timestamp=0.05))
    assert "clock-skew" in rt.last_record.flags


def test_runtime_non_finite_command_zeroed(const_profile, default_cfg):
    rt = GovernorRuntime(default_cfg, const_profile)
    rt.on_range(30.0, t=0.0)
    out = rt.on_command(VelocityCommand(math.inf, 0.0, 0.0, timestamp=0.01))
    assert out.speed() == 0.0
    rec = rt.last_record
    assert "non-finite-command" in rec.flags
    assert math.isnan(rec.input_speed_mps)
    assert not rec.violated


def test_runtime_peak_force_target(const_profile, default_cfg):
    # stating the profile's own reference peak as a peak target makes the
    # effective average limit equal the average force at the reference speed,
    # so the force-safe speed lands exactly on the domain midpoint
    cfg = GovernorConfig(f_star_n=105.6, f_star_is_peak=True)
    rt = GovernorRuntime(cfg, const_profile)
    assert rt.f_star_effective_n == pytest.approx(
        avg_impact_force(3.5, const_profile)
    )
    assert rt.v_force == pytest.approx(3.5, abs=1e-6)
    # and the plain config is untouched
    rt_plain = GovernorRuntime(default_cfg, const_profile)
    assert rt_plain.f_star_effective_n == 140.0


def test_runtime_refuses_peak_target_when_average_force_overflows():
    # finite mass and contact time whose average force at the reference speed
    # is inf: the ratio would read 0 and the conversion divide by it
    profile = make_profile(mass_kg=1e300, dt_s=1e-10)
    with pytest.raises(InvariantViolation, match="must be finite and > 0, got inf"):
        GovernorRuntime(GovernorConfig(f_star_is_peak=True), profile)


def test_runtime_records_accumulate(const_profile, default_cfg):
    rt = GovernorRuntime(default_cfg, const_profile)
    rt.on_range(6.0, t=0.0)
    records = []
    for k in range(5):
        rt.on_command(VelocityCommand(9.0, 0.0, 0.0, timestamp=0.01 * (k + 1)))
        records.append(rt.last_record)
    # one new record per command
    assert [r.timestamp for r in records] == [0.01 * (k + 1) for k in range(5)]
    assert all(r.output_speed_mps <= r.cap_mps + CAP_EPSILON for r in records)
    assert not any(r.violated for r in records)


# --- fail-closed telemetry ---------------------------------------------------

# closed-form oracle for GovernorConfig(f_star_n=65) on the conftest profile
F_STAR_FACE = 65.0
V_FORCE_FACE = closed_form_cap(F_STAR_FACE)  # also the stale cap
V_MAX, TIMEOUT_S = 20.0, 0.25
T_Q, A, C, V_CRUISE = 0.1, 15.0, 1.2, 8.0
S_ZONE = V_CRUISE * T_Q + 1.5 * V_CRUISE * V_CRUISE / A + C  # 8.4 m


def _zone_root(d):
    """Positive root of 1.5 v^2 / a + T_q v + C - d = 0 (0 inside the margin)."""
    if d <= C:
        return 0.0
    k = 1.5 / A
    return (-T_Q + math.sqrt(T_Q * T_Q + 4.0 * k * (d - C))) / (2.0 * k)


_times = st.one_of(
    st.floats(0.0, 3.0),  # interleaved, reordered and out-of-window stamps
    st.sampled_from([math.nan, math.inf, -math.inf, 1e9]),
)
_distances = st.one_of(
    st.floats(0.0, 30.0),
    st.floats(-30.0, -1e-9),
    st.sampled_from([math.nan, math.inf, -math.inf, S_ZONE, 1.05 * S_ZONE]),
)
_components = st.one_of(st.floats(-25.0, 25.0), st.just(math.nan))
_events = st.lists(
    st.one_of(
        st.tuples(st.just("range"), _distances, _times),
        st.tuples(st.just("odom"), _components, _components, _components, _times),
        st.tuples(st.just("cmd"), _components, _components, _components, _times),
    ),
    max_size=40,
)


@settings(max_examples=400, deadline=None)
@given(mode=st.sampled_from(["binary", "ramp"]), events=_events)
@example(mode="binary", events=[("range", math.nan, 0.0), ("cmd", 9.0, 0.0, 0.0, 0.1)])
@example(mode="ramp", events=[("range", 5.0, 0.0), ("range", -1.0, 0.05),
                              ("cmd", 9.0, 0.0, 0.0, 0.1)])
@example(mode="binary", events=[("range", 30.0, 1e9), ("cmd", 9.0, 0.0, 0.0, 100.0)])
@example(mode="binary", events=[("range", 30.0, math.nan), ("cmd", 9.0, 0.0, 0.0, 0.1)])
def test_runtime_fails_closed_on_bad_telemetry(mode, events):
    rt = GovernorRuntime(GovernorConfig(mode=mode, f_star_n=F_STAR_FACE), make_profile())
    latest = None  # (d, t, valid) of the last range reading
    engaged = False  # ramp hysteresis, driven by valid readings only
    for kind, *values in events:
        if kind == "range":
            d, t = values
            valid = not math.isnan(d) and d >= 0.0 and math.isfinite(t)
            latest = (d, t, valid)
            if valid:
                if not engaged and d < S_ZONE:
                    engaged = True
                elif engaged and d > 1.05 * S_ZONE:
                    engaged = False
            rt.on_range(d, t)
            continue
        if kind == "odom":
            rt.on_odom(*values)
            continue

        cmd = VelocityCommand(*values)
        out = rt.on_command(cmd)
        invalid = latest is not None and not latest[2]
        fresh = latest is not None and latest[2] and 0.0 <= cmd.timestamp - latest[1] <= TIMEOUT_S
        if not fresh:
            cap = V_FORCE_FACE
        elif mode == "binary":
            cap = V_FORCE_FACE if latest[0] < S_ZONE else V_MAX
        else:
            cap = max(V_FORCE_FACE, min(_zone_root(latest[0]), V_MAX)) if engaged else V_MAX

        assert out.speed() <= cap + 1e-6
        rec = rt.last_record
        assert rec.cap_mps == pytest.approx(cap, abs=1e-6)
        assert (rec.cap_source == "stale-failsafe") == (not fresh)
        assert ("invalid-range" in rec.flags) == invalid


def test_runtime_modules_load_no_analysis_stack():
    # the flight-side modules must not pay for (or depend on) bench analysis
    code = (
        "import sys\n"
        "import impact_governor.governor, impact_governor.stream, impact_governor.sim\n"
        "heavy = ('scipy', 'impact_governor.dsp', 'impact_governor.impact',"
        " 'impact_governor.ingest')\n"
        "print(','.join(m for m in heavy if m in sys.modules))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env(), timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


def test_runtime_governs_with_numpy_and_scipy_blocked():
    # a None entry in sys.modules makes any import of numpy or scipy fail
    code = (
        "import io, sys\n"
        "sys.modules['numpy'] = sys.modules['scipy'] = None\n"
        "from impact_governor import governor, profile, sim, stream\n"
        "p = profile.load_profile(sys.argv[1])\n"
        "rt = governor.GovernorRuntime(governor.GovernorConfig(f_star_n=65.0), p)\n"
        "out = io.StringIO()\n"
        "rc = stream.run_stream(rt, ['{\"type\":\"range\",\"d_m\":4.0,\"t_s\":0.0}',"
        " '{\"type\":\"cmd\",\"vx\":20.0,\"vy\":0.0,\"vz\":0.0,\"t_s\":0.1}'], out)\n"
        "print(rc)\n"
        "print(out.getvalue(), end='')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(REPO_ROOT / "profiles" / "carbon_0deg.json")],
        capture_output=True, text=True, env=child_env(), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "0",
        '{"type":"cmd_limited","vx":6.772305592894554,"vy":0.0,"vz":0.0,'
        '"cap_mps":6.772305592894554,"source":"force","t_s":0.1}',
    ]


# --- finite but huge velocities ----------------------------------------------

_huge = st.one_of(
    st.floats(-1.7e308, 1.7e308),
    st.sampled_from([0.0, -0.0, 1e154, 1.4e154, 1e200, -1e200, 1.7e308, -1.7e308]),
)


@settings(max_examples=400, deadline=None)
@given(vx=_huge, vy=_huge, vz=_huge, d=st.sampled_from([0.5, 5.0, 30.0]),
       mode=st.sampled_from(["binary", "ramp"]))
@example(vx=1e200, vy=0.0, vz=0.0, d=5.0, mode="binary")
@example(vx=1.7e308, vy=-1.7e308, vz=1.7e308, d=30.0, mode="ramp")
def test_runtime_saturates_finite_huge_velocities(vx, vy, vz, d, mode):
    try:  # where the squares fit, the norm keeps its bits
        want = math.sqrt(vx**2 + vy**2 + vz**2)
    except OverflowError:
        want = math.hypot(vx, vy, vz)
    assert VelocityCommand(vx, vy, vz, 0.0).speed() == want

    rt = GovernorRuntime(GovernorConfig(mode=mode, f_star_n=F_STAR_FACE), make_profile())
    rt.on_range(d, 0.0)
    rt.on_odom(vx, vy, vz, 0.0)
    out = rt.on_command(VelocityCommand(vx, vy, vz, 0.01))
    rec = rt.last_record
    assert all(math.isfinite(c) for c in (out.vx, out.vy, out.vz))
    assert out.speed() <= rec.cap_mps + CAP_EPSILON
    assert not rec.violated and rec.flags == []
    assert rec.input_speed_mps == want
    assert rec.s_m == iso_radius(want, rt.cfg)
