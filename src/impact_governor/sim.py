"""Kinematic closed-loop validation of the velocity governor.

A point-mass vehicle flies a figure-eight-ish shuttle between goal
points under a simple potential-field pilot, while static "humans"
populate the field.  Range detections are produced at a slow sensor
rate and fed to the governor; every pilot command passes through the
governor before integration.  The run produces a trajectory table and a
compliance summary: this is the cheap, deterministic way to confirm the
cap logic holds in closed loop before anyone stands near a real prop.

Everything is pure kinematics on a fixed step — no randomness, no
wall-clock dependence — so two runs of the same scenario are
bit-identical.  The step runs on Python floats, with every norm taken by
the C library's ``hypot`` and every expression in the order of the
earlier numpy 2-vector code, so trajectories are also bit-identical to
that code (``tests/test_reference_equivalence.py`` keeps it as oracle).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from .errors import ScenarioInvariantViolation
from .profile import AirframeProfile, load_profile, parse_profile
from .governor import GovernorConfig, GovernorRuntime, VelocityCommand

GOAL_CAPTURE_RADIUS_M = 0.5

TRAJECTORY_COLUMNS = (
    "t_s",
    "x_m",
    "y_m",
    "vx_mps",
    "vy_mps",
    "speed_mps",
    "nearest_d_m",
    "cap_mps",
    "cap_source",
)


@dataclass
class SimScenario:
    """Static description of one closed-loop validation run."""

    name: str
    start: tuple[float, float]
    goals: list[tuple[float, float]]
    humans: list[tuple[float, float]]
    cfg: GovernorConfig
    profile: AirframeProfile
    physics_dt_s: float = 0.004
    detection_rate_hz: float = 10.0
    duration_s: float = 30.0
    k_attract: float = 1.0
    k_repulse: float = 2.0
    repulse_radius_m: float = 3.0

    def __post_init__(self) -> None:
        if not self.goals:
            raise ScenarioInvariantViolation("scenario needs at least one goal")
        if self.physics_dt_s <= 0.0:
            raise ScenarioInvariantViolation("physics_dt_s must be positive")
        if self.detection_rate_hz <= 0.0:
            raise ScenarioInvariantViolation("detection_rate_hz must be positive")
        if self.physics_dt_s >= 1.0 / self.detection_rate_hz:
            raise ScenarioInvariantViolation(
                "physics step must be shorter than the detection period"
            )
        if self.duration_s <= 0.0:
            raise ScenarioInvariantViolation("duration_s must be positive")
        if min(self.k_attract, self.k_repulse, self.repulse_radius_m) < 0.0:
            raise ScenarioInvariantViolation("pilot gains must be non-negative")
        if self.cfg.staleness_timeout_s < 1.0 / self.detection_rate_hz:
            raise ScenarioInvariantViolation(
                "staleness timeout shorter than the detection period would "
                "trip the failsafe between healthy detections"
            )

    @property
    def detection_period_s(self) -> float:
        return 1.0 / self.detection_rate_hz


@dataclass
class SimState:
    """Mutable vehicle state advanced by the integrator.

    ``position`` and ``velocity`` are ``(x, y)`` pairs of Python floats; the
    integrator replaces them with new tuples each step.
    """

    position: tuple[float, float]
    velocity: tuple[float, float]
    t: float = 0.0
    goal_index: int = 0

    @property
    def speed(self) -> float:
        return _norm(*self.velocity)


def _norm(x: float, y: float) -> float:
    """Euclidean norm, bit-identical to ``np.hypot``.

    ``abs(complex(x, y))`` calls the C library's ``hypot`` as ``np.hypot``
    does (``math.hypot`` rounds differently in the last bit for a few pairs
    in a thousand). It raises ``OverflowError`` where the norm overflows,
    and also for a NaN part without an infinite one when an earlier
    overflow left ``errno`` set; ``np.hypot`` gives inf and NaN there.
    """
    try:
        return abs(complex(x, y))
    except OverflowError:
        return math.inf if x == x and y == y else math.nan


def nearest_human_distance(
    position: tuple[float, float], humans: Sequence[tuple[float, float]]
) -> float:
    """Euclidean distance to the closest human, inf for an empty field.

    NaN if any distance is NaN.
    """
    px, py = position
    nearest = math.inf
    for hx, hy in humans:
        d = _norm(hx - px, hy - py)
        if d < nearest:
            nearest = d
        elif d != d:
            return d
    return nearest


def potential_field_cmd(state: SimState, scenario: SimScenario) -> VelocityCommand:
    """Pilot: attract to the active goal, repel from nearby humans.

    Reaching a goal (within 0.5 m) advances ``state.goal_index`` to the
    next goal so the vehicle shuttles back and forth.  The combined
    desired velocity is clipped to the cruise speed; the governor, not
    the pilot, is responsible for safety.
    """
    v0 = scenario.cfg.v_cruise_mps
    goals = scenario.goals
    px, py = state.position
    gx, gy = goals[state.goal_index]
    ox, oy = gx - px, gy - py
    dist = _norm(ox, oy)
    if dist < GOAL_CAPTURE_RADIUS_M and len(goals) > 1:
        state.goal_index = (state.goal_index + 1) % len(goals)
        gx, gy = goals[state.goal_index]
        ox, oy = gx - px, gy - py
        dist = _norm(ox, oy)

    # starting from 0.0 turns a -0.0 component into +0.0
    dx = dy = 0.0
    if dist > 1e-12:
        dx += scenario.k_attract * (ox / dist) * v0
        dy += scenario.k_attract * (oy / dist) * v0
    k_r, radius = scenario.k_repulse, scenario.repulse_radius_m
    for hx, hy in scenario.humans:
        ax, ay = px - hx, py - hy
        d_h = _norm(ax, ay)
        if d_h < 1e-12 or d_h >= radius:
            continue
        weight = 1.0 - d_h / radius
        dx += k_r * (ax / d_h) * weight * v0
        dy += k_r * (ay / d_h) * weight * v0

    norm = _norm(dx, dy)
    if norm > v0 and norm > 0.0:
        scale = v0 / norm
        dx *= scale
        dy *= scale
    return VelocityCommand(vx=dx, vy=dy, vz=0.0, timestamp=state.t)


def step(
    state: SimState, cmd: VelocityCommand, dt: float, a_max: float
) -> None:
    """Semi-implicit Euler step toward the commanded velocity.

    The velocity moves toward the command, with the change clipped to
    ``a_max * dt``; the new velocity then advances the position.  E.g.
    from v=(8,0) commanded to (3,0) with a=15, dt=0.004 the step only
    reaches (7.94, 0).
    """
    vx, vy = state.velocity
    dvx, dvy = cmd.vx - vx, cmd.vy - vy
    dv_norm = _norm(dvx, dvy)
    max_dv = a_max * dt
    if dv_norm > max_dv and dv_norm > 0.0:
        scale = max_dv / dv_norm
        dvx *= scale
        dvy *= scale
    vx, vy = vx + dvx, vy + dvy
    px, py = state.position
    state.velocity = (vx, vy)
    state.position = (px + vx * dt, py + vy * dt)
    state.t += dt


@dataclass
class ZoneEntry:
    t_entry_s: float
    t_compliant_s: Optional[float] = None

    @property
    def time_to_compliance_s(self) -> Optional[float]:
        if self.t_compliant_s is None:
            return None
        return self.t_compliant_s - self.t_entry_s


def run_scenario(scenario: SimScenario) -> tuple[list[tuple], dict]:
    """Run the closed loop and audit it.

    Returns (trajectory rows, summary).  Rows follow
    ``TRAJECTORY_COLUMNS``; one row per physics step, logged after
    integration.  The summary counts governor violations (commands that
    left the runtime above the active cap — must be zero), tracks every
    entry into the protective zone with its time-to-compliance against
    the reaction-window bound, and checks the braking-margin invariant:
    inside the residual buffer ``C`` the speed never exceeds the force
    cap by more than one acceleration step.
    """
    runtime = GovernorRuntime(scenario.cfg, scenario.profile)
    cfg = scenario.cfg
    dt = scenario.physics_dt_s
    v_force = runtime.v_force
    s_zone = runtime.s_zone
    transient_bound_s = (
        cfg.t_q_s
        + max(0.0, cfg.v_cruise_mps - v_force) / cfg.a_mps2
        + 2.0 * dt
    )

    humans = scenario.humans
    x0, y0 = scenario.start
    state = SimState(position=(float(x0), float(y0)), velocity=(0.0, 0.0))
    n_steps = int(round(scenario.duration_s / dt))
    period = scenario.detection_period_s
    next_detection_t = 0.0
    compliant_speed = v_force + 1e-9
    breach_speed = v_force + cfg.a_mps2 * dt

    rows: list[tuple] = []
    entries: list[ZoneEntry] = []
    in_zone = nearest_human_distance(state.position, humans) < s_zone
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
            runtime.on_range(nearest_human_distance(state.position, humans), t)
            next_detection_t += period
        vx, vy = state.velocity
        runtime.on_odom(vx, vy, 0.0, t)

        idx_before = state.goal_index
        cmd = potential_field_cmd(state, scenario)
        if state.goal_index != idx_before:
            goal_switches += 1
        limited = runtime.on_command(cmd)
        record = runtime.last_record
        if record.violated:
            violations += 1
        step(state, limited, dt, cfg.a_mps2)

        t = state.t
        px, py = state.position
        vx, vy = state.velocity
        d_true = nearest_human_distance(state.position, humans)
        if d_true < min_distance:
            min_distance = d_true
        speed = _norm(vx, vy)

        if d_true < s_zone:
            if not in_zone:
                entries.append(ZoneEntry(t_entry_s=t))
            entry = entries[-1]
            if entry.t_compliant_s is None and speed <= compliant_speed:
                entry.t_compliant_s = t
            since_entry = t - entry.t_entry_s
            if since_entry > transient_bound_s:
                if (
                    max_speed_after_transient is None
                    or speed > max_speed_after_transient
                ):
                    max_speed_after_transient = speed
        in_zone = d_true < s_zone

        if d_true < cfg.c_m and speed > breach_speed:
            reach_margin_breaches += 1

        rows.append(
            (t, px, py, vx, vy, speed, d_true, record.cap_mps, record.cap_source)
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
        "final_position_m": list(state.position),
        "goal_switches": goal_switches,
    }
    return rows, summary


def format_trajectory_row(row: tuple, sep: str = ",") -> str:
    parts = [format(float(v), ".9g") for v in row[:8]]
    parts.append(str(row[8]))
    return sep.join(parts)


def write_trajectory(rows: list[tuple], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(TRAJECTORY_COLUMNS) + "\n")
        for row in rows:
            fh.write(format_trajectory_row(row) + "\n")


def write_trajectory_gnuplot(rows: list[tuple], path) -> None:
    """Space-separated companion table for gnuplot (`using 1:6` etc.)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# " + " ".join(TRAJECTORY_COLUMNS) + "\n")
        for row in rows:
            fh.write(format_trajectory_row(row, " ") + "\n")


def scenario_from_dict(data: dict, base_dir: Optional[Path] = None) -> SimScenario:
    """Build a scenario from its JSON form.

    The airframe profile comes either inline (``"profile": {...}``) or
    from ``"profile_path"`` resolved relative to the scenario file.  A
    ``"seed"`` key, written by older versions, is ignored: the simulation
    has no randomness.
    """
    try:
        governor = GovernorConfig.from_dict(data.get("governor", {}))
        if "profile" in data:
            profile = parse_profile(data["profile"])
        else:
            profile_path = Path(data["profile_path"])
            if base_dir is not None and not profile_path.is_absolute():
                profile_path = base_dir / profile_path
            profile = load_profile(profile_path)
        gains = data.get("gains", {})
        return SimScenario(
            name=str(data.get("name", "scenario")),
            start=tuple(float(v) for v in data["start"]),
            goals=[tuple(float(v) for v in g) for g in data["goals"]],
            humans=[tuple(float(v) for v in h) for h in data.get("humans", [])],
            cfg=governor,
            profile=profile,
            physics_dt_s=float(data.get("physics_dt_s", 0.004)),
            detection_rate_hz=float(data.get("detection_rate_hz", 10.0)),
            duration_s=float(data.get("duration_s", 30.0)),
            k_attract=float(gains.get("attract", 1.0)),
            k_repulse=float(gains.get("repulse", 2.0)),
            repulse_radius_m=float(gains.get("repulse_radius_m", 3.0)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioInvariantViolation(f"bad scenario definition: {exc}") from exc


def load_scenario(path) -> SimScenario:
    path = Path(path)
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return scenario_from_dict(data, base_dir=path.parent)


def scenario_to_dict(scenario: SimScenario) -> dict:
    """Inverse of scenario_from_dict with the profile inlined."""
    return {
        "name": scenario.name,
        "start": list(scenario.start),
        "goals": [list(g) for g in scenario.goals],
        "humans": [list(h) for h in scenario.humans],
        "physics_dt_s": scenario.physics_dt_s,
        "detection_rate_hz": scenario.detection_rate_hz,
        "duration_s": scenario.duration_s,
        "gains": {
            "attract": scenario.k_attract,
            "repulse": scenario.k_repulse,
            "repulse_radius_m": scenario.repulse_radius_m,
        },
        "governor": scenario.cfg.to_dict(),
        "profile": scenario.profile.to_dict(),
    }
