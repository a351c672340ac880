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
bit-identical.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import ScenarioInvariantViolation
from .fit import AirframeProfile, parse_profile
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
    """Mutable vehicle state advanced by the integrator."""

    position: np.ndarray
    velocity: np.ndarray
    t: float = 0.0
    goal_index: int = 0

    @property
    def speed(self) -> float:
        return float(np.hypot(self.velocity[0], self.velocity[1]))


def nearest_human_distance(
    position: np.ndarray, humans: Sequence[tuple[float, float]]
) -> float:
    """Euclidean distance to the closest human, inf for an empty field."""
    if not humans:
        return math.inf
    pts = np.asarray(humans, dtype=float)
    return float(np.min(np.hypot(pts[:, 0] - position[0], pts[:, 1] - position[1])))


def potential_field_cmd(state: SimState, scenario: SimScenario) -> VelocityCommand:
    """Pilot: attract to the active goal, repel from nearby humans.

    Reaching a goal (within 0.5 m) advances ``state.goal_index`` to the
    next goal so the vehicle shuttles back and forth.  The combined
    desired velocity is clipped to the cruise speed; the governor, not
    the pilot, is responsible for safety.
    """
    v0 = scenario.cfg.v_cruise_mps
    goal = np.asarray(scenario.goals[state.goal_index], dtype=float)
    offset = goal - state.position
    dist = float(np.hypot(offset[0], offset[1]))
    if dist < GOAL_CAPTURE_RADIUS_M and len(scenario.goals) > 1:
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


def step(
    state: SimState, cmd: VelocityCommand, dt: float, a_max: float
) -> None:
    """Semi-implicit Euler step toward the commanded velocity.

    The velocity moves toward the command, with the change clipped to
    ``a_max * dt``; the new velocity then advances the position.  E.g.
    from v=(8,0) commanded to (3,0) with a=15, dt=0.004 the step only
    reaches (7.94, 0).
    """
    target = np.array([cmd.vx, cmd.vy], dtype=float)
    dv = target - state.velocity
    dv_norm = float(np.hypot(dv[0], dv[1]))
    max_dv = a_max * dt
    if dv_norm > max_dv and dv_norm > 0.0:
        dv *= max_dv / dv_norm
    state.velocity = state.velocity + dv
    state.position = state.position + state.velocity * dt
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

    state = SimState(
        position=np.asarray(scenario.start, dtype=float),
        velocity=np.zeros(2),
    )
    n_steps = int(round(scenario.duration_s / dt))
    period = scenario.detection_period_s
    next_detection_t = 0.0

    rows: list[tuple] = []
    entries: list[ZoneEntry] = []
    in_zone = nearest_human_distance(state.position, scenario.humans) < s_zone
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
            d_detect = nearest_human_distance(state.position, scenario.humans)
            runtime.on_range(d_detect, t)
            next_detection_t += period
        runtime.on_odom(float(state.velocity[0]), float(state.velocity[1]), 0.0, t)

        idx_before = state.goal_index
        cmd = potential_field_cmd(state, scenario)
        if state.goal_index != idx_before:
            goal_switches += 1
        limited = runtime.on_command(cmd)
        record = runtime.last_record
        if record.violated:
            violations += 1
        step(state, limited, dt, cfg.a_mps2)

        d_true = nearest_human_distance(state.position, scenario.humans)
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


def format_trajectory_row(row: tuple) -> str:
    parts = [format(float(v), ".9g") for v in row[:8]]
    parts.append(str(row[8]))
    return ",".join(parts)


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
            parts = [format(float(v), ".9g") for v in row[:8]]
            parts.append(str(row[8]))
            fh.write(" ".join(parts) + "\n")


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
            with open(profile_path, "r", encoding="utf-8") as fh:
                profile = parse_profile(json.load(fh))
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
