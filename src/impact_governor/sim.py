"""Kinematic closed-loop validation of the velocity governor.

A point-mass vehicle flies a figure-eight-ish shuttle between goal
points under a simple potential-field pilot, while static "humans"
populate the field.  Range detections are produced at a slow sensor
rate and fed to the governor; every pilot command passes through the
governor before integration.  The run produces a trajectory table and a
compliance summary: this is the cheap, deterministic way to confirm the
cap logic holds in closed loop before anyone stands near a real prop.

A scenario is built once, with the command line's governor settings, and
frozen, so that its checks hold for the run.

Everything is pure kinematics on a fixed step — no randomness, no
wall-clock dependence — so two runs of the same scenario are
bit-identical.  The step runs on Python floats, with every norm taken by
the C library's ``hypot`` and every expression in the order of the
earlier numpy 2-vector code, so trajectories are also bit-identical to
that code (``tests/test_reference_equivalence.py`` keeps it as oracle).

The per-step norms are taken inline, as ``abs(complex(x, y))``: each
person's distance in ``human_distances``, the goal offset and the clip in
``potential_field_cmd``, the velocity change in ``step`` and the speed in
``run_scenario``'s loop. A Python call costs about as much as the norm. Each
site calls ``_norm`` only from ``except OverflowError``, so an overflow, a
NaN part or a sticky ``errno`` gives what ``_norm`` gives.

Each person's distance is computed once per step, after integration
(``human_distances``): the audit's nearest distance, the next detection
and the next pilot command all read those values.  The pilot, the
integrator and the nearest-distance reduction take and return plain
values, and the loop looks each up on the module at every call, so that a
wrapper set on the module attribute (``bench/tracer.py``) times its layer.

The run can hand its rows out as it goes: with a ``sink``, ``run_scenario``
passes it each block of ``ROW_BLOCK`` rows as the block fills, so another
process can write the trajectory while the loop runs (``cli.cmd_simulate``
does), and no run holds all its rows. ``write_trajectory`` formats every row
before it opens the file, so a run that fails leaves no trajectory behind.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence

from .errors import (
    ANY,
    FINITE,
    PAIR,
    REQUIRED,
    STR,
    ScenarioInvariantViolation,
    read_field,
    read_json_file,
    read_object,
    write_output,
)
from .profile import AirframeProfile, load_profile, parse_profile
from .governor import GovernorConfig, GovernorRuntime, VelocityCommand

GOAL_CAPTURE_RADIUS_M = 0.5

#: rows per block that ``run_scenario`` hands to its sink
ROW_BLOCK = 512

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


@dataclass(frozen=True)
class SimScenario:
    """Static description of one closed-loop validation run; frozen, so that
    a changed copy (``dataclasses.replace``) is checked again."""

    name: str
    start: tuple[float, float]
    goals: tuple[tuple[float, float], ...]
    humans: tuple[tuple[float, float], ...]
    cfg: GovernorConfig
    profile: AirframeProfile
    physics_dt_s: float = 0.004
    detection_rate_hz: float = 10.0
    duration_s: float = 30.0
    k_attract: float = 1.0
    k_repulse: float = 2.0
    repulse_radius_m: float = 3.0

    def __post_init__(self) -> None:
        # held as tuples, so that no goal can be removed after the check
        object.__setattr__(self, "goals", tuple(self.goals))
        object.__setattr__(self, "humans", tuple(self.humans))
        if not self.goals:
            raise ScenarioInvariantViolation("scenario needs at least one goal")
        for name in ("physics_dt_s", "detection_rate_hz", "duration_s"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ScenarioInvariantViolation(f"{name} must be finite and > 0, got {value}")
        if not self.duration_s / self.physics_dt_s < math.inf:  # the step count
            steps = f"{self.duration_s:g} / {self.physics_dt_s:g}"
            raise ScenarioInvariantViolation(f"duration_s / physics_dt_s must be finite: {steps}")
        if self.physics_dt_s >= 1.0 / self.detection_rate_hz:
            raise ScenarioInvariantViolation(
                "physics step must be shorter than the detection period"
            )
        if min(self.k_attract, self.k_repulse, self.repulse_radius_m) < 0.0:
            raise ScenarioInvariantViolation("pilot gains must be non-negative")
        if self.cfg.staleness_timeout_s < 1.0 / self.detection_rate_hz:
            raise ScenarioInvariantViolation(
                "staleness timeout shorter than the detection period would "
                "trip the failsafe between healthy detections"
            )


def _norm(x: float, y: float) -> float:
    """Euclidean norm, bit-identical to ``np.hypot``; the per-step sites take
    it inline and call this only when the inline norm raises.

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


def human_distances(
    position: tuple[float, float], humans: Sequence[tuple[float, float]]
) -> list[float]:
    """The distance from ``position`` to each human, in the order of ``humans``.

    ``hypot`` ignores signs, so |h - p| and |p - h| are the same bits: the
    pilot's repulsion uses these values as they are.
    """
    px, py = position
    distances = []
    for hx, hy in humans:
        x, y = hx - px, hy - py
        try:
            distances.append(abs(complex(x, y)))
        except OverflowError:
            distances.append(_norm(x, y))
    return distances


def nearest_human_distance(distances: Sequence[float]) -> float:
    """The smallest of ``human_distances``, inf for an empty field.

    NaN if any distance is NaN.
    """
    nearest = math.inf
    for d in distances:
        if d < nearest:
            nearest = d
        elif d != d:
            return d
    return nearest


def potential_field_cmd(
    position: tuple[float, float],
    distances: Sequence[float],
    goal_index: int,
    t: float,
    scenario: SimScenario,
) -> tuple[VelocityCommand, int]:
    """Pilot: attract to the active goal, repel from nearby humans.

    ``distances`` are the ``human_distances`` at ``position``. Reaching a
    goal (within 0.5 m) advances to the next goal so the vehicle shuttles
    back and forth; the command, stamped ``t``, is returned with the goal
    index it flew toward.  The combined desired velocity is clipped to the
    cruise speed; the governor, not the pilot, is responsible for safety.
    """
    v0 = scenario.cfg.v_cruise_mps
    goals = scenario.goals
    px, py = position
    gx, gy = goals[goal_index]
    ox, oy = gx - px, gy - py
    try:
        dist = abs(complex(ox, oy))
    except OverflowError:
        dist = _norm(ox, oy)
    if dist < GOAL_CAPTURE_RADIUS_M and len(goals) > 1:
        goal_index = (goal_index + 1) % len(goals)
        gx, gy = goals[goal_index]
        ox, oy = gx - px, gy - py
        try:
            dist = abs(complex(ox, oy))
        except OverflowError:
            dist = _norm(ox, oy)

    # starting from 0.0 turns a -0.0 component into +0.0
    dx = dy = 0.0
    if dist > 1e-12:
        dx += scenario.k_attract * (ox / dist) * v0
        dy += scenario.k_attract * (oy / dist) * v0
    k_r, radius = scenario.k_repulse, scenario.repulse_radius_m
    for (hx, hy), d_h in zip(scenario.humans, distances):
        if d_h < 1e-12 or d_h >= radius:
            continue
        weight = 1.0 - d_h / radius
        dx += k_r * ((px - hx) / d_h) * weight * v0
        dy += k_r * ((py - hy) / d_h) * weight * v0

    try:
        norm = abs(complex(dx, dy))
    except OverflowError:
        norm = _norm(dx, dy)
    if norm > v0 and norm > 0.0:
        scale = v0 / norm
        dx *= scale
        dy *= scale
    return VelocityCommand(dx, dy, 0.0, t), goal_index


def step(
    position: tuple[float, float],
    velocity: tuple[float, float],
    cmd: VelocityCommand,
    dt: float,
    a_max: float,
) -> tuple[tuple[float, float], tuple[float, float]]:
    """Semi-implicit Euler step toward the commanded velocity.

    The velocity moves toward the command, with the change clipped to
    ``a_max * dt``; the new velocity then advances the position, and both
    are returned.  E.g. from v=(8,0) commanded to (3,0) with a=15,
    dt=0.004 the step only reaches (7.94, 0).
    """
    vx, vy = velocity
    dvx, dvy = cmd.vx - vx, cmd.vy - vy
    try:
        dv_norm = abs(complex(dvx, dvy))
    except OverflowError:
        dv_norm = _norm(dvx, dvy)
    max_dv = a_max * dt
    if dv_norm > max_dv and dv_norm > 0.0:
        scale = max_dv / dv_norm
        dvx *= scale
        dvy *= scale
    vx, vy = vx + dvx, vy + dvy
    px, py = position
    return (px + vx * dt, py + vy * dt), (vx, vy)


def run_scenario(
    scenario: SimScenario, sink: Optional[Callable[[list[tuple]], object]] = None
) -> tuple[list[tuple], dict]:
    """Run the closed loop and audit it.

    Returns (trajectory rows, summary).  Rows follow
    ``TRAJECTORY_COLUMNS``; one row per physics step, logged after
    integration.  With a ``sink``, each block of ``ROW_BLOCK`` rows (the
    last one shorter) goes to ``sink`` as soon as it is complete, in order,
    and the rows returned are none.

    The summary counts governor violations (commands that
    left the runtime above the active cap — must be zero), records every
    entry into the protective zone as the dict it prints (``t_entry_s``,
    then ``t_compliant_s`` and ``time_to_compliance_s`` once the speed
    is down to v_force, else None) to hold against the reaction-window
    bound, and checks the braking-margin invariant:
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
    a_max, c_m = cfg.a_mps2, cfg.c_m
    x0, y0 = scenario.start
    position, velocity = (float(x0), float(y0)), (0.0, 0.0)
    t = 0.0
    goal_index = 0
    n_steps = int(round(scenario.duration_s / dt))
    period = 1.0 / scenario.detection_rate_hz
    next_detection_t = 0.0
    compliant_speed = v_force + 1e-9
    breach_speed = v_force + a_max * dt

    rows: list[tuple] = []
    entries: list[dict] = []
    # measured at the start and after every step: the audit, the next
    # detection and the next pilot command all use them
    distances = human_distances(position, humans)
    d_true = nearest_human_distance(distances)
    in_zone = d_true < s_zone
    if in_zone:
        entries.append({"t_entry_s": 0.0, "t_compliant_s": None, "time_to_compliance_s": None})
    violations = 0
    reach_margin_breaches = 0
    min_distance = math.inf
    # the first step's speed is never NaN (the vehicle starts at rest), so
    # this is the max() over the rows' speeds, and 0.0 for no rows
    max_speed = 0.0
    max_speed_after_transient = None
    goal_switches = 0

    for first in range(0, n_steps, ROW_BLOCK):
        for _ in range(min(ROW_BLOCK, n_steps - first)):
            if t >= next_detection_t - 1e-12:
                runtime.on_range(d_true, t)
                next_detection_t += period

            cmd, goal = potential_field_cmd(position, distances, goal_index, t, scenario)
            if goal != goal_index:
                goal_index = goal
                goal_switches += 1
            limited = runtime.on_command(cmd)
            record = runtime.last_record
            if record.violated:
                violations += 1
            position, velocity = step(position, velocity, limited, dt, a_max)
            t += dt

            px, py = position
            vx, vy = velocity
            distances = human_distances(position, humans)
            d_true = nearest_human_distance(distances)
            if d_true < min_distance:
                min_distance = d_true
            try:
                speed = abs(complex(vx, vy))
            except OverflowError:
                speed = _norm(vx, vy)
            if speed > max_speed:
                max_speed = speed

            if d_true < s_zone:
                if not in_zone:
                    entries.append(
                        {"t_entry_s": t, "t_compliant_s": None, "time_to_compliance_s": None}
                    )
                entry = entries[-1]
                if entry["t_compliant_s"] is None and speed <= compliant_speed:
                    entry["t_compliant_s"] = t
                    entry["time_to_compliance_s"] = t - entry["t_entry_s"]
                since_entry = t - entry["t_entry_s"]
                if since_entry > transient_bound_s:
                    if (
                        max_speed_after_transient is None
                        or speed > max_speed_after_transient
                    ):
                        max_speed_after_transient = speed
            in_zone = d_true < s_zone

            if d_true < c_m and speed > breach_speed:
                reach_margin_breaches += 1

            rows.append(
                (t, px, py, vx, vy, speed, d_true, record.cap_mps, record.cap_source)
            )
        if sink is not None:
            sink(rows)
            rows = []

    times_to_comply = [
        e["time_to_compliance_s"] for e in entries if e["time_to_compliance_s"] is not None
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
        "zone_entries": entries,
        "max_time_to_compliance_s": max(times_to_comply) if times_to_comply else None,
        "max_speed_in_zone_after_transient_mps": max_speed_after_transient,
        "min_distance_m": None if math.isinf(min_distance) else min_distance,
        "max_speed_mps": max_speed,
        "final_position_m": list(position),
        "goal_switches": goal_switches,
    }
    return rows, summary


def write_trajectory(rows: Iterable[tuple], path) -> None:
    """The ``TRAJECTORY_COLUMNS`` header line, then each row: eight numbers as
    ``%.9g`` and the cap source, joined by commas.

    Every row is formatted before ``path`` is opened, so an iterable that
    raises leaves the file as it was; a file that cannot be opened raises
    OutputError.
    """
    line = ",".join(["%.9g"] * 8 + ["%s"]) + "\n"
    text = "".join([",".join(TRAJECTORY_COLUMNS) + "\n", *(line % row for row in rows)])
    write_output(path, text)


#: the ``gains`` keys, each with the SimScenario field it sets
_GAIN_FIELDS = {
    "attract": "k_attract", "repulse": "k_repulse", "repulse_radius_m": "repulse_radius_m",
}
_TIMING_KEYS = ("physics_dt_s", "detection_rate_hz", "duration_s")

#: the scenario document; an absent number keeps its SimScenario field's
#: default, and ``seed``, written by older versions, is read and ignored
_SCENARIO = {
    "name": (STR, "scenario"), "start": (PAIR, REQUIRED), "goals": (ANY, REQUIRED),
    "humans": (ANY, []), "governor": (ANY, {}), "seed": (ANY, None),
    "profile": (ANY, None), "profile_path": (STR, None),
    **{key: (FINITE, getattr(SimScenario, key)) for key in _TIMING_KEYS},
    "gains": ({k: (FINITE, getattr(SimScenario, f)) for k, f in _GAIN_FIELDS.items()}, {}),
}


def scenario_from_dict(
    data: dict, settings: Optional[dict] = None, base_dir: Optional[Path] = None
) -> SimScenario:
    """Build a scenario from its JSON form, read by ``_SCENARIO``, which
    refuses a key it does not list (a misspelt ``"humans"``, say, would leave
    the field empty) as ScenarioInvariantViolation naming it.

    ``settings`` (governor keys, as ``node._governor_overrides`` gives them
    for --mode and --f-star) are laid over the ``"governor"`` object before
    its one read, so the scenario's checks see the governor that runs.  The
    airframe profile comes either inline (``"profile": {...}``) or from
    ``"profile_path"`` resolved relative to the scenario file.
    """
    where, error = "bad scenario definition", ScenarioInvariantViolation
    values = read_object(data, _SCENARIO, where, error, closed=True)
    governor = values["governor"]
    if type(governor) is dict:  # from_dict refuses anything else
        governor = {**governor, **(settings or {})}
    cfg = GovernorConfig.from_dict(governor)
    if "profile" in data:
        try:
            profile = parse_profile(values["profile"])
        except (RecursionError, ValueError) as exc:  # inline JSON text that does not decode
            raise error(f"{where}: {exc}") from exc
    elif values["profile_path"] is None:
        raise error(f"{where}: missing key 'profile' or 'profile_path'")
    else:  # an absolute path stays as it is
        profile = load_profile((base_dir or Path()) / values["profile_path"])

    def points(key: str) -> list[tuple[float, float]]:
        items = values[key]
        if type(items) is not list:
            raise error(f"{where}: {key} must be a list of [x, y] pairs, got {items!r}")
        return [read_field(p, PAIR, f"{where}: {key}[{i}]", error) for i, p in enumerate(items)]

    gains = {name: values["gains"][key] for key, name in _GAIN_FIELDS.items()}
    timing = {key: values[key] for key in _TIMING_KEYS}
    return SimScenario(
        name=values["name"], start=values["start"], goals=points("goals"),
        humans=points("humans"), cfg=cfg, profile=profile, **timing, **gains,
    )


def load_scenario(path, settings: Optional[dict] = None) -> SimScenario:
    """``scenario_from_dict`` of the UTF-8 JSON file ``path``."""
    data = read_json_file(path, ScenarioInvariantViolation)
    return scenario_from_dict(data, settings, base_dir=Path(path).parent)

