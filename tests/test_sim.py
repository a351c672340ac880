import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from impact_governor.errors import ScenarioInvariantViolation
from impact_governor.governor import GovernorConfig, VelocityCommand
from impact_governor.sim import (
    TRAJECTORY_COLUMNS,
    SimScenario,
    SimState,
    load_scenario,
    nearest_human_distance,
    potential_field_cmd,
    run_scenario,
    scenario_from_dict,
    scenario_to_dict,
    step,
    write_trajectory,
    write_trajectory_gnuplot,
)

from conftest import make_profile

REPO_ROOT = Path(__file__).resolve().parents[1]
SHIPPED = sorted((REPO_ROOT / "scenarios").glob("*.json"))


def make_scenario(**overrides):
    kwargs = dict(
        name="unit",
        start=(0.0, 0.0),
        goals=[(20.0, 0.0)],
        humans=[],
        cfg=GovernorConfig(),
        profile=make_profile(),
        duration_s=8.0,
    )
    kwargs.update(overrides)
    return SimScenario(**kwargs)


# --- scenario validation -----------------------------------------------------


@pytest.mark.parametrize(
    "overrides",
    [
        {"goals": []},
        {"physics_dt_s": 0.0},
        {"detection_rate_hz": 0.0},
        {"physics_dt_s": 0.2},  # longer than the 10 Hz detection period
        {"duration_s": -1.0},
        {"k_repulse": -0.5},
        {"cfg": GovernorConfig(staleness_timeout_s=0.05)},  # < detection period
    ],
)
def test_scenario_rejects_bad_parameters(overrides):
    with pytest.raises(ScenarioInvariantViolation):
        make_scenario(**overrides)


# --- pilot -------------------------------------------------------------------


def test_nearest_human_distance():
    pos = np.array([0.0, 0.0])
    assert nearest_human_distance(pos, []) == math.inf
    assert nearest_human_distance(pos, [(3.0, 4.0), (0.0, 9.0)]) == pytest.approx(5.0)


def test_pilot_flies_toward_goal_at_cruise():
    sc = make_scenario()
    state = SimState(position=np.zeros(2), velocity=np.zeros(2))
    cmd = potential_field_cmd(state, sc)
    assert cmd.vx == pytest.approx(8.0)
    assert cmd.vy == pytest.approx(0.0)


def test_pilot_switches_goal_on_capture():
    sc = make_scenario(goals=[(20.0, 0.0), (0.0, 0.0)])
    state = SimState(position=np.array([19.8, 0.0]), velocity=np.zeros(2))
    cmd = potential_field_cmd(state, sc)
    assert state.goal_index == 1
    assert cmd.vx < 0  # now heading back toward the origin


def test_pilot_single_goal_never_switches():
    sc = make_scenario()
    state = SimState(position=np.array([19.9, 0.0]), velocity=np.zeros(2))
    potential_field_cmd(state, sc)
    assert state.goal_index == 0


def test_pilot_repulsion_pushes_away_from_close_human():
    sc = make_scenario(humans=[(1.0, 0.0)])
    state = SimState(position=np.zeros(2), velocity=np.zeros(2))
    cmd = potential_field_cmd(state, sc)
    # repulsion from the human 1 m ahead overcomes the goal attraction
    assert cmd.vx < 0


def test_pilot_command_never_exceeds_cruise(rng):
    sc = make_scenario(humans=[(2.0, 1.0), (4.0, -1.0)])
    for _ in range(200):
        state = SimState(
            position=rng.uniform(-5, 25, size=2), velocity=np.zeros(2)
        )
        cmd = potential_field_cmd(state, sc)
        assert cmd.speed() <= sc.cfg.v_cruise_mps + 1e-9


# --- integrator --------------------------------------------------------------


def test_step_clips_acceleration():
    state = SimState(position=np.zeros(2), velocity=np.array([8.0, 0.0]))
    step(state, VelocityCommand(3.0, 0.0, 0.0, 0.0), dt=0.004, a_max=15.0)
    assert state.velocity[0] == pytest.approx(7.94)  # only a*dt = 0.06 of braking
    assert state.position[0] == pytest.approx(7.94 * 0.004)
    assert state.t == pytest.approx(0.004)


def test_step_reaches_nearby_target_exactly():
    state = SimState(position=np.zeros(2), velocity=np.array([1.0, 0.0]))
    step(state, VelocityCommand(1.02, 0.0, 0.0, 0.0), dt=0.004, a_max=15.0)
    assert state.velocity[0] == pytest.approx(1.02)


# --- closed loop -------------------------------------------------------------


def test_open_field_reaches_cruise_without_any_cap():
    rows, summary = run_scenario(make_scenario())
    assert summary["violations"] == 0
    assert summary["zone_entries"] == []
    assert summary["min_distance_m"] is None
    assert summary["max_speed_mps"] == pytest.approx(8.0, abs=1e-6)
    assert all(r[8] == "none" for r in rows)  # detections at 10 Hz stay fresh
    assert summary["goal_switches"] == 0


def test_human_on_path_keeps_speed_force_safe():
    sc = make_scenario(
        cfg=GovernorConfig(f_star_n=65.0),
        start=(4.0, 0.0),
        goals=[(20.0, 0.0)],
        humans=[(5.0, 0.0)],
    )
    rows, summary = run_scenario(sc)
    v_force = summary["v_force_mps"]
    assert v_force < 8.0
    assert summary["violations"] == 0
    assert summary["reach_margin_breaches"] == 0
    # born inside the zone: capped from the first step, so the platform
    # never gets a chance to exceed the force-safe speed at all
    assert summary["zone_entries"][0]["t_entry_s"] == 0.0
    assert summary["max_speed_mps"] <= v_force + 1e-9
    assert all(r[8] == "force" for r in rows)


def test_summary_counts_goal_switches():
    sc = make_scenario(goals=[(6.0, 0.0), (0.0, 0.0)], duration_s=10.0)
    _, summary = run_scenario(sc)
    assert summary["goal_switches"] >= 2  # shuttled there and back at least once


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
def test_shipped_scenarios_hold_the_cap(path):
    scenario = load_scenario(path)
    rows, summary = run_scenario(scenario)
    assert len(rows) == summary["steps"]
    assert summary["violations"] == 0
    assert summary["reach_margin_breaches"] == 0
    assert summary["max_speed_mps"] <= scenario.cfg.v_platform_max_mps + 1e-9
    for entry in summary["zone_entries"]:
        assert entry["time_to_compliance_s"] is not None
        assert entry["time_to_compliance_s"] <= summary["transient_bound_s"]
    after = summary["max_speed_in_zone_after_transient_mps"]
    if after is not None:
        assert after <= summary["v_force_mps"] + 1e-9


def test_face_scenario_forces_real_braking():
    scenario = load_scenario(REPO_ROOT / "scenarios" / "three_humans_face.json")
    _, summary = run_scenario(scenario)
    # the face limit caps below cruise, so zone entries need actual slowing
    assert summary["v_force_mps"] < scenario.cfg.v_cruise_mps
    assert summary["zone_entries"]
    assert summary["max_time_to_compliance_s"] > 0.0
    assert summary["min_distance_m"] > scenario.cfg.c_m


def test_runs_are_deterministic():
    scenario = load_scenario(REPO_ROOT / "scenarios" / "three_humans_face.json")
    rows_a, summary_a = run_scenario(scenario)
    rows_b, summary_b = run_scenario(load_scenario(REPO_ROOT / "scenarios" / "three_humans_face.json"))
    assert rows_a == rows_b
    assert summary_a == summary_b


# --- trajectory files --------------------------------------------------------


def test_write_trajectory_round_trips(tmp_path):
    rows, _ = run_scenario(make_scenario(duration_s=0.5))
    csv_path = tmp_path / "trajectory.csv"
    write_trajectory(rows, csv_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == ",".join(TRAJECTORY_COLUMNS)
    assert len(lines) == len(rows) + 1
    first = lines[1].split(",")
    assert float(first[0]) == pytest.approx(rows[0][0])
    assert first[8] == rows[0][8]

    dat_path = tmp_path / "trajectory.dat"
    write_trajectory_gnuplot(rows, dat_path)
    dat_lines = dat_path.read_text().splitlines()
    assert dat_lines[0].startswith("# t_s ")
    assert len(dat_lines) == len(rows) + 1
    assert len(dat_lines[1].split()) == len(TRAJECTORY_COLUMNS)


def test_gnuplot_body_is_the_csv_body_space_separated(tmp_path):
    rows, _ = run_scenario(load_scenario(REPO_ROOT / "scenarios" / "three_humans_face.json"))
    write_trajectory(rows, tmp_path / "t.csv")
    write_trajectory_gnuplot(rows, tmp_path / "t.dat")
    csv_lines = (tmp_path / "t.csv").read_text().splitlines(keepends=True)
    dat_lines = (tmp_path / "t.dat").read_text().splitlines(keepends=True)
    assert dat_lines[0] == "# " + csv_lines[0].replace(",", " ")
    assert "".join(dat_lines[1:]) == "".join(csv_lines[1:]).replace(",", " ")


# --- serialization -----------------------------------------------------------


def test_scenario_round_trip():
    sc = make_scenario(humans=[(3.0, 1.0)], k_repulse=1.5)
    back = scenario_from_dict(scenario_to_dict(sc))
    assert back.cfg == sc.cfg
    assert back.profile.to_dict() == sc.profile.to_dict()
    assert back.goals == sc.goals and back.humans == sc.humans
    assert back.k_repulse == 1.5


def test_scenario_seed_key_is_ignored():
    # older scenario files carry a "seed"; they load, and it is not written back
    data = scenario_to_dict(make_scenario())
    assert "seed" not in data
    with_seed = scenario_from_dict({**data, "seed": 11})
    assert scenario_to_dict(with_seed) == data


def test_scenario_from_dict_rejects_missing_keys():
    with pytest.raises(ScenarioInvariantViolation):
        scenario_from_dict({"name": "nope", "goals": [[1.0, 1.0]]})


def test_scenario_profile_path_resolves_relative(tmp_path):
    from impact_governor.fit import save_profile

    save_profile(make_profile(name="Rel"), tmp_path / "rel.json")
    data = scenario_to_dict(make_scenario())
    del data["profile"]
    data["profile_path"] = "rel.json"
    (tmp_path / "scenario.json").write_text(json.dumps(data))
    scenario = load_scenario(tmp_path / "scenario.json")
    assert scenario.profile.name == "Rel"


def test_shipped_scenarios_parse():
    assert len(SHIPPED) >= 2
    for path in SHIPPED:
        scenario = load_scenario(path)
        assert scenario.humans and scenario.goals
