import dataclasses
import json
import math
from pathlib import Path

import pytest

from impact_governor import sim
from impact_governor.errors import PAIR, GovernorConfigError, ScenarioInvariantViolation
from impact_governor.governor import GovernorConfig, VelocityCommand
from impact_governor.sim import (
    TRAJECTORY_COLUMNS,
    SimScenario,
    human_distances,
    load_scenario,
    nearest_human_distance,
    potential_field_cmd,
    run_scenario,
    scenario_from_dict,
    step,
    write_trajectory,
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


def scenario_to_dict(scenario: SimScenario) -> dict:
    """The JSON form of a scenario, profile inlined: what scenario_from_dict reads."""
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


# --- scenario validation -----------------------------------------------------


@pytest.mark.parametrize(
    "overrides",
    [
        {"goals": []},
        {"physics_dt_s": 0.0},
        {"detection_rate_hz": 0.0},
        {"physics_dt_s": 0.2},  # longer than the 10 Hz detection period
        {"duration_s": -1.0},
        {"physics_dt_s": math.nan},
        {"detection_rate_hz": math.nan},
        {"duration_s": math.inf},  # no step count
        # finite, but their step count is not: int() of it raised OverflowError
        {"duration_s": 1e308},
        {"physics_dt_s": 5e-324},
        {"k_repulse": -0.5},
        {"cfg": GovernorConfig(staleness_timeout_s=0.05)},  # < detection period
    ],
)
def test_scenario_rejects_bad_parameters(overrides):
    with pytest.raises(ScenarioInvariantViolation):
        make_scenario(**overrides)


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(SimScenario)])
def test_scenario_fields_cannot_be_assigned(field):
    # the checks of __post_init__ hold for the scenario that runs
    scenario = make_scenario()
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(scenario, field, getattr(scenario, field))


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(GovernorConfig)])
def test_scenario_governor_config_fields_cannot_be_assigned(field):
    # a staleness timeout set below the detection period after the scenario's
    # check would have the run spend most of its steps on the failsafe
    scenario = load_scenario(REPO_ROOT / "scenarios" / "three_humans_face.json")
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(scenario.cfg, field, getattr(scenario.cfg, field))
    assert dataclasses.replace(scenario.cfg, mode="ramp").mode == "ramp"


def test_goals_and_humans_are_tuples_that_cannot_be_emptied():
    # clearing a list of goals would get round the "at least one goal" check
    loaded = load_scenario(REPO_ROOT / "scenarios" / "three_humans_chest.json")
    built = make_scenario(goals=[(20.0, 0.0)], humans=[(3.0, 1.0)])
    for scenario in (loaded, built):
        assert type(scenario.goals) is tuple and type(scenario.humans) is tuple
        with pytest.raises(AttributeError):
            scenario.goals.clear()
    assert (built.goals, built.humans) == (((20.0, 0.0),), ((3.0, 1.0),))


def test_a_changed_copy_of_a_scenario_is_checked_again():
    with pytest.raises(ScenarioInvariantViolation, match="staleness timeout"):
        dataclasses.replace(make_scenario(), cfg=GovernorConfig(staleness_timeout_s=0.05))


# --- pilot -------------------------------------------------------------------


def test_nearest_human_distance():
    pos = (0.0, 0.0)
    assert human_distances(pos, []) == []
    assert nearest_human_distance([]) == math.inf
    distances = human_distances(pos, [(3.0, 4.0), (0.0, 9.0)])
    assert distances == [5.0, 9.0]
    assert nearest_human_distance(distances) == 5.0


def pilot(sc, position, goal_index=0):
    """The pilot's command and goal index at ``position``, time 0."""
    return potential_field_cmd(
        position, human_distances(position, sc.humans), goal_index, 0.0, sc
    )


def test_pilot_flies_toward_goal_at_cruise():
    cmd, _ = pilot(make_scenario(), (0.0, 0.0))
    assert cmd.vx == pytest.approx(8.0)
    assert cmd.vy == pytest.approx(0.0)


def test_pilot_switches_goal_on_capture():
    sc = make_scenario(goals=[(20.0, 0.0), (0.0, 0.0)])
    cmd, goal_index = pilot(sc, (19.8, 0.0))
    assert goal_index == 1
    assert cmd.vx < 0  # now heading back toward the origin


def test_pilot_single_goal_never_switches():
    _, goal_index = pilot(make_scenario(), (19.9, 0.0))
    assert goal_index == 0


def test_pilot_repulsion_pushes_away_from_close_human():
    cmd, _ = pilot(make_scenario(humans=[(1.0, 0.0)]), (0.0, 0.0))
    # repulsion from the human 1 m ahead overcomes the goal attraction
    assert cmd.vx < 0


def test_pilot_command_never_exceeds_cruise(rng):
    sc = make_scenario(humans=[(2.0, 1.0), (4.0, -1.0)])
    for _ in range(200):
        cmd, _ = pilot(sc, tuple(rng.uniform(-5, 25, size=2).tolist()))
        assert cmd.speed() <= sc.cfg.v_cruise_mps + 1e-9


# --- integrator --------------------------------------------------------------


def test_step_clips_acceleration():
    position, velocity = step((0.0, 0.0), (8.0, 0.0), VelocityCommand(3.0, 0.0, 0.0, 0.0),
                              dt=0.004, a_max=15.0)
    assert velocity[0] == pytest.approx(7.94)  # only a*dt = 0.06 of braking
    assert position[0] == pytest.approx(7.94 * 0.004)


def test_step_reaches_nearby_target_exactly():
    _, velocity = step((0.0, 0.0), (1.0, 0.0), VelocityCommand(1.02, 0.0, 0.0, 0.0),
                       dt=0.004, a_max=15.0)
    assert velocity[0] == pytest.approx(1.02)


def test_each_inline_norm_falls_back_to_norm_where_it_overflows():
    big = 1.5e308  # finite, but the norm of (big, big) overflows to inf
    # a goal offset of infinite norm captures no goal, and an infinite gain
    # turns its zero direction into NaN; before and after a capture
    for position, goals, want_goal in [((-big / 2, -big / 2), [(big / 2, big / 2), (0.0, 0.0)], 0),
                                       ((0.0, 0.0), [(0.0, 0.0), (big, big)], 1)]:
        pilot = make_scenario(goals=goals, k_attract=math.inf)
        cmd, goal = potential_field_cmd(position, [], 0, 0.0, pilot)
        assert goal == want_goal and math.isnan(cmd.vx) and math.isnan(cmd.vy)
    # a desired velocity of infinite norm is clipped to nothing
    cmd, _ = potential_field_cmd((0.0, 0.0), [], 0, 0.0, make_scenario(goals=[(1.0, 1.0)],
                                                                      k_attract=2.65e307))
    assert (cmd.vx, cmd.vy) == (0.0, 0.0)
    # so is a velocity change of infinite norm
    _, velocity = step((0.0, 0.0), (0.0, 0.0), VelocityCommand(big, big, 0.0, 0.0), 0.004, 15.0)
    assert velocity == (0.0, 0.0)
    # the overflow leaves errno set, and CPython reports the next NaN norm as
    # an overflow too: it is still NaN
    inf, nan = human_distances((big, 0.0), [(0.0, big), (0.0, math.nan)])
    assert inf == math.inf and math.isnan(nan)


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


def test_distances_are_measured_once_per_position(monkeypatch):
    # the audit, a detection and the pilot share the distances measured at
    # their position
    calls = {"human_distances": 0, "nearest_human_distance": 0}

    def counted(name):
        real = getattr(sim, name)

        def call(*args):
            calls[name] += 1
            return real(*args)

        return call

    for name in calls:
        monkeypatch.setattr(sim, name, counted(name))
    _, summary = run_scenario(load_scenario(REPO_ROOT / "scenarios" / "three_humans_chest.json"))
    assert calls == dict.fromkeys(calls, summary["steps"] + 1)


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


def test_write_trajectory_formats_every_row_before_it_touches_the_file(tmp_path):
    csv_path = tmp_path / "trajectory.csv"
    csv_path.write_text("an earlier run\n")

    def rows():
        yield (0.0,) * 8 + ("none",)
        raise RuntimeError("the loop broke")

    with pytest.raises(RuntimeError, match="^the loop broke$"):
        write_trajectory(rows(), csv_path)
    assert csv_path.read_text() == "an earlier run\n"


def test_a_sink_gets_every_row_in_blocks_and_the_summary_is_the_same():
    scenario = load_scenario(REPO_ROOT / "scenarios" / "three_humans_chest.json")
    rows, summary = run_scenario(scenario)
    blocks = []
    assert run_scenario(scenario, blocks.append) == ([], summary)
    full, last = divmod(len(rows), sim.ROW_BLOCK)
    assert last and [len(b) for b in blocks] == [sim.ROW_BLOCK] * full + [last]
    assert [row for block in blocks for row in block] == rows


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


def test_load_scenario_lays_settings_over_the_files_governor():
    # the same bits as a scenario whose config was swapped after loading
    path = REPO_ROOT / "scenarios" / "three_humans_chest.json"
    loaded = load_scenario(path)
    swapped = dataclasses.replace(loaded, cfg=dataclasses.replace(loaded.cfg, mode="ramp"))
    ramp = load_scenario(path, {"mode": "ramp"})
    assert (ramp.cfg.mode, loaded.cfg.mode) == ("ramp", "binary")
    assert ramp == swapped
    assert json.dumps(run_scenario(ramp)) == json.dumps(run_scenario(swapped))


def test_settings_do_not_make_a_governor_that_is_no_object_valid():
    data = {**scenario_to_dict(make_scenario()), "governor": [["mode", "ramp"]]}
    with pytest.raises(
        GovernorConfigError, match="^bad governor config: expected a JSON object, got list$"
    ):
        scenario_from_dict(data, {"mode": "ramp"})


def test_scenario_from_dict_rejects_missing_keys():
    with pytest.raises(ScenarioInvariantViolation):
        scenario_from_dict({"name": "nope", "goals": [[1.0, 1.0]]})


def _edited(**values):
    data = scenario_to_dict(make_scenario(humans=[(3.0, 1.0)]))
    return {**data, **values}


@pytest.mark.parametrize(
    "data, field",
    [
        ([_edited()], "expected a JSON object, got list"),
        (_edited(gains=[1.0, 2.0, 3.0]), "gains must be a JSON object"),
        (_edited(physics_dt_s=math.nan), "physics_dt_s must be a finite number, got nan"),
        (_edited(duration_s=math.inf), "duration_s must be a finite number, got inf"),
        (_edited(detection_rate_hz=math.nan),
         "detection_rate_hz must be a finite number, got nan"),
        (_edited(humans=[[3.0, 1.0, 0.0]]), f"humans[0] must be {PAIR}, got [3.0, 1.0, 0.0]"),
        (_edited(goals=[[20.0, 0.0], [1.0]]), f"goals[1] must be {PAIR}, got [1.0]"),
        (_edited(start=[math.nan, 0.0]), "start must be a finite number, got nan"),
        (_edited(goals=[[math.inf, 0.0]]), "goals[0] must be a finite number, got inf"),
        (_edited(gains={"repulse": math.nan}), "gains.repulse must be a finite number, got nan"),
        (_edited(duration_s=True), "duration_s must be a finite number, got True"),
        (_edited(gains={"attract": "1.0"}), "gains.attract must be a finite number, got '1.0'"),
        (_edited(humans=[[3.0, 10**400]]), "humans[0] must be a finite number, got 1000"),
        # str() named these scenarios "['x']" and "7"
        (_edited(name=["x"]), "name must be a string, got ['x']"),
        (_edited(name=7), "name must be a string, got 7"),
        # an inline profile given as JSON text is decoded as such
        (_edited(profile="[" * 200_000), "maximum recursion depth exceeded"),
        # a key read nowhere would leave its field at the default: refused
        (_edited(humams=[[3.0, 1.0]]), "unknown key 'humams'"),
        (_edited(duration=10.0), "unknown key 'duration'"),
        (_edited(gains={"atract": 1.0}), "unknown key 'gains.atract'"),
        (_edited(duration=10.0, gains={"atract": 1.0}), "unknown key 'duration'"),
    ],
    ids=["list", "gains-list", "nan-step", "infinite-duration", "nan-rate", "human-3d",
         "goal-1d", "nan-start", "infinite-goal", "nan-gain", "bool-duration", "string-gain",
         "huge-int-human", "list-name", "int-name", "deep-profile-text", "misspelt-humans",
         "duration-without-unit", "misspelt-gain", "unknown-keys-together"],
)
def test_scenario_from_dict_fails_closed(data, field):
    with pytest.raises(ScenarioInvariantViolation) as exc:
        scenario_from_dict(data)
    assert str(exc.value).startswith(f"bad scenario definition: {field}")


def test_scenario_from_dict_leaves_absent_numbers_at_their_defaults():
    data = scenario_to_dict(make_scenario())
    for key in ("physics_dt_s", "detection_rate_hz", "duration_s", "gains"):
        del data[key]
    scenario = scenario_from_dict(data)
    defaults = {f.name: f.default for f in dataclasses.fields(SimScenario)
                if f.default is not dataclasses.MISSING}
    assert {name: getattr(scenario, name) for name in defaults} == defaults


def test_scenario_profile_path_resolves_relative(tmp_path):
    from impact_governor.profile import save_profile

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
