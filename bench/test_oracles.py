"""Self-tests of the benchmark's output oracles.

Each checker must pass a hand-built correct output and must count a
failure for each kind of wrong output: a reply above its cap, a missing or
extra reply, a metric outside tolerance, an unexpected rejection, an
accepted known-bad trial, and a simulation with a violation.

    python -m pytest bench/test_oracles.py
"""

import csv
import json
import math

from oracles import (
    RECOVERED_FIELDS,
    check_analyze,
    check_govern,
    check_simulate,
    expected_caps,
    force_safe_speed,
    iso_speed,
)

PROFILE = {
    "mass_kg": 0.25,
    "dt_s": 0.036,
    "restitution": {"degree": 0, "coeffs": [0.146]},
}


# --- govern --------------------------------------------------------------------


def _trace():
    msgs = [
        {"type": "range", "d_m": 20.0, "t_s": 0.00},
        {"type": "cmd", "vx": 10.0, "vy": 0.0, "vz": 0.0, "t_s": 0.02},
        {"type": "odom", "vx": 9.0, "vy": 0.0, "vz": 0.0, "t_s": 0.03},
        {"type": "range", "d_m": 5.0, "t_s": 0.05},
        {"type": "cmd", "vx": 6.0, "vy": 8.0, "vz": 0.0, "t_s": 0.07},
        {"type": "range", "d_m": 8.0, "t_s": 0.10},
        {"type": "cmd", "vx": 0.0, "vy": 9.0, "vz": 0.0, "t_s": 0.12},
        {"type": "cmd", "vx": 1.0, "vy": 1.0, "vz": 0.0, "t_s": 0.50},
    ]
    return [json.dumps(m) for m in msgs]


def _replies(expected):
    lines = []
    for t, v, cap, source, _ in expected:
        speed = math.sqrt(sum(c * c for c in v))
        s = 1.0 if speed <= cap else cap / speed
        lines.append(json.dumps({"type": "cmd_limited", "vx": v[0] * s, "vy": v[1] * s,
                                 "vz": v[2] * s, "cap_mps": cap, "source": source, "t_s": t}))
    return lines


def _v_force():
    return force_safe_speed(65.0, PROFILE, 20.0)


def test_closed_form_caps():
    assert abs(_v_force() - 6.77) < 0.01
    d = 7.0
    v = iso_speed(d)
    assert abs(1.5 * v * v / 15.0 + 0.1 * v + 1.2 - d) < 1e-12
    expected = expected_caps(_trace(), _v_force())
    assert [e[3] for e in expected] == ["none", "force", "iso", "stale-failsafe"]


def test_govern_accepts_correct_replies():
    expected = expected_caps(_trace(), _v_force())
    chk = check_govern(expected, "\n".join(_replies(expected)).encode(), _v_force())
    assert (chk.attempted, chk.failed) == (4, 0), chk.failures


def test_govern_counts_reply_above_cap():
    expected = expected_caps(_trace(), _v_force())
    lines = _replies(expected)
    reply = json.loads(lines[1])
    reply["vy"] *= 1.5
    lines[1] = json.dumps(reply)
    chk = check_govern(expected, "\n".join(lines).encode(), _v_force())
    assert chk.failed == 1 and chk.failures[0][0] == "cmd 1"


def test_govern_counts_missing_and_extra_replies():
    expected = expected_caps(_trace(), _v_force())
    lines = _replies(expected)
    chk = check_govern(expected, "\n".join(lines[:-1]).encode(), _v_force())
    assert chk.failed == 1 and chk.failures[0] == ("cmd 3", "no reply")
    chk = check_govern(expected, "\n".join(lines + lines[-1:]).encode(), _v_force())
    assert chk.failed == 1 and chk.attempted == 5


def test_govern_counts_wrong_source_and_cap():
    expected = expected_caps(_trace(), _v_force())
    lines = _replies(expected)
    reply = json.loads(lines[3])
    reply["source"], reply["cap_mps"] = "none", 20.0
    lines[3] = json.dumps(reply)
    chk = check_govern(expected, "\n".join(lines).encode(), _v_force())
    assert chk.failed == 1 and len(chk.failures) == 2


# --- analyze -------------------------------------------------------------------


def _truth():
    def trial(f_max, dt, j, ec_r, reject=False):
        return {"configuration": "C", "nominal_speed_mps": 3.0, "mass_kg": 0.25,
                "expect_reject": reject, "v_in_mps": 3.0,
                "f_max_n": f_max, "dt_j_s": dt, "j_ns": j, "ec_r": ec_r}

    return {
        "trial_000.json": trial(100.0, 0.030, 0.85, 0.15),
        "trial_001.json": trial(104.0, 0.032, 0.87, 0.16),
        "trial_002.json": trial(1.0, 1.0, 1.0, 1.0, reject=True),
    }


def _write_outputs(out, truth, scale=None):
    accepted = [n for n in sorted(truth) if not truth[n]["expect_reject"]]
    with open(out / "metrics.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(("configuration",) + RECOVERED_FIELDS)
        for n in accepted:
            row = [truth[n][f] * (scale or {}).get((n, f), 1.0) for f in RECOVERED_FIELDS]
            w.writerow([truth[n]["configuration"]] + row)
    members = [truth[n] for n in accepted]
    means = {f: sum(t[f] for t in members) / len(members)
             for f in RECOVERED_FIELDS + ("v_in_mps",)}
    (out / "summary_C_v3.json").write_text(json.dumps({
        "configuration": "C", "n": len(members),
        "metrics": {f: {"mean": m} for f, m in means.items()},
    }))
    (out / "profile_C.json").write_text(json.dumps({
        "mass_kg": 0.25, "dt_s": means["dt_j_s"],
        "restitution": {"degree": 0, "coeffs": [means["ec_r"]]},
    }))


def test_analyze_accepts_correct_batch(tmp_path):
    truth = _truth()
    _write_outputs(tmp_path, truth)
    chk = check_analyze(tmp_path, truth, 2, "error: trial_002.json: too slow\n")
    assert (chk.attempted, chk.failed) == (5, 0), chk.failures


def test_analyze_counts_metric_outside_tolerance(tmp_path):
    truth = _truth()
    _write_outputs(tmp_path, truth, scale={("trial_001.json", "ec_r"): 1.06})
    chk = check_analyze(tmp_path, truth, 2, "error: trial_002.json: too slow\n")
    assert {op for op, _ in chk.failures} == {"trial_001.json"}


def test_analyze_counts_unexpected_rejection(tmp_path):
    truth = _truth()
    _write_outputs(tmp_path, truth)
    stderr = "error: trial_001.json: boom\nerror: trial_002.json: too slow\n"
    chk = check_analyze(tmp_path, truth, 2, stderr)
    assert "trial_001.json" in {op for op, _ in chk.failures}


def test_analyze_counts_accepted_known_bad_trial(tmp_path):
    truth = _truth()
    _write_outputs(tmp_path, truth)
    chk = check_analyze(tmp_path, truth, 0, "")
    assert "trial_002.json" in {op for op, _ in chk.failures}


# --- simulate ------------------------------------------------------------------

SCENARIO = {
    "humans": [[10.0, 0.0]],
    "physics_dt_s": 0.004,
    "duration_s": 0.008,
    "governor": {"f_star_n": 65.0, "v_platform_max_mps": 12.0, "a_mps2": 15.0, "c_m": 1.2},
}


def _write_sim(out, violations=0, x_last=8.0, speed_last=4.0):
    (out / "summary.json").write_text(json.dumps(
        {"violations": violations, "reach_margin_breaches": 0, "steps": 2}))
    cols = ("t_s", "x_m", "y_m", "vx_mps", "vy_mps", "speed_mps", "nearest_d_m", "cap_mps")
    rows = [(0.004, 4.0, 0.0, 4.0, 0.0, 4.0, 6.0, 12.0),
            (0.008, x_last, 0.0, speed_last, 0.0, speed_last, 10.0 - x_last, 12.0)]
    with open(out / "trajectory.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(cols + ("cap_source",))
        for r in rows:
            w.writerow(r + ("none",))


def test_simulate_accepts_clean_run(tmp_path):
    _write_sim(tmp_path)
    chk = check_simulate(tmp_path, "s", SCENARIO, PROFILE, 0)
    assert (chk.attempted, chk.failed) == (1, 0), chk.failures


def test_simulate_counts_violation_and_reach_breach(tmp_path):
    _write_sim(tmp_path, violations=1)
    assert check_simulate(tmp_path, "s", SCENARIO, PROFILE, 0).failed == 1
    _write_sim(tmp_path, x_last=9.5, speed_last=11.0)
    chk = check_simulate(tmp_path, "s", SCENARIO, PROFILE, 0)
    assert chk.failed == 1 and "reach margin" in chk.failures[0][1]
