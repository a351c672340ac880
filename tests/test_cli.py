import csv
import hashlib
import io
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from impact_governor.cli import (
    METRICS_CSV_COLUMNS,
    _metrics_from_row,
    _metrics_row,
    main,
)
from impact_governor.errors import ProtocolError
from impact_governor.fit import load_profile, save_profile
from impact_governor.impact import ImpactMetrics, aggregate_configuration
from impact_governor.synthetic import make_campaign

from conftest import child_env, make_profile

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def campaign_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("campaign")
    make_campaign(out, speeds=(3.0, 3.5, 4.0), trials_per_speed=2, seed=5)
    return out


@pytest.fixture(scope="module")
def analyzed_dir(campaign_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("analyzed")
    assert main(["analyze", str(campaign_dir), "--out", str(out)]) == 0
    return out


# --- plumbing ----------------------------------------------------------------


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip()


def test_metrics_csv_row_round_trip():
    m = ImpactMetrics(
        configuration="Foo-0deg", mass_kg=0.25, angle_deg=0.0, v_in_mps=3.2,
        f_max_n=101.5, dt_j_s=0.0312, j_ns=1.07, ec_i_j=1.28, ec_r=0.14,
        v_f_mps=1.2, e_hat=0.375, v_f_impulse_mps=1.1,
        flags=["short-rebound-window"],
    )
    row = dict(zip(METRICS_CSV_COLUMNS, _metrics_row(m)))
    back = _metrics_from_row(row)
    assert back.configuration == m.configuration
    assert back.flags == m.flags
    assert back.v_in_mps == pytest.approx(m.v_in_mps, rel=1e-8)
    assert back.ec_r == pytest.approx(m.ec_r, rel=1e-8)


# --- analyze -----------------------------------------------------------------


def test_analyze_products(analyzed_dir):
    rows = list(csv.DictReader(open(analyzed_dir / "metrics.csv")))
    assert len(rows) == 6
    assert all(r["configuration"] == "Carbon-0deg" for r in rows)
    for r in rows:
        assert 0.0 < float(r["ec_r"]) < 1.0
        assert float(r["f_max_n"]) > 6.0

    summaries = sorted(analyzed_dir.glob("summary_*.json"))
    assert len(summaries) == 3  # one aggregate per nominal speed
    data = json.loads(summaries[0].read_text())
    assert data["n"] == 2

    manifest = json.loads((analyzed_dir / "run_manifest.json").read_text())
    assert manifest["subcommand"] == "analyze"
    assert "metrics.csv" in manifest["outputs"]
    assert len(manifest["inputs"]) == 6


def test_analyze_rejects_bad_input(tmp_path):
    assert main(["analyze", str(tmp_path / "nope"), "--out", str(tmp_path / "o")]) == 2
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["analyze", str(empty), "--out", str(tmp_path / "o2")]) == 2


def _set_cell(path, row, col, value):
    """Overwrite one cell of a stream CSV (row 0 is the header)."""
    lines = path.read_text().splitlines(keepends=True)
    cells = lines[row].rstrip("\n").split(",")
    cells[col] = value
    lines[row] = ",".join(cells) + "\n"
    path.write_text("".join(lines))


@pytest.mark.parametrize(
    "stream, col, value, why",
    [
        ("force", 2, "abc", "is not all numbers"),  # non-numeric force cell
        ("range", 1, "nan", "non-finite sample"),  # range reading after contact
    ],
)
def test_analyze_rejects_only_the_malformed_trial(tmp_path, capsys, stream, col, value, why):
    campaign = tmp_path / "campaign"
    make_campaign(campaign, speeds=(3.0, 3.5), trials_per_speed=2, seed=5)
    _set_cell(campaign / f"trial_001_{stream}.csv", 730, col, value)
    out = tmp_path / "out"

    assert main(["analyze", str(campaign), "--out", str(out)]) == 2

    err = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("error:")]
    assert len(err) == 1
    assert err[0].startswith(f"error: trial_001.json: {campaign / f'trial_001_{stream}.csv'} row 731")
    assert why in err[0]
    rows = list(csv.DictReader(open(out / "metrics.csv")))
    assert len(rows) == 3
    assert all(math.isfinite(float(r["ec_r"])) for r in rows)
    assert [p.name for p in sorted(out.glob("summary_*.json"))] == [
        "summary_Carbon-0deg_v3.5.json"
    ]


def _run_module(*argv):
    """Run ``python -m impact_governor`` in a fresh interpreter."""
    return subprocess.run(
        [sys.executable, "-m", "impact_governor", *argv],
        capture_output=True, text=True, env=child_env(), timeout=120,
    )


def test_analyze_reports_each_failure_once(tmp_path):
    campaign = tmp_path / "campaign"
    make_campaign(campaign, speeds=(3.0, 3.5), trials_per_speed=2, seed=5)
    _set_cell(campaign / "trial_001_force.csv", 730, 2, "abc")

    proc = _run_module("analyze", str(campaign), "--out", str(tmp_path / "out"))
    assert proc.returncode == 2
    named = [ln for ln in proc.stderr.splitlines() if "trial_001.json" in ln]
    assert len(named) == 1 and named[0].startswith("error: trial_001.json: ")

    proc = _run_module("analyze", str(tmp_path / "nope"), "--out", str(tmp_path / "o2"))
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [f"error: not a directory: {tmp_path / 'nope'}"]


# --- fit ---------------------------------------------------------------------


def test_fit_from_analyze_products(analyzed_dir, tmp_path):
    summaries = [str(p) for p in sorted(analyzed_dir.glob("summary_*.json"))]
    out = tmp_path / "fit"
    assert main(["fit", *summaries, "--out", str(out)]) == 0
    profile = load_profile(out / "profile_Carbon-0deg.json")
    assert profile.restitution.degree == 2
    assert not profile.downgraded
    assert 2.8 < profile.restitution.domain[0] < profile.restitution.domain[1] < 4.2
    # recovers the campaign's seeded retained-energy curve reasonably well
    truth = lambda v: 0.10 + 0.02 * v - 0.001 * v**2
    for v in (3.0, 3.5, 4.0):
        assert profile.retained_energy_at(v) == pytest.approx(truth(v), abs=0.02)
    assert (out / "run_manifest.json").exists()


def _summary_dict(v, ec_r):
    def metric():
        return ImpactMetrics(
            configuration="Bad", mass_kg=0.25, angle_deg=0.0, v_in_mps=v,
            f_max_n=100.0, dt_j_s=0.03, j_ns=1.0, ec_i_j=1.0, ec_r=ec_r,
            v_f_mps=math.sqrt(ec_r) * v, e_hat=math.sqrt(ec_r),
            v_f_impulse_mps=0.0,
        )

    return aggregate_configuration([metric(), metric()]).to_dict()


def test_fit_unphysical_model_exits_invariant(tmp_path):
    paths = []
    for v, ec in ((3.0, 0.10), (3.9, 0.02), (4.0, 0.30)):
        p = tmp_path / f"s{v}.json"
        p.write_text(json.dumps(_summary_dict(v, ec)))
        paths.append(str(p))
    assert main(["fit", *paths, "--out", str(tmp_path / "out")]) == 4


def test_fit_missing_file_exits_input_error(tmp_path):
    assert main(["fit", str(tmp_path / "ghost.json"), "--out", str(tmp_path)]) == 2


# --- govern ------------------------------------------------------------------


@pytest.fixture
def profile_path(tmp_path):
    path = tmp_path / "profile.json"
    save_profile(make_profile(), path)
    return path


def _govern_stdin(monkeypatch, capsys, messages, extra_args=(), out=None):
    text = "".join(json.dumps(m) + "\n" for m in messages)
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code = main(["govern", "--stdin", *extra_args, "--out", str(out)])
    return code, capsys.readouterr().out


def test_govern_stdin_caps_and_logs(monkeypatch, capsys, tmp_path, profile_path):
    out = tmp_path / "gov"
    code, stdout = _govern_stdin(
        monkeypatch, capsys,
        [
            {"type": "range", "d_m": 4.0, "t_s": 0.0},
            {"type": "cmd", "vx": 20.0, "vy": 0.0, "vz": 0.0, "t_s": 0.1},
        ],
        extra_args=["--profile", str(profile_path)],
        out=out,
    )
    assert code == 0
    reply = json.loads(stdout.splitlines()[0])
    assert reply["source"] == "force"
    assert reply["cap_mps"] == pytest.approx(14.5876, abs=1e-3)

    compliance = (out / "compliance.csv").read_text().splitlines()
    assert len(compliance) == 2
    assert compliance[1].split(",")[6] == "force"
    assert json.loads((out / "run_manifest.json").read_text())["subcommand"] == "govern"


def test_govern_body_region_override(monkeypatch, capsys, tmp_path, profile_path):
    code, stdout = _govern_stdin(
        monkeypatch, capsys,
        [
            {"type": "range", "d_m": 4.0, "t_s": 0.0},
            {"type": "cmd", "vx": 20.0, "vy": 0.0, "vz": 0.0, "t_s": 0.1},
        ],
        extra_args=["--profile", str(profile_path), "--body-region", "face"],
        out=tmp_path / "gov",
    )
    assert code == 0
    reply = json.loads(stdout.splitlines()[0])
    assert reply["cap_mps"] == pytest.approx(65.0 * 0.036 / (0.25 * 1.382), abs=1e-3)


def test_govern_config_file_with_cli_precedence(
    monkeypatch, capsys, tmp_path, profile_path
):
    config = tmp_path / "governor.json"
    config.write_text(
        json.dumps(
            {
                "body_region": "face",
                "profile": profile_path.name,  # resolved next to the config
                "compliance_log": "audit.csv",
                "mode": "binary",
            }
        )
    )
    msgs = [
        {"type": "range", "d_m": 4.0, "t_s": 0.0},
        {"type": "cmd", "vx": 20.0, "vy": 0.0, "vz": 0.0, "t_s": 0.1},
    ]
    code, stdout = _govern_stdin(
        monkeypatch, capsys, msgs,
        extra_args=["--config", str(config)], out=tmp_path / "g1",
    )
    assert code == 0
    assert json.loads(stdout.splitlines()[0])["cap_mps"] == pytest.approx(6.77, abs=0.01)
    assert (tmp_path / "audit.csv").exists()  # compliance_log from the config

    # --f-star outranks the config's body region
    code, stdout = _govern_stdin(
        monkeypatch, capsys, msgs,
        extra_args=["--config", str(config), "--f-star", "140"],
        out=tmp_path / "g2",
    )
    assert code == 0
    assert json.loads(stdout.splitlines()[0])["cap_mps"] == pytest.approx(14.59, abs=0.01)


def test_govern_caps_finite_huge_command_and_odometry(monkeypatch, capsys, tmp_path, profile_path):
    out = tmp_path / "gov"
    code, stdout = _govern_stdin(
        monkeypatch, capsys,
        [
            {"type": "range", "d_m": 5.0, "t_s": 0.0},
            {"type": "odom", "vx": 1e200, "vy": 0.0, "vz": 0.0, "t_s": 0.0},
            {"type": "cmd", "vx": 1e200, "vy": -1e200, "vz": 0.0, "t_s": 0.01},
        ],
        extra_args=["--profile", str(profile_path)],
        out=out,
    )
    assert code == 0
    reply = json.loads(stdout.splitlines()[0])
    assert math.hypot(reply["vx"], reply["vy"], reply["vz"]) <= reply["cap_mps"] + 1e-9
    assert reply["vx"] == -reply["vy"] > 0  # direction kept
    row = (out / "compliance.csv").read_text().splitlines()[1].split(",")
    assert row[1] == "1.41421356e+200" and row[4] == "inf" and row[7] == "false"


def test_govern_malformed_stream_exits_protocol(
    monkeypatch, capsys, tmp_path, profile_path
):
    monkeypatch.setattr("sys.stdin", io.StringIO("{not json\n"))
    code = main(
        ["govern", "--stdin", "--profile", str(profile_path), "--out", str(tmp_path)]
    )
    assert code == 3
    assert json.loads(capsys.readouterr().out.splitlines()[0])["type"] == "error"


def test_govern_non_finite_reading_exits_protocol(
    monkeypatch, capsys, tmp_path, profile_path
):
    stream = '{"type":"range","d_m":NaN,"t_s":0}\n{"type":"cmd","vx":1,"vy":0,"vz":0,"t_s":0}\n'
    monkeypatch.setattr("sys.stdin", io.StringIO(stream))
    code = main(
        ["govern", "--stdin", "--profile", str(profile_path), "--out", str(tmp_path)]
    )
    assert code == 3
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    reply = json.loads(lines[0])
    assert reply["type"] == "error" and "NaN" in reply["message"]


def test_govern_requires_profile(monkeypatch, tmp_path):
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    assert main(["govern", "--stdin", "--out", str(tmp_path)]) == 2


def _case_protocol(tmp_path, monkeypatch):
    def broken_transport(*args, **kwargs):
        raise ProtocolError("stream framing lost")

    monkeypatch.setattr("impact_governor.cli.run_stream", broken_transport)
    save_profile(make_profile(), tmp_path / "p.json")
    return ["govern", "--stdin", "--profile", str(tmp_path / "p.json")]


def _case_unphysical_fit(tmp_path, monkeypatch):
    paths = []
    for v, ec in ((3.0, 0.10), (3.9, 0.02), (4.0, 0.30)):
        p = tmp_path / f"s{v}.json"
        p.write_text(json.dumps(_summary_dict(v, ec)))
        paths.append(str(p))
    return ["fit", *paths]


def _case_config_not_object(tmp_path, monkeypatch):
    (tmp_path / "gov.json").write_text("[1, 2]")
    return ["govern", "--stdin", "--config", str(tmp_path / "gov.json")]


def _case_unknown_body_region(tmp_path, monkeypatch):
    (tmp_path / "gov.json").write_text(json.dumps({"body_region": "elbow"}))
    return ["govern", "--stdin", "--config", str(tmp_path / "gov.json")]


def _case_no_profile(tmp_path, monkeypatch):
    return ["govern", "--stdin"]


def _case_profile_out_of_range(tmp_path, monkeypatch):
    save_profile(make_profile(), tmp_path / "p.json")
    data = json.loads((tmp_path / "p.json").read_text())
    data["restitution"]["coeffs"] = [1.5]
    (tmp_path / "p.json").write_text(json.dumps(data))
    return ["govern", "--stdin", "--profile", str(tmp_path / "p.json")]


def _case_bad_scenario(tmp_path, monkeypatch):
    (tmp_path / "s.json").write_text(json.dumps({"name": "x", "goals": [[1, 1]]}))
    return ["simulate", str(tmp_path / "s.json")]


def _case_missing_file(tmp_path, monkeypatch):
    return ["simulate", str(tmp_path / "none.json")]


def _case_bad_json(tmp_path, monkeypatch):
    (tmp_path / "s.json").write_text("{oops")
    return ["fit", str(tmp_path / "s.json")]


def _case_bad_summary(tmp_path, monkeypatch):
    (tmp_path / "empty.json").write_text("{}")
    monkeypatch.chdir(tmp_path)
    return ["fit", "empty.json"]


def _case_bad_governor_config(tmp_path, monkeypatch):
    save_profile(make_profile(), tmp_path / "p.json")
    (tmp_path / "cfg.json").write_text(json.dumps({"mode": "bogus"}))
    return ["govern", "--stdin", "--config", str(tmp_path / "cfg.json"),
            "--profile", str(tmp_path / "p.json")]


def _case_bad_config_f_star(tmp_path, monkeypatch):
    save_profile(make_profile(), tmp_path / "p.json")
    (tmp_path / "cfg.json").write_text(json.dumps({"f_star_n": "lots"}))
    return ["govern", "--stdin", "--config", str(tmp_path / "cfg.json"),
            "--profile", str(tmp_path / "p.json")]


def _case_config_value(**values):
    def case(tmp_path, monkeypatch):
        save_profile(make_profile(), tmp_path / "p.json")
        (tmp_path / "cfg.json").write_text(json.dumps({"profile": "p.json", **values}))
        return ["govern", "--stdin", "--config", str(tmp_path / "cfg.json")]

    return case


def _case_config_profile_under_flag(tmp_path, monkeypatch):
    save_profile(make_profile(), tmp_path / "p.json")
    (tmp_path / "cfg.json").write_text(json.dumps({"profile": 5}))
    return ["govern", "--stdin", "--config", str(tmp_path / "cfg.json"),
            "--profile", str(tmp_path / "p.json")]


def _case_profile_value(f_star_is_peak=False, **values):
    def case(tmp_path, monkeypatch):
        save_profile(make_profile(), tmp_path / "p.json")
        data = json.loads((tmp_path / "p.json").read_text())
        (tmp_path / "p.json").write_text(json.dumps({**data, **values}))
        (tmp_path / "cfg.json").write_text(
            json.dumps({"profile": "p.json", "f_star_is_peak": f_star_is_peak})
        )
        return ["govern", "--stdin", "--config", str(tmp_path / "cfg.json")]

    return case


def _case_scenario_governor(**values):
    def case(tmp_path, monkeypatch):
        data = json.loads((REPO_ROOT / "scenarios" / "three_humans_chest.json").read_text())
        data["governor"].update(values)
        data["profile_path"] = str(REPO_ROOT / "profiles" / "carbon_0deg.json")
        (tmp_path / "s.json").write_text(json.dumps(data))
        return ["simulate", str(tmp_path / "s.json")]

    return case


def _case_nan_f_star(tmp_path, monkeypatch):
    save_profile(make_profile(), tmp_path / "p.json")
    return ["govern", "--stdin", "--f-star", "nan", "--profile", str(tmp_path / "p.json")]


def _case_bad_override(tmp_path, monkeypatch):
    return ["simulate", str(REPO_ROOT / "scenarios" / "three_humans_chest.json"),
            "--f-star", "9999"]


def _case_nan_override(tmp_path, monkeypatch):
    return ["simulate", str(REPO_ROOT / "scenarios" / "three_humans_chest.json"),
            "--f-star", "nan"]


@pytest.mark.parametrize(
    "case, code, first_line",
    [
        (_case_protocol, 3, "error: stream framing lost"),
        (_case_unphysical_fit, 4, "error: fitted model breaks physics: "),
        (_case_config_not_object, 2, "error: governor config must be a JSON object"),
        (_case_unknown_body_region, 2, "error: unknown body_region 'elbow'"),
        (_case_config_value(body_region=["face"]), 2, "error: unknown body_region ['face']"),
        (_case_config_value(profile=5), 2, "error: bad governor config: profile must be a path"),
        (_case_config_profile_under_flag, 2,
         "error: bad governor config: profile must be a path, got 5"),
        (_case_config_value(compliance_log=5), 2,
         "error: bad governor config: compliance_log must be a path"),
        (_case_no_profile, 2, "error: govern needs an airframe profile (--profile or config)"),
        (_case_profile_out_of_range, 2, "error: profile EC_r leaves [0, 1] on its domain"),
        (_case_bad_scenario, 2, "error: bad scenario definition: "),
        (_case_missing_file, 2, "error: [Errno 2] No such file or directory: "),
        (_case_bad_json, 2, "error: invalid JSON input: Expecting property name"),
        (_case_bad_summary, 2,
         "error: empty.json: not a configuration summary (KeyError: 'metrics')"),
        (_case_bad_governor_config, 2, "error: bad governor config: mode must be"),
        (_case_bad_config_f_star, 2,
         "error: bad governor config: f_star_n must be a finite number, got 'lots'"),
        (_case_nan_f_star, 2, "error: bad governor config: f_star_n must be a finite number, got nan"),
        (_case_config_value(v_platform_max_mps=math.inf), 2,
         "error: bad governor config: v_platform_max_mps must be a finite number, got inf"),
        (_case_config_value(stale_cap_mps=True), 2,
         "error: bad governor config: stale_cap_mps must be a finite number, got True"),
        (_case_bad_override, 2, "error: bad governor config: f_star_n 9999 N exceeds"),
        (_case_nan_override, 2, "error: bad governor config: f_star_n must be a finite number"),
        (_case_config_value(f_star=65), 2, "error: bad governor config: unknown key 'f_star'"),
        (_case_scenario_governor(body_regoin="face"), 2,
         "error: bad governor config: unknown key 'body_regoin'"),
        (_case_scenario_governor(body_region="elbow"), 2, "error: unknown body_region 'elbow'"),
        (_case_config_value(f_star_is_peak="false"), 2,
         "error: bad governor config: f_star_is_peak must be true or false, got 'false'"),
        (_case_config_value(f_star_is_peak=0), 2,
         "error: bad governor config: f_star_is_peak must be true or false, got 0"),
        (_case_profile_value(f_max_ref_N=0.0, f_star_is_peak=True), 4,
         "error: profile f_max_ref_N must be finite and > 0, got 0.0"),
        (_case_profile_value(f_max_ref_N=math.nan, f_star_is_peak=True), 4,
         "error: profile f_max_ref_N must be finite and > 0, got nan"),
        (_case_profile_value(f_max_ref_N=-1.0), 4,
         "error: profile f_max_ref_N must be finite and > 0, got -1.0"),
        (_case_profile_value(f_max_ref_N=1.0, f_star_is_peak=True), 2,
         "error: bad governor config: peak target 140 N is an average target of "),
        (_case_profile_value(mass_kg=1e300, dt_s=1e-10, f_star_is_peak=True), 4,
         "error: average force at the reference speed must be finite and > 0, got inf"),
    ],
    ids=["protocol", "invariant", "governor-config-not-object", "governor-config-body-region",
         "governor-config-body-region-list", "governor-config-profile-path",
         "governor-config-profile-path-under-flag",
         "governor-config-compliance-path",
         "ingest", "fit", "scenario", "file-not-found", "json", "summary", "governor-config",
         "governor-config-f-star", "governor-config-nan-f-star", "governor-config-infinity",
         "governor-config-bool", "simulate-override", "simulate-nan-override",
         "governor-config-unknown-key", "scenario-governor-unknown-key",
         "scenario-governor-body-region", "governor-config-peak-string",
         "governor-config-peak-int", "profile-f-max-zero", "profile-f-max-nan",
         "profile-f-max-negative", "governor-config-peak-above-limit",
         "profile-average-force-overflow"],
)
def test_exit_code_per_exception_type(tmp_path, monkeypatch, capsys, case, code, first_line):
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    argv = case(tmp_path, monkeypatch)
    assert main([*argv, "--out", str(tmp_path / "out")]) == code
    assert capsys.readouterr().err.splitlines()[0].startswith(first_line)


# --- simulate ----------------------------------------------------------------


def test_simulate_is_deterministic_across_runs(tmp_path):
    scenario = str(REPO_ROOT / "scenarios" / "three_humans_face.json")
    digests = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["simulate", scenario, "--out", str(out)]) == 0
        digests.append(hashlib.sha256((out / "trajectory.csv").read_bytes()).hexdigest())
        summary = json.loads((out / "summary.json").read_text())
        assert summary["violations"] == 0
    assert digests[0] == digests[1]


def test_simulate_emit_gnuplot_and_overrides(tmp_path):
    scenario = str(REPO_ROOT / "scenarios" / "three_humans_chest.json")
    out = tmp_path / "sim"
    assert (
        main(
            ["simulate", scenario, "--out", str(out), "--emit-gnuplot",
             "--body-region", "face", "--mode", "ramp"]
        )
        == 0
    )
    assert (out / "trajectory.dat").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["v_force_mps"] == pytest.approx(6.77, abs=0.01)
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["subcommand"] == "simulate"


def test_f_star_outranks_body_region_in_govern_and_simulate(monkeypatch, capsys, tmp_path):
    # 100 N on carbon_0deg caps at 10.42 m/s; the face limit (65 N) at 6.77
    flags = ["--f-star", "100", "--body-region", "face"]
    code, stdout = _govern_stdin(
        monkeypatch, capsys,
        [
            {"type": "range", "d_m": 4.0, "t_s": 0.0},
            {"type": "cmd", "vx": 20.0, "vy": 0.0, "vz": 0.0, "t_s": 0.1},
        ],
        extra_args=["--profile", str(REPO_ROOT / "profiles" / "carbon_0deg.json"), *flags],
        out=tmp_path / "gov",
    )
    assert code == 0
    govern_cap = json.loads(stdout.splitlines()[0])["cap_mps"]
    assert govern_cap == pytest.approx(10.42, abs=0.01)

    out = tmp_path / "sim"
    scenario = str(REPO_ROOT / "scenarios" / "three_humans_chest.json")
    assert main(["simulate", scenario, "--out", str(out), *flags]) == 0
    capsys.readouterr()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["v_force_mps"] == pytest.approx(govern_cap, abs=1e-6)


@pytest.mark.parametrize(
    "flags, settings, cap",
    [
        (["--f-star", "100", "--body-region", "face"], {"f_star_n": 150, "body_region": "back"},
         10.42),
        (["--body-region", "face"], {"f_star_n": 150, "body_region": "back"}, 6.77),
        ([], {"f_star_n": 100, "body_region": "face"}, 10.42),
        ([], {"body_region": "face"}, 6.77),
        ([], {}, 14.59),
    ],
    ids=["cli-f-star", "cli-body-region", "file-f-star", "file-body-region", "default"],
)
def test_force_target_precedence_in_govern_and_simulate(
    monkeypatch, capsys, tmp_path, flags, settings, cap
):
    # carbon_0deg caps 100 N at 10.42 m/s, the face limit (65 N) at 6.77 and
    # the 140 N default at 14.59; a 20 m/s platform maximum binds at none
    profile = str(REPO_ROOT / "profiles" / "carbon_0deg.json")
    settings = {**settings, "v_platform_max_mps": 20}
    config = tmp_path / "gov.json"
    config.write_text(json.dumps({**settings, "profile": profile}))
    code, stdout = _govern_stdin(
        monkeypatch, capsys,
        [
            {"type": "range", "d_m": 4.0, "t_s": 0.0},
            {"type": "cmd", "vx": 20.0, "vy": 0.0, "vz": 0.0, "t_s": 0.1},
        ],
        extra_args=["--config", str(config), *flags],
        out=tmp_path / "gov",
    )
    assert code == 0
    govern_cap = json.loads(stdout.splitlines()[0])["cap_mps"]
    assert govern_cap == pytest.approx(cap, abs=0.01)

    data = json.loads((REPO_ROOT / "scenarios" / "three_humans_chest.json").read_text())
    data["governor"] = settings
    data["profile_path"] = profile
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(data))
    out = tmp_path / "sim"
    assert main(["simulate", str(scenario), "--out", str(out), *flags]) == 0
    capsys.readouterr()
    assert json.loads((out / "summary.json").read_text())["v_force_mps"] == govern_cap


def test_simulate_missing_scenario_exits_input_error(tmp_path):
    assert main(["simulate", str(tmp_path / "no.json"), "--out", str(tmp_path)]) == 2


def test_simulate_bad_scenario_exits_input_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"name": "x", "goals": [[1, 1]]}))
    assert main(["simulate", str(bad), "--out", str(tmp_path / "o")]) == 2


# --- report ------------------------------------------------------------------


def test_report_renders_markdown(analyzed_dir, tmp_path, profile_path):
    out = tmp_path / "report"
    inputs = [str(analyzed_dir / "metrics.csv")]
    inputs += [str(p) for p in sorted(analyzed_dir.glob("summary_*.json"))]
    inputs += [str(profile_path)]
    assert main(["report", *inputs, "--out", str(out)]) == 0
    text = (out / "report.md").read_text()
    assert "Carbon-0deg" in text
    assert "|" in text  # tables made it in
    assert "F_max" in text
