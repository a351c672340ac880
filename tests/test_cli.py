import ast
import collections
import csv
import functools
import hashlib
import json
import math
import os
import queue
import random
import select
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from impact_governor import cli, dsp, node, sim
from impact_governor.cli import main
from impact_governor.errors import ProtocolError
from impact_governor.governor import GovernorConfig, GovernorRuntime
from impact_governor.impact import (
    METRIC_FIELDS,
    METRICS_CSV_COLUMNS,
    ImpactMetrics,
    aggregate_configuration,
    read_metrics_csv,
    write_metrics_csv,
)
from impact_governor.ingest import is_trial_manifest
from impact_governor.node import _sha256_of
from impact_governor.profile import load_profile, save_profile
from impact_governor.stream import ComplianceLog
from impact_governor.synthetic import make_campaign, synth_trial, write_trial

from conftest import child_env, make_profile, stdin_of

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


def test_main_parses_every_command_line_with_one_parser():
    parser = node._parser()
    assert node._parser() is parser
    first = parser.parse_args(["simulate", "s.json", "--out", "o", "--mode", "ramp"])
    second = parser.parse_args(["govern", "--stdin", "--out", "o"])
    assert first is not second
    assert (first.scenario, first.mode) == ("s.json", "ramp")
    # nothing of the first parse is left in the second
    assert not hasattr(second, "scenario") and second.mode is None


def test_metrics_csv_row_round_trip(tmp_path):
    m = ImpactMetrics(
        configuration="Foo-0deg", mass_kg=0.25, angle_deg=0.0, v_in_mps=3.2,
        f_max_n=101.5, dt_j_s=0.0312, j_ns=1.07, ec_i_j=1.28, ec_r=0.14,
        v_f_mps=1.2, e_hat=0.375, v_f_impulse_mps=1.1,
        flags=["short-rebound-window"],
    )
    write_metrics_csv(tmp_path / "metrics.csv", [m])
    [back] = read_metrics_csv(tmp_path / "metrics.csv")
    assert back.configuration == m.configuration
    assert back.flags == m.flags
    assert back.v_in_mps == pytest.approx(m.v_in_mps, rel=1e-8)
    assert back.ec_r == pytest.approx(m.ec_r, rel=1e-8)


def _hashlib_digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True, default=str).encode("utf-8")).hexdigest()


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12,
)


@settings(max_examples=200, deadline=None)
@given(config=st.dictionaries(st.text(), _json_values, max_size=8))
def test_sha256_of_is_hashlibs_digest_of_the_sorted_json(config):
    assert _sha256_of(config) == _hashlib_digest(config)


def test_sha256_of_falls_back_to_hashlib_without_the_builtin_module(monkeypatch):
    config = GovernorConfig(f_star_n=65.0).to_dict()
    calls = []

    def spy(data):
        calls.append(data)
        return real(data)

    real = hashlib.sha256
    monkeypatch.setattr(hashlib, "sha256", spy)
    assert _sha256_of(config) == _hashlib_digest(config)
    assert len(calls) == 1  # the oracle's own call: the built-in module hashed
    for name in ("_sha2", "_sha256"):
        monkeypatch.setitem(sys.modules, name, None)  # the import fails
    assert _sha256_of(config) == _hashlib_digest(config)
    assert len(calls) == 3


# --- analyze -----------------------------------------------------------------


def test_analyze_products(analyzed_dir):
    with open(analyzed_dir / "metrics.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
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
    with open(out / "metrics.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    assert all(math.isfinite(float(r["ec_r"])) for r in rows)
    assert [p.name for p in sorted(out.glob("summary_*.json"))] == [
        "summary_Carbon-0deg_v3.5.json"
    ]


@pytest.mark.parametrize("stream, before, after, samples", [
    ("force", 1, 9, 10),  # a 10-row force CSV with its trigger at row 2
    ("range", 0, 3, 13),  # a range CSV of 3 rows, from its trigger to 2 ms past it
])
def test_analyze_rejects_only_the_trial_whose_streams_share_too_short_a_span(
        tmp_path, capsys, stream, before, after, samples):
    # the low-pass raised a ValueError: a traceback, exit 1 and a null exit_code
    campaign = tmp_path / "campaign"
    make_campaign(campaign, speeds=(3.0, 3.5), trials_per_speed=2, seed=5)
    path = campaign / f"trial_001_{stream}.csv"
    header, *rows = path.read_text().splitlines(keepends=True)
    trigger = next(i for i, row in enumerate(rows) if row.rstrip().endswith(",1"))
    path.write_text(header + "".join(rows[trigger - before:trigger + after]))
    out = tmp_path / "out"

    assert main(["analyze", str(campaign), "--out", str(out)]) == 2

    line = (f"error: trial_001.json: series of {samples} samples too short for order-4 "
            "zero-phase filtering (needs > 15)")
    assert [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("error:")] == [line]
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert [t["rejected"] for t in manifest["trials"]] == [None, line[len("error: "):], None, None]
    assert (manifest["exit_code"], manifest["error"]) == (2, None)


def test_analyze_rejects_only_the_trial_whose_csv_is_not_utf8(tmp_path, capsys):
    campaign = tmp_path / "campaign"
    make_campaign(campaign, speeds=(3.0, 3.5), trials_per_speed=2, seed=5)
    force = campaign / "trial_001_force.csv"
    data = force.read_bytes()
    at = data.index(b"\n", len(data) // 2)
    force.write_bytes(data[:at] + b"\xff" + data[at:])
    out = tmp_path / "out"

    assert main(["analyze", str(campaign), "--out", str(out)]) == 2

    err = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("error:")]
    assert err == [f"error: trial_001.json: {force}: byte 0xff is not UTF-8"]
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert [t["rejected"] is not None for t in manifest["trials"]] == [False, True, False, False]
    assert [p.name for p in sorted(out.glob("summary_*.json"))] == [
        "summary_Carbon-0deg_v3.5.json"
    ]


@pytest.mark.parametrize(
    "name, data",
    [("notes.json", b'{"note": "caf\xe9"}'), ("deep.json", b"[" * 200_000)],
    ids=["not-utf8", "deep"],
)
def test_analyze_passes_over_a_json_file_that_does_not_decode(tmp_path, capsys, name, data):
    campaign = tmp_path / "campaign"
    make_campaign(campaign, speeds=(3.0, 3.5), trials_per_speed=2, seed=5)
    assert main(["analyze", str(campaign), "--out", str(tmp_path / "without")]) == 0
    (campaign / name).write_bytes(data)
    out = tmp_path / "out"

    assert main(["analyze", str(campaign), "--out", str(out)]) == 0

    assert "error:" not in capsys.readouterr().err
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert [Path(p).name for p in manifest["inputs"]] == [
        f"trial_{i:03d}.json" for i in range(4)
    ]
    written = sorted(p.name for p in out.iterdir() if p.name != "run_manifest.json")
    assert written == sorted(
        p.name for p in (tmp_path / "without").iterdir() if p.name != "run_manifest.json"
    )
    for name in written:
        assert (out / name).read_bytes() == (tmp_path / "without" / name).read_bytes()


def test_analyze_quotes_a_huge_bad_row_in_a_short_error_line(tmp_path, capsys, monkeypatch):
    # a cell past the csv module's 131072-character limit; relative paths keep
    # the line's length independent of where the test runs
    monkeypatch.chdir(tmp_path)
    make_campaign(Path("campaign"), speeds=(3.0,), trials_per_speed=2, seed=5)
    bad = Path("campaign/trial_001_force.csv")
    _set_cell(bad, 730, 2, "9" * 200_000 + "x")
    row = bad.read_text().splitlines()[730]

    assert main(["analyze", "campaign", "--out", "out"]) == 2

    [err] = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("error:")]
    assert err == (
        f"error: trial_001.json: {bad} row 731: {row[:60]!r} "
        f"(the first 60 of {len(row)} characters) is not all numbers"
    )
    assert len(err) < 300
    manifest = json.loads(Path("out/run_manifest.json").read_text())
    assert [t["rejected"] for t in manifest["trials"]] == [None, err.removeprefix("error: ")]


def test_analyze_rejects_only_the_trial_whose_header_cell_is_too_long(tmp_path, capsys):
    # csv.reader raises a bare csv.Error on a cell past its 131072-character
    # limit; read from the header, it ended the run in a traceback
    campaign = tmp_path / "campaign"
    make_campaign(campaign, speeds=(3.0,), trials_per_speed=2, seed=5)
    bad = campaign / "trial_000_range.csv"
    lines = bad.read_text().splitlines(keepends=True)
    lines[0] = lines[0].rstrip("\n") + "," + "x" * 200_000 + "\n"
    bad.write_text("".join(lines))
    out = tmp_path / "out"

    assert main(["analyze", str(campaign), "--out", str(out)]) == 2

    err = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("error:")]
    assert err == [
        f"error: trial_000.json: {bad} header: field larger than field limit (131072)"
    ]
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["exit_code"] == 2
    assert [t["rejected"] for t in manifest["trials"]] == [err[0].removeprefix("error: "), None]
    with open(out / "metrics.csv", newline="") as fh:
        assert len(list(csv.DictReader(fh))) == 1


@pytest.mark.parametrize("key", ["nominal_speed_mps", "mass_kg"])
def test_analyze_rejects_only_the_trial_whose_energy_overflows(tmp_path, capsys, key):
    # 1e308 m/s overflowed v_in**2, whose OverflowError stopped the whole
    # run; 1e308 kg wrote an ec_i_j of inf into metrics.csv
    campaign = tmp_path / "campaign"
    make_campaign(campaign, speeds=(3.0,), trials_per_speed=2, seed=5)
    assert main(["analyze", str(campaign), "--out", str(tmp_path / "clean")]) == 0
    manifest = campaign / "trial_001.json"
    doc = json.loads(manifest.read_text())
    doc[key] = 1e308
    manifest.write_text(json.dumps(doc))
    capsys.readouterr()

    assert main(["analyze", str(campaign), "--out", str(tmp_path / "out")]) == 2

    err = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("error:")]
    assert len(err) == 1
    assert err[0].startswith("error: trial_001.json: incident kinetic energy of ")
    assert err[0].endswith(" is not finite")
    clean = (tmp_path / "clean" / "metrics.csv").read_bytes().splitlines(keepends=True)
    assert (tmp_path / "out" / "metrics.csv").read_bytes().splitlines(keepends=True) == clean[:2]


_MANIFEST_NUMBERS = (
    "mass_kg", "angle_deg", "nominal_speed_mps", "sample_rate_force_hz", "sample_rate_range_hz"
)
_BAD_RATES = (0, -1, math.nan, math.inf, 5e-324)  # 5e-324 Hz: a period of inf


@pytest.fixture(scope="module")
def three_trials(tmp_path_factory):
    """A three-trial campaign and the metrics.csv lines of its clean analyze run."""
    campaign = tmp_path_factory.mktemp("three")
    make_campaign(campaign, speeds=(3.0,), trials_per_speed=3, seed=5)
    out = tmp_path_factory.mktemp("three_clean")
    assert main(["analyze", str(campaign), "--out", str(out)]) == 0
    return campaign, (out / "metrics.csv").read_bytes().splitlines(keepends=True)


@pytest.mark.parametrize(
    "key, value",
    [(key, value) for key in _MANIFEST_NUMBERS for value in ("abc", None, [1], True, "3.0")]
    + [(key, value) for key in _MANIFEST_NUMBERS[3:] for value in _BAD_RATES],
    ids=lambda v: v if isinstance(v, str) else json.dumps(v),
)
def test_analyze_rejects_only_the_trial_with_a_bad_manifest_number(
    monkeypatch, capsys, tmp_path, three_trials, key, value
):
    # float() of such a value raised a TypeError or ValueError that stopped
    # the whole run; a NaN rate was reported as a time-span mismatch
    err, manifest = _analyze_with_trial_001_edited(
        monkeypatch, capsys, tmp_path, three_trials, key, value
    )
    assert err.startswith(f"error: trial_001.json: {manifest}: {key} ")


@pytest.mark.parametrize(
    "key, value",
    [(key, value) for key in ("force_csv", "range_csv") for value in (5, None, ["x.csv"])]
    + [("configuration", ["Carbon-0deg"]), ("material", 7)],
    ids=lambda v: v if isinstance(v, str) else json.dumps(v),
)
def test_analyze_rejects_only_the_trial_with_a_manifest_name_that_is_no_string(
    monkeypatch, capsys, tmp_path, three_trials, key, value
):
    # a stream path of another type raised a TypeError that ended the whole
    # run in a traceback and a null exit_code; a configuration or a material
    # of another type went through str() into the metrics and summary names
    err, manifest = _analyze_with_trial_001_edited(
        monkeypatch, capsys, tmp_path, three_trials, key, value
    )
    assert err == f"error: trial_001.json: {manifest}: {key} must be a string, got {value!r}"


def _analyze_with_trial_001_edited(monkeypatch, capsys, tmp_path, three_trials, key, value):
    """Analyze a copy of the three-trial campaign with ``key`` of trial_001's
    manifest set to ``value``: the run must exit 2 and write the other two
    trials as the clean run did. Returns the one error line and the manifest."""
    campaign, clean = three_trials
    work = shutil.copytree(campaign, tmp_path / "campaign")
    manifest = work / "trial_001.json"
    doc = json.loads(manifest.read_text())
    doc[key] = value
    manifest.write_text(json.dumps(doc))  # NaN and Infinity as JSON extensions
    monkeypatch.setattr(cli, "_usable_cores", lambda: 1)
    capsys.readouterr()

    out = tmp_path / "out"
    assert main(["analyze", str(work), "--out", str(out)]) == 2

    err = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("error:")]
    assert len(err) == 1
    lines = (out / "metrics.csv").read_bytes().splitlines(keepends=True)
    assert lines == [clean[0], clean[1], clean[3]]
    run = json.loads((out / "run_manifest.json").read_text())
    assert run["exit_code"] == 2
    assert [t["rejected"] for t in run["trials"]] == [None, err[0][len("error: "):], None]
    return err[0], manifest


def test_analyze_refuses_two_configurations_that_share_a_summary_name(
    monkeypatch, capsys, tmp_path, campaign_dir
):
    # "Carbon 0deg" and "Carbon_0deg" both slug to Carbon_0deg: the second
    # configuration's summaries overwrote the first's, and the manifest listed
    # each file twice
    work = shutil.copytree(campaign_dir, tmp_path / "campaign")
    for manifest in sorted(work.glob("trial_*.json")):
        doc = json.loads(manifest.read_text())
        doc["configuration"] = "Carbon 0deg"
        manifest.write_text(json.dumps(doc))
        doc["configuration"] = "Carbon_0deg"
        (work / f"twin_{manifest.name}").write_text(json.dumps(doc))
    monkeypatch.setattr(cli, "_usable_cores", lambda: 1)
    capsys.readouterr()
    out = tmp_path / "out"

    assert main(["analyze", str(work), "--out", str(out)]) == 2

    err = capsys.readouterr().err.splitlines()
    assert err[-1] == (
        "error: configurations 'Carbon 0deg' @ 3 m/s and 'Carbon_0deg' @ 3 m/s "
        "would both write summary_Carbon_0deg_v3.json"
    )
    assert sorted(p.name for p in out.iterdir()) == ["run_manifest.json"]
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert (manifest["exit_code"], manifest["outputs"]) == (2, [])


def test_analyze_share_is_bitwise_independent_of_trial_order(campaign_dir):
    # the Kalman gains one trial computes and caches serve the trials after it
    dsp._gain_schedule.cache_clear()
    manifests = sorted(p for p in campaign_dir.glob("*.json") if is_trial_manifest(p))
    forward = [outcome for outcome, _ in cli._analyze_share(manifests)]
    backward = [outcome for outcome, _ in cli._analyze_share(manifests[::-1])][::-1]

    def bits(outcome):
        _, m = outcome
        return [float(getattr(m, f)).hex() for f in METRIC_FIELDS] + m.flags

    assert len(forward) == 6 and all(isinstance(o, tuple) for o in forward)
    assert [bits(o) for o in forward] == [bits(o) for o in backward]


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


def _analyze_with_cores(monkeypatch, capsys, cores, campaign, out):
    """Run ``analyze`` as if ``cores`` cores were usable: exit code, stderr's
    ``error:`` lines and the run manifest."""
    monkeypatch.setattr(cli, "_usable_cores", lambda: cores)
    code = main(["analyze", str(campaign), "--out", str(out)])
    err = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("error:")]
    return code, err, json.loads((out / "run_manifest.json").read_text())


@pytest.mark.parametrize("stream", ["force", "range"])
def test_analyze_rejects_only_the_trial_whose_stream_is_a_directory(
    monkeypatch, capsys, tmp_path, stream
):
    campaign = tmp_path / "campaign"
    make_campaign(campaign, speeds=(3.0, 3.5), trials_per_speed=2, seed=5)
    bad = campaign / f"trial_001_{stream}.csv"
    bad.unlink()
    bad.mkdir()
    runs = {}
    for cores in (1, 2):
        out = tmp_path / f"cores{cores}"
        monkeypatch.setattr(cli, "_usable_cores", lambda: cores)
        code = main(["analyze", str(campaign), "--out", str(out)])
        captured = capsys.readouterr()
        files = {p.name: p.read_bytes() for p in out.glob("*") if p.name != "run_manifest.json"}
        runs[cores] = (code, captured.out.replace(str(out), "<out>"), captured.err, files)
    assert runs[2] == runs[1]
    code, stdout, stderr, files = runs[1]
    assert code == 2
    assert stderr.splitlines() == [f"error: trial_001.json: [Errno 21] Is a directory: '{bad}'"]
    assert stdout == "analyzed 3/4 trials -> <out>\n"
    assert sorted(files) == ["metrics.csv", "summary_Carbon-0deg_v3.5.json"]

    # the other trials write what the campaign without trial_001 writes
    shutil.rmtree(bad)
    for path in campaign.glob("trial_001*"):
        path.unlink()
    assert main(["analyze", str(campaign), "--out", str(tmp_path / "without")]) == 0
    capsys.readouterr()
    assert files == {name: (tmp_path / "without" / name).read_bytes() for name in files}


@pytest.fixture(scope="module")
def mixed_campaign(tmp_path_factory):
    """Seven trials: trial_001 has a non-numeric force cell, trial_006 hits
    the target below the velocity gate."""
    out = tmp_path_factory.mktemp("mixed")
    make_campaign(out, speeds=(3.0, 3.5), trials_per_speed=3, seed=11)
    _set_cell(out / "trial_001_force.csv", 730, 2, "abc")
    raw, _ = synth_trial(v_in=1.8, e=0.4, mass=0.25, tau_s=0.03, noise_force_n=0.5,
                         noise_range_m=0.002, seed=3, configuration="Carbon-0deg")
    raw.meta.nominal_speed_mps = 3.0
    write_trial(raw, out, "trial_006")
    return out


def test_analyze_outputs_are_identical_at_every_share_count(
    monkeypatch, capsys, tmp_path, mixed_campaign
):
    runs = {}
    for cores in (1, 2, 4, 64):  # 64: more shares than the 7 trials
        out = tmp_path / f"cores{cores}"
        code, err, manifest = _analyze_with_cores(monkeypatch, capsys, cores, mixed_campaign, out)
        assert manifest["workers"] == min(cores, 7)
        files = {p.name: p.read_bytes() for p in out.glob("*") if p.name != "run_manifest.json"}
        runs[cores] = (code, err, files)
        trials = manifest["trials"]
        assert [t["manifest"] for t in trials] == [f"trial_{k:03d}.json" for k in range(7)]
        assert [t["rejected"] is not None for t in trials] == [k in (1, 6) for k in range(7)]
        assert trials[1]["load_ms"] > 0 and trials[1]["align_ms"] is None
        assert all(t[k] > 0 for t in trials if not t["rejected"]
                   for k in ("load_ms", "align_ms", "summarize_ms"))
        assert trials[6]["summarize_ms"] > 0  # the gate rejects after the DSP ran

    code, err, files = runs[1]
    assert code == 2
    assert [ln.split(":")[1].strip() for ln in err] == ["trial_001.json", "trial_006.json"]
    assert "is not all numbers" in err[0] and err[0] == f"error: {manifest['trials'][1]['rejected']}"
    assert sorted(files) == [
        "metrics.csv", "summary_Carbon-0deg_v3.5.json", "summary_Carbon-0deg_v3.json"
    ]
    assert len(files["metrics.csv"].decode().splitlines()) == 1 + 5
    for cores in (2, 4, 64):
        assert runs[cores] == runs[1], f"{cores} cores differ from one"


#: ``python -m impact_governor`` in a process that first pins itself to one CPU
_PINNED_ENTRY = (
    "import os, runpy, sys\n"
    "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
    "sys.argv = ['impact-governor', *sys.argv[1:]]\n"
    "runpy.run_module('impact_governor', run_name='__main__')\n"
)

needs_pinning = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs os.sched_setaffinity and two usable CPUs",
)


def _pinned_and_free(tmp_path, *argv):
    """Run the command ``argv`` in a child pinned to one CPU ("one") and in one
    free to use them all ("all"). Per run: the exit code, stdout with the
    output directory as <out>, stderr, every output but the run manifest,
    and the manifest."""
    runs = {}
    for run, entry in (("one", ["-c", _PINNED_ENTRY]), ("all", ["-m", "impact_governor"])):
        out = tmp_path / run
        proc = subprocess.run([sys.executable, *entry, *argv, "--out", str(out)],
                              capture_output=True, text=True, env=child_env(), timeout=120)
        files = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "run_manifest.json"}
        runs[run] = (proc.returncode, proc.stdout.replace(str(out), "<out>"), proc.stderr, files,
                     json.loads((out / "run_manifest.json").read_text()))
    return runs


@needs_pinning
def test_analyze_pinned_to_one_cpu_writes_what_it_writes_on_all(tmp_path, mixed_campaign):
    # one usable CPU takes the in-process path, and more fork workers; the
    # tests above set the core count, this one lets the affinity mask set it
    runs = _pinned_and_free(tmp_path, "analyze", str(mixed_campaign))
    *one, one_manifest = runs["one"]
    *all_, all_manifest = runs["all"]
    assert (one_manifest["workers"], all_manifest["workers"]) == (
        1, min(len(os.sched_getaffinity(0)), 7)
    )
    assert one == all_
    code, stdout, stderr, files = one
    assert (code, stdout) == (2, "analyzed 5/7 trials -> <out>\n")
    assert [line.split(":")[1] for line in stderr.splitlines()] == [
        " trial_001.json", " trial_006.json"
    ]
    assert sorted(files) == [
        "metrics.csv", "summary_Carbon-0deg_v3.5.json", "summary_Carbon-0deg_v3.json"
    ]


def test_analyze_reads_streams_named_like_compressed_files_as_plain_csv(
    capsys, tmp_path, mixed_campaign
):
    # np.loadtxt would open *.gz and *.xz with a decompressor: the campaign with
    # its streams renamed so, and its manifests to match, writes the same bytes
    renamed = tmp_path / "renamed"
    renamed.mkdir()
    for manifest in sorted(mixed_campaign.glob("*.json")):
        data = json.loads(manifest.read_text())
        for key, suffix in (("force_csv", ".gz"), ("range_csv", ".xz")):
            shutil.copy(mixed_campaign / data[key], renamed / (data[key] + suffix))
            data[key] += suffix
        (renamed / manifest.name).write_text(json.dumps(data, indent=2))
    runs = []
    for campaign in (mixed_campaign, renamed):
        out = tmp_path / f"{campaign.name}-out"
        code = main(["analyze", str(campaign), "--out", str(out)])
        capsys.readouterr()
        runs.append((code, {p.name: p.read_bytes() for p in out.iterdir()
                            if p.name != "run_manifest.json"}))
    assert runs[0][0] == 2 and len(runs[0][1]) == 3
    assert runs[1] == runs[0]


def test_analyze_stays_in_process_while_another_thread_runs(
    monkeypatch, capsys, tmp_path, mixed_campaign
):
    # forking a process with more than one thread can copy a held lock
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(30.0,))
    other.start()
    try:
        code, err, manifest = _analyze_with_cores(
            monkeypatch, capsys, 2, mixed_campaign, tmp_path / "out"
        )
    finally:
        release.set()
        other.join(timeout=30.0)
    assert not other.is_alive()
    assert (code, len(err), manifest["workers"]) == (2, 2, 1)


def _assert_only_a_crash_manifest(out):
    """``out`` holds only the manifest of a run that ended in a traceback."""
    assert [p.name for p in out.iterdir()] == ["run_manifest.json"]
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert (manifest["outputs"], manifest["exit_code"], manifest["error"]) == ([], None, None)


@pytest.mark.parametrize("cores", [1, 2])
@pytest.mark.parametrize("crash_speed", [3.0, 3.5])  # trial_000 (share 0), trial_001 (share 1)
def test_analyze_raises_a_trial_crash_at_any_share_count(
    monkeypatch, tmp_path, cores, crash_speed
):
    campaign = tmp_path / "campaign"
    make_campaign(campaign, speeds=(3.0, 3.5, 4.0), trials_per_speed=1, seed=5)
    real = cli.summarize_trial

    def crash(record):
        if record.meta.nominal_speed_mps == crash_speed:
            raise RuntimeError(f"bug at {crash_speed} m/s")
        return real(record)

    monkeypatch.setattr(cli, "summarize_trial", crash)
    monkeypatch.setattr(cli, "_usable_cores", lambda: cores)
    out = tmp_path / "out"
    with pytest.raises(RuntimeError, match=f"^bug at {crash_speed} m/s$"):
        main(["analyze", str(campaign), "--out", str(out)])
    _assert_only_a_crash_manifest(out)  # no metrics.csv short of the crashed trial


def test_analyze_raises_when_a_worker_dies(monkeypatch, tmp_path):
    from concurrent.futures.process import BrokenProcessPool

    campaign = tmp_path / "campaign"
    make_campaign(campaign, speeds=(3.0, 3.5), trials_per_speed=1, seed=5)
    real, parent = cli.summarize_trial, os.getpid()

    def die_in_worker(record):
        if record.meta.nominal_speed_mps == 3.5:  # trial_001, share 1 of 2
            assert os.getpid() != parent, "share 1 ran in the parent"
            os._exit(1)
        return real(record)

    monkeypatch.setattr(cli, "summarize_trial", die_in_worker)
    monkeypatch.setattr(cli, "_usable_cores", lambda: 2)
    out = tmp_path / "out"
    with pytest.raises(BrokenProcessPool):
        main(["analyze", str(campaign), "--out", str(out)])
    _assert_only_a_crash_manifest(out)


def _open_fds():
    return set(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_analyze_leaves_no_worker_or_pipe_when_its_own_share_raises(monkeypatch, tmp_path):
    campaign = tmp_path / "campaign"
    make_campaign(campaign, speeds=(3.0, 3.5), trials_per_speed=1, seed=5)
    real, parent = cli.summarize_trial, os.getpid()

    def crash_here(record):
        if os.getpid() == parent:  # trial_000, share 0
            raise RuntimeError("bug in the parent's share")
        time.sleep(20.0)  # share 1 is still running when share 0 raises
        return real(record)

    monkeypatch.setattr(cli, "summarize_trial", crash_here)
    monkeypatch.setattr(cli, "_usable_cores", lambda: 2)
    before, start = _open_fds(), time.monotonic()
    with pytest.raises(RuntimeError, match="^bug in the parent's share$"):
        cli._analyze_all(sorted(campaign.glob("trial_*.json")))
    assert time.monotonic() - start < 10.0, "waited for the worker instead of ending it"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert _open_fds() == before


class _Unpicklable(Exception):
    def __reduce__(self):
        raise TypeError("not this one")


class _Unloadable(Exception):
    """Pickles, but its pickled arguments (the one message) do not rebuild it."""

    def __init__(self, what, where):
        super().__init__(f"{what} {where}")


@pytest.mark.parametrize("error", [ValueError, _Unpicklable, _Unloadable])
def test_a_worker_exception_carries_the_worker_traceback(monkeypatch, tmp_path, error):
    campaign = tmp_path / "campaign"
    make_campaign(campaign, speeds=(3.0, 3.5), trials_per_speed=1, seed=5)
    real = cli.summarize_trial
    args = ("bug", "in a worker") if error is _Unloadable else ("bug in a worker",)

    def crash(record):
        if record.meta.nominal_speed_mps == 3.5:  # trial_001, share 1 of 2
            raise error(*args)
        return real(record)

    monkeypatch.setattr(cli, "summarize_trial", crash)
    monkeypatch.setattr(cli, "_usable_cores", lambda: 2)
    manifests = sorted(campaign.glob("trial_*.json"))
    if error is ValueError:
        with pytest.raises(ValueError, match="^bug in a worker$") as exc:
            cli._analyze_all(manifests)
        assert isinstance(exc.value.__cause__, cli.WorkerTraceback)
        text = str(exc.value.__cause__)
        assert text.startswith("in analyze worker ")
    else:
        with pytest.raises(RuntimeError, match="^analyze worker .* cannot be pickled") as exc:
            cli._analyze_all(manifests)
        text = str(exc.value)
    assert "raise error(*args)" in text
    assert text.endswith(": bug in a worker\n")


def test_analyze_rejects_only_the_trial_whose_clock_runs_backward(capsys, tmp_path):
    campaign = tmp_path / "campaign"
    make_campaign(campaign, speeds=(3.0, 3.5), trials_per_speed=2, seed=5)
    rows = (campaign / "trial_001_range.csv").read_text().splitlines(keepends=True)
    rows[100], rows[101] = rows[101], rows[100]
    (campaign / "trial_001_range.csv").write_text("".join(rows))
    out = tmp_path / "out"

    assert main(["analyze", str(campaign), "--out", str(out)]) == 2
    err = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("error:")]
    assert len(err) == 1 and err[0].startswith("error: trial_001.json: ")
    assert "trial_001_range.csv row 102: t_s " in err[0]
    metrics = (out / "metrics.csv").read_text().splitlines()
    assert len(metrics) == 1 + 3


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


@pytest.mark.parametrize("twin", ["s3.0.json", "./s3.0.json", "link.json"])
def test_fit_refuses_a_summary_named_twice(tmp_path, capsys, monkeypatch, twin):
    # the one file counted as two points: fit a.json a.json wrote a profile
    monkeypatch.chdir(tmp_path)
    for v, ec in ((3.0, 0.10), (4.0, 0.12)):
        Path(f"s{v}.json").write_text(json.dumps(_summary_dict(v, ec)))
    Path("link.json").symlink_to("s3.0.json")
    assert main(["fit", "s3.0.json", "s4.0.json", twin, "--out", "out"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {twin}: summary named twice; each file counts once"]
    assert not list(Path("out").glob("profile_*.json"))


def test_fit_govern_and_report_refuse_a_force_map_that_overflows_its_domain(
        tmp_path, capsys, monkeypatch, profile_path):
    # fit printed numpy's overflow warning, exited 0 and wrote a profile whose
    # measured speeds were [1e308, 1e308]; govern loaded it, and its manifest
    # gave an extrapolation ratio near 0, as if the cap rested on measured speeds
    line = "error: profile force map is not finite on its measured speed domain (1e+308, 1e+308)"
    summaries = []
    for k in range(2):
        doc = _summary_dict(3.0, 0.10)
        doc["metrics"]["v_in_mps"]["mean"] = 1e308
        summaries.append(tmp_path / f"s{k}.json")
        summaries[-1].write_text(json.dumps(doc))
    profile = json.loads(Path(profile_path).read_text())
    profile["restitution"]["domain"] = [1e308, 1e308]
    (tmp_path / "p.json").write_text(json.dumps(profile))
    monkeypatch.setattr("sys.stdin", stdin_of(""))
    runs = {"fit": ["fit", *map(str, summaries)],
            "govern": ["govern", "--stdin", "--profile", str(tmp_path / "p.json")],
            "report": ["report", str(tmp_path / "p.json")]}
    for name, argv in runs.items():
        out = tmp_path / name
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's RuntimeWarning among them
            assert main([*argv, "--out", str(out)]) == 4  # the loaded profile breaks physics
        assert capsys.readouterr().err.splitlines() == [line]
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert (manifest["exit_code"], manifest["error"]) == (4, line)
        assert not list(out.glob("profile_*.json"))


@pytest.mark.parametrize("degree, why", [("-1", "degree must be >= 0, got -1"),
                                         ("two", "invalid degree value: 'two'")])
def test_fit_bad_degree_is_a_usage_error(capsys, tmp_path, degree, why):
    argv = _fit_argv(tmp_path)[:-2]  # without its --degree 1
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--degree", degree, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert err[-1] == f"impact-governor fit: error: argument --degree: {why}"
    assert not (tmp_path / "out").exists()


# --- govern ------------------------------------------------------------------


@pytest.fixture
def profile_path(tmp_path):
    path = tmp_path / "profile.json"
    save_profile(make_profile(), path)
    return path


def _govern_stdin(monkeypatch, capsys, messages, extra_args=(), out=None):
    text = "".join(json.dumps(m) + "\n" for m in messages)
    monkeypatch.setattr("sys.stdin", stdin_of(text))
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
    assert compliance[1].split(",")[5] == "force"
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


@pytest.mark.parametrize(
    "config, argv, inputs, code",
    [
        ({"profile": "profile.json"}, ["--config", "conf/governor.json"],
         ["conf/governor.json", "{tmp}/conf/profile.json"], 0),
        (None, ["--profile", "conf/profile.json"], ["conf/profile.json"], 0),
        ({"profile": "profile.json"},
         ["--config", "conf/governor.json", "--profile", "conf/profile.json"],
         ["conf/governor.json", "conf/profile.json"], 0),
        ({"profile": 5}, ["--config", "conf/governor.json"], ["conf/governor.json"], 2),
    ],
    ids=["config-profile", "cli-profile", "cli-profile-over-config", "config-fails"],
)
def test_govern_manifest_names_the_config_and_the_profile_it_loaded(
    monkeypatch, capsys, tmp_path, config, argv, inputs, code
):
    # a relative profile in the config resolves next to the config, not the
    # working directory, and that resolved path is the one the manifest names
    conf = tmp_path / "conf"
    conf.mkdir()
    save_profile(make_profile(), conf / "profile.json")
    if config is not None:
        (conf / "governor.json").write_text(json.dumps(config))
    monkeypatch.chdir(tmp_path)
    got, _ = _govern_stdin(
        monkeypatch, capsys,
        [{"type": "cmd", "vx": 1.0, "vy": 0.0, "vz": 0.0, "t_s": 0.1}],
        extra_args=argv, out=tmp_path / "gov",
    )
    assert got == code
    manifest = json.loads((tmp_path / "gov" / "run_manifest.json").read_text())
    assert manifest["inputs"] == [p.format(tmp=tmp_path.resolve()) for p in inputs]


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
    assert row[1] == "1.41421356e+200" and row[6] == "false"


def test_govern_malformed_stream_exits_protocol(
    monkeypatch, capsys, tmp_path, profile_path
):
    monkeypatch.setattr("sys.stdin", stdin_of("{not json\n"))
    code = main(
        ["govern", "--stdin", "--profile", str(profile_path), "--out", str(tmp_path)]
    )
    assert code == 3
    captured = capsys.readouterr()
    assert json.loads(captured.out.splitlines()[0])["type"] == "error"
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    assert captured.err.splitlines() == [manifest["error"]]
    assert manifest["exit_code"] == 3 and manifest["error"].startswith("error: invalid JSON")


def test_govern_non_finite_reading_exits_protocol(
    monkeypatch, capsys, tmp_path, profile_path
):
    stream = '{"type":"range","d_m":NaN,"t_s":0}\n{"type":"cmd","vx":1,"vy":0,"vz":0,"t_s":0}\n'
    monkeypatch.setattr("sys.stdin", stdin_of(stream))
    code = main(
        ["govern", "--stdin", "--profile", str(profile_path), "--out", str(tmp_path)]
    )
    assert code == 3
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    reply = json.loads(lines[0])
    assert reply["type"] == "error" and "NaN" in reply["message"]


def test_govern_requires_profile(monkeypatch, tmp_path):
    monkeypatch.setattr("sys.stdin", stdin_of(""))
    assert main(["govern", "--stdin", "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("case", ["config-profile", "config-compliance-log", "scenario-profile"])
def test_a_json_path_that_holds_a_nul_exits_2_naming_it(tmp_path, capsys, monkeypatch, case):
    # open() raises a ValueError, not an OSError, for a NUL in a path: each
    # case ended in a traceback, exit 1 and a null exit_code. Each path
    # resolves from the directory of the file that holds it.
    monkeypatch.setattr("sys.stdin", stdin_of(""))
    doc = tmp_path / "doc.json"
    if case == "scenario-profile":
        scenario = json.loads((REPO_ROOT / "scenarios" / "three_humans_chest.json").read_text())
        scenario.pop("profile", None)
        scenario["profile_path"] = "x\0y"
        doc.write_text(json.dumps(scenario))
        argv = ["simulate", str(doc)]
        line = "error: embedded null byte: " + repr(str(tmp_path / "x\0y"))
    elif case == "config-profile":
        doc.write_text(json.dumps({"profile": "a\0b"}))
        argv = ["govern", "--stdin", "--config", str(doc)]
        line = "error: embedded null byte: " + repr(str(tmp_path / "a\0b"))
    else:
        doc.write_text(json.dumps({"compliance_log": "c\0.csv"}))
        profile = REPO_ROOT / "profiles" / "carbon_0deg.json"
        argv = ["govern", "--stdin", "--config", str(doc), "--profile", str(profile)]
        log = repr(str(tmp_path / "c\0.csv"))
        line = f"error: cannot open compliance log {log}: embedded null byte"
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [line]
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert (manifest["exit_code"], manifest["error"]) == (2, line)


_ANALYSIS_MODULES = (
    "impact_governor.cli", "impact_governor.dsp", "impact_governor.impact",
    "impact_governor.ingest",
)


def _blocked_entry(*blocked: str, watched: tuple[str, ...] = _ANALYSIS_MODULES,
                   script: Path | None = None) -> str:
    """Source of a ``python -c`` program that runs the entry point as ``python
    -m impact_governor``, or the ``script`` file, with the ``blocked``
    packages unimportable (a None entry in sys.modules makes their import
    fail), then lists the ``watched`` modules (by default the analysis
    modules) it loaded on stderr."""
    run = (f"runpy.run_path({str(script)!r}, run_name='__main__')" if script
           else "runpy.run_module('impact_governor', run_name='__main__')")
    return (
        "import runpy, sys\n"
        f"sys.modules.update(dict.fromkeys({blocked!r}))\n"
        "sys.argv = ['impact-governor', *sys.argv[1:]]\n"
        "rc = 0\n"
        "try:\n"
        f"    {run}\n"
        "except SystemExit as exc:\n"
        "    rc = exc.code\n"
        f"watched = {watched!r}\n"
        "print('loaded:', ','.join(m for m in watched if m in sys.modules), file=sys.stderr)\n"
        "sys.exit(rc)\n"
    )


_BLOCKED_ENTRY = _blocked_entry("numpy", "scipy")


#: govern --stdin at the face limit on the carbon profile, and its reply to a
#: 20 m/s command 0.1 s after a 4 m reading
_GOVERN_FACE = ["govern", "--stdin", "--body-region", "face",
                "--profile", str(REPO_ROOT / "profiles" / "carbon_0deg.json")]
_FACE_REPLY = ('{"type":"cmd_limited","vx":6.772305592894554,"vy":0.0,"vz":0.0,'
               '"cap_mps":6.772305592894554,"source":"force","t_s":%r}')


def _govern_blocked(tmp_path, entry):
    """Run govern --stdin through the ``entry`` program on one reading and one command."""
    stdin = (
        '{"type":"range","d_m":4.0,"t_s":0.0}\n'
        '{"type":"cmd","vx":20.0,"vy":0.0,"vz":0.0,"t_s":0.1}\n'
    )
    proc = subprocess.run(
        [sys.executable, "-c", entry, *_GOVERN_FACE, "--out", str(tmp_path / "gov")],
        input=stdin, capture_output=True, text=True, env=child_env(), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [_FACE_REPLY % 0.1]
    assert proc.stderr.splitlines() == ["loaded: "]


def test_govern_cli_runs_with_numpy_and_scipy_blocked(tmp_path):
    # govern runs in node, which loads neither cli nor the analysis stack
    _govern_blocked(tmp_path, _BLOCKED_ENTRY)


def test_govern_cli_runs_with_socket_and_datetime_blocked(tmp_path):
    # govern --stdin starts without socket, which only --udp needs, and the
    # manifest's time stamps need no datetime
    _govern_blocked(tmp_path, _blocked_entry("socket", "datetime"))
    manifest = json.loads((tmp_path / "gov" / "run_manifest.json").read_text())
    assert manifest["exit_code"] == 0


def test_govern_and_simulate_load_no_openssl(tmp_path):
    # config_sha256 comes from CPython's built-in SHA-256: hashlib would load
    # OpenSSL's libcrypto (_hashlib), about 3.5 MB resident, for one digest
    entry = _blocked_entry(watched=("_hashlib",))
    _govern_blocked(tmp_path, entry)
    proc = subprocess.run(
        [sys.executable, "-c", entry, "simulate",
         str(REPO_ROOT / "scenarios" / "three_humans_face.json"), "--out", str(tmp_path / "sim")],
        capture_output=True, text=True, env=child_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines() == ["loaded: "]
    for run in ("gov", "sim"):
        digest = json.loads((tmp_path / run / "run_manifest.json").read_text())["config_sha256"]
        assert len(digest) == 64 and int(digest, 16) >= 0


def test_analyze_and_fit_load_no_masked_arrays_executors_or_openssl(tmp_path, campaign_dir):
    # numpy.ma, multiprocessing and concurrent.futures are start-up that neither
    # command uses (analyze forks its own workers), and _hashlib is OpenSSL
    entry = _blocked_entry(
        watched=("numpy.ma", "multiprocessing", "concurrent.futures", "_hashlib")
    )
    summaries = [str(tmp_path / "analyze" / f"summary_Carbon-0deg_v{v}.json")
                 for v in ("3", "3.5", "4")]
    for argv in (["analyze", str(campaign_dir), "--out", str(tmp_path / "analyze")],
                 ["fit", *summaries, "--out", str(tmp_path / "fit")]):
        proc = subprocess.run([sys.executable, "-c", entry, *argv], capture_output=True,
                              text=True, env=child_env(), timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines()[-1] == "loaded: "


@pytest.mark.parametrize("demo", ["04_simulation.py", "05_streaming_governor.py"])
def test_the_simulation_and_streaming_demos_load_no_numpy(demo):
    # they show the runtime side (sim, governor, stream), which needs no numpy
    entry = _blocked_entry(watched=("numpy",), script=REPO_ROOT / "demos" / demo)
    proc = subprocess.run([sys.executable, "-c", entry], capture_output=True, text=True,
                          env=child_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines() == ["loaded: "]


def _govern_trace(seed: int = 28, seconds: int = 12) -> str:
    """A seeded NDJSON trace of 2031 messages: commands at 50 Hz, odometry at
    100 Hz and range at 20 Hz. A person passes close twice, so the ramp cap
    moves through none, iso and force; a half-second range dropout trips the
    stale failsafe, and one reading is stamped before the one it follows."""
    rng = random.Random(seed)
    events = sorted(
        (i / hz + phase, kind)
        for kind, hz, phase in (("cmd", 50, 0.003), ("odom", 100, 0.001), ("range", 20, 0.0))
        for i in range(seconds * hz)
    )
    lines = []
    for t, kind in events:
        if kind == "range":
            if 6.0 <= t < 6.5:
                continue
            d = min(math.hypot(1.5, 6.0 * (t - 3.0)), math.hypot(4.0, 5.0 * (t - 8.5)), 60.0)
            lines.append('{"type":"range","d_m":%.4f,"t_s":%.4f}' % (d + rng.gauss(0.0, 0.05), t))
            if round(t * 20) == 200:
                lines.append('{"type":"range","d_m":%.4f,"t_s":%.4f}' % (d, t - 0.3))
        elif kind == "odom":
            v = [rng.gauss(0.0, 2.0) for _ in range(3)]
            lines.append('{"type":"odom","vx":%.4f,"vy":%.4f,"vz":%.4f,"t_s":%.4f}' % (*v, t))
        else:
            v = [rng.uniform(-12.0, 12.0), rng.uniform(-12.0, 12.0), rng.uniform(-1.0, 1.0)]
            lines.append('{"type":"cmd","vx":%.4f,"vy":%.4f,"vz":%.4f,"t_s":%.4f}' % (*v, t))
    return "".join(line + "\n" for line in lines)


#: sha256 of govern's stdout and compliance.csv for ``_govern_trace()``; a
#: change that speeds up the stream must leave these bytes as they are
GOVERN_DIGESTS = (
    "026b82ea7374a2bad310c756c6677a20242e53ba252acf98ccf472507251f274",
    "2a114ba4eb4267b61027503b60394609d879de5b2dfda3a5aa27bf14aa97ec6f",
)


def test_govern_writes_the_pinned_bytes(tmp_path):
    trace = _govern_trace()
    proc = subprocess.run(
        [sys.executable, "-m", "impact_governor", *_GOVERN_FACE, "--mode", "ramp",
         "--out", str(tmp_path / "gov")],
        input=trace.encode("utf-8"), capture_output=True, env=child_env(), timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    compliance = (tmp_path / "gov" / "compliance.csv").read_bytes()
    rows = [line.split(",") for line in compliance.decode("utf-8").splitlines()[1:]]
    # the trace covers what it says it does
    assert trace.count("\n") == 2031 and '"type":"odom"' in trace
    assert {row[5] for row in rows} == {"none", "iso", "force", "stale-failsafe"}
    assert [row[7] for row in rows].count("stale-range") == 1
    digests = tuple(hashlib.sha256(data).hexdigest() for data in (proc.stdout, compliance))
    assert digests == GOVERN_DIGESTS


def _read_reply(fd: int, timeout_s: float) -> bytes:
    """One reply line from the pipe ``fd``; b"" if none is complete in time."""
    data, deadline = b"", time.monotonic() + timeout_s
    while not data.endswith(b"\n"):
        ready, _, _ = select.select([fd], [], [], max(0.0, deadline - time.monotonic()))
        if not ready:
            return b""
        chunk = os.read(fd, 1)
        if not chunk:
            return data
        data += chunk
    return data


def test_govern_answers_a_live_stream_before_the_next_message(tmp_path):
    # a live stream sends one message and waits for its reply: the reply must
    # come out while govern waits for input, with stdout block-buffered too
    env = {k: v for k, v in child_env().items() if k != "PYTHONUNBUFFERED"}
    with open(tmp_path / "stderr", "wb") as err, subprocess.Popen(
        [sys.executable, "-m", "impact_governor", *_GOVERN_FACE, "--out", str(tmp_path / "gov")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err, env=env, bufsize=0,
    ) as proc:
        try:
            replies = []
            for k in range(1, 6):
                for msg in (
                    {"type": "range", "d_m": 4.0, "t_s": k / 10 - 0.05},
                    {"type": "odom", "vx": 1.0, "vy": 0.0, "vz": 0.0, "t_s": k / 10 - 0.01},
                    {"type": "cmd", "vx": 20.0, "vy": 0.0, "vz": 0.0, "t_s": k / 10},
                ):
                    proc.stdin.write(json.dumps(msg).encode() + b"\n")
                reply = _read_reply(proc.stdout.fileno(), 10.0).decode()
                assert reply, f"no reply to command {k} while govern waits for input"
                replies.append(reply)
            proc.stdin.close()
            assert proc.wait(timeout=30) == 0, (tmp_path / "stderr").read_text()
        finally:
            if proc.poll() is None:
                proc.kill()
    assert replies == [_FACE_REPLY % (k / 10) + "\n" for k in range(1, 6)]


@pytest.mark.parametrize("argv, code", [(["--version"], 0), (["--help"], 0), ([], 2)],
                         ids=["version", "help", "bare"])
def test_help_version_and_usage_error_load_no_analysis_stack(argv, code):
    # the one parser lives in node: help, the version and a usage error need
    # neither cli nor numpy and scipy, and read the same as an unblocked run
    env = {**child_env(), "COLUMNS": "80"}
    blocked = subprocess.run([sys.executable, "-c", _BLOCKED_ENTRY, *argv],
                             capture_output=True, text=True, env=env, timeout=60)
    plain = subprocess.run([sys.executable, "-m", "impact_governor", *argv],
                           capture_output=True, text=True, env=env, timeout=120)
    assert blocked.returncode == plain.returncode == code
    assert blocked.stdout == plain.stdout
    assert blocked.stderr == plain.stderr + "loaded: \n"


def test_analysis_commands_write_the_same_files_with_scipy_blocked(tmp_path, campaign_dir):
    # scipy is the tests' oracle only: analyze, fit, report and simulate run
    # without it and write what an unblocked run writes
    summaries = [f"analyze/summary_Carbon-0deg_v{v}.json" for v in ("3", "3.5", "4")]
    commands = [
        ["analyze", str(campaign_dir), "--out", "analyze"],
        ["fit", *summaries, "--out", "fit"],
        ["report", "analyze/metrics.csv", *summaries, "fit/profile_Carbon-0deg.json",
         "--out", "report"],
        ["simulate", str(REPO_ROOT / "scenarios" / "three_humans_face.json"), "--out", "sim"],
    ]
    runs = {}
    for name, entry in (("blocked", ["-c", _blocked_entry("scipy")]),
                        ("plain", ["-m", "impact_governor"])):
        work = tmp_path / name
        work.mkdir()
        procs = [subprocess.run([sys.executable, *entry, *argv], cwd=work, capture_output=True,
                                text=True, env=child_env(), timeout=120)
                 for argv in commands]
        files = {str(p.relative_to(work)): p.read_bytes() for p in sorted(work.rglob("*"))
                 if p.is_file() and p.name != "run_manifest.json"}
        runs[name] = procs, files

    (blocked, blocked_files), (plain, plain_files) = runs["blocked"], runs["plain"]
    for argv, b, p in zip(commands, blocked, plain):
        assert b.returncode == p.returncode == 0, (argv[0], b.stderr)
        assert b.stdout == p.stdout
        *err, loaded = b.stderr.splitlines()
        assert err == p.stderr.splitlines() and loaded.startswith("loaded: ")
    assert {"analyze/metrics.csv", "fit/profile_Carbon-0deg.json", "report/report.md",
            "sim/summary.json"} <= set(plain_files)
    assert blocked_files == plain_files


@pytest.mark.parametrize(
    "argv, code, first_line",
    [
        (["govern", "--help"], 0, "usage: impact-governor govern [-h]"),
        (["govern", "--out", "{tmp}/out"], 2, "usage: impact-governor govern [-h]"),
        (["govern", "--stdin", "--config", "{tmp}/cfg.json", "--profile", "{carbon}",
          "--out", "{tmp}/out"], 2, "error: bad governor config: mode must be"),
        (["govern", "--stdin", "--profile", "{tmp}/ghost.json", "--out", "{tmp}/out"], 2,
         "error: [Errno 2] No such file or directory: "),
        (["--version"], 0, "0.1.0"),
        (["analyze", "{tmp}/nope", "--out", "{tmp}/out"], 2, "error: not a directory: "),
        (["govern", "--stdin", "--out", "{tmp}/out", "--bogus"], 2,
         "usage: impact-governor [-h] [--version]"),
    ],
    ids=["govern-help", "govern-no-transport", "govern-bad-config",
         "govern-missing-profile", "version", "analyze-missing-dir", "govern-unknown-flag"],
)
def test_module_routes_like_cli_main(tmp_path, monkeypatch, capsys, argv, code, first_line):
    # python -m impact_governor and cli.main are one entry point with one
    # parser: the same exit code, stdout and stderr for every command
    (tmp_path / "cfg.json").write_text(json.dumps({"mode": "bogus"}))
    carbon = REPO_ROOT / "profiles" / "carbon_0deg.json"
    argv = [a.format(tmp=tmp_path, carbon=carbon) for a in argv]
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    monkeypatch.setattr("sys.stdin", stdin_of(""))
    try:
        in_process = main(argv)
    except SystemExit as exc:
        in_process = exc.code
    captured = capsys.readouterr()

    proc = subprocess.run(
        [sys.executable, "-m", "impact_governor", *argv], input="", capture_output=True,
        text=True, env={**child_env(), "COLUMNS": "80"}, timeout=120,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (in_process, captured.out, captured.err)
    assert proc.returncode == code
    assert (proc.stdout or proc.stderr).startswith(first_line)


def test_govern_manifest_reports_force_cap_evidence(monkeypatch, capsys, caplog, tmp_path):
    # the face cap on the carbon profile lies past the 3-4 m/s the bench measured
    caplog.set_level("INFO", logger="impact_governor.node")
    out = tmp_path / "gov"
    code, stdout = _govern_stdin(
        monkeypatch, capsys,
        [
            {"type": "range", "d_m": 4.0, "t_s": 0.0},
            {"type": "cmd", "vx": 20.0, "vy": 0.0, "vz": 0.0, "t_s": 0.1},
        ],
        extra_args=["--profile", str(REPO_ROOT / "profiles" / "carbon_0deg.json"),
                    "--body-region", "face"],
        out=out,
    )
    assert code == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    evidence = manifest["governor"]
    v_force = json.loads(stdout.splitlines()[0])["cap_mps"]
    assert evidence["v_force_mps"] == v_force
    assert evidence["s_zone_m"] == pytest.approx(8.4)
    assert evidence["speed_domain_mps"] == [3.0, 4.0]  # the fitted domain
    assert evidence["extrapolation_ratio"] == v_force / 4.0 > 1.0
    assert evidence["extrapolated"] is True
    assert evidence["dt_s"] == 0.036
    assert manifest["config_sha256"] == _sha256_of(GovernorConfig(f_star_n=65.0).to_dict())
    up = [r.getMessage() for r in caplog.records if r.getMessage().startswith("governor up")]
    assert up == [
        "governor up: v_force=6.772 m/s, zone=8.4 m, mode=binary, measured speeds "
        "3-4 m/s, extrapolation ratio 1.69, dt=0.036 s"
    ]


def test_govern_udp_port_out_of_range_is_a_usage_error(capsys, tmp_path, profile_path):
    for port in ("70000", "-5"):
        with pytest.raises(SystemExit) as exc:
            main(["govern", "--udp", port, "--profile", str(profile_path),
                  "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert err[-1] == (
            f"impact-governor govern: error: argument --udp: port must be 0-65535, got {port}"
        )
    assert not (tmp_path / "out").exists()


def test_govern_udp_port_in_use_exits_runtime(capsys, tmp_path, profile_path):
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as held:
        held.bind(("127.0.0.1", 0))
        port = held.getsockname()[1]
        code = main(["govern", "--udp", str(port), "--profile", str(profile_path),
                     "--out", str(tmp_path)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot bind UDP port {port}: ")
    assert len(err.splitlines()) == 1
    assert json.loads((tmp_path / "run_manifest.json").read_text())["subcommand"] == "govern"


def _sigterm_mid_stream():
    yield '{"type":"range","d_m":4.0,"t_s":0.0}\n'
    os.kill(os.getpid(), signal.SIGTERM)
    yield '{"type":"range","d_m":4.0,"t_s":0.1}\n'


def _raise(exc):
    def transport(*args, **kwargs):
        raise exc

    return transport


@pytest.mark.parametrize(
    "stdin, patch, code, error",
    [
        ('{"type":"range","d_m":4.0,"t_s":0.0}\n', None, 0, None),  # EOF
        ("{not json\n", None, 3,  # the error goes out as a reply, and to stderr once
         "error: invalid JSON: Expecting property name enclosed in double quotes: "
         "line 1 column 2 (char 1)"),
        (_sigterm_mid_stream, None, 0, None),
        ("", _raise(KeyboardInterrupt()), 0, None),
        ("", _raise(ProtocolError("stream framing lost")), 3, "error: stream framing lost"),
        ("", _raise(RuntimeError("bug")), None, None),  # a traceback, no exit code
    ],
    ids=["eof", "malformed-line", "sigterm", "interrupt", "protocol-error", "unmapped"],
)
def test_govern_manifest_records_exit_status(
    monkeypatch, capsys, tmp_path, profile_path, stdin, patch, code, error
):
    monkeypatch.setattr("sys.stdin", stdin_of(stdin() if callable(stdin) else stdin))
    if patch is not None:
        monkeypatch.setattr("impact_governor.node.run_stream", patch)
    argv = ["govern", "--stdin", "--profile", str(profile_path), "--out", str(tmp_path)]
    if code is None:
        with pytest.raises(RuntimeError):
            main(argv)
    elif callable(stdin):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == code
    else:
        assert main(argv) == code
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    assert (manifest["exit_code"], manifest["error"]) == (code, error)
    if error is not None:
        assert capsys.readouterr().err.splitlines() == [error]


@pytest.mark.parametrize(
    "last, code",
    [("", 0), ("{oops\n", 3), (None, 0)],
    ids=["eof", "malformed-line", "sigterm"],
)
def test_govern_writes_every_reply_it_made_before_it_stops(
    monkeypatch, capsys, tmp_path, profile_path, last, code
):
    # the replies of one read are written together; however the stream ends,
    # each reply made before it ended is on stdout
    commands = [{"type": "cmd", "vx": 20.0, "vy": 0.0, "vz": 0.0, "t_s": t} for t in (0.1, 0.2)]
    text = "".join(json.dumps(m) + "\n" for m in [{"type": "range", "d_m": 4.0, "t_s": 0.0},
                                                  *commands])
    if last is None:  # SIGTERM once the second command is logged, mid-read
        write = ComplianceLog.write

        def write_then_term(self, record):
            write(self, record)
            if record.timestamp == 0.2:
                os.kill(os.getpid(), signal.SIGTERM)

        monkeypatch.setattr(ComplianceLog, "write", write_then_term)
        text += json.dumps(dict(commands[0], t_s=0.3)) + "\n"
    else:
        text += last
    monkeypatch.setattr("sys.stdin", stdin_of(text))
    argv = ["govern", "--stdin", "--profile", str(profile_path), "--out", str(tmp_path)]
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    replies = [json.loads(r) for r in capsys.readouterr().out.splitlines()]
    assert rc == code
    assert [r.get("t_s") for r in replies] == [0.1, 0.2] + ([None] if code == 3 else [])


@pytest.mark.parametrize("stream, redirect", [("stdin", "<&-"), ("stdout", ">&-")])
def test_govern_refuses_a_closed_stdin_or_stdout(tmp_path, stream, redirect):
    # a process started with that stream closed sees sys.stdin or sys.stdout as None
    proc = subprocess.run(
        ["sh", "-c", f'exec "$@" {redirect}', "sh", sys.executable, "-m", "impact_governor",
         "govern", "--stdin", "--profile", str(REPO_ROOT / "profiles" / "carbon_0deg.json"),
         "--out", str(tmp_path)],
        input="", capture_output=True, text=True, env=child_env(), timeout=60,
    )
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    assert (proc.returncode, manifest["exit_code"]) == (3, 3)
    assert proc.stderr.splitlines() == [manifest["error"]] == [f"error: {stream} is closed"]


def test_govern_whose_reply_reader_has_gone_exits_transport_error(tmp_path):
    # with stdout buffered, as without PYTHONUNBUFFERED, the failed reply stays
    # in its buffer, and the interpreter's flush at exit would fail on it again
    env = {k: v for k, v in child_env().items() if k != "PYTHONUNBUFFERED"}
    cmd = '{"type":"cmd","vx":1.0,"vy":0.0,"vz":0.0,"t_s":0.1}\n'
    proc = subprocess.Popen(
        [sys.executable, "-m", "impact_governor", "govern", "--stdin", "--profile", _CARBON,
         "--out", str(tmp_path)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )
    with proc:
        proc.stdin.write(cmd)
        proc.stdin.flush()
        assert json.loads(proc.stdout.readline())["type"] == "cmd_limited"
        proc.stdout.close()  # the reader goes; the next reply meets a broken pipe
        proc.stdin.write(cmd)
        proc.stdin.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    assert (code, manifest["exit_code"]) == (3, 3)
    assert err.splitlines() == [manifest["error"]] == ["error: cannot write replies: Broken pipe"]


def test_govern_whose_compliance_log_cannot_grow_exits_input_error(tmp_path):
    # ulimit -f 8 keeps every file of the run under 8 blocks; Python ignores
    # SIGXFSZ, so a write past that limit fails with EFBIG
    trace = "".join(
        f'{{"type":"cmd","vx":1.0,"vy":0.0,"vz":0.0,"t_s":{0.1 + i * 1e-3!r}}}\n'
        for i in range(2000)
    )
    proc = subprocess.run(
        ["sh", "-c", 'ulimit -f 8 && exec "$@"', "sh", sys.executable, "-m", "impact_governor",
         "govern", "--stdin", "--profile", _CARBON, "--out", str(tmp_path)],
        input=trace, capture_output=True, text=True, env=child_env(), timeout=120,
    )
    log = tmp_path / "compliance.csv"
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    assert (proc.returncode, manifest["exit_code"]) == (2, 2)
    assert proc.stderr.splitlines() == [manifest["error"]] == [
        f"error: cannot write compliance log {log}: File too large"
    ]
    assert 0 < len(proc.stdout.splitlines()) < 2000


@pytest.mark.parametrize(
    "redirect", ["2>&-", "2</dev/null", "2>/dev/full"], ids=["closed", "read-only", "full"]
)
def test_a_stderr_that_takes_no_line_changes_no_exit_status_or_output(tmp_path, redirect):
    # closed, sys.stderr is None (and print would fall back to stdout); open for
    # reading only or on a full device, each write to it fails. Buffered
    # stderr, as without PYTHONUNBUFFERED, keeps a failed line for the flush
    # at exit.
    env = {k: v for k, v in child_env().items() if k != "PYTHONUNBUFFERED"}
    campaign = tmp_path / "campaign"
    make_campaign(campaign, speeds=(3.0, 3.5), trials_per_speed=2, seed=5)
    _set_cell(campaign / "trial_001_force.csv", 730, 2, "abc")
    thin = tmp_path / "thin"  # one trial short: only a log record on stderr
    make_campaign(thin, speeds=(3.0, 3.5), trials_per_speed=2, seed=5)
    (thin / "trial_001.json").unlink()
    ghost = tmp_path / "ghost.json"
    profile = str(REPO_ROOT / "profiles" / "carbon_0deg.json")
    runs = {
        "fit": (["fit", str(ghost)], "", 2,
                f"error: [Errno 2] No such file or directory: '{ghost}'"),
        "analyze": (["analyze", str(campaign)], "", 2, None),  # one trial rejected
        "thin": (["analyze", str(thin)], "", 0, None),
        "govern": (["govern", "--stdin", "--profile", profile], "{not json\n", 3,
                   "error: invalid JSON: Expecting property name enclosed in double quotes: "
                   "line 1 column 2 (char 1)"),
    }
    for name, (argv, stdin, code, error) in runs.items():
        out = tmp_path / name
        proc = subprocess.run(
            ["sh", "-c", f'exec "$@" {redirect}', "sh", sys.executable, "-m", "impact_governor",
             *argv, "--out", str(out)],
            input=stdin, capture_output=True, text=True, env=env, timeout=120,
        )
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert proc.returncode == manifest["exit_code"] == code, name
        assert manifest["error"] == error
        assert "error:" not in proc.stdout
    for name in ("analyze", "thin"):
        assert (tmp_path / name / "metrics.csv").is_file()
        assert [p.name for p in sorted((tmp_path / name).glob("summary_*.json"))] == [
            "summary_Carbon-0deg_v3.5.json"
        ]


def test_govern_manifest_records_a_failed_bind(capsys, tmp_path, profile_path):
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as held:
        held.bind(("127.0.0.1", 0))
        port = held.getsockname()[1]
        code = main(["govern", "--udp", str(port), "--profile", str(profile_path),
                     "--out", str(tmp_path)])
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    assert (code, manifest["exit_code"]) == (3, 3)
    assert manifest["error"].startswith(f"error: cannot bind UDP port {port}: ")
    assert capsys.readouterr().err.splitlines() == [manifest["error"]]


_HEADER = "t_s,input_speed_mps,output_speed_mps,d_m,cap_mps,cap_source,violated,flags"
#: the compliance header written before the s_m column was dropped
_NINE_COLUMN_HEADER = _HEADER.replace(",d_m,", ",d_m,s_m,") + "\n"
_HEADER_ERROR = "error: compliance log {log} does not start with the header '" + _HEADER + "'"


@pytest.mark.parametrize(
    "name, make, error",
    [
        ("audit.csv", Path.mkdir, "error: cannot open compliance log {log}: Is a directory"),
        ("missing/audit.csv", None,
         "error: cannot open compliance log {log}: No such file or directory"),
        ("audit.csv", lambda log: log.write_text("t_s,foo\n"), _HEADER_ERROR),
        ("audit.csv", lambda log: log.write_text(_NINE_COLUMN_HEADER + "0.1,20,6.77,5,8.4,6.77,"
                                                 "force,false,\n"), _HEADER_ERROR),
        ("audit.csv", lambda log: log.write_text(_HEADER), _HEADER_ERROR),
    ],
    ids=["directory", "missing-directory", "foreign-header", "nine-column-header",
         "header-without-newline"],
)
def test_govern_refuses_a_compliance_log_it_cannot_use(
    monkeypatch, capsys, tmp_path, profile_path, name, make, error
):
    log = tmp_path / name
    if make is not None:
        make(log)
    before = log.read_bytes() if log.is_file() else None
    config = tmp_path / "governor.json"
    config.write_text(json.dumps({"compliance_log": name}))
    handler = signal.getsignal(signal.SIGTERM)
    monkeypatch.setattr(
        "sys.stdin", stdin_of('{"type":"cmd","vx":1.0,"vy":0.0,"vz":0.0,"t_s":0.1}\n')
    )
    code = main(["govern", "--stdin", "--config", str(config), "--profile", str(profile_path),
                 "--out", str(tmp_path / "out")])
    manifest = json.loads((tmp_path / "out" / "run_manifest.json").read_text())
    captured = capsys.readouterr()
    assert (code, manifest["exit_code"], manifest["error"]) == (2, 2, error.format(log=log))
    assert captured.err.splitlines() == [manifest["error"]]
    assert captured.out == ""  # refused before the first message
    assert signal.getsignal(signal.SIGTERM) is handler
    assert (log.read_bytes() if log.is_file() else None) == before


def test_govern_udp_malformed_datagram_exits_protocol(monkeypatch, capsys, tmp_path,
                                                      profile_path):
    bound = queue.Queue()
    monkeypatch.setattr("impact_governor.node.run_udp",
                        functools.partial(node.run_udp, on_bound=bound.put, poll_s=0.02))
    replies = []

    def client():  # govern serves in the main thread, where it can set its SIGTERM handler
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
            sock.settimeout(5.0)
            addr = ("127.0.0.1", bound.get(timeout=5.0))
            # the junk goes out whatever comes back, so the server always ends
            sock.sendto(b'{"type":"cmd","vx":1.0,"vy":0.0,"vz":0.0,"t_s":0.1}', addr)
            sock.sendto(b"junk{", addr)
            for _ in range(2):
                replies.append(json.loads(sock.recvfrom(65536)[0]))

    sender = threading.Thread(target=client, daemon=True)
    sender.start()
    code = main(["govern", "--udp", "0", "--profile", str(profile_path), "--out", str(tmp_path)])
    sender.join(timeout=5.0)
    assert not sender.is_alive()
    assert [r["type"] for r in replies] == ["cmd_limited", "error"]
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    error = "error: " + replies[1]["message"]
    assert error.startswith("error: invalid JSON: ")
    assert (code, manifest["exit_code"], manifest["error"]) == (3, 3, error)
    assert capsys.readouterr().err.splitlines() == [error]
    assert len((tmp_path / "compliance.csv").read_text().splitlines()) == 2  # header, the cmd


def test_govern_udp_port_zero_serves_udp(monkeypatch, tmp_path, profile_path):
    # port 0 asks for any free port; it must not fall through to stdin
    served = []

    def fake_udp(runtime, port, **kwargs):
        served.append(port)
        return 0

    monkeypatch.setattr("impact_governor.node.run_udp", fake_udp)
    monkeypatch.setattr("sys.stdin", stdin_of('{"type":"bogus"}\n'))
    code = main(["govern", "--udp", "0", "--profile", str(profile_path), "--out", str(tmp_path)])
    assert (code, served) == (0, [0])


def _case_protocol(tmp_path, monkeypatch):
    def broken_transport(*args, **kwargs):
        raise ProtocolError("stream framing lost")

    monkeypatch.setattr("impact_governor.node.run_stream", broken_transport)
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


def _case_profile_edit(edit):
    def case(tmp_path, monkeypatch):
        save_profile(make_profile(), tmp_path / "p.json")
        data = edit(json.loads((tmp_path / "p.json").read_text()))
        (tmp_path / "p.json").write_text(json.dumps(data))
        return ["govern", "--stdin", "--profile", str(tmp_path / "p.json")]

    return case


def _case_profile_restitution(**values):
    return _case_profile_edit(lambda d: {**d, "restitution": {**d["restitution"], **values}})


def _without_coeffs(data):
    del data["restitution"]["coeffs"]
    return data


def _case_bad_scenario(tmp_path, monkeypatch):
    (tmp_path / "s.json").write_text(json.dumps({"name": "x", "goals": [[1, 1]]}))
    return ["simulate", str(tmp_path / "s.json")]


def _case_scenario_profile_path(value):
    def case(tmp_path, monkeypatch):
        data = json.loads((REPO_ROOT / "scenarios" / "three_humans_chest.json").read_text())
        (tmp_path / "s.json").write_text(json.dumps({**data, "profile_path": value}))
        return ["simulate", str(tmp_path / "s.json")]

    return case


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


def _case_output_is_a_directory(name, make_argv):
    """The argv that ``make_argv(tmp_path)`` gives, run where the output
    ``name`` is a directory."""
    def case(tmp_path, monkeypatch):
        (tmp_path / "out" / name).mkdir(parents=True)
        return make_argv(tmp_path)

    return case


def _campaign_argv(tmp_path):
    make_campaign(tmp_path / "campaign", speeds=(3.0,), trials_per_speed=2, seed=5)
    return ["analyze", str(tmp_path / "campaign")]


def _fit_argv(tmp_path):
    paths = []
    for v, ec in ((3.0, 0.10), (3.5, 0.12), (4.0, 0.14)):
        paths.append(_write(tmp_path / f"s{v}.json", json.dumps(_summary_dict(v, ec))))
    return ["fit", *map(str, paths), "--degree", "1"]


_CHEST = str(REPO_ROOT / "scenarios" / "three_humans_chest.json")
_CARBON = str(REPO_ROOT / "profiles" / "carbon_0deg.json")
_OUTPUT_IS_A_DIRECTORY = {
    "simulate-trajectory": ("trajectory.csv", lambda tmp: ["simulate", _CHEST]),
    "simulate-summary": ("summary.json", lambda tmp: ["simulate", _CHEST]),
    "analyze-metrics": ("metrics.csv", _campaign_argv),
    "analyze-summary": ("summary_Carbon-0deg_v3.json", _campaign_argv),
    "fit-profile": ("profile_Bad.json", _fit_argv),
    "report": ("report.md", lambda tmp: ["report", _CARBON]),
}


def _case_file(name, data, *argv):
    """``argv`` with "BAD" replaced by the file ``name`` holding the bytes ``data``."""
    def case(tmp_path, monkeypatch):
        (tmp_path / name).write_bytes(data)
        return [str(tmp_path / name) if a == "BAD" else a for a in argv]

    return case


#: the argv of each command that reads a JSON input file, "BAD" standing for the file
_JSON_READERS = {
    "fit": ("fit", "BAD"),
    "report": ("report", "BAD"),
    "simulate": ("simulate", "BAD"),
    "govern-profile": ("govern", "--stdin", "--profile", "BAD"),
    "govern-config": ("govern", "--stdin", "--config", "BAD"),
}

def _case_directory(name, *argv):
    """``argv`` with "BAD" replaced by the directory ``name``."""
    def case(tmp_path, monkeypatch):
        (tmp_path / name).mkdir()
        return [str(tmp_path / name) if a == "BAD" else a for a in argv]

    return case


def _case_scenario_profile_is_a_directory(tmp_path, monkeypatch):
    data = json.loads((REPO_ROOT / "scenarios" / "three_humans_chest.json").read_text())
    (tmp_path / "profile.json").mkdir()
    (tmp_path / "s.json").write_text(json.dumps({**data, "profile_path": "profile.json"}))
    return ["simulate", str(tmp_path / "s.json")]


def _case_config_profile_empty(tmp_path, monkeypatch):
    # "" resolves to the config's own directory
    (tmp_path / "cfg.json").write_text(json.dumps({"profile": ""}))
    return ["govern", "--stdin", "--config", str(tmp_path / "cfg.json")]


#: per input that is a directory: the case and its error line
_INPUT_IS_A_DIRECTORY = {
    **{reader: (_case_directory("bad.json", *argv),
                "error: [Errno 21] Is a directory: '{tmp}/bad.json'")
       for reader, argv in _JSON_READERS.items()},
    "report-csv": (_case_directory("bad.csv", "report", "BAD"),
                   "error: [Errno 21] Is a directory: '{tmp}/bad.csv'"),
    "scenario-profile": (_case_scenario_profile_is_a_directory,
                         "error: [Errno 21] Is a directory: '{tmp}/profile.json'"),
    "governor-config-empty-profile": (_case_config_profile_empty,
                                      "error: [Errno 21] Is a directory: '{tmp}'"),
}

_NOT_UTF8 = ("error: {tmp}/bad.json: invalid JSON input: "
             "'utf-8' codec can't decode byte 0xff in position 11: invalid start byte")

#: per kind of JSON file that does not decode: its name, its bytes and the
#: start of the error line ({tmp} is the test's directory)
_UNDECODABLE = {
    "not-utf8": ("bad.json", b'{"name": "x\xff"}', _NOT_UTF8),
    "huge-int": ("huge.json", b'{"schema":1,"n":' + b"1" * 5000 + b"}",
                 "error: {tmp}/huge.json: invalid JSON input: "
                 "Exceeds the limit (4300 digits) for integer string conversion"),
    "deep": ("deep.json", b"[" * 200_000,
             "error: {tmp}/deep.json: invalid JSON input: maximum recursion depth exceeded"),
}


@pytest.mark.parametrize(
    "case, code, first_line",
    [
        (_case_protocol, 3, "error: stream framing lost"),
        (_case_unphysical_fit, 4, "error: fitted model breaks physics: "),
        (_case_config_not_object, 2, "error: bad governor config: expected a JSON object, got "),
        (_case_unknown_body_region, 2, "error: unknown body_region 'elbow'"),
        (_case_config_value(body_region=["face"]), 2, "error: unknown body_region ['face']"),
        (_case_config_value(profile=5), 2, "error: bad governor config: profile must be a string"),
        (_case_config_profile_under_flag, 2,
         "error: bad governor config: profile must be a string, got 5"),
        (_case_config_value(compliance_log=5), 2,
         "error: bad governor config: compliance_log must be a string"),
        (_case_no_profile, 2, "error: govern needs an airframe profile (--profile or config)"),
        (_case_profile_restitution(coeffs=[1.5]), 2,
         "error: profile EC_r leaves [0, 1] on its domain"),
        (_case_profile_edit(_without_coeffs), 4,
         "error: profile: missing key 'restitution.coeffs'"),
        (_case_profile_restitution(coeffs=[]), 4,
         "error: profile: restitution.coeffs must be a non-empty list of finite numbers, got []"),
        (_case_profile_restitution(domain=[3.0]), 4,
         "error: profile: restitution.domain must be an [x, y] pair of finite numbers, got [3.0]"),
        (_case_profile_edit(lambda d: [d]), 4, "error: profile: expected a JSON object, got list"),
        (_case_profile_value(mass_kg="abc"), 4,
         "error: profile: mass_kg must be a finite number, got 'abc'"),
        (_case_bad_scenario, 2, "error: bad scenario definition: "),
        *[(_case_scenario_profile_path(value), 2,
           f"error: bad scenario definition: profile_path must be a string, got {value!r}")
          for value in (5, None, ["carbon_0deg.json"])],
        (_case_missing_file, 2, "error: [Errno 2] No such file or directory: "),
        (_case_bad_json, 2, "error: {tmp}/s.json: invalid JSON input: Expecting property name"),
        (_case_bad_summary, 2,
         "error: empty.json: not a configuration summary: missing key 'schema'"),
        (_case_bad_governor_config, 2, "error: bad governor config: mode must be"),
        (_case_bad_config_f_star, 2,
         "error: bad governor config: f_star_n must be a finite number, got 'lots'"),
        (_case_nan_f_star, 2, "error: bad governor config: f_star_n must be a finite number, got nan"),
        (_case_config_value(v_platform_max_mps=math.inf), 2,
         "error: bad governor config: v_platform_max_mps must be a finite number, got inf"),
        (_case_config_value(stale_cap_mps=True), 2,
         "error: bad governor config: stale_cap_mps must be a finite number, got True"),
        (_case_config_value(v_platform_max_mps=10**400), 2,
         "error: bad governor config: v_platform_max_mps must be a finite number, got 1000"),
        (_case_scenario_governor(c_m=10**400), 2,
         "error: bad governor config: c_m must be a finite number, got 1000"),
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
         "error: profile: f_max_ref_N must be a finite number, got nan"),
        (_case_profile_value(f_max_ref_N=-1.0), 4,
         "error: profile f_max_ref_N must be finite and > 0, got -1.0"),
        (_case_profile_value(f_max_ref_N=1.0, f_star_is_peak=True), 2,
         "error: bad governor config: peak target 140 N is an average target of "),
        (_case_profile_value(mass_kg=1e300, dt_s=1e-10, f_star_is_peak=True), 4,
         "error: profile force map is not finite on its measured speed domain (3.0, 4.0)"),
        (_case_profile_restitution(domain=[0.0, 0.0]), 4,
         "error: measured speed domain must be a positive interval, got (0.0, 0.0)"),
        (_case_profile_restitution(domain=[-1.0, 4.0]), 4,
         "error: measured speed domain must be a positive interval, got (-1.0, 4.0)"),
        *[(_case_file(name, data, *argv), 2, line)
          for name, data, line in _UNDECODABLE.values() for argv in _JSON_READERS.values()],
        (_case_file("bad.csv", b"configuration,v_in_mps\nCarbon\xff,3.0\n", "report", "BAD"), 2,
         "error: {tmp}/bad.csv: byte 0xff is not UTF-8"),
        *[(_case_output_is_a_directory(name, make_argv), 2,
           f"error: cannot open output {{tmp}}/out/{name}: Is a directory")
          for name, make_argv in _OUTPUT_IS_A_DIRECTORY.values()],
        *[(case, 2, line) for case, line in _INPUT_IS_A_DIRECTORY.values()],
    ],
    ids=["protocol", "invariant", "governor-config-not-object", "governor-config-body-region",
         "governor-config-body-region-list", "governor-config-profile-path",
         "governor-config-profile-path-under-flag",
         "governor-config-compliance-path",
         "ingest", "fit", "profile-no-coeffs", "profile-coeffs-empty", "profile-domain-short",
         "profile-not-object", "profile-mass-string",
         "scenario", "scenario-profile-path-int", "scenario-profile-path-null",
         "scenario-profile-path-list", "file-not-found", "json", "summary", "governor-config",
         "governor-config-f-star", "governor-config-nan-f-star", "governor-config-infinity",
         "governor-config-bool", "governor-config-huge-int",
         "scenario-governor-huge-int", "simulate-override", "simulate-nan-override",
         "governor-config-unknown-key", "scenario-governor-unknown-key",
         "scenario-governor-body-region", "governor-config-peak-string",
         "governor-config-peak-int", "profile-f-max-zero", "profile-f-max-nan",
         "profile-f-max-negative", "governor-config-peak-above-limit",
         "profile-average-force-overflow", "profile-domain-zero",
         "profile-domain-negative",
         *[f"{reader}-{kind}" for kind in _UNDECODABLE for reader in _JSON_READERS],
         "report-csv-not-utf8",
         *[f"{kind}-output-is-a-directory" for kind in _OUTPUT_IS_A_DIRECTORY],
         *[f"{kind}-input-is-a-directory" for kind in _INPUT_IS_A_DIRECTORY]],
)
def test_exit_code_per_exception_type(tmp_path, monkeypatch, capsys, case, code, first_line):
    monkeypatch.setattr("sys.stdin", stdin_of(""))
    argv = case(tmp_path, monkeypatch)
    assert main([*argv, "--out", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(first_line.format(tmp=tmp_path))
    manifest = json.loads((tmp_path / "out" / "run_manifest.json").read_text())
    assert (manifest["exit_code"], manifest["error"]) == (code, err[0])


def _json_decoding(tree: ast.Module) -> set[tuple[str, str]]:
    """The (function, json name) of each place in ``tree`` that names one of
    json's decoders; "<module>" for module level, and an import from json
    or under another name counts as a use by that name."""
    found = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.ImportFrom) and node.module == "json":
            found.update((where, f"from json import {a.name}") for a in node.names)
        elif isinstance(node, ast.Import):
            found.update((where, f"import json as {a.asname}")
                         for a in node.names if a.name == "json" and a.asname)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "json" and node.attr in ("load", "loads", "JSONDecoder")):
            found.add((where, f"json.{node.attr}"))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "<module>")
    return found


def test_every_json_input_file_decodes_through_read_json_file():
    # one owner per decode: read_json_file for files, parse_profile's text
    # branch, and stream's own message decoder; matched by name, not line text
    package = REPO_ROOT / "src" / "impact_governor"
    found = {
        (path.name, *use)
        for path in sorted(package.glob("*.py"))
        for use in _json_decoding(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert found == {
        ("errors.py", "read_json_file", "json.load"),
        ("profile.py", "parse_profile", "json.loads"),
        ("stream.py", "<module>", "json.JSONDecoder"),
    }
    assert _json_decoding(ast.parse("from json import load\ndef f():\n    json.loads(s)\n")) == {
        ("<module>", "from json import load"), ("f", "json.loads")
    }


_OPENERS = ("open", "read_text", "write_text", "read_bytes", "write_bytes",
            "loadtxt", "genfromtxt", "fromfile")


def _file_opening(tree: ast.Module) -> set[tuple[str, str]]:
    """The (scope, name) of each place in ``tree`` that names a file opener:
    ``open`` itself, or an attribute ``open``, ``read_text``, ``write_text``,
    ``read_bytes`` or ``write_bytes`` of anything (``Path.open``, ``os.open``,
    ``io.open`` too), or numpy's readers that open a path, ``loadtxt``,
    ``genfromtxt`` and ``fromfile``. The scope is the dotted path of the
    enclosing classes and functions, "<module>" at module level."""
    found = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = node.name if where == "<module>" else f"{where}.{node.name}"
        if isinstance(node, ast.Name) and node.id == "open":
            found.add((where, "open"))
        elif isinstance(node, ast.Attribute) and node.attr in _OPENERS:
            found.add((where, f".{node.attr}"))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "<module>")
    return found


def test_every_file_opens_through_errors_but_pipes_the_compliance_log_and_test_data():
    # errors.open_input and errors.write_output own every input and output file,
    # synthetic's test data included; cli opens only pipe file descriptors,
    # ComplianceLog keeps its own pinned error line, and ingest's one np.loadtxt
    # pass re-reads a stream that open_input has just opened
    package = REPO_ROOT / "src" / "impact_governor"
    found = {
        (path.name, *use)
        for path in sorted(package.glob("*.py"))
        for use in _file_opening(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert found == {
        ("errors.py", "open_input", "open"),
        ("errors.py", "write_output", "open"),
        ("ingest.py", "_parse_rows", ".loadtxt"),
        ("cli.py", "_worker", "open"),
        ("cli.py", "_join", "open"),
        ("cli.py", "_simulate_with_writer", "open"),
        ("cli.py", "_write_received.blocks", "open"),
        ("stream.py", "ComplianceLog.__init__", "open"),
    }
    sample = "def f(p):\n    p.read_text()\nclass C:\n    def g(self):\n        h = open\n"
    assert _file_opening(ast.parse(sample)) == {("f", ".read_text"), ("C.g", "open")}


@pytest.mark.parametrize(
    "subcommand, make, error",
    [
        ("analyze", lambda d: d / "nope", "error: not a directory: {path}"),
        ("fit", lambda d: d / "ghost.json",
         "error: [Errno 2] No such file or directory: '{path}'"),
        ("simulate", lambda d: _write(d / "s.json", "[1, 2]"),
         "error: bad scenario definition: expected a JSON object, got list"),
        ("report", lambda d: _write(d / "notes.txt", "hello"),
         "error: unrecognized report input: {path}"),
    ],
    ids=["analyze-missing-directory", "fit-missing-file", "simulate-json-list",
         "report-unrecognized-input"],
)
def test_every_subcommand_records_its_failure_in_the_manifest(
    tmp_path, capsys, subcommand, make, error
):
    path = make(tmp_path)
    code = main([subcommand, str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err.splitlines()
    manifest = json.loads((tmp_path / "out" / "run_manifest.json").read_text())
    assert (code, err) == (2, [error.format(path=path)])
    assert (manifest["exit_code"], manifest["error"]) == (code, err[0])
    assert (manifest["subcommand"], manifest["outputs"]) == (subcommand, [])


def _write(path, text):
    path.write_text(text)
    return path


@pytest.mark.parametrize("argv", [["analyze", "."], ["simulate", _CHEST], ["govern", "--stdin"]],
                         ids=["analyze", "simulate", "govern"])
@pytest.mark.parametrize("under, why", [(False, "File exists"), (True, "Not a directory")],
                         ids=["file", "under-a-file"])
def test_an_output_directory_that_cannot_be_made_exits_input_error(
    monkeypatch, capsys, tmp_path, argv, under, why
):
    # there is no directory to write a manifest into: the error line alone says it
    monkeypatch.setattr("sys.stdin", stdin_of(""))
    taken = _write(tmp_path / "taken", "a file\n")
    out = taken / "out" if under else taken
    assert main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: cannot create output directory {out}: {why}"]
    assert (captured.out, taken.read_text()) == ("", "a file\n")


#: per subcommand: an argv that exits 0, and the outputs it writes
_SUCCEEDS = {
    "analyze": (_campaign_argv, ["metrics.csv", "summary_Carbon-0deg_v3.json"]),
    "fit": (_fit_argv, ["profile_Bad.json"]),
    "govern": (lambda tmp: ["govern", "--stdin", "--profile", _CARBON], ["compliance.csv"]),
    "simulate": (lambda tmp: ["simulate", _CHEST], ["summary.json", "trajectory.csv"]),
    "report": (lambda tmp: ["report", _CARBON], ["report.md"]),
}


@pytest.mark.parametrize("subcommand", _SUCCEEDS)
def test_a_run_manifest_that_cannot_be_written_exits_input_error(
    monkeypatch, capsys, tmp_path, subcommand
):
    monkeypatch.setattr("sys.stdin", stdin_of(""))
    make_argv, outputs = _SUCCEEDS[subcommand]
    out = tmp_path / "out"
    (out / "run_manifest.json").mkdir(parents=True)
    assert main([*make_argv(tmp_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: cannot open output {out}/run_manifest.json: Is a directory"
    ]
    assert sorted(p.name for p in out.iterdir()) == sorted([*outputs, "run_manifest.json"])


def test_a_run_manifest_that_cannot_be_written_keeps_the_command_exit_code(
    monkeypatch, capsys, tmp_path
):
    (tmp_path / "out" / "run_manifest.json").mkdir(parents=True)
    assert main([*_case_unphysical_fit(tmp_path, monkeypatch), "--out", str(tmp_path / "out")]) == 4
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("error: fitted model breaks physics: ")
    assert err[1:] == [f"error: cannot open output {tmp_path}/out/run_manifest.json: Is a directory"]


def test_a_run_manifest_that_cannot_be_written_after_sigterm_exits_input_error(
    monkeypatch, capsys, tmp_path
):
    # govern's SIGTERM handler stops --stdin with SystemExit(0)
    monkeypatch.setattr("impact_governor.node.run_stream", _raise(SystemExit(0)))
    (tmp_path / "out" / "run_manifest.json").mkdir(parents=True)
    with pytest.raises(SystemExit) as exc:
        main(["govern", "--stdin", "--profile", _CARBON, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: cannot open output {tmp_path}/out/run_manifest.json: Is a directory"
    ]



@pytest.mark.skipif(not Path("/dev/full").exists(), reason="no /dev/full device")
@pytest.mark.parametrize(
    "name, make_argv",
    [*_OUTPUT_IS_A_DIRECTORY.values(),
     *[("run_manifest.json", make_argv) for make_argv, _ in _SUCCEEDS.values()]],
    ids=[*_OUTPUT_IS_A_DIRECTORY, *(f"{command}-manifest" for command in _SUCCEEDS)],
)
def test_an_output_on_a_full_disk_exits_input_error(monkeypatch, capsys, tmp_path, name, make_argv):
    # the open succeeds and the write fails: one error line and no traceback,
    # which the manifest records where it is not the output that failed
    monkeypatch.setattr("sys.stdin", stdin_of(""))
    argv = make_argv(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    (out / name).symlink_to("/dev/full")
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: cannot write output {out / name}: No space left on device"]
    if name != "run_manifest.json":
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert (manifest["exit_code"], manifest["error"]) == (2, err[0])
        assert name not in manifest["outputs"]


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="no /dev/full device")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("subcommand", ["analyze", "fit", "simulate", "report"])
def test_a_stdout_that_cannot_take_the_summary_line_exits_input_error(
    tmp_path, subcommand, unbuffered
):
    # unbuffered, the print of the summary line raised (a traceback, exit 1 and a
    # null exit_code); buffered, the flush at exit failed (status 120) after a
    # manifest that said 0
    env = {k: v for k, v in child_env().items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    make_argv, _ = _SUCCEEDS[subcommand]
    out = tmp_path / "out"
    with open("/dev/full", "wb") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "impact_governor", *make_argv(tmp_path), "--out", str(out)],
            stdout=full, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
        )
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert (proc.returncode, manifest["exit_code"]) == (2, 2)
    assert proc.stderr.splitlines() == [manifest["error"]] == [
        "error: cannot write to stdout: No space left on device"
    ]


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


#: sha256 of trajectory.csv and summary.json for the three runs the benchmark
#: times; a change that speeds up the loop must leave these bytes as they are
SIMULATE_DIGESTS = {
    ("three_humans_chest", ()): (
        "a2fff0c075e8fd4a35f5efabe549d6fa56f6db3ab0020ca6086c006761156fa8",
        "706e1b53d5428d4dbea28c875d72ea8019e85911ac587fa620244aae61985bf5",
    ),
    ("three_humans_face", ()): (
        "86d1958a752282490ba1e4958cc9aaf3f1d3d7b674d2f06b8f1574b6b0dcf6b2",
        "e8fefa939b8ff5c45a59c6136fe2790814cf69fc311f89149412871557de1f96",
    ),
    ("three_humans_chest", ("--mode", "ramp")): (
        "2d3e4275d96add2671ce6dbaf640fd18671e195309a0b7c22df96fce93355069",
        "706e1b53d5428d4dbea28c875d72ea8019e85911ac587fa620244aae61985bf5",
    ),
}


@pytest.mark.parametrize("name, args", list(SIMULATE_DIGESTS), ids=["chest", "face", "chest-ramp"])
def test_simulate_writes_the_pinned_bytes(tmp_path, name, args):
    out = tmp_path / "sim"
    assert main(["simulate", str(REPO_ROOT / "scenarios" / f"{name}.json"),
                 "--out", str(out), *args]) == 0
    digests = tuple(
        hashlib.sha256((out / f).read_bytes()).hexdigest()
        for f in ("trajectory.csv", "summary.json")
    )
    assert digests == SIMULATE_DIGESTS[name, args]


_FORK = cli._fork


def _simulate(monkeypatch, capsys, tmp_path, cores, argv, name="sim"):
    """``main(["simulate", *argv])`` on ``cores`` usable cores: the exit code,
    stdout, stderr, the output directory and the processes forked."""
    forked = []
    monkeypatch.setattr(cli, "_usable_cores", lambda: cores)
    monkeypatch.setattr(cli, "_fork", lambda *a: forked.append(a[1]) or _FORK(*a))
    out = tmp_path / name
    code = main(["simulate", *argv, "--out", str(out)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err, out, forked


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("name, args", list(SIMULATE_DIGESTS), ids=["chest", "face", "chest-ramp"])
def test_simulate_writes_the_same_bytes_in_process_and_with_a_forked_writer(
    monkeypatch, capsys, tmp_path, name, args
):
    argv = [str(REPO_ROOT / "scenarios" / f"{name}.json"), *args]
    runs = [_simulate(monkeypatch, capsys, tmp_path, cores, argv, f"cores{cores}")
            for cores in (1, 2)]
    assert [forked for *_, forked in runs] == [[], ["simulate writer"]]
    (code, stdout, err, one, _), (*same, all_, _) = runs
    assert (code, stdout, err) == tuple(same) and code == 0
    for f in ("trajectory.csv", "summary.json"):
        assert (one / f).read_bytes() == (all_ / f).read_bytes()
    _assert_no_child_left()


@needs_pinning
@pytest.mark.parametrize("name, args", list(SIMULATE_DIGESTS), ids=["chest", "face", "chest-ramp"])
def test_simulate_pinned_to_one_cpu_writes_what_it_writes_on_all(tmp_path, name, args):
    # one usable CPU runs the loop and then writes; two fork the writer
    runs = _pinned_and_free(tmp_path, "simulate", str(REPO_ROOT / "scenarios" / f"{name}.json"),
                            *args)
    one, all_ = (run[:4] for run in (runs["one"], runs["all"]))
    assert one == all_
    assert one[0] == 0 and sorted(one[3]) == ["summary.json", "trajectory.csv"]


def test_simulate_calls_each_traced_layer_once_per_step(monkeypatch, capsys, tmp_path):
    # bench/tracer.py times these layers by replacing the attribute that
    # run_scenario looks up; a layer inlined into the loop would leave its span
    calls = collections.Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for owner, attr in [(sim, "human_distances"), (sim, "nearest_human_distance"),
                        (sim, "potential_field_cmd"), (sim, "step"),
                        (GovernorRuntime, "on_command"), (GovernorRuntime, "on_range")]:
        monkeypatch.setattr(owner, attr, counting(attr, getattr(owner, attr)))
    scenario = str(REPO_ROOT / "scenarios" / "three_humans_face.json")
    code, _, _, out, forked = _simulate(monkeypatch, capsys, tmp_path, 1, [scenario])
    assert (code, forked) == (0, [])
    steps = json.loads((out / "summary.json").read_text())["steps"]
    assert steps == 7500  # 30 s at 4 ms
    assert calls == {"human_distances": steps + 1, "nearest_human_distance": steps + 1,
                     "potential_field_cmd": steps, "step": steps, "on_command": steps,
                     "on_range": 300}  # one detection per 0.1 s


def _peak_target_scenario(tmp_path):
    """A scenario whose governor refuses to start: a peak target that the
    profile's reference force turns into an average one out of range."""
    data = json.loads((REPO_ROOT / "scenarios" / "three_humans_chest.json").read_text())
    profile = json.loads((REPO_ROOT / "profiles" / "carbon_0deg.json").read_text())
    del data["profile_path"]
    data["profile"] = {**profile, "f_max_ref_N": 1.0}
    data["governor"]["f_star_is_peak"] = True
    return _write(tmp_path / "peak.json", json.dumps(data))


def _step_that_raises_after(monkeypatch, calls):
    real, count = sim.step, [0]

    def step(*args):
        count[0] += 1
        if count[0] > calls:
            raise RuntimeError("bug in the loop")
        return real(*args)

    monkeypatch.setattr(sim, "step", step)


@pytest.mark.parametrize("cores", [1, 2])
def test_simulate_leaves_no_process_and_no_partial_trajectory(
    monkeypatch, capsys, tmp_path, cores
):
    chest = str(REPO_ROOT / "scenarios" / "three_humans_chest.json")
    fork = [] if cores == 1 else ["simulate writer"]

    code, _, err, out, forked = _simulate(monkeypatch, capsys, tmp_path, cores, [chest], "ok")
    assert (code, err, forked) == (0, "", fork)
    assert (out / "trajectory.csv").is_file()
    _assert_no_child_left()

    (tmp_path / "dir" / "trajectory.csv").mkdir(parents=True)
    code, _, err, out, forked = _simulate(monkeypatch, capsys, tmp_path, cores, [chest], "dir")
    line = f"error: cannot open output {out / 'trajectory.csv'}: Is a directory"
    assert (code, err.splitlines(), forked) == (2, [line], fork)
    assert sorted(p.name for p in out.iterdir()) == ["run_manifest.json", "trajectory.csv"]
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert (manifest["exit_code"], manifest["error"], manifest["outputs"]) == (2, line, [])
    _assert_no_child_left()

    peak = str(_peak_target_scenario(tmp_path))
    code, _, err, out, forked = _simulate(monkeypatch, capsys, tmp_path, cores, [peak], "peak")
    assert code == 2 and err.startswith("error: bad governor config: peak target 140 N")
    assert [p.name for p in out.iterdir()] == ["run_manifest.json"]
    _assert_no_child_left()

    _step_that_raises_after(monkeypatch, 3 * sim.ROW_BLOCK + 7)  # after three blocks went out
    with pytest.raises(RuntimeError, match="^bug in the loop$"):
        _simulate(monkeypatch, capsys, tmp_path, cores, [chest], "crash")
    _assert_only_a_crash_manifest(tmp_path / "crash")
    _assert_no_child_left()


def test_simulate_raises_what_its_writer_raised_with_the_writer_traceback(
    monkeypatch, capsys, tmp_path
):
    parent = os.getpid()

    def write(rows, path):
        assert os.getpid() != parent, "the trajectory was written in the parent"
        for _ in rows:
            pass
        raise ValueError("bug in the writer")

    monkeypatch.setattr(cli, "write_trajectory", write)
    chest = str(REPO_ROOT / "scenarios" / "three_humans_chest.json")
    with pytest.raises(ValueError, match="^bug in the writer$") as exc:
        _simulate(monkeypatch, capsys, tmp_path, 2, [chest])
    assert isinstance(exc.value.__cause__, cli.WorkerTraceback)
    assert str(exc.value.__cause__).startswith("in simulate writer ")
    _assert_only_a_crash_manifest(tmp_path / "sim")
    _assert_no_child_left()


@pytest.mark.parametrize("after", [0, 2])  # before its first block, after its second
def test_simulate_raises_when_its_writer_dies(monkeypatch, capsys, tmp_path, after):
    from concurrent.futures.process import BrokenProcessPool

    def write(rows, path):
        for i, _ in enumerate(rows):
            if i == after * sim.ROW_BLOCK:
                os._exit(1)

    monkeypatch.setattr(cli, "write_trajectory", write)
    chest = str(REPO_ROOT / "scenarios" / "three_humans_chest.json")
    died = r"^simulate writer \d+ ended \(exit code 1\) without a result$"
    with pytest.raises(BrokenProcessPool, match=died):
        _simulate(monkeypatch, capsys, tmp_path, 2, [chest])
    _assert_only_a_crash_manifest(tmp_path / "sim")
    _assert_no_child_left()


def test_simulate_writes_three_files_and_takes_overrides(tmp_path):
    scenario = str(REPO_ROOT / "scenarios" / "three_humans_chest.json")
    out = tmp_path / "sim"
    assert (
        main(["simulate", scenario, "--out", str(out), "--body-region", "face", "--mode", "ramp"])
        == 0
    )
    assert sorted(p.name for p in out.iterdir()) == [
        "run_manifest.json", "summary.json", "trajectory.csv"
    ]
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


def _without_std(summary):
    del summary["metrics"]["ec_r"]["std"]
    return summary


def _with_stat(metric, stat, value):
    summary = _summary_dict(3.0, 0.1)
    summary["metrics"][metric][stat] = value
    return summary


@pytest.mark.parametrize(
    "text, line",
    [
        (json.dumps(_without_std(_summary_dict(3.0, 0.1))),
         "not a configuration summary: missing key 'metrics.ec_r.std'"),
        (json.dumps({**_summary_dict(3.0, 0.1), "metrics": {}}),
         "not a configuration summary: missing key 'metrics.v_in_mps'"),
        (json.dumps({**_summary_dict(3.0, 0.1), "n": "two"}),
         "not a configuration summary: n must be an integer, got 'two'"),
        # int() and float() took these: n 2.5 was 2 and a mass of true 1 kg
        (json.dumps({**_summary_dict(3.0, 0.1), "n": 2.5}),
         "not a configuration summary: n must be an integer, got 2.5"),
        (json.dumps({**_summary_dict(3.0, 0.1), "n": True}),
         "not a configuration summary: n must be an integer, got True"),
        (json.dumps({**_summary_dict(3.0, 0.1), "mass_kg": True}),
         "not a configuration summary: mass_kg must be a finite number, got True"),
        (json.dumps(_with_stat("f_max_n", "mean", "100.0")),
         "not a configuration summary: metrics.f_max_n.mean must be a finite number, "
         "got '100.0'"),
        # float() of an int past the float range raised an OverflowError that
        # ended fit and report in a traceback with a null exit_code
        (json.dumps({**_summary_dict(3.0, 0.1), "mass_kg": 10**400}),
         "not a configuration summary: mass_kg must be a finite number, got 1000"),
        (json.dumps(_with_stat("v_in_mps", "mean", -(10**400))),
         "not a configuration summary: metrics.v_in_mps.mean must be a finite "
         "number, got -1000"),
        # these loaded, and fit wrote a NaN or a name like "['Carbon-0deg']"
        # into the profile
        (json.dumps(_with_stat("dt_j_s", "std", math.nan)),
         "not a configuration summary: metrics.dt_j_s.std must be a finite number, "
         "got nan"),
        (json.dumps({**_summary_dict(3.0, 0.1), "angle_deg": math.nan}),
         "not a configuration summary: angle_deg must be a finite number, got nan"),
        (json.dumps({**_summary_dict(3.0, 0.1), "configuration": ["Carbon-0deg"]}),
         "not a configuration summary: configuration must be a string, "
         "got ['Carbon-0deg']"),
        (json.dumps(_with_stat("ec_r", "cv", "nan")),
         "not a configuration summary: metrics.ec_r.cv must be a number, got 'nan'"),
        # these loaded: fit wrote a profile and report a row with n = -5
        (json.dumps({**_summary_dict(3.0, 0.1), "schema": 99, "n": -5}),
         "not a configuration summary: summary schema 99 not supported "
         "(expected the integer 1)"),
        (json.dumps({**_summary_dict(3.0, 0.1), "schema": 1.0}),
         "not a configuration summary: schema must be an integer, got 1.0"),
        (json.dumps({k: v for k, v in _summary_dict(3.0, 0.1).items() if k != "schema"}),
         "not a configuration summary: missing key 'schema'"),
        (json.dumps({**_summary_dict(3.0, 0.1), "n": -5}),
         "not a configuration summary: n must be at least 2, got -5"),
        (json.dumps({**_summary_dict(3.0, 0.1), "n": 1}),
         "not a configuration summary: n must be at least 2, got 1"),
    ],
    ids=["stat-without-std", "no-stats", "n-not-a-number", "n-fraction", "n-bool",
         "mass-bool", "mean-string", "mass-huge-int", "mean-huge-int", "std-nan", "angle-nan",
         "configuration-list", "cv-string", "schema-99", "schema-float", "no-schema",
         "n-negative", "n-one"],
)
def test_fit_and_report_refuse_a_bad_summary_alike(tmp_path, capsys, text, line):
    (tmp_path / "s.json").write_text(text)
    for command in ("fit", "report"):
        out = tmp_path / command
        assert main([command, str(tmp_path / "s.json"), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {tmp_path / 's.json'}: {line}")
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert (manifest["exit_code"], manifest["error"]) == (2, err[0])
        assert manifest["outputs"] == []



@pytest.mark.parametrize("text", ['"metrics"', "5", "[1, 2]", "{}"])
def test_report_refuses_json_that_is_no_summary_or_profile(tmp_path, capsys, text):
    (tmp_path / "x.json").write_text(text)
    assert main(["report", str(tmp_path / "x.json"), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: unrecognized report input: {tmp_path / 'x.json'}"
    ]


@pytest.mark.parametrize(
    "edit, why",
    [(lambda cells: [*cells[:3], "abc", *cells[4:]],
      "ValueError: could not convert string to float: 'abc'"),
     (lambda cells: cells[:3], "TypeError: float() argument must be"),
     (lambda cells: cells[:-1], "ValueError: the row ends before its flags cell"),
     (lambda cells: [*cells, "123"], "ValueError: 1 cell(s) past the header")],
    ids=["not-a-number", "short-row", "no-flags-cell", "extra-cell"],
)
def test_report_bad_metrics_row_names_file_and_row(analyzed_dir, tmp_path, capsys, edit, why):
    lines = (analyzed_dir / "metrics.csv").read_text().splitlines(keepends=True)
    lines[2] = ",".join(edit(lines[2].rstrip("\n").split(","))) + "\n"
    bad = tmp_path / "metrics.csv"
    bad.write_text("".join(lines))
    assert main(["report", str(bad), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {bad} row 3: not a metrics row ({why}")


@pytest.mark.parametrize("text, present", [("configuration,mass_kg\n", 2), ("", 0)],
                         ids=["two-columns", "empty"])
def test_report_refuses_a_metrics_csv_whose_header_lacks_a_column(tmp_path, capsys, text, present):
    # with no row to refuse, either file read as a metrics CSV of no trials
    bad = tmp_path / "metrics.csv"
    bad.write_text(text)
    out = tmp_path / "out"
    assert main(["report", str(bad), "--out", str(out)]) == 2
    missing = METRICS_CSV_COLUMNS[present:-1]  # every column but flags is read
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {bad}: not a metrics CSV (no column {', '.join(missing)})"]
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert (manifest["exit_code"], manifest["error"], manifest["outputs"]) == (2, err[0], [])


def test_report_refuses_a_malformed_profile(tmp_path, capsys, profile_path):
    data = json.loads(Path(profile_path).read_text())
    del data["restitution"]["coeffs"]
    (tmp_path / "p.json").write_text(json.dumps(data))
    assert main(["report", str(tmp_path / "p.json"), "--out", str(tmp_path / "out")]) == 4
    assert capsys.readouterr().err.splitlines() == [
        "error: profile: missing key 'restitution.coeffs'"
    ]
