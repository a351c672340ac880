import io
import json
import socket
import threading

import pytest

from impact_governor.errors import ProtocolError
from impact_governor.governor import GovernorConfig, GovernorRuntime
from impact_governor.stream import (
    COMPLIANCE_COLUMNS,
    ComplianceLog,
    format_cmd_limited,
    format_error,
    parse_message,
    run_stream,
    run_udp,
)

from conftest import make_profile


@pytest.fixture
def runtime(const_profile, default_cfg):
    return GovernorRuntime(default_cfg, const_profile)


# --- message parsing ---------------------------------------------------------


def test_parse_message_accepts_known_shapes():
    msg = parse_message('{"type": "range", "d_m": 4.2, "t_s": 1}')
    assert msg["d_m"] == 4.2
    parse_message('{"type": "odom", "vx": 1, "vy": 0, "vz": 0, "t_s": 0.5}')
    parse_message('{"type": "cmd", "vx": 1.5, "vy": 0, "vz": 0, "t_s": 0.6}')


@pytest.mark.parametrize(
    "text",
    [
        "not json at all",
        "[1, 2, 3]",  # array, not object
        '"cmd"',
        '{"type": "teleport", "x": 1}',  # unknown type
        '{"d_m": 4.2, "t_s": 1}',  # missing type
        '{"type": "range", "t_s": 1}',  # missing field
        '{"type": "range", "d_m": "close", "t_s": 1}',  # non-numeric
        '{"type": "range", "d_m": true, "t_s": 1}',  # bool is not a distance
        '{"type": "cmd", "vx": 1, "vy": 1, "vz": null, "t_s": 1}',
        '{"type": "range", "d_m": NaN, "t_s": 1}',  # non-finite literals
        '{"type": "range", "d_m": 4.2, "t_s": Infinity}',
        '{"type": "odom", "vx": -Infinity, "vy": 0, "vz": 0, "t_s": 1}',
        '{"type": "cmd", "vx": 1, "vy": 0, "vz": 0, "t_s": 1, "note": NaN}',
        '{"type": "range", "d_m": 1e999, "t_s": 1}',  # overflows to inf
        '{"type": "range", "d_m": 4.2, "t_s": -1e400}',
    ],
)
def test_parse_message_rejects_malformed(text):
    with pytest.raises(ProtocolError):
        parse_message(text)


def test_reply_formats_are_stable_json():
    assert format_error("boom") == '{"type":"error","message":"boom"}'
    # error lines themselves parse as JSON
    assert json.loads(format_error('he said "no"'))["message"] == 'he said "no"'


# --- stdin/stdout stream -----------------------------------------------------


def _lines(*msgs):
    return [json.dumps(m) for m in msgs]


def test_run_stream_happy_path(runtime):
    out = io.StringIO()
    lines = _lines(
        {"type": "range", "d_m": 30.0, "t_s": 0.0},
        {"type": "odom", "vx": 3.0, "vy": 0.0, "vz": 0.0, "t_s": 0.05},
        {"type": "cmd", "vx": 6.0, "vy": 0.0, "vz": 0.0, "t_s": 0.1},
        {"type": "range", "d_m": 5.0, "t_s": 0.2},
        {"type": "cmd", "vx": 20.0, "vy": 0.0, "vz": 0.0, "t_s": 0.25},
    )
    assert run_stream(runtime, lines, out) == 0

    replies = [json.loads(l) for l in out.getvalue().splitlines()]
    assert len(replies) == 2  # one reply per cmd, telemetry is silent
    assert all(r["type"] == "cmd_limited" for r in replies)
    assert replies[0]["vx"] == 6.0 and replies[0]["source"] == "none"
    assert replies[1]["source"] == "force"
    assert replies[1]["vx"] == pytest.approx(runtime.v_force)
    assert replies[1]["cap_mps"] == pytest.approx(runtime.v_force)
    assert replies[1]["t_s"] == 0.25


def test_run_stream_reply_bytes_deterministic(const_profile, default_cfg):
    lines = _lines(
        {"type": "range", "d_m": 5.0, "t_s": 0.0},
        {"type": "cmd", "vx": 4.0, "vy": 3.0, "vz": 0.0, "t_s": 0.1},
    )
    outs = []
    for _ in range(2):
        rt = GovernorRuntime(default_cfg, const_profile)
        buf = io.StringIO()
        run_stream(rt, list(lines), buf)
        outs.append(buf.getvalue())
    assert outs[0] == outs[1]
    assert outs[0].startswith('{"type":"cmd_limited","vx":4')


def test_run_stream_blank_lines_and_empty_input(runtime):
    out = io.StringIO()
    assert run_stream(runtime, ["", "   ", "\n"], out) == 0
    assert out.getvalue() == ""
    assert run_stream(runtime, [], out) == 0


def test_run_stream_malformed_line_aborts(runtime):
    out = io.StringIO()
    lines = _lines({"type": "range", "d_m": 5.0, "t_s": 0.0})
    lines += ["{oops", json.dumps({"type": "cmd", "vx": 1, "vy": 0, "vz": 0, "t_s": 1})]
    assert run_stream(runtime, lines, out) == 3
    replies = [json.loads(l) for l in out.getvalue().splitlines()]
    # the error is reported and nothing after the poisoned line is consumed
    assert [r["type"] for r in replies] == ["error"]
    assert runtime.last_record is None


# --- compliance log ----------------------------------------------------------


def test_compliance_log_contents(tmp_path, runtime):
    path = tmp_path / "compliance.csv"
    lines = _lines(
        {"type": "range", "d_m": 5.0, "t_s": 0.0},
        {"type": "cmd", "vx": 20.0, "vy": 0.0, "vz": 0.0, "t_s": 0.1},
    )
    with ComplianceLog(path) as log:
        run_stream(runtime, lines, io.StringIO(), compliance=log)

    header, row = path.read_text().splitlines()
    assert header == ",".join(COMPLIANCE_COLUMNS)
    fields = row.split(",")
    assert fields[0] == "0.1"
    assert float(fields[1]) == 20.0
    assert float(fields[2]) == pytest.approx(runtime.v_force, abs=1e-6)
    assert fields[3] == "5"
    assert fields[6] == "force"
    assert fields[7] == "false"
    assert fields[8] == ""


def test_int_config_caps_keep_their_json_text(tmp_path, const_profile):
    rt = GovernorRuntime(GovernorConfig(v_platform_max_mps=20, stale_cap_mps=0), const_profile)
    out, path = io.StringIO(), tmp_path / "c.csv"
    lines = _lines(
        {"type": "range", "d_m": 30.0, "t_s": 0.0},
        {"type": "cmd", "vx": 3, "vy": 0, "vz": 0, "t_s": 0.1},
        {"type": "cmd", "vx": 3.0, "vy": -0.0, "vz": 0.0, "t_s": 5.0},  # stale
    )
    with ComplianceLog(path) as log:
        assert run_stream(rt, lines, out, compliance=log) == 0
    assert out.getvalue() == (
        '{"type":"cmd_limited","vx":3.0,"vy":0.0,"vz":0.0,"cap_mps":20,"source":"none","t_s":0.1}\n'
        '{"type":"cmd_limited","vx":0.0,"vy":-0.0,"vz":0.0,"cap_mps":0,'
        '"source":"stale-failsafe","t_s":5.0}\n'
    )
    rows = path.read_text().splitlines()[1:]
    assert rows == ["0.1,3,3,30,8.4,20,none,false,", "5,3,0,30,8.4,0,stale-failsafe,false,"]


def test_compliance_log_appends_without_second_header(tmp_path, runtime):
    path = tmp_path / "compliance.csv"
    cmd = {"type": "cmd", "vx": 1.0, "vy": 0.0, "vz": 0.0, "t_s": 0.0}
    with ComplianceLog(path) as log:
        run_stream(runtime, _lines(cmd), io.StringIO(), compliance=log)
    with ComplianceLog(path) as log:
        run_stream(runtime, _lines(dict(cmd, t_s=0.1)), io.StringIO(), compliance=log)

    text = path.read_text().splitlines()
    assert len(text) == 3
    assert sum(1 for l in text if l.startswith("t_s")) == 1


def test_compliance_log_nan_distance(tmp_path, runtime):
    path = tmp_path / "c.csv"
    with ComplianceLog(path) as log:
        run_stream(
            runtime,
            _lines({"type": "cmd", "vx": 1.0, "vy": 0.0, "vz": 0.0, "t_s": 0.0}),
            io.StringIO(),
            compliance=log,
        )
    row = path.read_text().splitlines()[1].split(",")
    assert row[3] == "nan"  # never saw a range measurement
    assert row[6] == "stale-failsafe"


# --- UDP ---------------------------------------------------------------------


def _udp_server(runtime, compliance=None):
    """Start run_udp on an ephemeral port; returns (port, stop, thread)."""
    bound = {}
    ready = threading.Event()
    stop = threading.Event()

    def _note_port(p):
        bound["port"] = p
        ready.set()

    thread = threading.Thread(
        target=run_udp,
        args=(runtime,),
        kwargs={
            "port": 0,
            "compliance": compliance,
            "stop": stop,
            "poll_s": 0.02,
            "on_bound": _note_port,
        },
        daemon=True,
    )
    thread.start()
    assert ready.wait(timeout=5.0)
    return bound["port"], stop, thread


def test_udp_round_trip(runtime):
    port, stop, thread = _udp_server(runtime)
    client = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    client.settimeout(5.0)
    try:
        addr = ("127.0.0.1", port)
        client.sendto(b'{"type":"range","d_m":5.0,"t_s":0.0}', addr)
        client.sendto(b'{"type":"cmd","vx":20.0,"vy":0.0,"vz":0.0,"t_s":0.1}', addr)
        reply = json.loads(client.recvfrom(65536)[0])
        assert reply["type"] == "cmd_limited"
        assert reply["source"] == "force"
        assert reply["vx"] == pytest.approx(runtime.v_force)
    finally:
        stop.set()
        thread.join(timeout=5.0)
        client.close()
    assert not thread.is_alive()
    assert runtime.last_record.timestamp == 0.1  # the one command was governed


def test_udp_malformed_datagram_gets_error_reply(runtime):
    port, stop, thread = _udp_server(runtime)
    client = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    client.settimeout(5.0)
    try:
        client.sendto(b"junk{", ("127.0.0.1", port))
        reply = json.loads(client.recvfrom(65536)[0])
        assert reply["type"] == "error"
        assert "JSON" in reply["message"]
        thread.join(timeout=5.0)  # protocol error ends the server loop
        assert not thread.is_alive()
    finally:
        stop.set()
        client.close()
