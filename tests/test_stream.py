import collections
import io
import json
import socket
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from impact_governor import stream
from impact_governor.errors import ProtocolError
from impact_governor.governor import GovernorConfig, GovernorRuntime
from impact_governor.stream import (
    COMPLIANCE_COLUMNS,
    READ_CHUNK,
    ComplianceLog,
    ReplyBatch,
    format_cmd_limited,
    format_error,
    parse_message,
    run_stream,
    run_udp,
    stdio_lines,
)

from conftest import make_profile, stdin_of


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
    after = json.dumps({"type": "cmd", "vx": 1, "vy": 0, "vz": 0, "t_s": 1})
    lines = iter(lines + ["{oops", after])
    with pytest.raises(ProtocolError, match="^invalid JSON: "):
        run_stream(runtime, lines, out)
    replies = [json.loads(l) for l in out.getvalue().splitlines()]
    # the error is reported once and nothing after the poisoned line is consumed
    assert [r["type"] for r in replies] == ["error"]
    assert replies[0]["message"].startswith("invalid JSON: ")
    assert runtime.last_record is None
    assert list(lines) == [after]


# --- stdin reader and batched replies ----------------------------------------

_RANGE = '{"type":"range","d_m":4.0,"t_s":0.0}'
_CMD = '{"type":"cmd","vx":20.0,"vy":0.0,"vz":0.0,"t_s":0.1}'
_CAFE = '{"type":"odom","vx":0,"vy":0,"vz":0,"t_s":0.05,"note":"caf\u00e9"}'.encode("utf-8")
_CUT = _CAFE.index(b"\xa9")  # between the two bytes of the e-acute


class _Writes(io.StringIO):
    """A text sink that counts its write calls."""

    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


def _outcome(lines, out):
    """run_stream's return code or raised (type, message), with a fresh runtime."""
    runtime = GovernorRuntime(GovernorConfig(), make_profile())
    try:
        return run_stream(runtime, lines, out)
    except (ProtocolError, UnicodeDecodeError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize(
    "reads, lines",
    [
        ((_RANGE[:10], _RANGE[10:] + "\n" + _CMD + "\n"), [_RANGE + "\n", _CMD + "\n"]),
        ((_CAFE[:_CUT], _CAFE[_CUT:] + b"\n" + _CMD.encode() + b"\n"),
         [_CAFE.decode() + "\n", _CMD + "\n"]),
        ((_RANGE + "\r\n" + _CMD + "\r", "\n"), [_RANGE + "\r\n", _CMD + "\r\n"]),
        ((_RANGE + "\r" + _CMD + "\n",), [_RANGE + "\r" + _CMD + "\n"]),  # a lone CR ends no line
        (("\n\n" + _RANGE + "\n  \n", _CMD), ["\n", "\n", _RANGE + "\n", "  \n", _CMD]),
        ((), []),
    ],
    ids=["line-across-reads", "utf8-across-reads", "crlf", "lone-cr", "blank-and-unterminated",
         "empty"],
)
def test_stdio_lines_split_and_serve_as_stdin_itself(reads, lines):
    # the lines and the outcome are those of iterating the stdin directly, and
    # each read leaves its replies in one write
    assert list(stdio_lines(stdin_of(*reads), ReplyBatch(io.StringIO()))) == lines
    assert list(stdin_of(*reads)) == lines
    direct, batched = io.StringIO(), _Writes()
    replies = ReplyBatch(batched)
    outcome = _outcome(stdio_lines(stdin_of(*reads), replies), replies)
    assert (outcome, batched.getvalue()) == (_outcome(stdin_of(*reads), direct), direct.getvalue())
    assert batched.writes == (1 if direct.getvalue() else 0)


@pytest.mark.parametrize("errors", ["strict", "surrogateescape"])
def test_stdio_lines_invalid_utf8_ends_as_iterating_stdin_does(errors):
    # sys.stdin is strict under a UTF-8 locale and surrogateescape under C/POSIX
    reads = (_RANGE + "\n" + _CMD + "\n", b'{"type":"cmd","vx":1\xff}\n' + _CMD.encode() + b"\n")
    direct, batched = io.StringIO(), io.StringIO()
    replies = ReplyBatch(batched)
    outcome = _outcome(stdio_lines(stdin_of(*reads, errors=errors), replies), replies)
    assert outcome == _outcome(stdin_of(*reads, errors=errors), direct)
    assert outcome[0] is (UnicodeDecodeError if errors == "strict" else ProtocolError)
    assert batched.getvalue() == direct.getvalue()
    assert batched.getvalue().startswith('{"type":"cmd_limited"')


def test_replies_are_written_before_each_read():
    # a read may block: every reply to the lines already read is out before it
    out = _Writes()
    seen = []  # the replies on ``out`` as each read starts

    def reads():
        for chunk in (_RANGE + "\n" + _CMD + "\n" + _CMD[:9], _CMD[9:] + "\n" + _CMD + "\n",
                      "\n" + _CMD + "\n"):
            seen.append(out.getvalue().count("\n"))
            yield chunk
        seen.append(out.getvalue().count("\n"))

    replies = ReplyBatch(out)
    assert _outcome(stdio_lines(stdin_of(reads()), replies), replies) == 0
    assert seen == [0, 1, 3, 4]
    assert out.writes == 3  # one per read that completed a command


def test_stdio_lines_reads_at_most_read_chunk_bytes():
    sizes = []

    class Pipe(io.BytesIO):
        def read1(self, size=-1):
            data = super().read1(size)
            sizes.append(len(data))
            return data

    data = ((_RANGE + "\n" + _CMD + "\n") * 400).encode()  # about 37 KiB
    stdin = io.TextIOWrapper(Pipe(data), encoding="utf-8", newline="\n")
    replies = ReplyBatch(io.StringIO())
    assert len(list(stdio_lines(stdin, replies))) == 800
    assert max(sizes) == READ_CHUNK and sum(sizes) == len(data) and sizes[-1] == 0


def test_malformed_line_leaves_every_earlier_reply_written():
    out = _Writes()
    replies = ReplyBatch(out)
    text = _RANGE + "\n" + _CMD + "\n" + _CMD + "\n{oops\n" + _CMD + "\n"
    outcome = _outcome(stdio_lines(stdin_of(text), replies), replies)
    assert outcome[0] is ProtocolError
    assert [json.loads(r)["type"] for r in out.getvalue().splitlines()] == [
        "cmd_limited", "cmd_limited", "error"]
    assert out.writes == 1


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
    assert fields[5] == "force"
    assert fields[6] == "false"
    assert fields[7] == ""


def test_each_traced_layer_is_called_once_per_message_it_handles(tmp_path, monkeypatch, runtime):
    # bench/tracer.py times these layers by replacing the attribute that
    # run_stream looks up; a layer inlined into the loop would leave its span
    calls = collections.Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for owner, attr in [(stream, "parse_message"), (stream, "format_cmd_limited"),
                        (ComplianceLog, "write"), (GovernorRuntime, "on_command"),
                        (GovernorRuntime, "on_range")]:
        monkeypatch.setattr(owner, attr, counting(attr, getattr(owner, attr)))
    lines = _lines(
        {"type": "range", "d_m": 30.0, "t_s": 0.0},
        {"type": "odom", "vx": 3.0, "vy": 0.0, "vz": 0.0, "t_s": 0.05},
        {"type": "cmd", "vx": 6.0, "vy": 0.0, "vz": 0.0, "t_s": 0.1},
        {"type": "range", "d_m": 5.0, "t_s": 0.2},
        {"type": "cmd", "vx": 20.0, "vy": 0.0, "vz": 0.0, "t_s": 0.25},
        {"type": "odom", "vx": 3.0, "vy": 0.0, "vz": 0.0, "t_s": 0.3},
        {"type": "cmd", "vx": 1.0, "vy": 1.0, "vz": 0.0, "t_s": 0.35},
    )
    out = io.StringIO()
    with ComplianceLog(tmp_path / "compliance.csv") as log:
        assert run_stream(runtime, ["", *lines, "  "], out, compliance=log) == 0
    assert calls == {"parse_message": 7, "format_cmd_limited": 3, "write": 3,
                     "on_command": 3, "on_range": 2}
    assert len(out.getvalue().splitlines()) == 3


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
    assert rows == ["0.1,3,3,30,20,none,false,", "5,3,0,30,0,stale-failsafe,false,"]


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


@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
def test_compliance_log_appends_through_a_write_only_handle(tmp_path, existing):
    # a handle that also reads resets its decoder at each write, which cost
    # 2.3x a row's write; the header is checked through a handle of its own
    path = tmp_path / "compliance.csv"
    if existing:
        ComplianceLog(path).close()
    with ComplianceLog(path) as log:
        assert not log._fh.readable()
    assert path.read_text() == ",".join(COMPLIANCE_COLUMNS) + "\n"


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
    assert row[5] == "stale-failsafe"


# --- odometry ----------------------------------------------------------------

_times = st.floats(0.0, 3.0)
_speeds = st.floats(-25.0, 25.0)
_range_or_cmd = st.one_of(
    st.fixed_dictionaries({"type": st.just("range"), "d_m": st.floats(0.0, 30.0), "t_s": _times}),
    st.fixed_dictionaries(
        {"type": st.just("cmd"), "vx": _speeds, "vy": _speeds, "vz": _speeds, "t_s": _times}
    ),
)
_finite = st.floats(allow_nan=False, allow_infinity=False)
_odom = st.fixed_dictionaries(
    {"type": st.just("odom"), "vx": _finite, "vy": _finite, "vz": _finite, "t_s": _finite}
)
_BAD_ODOM = [
    '{"type":"odom","vx":NaN,"vy":0,"vz":0,"t_s":0}',
    '{"type":"odom","vx":1e999,"vy":0,"vz":0,"t_s":0}',
    '{"type":"odom","vx":1,"vy":0,"t_s":0}',
    '{"type":"odom","vx":"fast","vy":0,"vz":0,"t_s":0}',
    '{"type":"odom","vx":true,"vy":0,"vz":0,"t_s":0}',
]


def _governed(tmp_path, mode, lines):
    """Replies and compliance bytes of ``lines`` through a fresh runtime, and
    the ProtocolError that ended the stream (None on a clean end)."""
    path = tmp_path / "c.csv"
    path.unlink(missing_ok=True)
    out, error = io.StringIO(), None
    with ComplianceLog(path) as log:
        try:
            run_stream(GovernorRuntime(GovernorConfig(mode=mode), make_profile()), lines, out, log)
        except ProtocolError as exc:
            error = exc
    return out.getvalue(), path.read_bytes(), error


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mode=st.sampled_from(["binary", "ramp"]), messages=st.lists(_range_or_cmd, max_size=30),
       odoms=st.lists(st.tuples(st.integers(0, 30), _odom), max_size=10),
       bad=st.none() | st.sampled_from(_BAD_ODOM))
def test_odometry_changes_no_reply_and_no_compliance_byte(tmp_path, mode, messages, odoms, bad):
    lines = _lines(*messages)
    with_odom = list(lines)
    for at, odom in sorted(odoms, key=lambda o: o[0], reverse=True):
        with_odom.insert(min(at, len(lines)), json.dumps(odom))
    replies, rows, error = _governed(tmp_path, mode, lines)
    assert error is None
    if bad is None:
        assert _governed(tmp_path, mode, with_odom) == (replies, rows, None)
        return
    # a malformed odom still ends the stream after one error reply
    after = json.dumps({"type": "cmd", "vx": 1.0, "vy": 0.0, "vz": 0.0, "t_s": 9.0})
    got_replies, got_rows, error = _governed(tmp_path, mode, with_odom + [bad, after])
    assert isinstance(error, ProtocolError)
    assert got_replies == replies + format_error(str(error)) + "\n"
    assert got_rows == rows


# --- UDP ---------------------------------------------------------------------


def _udp_server(runtime, compliance=None):
    """Start run_udp on an ephemeral port; returns (port, stop, thread, outcome).

    ``outcome`` gets the server's return value under "rc" or the exception
    it raised under "exc" once the thread ends.
    """
    bound = {}
    outcome = {}
    ready = threading.Event()
    stop = threading.Event()

    def _note_port(p):
        bound["port"] = p
        ready.set()

    def _serve():
        try:
            outcome["rc"] = run_udp(runtime, port=0, compliance=compliance, stop=stop,
                                    poll_s=0.02, on_bound=_note_port)
        except Exception as exc:
            outcome["exc"] = exc

    thread = threading.Thread(target=_serve, daemon=True)
    thread.start()
    assert ready.wait(timeout=5.0)
    return bound["port"], stop, thread, outcome


def test_udp_round_trip(runtime):
    port, stop, thread, outcome = _udp_server(runtime)
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
    assert outcome == {"rc": 0}
    assert runtime.last_record.timestamp == 0.1  # the one command was governed


def test_udp_malformed_datagram_gets_error_reply(tmp_path, runtime):
    path = tmp_path / "compliance.csv"
    client = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    client.settimeout(5.0)
    with ComplianceLog(path) as log:
        port, stop, thread, outcome = _udp_server(runtime, compliance=log)
        try:
            addr = ("127.0.0.1", port)
            for t in (0.1, 0.2):
                client.sendto(b'{"type":"cmd","vx":1.0,"vy":0.0,"vz":0.0,"t_s":%g}' % t, addr)
                assert json.loads(client.recvfrom(65536)[0])["type"] == "cmd_limited"
            client.sendto(b"junk{", addr)
            reply = json.loads(client.recvfrom(65536)[0])
            assert reply["type"] == "error"
            assert "JSON" in reply["message"]
            thread.join(timeout=5.0)  # protocol error ends the server loop
            assert not thread.is_alive()
            # the rows of the commands before the bad datagram are on disk
            # before the log is closed
            rows = path.read_text().splitlines()[1:]
        finally:
            stop.set()
            client.close()
    assert [row.split(",")[0] for row in rows] == ["0.1", "0.2"]
    assert isinstance(outcome["exc"], ProtocolError)
    assert str(outcome["exc"]) == reply["message"]
