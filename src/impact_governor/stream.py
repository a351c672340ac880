"""Streaming front end for the velocity governor.

Messages are newline-delimited JSON objects with a ``type`` field:

* ``{"type": "range", "d_m": <float>, "t_s": <float>}``
* ``{"type": "odom", "vx": ..., "vy": ..., "vz": ..., "t_s": ...}``
* ``{"type": "cmd", "vx": ..., "vy": ..., "vz": ..., "t_s": ...}``

Every ``cmd`` produces exactly one reply line::

    {"type": "cmd_limited", "vx": ..., "vy": ..., "vz": ...,
     "cap_mps": ..., "source": ..., "t_s": ...}

``range`` and ``odom`` update governor state silently.  A malformed
message produces a single ``{"type": "error", ...}`` line and aborts the
stream.  The same payloads ride either stdin/stdout or UDP datagrams
(one datagram per message, replies unicast back to the sender).

Each emitted command is also appended to a compliance CSV so that a
post-hoc audit can confirm the cap was honored.
"""

from __future__ import annotations

import json
import logging
import math
import socket as socket_module
import threading
from typing import IO, Callable, Iterable, Optional

from .errors import ProtocolError
from .governor import ComplianceRecord, GovernorRuntime, VelocityCommand

log = logging.getLogger(__name__)

COMPLIANCE_COLUMNS = (
    "t_s",
    "input_speed_mps",
    "output_speed_mps",
    "d_m",
    "s_m",
    "cap_mps",
    "cap_source",
    "violated",
    "flags",
)

_REQUIRED_FIELDS = {
    "range": ("d_m", "t_s"),
    "odom": ("vx", "vy", "vz", "t_s"),
    "cmd": ("vx", "vy", "vz", "t_s"),
}

EXIT_OK = 0
EXIT_PROTOCOL = 3


def _reject_constant(name: str):
    raise ProtocolError(f"non-finite number {name} is not allowed")


#: one decoder for every message; it refuses the NaN/Infinity literals that
#: json.loads would accept, so a non-finite reading never reaches the governor
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)
_SCAN = _DECODER.scan_once

#: the smallest int that float() refuses (it rounds up past the largest float)
_INT_OVERFLOW = 2**1024 - 2**970


def parse_message(text: str) -> dict:
    """Decode one NDJSON message and validate its shape.

    Returns the decoded dict.  Raises ProtocolError for anything that is
    not a JSON object of a known type with finite numeric required fields
    (an int too large for a float is not finite), and for the non-standard
    NaN/Infinity literals anywhere in the message.
    """
    # one scan decodes a well-formed line; anything else (surrounding
    # whitespace, trailing data, a syntax error, an int literal past Python's
    # digit limit, nesting past the recursion limit) goes through decode,
    # which gives the same value or raises the same error
    try:
        msg, end = _SCAN(text, 0)
    except (StopIteration, ValueError, RecursionError):
        end = -1
    if end != len(text):
        try:
            msg = _DECODER.decode(text)
        except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
            raise ProtocolError(f"invalid JSON: {exc}") from exc
    if type(msg) is not dict:
        raise ProtocolError("message must be a JSON object")
    mtype = msg.get("type")
    if type(mtype) is not str or mtype not in _REQUIRED_FIELDS:
        raise ProtocolError(f"unknown message type: {mtype!r}")
    for key in _REQUIRED_FIELDS[mtype]:
        value = msg.get(key)
        # the decoder makes exact int, float and bool only, and a bool is no
        # number; an int past _INT_OVERFLOW would make float() raise
        if type(value) is float:
            finite = -math.inf < value < math.inf  # a literal like 1e999 decodes to inf
        elif type(value) is int:
            finite = -_INT_OVERFLOW < value < _INT_OVERFLOW
        else:
            raise ProtocolError(f"{mtype} message field {key!r} must be a number")
        if not finite:
            raise ProtocolError(f"{mtype} message field {key!r} must be finite")
    return msg


#: the reply with every number as its repr, which is what json writes for an
#: exact finite float or int
_CMD_LIMITED = (
    '{"type":"cmd_limited","vx":%r,"vy":%r,"vz":%r,"cap_mps":%r,"source":"%s","t_s":%r}'
)


def format_cmd_limited(out: VelocityCommand, record: ComplianceRecord) -> str:
    """Serialize the governed command reply (stable key order, no spaces).

    Byte-equal to ``json.dumps`` of the reply with ``separators=(",", ":")``
    for what the runtime emits: the numbers are exact finite floats (the
    command from ``_dispatch``) or ints (a cap taken from an int config
    value, see ``GovernorConfig``), and the source is one of the four
    plain-ASCII cap sources.
    """
    return _CMD_LIMITED % (
        out.vx, out.vy, out.vz, record.cap_mps, record.cap_source, out.timestamp
    )


def format_error(message: str) -> str:
    return json.dumps({"type": "error", "message": message}, separators=(",", ":"))


class ComplianceLog:
    """Append-only CSV sink for per-command compliance records."""

    def __init__(self, path):
        self._path = str(path)
        self._fh = open(self._path, "a", encoding="utf-8")
        if self._fh.tell() == 0:
            self._fh.write(",".join(COMPLIANCE_COLUMNS) + "\n")
            self._fh.flush()

    def write(self, record: ComplianceRecord) -> None:
        # %.9g takes an int or a bool as a float and prints every NaN as "nan"
        self._fh.write(
            "%.9g,%.9g,%.9g,%.9g,%.9g,%.9g,%s,%s,%s\n"
            % (
                record.timestamp,
                record.input_speed_mps,
                record.output_speed_mps,
                record.d_m,
                record.s_m,
                record.cap_mps,
                record.cap_source,
                "true" if record.violated else "false",
                ";".join(record.flags),
            )
        )

    def flush(self) -> None:
        self._fh.flush()

    def close(self) -> None:
        self._fh.flush()
        self._fh.close()

    def __enter__(self) -> "ComplianceLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _dispatch(
    runtime: GovernorRuntime,
    msg: dict,
    emit: Callable[[str], None],
    compliance: Optional[ComplianceLog],
) -> None:
    """Route one validated message into the governor."""
    mtype = msg["type"]
    if mtype == "range":
        runtime.on_range(float(msg["d_m"]), float(msg["t_s"]))
        return
    if mtype == "odom":
        runtime.on_odom(
            float(msg["vx"]), float(msg["vy"]), float(msg["vz"]), float(msg["t_s"])
        )
        return
    cmd = VelocityCommand(
        vx=float(msg["vx"]),
        vy=float(msg["vy"]),
        vz=float(msg["vz"]),
        timestamp=float(msg["t_s"]),
    )
    out = runtime.on_command(cmd)
    record = runtime.last_record
    emit(format_cmd_limited(out, record))
    if compliance is not None:
        compliance.write(record)


def run_stream(
    runtime: GovernorRuntime,
    lines: Iterable[str],
    out_fh: IO[str],
    compliance: Optional[ComplianceLog] = None,
) -> int:
    """Consume NDJSON lines until exhaustion.

    Returns 0 on a clean end of input (including an empty stream), 3
    after emitting an error line for the first malformed message.
    """

    def emit(text: str) -> None:
        out_fh.write(text + "\n")
        out_fh.flush()

    try:
        for raw in lines:
            line = raw.strip()
            if not line:
                continue
            try:
                msg = parse_message(line)
            except ProtocolError as exc:
                log.error("protocol error: %s", exc)
                emit(format_error(str(exc)))
                return EXIT_PROTOCOL
            _dispatch(runtime, msg, emit, compliance)
    finally:
        if compliance is not None:
            compliance.flush()
    return EXIT_OK


def run_udp(
    runtime: GovernorRuntime,
    port: int,
    compliance: Optional[ComplianceLog] = None,
    stop: Optional[threading.Event] = None,
    host: str = "127.0.0.1",
    poll_s: float = 0.2,
    on_bound: Optional[Callable[[int], None]] = None,
) -> int:
    """Serve the same protocol over UDP, one message per datagram.

    Replies (cmd_limited or error) are sent back to the datagram's
    source address.  Runs until ``stop`` is set; a malformed datagram
    ends the loop with exit code 3 after the error reply.  ``port`` may
    be 0 to bind an ephemeral port, reported through ``on_bound``.
    """
    sock = socket_module.socket(socket_module.AF_INET, socket_module.SOCK_DGRAM)
    try:
        sock.bind((host, port))
        sock.settimeout(poll_s)
        if on_bound is not None:
            on_bound(sock.getsockname()[1])
        log.info("udp governor listening on %s:%d", host, sock.getsockname()[1])
        while stop is None or not stop.is_set():
            try:
                data, addr = sock.recvfrom(65536)
            except socket_module.timeout:
                continue
            try:
                msg = parse_message(data.decode("utf-8", errors="replace"))
            except ProtocolError as exc:
                log.error("protocol error from %s: %s", addr, exc)
                sock.sendto(format_error(str(exc)).encode("utf-8"), addr)
                return EXIT_PROTOCOL
            _dispatch(
                runtime,
                msg,
                lambda text, _addr=addr: sock.sendto(text.encode("utf-8"), _addr),
                compliance,
            )
        return EXIT_OK
    finally:
        if compliance is not None:
            compliance.flush()
        sock.close()
