"""Streaming front end for the velocity governor.

Messages are newline-delimited JSON objects with a ``type`` field:

* ``{"type": "range", "d_m": <float>, "t_s": <float>}``
* ``{"type": "odom", "vx": ..., "vy": ..., "vz": ..., "t_s": ...}``
* ``{"type": "cmd", "vx": ..., "vy": ..., "vz": ..., "t_s": ...}``

Every ``cmd`` produces exactly one reply line::

    {"type": "cmd_limited", "vx": ..., "vy": ..., "vz": ...,
     "cap_mps": ..., "source": ..., "t_s": ...}

``range`` updates governor state silently.  ``odom`` is validated like
any other message and otherwise ignored: no cap depends on odometry.  A
malformed message produces a single ``{"type": "error", ...}`` line and
raises ProtocolError, which ends the stream (exit code 3 on the command
line).  The same payloads ride either stdin/stdout or UDP datagrams (one
datagram per message, replies unicast back to the sender) through one loop.

On stdin the governor reads at most ``READ_CHUNK`` bytes at a time, serves
every complete line of what it read, and writes that chunk's replies to
stdout in one write just before its next read (``stdio_lines`` with a
``ReplyBatch``). No reply waits while the governor waits for input, so a
live stream, which delivers one message per read, gets each reply at once;
a replayed log gets one write per chunk instead of one per reply.

Each emitted command is also appended to a compliance CSV so that a
post-hoc audit can confirm the cap was honored.
"""

from __future__ import annotations

import io
import json
import logging
import sys
import threading
from itertools import repeat
from typing import IO, Callable, Iterable, Optional

from .errors import (
    EXIT_OK, INT_OVERFLOW, GovernorConfigError, OutputError, ProtocolError, TransportError,
)
from .governor import ComplianceRecord, GovernorRuntime, VelocityCommand

log = logging.getLogger(__name__)

COMPLIANCE_COLUMNS = (
    "t_s",
    "input_speed_mps",
    "output_speed_mps",
    "d_m",
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


def _reject_constant(name: str):
    raise ProtocolError(f"non-finite number {name} is not allowed")


#: one decoder for every message; it refuses the NaN/Infinity literals that
#: json.loads would accept, so a non-finite reading never reaches the governor
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)
_SCAN = _DECODER.scan_once


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
        # errors.read_field's rule for a finite number, inline on the hot path:
        # the decoder makes exact int, float and bool only, and a bool is no
        # number; an int past INT_OVERFLOW would make float() raise
        if type(value) is float:
            # 0.0 for every finite float, NaN for an inf (a literal like 1e999)
            finite = value - value == 0.0
        elif type(value) is int:
            finite = -INT_OVERFLOW < value < INT_OVERFLOW
        else:
            raise ProtocolError(f"{mtype} message field {key!r} must be a number")
        if not finite:
            raise ProtocolError(f"{mtype} message field {key!r} must be finite")
    return msg


def format_cmd_limited(out: VelocityCommand, record: ComplianceRecord) -> str:
    """Serialize the governed command reply (stable key order, no spaces).

    Byte-equal to ``json.dumps`` of the reply with ``separators=(",", ":")``
    for what the runtime emits: the numbers are exact finite floats (the
    command as ``_serve`` builds it) or ints (a cap taken from an int config
    value, see ``GovernorConfig``), and the source is one of the four
    plain-ASCII cap sources.

    One f-string calls ``repr`` on each number directly, where ``%`` on a
    template would build a 6-tuple and parse the template on every call; it
    writes the same bytes as that ``%r``/``%s`` template.
    """
    return (
        f'{{"type":"cmd_limited","vx":{out.vx!r},"vy":{out.vy!r},"vz":{out.vz!r},'
        f'"cap_mps":{record.cap_mps!r},"source":"{record.cap_source}",'
        f'"t_s":{out.timestamp!r}}}'
    )


def format_error(message: str) -> str:
    return json.dumps({"type": "error", "message": message}, separators=(",", ":"))


class ComplianceLog:
    """Append-only CSV sink for per-command compliance records.

    A new or empty file gets the header; any other file is appended to only
    when its first line is exactly this header, so that no row lands under
    columns it does not match. A file that cannot be opened (a path that
    holds a NUL character among them), or holds another header, raises
    GovernorConfigError naming the path; a row that cannot be
    written, an OutputError naming it.
    """

    def __init__(self, path):
        self._path = path
        header = ",".join(COMPLIANCE_COLUMNS) + "\n"
        # rows go through a write-only handle (a read-write one resets its
        # decoder at every write); the header is read through its own handle,
        # with errors="replace" making a file that is not UTF-8 a mismatch
        try:
            self._fh = open(path, "a", encoding="utf-8")
            try:
                with open(path, encoding="utf-8", errors="replace") as fh:
                    first = fh.readline(len(header))
                if first == "":
                    self._fh.write(header)
                    self._fh.flush()
            except BaseException:
                self._fh.close()
                raise
        except OSError as exc:
            raise GovernorConfigError(
                f"cannot open compliance log {path}: {exc.strerror or exc}"
            ) from exc
        except ValueError as exc:  # a path that holds a NUL character
            raise GovernorConfigError(
                f"cannot open compliance log {str(path)!r}: {exc}"
            ) from exc
        if first not in ("", header):
            self._fh.close()
            raise GovernorConfigError(
                f"compliance log {path} does not start with the header {header[:-1]!r}"
            )

    def write(self, record: ComplianceRecord) -> None:
        # %.9g takes an int or a bool as a float and prints every NaN as "nan"
        try:
            self._fh.write(
                "%.9g,%.9g,%.9g,%.9g,%.9g,%s,%s,%s\n"
                % (
                    record.timestamp,
                    record.input_speed_mps,
                    record.output_speed_mps,
                    record.d_m,
                    record.cap_mps,
                    record.cap_source,
                    "true" if record.violated else "false",
                    ";".join(record.flags),
                )
            )
        except OSError as exc:
            raise self._cannot_write(exc) from exc

    def flush(self) -> None:
        try:
            self._fh.flush()
        except OSError as exc:
            raise self._cannot_write(exc) from exc

    def close(self) -> None:
        try:
            self._fh.close()  # which flushes first, and closes the file even where that fails
        except OSError as exc:
            raise self._cannot_write(exc) from exc

    def _cannot_write(self, exc: OSError) -> OutputError:
        return OutputError(f"cannot write compliance log {self._path}: {exc.strerror or exc}")

    def __enter__(self) -> "ComplianceLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _serve(
    runtime: GovernorRuntime,
    messages: Iterable[tuple[str, Callable[[str], None]]],
    compliance: Optional[ComplianceLog],
) -> None:
    """Parse each ``(text, emit)`` message and route it into ``runtime``: a
    ``cmd`` gets its reply through its ``emit`` (and a row in ``compliance``),
    a ``range`` updates the runtime, an ``odom`` is dropped.  A malformed
    message gets one error reply through its ``emit``, then its ProtocolError
    propagates."""
    on_range = runtime.on_range
    on_command = runtime.on_command
    try:
        for text, emit in messages:
            try:
                msg = parse_message(text)
            except ProtocolError as exc:
                emit(format_error(str(exc)))
                raise
            mtype = msg["type"]
            if mtype == "cmd":
                out = on_command(
                    VelocityCommand(
                        float(msg["vx"]), float(msg["vy"]), float(msg["vz"]), float(msg["t_s"])
                    )
                )
                record = runtime.last_record
                emit(format_cmd_limited(out, record))
                if compliance is not None:
                    compliance.write(record)
            elif mtype == "range":
                on_range(float(msg["d_m"]), float(msg["t_s"]))
    finally:
        if compliance is not None:
            compliance.flush()


#: the most bytes one read of stdin asks for: TextIOWrapper's own chunk size
READ_CHUNK = 8192

#: the newline rule CPython gives sys.stdin: "\n" ends a line, except on Windows
_STDIN_NEWLINE = None if sys.platform == "win32" else "\n"


class ReplyBatch:
    """Reply sink that holds each written reply until ``flush``, which writes
    them all to the text stream ``fh`` as one string and flushes ``fh``; a
    write or flush that fails (a reader that has gone, say) raises
    TransportError."""

    def __init__(self, fh: IO[str]):
        self._fh = fh
        self._parts: list[str] = []
        self.write = self._parts.append

    def flush(self) -> None:
        if self._parts:
            text = "".join(self._parts)
            self._parts.clear()
            try:
                self._fh.write(text)
                self._fh.flush()
            except OSError as exc:
                raise TransportError(f"cannot write replies: {exc.strerror or exc}") from exc


class _FlushBeforeRead(io.BufferedIOBase):
    """The binary stream ``raw``, with ``sink`` flushed before each read,
    which may block."""

    def __init__(self, raw: IO[bytes], sink: ReplyBatch):
        self._raw = raw
        self._sink = sink

    def readable(self) -> bool:
        return True

    def read1(self, size: int = READ_CHUNK) -> bytes:
        self._sink.flush()
        return self._raw.read1(size)


def stdio_lines(stdin: io.TextIOWrapper, sink: ReplyBatch) -> io.TextIOWrapper:
    """The lines of ``stdin``, decoded and split by the rules of sys.stdin, from
    reads of at most ``READ_CHUNK`` bytes of ``stdin.buffer`` with ``sink``
    flushed before each one."""
    lines = io.TextIOWrapper(
        _FlushBeforeRead(stdin.buffer, sink),
        encoding=stdin.encoding,
        errors=stdin.errors,
        newline=_STDIN_NEWLINE,
    )
    lines._CHUNK_SIZE = READ_CHUNK  # the size each read1 asks for
    return lines


def run_stream(
    runtime: GovernorRuntime,
    lines: Iterable[str],
    out_fh: IO[str],
    compliance: Optional[ComplianceLog] = None,
) -> int:
    """Consume NDJSON lines until exhaustion; returns 0 on a clean end of input
    (an empty stream included). The first malformed message gets an error line
    and raises ProtocolError; no line after it is read.

    Each reply goes to ``out_fh.write`` as soon as it is formatted;
    ``out_fh`` is flushed once, when the stream ends for any reason."""

    def emit(text: str) -> None:
        out_fh.write(text + "\n")

    try:
        # each stripped non-blank line with the one emit, by C iterators: no Python frame per line
        _serve(runtime, zip(filter(None, map(str.strip, lines)), repeat(emit)), compliance)
    finally:
        out_fh.flush()
    return EXIT_OK


def run_udp(
    runtime: GovernorRuntime,
    port: int,
    compliance: Optional[ComplianceLog] = None,
    stop: Optional[threading.Event] = None,
    poll_s: float = 0.2,
    on_bound: Optional[Callable[[int], None]] = None,
) -> int:
    """Serve the same protocol over UDP on the loopback address, one message
    per datagram.

    Replies (cmd_limited or error) are sent back to the datagram's
    source address.  Runs until ``stop`` is set and then returns 0; a
    malformed datagram is answered with an error reply and raises
    ProtocolError.  ``port`` may be 0 to bind an ephemeral port, reported
    through ``on_bound``; a port that will not bind raises TransportError.
    """
    import socket  # only UDP needs it: govern --stdin starts without it

    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        try:
            sock.bind(("127.0.0.1", port))
        except OSError as exc:
            raise TransportError(f"cannot bind UDP port {port}: {exc.strerror or exc}") from exc
        sock.settimeout(poll_s)
        if on_bound is not None:
            on_bound(sock.getsockname()[1])
        log.info("udp governor listening on 127.0.0.1:%d", sock.getsockname()[1])

        def datagrams():  # stop is checked between messages, never mid-reply
            while stop is None or not stop.is_set():
                try:
                    data, addr = sock.recvfrom(65536)
                except socket.timeout:
                    continue
                text = data.decode("utf-8", errors="replace")
                yield text, lambda reply, _addr=addr: sock.sendto(reply.encode("utf-8"), _addr)

        _serve(runtime, datagrams(), compliance)
        return EXIT_OK
    finally:
        sock.close()
