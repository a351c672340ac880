"""Exception and warning types shared across the package, the exit codes of
the command line (``node.run_command`` maps each error to one), the one
opener of an input file and the one writer of an output file, the one
reader of a JSON input file and of a JSON object, by the table of its keys
and field kinds, and the one error for a text file that is not UTF-8.

An error's class says which input was bad, and so picks the exit code;
its text says which rule the input broke. There is one class per input
family, or per decision that code makes on an error: IngestError for bad
bench data (a trial manifest or stream and what its analysis finds, a
summary, a metrics CSV, a profile's schema, a fit), GovernorConfigError,
ScenarioInvariantViolation, ProtocolError and TransportError for the
governor's config, a scenario, a stream message and its transport,
OutputError for an output, InvariantViolation for an object that breaks a
physical invariant (exit 4), and RestitutionOutOfRange, which ``fit`` turns
into one.

A file that cannot be opened (missing, a directory, unreadable, or a path
that holds a NUL character) raises an error of the package, never a bare
OSError or ValueError: an input the class its reader names, an output an
OutputError; either exits 2 with one ``error:`` line that names the file.
So does an output that cannot be written: each is formatted whole before
it is opened, so no failed command leaves one truncated.

Only ``ingest`` lets numpy open a file too: its one ``np.loadtxt`` pass
re-reads, by path, a stream that ``open_input`` has just opened to read
the header. Where that re-read fails (the file removed in between, say),
the line-by-line reader opens the stream again through ``open_input``,
which names the failure."""

import json
import math

EXIT_OK = 0
EXIT_INPUT = 2  # bad or missing input
EXIT_RUNTIME = 3  # runtime or protocol failure on a stream
EXIT_INVARIANT = 4  # an output or a loaded object breaks a physical invariant


class ImpactGovernorError(Exception):
    """Base class for all package-specific errors."""


# --- bench data -----------------------------------------------------------

class IngestError(ImpactGovernorError):
    """Bad bench data: a trial manifest or stream, what its analysis finds in
    it, a summary, a metrics CSV, a profile's schema, or a fit. Each check
    says in its text which rule the data broke."""


# --- physical invariants --------------------------------------------------

class RestitutionOutOfRange(ImpactGovernorError):
    """Fitted restitution leaves [0, 1] somewhere on its domain."""


class InvariantViolation(ImpactGovernorError):
    """A loaded or constructed object violates its declared invariants."""


# --- governor -------------------------------------------------------------

class GovernorConfigError(ImpactGovernorError):
    """A governor configuration value is mistyped or out of range, or the
    compliance log cannot be opened or holds another header."""


# --- streaming ------------------------------------------------------------

class ProtocolError(ImpactGovernorError):
    """Malformed or unknown message on the streaming interface."""


class TransportError(ImpactGovernorError):
    """The streaming interface cannot be opened (a UDP port that will not bind, a closed
    stdio) or written (a reply reader that has gone)."""


# --- sim ------------------------------------------------------------------

class ScenarioInvariantViolation(ImpactGovernorError):
    """Scenario parameters are inconsistent (rates, geometry, governor config)."""


# --- outputs --------------------------------------------------------------

class OutputError(ImpactGovernorError):
    """An output file, or the output directory, cannot be opened, written or created."""


# --- warnings -------------------------------------------------------------

class NonMonotoneForceMapWarning(UserWarning):
    """The predicted average-force map F(v) decreases somewhere on [0, v_max];
    the bisection cap is still valid but the model deserves a look."""


# --- input files and JSON fields ------------------------------------------

#: the smallest int that float() refuses (it rounds up past the largest float)
INT_OVERFLOW = 2**1024 - 2**970

#: the kinds of value a JSON field holds, as an error message names them: a
#: number is an exact int or float (never a bool or a string), finite unless
#: its field is one of the few that may hold NaN or an infinity; ANY is the
#: value as it is, for its reader to check
FINITE = "a finite number"
NUMBER = "a number"
INT = "an integer"
STR = "a string"
BOOL = "true or false"
PAIR = "an [x, y] pair of finite numbers"
NUMBERS = "a non-empty list of finite numbers"
ANY = "any value"
REQUIRED = object()  # the default of a table key that must be present

_TYPES = {INT: int, STR: str, BOOL: bool}


def read_field(value, kind: str, name: str, error: type[Exception] = ValueError):
    """``value`` if it is of ``kind``: a number as a float (an int only when
    float() gives a finite float; a ``NUMBER`` may be a float NaN or infinity,
    a ``FINITE`` one may not), a PAIR as a tuple and NUMBERS as a list. Anything
    else raises ``error`` naming the field and the value (a list's first bad item)."""
    if kind in (FINITE, NUMBER):
        if type(value) is float and (kind == NUMBER or -math.inf < value < math.inf):
            return value
        if type(value) is int and -INT_OVERFLOW < value < INT_OVERFLOW:
            return float(value)
    elif kind in (PAIR, NUMBERS):
        if type(value) is list and (len(value) == 2 if kind == PAIR else value):
            numbers = [read_field(v, FINITE, name, error) for v in value]
            return tuple(numbers) if kind == PAIR else numbers
    elif kind == ANY or type(value) is _TYPES[kind]:
        return value
    raise error(f"{name} must be {kind}, got {value!r}")


def read_object(data, fields: dict, where: str, error: type[Exception], closed: bool = False):
    """The values of the JSON object ``data`` by the table ``fields``, which
    maps each key to its ``read_field`` kind (or the table of a nested object)
    and the value of an absent key (from which an absent nested object is
    read), or REQUIRED. ``error`` names ``where`` and the key, by its path
    (``gains.attract``), for a value that is not an object, a required key
    that is absent, a value not of its kind and, in a ``closed`` table, a key
    that it does not list."""

    def read(obj, table: dict, path: str) -> dict:
        if type(obj) is not dict:
            what = f"{path[:-1]} must be" if path else "expected"
            raise error(f"{where}: {what} a JSON object, got {type(obj).__name__}")
        unknown = sorted(obj.keys() - table.keys()) if closed else ()
        if unknown:
            raise error(f"{where}: unknown key {', '.join(repr(path + key) for key in unknown)}")
        values = {}
        for key, (kind, default) in table.items():
            if key not in obj and default is REQUIRED:
                raise error(f"{where}: missing key {path + key!r}")
            if type(kind) is dict:
                values[key] = read(obj.get(key, default), kind, f"{path}{key}.")
            elif key in obj:
                values[key] = read_field(obj[key], kind, f"{where}: {path}{key}", error)
            else:
                values[key] = default
        return values

    return read(data, fields, "")


def open_input(path, error: type[Exception], newline=None):
    """``path`` opened to read UTF-8 text; one that cannot be opened (missing,
    a directory, unreadable) raises ``error`` with the OSError's text, which
    names the file, and one that holds a NUL character (``open`` raises a
    ValueError) raises it with a text of the same form."""
    try:
        return open(path, "r", encoding="utf-8", newline=newline)
    except OSError as exc:
        raise error(str(exc)) from exc
    except ValueError as exc:
        raise error(f"{exc}: {str(path)!r}") from exc


def read_json_file(path, error: type[Exception]):
    """The JSON document in the UTF-8 file ``path``; a file that cannot be
    opened or does not decode raises ``error`` naming the file.

    Not decoding covers JSON that ``json`` cannot read, a byte that is not
    UTF-8, an integer past the digit limit of int() and nesting too deep
    for the decoder.
    """
    with open_input(path, error) as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:  # JSONDecodeError and UnicodeDecodeError too
            raise error(f"{path}: invalid JSON input: {exc}") from exc


def write_output(path, text: str, newline=None) -> None:
    """Write ``text`` to ``path`` as UTF-8, replacing the file (``newline`` as
    for ``open``). An OSError from the open, the write or the close, or the
    ValueError of a path that holds a NUL character or of text that UTF-8
    cannot encode, raises one OutputError naming the file: ``cannot open
    output`` or ``cannot write output``."""
    action = "open"
    try:
        with open(path, "w", encoding="utf-8", newline=newline) as fh:
            action = "write"
            fh.write(text)
    except (OSError, ValueError) as exc:
        why = getattr(exc, "strerror", None) or exc
        raise OutputError(f"cannot {action} output {path}: {why}") from exc


def write_json_file(path, obj) -> None:
    """``write_output`` of ``obj`` as JSON indented by 2, with a final newline."""
    write_output(path, json.dumps(obj, indent=2) + "\n")


def not_utf8(path, exc: UnicodeDecodeError) -> IngestError:
    """The IngestError for the text file ``path`` in which ``exc`` found a
    byte that is not UTF-8. It names the byte, not ``exc``'s position, which
    counts from a read chunk rather than the start of the file."""
    return IngestError(f"{path}: byte 0x{exc.object[exc.start]:02x} is not UTF-8")
