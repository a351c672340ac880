"""The command line: one parser, one entry point, one failure path, and ``govern``.

``main`` is the entry point of ``impact-governor`` and of
``python -m impact_governor``; ``build_parser`` defines all five commands,
and ``main`` builds that parser once per process.
``govern`` runs here, and the analysis commands load ``cli`` (and numpy)
only when they run: this module loads only the standard library and the
runtime modules, so ``--help``, ``--version`` and ``govern`` start without
the analysis stack. Commands raise; ``run_command`` alone prints
``error: ...`` and picks the exit code (see ``errors``). It also writes
``run_manifest.json`` into the output directory for every run, failed or
not: the inputs, outputs, config hash and tool version the command
recorded, the exit code and the ``error:`` line. Set
``IMPACT_GOVERNOR_LOG=DEBUG|INFO|WARNING|ERROR`` for stderr logging.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import signal
import sys
import threading
import time
from pathlib import Path

from . import __version__
from .errors import (
    EXIT_INPUT,
    EXIT_INVARIANT,
    EXIT_OK,
    EXIT_RUNTIME,
    STR,
    GovernorConfigError,
    ImpactGovernorError,
    IngestError,
    InvariantViolation,
    OutputError,
    ProtocolError,
    TransportError,
    read_json_file,
    read_object,
    write_json_file,
)
from .governor import GovernorConfig, GovernorRuntime
from .profile import BODY_REGION_LIMITS_N, AirframeProfile, load_profile
from .stream import ComplianceLog, ReplyBatch, run_stream, run_udp, stdio_lines

log = logging.getLogger(__name__)

#: exit code per exception type a subcommand may raise; the most specific
#: class in the exception's MRO decides (IngestError, GovernorConfigError,
#: RestitutionOutOfRange, ScenarioInvariantViolation and OutputError are bad
#: input through ImpactGovernorError; an input file that cannot be opened is
#: one of these, raised by errors.open_input)
_EXIT_CODES = {
    ProtocolError: EXIT_RUNTIME,
    TransportError: EXIT_RUNTIME,
    InvariantViolation: EXIT_INVARIANT,
    ImpactGovernorError: EXIT_INPUT,
    # input files decode through errors.read_json_file; this row is for a
    # byte that is not UTF-8 on govern --stdin, which decodes strictly
    UnicodeDecodeError: EXIT_INPUT,
}


def _configure_logging() -> None:
    name = os.environ.get("IMPACT_GOVERNOR_LOG", "WARNING").upper()
    level = getattr(logging, name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(
        level=level, format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr
    )


def _sha256_of(obj) -> str:
    """The SHA-256 hex digest of ``obj`` as sorted-key JSON; the package's
    one digest (``config_sha256`` in ``run_manifest.json``).

    It hashes with CPython's built-in SHA-256 module (``_sha2`` from 3.12,
    ``_sha256`` before), as the stdlib's ``random`` does: ``hashlib`` loads
    OpenSSL's libcrypto, about 3.5 MB of resident memory for one digest of
    under 1 KB. Only a build without the built-in hashes falls back to
    ``hashlib``. Either gives the same bytes, so ``config_sha256`` is
    unchanged.
    """
    try:
        if sys.version_info >= (3, 12):
            from _sha2 import sha256
        else:
            from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

    return sha256(json.dumps(obj, sort_keys=True, default=str).encode("utf-8")).hexdigest()


def _write_run_manifest(out_dir: Path, subcommand: str, started: str, run: dict, **outcome):
    """Write ``run_manifest.json`` from the command's ``run`` record; its keys
    past ``inputs``, ``outputs`` and ``config`` are extra top-level sections."""
    sections = dict(run)
    config = sections.pop("config")
    payload = {
        "tool": "impact-governor",
        "version": __version__,
        "subcommand": subcommand,
        "started_utc": started,
        "finished_utc": _utc_now(),
        "inputs": [str(p) for p in sections.pop("inputs")],
        "outputs": [str(p) for p in sections.pop("outputs")],
        "config_sha256": None if config is None else _sha256_of(config),
        **sections,
        **outcome,
    }
    write_json_file(out_dir / "run_manifest.json", payload)


def _utc_now() -> str:
    """The UTC time to the second, as ``datetime.isoformat`` writes it."""
    return time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime())


def _governor_overrides(args) -> dict:
    """The governor settings the command line sets, for ``{**base, **overrides}``.

    The force target is --f-star, else the --body-region limit; with
    neither, the base's own f_star_n or body_region decides.
    """
    overrides = {}
    if args.f_star is not None:
        overrides["f_star_n"] = args.f_star
    elif args.body_region:
        overrides["f_star_n"] = BODY_REGION_LIMITS_N[args.body_region]
    if args.mode:
        overrides["mode"] = args.mode
    return overrides


def print_error(line: str) -> None:
    """Print an ``error: ...`` line to stderr if it takes it: with stderr
    closed or failing, the line is dropped, and no exit code or output changes."""
    if sys.stderr is not None:  # None when started closed; print would use stdout
        try:
            print(line, file=sys.stderr)
        except OSError:
            pass


def _drop_a_failing_stderr() -> None:
    """Flush stderr, and drop it if that fails: a line that an error line or
    a log record left in its buffer would fail the flush at exit again, and
    that would make the exit status 120."""
    try:
        if sys.stderr is not None:
            sys.stderr.flush()
    except OSError:
        sys.stderr = None


def _to_stdout(line: str | None) -> None:
    """Print ``line``, unless None, to stdout, and flush stdout. A stdout that
    cannot take it raises an OutputError naming stdout, and is dropped as
    ``_drop_a_failing_stderr`` drops stderr: what it still holds would fail
    the flush at exit again, and that would make the exit status 120."""
    try:
        if sys.stdout is not None:  # None when started closed, or dropped
            if line is not None:
                print(line)
            sys.stdout.flush()
    except OSError as exc:
        sys.stdout = None
        raise OutputError(f"cannot write to stdout: {exc.strerror or exc}") from None


def run_command(args) -> int:
    """Run the parsed subcommand; an error it raises becomes its exit code.

    ``args.func(args, run)`` fills ``run``: its ``inputs``, ``config``, any
    extra manifest sections, ``outputs`` as it writes them, and the
    ``summary`` line to print, if any. Once it returns, that line is printed
    and stdout flushed, so that a stdout that cannot take them fails the run
    (``_to_stdout``). Whatever the outcome, ``run_manifest.json`` then
    records it with the exit code and the ``error:`` line; both stay null
    for an exception that is not mapped, which propagates with its
    traceback. An output directory that cannot be made exits 2 with its
    ``error:`` line alone: there is nowhere to write the manifest. A
    manifest that cannot be written adds its own ``error:`` line and turns
    an exit code of 0 into 2; the outputs the command wrote stay.
    """
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print_error(f"error: cannot create output directory {out}: {exc.strerror or exc}")
        _drop_a_failing_stderr()
        return EXIT_INPUT
    started = _utc_now()
    run = {"inputs": [], "outputs": [], "config": None}
    code, error, stop = None, None, None
    try:
        code = args.func(args, run)
        _to_stdout(run.pop("summary", None))
    except SystemExit as exc:  # govern's SIGTERM on --stdin
        code, stop = exc.code, exc
        raise
    except tuple(_EXIT_CODES) as exc:
        code = next(_EXIT_CODES[cls] for cls in type(exc).__mro__ if cls in _EXIT_CODES)
        error = f"error: {exc}"
        print_error(error)
    finally:
        try:
            _write_run_manifest(out, args.subcommand, started, run, exit_code=code, error=error)
        except OutputError as exc:
            print_error(f"error: {exc}")
            code = code or EXIT_INPUT
            if stop is not None:  # the SystemExit on its way out exits with it
                stop.code = code
        _drop_a_failing_stderr()
    return code


# --- govern -----------------------------------------------------------------


#: a governor config file's paths, relative to it; from_dict reads the rest
_CONFIG_PATHS = {"profile": (STR, None), "compliance_log": (STR, None)}


def _resolve_governor_setup(args) -> tuple[GovernorConfig, Path, Path | None]:
    """The config file's governor settings under the command line's, the path
    of the profile to load and the compliance log (paths relative to the
    config file)."""
    data = {}
    config_dir = Path.cwd()
    if args.config:
        data = read_json_file(args.config, GovernorConfigError)
        config_dir = Path(args.config).resolve().parent
    paths = read_object(data, _CONFIG_PATHS, "bad governor config", GovernorConfigError)
    settings = {k: v for k, v in data.items() if k not in paths}
    cfg = GovernorConfig.from_dict({**settings, **_governor_overrides(args)})
    # both config paths are checked even where --profile takes precedence
    profile_path, compliance_path = (None if p is None else config_dir / p for p in paths.values())
    if args.profile:
        profile_path = Path(args.profile)
    if profile_path is None:
        raise IngestError("govern needs an airframe profile (--profile or config)")
    return cfg, profile_path, compliance_path


def _force_cap_evidence(runtime: GovernorRuntime, profile: AirframeProfile) -> dict:
    """The force cap beside the bench speeds it rests on: how far past the
    fastest measured speed v_force lies, and the contact time it assumes."""
    domain = profile.restitution.domain
    return {
        "v_force_mps": runtime.v_force,
        "s_zone_m": runtime.s_zone,
        "speed_domain_mps": list(domain),
        "extrapolation_ratio": runtime.v_force / domain[1],  # the profile keeps domain[1] > 0
        "extrapolated": profile.restitution.extrapolated(runtime.v_force),
        "dt_s": profile.dt_s,
    }


def cmd_govern(args, run: dict) -> int:
    if args.config:
        run["inputs"].append(args.config)
    cfg, profile_path, compliance_path = _resolve_governor_setup(args)
    run["inputs"].append(profile_path)
    profile = load_profile(profile_path)
    compliance_path = compliance_path or Path(args.out) / "compliance.csv"
    run["config"] = cfg.to_dict()
    runtime = GovernorRuntime(cfg, profile)
    run["governor"] = evidence = _force_cap_evidence(runtime, profile)
    log.info(
        "governor up: v_force=%.4g m/s, zone=%.4g m, mode=%s, measured speeds "
        "%.4g-%.4g m/s, extrapolation ratio %.3g, dt=%.4g s",
        runtime.v_force, runtime.s_zone, cfg.mode, *evidence["speed_domain_mps"],
        evidence["extrapolation_ratio"], profile.dt_s,
    )

    stop = threading.Event()

    def _handle_term(signum, frame):
        stop.set()
        if args.udp is None:
            raise SystemExit(EXIT_OK)

    old_handler = signal.signal(signal.SIGTERM, _handle_term)
    try:
        with ComplianceLog(compliance_path) as compliance:
            run["outputs"].append(compliance_path)
            if args.udp is not None:
                return run_udp(runtime, args.udp, compliance=compliance, stop=stop)
            if None in (sys.stdin, sys.stdout):  # started with one closed (<&- or >&-)
                raise TransportError(f"{'stdin' if sys.stdin is None else 'stdout'} is closed")
            replies = ReplyBatch(sys.stdout)
            lines = stdio_lines(sys.stdin, replies)
            try:
                return run_stream(runtime, lines, replies, compliance=compliance)
            except TransportError:  # stdout failed: drop it, as _drop_a_failing_stderr does
                sys.stdout = None  # its unwritten replies would fail the flush at exit (status 120)
                raise
    except KeyboardInterrupt:
        return EXIT_OK
    finally:
        signal.signal(signal.SIGTERM, old_handler)


# --- command line -----------------------------------------------------------


def port(text: str) -> int:
    """A UDP port number (argparse names this function for a non-number)."""
    number = int(text)
    if not 0 <= number <= 65535:
        raise argparse.ArgumentTypeError(f"port must be 0-65535, got {number}")
    return number


def degree(text: str) -> int:
    """A polynomial degree (argparse names this function for a non-number)."""
    number = int(text)
    if number < 0:
        raise argparse.ArgumentTypeError(f"degree must be >= 0, got {number}")
    return number


def _run_analysis(args, run: dict) -> int:
    """Run ``cli.cmd_<subcommand>``, looked up on the module at call time so
    that a wrapper set on the module attribute is what runs; the summary line
    it returns with its exit code goes to ``run`` for ``run_command``."""
    from . import cli  # loads the analysis stack and numpy

    code, run["summary"] = getattr(cli, f"cmd_{args.subcommand}")(args, run)
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="impact-governor",
        description="Bench impact characterization and velocity governing",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    # the governor flags govern and simulate share (read by _governor_overrides)
    overrides = argparse.ArgumentParser(add_help=False)
    overrides.add_argument("--mode", choices=("binary", "ramp"))
    overrides.add_argument("--f-star", type=float, dest="f_star", help="force target [N]")
    overrides.add_argument("--body-region", choices=sorted(BODY_REGION_LIMITS_N))

    p = sub.add_parser("analyze", help="process trial manifests into metrics")
    p.add_argument("input_dir", help="directory of trial manifest JSON files")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_run_analysis)

    p = sub.add_parser("fit", help="fit an airframe profile from summaries")
    p.add_argument("summaries", nargs="+", help="configuration summary JSON files")
    p.add_argument("--out", required=True)
    p.add_argument("--degree", type=degree, default=2, help="restitution fit degree")
    p.set_defaults(func=_run_analysis)

    p = sub.add_parser("govern", parents=[overrides], help="run the streaming velocity governor")
    transport = p.add_mutually_exclusive_group(required=True)
    transport.add_argument("--stdin", action="store_true", help="NDJSON on stdio")
    transport.add_argument("--udp", type=port, metavar="PORT", help="UDP datagrams")
    p.add_argument("--config", help="governor config JSON")
    p.add_argument("--profile", help="airframe profile JSON")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_govern)

    p = sub.add_parser("simulate", parents=[overrides], help="closed-loop scenario validation")
    p.add_argument("scenario", help="scenario JSON file")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_run_analysis)

    p = sub.add_parser("report", help="render a markdown bench report")
    p.add_argument("inputs", nargs="+", help="metrics CSV / summary / profile files")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_run_analysis)

    return parser


#: the one parser of this process, built on first use; each parse_args
#: call still returns a new Namespace
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    """Entry point: parse the command line and run its subcommand."""
    _configure_logging()
    return run_command(_parser().parse_args(argv))
