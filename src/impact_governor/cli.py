"""Command-line front end.

Subcommands mirror the bench-to-flight workflow:

* ``analyze``  — trial manifests -> per-trial metrics CSV + per-speed
  configuration summaries
* ``fit``      — configuration summaries -> airframe profile JSON
* ``govern``   — run the streaming velocity governor on stdin/stdout or UDP
* ``simulate`` — closed-loop kinematic validation of a scenario file
* ``report``   — metrics/summaries/profiles -> markdown bench report

Exit codes: 0 success, 2 bad or missing input, 3 runtime/protocol
failure on a stream, 4 invariant violation detected in outputs.
Every run writes ``run_manifest.json`` (inputs, outputs, config hash,
tool version) into the output directory for traceability.  Set
``IMPACT_GOVERNOR_LOG=DEBUG|INFO|WARNING|ERROR`` for stderr logging.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import os
import re
import signal
import sys
import threading
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .errors import (
    GovernorConfigError,
    ImpactGovernorError,
    IngestError,
    InvariantViolation,
    ProtocolError,
    RestitutionOutOfRange,
)
from .fit import (
    BODY_REGION_LIMITS_N,
    build_airframe_profile,
    load_profile,
    save_profile,
)
from .governor import GovernorConfig, GovernorRuntime, force_speed_cap
from .impact import (
    METRICS_CSV_COLUMNS,
    ConfigurationSummary,
    ImpactMetrics,
    aggregate_configuration,
    summarize_trial,
)
from .ingest import align_streams, load_trial
from .sim import (
    load_scenario,
    run_scenario,
    write_trajectory,
    write_trajectory_gnuplot,
)
from .stream import ComplianceLog, run_stream, run_udp

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_RUNTIME = 3
EXIT_INVARIANT = 4

#: exit code per exception type a subcommand may raise; the most specific
#: class in the exception's MRO decides (IngestError, FitError and
#: ScenarioInvariantViolation are bad input through ImpactGovernorError)
_EXIT_CODES = {
    ProtocolError: EXIT_RUNTIME,
    InvariantViolation: EXIT_INVARIANT,
    ImpactGovernorError: EXIT_INPUT,
    FileNotFoundError: EXIT_INPUT,
    json.JSONDecodeError: EXIT_INPUT,
}


def _configure_logging() -> None:
    name = os.environ.get("IMPACT_GOVERNOR_LOG", "WARNING").upper()
    level = getattr(logging, name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(
        level=level, format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr
    )


def _slug(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "_", text).strip("_") or "unnamed"


def _sha256_of(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True, default=str).encode("utf-8")
    ).hexdigest()


def _write_run_manifest(
    out_dir: Path, subcommand: str, inputs, outputs, config_obj, started: str
) -> Path:
    payload = {
        "tool": "impact-governor",
        "version": __version__,
        "subcommand": subcommand,
        "started_utc": started,
        "finished_utc": _utc_now(),
        "inputs": [str(p) for p in inputs],
        "outputs": [str(p) for p in outputs],
        "config_sha256": _sha256_of(config_obj),
    }
    path = out_dir / "run_manifest.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    return path


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _ensure_out(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


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


# --- analyze ----------------------------------------------------------------


def _is_trial_manifest(path: Path) -> bool:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return False
    return isinstance(data, dict) and "force_csv" in data and "range_csv" in data


def _metrics_row(m: ImpactMetrics) -> list[str]:
    row = [m.configuration, _num(m.mass_kg), _num(m.angle_deg)]
    row += [_num(getattr(m, f)) for f in METRICS_CSV_COLUMNS[3:-1]]
    row.append(";".join(m.flags))
    return row


def _num(value: float) -> str:
    return format(float(value), ".9g")


def _metrics_from_row(row: dict) -> ImpactMetrics:
    kwargs = {"configuration": row["configuration"]}
    for name in METRICS_CSV_COLUMNS[1:-1]:
        kwargs[name] = float(row[name])
    flags = [f for f in row.get("flags", "").split(";") if f]
    return ImpactMetrics(flags=flags, **kwargs)


def cmd_analyze(args) -> int:
    out = _ensure_out(args)
    started = _utc_now()
    in_dir = Path(args.input_dir)
    if not in_dir.is_dir():
        print(f"error: not a directory: {in_dir}", file=sys.stderr)
        return EXIT_INPUT
    manifests = sorted(p for p in in_dir.glob("*.json") if _is_trial_manifest(p))
    if not manifests:
        print(f"error: no trial manifests found in {in_dir}", file=sys.stderr)
        return EXIT_INPUT

    processed: list[tuple] = []  # (manifest_path, meta, metrics)
    failures = 0
    for path in manifests:
        try:
            raw = load_trial(path)
            record = align_streams(raw)
            metrics = summarize_trial(record)
        except ImpactGovernorError as exc:
            failures += 1
            print(f"error: {path.name}: {exc}", file=sys.stderr)
            continue
        processed.append((path, raw.meta, metrics))

    outputs = []
    if processed:
        metrics_csv = out / "metrics.csv"
        with open(metrics_csv, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(METRICS_CSV_COLUMNS)
            for _, _, m in processed:
                writer.writerow(_metrics_row(m))
        outputs.append(metrics_csv.name)

        groups: dict[tuple, list] = {}
        for _, meta, m in processed:
            key = (meta.configuration, round(meta.nominal_speed_mps, 3))
            groups.setdefault(key, []).append(m)
        for (config, speed), members in sorted(groups.items()):
            if len(members) < 2:
                log.warning(
                    "skipping aggregate for %s @ %g m/s: only %d trial",
                    config, speed, len(members),
                )
                continue
            summary = aggregate_configuration(members)
            name = f"summary_{_slug(config)}_v{speed:g}.json"
            with open(out / name, "w", encoding="utf-8") as fh:
                json.dump(summary.to_dict(), fh, indent=2)
                fh.write("\n")
            outputs.append(name)

    outputs.append(
        _write_run_manifest(
            out, "analyze", manifests, outputs, {"input_dir": str(in_dir)}, started
        ).name
    )
    n_ok = len(processed)
    print(f"analyzed {n_ok}/{len(manifests)} trials -> {out}")
    return EXIT_INPUT if failures else EXIT_OK


# --- fit --------------------------------------------------------------------


def cmd_fit(args) -> int:
    out = _ensure_out(args)
    started = _utc_now()
    summaries = []
    for path in args.summaries:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        try:
            summaries.append(ConfigurationSummary.from_dict(data))
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise IngestError(
                f"{path}: not a configuration summary "
                f"({type(exc).__name__}: {exc})"
            ) from exc
    try:
        profile = build_airframe_profile(summaries, restitution_degree=args.degree)
    except RestitutionOutOfRange as exc:
        print(f"error: fitted model breaks physics: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    name = f"profile_{_slug(profile.name)}.json"
    save_profile(profile, out / name)
    _write_run_manifest(
        out, "fit", args.summaries, [name],
        {"degree": args.degree, "summaries": [str(s) for s in args.summaries]},
        started,
    )
    flag = " (downgraded to constant)" if profile.downgraded else ""
    print(
        f"profile {profile.name}: restitution degree {profile.restitution.degree}"
        f"{flag}, R^2={profile.restitution.r_squared:.6g} -> {out / name}"
    )
    return EXIT_OK


# --- govern -----------------------------------------------------------------


def _resolve_governor_setup(args) -> tuple[GovernorConfig, "object", Path | None]:
    """The config file's governor settings under the command line's, its profile
    and its compliance log (paths relative to the config file)."""
    data = {}
    config_dir = Path.cwd()
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise GovernorConfigError("governor config must be a JSON object")
        config_dir = Path(args.config).resolve().parent

    settings = {k: v for k, v in data.items() if k not in ("profile", "compliance_log")}
    cfg = GovernorConfig.from_dict({**settings, **_governor_overrides(args)})
    # both config paths are checked even where --profile takes precedence
    profile_path = _config_path(data, "profile", config_dir)
    compliance_path = _config_path(data, "compliance_log", config_dir)
    if args.profile:
        profile_path = Path(args.profile)
    if profile_path is None:
        raise IngestError("govern needs an airframe profile (--profile or config)")
    return cfg, load_profile(profile_path), compliance_path


def _config_path(data: dict, key: str, config_dir: Path) -> Path | None:
    """A path from the governor config, relative to the config's directory."""
    if key not in data:
        return None
    value = data[key]
    if not isinstance(value, str):
        raise GovernorConfigError(f"bad governor config: {key} must be a path, got {value!r}")
    path = Path(value)
    return path if path.is_absolute() else config_dir / path


def cmd_govern(args) -> int:
    out = _ensure_out(args)
    started = _utc_now()
    cfg, profile, compliance_path = _resolve_governor_setup(args)
    compliance_path = compliance_path or out / "compliance.csv"
    runtime = GovernorRuntime(cfg, profile)
    log.info(
        "governor up: v_force=%.4g m/s, zone=%.4g m, mode=%s",
        runtime.v_force, runtime.s_zone, cfg.mode,
    )

    stop = threading.Event()

    def _handle_term(signum, frame):
        stop.set()
        if not args.udp:
            raise SystemExit(EXIT_OK)

    old_handler = signal.signal(signal.SIGTERM, _handle_term)
    compliance = ComplianceLog(compliance_path)
    try:
        if args.udp:
            code = run_udp(runtime, args.udp, compliance=compliance, stop=stop)
        else:
            code = run_stream(runtime, sys.stdin, sys.stdout, compliance=compliance)
    except KeyboardInterrupt:
        code = EXIT_OK
    finally:
        compliance.close()
        signal.signal(signal.SIGTERM, old_handler)
        _write_run_manifest(
            out, "govern",
            [args.config or "", args.profile or ""],
            [str(compliance_path)],
            cfg.to_dict(),
            started,
        )
    return code


# --- simulate ---------------------------------------------------------------


def cmd_simulate(args) -> int:
    out = _ensure_out(args)
    started = _utc_now()
    scenario = load_scenario(args.scenario)
    overrides = _governor_overrides(args)
    scenario.cfg = GovernorConfig.from_dict({**scenario.cfg.to_dict(), **overrides})

    rows, summary = run_scenario(scenario)
    traj = out / "trajectory.csv"
    write_trajectory(rows, traj)
    outputs = [traj.name]
    if args.emit_gnuplot:
        dat = out / "trajectory.dat"
        write_trajectory_gnuplot(rows, dat)
        outputs.append(dat.name)
    summary_path = out / "summary.json"
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    outputs.append(summary_path.name)
    _write_run_manifest(
        out, "simulate", [args.scenario], outputs,
        {"scenario": str(args.scenario), **overrides},
        started,
    )

    ok = summary["violations"] == 0 and summary["reach_margin_breaches"] == 0
    print(
        f"scenario {summary['scenario']}: {summary['steps']} steps, "
        f"violations={summary['violations']}, "
        f"reach_margin_breaches={summary['reach_margin_breaches']}, "
        f"min_distance="
        + (
            f"{summary['min_distance_m']:.3g} m"
            if summary["min_distance_m"] is not None
            else "n/a"
        )
    )
    return EXIT_OK if ok else EXIT_INVARIANT


# --- report -----------------------------------------------------------------


def _fmt_pm(mean: float, std: float, scale: float = 1.0, digits: int = 1) -> str:
    return f"{mean * scale:.{digits}f} +/- {std * scale:.{digits}f}"


def cmd_report(args) -> int:
    out = _ensure_out(args)
    started = _utc_now()
    summaries: list[ConfigurationSummary] = []
    profiles = []
    metric_rows: list[ImpactMetrics] = []
    for path in args.inputs:
        p = Path(path)
        if p.suffix == ".csv":
            with open(p, "r", encoding="utf-8", newline="") as fh:
                for row in csv.DictReader(fh):
                    metric_rows.append(_metrics_from_row(row))
        elif p.suffix == ".json":
            with open(p, "r", encoding="utf-8") as fh:
                data = json.load(fh)
            if "metrics" in data:
                summaries.append(ConfigurationSummary.from_dict(data))
            elif "restitution" in data:
                profiles.append(load_profile(p))
            else:
                raise IngestError(f"unrecognized report input: {p}")
        else:
            raise IngestError(f"unrecognized report input: {p}")

    lines = ["# Impact bench report", ""]
    if summaries:
        lines += [
            "## Configuration aggregates",
            "",
            "| Configuration | n | v_in (m/s) | F_max (N) | dt_J (ms) | J (N s) | EC_i (J) | EC_r (%) |",
            "|---|---|---|---|---|---|---|---|",
        ]
        for s in sorted(summaries, key=lambda s: (s.configuration, s.stats["v_in_mps"].mean)):
            st = s.stats
            lines.append(
                "| {cfg} | {n} | {v} | {f} | {dt} | {j} | {eci} | {ecr} |".format(
                    cfg=s.configuration,
                    n=s.n,
                    v=_fmt_pm(st["v_in_mps"].mean, st["v_in_mps"].std, digits=2),
                    f=_fmt_pm(st["f_max_n"].mean, st["f_max_n"].std),
                    dt=_fmt_pm(st["dt_j_s"].mean, st["dt_j_s"].std, scale=1e3),
                    j=_fmt_pm(st["j_ns"].mean, st["j_ns"].std, digits=3),
                    eci=_fmt_pm(st["ec_i_j"].mean, st["ec_i_j"].std, digits=2),
                    ecr=_fmt_pm(st["ec_r"].mean, st["ec_r"].std, scale=100.0),
                )
            )
        lines.append("")
    if metric_rows:
        by_config: dict[str, list[ImpactMetrics]] = {}
        for m in metric_rows:
            by_config.setdefault(m.configuration, []).append(m)
        lines += ["## Trial counts", ""]
        for config, members in sorted(by_config.items()):
            flagged = sum(1 for m in members if m.flags)
            lines.append(f"- {config}: {len(members)} trials ({flagged} flagged)")
        lines.append("")
    if profiles:
        lines += [
            "## Airframe profiles",
            "",
            "| Profile | mass (kg) | dt_hat (ms) | restitution fit | R^2 | MAE | cap @ F*=140 N (m/s) |",
            "|---|---|---|---|---|---|---|",
        ]
        cfg = GovernorConfig()
        for profile in profiles:
            coeffs = ", ".join(f"{c:.4g}" for c in profile.restitution.coefficients)
            cap = force_speed_cap(cfg.f_star_n, profile, cfg)
            lines.append(
                f"| {profile.name} | {profile.mass_kg:.3g} "
                f"| {profile.dt_s * 1e3:.1f} +/- {profile.dt_std_s * 1e3:.1f} "
                f"| deg {profile.restitution.degree}: [{coeffs}] "
                f"| {profile.restitution.r_squared:.4g} "
                f"| {profile.restitution.mae:.3g} | {cap:.3g} |"
            )
        lines.append("")

    report = out / "report.md"
    with open(report, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
    _write_run_manifest(
        out, "report", args.inputs, [report.name],
        {"inputs": [str(i) for i in args.inputs]}, started,
    )
    print(f"wrote {report}")
    return EXIT_OK


# --- parser -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="impact-governor",
        description="Bench impact characterization and velocity governing",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("analyze", help="process trial manifests into metrics")
    p.add_argument("input_dir", help="directory of trial manifest JSON files")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("fit", help="fit an airframe profile from summaries")
    p.add_argument("summaries", nargs="+", help="configuration summary JSON files")
    p.add_argument("--out", required=True)
    p.add_argument("--degree", type=int, default=2, help="restitution fit degree")
    p.set_defaults(func=cmd_fit)

    overrides = argparse.ArgumentParser(add_help=False)  # read by _governor_overrides
    overrides.add_argument("--mode", choices=("binary", "ramp"))
    overrides.add_argument("--f-star", type=float, dest="f_star", help="force target [N]")
    overrides.add_argument("--body-region", choices=sorted(BODY_REGION_LIMITS_N))

    p = sub.add_parser("govern", parents=[overrides], help="run the streaming velocity governor")
    transport = p.add_mutually_exclusive_group(required=True)
    transport.add_argument("--stdin", action="store_true", help="NDJSON on stdio")
    transport.add_argument("--udp", type=int, metavar="PORT", help="UDP datagrams")
    p.add_argument("--config", help="governor config JSON")
    p.add_argument("--profile", help="airframe profile JSON")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_govern)

    p = sub.add_parser("simulate", parents=[overrides], help="closed-loop scenario validation")
    p.add_argument("scenario", help="scenario JSON file")
    p.add_argument("--out", required=True)
    p.add_argument("--emit-gnuplot", action="store_true")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("report", help="render a markdown bench report")
    p.add_argument("inputs", nargs="+", help="metrics CSV / summary / profile files")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    _configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        prefix = "invalid JSON input: " if isinstance(exc, json.JSONDecodeError) else ""
        print(f"error: {prefix}{exc}", file=sys.stderr)
        return next(_EXIT_CODES[cls] for cls in type(exc).__mro__ if cls in _EXIT_CODES)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
