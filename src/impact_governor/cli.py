"""The bench-analysis commands of the command line.

Each ``cmd_<name>`` runs one subcommand of the workflow, and returns its
exit code and the summary line that ``node.run_command`` prints:

* ``analyze``  — trial manifests -> per-trial metrics CSV + per-speed
  configuration summaries
* ``fit``      — configuration summaries -> airframe profile JSON
* ``simulate`` — closed-loop kinematic validation of a scenario file
* ``report``   — metrics/summaries/profiles -> markdown bench report

The parser, the entry point and the exit codes live in ``node``, which
loads this module (and with it numpy) only to run one of these
commands; ``govern`` runs in ``node`` itself. ``main`` is ``node.main``.
"""

from __future__ import annotations

import functools
import logging
import os
import re
import signal
import threading
import time
from pathlib import Path

from .errors import (
    EXIT_INPUT,
    EXIT_INVARIANT,
    EXIT_OK,
    ImpactGovernorError,
    IngestError,
    InvariantViolation,
    RestitutionOutOfRange,
    read_json_file,
    write_json_file,
    write_output,
)
from .fit import build_airframe_profile
from .governor import GovernorConfig, force_speed_cap
from .impact import (
    ConfigurationSummary,
    ImpactMetrics,
    aggregate_configuration,
    read_metrics_csv,
    summarize_trial,
    write_metrics_csv,
)
from .ingest import align_streams, is_trial_manifest, load_trial
from .node import _governor_overrides, print_error
from .node import main  # noqa: F401  (cli.main is the one entry point too)
from .profile import parse_profile, save_profile
from .sim import load_scenario, run_scenario, write_trajectory

log = logging.getLogger(__name__)


def _slug(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "_", text).strip("_") or "unnamed"


# --- analyze ----------------------------------------------------------------


#: the per-trial stages analyze times, as keys of run_manifest.json's ``trials``
_STAGE_KEYS = ("load_ms", "align_ms", "summarize_ms")


def _analyze_trial(path: Path) -> tuple:
    """Load, align and summarize one trial.

    Returns ``(outcome, stage_ms)``: the outcome is ``(meta, metrics)``, or the
    rejection text when a stage raised an ``ImpactGovernorError``; ``stage_ms``
    holds the milliseconds this process spent in each stage, the rejecting
    one included, and ``None`` for a stage not reached. Any other exception
    propagates.
    """
    stage_ms: list[float | None] = [None] * len(_STAGE_KEYS)
    stage, t = 0, time.perf_counter()

    def lap() -> None:
        nonlocal stage, t
        now = time.perf_counter()
        stage_ms[stage] = round((now - t) * 1e3, 3)
        stage, t = stage + 1, now

    try:
        raw = load_trial(path)
        lap()
        record = align_streams(raw)
        lap()
        metrics = summarize_trial(record)
        lap()
    except ImpactGovernorError as exc:
        lap()
        return f"{path.name}: {exc}", stage_ms
    return (raw.meta, metrics), stage_ms


def _analyze_share(paths: list[Path]) -> list[tuple]:
    return [_analyze_trial(p) for p in paths]


def _analyze_all(manifests: list[Path]) -> tuple[list[tuple], int]:
    """``_analyze_trial`` of every manifest, in manifest order, and the number
    of processes that ran them.

    Trial ``i`` goes to share ``i % n`` of ``n = _worker_count(trials)``.
    This process runs share 0; each other share runs in a worker forked from
    it (``_fork``), so a worker starts with the analysis stack already
    loaded, and sends its outcomes, or the exception it raised, back
    through its own pipe.

    The first exception in share order is raised here, as ``_join`` gives
    it. Every worker is reaped and every pipe closed whatever the outcome;
    a worker still running when this process's own share raises is killed.
    """
    n = _worker_count(len(manifests))
    shares = [manifests[k::n] for k in range(n)]
    workers: list[tuple[int, int]] = []  # (pid, read end of its pipe), not yet reaped
    try:
        for share in shares[1:]:
            workers.append(_fork(functools.partial(_analyze_share, share), "analyze worker"))
        done = [_analyze_share(shares[0])]
        while workers:
            done.append(_join(*workers.pop(0), "analyze worker"))
    finally:
        _kill(workers)
    for outcome in done:
        if isinstance(outcome, BaseException):
            raise outcome
    return [done[i % n][i // n] for i in range(len(manifests))], n


# --- forked workers -----------------------------------------------------------


def _usable_cores() -> int:
    """The cores this process may run on (its affinity mask where there is one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _worker_count(limit: int) -> int:
    """How many processes may share work of ``limit`` parts: the usable
    cores, at most ``limit``; 1 without ``fork``, or while another thread
    runs (a fork could copy a lock it holds)."""
    n = min(_usable_cores(), limit)
    if n > 1 and (not hasattr(os, "fork") or threading.active_count() > 1):
        return 1
    return n


class WorkerTraceback(Exception):
    """The traceback, as text, of an exception that a forked worker raised;
    the ``__cause__`` of that exception where this process raises it."""


def _fork(task, name: str) -> tuple[int, int]:
    """Fork a worker that runs ``task()`` and sends back its result through a
    pipe of its own; returns the worker's pid and the read end of that pipe,
    for ``_join`` or ``_kill``."""
    fd_read, fd_write = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(fd_read)
        os.close(fd_write)
        raise
    if pid == 0:
        os.close(fd_read)
        _worker(task, name, fd_write)
    os.close(fd_write)
    return pid, fd_read


def _worker(task, name: str, fd_write: int) -> None:
    """In a forked worker: write to ``fd_write`` the pickled pair of
    ``task()`` and ``None``, or of the exception it raised and that
    exception's traceback text, then exit without returning."""
    import pickle

    code = 1
    try:
        try:
            payload = pickle.dumps((task(), None))
        except BaseException as exc:
            import traceback

            where, text = f"{name} {os.getpid()}", traceback.format_exc()
            try:
                payload = pickle.dumps((exc, f"in {where}:\n{text}"))
                pickle.loads(payload)  # an exception can pickle and still not load
            except Exception:
                payload = pickle.dumps((RuntimeError(
                    f"{where} raised an exception that cannot be pickled:\n{text}"
                ), None))
        with open(fd_write, "wb") as fh:
            fh.write(payload)
        code = 0
    finally:
        os._exit(code)


def _join(pid: int, fd_read: int, name: str):
    """The result, or the exception, that worker ``pid`` sent; reaps it.

    A worker's exception has the worker's traceback as its cause, a
    ``WorkerTraceback``; one that cannot be pickled arrives as a
    RuntimeError holding that traceback; a worker that exits without a
    result gives ``BrokenProcessPool``.
    """
    import pickle

    try:
        with open(fd_read, "rb") as fh:
            payload = fh.read()
    finally:
        _, status = os.waitpid(pid, 0)
    try:
        value, text = pickle.loads(payload)
    except Exception:
        from concurrent.futures.process import BrokenProcessPool

        code = os.waitstatus_to_exitcode(status)
        return BrokenProcessPool(f"{name} {pid} ended (exit code {code}) without a result")
    if text is not None:
        value.__cause__ = WorkerTraceback(text)
    return value


def _kill(workers: list[tuple[int, int]]) -> None:
    """Kill and reap each ``(pid, read end)`` worker, closing its pipe."""
    for pid, fd_read in workers:
        os.kill(pid, signal.SIGKILL)
        os.close(fd_read)
        os.waitpid(pid, 0)


def _summaries(processed: list[tuple]) -> list[tuple[str, list]]:
    """The file name and the metrics of each configuration summary to write:
    one per (configuration, nominal speed) with two trials or more, in
    sorted order. Two that would write one file are an IngestError naming
    both and the file."""
    groups: dict[tuple, list] = {}
    for meta, m in processed:
        key = (meta.configuration, round(meta.nominal_speed_mps, 3))
        groups.setdefault(key, []).append(m)
    named: dict[str, tuple] = {}
    summaries = []
    for (config, speed), members in sorted(groups.items()):
        if len(members) < 2:
            log.warning(
                "skipping aggregate for %s @ %g m/s: only %d trial",
                config, speed, len(members),
            )
            continue
        name = f"summary_{_slug(config)}_v{speed:g}.json"
        if name in named:
            other, other_speed = named[name]
            raise IngestError(
                f"configurations {other!r} @ {other_speed:g} m/s and {config!r} @ "
                f"{speed:g} m/s would both write {name}"
            )
        named[name] = (config, speed)
        summaries.append((name, members))
    return summaries


def cmd_analyze(args, run: dict) -> tuple[int, str]:
    out = Path(args.out)
    in_dir = Path(args.input_dir)
    run["config"] = {"input_dir": str(in_dir)}
    if not in_dir.is_dir():
        raise IngestError(f"not a directory: {in_dir}")
    manifests = sorted(p for p in in_dir.glob("*.json") if is_trial_manifest(p))
    run["inputs"] = manifests
    if not manifests:
        raise IngestError(f"no trial manifests found in {in_dir}")

    results, run["workers"] = _analyze_all(manifests)
    processed: list[tuple] = []  # (meta, metrics)
    trials = run["trials"] = []
    for path, (outcome, stage_ms) in zip(manifests, results):
        rejected = outcome if isinstance(outcome, str) else None
        if rejected is None:
            processed.append(outcome)
        else:
            print_error(f"error: {rejected}")
        trials.append(
            {"manifest": path.name, "rejected": rejected, **dict(zip(_STAGE_KEYS, stage_ms))}
        )

    summaries = _summaries(processed)  # refuses names that collide before any write
    outputs = run["outputs"]
    if processed:
        write_metrics_csv(out / "metrics.csv", [m for _, m in processed])
        outputs.append("metrics.csv")

    for name, members in summaries:
        write_json_file(out / name, aggregate_configuration(members).to_dict())
        outputs.append(name)

    n_ok = len(processed)
    code = EXIT_INPUT if n_ok < len(manifests) else EXIT_OK
    return code, f"analyzed {n_ok}/{len(manifests)} trials -> {out}"


# --- fit --------------------------------------------------------------------


def cmd_fit(args, run: dict) -> tuple[int, str]:
    out = Path(args.out)
    run["inputs"] = args.summaries
    run["config"] = {"degree": args.degree, "summaries": [str(s) for s in args.summaries]}
    summaries = [ConfigurationSummary.from_dict(read_json_file(p, IngestError), p)
                 for p in args.summaries]
    for i, path in enumerate(args.summaries):  # a file named twice would be two points
        if any(os.path.samefile(p, path) for p in args.summaries[:i]):
            raise IngestError(f"{path}: summary named twice; each file counts once")
    try:
        profile = build_airframe_profile(summaries, restitution_degree=args.degree)
    except RestitutionOutOfRange as exc:
        raise InvariantViolation(f"fitted model breaks physics: {exc}") from exc
    name = f"profile_{_slug(profile.name)}.json"
    save_profile(profile, out / name)
    run["outputs"].append(name)
    flag = " (downgraded to constant)" if profile.downgraded else ""
    return EXIT_OK, (
        f"profile {profile.name}: restitution degree {profile.restitution.degree}"
        f"{flag}, R^2={profile.restitution.r_squared:.6g} -> {out / name}"
    )


# --- simulate ---------------------------------------------------------------


def cmd_simulate(args, run: dict) -> tuple[int, str]:
    """Run the scenario closed loop; write trajectory.csv, then summary.json.

    With ``_worker_count(2)`` processes, a writer forked just before the loop
    formats and writes the trajectory while the loop runs
    (``_simulate_with_writer``); with one, this process runs the loop and
    then writes the rows.
    """
    out = Path(args.out)
    overrides = _governor_overrides(args)
    run["inputs"] = [args.scenario]
    run["config"] = {"scenario": str(args.scenario), **overrides}

    scenario = load_scenario(args.scenario, overrides)
    trajectory = out / "trajectory.csv"
    if _worker_count(2) > 1:
        summary = _simulate_with_writer(scenario, trajectory)
    else:
        rows, summary = run_scenario(scenario)
        write_trajectory(rows, trajectory)
    outputs = run["outputs"]
    outputs.append("trajectory.csv")
    write_json_file(out / "summary.json", summary)
    outputs.append("summary.json")

    ok = summary["violations"] == 0 and summary["reach_margin_breaches"] == 0
    return EXIT_OK if ok else EXIT_INVARIANT, (
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


def _simulate_with_writer(scenario, path: Path) -> dict:
    """``run_scenario(scenario)``'s summary, with its rows written to ``path``
    by ``write_trajectory`` in a worker forked before the loop.

    Each block of rows goes to the writer pickled through a pipe, and
    ``None`` after the last; the writer formats each block as it arrives
    and writes the file once the end mark is in, so the outcomes and the
    file are those of the loop followed by ``write_trajectory``. The loop's
    exception is raised first: the writer, which has not opened ``path``
    yet, is killed. Then the writer's exception, as ``_join`` gives it.
    """
    import pickle

    fd_rows, fd_send = os.pipe()
    try:
        writer = _fork(functools.partial(_write_received, fd_rows, fd_send, path),
                       "simulate writer")
    except BaseException:
        os.close(fd_send)
        raise
    finally:
        os.close(fd_rows)
    try:
        with open(fd_send, "wb") as pipe:
            send = functools.partial(pickle.dump, file=pipe, protocol=pickle.HIGHEST_PROTOCOL)
            _, summary = run_scenario(scenario, send)
            send(None)
    except BrokenPipeError:
        pass  # the writer has ended early, and _join says why
    except BaseException:
        _kill([writer])
        raise
    outcome = _join(*writer, "simulate writer")
    if isinstance(outcome, BaseException):
        raise outcome
    return summary


def _write_received(fd_rows: int, fd_send: int, path: Path) -> None:
    """In the simulate writer: ``write_trajectory`` of the blocks of rows
    that arrive pickled on ``fd_rows``, up to the end mark ``None``; a
    pipe that ends before the mark raises EOFError and writes nothing."""
    import pickle
    from itertools import chain

    os.close(fd_send)  # the loop's end alone, so that its exit ends the pipe

    def blocks():
        with open(fd_rows, "rb") as pipe:
            while (block := pickle.load(pipe)) is not None:
                yield block

    write_trajectory(chain.from_iterable(blocks()), path)


# --- report -----------------------------------------------------------------


def _fmt_pm(mean: float, std: float, scale: float = 1.0, digits: int = 1) -> str:
    return f"{mean * scale:.{digits}f} +/- {std * scale:.{digits}f}"


def cmd_report(args, run: dict) -> tuple[int, str]:
    out = Path(args.out)
    run["inputs"] = args.inputs
    run["config"] = {"inputs": [str(i) for i in args.inputs]}
    summaries: list[ConfigurationSummary] = []
    profiles = []
    metric_rows: list[ImpactMetrics] = []
    for path in args.inputs:
        p = Path(path)
        if p.suffix == ".csv":
            metric_rows += read_metrics_csv(p)
        elif p.suffix == ".json":
            data = read_json_file(p, IngestError)
            keys = data if isinstance(data, dict) else {}
            if "metrics" in keys:
                summaries.append(ConfigurationSummary.from_dict(data, p))
            elif "restitution" in keys:
                profiles.append(parse_profile(data))
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
    write_output(report, "\n".join(lines))
    run["outputs"].append(report.name)
    return EXIT_OK, f"wrote {report}"
