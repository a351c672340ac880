"""Benchmark of impact-governor's three workloads, end to end and per layer.

    python3 bench/run.py --workload analyze|simulate|govern|all \\
        --seed N --seconds S --trace 0|1

Run it from the repository root. Inputs are generated from the seed during
set-up and are not timed. The measured phase repeats *rounds* until about
``--seconds`` have passed; every round spawns fresh child processes that
call only the public entry points (``impact_governor.cli.main``, the real
``python -m impact_governor govern --stdin`` process, and
``impact_governor.stream.run_stream`` for the in-process replay). Every
output is checked by ``oracles.py``, which never calls the code under test.

Each round is cut into *windows* of work (one analyze campaign, one
scenario run, 2000 commands). Neighbours on a shared host slow the CPU in
bursts and phases, so every timing is scaled to a reference machine speed
by ``probe.py``, run untimed next to each window and before each spawn.
Throughput is the median over windows; a request's latency is its median
over the run's repeats of it, and the latency percentiles are over
requests. The record keeps the unscaled values too.

With ``--trace 0`` the result carries the end-to-end metrics; with
``--trace 1`` rounds alternate between untraced and traced children and the
result carries the per-layer metrics from the spans, plus the tracing
overhead and fresh-interpreter import times. The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``. The full
record (environment, input and output digests, samples, failures) is
written to ``.bench_work/<workload>-s<seed>-t<trace>/result.json``.
See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import oracles
import probe
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REQUIRED = (
    SRC / "impact_governor" / "cli.py",
    ROOT / "profiles" / "carbon_0deg.json",
    ROOT / "scenarios" / "three_humans_chest.json",
    ROOT / "scenarios" / "three_humans_face.json",
)
if all(path.is_file() for path in REQUIRED):
    sys.path.insert(0, str(SRC))
    import inputs  # needs the package's synthetic-trial generator

WORKLOADS = ("analyze", "simulate", "govern")
MIN_ROUNDS = 3
CHILD_TIMEOUT_S = 150.0
#: commands in the govern trace (about 3.4 messages per command)
TRACE_COMMANDS = 40000
#: commands in one govern window, of the CLI's replies and of the replay's
WINDOW_COMMANDS = 2000
#: in-process replays of the trace per untraced govern round, each in a
#: fresh child: more repeats of each command for its median latency
REPLAYS_PER_ROUND = 2
#: campaigns (one window each) that one analyze child runs in turn
ANALYZE_BATCHES = 3
#: passes over the scenario list in one simulate child; each run is a window
SCENARIO_PASSES = 5
IMPORT_PROBES = 3
IMPORT_MODULES = ("impact_governor.governor", "impact_governor.cli")

#: end-to-end metric -> unit, and what it means on each workload
END_TO_END = {
    "setup_s": ("s", {
        "analyze": "spawn to CLI imported and ready",
        "simulate": "spawn to CLI imported and ready",
        "govern": "spawn of govern --stdin to its first reply (cold start)",
    }),
    "throughput_per_s": ("1/s", {
        "analyze": "trials/s, analyze + fit (analyze_trials_per_s)",
        "simulate": "physics steps/s (simulate_steps_per_s)",
        "govern": "messages/s of the govern --stdin process (govern_msgs_per_s)",
    }),
    "latency_p50_us": ("us", {
        "analyze": "one batch: analyze + fit of one campaign",
        "simulate": "one scenario run",
        "govern": "cmd yielded to reply written (govern_cmd_p50_us)",
    }),
    "latency_p99_us": ("us", {
        "analyze": "one batch: analyze + fit of one campaign",
        "simulate": "one scenario run",
        "govern": "cmd yielded to reply written (govern_cmd_p99_us)",
    }),
    "peak_rss_mb": ("MB", {
        "analyze": "max RSS of the CLI child",
        "simulate": "max RSS of the CLI child",
        "govern": "max RSS of the govern --stdin process",
    }),
}

OPERATIONS = {"analyze": "trials, summaries and profiles",
              "simulate": "scenario runs", "govern": "commands"}


# --- child processes -------------------------------------------------------------


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("IMPACT_GOVERNOR_LOG", None)
    return env


class Child:
    """A measured process, started through ``launch.py`` in its own process
    group, with stdout piped and stderr in ``<tag>.stderr``. Leaving the
    ``with`` block kills the group if the block raised or the timeout hit,
    waits, and sets ``rc``, ``maxrss_kb`` and ``t0`` (CLOCK_MONOTONIC when
    the process was forked; compare with ``time.monotonic()``)."""

    def __init__(self, argv: list, work: Path, tag: str, stdin=None):
        self.report = work / f"{tag}.launch"
        self.stderr_path = work / f"{tag}.stderr"
        with open(self.stderr_path, "wb") as err:
            self.proc = subprocess.Popen(
                [sys.executable, str(BENCH / "launch.py"), str(self.report), *argv],
                cwd=ROOT, env=_child_env(), stdin=stdin, stdout=subprocess.PIPE,
                stderr=err, bufsize=0, start_new_session=True)
        self.timer = threading.Timer(CHILD_TIMEOUT_S, self.kill)
        self.timer.start()

    def kill(self) -> None:
        if self.proc.returncode is not None:
            return
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def __enter__(self) -> "Child":
        return self

    def __exit__(self, exc_type, *_) -> None:
        if exc_type is not None:
            self.kill()
        if self.proc.stdin is not None:
            self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()
        self.timer.cancel()
        self.rc, self.maxrss_kb, self.t0 = self.proc.returncode, 0, math.nan
        if self.report.is_file():
            t0, rc, rss = self.report.read_text(encoding="utf-8").split()
            self.t0, self.rc, self.maxrss_kb = float(t0), int(rc), int(rss)


def run_child(mode: str, job: dict, work: Path, tag: str, spans: Path | None) -> dict:
    """Run bench/child.py; returns its result plus its set-up time."""
    job_path, result_path = work / f"{tag}.job.json", work / f"{tag}.result.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    argv = [sys.executable, str(BENCH / "child.py"), mode, str(job_path), str(result_path)]
    if spans is not None:
        argv.append(str(spans))
    scale = probe.scale(probe.probe())
    with Child(argv, work, tag) as child:
        first = child.proc.stdout.readline()
        t_ready = time.monotonic()
        child.proc.stdout.read()
    if child.rc != 0 or first != b"ready\n":
        raise ChildFailed(f"{mode} child exited {child.rc}; see {child.stderr_path}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result_path.unlink()
    result["setup"] = (t_ready - child.t0, scale)
    result["maxrss_kb"] = child.maxrss_kb
    return result


class ChildFailed(RuntimeError):
    pass


def _write_all(fd: int, data: bytes) -> None:
    """Write all of ``data`` to a pipe; stop quietly if the reader has gone."""
    view = memoryview(data)
    try:
        while view:
            view = view[os.write(fd, view):]
    except BrokenPipeError:
        pass


def import_probe(module: str) -> float:
    """Seconds to import ``module`` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import " + module
            + "; print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=_child_env(),
                         capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return float(out.stdout)


# --- workloads ----------------------------------------------------------------------


class Workload:
    """Inputs, one measured round, and the oracles of one workload."""

    def __init__(self, work: Path, seed: int, tracing: bool):
        self.work, self.seed, self.tracing = work, seed, tracing
        self.check = oracles.Check()
        #: setup: (seconds, scale) per child; unit_s: reference seconds per
        #: unit of work, per child
        self.samples = {"setup": [], "rss_kb": [], "unit_s": []}
        #: (units of work, seconds, scale) of each untraced window; scale
        #: (``probe.scale``) turns its times into reference time
        self.rate_windows: list[tuple] = []
        #: request (campaign, scenario run, command) -> (latency in us,
        #: scale) of each time the run repeated it
        self.requests: dict = {}
        self.traced_unit_s: list[float] = []
        self.digests: dict = {}
        self.digest_changes: list = []
        self.jobs = 0
        self.traced_jobs = 0

    def record_digests(self, digests: dict) -> None:
        """Keep the first digest of each output; list any later one that
        differs (identical inputs should give identical outputs)."""
        for name, digest in digests.items():
            first = self.digests.setdefault(name, digest)
            if digest != first:
                self.digest_changes.append({name: digest})

    def judge(self, chk: oracles.Check, prefix: str) -> None:
        """Count ``chk``; ``prefix`` (round, batch) keeps operation names unique."""
        chk.failures = [(prefix + op, msg) for op, msg in chk.failures]
        self.check.merge(chk)

    def cleanup(self) -> None:
        """Delete the generated inputs; the seed regenerates them."""

    def timed(self, res: dict, windows: list, traced: bool) -> None:
        """Record one child's set-up, RSS and ``(units, seconds, scale,
        request)`` windows; each window is also one request."""
        unit_s = sum(t * f for _, t, f, _ in windows) / sum(u for u, _, _, _ in windows)
        if traced:
            self.traced_unit_s.append(unit_s)
            return
        self.samples["setup"].append(res["setup"])
        self.samples["unit_s"].append(unit_s)
        self.samples["rss_kb"].append(res["maxrss_kb"])
        for units, seconds, scale, request in windows:
            self.rate_windows.append((units, seconds, scale))
            self.requests.setdefault(request, []).append((seconds * 1e6, scale))


class Analyze(Workload):
    def setup(self) -> dict:
        #: (campaign directory, truth) per batch, each from its own (seed, batch)
        self.batches = []
        for b in range(ANALYZE_BATCHES):
            campaign = self.work / f"campaign{b}"
            self.batches.append((campaign, inputs.make_campaign(campaign, (self.seed, b))))
        return {"campaigns": [inputs.digest_paths(sorted(c.iterdir())) for c, _ in self.batches],
                "trials": sum(len(truth) for _, truth in self.batches)}

    def cleanup(self) -> None:
        for campaign, _ in self.batches:
            shutil.rmtree(campaign, ignore_errors=True)

    def round(self, k: int, spans: Path | None) -> None:
        out = self.work / f"round{k}"
        calls = []
        for b, (campaign, _) in enumerate(self.batches):
            dst = out / f"batch{b}"
            calls.append({"label": f"analyze {b}", "argv": ["analyze", str(campaign), "--out", str(dst)]})
            for config, *_ in inputs.CONFIGURATIONS:
                summaries = [str(dst / f"summary_{config}_v{v:g}.json") for v in inputs.SPEEDS_MPS]
                calls.append({"label": f"fit {b} {config}", "argv": ["fit", *summaries, "--out", str(dst)]})
        try:
            res = run_child("cli", {"calls": calls}, self.work, f"round{k}", spans)
        except ChildFailed as exc:
            for b, (_, truth) in enumerate(self.batches):
                chk = oracles.Check(attempted=len(truth))
                for n in truth:
                    chk.fail(n, str(exc))
                self.judge(chk, f"round{k}/batch{b}/")
            return
        per_batch = 1 + len(inputs.CONFIGURATIONS)
        windows = []
        for b, (_, truth) in enumerate(self.batches):
            dst = out / f"batch{b}"
            mine = res["calls"][b * per_batch:(b + 1) * per_batch]
            stderr = "".join(c["stderr"] for c in mine)
            chk = oracles.check_analyze(dst, truth, mine[0]["rc"], stderr)
            for c in mine[1:]:
                if c["rc"] != 0:
                    chk.fail(c["label"], f"exit code {c['rc']}: {c['stderr'].strip()[:200]}")
            self.judge(chk, f"round{k}/batch{b}/")
            files = ([dst / "metrics.csv"] + sorted(dst.glob("summary_*.json"))
                     + sorted(dst.glob("profile_*.json")))
            self.record_digests({f"batch{b}/{p.name}": inputs.digest_paths([p])
                                 for p in files if p.is_file()})
            windows.append((len(truth), sum(c["ns"] for c in mine) / 1e9,
                            probe.scale(statistics.median(c["probe_s"] for c in mine)), b))
        self.jobs += len(self.batches)
        self.timed(res, windows, spans is not None)
        shutil.rmtree(out, ignore_errors=True)


class Simulate(Workload):
    def setup(self) -> dict:
        self.jobs_list = inputs.scenario_jobs(self.work / "scenarios.json")
        self.scenarios, self.profiles = {}, {}
        files = [self.work / "scenarios.json"]
        for job in self.jobs_list:
            path = ROOT / job["scenario"]
            scenario = json.loads(path.read_text(encoding="utf-8"))
            profile_path = (path.parent / scenario["profile_path"]).resolve()
            self.scenarios[job["label"]] = scenario
            self.profiles[job["label"]] = json.loads(profile_path.read_text(encoding="utf-8"))
            files += [path, profile_path]
        return {"scenarios": inputs.digest_paths(files), "jobs": len(self.jobs_list)}

    def round(self, k: int, spans: Path | None) -> None:
        out = self.work / f"round{k}"
        calls = [
            {"label": job["label"], "dir": f"{job['label']}.{p}",
             "argv": ["simulate", str(ROOT / job["scenario"]),
                      "--out", str(out / f"{job['label']}.{p}"), *job["args"]]}
            for p in range(SCENARIO_PASSES) for job in self.jobs_list
        ]
        try:
            res = run_child("cli", {"calls": calls}, self.work, f"round{k}", spans)
        except ChildFailed as exc:
            chk = oracles.Check(attempted=len(calls))
            for c in calls:
                chk.fail(c["dir"], str(exc))
            self.judge(chk, f"round{k}/")
            return
        windows = []
        for i, (call, c) in enumerate(zip(calls, res["calls"])):
            label = c["label"]
            scenario = self.scenarios[label]
            self.judge(oracles.check_simulate(out / call["dir"], label, scenario,
                                              self.profiles[label], c["rc"]),
                       f"round{k}/pass{i // len(self.jobs_list)}/")
            windows.append((int(round(scenario["duration_s"] / scenario["physics_dt_s"])),
                            c["ns"] / 1e9, probe.scale(c["probe_s"]), label))
            summary = out / call["dir"] / "summary.json"
            if summary.is_file():
                self.record_digests({f"{label}/summary.json": inputs.digest_paths([summary])})
        self.jobs += SCENARIO_PASSES
        self.timed(res, windows, spans is not None)
        shutil.rmtree(out, ignore_errors=True)


class Govern(Workload):
    def setup(self) -> dict:
        self.trace = self.work / "trace.ndjson"
        inputs.make_trace(self.trace, self.seed, TRACE_COMMANDS)
        self.lines = self.trace.read_bytes().splitlines(keepends=True)
        lines = [line.decode("utf-8") for line in self.lines]
        self.n_msgs = len(lines)
        #: line index of each command (reply n answers line cmd_at[n])
        self.cmd_at = [i for i, line in enumerate(lines) if '"type":"cmd"' in line]
        #: window j is lines cuts[j]:cuts[j + 1], replies j*W + 1 .. (j+1)*W
        #: (W = WINDOW_COMMANDS); each cut is the line after command j*W
        self.cuts = [self.cmd_at[c] + 1 for c in range(0, len(self.cmd_at), WINDOW_COMMANDS)]
        self.profile_path = ROOT / "profiles" / "carbon_0deg.json"
        profile = json.loads(self.profile_path.read_text(encoding="utf-8"))
        self.v_force = oracles.force_safe_speed(oracles.F_STAR_FACE_N, profile,
                                                oracles.V_PLATFORM_MAX_MPS)
        self.expected = oracles.expected_caps(lines, self.v_force)
        sources = {}
        for e in self.expected:
            sources[e[3]] = sources.get(e[3], 0) + 1
        return {"trace": inputs.digest_paths([self.trace]), "messages": len(lines),
                "commands": len(self.expected), "expected_cap_sources": sources}

    def cleanup(self) -> None:
        for path in [self.trace, *self.work.glob("round*.compliance.csv")]:
            path.unlink(missing_ok=True)

    def _cli(self, k: int) -> bytes | None:
        """Run the real ``govern --stdin`` process, feeding the trace window
        by window through a pipe as fast as it reads; between windows, while
        it waits for input, the probe runs."""
        out = self.work / f"round{k}"
        argv = [sys.executable, "-m", "impact_governor", "govern", "--stdin",
                "--profile", str(self.profile_path), "--body-region", "face",
                "--mode", "ramp", "--out", str(out)]
        chunks, windows = [], []
        setup_scale = probe.scale(probe.probe())
        with Child(argv, self.work, f"round{k}.cli", stdin=subprocess.PIPE) as child:
            fd_in, fd_out = child.proc.stdin.fileno(), child.proc.stdout.fileno()
            read = [0]

            def feed(lines: slice, replies: int) -> float:
                """Write ``lines`` of the trace; read until ``replies`` replies
                in all (or end of output); return the time of the last read."""
                writer = threading.Thread(target=_write_all, args=(fd_in, b"".join(self.lines[lines])))
                writer.start()
                while read[0] < replies and (chunk := os.read(fd_out, 1 << 16)):
                    chunks.append(chunk)
                    read[0] += chunk.count(b"\n")
                t = time.monotonic()
                writer.join()
                return t

            t_first = feed(slice(0, self.cuts[0]), 1)
            for j in range(len(self.cuts) - 1):
                scale = probe.scale(probe.probe())
                t0 = time.monotonic()
                t1 = feed(slice(self.cuts[j], self.cuts[j + 1]), 1 + (j + 1) * WINDOW_COMMANDS)
                windows.append((self.cuts[j + 1] - self.cuts[j], t1 - t0, scale))
            feed(slice(self.cuts[-1], None), len(self.cmd_at))
            child.proc.stdin.close()
            while chunk := os.read(fd_out, 1 << 16):
                chunks.append(chunk)
        shutil.rmtree(out, ignore_errors=True)
        replies = b"".join(chunks)
        chk = oracles.check_govern(self.expected, replies, self.v_force)
        if child.rc != 0:
            chk.fail("exit", f"govern exited {child.rc}; see {child.stderr_path}")
        self.judge(chk, f"round{k}/cli/")
        if child.rc == 0 and read[0] == len(self.cmd_at):
            self.samples["setup"].append((t_first - child.t0, setup_scale))
            self.samples["rss_kb"].append(child.maxrss_kb)
            self.rate_windows.extend(windows)
        return replies

    def round(self, k: int, spans: Path | None) -> None:
        # a traced run reports no end-to-end metrics, so it skips the CLI
        cli_replies = None if self.tracing else self._cli(k)
        for r in range(1 if spans is not None else REPLAYS_PER_ROUND):
            self._replay(f"round{k}.{r}", spans, cli_replies)

    def _replay(self, tag: str, spans: Path | None, cli_replies: bytes | None) -> None:
        """Replay the trace in a fresh child; check it and keep its latencies."""
        job = {"trace": str(self.trace), "profile": str(self.profile_path),
               "f_star_n": oracles.F_STAR_FACE_N, "mode": "ramp",
               "compliance": str(self.work / f"{tag}.compliance.csv"),
               "replies": str(self.work / f"{tag}.replies"),
               "probe_at": self.cuts[:-1]}
        try:
            res = run_child("replay", job, self.work, tag, spans)
        except ChildFailed as exc:
            chk = oracles.Check(attempted=len(self.expected))
            chk.fail("replay", str(exc))
            self.judge(chk, f"{tag}/")
            return
        replies = Path(job["replies"]).read_bytes()
        Path(job["replies"]).unlink()
        chk = oracles.check_govern(self.expected, replies, self.v_force)
        if res["rc"] != 0:
            chk.fail("replay", f"run_stream returned {res['rc']}")
        self.judge(chk, f"{tag}/replay/")
        if cli_replies is not None and cli_replies != replies:
            cli_lines, own = cli_replies.splitlines(), replies.splitlines()
            chk = oracles.Check()
            for i in range(max(len(cli_lines), len(own))):
                if i >= len(cli_lines) or i >= len(own) or cli_lines[i] != own[i]:
                    chk.fail(f"cmd {i}", "CLI reply differs from the in-process replay")
            self.judge(chk, f"{tag}/cli-vs-replay/")
        digests = {"replies": inputs.digest_bytes(replies)}
        if cli_replies is not None:
            digests["cli_replies"] = inputs.digest_bytes(cli_replies)
        self.record_digests(digests)
        self.jobs += 1
        unit_s = (res["ns"] / 1e9 / self.n_msgs
                  * probe.scale(statistics.median(p for p, _ in res["probes"])))
        if spans is not None:
            self.traced_unit_s.append(unit_s)
            return
        self.samples["unit_s"].append(unit_s)
        latency_ns = res["latency_ns"]
        if len(latency_ns) != len(self.cmd_at):
            return
        # the probe before line cuts[j] scales the replies to commands
        # j*W + 1 .. (j+1)*W (W = WINDOW_COMMANDS)
        for j, (probe_s, _) in enumerate(res["probes"]):
            scale = probe.scale(probe_s)
            for i in range(j * WINDOW_COMMANDS + 1, (j + 1) * WINDOW_COMMANDS + 1):
                self.requests.setdefault(i, []).append((latency_ns[i] / 1e3, scale))


WORKLOAD_CLASSES = {"analyze": Analyze, "simulate": Simulate, "govern": Govern}


# --- metrics -------------------------------------------------------------------------


def _percentile(values, q: int) -> float:
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(w: Workload, scaled: bool = True) -> dict:
    """The run's metrics, in reference time (``scaled``) or as the clock read.

    Throughput is the median over windows. A request's latency is the
    median over the run's repeats of that same request (the inputs are
    fixed, so what differs between repeats is the host, not the program);
    the percentiles are over requests."""
    def f(scale: float) -> float:
        return scale if scaled else 1.0

    rates = [units / (seconds * f(scale)) for units, seconds, scale in w.rate_windows]
    latencies = [statistics.median(x * f(scale) for x, scale in repeats)
                 for repeats in w.requests.values()]
    return {
        "setup_s": statistics.median(t * f(scale) for t, scale in w.samples["setup"]),
        "throughput_per_s": statistics.median(rates),
        "latency_p50_us": _percentile(latencies, 50),
        "latency_p99_us": _percentile(latencies, 99),
        "peak_rss_mb": max(w.samples["rss_kb"]) / 1024.0,
    }


def sample_counts(w: Workload) -> dict:
    """What each end-to-end metric of ``w`` was computed from."""
    return {
        "setup": len(w.samples["setup"]),
        "rate_windows": len(w.rate_windows),
        "requests": len(w.requests),
        "repeats": sum(len(r) for r in w.requests.values()),
        "rss_kb": len(w.samples["rss_kb"]),
    }


def _merge_spans(paths) -> tuple[dict, dict]:
    totals, counts = {}, {}
    for path in paths:
        dump = json.loads(Path(path).read_text(encoding="utf-8"))
        for name, agg in tracer.summarize(dump).items():
            t = totals.setdefault(name, {"calls": 0, "raised": 0, "incl_ns": 0, "self_ns": 0})
            for key in t:
                t[key] += agg[key]
        for name, n in dump["counts"].items():
            counts[name] = counts.get(name, 0) + n
    return totals, counts


def per_layer(w: Workload, span_paths, imports: dict) -> dict:
    """Per-layer metrics from the traced rounds; zero for layers the workload
    never entered. Times are means per call, counts are per job."""
    totals, counts = _merge_spans(span_paths)
    jobs = max(1, w.traced_jobs)

    def agg(name):
        return totals.get(name, {"calls": 0, "raised": 0, "incl_ns": 0, "self_ns": 0})

    def per_call(name, key="incl_ns", scale=1e-6):
        a = agg(name)
        return a[key] / a["calls"] * scale if a["calls"] else 0.0

    def per_job(n):
        return n / jobs

    messages = sum(v for k, v in counts.items() if k.startswith("stream.messages."))
    steps = agg("sim.step")["calls"]
    attempted = agg("ingest.load_trial")["calls"]
    summarized = agg("impact.summarize_trial")["calls"] - agg("impact.summarize_trial")["raised"]
    untraced = statistics.median(w.samples["unit_s"]) if w.samples["unit_s"] else 0.0
    traced = statistics.median(w.traced_unit_s) if w.traced_unit_s else 0.0
    m = {
        "ingest.read_force_csv.ms": per_call("ingest.read_force_csv"),
        "ingest.read_range_csv.ms": per_call("ingest.read_range_csv"),
        "ingest.load_trial.self_ms": per_call("ingest.load_trial", "self_ns"),
        "ingest.align_streams.ms": per_call("ingest.align_streams"),
        "dsp.butterworth_lowpass.ms": per_call("dsp.butterworth_lowpass"),
        "dsp.median_despike.ms": per_call("dsp.median_despike"),
        "dsp.kalman_smooth.ms": per_call("dsp.kalman_smooth"),
        "dsp.kalman_smooth.calls": per_job(agg("dsp.kalman_smooth")["calls"]),
        "dsp.kalman_smooth.samples": per_job(counts.get("dsp.kalman_smooth.samples", 0)),
        "impact.detect_impact.ms": per_call("impact.detect_impact"),
        "impact.summarize_trial.self_ms": per_call("impact.summarize_trial", "self_ns"),
        "impact.aggregate_configuration.ms": per_call("impact.aggregate_configuration"),
        "fit.build_airframe_profile.ms": per_call("fit.build_airframe_profile"),
        "cli.analyze.self_ms": per_call("cli.analyze", "self_ns"),
        "analyze.trials_attempted": per_job(attempted),
        "analyze.trials_rejected": per_job(attempted - summarized),
        "sim.potential_field_cmd.us": per_call("sim.potential_field_cmd", scale=1e-3),
        "sim.step.us": per_call("sim.step", scale=1e-3),
        "sim.nearest_human_distance.us": per_call("sim.nearest_human_distance", scale=1e-3),
        "sim.nearest_human_distance.calls": per_job(agg("sim.nearest_human_distance")["calls"]),
        "sim.run_scenario.self_us": agg("sim.run_scenario")["self_ns"] / steps * 1e-3 if steps else 0.0,
        "sim.write_trajectory.ms": per_call("sim.write_trajectory"),
        "governor.on_command.us": per_call("governor.on_command", scale=1e-3),
        "governor.on_range.us": per_call("governor.on_range", scale=1e-3),
        "governor.on_odom.us": per_call("governor.on_odom", scale=1e-3),
        "governor.runtime_init.ms": per_call("governor.runtime_init"),
        "stream.parse_message.us": per_call("stream.parse_message", scale=1e-3),
        "stream.format_cmd_limited.us": per_call("stream.format_cmd_limited", scale=1e-3),
        "stream.ComplianceLog.write.us": per_call("stream.ComplianceLog.write", scale=1e-3),
        "stream.run_stream.self_us": agg("stream.run_stream")["self_ns"] / messages * 1e-3 if messages else 0.0,
        "import.impact_governor.governor.s": imports["impact_governor.governor"],
        "import.impact_governor.cli.s": imports["impact_governor.cli"],
        "trace.overhead_frac": traced / untraced - 1.0 if untraced and traced else 0.0,
    }
    for source in ("none", "iso", "force", "stale-failsafe"):
        m["governor.cap_source." + source] = per_job(counts.get("governor.cap_source." + source, 0))
    for kind in ("range", "odom", "cmd"):
        m["stream.messages." + kind] = per_job(counts.get("stream.messages." + kind, 0))
    return m


def per_layer_unit(name: str) -> str:
    """The unit a per-layer metric name ends in; everything else is a count."""
    units = {"ms": "ms", "self_ms": "ms", "us": "us", "self_us": "us", "s": "s",
             "overhead_frac": "ratio"}
    return units.get(name.rsplit(".", 1)[1], "count")


# --- environment -------------------------------------------------------------------


def environment(seed: int) -> dict:
    from importlib import metadata

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_commit": _git_commit(),
        "seed": seed,
    }


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git directly; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


# --- main -----------------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work = ROOT / ".bench_work" / f"{workload}-s{seed}-t{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    w = WORKLOAD_CLASSES[workload](work, seed, trace)
    t0 = time.perf_counter()
    input_digests = w.setup()
    input_setup_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    imports = {}
    if trace:
        for module in IMPORT_MODULES:
            imports[module] = statistics.median(
                import_probe(module) for _ in range(IMPORT_PROBES))
    span_paths = []
    t_rounds = time.perf_counter()
    k = 0
    while True:
        spans = work / f"round{k}.spans.json" if trace and k % 2 == 1 else None
        jobs_before = w.jobs
        w.round(k, spans)
        if spans is not None and spans.is_file():
            span_paths.append(spans)
            w.traced_jobs += w.jobs - jobs_before
        k += 1
        now = time.perf_counter()
        if k >= MIN_ROUNDS and now - t0 + (now - t_rounds) / k > seconds:
            break
    measured_s = time.perf_counter() - t0

    # a traced govern run has no CLI windows: it reports no end-to-end metrics
    measured = bool(w.samples["unit_s"]) and (trace or bool(w.rate_windows and w.requests))
    correct = w.check.failed == 0 and measured
    if not measured:
        metrics, units, missing = {}, {}, []
    elif trace:
        metrics = per_layer(w, span_paths, imports)
        units = {name: per_layer_unit(name) for name in metrics}
        missing = sorted({m for p in span_paths
                          for m in json.loads(p.read_text(encoding="utf-8"))["missing"]})
    else:
        metrics = end_to_end(w)
        units = {name: END_TO_END[name][0] for name in metrics}
        missing = []
    unscaled = end_to_end(w, scaled=False) if metrics and not trace else {}
    record = {
        "correct": correct,
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "environment": environment(seed),
        "inputs": input_digests,
        "input_setup_s": input_setup_s,
        "measured_s": measured_s,
        "rounds": k,
        "jobs": w.jobs,
        "outputs": w.digests,
        "outputs_changed_between_rounds": w.digest_changes,
        "samples": sample_counts(w),
        "per_round": w.samples,
        "rate_windows": w.rate_windows,
        "unscaled_metrics": unscaled,
        "attempted": w.check.attempted,
        "failed": w.check.failed,
        "failures": w.check.failures[:50],
        "untraced_trace_points": missing,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }
    (work / "result.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    w.cleanup()
    for spans in span_paths[:-1]:
        spans.unlink()
    record["result_path"] = str((work / "result.json").relative_to(ROOT))
    return record


def report(rec: dict) -> None:
    """Print the run in human-readable form (everything but the last line)."""
    wl = rec["workload"]
    print(f"== {wl}  seed={rec['seed']}  trace={int(rec['trace'])}  rounds={rec['rounds']}  "
          f"jobs={rec['jobs']}  measured {rec['measured_s']:.1f} s  "
          f"(input set-up {rec['input_setup_s']:.1f} s, untimed)")
    n = rec["samples"]
    for name, m in rec["metrics"].items():
        if rec["trace"]:
            print(f"  {name:36s} {m['value']:14.6g} {m['unit']}")
            continue
        count = {"setup_s": f"{n['setup']} children",
                 "throughput_per_s": f"{n['rate_windows']} windows",
                 "latency_p50_us": f"{n['requests']} requests, {n['repeats']} samples",
                 "peak_rss_mb": f"{n['rss_kb']} children"}
        count["latency_p99_us"] = count["latency_p50_us"]
        print(f"  {name:18s} {m['value']:14.6g} {m['unit']:4s} (clock {rec['unscaled_metrics'][name]:.6g})"
              f"  {END_TO_END[name][1][wl]}  [n = {count[name]}]")
    frac = rec["failed"] / rec["attempted"] if rec["attempted"] else float("nan")
    print(f"  {'failed_frac':18s} {frac:14.6g} ratio  ({rec['failed']} of {rec['attempted']} "
          f"{OPERATIONS[wl]} failed)")
    for op, msg in rec["failures"][:10]:
        print(f"  FAIL {op}: {msg}")
    if rec["outputs_changed_between_rounds"]:
        print("  WARNING: outputs differed between rounds of identical inputs")
    if rec["untraced_trace_points"]:
        print("  untraced (attribute gone): " + ", ".join(rec["untraced_trace_points"]))
    print("  inputs:  " + json.dumps(rec["inputs"]))
    outputs = rec["outputs"]
    print(f"  outputs: {len(outputs)} files, SHA-256 of their digests "
          + inputs.digest_bytes("".join(f"{k}={v}\n" for k, v in sorted(outputs.items())).encode())
          + " (each in the record)")
    print("  env:     " + json.dumps(rec["environment"]))
    print(f"  record:  {rec['result_path']}")


def summary_line(rec: dict) -> dict:
    return {"correct": rec["correct"], "attempted": rec["attempted"],
            "failed": rec["failed"], "metrics": rec["metrics"]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # turn SIGTERM into SystemExit so every running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    missing = [str(path.relative_to(ROOT)) for path in REQUIRED if not path.is_file()]
    if missing:
        print("error: run from a checkout of the repository; missing " + ", ".join(missing),
              file=sys.stderr)
        return 2
    results = {}
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        rec = run(workload, args.seed, args.seconds, bool(args.trace))
        report(rec)
        results[workload] = summary_line(rec)
    line = results[args.workload] if args.workload != "all" else results
    print(json.dumps(line, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
