"""One measured child process of the benchmark, in a fresh interpreter.

    python bench/child.py cli JOB RESULT [SPANS]
    python bench/child.py replay JOB RESULT [SPANS]

The child imports the package, prints ``ready`` on stdout (the parent times
spawn-to-ready as set-up), then runs the job and writes its timings to the
RESULT JSON file. With a SPANS path it first installs the tracer and writes
the spans there at the end.

``cli`` runs each ``argv`` of the job through ``impact_governor.cli.main``,
capturing what the CLI prints. ``replay`` feeds an NDJSON trace through
``impact_governor.stream.run_stream`` with the ``govern`` CLI's
configuration, time-stamping each line as it is yielded and each reply as it
is written. Both run ``probe.probe`` untimed before each call, or before
each line the job names in ``probe_at``, to gauge the machine's speed.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from array import array
from pathlib import Path

from probe import probe

clock = time.perf_counter_ns


def run_cli(job: dict) -> dict:
    from impact_governor import cli

    ready()
    calls = []
    for call in job["calls"]:
        out, err = io.StringIO(), io.StringIO()
        probe_s = probe()
        t0 = clock()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(call["argv"])
        calls.append({
            "label": call["label"],
            "rc": rc,
            "ns": clock() - t0,
            "probe_s": probe_s,
            "stdout": out.getvalue(),
            "stderr": err.getvalue(),
        })
    return {"calls": calls}


class _ReplySink:
    """``out_fh`` for run_stream: keeps the replies and each reply's latency
    since the line that caused it was yielded."""

    def __init__(self, mark: list):
        self.mark = mark
        self.latency_ns = array("q")
        self.parts: list[str] = []

    def write(self, text: str) -> None:
        self.latency_ns.append(clock() - self.mark[0])
        self.parts.append(text)

    def flush(self) -> None:
        pass


def _stamped(lines, mark: list, probe_at: set, probes: list):
    """Yield ``lines``, marking the time of each; before each line whose
    index is in ``probe_at``, run the probe and keep its (seconds, ns)."""
    for i, line in enumerate(lines):
        if i in probe_at:
            t = clock()
            probes.append((probe(), clock() - t))
        mark[0] = clock()
        yield line


def run_replay(job: dict) -> dict:
    from impact_governor import stream
    from impact_governor.fit import load_profile
    from impact_governor.governor import GovernorConfig, GovernorRuntime

    ready()
    with open(job["trace"], encoding="utf-8") as fh:
        lines = fh.readlines()
    profile = load_profile(job["profile"])
    mark = [0]
    probes: list = []
    sink = _ReplySink(mark)
    t0 = clock()
    runtime = GovernorRuntime(
        GovernorConfig(f_star_n=job["f_star_n"], mode=job["mode"]), profile
    )
    with stream.ComplianceLog(job["compliance"]) as compliance:
        rc = stream.run_stream(runtime, _stamped(lines, mark, set(job["probe_at"]), probes),
                               sink, compliance)
    ns = clock() - t0
    Path(job["replies"]).write_text("".join(sink.parts), encoding="utf-8")
    return {"rc": rc, "ns": ns - sum(n for _, n in probes), "probes": probes,
            "latency_ns": sink.latency_ns.tolist()}


def ready() -> None:
    sys.stdout.write("ready\n")
    sys.stdout.flush()


def main(argv) -> int:
    mode, job_path, result_path = argv[:3]
    spans_path = argv[3] if len(argv) > 3 else None
    tracer = None
    if spans_path:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    result = {"cli": run_cli, "replay": run_replay}[mode](job)
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    if tracer is not None:
        tracer.dump(spans_path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
