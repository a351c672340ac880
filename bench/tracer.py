"""In-memory spans around the package's layer boundaries.

``install`` replaces each traced function at the module attribute where its
caller looks it up (``impact_governor.impact.kalman_smooth``, not only
``impact_governor.dsp.kalman_smooth``) with a wrapper that records a span:
name, start, end, parent span and whether it raised. Counts are recorded
at the same boundaries. ``Tracer.dump`` writes everything out once, at the
end of the traced child; ``summarize`` turns a dump into per-name call
counts, inclusive time and self time (inclusive minus the time covered by
child spans). Nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from array import array
from collections import Counter


def _count_samples(counts, args, result):
    counts["dsp.kalman_smooth.samples"] += len(args[0])


def _count_cap_source(counts, args, result):
    counts["governor.cap_source." + args[0].last_record.cap_source] += 1


def _count_message(counts, args, result):
    counts["stream.messages." + result["type"]] += 1


#: (module, attribute path, span name, count hook). The module is where the
#: caller looks the name up; a class attribute path wraps a method.
TRACE_POINTS = (
    ("impact_governor.cli", "cmd_analyze", "cli.analyze", None),
    ("impact_governor.cli", "load_trial", "ingest.load_trial", None),
    ("impact_governor.ingest", "read_force_csv", "ingest.read_force_csv", None),
    ("impact_governor.ingest", "read_range_csv", "ingest.read_range_csv", None),
    ("impact_governor.cli", "align_streams", "ingest.align_streams", None),
    ("impact_governor.cli", "summarize_trial", "impact.summarize_trial", None),
    ("impact_governor.impact", "butterworth_lowpass", "dsp.butterworth_lowpass", None),
    ("impact_governor.impact", "median_despike", "dsp.median_despike", None),
    ("impact_governor.impact", "kalman_smooth", "dsp.kalman_smooth", _count_samples),
    ("impact_governor.impact", "detect_impact", "impact.detect_impact", None),
    ("impact_governor.cli", "aggregate_configuration", "impact.aggregate_configuration", None),
    ("impact_governor.cli", "build_airframe_profile", "fit.build_airframe_profile", None),
    ("impact_governor.cli", "run_scenario", "sim.run_scenario", None),
    ("impact_governor.cli", "write_trajectory", "sim.write_trajectory", None),
    ("impact_governor.sim", "potential_field_cmd", "sim.potential_field_cmd", None),
    ("impact_governor.sim", "step", "sim.step", None),
    ("impact_governor.sim", "nearest_human_distance", "sim.nearest_human_distance", None),
    ("impact_governor.governor", "GovernorRuntime.__init__", "governor.runtime_init", None),
    ("impact_governor.governor", "GovernorRuntime.on_range", "governor.on_range", None),
    ("impact_governor.governor", "GovernorRuntime.on_odom", "governor.on_odom", None),
    ("impact_governor.governor", "GovernorRuntime.on_command", "governor.on_command",
     _count_cap_source),
    ("impact_governor.stream", "run_stream", "stream.run_stream", None),
    ("impact_governor.stream", "parse_message", "stream.parse_message", _count_message),
    ("impact_governor.stream", "format_cmd_limited", "stream.format_cmd_limited", None),
    ("impact_governor.stream", "ComplianceLog.write", "stream.ComplianceLog.write", None),
)


class Tracer:
    """Flat span arrays plus counters; one tracer per traced process."""

    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.raised = array("b")
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count=None):
        nid = len(self.names)
        self.names.append(name)
        name_of, start, end, parent, raised = (
            self.name_of, self.start, self.end, self.parent, self.raised
        )
        stack, counts, clock = self._stack, self.counts, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            raised.append(1)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            raised[idx] = 0
            if count is not None:
                count(counts, args, result)
            return result

        return traced

    def install(self, points=TRACE_POINTS) -> None:
        """Wrap every trace point; a point whose attribute no longer exists
        is listed in ``missing`` and its metrics read zero."""
        for module_name, path, name, count in points:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            if not hasattr(owner, attr):
                self.missing.append(f"{module_name}.{path}")
                continue
            setattr(owner, attr, self.wrap(name, getattr(owner, attr), count))

    def dump(self, path) -> None:
        payload = {
            "names": self.names,
            "name": self.name_of.tolist(),
            "start_ns": self.start.tolist(),
            "end_ns": self.end.tolist(),
            "parent": self.parent.tolist(),
            "raised": self.raised.tolist(),
            "counts": dict(self.counts),
            "missing": self.missing,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def summarize(dump: dict) -> dict:
    """Per span name: calls, calls that raised, inclusive and self ns."""
    start, end, parent = dump["start_ns"], dump["end_ns"], dump["parent"]
    child_ns = [0] * len(start)
    for i, p in enumerate(parent):
        if p >= 0:
            child_ns[p] += end[i] - start[i]
    out = {
        name: {"calls": 0, "raised": 0, "incl_ns": 0, "self_ns": 0}
        for name in dump["names"]
    }
    names = dump["names"]
    for i, nid in enumerate(dump["name"]):
        agg = out[names[nid]]
        dur = end[i] - start[i]
        agg["calls"] += 1
        agg["raised"] += dump["raised"][i]
        agg["incl_ns"] += dur
        agg["self_ns"] += dur - child_ns[i]
    return out
