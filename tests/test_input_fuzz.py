"""A fuzzer for the command line's exit-code contract on JSON inputs and on
the stream CSVs of a trial.

Each example takes a small valid document of one kind (a governor config
file, a profile, a scenario of 0.5 s, a configuration summary, or the
manifest of a one-trial campaign), or the force or range CSV of that
trial, mutates it and runs the command that reads it in this process,
through ``node.main``. The contract: the exit code is 0, 2, 3 or 4; a run
that fails prints exactly one ``error:`` line and no traceback; and
``run_manifest.json`` records the same code and line (for ``analyze``, a
rejected trial's line is that trial's ``rejected`` text). A JSON mutation
drops, misspells or adds a key at any depth, sets a value to one of
``VALUES``, or replaces the document with one that is not an object. No
mutation makes a valid run long: each value that could is out of range for
its field, or gives a step count that is not finite.

A stream CSV mutation keeps a window of rows that holds the trigger; drops,
duplicates or renames a header cell; sets a cell to one of ``CELLS``;
swaps two time stamps; inserts a 0xff byte; or empties the file.

Tier-1's budgets, 25 and 5 times hypothesis's default ``max_examples``,
are more than the 1,561 single mutations of the five documents and the 277
of the two streams, so each test runs every one of them (hypothesis stops
once nothing is left), in about 6 s and 4 s. The ``fuzz`` profile of
``conftest.py`` has ten times those budgets, and spends what the single
mutations leave on pairs of them:
``python -m pytest tests/test_input_fuzz.py --hypothesis-profile fuzz``.
"""

import contextlib
import copy
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import stdin_of
from impact_governor.impact import ImpactMetrics, aggregate_configuration
from impact_governor.node import main
from impact_governor.synthetic import make_campaign

REPO_ROOT = Path(__file__).resolve().parents[1]
PROFILE = REPO_ROOT / "profiles" / "carbon_0deg.json"

#: the values a mutation may set: each JSON type, and the numbers at the
#: edges of a float (10**400 is past it)
VALUES = (None, True, "x", [], {}, math.nan, math.inf, -math.inf, -1, 0, -0.0,
          5e-324, 1e308, 10**400)

#: documents that are not an object
NOT_OBJECTS = (None, True, "x", 5, [], [{}])

#: one command for govern: a range reading, then the command it caps
GOVERN_STDIN = ('{"type":"range","d_m":4.0,"t_s":0.0}\n'
                '{"type":"cmd","vx":9.0,"vy":0.0,"vz":0.0,"t_s":0.1}\n')


def _summary() -> dict:
    def metric(jitter):
        return ImpactMetrics(
            configuration="Carbon-0deg", mass_kg=0.25, angle_deg=0.0, v_in_mps=3.0 + jitter,
            f_max_n=100.0, dt_j_s=0.036, j_ns=1.1, ec_i_j=1.1, ec_r=0.15, v_f_mps=1.16,
            e_hat=0.387, v_f_impulse_mps=1.1,
        )

    return aggregate_configuration([metric(0.0), metric(0.01)]).to_dict()


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    """The valid document of each kind, and the command that reads it from
    ``doc.json`` in a directory ``d`` and writes to ``d/out``."""
    campaign = tmp_path_factory.mktemp("campaign")
    (manifest_path,) = make_campaign(campaign, speeds=(3.0,), trials_per_speed=1, seed=3)
    manifest = json.loads(manifest_path.read_text())
    for key in ("force_csv", "range_csv"):  # the streams stay where they are
        manifest[key] = str(campaign / manifest[key])
    config = {"mode": "ramp", "body_region": "chest", "t_q_s": 0.1, "stale_cap_mps": 1.0,
              "f_star_is_peak": False, "profile": str(PROFILE),
              "compliance_log": "compliance.csv"}
    scenario = {"start": [0.0, 0.0], "goals": [[10.0, 0.0]], "humans": [[5.0, 1.0]],
                "gains": {"repulse": 2.0}, "profile_path": str(PROFILE),
                "physics_dt_s": 0.004, "detection_rate_hz": 10.0, "duration_s": 0.5}
    return {
        "govern-config": (config, lambda d: ["govern", "--stdin", "--config", f"{d}/doc.json"]),
        "govern-profile": (json.loads(PROFILE.read_text()),
                           lambda d: ["govern", "--stdin", "--profile", f"{d}/doc.json"]),
        "simulate": (scenario, lambda d: ["simulate", f"{d}/doc.json"]),
        "fit": (_summary(), lambda d: ["fit", f"{d}/doc.json"]),
        "analyze": (manifest, lambda d: ["analyze", str(d)]),
    }


def _paths(node, prefix=()):
    """The path of every value inside ``node``, at any depth."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


def _mutations(doc) -> list[tuple]:
    """Every single mutation of ``doc``: set each value to each of ``VALUES``;
    drop, misspell or add a key beside each key; replace the document."""
    paths = list(_paths(doc))
    keys = [p for p in paths if isinstance(p[-1], str)]
    return ([("set", p, v) for p in paths for v in VALUES]
            + [(op, p, 0) for op in ("drop", "misspell", "add") for p in keys]
            + [("replace", (), v) for v in NOT_OBJECTS])


def _mutated(doc, op, path, value):
    """``doc`` with one mutation at ``path``, or as it is where an earlier
    mutation removed ``path``. A value is set as a copy, so that a later
    mutation inside it leaves ``VALUES`` and ``NOT_OBJECTS`` as they are."""
    value = copy.deepcopy(value)
    if op == "replace":
        return value
    *parents, last = path
    node = doc
    try:
        for key in parents:
            node = node[key]
        if op == "set":
            node[last] = value
        elif op == "add":  # a key beside the one at ``path``
            node[f"{last}_x"] = value
        else:
            held = node.pop(last)
            if op == "misspell":
                node[f"{last}_"] = held
    except (KeyError, IndexError, TypeError, AttributeError):
        pass
    return doc


@contextlib.contextmanager
def _stdio(stdin):
    """sys.stdin, stdout and stderr replaced; yields the stderr text holder."""
    err, saved = io.StringIO(), sys.stdin
    sys.stdin = stdin
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            yield err
    finally:
        sys.stdin = saved


def _assert_the_contract(argv, d):
    """Run ``argv`` in this process with its output in ``d/out``, and check
    the exit-code contract on its exit code, stderr and run manifest."""
    with _stdio(stdin_of(GOVERN_STDIN)) as err:
        code = main([*argv, "--out", f"{d}/out"])  # raises on a traceback
    lines = err.getvalue().splitlines()
    manifest = json.loads(Path(d, "out", "run_manifest.json").read_text())
    assert code in (0, 2, 3, 4)
    assert manifest["exit_code"] == code
    errors = [line for line in lines if line.startswith("error:")]
    assert errors == lines  # nothing else goes to stderr here
    if code == 0:
        assert errors == [] and manifest["error"] is None
        return
    assert len(errors) == 1
    rejected = [f"error: {t['rejected']}" for t in manifest.get("trials", []) if t["rejected"]]
    assert [manifest["error"]] == errors or rejected == errors


def test_a_mutated_json_input_keeps_the_exit_code_contract(documents):
    kinds = sorted(documents)
    cases = {kind: _mutations(documents[kind][0]) for kind in kinds}
    budget = 25 * settings.default.max_examples
    # a budget past twice the single mutations also draws pairs of them
    most = 2 if budget > 2 * sum(map(len, cases.values())) else 1

    @settings(max_examples=budget, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.sampled_from(kinds).flatmap(lambda kind: st.tuples(
        st.just(kind), st.lists(st.sampled_from(cases[kind]), min_size=1, max_size=most))))
    def check(mutation):
        kind, changes = mutation
        doc, argv = documents[kind]
        doc = json.loads(json.dumps(doc))  # a copy to mutate
        for op, path, value in changes:
            doc = _mutated(doc, op, path, value)
        with tempfile.TemporaryDirectory() as d:
            Path(d, "doc.json").write_text(json.dumps(doc))
            _assert_the_contract(argv(d), d)

    check()


#: the sizes of a window of rows that still holds the trigger: a span of 15
#: force samples or fewer is too short for the low-pass, and 4 range readings
#: or fewer for the despike window
WINDOWS = (1, 2, 3, 5, 8, 15, 16, 17, 64)

#: the values a mutation may set a stream cell to
CELLS = ("", "x", "nan", "1e999", "-0")


def _csv_mutations(text: str) -> list[tuple]:
    """Every single mutation of the stream CSV ``text``: keep a window of
    rows that holds the trigger; drop, duplicate or rename a header cell;
    set a cell of the first, the trigger, the contact or the last row to one
    of ``CELLS``; swap two time stamps; insert a 0xff byte; empty the file."""
    header, *rows = text.splitlines()
    n, width = len(rows), header.count(",") + 1
    trigger = next(i for i, row in enumerate(rows) if row.endswith(",1"))
    first = float(rows[0].split(",")[1])
    contact = max(range(n), key=lambda i: abs(float(rows[i].split(",")[1]) - first))
    windows = {(max(start, 0), k) for k in WINDOWS
               for start in (trigger, trigger - 1, trigger + 1 - k)}
    return ([("window", start, k) for start, k in sorted(windows)]
            + [(op, col) for op in ("drop", "duplicate", "rename") for col in range(width)]
            + [("set", row, col, cell) for row in sorted({0, trigger, contact, n - 1})
               for col in range(width) for cell in CELLS]
            + [("swap", a, b)
               for a, b in ((0, 1), (trigger - 1, trigger), (n - 2, n - 1), (0, n - 1))]
            + [("byte", at)
               for at in (0, len(header) // 2, len(header) + 1, len(text) // 2, len(text))]
            + [("empty",)])


def _mutated_csv(text: str, mutation: tuple) -> str:
    """``text`` with one mutation, or as it is where an earlier mutation
    removed what it changes. A 0xff byte is held as its surrogate escape."""
    op, *args = mutation
    if op == "empty":
        return ""
    if op == "byte":
        return text[:args[0]] + "\udcff" + text[args[0]:]
    if not text:  # an earlier mutation emptied the file
        return text
    header, *rows = text.splitlines()
    cells = header.split(",")
    try:
        if op == "window":
            start, k = args
            rows = rows[start:start + k]
        elif op == "drop":
            del cells[args[0]]
        elif op == "duplicate":
            cells.insert(args[0], cells[args[0]])
        elif op == "rename":
            cells[args[0]] += "_x"
        elif op == "set":
            row, col, cell = args
            row_cells = rows[row].split(",")
            row_cells[col] = cell
            rows[row] = ",".join(row_cells)
        else:  # swap the time stamps of two rows
            a, b = (rows[i].split(",") for i in args)
            a[0], b[0] = b[0], a[0]
            rows[args[0]], rows[args[1]] = ",".join(a), ",".join(b)
    except IndexError:
        pass
    return "\n".join([",".join(cells), *rows]) + "\n"


def test_a_mutated_stream_csv_keeps_the_exit_code_contract(documents):
    manifest = documents["analyze"][0]
    streams = {key: Path(manifest[key]).read_text() for key in ("force_csv", "range_csv")}
    cases = {key: _csv_mutations(text) for key, text in streams.items()}
    budget = 5 * settings.default.max_examples
    # a budget past twice the single mutations also draws pairs of them
    most = 2 if budget > 2 * sum(map(len, cases.values())) else 1

    @settings(max_examples=budget, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.sampled_from(sorted(cases)).flatmap(lambda key: st.tuples(
        st.just(key), st.lists(st.sampled_from(cases[key]), min_size=1, max_size=most))))
    def check(mutation):
        key, changes = mutation
        text = streams[key]
        for change in changes:
            text = _mutated_csv(text, change)
        with tempfile.TemporaryDirectory() as d:
            Path(d, "stream.csv").write_bytes(text.encode("utf-8", "surrogateescape"))
            Path(d, "doc.json").write_text(json.dumps({**manifest, key: f"{d}/stream.csv"}))
            _assert_the_contract(["analyze", d], d)

    check()
