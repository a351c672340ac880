import gzip
import json
import math
import re
import warnings

import numpy as np
import pytest

from impact_governor import ingest, synthetic
from impact_governor.errors import IngestError, InvariantViolation
from impact_governor.ingest import (
    TrialMeta,
    align_streams,
    load_trial,
    read_force_csv,
    read_range_csv,
    sum_load_cells,
)
from impact_governor.synthetic import (
    RANGE_CLOCK_OFFSET_S,
    TRIGGER_TIME_S,
    make_campaign,
    synth_trial,
    write_trial,
)


def test_meta_validation():
    with pytest.raises(InvariantViolation):
        TrialMeta("x", mass_kg=0.0, angle_deg=0, nominal_speed_mps=3, material="m")
    with pytest.raises(InvariantViolation):
        TrialMeta("x", mass_kg=0.25, angle_deg=91, nominal_speed_mps=3, material="m")
    with pytest.raises(InvariantViolation):
        TrialMeta("x", mass_kg=0.25, angle_deg=0, nominal_speed_mps=-1, material="m")
    # NaN passed the "<= 0" checks these replaced
    for bad in (math.nan, math.inf):
        with pytest.raises(InvariantViolation, match="^mass_kg must be finite"):
            TrialMeta("x", mass_kg=bad, angle_deg=0, nominal_speed_mps=3, material="m")
        with pytest.raises(InvariantViolation, match="^nominal_speed_mps must be finite"):
            TrialMeta("x", mass_kg=0.25, angle_deg=0, nominal_speed_mps=bad, material="m")


@pytest.mark.parametrize("key", ["mass_kg", "nominal_speed_mps"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_load_trial_rejects_a_non_finite_manifest_number(tmp_path, key, value):
    # a NaN or infinite approach speed seeded the Kalman with it, and the trial
    # was then rejected for a velocity gate it had no chance to pass
    raw, _ = synth_trial(kind="elastic", seed=3)
    manifest = write_trial(raw, tmp_path, "t0")
    doc = json.loads(manifest.read_text())
    doc[key] = value
    manifest.write_text(json.dumps(doc))  # as NaN or Infinity
    with pytest.raises(IngestError) as exc:
        load_trial(manifest)
    assert str(exc.value) == f"{manifest}: {key} must be a finite number, got {value!r}"


def test_a_campaign_writes_the_columns_that_ingest_reads(tmp_path, monkeypatch):
    written = []  # the acquisition behind each trial make_campaign writes

    def keep(raw, out_dir, stem):
        written.append(raw)
        return write_trial(raw, out_dir, stem)

    monkeypatch.setattr(synthetic, "write_trial", keep)
    manifests = make_campaign(tmp_path, speeds=(3.0, 3.5), trials_per_speed=1, seed=3)
    assert len(manifests) == len(written) == 2
    for manifest, raw in zip(manifests, written):
        stem = manifest.stem
        force_csv, range_csv = tmp_path / f"{stem}_force.csv", tmp_path / f"{stem}_range.csv"
        with open(force_csv) as fh:
            assert fh.readline() == ",".join(ingest.FORCE_COLUMNS) + "\n"
        with open(range_csv) as fh:
            assert fh.readline() == ",".join(ingest.RANGE_COLUMNS) + "\n"
        force, rng = read_force_csv(force_csv), read_range_csv(range_csv)
        # CSV float formatting keeps 9 significant digits; the trigger is exact
        expected_force = {
            "t_s": raw.force_time, "f1_N": raw.force_channels[:, 0],
            "f2_N": raw.force_channels[:, 1], "f3_N": raw.force_channels[:, 2],
            "accel_mps2": raw.accel, "trigger": raw.force_trigger,
        }
        expected_range = {"t_s": raw.range_time, "range_m": raw.range_m, "trigger": raw.range_trigger}
        for got, expected in ((force, expected_force), (rng, expected_range)):
            assert list(got) == list(expected)
            for name, column in expected.items():
                np.testing.assert_allclose(got[name], column, rtol=1e-8, atol=1e-12, err_msg=name)
        doc = json.loads(manifest.read_text())
        assert list(doc) == [*ingest.MANIFEST_KEYS, *ingest.SAMPLE_RATE_KEYS]
        assert load_trial(manifest).meta == raw.meta


def test_sum_load_cells_is_plain_sum():
    f1 = np.array([1.0, 2.0])
    f2 = np.array([0.5, 0.5])
    f3 = np.array([0.25, 0.25])
    np.testing.assert_allclose(sum_load_cells(f1, f2, f3), [1.75, 2.75])
    with pytest.raises(IngestError, match=r"^load-cell channels differ in shape: "):
        sum_load_cells(f1, f2, f3[:1])


def test_loader_round_trip(tmp_path):
    raw, _ = synth_trial(kind="elastic", seed=3, noise_force_n=0.1, noise_range_m=0.001)
    manifest = write_trial(raw, tmp_path, "t0")
    back = load_trial(manifest)

    assert back.meta.configuration == raw.meta.configuration
    assert back.meta.mass_kg == pytest.approx(raw.meta.mass_kg)
    assert back.meta.nominal_speed_mps == pytest.approx(raw.meta.nominal_speed_mps)
    assert back.fs_force == raw.fs_force
    assert back.fs_range == raw.fs_range
    # CSV float formatting keeps 9 significant digits
    np.testing.assert_allclose(back.force_time, raw.force_time, rtol=1e-8, atol=1e-12)
    np.testing.assert_allclose(
        back.force_channels, raw.force_channels, rtol=1e-7, atol=1e-7
    )
    np.testing.assert_allclose(back.range_m, raw.range_m, rtol=1e-7, atol=1e-9)
    np.testing.assert_array_equal(back.force_trigger, raw.force_trigger)
    np.testing.assert_array_equal(back.range_trigger, raw.range_trigger)
    assert back.trigger_time_force == pytest.approx(TRIGGER_TIME_S, abs=1e-9)
    assert back.trigger_time_range == pytest.approx(
        TRIGGER_TIME_S + RANGE_CLOCK_OFFSET_S, abs=1e-9
    )


def test_force_csv_missing_column(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("t_s,f1_N,f2_N,accel_mps2,trigger\n0,0,0,0,0\n")
    with pytest.raises(IngestError, match=rf"^{re.escape(str(p))} lacks column\(s\) \['f3_N'\]$"):
        read_force_csv(p)


def test_force_csv_empty(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("t_s,f1_N,f2_N,f3_N,accel_mps2,trigger\n")
    with pytest.raises(IngestError, match=rf"^{re.escape(str(p))} has a header but no data rows$"):
        read_force_csv(p)


FORCE_HEADER = "t_s,f1_N,f2_N,f3_N,accel_mps2,trigger\n"
FORCE_ROW = "0.00016,1.0,2.0,3.0,0.0,0\n"


@pytest.mark.parametrize(
    "bad_row",
    [
        "0.00032,abc,2.0,3.0,0.0,0\n",  # not a number
        "0.00032,,2.0,3.0,0.0,0\n",  # empty cell
        "0.00032,1.0,2.0,3.0,0.0\n",  # ragged: one cell short
        "0.00032,1.0,2.0,3.0,0.0,0,7\n",  # ragged: one cell long
    ],
)
def test_force_csv_malformed_row_names_file_and_row(tmp_path, bad_row):
    p = tmp_path / "bad.csv"
    # rows 1-4: header, data, blank, data; the bad row is row 5
    p.write_text(FORCE_HEADER + FORCE_ROW + "\n" + FORCE_ROW + bad_row + FORCE_ROW)
    with pytest.raises(IngestError, match=rf"bad\.csv row 5\b"):
        read_force_csv(p)


def test_force_csv_too_few_cells_for_header(tmp_path):
    p = tmp_path / "narrow.csv"
    p.write_text(FORCE_HEADER + "0.0,1.0,2.0\n0.00016,1.0,2.0\n")
    with pytest.raises(IngestError, match=r"narrow\.csv row 2: 3 cells, the header needs 6$"):
        read_force_csv(p)


@pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "-inf", "1e999"])
def test_non_finite_samples_are_rejected_in_both_streams(tmp_path, cell):
    force = tmp_path / "force.csv"
    force.write_text(FORCE_HEADER + FORCE_ROW + f"0.00032,1.0,{cell},3.0,0.0,0\n")
    with pytest.raises(IngestError, match=r"force\.csv row 3: non-finite"):
        read_force_csv(force)
    rows = [f"{i * 0.001:.3f},1.0,0\n" for i in range(10)]
    rows[7] = f"0.007,{cell},1\n"
    rng = tmp_path / "range.csv"
    rng.write_text("t_s,range_m,trigger\n" + "".join(rows))
    with pytest.raises(IngestError, match=r"range\.csv row 9: non-finite"):
        read_range_csv(rng)


def test_rows_are_numbered_from_the_line_where_each_record_starts(tmp_path):
    # the quoted first cell spans file lines 2 and 3, so the nan is on line 6
    p = tmp_path / "range.csv"
    p.write_text('t_s,range_m,trigger\n"0.000\n",1.0,0\n0.001,1.0,0\n0.002,1.0,1\n0.003,nan,0\n')
    with pytest.raises(IngestError, match=r"range\.csv row 6: non-finite sample$"):
        read_range_csv(p)
    # the line path numbers rows the same way: a blank line sends the file there
    p.write_text('t_s,range_m,trigger\n"0.000\n",1.0,0\n\n0.001,1.0,0\n0.002,abc,1\n')
    with pytest.raises(IngestError, match=r"range\.csv row 6: '0.002,abc,1' is not all numbers$"):
        read_range_csv(p)


def test_a_cell_past_the_csv_size_limit_is_named_by_its_line(tmp_path):
    # the csv module refuses a cell over 131072 characters; from there on,
    # rows are numbered line by line
    p = tmp_path / "range.csv"
    p.write_text("t_s,range_m,trigger\n0.000,1.0,0\n\n0.001," + "9" * 200_000 + "x,0\n0.002,1.0,1\n")
    with pytest.raises(IngestError, match=r"range\.csv row 4: '0\.001,9{9}"):
        read_range_csv(p)


def test_range_csv_rate_mismatch(tmp_path):
    p = tmp_path / "slow.csv"
    rows = "".join(f"{i * 0.002:.6f},1.0,0\n" for i in range(50))
    p.write_text("t_s,range_m,trigger\n" + rows)
    with pytest.raises(IngestError, match=rf"^{re.escape(str(p))}: declared 1000 Hz but rows step "
                       r"0\.002 s \(expected 0\.001 s\)$"):
        read_range_csv(p, fs=1000.0)


@pytest.mark.parametrize("swap", [False, True])
def test_a_clock_that_runs_backward_is_refused(tmp_path, swap):
    # the median step of a swapped pair is still the declared one
    rows = [f"{i * 0.001:.3f},1.0,0\n" for i in range(10)]
    if swap:
        rows[5], rows[6] = rows[6], rows[5]  # file rows 8 and 9, after a blank row 5
        why = "t_s 0.005 s does not follow 0.006 s"
    else:
        rows[6] = rows[5]  # a repeated time stamp does not step forward either
        why = "t_s 0.005 s does not follow 0.005 s"
    p = tmp_path / "range.csv"
    p.write_text("t_s,range_m,trigger\n" + "".join(rows[:3]) + "\n" + "".join(rows[3:]))
    with pytest.raises(IngestError, match=rf"range\.csv row 9: {why} of the row before$"):
        read_range_csv(p)
    force = tmp_path / "force.csv"
    force.write_text(FORCE_HEADER + FORCE_ROW + FORCE_ROW)
    with pytest.raises(IngestError, match=r"force\.csv row 3: t_s 0.00016 s does not follow"):
        read_force_csv(force)


def test_a_well_formed_file_is_read_in_one_pass(tmp_path, monkeypatch):
    calls = []

    def parse_rows(rows, **kw):
        calls.append(type(rows))
        return real(rows, **kw)

    real = ingest._parse_rows
    monkeypatch.setattr(ingest, "_parse_rows", parse_rows)
    raw, _ = synth_trial(kind="elastic", seed=3)
    load_trial(write_trial(raw, tmp_path, "t0"))
    # one path string per stream: only a path gets numpy's chunked C reader
    assert calls == [str, str]


RANGE_TEXT = "t_s,range_m,trigger\n" + "".join(f"{i * 0.001:.3f},1.{i},{i % 2}\n" for i in range(20))


@pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
def test_a_plain_stream_named_like_a_compressed_file_reads_like_csv(tmp_path, suffix):
    # np.loadtxt would open such a path with a decompressor
    plain, named = tmp_path / "range.csv", tmp_path / f"range.csv{suffix}"
    plain.write_text(RANGE_TEXT)
    named.write_text(RANGE_TEXT)
    want, got = read_range_csv(plain), read_range_csv(named)
    assert all(np.array_equal(got[c], want[c]) for c in want)


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_a_header_cell_over_two_lines_is_skipped_in_the_one_pass(tmp_path, monkeypatch, newline):
    # the pass skips the header's two physical lines, not one record
    def no_line_path(path):
        raise AssertionError(f"{path} was read line by line")

    monkeypatch.setattr(ingest, "_parse_lines", no_line_path)
    p = tmp_path / "range.csv"
    p.write_bytes(RANGE_TEXT.replace("t_s,", f'"t_s{newline}",').replace("\n", newline).encode())
    got = read_range_csv(p)
    rows = np.array([line.split(",") for line in RANGE_TEXT.splitlines()[1:]], dtype=float)
    assert all(np.array_equal(got[c], rows[:, k]) for k, c in enumerate(ingest.RANGE_COLUMNS))


def test_a_stream_removed_after_its_header_is_an_ingest_error_naming_it(tmp_path, monkeypatch):
    def parse_rows(rows, **kw):
        if isinstance(rows, str):
            p.unlink()
        return real(rows, **kw)

    real = ingest._parse_rows
    monkeypatch.setattr(ingest, "_parse_rows", parse_rows)
    p = tmp_path / "range.csv"
    p.write_text(RANGE_TEXT)
    with pytest.raises(IngestError) as exc:
        read_range_csv(p)
    assert str(exc.value) == f"[Errno 2] No such file or directory: '{p}'"


@pytest.mark.parametrize("change", ["unlink", "replace"])
def test_a_stream_changed_after_its_header_is_not_read_from_another_file(
    tmp_path, monkeypatch, change
):
    # np.loadtxt opens the path anew, and reads range.csv.gz where range.csv is gone
    def parse_rows(rows, **kw):
        if isinstance(rows, str):
            p.unlink()
            if change == "replace":
                p.write_text(RANGE_TEXT)
        return real(rows, **kw)

    real = ingest._parse_rows
    monkeypatch.setattr(ingest, "_parse_rows", parse_rows)
    p = tmp_path / "range.csv"
    p.write_text(RANGE_TEXT)
    with gzip.open(tmp_path / "range.csv.gz", "wt") as fh:
        fh.write("t_s,range_m,trigger\n0.000,9,0\n0.001,9,1\n")
    with pytest.raises(IngestError) as exc:
        read_range_csv(p)
    assert str(exc.value) == f"{p} changed while it was read"


def test_a_header_cell_too_long_for_the_csv_module_is_a_malformed_row(tmp_path):
    p = tmp_path / "range.csv"
    p.write_text(RANGE_TEXT.replace("trigger\n", "trigger," + "x" * 200_000 + "\n", 1))
    with pytest.raises(IngestError) as exc:
        read_range_csv(p)
    assert str(exc.value) == f"{p} header: field larger than field limit (131072)"


def test_a_header_only_file_warns_nothing(tmp_path):
    # np.loadtxt warns "input contained no data" on an empty body
    p = tmp_path / "empty.csv"
    p.write_text(FORCE_HEADER + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IngestError, match="has a header but no data rows$"):
            read_force_csv(p)


def test_manifest_errors(tmp_path):
    p = tmp_path / "m.json"
    p.write_text(json.dumps({"configuration": "x"}))
    with pytest.raises(IngestError, match=rf"^{re.escape(str(p))}: missing key 'mass_kg'$"):
        load_trial(p)
    p.write_text("not json")
    with pytest.raises(IngestError, match=rf"^{re.escape(str(p))}: invalid JSON input: Expecting"):
        load_trial(p)
    raw, _ = synth_trial(seed=1)
    manifest = write_trial(raw, tmp_path, "t1")
    data = json.loads(manifest.read_text())
    data["force_csv"] = "missing.csv"
    manifest.write_text(json.dumps(data))
    missing = re.escape(f"{manifest} references missing stream file {tmp_path / 'missing.csv'}")
    with pytest.raises(IngestError, match=f"^{missing}$"):
        load_trial(manifest)


_INVALID = "invalid JSON input: "
_NOT_AN_OBJECT = "expected a JSON object, got "


@pytest.mark.parametrize(
    "data, why",
    [(b'{"force_csv": "f.csv", "range_csv": "r.csv", "material": "caf\xe9"}',
      _INVALID + "'utf-8' codec"),
     (b"[" * 200_000, _INVALID + "maximum recursion depth exceeded"),
     (b'{"force_csv": "f.csv", "range_csv": "r.csv", "mass_kg": ' + b"1" * 5000 + b"}",
      _INVALID + re.escape("Exceeds the limit (4300 digits) for integer string conversion")),
     (b"5", _NOT_AN_OBJECT),
     (json.dumps(list(ingest.MANIFEST_KEYS)).encode(), _NOT_AN_OBJECT),
     (json.dumps(" ".join(ingest.MANIFEST_KEYS)).encode(), _NOT_AN_OBJECT)],
    ids=["not-utf8", "deep", "huge-int", "number", "list-of-keys", "string-of-keys"],
)
def test_a_manifest_that_is_not_utf8_is_no_manifest_and_does_not_load(tmp_path, data, why):
    p = tmp_path / "m.json"
    p.write_bytes(data)
    assert not ingest.is_trial_manifest(p)
    with pytest.raises(IngestError, match=f"^{re.escape(str(p))}: {why}"):
        load_trial(p)


def test_a_manifest_that_is_a_directory_is_no_manifest_and_does_not_load(tmp_path):
    p = tmp_path / "m.json"
    p.mkdir()
    assert not ingest.is_trial_manifest(p)
    with pytest.raises(IngestError) as exc:
        load_trial(p)
    assert str(exc.value) == f"[Errno 21] Is a directory: '{p}'"


@pytest.mark.parametrize("stream", ["force", "range"])
def test_a_stream_that_is_a_directory_is_an_ingest_error_naming_it(tmp_path, stream):
    raw, _ = synth_trial(seed=1)
    manifest = write_trial(raw, tmp_path, "t1")
    p = tmp_path / f"t1_{stream}.csv"
    p.unlink()
    p.mkdir()
    with pytest.raises(IngestError) as exc:
        load_trial(manifest)
    assert str(exc.value) == f"[Errno 21] Is a directory: '{p}'"


@pytest.mark.parametrize("where", ["header", "deep"])
def test_a_stream_that_is_not_utf8_names_the_file(tmp_path, where):
    # the header read decodes the first chunk; a byte past it fails the one-pass
    # parse, and then the line-by-line read
    raw, _ = synth_trial(seed=1)
    write_trial(raw, tmp_path, "t1")
    p = tmp_path / "t1_force.csv"
    data = p.read_bytes()
    at = data.index(b"\n") if where == "header" else data.index(b"\n", len(data) // 2)
    p.write_bytes(data[:at] + b"\xff" + data[at:])
    with pytest.raises(IngestError, match=f"^{re.escape(str(p))}: byte 0xff is not UTF-8$"):
        read_force_csv(p)


def test_align_puts_trigger_at_zero_and_crops_to_overlap():
    raw, _ = synth_trial(kind="elastic", seed=5)
    record = align_streams(raw)

    # the trigger instant is a grid point at exactly t = 0
    i0 = int(np.argmin(np.abs(record.time)))
    assert record.time[i0] == 0.0
    step = np.diff(record.time)
    np.testing.assert_allclose(step, 1.0 / raw.fs_force, rtol=1e-9)

    # resampling is zero-order hold: every value is one of the raw readings
    assert np.isin(record.range_m[record.range_index], raw.range_m).all()

    # joint coverage only: the force grid extends RANGE_CLOCK_OFFSET_S past
    # the range logger's last physical sample and must be cropped there
    range_end_aligned = raw.range_time[-1] - raw.trigger_time_range
    force_end_aligned = raw.force_time[-1] - raw.trigger_time_force
    assert record.time[-1] <= range_end_aligned + 1e-12
    assert record.time[-1] > force_end_aligned - RANGE_CLOCK_OFFSET_S - 0.002

    # the clock skew is removed: the held value at any t comes from the range
    # sample taken at or just before t in physical time
    t_probe_idx = np.searchsorted(record.time, 0.1)
    t_probe = record.time[t_probe_idx]
    phys = t_probe + raw.trigger_time_range  # back to range-logger clock
    j = int(np.searchsorted(raw.range_time, phys + 1e-12)) - 1
    assert record.range_m[record.range_index[t_probe_idx]] == raw.range_m[j]


def test_align_requires_triggers():
    raw, _ = synth_trial(seed=2)
    raw.force_trigger = np.zeros_like(raw.force_trigger)
    raw.trigger_time_force = None
    with pytest.raises(IngestError, match=r"^force stream has no trigger edge$"):
        align_streams(raw)


def test_align_rejects_off_grid_trigger():
    raw, _ = synth_trial(seed=2)
    # an externally reported sync instant 0.3 ms off the sample grid
    raw.trigger_time_range = raw.trigger_time_range + 3e-4
    with pytest.raises(IngestError, match=r"^trigger instants sit 0\.300 ms off the sample grids "
                       r"\(tolerance 0\.1 ms\)$"):
        align_streams(raw)


def test_align_is_idempotent_on_aligned_data():
    raw, _ = synth_trial(seed=8)
    first = align_streams(raw)
    # feed the aligned record back in as a fake acquisition whose triggers
    # already sit at t=0 on both grids
    raw.force_time = first.time.copy()
    raw.force_channels = np.column_stack(
        [first.force_total, np.zeros_like(first.force_total), np.zeros_like(first.force_total)]
    )
    raw.accel = np.zeros_like(first.time)  # align_streams does not read it
    raw.force_trigger = (first.time >= 0).astype(float)
    raw.range_time = first.time.copy()
    raw.range_m = first.range_m[first.range_index].copy()
    raw.range_trigger = (first.time >= 0).astype(float)
    raw.trigger_time_force = 0.0
    raw.trigger_time_range = 0.0
    raw.fs_range = raw.fs_force
    second = align_streams(raw)
    np.testing.assert_array_equal(second.time, first.time)
    np.testing.assert_array_equal(second.force_total, first.force_total)
    np.testing.assert_array_equal(
        second.range_m[second.range_index], first.range_m[first.range_index]
    )
