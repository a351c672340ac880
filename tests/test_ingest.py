import json

import numpy as np
import pytest

from impact_governor.errors import (
    AlignmentOutOfTolerance,
    EmptyStream,
    InvariantViolation,
    LengthMismatch,
    MalformedRow,
    ManifestError,
    MissingColumn,
    RateMismatch,
    TriggerMissing,
)
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


def test_sum_load_cells_is_plain_sum():
    f1 = np.array([1.0, 2.0])
    f2 = np.array([0.5, 0.5])
    f3 = np.array([0.25, 0.25])
    np.testing.assert_allclose(sum_load_cells(f1, f2, f3), [1.75, 2.75])
    with pytest.raises(LengthMismatch):
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
    with pytest.raises(MissingColumn):
        read_force_csv(p)


def test_force_csv_empty(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("t_s,f1_N,f2_N,f3_N,accel_mps2,trigger\n")
    with pytest.raises(EmptyStream):
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
    with pytest.raises(MalformedRow, match=rf"bad\.csv row 5\b"):
        read_force_csv(p)


def test_force_csv_too_few_cells_for_header(tmp_path):
    p = tmp_path / "narrow.csv"
    p.write_text(FORCE_HEADER + "0.0,1.0,2.0\n0.00016,1.0,2.0\n")
    with pytest.raises(MalformedRow, match=r"narrow\.csv row 2\b"):
        read_force_csv(p)


@pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "-inf", "1e999"])
def test_non_finite_samples_are_rejected_in_both_streams(tmp_path, cell):
    force = tmp_path / "force.csv"
    force.write_text(FORCE_HEADER + FORCE_ROW + f"0.00032,1.0,{cell},3.0,0.0,0\n")
    with pytest.raises(MalformedRow, match=r"force\.csv row 3: non-finite"):
        read_force_csv(force)
    rows = [f"{i * 0.001:.3f},1.0,0\n" for i in range(10)]
    rows[7] = f"0.007,{cell},1\n"
    rng = tmp_path / "range.csv"
    rng.write_text("t_s,range_m,trigger\n" + "".join(rows))
    with pytest.raises(MalformedRow, match=r"range\.csv row 9: non-finite"):
        read_range_csv(rng)


def test_range_csv_rate_mismatch(tmp_path):
    p = tmp_path / "slow.csv"
    rows = "".join(f"{i * 0.002:.6f},1.0,0\n" for i in range(50))
    p.write_text("t_s,range_m,trigger\n" + rows)
    with pytest.raises(RateMismatch):
        read_range_csv(p, fs=1000.0)


def test_manifest_errors(tmp_path):
    p = tmp_path / "m.json"
    p.write_text(json.dumps({"configuration": "x"}))
    with pytest.raises(ManifestError):
        load_trial(p)
    p.write_text("not json")
    with pytest.raises(ManifestError):
        load_trial(p)
    raw, _ = synth_trial(seed=1)
    manifest = write_trial(raw, tmp_path, "t1")
    data = json.loads(manifest.read_text())
    data["force_csv"] = "missing.csv"
    manifest.write_text(json.dumps(data))
    with pytest.raises(ManifestError):
        load_trial(manifest)


def test_align_puts_trigger_at_zero_and_crops_to_overlap():
    raw, _ = synth_trial(kind="elastic", seed=5)
    record = align_streams(raw)

    # the trigger instant is a grid point at exactly t = 0
    i0 = int(np.argmin(np.abs(record.time)))
    assert record.time[i0] == 0.0
    step = np.diff(record.time)
    np.testing.assert_allclose(step, 1.0 / raw.fs_force, rtol=1e-9)

    # resampling is zero-order hold: every value is one of the raw readings
    assert np.isin(record.range_resampled, raw.range_m).all()

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
    assert record.range_resampled[t_probe_idx] == raw.range_m[j]

    assert record.meta.alignment_residual_s <= 1e-4


def test_align_requires_triggers():
    raw, _ = synth_trial(seed=2)
    raw.force_trigger = np.zeros_like(raw.force_trigger)
    raw.trigger_time_force = None
    with pytest.raises(TriggerMissing):
        align_streams(raw)


def test_align_rejects_off_grid_trigger():
    raw, _ = synth_trial(seed=2)
    # an externally reported sync instant 0.3 ms off the sample grid
    raw.trigger_time_range = raw.trigger_time_range + 3e-4
    with pytest.raises(AlignmentOutOfTolerance):
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
    raw.accel = first.accel.copy()
    raw.force_trigger = (first.time >= 0).astype(float)
    raw.range_time = first.time.copy()
    raw.range_m = first.range_resampled.copy()
    raw.range_trigger = (first.time >= 0).astype(float)
    raw.trigger_time_force = 0.0
    raw.trigger_time_range = 0.0
    raw.fs_range = raw.fs_force
    second = align_streams(raw)
    np.testing.assert_array_equal(second.time, first.time)
    np.testing.assert_array_equal(second.force_total, first.force_total)
    np.testing.assert_array_equal(second.range_resampled, first.range_resampled)
