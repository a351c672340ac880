"""Walk one synthetic bench trial through the full measurement pipeline.

Generates a noisy elastic-impact trial (force plate at 6250 Hz, range
finder at 1000 Hz, independent clocks, shared trigger), writes it to
disk in the logger CSV format, then loads, aligns and summarizes it —
exactly what `impact-governor analyze` does per trial — and compares
the recovered metrics to the constructed ground truth.

Run:  python3 demos/01_bench_pipeline.py
"""

import tempfile
from pathlib import Path

from impact_governor.impact import summarize_trial
from impact_governor.ingest import align_streams, load_trial
from impact_governor.synthetic import synth_trial, write_trial


def main():
    raw, truth = synth_trial(
        kind="elastic",
        v_in=4.0,
        e=0.4,
        mass=0.27,
        tau_s=0.020,
        noise_force_n=0.5,
        noise_range_m=0.002,
        seed=1,
        configuration="Demo-0deg",
    )
    with tempfile.TemporaryDirectory(prefix="bench_demo_") as tmp:
        manifest = write_trial(raw, Path(tmp), "trial_001")
        print(f"wrote trial to {tmp} (removed on exit)")
        print(f"  force rows:  {raw.force_time.size} @ {raw.fs_force:g} Hz")
        print(f"  range rows:  {raw.range_time.size} @ {raw.fs_range:g} Hz")
        print(f"  trigger at {raw.trigger_time_force:.4f} s (force clock) / "
              f"{raw.trigger_time_range:.4f} s (range clock)")

        record = align_streams(load_trial(manifest))
    print(f"\naligned: {record.time.size} samples, trigger now at t=0, "
          f"span [{record.time[0]:.3f}, {record.time[-1]:.3f}] s")

    metrics = summarize_trial(record)
    print("\nrecovered metrics vs constructed truth:")
    rows = [
        ("approach speed [m/s]", metrics.v_in_mps, truth["v_in_mps"]),
        ("peak force [N]", metrics.f_max_n, truth["f_max_n"]),
        ("contact duration [ms]", metrics.dt_j_s * 1e3, truth["dt_j_s"] * 1e3),
        ("rectified impulse [N*s]", metrics.j_ns, truth["j_ns"]),
        ("impact energy [J]", metrics.ec_i_j, truth["ec_i_j"]),
        ("retained energy ratio", metrics.ec_r, truth["ec_r"]),
    ]
    for label, got, want in rows:
        err = abs(got - want) / want * 100 if want else abs(got)
        print(f"  {label:26s} {got:9.4f}  (truth {want:9.4f}, {err:5.2f}% off)")
    if metrics.flags:
        print(f"  flags: {', '.join(metrics.flags)}")


if __name__ == "__main__":
    main()
