"""Fit an airframe profile from a multi-speed synthetic campaign.

Builds a 12-trial campaign (three nominal speeds, four trials each)
whose retained-energy ratio follows a seeded quadratic, pushes every
trial through the pipeline, aggregates per speed, and fits the
velocity-dependent restitution model the governor will consume.

Run:  python3 demos/02_fit_profile.py
"""

import tempfile
from pathlib import Path

from impact_governor.fit import build_airframe_profile, save_profile
from impact_governor.impact import aggregate_configuration, summarize_trial
from impact_governor.ingest import align_streams, load_trial
from impact_governor.synthetic import make_campaign

TRUTH = (0.10, 0.02, -0.001)  # EC_r(v) = 0.10 + 0.02 v - 0.001 v^2


def run(out_dir: Path):
    manifests = make_campaign(
        out_dir,
        configuration="Demo-0deg",
        speeds=(3.0, 3.5, 4.0, 4.5),
        trials_per_speed=3,
        retained_energy_poly=TRUTH,
        seed=7,
    )
    print(f"campaign: {len(manifests)} trials in {out_dir}")

    by_speed = {}
    for manifest in manifests:
        raw = load_trial(manifest)
        metrics = summarize_trial(align_streams(raw))
        by_speed.setdefault(round(raw.meta.nominal_speed_mps, 3), []).append(metrics)

    summaries = []
    for speed in sorted(by_speed):
        summary = aggregate_configuration(by_speed[speed])
        summaries.append(summary)
        s = summary.stats
        print(
            f"  {speed:g} m/s (n={summary.n}): "
            f"F_max {s['f_max_n'].mean:6.1f} +/- {s['f_max_n'].std:4.1f} N, "
            f"EC_r {100 * s['ec_r'].mean:5.2f} +/- {100 * s['ec_r'].std:4.2f} %"
        )

    profile = build_airframe_profile(summaries, restitution_degree=2)
    model = profile.restitution
    print(f"\nfitted retained-energy model (degree {model.degree}):")
    print(f"  R^2 = {model.r_squared:.4f}, MAE = {model.mae:.2e}, "
          f"domain ({model.domain[0]:.2f}, {model.domain[1]:.2f}) m/s")
    # raw coefficients are ill-conditioned on a narrow speed range -- judge
    # the fit by its values, which is all the governor ever evaluates
    print(f"  {'v [m/s]':>8s} {'fitted EC_r':>12s} {'true EC_r':>10s}")
    for v in (3.0, 3.5, 4.0, 4.5):
        true_ec = TRUTH[0] + TRUTH[1] * v + TRUTH[2] * v**2
        print(f"  {v:8.1f} {profile.retained_energy_at(v):12.4f} {true_ec:10.4f}")
    print(f"  contact duration {1e3 * profile.dt_s:.1f} +/- {1e3 * profile.dt_std_s:.1f} ms, "
          f"mass {profile.mass_kg:g} kg")

    path = out_dir / "profile_demo.json"
    save_profile(profile, path)
    print(f"\nprofile saved to {path} (removed on exit)")


def main():
    with tempfile.TemporaryDirectory(prefix="campaign_demo_") as tmp:
        run(Path(tmp))


if __name__ == "__main__":
    main()
