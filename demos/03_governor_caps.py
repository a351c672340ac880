"""What the governor actually caps, and why.

Prints the force-safe speed for each body-region contact limit using a
shipped airframe profile, then feeds one GovernorRuntime per mode a drone
approaching a person from 45 m to 0.5 m and prints the cap each emits.

Run:  python3 demos/03_governor_caps.py
"""

from pathlib import Path

from impact_governor.governor import (
    GovernorConfig,
    GovernorRuntime,
    VelocityCommand,
    avg_impact_force,
    force_speed_cap,
    iso_radius,
)
from impact_governor.profile import BODY_REGION_LIMITS_N, load_profile

PROFILE = Path(__file__).resolve().parents[1] / "profiles" / "carbon_0deg.json"

APPROACH_M = (45.0, 25.0, 15.0, 10.0, 8.5, 8.4, 8.0, 7.0, 6.0, 4.0, 2.0, 0.5)


def main():
    profile = load_profile(PROFILE)
    cfg = GovernorConfig()  # T_q=0.1 s, a=15 m/s^2, C=1.2 m, v_cruise=8 m/s

    print(f"profile: {profile.name} (m={profile.mass_kg:g} kg, "
          f"dt={1e3 * profile.dt_s:.1f} ms)")
    print(f"zone radius at cruise: S({cfg.v_cruise_mps:g}) = "
          f"{iso_radius(cfg.v_cruise_mps, cfg):.2f} m\n")

    print("force-safe speed per body region (average-force limit):")
    for region, f_star in sorted(BODY_REGION_LIMITS_N.items(), key=lambda kv: kv[1]):
        v = force_speed_cap(f_star, profile, cfg)
        f_check = avg_impact_force(v, profile)
        note = " (platform max, limit not binding)" if v == cfg.v_platform_max_mps else ""
        print(f"  {region:6s} {f_star:5.0f} N -> v_force = {v:6.2f} m/s "
              f"(predicts {f_check:6.1f} N){note}")

    print("\ncap emitted on approach (binary @ chest 140 N, ramp @ face 65 N):")
    runtimes = (
        GovernorRuntime(cfg, profile),
        GovernorRuntime(GovernorConfig(mode="ramp", f_star_n=65.0), profile),
    )
    print(f"  {'d [m]':>7s} {'binary/chest':>14s} {'ramp/face':>14s}")
    for i, d in enumerate(APPROACH_M):
        t = 0.1 * i
        row = f"  {d:7.1f}"
        for rt in runtimes:
            rt.on_range(d, t)
            rt.on_command(VelocityCommand(cfg.v_platform_max_mps, 0.0, 0.0, t))
            rec = rt.last_record
            row += f" {rec.cap_mps:8.2f} {rec.cap_source:>5s}"
        print(row)

    print("\nboth modes engage below S(v_cruise). Binary mode slams to v_force")
    print("inside the zone; ramp mode follows the stopping-envelope inversion")
    print("but never dips below the force-safe speed, so contact stays")
    print("force-bounded either way. Binary releases at S, ramp only above 1.05 S.")


if __name__ == "__main__":
    main()
