"""Closed-loop scenario validation, face limit vs chest limit.

Runs the shipped three-human shuttle scenario twice — once with the
chest contact limit (140 N) and once with the face limit (65 N) — and
prints the audit summary each produced. The face run has to brake hard
inside every protective zone; both must come out violation-free.

Run:  python3 demos/04_simulation.py
"""

import tempfile
from pathlib import Path

from impact_governor.profile import BODY_REGION_LIMITS_N
from impact_governor.sim import load_scenario, run_scenario, write_trajectory

SCENARIO = Path(__file__).resolve().parents[1] / "scenarios" / "three_humans_chest.json"


def run(region: str, out_dir: Path):
    scenario = load_scenario(SCENARIO, {"f_star_n": BODY_REGION_LIMITS_N[region]})
    rows, summary = run_scenario(scenario)
    traj = out_dir / f"trajectory_{region}.csv"
    write_trajectory(rows, traj)

    print(f"--- {region} limit ({BODY_REGION_LIMITS_N[region]:g} N) ---")
    print(f"  force-safe speed: {summary['v_force_mps']:.2f} m/s "
          f"(cruise {scenario.cfg.v_cruise_mps:g} m/s)")
    print(f"  steps: {summary['steps']}, goal switches: {summary['goal_switches']}")
    print(f"  violations: {summary['violations']}, "
          f"reach-margin breaches: {summary['reach_margin_breaches']}")
    print(f"  zone entries: {len(summary['zone_entries'])}, "
          f"max time-to-compliance: "
          + (f"{summary['max_time_to_compliance_s']:.3f} s"
             if summary['max_time_to_compliance_s'] is not None else "n/a")
          + f" (bound {summary['transient_bound_s']:.3f} s)")
    print(f"  min distance to a human: {summary['min_distance_m']:.2f} m "
          f"(reach margin C = {scenario.cfg.c_m:g} m)")
    print(f"  max speed anywhere: {summary['max_speed_mps']:.2f} m/s")
    print(f"  trajectory -> {traj}\n")


def main():
    with tempfile.TemporaryDirectory(prefix="sim_demo_") as tmp:
        run("chest", Path(tmp))
        run("face", Path(tmp))
    print("the trajectories above are removed on exit; to keep and plot one:")
    print("  impact-governor simulate scenarios/three_humans_chest.json "
          "--body-region face --out sim_face")
    print("  gnuplot> set datafile separator ','")
    print("  gnuplot> plot 'sim_face/trajectory.csv' using 2:3 with lines")


if __name__ == "__main__":
    main()
