"""End-to-end acceptance checks.

Each test prints one ``[PASS]``/``[FAIL]`` line (run with ``-s`` to see them
on success) and then asserts, so a failing criterion is both visible in the
log and fatal to the suite.  Oracles are closed forms or brute-force
re-computations, never the code under test.
"""

import hashlib
import itertools
import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from impact_governor.cli import main
from impact_governor.dsp import FilterSpec, KalmanConfig, butterworth_lowpass, kalman_smooth
from impact_governor.fit import fit_polynomial
from impact_governor.governor import (
    GovernorConfig,
    GovernorRuntime,
    VelocityCommand,
    avg_impact_force,
    force_speed_cap,
    iso_radius,
    iso_speed_cap,
    limit_command,
)
from impact_governor.impact import ImpactWindow, aggregate_configuration, rectified_impulse, summarize_trial
from impact_governor.ingest import align_streams, load_trial
from impact_governor.profile import load_profile, parse_profile, serialize_profile
from impact_governor.synthetic import synth_trial, write_trial

from conftest import make_profile

REPO_ROOT = Path(__file__).resolve().parents[1]
FS = 6250.0


def _report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    line = f"[{tag}] criterion {num}: {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


# ----------------------------------------------------------------------------


def test_criterion_01_zone_radius_anchor():
    cfg = GovernorConfig(t_q_s=0.1, a_mps2=15.0, c_m=1.2)
    s = iso_radius(8.0, cfg)
    err = abs(s - 8.4)
    _report(1, "zone radius at 8 m/s is 8.4 m", err <= 1e-9, f"S={s!r}")


def test_criterion_02_force_cap_matches_closed_form():
    t0 = time.perf_counter()
    masses = (0.1, 0.25, 0.41, 0.9, 2.0)
    durations = (0.01, 0.017, 0.036, 0.0414, 0.06)
    e_hats = (0.0, 0.382)
    limits = (65.0, 140.0)
    combos = list(itertools.product(masses, durations, e_hats, limits))
    assert len(combos) == 100

    worst = 0.0
    anchors = {}
    for m, dt, e, f_star in combos:
        profile = make_profile(ec_r=e * e, dt_s=dt, mass_kg=m)
        cfg = GovernorConfig(f_star_n=f_star, v_platform_max_mps=1000.0)
        cap = force_speed_cap(f_star, profile, cfg)
        closed = f_star * dt / (m * (1.0 + e))
        worst = max(worst, abs(cap - closed))
        if (m, dt, e) == (0.25, 0.036, 0.382):
            anchors[f_star] = cap
    elapsed = time.perf_counter() - t0

    ok = (
        worst <= 1e-6
        and abs(anchors[140.0] - 14.588) <= 5e-4
        and abs(anchors[65.0] - 6.77) <= 5e-3
        and elapsed < 1.0
    )
    _report(
        2,
        "force-limited speed matches F*dt/(m(1+e)) on 100 combos",
        ok,
        f"worst |err|={worst:.3g} m/s, anchors {anchors[140.0]:.3f}/{anchors[65.0]:.3f}, {elapsed:.2f}s",
    )


def test_criterion_03_rectified_impulse_half_sine():
    t0 = time.perf_counter()
    a, tau = 100.0, 0.02
    t = np.arange(int(round(2 * tau * FS)) + 1) / FS  # positive then negative lobe
    force = a * np.sin(math.pi * t / tau)

    def window(f):
        return ImpactWindow(t_start=t[0], t_end=t[-1], time=t, force=f, v_in=4.0)

    j = rectified_impulse(window(force))
    expected = 2.0 * a * tau / math.pi
    rel = abs(j - expected) / expected

    # brute-force oracle: per-interval trapezoid on negative-clipped samples
    clipped = np.maximum(force, 0.0)
    oracle = 0.0
    for i in range(len(t) - 1):
        oracle += 0.5 * (clipped[i] + clipped[i + 1]) * (t[i + 1] - t[i])
    # feeding a signal with its negative lobe pre-zeroed changes nothing
    negative_lobe_free = rectified_impulse(window(clipped))
    elapsed = time.perf_counter() - t0

    ok = (
        rel <= 0.005
        and j == negative_lobe_free
        and abs(j - oracle) <= 1e-12
        and elapsed < 1.0
    )
    _report(
        3,
        "half-sine impulse within 0.5% of 2*A*tau/pi, negative lobes add 0",
        ok,
        f"J={j:.6f} N*s, rel={rel:.2e}, |J-oracle|={abs(j - oracle):.1e}, {elapsed:.2f}s",
    )


FIXTURES = (
    dict(kind="plastic", v_in=3.5, e=0.0, mass=0.25, tau_s=0.025),
    dict(kind="elastic", v_in=4.0, e=0.4, mass=0.27, tau_s=0.020),
    dict(kind="two_stage", v_in=4.5, e=0.3, mass=0.41, tau_s=0.020,
         v_mid=1.0, gap_s=0.005, tau2_s=0.010),
)


def test_criterion_04_synthetic_pipeline_recovery(tmp_path):
    t0 = time.perf_counter()
    failures = []
    worst = 0.0
    for spec in FIXTURES:
        raw, truth = synth_trial(
            noise_force_n=0.5, noise_range_m=0.002, seed=0,
            configuration=spec["kind"], **spec,
        )
        manifest = write_trial(raw, tmp_path, spec["kind"])
        record = align_streams(load_trial(manifest))
        metrics = summarize_trial(record)
        for field in ("f_max_n", "dt_j_s", "j_ns", "ec_r"):
            got, want = getattr(metrics, field), truth[field]
            if want == 0.0:
                err = abs(got)  # EC_r truth 0: within 2 points absolute
            else:
                err = abs(got - want) / abs(want)
            worst = max(worst, err)
            if err > 0.02:
                failures.append(f"{spec['kind']}.{field}: {got:.4g} vs {want:.4g}")
    elapsed = time.perf_counter() - t0

    ok = not failures and elapsed < 10.0
    _report(
        4,
        "plastic/elastic/two-stage fixtures recover F_max, dt_J, J, EC_r within 2%",
        ok,
        f"worst err {100 * worst:.2f}%, {elapsed:.2f}s" + ("; " + "; ".join(failures) if failures else ""),
    )


# Reference aggregate for the Carbon-0deg configuration (mean, std):
# F_max [N], dt_J [s], J [N*s], EC_i [J], EC_r [-]
CARBON_REFERENCE = {
    "f_max_n": (105.6, 7.0),
    "dt_j_s": (0.0360, 0.0033),
    "j_ns": (1.144, 0.081),
    "ec_i_j": (1.42, 0.06),
    "ec_r": (0.146, 0.005),
}


def _find_bench_dataset() -> Path | None:
    env = os.environ.get("IMPACT_GOVERNOR_DATASET")
    candidates = [Path(env)] if env else []
    candidates.append(REPO_ROOT / "data" / "bench")
    for c in candidates:
        if c.is_dir() and any(c.glob("*.json")):
            return c
    return None


def test_criterion_05_bench_dataset_replication_or_fallback(tmp_path):
    dataset = _find_bench_dataset()
    if dataset is not None:
        metrics = []
        for manifest in sorted(dataset.glob("*.json")):
            raw = load_trial(manifest)
            if "carbon" not in raw.meta.configuration.lower() or raw.meta.angle_deg != 0.0:
                continue
            metrics.append(summarize_trial(align_streams(raw)))
        summary = aggregate_configuration(metrics)
        misses = []
        for field, (mean, std) in CARBON_REFERENCE.items():
            got = summary.stats[field].mean
            if not (mean - std <= got <= mean + std):
                misses.append(f"{field}={got:.4g} not in {mean}+/-{std}")
        _report(
            5,
            "Carbon-0deg aggregate within reference mean +/- std on all five columns",
            not misses,
            f"{len(metrics)} trials" + ("; " + "; ".join(misses) if misses else ""),
        )
        return

    # No released dataset in this checkout: the criterion reduces to the
    # fixture pipeline (criterion 4) plus a loader round trip, checked here.
    raw, _ = synth_trial(seed=3)
    manifest = write_trial(raw, tmp_path, "roundtrip")
    back = load_trial(manifest)
    ok = (
        np.allclose(back.force_channels, raw.force_channels, rtol=1e-7, atol=1e-9)
        and np.allclose(back.accel, raw.accel, rtol=1e-7, atol=1e-9)
        and np.allclose(back.range_m, raw.range_m, rtol=1e-7, atol=1e-9)
        and back.fs_force == raw.fs_force
        and back.fs_range == raw.fs_range
        and abs(back.trigger_time_force - raw.trigger_time_force) < 1e-9
        and abs(back.trigger_time_range - raw.trigger_time_range) < 1e-9
        and back.meta.configuration == raw.meta.configuration
    )
    _report(
        5,
        "bench dataset not present; fallback = criterion 4 + loader round trip",
        ok,
        "trial files reload bit-faithfully",
    )


def test_criterion_06_filter_properties():
    spec = FilterSpec(order=4, cutoff_hz=1000.0, fs=FS)

    dc = butterworth_lowpass(np.ones(4000), spec)
    dc_err = float(np.max(np.abs(dc[500:-500] - 1.0)))

    n = 12500
    t = np.arange(n) / FS
    x = np.sin(2 * math.pi * spec.cutoff_hz * t)
    y = butterworth_lowpass(x, spec)
    core = slice(n // 4, 3 * n // 4)
    gain = float(np.sqrt(np.mean(y[core] ** 2) / np.mean(x[core] ** 2)))

    pulse = np.exp(-0.5 * ((np.arange(4000) - 2000.0) / 40.0) ** 2)
    shift = abs(int(np.argmax(butterworth_lowpass(pulse, spec))) - 2000)

    dt = 1e-3
    z = 5.0 - 3.0 * np.arange(400) * dt
    _, vel = kalman_smooth(z, KalmanConfig(dt=dt))
    slope_err = float(np.max(np.abs(vel[100:] - (-3.0)))) / 3.0

    ok = dc_err <= 1e-6 and abs(gain - 0.5) <= 0.02 and shift <= 1 and slope_err <= 0.01
    _report(
        6,
        "Butterworth DC/cutoff/zero-phase and Kalman slope recovery",
        ok,
        f"dc_err={dc_err:.1e}, gain={gain:.3f}, shift={shift}, slope_err={100 * slope_err:.2f}%",
    )


def test_criterion_07_governor_property_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    n_runtimes, per_runtime = 500, 20
    checked = 0
    for _ in range(n_runtimes):
        cfg = GovernorConfig(
            t_q_s=float(rng.uniform(0.02, 0.3)),
            a_mps2=float(rng.uniform(2.0, 30.0)),
            c_m=float(rng.uniform(0.2, 2.0)),
            v_cruise_mps=float(rng.uniform(1.0, 15.0)),
            f_star_n=float(rng.uniform(20.0, 210.0)),
            v_platform_max_mps=float(rng.uniform(5.0, 25.0)),
            staleness_timeout_s=float(rng.uniform(0.05, 0.5)),
            mode=("binary", "ramp")[int(rng.integers(2))],
            stale_cap_mps=(None, 0.0, float(rng.uniform(0.0, 10.0)))[int(rng.integers(3))],
            f_star_is_peak=bool(rng.random() < 0.1),
        )
        ec_r = float(rng.uniform(0.0, 0.9))
        dt_s = float(rng.uniform(0.01, 0.06))
        mass_kg = float(rng.uniform(0.1, 2.0))
        # keep the profile physical: a pulse's peak is always above its
        # average, so the reference peak is drawn as 1.2-3x the model's
        # average force at the domain-middle reference speed
        f_avg_ref = mass_kg * 3.5 * (1.0 + math.sqrt(ec_r)) / dt_s
        profile = make_profile(
            ec_r=ec_r,
            dt_s=dt_s,
            mass_kg=mass_kg,
            f_max_ref_N=float(rng.uniform(1.2, 3.0)) * f_avg_ref,
        )
        rt = GovernorRuntime(cfg, profile)
        s_vmax = iso_radius(cfg.v_platform_max_mps, cfg)

        t = 0.0
        for _ in range(per_runtime):
            t += float(rng.uniform(0.0, 0.4))
            if rng.random() < 0.8:
                rt.on_range(float(rng.uniform(0.0, 3.0 * s_vmax)), t)

            scale = cfg.v_platform_max_mps * (10.0 if rng.random() < 0.1 else 0.8)
            vec = rng.normal(0.0, scale, size=3)
            if rng.random() < 0.02:
                vec[int(rng.integers(3))] = math.nan
            cmd = VelocityCommand(float(vec[0]), float(vec[1]), float(vec[2]), t)
            out = rt.on_command(cmd)
            rec = rt.last_record

            assert out.speed() <= rec.cap_mps + 1e-9
            if rec.cap_source in ("force", "stale-failsafe"):
                assert (
                    avg_impact_force(out.speed(), profile)
                    <= rt.f_star_effective_n + 1e-3
                )
            again = limit_command(out, rec.cap_mps)
            assert (again.vx, again.vy, again.vz) == (out.vx, out.vy, out.vz)

            u = float(rng.uniform(1e-6, 1.0 - 1e-6))
            d = cfg.c_m + (s_vmax - cfg.c_m) * u
            assert abs(iso_radius(iso_speed_cap(d, cfg), cfg) - d) <= 1e-6
            checked += 1
    elapsed = time.perf_counter() - t0

    ok = checked == n_runtimes * per_runtime and elapsed < 30.0
    _report(
        7,
        "10,000 randomized commands: cap, force bound, identity, idempotence",
        ok,
        f"{checked} cases, {elapsed:.2f}s",
    )


def test_criterion_08_scenario_replication_deterministic(tmp_path):
    t0 = time.perf_counter()
    scenario_path = REPO_ROOT / "scenarios" / "three_humans_chest.json"
    digests, summaries = [], []
    for name in ("run_a", "run_b"):
        out = tmp_path / name
        code = main(["simulate", str(scenario_path), "--out", str(out)])
        assert code == 0
        digests.append(
            hashlib.sha256((out / "trajectory.csv").read_bytes()).hexdigest()
        )
        summaries.append(json.loads((out / "summary.json").read_text()))
    elapsed = time.perf_counter() - t0

    s = summaries[0]
    bound = s["transient_bound_s"]
    entries_ok = all(
        e["time_to_compliance_s"] is not None and e["time_to_compliance_s"] <= bound
        for e in s["zone_entries"]
    )
    after = s["max_speed_in_zone_after_transient_mps"]
    ok = (
        s["violations"] == 0
        and s["reach_margin_breaches"] == 0
        and entries_ok
        and (after is None or after <= s["v_force_mps"] + 1e-9)
        and digests[0] == digests[1]
        and elapsed < 30.0
    )
    _report(
        8,
        "3-human binary scenario: zero violations, bounded transients, identical hashes",
        ok,
        f"{len(s['zone_entries'])} zone entries, bound {bound:.3f}s, {elapsed:.2f}s",
    )


def test_criterion_09_regression_and_profile_round_trip():
    coeffs = (0.08, 0.015, -0.002)
    x = np.linspace(2.5, 5.0, 9)
    y = coeffs[0] + coeffs[1] * x + coeffs[2] * x**2
    model = fit_polynomial(x, y, degree=2)
    coeff_err = max(abs(c - w) for c, w in zip(model.coefficients, coeffs))
    fit_ok = coeff_err <= 1e-9 and model.r_squared == 1.0 and model.mae <= 1e-12

    profile = make_profile()
    back = parse_profile(serialize_profile(profile))
    round_trip_ok = back.to_dict() == profile.to_dict()

    shipped = sorted((REPO_ROOT / "profiles").glob("*.json"))
    grid_ok = bool(shipped)
    for path in shipped:
        p = load_profile(path)
        lo, hi = p.restitution.domain
        e = np.array([p.e_hat_at(v) for v in np.linspace(lo, hi, 1000)])
        grid_ok = grid_ok and bool(np.all((e >= 0.0) & (e <= 1.0)))

    ok = fit_ok and round_trip_ok and grid_ok
    _report(
        9,
        "exact polynomial recovery, profile round trip, shipped profiles physical",
        ok,
        f"coeff err {coeff_err:.1e}, MAE {model.mae:.1e}, {len(shipped)} profiles",
    )


def test_criterion_10_low_speed_operating_point_pinned():
    # A force-safe speed of ~3 m/s is sometimes quoted for this airframe and
    # chest limit. The shipped force model disagrees: with m=0.25 kg,
    # dt=0.036 s and the fitted restitution, 3 m/s predicts ~29 N -- nowhere
    # near 140 N (the model's own root is ~14.6 m/s, see criterion 2). This
    # test pins the discrepancy so nobody "fixes" the solver to hit 3 m/s.
    profile = load_profile(REPO_ROOT / "profiles" / "carbon_0deg.json")
    f_at_3 = avg_impact_force(3.0, profile)
    ok = f_at_3 < 140.0
    _report(
        10,
        "3 m/s operating point predicts far below the 140 N chest limit",
        ok,
        f"F_avg(3 m/s) = {f_at_3:.1f} N",
    )
