import math

import numpy as np
import pytest

from impact_governor.errors import IngestError, InvariantViolation
from impact_governor.impact import (
    ConfigurationSummary,
    ImpactWindow,
    aggregate_configuration,
    contact_duration,
    detect_impact,
    kinetic_energies,
    peak_force,
    rebound_velocity,
    rectified_impulse,
    summarize_trial,
)
from impact_governor.ingest import align_streams
from impact_governor.synthetic import synth_trial

FS = 6250.0

# Closed-form oracle for the contact-duration rule on a clean half-sine
# A=100 N, tau=20 ms with a 6 N threshold: crossing at phase
# phi = asin(6/A), contact impulse (2 A tau / pi) cos(phi), and the 99%
# point where cos(theta) = -0.98 cos(phi). Frozen values below.
HS_A = 100.0
HS_TAU = 0.020
HS_PHI = math.asin(6.0 / HS_A)
HS_T1 = HS_TAU * HS_PHI / math.pi
HS_J_CONTACT = (2 * HS_A * HS_TAU / math.pi) * math.cos(HS_PHI)
HS_T99 = HS_TAU * math.acos(-0.98 * math.cos(HS_PHI)) / math.pi
HS_DT_J = HS_T99 - HS_T1
assert abs(HS_DT_J - 0.018287125925100827) < 1e-15
assert abs(HS_J_CONTACT - 1.2709456471854357) < 1e-15


def half_sine_record(a=HS_A, tau=HS_TAU, t0=0.05, duration=0.12, v=4.0):
    """Sampled clean half-sine with constant approach speed for detection."""
    t = np.arange(int(duration * FS)) / FS
    force = np.zeros_like(t)
    phase = (t - t0) / tau
    m = (phase >= 0) & (phase <= 1)
    force[m] = a * np.sin(np.pi * phase[m])
    velocity = np.full_like(t, -v)
    return t, force, velocity


# --- detection ---------------------------------------------------------------


def test_detect_impact_start_and_window():
    t, force, vel = half_sine_record()
    w = detect_impact(t, force, vel)
    assert w.t_start == pytest.approx(0.05 + HS_T1, abs=1.01 / FS)
    assert w.t_end == pytest.approx(0.05 + HS_TAU - HS_T1, abs=1.01 / FS)
    assert w.v_in == pytest.approx(4.0)
    # window arrays start at onset
    assert w.time[0] == pytest.approx(w.t_start)
    assert w.force[0] > 6.0


def test_detect_impact_requires_force():
    t, force, vel = half_sine_record(a=5.0)  # never exceeds 6 N
    with pytest.raises(IngestError, match=r"^no sample exceeds 6 N$"):
        detect_impact(t, force, vel)


def test_detect_impact_requires_speed():
    t, force, vel = half_sine_record(v=1.0)  # |v| never above 2.5 m/s
    with pytest.raises(IngestError, match=r"^force exceeds 6 N but never while \|v\| > 2\.5 m/s$"):
        detect_impact(t, force, vel)


def test_detect_impact_requires_pre_window():
    # contact already in progress at the first sample: no approach segment
    t, force, vel = half_sine_record(t0=-0.01)
    with pytest.raises(IngestError, match=r"^no pre-impact samples to estimate approach speed$"):
        detect_impact(t, force, vel)


def test_detect_impact_shape_mismatch():
    t, force, vel = half_sine_record()
    with pytest.raises(IngestError, match=r"^time/force/velocity shapes differ: "):
        detect_impact(t, force[:-1], vel)


# --- impulse and duration ----------------------------------------------------


def test_rectified_impulse_half_sine_matches_closed_form():
    t, force, vel = half_sine_record()
    w = detect_impact(t, force, vel)
    j = rectified_impulse(w)
    assert j == pytest.approx(HS_J_CONTACT, rel=3e-3)


def test_rectified_impulse_clips_negative_lobes_exactly():
    # trapezoid sampled at 1 kHz: samples [0, 10, 20, -5, 5, 0] N over the
    # whole window; rectified trapezoidal area is 0.035 N s
    t = np.arange(6) / 1000.0
    force = np.array([0.0, 10.0, 20.0, -5.0, 5.0, 0.0])
    clipped = np.clip(force, 0.0, None)
    brute = 0.0
    for i in range(1, 6):  # independent sample-by-sample oracle
        brute += 0.5 * (clipped[i] + clipped[i - 1]) * (t[i] - t[i - 1])
    assert brute == pytest.approx(0.035, abs=1e-15)

    w = ImpactWindow(t_start=t[0], t_end=t[-1], time=t, force=force, v_in=4.0)
    j = rectified_impulse(w)
    assert j == pytest.approx(brute, abs=1e-15)
    assert j == pytest.approx(0.035, abs=1e-15)

    # zeroing the negative sample changes nothing: it contributed exactly 0
    force2 = force.copy()
    force2[force2 < 0] = 0.0
    w2 = ImpactWindow(t_start=t[0], t_end=t[-1], time=t, force=force2, v_in=4.0)
    assert rectified_impulse(w2) == j


def test_rectified_impulse_all_negative_window_is_zero():
    t = np.arange(5) / 1000.0
    force = np.array([-1.0, -5.0, -3.0, -2.0, -0.5])
    w = ImpactWindow(t_start=t[0], t_end=t[-1], time=t, force=force, v_in=4.0)
    assert rectified_impulse(w) == 0.0


def test_contact_duration_half_sine_rule_value():
    t, force, vel = half_sine_record()
    w = detect_impact(t, force, vel)
    dt_j = contact_duration(w)
    assert dt_j == pytest.approx(HS_DT_J, abs=2.5 / FS)


def test_contact_duration_insensitive_to_record_length():
    t1, f1, v1 = half_sine_record(duration=0.09)
    t2, f2, v2 = half_sine_record(duration=0.30)
    d1 = contact_duration(detect_impact(t1, f1, v1))
    d2 = contact_duration(detect_impact(t2, f2, v2))
    assert d1 == d2


def test_peak_force():
    t, force, vel = half_sine_record()
    w = detect_impact(t, force, vel)
    assert peak_force(w) == pytest.approx(HS_A, rel=1e-3)


# --- rebound and energies ----------------------------------------------------


def test_rebound_velocity_two_estimates():
    t, force, vel = half_sine_record()
    w = detect_impact(t, force, vel)
    post = np.full(200, 1.6)
    v_kin, v_imp, flags = rebound_velocity(w, mass=0.25, post_velocity=post)
    assert v_kin == pytest.approx(1.6)
    # impulse route: J/m - v_in = 1.271/0.25 - 4 = 1.084
    assert v_imp == pytest.approx(rectified_impulse(w) / 0.25 - 4.0, abs=1e-12)
    assert "negative-impulse-residual" not in flags


def test_rebound_velocity_flags_short_window_and_negative_residual():
    t, force, vel = half_sine_record()
    w = detect_impact(t, force, vel)
    v_kin, v_imp, flags = rebound_velocity(w, mass=1.0, post_velocity=np.full(3, 0.1))
    assert "short-rebound-window" in flags
    assert "negative-impulse-residual" in flags  # J/m = 1.27 < v_in = 4
    assert v_imp == 0.0
    assert v_kin == pytest.approx(0.1)


def test_kinetic_energies():
    ec_i, ec_r = kinetic_energies(0.25, 4.0, 1.6)
    assert ec_i == pytest.approx(0.5 * 0.25 * 16.0)
    assert ec_r == pytest.approx(0.16)
    with pytest.raises(IngestError, match=r"^rebound 4\.01 m/s exceeds approach 4 m/s$"):
        kinetic_energies(0.25, 4.0, 4.01)
    with pytest.raises(ValueError):
        kinetic_energies(0.0, 4.0, 1.0)
    # v_in**2 overflowed with an OverflowError, which stopped the whole
    # analyze; an overflowing product became inf in metrics.csv
    for mass, v_in in ((0.25, 1e308), (1e308, 4.0), (0.25, math.nan)):
        with pytest.raises(IngestError, match=r"^incident kinetic energy of .* is not finite$"):
            kinetic_energies(mass, v_in, 1.0)


# --- full-trial summary ------------------------------------------------------


def test_summarize_trial_clean_elastic():
    raw, truth = synth_trial(kind="elastic", v_in=4.0, e=0.4, mass=0.27,
                             tau_s=0.020, seed=0)
    m = summarize_trial(align_streams(raw))
    assert m.v_in_mps == pytest.approx(4.0, rel=2e-3)
    assert m.f_max_n == pytest.approx(truth["f_max_n"], rel=5e-3)
    assert m.dt_j_s == pytest.approx(truth["dt_j_s"], abs=3.0 / FS)
    assert m.j_ns == pytest.approx(truth["j_ns"], rel=5e-3)
    assert m.ec_r == pytest.approx(0.16, rel=1e-2)
    assert m.e_hat == pytest.approx(0.4, rel=5e-3)
    assert m.ec_i_j == pytest.approx(truth["ec_i_j"], rel=5e-3)


def test_summarize_trial_two_stage_spans_both_lobes():
    raw, truth = synth_trial(kind="two_stage", v_in=4.5, e=0.3, mass=0.41,
                             tau_s=0.020, v_mid=1.0, gap_s=0.005, tau2_s=0.010,
                             seed=0)
    m = summarize_trial(align_streams(raw))
    # the impulse window must include both lobes and the gap between them
    assert m.dt_j_s > 0.025
    assert m.j_ns == pytest.approx(truth["j_ns"], rel=5e-3)
    assert m.f_max_n == pytest.approx(truth["f_max_n"], rel=5e-3)


def _relog_range(raw, step):
    """``raw`` with its range stream re-logged at 1/step of the rate: every
    step-th row, in phase with the trigger row."""
    i_trig = int(np.flatnonzero(raw.range_trigger >= 0.5)[0])
    rows = np.arange(i_trig % step, raw.range_time.size, step)
    raw.range_time = raw.range_time[rows]
    raw.range_m = raw.range_m[rows]
    raw.range_trigger = raw.range_trigger[rows]
    raw.fs_range = raw.fs_range / step
    return raw


def test_one_bad_range_reading_at_250_hz_leaves_v_in_alone():
    # Held onto the 6250 Hz grid, one 250 Hz reading fills 25 samples, more
    # than half of a 31-sample window, so a despike on that grid keeps it.
    # Despiked as logged, it is one reading of five.
    approach_s = 0.57
    raw, _ = synth_trial(kind="elastic", v_in=4.0, e=0.4, approach_s=approach_s,
                         noise_range_m=0.002, seed=3)
    raw = _relog_range(raw, 4)
    assert raw.fs_range == 250.0
    clean = summarize_trial(align_streams(raw))

    t_aligned = raw.range_time - raw.trigger_time_range
    j = int(np.argmax(t_aligned >= approach_s - 0.010))  # 10 ms before contact
    assert t_aligned[j] < approach_s
    raw.range_m[j] += 0.5
    spiked = summarize_trial(align_streams(raw))
    assert spiked.v_in_mps == pytest.approx(clean.v_in_mps, rel=1e-3)
    assert spiked.f_max_n == clean.f_max_n


# --- aggregation -------------------------------------------------------------


def _metrics(config="C", v=4.0, f=100.0, dt=0.03, j=1.2, eci=2.0, ecr=0.15):
    from impact_governor.impact import ImpactMetrics

    return ImpactMetrics(
        configuration=config, mass_kg=0.25, angle_deg=0.0, v_in_mps=v,
        f_max_n=f, dt_j_s=dt, j_ns=j, ec_i_j=eci, ec_r=ecr,
        v_f_mps=math.sqrt(ecr) * v, e_hat=math.sqrt(ecr),
        v_f_impulse_mps=0.0,
    )


def test_aggregate_statistics():
    ms = [_metrics(f=100.0), _metrics(f=110.0), _metrics(f=90.0)]
    s = aggregate_configuration(ms)
    assert s.n == 3
    assert s.stats["f_max_n"].mean == pytest.approx(100.0)
    assert s.stats["f_max_n"].std == pytest.approx(10.0)  # ddof=1
    assert s.stats["f_max_n"].cv == pytest.approx(0.1)


def test_aggregate_validation():
    with pytest.raises(IngestError, match=r"^need at least 2 trials to aggregate, got 1$"):
        aggregate_configuration([_metrics()])
    with pytest.raises(InvariantViolation):
        aggregate_configuration([_metrics("A"), _metrics("B")])


def test_summary_round_trip():
    s = aggregate_configuration([_metrics(f=100.0), _metrics(f=110.0)])
    back = ConfigurationSummary.from_dict(s.to_dict())
    assert back.configuration == s.configuration
    assert back.n == s.n
    for name, stat in s.stats.items():
        assert back.stats[name].mean == stat.mean
        assert back.stats[name].std == stat.std
