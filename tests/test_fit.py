import json
import math
from pathlib import Path

import numpy as np
import pytest

from impact_governor.errors import (
    DegenerateX,
    InvariantViolation,
    RestitutionOutOfRange,
    SchemaVersionMismatch,
    Underdetermined,
)
from impact_governor.fit import (
    BODY_REGION_LIMITS_N,
    AirframeProfile,
    PolyModel,
    build_airframe_profile,
    estimate_force_simple,
    fit_polynomial,
    load_profile,
    parse_profile,
    save_profile,
    serialize_profile,
)
from impact_governor.impact import ImpactMetrics, aggregate_configuration

from conftest import make_profile

REPO_ROOT = Path(__file__).resolve().parents[1]


# --- polynomial fitting ------------------------------------------------------


def test_fit_polynomial_exact_recovery():
    coeffs = (0.10, 0.02, -0.003)
    x = np.linspace(3.0, 4.5, 12)
    y = coeffs[0] + coeffs[1] * x + coeffs[2] * x**2
    model = fit_polynomial(x, y, degree=2)
    np.testing.assert_allclose(model.coefficients, coeffs, atol=1e-9)
    assert model.r_squared == 1.0
    assert model.mae <= 1e-12
    assert model.domain == (3.0, 4.5)


def test_fit_polynomial_goodness_of_fit_on_noise(rng):
    x = np.linspace(0, 10, 200)
    y = 1.0 + 0.5 * x + rng.normal(0, 0.1, x.size)
    model = fit_polynomial(x, y, degree=1)
    assert 0.97 < model.r_squared < 1.0
    assert 0.05 < model.mae < 0.15


def test_fit_polynomial_errors():
    with pytest.raises(Underdetermined):
        fit_polynomial(np.array([1.0, 2.0]), np.array([1.0, 2.0]), degree=2)
    with pytest.raises(DegenerateX):
        fit_polynomial(np.full(5, 3.0), np.arange(5.0), degree=1)
    with pytest.raises(ValueError):
        fit_polynomial(np.arange(5.0), np.arange(4.0), degree=1)


def test_polymodel_clamps_outside_domain():
    model = PolyModel(
        coefficients=[0.0, 1.0], degree=1, r_squared=1.0, mae=0.0, domain=(2.0, 4.0)
    )
    assert model.evaluate(3.0) == pytest.approx(3.0)
    assert model.evaluate(7.0) == pytest.approx(4.0)  # clamped to domain edge
    assert model.evaluate(1.0) == pytest.approx(2.0)
    assert model.extrapolated(7.0) and not model.extrapolated(3.0)


# --- airframe profile --------------------------------------------------------


def test_profile_e_hat_and_force_prediction(const_profile):
    # EC_r = 0.145924 -> e_hat = 0.382
    assert const_profile.e_hat_at(3.5) == pytest.approx(0.382, abs=1e-12)
    assert const_profile.retained_energy_at(3.5) == pytest.approx(0.145924)
    # F_avg = m v (1+e)/dt at v=3: 0.25*3*1.382/0.036
    from impact_governor.governor import avg_impact_force

    assert avg_impact_force(3.0, const_profile) == pytest.approx(
        0.25 * 3.0 * 1.382 / 0.036
    )


def test_profile_peak_to_average_ratio(const_profile):
    v_ref = 3.5
    f_avg = 0.25 * v_ref * 1.382 / 0.036
    assert const_profile.peak_to_average_ratio() == pytest.approx(105.6 / f_avg)


def test_profile_validation():
    with pytest.raises(InvariantViolation):
        make_profile(mass_kg=0.0)
    with pytest.raises(InvariantViolation):
        make_profile(dt_s=-0.01)
    with pytest.raises(RestitutionOutOfRange):
        make_profile(ec_r=1.2)  # retained-energy model leaves [0, 1]


@pytest.mark.parametrize(
    "key, value, error",
    [
        ("mass_kg", math.nan, InvariantViolation),
        ("mass_kg", math.inf, InvariantViolation),
        ("dt_s", math.nan, InvariantViolation),
        ("dt_s", math.inf, InvariantViolation),
        ("f_max_ref_N", 0.0, InvariantViolation),
        ("f_max_ref_N", -100.0, InvariantViolation),
        ("f_max_ref_N", math.nan, InvariantViolation),
        ("f_max_ref_N", math.inf, InvariantViolation),
        ("coeffs", [math.nan], RestitutionOutOfRange),
        ("domain", [math.nan, 4.0], RestitutionOutOfRange),
    ],
)
def test_profile_refuses_non_finite_values(key, value, error):
    # each of these once loaded: the mass and dt cases gave a force cap at the
    # platform maximum, an f_max_ref_N ended a peak-target run in a traceback
    d = json.loads((REPO_ROOT / "profiles" / "carbon_0deg.json").read_text())
    if key in ("coeffs", "domain"):
        d["restitution"][key] = value
    else:
        d[key] = value
    with pytest.raises(error):
        parse_profile(json.dumps(d))


def _summary(v, ec_r, config="Carbon-0deg"):
    def metric(jitter):
        return ImpactMetrics(
            configuration=config, mass_kg=0.25, angle_deg=0.0,
            v_in_mps=v + jitter, f_max_n=100.0, dt_j_s=0.036, j_ns=1.1,
            ec_i_j=0.5 * 0.25 * v**2, ec_r=ec_r, v_f_mps=math.sqrt(ec_r) * v,
            e_hat=math.sqrt(ec_r), v_f_impulse_mps=0.0,
        )

    return aggregate_configuration([metric(0.0), metric(0.0)])


def test_build_profile_fits_speed_dependence():
    ec = lambda v: 0.10 + 0.02 * v - 0.003 * v**2
    summaries = [_summary(v, ec(v)) for v in (3.0, 3.5, 4.0, 4.5)]
    profile = build_airframe_profile(summaries, restitution_degree=2)
    assert not profile.downgraded
    np.testing.assert_allclose(
        profile.restitution.coefficients, [0.10, 0.02, -0.003], atol=1e-9
    )
    assert profile.restitution.r_squared == pytest.approx(1.0)
    assert profile.mass_kg == pytest.approx(0.25)
    assert profile.dt_s == pytest.approx(0.036)


def test_build_profile_downgrades_with_single_speed():
    summaries = [_summary(3.5, 0.15), _summary(3.5, 0.15)]
    profile = build_airframe_profile(summaries, restitution_degree=2)
    assert profile.downgraded
    assert profile.restitution.degree == 0
    assert profile.restitution.coefficients == [pytest.approx(0.15)]


def test_build_profile_rejects_mixed_configurations():
    with pytest.raises(InvariantViolation):
        build_airframe_profile([_summary(3.0, 0.1, "A"), _summary(4.0, 0.1, "B")])


def test_build_profile_rejects_unphysical_fit():
    # every sample is physical, but the exact parabola through them dips
    # below zero between the last two speeds
    summaries = [_summary(v, ec) for v, ec in ((3.0, 0.10), (3.9, 0.02), (4.0, 0.30))]
    with pytest.raises(RestitutionOutOfRange):
        build_airframe_profile(summaries, restitution_degree=2)


# --- serialization -----------------------------------------------------------


def test_profile_round_trip_exact(const_profile):
    text = serialize_profile(const_profile)
    back = parse_profile(text)
    assert back.to_dict() == const_profile.to_dict()
    # floats survive JSON exactly (repr round-trip)
    assert back.restitution.coefficients == const_profile.restitution.coefficients
    assert back.dt_s == const_profile.dt_s


def test_profile_schema_version_checked(const_profile):
    data = json.loads(serialize_profile(const_profile))
    data["schema"] = 99
    with pytest.raises(SchemaVersionMismatch):
        parse_profile(data)


def test_profile_parse_rejects_missing_keys(const_profile):
    data = json.loads(serialize_profile(const_profile))
    del data["restitution"]
    with pytest.raises(InvariantViolation):
        parse_profile(data)


def test_profile_save_load(tmp_path, const_profile):
    p = tmp_path / "p.json"
    save_profile(const_profile, p)
    assert load_profile(p).to_dict() == const_profile.to_dict()


def test_shipped_profiles_parse_and_stay_physical():
    shipped = sorted((REPO_ROOT / "profiles").glob("*.json"))
    assert len(shipped) >= 2
    for path in shipped:
        profile = load_profile(path)
        lo, hi = profile.restitution.domain
        grid = np.linspace(lo, hi, 1000)
        e = np.array([profile.e_hat_at(v) for v in grid])
        assert np.all((e >= 0.0) & (e <= 1.0))


# --- misc --------------------------------------------------------------------


def test_estimate_force_simple():
    assert estimate_force_simple(0.25, 3.0, 0.036) == pytest.approx(0.25 * 3 / 0.036)
    with pytest.raises(ValueError):
        estimate_force_simple(0.25, -1.0, 0.036)


def test_body_region_limits():
    assert BODY_REGION_LIMITS_N == {
        "face": 65.0, "neck": 150.0, "chest": 140.0, "back": 210.0
    }
