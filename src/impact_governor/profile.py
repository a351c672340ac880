"""Airframe profiles and the impact-force map they define.

An airframe profile packages what the governor needs at runtime: the
airframe mass, its characteristic contact duration, and a polynomial model
of retained-energy ratio versus approach speed (restitution is its square
root). Profiles serialize to a small versioned JSON file. The module needs
only the standard library, yet computes bit for bit what numpy computes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .errors import (
    BOOL,
    FINITE,
    INT,
    NUMBER,
    NUMBERS,
    PAIR,
    REQUIRED,
    STR,
    IngestError,
    InvariantViolation,
    RestitutionOutOfRange,
    read_field,
    read_json_file,
    read_object,
    write_output,
)

PROFILE_SCHEMA = 1

#: quasi-static contact force limits (N) by body region
BODY_REGION_LIMITS_N = {
    "face": 65.0,
    "neck": 150.0,
    "chest": 140.0,
    "back": 210.0,  # back and shoulders
}

_RANGE_TOL = 1e-9


def polyval(x: float, coefficients: list[float]) -> float:
    """Ascending-power polynomial at x, by Horner's rule in numpy's polyval order."""
    acc = coefficients[-1] + x * 0.0
    for c in coefficients[-2::-1]:
        acc = c + acc * x
    return acc


def linspace(start: float, stop: float, num: int = 1000) -> list[float]:
    """``num`` points from start to stop, spaced as ``numpy.linspace`` spaces them."""
    step = (stop - start) / (num - 1)
    return [i * step + start for i in range(num - 1)] + [stop]


@dataclass
class PolyModel:
    """Least-squares polynomial with its fit diagnostics and valid domain."""

    coefficients: list[float]  # ascending powers
    degree: int
    r_squared: float
    mae: float
    domain: tuple[float, float]

    def clamp(self, v: float) -> float:
        return min(max(v, self.domain[0]), self.domain[1])

    def extrapolated(self, v: float) -> bool:
        return v < self.domain[0] or v > self.domain[1]

    def evaluate(self, v: float) -> float:
        """Evaluate at v, clamped into the fitted domain.

        Clamping (instead of erroring) keeps runtime callers total: outside
        the measured speed range the nearest measured behaviour is the best
        available estimate. Use extrapolated() to know when that happened.
        """
        return polyval(self.clamp(v), self.coefficients)


@dataclass
class AirframeProfile:
    """Everything the velocity governor needs to know about one airframe."""

    name: str
    mass_kg: float
    dt_s: float
    dt_std_s: float
    restitution: PolyModel  # retained-energy ratio EC_r as a function of v
    angle_deg: float
    f_max_ref_N: float
    downgraded: bool = False

    def __post_init__(self) -> None:
        for name, value in (
            ("mass", self.mass_kg), ("dt", self.dt_s), ("f_max_ref_N", self.f_max_ref_N)
        ):
            if not 0 < value < math.inf:  # NaN would leave the force cap at vmax
                raise InvariantViolation(f"profile {name} must be finite and > 0, got {value}")
        domain = self.restitution.domain
        if domain[0] < 0 or domain[1] <= 0:  # a bench measures approach speeds > 0
            raise InvariantViolation(
                f"measured speed domain must be a positive interval, got {domain}"
            )
        if domain[0] > domain[1]:
            raise InvariantViolation(f"restitution domain reversed: {domain}")
        offending = _check_restitution_range(self.restitution)
        if offending is not None:
            raise RestitutionOutOfRange(
                f"profile EC_r leaves [0, 1] on its domain (e.g. {offending:.4g})"
            )
        # no force on the domain exceeds this bound, since e <= 1 there (within
        # _RANGE_TOL), and avg_force multiplies in the same order
        if self.mass_kg * domain[1] * (1.0 + math.sqrt(1.0 + _RANGE_TOL)) / self.dt_s == math.inf:
            raise InvariantViolation(
                f"profile force map is not finite on its measured speed domain {domain}"
            )

    def retained_energy_at(self, v: float) -> float:
        return self.restitution.evaluate(v)

    def e_hat_at(self, v: float) -> float:
        """Effective restitution at speed v (domain-clamped, floored at 0)."""
        return math.sqrt(max(self.retained_energy_at(v), 0.0))

    def avg_force(self, v: float) -> float:
        """Predicted average contact force at approach speed v: m v (1 + e(v)) / dt,
        the one definition of the force map."""
        return self.mass_kg * v * (1.0 + self.e_hat_at(v)) / self.dt_s

    def peak_to_average_ratio(self) -> float:
        """Reference peak force over the predicted average force at the domain
        midpoint (the bench speed the peak came from). Converts a peak-force
        target: F_avg_target = F_peak_target / ratio.
        """
        v_ref = 0.5 * (self.restitution.domain[0] + self.restitution.domain[1])
        f_avg = self.avg_force(v_ref)
        if not 0 < f_avg < math.inf:  # an overflowed force would make the ratio 0
            raise InvariantViolation(
                f"average force at the reference speed must be finite and > 0, got {f_avg}"
            )
        return self.f_max_ref_N / f_avg

    def to_dict(self) -> dict:
        """The profile document that ``parse_profile`` reads."""
        model = self.restitution
        return {
            "schema": PROFILE_SCHEMA,
            "name": self.name,
            "mass_kg": self.mass_kg,
            "dt_s": self.dt_s,
            "dt_std_s": self.dt_std_s,
            "restitution": {
                "degree": model.degree, "coeffs": list(model.coefficients),
                "domain": list(model.domain), "r_squared": model.r_squared, "mae": model.mae,
                "downgraded": self.downgraded,
            },
            "angle_deg": self.angle_deg,
            "f_max_ref_N": self.f_max_ref_N,
        }


def _check_restitution_range(model: PolyModel) -> float | None:
    """Return an offending EC_r value (NaN offends) if the model leaves [0, 1] on its domain."""
    values = (polyval(x, model.coefficients) for x in linspace(*model.domain))
    return next((ec_r for ec_r in values if not -_RANGE_TOL <= ec_r <= 1.0 + _RANGE_TOL), None)


def serialize_profile(profile: AirframeProfile) -> str:
    """Stable JSON form (schema-versioned); parse_profile inverts exactly."""
    return json.dumps(profile.to_dict(), indent=2) + "\n"


#: the profile document: a ``restitution`` object, read first, and the
#: airframe's fields; other keys are ignored
_RESTITUTION = {
    "coeffs": (NUMBERS, REQUIRED), "degree": (INT, REQUIRED), "domain": (PAIR, REQUIRED),
    "r_squared": (NUMBER, math.nan), "mae": (NUMBER, math.nan),  # fit diagnostics
    "downgraded": (BOOL, False),
}
_PROFILE = {"restitution": (_RESTITUTION, REQUIRED), "name": (STR, REQUIRED)} | dict.fromkeys(
    ("mass_kg", "dt_s", "dt_std_s", "angle_deg", "f_max_ref_N"), (FINITE, REQUIRED)
)


def parse_profile(source: str | dict) -> AirframeProfile:
    """``profile_from_dict`` of JSON text, or of a decoded document."""
    return profile_from_dict(json.loads(source) if isinstance(source, str) else source)


def profile_from_dict(d) -> AirframeProfile:
    """Validate a decoded profile document: a schema other than the integer
    ``PROFILE_SCHEMA`` is bad input, an IngestError, checked first; anything
    else that is not a profile breaks its invariants, an InvariantViolation
    naming the key."""
    if type(d) is dict:  # read_object refuses anything else
        schema = read_field(d.get("schema"), INT, "profile schema", IngestError)
        if schema != PROFILE_SCHEMA:
            raise IngestError(
                f"profile schema {schema!r} not supported (expected the integer {PROFILE_SCHEMA})"
            )
    values = read_object(d, _PROFILE, "profile", InvariantViolation)
    rest = values.pop("restitution")
    downgraded = rest.pop("downgraded")
    model = PolyModel(rest.pop("coeffs"), **rest)  # the other keys name its fields
    if model.degree != len(model.coefficients) - 1:
        degree = f"len(coeffs) - 1 = {len(model.coefficients) - 1}, got {model.degree}"
        raise InvariantViolation(f"profile: restitution.degree must be {degree}")
    return AirframeProfile(restitution=model, downgraded=downgraded, **values)


def load_profile(path: str | Path) -> AirframeProfile:
    """The profile in the JSON file ``path``; a file that does not decode is
    an IngestError naming it (bad input, not a broken invariant)."""
    return profile_from_dict(read_json_file(path, IngestError))


def save_profile(profile: AirframeProfile, path: str | Path) -> None:
    write_output(path, serialize_profile(profile))
