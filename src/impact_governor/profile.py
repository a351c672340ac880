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
    STR,
    IngestError,
    InvariantViolation,
    RestitutionOutOfRange,
    SchemaVersionMismatch,
    read_field,
    read_json_file,
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

    def to_dict(self) -> dict:
        return {
            "degree": self.degree,
            "coeffs": list(self.coefficients),
            "domain": [self.domain[0], self.domain[1]],
            "r_squared": self.r_squared,
            "mae": self.mae,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PolyModel":
        """The model of a profile's ``restitution`` document; a missing or
        malformed field raises InvariantViolation naming it."""
        where = "profile restitution"
        _require_object(d, where)

        def diagnostic(key: str) -> float:  # optional: NaN when absent
            return _value(d, key, NUMBER, where) if key in d else math.nan

        coefficients = _number_list(d, "coeffs", where)
        degree = _value(d, "degree", INT, where)
        if degree != len(coefficients) - 1:
            raise InvariantViolation(
                f"{where} degree must be len(coeffs) - 1 = {len(coefficients) - 1}, got {degree}"
            )
        domain = _number_list(d, "domain", where)
        if len(domain) != 2:
            raise InvariantViolation(
                f"{where} domain must be a list of two numbers, got {d['domain']!r}"
            )
        return cls(
            coefficients=coefficients,
            degree=degree,
            r_squared=diagnostic("r_squared"),
            mae=diagnostic("mae"),
            domain=tuple(domain),
        )


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
        rest = self.restitution.to_dict()
        rest["downgraded"] = self.downgraded
        return {
            "schema": PROFILE_SCHEMA,
            "name": self.name,
            "mass_kg": self.mass_kg,
            "dt_s": self.dt_s,
            "dt_std_s": self.dt_std_s,
            "restitution": rest,
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


def _require_object(d, where: str) -> None:
    if not isinstance(d, dict):
        raise InvariantViolation(f"{where} must be a JSON object, got {type(d).__name__}")


def _get(d: dict, key: str, where: str):
    if key not in d:
        raise InvariantViolation(f"{where} lacks key {key!r}")
    return d[key]


def _value(d: dict, key: str, kind: str, where: str):
    """``d[key]`` read as ``kind``; a missing key, or a value of another kind,
    is an InvariantViolation that names the field."""
    return read_field(_get(d, key, where), kind, f"{where} {key}", InvariantViolation)


def _number_list(d: dict, key: str, where: str) -> list[float]:
    """``d[key]``, a non-empty list, with each item read as a finite number."""
    values = _get(d, key, where)
    if type(values) is not list or not values:
        raise InvariantViolation(
            f"{where} {key} must be a non-empty list of numbers, got {values!r}"
        )
    return [read_field(v, FINITE, f"{where} {key}", InvariantViolation) for v in values]


def parse_profile(source: str | dict) -> AirframeProfile:
    """Parse and validate a profile JSON document (text or parsed dict).

    A missing or malformed field raises InvariantViolation naming it.
    """
    d = json.loads(source) if isinstance(source, str) else source
    _require_object(d, "profile")
    schema = read_field(d.get("schema"), INT, "profile schema", SchemaVersionMismatch)
    if schema != PROFILE_SCHEMA:
        raise SchemaVersionMismatch(
            f"profile schema {schema!r} not supported (expected the integer {PROFILE_SCHEMA})"
        )
    rest = _get(d, "restitution", "profile")
    restitution = PolyModel.from_dict(rest)  # checks first that rest is an object
    return AirframeProfile(
        name=_value(d, "name", STR, "profile"),
        mass_kg=_value(d, "mass_kg", FINITE, "profile"),
        dt_s=_value(d, "dt_s", FINITE, "profile"),
        dt_std_s=_value(d, "dt_std_s", FINITE, "profile"),
        restitution=restitution,
        angle_deg=_value(d, "angle_deg", FINITE, "profile"),
        f_max_ref_N=_value(d, "f_max_ref_N", FINITE, "profile"),
        downgraded=(
            _value(rest, "downgraded", BOOL, "profile restitution")
            if "downgraded" in rest
            else False
        ),
    )


def load_profile(path: str | Path) -> AirframeProfile:
    """The profile in the JSON file ``path``; a file that does not decode is
    an IngestError naming it (bad input, not a broken invariant)."""
    return parse_profile(read_json_file(path, IngestError))


def save_profile(profile: AirframeProfile, path: str | Path) -> None:
    write_output(path, serialize_profile(profile))
