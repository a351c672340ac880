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

from .errors import InvariantViolation, RestitutionOutOfRange, SchemaVersionMismatch

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
            return _field(d, key, _number, "a number", where) if key in d else math.nan

        coefficients = _field(d, "coeffs", _numbers, "a non-empty list of numbers", where)
        degree = _field(d, "degree", _integer, "an integer", where)
        if degree != len(coefficients) - 1:
            raise InvariantViolation(
                f"{where} degree must be len(coeffs) - 1 = {len(coefficients) - 1}, got {degree}"
            )
        return cls(
            coefficients=coefficients,
            degree=degree,
            r_squared=diagnostic("r_squared"),
            mae=diagnostic("mae"),
            domain=_field(d, "domain", _interval, "a list of two numbers", where),
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


def _field(d: dict, key: str, convert, kind: str, where: str):
    """``convert(d[key])``; a missing key, or a value ``convert`` refuses, is
    an InvariantViolation that names the field."""
    if key not in d:
        raise InvariantViolation(f"{where} lacks key {key!r}")
    try:
        return convert(d[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvariantViolation(f"{where} {key} must be {kind}, got {d[key]!r}") from exc


def _number(value) -> float:
    if type(value) not in (int, float):  # a bool is no number
        raise TypeError("not a number")
    return float(value)  # OverflowError past the float range


def _integer(value) -> int:
    if type(value) is not int:  # int() would take a bool, and truncate 2.9
        raise TypeError("not an integer")
    return value


def _string(value) -> str:
    if type(value) is not str:  # str() would name a list "['x']"
        raise TypeError("not a string")
    return value


def _boolean(value) -> bool:
    if type(value) is not bool:  # bool("false") is True
        raise TypeError("not a boolean")
    return value


def _numbers(value) -> list[float]:
    if type(value) is not list or not value:
        raise TypeError("not a non-empty list")
    return [_number(c) for c in value]


def _interval(value) -> tuple[float, float]:
    lo, hi = _numbers(value)  # a list of any other length fails to unpack
    return lo, hi


def parse_profile(source: str | dict) -> AirframeProfile:
    """Parse and validate a profile JSON document (text or parsed dict).

    A missing or malformed field raises InvariantViolation naming it.
    """
    d = json.loads(source) if isinstance(source, str) else source
    _require_object(d, "profile")
    schema = d.get("schema")
    if type(schema) is not int or schema != PROFILE_SCHEMA:  # 1.0 == True == 1
        raise SchemaVersionMismatch(
            f"profile schema {schema!r} not supported (expected the integer {PROFILE_SCHEMA})"
        )
    for key in ("name", "mass_kg", "dt_s", "dt_std_s", "restitution", "angle_deg", "f_max_ref_N"):
        if key not in d:
            raise InvariantViolation(f"profile lacks key {key!r}")

    def number(key: str) -> float:
        return _field(d, key, _number, "a number", "profile")

    rest = d["restitution"]
    restitution = PolyModel.from_dict(rest)  # checks first that rest is an object
    downgraded = (
        _field(rest, "downgraded", _boolean, "a boolean", "profile restitution")
        if "downgraded" in rest
        else False
    )
    return AirframeProfile(
        name=_field(d, "name", _string, "a string", "profile"),
        mass_kg=number("mass_kg"),
        dt_s=number("dt_s"),
        dt_std_s=number("dt_std_s"),
        restitution=restitution,
        angle_deg=number("angle_deg"),
        f_max_ref_N=number("f_max_ref_N"),
        downgraded=downgraded,
    )


def load_profile(path: str | Path) -> AirframeProfile:
    return parse_profile(Path(path).read_text(encoding="utf-8"))


def save_profile(profile: AirframeProfile, path: str | Path) -> None:
    Path(path).write_text(serialize_profile(profile))
