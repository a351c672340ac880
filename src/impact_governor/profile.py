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
        return cls(
            coefficients=[float(c) for c in d["coeffs"]],
            degree=int(d["degree"]),
            r_squared=float(d.get("r_squared", math.nan)),
            mae=float(d.get("mae", math.nan)),
            domain=(float(d["domain"][0]), float(d["domain"][1])),
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
        if self.restitution.domain[0] > self.restitution.domain[1]:
            raise InvariantViolation(f"restitution domain reversed: {self.restitution.domain}")
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
        """Predicted average contact force at approach speed v: m v (1 + e(v)) / dt.

        The one definition of the force map; e(v) is e_hat_at(v), inlined
        for the governor's 1000-point grid.
        """
        rest = self.restitution
        ec_r = polyval(min(max(v, rest.domain[0]), rest.domain[1]), rest.coefficients)
        return self.mass_kg * v * (1.0 + math.sqrt(max(ec_r, 0.0))) / self.dt_s

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


def parse_profile(source: str | dict) -> AirframeProfile:
    """Parse and validate a profile JSON document (text or parsed dict)."""
    d = json.loads(source) if isinstance(source, str) else source
    schema = d.get("schema")
    if schema != PROFILE_SCHEMA:
        raise SchemaVersionMismatch(
            f"profile schema {schema!r} not supported (expected {PROFILE_SCHEMA})"
        )
    for key in ("name", "mass_kg", "dt_s", "dt_std_s", "restitution", "angle_deg", "f_max_ref_N"):
        if key not in d:
            raise InvariantViolation(f"profile lacks key {key!r}")

    return AirframeProfile(
        name=str(d["name"]),
        mass_kg=float(d["mass_kg"]),
        dt_s=float(d["dt_s"]),
        dt_std_s=float(d["dt_std_s"]),
        restitution=PolyModel.from_dict(d["restitution"]),
        angle_deg=float(d["angle_deg"]),
        f_max_ref_N=float(d["f_max_ref_N"]),
        downgraded=bool(d["restitution"].get("downgraded", False)),
    )


def load_profile(path: str | Path) -> AirframeProfile:
    return parse_profile(Path(path).read_text(encoding="utf-8"))


def save_profile(profile: AirframeProfile, path: str | Path) -> None:
    Path(path).write_text(serialize_profile(profile))
