"""Velocity-dependent models fitted from aggregated bench results.

An airframe profile packages what the governor needs at runtime: the
airframe mass, its characteristic contact duration, and a polynomial model
of retained-energy ratio versus approach speed (restitution is its square
root). Profiles serialize to a small versioned JSON file.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import (
    DegenerateX,
    InvariantViolation,
    RestitutionOutOfRange,
    SchemaVersionMismatch,
    Underdetermined,
)

if TYPE_CHECKING:
    from .impact import ConfigurationSummary

PROFILE_SCHEMA = 1

#: quasi-static contact force limits (N) by body region
BODY_REGION_LIMITS_N = {
    "face": 65.0,
    "neck": 150.0,
    "chest": 140.0,
    "back": 210.0,  # back and shoulders
}

_GRID_POINTS = 1000
_RANGE_TOL = 1e-9


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
        return float(npoly.polyval(self.clamp(v), self.coefficients))

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


def fit_polynomial(x: np.ndarray, y: np.ndarray, degree: int) -> PolyModel:
    """Ordinary least squares fit of y on powers of x.

    Returns the model with R^2 and mean absolute error computed on the
    training points and domain set to [min(x), max(x)].
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError(f"x and y must be 1-D and equal length, got {x.shape}, {y.shape}")
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    if x.size < degree + 1:
        raise Underdetermined(f"{x.size} points cannot determine degree {degree}")
    if degree >= 1 and float(np.ptp(x)) == 0.0:
        raise DegenerateX("all x values identical; polynomial in x is degenerate")

    coeffs = npoly.polyfit(x, y, degree)
    yhat = npoly.polyval(x, coeffs)
    resid = y - yhat
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res < 1e-24 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    mae = float(np.mean(np.abs(resid)))
    return PolyModel(
        coefficients=[float(c) for c in coeffs],
        degree=degree,
        r_squared=r2,
        mae=mae,
        domain=(float(np.min(x)), float(np.max(x))),
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
        if self.mass_kg <= 0:
            raise InvariantViolation(f"profile mass must be positive, got {self.mass_kg}")
        if self.dt_s <= 0:
            raise InvariantViolation(f"profile dt must be positive, got {self.dt_s}")
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

    def peak_to_average_ratio(self, v_ref: float | None = None) -> float:
        """Ratio of reference peak force to predicted average force.

        Defaults the reference speed to the domain midpoint (the bench speed
        the peak reference came from). Lets operators state peak-force
        targets: F_avg_target = F_peak_target / ratio.
        """
        if v_ref is None:
            v_ref = 0.5 * (self.restitution.domain[0] + self.restitution.domain[1])
        f_avg = self.mass_kg * v_ref * (1.0 + self.e_hat_at(v_ref)) / self.dt_s
        if f_avg <= 0:
            raise InvariantViolation("average force non-positive at reference speed")
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
    """Return an offending EC_r value if the model leaves [0, 1] on its domain."""
    grid = np.linspace(model.domain[0], model.domain[1], _GRID_POINTS)
    vals = npoly.polyval(grid, model.coefficients)
    if float(np.min(vals)) < -_RANGE_TOL or float(np.max(vals)) > 1.0 + _RANGE_TOL:
        bad = vals[(vals < -_RANGE_TOL) | (vals > 1.0 + _RANGE_TOL)]
        return float(bad[0])
    return None


def build_airframe_profile(
    summaries: list[ConfigurationSummary],
    restitution_degree: int = 2,
) -> AirframeProfile:
    """Build a profile from one or more aggregates of the same configuration.

    The restitution model is fitted over the (mean v_in, mean EC_r) points of
    the summaries. With fewer distinct speeds than the requested degree needs,
    the fit downgrades to a constant (degree 0) and the profile is flagged.
    Contact duration is treated as speed-independent: the mean of the
    summaries' mean durations.
    """
    if not summaries:
        raise ValueError("no summaries given")
    names = {s.configuration for s in summaries}
    if len(names) != 1:
        raise InvariantViolation(f"profiles are per-configuration; got {sorted(names)}")

    x = np.array([s.stats["v_in_mps"].mean for s in summaries], dtype=float)
    y = np.array([s.stats["ec_r"].mean for s in summaries], dtype=float)
    domain = (float(np.min(x)), float(np.max(x)))

    distinct = np.unique(np.round(x, 9)).size
    downgraded = distinct < restitution_degree + 1
    if downgraded and restitution_degree > 0:
        const = float(np.mean(y))
        resid = y - const
        ss_tot = float(np.sum((y - np.mean(y)) ** 2))
        model = PolyModel(
            coefficients=[const],
            degree=0,
            r_squared=1.0 if ss_tot == 0.0 else 0.0,
            mae=float(np.mean(np.abs(resid))),
            domain=domain,
        )
    else:
        model = fit_polynomial(x, y, restitution_degree)
        downgraded = False

    # AirframeProfile.__post_init__ rejects fits that leave [0, 1] on the domain
    return AirframeProfile(
        name=summaries[0].configuration,
        mass_kg=float(np.mean([s.mass_kg for s in summaries])),
        dt_s=float(np.mean([s.stats["dt_j_s"].mean for s in summaries])),
        dt_std_s=float(np.mean([s.stats["dt_j_s"].std for s in summaries])),
        restitution=model,
        angle_deg=float(np.mean([s.angle_deg for s in summaries])),
        f_max_ref_N=float(np.mean([s.stats["f_max_n"].mean for s in summaries])),
        downgraded=downgraded,
    )


def estimate_force_simple(mass_kg: float, v: float, dt_s: float) -> float:
    """First-cut impact force from momentum over contact time: m v / dt.

    Ignores rebound (underestimates whenever restitution is nonzero); useful
    as a sanity floor next to the restitution-aware prediction.
    """
    if mass_kg <= 0 or dt_s <= 0:
        raise ValueError("mass and dt must be positive")
    if v < 0:
        raise ValueError(f"speed must be >= 0, got {v}")
    return mass_kg * v / dt_s


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
    return parse_profile(Path(path).read_text())


def save_profile(profile: AirframeProfile, path: str | Path) -> None:
    Path(path).write_text(serialize_profile(profile))
