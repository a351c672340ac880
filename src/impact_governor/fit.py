"""Airframe profiles fitted from aggregated bench results by least squares.

The profile model itself lives in ``profile``, and its API is imported from
there; only ``load_profile`` is still re-exported here, for ``bench/child.py``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import IngestError, InvariantViolation
from .profile import AirframeProfile, PolyModel
from .profile import load_profile  # noqa: F401  (re-exported)

if TYPE_CHECKING:
    from .impact import ConfigurationSummary


def fit_polynomial(x: np.ndarray, y: np.ndarray, degree: int) -> PolyModel:
    """Ordinary least squares fit of y on powers of x.

    Returns the model with R^2 and mean absolute error computed on the
    training points and domain set to [min(x), max(x)]. Fewer points than
    coefficients, or a degree of 1 or more over one repeated x, is an
    IngestError.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError(f"x and y must be 1-D and equal length, got {x.shape}, {y.shape}")
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    if x.size < degree + 1:
        raise IngestError(f"{x.size} points cannot determine degree {degree}")
    if degree >= 1 and float(np.ptp(x)) == 0.0:
        raise IngestError("all x values identical; polynomial in x is degenerate")

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

    with np.errstate(over="ignore"):  # a speed past about 1.8e299 m/s rounds to inf
        distinct = len(set(np.round(x, 9).tolist()))  # np.unique would load numpy.ma
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

