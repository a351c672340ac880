"""Signal conditioning: robust despiking, range→velocity Kalman filtering,
and zero-phase low-pass filtering of the force channel."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import signal

from .errors import (
    CutoffAboveNyquist,
    NonPositiveDefiniteCovariance,
    WindowTooLarge,
)

#: consistency factor mapping MAD to the std of a normal distribution
MAD_SCALE = 1.4826


def median_despike(series: np.ndarray, window: int = 5, k: float = 3.0) -> np.ndarray:
    """Replace isolated outliers with their local window median.

    A sample is an outlier when it deviates from the median of its
    ``window``-sample neighbourhood by more than ``k`` robust standard
    deviations, where the robust sigma is 1.4826 x the window MAD. Edge
    samples use a window clipped to the series bounds. A window whose MAD is
    zero (all neighbours identical) treats any differing centre as an outlier
    and replaces it with the median.
    """
    x = np.asarray(series, dtype=float)
    if window % 2 == 0 or window < 3:
        raise ValueError(f"window must be odd and >= 3, got {window}")
    if x.size < window:
        raise WindowTooLarge(f"series of {x.size} samples < window {window}")

    half = window // 2
    out = x.copy()

    wins = sliding_window_view(x, window)
    med = np.median(wins, axis=1)
    mad = np.median(np.abs(wins - med[:, None]), axis=1)
    centers = x[half : x.size - half]
    bad = np.abs(centers - med) > k * MAD_SCALE * mad
    out[half : x.size - half] = np.where(bad, med, centers)

    # The 2*half edge samples use windows clipped to the series, of half+1 to
    # 2*half samples: gather them as rows of 2*half with a validity mask.
    edge = np.r_[0:half, x.size - half : x.size]
    lo = np.maximum(edge - half, 0)
    hi = np.minimum(edge + half + 1, x.size)
    cols = lo[:, None] + np.arange(2 * half)
    valid = cols < hi[:, None]
    w = x[np.minimum(cols, x.size - 1)]
    m = _masked_median(w, valid)
    sigma = MAD_SCALE * _masked_median(np.abs(w - m[:, None]), valid)
    bad = np.abs(x[edge] - m) > k * sigma
    out[edge[bad]] = m[bad]
    return out


def _masked_median(w: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """np.median of each row's valid entries, bitwise equal to it.

    Invalid entries become +inf, which sorts after every sample but NaN. As
    in np.median, the middle values are summed from 0.0 (a -0.0 median comes
    out +0.0) and any NaN among the valid entries makes the median NaN.
    """
    s = np.sort(np.where(valid, w, np.inf), axis=1)
    size = valid.sum(axis=1)
    rows = np.arange(s.shape[0])
    upper = s[rows, size // 2]
    lower = s[rows, (size - 1) // 2]
    med = np.where(size % 2 == 1, 0.0 + upper, (0.0 + lower + upper) / 2.0)
    return np.where(np.isnan(s[:, -1]), np.nan, med)


@dataclass
class KalmanConfig:
    """Tuning for the constant-velocity range filter.

    The process noise models white acceleration of strength ``sigma_s``
    (m/s^2), integrated over one step into
    Q = sigma_s^2 * [[dt^4/4, dt^3/2], [dt^3/2, dt^2]].
    ``measurement_noise_r`` is the range sensor variance; the default assumes
    ~3 mm (1 sigma) readings. ``initial_state`` is (p0, v0); when omitted, p0
    is the first sample and v0 is zero. The wide initial covariance lets the
    first few updates pin both states regardless of v0.
    """

    dt: float
    sigma_s: float = 0.01
    measurement_noise_r: float = 9e-6
    initial_state: tuple[float, float] | None = None
    initial_covariance: tuple[float, float] = (100.0, 100.0)

    def __post_init__(self) -> None:
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.sigma_s <= 0 or self.measurement_noise_r <= 0:
            raise ValueError("sigma_s and measurement_noise_r must be positive")
        if not all(0 < p < math.inf for p in self.initial_covariance):
            raise NonPositiveDefiniteCovariance(
                f"initial_covariance entries must be finite and > 0, got {self.initial_covariance}"
            )


def kalman_smooth(series: np.ndarray, cfg: KalmanConfig) -> tuple[np.ndarray, np.ndarray]:
    """Forward-filter a range series into position and velocity estimates.

    Returns (position, velocity) arrays, one posterior estimate per input
    sample. Raises NonPositiveDefiniteCovariance if the covariance collapses
    under degenerate tuning. The covariance recursion never reads the data,
    so non-finite input cannot trip that check: it propagates into the
    estimates instead, which is why ingest rejects non-finite samples.
    """
    z = np.asarray(series, dtype=float)
    if z.size < 2:
        raise ValueError(f"need at least 2 samples, got {z.size}")

    dt = cfg.dt
    q_var = cfg.sigma_s**2
    q00 = q_var * dt**4 / 4.0
    q01 = q_var * dt**3 / 2.0
    q11 = q_var * dt**2
    r = cfg.measurement_noise_r

    if cfg.initial_state is None:
        x0, x1 = float(z[0]), 0.0
    else:
        x0, x1 = (float(v) for v in cfg.initial_state)
    p00, p11 = (float(v) for v in cfg.initial_covariance)
    p01 = 0.0

    pos = []
    vel = []
    for i, zi in enumerate(z.tolist()):
        # predict
        x0 = x0 + dt * x1
        p00 = p00 + dt * (2.0 * p01 + dt * p11) + q00
        p01 = p01 + dt * p11 + q01
        p11 = p11 + q11
        # update
        s = p00 + r
        k0 = p00 / s
        k1 = p01 / s
        innov = zi - x0
        x0 += k0 * innov
        x1 += k1 * innov
        p11 = p11 - k1 * p01
        p01 = (1.0 - k0) * p01
        p00 = (1.0 - k0) * p00
        if not (
            math.isfinite(p00)
            and math.isfinite(p11)
            and p00 > 0.0
            and p11 > 0.0
            and p00 * p11 - p01 * p01 > 0.0
        ):
            raise NonPositiveDefiniteCovariance(
                f"covariance lost positive definiteness at step {i}"
            )
        pos.append(x0)
        vel.append(x1)
    return np.array(pos), np.array(vel)


@dataclass(frozen=True)
class FilterSpec:
    """Low-pass filter design: Butterworth, applied forward-backward."""

    order: int = 4
    cutoff_hz: float = 1000.0
    fs: float = 6250.0

    def __post_init__(self) -> None:
        if self.order < 2 or self.order % 2:
            raise ValueError(f"order must be even and >= 2, got {self.order}")
        if self.cutoff_hz <= 0:
            raise ValueError(f"cutoff_hz must be positive, got {self.cutoff_hz}")
        if self.cutoff_hz >= self.fs / 2.0:
            raise CutoffAboveNyquist(
                f"cutoff {self.cutoff_hz:g} Hz >= Nyquist {self.fs / 2:g} Hz"
            )


def butterworth_lowpass(series: np.ndarray, spec: FilterSpec = FilterSpec()) -> np.ndarray:
    """Zero-phase low-pass: one Butterworth pass forward, one backward.

    The double pass squares the magnitude response (gain 0.5 at the design
    cutoff instead of 1/sqrt(2)) and cancels the phase, so pulse peaks stay
    where they happened — which is what impact timing metrics need.
    """
    x = np.asarray(series, dtype=float)
    b, a = signal.butter(spec.order, spec.cutoff_hz, btype="low", fs=spec.fs)
    padlen = 3 * max(len(a), len(b))
    if x.size <= padlen:
        raise ValueError(
            f"series of {x.size} samples too short for order-{spec.order} "
            f"zero-phase filtering (needs > {padlen})"
        )
    return signal.filtfilt(b, a, x)
