"""Signal conditioning: robust despiking, range→velocity Kalman filtering,
and zero-phase low-pass filtering of the force channel."""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import IngestError

#: consistency factor mapping MAD to the std of a normal distribution
MAD_SCALE = 1.4826


def median_despike(series: np.ndarray, window: int = 5, k: float = 3.0) -> np.ndarray:
    """Replace isolated outliers with their local window median.

    A sample is an outlier when it deviates from the median of its
    ``window``-sample neighbourhood by more than ``k`` robust standard
    deviations, where the robust sigma is 1.4826 x the window MAD. Edge
    samples use a window clipped to the series bounds. A window whose MAD is
    zero (all neighbours identical) treats any differing centre as an outlier
    and replaces it with the median. A series shorter than the window is an
    IngestError.
    """
    x = np.asarray(series, dtype=float)
    if window % 2 == 0 or window < 3:
        raise ValueError(f"window must be odd and >= 3, got {window}")
    if x.size < window:
        raise IngestError(f"series of {x.size} samples < window {window}")

    # every sample's window, clipped to the series, as a row of ``window``
    # entries with a validity mask (only the 2*half edge rows are clipped)
    half = window // 2
    i = np.arange(x.size)
    cols = np.maximum(i - half, 0)[:, None] + np.arange(window)
    valid = cols < np.minimum(i + half + 1, x.size)[:, None]
    w = x[np.minimum(cols, x.size - 1)]
    med = _masked_median(w, valid)
    mad = _masked_median(np.abs(w - med[:, None]), valid)
    bad = np.abs(x - med) > k * MAD_SCALE * mad
    return np.where(bad, med, x)


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
    first few updates pin both states regardless of v0. An initial
    covariance entry that is not finite and > 0 is an IngestError.
    """

    dt: float
    sigma_s: float = 0.01
    measurement_noise_r: float = 9e-6
    initial_state: tuple[float, float] | None = None
    initial_covariance: tuple[float, float] = (100.0, 100.0)

    def __post_init__(self) -> None:
        # written as "not (0 < v < inf)" so that NaN fails too
        for name in ("dt", "sigma_s", "measurement_noise_r"):
            v = getattr(self, name)
            if not 0 < v < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {v}")
        if not all(0 < p < math.inf for p in self.initial_covariance):
            raise IngestError(
                f"initial_covariance entries must be finite and > 0, got {self.initial_covariance}"
            )


class _GainSchedule:
    """The Kalman gains (k0[i], k1[i]) of steps 0, 1, ... under one tuning,
    computed as far as the longest series filtered so far.

    The covariance recursion reads only the tuning, never the data, so every
    series filtered at one tuning shares these gains. ``p`` is the posterior
    covariance (p00, p01, p11) after the last step computed.
    """

    def __init__(
        self, dt: float, sigma_s: float, r: float, initial_covariance: tuple[float, float]
    ) -> None:
        q_var = sigma_s**2
        self.q = (q_var * dt**4 / 4.0, q_var * dt**3 / 2.0, q_var * dt**2)
        self.dt, self.r = dt, r
        p00, p11 = initial_covariance
        self.p = (p00, 0.0, p11)
        self.k0: list[float] = []
        self.k1: list[float] = []
        self.lock = threading.Lock()

    def gains(self, n: int) -> tuple[list[float], list[float]]:
        """The gain lists, holding at least ``n`` steps.

        Raises an IngestError, naming the step, if the covariance loses
        positive definiteness within the first ``n`` steps; the steps
        computed in that call are then dropped, so a later call fails the
        same way.
        """
        with self.lock:
            done = len(self.k0)
            if n > done:
                self._grow(done, n)
        return self.k0, self.k1

    def _grow(self, done: int, n: int) -> None:
        dt, r = self.dt, self.r
        q00, q01, q11 = self.q
        p00, p01, p11 = self.p
        k0s, k1s = self.k0, self.k1
        for i in range(done, n):
            # predict
            p00 = p00 + dt * (2.0 * p01 + dt * p11) + q00
            p01 = p01 + dt * p11 + q01
            p11 = p11 + q11
            # update
            s = p00 + r
            k0 = p00 / s
            k1 = p01 / s
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
                del k0s[done:], k1s[done:]
                raise IngestError(f"covariance lost positive definiteness at step {i}")
            k0s.append(k0)
            k1s.append(k1)
        self.p = (p00, p01, p11)


@functools.lru_cache(maxsize=8)
def _gain_schedule(
    dt: float, sigma_s: float, r: float, initial_covariance: tuple[float, float]
) -> _GainSchedule:
    return _GainSchedule(dt, sigma_s, r, initial_covariance)


def kalman_smooth(series: np.ndarray, cfg: KalmanConfig) -> tuple[np.ndarray, np.ndarray]:
    """Forward-filter a range series into position and velocity estimates.

    Returns (position, velocity) arrays, one posterior estimate per input
    sample. Raises an IngestError if the covariance collapses
    under degenerate tuning within as many steps as the series has samples.

    The covariance recursion, and so the gain of every step, never reads the
    data: it depends on ``dt``, ``sigma_s``, ``measurement_noise_r`` and
    ``initial_covariance`` alone. The gains are computed once per tuning,
    cached and shared by every series filtered at it (the trials of a
    campaign, and the forward and reverse passes of one trial); only the
    state update runs per sample. Non-finite input cannot trip the
    covariance check: it propagates into the estimates instead, which is why
    ingest rejects non-finite samples.
    """
    z = np.asarray(series, dtype=float)
    if z.size < 2:
        raise ValueError(f"need at least 2 samples, got {z.size}")

    dt = float(cfg.dt)
    p00, p11 = (float(v) for v in cfg.initial_covariance)
    schedule = _gain_schedule(dt, float(cfg.sigma_s), float(cfg.measurement_noise_r), (p00, p11))

    if cfg.initial_state is None:
        x0, x1 = float(z[0]), 0.0
    else:
        x0, x1 = (float(v) for v in cfg.initial_state)
    k0s, k1s = schedule.gains(z.size)

    pos = []
    vel = []
    for zi, k0, k1 in zip(z.tolist(), k0s, k1s):
        x0 = x0 + dt * x1
        innov = zi - x0
        x0 += k0 * innov
        x1 += k1 * innov
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
        # written as "not (0 < v < inf)" so that NaN fails too
        if not 0 < self.fs < math.inf:
            raise ValueError(f"fs must be finite and positive, got {self.fs}")
        if not 0 < self.cutoff_hz < math.inf:
            raise ValueError(f"cutoff_hz must be finite and positive, got {self.cutoff_hz}")
        # bad bench data: analyze filters at each trial's force rate
        if self.cutoff_hz >= self.fs / 2.0:
            raise IngestError(f"cutoff {self.cutoff_hz:g} Hz >= Nyquist {self.fs / 2:g} Hz")


#: samples per block of the blocked recurrence in ``butterworth_lowpass``
_BLOCK = 128
#: blocks per matrix product there. OpenBLAS, as numpy ships it, runs a
#: product of more than about 2**20 multiply-adds on several threads, which
#: then spin between calls and starve analyze's worker processes; a slab of
#: 32 blocks is 2**19.
_SLAB = 32


def _butter(spec: FilterSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Transfer function (b, a) of the digital Butterworth low-pass ``spec``,
    and the poles it was built from.

    The steps and their order are those of ``scipy.signal.butter(order,
    cutoff_hz, fs=fs)``: analog prototype poles, pre-warped cutoff, bilinear
    transform, then ``np.poly``, so b and a are the same bits.
    """
    n = spec.order
    wn = np.float64(spec.cutoff_hz) / (spec.fs / 2)
    warped = 4.0 * np.tan(np.pi * wn / 2.0)
    analog = warped * -np.exp(1j * np.pi * np.arange(-n + 1, n, 2, dtype=float) / (2 * n))
    gain = warped**n * np.real(1.0 / np.prod(4.0 - analog))
    poles = (4.0 + analog) / (4.0 - analog)
    return gain * np.poly(-np.ones(n)), np.poly(poles), poles


def _taylor_shift(coeffs: np.ndarray, c: Fraction, rho: Fraction) -> list[Fraction]:
    """Coefficients, highest power first, of p(c + rho*w) as exact fractions,
    where p has the float coefficients ``coeffs``."""
    acc = [Fraction(coeffs[0])]
    for ak in coeffs[1:]:
        acc = (
            [rho * acc[0]]
            + [rho * hi + c * lo for hi, lo in zip(acc[1:], acc)]
            + [c * acc[-1] + Fraction(ak)]
        )
    return acc


class _Realization(NamedTuple):
    """A designed filter as the matrices ``_lfilter`` applies to blocks of
    L = ``_BLOCK`` samples; the state has n = ``order`` entries."""

    zero_state: np.ndarray  # (L, L): a block's response from zero state
    to_state: np.ndarray  # (L, n): a block's input -> its end state
    carry: np.ndarray  # (n, n): A^L, a block's start state -> its end state
    from_state: np.ndarray  # (n, L): a block's response to its start state
    zi: np.ndarray  # (n,): steady state under a unit step (lfilter_zi)


@functools.lru_cache(maxsize=8)
def _realize(spec: FilterSpec) -> _Realization:
    """State-space form (A, B, C = e0, D) of the b/a filter of ``spec``.

    It is scipy's transposed direct form II written in w = (z - c) / rho,
    where c is the centre of the designed poles and rho their radius about
    it; the shifted coefficients are computed exactly and rounded once. In
    the plain companion basis the poles are ill-conditioned: at order 8 and
    cutoff/fs 0.01, A^L rounds to a matrix with poles outside the unit
    circle and the recurrence diverges. About their centre they are well
    conditioned, so this realizes the b/a filter to a few ulps. The arrays are
    read-only because every call shares them.
    """
    b, a, poles = _butter(spec)
    n = spec.order
    c = Fraction(float(poles.real.mean()))
    rho = Fraction(float(np.abs(poles - float(c)).max()))
    bw, aw = _taylor_shift(b, c, rho), _taylor_shift(a, c, rho)
    d = bw[0] / aw[0]
    # z = c + rho*w: A = c*I + rho*companion(aw)^T and B = rho*B_w
    A = np.diag(np.full(n, float(c)))
    A[:, 0] = [float(c * (i == 0) - rho * aw[i + 1] / aw[0]) for i in range(n)]
    A[np.arange(n - 1), np.arange(1, n)] = float(rho)
    B = np.array([float(rho * (bw[i + 1] - aw[i + 1] * d) / aw[0]) for i in range(n)])

    # impulse[k] = A^k B; rows[k] = C A^k
    impulse = np.empty((_BLOCK, n))
    rows = np.empty((_BLOCK, n))
    impulse[0], rows[0] = B, np.eye(n)[0]
    for k in range(1, _BLOCK):
        impulse[k] = A @ impulse[k - 1]
        rows[k] = rows[k - 1] @ A
    h = np.concatenate(([float(d)], impulse[:-1, 0]))
    lag = np.subtract.outer(np.arange(_BLOCK), np.arange(_BLOCK))
    parts = (
        np.where(lag >= 0, h[np.maximum(lag, 0)], 0.0).T.copy(),
        impulse[::-1].copy(),
        np.linalg.matrix_power(A, _BLOCK),
        rows.T.copy(),
        np.linalg.solve(np.eye(n) - A, B),
    )
    for part in parts:
        part.flags.writeable = False
    return _Realization(*parts)


def _lfilter(x: np.ndarray, state: np.ndarray, r: _Realization) -> np.ndarray:
    """Run the filter over ``x`` from ``state``, exactly, a block at a time.

    A block's response is its zero-state part (a product with the impulse
    response's Toeplitz matrix) plus the response to its start state. Only
    the state carry from block to block is sequential.
    """
    blocks = -(-x.size // _BLOCK)
    xb = np.zeros((blocks, _BLOCK))
    xb.reshape(-1)[: x.size] = x
    y = np.empty_like(xb)
    carry = r.carry
    for i in range(0, blocks, _SLAB):
        slab = xb[i : i + _SLAB]
        forced = slab @ r.to_state
        starts = np.empty_like(forced)
        for k in range(len(slab)):
            starts[k] = state
            state = carry @ state + forced[k]
        y[i : i + _SLAB] = slab @ r.zero_state + starts @ r.from_state
    return y.reshape(-1)[: x.size]


def butterworth_lowpass(series: np.ndarray, spec: FilterSpec = FilterSpec()) -> np.ndarray:
    """Zero-phase low-pass: one Butterworth pass forward, one backward.

    The double pass squares the magnitude response (gain 0.5 at the design
    cutoff instead of 1/sqrt(2)) and cancels the phase, so pulse peaks stay
    where they happened — which is what impact timing metrics need.

    The ends are padded as ``scipy.signal.filtfilt(b, a, x)`` pads them: an
    odd extension of 3*(order + 1) samples, each pass starting from the steady
    state for its first sample. Its b and a are those of
    ``scipy.signal.butter``; the output matches scipy's to rounding. A series
    no longer than the padding is an IngestError: it is bench data, a trial
    whose streams share too short a span.
    """
    x = np.asarray(series, dtype=float)
    edge = 3 * (spec.order + 1)
    if x.size <= edge:
        raise IngestError(
            f"series of {x.size} samples too short for order-{spec.order} "
            f"zero-phase filtering (needs > {edge})"
        )
    r = _realize(spec)
    ext = np.concatenate((2 * x[0] - x[edge:0:-1], x, 2 * x[-1] - x[-2 : -edge - 2 : -1]))
    y = _lfilter(ext, r.zi * ext[0], r)
    y = _lfilter(y[::-1], r.zi * y[-1], r)
    return y[::-1][edge:-edge]
