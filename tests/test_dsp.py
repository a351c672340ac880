import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal

from impact_governor import dsp
from impact_governor.dsp import (
    FilterSpec,
    KalmanConfig,
    butterworth_lowpass,
    kalman_smooth,
    median_despike,
)
from impact_governor.errors import IngestError


# --- median despike ----------------------------------------------------------


def test_despike_removes_isolated_spikes_only():
    rng = np.random.default_rng(0)
    t = np.arange(500) * 1e-3
    clean = 2.0 - 1.5 * t
    noisy = clean + rng.normal(0, 0.002, t.size)
    spiked = noisy.copy()
    for i in (50, 251, 252, 449):
        spiked[i] += 0.5  # dropouts ~250x noise sigma
    out = median_despike(spiked, window=5, k=3.0)
    # spikes gone
    assert np.max(np.abs(out - clean)) < 0.02
    assert np.max(np.abs(out[[50, 251, 252, 449]] - clean[[50, 251, 252, 449]])) < 0.01
    # replacement is the exception: the bulk of samples pass through bit-exact
    assert np.mean(out == spiked) > 0.9


def test_despike_handles_edges():
    x = np.full(40, 1.0)
    x[0] = 9.0
    x[-1] = -7.0
    out = median_despike(x, window=5)
    assert out[0] == pytest.approx(1.0)
    assert out[-1] == pytest.approx(1.0)


def test_despike_leaves_constant_series_untouched():
    x = np.full(64, 3.25)
    assert np.array_equal(median_despike(x), x)


def test_despike_validation():
    with pytest.raises(ValueError):
        median_despike(np.zeros(10), window=4)
    with pytest.raises(ValueError):
        median_despike(np.zeros(10), window=1)
    with pytest.raises(IngestError, match=r"^series of 10 samples < window 11$"):
        median_despike(np.zeros(10), window=11)


# --- Kalman ------------------------------------------------------------------


def test_kalman_noiseless_ramp_slope_within_1pct():
    dt = 1e-3
    n = 200
    t = np.arange(n) * dt
    z = 5.0 - 3.0 * t
    cfg = KalmanConfig(dt=dt)  # default init: first sample, zero velocity
    pos, vel = kalman_smooth(z, cfg)
    assert abs(vel[100] - (-3.0)) < 0.03
    assert np.all(np.abs(vel[100:] - (-3.0)) < 0.03)
    assert np.max(np.abs(pos[100:] - z[100:])) < 1e-3


def test_kalman_initial_state_respected():
    dt = 1e-3
    z = 2.0 - 4.0 * np.arange(50) * dt
    cfg = KalmanConfig(dt=dt, initial_state=(2.0, -4.0))
    pos, vel = kalman_smooth(z, cfg)
    # a correctly initialised filter never leaves the true track
    assert np.max(np.abs(vel - (-4.0))) < 0.01
    assert np.max(np.abs(pos - z)) < 1e-4


def test_kalman_tracks_through_noise(rng):
    dt = 1e-3
    n = 1500
    t = np.arange(n) * dt
    z = 3.0 - 2.5 * t + rng.normal(0, 0.002, n)
    cfg = KalmanConfig(dt=dt, initial_state=(3.0, -2.5))
    _, vel = kalman_smooth(z, cfg)
    assert abs(np.mean(vel[500:]) - (-2.5)) < 0.02


def test_kalman_needs_two_samples():
    with pytest.raises(ValueError):
        kalman_smooth(np.array([1.0]), KalmanConfig(dt=1e-3))


def test_kalman_config_validation():
    with pytest.raises(ValueError):
        KalmanConfig(dt=0.0)
    with pytest.raises(ValueError):
        KalmanConfig(dt=1e-3, sigma_s=0.0)
    # an infinite measurement noise made every gain 0, so the filter ignored
    # every reading; a NaN or infinite dt or sigma_s failed only when filtering
    for name in ("dt", "sigma_s", "measurement_noise_r"):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"^{name} must be finite and positive"):
                KalmanConfig(**{"dt": 1e-3, name: value})


# --- Butterworth -------------------------------------------------------------


def test_butterworth_dc_gain_unity():
    x = np.full(5000, 7.3)
    y = butterworth_lowpass(x, FilterSpec())
    assert np.max(np.abs(y - 7.3)) < 7.3 * 1e-6


def test_butterworth_halves_amplitude_at_cutoff():
    spec = FilterSpec(order=4, cutoff_hz=1000.0, fs=6250.0)
    n = 12500
    t = np.arange(n) / spec.fs
    x = np.sin(2 * np.pi * spec.cutoff_hz * t)
    y = butterworth_lowpass(x, spec)
    core = slice(n // 4, 3 * n // 4)
    ratio = np.sqrt(np.mean(y[core] ** 2) / np.mean(x[core] ** 2))
    assert ratio == pytest.approx(0.5, abs=0.02)


def test_butterworth_zero_phase_on_symmetric_pulse():
    spec = FilterSpec()
    n = 4000
    i0 = 2000
    t = np.arange(n) / spec.fs
    x = np.exp(-((t - t[i0]) ** 2) / (2 * 0.002**2))
    y = butterworth_lowpass(x, spec)
    assert abs(int(np.argmax(y)) - i0) <= 1


def test_butterworth_attenuates_out_of_band():
    spec = FilterSpec()
    n = 12500
    t = np.arange(n) / spec.fs
    x = np.sin(2 * np.pi * 3000.0 * t)  # 3 kHz, 1.58 octaves above fc
    y = butterworth_lowpass(x, spec)
    core = slice(n // 4, 3 * n // 4)
    assert np.sqrt(np.mean(y[core] ** 2)) < 0.01


def test_filter_spec_validation():
    with pytest.raises(ValueError):
        FilterSpec(order=3)
    with pytest.raises(IngestError, match=r"^cutoff 3200 Hz >= Nyquist 3125 Hz$"):
        FilterSpec(cutoff_hz=3200.0, fs=6250.0)
    # a series no longer than the padding is bench data too short to filter
    with pytest.raises(IngestError, match=r"^series of 10 samples too short for order-4 "
                       r"zero-phase filtering \(needs > 15\)$"):
        butterworth_lowpass(np.zeros(10), FilterSpec())


@pytest.mark.parametrize("field", ["cutoff_hz", "fs"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_filter_spec_refuses_non_finite(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite and positive"):
        FilterSpec(**{field: value})


# --- Butterworth against scipy and against exact arithmetic -----------------
#
# scipy.signal.filtfilt runs b/a in direct form, whose rounding error grows
# with kappa, the condition number of the Vandermonde matrix of the designed
# poles: at order 8 and cutoff/fs 0.01 (kappa 1.5e12) scipy is 6.6e-5 away
# from the exact filtfilt of its own b and a. So the scipy oracle allows
# max(1e-9, 100 * eps * kappa) relative to max|y| (measured: below 7 * eps *
# kappa over the whole domain), and 1e-12 at the default spec (kappa 45). The
# exact rational oracle below checks the numpy filter to 1e-12 everywhere.


def _relative_error(y, ref):
    return float(np.max(np.abs(y - ref)) / np.max(np.abs(ref)))


def _walk(n, seed):
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.normal(size=n)) + rng.normal(size=n)


@settings(max_examples=150, deadline=None)
@given(
    order=st.sampled_from([2, 4, 6, 8]),
    ratio=st.floats(0.01, 0.49, exclude_max=True),
    extra=st.integers(1, 20000 - 27),
    seed=st.integers(0, 2**32 - 1),
)
def test_butterworth_matches_scipy(order, ratio, extra, seed):
    spec = FilterSpec(order=order, cutoff_hz=ratio * 6250.0, fs=6250.0)
    b, a = signal.butter(order, spec.cutoff_hz, fs=spec.fs)
    ours_b, ours_a, _ = dsp._butter(spec)
    assert np.array_equal(ours_b, b) and np.array_equal(ours_a, a)

    x = _walk(3 * (order + 1) + extra, seed)
    _, poles, _ = signal.butter(order, spec.cutoff_hz, fs=spec.fs, output="zpk")
    kappa = np.linalg.cond(np.vander(poles))
    tol = max(1e-9, 100 * np.finfo(float).eps * kappa)
    assert _relative_error(butterworth_lowpass(x, spec), signal.filtfilt(b, a, x)) <= tol


@settings(max_examples=60, deadline=None)
@given(extra=st.integers(1, 20000 - 15), seed=st.integers(0, 2**32 - 1))
def test_butterworth_matches_scipy_at_default_spec(extra, seed):
    x = _walk(15 + extra, seed)
    ref = signal.filtfilt(*signal.butter(4, 1000.0, fs=6250.0), x)
    assert _relative_error(butterworth_lowpass(x), ref) <= 1e-12


def _exact_filtfilt(b, a, x):
    """scipy's filtfilt(b, a, x) in rational arithmetic: odd extension by
    3 * len(a) samples, each pass started from lfilter_zi times its first
    sample, and transposed direct form II."""
    b = [Fraction(v) for v in b]
    a = [Fraction(v) for v in a]
    n = len(a) - 1
    # lfilter_zi: (I - companion(a).T) zi = b[1:] - a[1:] * b[0], by elimination
    m = [[Fraction(int(i == j)) + (a[i + 1] if j == 0 else -int(j == i + 1)) for j in range(n)]
         + [b[i + 1] - a[i + 1] * b[0]] for i in range(n)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if m[r][col])
        m[col], m[pivot] = m[pivot], m[col]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col] / m[col][col]
                m[r] = [u - f * v for u, v in zip(m[r], m[col])]
    zi = [m[i][n] / m[i][i] for i in range(n)]

    def lfilter(xs, z):
        out = []
        for xi in xs:
            yi = b[0] * xi + z[0]
            z = [b[j + 1] * xi + (z[j + 1] if j + 1 < n else 0) - a[j + 1] * yi
                 for j in range(n)]
            out.append(yi)
        return out

    edge = 3 * (n + 1)
    ext = np.concatenate((2 * x[0] - x[edge:0:-1], x, 2 * x[-1] - x[-2 : -edge - 2 : -1]))
    y = lfilter([Fraction(v) for v in ext], [v * Fraction(ext[0]) for v in zi])
    y = lfilter(y[::-1], [v * y[-1] for v in zi])[::-1]
    return np.array([float(v) for v in y[edge:-edge]])


@pytest.mark.parametrize(
    "order, ratio, n",
    [
        (4, 0.16, 16),  # the default spec
        (4, 0.01, 40),
        (6, 0.01, 22),
        (8, 0.01, 28),  # scipy is 6.6e-5 off here
        (8, 0.4899, 60),
        (8, 0.01, 150),  # the extended series spans two blocks
    ],
)
def test_butterworth_matches_exact_arithmetic(order, ratio, n):
    spec = FilterSpec(order=order, cutoff_hz=ratio * 1000.0, fs=1000.0)
    x = _walk(n, order * n)
    b, a = signal.butter(order, spec.cutoff_hz, fs=spec.fs)
    assert _relative_error(butterworth_lowpass(x, spec), _exact_filtfilt(b, a, x)) <= 1e-12
