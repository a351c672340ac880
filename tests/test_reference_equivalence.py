"""The vectorised ingest and dsp layers against the plain implementations
they replaced.

The oracles below are the earlier, straightforward versions of the CSV
reader, the Kalman loop and the despike edge loop, kept verbatim. The
current code must return bitwise-equal arrays (``tobytes``) on every input
the oracles accept, and raise the same error where they raise one.
"""

import csv
from pathlib import Path

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from impact_governor.dsp import (
    MAD_SCALE,
    KalmanConfig,
    kalman_smooth,
    median_despike,
)
from impact_governor.errors import (
    EmptyStream,
    MalformedRow,
    MissingColumn,
    NonPositiveDefiniteCovariance,
    WindowTooLarge,
)
from impact_governor.ingest import FORCE_COLUMNS, RANGE_COLUMNS, _read_csv_columns

# --- oracles -----------------------------------------------------------------


def oracle_read_csv_columns(path, required):
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyStream(f"{path} is empty") from None
        header = [h.strip() for h in header]
        missing = [c for c in required if c not in header]
        if missing:
            raise MissingColumn(f"{path} lacks column(s) {missing}")
        rows = [row for row in reader if row and any(cell.strip() for cell in row)]
    if not rows:
        raise EmptyStream(f"{path} has a header but no data rows")
    data = np.asarray(rows, dtype=float)
    return {name: data[:, header.index(name)] for name in required}


def oracle_kalman_smooth(series, cfg):
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

    pos = np.empty_like(z)
    vel = np.empty_like(z)
    for i, zi in enumerate(z):
        x0 = x0 + dt * x1
        p00 = p00 + dt * (2.0 * p01 + dt * p11) + q00
        p01 = p01 + dt * p11 + q01
        p11 = p11 + q11
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
            np.isfinite(p00)
            and np.isfinite(p11)
            and p00 > 0.0
            and p11 > 0.0
            and p00 * p11 - p01 * p01 > 0.0
        ):
            raise NonPositiveDefiniteCovariance(
                f"covariance lost positive definiteness at step {i}"
            )
        pos[i] = x0
        vel[i] = x1
    return pos, vel


def oracle_median_despike(series, window=5, k=3.0):
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

    for i in list(range(half)) + list(range(x.size - half, x.size)):
        lo = max(0, i - half)
        hi = min(x.size, i + half + 1)
        w = x[lo:hi]
        m = float(np.median(w))
        sigma = MAD_SCALE * float(np.median(np.abs(w - m)))
        if abs(x[i] - m) > k * sigma:
            out[i] = m
    return out


def assert_bitwise(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


# --- CSV reader --------------------------------------------------------------

RANGE_HEADER = "t_s,range_m,trigger"

CSV_TABLE = {
    "plain": RANGE_HEADER + "\n0.000,1.5,0\n0.001,1.49,1\n",
    "no-final-newline": RANGE_HEADER + "\n0.000,1.5,0\n0.001,1.49,1",
    "blank-lines": RANGE_HEADER + "\n\n0.000,1.5,0\n\n\n0.001,1.49,1\n\n",
    "whitespace-only-rows": RANGE_HEADER + "\n   \n0.000,1.5,0\n\t\n0.001,1.49,1\n \t \n",
    "separator-only-rows": RANGE_HEADER + "\n, , ,\n0.000,1.5,0\n,,\n0.001,1.49,1\n,\n",
    "crlf": RANGE_HEADER + "\r\n0.000,1.5,0\r\n\r\n0.001,1.49,1\r\n",
    "cr-only": RANGE_HEADER + "\r0.000,1.5,0\r0.001,1.49,1\r",
    "quoted-numbers": RANGE_HEADER + '\n"0.000","1.5",0\n0.001,"1.49","1"\n',
    "padded-cells": RANGE_HEADER + "\n 0.000 , 1.5,0 \n0.001,\t1.49 ,1\n",
    "padded-header": " t_s , range_m ,trigger \n0.000,1.5,0\n0.001,1.49,1\n",
    "quoted-header": '"t_s","range_m","trigger"\n0.000,1.5,0\n',
    "reordered-and-extra-columns": "trigger,note,range_m,t_s\n0,7,1.5,0.0\n1,8,1.49,0.001\n",
    "number-spellings": RANGE_HEADER + "\n+0.5e-3,.5,5.\n1E2,-0.0,-1e-310\n",
    "single-row": RANGE_HEADER + "\n0.1,0.30000000000000004,1\n",
}

CSV_ERRORS = {
    "empty-file": ("", EmptyStream),
    "header-only": (RANGE_HEADER + "\n", EmptyStream),
    "header-and-blank-rows": (RANGE_HEADER + "\n\n , ,\n\r\n", EmptyStream),
    "missing-column": ("t_s,trigger\n0.0,1\n", MissingColumn),
    "blank-first-line": ("\n" + RANGE_HEADER + "\n0.0,1.5,0\n", MissingColumn),
}


@pytest.mark.parametrize("name", sorted(CSV_TABLE))
def test_csv_reader_matches_oracle(tmp_path, name):
    p = tmp_path / "s.csv"
    p.write_bytes(CSV_TABLE[name].encode())
    want = oracle_read_csv_columns(p, RANGE_COLUMNS)
    got = _read_csv_columns(p, RANGE_COLUMNS)
    assert list(got) == list(want)
    for col in RANGE_COLUMNS:
        assert_bitwise(got[col], want[col])


@pytest.mark.parametrize("name", sorted(CSV_ERRORS))
def test_csv_reader_errors_match_oracle(tmp_path, name):
    text, error = CSV_ERRORS[name]
    p = tmp_path / "s.csv"
    p.write_bytes(text.encode())
    with pytest.raises(error):
        oracle_read_csv_columns(p, RANGE_COLUMNS)
    with pytest.raises(error):
        _read_csv_columns(p, RANGE_COLUMNS)


finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
cell_format = st.sampled_from(["{!r}", "{:.9g}", "{:.6f}", "{:.3e}", '"{!r}"', " {:.9g} "])


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    values=st.lists(st.lists(finite, min_size=6, max_size=6), min_size=1, max_size=40),
    fmt=cell_format,
    newline=st.sampled_from(["\n", "\r\n"]),
    blank_every=st.integers(0, 5),
)
def test_csv_reader_matches_oracle_on_random_tables(tmp_path, values, fmt, newline, blank_every):
    lines = [",".join(FORCE_COLUMNS)]
    for i, row in enumerate(values):
        if blank_every and i % blank_every == 0:
            lines.append(" , ")
        lines.append(",".join(fmt.format(v) for v in row))
    p = tmp_path / "f.csv"
    p.write_bytes((newline.join(lines) + newline).encode())
    want = oracle_read_csv_columns(p, FORCE_COLUMNS)
    if not all(np.isfinite(v).all() for v in want.values()):
        # a cell that overflows its format to inf is rejected, not read
        with pytest.raises(MalformedRow):
            _read_csv_columns(p, FORCE_COLUMNS)
        return
    got = _read_csv_columns(p, FORCE_COLUMNS)
    for col in FORCE_COLUMNS:
        assert_bitwise(got[col], want[col])


# --- Kalman ------------------------------------------------------------------


@st.composite
def range_series(draw, min_size=2, max_size=400):
    """Approach ramps with noise and spikes, or arbitrary float arrays."""
    n = draw(st.integers(min_size, max_size))
    if draw(st.booleans()):
        return draw(arrays(np.float64, n, elements=st.floats(-1e3, 1e3, width=64)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p0 = draw(st.floats(-5.0, 5.0))
    v = draw(st.floats(-6.0, 6.0))
    noise = draw(st.sampled_from([0.0, 1e-4, 2e-3, 0.05]))
    x = p0 + v * np.arange(n) * 1e-3 + rng.normal(0.0, noise, n)
    n_spikes = draw(st.integers(0, 3))
    for _ in range(n_spikes):
        i = draw(st.sampled_from([0, n - 1, draw(st.integers(0, n - 1))]))
        x[i] += draw(st.floats(-2.0, 2.0))
    return x


kalman_configs = st.builds(
    KalmanConfig,
    dt=st.floats(1e-5, 1e-1),
    sigma_s=st.floats(1e-4, 1e2),
    measurement_noise_r=st.floats(1e-9, 1e-1),
    initial_state=st.none() | st.tuples(st.floats(-10, 10), st.floats(-10, 10)),
    initial_covariance=st.tuples(st.floats(-1.0, 1e3), st.floats(-1.0, 1e3)),
)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (NonPositiveDefiniteCovariance, ValueError) as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(z=range_series(), cfg=kalman_configs, reverse=st.booleans())
def test_kalman_matches_oracle(z, cfg, reverse):
    if reverse:  # the rebound pass filters a reversed view
        z = z[::-1]
    with np.errstate(all="ignore"):
        want = _outcome(oracle_kalman_smooth, z, cfg)
        got = _outcome(kalman_smooth, z, cfg)
    if isinstance(want[0], type):
        assert got == want
    else:
        assert_bitwise(got[0], want[0])
        assert_bitwise(got[1], want[1])


def test_kalman_matches_oracle_on_two_samples_and_degenerate_tuning():
    for z in ([1.0, 1.0], [0.0, -0.0], [3.0, np.nan]):
        cfg = KalmanConfig(dt=1e-3, initial_state=(1.0, -4.0))
        want, got = oracle_kalman_smooth(z, cfg), kalman_smooth(z, cfg)
        assert_bitwise(got[0], want[0])
        assert_bitwise(got[1], want[1])
    degenerate = KalmanConfig(dt=1e-3, initial_covariance=(1.0, -1.0))
    want = _outcome(oracle_kalman_smooth, [1.0, 2.0], degenerate)
    assert want[0] is NonPositiveDefiniteCovariance
    assert _outcome(kalman_smooth, [1.0, 2.0], degenerate) == want


# --- despike -----------------------------------------------------------------


@st.composite
def despike_case(draw):
    window = draw(st.sampled_from(range(3, 32, 2)))
    x = draw(range_series(min_size=window, max_size=window + 120))
    half = window // 2
    # spikes and repeated values at both clipped edges
    for i in draw(st.lists(st.sampled_from(
        list(range(half + 1)) + list(range(x.size - half - 1, x.size))
    ), max_size=4)):
        x[i] = draw(st.sampled_from([x[0], x[-1], 0.0, -0.0, x[i] + 1.0, x[i] - 50.0]))
    k = draw(st.floats(0.0, 8.0))
    return x, window, k


@settings(max_examples=300, deadline=None)
@given(case=despike_case())
def test_despike_matches_oracle(case):
    x, window, k = case
    with np.errstate(all="ignore"):
        assert_bitwise(median_despike(x, window, k), oracle_median_despike(x, window, k))


@pytest.mark.parametrize("window", [3, 5, 31])
def test_despike_matches_oracle_on_non_finite_edges(window):
    x = np.linspace(1.0, 2.0, window + 4)
    for values in ([np.nan], [np.inf], [-np.inf], [np.inf] * window, [np.nan, np.inf]):
        for at in (0, x.size - len(values)):
            y = x.copy()
            y[at : at + len(values)] = values
            with np.errstate(all="ignore"):
                assert_bitwise(median_despike(y, window), oracle_median_despike(y, window))


@pytest.mark.parametrize("window", [3, 5, 7, 31])
def test_despike_matches_oracle_on_signed_zero_edges(window):
    # the even-sized clipped window around the spike has two -0.0 middle values
    for spike_at in (1, -2):
        x = np.full(window + 3, -0.0)
        x[spike_at] = 9.0
        want = oracle_median_despike(x, window)
        assert_bitwise(median_despike(x, window), want)
