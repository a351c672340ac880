import io
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import impact_governor
from impact_governor.governor import GovernorConfig
from impact_governor.profile import AirframeProfile, PolyModel


#: ten times the default budget, for tests/test_input_fuzz.py in CI:
#: python -m pytest tests/test_input_fuzz.py --hypothesis-profile fuzz
settings.register_profile("fuzz", max_examples=10 * settings.default.max_examples)


def make_profile(ec_r=0.145924, dt_s=0.036, mass_kg=0.25, dt_std_s=0.0033,
                 domain=(3.0, 4.0), f_max_ref_N=105.6, name="Const"):
    """Constant-restitution profile; ec_r=0.145924 gives e_hat=0.382 exactly."""
    return AirframeProfile(
        name=name,
        mass_kg=mass_kg,
        dt_s=dt_s,
        dt_std_s=dt_std_s,
        restitution=PolyModel(
            coefficients=[ec_r], degree=0, r_squared=1.0, mae=0.0, domain=domain
        ),
        angle_deg=0.0,
        f_max_ref_N=f_max_ref_N,
    )


class _Reads(io.BufferedIOBase):
    """Binary input that answers each ``read1`` with the next item of ``reads``
    (as a pipe answers with what has arrived), then with b"" (end of input)."""

    def __init__(self, reads):
        self._reads = iter(reads)

    def readable(self) -> bool:
        return True

    def read1(self, size: int = -1) -> bytes:
        return next(self._reads, b"")


def stdin_of(*reads, errors: str = "strict") -> io.TextIOWrapper:
    """A stand-in for sys.stdin on POSIX (UTF-8, "\n" ends a line) whose reads
    return the ``reads`` in turn: each a str (encoded as UTF-8) or bytes, or
    one iterable of them."""
    if len(reads) == 1 and not isinstance(reads[0], (str, bytes)):
        reads = reads[0]
    raw = _Reads(r.encode("utf-8") if isinstance(r, str) else r for r in reads)
    return io.TextIOWrapper(raw, encoding="utf-8", errors=errors, newline="\n")


def child_env() -> dict:
    """Environment in which a child interpreter imports this checkout's package."""
    src = str(Path(impact_governor.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


@pytest.fixture
def const_profile():
    return make_profile()


@pytest.fixture
def default_cfg():
    return GovernorConfig()


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)
