import os
from pathlib import Path

import numpy as np
import pytest

import impact_governor
from impact_governor.fit import AirframeProfile, PolyModel
from impact_governor.governor import GovernorConfig


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
