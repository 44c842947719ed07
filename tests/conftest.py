import math

import numpy as np
import pytest
from hypothesis import strategies as st

from babai_refine import LatticeParams

RCOS_MAIN = 0.3
EPS = 1e-6


@pytest.fixture(scope="session")
def params_main() -> LatticeParams:
    """The workhorse lattice: rho = 1, rho*cos(theta) = 0.3."""
    return LatticeParams(rho=1.0, theta=math.acos(RCOS_MAIN))


@pytest.fixture(scope="session")
def params_hex() -> LatticeParams:
    """Just inside the hexagonal limit theta = pi/3."""
    return LatticeParams(rho=1.0, theta=math.pi / 3 + EPS)


@pytest.fixture(scope="session")
def params_square() -> LatticeParams:
    """Just inside the rectangular limit theta = pi/2."""
    return LatticeParams(rho=1.0, theta=math.pi / 2 - EPS)


def random_valid_params(count: int, seed: int = 0) -> list[LatticeParams]:
    """Valid (rho, theta) pairs sampled away from the degenerate endpoints."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        rho = float(1.0 + rng.random() * 1.5)
        c = float(0.02 + 0.46 * rng.random())  # rho*cos(theta) in (0.02, 0.48)
        out.append(LatticeParams(rho=rho, theta=math.acos(c / rho)))
    return out


@st.composite
def lattices(draw, rcos_min=1e-6):
    """rho in [1, 1.5] and rho*cos(theta) log-uniform in [rcos_min, 0.5 - 1e-6]."""
    rho = draw(st.floats(1.0, 1.5))
    rcos = math.exp(draw(st.floats(math.log(rcos_min), math.log(0.5 - 1e-6))))
    return LatticeParams(rho=rho, theta=math.acos(rcos / rho))
