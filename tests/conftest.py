import math

import numpy as np
import pytest
from hypothesis import strategies as st

from babai_refine import LatticeParams, cell_geometry, cross_section

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
def lattices(draw, rcos_min=1e-6, exact_rcos=False):
    """rho in [1, 1.5] and rho*cos(theta) log-uniform in [rcos_min, 0.5 - 1e-6],
    built from theta = acos(rcos/rho), or with rcos exactly if exact_rcos."""
    rho = draw(st.floats(1.0, 1.5))
    rcos = math.exp(draw(st.floats(math.log(rcos_min), math.log(0.5 - 1e-6))))
    if exact_rcos:
        return LatticeParams.from_rcos(rho, rcos)
    return LatticeParams(rho=rho, theta=math.acos(rcos / rho))


def _code_lengths(values: np.ndarray) -> np.ndarray:
    return np.array(
        [math.inf if v == 0.0 else -math.log2(v) for v in values.ravel().tolist()]
    ).reshape(values.shape)


def eager_rows(q) -> dict[str, np.ndarray]:
    """Every row of quantizer q from one cross_section of all its bin
    midpoints and one math.log2 per code entry (inf for an empty region),
    by the names of q.rows, with the cross_section's labels (as int8) and
    probs: the rows filled on first use equal these bit for bit."""
    e = np.asarray(q.edges)
    cuts = cross_section(cell_geometry(q.params), 0.5 * (e[:-1] + e[1:]), q.vertical)
    labels = cuts.labels.astype(np.int8)
    return {
        "lo": cuts.lo,
        "hi": cuts.hi,
        "labels": labels,
        "probs": cuts.probs,
        "decisions": np.moveaxis(labels, 2, 0).astype(np.float64),
        "bin_bits": _code_lengths((e[1:] - e[:-1]) / (e[-1] - e[0])),
        "answer_bits": _code_lengths(cuts.probs),
    }


ROW_NAMES = ("lo", "hi", "decisions", "bin_bits", "answer_bits")


def filled_bins(q) -> np.ndarray:
    """The bins whose row q has filled, ascending: those whose bin_bits is a number."""
    return np.flatnonzero(~np.isnan(q.rows.bin_bits))


def fill_every_row(q) -> np.ndarray:
    """Fill every row of q, as a reader of the whole code does; return the bins."""
    bins = np.arange(len(q.edges) - 1)
    q.rows.fill(bins)
    return bins


def assert_rows_are_eager(q, bins) -> None:
    """q's rows of `bins` equal eager_rows(q)'s bit for bit."""
    want = eager_rows(q)
    for name in ROW_NAMES:
        got, w = getattr(q.rows, name), want[name]
        got, w = (got[:, bins], w[:, bins]) if name == "decisions" else (got[bins], w[bins])
        assert got.dtype == w.dtype and got.tobytes() == w.tobytes(), name
