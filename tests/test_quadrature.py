import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from babai_refine import LatticeParams, QuadratureFailure, cell_geometry, cross_section, quadrature
from babai_refine.analytics import _entropy_raw, _row_entropies
from babai_refine.quadrature import adaptive_simpson


def test_polynomial_exact():
    # Simpson is exact on cubics; antiderivative x^4/4 - x^2 + x on [-1, 2]
    val = adaptive_simpson(lambda x: x**3 - 2 * x + 1, -1.0, 2.0, 1e-12)
    assert math.isclose(val, (4.0 - 4.0 + 2.0) - (0.25 - 1.0 - 1.0), rel_tol=1e-13)


def test_smooth_transcendental():
    val = adaptive_simpson(np.sin, 0.0, math.pi, 1e-10)
    assert math.isclose(val, 2.0, abs_tol=1e-10)


def test_endpoint_log_singularity():
    # the entropy-style integrand -x log2 x; integral over (0,1] is 1/(4 ln 2)
    def f(x):
        safe = np.where(x > 0.0, x, 1.0)
        return np.where(x > 0.0, -safe * np.log2(safe), 0.0)

    val = adaptive_simpson(f, 0.0, 1.0, 1e-9)
    assert math.isclose(val, 1.0 / (4.0 * math.log(2.0)), abs_tol=5e-9)


def test_degenerate_interval():
    assert adaptive_simpson(np.exp, 1.0, 1.0, 1e-9) == 0.0
    assert adaptive_simpson(np.exp, 2.0, 1.0, 1e-9) == 0.0


def test_failure_on_discontinuity():
    step = lambda x: np.where(x < 0.3333333, 0.0, 1.0)
    with pytest.raises(QuadratureFailure):
        adaptive_simpson(step, 0.0, 1.0, 1e-12, max_depth=8)


# --- equality with the depth-first recursion ------------------------------
#
# The recursion below is the previous adaptive_simpson, verbatim, with a
# scalar integrand; the level-order version must return its bits and raise
# its QuadratureFailure.  analytics now computes kappa in closed form; the
# kappa integrals by quadrature stay here as the hard case: the level-order
# version with the whole-table integrands analytics used to give it, and
# the recursion with the previous scalar integrands, a one-line cut table
# and _entropy_raw.


def _simpson_reference(f, a, b, abs_tol=1e-9, max_depth=40):
    if b <= a:
        return 0.0
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _simpson_rec(f, a, b, fa, fm, fb, whole, abs_tol, max_depth)


def _simpson_rec(f, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    if abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    if depth <= 0:
        raise QuadratureFailure(
            f"adaptive Simpson did not converge on [{a}, {b}] "
            f"(remaining error estimate {abs(delta) / 15.0:.3e} > {tol:.3e})"
        )
    return _simpson_rec(f, a, m, fa, flm, fm, left, 0.5 * tol, depth - 1) + _simpson_rec(
        f, m, b, fm, frm, fb, right, 0.5 * tol, depth - 1
    )


def _decision_entropy(g, vertical):
    return lambda x: _entropy_raw(
        cross_section(g, [x], vertical=vertical, closed=True).probs[0].tolist()
    )


def _kappa_12_reference(params, abs_tol=1e-9):
    g = cell_geometry(params)
    f = _decision_entropy(g, vertical=True)
    piece_tol = abs_tol / 4.0
    return 2.0 * (
        _simpson_reference(f, -0.5, g.t_m2, piece_tol)
        + _simpson_reference(f, g.t_m2, g.t_m1, piece_tol)
    )


def _kappa_21_reference(params, abs_tol=1e-9):
    g = cell_geometry(params)
    f = _decision_entropy(g, vertical=False)
    return (2.0 / g.H) * _simpson_reference(f, -g.H / 2.0, g.tau_m1, abs_tol * g.H / 2.0)


@st.composite
def lattices(draw):
    rho = draw(st.floats(1.0, 1.5))
    rcos = draw(st.floats(1e-6, 0.5 - 1e-6))
    return LatticeParams(rho=rho, theta=math.acos(rcos / rho))


EDGE_LATTICES = [
    LatticeParams(rho=rho, theta=math.acos(rcos / rho))
    for rho in (1.0, 1.5)
    for rcos in (1e-6, 1e-3, 0.3, 0.5 - 1e-3, 0.5 - 1e-6)
] + [
    LatticeParams(rho=1.0, theta=math.pi / 3 + 1e-6),
    LatticeParams(rho=1.0, theta=math.pi / 2 - 1e-6),
    LatticeParams(rho=1.0, theta=math.pi / 3 + 1e-12),
    LatticeParams(rho=1.0, theta=math.pi / 2 - 1e-12),
]


def _level_order_kappas(params):
    g = cell_geometry(params)
    strip = lambda x: _row_entropies(cross_section(g, x, vertical=True, closed=True).probs)
    row = lambda x: _row_entropies(cross_section(g, x, vertical=False, closed=True).probs)
    k12 = 2.0 * (
        adaptive_simpson(strip, -0.5, g.t_m2, 1e-9 / 4.0)
        + adaptive_simpson(strip, g.t_m2, g.t_m1, 1e-9 / 4.0)
    )
    k21 = (2.0 / g.H) * adaptive_simpson(row, -g.H / 2.0, g.tau_m1, 1e-9 * g.H / 2.0)
    return k12, k21


def _assert_kappas_equal_reference(params):
    k12, k21 = _level_order_kappas(params)
    assert k12.hex() == _kappa_12_reference(params).hex()
    assert k21.hex() == _kappa_21_reference(params).hex()


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(params=st.one_of(st.sampled_from(EDGE_LATTICES), lattices()))
def test_kappa_equals_recursive_reference(params):
    _assert_kappas_equal_reference(params)


@pytest.mark.parametrize("max_level", [1, 2, 5])
def test_kappa_equals_reference_with_split_levels(max_level, monkeypatch):
    """Levels split into left and right halves add back to the same bits."""
    monkeypatch.setattr(quadrature, "_MAX_LEVEL", max_level)
    for params in EDGE_LATTICES[:4]:
        _assert_kappas_equal_reference(params)


def _failure_message(call) -> str:
    with pytest.raises(QuadratureFailure) as info:
        call()
    return str(info.value)


@pytest.mark.parametrize("jump", [0.3333333, 0.5, 0.7, 1e-9])
@pytest.mark.parametrize("max_depth", [0, 1, 8, 20])
def test_failure_equals_recursive_reference(jump, max_depth):
    """The same interval, error estimate and tolerance are reported."""
    got = _failure_message(
        lambda: adaptive_simpson(
            lambda x: np.where(x < jump, 0.0, 1.0), 0.0, 1.0, 1e-12, max_depth
        )
    )
    want = _failure_message(
        lambda: _simpson_reference(lambda x: 0.0 if x < jump else 1.0, 0.0, 1.0, 1e-12, max_depth)
    )
    assert got == want


@pytest.mark.parametrize(
    "f,scalar",
    [
        (lambda x: np.full_like(x, np.nan), lambda x: math.nan),
        (lambda x: np.where(x > 0.0, 1.0, np.inf), lambda x: 1.0 if x > 0.0 else math.inf),
    ],
    ids=["nan-everywhere", "inf-at-left-end"],
)
def test_non_finite_integrand_fails_like_recursion(f, scalar):
    """A NaN integrand converges nowhere: the widest levels are split, so the
    refinement stays bounded in memory and still fails on the leftmost leaf.
    An infinite value gives inf - inf in the error estimate without a
    warning, as Python floats do."""
    got = _failure_message(lambda: adaptive_simpson(f, 0.0, 1.0))
    want = _failure_message(lambda: _simpson_reference(scalar, 0.0, 1.0))
    assert got == want


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(
    a=st.floats(-2.0, 2.0),
    width=st.floats(0.0, 3.0),
    k=st.floats(0.5, 400.0),
    tol=st.sampled_from([1e-6, 1e-9, 1e-12]),
)
def test_smooth_integrands_equal_recursive_reference(a, width, k, tol):
    # a Runge bump: basic arithmetic only, so array and scalar values agree
    got = adaptive_simpson(lambda x: 1.0 / (1.0 + k * x * x), a, a + width, tol)
    want = _simpson_reference(lambda x: 1.0 / (1.0 + k * x * x), a, a + width, tol)
    assert got.hex() == want.hex()
