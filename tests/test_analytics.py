import math

import numpy as np
import pytest
from hypothesis import given, settings

from babai_refine import (
    BudgetTooSmall,
    Distribution,
    InvalidDistribution,
    LatticeParams,
    asymptotic_constant_12,
    asymptotic_constant_21,
    babai_error_probability,
    beta_21,
    budget_point,
    cell_geometry,
    coefficients_12,
    cross_section,
    curve_point,
    entropy,
    kappa_12,
    kappa_21,
    nbar_infinite,
    optimal_n1,
    pe_12,
    pe_21,
    pe_at_rate,
    rate_12,
    rate_21,
    rbar_infinite,
    round1_distributions,
    tradeoff_curve_12,
)
from babai_refine.analytics import _row_entropies, budget_pe

from conftest import lattices, random_valid_params

# frozen regression constants at rho=1, rho*cos(theta)=0.3 (pinned by the
# independent fine-quantizer route and by the protocol simulations)
KAPPA_12_MAIN = 0.2985692139
KAPPA_21_MAIN = 0.2173085181
ASYM_12_MAIN = 0.2176192197
ASYM_21_MAIN = 1.1513892567
# kappa at rho = 1, theta = pi/2 - 1e-6 (the CLI's clamped 90 degrees): the
# integral of each affine region length's p*log2(p) by mpmath.quad at 30 digits
KAPPA_12_90DEG = 5.773897310638361e-06
KAPPA_21_90DEG = 7.213521426645307e-07


def test_entropy_basic():
    assert entropy((1.0,)) == 0.0
    assert entropy((0.5, 0.5)) == 1.0
    assert math.isclose(entropy((2 / 3, 1 / 6, 1 / 6)), 1.25163, abs_tol=5e-6)
    assert math.isclose(entropy((0.3, 0.2, 0.2, 0.15, 0.15)), 2.27095, abs_tol=5e-6)
    assert entropy((0.25, 0.75, 0.0)) == entropy((0.25, 0.75))  # 0 log 0 = 0


def test_entropy_rejects_bad_distributions():
    with pytest.raises(InvalidDistribution):
        entropy((0.5, 0.6))
    with pytest.raises(InvalidDistribution):
        entropy((-0.1, 1.1))
    with pytest.raises(InvalidDistribution):
        Distribution((0.5, float("nan")))


def test_coefficients_12_main(params_main):
    co = coefficients_12(params_main)
    assert co.provenance == "geometry_derived"
    # closed forms: alpha1 = L1*H21/(2 detV) = 0.012/1.82, alpha2 = 0.0225/1.82
    assert math.isclose(co.alpha1, 0.012 / 1.82, rel_tol=1e-12)
    assert math.isclose(co.alpha2, 0.0225 / 1.82, rel_tol=1e-12)
    # values as quoted in the acceptance grid (4-5 significant digits)
    assert math.isclose(co.alpha1, 0.0065938, rel_tol=1e-3)
    assert math.isclose(co.alpha2, 0.012362, rel_tol=1e-3)
    printed = coefficients_12(params_main, provenance="printed")
    # the printed variant swaps the height factors between the intervals
    g = cell_geometry(params_main)
    assert math.isclose(printed.alpha1, g.L1 * (g.H1 + g.H22) / (2 * g.H), rel_tol=1e-12)
    assert math.isclose(printed.alpha2, g.L2 * g.H21 / (2 * g.H), rel_tol=1e-12)
    assert not math.isclose(co.alpha1, printed.alpha1, rel_tol=0.2)


def test_coefficients_12_limits(params_hex, params_square):
    hexa = coefficients_12(params_hex)
    assert hexa.alpha1 < 1e-6  # L1 -> 0 kills the inner-interval term
    sq = coefficients_12(params_square)
    assert sq.alpha1 < 1e-6 and sq.alpha2 < 1e-6


@pytest.mark.parametrize(
    "rcos", [1e-12, 2e-12, 1e-9, 1e-7, 5e-7, 1e-5, 1e-3, 0.1, 0.3, 0.5 - 1e-6, 0.5 - 1e-9]
)
@pytest.mark.parametrize("rho", [1.0, 1.3])
def test_coefficients_12_match_closed_form(rho, rcos):
    """The span-derived coefficients keep their closed forms down to rcos = 1e-12."""
    params = LatticeParams(rho=rho, theta=math.acos(rcos / rho))
    g = cell_geometry(params)
    co = coefficients_12(params)
    assert math.isclose(co.alpha1, g.L1 * g.H21 / (2 * g.H), rel_tol=1e-3)
    assert math.isclose(co.alpha2, g.L2 * (g.H1 + g.H22) / (2 * g.H), rel_tol=1e-3)


def test_pe_12(params_main):
    assert math.isclose(
        pe_12(params_main, 2, 3), 0.012 / 1.82 / 2 + 0.0225 / 1.82 / 3, rel_tol=1e-12
    )
    assert math.isclose(pe_12(params_main, 2, 3), 0.0074175, rel_tol=1e-3)
    last = 1.0
    for n in (1, 2, 4, 8, 64, 1024):
        val = pe_12(params_main, n, n)
        assert val < last
        last = val
    assert last < 2e-5
    with pytest.raises(ValueError):
        pe_12(params_main, 0, 3)


def test_rate_12_h_u1(params_main):
    h1, h2 = rate_12(params_main, 2, 3)
    want = entropy((0.3, 0.2, 0.2, 0.15, 0.15)) + 0.4 * 1.0 + 0.3 * math.log2(3)
    assert math.isclose(h1, want, rel_tol=1e-12)
    assert math.isclose(h1, 3.14644, abs_tol=5e-6)
    assert h2 > 0.0


def test_rate_12_center_bin_contributes_nothing(params_main):
    # the h_u2 term is unchanged by how finely the error-free data is cut:
    # it only sums over bins that carry cuts
    _, h2_a = rate_12(params_main, 1, 1)
    g = cell_geometry(params_main)
    a, b = np.array([[-0.5, g.t_m2, g.t_1, g.t_2], [g.t_m2, g.t_m1, g.t_2, 0.5]])
    mid = cross_section(g, 0.5 * (a + b), vertical=True, closed=True)
    manual = 0.0
    for width, h in zip((b - a).tolist(), _row_entropies(mid.probs).tolist()):
        manual += width * h
    assert math.isclose(h2_a, manual, rel_tol=1e-12)


def test_h_u2_converges_to_kappa(params_main):
    kap = kappa_12(params_main)
    errs = []
    for k in range(2, 7):
        _, h2 = rate_12(params_main, 2**k, 2**k)
        errs.append(abs(h2 - kap))
    assert all(a > b for a, b in zip(errs, errs[1:]))  # monotone shrink
    assert errs[-1] < 2e-5


def test_kappa_regressions(params_main):
    assert math.isclose(kappa_12(params_main), KAPPA_12_MAIN, abs_tol=2e-9)
    assert math.isclose(kappa_21(params_main), KAPPA_21_MAIN, abs_tol=2e-9)


@pytest.mark.parametrize("params", random_valid_params(40, seed=61))
def test_kappa_bounds(params):
    g = cell_geometry(params)
    k12 = kappa_12(params)
    assert 0.0 <= k12 <= 2.0 * (g.t_m1 + 0.5) * math.log2(3.0) + 1e-12
    k21 = kappa_21(params)
    assert 0.0 <= k21 <= 2.0 * (g.H1 / g.H) * math.log2(3.0) + 1e-12


def test_kappa_square_limit(params_square):
    assert kappa_12(params_square) < 1e-2
    assert kappa_21(params_square) < 1e-2


def test_kappa_dense_theta_grid_converges():
    """Regression: integrand evaluation must be continuous at the band
    endpoints (segment spans carry ulp-level noise from line algebra), or
    the quadrature recurses to max depth against a fake jump."""
    for theta in np.linspace(math.pi / 3 + 1e-6, math.pi / 2 - 1e-6, 200):
        params = LatticeParams(rho=1.0, theta=float(theta))
        assert kappa_12(params) >= 0.0
        assert kappa_21(params) >= 0.0


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(30)


def _graded_gauss_legendre(f, a: float, b: float, levels: int = 40) -> float:
    """Integral of f over [a, b]: 30-point Gauss-Legendre on panels graded
    geometrically (ratio 1/2, `levels` deep) towards both ends, where a
    region length may vanish and p*log2(p) is not smooth."""
    half = 0.5 * (b - a)
    steps = [half * 0.5**k for k in range(levels, -1, -1)]
    ends = [a] + [a + d for d in steps] + [b - d for d in reversed(steps[:-1])] + [b]
    lo, hi = np.array(ends[:-1]), np.array(ends[1:])
    x = (0.5 * (lo + hi))[:, None] + (0.5 * (hi - lo))[:, None] * _GL_NODES
    w = (0.5 * (hi - lo))[:, None] * _GL_WEIGHTS
    return math.fsum((w * f(x.ravel()).reshape(x.shape)).ravel().tolist())


def _decision_entropy(g, vertical: bool):
    def f(x):
        p = cross_section(g, x, vertical=vertical, closed=True).probs
        return -np.where(p > 0.0, p * np.log2(np.where(p > 0.0, p, 1.0)), 0.0).sum(axis=1)

    return f


def _kappa_reference(params: LatticeParams) -> tuple[float, float]:
    """(kappa_12, kappa_21) by graded Gauss-Legendre over the closed cut table."""
    g = cell_geometry(params)
    strip, row = _decision_entropy(g, True), _decision_entropy(g, False)
    k12 = 2.0 * (
        _graded_gauss_legendre(strip, -0.5, g.t_m2) + _graded_gauss_legendre(strip, g.t_m2, g.t_m1)
    )
    k21 = (2.0 / g.H) * _graded_gauss_legendre(row, -g.H / 2.0, g.tau_m1)
    return k12, k21


def _assert_kappa_matches_reference(params: LatticeParams) -> None:
    k12, k21 = _kappa_reference(params)
    assert abs(kappa_12(params) - k12) <= 1e-13
    assert abs(kappa_21(params) - k21) <= 1e-13


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(lattices())
def test_kappa_closed_form_matches_quadrature_reference(params):
    _assert_kappa_matches_reference(params)


@pytest.mark.parametrize("rho", [1.0, 1.4])
@pytest.mark.parametrize("gap", [1e-6, 1e-12])
@pytest.mark.parametrize("limit", ["L1", "1-Q0"])
def test_kappa_closed_form_near_degenerate_limits(limit, gap, rho):
    # L1 = 1/2 - rho*cos(theta); 1 - Q0 = 2*H1/H is about rho*cos(theta)/rho^2
    # near the rectangular end
    rcos = 0.5 - gap if limit == "L1" else gap * rho * rho
    params = LatticeParams(rho=rho, theta=math.acos(rcos / rho))
    g = cell_geometry(params)
    width = g.L1 if limit == "L1" else 2.0 * g.H1 / g.H
    assert math.isclose(width, gap, rel_tol=1e-3)
    _assert_kappa_matches_reference(params)


def test_kappa_at_the_clamped_right_angle():
    params = LatticeParams(rho=1.0, theta=math.pi / 2 - 1e-6)
    assert abs(kappa_12(params) - KAPPA_12_90DEG) <= 1e-13
    assert abs(kappa_21(params) - KAPPA_21_90DEG) <= 1e-13
    _assert_kappa_matches_reference(params)


def test_kappa_main_matches_reference(params_main):
    k12, k21 = _kappa_reference(params_main)
    assert abs(k12 - KAPPA_12_MAIN) <= 4e-11
    assert abs(k21 - KAPPA_21_MAIN) <= 4e-11


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(lattices(rcos_min=1e-16))
def test_coefficients_12_match_rho_theta_forms(params):
    """alpha1 = (1 - 2 rho cos)^2 cot/(8 rho sin) and alpha2 = cot^2/8, to
    2e-15 relative, down to the rectangular end."""
    sin, cos = math.sin(params.theta), math.cos(params.theta)
    co = coefficients_12(params)
    alpha1 = (1.0 - 2.0 * params.rcos) ** 2 * (cos / sin) / (8.0 * params.rho * sin)
    assert math.isclose(co.alpha1, alpha1, rel_tol=2e-15)
    assert math.isclose(co.alpha2, (cos / sin) ** 2 / 8.0, rel_tol=2e-15)


@pytest.mark.parametrize("rcos", [1e-15, 1e-16])
def test_optimal_n1_near_rectangular_limit(rcos):
    # alpha1*L2/(alpha2*L1) = 1 - 2*rcos, so N1(100) = ceil(100 - 200*rcos)
    assert optimal_n1(LatticeParams(rho=1.0, theta=math.acos(rcos)), 100) == 100


def test_optimal_n1(params_main):
    assert optimal_n1(params_main, 1) == 1
    assert optimal_n1(params_main, 12) == 5  # ceil(0.4 * 12) with ratio 0.4
    for n2 in range(1, 60):
        assert optimal_n1(params_main, 2 * n2) <= 2 * optimal_n1(params_main, n2) + 1


@pytest.mark.parametrize("rho", [1.0, 1.3])
def test_12_scheme_defined_near_rectangular_limit(rho):
    params = LatticeParams(rho=rho, theta=math.pi / 2 - 1e-12)
    assert optimal_n1(params, 7) >= 1
    point = budget_point(params, "12", 4.0)
    assert point.rate_bits <= 4.0 and 0.0 < point.pe < 1.0


def test_tradeoff_curve(params_main):
    single = tradeoff_curve_12(params_main, 1)
    assert len(single) == 1 and single[0].n1 == 1 and single[0].n2 == 1
    curve = tradeoff_curve_12(params_main, 24)
    rates = [p.rate_bits for p in curve]
    pes = [p.pe for p in curve]
    assert all(a < b for a, b in zip(rates, rates[1:]))
    assert all(a > b for a, b in zip(pes, pes[1:]))


def test_asymptotic_constant_12_forms(params_main):
    geo = asymptotic_constant_12(params_main, form="geometric")
    prob = asymptotic_constant_12(params_main, form="probability")
    assert math.isclose(geo, prob, rel_tol=1e-10)
    assert math.isclose(geo, ASYM_12_MAIN, abs_tol=1e-9)


@pytest.mark.parametrize("params", random_valid_params(100, seed=67))
def test_asymptotic_forms_identity(params):
    geo = asymptotic_constant_12(params, form="geometric")
    prob = asymptotic_constant_12(params, form="probability")
    assert math.isclose(geo, prob, rel_tol=1e-10)
    # exponent base: L/(2(L1+L2)) = 1/(1 - rho cos theta)
    g = cell_geometry(params)
    assert math.isclose(
        g.L / (2.0 * (g.L1 + g.L2)), 1.0 / (1.0 - params.rcos), rel_tol=1e-12
    )


def test_asymptotic_constant_12_matches_curve(params_main):
    g = cell_geometry(params_main)
    exponent = g.L / (2.0 * (g.L1 + g.L2))
    p = curve_point(params_main, "12", 256)
    scaled = p.pe * 2.0 ** (exponent * p.rate_bits)
    assert math.isclose(scaled, asymptotic_constant_12(params_main), rel_tol=0.01)


def test_beta_21_values(params_main, params_hex, params_square):
    b = beta_21(params_main)
    assert math.isclose(b, 0.105 / 3.64, rel_tol=1e-12)
    assert math.isclose(b, 0.028845, rel_tol=1e-3)
    assert math.isclose(beta_21(params_hex), 1.0 / 24.0, abs_tol=2e-6)
    assert beta_21(params_square) < 1e-6


def _beta_21_from_spans(params) -> float:
    """beta from the boundary-segment runs across the top band (oracle route).

    Each top segment runs from a side of the cell at tau_1 to the top edge,
    so its run is the width of the region it cuts off the top row x2 = H/2.
    """
    g = cell_geometry(params)
    probs = cross_section(g, [g.H / 2.0], vertical=False).probs[0]
    return g.H1 * (probs[0] + probs[2]) / (2.0 * g.H)


@pytest.mark.parametrize("params", random_valid_params(1000, seed=71))
def test_beta_21_span_rederivation(params):
    assert math.isclose(beta_21(params), _beta_21_from_spans(params), rel_tol=1e-12)


def test_pe_21(params_main):
    b = beta_21(params_main)
    for n in (1, 4, 16):
        assert math.isclose(pe_21(params_main, n), b / n, rel_tol=1e-15)


def test_rate_21(params_main):
    g = cell_geometry(params_main)
    q = (g.H1 / g.H, g.H0 / g.H, g.H1 / g.H)
    want1 = entropy(q) + kappa_21(params_main)
    assert math.isclose(rate_21(params_main, 1), want1, rel_tol=1e-12)
    assert rate_21(params_main, 8) > rate_21(params_main, 4) > want1


def test_asymptotic_constant_21(params_main):
    const = asymptotic_constant_21(params_main)
    assert math.isclose(const, ASYM_21_MAIN, abs_tol=1e-9)
    g = cell_geometry(params_main)
    q0 = g.H0 / g.H
    for n in (1, 4, 16, 1024):
        scaled = pe_21(params_main, n) * 2.0 ** (rate_21(params_main, n) / (1.0 - q0))
        assert math.isclose(scaled, const, rel_tol=1e-12)


def test_round1_distributions_main(params_main):
    q, p = round1_distributions(params_main)
    assert np.allclose(q.probs, [0.11538, 0.76923, 0.11538], atol=5e-6)
    assert np.allclose(p.probs, [0.15, 0.5, 0.35], atol=1e-12)


def test_round1_distributions_hex(params_hex):
    q, p = round1_distributions(params_hex)
    assert np.allclose(q.probs, [1 / 6, 2 / 3, 1 / 6], atol=1e-5)
    assert np.allclose(p.probs, [0.25, 0.5, 0.25], atol=1e-6)


@pytest.mark.parametrize("params", random_valid_params(1000, seed=73))
def test_round1_p0_is_half(params):
    _, p = round1_distributions(params)
    assert p.probs[1] == 0.5


def test_rbar_nbar_values(params_main, params_hex, params_square):
    assert math.isclose(rbar_infinite(params_main), 1.80411, abs_tol=5e-6)
    assert math.isclose(nbar_infinite(params_main), 1.23077, abs_tol=5e-6)
    assert math.isclose(rbar_infinite(params_hex), 2.418, abs_tol=5e-3)
    assert rbar_infinite(params_square) < 1e-3
    assert math.isclose(nbar_infinite(params_square), 1.0, abs_tol=1e-4)


@pytest.mark.parametrize("params", random_valid_params(200, seed=79))
def test_scheme_invariants(params):
    q, p = round1_distributions(params)
    g = cell_geometry(params)
    assert 0.0 <= entropy(q) <= math.log2(3)
    assert 0.0 <= entropy(p) <= math.log2(3)
    lengths = (g.L0, g.L1, g.L1, g.L2, g.L2)
    assert 0.0 <= entropy(lengths) <= math.log2(5)
    assert rbar_infinite(params) >= entropy(q)
    assert 1.0 <= nbar_infinite(params) <= 2.0
    pe_cap = babai_error_probability(params)
    for n in (1, 3, 9):
        assert 0.0 < pe_12(params, n, n) <= pe_cap + 1e-15
        assert 0.0 < pe_21(params, n) <= pe_cap + 1e-15


def test_rbar_decreasing_in_theta():
    thetas = np.linspace(math.pi / 3 + 1e-6, math.pi / 2 - 1e-6, 50)
    vals = [rbar_infinite(LatticeParams(1.0, float(t))) for t in thetas]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert math.isclose(vals[0], 2.42, abs_tol=0.01)


def test_pe_at_rate_exact_point(params_main):
    pt = curve_point(params_main, "21", 7)
    below, interp = pe_at_rate(params_main, "21", pt.rate_bits)
    assert below == pt.pe
    assert math.isclose(interp, pt.pe, rel_tol=1e-12)


def test_pe_at_rate_budget_too_small(params_main):
    with pytest.raises(BudgetTooSmall):
        pe_at_rate(params_main, "21", 0.5)
    with pytest.raises(BudgetTooSmall):
        pe_at_rate(params_main, "12", 1.0)


def test_pe_at_rate_decreasing_in_budget(params_main):
    for scheme in ("12", "21"):
        prev = 1.0
        for budget in (3.0, 4.0, 6.0, 9.0, 12.0):
            below, interp = pe_at_rate(params_main, scheme, budget)
            assert interp <= below
            assert interp < prev
            prev = interp
        assert prev < 1e-4


def test_pe_at_rate_21_vs_enumeration(params_main):
    """Independent oracle: linear scan of the 21 curve around budget 4.0."""
    budget = 4.0
    n = 1
    while rate_21(params_main, n + 1) <= budget:
        n += 1
    below, interp = pe_at_rate(params_main, "21", budget)
    assert below == pe_21(params_main, n)
    assert budget_point(params_main, "21", budget).n == n
    # frozen oracle values for this budget
    assert math.isclose(below, 6.9727e-06, rel_tol=1e-4)
    assert math.isclose(interp, 6.9722e-06, rel_tol=1e-4)


def test_pe_at_rate_12_bracketing(params_main):
    budget = 4.0
    pt = budget_point(params_main, "12", budget)
    nxt = curve_point(params_main, "12", pt.n2 + 1)
    assert pt.rate_bits <= budget < nxt.rate_bits
    below, interp = pe_at_rate(params_main, "12", budget)
    assert below == pt.pe
    assert nxt.pe < interp < pt.pe


@pytest.mark.parametrize("budget", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("scheme", ["12", "21"])
@pytest.mark.parametrize("search", [budget_point, pe_at_rate])
def test_non_finite_budget_raises(search, scheme, budget, params_main):
    with pytest.raises(ValueError, match="rate budget must be finite"):
        search(params_main, scheme, budget)


@pytest.mark.parametrize(
    "search, arg", [(curve_point, 3), (budget_point, 4.0), (budget_pe, 4.0), (pe_at_rate, 4.0)]
)
def test_scheme_must_be_a_string(search, arg, params_main):
    """The int 12 is not the scheme "12": it raises rather than being coerced."""
    with pytest.raises(ValueError, match="unknown scheme 12"):
        search(params_main, 12, arg)


@pytest.mark.parametrize(
    "theta",
    [math.pi / 3 + 1e-6, math.pi / 3 + 1e-12, math.pi / 2 - 1e-6, math.pi / 2 - 1e-12],
    ids=["hex-1e-6", "hex-1e-12", "rect-1e-6", "rect-1e-12"],
)
@pytest.mark.parametrize("scheme", ["12", "21"])
def test_pe_at_rate_near_degenerate_limits(scheme, theta, monkeypatch):
    """pe_at_rate stays well defined as L1 -> 0 (hexagonal end) and 1 - Q0 -> 0
    (rectangular end), at budgets from the coarsest rate up to 16 bits.

    On the hexagonal end the 12 scheme reaches its size cap of 2^20 near 12
    bits; above that pe_below stays at the cap point and pe_interp
    extrapolates from the last two curve points.  The 21 scheme reaches its
    cap of 2^62 at the rectangular end.  curve_point is memoized here (it is
    pure) so the cap point, about a second of rate_12, is computed once.
    """
    params = LatticeParams(1.0, theta)
    memo = {}
    original = curve_point

    def cached(p, s, size):
        if (s, size) not in memo:
            memo[s, size] = original(p, s, size)
        return memo[s, size]

    monkeypatch.setattr("babai_refine.analytics.curve_point", cached)
    coarsest = curve_point(params, scheme, 1).rate_bits
    budgets = [coarsest] + [float(b) for b in range(1, 17) if b > coarsest]
    prev = math.inf
    for budget in budgets:
        below, interp = pe_at_rate(params, scheme, budget)
        assert math.isfinite(below) and 0.0 < below <= 1.0, budget
        assert math.isfinite(interp) and 0.0 < interp <= 1.0, budget
        assert below <= prev, budget
        assert interp <= below * (1.0 + 1e-12), budget
        assert below == budget_point(params, scheme, budget).pe, budget
        prev = below
