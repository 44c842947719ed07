import dataclasses
import math
import struct

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from babai_refine import (
    BoundarySegment,
    CellGeometry,
    InvalidParams,
    IntegerPair,
    LatticeParams,
    OutOfCell,
    Point2,
    babai_error_probability,
    babai_nearest_plane,
    cell_geometry,
    exact_nearest_point,
    in_voronoi_cell,
    lattice_point,
    make_generator,
    relevant_vectors,
    row_cuts,
    strip_cuts,
)

from babai_refine.analytics import _SUM_TOL, round1_distributions
from babai_refine.cli import main
from babai_refine.lattice import round1_code

from conftest import lattices, random_valid_params

SIN03 = math.sqrt(1.0 - 0.09)  # sin(acos(0.3))


def test_params_are_the_basis_main(params_main):
    """v1 = (1, 0) and v2 = (rcos, rsin) are read off the params themselves;
    make_generator is the identity."""
    assert lattice_point(IntegerPair(1, 0), params_main) == (1.0, 0.0)
    assert lattice_point(IntegerPair(0, 1), params_main) == (params_main.rcos, params_main.rsin)
    assert math.isclose(params_main.rcos, 0.3, rel_tol=1e-15)
    assert math.isclose(params_main.rsin, SIN03, rel_tol=1e-15)
    assert make_generator(params_main) is params_main


def test_params_validity_boundaries():
    with pytest.raises(InvalidParams):
        LatticeParams(rho=1.0, theta=math.pi / 3)  # rho*cos = 1/2 exactly
    LatticeParams(rho=1.0, theta=math.pi / 3 + 1e-6)  # just inside: accepted
    with pytest.raises(InvalidParams):
        LatticeParams(rho=0.9, theta=math.pi / 2 - 0.1)
    with pytest.raises(InvalidParams):
        LatticeParams(rho=1.0, theta=2.0)  # rho*cos(theta) < 0
    with pytest.raises(InvalidParams):
        LatticeParams(rho=1.0, theta=float("nan"))


@pytest.mark.parametrize("theta", [-1.2, 2 * math.pi - 1.2])
def test_params_reject_a_negative_sine(theta):
    """rho*cos(theta) lies in (0, 1/2), but sin(theta) < 0 would make the
    cell height H negative: rejected, not flipped."""
    assert 0.0 < math.cos(theta) < 0.5
    with pytest.raises(InvalidParams, match=r"sin\(theta\) must be positive"):
        LatticeParams(rho=1.0, theta=theta)


@pytest.mark.parametrize(
    "argv",
    [
        ["geometry", "--theta-deg", "-70"],
        ["trace", "--scheme", "inf", "--theta-deg", "-70", "--x1", "0.1", "--x2", "0.1"],
        ["simulate", "--scheme", "12", "--theta-deg", "-70", "--n1", "2", "--n2", "3"],
    ],
    ids=lambda argv: argv[0],
)
def test_cli_rejects_a_negative_sine(argv, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and "sin(theta) must be positive" in err


PROPERTY = settings(max_examples=500, derandomize=True, database=None, deadline=None)


@PROPERTY
@given(lattices(rcos_min=1e-12))
def test_v2_from_theta_is_the_trigonometric_product(params):
    """From (rho, theta), v2 is computed once: fl(rho*cos), fl(rho*sin)."""
    assert params.rcos == params.rho * math.cos(params.theta)
    assert params.rsin == params.rho * math.sin(params.theta)


@PROPERTY
@given(
    st.floats(1.0, 1e100),
    st.floats(0.0, 0.5, exclude_min=True, exclude_max=True),
)
def test_from_rcos_keeps_c_exactly(rho, c):
    """from_rcos stores c as given and H = sqrt((rho - c)(rho + c)): three
    correctly rounded operations under a correctly rounded sqrt, so within
    2 ulps of the exact sqrt(rho^2 - c^2)."""
    params = LatticeParams.from_rcos(rho, c)
    assert params.rcos == c and params.rho == rho
    assert params.theta == math.acos(c / rho)
    with mpmath.workdps(50):
        exact = mpmath.sqrt(mpmath.mpf(rho) ** 2 - mpmath.mpf(c) ** 2)
        assert abs(mpmath.mpf(params.rsin) - exact) <= 2 * math.ulp(float(exact))


def test_from_rcos_validates_c_like_the_theta_route():
    for c in (0.0, -0.1, 0.5, 0.6, math.nan, math.inf):
        with pytest.raises(InvalidParams, match=r"rho\*cos\(theta\) must lie strictly"):
            LatticeParams.from_rcos(1.0, c)
    with pytest.raises(InvalidParams, match=r"got -0.1$"):
        LatticeParams.from_rcos(1.0, -0.1)
    with pytest.raises(InvalidParams, match="rho must be >= 1"):
        LatticeParams.from_rcos(0.9, 0.3)
    with pytest.raises(InvalidParams, match="finite"):
        LatticeParams.from_rcos(math.nan, 0.3)


def test_from_rcos_is_another_lattice_than_its_theta():
    """c = 0.3 and c = cos(acos(0.3)) = 0.29999999999999993 are two lattices:
    equality, hash and cell_geometry's cache keep them apart."""
    exact, via_theta = LatticeParams.from_rcos(1.0, 0.3), LatticeParams(1.0, math.acos(0.3))
    assert exact.theta == via_theta.theta and exact.rcos != via_theta.rcos
    assert exact != via_theta and hash(exact) != hash(via_theta)
    assert cell_geometry(exact).L0 == 0.3 and cell_geometry(exact).t_1 == 0.15
    assert cell_geometry(via_theta).L0 == 0.29999999999999993
    assert LatticeParams.from_rcos(1.0, 0.3) == exact


U = 2.0**-53  # unit roundoff


@pytest.mark.parametrize("exact_rcos", [False, True])
@PROPERTY
@given(data=st.data())
def test_heights_match_50_digit_reference(exact_rcos, data):
    """H1, H21 and H22 against their rational forms in (c, H) at 50 digits,
    with c = rho*cos(theta) and H = rho*sin(theta) exact (or c as given).

    Bound: c and H carry at most about 1.5u each (libm cos/sin within an
    ulp, times rho), each of the five operations adds u/2, and H1, H22 are
    at most first-order in the error of c: 5u in all, asserted as 8u.  H21
    holds 1 - 2c, which magnifies the error of c by 1/(1 - 2c) (up to 5e5
    here); its bound is 8u/(1 - 2c).
    """
    params = data.draw(lattices(rcos_min=1e-12, exact_rcos=exact_rcos))
    g = cell_geometry(params)
    with mpmath.workdps(50):
        rho, theta = mpmath.mpf(params.rho), mpmath.mpf(params.theta)
        if exact_rcos:
            c = mpmath.mpf(params.rcos)
            h = mpmath.sqrt(rho**2 - c**2)
        else:
            c, h = rho * mpmath.cos(theta), rho * mpmath.sin(theta)
        want = {
            "H1": c * (1 - c) / (2 * h),
            "H21": c * (1 - 2 * c) / (2 * h),
            "H22": c**2 / (2 * h),
        }
        for name, exact in want.items():
            rel = abs((mpmath.mpf(getattr(g, name)) - exact) / exact)
            bound = 8 * U / (1 - 2 * float(c)) if name == "H21" else 8 * U
            assert rel <= bound, (name, float(rel))


def test_babai_examples(params_main):
    assert babai_nearest_plane(Point2(0.0, 0.0), params_main) == (0, 0)
    # round(1.5/0.95394) = 2, round(0.8 - 0.6) = 0
    assert babai_nearest_plane(Point2(0.8, 1.5), params_main) == (0, 2)
    assert babai_nearest_plane(Point2(0.45, 0.45), params_main) == (0, 0)


def test_babai_residual_containment():
    rng = np.random.default_rng(3)
    for params in random_valid_params(20, seed=5):
        h = params.rsin / 2.0
        for _ in range(200):
            x = Point2(*(rng.uniform(-3, 3, size=2)))
            u = babai_nearest_plane(x, params)
            p = lattice_point(u, params)
            r1, r2 = x[0] - p[0], x[1] - p[1]
            assert -0.5 < r1 <= 0.5
            assert -h < r2 <= h


def test_babai_tie_convention(params_main):
    # residual lands in the half-open cell, so x1 = 1/2 stays with u1 = 0
    assert babai_nearest_plane(Point2(0.5, 0.0), params_main) == (0, 0)
    assert babai_nearest_plane(Point2(1.5, 0.0), params_main) == (1, 0)
    assert babai_nearest_plane(Point2(0.0, params_main.rsin / 2), params_main) == (0, 0)


def test_exact_nearest_examples(params_main):
    assert exact_nearest_point(Point2(0.0, 0.0), params_main) == (0, 0)
    # Babai keeps (0,0) here but v2 is strictly closer
    x = Point2(0.45, 0.45)
    assert exact_nearest_point(x, params_main) == (0, 1)
    d0 = x[0] ** 2 + x[1] ** 2
    v2 = lattice_point(IntegerPair(0, 1), params_main)
    d2 = (x[0] - v2[0]) ** 2 + (x[1] - v2[1]) ** 2
    assert math.isclose(d0, 0.405, rel_tol=1e-12)
    assert math.isclose(d2, 0.2764547, abs_tol=5e-7)
    assert exact_nearest_point(Point2(0.8, 1.5), params_main) == (0, 2)


def test_exact_nearest_window_must_hold_the_neighbours(params_main, params_hex, params_square):
    """window=0 scanned only the Babai point ((0, 0) at (0.45, 0.45), not
    (0, 1)) and window=-1 nothing: both raise.  Every relevant neighbour of
    the Babai point lies in its 3x3 window, so window=1 finds what window=2 does."""
    for window in (0, -1):
        with pytest.raises(ValueError, match="window must be >= 1"):
            exact_nearest_point(Point2(0.45, 0.45), params_main, window=window)
    rng = np.random.default_rng(5)
    for params in (params_main, params_hex, params_square, *random_valid_params(5, seed=3)):
        for x in map(Point2._make, rng.uniform(-3, 3, size=(400, 2)).tolist()):
            assert exact_nearest_point(x, params, window=1) == exact_nearest_point(x, params)


def test_exact_nearest_beats_babai():
    rng = np.random.default_rng(11)
    for params in random_valid_params(10, seed=7):
        for _ in range(300):
            x = Point2(*(rng.uniform(-3, 3, size=2)))
            pb = lattice_point(babai_nearest_plane(x, params), params)
            pe = lattice_point(exact_nearest_point(x, params), params)
            db = (x[0] - pb[0]) ** 2 + (x[1] - pb[1]) ** 2
            de = (x[0] - pe[0]) ** 2 + (x[1] - pe[1]) ** 2
            assert de <= db + 1e-15


def test_relevant_vectors(params_main):
    vecs = relevant_vectors()
    assert len(vecs) == 6
    assert {tuple(v) for v in vecs} == {(1, 0), (-1, 0), (0, 1), (0, -1), (-1, 1), (1, -1)}
    norms = sorted(x1**2 + x2**2 for x1, x2 in (lattice_point(v, params_main) for v in vecs))
    # quadratic-form values 1, rho^2, 1 - 2*rho*cos + rho^2, each twice
    assert np.allclose(norms, [1.0, 1.0, 1.0, 1.0, 1.4, 1.4], rtol=1e-12)


def test_voronoi_membership_vs_oracle(params_main):
    rng = np.random.default_rng(19)
    hits = 0
    for _ in range(10_000):
        x = Point2(*(rng.uniform(-1.2, 1.2, size=2)))
        inside = in_voronoi_cell(x, params_main)
        hits += inside
        assert inside == (exact_nearest_point(x, params_main) == (0, 0))
    assert 0 < hits < 10_000


def test_voronoi_membership_examples(params_main):
    assert in_voronoi_cell(Point2(0.0, 0.0), params_main)
    # x . v2 = 0.56427 > |v2|^2 / 2 = 0.5
    assert not in_voronoi_cell(Point2(0.45, 0.45), params_main)


@pytest.mark.parametrize(
    "x",
    [
        (math.nan, 0.0),
        (0.0, math.nan),
        (math.nan, math.nan),
        (math.inf, 0.0),
        (-math.inf, 0.0),
        (0.0, math.inf),
        (0.0, -math.inf),
        (math.inf, -math.inf),
    ],
)
def test_voronoi_membership_rejects_non_finite_points(params_main, x):
    """Every face must hold, so NaN, which fails each comparison, is outside,
    and so is an infinite coordinate, whatever x . n gives on the others."""
    assert not in_voronoi_cell(Point2(*x), params_main)


def test_exact_nearest_in_cell_takes_neighbor_values(params_main):
    h = params_main.rsin / 2
    rng = np.random.default_rng(23)
    allowed = {(0, 0), (0, 1), (0, -1), (-1, 1), (1, -1)}
    for _ in range(5_000):
        x = Point2(rng.uniform(-0.5, 0.5), rng.uniform(-h, h))
        assert tuple(exact_nearest_point(x, params_main)) in allowed


def test_cell_geometry_main(params_main):
    g = cell_geometry(params_main)
    assert np.allclose(
        [g.t_m2, g.t_m1, g.t_1, g.t_2], [-0.35, -0.15, 0.15, 0.35], atol=1e-12
    )
    assert np.allclose([g.L0, g.L1, g.L2], [0.3, 0.2, 0.15], atol=1e-12)
    assert math.isclose(g.H, 0.95394, abs_tol=5e-6)
    assert math.isclose(g.H1, 0.11007, abs_tol=5e-6)
    assert math.isclose(g.H22, 0.04717, abs_tol=5e-6)
    assert math.isclose(g.H21, 0.06290, abs_tol=5e-6)
    assert math.isclose(g.tau_1, 0.36690, abs_tol=5e-6)


@pytest.mark.parametrize("params", random_valid_params(1000, seed=41))
def test_cell_geometry_identities(params):
    g = cell_geometry(params)
    assert math.isclose(g.L0 + 2 * g.L1 + 2 * g.L2, g.L, rel_tol=1e-12)
    assert math.isclose(g.H0 + 2 * g.H1, g.H, rel_tol=1e-12)
    assert math.isclose(g.H21 + g.H22, g.H1, rel_tol=1e-12)
    assert math.isclose(g.tau_1, g.H / 2 - g.H1, rel_tol=1e-12)
    assert math.isclose(g.tau_m1, -g.tau_1, rel_tol=1e-12)
    assert g.t_m2 < g.t_m1 < 0 < g.t_1 < g.t_2
    assert math.isclose(g.t_1, -g.t_m1, rel_tol=1e-12)
    assert math.isclose(g.t_2, -g.t_m2, rel_tol=1e-12)


def test_cell_geometry_hexagonal_limit(params_hex):
    g = cell_geometry(params_hex)
    assert g.L1 < 1e-5
    assert g.H21 < 1e-5
    ref = 1.0 / (4.0 * math.sqrt(3.0))
    assert math.isclose(g.H1, ref, abs_tol=1e-5)
    assert math.isclose(g.H22, ref, abs_tol=1e-5)
    # diagonal-endpoint identity for tau_1
    c = math.cos(params_hex.theta)
    s = math.sin(params_hex.theta)
    assert math.isclose(g.tau_1, (params_hex.rho - c) / (2 * s), rel_tol=1e-12)


def test_cell_geometry_square_limit(params_square):
    g = cell_geometry(params_square)
    assert g.H1 < 1e-5 and g.H21 < 1e-5 and g.H22 < 1e-5
    assert math.isclose(g.L1, 0.5, abs_tol=1e-5)
    assert g.L2 < 1e-5


def test_boundary_segments_structure(params_main):
    g = cell_geometry(params_main)
    assert len(g.boundary_segments) == 4
    neighbors = {tuple(s.neighbor) for s in g.boundary_segments}
    assert neighbors == {(0, 1), (0, -1), (-1, 1), (1, -1)}
    by_nb = {tuple(s.neighbor): s for s in g.boundary_segments}
    v2 = by_nb[(0, 1)]
    # the bisector of v2 runs corner-to-corner over the right error rectangle
    assert v2.x1_span == (g.t_1, 0.5)
    assert v2.x2_span == (g.tau_1, g.H / 2)
    assert math.isclose(v2.x2_at(g.t_1), g.H / 2, abs_tol=1e-12)
    assert math.isclose(v2.x2_at(0.5), g.tau_1, abs_tol=1e-12)
    w = by_nb[(-1, 1)]
    assert w.x1_span == (-0.5, g.t_m2)
    assert w.x2_span == (g.tau_1, g.H / 2)
    assert math.isclose(w.x2_at(-0.5), g.tau_1, abs_tol=1e-12)
    assert math.isclose(w.x2_at(g.t_m2), g.H / 2, abs_tol=1e-12)
    assert w.slope > 0 > v2.slope


# rho*cos(theta) from deep in the rectangular limit to just below the hexagonal one
RCOS_SWEEP = [10.0**k for k in range(-15, 0)] + [2e-12, 5e-7, 0.3, 0.5 - 1e-6, 0.5 - 1e-9]


@pytest.mark.parametrize("rcos", RCOS_SWEEP)
@pytest.mark.parametrize("rho", [1.0, 1.3])
def test_boundary_spans_are_the_thresholds(rho, rcos):
    """All four segments exist at every lattice, spanning exactly t/tau to the edge."""
    g = cell_geometry(LatticeParams(rho=rho, theta=math.acos(rcos / rho)))
    top, bottom = (g.tau_1, g.H / 2), (-g.H / 2, g.tau_m1)
    spans = [(tuple(s.neighbor), s.x1_span, s.x2_span) for s in g.boundary_segments]
    assert spans == [
        ((0, 1), (g.t_1, 0.5), top),
        ((0, -1), (-0.5, g.t_m1), bottom),
        ((-1, 1), (-0.5, g.t_m2), top),
        ((1, -1), (g.t_2, 0.5), bottom),
    ]


@pytest.mark.parametrize("params", random_valid_params(50, seed=43))
def test_diagonal_identity(params):
    """Each top error rectangle's Voronoi boundary is exactly its diagonal."""
    g = cell_geometry(params)
    by_nb = {tuple(s.neighbor): s for s in g.boundary_segments}
    assert math.isclose(by_nb[(0, 1)].x2_at(0.5), g.tau_1, rel_tol=1e-12)
    assert math.isclose(by_nb[(-1, 1)].x2_at(-0.5), g.tau_1, rel_tol=1e-12)
    c, s, rho = params.rcos / params.rho, math.sin(params.theta), params.rho
    assert math.isclose(g.tau_1, (rho - c) / (2 * s), rel_tol=1e-12)


def test_strip_cuts_center(params_main):
    spec = strip_cuts(params_main, 0.0)
    assert spec.cuts == ()
    assert spec.labels == (IntegerPair(0, 0),)


def test_strip_cuts_outer(params_main):
    spec = strip_cuts(params_main, 0.45)
    # line-bisector intersections computed directly
    upper = (0.5 - 0.3 * 0.45) / SIN03
    lower = -(0.7 - 0.7 * 0.45) / SIN03
    assert np.allclose(spec.cuts, [lower, upper], atol=1e-12)
    assert spec.labels == (IntegerPair(1, -1), IntegerPair(0, 0), IntegerPair(0, 1))


def test_strip_cuts_inner(params_main):
    spec = strip_cuts(params_main, 0.25)
    assert len(spec.cuts) == 1
    assert math.isclose(spec.cuts[0], (0.5 - 0.075) / SIN03, abs_tol=1e-12)
    assert spec.labels == (IntegerPair(0, 0), IntegerPair(0, 1))


def test_strip_cuts_counts_by_interval(params_main):
    g = cell_geometry(params_main)
    # interval interiors: 0 / 1 / 2 cuts; at the shared abscissae t_m2 and
    # t_2 the extra cut would sit exactly on the cell edge and is dropped,
    # keeping strip_cuts(-x1) the exact mirror of strip_cuts(x1)
    for x1, want in [
        (-0.49, 2), (g.t_m2, 1), (-0.2, 1), (g.t_m1, 0),
        (0.0, 0), (g.t_1, 0), (0.2, 1), (g.t_2, 1), (0.45, 2), (0.5, 2),
    ]:
        assert len(strip_cuts(params_main, x1).cuts) == want, x1


def test_row_cuts_examples(params_main):
    spec = row_cuts(params_main, 0.40)
    left = (SIN03 * 0.40 - 0.7) / 0.7
    right = (0.5 - SIN03 * 0.40) / 0.3
    assert np.allclose(spec.cuts, [left, right], atol=1e-12)
    assert spec.labels == (IntegerPair(-1, 1), IntegerPair(0, 0), IntegerPair(0, 1))
    # point reflection
    neg = row_cuts(params_main, -0.40)
    assert np.allclose(neg.cuts, [-right, -left], atol=1e-12)
    assert neg.labels == (IntegerPair(0, -1), IntegerPair(0, 0), IntegerPair(1, -1))


def test_row_cuts_center_and_counts(params_main):
    g = cell_geometry(params_main)
    assert row_cuts(params_main, 0.0).cuts == ()
    assert len(row_cuts(params_main, g.tau_1).cuts) == 0  # tau_1 belongs to J_0
    assert len(row_cuts(params_main, g.H / 2).cuts) == 2
    assert len(row_cuts(params_main, math.nextafter(g.tau_1, 1.0)).cuts) == 2


@pytest.mark.parametrize("params", random_valid_params(25, seed=47))
def test_cut_point_symmetry(params):
    g = cell_geometry(params)
    rng = np.random.default_rng(49)
    for _ in range(40):
        x1 = float(rng.uniform(-0.499, 0.499))
        a, b = strip_cuts(params, x1), strip_cuts(params, -x1)
        assert np.allclose(sorted(-c for c in a.cuts), b.cuts, atol=1e-12)
        assert tuple(b.labels) == tuple(-l for l in reversed(a.labels))
        x2 = float(rng.uniform(-g.H / 2 * 0.999, g.H / 2 * 0.999))
        a, b = row_cuts(params, x2), row_cuts(params, -x2)
        assert np.allclose(sorted(-c for c in a.cuts), b.cuts, atol=1e-12)
        assert tuple(b.labels) == tuple(-l for l in reversed(a.labels))


def test_cuts_strictly_inside_cross_section(params_main):
    g = cell_geometry(params_main)
    rng = np.random.default_rng(53)
    for _ in range(500):
        x1 = float(rng.uniform(-0.5 + 1e-9, 0.5))
        for c in strip_cuts(params_main, x1).cuts:
            assert -g.H / 2 < c < g.H / 2
        x2 = float(rng.uniform(-g.H / 2 + 1e-9, g.H / 2))
        for c in row_cuts(params_main, x2).cuts:
            assert -0.5 < c < 0.5


@pytest.mark.parametrize("params", random_valid_params(8, seed=97))
def test_cut_regions_decode_like_the_oracle(params):
    """Decoding a point by its strip (or row) region reproduces the exact
    nearest point: the cuts at a given abscissa are the true boundary
    crossings there."""
    h = params.rsin / 2
    rng = np.random.default_rng(101)
    for _ in range(250):
        x1 = float(rng.uniform(-0.5, 0.5))
        x2 = float(rng.uniform(-h, h))
        spec = strip_cuts(params, x1)
        region = sum(x2 > c for c in spec.cuts)
        assert spec.labels[region] == exact_nearest_point(Point2(x1, x2), params)
        spec = row_cuts(params, x2)
        region = sum(x1 > c for c in spec.cuts)
        assert spec.labels[region] == exact_nearest_point(Point2(x1, x2), params)


def test_cuts_out_of_cell(params_main):
    with pytest.raises(OutOfCell):
        strip_cuts(params_main, 0.51)
    with pytest.raises(OutOfCell):
        strip_cuts(params_main, -0.5)  # left edge excluded
    with pytest.raises(OutOfCell):
        row_cuts(params_main, params_main.rsin)


def _rho_theta_babai_error(params) -> float:
    """cot(theta)(1 - rho cos(theta))/(4 rho sin(theta)), from theta alone,
    with no cell constant: the reduction of H1/(2H) the closed form must meet."""
    sin, cos = math.sin(params.theta), math.cos(params.theta)
    return (cos / sin) * (1.0 - params.rcos) / (4.0 * params.rho * sin)


def test_babai_error_probability_closed_form(params_main):
    pe = babai_error_probability(params_main)
    assert math.isclose(pe, _rho_theta_babai_error(params_main), rel_tol=2e-15)
    assert math.isclose(pe, 0.0576923, abs_tol=1e-7)


def test_babai_error_probability_limits(params_hex, params_square):
    assert math.isclose(babai_error_probability(params_hex), 1.0 / 12.0, abs_tol=2e-6)
    assert babai_error_probability(params_square) < 1e-5


@pytest.mark.parametrize("params", random_valid_params(200, seed=59))
def test_babai_error_probability_reduction(params):
    pe = babai_error_probability(params)
    assert math.isclose(pe, _rho_theta_babai_error(params), rel_tol=2e-15)
    assert 0.0 < pe < 1.0


def _clip_polygon_halfplane(
    poly: list[tuple[float, float]], n: tuple[float, float], offset: float
) -> list[tuple[float, float]]:
    """Sutherland-Hodgman step: keep the side x.n <= offset."""
    out: list[tuple[float, float]] = []
    k = len(poly)
    for i in range(k):
        p, q = poly[i], poly[(i + 1) % k]
        fp = p[0] * n[0] + p[1] * n[1] - offset
        fq = q[0] * n[0] + q[1] * n[1] - offset
        if fp <= 0.0:
            out.append(p)
        if (fp < 0.0 < fq) or (fq < 0.0 < fp):
            t = fp / (fp - fq)
            out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    return out


def _polygon_area(poly: list[tuple[float, float]]) -> float:
    s = 0.0
    k = len(poly)
    for i in range(k):
        p, q = poly[i], poly[(i + 1) % k]
        s += p[0] * q[1] - q[0] * p[1]
    return 0.5 * abs(s)


def _clipped_babai_error(params) -> float:
    """Area of B(0) \\ V(0) over det V, independent of cell_geometry: the Babai
    rectangle clipped against the six Voronoi half-planes.  (det - area)/det
    cancels near the rectangular end, so it is exact only in absolute terms."""
    H = params.rsin  # det V of the basis (1, 0), (rcos, rsin)
    poly = [(-0.5, -H / 2), (0.5, -H / 2), (0.5, H / 2), (-0.5, H / 2)]
    for r in relevant_vectors():
        n = lattice_point(r, params)
        poly = _clip_polygon_halfplane(poly, n, 0.5 * (n[0] ** 2 + n[1] ** 2))
    return (H - _polygon_area(poly)) / H


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(lattices(rcos_min=1e-16))
def test_babai_error_probability_matches_rho_theta_form(params):
    """pe = cot(theta)(1 - rho cos(theta))/(4 rho sin(theta)) to 2e-15 relative,
    down to the rectangular end, and the polygon clip to within the clip's
    own rounding: a few ulps of det in the area, so a few 2^-52 absolute."""
    pe = babai_error_probability(params)
    assert math.isclose(pe, _rho_theta_babai_error(params), rel_tol=2e-15)
    assert abs(pe - _clipped_babai_error(params)) <= 4 * 2.0**-52


def _geometry_through_init(params):
    """cell_geometry's fields, built as lattice.py built them through the
    dataclass __init__s, with lattice_point and a fresh IntegerPair each."""
    c, H = params.rcos, params.rsin
    H1 = c * (1.0 - c) / (2.0 * H)
    t_m2, t_m1, t_1, t_2 = (c - 1.0) / 2.0, -c / 2.0, c / 2.0, (1.0 - c) / 2.0
    tau_1 = H / 2.0 - H1
    top, bottom = (tau_1, H / 2.0), (-H / 2.0, -tau_1)
    segments = []
    for r, x1_span, x2_span in (
        (IntegerPair(0, 1), (t_1, 0.5), top),
        (IntegerPair(0, -1), (-0.5, t_m1), bottom),
        (IntegerPair(-1, 1), (-0.5, t_m2), top),
        (IntegerPair(1, -1), (t_2, 0.5), bottom),
    ):
        n = lattice_point(r, params)
        offset = 0.5 * (n[0] ** 2 + n[1] ** 2)
        segments.append(BoundarySegment(r, n, offset, x1_span, x2_span, slope=-n[0] / n[1]))
    return CellGeometry(
        t_m2=t_m2, t_m1=t_m1, t_1=t_1, t_2=t_2, tau_m1=-tau_1, tau_1=tau_1,
        L0=c, L1=(1.0 - 2.0 * c) / 2.0, L2=c / 2.0, L=1.0,
        H=H, H0=H - 2.0 * H1, H1=H1,
        H21=c * (1.0 - 2.0 * c) / (2.0 * H), H22=c * c / (2.0 * H),
        boundary_segments=tuple(segments),
    )


def _bits(value):
    """value with every float replaced by its bytes, so -0.0 and 0.0 differ."""
    if isinstance(value, float):
        return struct.pack("<d", value)
    if isinstance(value, (tuple, list)):
        return tuple(map(_bits, value))
    if isinstance(value, dict):
        return {k: _bits(v) for k, v in value.items()}
    return value


def test_cell_geometry_objects_equal_those_built_through_init():
    """cell_geometry sets its frozen objects' fields without __init__; on
    200 lattices they equal, hash and asdict like __init__-built ones, bit
    for bit, keep their field types and stay frozen."""
    lattices_200 = random_valid_params(100, seed=211) + [
        LatticeParams.from_rcos(p.rho, p.rcos) for p in random_valid_params(100, seed=223)
    ]
    for params in lattices_200:
        cell_geometry.cache_clear()
        got, want = cell_geometry(params), _geometry_through_init(params)
        assert got == want and hash(got) == hash(want)
        assert _bits(dataclasses.asdict(got)) == _bits(dataclasses.asdict(want))
        assert vars(got) == vars(want)
        assert list(vars(got)) == [f.name for f in dataclasses.fields(CellGeometry)]
        for seg, ref in zip(got.boundary_segments, want.boundary_segments, strict=True):
            assert seg == ref and hash(seg) == hash(ref)
            assert type(seg) is BoundarySegment
            assert type(seg.neighbor) is IntegerPair and type(seg.normal) is Point2
            assert list(vars(seg)) == [f.name for f in dataclasses.fields(BoundarySegment)]
            with pytest.raises(dataclasses.FrozenInstanceError):
                seg.offset = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            got.H1 = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            del got.t_1
    with pytest.raises(dataclasses.FrozenInstanceError):
        LatticeParams.from_rcos(1.0, 0.3).rcos = 0.25


_RCOS_EDGES = (5e-324, 1e-300, 1e-16, 0.3, math.nextafter(0.5, 0.0))


@st.composite
def _round1_lattices(draw):
    """rho in [1, 1.5] and c from the edge values or uniform in (0, 1/2),
    as from_rcos(rho, c) or built from theta = acos(c/rho)."""
    rho = draw(st.floats(1.0, 1.5))
    c = draw(st.sampled_from(_RCOS_EDGES) | st.floats(0.0, 0.5, exclude_min=True, exclude_max=True))
    if draw(st.booleans()):
        return LatticeParams.from_rcos(rho, c)
    try:
        return LatticeParams(rho=rho, theta=math.acos(c / rho))
    except InvalidParams:  # rho*cos(theta) rounded onto 0 or 1/2
        return LatticeParams.from_rcos(rho, c)


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(_round1_lattices())
def test_round1_code_is_the_geometry_and_the_distributions(params):
    """round1_code's thresholds are cell_geometry's fields and its
    probabilities round1_distributions', bit for bit; its code lengths are
    -math.log2 of them (-0.0 for 1), inf for 0; and the probabilities are a
    distribution over the whole domain, so a reader may skip the checks."""
    code = round1_code(params)
    g = cell_geometry(params)
    want = (g.t_m2, g.t_1, g.tau_1, -g.tau_m1, g.H1, -g.t_m1, g.t_2)
    got = (code.t_m2, code.t_1, code.tau_1, code.tau_1, code.H1, code.p[0], code.p[2])
    assert _bits(got) == _bits(want)
    q, p = round1_distributions(params)
    assert _bits((code.q, code.p)) == _bits((q.probs, p.probs))
    for probs, bits in ((code.q, code.q_bits), (code.p, code.p_bits)):
        assert _bits(bits) == _bits(tuple(-math.log2(v) if v > 0.0 else math.inf for v in probs))
        assert all(math.isfinite(v) and v >= 0.0 for v in probs)
        assert abs(math.fsum(probs) - 1.0) <= _SUM_TOL
