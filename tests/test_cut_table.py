"""Properties of the closed-form cut table against the brute-force oracle.

For random valid lattices and the two near-degenerate endpoint lattices,
the strip and row cuts must label every region by its exact nearest
lattice point, never repeat a label across a cut, follow the half-open rules
at the exact thresholds t_m2, t_m1, t_1, t_2 and tau_m1, tau_1, and mirror
exactly under x -> -x.  The table must also equal, bit for bit, the
reference kept here: the boolean-mask cross_section it replaced.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from babai_refine import (
    CrossSection,
    LatticeParams,
    Point2,
    cell_geometry,
    cross_section,
    exact_nearest_point,
    row_cuts,
    strip_cuts,
)

from conftest import EPS

# the params_hex and params_square fixtures
HEX = LatticeParams(rho=1.0, theta=math.pi / 3 + EPS)
SQUARE = LatticeParams(rho=1.0, theta=math.pi / 2 - EPS)

PIECE_MIN = 1e-9


def reference_cross_section(geom, coords, vertical, closed=False):
    """cross_section as it was before its writes became whole-array writes:
    one boolean-mask assignment per cut and per label, kept verbatim as the
    frozen reference the table must equal bit for bit."""
    x = np.asarray(coords, dtype=np.float64)
    lo = np.full(x.shape, -np.inf)
    hi = np.full(x.shape, np.inf)
    labels = np.zeros(x.shape + (3, 2))
    for seg in geom.boundary_segments:
        if vertical:
            side, beyond, span, cut = seg.normal[0], seg.normal[1], seg.x1_span, seg.x2_at(x)
        else:
            side, beyond, span, cut = seg.normal[1], seg.normal[0], seg.x2_span, seg.x1_at(x)
        if side > 0.0:
            crosses = x >= span[0] if closed else x > span[0]
        else:
            crosses = x <= span[1] if closed else x < span[1]
        if beyond > 0.0:
            hi[crosses] = cut[crosses]
            labels[crosses, 2] = seg.neighbor
        else:
            lo[crosses] = cut[crosses]
            labels[crosses, 0] = seg.neighbor
    span = geom.H if vertical else 1.0
    half = span / 2.0
    lo_in = np.maximum(lo, -half)
    hi_in = np.minimum(hi, half)
    probs = np.stack([lo_in + half, hi_in - lo_in, half - hi_in], axis=-1) / span
    return CrossSection(lo=lo, hi=hi, labels=labels, probs=probs)


@st.composite
def lattices(draw):
    rho = draw(st.floats(1.0, 2.5))
    rcos = draw(st.floats(1e-6, 0.5 - 1e-6))
    return LatticeParams(rho=rho, theta=math.acos(rcos / rho))


PARAMS = st.one_of(st.sampled_from([HEX, SQUARE]), lattices())
# fraction of the way across the half-open cross-section, excluding its open end
UNIT = st.floats(0.0, 1.0, exclude_max=True)
PROPERTY = settings(max_examples=300, derandomize=True, database=None, deadline=None)


def _thresholds(params):
    g = cell_geometry(params)
    return (g.t_m2, g.t_m1, g.t_1, g.t_2), (g.tau_m1, g.tau_1)


def _check_against_oracle(params, spec, coord, vertical):
    half = params.rsin / 2.0 if vertical else 0.5
    edges = [-half, *spec.cuts, half]
    assert len(spec.labels) == len(edges) - 1
    for label, a, b in zip(spec.labels, edges[:-1], edges[1:]):
        if b - a > PIECE_MIN:
            mid = 0.5 * (a + b)
            probe = Point2(coord, mid) if vertical else Point2(mid, coord)
            assert label == exact_nearest_point(probe, params), (coord, spec)
    for below, above in zip(spec.labels[:-1], spec.labels[1:]):
        assert below != above, (coord, spec)


def _check_mirror(a, b):
    assert b.cuts == tuple(-c for c in reversed(a.cuts))
    assert b.labels == tuple(-label for label in reversed(a.labels))


@PROPERTY
@given(params=PARAMS, u=UNIT)
def test_strip_cuts_match_oracle_and_mirror(params, u):
    x1 = 0.5 - u
    thresholds, _ = _thresholds(params)
    for x in (x1, *thresholds):
        spec = strip_cuts(params, x)
        _check_against_oracle(params, spec, x, vertical=True)
        if x < 0.5:
            _check_mirror(spec, strip_cuts(params, -x))


@PROPERTY
@given(params=PARAMS, u=UNIT)
def test_row_cuts_match_oracle_and_mirror(params, u):
    h = params.rsin / 2.0
    x2 = h - u * params.rsin
    _, thresholds = _thresholds(params)
    for x in (x2, *thresholds):
        spec = row_cuts(params, x)
        _check_against_oracle(params, spec, x, vertical=False)
        if x < h:
            _check_mirror(spec, row_cuts(params, -x))


@PROPERTY
@given(params=PARAMS)
def test_cut_counts_at_exact_thresholds(params):
    strip_t, row_t = _thresholds(params)
    assert [len(strip_cuts(params, t).cuts) for t in strip_t] == [1, 0, 0, 1]
    assert [len(row_cuts(params, t).cuts) for t in row_t] == [0, 0]


@PROPERTY
@given(params=PARAMS, us=st.lists(UNIT, min_size=1, max_size=20))
def test_table_rows_are_the_scalar_cuts(params, us):
    """One table over many strips gives each strip's own cuts and labels."""
    xs = [0.5 - u for u in us]
    table = cross_section(cell_geometry(params), xs, vertical=True)
    for i, x in enumerate(xs):
        spec = strip_cuts(params, x)
        present = [c for c in (table.lo[i], table.hi[i]) if np.isfinite(c)]
        assert tuple(present) == spec.cuts
        assert math.isclose(sum(table.probs[i]), 1.0, rel_tol=1e-12)


def _edge_coords(params, u):
    """Every threshold with both neighbouring floats, +/-0.0, the cell ends
    +/-1/2 and +/-H/2, one NaN and one point a fraction u across the cell."""
    strip_t, row_t = _thresholds(params)
    h = params.rsin / 2.0
    coords = [0.0, -0.0, 0.5, -0.5, h, -h, math.nan, 0.5 - u, h - u * params.rsin]
    for t in (*strip_t, *row_t):
        coords += [np.nextafter(t, -math.inf), t, np.nextafter(t, math.inf)]
    return np.array(coords, dtype=np.float64)


def _assert_same_table(got, want):
    for name, a, b in zip(CrossSection._fields, got, want):
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name


@PROPERTY
@given(params=PARAMS, u=UNIT)
def test_table_equals_the_frozen_reference(params, u):
    """cross_section's lo, hi, labels and probs equal the reference's by
    shape, dtype and bytes, so -0.0 and NaN count, for strips and rows, open
    and closed spans, at every threshold and its neighbours, and on 0-d,
    1-d and 2-d coordinates."""
    g = cell_geometry(params)
    coords = _edge_coords(params, u)
    for vertical in (True, False):
        for closed in (False, True):
            for x in (coords, coords.reshape(3, -1), *coords):
                _assert_same_table(
                    cross_section(g, x, vertical, closed),
                    reference_cross_section(g, x, vertical, closed),
                )
