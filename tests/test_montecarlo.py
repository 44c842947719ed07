import dataclasses
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from babai_refine import montecarlo, protocols, schemes
from babai_refine import (
    LatticeParams,
    Point2,
    SimConfig,
    babai_error_probability,
    babai_nearest_plane,
    babai_batch,
    cell_geometry,
    derive_seed,
    exact_nearest_batch,
    exact_nearest_point,
    quantizer_12,
    quantizer_21,
    run_batch_12,
    run_batch_21,
    run_batch_infinite,
    run_infinite_rounds,
    run_single_round_12,
    run_single_round_21,
    sample_cell_arrays,
    sample_uniform_babai_cell,
    simulate,
)

from conftest import assert_rows_are_eager, fill_every_row, filled_bins, lattices


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5, 5.0, True])
def test_samplers_reject_bad_seeds(seed, params_main):
    """A seed outside [0, 2^64), a float or a bool raises rather than being
    reduced modulo 2^64 (-1 would give seed 2^64 - 1's points, 2^64 + 5 seed 5's)."""
    with pytest.raises(ValueError, match="seed must be"):
        sample_cell_arrays(params_main, np.arange(4, dtype=np.uint64), seed)
    with pytest.raises(ValueError, match="seed must be"):
        sample_uniform_babai_cell(params_main, 3, seed)


def test_samplers_accept_the_seed_range_ends(params_main):
    idx = np.arange(4, dtype=np.uint64)
    for seed in (0, 2**64 - 1):
        x1, x2 = sample_cell_arrays(params_main, idx, seed)
        assert sample_uniform_babai_cell(params_main, 3, seed) == Point2(x1[3], x2[3])


@pytest.mark.parametrize("trial_index", [2.7, 1.0, True, 2**64, 2**64 + 5])
def test_scalar_sampler_rejects_bad_trial_indices(trial_index, params_main):
    """A float, a bool or an index past 2^64 - 1 raises ValueError rather
    than being truncated (2.7 gave trial 2's point, True trial 1's) or
    overflowing."""
    with pytest.raises(ValueError, match="trial_index must be"):
        sample_uniform_babai_cell(params_main, trial_index, 0)


@pytest.mark.parametrize(
    "trial_index",
    [
        np.array([-1]),
        np.array([3, -2], dtype=np.int8),
        [0, -3],
        np.array([1.5]),
        np.array([2.0]),
        np.array([True]),
        np.array([1], dtype=object),
    ],
)
def test_array_sampler_rejects_bad_trial_indices(trial_index, params_main):
    """A negative signed entry or a float, bool or object array raises
    ValueError rather than being cast to uint64 (-1 gave trial 2^64 - 1's
    point, 1.5 trial 1's)."""
    with pytest.raises(ValueError, match="trial indices must be"):
        sample_cell_arrays(params_main, trial_index, 0)


def test_samplers_accept_the_trial_index_range_ends(params_main):
    ends = np.array([0, 2**64 - 1], dtype=np.uint64)
    x1, x2 = sample_cell_arrays(params_main, ends, 7)
    for i, trial_index in enumerate(ends.tolist()):
        assert sample_uniform_babai_cell(params_main, trial_index, 7) == Point2(x1[i], x2[i])
    small = np.arange(200, dtype=np.uint64)
    want = sample_cell_arrays(params_main, small, 7)
    for dtype in (np.uint8, np.int16, np.uint32, np.int64):
        _assert_same_bytes(sample_cell_arrays(params_main, small.astype(dtype), 7), want)
    assert all(x.shape == (0,) for x in sample_cell_arrays(params_main, [], 7))


_U64 = (1 << 64) - 1


def _splitmix64(z):
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _U64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _U64
    return z ^ (z >> 31)


def _reference_point(rsin, seed, trial_index):
    """The sampler's definition in Python ints: slot j of trial i draws
    k = SplitMix64(seed + (2i + j + 1) * golden) >> 11, u = (k + 1) * 2^-53,
    and the point is (u0 - 1/2, (u1 - 1/2) * H)."""
    x = []
    for slot in (0, 1):
        k = _splitmix64((seed + (2 * trial_index + slot + 1) * 0x9E3779B97F4A7C15) & _U64) >> 11
        x.append((k + 1) * 2.0**-53 - 0.5)
    return x[0], x[1] * rsin


_REFERENCE_INDICES = [0, 1, 2**32 - 1, 2**63] + list(range(2**64 - 2**16, 2**64))


@pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1])
@pytest.mark.parametrize("rho", [1.0, 1.4])
def test_samplers_equal_a_python_splitmix64(rho, seed):
    """Both samplers give the definition's points bit for bit, at indices
    and seeds where the folded counter i * 2g + (g + seed) wraps mod 2^64."""
    params = LatticeParams(rho=rho, theta=math.acos(0.3 / rho))
    want = np.array([_reference_point(params.rsin, seed, i) for i in _REFERENCE_INDICES])
    x1, x2 = sample_cell_arrays(params, np.array(_REFERENCE_INDICES, dtype=np.uint64), seed)
    _assert_same_bytes((x1, x2), (want[:, 0].copy(), want[:, 1].copy()))
    # the scalar sampler costs tens of microseconds a call: the named indices
    # and a stride of the top block, its ends included
    for k in [0, 1, 2, 3, *range(4, len(_REFERENCE_INDICES), 1021), len(_REFERENCE_INDICES) - 1]:
        got = sample_uniform_babai_cell(params, _REFERENCE_INDICES[k], seed)
        assert np.array(got).tobytes() == want[k].tobytes()


def test_sampler_determinism(params_main):
    idx = np.arange(1000, dtype=np.uint64)
    a1, a2 = sample_cell_arrays(params_main, idx, seed=42)
    b1, b2 = sample_cell_arrays(params_main, idx, seed=42)
    assert np.array_equal(a1, b1) and np.array_equal(a2, b2)
    c1, _ = sample_cell_arrays(params_main, idx, seed=43)
    assert not np.array_equal(a1, c1)
    pt = sample_uniform_babai_cell(params_main, 7, seed=42)
    assert pt == (a1[7], a2[7])


def test_sampler_supports(params_main):
    idx = np.arange(100_000, dtype=np.uint64)
    x1, x2 = sample_cell_arrays(params_main, idx, seed=3)
    h = params_main.rsin / 2
    assert np.all((x1 > -0.5) & (x1 <= 0.5))
    assert np.all((x2 > -h) & (x2 <= h))


def _unxorshift(z: int, shift: int) -> int:
    """The z0 with z0 ^ (z0 >> shift) == z."""
    z0 = z
    for _ in range(64 // shift):
        z0 = z ^ (z0 >> shift)
    return z0


def _splitmix64_inverse(v: int) -> int:
    """The counter z with _splitmix64(z) == v: each xorshift and each odd
    multiplier of the finaliser undone mod 2^64, in reverse order."""
    z = _unxorshift(v, 31)
    z = (z * pow(0x94D049BB133111EB, -1, 1 << 64)) & _U64
    z = _unxorshift(z, 27)
    z = (z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64)) & _U64
    return _unxorshift(z, 30)


# mixed words whose draws k = word >> 11 are 0 and 2^53 - 1, the extremes,
# with the discarded low bits all clear and all set
_EXTREME_WORDS = (0, (1 << 11) - 1, _U64 - ((1 << 11) - 1), _U64)


def _assert_draws_within_the_cell(params):
    """The extreme draws, through _mixed_draws and through both sampler
    slots, give |x1| <= 1/2 and |x2| <= H/2 exactly, with equality at
    k = 2^53 - 1: the bounds simulate's hexagon test takes for every block."""
    counters = [_splitmix64_inverse(v) for v in _EXTREME_WORDS]
    assert [_splitmix64(z) for z in counters] == list(_EXTREME_WORDS)
    for scale in (1.0, params.rsin):
        z = np.array(counters, dtype=np.uint64)
        x = montecarlo._mixed_draws(z, scale, np.empty_like(z))
        assert np.max(np.abs(x)) <= 0.5 * scale
        assert x[2] == x[3] == 0.5 * scale
        assert x[0] == x[1] == -(0.5 - 2.0**-53) * scale
    g = 0x9E3779B97F4A7C15
    for slot, bound in ((0, 0.5), (1, 0.5 * params.rsin)):
        for k, z in enumerate(counters):
            # trial 0's slot counter is seed + (slot + 1) * g
            point = sample_cell_arrays(params, [0], (z - (slot + 1) * g) & _U64)
            assert abs(point[slot][0]) <= bound
            if k >= 2:
                assert point[slot][0] == bound


@pytest.mark.parametrize("lattice", ["hexagonal", "rcos0.3", "near-rectangular"])
def test_sampler_bounds_hold_at_the_extreme_draws(lattice):
    _assert_draws_within_the_cell(_WS_LATTICES[lattice])


@settings(max_examples=50, derandomize=True, database=None, deadline=None)
@given(params=lattices())
def test_sampler_bounds_hold_at_the_extreme_draws_on_any_lattice(params):
    _assert_draws_within_the_cell(params)


def test_sampler_moments(params_main):
    n = 1_000_000
    idx = np.arange(n, dtype=np.uint64)
    x1, x2 = sample_cell_arrays(params_main, idx, seed=3)
    h = params_main.rsin / 2
    sig1 = (1.0 / math.sqrt(12.0)) / math.sqrt(n)
    sig2 = (params_main.rsin / math.sqrt(12.0)) / math.sqrt(n)
    assert abs(x1.mean()) < 4 * sig1
    assert abs(x2.mean()) < 4 * sig2
    corr = np.corrcoef(x1, x2)[0, 1]
    assert abs(corr) < 4 / math.sqrt(n)


def test_sampler_ks_uniform(params_main):
    n = 1_000_000
    idx = np.arange(n, dtype=np.uint64)
    x1, _ = sample_cell_arrays(params_main, idx, seed=3)
    u = np.sort(x1 + 0.5)
    i = np.arange(1, n + 1)
    d = np.max(np.maximum(i / n - u, u - (i - 1) / n))
    assert d < 1.63 / math.sqrt(n)  # alpha = 0.01 critical value


def test_babai_batch_matches_scalar(params_main):
    rng = np.random.default_rng(5)
    x1 = rng.uniform(-3, 3, size=500)
    x2 = rng.uniform(-3, 3, size=500)
    u1, u2 = babai_batch(params_main, x1, x2)
    for i in range(500):
        want = babai_nearest_plane(Point2(x1[i], x2[i]), params_main)
        assert (u1[i], u2[i]) == want


def test_exact_nearest_batch_matches_scalar(params_main):
    rng = np.random.default_rng(7)
    x1 = rng.uniform(-3, 3, size=500)
    x2 = rng.uniform(-3, 3, size=500)
    e1, e2 = exact_nearest_batch(params_main, x1, x2)
    for i in range(500):
        want = exact_nearest_point(Point2(x1[i], x2[i]), params_main)
        assert (e1[i], e2[i]) == want


def _window_scan(params, x1, x2):
    """Reference oracle: the full 5x5 window around Babai, scanned in
    ascending (u2, u1) order with strict-improvement updates."""
    c, s = params.rcos, params.rsin
    b1, b2 = babai_batch(params, x1, x2)
    best_d2 = np.full(x1.shape, np.inf)
    best_u1 = np.zeros_like(x1)
    best_u2 = np.zeros_like(x1)
    for du2 in (-2.0, -1.0, 0.0, 1.0, 2.0):
        for du1 in (-2.0, -1.0, 0.0, 1.0, 2.0):
            cu1 = b1 + du1
            cu2 = b2 + du2
            dx = x1 - (cu1 + c * cu2)
            dy = x2 - s * cu2
            d2 = dx * dx + dy * dy
            better = d2 < best_d2
            best_d2[better] = d2[better]
            best_u1[better] = cu1[better]
            best_u2[better] = cu2[better]
    return best_u1, best_u2


def _oracle_lattices():
    """Near-hexagonal, near-rectangular, rcos 0.3, and random reduced lattices."""
    rng = np.random.default_rng(2002)
    cases = {
        "hex": LatticeParams(rho=1.0, theta=math.pi / 3 + 1e-12),
        "near-rect": LatticeParams(rho=1.0, theta=math.pi / 2 - 1e-3),
        "rcos0.3": LatticeParams(rho=1.0, theta=math.acos(0.3)),
    }
    for k in range(5):
        rho = float(rng.uniform(1.0, 2.0))
        rcos = float(rng.uniform(1e-3, 0.499))
        cases[f"random{k}"] = LatticeParams(rho=rho, theta=math.acos(rcos / rho))
    return [pytest.param(p, id=name) for name, p in cases.items()]


def _boundary_points(params):
    """Points on (or an ulp off) the cell and Voronoi boundaries, translated.

    Midpoints r/2 of the six relevant vectors, the six Voronoi vertices
    (circumcentres of 0 and two adjacent relevant vectors), points along
    x1 = +-1/2 and x2 = +-H/2 including the Babai cell's corners, each
    shifted by lattice points u1*v1 + u2*v2 with |u1|, |u2| <= 2.
    """
    c, s = params.rcos, params.rsin
    rel = [(1.0, 0.0), (c, s), (c - 1.0, s)]
    rel += [(-a, -b) for a, b in rel]
    pts = [(0.5 * a, 0.5 * b) for a, b in rel]
    ring = [rel[0], rel[1], rel[2], rel[3], rel[4], rel[5], rel[0]]
    for (a1, a2), (b1, b2) in zip(ring[:-1], ring[1:]):
        det = a1 * b2 - a2 * b1
        ra, rb = 0.5 * (a1 * a1 + a2 * a2), 0.5 * (b1 * b1 + b2 * b2)
        pts.append(((ra * b2 - rb * a2) / det, (a1 * rb - b1 * ra) / det))
    ts = np.linspace(-1.0, 1.0, 41)
    pts += [(sx * 0.5, t * s / 2) for sx in (-1.0, 1.0) for t in ts]
    pts += [(t / 2, sy * s / 2) for sy in (-1.0, 1.0) for t in ts]
    base = np.array(pts)
    shifts = np.array(
        [(u1 + c * u2, s * u2) for u2 in range(-2, 3) for u1 in range(-2, 3)]
    )
    xy = (base[None, :, :] + shifts[:, None, :]).reshape(-1, 2)
    xy = np.concatenate([xy, np.nextafter(xy, np.inf), np.nextafter(xy, -np.inf)])
    return xy[:, 0].copy(), xy[:, 1].copy()


@pytest.mark.parametrize("params", _oracle_lattices())
def test_exact_nearest_batch_equals_window_scan(params):
    """The 7-candidate oracle equals the 25-candidate window bit for bit.

    Over all lattices this covers 2^21 random points (in-cell and in the
    box [-3, 3]^2) plus constructed boundary points; a subsample of the
    random points and every constructed point are also checked against the
    scalar brute force, which squares the same way (x*x) and so breaks float
    ties the same way.
    """
    n = 1 << 17
    x1c, x2c = sample_cell_arrays(params, np.arange(n, dtype=np.uint64), seed=2002)
    rng = np.random.default_rng(2002)
    x1b, x2b = rng.uniform(-3.0, 3.0, size=(2, n))
    x1e, x2e = _boundary_points(params)
    x1 = np.concatenate([x1c, x1b, x1e])
    x2 = np.concatenate([x2c, x2b, x2e])
    e1, e2 = exact_nearest_batch(params, x1, x2)
    r1, r2 = _window_scan(params, x1, x2)
    assert e1.dtype == r1.dtype and e2.dtype == r2.dtype
    assert e1.tobytes() == r1.tobytes() and e2.tobytes() == r2.tobytes()
    checked = list(range(0, 2 * n, 997)) + list(range(2 * n, len(x1)))
    for i in checked:
        assert (e1[i], e2[i]) == exact_nearest_point(Point2(x1[i], x2[i]), params)


def _edge_lattices():
    """The oracle lattices plus two whose outer-band bisectors are nearly flat."""
    flat = {
        "rcos1e-9": LatticeParams(rho=1.0, theta=math.acos(1e-9)),
        "rcos1e-15": LatticeParams(rho=1.0, theta=math.acos(1e-15)),
    }
    return _oracle_lattices() + [pytest.param(p, id=name) for name, p in flat.items()]


def _edge_margin(x1, x2):
    """The oracle's pre-filter margin, 2^-30 * (1 + |x1| + |x2|)."""
    return 2.0**-30 * (1.0 + np.abs(x1) + np.abs(x2))


def _steps(x, m):
    """x at 0, +-1 and +-2 ulps, and at +-m and +-2m."""
    up = np.nextafter(x, np.inf)
    down = np.nextafter(x, -np.inf)
    return [
        x, up, np.nextafter(up, np.inf), down, np.nextafter(down, -np.inf),
        x + m, x - m, x + 2.0 * m, x - 2.0 * m,
    ]


def _rectangle_edge_points(params):
    """Points on and around the edges of the four error rectangles, translated.

    The thresholds x1 in {t_m2, t_m1, t_1, t_2, +-1/2, 0} on the lines
    x2 in {tau_m1, tau_1, +-H/2, 0} (which include every rectangle corner
    and the ends of the four bisector segments) and the segments'
    midpoints, each translated by the lattice points with |u1|, |u2| <= 2
    and by far ones (|u1|, |u2| near 2^20 and 2^24), then moved in each
    coordinate by 0, +-1 and +-2 ulps and by +-m and +-2m of the margin at
    the translated point.
    """
    g = cell_geometry(params)
    c, s = params.rcos, params.rsin
    x1s = (g.t_m2, g.t_m1, g.t_1, g.t_2, -0.5, 0.5, 0.0)
    x2s = (g.tau_m1, g.tau_1, -s / 2.0, s / 2.0, 0.0)
    pts = [(a, b) for a in x1s for b in x2s]
    top = 0.5 * (s / 2.0 + g.tau_1)
    mids = [(0.5 * (g.t_1 + 0.5), top), (0.5 * (g.t_m2 - 0.5), top)]
    pts += mids + [(-a, -b) for a, b in mids]
    base = np.array(pts)
    far = [
        (2**20, 2**20), (-(2**20) + 1, 2**20 - 3), (2**20 + 5, -(2**20)), (-(2**20) - 7, -(2**20)),
        (3, 2**20), (2**20, -1), (2**24 + 1, -(2**24)), (-(2**24), 2**24 - 5),
    ]
    us = [(u1, u2) for u2 in range(-2, 3) for u1 in range(-2, 3)] + far
    shifts = np.array([(u1 + c * u2, s * u2) for u1, u2 in us])
    xy = (base[None, :, :] + shifts[:, None, :]).reshape(-1, 2)
    m = _edge_margin(xy[:, 0], xy[:, 1])
    x1 = np.concatenate([a for a in _steps(xy[:, 0], m) for _ in range(9)])
    x2 = np.concatenate([b for _ in range(9) for b in _steps(xy[:, 1], m)])
    return x1, x2


def _assert_same_bytes(got, want):
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert g.tobytes() == w.tobytes()


def _span(params, x1, x2, b1, b2) -> float:
    """max|x1| + max|x2| + max|b1| + rho * max|b2| (b1, b2 arrays or numbers)."""
    maxima = [float(np.max(np.abs(a))) for a in (x1, x2, b1, b2)]
    return maxima[0] + maxima[1] + maxima[2] + params.rho * maxima[3]


@pytest.mark.parametrize("params", _edge_lattices())
def test_exact_nearest_batch_rectangle_edges(params):
    """The oracle equals the window scan at the error rectangles' edges.

    Constructed points sit on, an ulp or two off, and a margin or two off
    the error rectangles' edges and corners, near and far from the origin;
    non-finite coordinates must take the scan and come out as it does.
    """
    x1, x2 = _rectangle_edge_points(params)
    _assert_same_bytes(exact_nearest_batch(params, x1, x2), _window_scan(params, x1, x2))
    odd = np.array([np.nan, np.inf, -np.inf, 0.25, -0.1, cell_geometry(params).tau_1])
    y1, y2 = (a.ravel().copy() for a in np.meshgrid(odd, odd))
    with np.errstate(invalid="ignore"):  # inf - inf in both scans
        _assert_same_bytes(exact_nearest_batch(params, y1, y2), _window_scan(params, y1, y2))


@pytest.mark.parametrize("params", _edge_lattices())
@pytest.mark.parametrize(
    "extra",
    [(2.0**26, 0.0), (2.0**28, 0.0), (np.nan, 0.0), (2.0**29, 0.0)],
    ids=["wide", "far", "nan", "past-half"],
)
def test_exact_nearest_batch_one_margin_per_call(params, extra):
    """One far point widens the whole call's margin, as it and its Babai
    point enter the span: to about 1/8 at 2^26, past 1/2 at 2^28 and 2^29,
    where, as at a NaN, every trial of the call is left uncertified.  Each
    Babai point the hexagon test certifies, with the span measured from the
    call, and each answer of the oracle is the window scan's, the oracle's
    byte for byte."""
    x1, x2 = _rectangle_edge_points(params)
    x1 = np.append(x1, extra[0])
    x2 = np.append(x2, extra[1])
    w1, w2 = _window_scan(params, x1, x2)
    _assert_same_bytes(exact_nearest_batch(params, x1, x2), (w1, w2))
    b1, b2 = babai_batch(params, x1, x2)
    span = _span(params, x1, x2, b1, b2)
    sure = np.ones(len(x1), bool)
    sure[montecarlo._uncertified(params, x1, x2, b1, b2, span, montecarlo.Workspace())] = False
    assert np.all(b1[sure] == w1[sure]) and np.all(b2[sure] == w2[sure])
    assert np.any(sure) == (extra[0] < 2.0**27)


def _hexagon_face_points(params, m):
    """Points a quarter, half and three quarters along each face of V(0),
    moved along the face's inward normal by each of 4m, 2m, m, m/2, 0, -m/2
    and -m (negative: outward) and by +-1 ulp; returns x1, x2 and the inward
    distance of each point."""
    c, s = params.rcos, params.rsin
    rel = [(1.0, 0.0), (c, s), (c - 1.0, s)]
    rel += [(-a, -b) for a, b in rel]
    verts = []
    for (a1, a2), (b1, b2) in zip(rel, rel[1:] + rel[:1]):
        det = a1 * b2 - a2 * b1
        ra, rb = 0.5 * (a1 * a1 + a2 * a2), 0.5 * (b1 * b1 + b2 * b2)
        verts.append(((ra * b2 - rb * a2) / det, (a1 * rb - b1 * ra) / det))
    pts, inward = [], []
    for i, (n1, n2) in enumerate(rel):
        (p1, p2), (q1, q2) = verts[i - 1], verts[i]  # the face of n
        norm = math.hypot(n1, n2)
        for f in (0.25, 0.5, 0.75):
            for d in (4 * m, 2 * m, m, m / 2, 0.0, -m / 2, -m):
                pts.append((p1 + f * (q1 - p1) - d * n1 / norm, p2 + f * (q2 - p2) - d * n2 / norm))
                inward.append(d)
    xy = np.array(pts)
    x1 = np.concatenate([xy[:, 0], np.nextafter(xy[:, 0], np.inf), np.nextafter(xy[:, 0], -np.inf)])
    x2 = np.concatenate([xy[:, 1], np.nextafter(xy[:, 1], -np.inf), np.nextafter(xy[:, 1], np.inf)])
    return x1, x2, np.tile(inward, 3)


@pytest.mark.parametrize("params", _oracle_lattices())
def test_exact_nearest_batch_filter_edge_is_the_margin(params):
    """At the hexagon's faces the hexagon test certifies the Babai point
    exactly for the residuals more than the call's margin M inside V(0).

    Two anchor points at (2, 2) and (-2, -2) fix the span 2 + 2 + max|b1| +
    rho * max|b2|, b the anchors' Babai points, and M = 2^-30 * (1 + span):
    the call's points and Babai points never exceed theirs.  Of the points
    whose Babai point is 0 (so the residual is the point), those 2M or more
    inside every face are certified, those within M/2 of a face or outside
    never are, and every answer, certified or from exact_nearest_batch, is
    the window scan's.
    """
    anchors = np.array([2.0, -2.0])
    a1, a2 = babai_batch(params, anchors, anchors)
    span = 4.0 + np.max(np.abs(a1)) + params.rho * np.max(np.abs(a2))
    m = montecarlo._MARGIN * (1.0 + span)
    y1, y2, inward = _hexagon_face_points(params, m)
    x1 = np.concatenate([y1, anchors])
    x2 = np.concatenate([y2, anchors])
    b1, b2 = babai_batch(params, x1, x2)
    maxima = [np.max(np.abs(a)) for a in (x1, x2, b1, b2)]
    assert maxima[:2] == [2.0, 2.0]
    assert sum(maxima[:3]) + params.rho * maxima[3] == span
    sure = np.ones(len(x1), bool)
    sure[montecarlo._uncertified(params, x1, x2, b1, b2, span, montecarlo.Workspace())] = False
    w1, w2 = _window_scan(params, x1, x2)
    assert np.all(b1[sure] == w1[sure]) and np.all(b2[sure] == w2[sure])
    _assert_same_bytes(exact_nearest_batch(params, x1, x2), (w1, w2))
    at_zero = ((b1 == 0.0) & (b2 == 0.0))[: len(y1)]
    certified = sure[: len(y1)]
    assert np.all(certified[at_zero & (inward >= 2 * m)])
    assert not np.any(certified[at_zero & (inward <= m / 2)])
    assert np.any(at_zero & (inward >= 2 * m)) and np.any(at_zero & (inward <= m / 2))


@pytest.mark.parametrize("params", _oracle_lattices())
def test_exact_nearest_batch_runs_no_hexagon_test(params, monkeypatch):
    """The oracle is a reference independent of the hexagon test that
    simulate trusts: with montecarlo._uncertified made to raise, it still
    equals the window scan on the hexagon's face points and box points."""

    def refuse(*args):
        raise AssertionError("exact_nearest_batch ran the hexagon test")

    monkeypatch.setattr(montecarlo, "_uncertified", refuse)
    f1, f2, _ = _hexagon_face_points(params, 7 * 2.0**-30)
    r1, r2 = np.random.default_rng(27).uniform(-3.0, 3.0, size=(2, 4096))
    x1 = np.concatenate([f1, r1])
    x2 = np.concatenate([f2, r2])
    _assert_same_bytes(exact_nearest_batch(params, x1, x2), _window_scan(params, x1, x2))


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(params=lattices(), seed=st.integers(0, 2**32))
def test_certified_candidate_is_the_window_scans(params, seed):
    """A candidate the hexagon test certifies is the window scan's answer.

    The points lie on the faces of V(0) (and m/2 to 4m inside, up to m
    outside, and an ulp off), in the Babai cell and in the box [-3, 3]^2,
    with anchors at (3, 3) and (-3, -3) that fix the margin of the scalar
    candidate 0 at m = 7 * 2^-30.  Each offset of the 5x5 window is tried as
    arrays about the Babai point and as one scalar candidate for every
    trial.  The Babai point is certified on most cell and box points, 0 on
    most cell points and on every face point 2m or more inside V(0).
    """
    m = 7 * 2.0**-30
    f1, f2, inward = _hexagon_face_points(params, m)
    c1, c2 = sample_cell_arrays(params, np.arange(4096, dtype=np.uint64), seed)
    r1, r2 = np.random.default_rng(seed).uniform(-3.0, 3.0, size=(2, 4096))
    x1 = np.concatenate([f1, c1, r1, [3.0, -3.0]])
    x2 = np.concatenate([f2, c2, r2, [3.0, -3.0]])
    w1, w2 = _window_scan(params, x1, x2)
    b1, b2 = babai_batch(params, x1, x2)
    ws = montecarlo.Workspace()
    for du2 in (-2.0, -1.0, 0.0, 1.0, 2.0):
        for du1 in (-2.0, -1.0, 0.0, 1.0, 2.0):
            for u1, u2 in ((b1 + du1, b2 + du2), (du1, du2)):
                sure = np.ones(len(x1), bool)
                span = _span(params, x1, x2, u1, u2)
                sure[montecarlo._uncertified(params, x1, x2, u1, u2, span, ws)] = False
                got1, got2 = np.broadcast_to(u1, x1.shape), np.broadcast_to(u2, x1.shape)
                assert np.all(got1[sure] == w1[sure]) and np.all(got2[sure] == w2[sure])
                if (du1, du2) == (0.0, 0.0):
                    # the Babai point on the cell and box points, 0 on the cell points
                    kept = sure[len(f1) : None if np.ndim(u1) else len(f1) + len(c1)]
                    assert np.count_nonzero(kept) > 0.8 * len(kept)
                    if np.ndim(u1) == 0:
                        assert np.all(sure[: len(f1)][inward >= 2 * m])


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(params=lattices(), seed=st.integers(0, 2**32))
def test_candidate_proved_wrong_is_not_the_window_scans(params, seed):
    """A candidate the hexagon test proves wrong is not the window scan's
    answer, and the proof stops at the margin.

    The points are test_certified_candidate_is_the_window_scans', with face
    points also 2m to 8m outside V(0) and m to 2m inside.  Each offset of
    the 5x5 window is tried as arrays about the Babai point and as one
    scalar candidate for every trial.  Of the face points, the candidate 0
    is proved wrong on every one 2m or more outside V(0) and on none within
    m/2 of a face or inside it; most box points are proved wrong for every
    candidate but the scan's.
    """
    m = 7 * 2.0**-30
    f1, f2, inward = (
        np.concatenate(parts)
        for parts in zip(_hexagon_face_points(params, m), _hexagon_face_points(params, -2 * m))
    )
    c1, c2 = sample_cell_arrays(params, np.arange(4096, dtype=np.uint64), seed)
    r1, r2 = np.random.default_rng(seed).uniform(-3.0, 3.0, size=(2, 4096))
    x1 = np.concatenate([f1, c1, r1, [3.0, -3.0]])
    x2 = np.concatenate([f2, c2, r2, [3.0, -3.0]])
    w1, w2 = _window_scan(params, x1, x2)
    b1, b2 = babai_batch(params, x1, x2)
    ws = montecarlo.Workspace()
    for du2 in (-2.0, -1.0, 0.0, 1.0, 2.0):
        for du1 in (-2.0, -1.0, 0.0, 1.0, 2.0):
            for u1, u2 in ((b1 + du1, b2 + du2), (du1, du2)):
                span = _span(params, x1, x2, u1, u2)
                wrong = montecarlo._proved_wrong(params, x1, x2, u1, u2, span, ws).copy()
                got1, got2 = np.broadcast_to(u1, x1.shape), np.broadcast_to(u2, x1.shape)
                right = (got1 == w1) & (got2 == w2)
                assert not np.any(wrong & right)
                if np.ndim(u1):
                    box = slice(len(f1) + len(c1), -2)
                    assert np.count_nonzero(wrong[box]) >= 0.8 * np.count_nonzero(~right[box])
                elif (du1, du2) == (0.0, 0.0):
                    face = wrong[: len(f1)]
                    assert np.all(face[inward <= -2 * m])
                    assert not np.any(face[inward >= -m / 2])


def test_exact_nearest_batch_keeps_shape(params_main):
    rng = np.random.default_rng(31)
    x1, x2 = rng.uniform(-3.0, 3.0, size=(2, 6, 50))
    e1, e2 = exact_nearest_batch(params_main, x1, x2)
    f1, f2 = exact_nearest_batch(params_main, x1.ravel(), x2.ravel())
    assert e1.shape == e2.shape == (6, 50)
    _assert_same_bytes((e1, e2), (f1, f2))


@pytest.mark.parametrize("shape", [(3, 4), (2, 2, 5)])
@pytest.mark.parametrize("max_rounds", [1, 64])
def test_batch_infinite_keeps_shape(params_main, shape, max_rounds):
    """N-d points give the raveled call's arrays, in the input's shape.

    Half the points enter an error rectangle, so the bisection (and at
    max_rounds=1 the unhalted fallback) runs on an N-d input too.
    """
    x1, x2 = sample_cell_arrays(params_main, np.arange(1 << 12, dtype=np.uint64), seed=37)
    entered = run_batch_infinite(params_main, x1, x2)["entered_error_rect"]
    size = math.prod(shape)
    pick = np.concatenate(
        [np.flatnonzero(entered)[: size // 2], np.flatnonzero(~entered)[: size - size // 2]]
    )
    x1, x2 = x1[pick], x2[pick]
    want = run_batch_infinite(params_main, x1, x2, max_rounds)
    got = run_batch_infinite(params_main, x1.reshape(shape), x2.reshape(shape), max_rounds)
    assert sorted(got) == sorted(want) and len(got) == 7
    for name, a in got.items():
        assert a.shape == shape and a.dtype == want[name].dtype
        assert a.tobytes() == want[name].tobytes()


@pytest.mark.parametrize("shape", [(3, 4), (2, 2, 5)])
def test_single_round_kernels_keep_shape(params_main, shape):
    """N-d points give the raveled call's arrays, in the input's shape."""
    x1, x2 = sample_cell_arrays(params_main, np.arange(math.prod(shape), dtype=np.uint64), 41)
    for kernel, q in (
        (run_batch_12, quantizer_12(params_main, 2, 3)),
        (run_batch_21, quantizer_21(params_main, 4)),
    ):
        want = kernel(params_main, q, x1, x2)
        got = kernel(params_main, q, x1.reshape(shape), x2.reshape(shape))
        assert sorted(got) == sorted(want) and len(got) == 6
        for name, a in got.items():
            assert a.shape == shape and a.dtype == want[name].dtype
            assert a.tobytes() == want[name].tobytes()


def _arrays_of(out):
    return [out[k] for k in sorted(out)] if isinstance(out, dict) else list(out)


def test_kernels_leave_inputs_untouched(params_main):
    """The oracle, the kernels and the sampler never write to their inputs.

    Writable inputs come back byte-unchanged, and read-only ones are
    accepted and give the same outputs.  The oracle also gets points off
    the cell, so its scan path runs; max_rounds=1 runs the infinite
    kernel's unhalted fallback.
    """
    x1, x2 = sample_cell_arrays(params_main, np.arange(1 << 14, dtype=np.uint64), seed=29)
    far1, far2 = np.random.default_rng(29).uniform(-3.0, 3.0, size=(2, 1 << 12))
    y1, y2 = np.concatenate([x1, far1]), np.concatenate([x2, far2])
    cases = [
        (lambda a, b: exact_nearest_batch(params_main, a, b), y1, y2),
        (lambda a, b: run_batch_12(params_main, quantizer_12(params_main, 2, 3), a, b), x1, x2),
        (lambda a, b: run_batch_21(params_main, quantizer_21(params_main, 4), a, b), x1, x2),
        (lambda a, b: run_batch_infinite(params_main, a, b), x1, x2),
        (lambda a, b: run_batch_infinite(params_main, a, b, max_rounds=1), x1, x2),
    ]
    for kernel, a, b in cases:
        a_in, b_in = a.copy(), b.copy()
        want = _arrays_of(kernel(a_in, b_in))
        assert a_in.tobytes() == a.tobytes() and b_in.tobytes() == b.tobytes()
        a_in.setflags(write=False)
        b_in.setflags(write=False)
        _assert_same_bytes(_arrays_of(kernel(a_in, b_in)), want)

    idx = np.arange(5, 5 + 1000, dtype=np.uint64)
    want = sample_cell_arrays(params_main, idx.copy(), seed=29)
    idx.setflags(write=False)
    for trial_index in (idx, idx.astype(np.int64), idx.tolist()):
        _assert_same_bytes(sample_cell_arrays(params_main, trial_index, seed=29), want)
    assert idx.tobytes() == np.arange(5, 5 + 1000, dtype=np.uint64).tobytes()
    signed = idx.astype(np.int64)
    sample_cell_arrays(params_main, signed, seed=29)
    assert signed.tobytes() == idx.astype(np.int64).tobytes()


@pytest.mark.parametrize("max_rounds", [1, 2, 3])
@pytest.mark.parametrize("lattice", ["params_main", "params_hex"])
def test_batch_infinite_unhalted_decisions_exact(lattice, max_rounds, request):
    params = request.getfixturevalue(lattice)
    x1, x2 = sample_cell_arrays(params, np.arange(1 << 16, dtype=np.uint64), seed=19)
    out = run_batch_infinite(params, x1, x2, max_rounds)
    e1, e2 = exact_nearest_batch(params, x1, x2)
    unh = ~out["halted"]
    assert np.count_nonzero(unh) > 1000
    assert np.array_equal(out["dec1"][unh], e1[unh])
    assert np.array_equal(out["dec2"][unh], e2[unh])


def test_batch_12_matches_scalar(params_main):
    q = quantizer_12(params_main, 2, 3)
    x1, x2 = sample_cell_arrays(params_main, np.arange(2000, dtype=np.uint64), seed=11)
    out = run_batch_12(params_main, q, x1, x2)
    for i in range(2000):
        t = run_single_round_12(Point2(x1[i], x2[i]), params_main, q)
        assert out["u1_symbol"][i] == t.messages[0].symbol
        assert out["u2_symbol"][i] == t.messages[1].symbol
        assert math.isclose(out["u1_bits"][i], t.messages[0].ideal_bits, rel_tol=1e-12)
        assert math.isclose(out["u2_bits"][i], t.messages[1].ideal_bits, rel_tol=1e-12)
        assert (out["dec1"][i], out["dec2"][i]) == t.decision


@pytest.mark.parametrize("scheme,sizes", [("12", {"n1": 2, "n2": 3}), ("21", {"n": 4})])
def test_simulate_builds_one_quantizer_per_call(scheme, sizes, params_main, monkeypatch):
    """Every block of a simulate call reads the one quantizer built for it."""
    name = f"quantizer_{scheme}"
    build = getattr(protocols, name)
    built = []
    monkeypatch.setattr(protocols, name, lambda *args: built.append(args) or build(*args))
    monkeypatch.setattr(montecarlo, "_BLOCK", 1000)
    simulate(SimConfig(params=params_main, scheme=scheme, trials=3000, seed=5, **sizes))
    assert built == [(params_main, *sizes.values())]


def test_single_round_kernels_reject_other_quantizers(params_main, params_hex):
    """The batch kernels check their quantizer as the scalar protocols do."""
    x1, x2 = np.zeros(3), np.zeros(3)
    q12, q21 = quantizer_12(params_main, 2, 3), quantizer_21(params_main, 4)
    for kernel, q, match in (
        (run_batch_12, q21, "takes a quantizer from quantizer_12"),
        (run_batch_12, None, "takes a quantizer from quantizer_12"),
        (run_batch_21, q12, "takes a quantizer from quantizer_21"),
        (run_batch_12, quantizer_12(params_hex, 2, 3), "quantizer was built for"),
        (run_batch_21, quantizer_21(params_hex, 4), "quantizer was built for"),
    ):
        with pytest.raises(ValueError, match=match):
            kernel(params_main, q, x1, x2)


def test_batch_21_matches_scalar(params_main):
    q = quantizer_21(params_main, 4)
    x1, x2 = sample_cell_arrays(params_main, np.arange(2000, dtype=np.uint64), seed=13)
    out = run_batch_21(params_main, q, x1, x2)
    for i in range(2000):
        t = run_single_round_21(Point2(x1[i], x2[i]), params_main, q)
        assert out["u2_symbol"][i] == t.messages[0].symbol
        assert out["u1_symbol"][i] == t.messages[1].symbol
        assert math.isclose(out["u2_bits"][i], t.messages[0].ideal_bits, rel_tol=1e-12)
        assert math.isclose(out["u1_bits"][i], t.messages[1].ideal_bits, rel_tol=1e-12)
        assert (out["dec1"][i], out["dec2"][i]) == t.decision


def test_batch_infinite_matches_scalar(params_main):
    x1, x2 = sample_cell_arrays(params_main, np.arange(2000, dtype=np.uint64), seed=17)
    out = run_batch_infinite(params_main, x1, x2)
    for i in range(2000):
        t = run_infinite_rounds(Point2(x1[i], x2[i]), params_main)
        assert out["halted"][i] == t.halted
        assert out["rounds"][i] == t.rounds
        assert math.isclose(out["bits"][i], t.total_bits, rel_tol=1e-12)
        assert (out["dec1"][i], out["dec2"][i]) == t.decision


def test_simulate_babai_only(params_main):
    cfg = SimConfig(params=params_main, scheme="babai_only", trials=200_000, seed=1)
    rep = simulate(cfg)
    pred = babai_error_probability(params_main)
    assert rep.predicted_pe == pred
    assert abs(rep.empirical_pe - pred) < 4 * rep.empirical_pe_stderr
    assert rep.mean_bits == 0.0 and rep.unhalted_count == 0
    assert rep.trials == 200_000 and rep.seed == 1


def test_simulate_single_trial(params_main):
    rep = simulate(SimConfig(params=params_main, scheme="infinite", trials=1, seed=9))
    assert rep.mean_bits_stderr == 0.0
    assert rep.mean_rounds_stderr == 0.0
    assert rep.empirical_pe in (0.0, 1.0)


def test_simulate_reproducible(params_main):
    cfg = SimConfig(params=params_main, scheme="12", trials=50_000, seed=5, n1=2, n2=3)
    assert simulate(cfg) == simulate(cfg)


def test_simulate_12_matches_formula(params_main):
    cfg = SimConfig(params=params_main, scheme="12", trials=400_000, seed=2, n1=2, n2=3)
    rep = simulate(cfg)
    assert abs(rep.empirical_pe - rep.predicted_pe) < 3.5 * rep.empirical_pe_stderr
    # mean total bits is the exact rate for this scheme
    assert abs(rep.mean_bits - rep.predicted_bits) < 3.5 * rep.mean_bits_stderr
    assert rep.mean_rounds == 1.0


def test_simulate_21_matches_formula(params_main):
    cfg = SimConfig(params=params_main, scheme="21", trials=400_000, seed=2, n=4)
    rep = simulate(cfg)
    assert abs(rep.empirical_pe - rep.predicted_pe) < 3.5 * rep.empirical_pe_stderr


def test_simulate_infinite_zero_error(params_main):
    cfg = SimConfig(params=params_main, scheme="infinite", trials=200_000, seed=3)
    rep = simulate(cfg)
    assert rep.empirical_pe == 0.0
    assert rep.unhalted_count == 0
    assert abs(rep.mean_bits - rep.predicted_bits) < 3.5 * rep.mean_bits_stderr
    assert abs(rep.mean_rounds - rep.predicted_rounds) < 3.5 * rep.mean_rounds_stderr


def test_stage_two_improves_on_babai(params_main):
    seed = 21
    base = simulate(
        SimConfig(params=params_main, scheme="babai_only", trials=200_000, seed=seed)
    )
    for scheme, kw in (("12", {"n1": 1, "n2": 1}), ("21", {"n": 1})):
        rep = simulate(
            SimConfig(params=params_main, scheme=scheme, trials=200_000, seed=seed, **kw)
        )
        assert rep.empirical_pe <= base.empirical_pe


def test_simconfig_validation(params_main):
    with pytest.raises(ValueError):
        SimConfig(params=params_main, scheme="12", trials=10, seed=0)  # sizes missing
    with pytest.raises(ValueError):
        SimConfig(params=params_main, scheme="nope", trials=10, seed=0)
    with pytest.raises(ValueError):
        SimConfig(params=params_main, scheme="infinite", trials=0, seed=0)
    with pytest.raises(ValueError, match="max_rounds must be >= 1"):
        SimConfig(params=params_main, scheme="infinite", trials=10, seed=0, max_rounds=0)
    for scheme, sizes in (
        ("12", {"n1": 2, "n2": 3, "n": 4}),
        ("21", {"n": 4, "n1": 3}),
        ("21", {"n": 4, "n2": 3}),
        ("infinite", {"n": 4}),
        ("babai_only", {"n1": 1, "n2": 1}),
    ):
        with pytest.raises(ValueError, match=f"scheme '{scheme}' takes no"):
            SimConfig(params=params_main, scheme=scheme, trials=10, seed=0, **sizes)
    with pytest.raises(ValueError, match="scheme '12' requires n1 and n2"):
        SimConfig(params=params_main, scheme="12", trials=10, seed=0, n1=2)
    with pytest.raises(ValueError, match="max_rounds must be >= 1"):
        run_batch_infinite(params_main, np.zeros(3), np.zeros(3), max_rounds=0)
    with pytest.raises(ValueError):
        sample_uniform_babai_cell(params_main, -1, seed=0)
    # seeds outside [0, 2**64) and non-int or bool counts are rejected, not coerced
    for seed in (2**64 + 1, 2**64, -1, 1.0, True):
        with pytest.raises(ValueError, match="seed must be"):
            SimConfig(params=params_main, scheme="babai_only", trials=10, seed=seed)
        with pytest.raises(ValueError, match="seed must be"):
            derive_seed(seed, 0)
    assert derive_seed(2**64 - 1, 0) != derive_seed(0, 0)
    # so are streams: -1 gave stream 2**64 - 1's sub-seed, True stream 1's
    for stream in (2**64, -1, 2.5, True):
        with pytest.raises(ValueError, match="stream must be"):
            derive_seed(1, stream)
    assert derive_seed(1, 2**64 - 1) != derive_seed(1, 0)
    for field, value, scheme, sizes in (
        ("trials", True, "babai_only", {}),
        ("trials", 10.0, "babai_only", {}),
        ("max_rounds", 2.0, "infinite", {}),
        ("max_rounds", True, "infinite", {}),
        ("n1", 2.0, "12", {"n2": 3}),
        ("n2", True, "12", {"n1": 2}),
        ("n", 4.0, "21", {}),
    ):
        config = {"trials": 10, field: value, **sizes}
        with pytest.raises(ValueError, match=f"{field} must be an int"):
            SimConfig(params=params_main, scheme=scheme, seed=0, **config)


_BLOCK_CASES = {
    "babai_only": ("babai_only", {}),
    "inf-1": ("infinite", {"max_rounds": 1}),
    "inf-2": ("infinite", {"max_rounds": 2}),
    "inf-64": ("infinite", {"max_rounds": 64}),
    "12-2-3": ("12", {"n1": 2, "n2": 3}),
    "12-300-700": ("12", {"n1": 300, "n2": 700}),
    "21-4": ("21", {"n": 4}),
    "21-999": ("21", {"n": 999}),
    # a quantizer of 40001 bins, shared by every block
    "12-10000-10000": ("12", {"n1": 10000, "n2": 10000}),
}
_BLOCKS = (1000, 7919, montecarlo._CHUNK)
# every case but the largest sizes on every lattice at the small counts, at
# each block size; one case per lattice at the counts that cross a
# reduction chunk, and blocks of 1000 (over a thousand blocks) on the
# cheapest of those only
_BLOCK_RUNS = [
    (lattice, case, trials, block)
    for lattice in ("params_main", "params_hex", "params_square")
    for case in list(_BLOCK_CASES)[:-1]
    for trials in (1, (1 << 16) + 7)
    for block in _BLOCKS
] + [
    (lattice, case, trials, block)
    for lattice, case, trials, blocks in (
        ("params_main", "inf-64", (1 << 20) + 12345, _BLOCKS[1:]),
        ("params_main", "12-300-700", 3 * (1 << 19) + 1, _BLOCKS[1:]),
        ("params_main", "12-10000-10000", (1 << 18) + 3, _BLOCKS[1:]),
        ("params_hex", "21-999", (1 << 20) + 12345, _BLOCKS[1:]),
        ("params_square", "inf-2", 3 * (1 << 19) + 1, _BLOCKS),
    )
    for block in blocks
]


def _report_fields(report) -> tuple:
    """Every SimReport field, floats as float.hex so any changed bit shows."""
    return tuple(
        float.hex(v) if isinstance(v, float) else v for v in dataclasses.astuple(report)
    )


_DEFAULT_BLOCK_REPORTS: dict[tuple, tuple] = {}


@pytest.mark.parametrize("lattice,case,trials,block", _BLOCK_RUNS)
def test_report_independent_of_block_size(lattice, case, trials, block, request, monkeypatch):
    """The per-trial block size never moves a bit of the report.

    The reference run takes the default blocks; the other sets the block to
    `block` trials.
    """
    scheme, kw = _BLOCK_CASES[case]
    config = SimConfig(
        params=request.getfixturevalue(lattice), scheme=scheme, trials=trials, seed=20170125, **kw
    )
    key = (lattice, case, trials)
    if key not in _DEFAULT_BLOCK_REPORTS:
        _DEFAULT_BLOCK_REPORTS[key] = _report_fields(simulate(config))
    want = _DEFAULT_BLOCK_REPORTS[key]
    monkeypatch.setattr(montecarlo, "_BLOCK", block)
    assert _report_fields(simulate(config)) == want


# --- the per-thread workspace ------------------------------------------------

# the benchmark's three lattices and four schemes
_WS_LATTICES = {
    "hexagonal": LatticeParams(rho=1.0, theta=math.pi / 3 + 1e-6),
    "rcos0.3": LatticeParams(rho=1.0, theta=math.acos(0.3)),
    "near-rectangular": LatticeParams(rho=1.0, theta=math.pi / 2 - 1e-3),
}
_WS_SCHEMES = (
    ("babai_only", {}),
    ("infinite", {}),
    ("12", {"n1": 2, "n2": 3}),
    ("21", {"n": 4}),
)
# one block, a partial last block, and a second reduction chunk
_WS_TRIALS = (1 << 15, (1 << 16) + 3, (1 << 20) + 5)

# Runs each config given on stdin on a thread of its own, so each starts
# from an empty workspace, and prints its report's fields.
_FRESH_REPORTS = """
import json, sys, threading
from babai_refine import LatticeParams, SimConfig, simulate
from babai_refine.montecarlo import SimReport

def fields(config):
    report = []
    thread = threading.Thread(target=lambda: report.append(simulate(config)))
    thread.start()
    thread.join()
    return [v.hex() if isinstance(v, float) else v for v in report[0].__dict__.values()]

out = []
for rho, theta, scheme, trials, sizes in json.load(sys.stdin):
    params = LatticeParams(rho=rho, theta=theta)
    out.append(fields(SimConfig(params=params, scheme=scheme, trials=trials, seed=99, **sizes)))
print(json.dumps(out))
"""


def test_workspace_reuse_never_leaks_between_calls():
    """Interleaved simulate calls on one thread equal fresh runs.

    The calls go through every scheme and benchmark lattice at 2^15 trials,
    then at 2^20 + 5 (a second chunk: the workspace grows), then at 2^16 + 3
    (a partial last block, over buffers a larger call filled).  Each report
    equals the same config's report in a separate process, where every
    config runs on a new thread and so on an empty workspace.
    """
    cases = [
        (lat, scheme, sizes, trials)
        for trials in (_WS_TRIALS[0], _WS_TRIALS[2], _WS_TRIALS[1])
        for lat in _WS_LATTICES
        for scheme, sizes in _WS_SCHEMES
    ]
    got = []
    for lat, scheme, sizes, trials in cases:
        config = SimConfig(_WS_LATTICES[lat], scheme, trials=trials, seed=99, **sizes)
        got.append(list(_report_fields(simulate(config))))
    request = [
        (_WS_LATTICES[lat].rho, _WS_LATTICES[lat].theta, scheme, trials, sizes)
        for lat, scheme, sizes, trials in cases
    ]
    src = str(Path(montecarlo.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-c", _FRESH_REPORTS],
        input=json.dumps(request),
        capture_output=True,
        text=True,
        env=env,
        timeout=600,
        check=True,
    )
    fresh = json.loads(done.stdout)
    for case, a, b in zip(cases, got, fresh):
        assert a == b, case
    assert len(fresh) == len(cases)


def test_held_batch_arrays_keep_their_values(params_main, params_hex):
    """Arrays returned by the batch functions belong to the caller: later
    batch calls and simulate calls on the same thread leave them as they were."""
    idx = np.arange(5000, dtype=np.uint64)
    q12, q21 = quantizer_12(params_main, 2, 3), quantizer_21(params_main, 4)

    def calls(params, seed):
        x1, x2 = sample_cell_arrays(params, idx, seed)
        out = [x1, x2, *exact_nearest_batch(params, x1, x2)]
        if params == params_main:
            out += _arrays_of(run_batch_12(params, q12, x1, x2))
            out += _arrays_of(run_batch_21(params, q21, x1, x2))
        out += _arrays_of(run_batch_infinite(params, x1, x2))
        return out

    held = calls(params_main, 1)
    want = [a.copy() for a in held]
    calls(params_main, 2)
    calls(params_hex, 3)
    for scheme, sizes in _WS_SCHEMES:
        config = SimConfig(params_main, scheme, trials=(1 << 16) + 3, seed=4, **sizes)
        simulate(config)
    _assert_same_bytes(held, want)
    assert all(a.flags.writeable for a in held)


@pytest.mark.parametrize("lattice", list(_WS_LATTICES))
def test_bin_index_is_searchsorted(lattice):
    """The single-round kernels' arithmetic bin index equals
    clip(searchsorted(edges, x, side="left") - 1) on every edge and one ulp
    either side, for both axes, off the axis, at +-inf, at 1e308 and at NaN."""
    params = _WS_LATTICES[lattice]
    extra = np.array([np.inf, -np.inf, np.nan, 1e308, -1e308, 0.0, -0.0, 2.0, -2.0])
    for n in (*range(1, 65), 4096):
        for q in (
            quantizer_12(params, n, n),
            quantizer_12(params, n, max(65 - n, 7)),
            quantizer_21(params, n),
        ):
            edges = q.edges
            x = np.concatenate(
                [edges, np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf), extra]
            )
            want = np.clip(np.searchsorted(edges, x, side="left") - 1, 0, len(edges) - 2)
            got = montecarlo._bin_index(q, x, montecarlo.Workspace())
            assert got.dtype == want.dtype
            assert np.array_equal(got, want), (q.sizes, q.vertical)


def test_two_threads_simulate_at_once():
    """Exactly two threads run different configs at the same time, each on
    its own workspace, and each report equals the serial one."""
    configs = [
        SimConfig(_WS_LATTICES["hexagonal"], "infinite", trials=(1 << 18) + 7, seed=5),
        SimConfig(_WS_LATTICES["rcos0.3"], "12", trials=(1 << 18) + 11, seed=6, n1=2, n2=3),
    ]
    serial = [simulate(c) for c in configs]
    start = threading.Barrier(2)
    reports = [None, None]

    def run(i):
        start.wait(timeout=60)
        reports[i] = simulate(configs[i])

    threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=300)
        assert not t.is_alive()
    assert reports == serial


def test_two_threads_fill_one_fresh_quantizer():
    """Two threads run the 21 kernel at once on one shared, fresh quantizer,
    over different points in calls of a few hundred trials, so that their
    row fills interleave.  Each output equals its serial result, the filled
    bins are those the trials fall in, and the final table and rows are the
    eager ones."""
    params = _WS_LATTICES["rcos0.3"]
    points = [
        [a.copy() for a in sample_cell_arrays(params, np.arange(1 << 13, dtype=np.uint64), seed)]
        for seed in (41, 42)
    ]
    calls = [slice(lo, lo + 300) for lo in range(0, 1 << 13, 300)]

    def run(q, x1, x2):
        return [_arrays_of(run_batch_21(params, q, x1[c], x2[c])) for c in calls]

    serial = [run(quantizer_21(params, 999), *p) for p in points]
    q = quantizer_21(params, 999)
    start = threading.Barrier(2)
    outputs = [None, None]

    def worker(i):
        start.wait(timeout=60)
        outputs[i] = run(q, *points[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for got, want in zip(outputs, serial):
        for got_call, want_call in zip(got, want, strict=True):
            _assert_same_bytes(got_call, want_call)
    x2 = np.concatenate([x2 for _, x2 in points])
    landed = np.unique(np.clip(np.searchsorted(q.edges, x2, side="left") - 1, 0, len(q.edges) - 2))
    assert np.array_equal(filled_bins(q), landed)
    assert_rows_are_eager(q, filled_bins(q))
    assert_rows_are_eager(q, fill_every_row(q))


# the middle and last rows of `sweep --rho 1 --grid 3`: theta from the sweep's own
# grid expression, near 75 degrees and pi/2 - 1e-6; the 21 budget point of both is
# capped at 4096 bins a side
_SWEEP_LO, _SWEEP_HI = math.pi / 3 + 1e-6, math.pi / 2 - 1e-6
_SWEEP_ROWS = {
    row: LatticeParams(rho=1.0, theta=_SWEEP_LO + row * ((_SWEEP_HI - _SWEEP_LO) / 2))
    for row in (1, 2)
}


@pytest.mark.parametrize("row", list(_SWEEP_ROWS))
def test_simulate_fills_only_the_bins_its_trials_land_in(row, monkeypatch):
    """A 32768-trial simulate on quantizer_21(params, 4096), as sweep-empirical
    runs it, fills the rows of exactly the bins its trials fall in."""
    params = _SWEEP_ROWS[row]
    built = []
    build = protocols.quantizer_21
    monkeypatch.setattr(protocols, "quantizer_21", lambda p, n: built.append(build(p, n)) or built[-1])
    config = SimConfig(params, "21", trials=1 << 15, seed=derive_seed(3, row), n=4096)
    simulate(config)
    (q,) = built
    _, x2 = sample_cell_arrays(params, np.arange(config.trials, dtype=np.uint64), config.seed)
    landed = np.unique(np.clip(np.searchsorted(q.edges, x2, side="left") - 1, 0, len(q.edges) - 2))
    assert np.array_equal(filled_bins(q), landed)
    assert len(filled_bins(q)) == len(landed) < len(q.edges) - 1
    assert_rows_are_eager(q, landed)


@pytest.mark.parametrize("trials", [1 << 15, 1 << 20])
@pytest.mark.parametrize("lattice", list(_WS_LATTICES))
def test_repeated_simulate_allocates_no_per_trial_memory(lattice, trials):
    """After one call of a config, a second identical call raises the
    memory tracemalloc traces (numpy's data included) by under 256 KB at
    its peak, where a single 2^15-trial float64 array is 256 KB; the
    infinite scheme also runs at a round limit of 1, where every trial
    that enters an error rectangle takes the unhalted side test."""
    for scheme, sizes in (*_WS_SCHEMES, ("infinite", {"max_rounds": 1})):
        config = SimConfig(_WS_LATTICES[lattice], scheme, trials=trials, seed=8, **sizes)
        tracemalloc.start()
        try:
            simulate(config)
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            simulate(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base < 256 * 1024, (scheme, peak - base)


# --- the error count --------------------------------------------------------


@pytest.fixture
def always_v1(monkeypatch):
    """A scheme entry that decides (1, 0) on every trial, so that no decision
    is certified and every one is wrong."""
    entry = dataclasses.replace(
        schemes.SCHEMES["babai_only"],
        name="always_v1",
        alias="v1",
        kernel=lambda *_: (1.0, 0.0, 0.0, 0.0, 0),
    )
    monkeypatch.setitem(schemes.SCHEMES, entry.name, entry)
    return entry


def _brute_force_errors(config) -> int:
    """exact_nearest_batch on every trial against the kernel's decisions."""
    scheme = schemes.SCHEMES[config.scheme]
    x1, x2 = sample_cell_arrays(
        config.params, np.arange(config.trials, dtype=np.uint64), config.seed
    )
    q = scheme.quantizer(config.params, **config.sizes)
    dec1, dec2, *_ = scheme.kernel(
        config.params, x1, x2, config.max_rounds, q, montecarlo.Workspace()
    )
    e1, e2 = exact_nearest_batch(config.params, x1, x2)
    return int(np.count_nonzero((dec1 != e1) | (dec2 != e2)))


@pytest.mark.parametrize("lattice", list(_WS_LATTICES))
@pytest.mark.parametrize(
    "scheme,sizes", [pytest.param(*case, id=case[0]) for case in (*_WS_SCHEMES, ("always_v1", {}))]
)
def test_simulate_counts_the_brute_force_errors(lattice, scheme, sizes, always_v1, monkeypatch):
    """simulate's error count equals the oracle's on every trial, and the
    oracle sees only trials within the hexagon test's margin of a face, at
    most the wrong trials and 0.1 % of the trials besides.

    The count is read back from empirical_pe over (1 << 16) + 3 trials, a
    full block and a partial one; the test-only always_v1 scheme decides
    (1, 0), so every trial is wrong.  The hexagon test proves each of those
    decisions wrong, so the oracle sees only the trials within its margin
    of a face, and on these seeds there are none.
    """
    config = SimConfig(_WS_LATTICES[lattice], scheme, trials=(1 << 16) + 3, seed=23, **sizes)
    want = _brute_force_errors(config)
    seen = []
    oracle = montecarlo.exact_nearest_batch

    def counting(params, x1, x2, *, workspace=None):
        seen.append(len(x1))
        return oracle(params, x1, x2, workspace=workspace)

    monkeypatch.setattr(montecarlo, "exact_nearest_batch", counting)
    report = simulate(config)
    assert round(report.empirical_pe * config.trials) == want
    assert sum(seen) <= want + 0.001 * config.trials
    if scheme == "always_v1":
        assert want == config.trials
        assert sum(seen) == 0  # the oracle sees only trials in the margin band
    if scheme == "infinite":
        assert want == sum(seen) == 0


# every scheme table entry, its quantizers from one bin a side to hundreds,
# and the infinite scheme with and without its unhalted fallback
_REACH_CASES = (
    ("babai_only", {}),
    ("infinite", {}),
    ("infinite", {"max_rounds": 1}),
    *(("12", {"n1": n1, "n2": n2}) for n1, n2 in ((1, 1), (2, 3), (300, 700))),
    *(("21", {"n": n}) for n in (1, 4, 999)),
    ("always_v1", {}),
)


@pytest.mark.parametrize("lattice", list(_WS_LATTICES))
@pytest.mark.parametrize(
    "scheme,kw",
    [pytest.param(s, kw, id="-".join(map(str, (s, *kw.values())))) for s, kw in _REACH_CASES],
)
def test_simulate_decisions_stay_within_the_scheme_reach(
    lattice, scheme, kw, always_v1, monkeypatch
):
    """On every block simulate runs, the kernel's decisions have |dec1| <= 1
    and |dec2| <= 1, as every decision is (0, 0) or a relevant neighbour,
    and the span simulate gives the hexagon test is at least the one the
    test measures from the block's points and decisions, so its margin is
    too."""
    assert set(schemes.SCHEMES) <= {case[0] for case in _REACH_CASES}
    params = _WS_LATTICES[lattice]
    config = SimConfig(params, scheme, trials=(1 << 16) + 3, seed=31, **kw)
    blocks = []
    uncertified = montecarlo._uncertified

    def checking(params, x1, x2, b1, b2, span, ws):
        blocks.append(len(x1))
        assert np.all(np.abs(b1) <= 1.0) and np.all(np.abs(b2) <= 1.0)
        assert span >= _span(params, x1, x2, b1, b2)
        return uncertified(params, x1, x2, b1, b2, span, ws)

    monkeypatch.setattr(montecarlo, "_uncertified", checking)
    simulate(config)
    assert blocks == [1 << 16, 3]
