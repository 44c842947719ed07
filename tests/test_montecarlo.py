import dataclasses
import math

import numpy as np
import pytest

from babai_refine import montecarlo, protocols
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
    make_generator,
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
    gen = make_generator(params_main)
    rng = np.random.default_rng(5)
    x1 = rng.uniform(-3, 3, size=500)
    x2 = rng.uniform(-3, 3, size=500)
    u1, u2 = babai_batch(params_main, x1, x2)
    for i in range(500):
        want = babai_nearest_plane(Point2(x1[i], x2[i]), gen)
        assert (u1[i], u2[i]) == want


def test_exact_nearest_batch_matches_scalar(params_main):
    gen = make_generator(params_main)
    rng = np.random.default_rng(7)
    x1 = rng.uniform(-3, 3, size=500)
    x2 = rng.uniform(-3, 3, size=500)
    e1, e2 = exact_nearest_batch(params_main, x1, x2)
    for i in range(500):
        want = exact_nearest_point(Point2(x1[i], x2[i]), gen)
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
    gen = make_generator(params)
    checked = list(range(0, 2 * n, 997)) + list(range(2 * n, len(x1)))
    for i in checked:
        assert (e1[i], e2[i]) == exact_nearest_point(Point2(x1[i], x2[i]), gen)


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


@pytest.mark.parametrize("params", _edge_lattices())
def test_exact_nearest_batch_rectangle_edges(params):
    """The pre-filtered oracle equals the window scan at the filter's edges.

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
