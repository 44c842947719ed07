"""The scalar protocols, their replay and the batch kernels decide alike.

The infinite scheme's decision rule is written twice, per point in
`protocols` and per array in `montecarlo`; the single-round schemes' code
exists once, in their `Quantizer`, which both paths index.  These tests run
both paths on the golden points and on constructed points near the error
rectangles' diagonals, where a rule that reads different coordinates or
different bits would show, and on random points of random lattices.  Every
scheme must agree bit for bit, in symbols, bits and decisions.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from babai_refine import (
    LatticeParams,
    Point2,
    SimConfig,
    cell_geometry,
    exact_nearest_point,
    lattice_point,
    protocols,
    replay_decision,
    round1_distributions,
    run_batch_12,
    run_batch_21,
    run_batch_infinite,
    simulate,
)

from test_golden import _points

LATTICES = ("params_main", "params_hex", "params_square", "rcos0.0655")
# A squared-distance gap this small is an exact tie up to rounding.  Where a
# protocol and the oracle differ on these points, the gap is at most 2.3e-16
# (a few ulps of the squared distances); on the golden points, 5.6e-17.
TIE = 1e-15


@pytest.fixture
def lattice(request):
    if request.param == "rcos0.0655":
        # on numpy's AVX-512 path np.log2 and math.log2 differ on a round-1
        # probability of this lattice, so bits taken from np.log2 show here
        return LatticeParams(rho=1.0, theta=math.acos(0.0655))
    return request.getfixturevalue(request.param)


@pytest.mark.parametrize("lattice", LATTICES, indirect=True)
def test_round1_bits_are_math_log2(lattice):
    """Both infinite-scheme paths charge round 1 -math.log2 of each message's
    probability, bit for bit, on every round-1 outcome (u2, mirrored u1)."""
    params = lattice
    g = cell_geometry(params)
    q, p = (d.probs for d in round1_distributions(params))
    h = params.rsin / 2.0
    # the x1 interval midpoints and their mirror images, in each x2 band
    pts = [
        Point2(sign * 0.5 * (a + b), 0.5 * (c + d))
        for a, b in zip((-0.5, g.t_m2, g.t_1), (g.t_m2, g.t_1, 0.5))
        for sign in (1.0, -1.0)
        for c, d in zip((-h, g.tau_m1, g.tau_1), (g.tau_m1, g.tau_1, h))
    ]
    out = run_batch_infinite(
        params, np.array([x[0] for x in pts]), np.array([x[1] for x in pts]), 1
    )
    outcomes = set()
    for i, x in enumerate(pts):
        t = protocols.run_infinite_rounds(x, params, 1)
        u2 = t.messages[0].symbol
        want = [-math.log2(q[u2 + 1])]
        if u2 != 0:
            u1 = t.messages[1].symbol * u2
            want.append(-math.log2(p[u1 + 1]))
            outcomes.add((u2, u1))
        assert [m.ideal_bits.hex() for m in t.messages] == [b.hex() for b in want], x
        assert float(out["bits"][i]).hex() == math.fsum(want).hex() == t.total_bits.hex(), x
    assert outcomes == {(u2, u1) for u2 in (-1, 1) for u1 in (-1, 0, 1)}


def test_infinite_scheme_at_the_smallest_rcos():
    """At rho*cos(theta) = 5e-324, H1 and t_1 round to 0: the bands +-1 and
    interval -1 are empty and their code lengths inf, so the kernel's round-1
    table holds inf where -math.log2(0) would raise.  Every point halts in
    band 0, with -0.0 bits, in both paths, and simulate reports pe 0."""
    params = LatticeParams.from_rcos(1.0, 5e-324)
    report = simulate(SimConfig(params=params, scheme="infinite", trials=70_000, seed=3))
    assert report.empirical_pe == 0.0 and report.unhalted_count == 0
    rng = np.random.default_rng(17)
    pts = [Point2(-a, -b * params.rsin) for a, b in rng.uniform(-0.5, 0.5, size=(1000, 2))]
    pts += [Point2(0.5, params.rsin / 2.0), Point2(0.5, -params.rsin / 2.0 * (1.0 - 2**-52))]
    out = run_batch_infinite(params, np.array([x[0] for x in pts]), np.array([x[1] for x in pts]))
    for i, x in enumerate(pts):
        t = protocols.run_infinite_rounds(x, params)
        assert t.total_bits.hex() == float(out["bits"][i]).hex() == (-0.0).hex(), x
        assert t.rounds == out["rounds"][i] == 1, x
        assert t.decision == (out["dec1"][i], out["dec2"][i]) == (0, 0), x
        assert t.halted and out["halted"][i], x


def _near_diagonal_points(params) -> list[Point2]:
    """The same fraction f of an x1 interval and of an x2 band (and f of the
    interval with 1 - f of the band), plus the points one ulp above and
    below in x2: on or next to the diagonals of every error rectangle."""
    g = cell_geometry(params)
    h = params.rsin / 2.0
    x1_edges = (-0.5, g.t_m2, g.t_m1, g.t_1, g.t_2, 0.5)
    x2_edges = (-h, g.tau_m1, g.tau_1, h)
    fracs = [0.5, 0.25, 0.75, 1 / 3, 2 / 3, 0.1, 0.9, 0.013, 0.987]
    fracs += np.random.default_rng(5).uniform(0.01, 0.99, size=11).tolist()
    pts = []
    for a, b in zip(x1_edges[:-1], x1_edges[1:]):
        for c, d in zip(x2_edges[:-1], x2_edges[1:]):
            for f in fracs:
                x1 = a + f * (b - a)
                for x2 in (c + f * (d - c), d - f * (d - c)):
                    for y in (np.nextafter(x2, -1.0), x2, np.nextafter(x2, 1.0)):
                        pts.append(Point2(x1, y))
    return [Point2(float(x1), float(x2)) for x1, x2 in pts]


def _all_points(params) -> list[Point2]:
    return _points(params) + _near_diagonal_points(params)


def _assert_oracle(params, x: Point2, decision, probe: Point2 | None = None) -> None:
    """decision is the exact nearest point of `probe` (default x), up to ties."""
    probe = x if probe is None else probe
    oracle = exact_nearest_point(probe, params)
    if tuple(decision) != tuple(oracle):
        d2 = [
            (probe[0] - p[0]) ** 2 + (probe[1] - p[1]) ** 2
            for p in (lattice_point(decision, params), lattice_point(oracle, params))
        ]
        assert d2[0] - d2[1] <= TIE, (x, decision, oracle)


@pytest.mark.parametrize("max_rounds", [1, 2, 3, 64])
@pytest.mark.parametrize("lattice", LATTICES, indirect=True)
def test_infinite_scalar_kernel_replay_agree(lattice, max_rounds):
    params = lattice
    pts = _all_points(params)
    x1 = np.array([x[0] for x in pts])
    x2 = np.array([x[1] for x in pts])
    out = run_batch_infinite(params, x1, x2, max_rounds)
    for i, x in enumerate(pts):
        t = protocols.run_infinite_rounds(x, params, max_rounds)
        assert t.decision == (out["dec1"][i], out["dec2"][i]), x
        assert t.rounds == out["rounds"][i], x
        assert t.total_bits.hex() == float(out["bits"][i]).hex(), x
        assert t.halted == out["halted"][i], x
        if t.halted:
            assert replay_decision(t.messages, params, "infinite") == t.decision, x
        else:
            with pytest.raises(ValueError, match="did not halt"):
                replay_decision(t.messages, params, "infinite")
        _assert_oracle(params, x, t.decision)


@pytest.mark.parametrize("sizes", [(2, 3), (300, 700), (4,), (999,)])
@pytest.mark.parametrize("lattice", LATTICES, indirect=True)
def test_single_round_scalar_kernel_replay_agree(lattice, sizes):
    params = lattice
    pts = _all_points(params)
    x1 = np.array([x[0] for x in pts])
    x2 = np.array([x[1] for x in pts])
    if len(sizes) == 2:
        scheme, q = "12", protocols.quantizer_12(params, *sizes)
        out = run_batch_12(params, q, x1, x2)
        run, keys = protocols.run_single_round_12, ("u1", "u2")
    else:
        scheme, q = "21", protocols.quantizer_21(params, *sizes)
        out = run_batch_21(params, q, x1, x2)
        run, keys = protocols.run_single_round_21, ("u2", "u1")
    for i, x in enumerate(pts):
        t = run(x, params, q)
        for m, key in zip(t.messages, keys):
            assert m.symbol == out[f"{key}_symbol"][i], x
            assert m.ideal_bits.hex() == float(out[f"{key}_bits"][i]).hex(), x
        assert t.decision == (out["dec1"][i], out["dec2"][i]), x
        assert replay_decision(t.messages, params, scheme, q) == t.decision, x
        pos = t.messages[0].symbol + q.center
        mid = 0.5 * (q.edges[pos] + q.edges[pos + 1])
        probe = Point2(mid, x[1]) if scheme == "12" else Point2(x[0], mid)
        _assert_oracle(params, x, t.decision, probe)


@st.composite
def _random_cases(draw):
    """A lattice with rho in [1, 1.5] and rho*cos(theta) log-uniform in
    [1e-6, 0.5 - 1e-6], a scheme with sizes in [1, 999], and in-cell points."""
    rho = draw(st.floats(1.0, 1.5))
    rcos = math.exp(draw(st.floats(math.log(1e-6), math.log(0.5 - 1e-6))))
    params = LatticeParams(rho=rho, theta=math.acos(rcos / rho))
    scheme = draw(st.sampled_from(["12", "21", "infinite"]))
    count = {"12": 2, "21": 1, "infinite": 0}[scheme]
    sizes = tuple(draw(st.lists(st.integers(1, 999), min_size=count, max_size=count)))
    half_open = st.floats(-0.5, 0.5, exclude_min=True)
    fracs = draw(st.lists(st.tuples(half_open, half_open), min_size=1, max_size=16))
    # the product can round onto the open end -rsin/2
    pts = [Point2(a, b * params.rsin) for a, b in fracs if b * params.rsin > -params.rsin / 2.0]
    assume(pts)
    return params, scheme, sizes, pts


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_random_cases())
def test_scalar_kernel_replay_agree_on_random_lattices(case):
    params, scheme, sizes, pts = case
    x1 = np.array([x[0] for x in pts])
    x2 = np.array([x[1] for x in pts])
    if scheme == "infinite":
        q, run = None, lambda x: protocols.run_infinite_rounds(x, params)
        out = run_batch_infinite(params, x1, x2)
    elif scheme == "12":
        q = protocols.quantizer_12(params, *sizes)
        run, keys = lambda x: protocols.run_single_round_12(x, params, q), ("u1", "u2")
        out = run_batch_12(params, q, x1, x2)
    else:
        q = protocols.quantizer_21(params, *sizes)
        run, keys = lambda x: protocols.run_single_round_21(x, params, q), ("u2", "u1")
        out = run_batch_21(params, q, x1, x2)
    for i, x in enumerate(pts):
        t = run(x)
        assert t.decision == (out["dec1"][i], out["dec2"][i]), x
        if scheme == "infinite":
            assert t.rounds == out["rounds"][i], x
            assert t.total_bits.hex() == float(out["bits"][i]).hex(), x
            assert t.halted == out["halted"][i], x
        else:
            for m, key in zip(t.messages, keys):
                assert m.symbol == out[f"{key}_symbol"][i], x
                assert m.ideal_bits.hex() == float(out[f"{key}_bits"][i]).hex(), x
        if t.halted:
            assert replay_decision(t.messages, params, scheme, q) == t.decision, x
