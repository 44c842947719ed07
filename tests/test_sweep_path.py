"""The closed-form sweep path: the bin edges, rate_12's array kernel and the
budget search.

The bin edges must equal the np.linspace expression kept here, bit for bit.
rate_12 sums H(U2|U1) chunk by chunk in whole arrays, taking a mirrored
pair of strips' logarithms once; it must give the bits of the per-bin loop
kept here as the reference, including the sign of zero.
The budget search must find the point of the plain exponential search plus
bisection kept here and never evaluate a curve point twice within one call;
on both curves it starts from a closed-form seed and needs fewer probes.
"""

import dataclasses
import itertools
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from babai_refine import LatticeParams, analytics, cell_geometry, schemes
from babai_refine.analytics import (
    _entropy_raw,
    _fsum_rows,
    _row_entropies,
    bin_edges_12,
    bin_edges_21,
)
from babai_refine.cli import main

from conftest import EPS
from test_cut_table import reference_cross_section

HEX = LatticeParams(rho=1.0, theta=math.pi / 3 + EPS)
HEX_TIGHT = LatticeParams(rho=1.0, theta=math.pi / 3 + 1e-12)
SQUARE = LatticeParams(rho=1.0, theta=math.pi / 2 - EPS)
SQUARE_TIGHT = LatticeParams(rho=1.0, theta=math.pi / 2 - 1e-12)
MAIN = LatticeParams(rho=1.0, theta=math.acos(0.3))

PROPERTY = settings(max_examples=200, derandomize=True, database=None, deadline=None)


def _bits(x: float) -> str:
    return float(x).hex()


def _h_u2_reference(params, n1, n2):
    """H(U2|U1) as the per-bin loop: one _entropy_raw per bin, added in order,
    on the probabilities of the frozen reference cut table, which shares no
    code with cross_section."""
    edges = bin_edges_12(params, n1, n2)
    probs = reference_cross_section(
        cell_geometry(params), 0.5 * (edges[:-1] + edges[1:]), vertical=True
    ).probs
    h_u2 = 0.0
    for width, row in zip(np.diff(edges).tolist(), probs.tolist()):
        h_u2 += width * _entropy_raw(row)
    return h_u2


@st.composite
def lattices(draw):
    rho = draw(st.floats(1.0, 2.5))
    rcos = draw(st.floats(1e-6, 0.5 - 1e-6))
    return LatticeParams(rho=rho, theta=math.acos(rcos / rho))


PARAMS = st.one_of(st.sampled_from([HEX, HEX_TIGHT, SQUARE, SQUARE_TIGHT]), lattices())


def _bin_edges_12_reference(params, n1, n2):
    """bin_edges_12 as four np.linspace calls and a concatenate, frozen."""
    g = cell_geometry(params)
    return np.concatenate(
        [
            np.linspace(-0.5, g.t_m2, n2 + 1),
            np.linspace(g.t_m2, g.t_m1, n1 + 1)[1:],
            np.array([g.t_1]),
            np.linspace(g.t_1, g.t_2, n1 + 1)[1:],
            np.linspace(g.t_2, 0.5, n2 + 1)[1:],
        ]
    )


def _bin_edges_21_reference(params, n):
    """bin_edges_21 as two np.linspace calls and a concatenate, frozen."""
    g = cell_geometry(params)
    return np.concatenate(
        [
            np.linspace(-g.H / 2.0, g.tau_m1, n + 1),
            np.array([g.tau_1]),
            np.linspace(g.tau_1, g.H / 2.0, n + 1)[1:],
        ]
    )


# at c = 5e-324 t_1 rounds to 0 and t_m2 to -1/2; at c = 1e-300 H1 is lost
# in tau_1, so the bottom band's step is 0 and takes linspace's zero-step branch
EDGE_PARAMS = st.one_of(
    PARAMS,
    st.builds(
        LatticeParams.from_rcos,
        st.floats(1.0, 1.5),
        st.sampled_from([5e-324, 1e-320, 1e-300, 1e-16, 0.3, math.nextafter(0.5, 0.0)]),
    ),
)
EDGE_SIZE = st.one_of(st.integers(1, 20), st.integers(1, 5000))


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(params=EDGE_PARAMS, n1=EDGE_SIZE, n2=EDGE_SIZE)
@example(params=LatticeParams.from_rcos(1.0, 1e-300), n1=1, n2=5000)
@example(params=LatticeParams.from_rcos(1.0, 5e-324), n1=5000, n2=1)
def test_bin_edges_equal_linspace(params, n1, n2):
    want_12 = _bin_edges_12_reference(params, n1, n2)
    assert bin_edges_12(params, n1, n2).tobytes() == want_12.tobytes()
    assert bin_edges_21(params, n2).tobytes() == _bin_edges_21_reference(params, n2).tobytes()


# knots whose gaps, divided by the bin counts, underflow to 0 but are not 0
SUBNORMAL = st.integers(1, 1 << 12).map(lambda k: k * 5e-324)


@PROPERTY
@given(
    start=st.one_of(st.floats(-1.0, 1.0), SUBNORMAL),
    gaps=st.lists(st.one_of(st.floats(0.0, 1.0), SUBNORMAL), min_size=1, max_size=5),
    counts=st.lists(st.integers(1, 5000), min_size=5, max_size=5),
)
def test_edges_equal_linspace(start, gaps, counts):
    knots = list(itertools.accumulate([start, *gaps]))
    counts = counts[: len(gaps)]
    want = np.concatenate(
        [knots[:1]] + [np.linspace(a, b, m + 1)[1:] for a, b, m in zip(knots, knots[1:], counts)]
    )
    assert analytics._edges(tuple(knots), tuple(counts)).tobytes() == want.tobytes()


SIZES = st.one_of(
    st.sampled_from([(1, 1), (2, 3)]),
    st.tuples(st.integers(1, 400), st.integers(1, 400)),
)


@PROPERTY
@given(params=PARAMS, sizes=SIZES)
def test_rate_12_equals_per_bin_loop(params, sizes):
    _, h_u2 = analytics.rate_12(params, *sizes)
    assert _bits(h_u2) == _bits(_h_u2_reference(params, *sizes))


# 2*n1 + 2*n2 + 1 bins: one short of a chunk, one over, and around two chunks
@pytest.mark.parametrize(
    "sizes", [(1, 2046), (1023, 1024), (2047, 1), (1, 2047), (2048, 2047), (4095, 1)]
)
@pytest.mark.parametrize("params", [MAIN, HEX, SQUARE], ids=["rcos0.3", "hex", "square"])
def test_rate_12_equals_per_bin_loop_across_chunks(params, sizes):
    assert analytics._RATE_CHUNK == 4096
    _, h_u2 = analytics.rate_12(params, *sizes)
    assert _bits(h_u2) == _bits(_h_u2_reference(params, *sizes))


@pytest.mark.parametrize("chunk", [1, 7, 4095])
def test_rate_12_does_not_depend_on_chunking(chunk, monkeypatch):
    # 4095 bins fill exactly one chunk of 4095
    want = analytics.rate_12(MAIN, 1023, 1024)
    monkeypatch.setattr(analytics, "_RATE_CHUNK", chunk)
    got = analytics.rate_12(MAIN, 1023, 1024)
    assert [_bits(v) for v in got] == [_bits(v) for v in want]


def test_row_entropies_equal_entropy_raw():
    """Per-row entropies equal _entropy_raw bit for bit on random rows.

    About 0.2 % of np.log2 values differ from math.log2 by an ulp, and on
    these rows that shows in roughly one entropy in a thousand, so a kernel
    taking its logarithms from np.log2 fails here.
    """
    rng = np.random.default_rng(4)
    u = np.sort(rng.random((50000, 2)), axis=1)
    rows = np.stack([u[:, 0], u[:, 1] - u[:, 0], 1.0 - u[:, 1]], axis=1)
    rows[:100, 0] = 0.0  # a one-cut strip: one region is empty
    rows[100:200] = [0.0, 1.0, 0.0]  # the cut-free centre bin
    got = _row_entropies(rows)
    assert [_bits(v) for v in got.tolist()] == [_bits(_entropy_raw(r)) for r in rows.tolist()]


class _CountingMath:
    """Stands in for the math module in analytics and counts fsum and log2 calls."""

    def __init__(self):
        self.fsum_calls = 0
        self.log2_calls = 0

    def __getattr__(self, name):
        return getattr(math, name)

    def fsum(self, values):
        self.fsum_calls += 1
        return math.fsum(values)

    def log2(self, x):
        self.log2_calls += 1
        return math.log2(x)


# triples whose last TwoSum error is not 0: fl(s2 + t) is a double rounding
FALLBACK_ROWS = [
    (1.0, 2.0**-53, 2.0**-106),
    (-1.0, -(2.0**-53), -(2.0**-106)),
    (2.0**-53, 1.0, 2.0**-106),
    (-0.75, -(2.0**-54), -(2.0**-108)),
    (2.0**-105, 3.0, 2.0**-52),
]


def _two_sum_chain(a, b, c):
    """fl(s2 + t) and the last error e3 of the TwoSum chain, in scalars."""

    def two_sum(x, y):
        s = x + y
        yy = s - x
        return s, (x - (s - yy)) + (y - yy)

    s1, e1 = two_sum(a, b)
    s2, e2 = two_sum(s1, c)
    t, e3 = two_sum(e1, e2)
    return s2 + t, e3


def test_fsum_rows_fallback_rows_match_fsum(monkeypatch):
    for row in FALLBACK_ROWS:
        naive, e3 = _two_sum_chain(*row)
        assert e3 != 0.0 and _bits(naive) != _bits(math.fsum(row))
    counting = _CountingMath()
    monkeypatch.setattr(analytics, "math", counting)
    got = _fsum_rows(np.array(FALLBACK_ROWS))
    assert counting.fsum_calls == len(FALLBACK_ROWS)
    assert [_bits(v) for v in got.tolist()] == [_bits(math.fsum(r)) for r in FALLBACK_ROWS]


def test_fsum_rows_zero_sums_match_fsum():
    rows = [(0.0, 0.0, 0.0), (-0.0, -0.0, -0.0), (1.0, -1.0, 0.0), (-0.0, 0.0, -0.0)]
    got = _fsum_rows(np.array(rows))
    assert [_bits(v) for v in got.tolist()] == [_bits(math.fsum(r)) for r in rows]


TERMS = st.one_of(
    st.floats(-1e6, 1e6, allow_nan=False),
    st.integers(-60, 60).map(lambda k: 2.0**k),
    st.integers(-60, 60).map(lambda k: -(2.0**k)),
)


@PROPERTY
@given(rows=st.lists(st.tuples(TERMS, TERMS, TERMS), min_size=1, max_size=20))
def test_fsum_rows_equals_fsum(rows):
    got = _fsum_rows(np.array(rows, dtype=np.float64))
    assert [_bits(v) for v in got.tolist()] == [_bits(math.fsum(r)) for r in rows]


# probability rows whose terms' TwoSum chain falls back to fsum in every order
FALLBACK_PROBS = [
    (1.4461359793533422e-39, 4.216054100572951e-22, 0.005423363075529499),
    (0.19808169928298688, 7.876089044248607e-06, 3.7342785486961586e-29),
]
PROB = st.one_of(
    st.sampled_from([0.0, 1.0]),
    st.floats(0.0, 1.0),
    st.floats(-40.0, 0.0).map(lambda e: 10.0**e),
)


def _packed(values):
    return {struct.pack("<d", v) for v in values}


@PROPERTY
@given(row=st.tuples(PROB, PROB, PROB))
@example(row=(0.0, 1.0, 0.0))
@example(row=(1.0, 0.0, 0.0))
@example(row=(0.0, 0.3, 0.7))
@example(row=FALLBACK_PROBS[0])
@example(row=FALLBACK_PROBS[1])
def test_row_entropies_do_not_depend_on_column_order(row):
    """The fact rate_12's mirrored strips rest on: a row's entropy has the
    same bits in all six orders of its columns (and is _entropy_raw's)."""
    got = _row_entropies(np.array(list(itertools.permutations(row)))).tolist()
    assert _packed(got) == _packed([_entropy_raw(row)])


@pytest.mark.parametrize("row", FALLBACK_PROBS)
def test_fallback_probability_rows_fall_back_in_every_order(row, monkeypatch):
    terms = [p * math.log2(p) for p in row]
    for order in itertools.permutations(terms):
        assert _two_sum_chain(*order)[1] != 0.0
    counting = _CountingMath()
    monkeypatch.setattr(analytics, "math", counting)
    _row_entropies(np.array(list(itertools.permutations(row))))
    assert counting.fsum_calls == 6


def test_rate_12_takes_mirrored_strips_logarithms_once(monkeypatch):
    """At the hexagonal row (1, 4830), 9663 bins over three cut tables, most
    strips through mirrored bins hold the same probabilities in reverse,
    bit for bit, and the others differ in the last bits: rate_12 takes the
    logarithms of at most 0.6 of the positive probabilities, and the bits
    of the per-bin loop."""
    n1, n2 = 1, 4830
    edges = bin_edges_12(HEX, n1, n2)
    probs = reference_cross_section(
        cell_geometry(HEX), 0.5 * (edges[:-1] + edges[1:]), vertical=True
    ).probs
    mirrored = (probs.view(np.int64) == probs[::-1, ::-1].copy().view(np.int64)).all(axis=1)
    assert 0 < np.count_nonzero(mirrored) < len(mirrored)
    counting = _CountingMath()
    monkeypatch.setattr(analytics, "math", counting)
    _, h_u2 = analytics.rate_12(HEX, n1, n2)
    assert counting.log2_calls <= 0.6 * np.count_nonzero(probs > 0.0)
    monkeypatch.undo()
    assert _bits(h_u2) == _bits(_h_u2_reference(HEX, n1, n2))


def _budget_search_reference(params, scheme, rate_budget):
    """analytics._budget_search as it was before its searches were seeded,
    verbatim: exponential search plus bisection from size 1."""
    if not math.isfinite(rate_budget):
        raise ValueError("rate budget must be finite")
    probes = {}

    def point(size):
        if size not in probes:
            probes[size] = analytics.curve_point(params, scheme, size)
        return probes[size]

    first = point(1)
    if rate_budget < first.rate_bits:
        raise analytics.BudgetTooSmall(
            f"budget {rate_budget} below coarsest rate "
            f"{first.rate_bits:.6f} of scheme {scheme}"
        )
    cap = schemes.SCHEMES[str(scheme)].cap
    lo = 1
    hi = None
    h = 2
    while h <= cap:
        if point(h).rate_bits > rate_budget:
            hi = h
            break
        lo = h
        h *= 2
    if hi is None:
        if lo < cap and point(cap).rate_bits > rate_budget:
            hi = cap
        else:
            return cap, point
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if point(mid).rate_bits <= rate_budget:
            lo = mid
        else:
            hi = mid
    return lo, point


BUDGET_CASES = [
    (MAIN, "12", 4.0),
    (MAIN, "12", 8.0),
    (MAIN, "21", 4.0),
    (HEX, "12", 6.0),
    (HEX, "21", 6.0),
    (SQUARE, "12", 5.0),
    (SQUARE, "21", 5.0),  # the 21 rate saturates: the cap point is returned
]


def _record_curve_points(monkeypatch):
    """The (params, scheme, size) of every curve point evaluated from here on."""
    calls = []
    original = analytics.curve_point

    def recorded(params, scheme, size):
        calls.append((params, scheme, size))
        return original(params, scheme, size)

    monkeypatch.setattr(analytics, "curve_point", recorded)
    return calls


def _search_and_reference(params, scheme, budget, monkeypatch):
    """(found point, reference point, search probes, reference probes)."""
    calls = _record_curve_points(monkeypatch)
    got = analytics.budget_point(params, scheme, budget)
    probes = calls[:]
    calls.clear()
    size, point = _budget_search_reference(params, scheme, budget)
    return got, point(size), probes, calls


@pytest.mark.parametrize("params,scheme,budget", BUDGET_CASES)
def test_seeded_budget_search_matches_reference(params, scheme, budget, monkeypatch):
    """The seeded search finds the reference's point from fewer curve
    points, and evaluates none of them twice."""
    got, want, probes, reference = _search_and_reference(params, scheme, budget, monkeypatch)
    assert got == want
    assert len(set(probes)) == len(probes) < len(reference)


@st.composite
def budget_cases(draw):
    """A scheme, a lattice, a size cap, and a budget from the coarsest rate
    to past the cap's rate, often exactly on a curve point's rate (the
    cap's and the next one's among them) or an ulp off.  The 21 caps reach
    2^62, the real one, where the rows near theta = pi/2 saturate."""
    scheme = draw(st.sampled_from(["12", "21"]))
    caps = [2, 3, 100, 1000, 1 << 11, 1 << 14]
    if scheme == "12":
        params = draw(st.one_of(st.sampled_from([HEX, HEX_TIGHT, SQUARE]), lattices()))
        cap = draw(st.sampled_from(caps))
    else:
        params = draw(
            st.one_of(st.sampled_from([HEX, HEX_TIGHT, SQUARE, SQUARE_TIGHT]), lattices())
        )
        cap = draw(st.one_of(st.sampled_from(caps + [1 << 40, 1 << 62]), st.integers(1, 1 << 62)))
    k = draw(st.one_of(st.integers(1, cap + 1), st.sampled_from([cap, cap + 1])))
    rate = analytics.curve_point(params, scheme, k).rate_bits
    budget = draw(
        st.one_of(
            st.sampled_from([rate, math.nextafter(rate, -math.inf), math.nextafter(rate, math.inf)]),
            st.floats(rate, rate + 2.0),
        )
    )
    return scheme, params, cap, budget


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(case=budget_cases())
def test_seeded_budget_search_equals_reference(case):
    scheme, params, cap, budget = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(
            schemes.SCHEMES, scheme, dataclasses.replace(schemes.SCHEMES[scheme], cap=cap)
        )
        try:
            want = _budget_search_reference(params, scheme, budget)[0]
        except analytics.BudgetTooSmall as exc:
            with pytest.raises(analytics.BudgetTooSmall) as info:
                analytics._budget_search(params, scheme, budget)
            assert str(info.value) == str(exc)
            return
        assert analytics._budget_search(params, scheme, budget)[0] == want


@PROPERTY
@given(
    cap=st.integers(1, 1 << 62),
    start=st.integers(1, 1 << 62),
    last=st.integers(1, 1 << 62),
)
def test_last_within_finds_threshold(cap, start, last):
    """From any start in [1, cap], the largest size within a threshold, or
    the cap, in O(log) probes of the distance from start."""
    start = min(start, cap)
    probes = []

    def within(n):
        assert 1 <= n <= cap
        probes.append(n)
        return n <= last

    assert analytics._last_within(within, start, cap) == min(last, cap)
    assert len(probes) <= 2 * (abs(min(last, cap) - start) + 1).bit_length() + 2


@pytest.mark.parametrize("scheme", ["12", "21"])
@pytest.mark.parametrize("budget", [math.nan, math.inf, -math.inf, 0.5, 1.0])
def test_budget_search_errors_equal_reference(scheme, budget):
    with pytest.raises(ValueError) as want:
        _budget_search_reference(MAIN, scheme, budget)
    with pytest.raises(ValueError) as got:
        analytics._budget_search(MAIN, scheme, budget)
    assert type(got.value) is type(want.value) and str(got.value) == str(want.value)


@pytest.mark.parametrize("params,scheme,budget", BUDGET_CASES)
def test_pe_at_rate_adds_at_most_one_curve_point(params, scheme, budget, monkeypatch):
    calls = _record_curve_points(monkeypatch)
    below = analytics.budget_point(params, scheme, budget)
    n_budget_point = len(calls)
    calls.clear()
    pe_below, _ = analytics.pe_at_rate(params, scheme, budget)
    assert pe_below == below.pe
    assert len(set(calls)) == len(calls) <= n_budget_point + 1


@pytest.mark.parametrize("params", [MAIN, HEX, SQUARE], ids=["rcos0.3", "hex", "square"])
def test_seed_12_takes_the_interval_entropy_once(params, monkeypatch):
    """_seed_12 takes the entropy of the five intervals once per search, not
    at each of its probes of H(U1)."""
    calls = []

    def counting(probs):
        calls.append(tuple(probs))
        return _entropy_raw(probs)

    analytics.kappa_12(params)
    monkeypatch.setattr(analytics, "_entropy_raw", counting)
    assert analytics._seed_12(params, 8.0, schemes.SCHEMES["12"].cap) > 1
    g = cell_geometry(params)
    assert calls == [(g.L0, g.L1, g.L1, g.L2, g.L2)]


def test_sweep_evaluates_each_rate_once(monkeypatch, capsys):
    seen = []
    for name in ("rate_12", "rate_21"):
        original = getattr(analytics, name)

        def recorded(params, *sizes, _name=name, _original=original):
            seen.append((_name, params, sizes))
            return _original(params, *sizes)

        monkeypatch.setattr(analytics, name, recorded)
    assert main(["sweep", "--rho", "1", "--grid", "4", "--budget", "8"]) == 0
    capsys.readouterr()
    assert {name for name, _, _ in seen} == {"rate_12", "rate_21"}
    assert len(set(seen)) == len(seen)


def test_sweep_reads_curves_near_the_answer(monkeypatch, capsys):
    """Per sweep row, the 12 curve is read above size 1 only at the answer
    and its interpolation neighbour, and the 21 curve less often than the
    reference search reads it."""
    calls = _record_curve_points(monkeypatch)
    assert main(["sweep", "--rho", "1", "--grid", "4", "--budget", "8"]) == 0
    capsys.readouterr()
    sweep_calls = calls[:]
    rows = list(dict.fromkeys(params for params, _, _ in sweep_calls))
    assert len(rows) == 4
    cap = schemes.SCHEMES["12"].cap
    for params in rows:
        read = {
            scheme: [n for p, s, n in sweep_calls if p == params and s == scheme]
            for scheme in ("12", "21")
        }
        calls.clear()
        answer = _budget_search_reference(params, "12", 8.0)[0]
        neighbour = answer + 1 if answer < cap else answer - 1
        assert sorted(n for n in read["12"] if n > 1) == sorted({answer, neighbour} - {1})
        calls.clear()
        _budget_search_reference(params, "21", 8.0)
        assert len(read["21"]) < len(calls)
