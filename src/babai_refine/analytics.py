"""Closed-form error probabilities, rates and asymptotics for the three
interactive refinement schemes.

Scheme "12": S1 quantizes x1 into 2*N1 + 2*N2 + 1 bins and S2 answers with a
ternary decision; scheme "21" is the mirror with a single size parameter N;
the infinite-round scheme resolves the Voronoi cell exactly with finite
expected cost.  All rate figures are ideal-codelength entropies.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np

from . import lattice, schemes
from .errors import BudgetTooSmall, DegenerateInterval, InvalidDistribution, require_count
from .lattice import CellGeometry, LatticeParams, _cut_table, cell_geometry

_SUM_TOL = 1e-10
# below this |u|, _mean_p_ln_p sums its series, whose terms shrink at least
# 16-fold each, because there the divided difference cancels too many digits
_SERIES_U = 0.25
# bins per cut table of _weighted_entropy, which bounds its memory at any quantizer size
_RATE_CHUNK = 1 << 12


@dataclass(frozen=True)
class Distribution:
    """Finite probability vector; entries >= 0 summing to 1 within 1e-10."""

    probs: tuple[float, ...]

    def __post_init__(self):
        if any((not math.isfinite(p)) or p < 0.0 for p in self.probs):
            raise InvalidDistribution(f"negative or non-finite mass in {self.probs}")
        total = math.fsum(self.probs)
        if abs(total - 1.0) > _SUM_TOL:
            raise InvalidDistribution(f"probabilities sum to {total}, not 1")


def entropy(d: Distribution | Sequence[float]) -> float:
    """Shannon entropy in bits, with 0*log(0) = 0."""
    if not isinstance(d, Distribution):
        d = Distribution(tuple(float(p) for p in d))
    return _entropy_raw(d.probs)


def _entropy_raw(probs: Iterable[float]) -> float:
    return -math.fsum(p * math.log2(p) for p in probs if p > 0.0)


@dataclass(frozen=True)
class Scheme12Coefficients:
    """Coefficients of P_e = alpha1/N1 + alpha2/N2 for the 12-order scheme.

    provenance is "geometry_derived" (normative; each interval's length times
    the rise of its boundary segments) or "printed" (the widely circulated
    closed form, whose height factors are interchanged between the two
    intervals; kept so the Monte Carlo adjudication can report which
    variant it confirms).
    """

    alpha1: float
    alpha2: float
    provenance: str


def coefficients_12(
    params: LatticeParams, provenance: str = "geometry_derived"
) -> Scheme12Coefficients:
    """Error coefficients (alpha1, alpha2) of the single-round 12 scheme.

    The geometry-derived values are the closed forms alpha1 = L1*H21/(2 detV)
    and alpha2 = L2*(H1+H22)/(2 detV): N mid-height-cut bins over a length
    L_i where the boundary rises h err on area L_i*h/(4N), on both mirrors.
    """
    geom = cell_geometry(params)
    if provenance == "geometry_derived":
        a1 = geom.L1 * geom.H21 / (2.0 * geom.H)
        a2 = geom.L2 * (geom.H1 + geom.H22) / (2.0 * geom.H)
    elif provenance == "printed":
        a1 = geom.L1 * (geom.H1 + geom.H22) / (2.0 * geom.H)
        a2 = geom.H21 * geom.L2 / (2.0 * geom.H)
    else:
        raise ValueError(f"unknown provenance {provenance!r}")
    return Scheme12Coefficients(alpha1=a1, alpha2=a2, provenance=provenance)


def pe_12(params: LatticeParams, n1: int, n2: int) -> float:
    """Exact error probability alpha1/n1 + alpha2/n2 of the 12 scheme."""
    require_count(n1=n1, n2=n2)
    co = coefficients_12(params)
    return co.alpha1 / n1 + co.alpha2 / n2


def _edges(knots: tuple[float, ...], counts: tuple[int, ...]) -> np.ndarray:
    """knots[0], then counts[i] equal bins over (knots[i], knots[i + 1]], from
    one arange and bit for bit np.linspace(a, b, m + 1)[1:]: k*((b - a)/m) + a,
    b at k = m, and (k/m)*(b - a) + a where the step underflows to 0."""
    k = np.arange(1, max(counts) + 1, dtype=np.float64)
    out = np.empty(sum(counts) + 1)
    out[0], lo = knots[0], 1
    for a, b, m in zip(knots, knots[1:], counts):
        step = (b - a) / m
        np.add(k[:m] * step if step else k[:m] / m * (b - a), a, out=out[lo : lo + m])
        lo += m
        out[lo - 1] = b
    return out


def bin_edges_12(params: LatticeParams, n1: int, n2: int) -> np.ndarray:
    """Edges of the 2*n1 + 2*n2 + 1 bins over (-1/2, 1/2], ascending.

    N2 equal bins on each outer interval, N1 on each inner one and one on
    the cut-free centre, placed as np.linspace places them (see _edges).
    """
    require_count(n1=n1, n2=n2)
    g = cell_geometry(params)
    return _edges((-0.5, g.t_m2, g.t_m1, g.t_1, g.t_2, 0.5), (n2, n1, 1, n1, n2))


def bin_edges_21(params: LatticeParams, n: int) -> np.ndarray:
    """Edges of the 2*n + 1 bins over (-H/2, H/2], ascending, as np.linspace puts them (_edges)."""
    require_count(n=n)
    g = cell_geometry(params)
    return _edges((-g.H / 2.0, g.tau_m1, g.tau_1, g.H / 2.0), (n, 1, n))


def _two_sum(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Knuth's TwoSum: s = fl(a + b) and the error e with s + e = a + b exactly."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _fsum_rows(terms: np.ndarray) -> np.ndarray:
    """math.fsum of each row of an (n, 3) array, bit for bit.

    TwoSum(a, b) = s1 + e1, TwoSum(s1, c) = s2 + e2 and TwoSum(e1, e2) =
    t + e3 are exact, so where e3 is 0 the exact row sum is s2 + t and
    fl(s2 + t) is its correct rounding, which is what fsum returns.  The
    other rows, and zero sums (whose sign fsum fixes), go through fsum.
    """
    s1, e1 = _two_sum(terms[:, 0], terms[:, 1])
    s2, e2 = _two_sum(s1, terms[:, 2])
    t, e3 = _two_sum(e1, e2)
    out = s2 + t
    for i in np.flatnonzero((e3 != 0.0) | (out == 0.0)).tolist():
        out[i] = math.fsum(terms[i].tolist())
    return out


def _row_entropies(probs: np.ndarray) -> np.ndarray:
    """_entropy_raw of each row of an (n, 3) probability array, bit for bit.

    The terms p*log2(p) use math.log2 (np.log2 can differ from it by an ulp);
    p = 0 adds a 0.0 term, which leaves fsum's value unchanged.  Columns are
    read whole, contiguous for a (3, n) array seen transposed (_cut_table).
    """
    positive = probs.T > 0.0
    p = probs.T[positive]
    terms = np.zeros(positive.shape)
    terms[positive] = p * np.fromiter(map(math.log2, memoryview(p)), np.float64, count=p.size)
    return -_fsum_rows(terms.T)


def _weighted_entropy(g: CellGeometry, edges: np.ndarray, vertical: bool) -> float:
    """Sum, bin by bin in ascending order (np.add.accumulate adds
    sequentially), of each bin's width times _entropy_raw of the strip
    (vertical) or row through its midpoint.  B(0) is centrally symmetric, so
    bins i and n - 1 - i share a cut table (_RATE_CHUNK // 2 pairs a table;
    line k + j mirrors line j), and a row equal to its partner's reversed,
    bit for bit, takes the partner's entropy: _row_entropies does not
    depend on a row's order, as fsum rounds correctly."""
    n = len(edges) - 1
    terms = np.zeros(n + 1)  # terms[0] = 0.0 starts the sum, as in a per-bin loop
    half, pairs = (n + 1) // 2, max(_RATE_CHUNK // 2, 1)
    for lo in range(0, half, pairs):
        k = min(pairs, half - lo)
        left, right = edges[lo : lo + k + 1], edges[n - lo - k : n - lo + 1]
        mids = np.concatenate((left[:-1] + left[1:], (right[:-1] + right[1:])[::-1]))
        probs = _cut_table(g, np.multiply(mids, 0.5, out=mids), vertical)[2].T
        near, far = probs[:, :k], probs[:, k:]
        own = (near[::-1] != far).any(axis=0)
        h = _row_entropies(np.concatenate((near, far.compress(own, axis=1)), axis=1).T)
        h_far = h[:k].copy()
        h_far[own] = h[k:]
        np.multiply(left[1:] - left[:-1], h[:k], out=terms[lo + 1 : lo + k + 1])
        np.multiply(right[1:] - right[:-1], h_far[::-1], out=terms[n - lo - k + 1 : n - lo + 1])
    return float(np.add.accumulate(terms, out=terms)[-1])


def _interval_entropy(g: CellGeometry) -> float:
    """Entropy in bits of the 12 scheme's five intervals, (L0, L1, L1, L2, L2)."""
    return _entropy_raw((g.L0, g.L1, g.L1, g.L2, g.L2))


def _h_u1(g: CellGeometry, h_len: float, n1: int, n2: int) -> float:
    """H(U1) of the 12 scheme: the interval entropy h_len plus log2 of each
    bin count; a search passes the same h_len at every probe."""
    return h_len + 2.0 * g.L1 * math.log2(n1) + 2.0 * g.L2 * math.log2(n2)


def rate_12(params: LatticeParams, n1: int, n2: int) -> tuple[float, float]:
    """(H(U1), H(U2|U1)) in bits for the 12 scheme at sizes (n1, n2).

    H(U1) is the bin-index entropy; H(U2|U1) averages, over bins, the exact
    entropy of the ternary answer with cuts at the bin-midpoint heights, one
    set of logarithms per mirrored pair of strips that agree.  Summed bin by
    bin in ascending order (the centre bin adds -0.0), it does not depend on
    the chunking.  Besides the edges it holds one float64 per bin (the terms
    waiting for that sum) and one chunk's cut table (see _weighted_entropy).
    """
    edges = bin_edges_12(params, n1, n2)
    g = cell_geometry(params)
    return _h_u1(g, _interval_entropy(g), n1, n2), _weighted_entropy(g, edges, True)


def _g(p: float) -> float:
    """G(p) = p^2 (ln p - 1/2) / 2, an antiderivative of p ln p, with G(0) = 0."""
    return 0.5 * p * p * (math.log(p) - 0.5) if p > 0.0 else 0.0


def _mean_p_ln_p(pa: float, pb: float) -> float:
    """Mean of p ln p over an interval along which p runs affinely from pa to pb.

    With m = (pa + pb)/2 and u = (pb - pa)/(pa + pb) the mean is
    m ln m + m * sum_{j>=1} u^(2j) / ((2j-1)(2j)(2j+1)); the series is summed
    until its terms stop counting for |u| < _SERIES_U, and elsewhere the mean
    is the divided difference (G(pb) - G(pa)) / (pb - pa).  p = 0 throughout
    contributes 0.
    """
    m = 0.5 * (pa + pb)
    if m <= 0.0:
        return 0.0
    u = (pb - pa) / (pa + pb)
    if abs(u) >= _SERIES_U:
        return (_g(pb) - _g(pa)) / (pb - pa)
    u2, power, tail, j = u * u, 1.0, 0.0, 1
    while True:
        power *= u2
        term = power / ((2 * j - 1) * (2 * j) * (2 * j + 1))
        if tail + term == tail:
            return m * math.log(m) + m * tail
        tail += term
        j += 1


def _kappa(g: CellGeometry, ends: tuple[float, ...], vertical: bool, scale: float) -> float:
    """scale times the integral, in bits, of the decision entropy over the
    intervals between consecutive `ends` of the strips (vertical) or rows.

    On each interval the three region lengths are affine, so each term is
    the interval's length times _mean_p_ln_p of the lengths at its ends, read
    from the cut table with the spans closed at the thresholds.
    """
    probs = _cut_table(g, ends, vertical, closed=True)[2].tolist()
    terms = [
        (b - a) * _mean_p_ln_p(pa, pb)
        for a, b, at_a, at_b in zip(ends, ends[1:], probs, probs[1:])
        for pa, pb in zip(at_a, at_b)
    ]
    return -scale * math.fsum(terms) / math.log(2.0)


@lru_cache(maxsize=256)
def kappa_12(params: LatticeParams) -> float:
    """Limiting H(U2|U1) as the 12-scheme bins shrink.

    (2/L) * integral of the strip decision entropy over (-1/2, t_m1], in
    closed form on the two x1 intervals split at t_m2: at most six terms.
    """
    g = cell_geometry(params)
    return _kappa(g, (-0.5, g.t_m2, g.t_m1), True, 2.0 / g.L)


@lru_cache(maxsize=256)
def kappa_21(params: LatticeParams) -> float:
    """Limiting H(U1|U2) as the 21-scheme bins shrink.

    (2/H) * integral of the row decision entropy over the bottom band
    (-H/2, tau_m1], in closed form: three terms.
    """
    g = cell_geometry(params)
    return _kappa(g, (-g.H / 2.0, g.tau_m1), False, 2.0 / g.H)


def _curve_12(params: LatticeParams) -> tuple[CellGeometry, Scheme12Coefficients]:
    """The geometry and coefficients the optimal 12 curve is solved from.

    Its n1/n2 ratio divides by alpha2*L1 ~ (rho*cos(theta))^2/16, which at
    the far rectangular end is subnormal (c below about 4e-154, where the
    ratio has lost its bits) or 0 (below about 6e-162): DegenerateInterval.
    """
    g = cell_geometry(params)
    co = coefficients_12(params)
    if co.alpha2 * g.L1 < sys.float_info.min:
        raise DegenerateInterval(f"alpha2*L1 is subnormal or 0 at rho*cos(theta) = {params.rcos}")
    return g, co


def _n1_rule(params: LatticeParams) -> Callable[[int], int]:
    """optimal_n1(params, .) with its constants computed once."""
    g, co = _curve_12(params)
    num, den = co.alpha1 * g.L2, co.alpha2 * g.L1
    return lambda n2: max(1, math.ceil(num * n2 / den))


def optimal_n1(params: LatticeParams, n2: int) -> int:
    """Rate-constrained minimiser N1(N2) = ceil(alpha1*L2*N2 / (alpha2*L1))."""
    require_count(n2=n2)
    return _n1_rule(params)(n2)


@dataclass(frozen=True)
class TradeoffPoint:
    """One (rate, error) point of a quantizer family; n1/n2 for the 12
    scheme, n for the 21 scheme."""

    rate_bits: float
    pe: float
    n1: int | None = None
    n2: int | None = None
    n: int | None = None


def point_12(params: LatticeParams, n1: int, n2: int) -> TradeoffPoint:
    """The 12 scheme's (rate, pe) point at sizes (n1, n2)."""
    h1, h2 = rate_12(params, n1, n2)
    return TradeoffPoint(rate_bits=h1 + h2, pe=pe_12(params, n1, n2), n1=n1, n2=n2)


def point_21(params: LatticeParams, n: int) -> TradeoffPoint:
    """The 21 scheme's (rate, pe) point at size n."""
    return TradeoffPoint(rate_bits=rate_21(params, n), pe=pe_21(params, n), n=n)


def tradeoff_curve(params: LatticeParams, scheme: str, size_max: int) -> list[TradeoffPoint]:
    """Pareto (rate, pe) points of curve_point at sizes 1..size_max; the 21
    curve keeps them all (its rate never falls with n, and pe = beta/n > 0 falls)."""
    require_count(size_max=size_max)
    points = [curve_point(params, scheme, size) for size in range(1, size_max + 1)]
    points.sort(key=lambda p: p.rate_bits)
    pruned: list[TradeoffPoint] = []
    for p in points:
        if not pruned or p.pe < pruned[-1].pe:
            pruned.append(p)
    return pruned


def asymptotic_constant_12(params: LatticeParams, form: str = "geometric") -> float:
    """Limit of pe * 2^(L*R / (2*(L1+L2))) along the optimal 12 curve.

    The "geometric" form is stated in cell lengths; the "probability" form
    restates it with P_i = L_i/L and exponent 1/(1-P0).  Both evaluate
    identically (L = 1).
    """
    g, co = _curve_12(params)
    kap = kappa_12(params)
    ratio = co.alpha1 * g.L2 / (co.alpha2 * g.L1)
    lead = co.alpha2 * (1.0 + g.L1 / g.L2) * ratio ** (g.L1 / (g.L1 + g.L2))
    if form == "geometric":
        return lead * 2.0 ** (g.L * (kap + _interval_entropy(g)) / (2.0 * (g.L1 + g.L2)))
    if form == "probability":
        p = (g.L0 / g.L, g.L1 / g.L, g.L1 / g.L, g.L2 / g.L, g.L2 / g.L)
        return lead * 2.0 ** ((kap + _entropy_raw(p)) / (1.0 - p[0]))
    raise ValueError(f"unknown form {form!r}")


def beta_21(params: LatticeParams) -> float:
    """Error coefficient of the 21 scheme: pe = beta / N.

    Printed closed form (1/2)*((2*L2+L1)/L)*(H1/H).
    """
    g = cell_geometry(params)
    return 0.5 * ((2.0 * g.L2 + g.L1) / g.L) * (g.H1 / g.H)


def pe_21(params: LatticeParams, n: int) -> float:
    """Exact error probability beta/n of the 21 scheme."""
    require_count(n=n)
    return beta_21(params) / n


def rate_21(params: LatticeParams, n: int) -> float:
    """Total rate H(Q) + (1-Q0)*log2(N) + kappa of the 21 scheme."""
    require_count(n=n)
    q = lattice.round1_code(params).q
    return _entropy_raw(q) + (1.0 - q[1]) * math.log2(n) + kappa_21(params)


def asymptotic_constant_21(params: LatticeParams) -> float:
    """Limit of pe * 2^(R/(1-Q0)) for the 21 scheme: beta * 2^((H(Q)+kappa)/(1-Q0)).

    1 - Q0 = 2*H1/H rounds to 0 at the far rectangular end
    (DegenerateInterval)."""
    q = lattice.round1_code(params).q
    if q[1] == 1.0:
        raise DegenerateInterval(f"1 - Q0 = 0.0 at rho*cos(theta) = {params.rcos}")
    return beta_21(params) * 2.0 ** ((_entropy_raw(q) + kappa_21(params)) / (1.0 - q[1]))


def round1_distributions(params: LatticeParams) -> tuple[Distribution, Distribution]:
    """(Q, P): first-round message distributions of the infinite scheme.

    Q is S2's band index over (J_-1, J_0, J_1); P is S1's interval index
    over the coarse three-way x1 partition, conditioned on U2 = 1.  Both are
    indexed (-1, 0, +1).  P0 = 1/2 identically.
    """
    code = lattice.round1_code(params)
    return Distribution(code.q), Distribution(code.p)


def rbar_infinite(params: LatticeParams) -> float:
    """Expected total ideal bits of the infinite-round zero-error scheme."""
    code = lattice.round1_code(params)
    q0, p0 = code.q[1], code.p[1]
    return _entropy_raw(code.q) + (1.0 - q0) * _entropy_raw(code.p) + 4.0 * (1.0 - p0) * (1.0 - q0)


def nbar_infinite(params: LatticeParams) -> float:
    """Expected number of rounds of the infinite-round scheme."""
    code = lattice.round1_code(params)
    return 1.0 + 2.0 * (1.0 - code.p[1]) * (1.0 - code.q[1])


def _curve_entry(scheme: str) -> "schemes.Scheme":
    """The scheme table entry of a scheme with a curve (see curve_point)."""
    entry = schemes.SCHEMES.get(scheme) if isinstance(scheme, str) else None
    if entry is None or entry.curve is None:
        raise ValueError(f"unknown scheme {scheme!r}")
    return entry


def curve_point(params: LatticeParams, scheme: str, size: int) -> TradeoffPoint:
    """The (rate, pe) point at one size index: the scheme table entry's `curve`
    (n2, with n1 = optimal_n1(n2), for "12"; n for "21").  A scheme without a
    curve, or not a name in the table (the int 12 included), raises ValueError."""
    return _curve_entry(scheme).curve(params, size)


def _last_within(within: Callable[[int], bool], start: int, cap: int) -> int:
    """Largest size in [1, cap] where within holds, for within true at 1 and
    monotone (true up to some size, false beyond it).

    Gallops from start, up by steps 1, 2, 4, ... while within holds there,
    else down by the same steps, until the answer is bracketed, then bisects
    (Bentley and Yao, IPL 1976).  From start = 1 the probes are 1, 2, 4, ...
    up to cap and then the bisection midpoints: the plain exponential search.
    """
    step = 1
    if within(start):
        lo = start
        while lo < cap:
            probe = min(lo + step, cap)
            if not within(probe):
                hi = probe
                break
            lo = probe
            step *= 2
        else:
            return cap
    else:
        hi = start
        while True:
            lo = max(hi - step, 1)
            if lo == 1 or within(lo):
                break
            hi = lo
            step *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if within(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _seed_12(params: LatticeParams, rate_budget: float, cap: int) -> int:
    """The 12 curve's size within the budget on its closed-form rate.

    Solves H(U1)(n) + kappa_12 <= budget, with n1 = optimal_n1(n), on the
    closed-form H(U1); H(U2|U1) tends to kappa_12 as the bins shrink and
    barely moves with n, so the solution lands on or next to the answer.
    The solve evaluates no curve point.
    """
    g = cell_geometry(params)
    kappa = kappa_12(params)
    h_len = _interval_entropy(g)
    n1 = _n1_rule(params)
    return _last_within(lambda n: _h_u1(g, h_len, n1(n), n) + kappa <= rate_budget, 1, cap)


def _ceiling_12(params: LatticeParams) -> float:
    """An upper bound on the rate of the 12 curve's coarsest point: H(U1) at
    (optimal_n1(1), 1), to rate_12's bits, plus log2 3 + 1e-9.  H(U2|U1) sums
    width times a ternary entropy (<= log2 3) over bins of widths adding up to
    L = 1; on at most 7 bins (n1 <= 2: the n1 rule's ratio is 1 - 2c < 1) its
    rounding adds under 1e-13 bits, and fl(H(U1) + H(U2|U1)) is monotone."""
    g = cell_geometry(params)
    return _h_u1(g, _interval_entropy(g), _n1_rule(params)(1), 1) + (math.log2(3.0) + 1e-9)


def _seed_21(params: LatticeParams, rate_budget: float, cap: int) -> int:
    """The 21 curve's size within the budget: rate_21's closed form
    H(Q) + (1-Q0)*log2(n) + kappa_21 solved for n and clipped to [1, cap];
    the cap itself where 1-Q0 is too small for the rate to pass the budget
    below it."""
    q = lattice.round1_code(params).q
    slope = 1.0 - q[1]
    excess = rate_budget - (_entropy_raw(q) + kappa_21(params))
    if excess >= slope * math.log2(cap):
        return cap
    return min(max(int(2.0 ** (excess / slope)), 1), cap)


def _budget_search(
    params: LatticeParams, scheme: str, rate_budget: float
) -> tuple[int, Callable[[int], TradeoffPoint]]:
    """Size index of the finest curve point within the budget, and the curve
    evaluator the search used.

    The search gallops from a seed solved on the scheme's closed-form rate
    (its table entry's `seed`: _seed_12, _seed_21), then bisects, within
    the entry's `cap`.  The seed lands on or next to the answer (the 21
    seed up to its rounding, which near theta = pi/2, where the answer
    passes 2^45, is worth more than one size), so the search reads the
    curve at the answer or its neighbours, and at 1 (BudgetTooSmall below its
    rate) only below the entry's `ceiling` on that rate, if any.  Where the rate is
    monotone in the size the answer does not depend on the seed: it is the
    largest size within the budget (or the cap).  The evaluator remembers
    the search's probes, so re-reading the found point or its neighbour
    costs nothing; it lives only as long as the caller keeps it.
    """
    if not math.isfinite(rate_budget):
        raise ValueError("rate budget must be finite")
    entry = _curve_entry(scheme)
    probes: dict[int, TradeoffPoint] = {}

    def point(size: int) -> TradeoffPoint:
        if size not in probes:
            probes[size] = curve_point(params, scheme, size)
        return probes[size]

    if entry.ceiling is None or rate_budget < entry.ceiling(params):
        first = point(1)
        if rate_budget < first.rate_bits:
            coarsest = f"{first.rate_bits:.6f} of scheme {scheme}"
            raise BudgetTooSmall(f"budget {rate_budget} below coarsest rate {coarsest}")
    seed = entry.seed(params, rate_budget, entry.cap)
    return _last_within(lambda n: point(n).rate_bits <= rate_budget, seed, entry.cap), point


def budget_point(
    params: LatticeParams, scheme: str, rate_budget: float
) -> TradeoffPoint:
    """Finest curve point whose rate does not exceed the budget.

    Found by a galloping search plus bisection on the monotone rate, from
    a seed solved on the scheme's closed-form rate (see _budget_search);
    the seed changes only the probes, not the point.  Raises BudgetTooSmall
    below the coarsest quantizer's rate and ValueError for a non-finite
    budget.  The search is bounded by a per-scheme size cap; when even the
    cap point's rate stays within the budget (the 21 scheme's rate
    saturates as theta approaches pi/2, where 1-Q0 vanishes), the cap point
    is returned.
    """
    size, point = _budget_search(params, scheme, rate_budget)
    return point(size)


def budget_pe(
    params: LatticeParams, scheme: str, rate_budget: float
) -> tuple[TradeoffPoint, float]:
    """budget_point and the interpolated pe of pe_at_rate, from one search."""
    size, point = _budget_search(params, scheme, rate_budget)
    below = point(size)
    cap = schemes.SCHEMES[scheme].cap
    pair = (below, point(size + 1)) if size < cap else (point(size - 1), below)
    (r_a, p_a), (r_b, p_b) = ((p.rate_bits, p.pe) for p in pair)
    if r_b == r_a:
        return below, below.pe
    frac = (rate_budget - r_a) / (r_b - r_a)
    pe_interp = 2.0 ** (math.log2(p_a) + frac * (math.log2(p_b) - math.log2(p_a)))
    return below, pe_interp


def pe_at_rate(
    params: LatticeParams, scheme: str, rate_budget: float
) -> tuple[float, float]:
    """Error probability of a scheme at a rate budget.

    Returns (pe_below, pe_interp): pe of the best curve point with rate <=
    budget, and the log-linear interpolation of pe between the two Pareto
    points bracketing the budget.  Raises BudgetTooSmall below the coarsest
    quantizer's rate and ValueError for a non-finite budget.  If the whole
    representable curve sits below the budget (21 scheme near theta = pi/2),
    the interpolation extrapolates from the last two points, which is exact
    for the 21 scheme whose points are collinear in (rate, log2 pe), and
    typically underflows to 0.0.
    """
    below, pe_interp = budget_pe(params, scheme, rate_budget)
    return below.pe, pe_interp
