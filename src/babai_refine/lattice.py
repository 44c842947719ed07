"""Exact geometry of a 2-D lattice with upper-triangular basis.

The lattice is generated by v1 = (1, 0) and v2 = (rho*cos(theta),
rho*sin(theta)) with rho >= 1 and 0 < rho*cos(theta) < 1/2, so the basis is
reduced and the six relevant vectors are +/-v1, +/-v2 and +/-(v2 - v1).  The
nearest-plane (Babai) rule partitions the plane into rectangles of width 1
and height H = rho*sin(theta); this module provides the Babai and exact
nearest-point maps, the Voronoi membership test, the decision-boundary
structure inside the zero-centred Babai cell B(0) = (-1/2,1/2] x (-H/2,H/2]
and, from its constants, the Babai error probability in closed form.

Half-open conventions are used uniformly: every interval is (a, b], and
nearest-integer rounding places the residual in (-1/2, 1/2].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import InvalidParams, OutOfCell, require_count


class IntegerPair(NamedTuple):
    """Lattice coordinates u; the lattice point is V @ u."""

    u1: int
    u2: int

    def __neg__(self) -> "IntegerPair":
        return IntegerPair(-self.u1, -self.u2)


class Point2(NamedTuple):
    """Plane point; x1 is held by node S1 and x2 by node S2."""

    x1: float
    x2: float


def check_rho(rho: float) -> float:
    """rho if finite and >= 1, as LatticeParams requires; else InvalidParams."""
    if not math.isfinite(rho):
        raise InvalidParams("rho and theta must be finite")
    if rho < 1.0:
        raise InvalidParams(f"rho must be >= 1, got {rho}")
    return rho


def _frozen(cls, fields: dict):
    """An instance of the frozen dataclass cls holding `fields` (name: value),
    set in one dict update instead of __init__'s object.__setattr__ per
    field; it runs no __post_init__, so the caller has checked the fields."""
    obj = object.__new__(cls)
    vars(obj).update(fields)
    return obj


def _check_rcos(rho: float, c: float) -> float:
    """c if rho passes check_rho and c = rho*cos(theta) lies in (0, 1/2)."""
    check_rho(rho)
    if not 0.0 < c < 0.5:
        raise InvalidParams(f"rho*cos(theta) must lie strictly in (0, 1/2), got {c}")
    return c


@dataclass(frozen=True)
class LatticeParams:
    """Length ratio rho (unitless, >= 1) and angle theta in radians.

    c = rho*cos(theta) must lie strictly in (0, 1/2) (the rectangular and
    hexagonal ends are studied via small offsets) and sin(theta) must be
    positive, so that H = rho*sin(theta) > 0.  v2 = (rcos, rsin) = (c, H)
    is stored once; with v1 = (1, 0) it is the basis the decoders read, and
    every cell constant is rational in it.  Equality and hash
    include v2, so from_rcos(rho, c), which keeps c exactly, is not the
    lattice of its theta when fl(rho*cos(theta)) != c.
    """

    rho: float
    theta: float
    rcos: float = field(init=False)
    rsin: float = field(init=False)

    def __post_init__(self):
        if not math.isfinite(self.theta):
            raise InvalidParams("rho and theta must be finite")
        c = _check_rcos(self.rho, self.rho * math.cos(self.theta))
        h = self.rho * math.sin(self.theta)
        if h <= 0.0:
            raise InvalidParams(f"sin(theta) must be positive, got rho*sin(theta) = {h}")
        vars(self).update(rcos=c, rsin=h)

    @classmethod
    def from_rcos(cls, rho: float, c: float) -> "LatticeParams":
        """The lattice with v2 = (c, sqrt(rho^2 - c^2)), c exactly as given;
        its theta = acos(c/rho) is for printing, nothing computes with it."""
        _check_rcos(rho, c)
        h = math.sqrt((rho - c) * (rho + c))
        return _frozen(cls, {"rho": rho, "theta": math.acos(c / rho), "rcos": c, "rsin": h})


def make_generator(params: LatticeParams) -> LatticeParams:
    """The basis v1 = (1, 0), v2 = (rcos, rsin) is params itself; kept as the
    identity for callers written against the former basis type."""
    return params


def _round_half_low(y: float) -> int:
    """Nearest integer leaving the residual in (-1/2, 1/2]."""
    return int(math.ceil(y - 0.5))


def babai_nearest_plane(x: Point2, params: LatticeParams) -> IntegerPair:
    """Nearest-plane decode: round x2 against v2, then x1 against v1.

    The residual x - V@u always lands in the half-open Babai cell
    (-1/2, 1/2] x (-H/2, H/2].
    """
    u2 = _round_half_low(x[1] / params.rsin)
    u1 = _round_half_low(x[0] - params.rcos * u2)
    return IntegerPair(u1, u2)


def lattice_point(u: IntegerPair, params: LatticeParams) -> Point2:
    """Plane coordinates of the lattice point V @ u = u1*v1 + u2*v2."""
    return Point2(u[0] + u[1] * params.rcos, u[1] * params.rsin)


def exact_nearest_point(x: Point2, params: LatticeParams, window: int = 2) -> IntegerPair:
    """True closest lattice point by brute force around the Babai point.

    Scans the (2*window+1)^2 integer window centred on the nearest-plane
    decode (window=2 is already generous; the minimiser differs from the
    Babai point by at most a relevant vector).  Ties go to the candidate
    with the smallest (u2, u1).  window must be an int >= 1 (ValueError):
    every relevant neighbour of the Babai point lies in its 3x3 window.
    """
    require_count(window=window)
    b = babai_nearest_plane(x, params)
    best, best_d2 = b, math.inf
    for du2 in range(-window, window + 1):
        for du1 in range(-window, window + 1):
            u = IntegerPair(b.u1 + du1, b.u2 + du2)
            p = lattice_point(u, params)
            dx = x[0] - p[0]
            dy = x[1] - p[1]
            d2 = dx * dx + dy * dy
            if d2 < best_d2:
                best_d2 = d2
                best = u
    return best


def relevant_vectors() -> list[IntegerPair]:
    """The six lattice vectors whose bisectors carry the Voronoi faces."""
    base = [IntegerPair(1, 0), IntegerPair(0, 1), IntegerPair(-1, 1)]
    return [v for r in base for v in (r, -r)]


def in_voronoi_cell(x: Point2, params: LatticeParams) -> bool:
    """Closed-cell membership: x.(Vr) <= |Vr|^2/2 for all six relevant r (never at NaN)."""
    faces = (_face(params, r) for r in relevant_vectors())
    return all(x[0] * n[0] + x[1] * n[1] <= half_norm for n, half_norm in faces)


@dataclass(frozen=True)
class BoundarySegment:
    """Portion of a perpendicular bisector inside B(0).

    The line is x . normal = offset with normal = V@neighbor and
    offset = |V@neighbor|^2 / 2.  Each span, stored ascending, runs exactly
    from the segment's closed-form x1 (x2) threshold to the cell edge.
    """

    neighbor: IntegerPair
    normal: Point2
    offset: float
    x1_span: tuple[float, float]
    x2_span: tuple[float, float]
    slope: float

    def x2_at(self, x1: float) -> float:
        """Height of the bisector above x1 (the line is never vertical here)."""
        return (self.offset - self.normal[0] * x1) / self.normal[1]

    def x1_at(self, x2: float) -> float:
        """Abscissa of the bisector at height x2."""
        return (self.offset - self.normal[1] * x2) / self.normal[0]


@dataclass(frozen=True)
class CellGeometry:
    """All decision-boundary constants of the zero-centred Babai cell.

    t_* are x1 thresholds, tau_* x2 thresholds; L* interval lengths along
    x1 (L = 1) and H* heights along x2 (H = rho*sin(theta)).  H1 is the
    height of the four error triangles B(0) \\ V(0) carves at the top and
    bottom edges; H21/H22 split it at the x1 threshold t_2.
    """

    t_m2: float
    t_m1: float
    t_1: float
    t_2: float
    tau_m1: float
    tau_1: float
    L0: float
    L1: float
    L2: float
    L: float
    H: float
    H0: float
    H1: float
    H21: float
    H22: float
    boundary_segments: tuple[BoundarySegment, ...]


@dataclass(frozen=True)
class CutSpec:
    """Decision thresholds along one strip of B(0) and the region labels.

    cuts are ascending and strictly interior to the strip's cross-section;
    labels[i] is the exact-nearest lattice point of the i-th sub-interval,
    ordered bottom-to-top (strip_cuts) or left-to-right (row_cuts).
    """

    cuts: tuple[float, ...]
    labels: tuple[IntegerPair, ...]


class Round1Code(NamedTuple):
    """The infinite scheme's round-1 thresholds, H1 (y2's scale), q, p and their code lengths."""

    t_m2: float
    t_1: float
    tau_1: float
    H1: float
    q: tuple[float, float, float]
    p: tuple[float, float, float]
    q_bits: tuple[float, float, float]
    p_bits: tuple[float, float, float]


def round1_code(params: LatticeParams) -> Round1Code:
    """params' round-1 code, per call: q (S2's band) and p (S1's interval given band +1) cost
    -math.log2 bits, inf for 0 (rho >= 1 keeps q0, t_2 above 1/4; q1, t_1 can underflow)."""
    c, H = params.rcos, params.rsin
    H1 = c * (1.0 - c) / (2.0 * H)
    q1, q0, t_1, t_2 = H1 / H, (H - 2.0 * H1) / H, c / 2.0, (1.0 - c) / 2.0
    b1 = -math.log2(q1) if q1 > 0.0 else math.inf
    b2 = -math.log2(t_1) if t_1 > 0.0 else math.inf
    bits = ((b1, -math.log2(q0), b1), (b2, -math.log2(0.5), -math.log2(t_2)))
    return Round1Code((c - 1.0) / 2.0, t_1, H / 2.0 - H1, H1, (q1, q0, q1), (t_1, 0.5, t_2), *bits)


# the round-1 error rectangles by symbols (u2, u1), u1 mirrored through the origin
# for u2 = -1, to the neighbour beyond each diagonal, in boundary-segment order
_ERROR_RECTANGLES = {
    (1, 1): IntegerPair(0, 1),
    (-1, 1): IntegerPair(0, -1),
    (1, -1): IntegerPair(-1, 1),
    (-1, -1): IntegerPair(1, -1),
}


def _face(params: LatticeParams, r: IntegerPair) -> tuple[Point2, float]:
    """Normal V@r and half-norm |V@r|^2/2 of the bisector of 0 and V@r: x is
    on r's side when x . normal > half-norm."""
    n1, n2 = r[0] + r[1] * params.rcos, r[1] * params.rsin  # lattice_point(r, params)
    return Point2(n1, n2), 0.5 * (n1**2 + n2**2)


@lru_cache(maxsize=256)
def cell_geometry(params: LatticeParams) -> CellGeometry:
    """Thresholds, lengths, heights and boundary segments of B(0), rational in v2 = (c, H)."""
    c, H = params.rcos, params.rsin
    t_m2, t_1, tau_1, H1, _, (_, _, t_2) = round1_code(params)[:6]
    segments = []
    for (u2, u1), r in _ERROR_RECTANGLES.items():
        (a, b), (lo, hi) = ((t_1, 0.5) if u1 == 1 else (-0.5, t_m2)), (tau_1, H / 2.0)
        if u2 == -1:  # the mirrored frame's spans, mirrored back through the origin
            a, b, lo, hi = -b, -a, -hi, -lo
        normal, offset = _face(params, r)
        fields = dict(neighbor=r, normal=normal, offset=offset, x1_span=(a, b), x2_span=(lo, hi))
        fields["slope"] = -normal[0] / normal[1]
        segments.append(_frozen(BoundarySegment, fields))
    return _frozen(
        CellGeometry,
        dict(
            t_m2=t_m2, t_m1=-t_1, t_1=t_1, t_2=t_2, tau_m1=-tau_1, tau_1=tau_1,
            L0=c, L1=(1.0 - 2.0 * c) / 2.0, L2=c / 2.0, L=1.0,
            H=H, H0=H - 2.0 * H1, H1=H1, H21=c * (1.0 - 2.0 * c) / (2.0 * H), H22=c * c / (2.0 * H),
            boundary_segments=tuple(segments),
        ),
    )


class CrossSection(NamedTuple):
    """Decision cuts of B(0) along k strips (vertical lines) or k rows.

    lo[i] and hi[i] are the cuts below and above the (0,0) region of the i-th
    line, -inf / +inf where absent.  labels[i] (shape (3, 2)) holds the
    lattice points of the regions below lo, between the cuts and above hi,
    and probs[i] their lengths as fractions of the line's length inside the
    cell; an absent cut leaves an empty region with a (0, 0) filler label.
    """

    lo: np.ndarray
    hi: np.ndarray
    labels: np.ndarray
    probs: np.ndarray


def _cut_table(geom: CellGeometry, coords, vertical: bool, closed: bool = False) -> tuple:
    """cross_section's lo, hi and probs, without labels, and the masks of the
    lines each boundary segment crosses.  A segment's cut, (offset - side*x)
    / beyond as seg.x2_at and seg.x1_at spell it, is divided only where it
    crosses, into lo or hi.  probs is (3, ...) seen axis-last, so each column is contiguous."""
    x = np.asarray(coords, dtype=np.float64)
    lo, hi, crosses = np.full(x.shape, -np.inf), np.full(x.shape, np.inf), []
    for seg in geom.boundary_segments:
        side, beyond = seg.normal if vertical else seg.normal[::-1]
        a, b = seg.x1_span if vertical else seg.x2_span
        if side > 0.0:
            crosses.append(x >= a if closed else x > a)
        else:
            crosses.append(x <= b if closed else x < b)
        cut = seg.offset - np.multiply(x, side)
        np.divide(cut, beyond, out=hi if beyond > 0.0 else lo, where=crosses[-1])
    span, half = (geom.H, geom.H / 2.0) if vertical else (1.0, 0.5)
    probs = np.empty((3,) + x.shape)
    lo_in, mid, hi_in = probs[0, ...], probs[1, ...], probs[2, ...]
    np.maximum(lo, -half, out=lo_in)
    np.minimum(hi, half, out=hi_in)
    np.subtract(hi_in, lo_in, out=mid)
    lo_in += half
    np.subtract(half, hi_in, out=hi_in)
    probs /= span
    return lo, hi, probs.transpose(*range(1, probs.ndim), 0), crosses


def cross_section(
    geom: CellGeometry, coords, vertical: bool, closed: bool = False
) -> CrossSection:
    """Cut table of the strips at x1 = coords (vertical) or the rows at x2 = coords.

    The boundary segment of neighbour r lies in the corner of B(0) that V@r
    points to.  It crosses the strips of its x1 span and the rows of its x2
    span, whose inner ends are the thresholds (t_1, t_2, t_m2, t_m1 for
    r = (0,1), (1,-1), (-1,1), (0,-1); tau_1 and tau_m1 for the top and
    bottom pairs); the region beyond its cut, in the direction V@r points,
    is r.  Each span is open at its threshold and closed at +/-1/2 and
    +/-H/2, so on the five x1 intervals and the three x2 bands the cuts
    are affine and the labels constant.

    closed=True closes the spans at their thresholds too, keeping there the
    cut as the line algebra gives it (on the line's end up to rounding):
    kappa reads it at the interval ends, where it gives the continuous
    extension of that interval's affine region lengths.  _cut_table gives
    the cuts, the probs and the masks the labels are written from.
    """
    lo, hi, probs, crosses = _cut_table(geom, coords, vertical, closed)
    labels = np.zeros(lo.shape + (3, 2))
    for seg, crossed in zip(geom.boundary_segments, crosses):
        region = 2 if (seg.normal[1] if vertical else seg.normal[0]) > 0.0 else 0
        for j, u in enumerate(seg.neighbor):
            np.copyto(labels[..., region, j], u, where=crossed)
    return CrossSection(lo=lo, hi=hi, labels=labels, probs=probs)


def _cut_spec(table: CrossSection) -> CutSpec:
    """The first line of a cut table as ascending cuts and region labels."""
    lo, hi = float(table.lo[0]), float(table.hi[0])
    below, centre, above = (IntegerPair(int(a), int(b)) for a, b in table.labels[0].tolist())
    cuts, labels = [], [centre]
    if lo > -math.inf:
        cuts.append(lo)
        labels.insert(0, below)
    if hi < math.inf:
        cuts.append(hi)
        labels.append(above)
    return CutSpec(cuts=tuple(cuts), labels=tuple(labels))


def strip_cuts(params: LatticeParams, x1: float) -> CutSpec:
    """Decision thresholds in x2 along the vertical line at x1.

    The central strip (t_m1, t_1] is cut-free; strips over I_{+/-1} carry one
    cut and strips over I_{+/-2} two, each label being the nearest lattice
    point of its sub-interval.
    """
    geom = cell_geometry(params)
    if not -0.5 < x1 <= 0.5:
        raise OutOfCell(f"x1 = {x1} outside (-1/2, 1/2]")
    return _cut_spec(cross_section(geom, [x1], vertical=True))


def row_cuts(params: LatticeParams, x2: float) -> CutSpec:
    """Decision thresholds in x1 along the horizontal line at x2.

    The central band (tau_m1, tau_1] is cut-free; every row through the top
    or bottom band is crossed by both of that band's boundary segments.
    """
    geom = cell_geometry(params)
    if not -geom.H / 2.0 < x2 <= geom.H / 2.0:
        raise OutOfCell(f"x2 = {x2} outside (-H/2, H/2]")
    return _cut_spec(cross_section(geom, [x2], vertical=False))


def babai_error_probability(params: LatticeParams) -> float:
    """Probability that the Babai decode differs from the true nearest point.

    B(0) \\ V(0) is four corner triangles, one in each error rectangle of
    the top and bottom bands (height H1; in each band the two rectangles
    are L2 + (L1 + L2) = 1/2 wide).  The Voronoi boundary is each
    rectangle's diagonal, so the triangles are half the rectangles' mass
    (1 - Q0)(1 - P0) = (2 H1/H)(1/2): pe = H1/(2H), with no subtraction
    that cancels near the rectangular end.
    """
    g = cell_geometry(params)
    return g.H1 / (2.0 * g.H)
