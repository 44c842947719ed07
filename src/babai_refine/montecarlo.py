"""Uniform sampling over the Babai cell and vectorized protocol estimators.

Sampling is counter-based (SplitMix64 keyed by the seed, indexed by the
trial number), so every trial is a pure function of (seed, trial_index),
whatever block of trials it is computed in.  The run_batch_* kernels
evaluate a whole array of trials at once and return per-trial arrays;
simulate() reduces them into a SimReport with binomial / sample standard
errors next to the closed-form predictions.  A decision is an error when it
differs from the exact nearest point; simulate() certifies each decision
against the Voronoi hexagon and runs the oracle exact_nearest_batch, a
plain scan of the Babai point and its six relevant neighbours, only on the
trials that test leaves in doubt.

Every per-trial array of the block pipeline (sampler, kernels, hexagon
test, oracle, error flags) and of the chunk reduction, but for the index
arrays np.flatnonzero returns, is taken from a Workspace and written in
place.  simulate() uses one workspace per thread, built on the thread's
first call and grown to the largest block and chunk it has seen, so later
calls fault in no fresh pages; it holds no more than one call of that size
needs at its peak (about 25 MB after a 2^20-trial call, most of it the
chunk's bits and rounds) and is freed with its thread.
Called without a workspace, the batch functions take a fresh one, so the
arrays they return belong to the caller.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from . import protocols, schemes
from .errors import require_int
from .lattice import LatticeParams, Point2, cell_geometry, round1_code
from .protocols import DEFAULT_MAX_ROUNDS

# Trials per reduction chunk: its per-chunk float sums set a report's low
# bits, so it is fixed.
_CHUNK = 1 << 20
# Trials per block of the per-trial stages (sampling, oracle, kernel, error
# flags).  Any size gives the same report; at 2^16 a block's float64 arrays
# are 512 KB, so the stages' elementwise passes stay in a 2 MB L2 cache, and
# the workspace keeps them across blocks and calls instead of faulting in
# fresh pages for each.
_BLOCK = 1 << 16

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


class Workspace:
    """Named arrays reused across calls, each grown to the largest size asked.

    `ws(name, n, dtype)` is the array `name` of n entries, a view of a byte
    buffer kept under that name; its contents are whatever was last written
    there.  A stage's returned arrays have names of their own, shared only
    by stages that never run on the same block (the kernels' "dec1",
    "int0", ...); its scratch, dead once it returns, uses the shared names
    "tmp0", "tmp1", "tmp2" (8-byte entries) and "mask0", ... (1-byte).
    """

    def __init__(self):
        self._buffers: dict[str, np.ndarray] = {}

    def __call__(self, name: str, n: int, dtype=np.float64) -> np.ndarray:
        nbytes = n * np.dtype(dtype).itemsize
        buf = self._buffers.get(name)
        if buf is None or len(buf) < nbytes:
            buf = self._buffers[name] = np.empty(nbytes, np.uint8)
        return buf[:nbytes].view(dtype)


_THREAD = threading.local()


def _thread_workspace() -> Workspace:
    """This thread's workspace, built on its first simulate call."""
    ws = getattr(_THREAD, "workspace", None)
    if ws is None:
        ws = _THREAD.workspace = Workspace()
    return ws


def _arange(out: np.ndarray) -> np.ndarray:
    """out[i] = i for an integer array, by doubling the filled prefix
    (np.arange has no out=)."""
    out[:1] = 0
    k = 1
    while k < len(out):
        np.add(out[: min(k, len(out) - k)], k, out=out[k : 2 * k])
        k *= 2
    return out


def _mixed_draws(z: np.ndarray, scale: float, t: np.ndarray) -> np.ndarray:
    """SplitMix64's finaliser on the counters z, in place, as uniform doubles
    over z's own memory (t is scratch of z's size).

    The draw k = mix(z) >> 11 stands for u = (k + 1) * 2^-53 in (0, 1], and
    the result is (u - 1/2) * scale.  It is computed as
    (k - (2^52 - 1)) * (scale * 2^-53): the centred draw is an int64 of
    magnitude at most 2^52, so its float is exact, and scaling by a power of
    two commutes with rounding, so the single rounding of the product is
    that of (u - 1/2) * scale (none at all for scale = 1).
    """
    for shift, mix in ((30, _MIX1), (27, _MIX2)):
        np.right_shift(z, np.uint64(shift), out=t)
        z ^= t
        z *= mix
    np.right_shift(z, np.uint64(31), out=t)
    z ^= t
    z >>= np.uint64(11)
    z -= np.uint64((1 << 52) - 1)  # wraps below 0: read as int64 it is k - (2^52 - 1)
    u = z.view(np.float64)
    # in place, 8 bytes to the same 8 bytes: copyto reads each entry before writing it
    np.copyto(u, z.view(np.int64))
    u *= scale * 2.0**-53
    return u


def sample_cell_arrays(
    params: LatticeParams, trial_index: np.ndarray, seed: int, *, workspace: Workspace | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Uniform points over (-1/2,1/2] x (-H/2,H/2], one per trial index.

    Slot j in {0, 1} of trial i draws k = SplitMix64(seed + (2i + j + 1)g)
    >> 11 (g the golden-ratio constant, arithmetic mod 2^64) and
    u = (k + 1) * 2^-53 in (0, 1]; x1 = u - 1/2 from slot 0 and
    x2 = (u - 1/2) * H from slot 1.  The counters are computed folded, as
    i * 2g + (g + seed) and that plus g, an identity mod 2^64, and the draws
    as _mixed_draws states, so the points are those of the definition bit
    for bit, and |x1| <= 1/2 and |x2| <= H/2 hold exactly: rounding is
    monotone, and the bounds are the extreme draw's exact products.

    The seed must be an int in [0, 2^64), and the trial indices integers in
    [0, 2^64): an integer-dtype array (uint64 is used with no scan) or a list
    of ints.  A float, bool or object array or a negative entry raises
    ValueError; an empty array, of any dtype, holds nothing to check.  The
    points are written to `workspace` (a fresh one if None).
    """
    _check_u64("seed", seed)
    idx = np.asarray(trial_index)
    if idx.dtype != np.uint64 and idx.size:
        if idx.dtype.kind not in "iu":
            raise ValueError(f"trial indices must be integers, got dtype {idx.dtype}")
        if idx.dtype.kind == "i" and idx.min() < 0:
            raise ValueError("trial indices must be >= 0")
    ws = Workspace() if workspace is None else workspace
    n = idx.size
    z0 = ws("x1", n, np.uint64)
    np.copyto(z0, idx.reshape(-1), casting="unsafe")
    z0 *= np.uint64((2 * _GOLDEN) & _U64)
    z0 += np.uint64((_GOLDEN + seed) & _U64)
    z1 = np.add(z0, np.uint64(_GOLDEN), out=ws("x2", n, np.uint64))
    t = ws("tmp0", n, np.uint64)
    x1 = _mixed_draws(z0, 1.0, t)
    x2 = _mixed_draws(z1, params.rsin, t)
    return x1.reshape(idx.shape), x2.reshape(idx.shape)


def sample_uniform_babai_cell(params: LatticeParams, trial_index: int, seed: int) -> Point2:
    """Single uniform point over the zero-centred Babai cell.

    trial_index must be an int in [0, 2^64), like the seed (ValueError).
    """
    _check_u64("trial_index", trial_index)
    x1, x2 = sample_cell_arrays(params, np.array([trial_index], dtype=np.uint64), seed)
    return Point2(float(x1[0]), float(x2[0]))


_U64 = 0xFFFFFFFFFFFFFFFF


def _mix64_int(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _U64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _U64
    return z ^ (z >> 31)


def _check_u64(name: str, value) -> None:
    """value must be an int, not a bool, in [0, 2^64) (ValueError)."""
    require_int(**{name: value})
    if not 0 <= value <= _U64:
        raise ValueError(f"{name} must be in [0, 2**64), got {value}")


def derive_seed(seed: int, stream: int) -> int:
    """Deterministic 64-bit sub-seed for a named stream of a master seed;
    the seed and the stream are each an int in [0, 2^64) (ValueError)."""
    _check_u64("seed", seed)
    _check_u64("stream", stream)
    base = (seed + _GOLDEN * (stream + 1)) & _U64
    return _mix64_int(_mix64_int(base))


def babai_batch(
    params: LatticeParams, x1: np.ndarray, x2: np.ndarray, *, workspace: Workspace | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized nearest-plane decode, written to `workspace` (a fresh one
    if None)."""
    ws = Workspace() if workspace is None else workspace
    c, s = params.rcos, params.rsin
    shape = np.shape(x2)
    size = math.prod(shape)
    u2 = np.divide(x2, s, out=ws("nearest2", size).reshape(shape))
    u2 -= 0.5
    np.ceil(u2, out=u2)
    u1 = np.multiply(c, u2, out=ws("nearest1", size).reshape(shape))
    np.subtract(x1, u1, out=u1)
    u1 -= 0.5
    np.ceil(u1, out=u1)
    return u1, u2


# Babai plus the six relevant vectors +-v1, +-v2, +-(v2 - v1), as du1 offsets
# per du2 row, in the 5x5 window's ascending (du2, du1) scan order.
_RELEVANT_ROWS = ((-1, (0, 1)), (0, (-1, 0, 1)), (1, (-1, 0)))

# Safety margin of the hexagon test per unit of 1 + the call's span, a bound
# on max|x1| + max|x2| + max|b1| + rho * max|b2| over its points and candidates.
_MARGIN = 2.0**-30


def _uncertified(
    params: LatticeParams, x1: np.ndarray, x2: np.ndarray, b1, b2, span: float, ws: Workspace
) -> np.ndarray:
    """Flat indices of the trials whose candidate (b1, b2) the hexagon test
    cannot certify as the nearest lattice point.

    x1 and x2 are flat; b1 and b2 are arrays of their length or one number
    each, the candidate of every trial.  `span` is a bound on max|x1| +
    max|x2| + max|b1| + rho*max|b2| that the caller knows (simulate's, from
    the cell and the decisions every scheme takes).  For a reduced basis
    (0 < rho*cos(theta) < 1/2) the Voronoi cell V(0) is the hexagon
    |r.n| <= |n|^2/2 for the three face normals n = v1, v2 and v2 - v1 (the
    relevant vectors +-n; Agrell, Eriksson, Vardy & Zeger, "Closest point
    search in lattices", IEEE Trans. IT 2002; SPLAG ch. 20), so b is the
    nearest point when the residual r = x - V b lies inside it.

    The test.  With one margin per call, M = 2^-30 * (1 + span), a trial is
    certified when |r1| < 1/2 - M and |r.n| < |n|^2/2 - M|n| for n = v2 and
    n = v2 - v1, with r in the window scan's expressions for the candidate
    b; the normals and half-norms |n|^2/2 are those of the cell's boundary
    segments of the neighbours (0, 1) and (-1, 1), and the thresholds are
    scalars.  Every other trial (outside the hexagon, in a band of width M
    inside its faces, or non-finite) is returned.  The comparisons are
    strict, so a NaN residual fails them.

    Why the certificate is exact.  Passing the test puts the open disc of
    radius M about r inside V(0): r is more than M from each of the six
    faces.  V(0) lies on 0's side of the bisector of every other lattice
    point Vk, so r.k + M|k| < |k|^2/2, and V(b + k) is farther from x than
    Vb is, in squared distance, by |k|^2 - 2r.k > 2M|k| >= 2M (|k| >= 1 in a
    reduced basis with rho >= 1).  As the span bounds the maxima, M is at
    least each trial's own 2^-30 * (1 + |x1| + |x2| + |b1| + rho|b2|), and
    that is over 10^5 times the rounding error of r (a few ulps of |x1| +
    |b1| + rho|b2| and of |x2| + rho|b2|, as rho*cos(theta) < 1/2 <= rho/2),
    of the thresholds and of the window scan's squared distances (tens of
    ulps of 1 + |x1| + |x2| at rho of order 1, as a certified b lies within
    rho of x).  So a certified b is the nearest point; it is the Babai point
    or one of its six relevant neighbours, and the float window scan, too,
    ranks it strictly first: it equals exact_nearest_batch's answer, up to
    the sign of a zero.
    """
    s = params.rsin
    n = len(x1)
    # the residual, in the scan's expressions for the candidate b itself
    r2 = np.multiply(s, b2, out=ws("tmp0", n))
    np.subtract(x2, r2, out=r2)
    r1 = np.multiply(params.rcos, b2, out=ws("tmp1", n))
    np.add(b1, r1, out=r1)
    np.subtract(x1, r1, out=r1)
    m = _MARGIN * (1.0 + span)
    t = ws("tmp2", n)
    np.abs(r1, out=t)
    safe = np.less(t, 0.5 - m, out=ws("mask0", n, bool))
    inside = ws("mask1", n, bool)
    r2 *= s  # r.n = n1*r1 + H*r2 for both tested normals (n1, H)
    for face in cell_geometry(params).boundary_segments[::2]:  # of (0, 1) and (-1, 1)
        n1, n2 = face.normal
        np.multiply(n1, r1, out=t)
        t += r2
        np.abs(t, out=t)
        safe &= np.less(t, face.offset - m * math.hypot(n1, n2), out=inside)
    return np.flatnonzero(np.logical_not(safe, out=safe))


def exact_nearest_batch(
    params: LatticeParams, x1: np.ndarray, x2: np.ndarray, *, workspace: Workspace | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized nearest point: the nearest of the Babai point b and its
    six relevant neighbours b +- v1, b +- v2, b +- (v2 - v1).

    The residual x - V b lies in the Babai cell, which the Voronoi cells of
    0 and of the six relevant vectors cover, so one of the seven is the
    nearest point; inside the Babai cell b itself is wrong only in the four
    corner error triangles.  Every trial is scanned, with no hexagon test,
    so the oracle is a reference independent of _uncertified, which simulate
    trusts to pass over the trials it certifies.  The candidates are visited
    in the 5x5 window's ascending (u2, u1) order with strict-improvement
    updates, each distance in the window scan's float expression, so exact
    ties resolve to the lexicographically smallest coordinates, as the
    scalar oracle does, and the result equals the full window scan bit for
    bit (a Babai -0.0 comes out +0.0, as the scan's b + du).  The answers
    are written to `workspace` (a fresh one if None).
    """
    ws = Workspace() if workspace is None else workspace
    c, s = params.rcos, params.rsin
    shape = np.shape(x1)
    x1 = np.ravel(x1)
    x2 = np.ravel(x2)
    b1, b2 = babai_batch(params, x1, x2, workspace=ws)
    n = len(x1)
    best_d2 = ws("scan0", n)
    best_d2.fill(np.inf)
    best_u1 = ws("scan1", n)
    best_u1.fill(0.0)
    best_u2 = ws("scan2", n)
    best_u2.fill(0.0)
    cu1 = ws("scan3", n)
    cu2 = ws("scan4", n)
    c_cu2 = ws("scan5", n)
    dy2 = ws("scan6", n)
    d2 = ws("scan7", n)
    better = ws("scan8", n, bool)
    for du2, du1s in _RELEVANT_ROWS:
        np.add(b2, du2, out=cu2)
        np.multiply(c, cu2, out=c_cu2)
        np.multiply(s, cu2, out=dy2)
        np.subtract(x2, dy2, out=dy2)
        np.multiply(dy2, dy2, out=dy2)
        for du1 in du1s:
            # d2 = dx*dx + dy*dy with dx = x1 - (cu1 + c*cu2), dy = x2 - s*cu2
            np.add(b1, du1, out=cu1)
            np.add(cu1, c_cu2, out=d2)
            np.subtract(x1, d2, out=d2)
            np.multiply(d2, d2, out=d2)
            np.add(d2, dy2, out=d2)
            np.less(d2, best_d2, out=better)
            np.copyto(best_d2, d2, where=better)
            np.copyto(best_u1, cu1, where=better)
            np.copyto(best_u2, cu2, where=better)
    return best_u1.reshape(shape), best_u2.reshape(shape)


def _bin_runs(q: protocols.Quantizer) -> tuple[int, ...]:
    """Bins per run of equal-width bins of q, in edge order: the x1
    intervals of analytics.bin_edges_12, or the x2 bands of bin_edges_21."""
    if q.vertical:
        n1, n2 = q.sizes
        return (n2, n1, 1, n1, n2)
    (n,) = q.sizes
    return (n, 1, n)


def _bin_index(q: protocols.Quantizer, first: np.ndarray, ws: Workspace) -> np.ndarray:
    """searchsorted(q.edges, first, side="left") - 1, clipped to q's bins.

    np.searchsorted has no out=, so the bin is found by arithmetic.  A
    trial's run of equal-width bins is the number of run starts it lies
    above; within the run, the floor of its coordinate scaled to bin units
    estimates the bin, clipped to the axis.  One step against the stored
    edges then gives the half-open bin edges[i] < first <= edges[i + 1],
    so the result is searchsorted's wherever the estimate is within one bin
    of it, which holds while each bin is wider than a few ulps of the
    coordinates.  Below the axis it is bin 0; above it, and at NaN (which
    searchsorted sorts last), the last bin.  Returns the workspace's
    "int0" array.
    """
    edges = q.edges
    last = len(edges) - 2
    n = len(first)
    starts, scales, offsets = [], [], []
    start = 0
    for count in _bin_runs(q):
        lo, hi = edges[start], edges[start + count]
        scale = count / (hi - lo) if hi > lo else 0.0
        starts.append(start)
        scales.append(scale)
        offsets.append(start - lo * scale)
        start += count
    above = ws("mask0", n, bool)
    run = ws("mask1", n, np.uint8)
    run.fill(0)
    for start in starts[1:]:
        run += np.greater(first, edges[start], out=above).view(np.uint8)
    step = ws("tmp2", n, np.intp)
    np.copyto(step, run)
    est = np.take(scales, step, out=ws("tmp1", n), mode="clip")
    with np.errstate(over="ignore"):  # a huge coordinate's estimate overflows to +-inf
        est *= first
        est += np.take(offsets, step, out=ws("tmp0", n), mode="clip")
    np.floor(est, out=est)
    np.fmin(est, last, out=est)  # fmin and fmax send NaN to the last bin
    np.fmax(est, 0.0, out=est)
    pos = ws("int0", n, np.intp)
    np.copyto(pos, est, casting="unsafe")
    lower = np.take(edges, pos, out=est, mode="clip")
    upper = np.take(edges[1:], pos, out=ws("tmp0", n), mode="clip")
    np.copyto(step, np.less_equal(first, lower, out=above))
    pos -= step
    np.copyto(step, np.greater(first, upper, out=above))
    pos += step
    np.minimum(pos, last, out=pos)
    return np.maximum(pos, 0, out=pos)


def _fill_rows(rows: protocols.BinRows, pos: np.ndarray, ws: Workspace) -> None:
    """Fill the rows of the bins in pos that are not filled yet, in one call
    of rows.fill, which passes over the filled ones.

    It costs O(len(pos)) and no pass over the bins: each bin is passed
    once, as the trial whose number survives the scatter of the trial
    numbers into a per-bin array, of which only the entries of those bins
    are touched.  Its scratch is "mask0", "tmp0" and "tmp1".
    """
    n = len(pos)
    trial = _arange(ws("tmp0", n, np.intp))
    owner = np.empty(len(rows.bin_bits), np.intp)
    owner[pos] = trial  # of a repeated bin, one trial's number stays
    kept = np.take(owner, pos, out=ws("tmp1", n, np.intp), mode="clip")
    at = np.flatnonzero(np.equal(kept, trial, out=ws("mask0", n, bool)))
    rows.fill(np.take(pos, at, out=kept[: len(at)], mode="clip"))


def _single_round_batch(
    q: protocols.Quantizer, x1: np.ndarray, x2: np.ndarray, ws: Workspace
) -> dict[str, np.ndarray]:
    """Shared body of the single-round kernels, in the speaking order of q.

    The first speaker sends the bin of its coordinate; the other answers
    with the side of the cuts at that bin's midpoint its own coordinate
    falls on.  Returns per trial both symbols, their ideal bits and the
    decision (dec1, dec2, float64, gathered from q's decision columns),
    indexed from q as _single_round does.  The rows of the bins the trials
    fall in are filled first, those of no other bin.
    """
    if q.vertical:
        first, second, (a, b) = x1, x2, ("u1", "u2")
    else:
        first, second, (a, b) = x2, x1, ("u2", "u1")
    shape = np.shape(first)
    first = np.ravel(first)
    second = np.ravel(second)
    n = len(first)
    rows = q.rows
    pos = _bin_index(q, first, ws)
    bits = np.take(rows.bin_bits, pos, out=ws("bits", n), mode="clip")
    # an unfilled row's bin_bits is NaN, and so is the sum of any gather of it
    if math.isnan(np.add.reduce(bits)):
        _fill_rows(rows, pos, ws)
        np.take(rows.bin_bits, pos, out=bits, mode="clip")
    cut = np.take(rows.hi, pos, out=ws("tmp1", n), mode="clip")
    up = np.greater(second, cut, out=ws("mask0", n, bool))
    np.take(rows.lo, pos, out=cut, mode="clip")
    down = np.less_equal(second, cut, out=ws("mask1", n, bool))
    np.greater(down, up, out=down)  # at or below the lower cut and not above the upper
    sym = ws("int1", n, np.intp)
    np.copyto(sym, up)
    flat = ws("tmp2", n, np.intp)
    np.copyto(flat, down)
    sym -= flat
    np.multiply(pos, 3, out=flat)
    flat += sym
    flat += 1  # the (bin, region) entry, 3 * pos + sym + 1
    out = {
        f"{a}_symbol": pos,
        f"{b}_symbol": sym,
        f"{a}_bits": bits,
        f"{b}_bits": np.take(rows.answer_bits.reshape(-1), flat, out=ws("bits2", n), mode="clip"),
    }
    pos -= q.center  # the bin symbol
    for name, column in zip(("dec1", "dec2"), rows.decisions):
        out[name] = np.take(column, flat, out=ws(name, n), mode="clip")
    return {name: v.reshape(shape) for name, v in out.items()}


def run_batch_12(
    params: LatticeParams,
    q: protocols.Quantizer,
    x1: np.ndarray,
    x2: np.ndarray,
    *,
    workspace: Workspace | None = None,
) -> dict[str, np.ndarray]:
    """Vectorized 12-order single round over arrays of in-cell points.

    Returns u1_symbol, u2_symbol, u1_bits, u2_bits, dec1, dec2 per trial,
    read from q, which must come from protocols.quantizer_12 on params
    (ValueError otherwise), as for protocols.run_single_round_12, and
    written to `workspace` (a fresh one if None).
    """
    q = protocols._checked("12", q, params)
    return _single_round_batch(q, x1, x2, Workspace() if workspace is None else workspace)


def run_batch_21(
    params: LatticeParams,
    q: protocols.Quantizer,
    x1: np.ndarray,
    x2: np.ndarray,
    *,
    workspace: Workspace | None = None,
) -> dict[str, np.ndarray]:
    """Vectorized 21-order single round (S2 quantizes, S1 answers), read from
    q, which must come from protocols.quantizer_21 on params, and written to
    `workspace` (a fresh one if None)."""
    q = protocols._checked("21", q, params)
    return _single_round_batch(q, x1, x2, Workspace() if workspace is None else workspace)


def run_batch_infinite(
    params: LatticeParams,
    x1: np.ndarray,
    x2: np.ndarray,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    *,
    workspace: Workspace | None = None,
) -> dict[str, np.ndarray]:
    """Vectorized infinite-round scheme.

    Returns per-trial total bits, rounds, decisions, halted flags, the
    entered-error-rectangle indicator and the number of bisection rounds
    (for the geometric halting-law checks), each in the shape of x1 and
    written to `workspace` (a fresh one if None).  The coordinates, bits
    and decision rule are run_infinite_rounds'.
    """
    require_int(max_rounds=max_rounds)
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    ws = Workspace() if workspace is None else workspace
    shape = np.shape(x1)
    x1, x2 = np.ravel(x1), np.ravel(x2)  # the trials are compacted by flat index
    n = len(x1)
    t_m2, t_1, tau_1, H1, _, _, q_bits, p_bits = round1_code(params)
    # the transcript's round-1 bits by cell 3 * (u2 + 1) + (u1 + 1), u1 in the mirrored frame
    cell_bits = [qb + pb if u2 else qb for u2, qb in zip((-1, 0, 1), q_bits) for pb in p_bits]

    top = np.greater(x2, tau_1, out=ws("mask0", n, bool))
    bottom = np.less_equal(x2, -tau_1, out=ws("mask1", n, bool))
    # u2 = -1 is mirrored through the origin to read as +1
    sign = ws("tmp0", n)
    np.copyto(sign, bottom)
    sign *= -2.0
    sign += 1.0
    mx1 = np.multiply(x1, sign, out=ws("tmp1", n))
    right = np.greater(mx1, t_1, out=ws("mask2", n, bool))
    left = np.less_equal(mx1, t_m2, out=ws("mask3", n, bool))
    cell8 = np.add(top.view(np.uint8), 1, out=ws("mask4", n, np.uint8))
    cell8 -= bottom.view(np.uint8)
    cell8 *= 3
    cell8 += 1
    cell8 += right.view(np.uint8)
    cell8 -= left.view(np.uint8)  # 3 * (u2 + 1) + (u1 + 1), in 0 .. 8
    cell = ws("tmp2", n, np.intp)
    np.copyto(cell, cell8)
    bits = np.take(cell_bits, cell, out=ws("bits", n), mode="clip")

    # the entered trials (u2 != 0 and u1 != 0) and their coordinates in the error rectangle
    entered = np.logical_or(right, left, out=ws("entered", n, bool))
    entered &= np.logical_or(top, bottom, out=top)
    e_idx = np.flatnonzero(entered)
    e = len(e_idx)
    ex1 = np.take(mx1, e_idx, out=ws("ex1", e), mode="clip")
    mx2 = np.multiply(x2, sign, out=mx1)  # mx1 is read no more
    ex2 = np.take(mx2, e_idx, out=ws("ex2", e), mode="clip")
    e_right = np.take(right, e_idx, out=ws("e_right", e, bool), mode="clip")
    e_left = np.logical_not(e_right, out=ws("e_left", e, bool))
    y1 = np.subtract(ex1, t_1, out=ws("y1_0", e))
    y1 /= 0.5 - t_1
    y1_left = np.add(ex1, 0.5, out=ws("y1_1", e))
    y1_left /= t_m2 + 0.5
    np.subtract(1.0, y1_left, out=y1_left)
    np.copyto(y1, y1_left, where=e_left)
    y2 = np.subtract(ex2, tau_1, out=ws("y2_0", e))
    y2 /= H1

    # bisection on the live trials, one binary-expansion bit per node per
    # round; every round writes its results for all live trials, so a
    # trial keeps those of the round it halts in (or the last round)
    e_bits = np.take(bits, e_idx, out=ws("e_bits", e), mode="clip")
    e_rounds = ws("e_rounds", e, np.int64)
    e_rounds.fill(max_rounds - 1)
    far = ws("far", e, bool)
    live = _arange(ws("live0", e, np.intp))
    lbits = ws("lbits0", e)
    np.copyto(lbits, e_bits)
    for k in range(1, max_rounds):
        m = len(live)
        if m == 0:
            break
        bit1 = np.greater(y1, 0.5, out=ws("bit1", m, bool))
        bit2 = np.greater(y2, 0.5, out=ws("bit2", m, bool))
        lbits += 2.0
        as_float = ws("bit_value", m)
        for y, bit in ((y1, bit1), (y2, bit2)):
            y *= 2.0
            np.copyto(as_float, bit)
            y -= as_float
        e_rounds[live] = k
        e_bits[live] = lbits
        far[live] = bit1
        go = np.flatnonzero(np.not_equal(bit1, bit2, out=bit2))
        side = k % 2
        live, lbits, y1, y2 = (
            np.take(v, go, out=ws(f"{name}{side}", len(go), v.dtype), mode="clip")
            for v, name in ((live, "live"), (lbits, "lbits"), (y1, "y1_"), (y2, "y2_"))
        )
    halted = ws("halted", n, bool)
    halted.fill(True)
    if len(live):
        # unhalted trials: exact side test against the rectangle's bisector
        halted[e_idx[live]] = False
        for side, u1m in ((e_right, 1), (e_left, -1)):
            sel = live[side[live]]
            far[sel] = protocols._beyond_bisector(params, u1m, ex1[sel], ex2[sel])

    extra_rounds = ws("int0", n, np.int64)
    extra_rounds.fill(0)
    extra_rounds[e_idx] = e_rounds
    rounds = np.add(extra_rounds, 1, out=ws("int1", n, np.int64))
    bits[e_idx] = e_bits
    far_all = ws("mask0", n, bool)
    far_all.fill(False)
    far_all[e_idx] = far
    dec2 = ws("dec2", n)
    np.copyto(dec2, far_all)
    # dec1 = -1 on the far side of a left rectangle, else 0 (not -0.0)
    dec1 = ws("dec1", n)
    np.copyto(dec1, np.greater(far_all, right, out=far_all))
    np.subtract(0.0, dec1, out=dec1)
    dec1 *= sign  # mirrored back: times -1.0 where u2 = -1, so 0.0 turns -0.0 there
    dec2 *= sign
    out = {
        "dec1": dec1,
        "dec2": dec2,
        "bits": bits,
        "rounds": rounds,
        "halted": halted,
        "entered_error_rect": entered,
        "extra_rounds": extra_rounds,
    }
    return {name: a.reshape(shape) for name, a in out.items()}


# SimConfig's size fields
_SIZE_FIELDS = ("n1", "n2", "n")


@dataclass(frozen=True)
class SimConfig:
    """One simulation request; seed + trial count pin the outcome exactly."""

    params: LatticeParams
    scheme: str
    trials: int
    seed: int
    n1: int | None = None
    n2: int | None = None
    n: int | None = None
    max_rounds: int = DEFAULT_MAX_ROUNDS

    def __post_init__(self):
        table = schemes.SCHEMES
        if self.scheme not in table:
            raise ValueError(f"scheme must be one of {tuple(table)}, got {self.scheme!r}")
        _check_u64("seed", self.seed)
        given = [f for f in _SIZE_FIELDS if getattr(self, f) is not None]
        require_int(**{f: getattr(self, f) for f in ("trials", "max_rounds", *given)})
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        sizes = table[self.scheme].sizes
        if any(getattr(self, f) is None for f in sizes):
            raise ValueError(f"scheme {self.scheme!r} requires {' and '.join(sizes)}")
        extra = [f for f in _SIZE_FIELDS if f not in sizes and getattr(self, f) is not None]
        if extra:
            raise ValueError(f"scheme {self.scheme!r} takes no {' or '.join(extra)}")

    @property
    def sizes(self) -> dict[str, int]:
        """The scheme's size fields and their values."""
        return {f: getattr(self, f) for f in schemes.SCHEMES[self.scheme].sizes}


@dataclass(frozen=True)
class SimReport:
    """Empirical error/cost estimates with standard errors and predictions."""

    scheme: str
    trials: int
    seed: int
    empirical_pe: float
    empirical_pe_stderr: float
    mean_bits: float
    mean_bits_stderr: float
    mean_rounds: float
    mean_rounds_stderr: float
    predicted_pe: float
    predicted_bits: float
    predicted_rounds: float
    unhalted_count: int


def simulate(config: SimConfig) -> SimReport:
    """Run the configured scheme over `trials` uniform cell points.

    Errors count decisions differing from the exact nearest point.  Each
    block's decisions go through _uncertified's hexagon test first; only the
    trials it cannot certify (the wrong decisions, and those within its
    margin of a face of the hexagon) are compacted and given to the oracle
    exact_nearest_batch, so the count is the one the oracle would give on
    every trial.  The test's margin is set once per call, from the cell's
    bounds and the decisions every scheme takes, (0, 0) or a relevant
    neighbour, not measured on each block.  The scheme's quantizer, if it has
    one, is built once per call with no row filled; each block fills the
    rows of the bins its trials fall in, so the call pays for those bins
    only.  The per-trial stages run on blocks of `_BLOCK` trials, whose size
    does not change the report; the bits and rounds are reduced over fixed
    chunks of `_CHUNK` trials in index order, and the chunk size does set
    the low bits of the means and standard errors.

    Every per-trial array lives in this thread's workspace: the block's
    trial indices, points, kernel outputs, hexagon test, trials in doubt with
    their nearest points and error flags, and the chunk's bits and rounds
    (squared in place for the sums).  Only the index arrays np.flatnonzero
    returns are allocated; they hold at most about a sixth of a block, below
    malloc's mmap threshold.  The workspace is built on the thread's first
    call, grown to the largest block and chunk the thread has run and kept
    until the thread ends, so a repeated call allocates no per-trial memory;
    it holds what one call of that size needs at its peak, about 25 MB after
    a 2^20-trial call.
    """
    params = config.params
    scheme = schemes.SCHEMES[config.scheme]
    q = scheme.quantizer(params, **config.sizes)
    # the hexagon test's span for every block: the sampler keeps |x1| <= 1/2
    # and |x2| <= H/2 exactly, and every scheme decides (0, 0) or a relevant
    # neighbour, so |dec1| <= 1 and |dec2| <= 1
    span = 0.5 + 0.5 * params.rsin + 1.0 + params.rho
    ws = _thread_workspace()
    n_err = 0
    n_unhalted = 0
    bit_sums = []
    round_sums = []
    total = config.trials
    # the blocks tile [0, total) in order, so each block's trial indices are
    # the previous block's advanced by its length
    index = _arange(ws("trials", min(_BLOCK, total), np.uint64))
    for lo in range(0, total, _CHUNK):
        hi = min(lo + _CHUNK, total)
        bit_array = ws("chunk_bits", hi - lo)
        round_array = ws("chunk_rounds", hi - lo)
        for a in range(lo, hi, _BLOCK):
            trials = index[: min(a + _BLOCK, hi) - a]
            x1, x2 = sample_cell_arrays(params, trials, config.seed, workspace=ws)
            dec1, dec2, block_bits, block_rounds, unhalted = scheme.kernel(
                params, x1, x2, config.max_rounds, q, ws
            )
            n_err += _count_errors(params, x1, x2, dec1, dec2, span, ws)
            n_unhalted += unhalted
            bits = _store(bit_array, a - lo, block_bits)
            rounds = _store(round_array, a - lo, block_rounds)
            index += np.uint64(len(trials))
        bit_sums.append(_sums(bits, hi - lo))
        round_sums.append(_sums(rounds, hi - lo))

    pe_hat = n_err / total
    pe_se = math.sqrt(pe_hat * (1.0 - pe_hat) / total)
    mean_bits, bits_se = _mean_and_stderr(bit_sums, total)
    mean_rounds, rounds_se = _mean_and_stderr(round_sums, total)
    pred_pe, pred_bits, pred_rounds = scheme.predict(params, **config.sizes)
    return SimReport(
        scheme=config.scheme,
        trials=total,
        seed=config.seed,
        empirical_pe=pe_hat,
        empirical_pe_stderr=pe_se,
        mean_bits=mean_bits,
        mean_bits_stderr=bits_se,
        mean_rounds=mean_rounds,
        mean_rounds_stderr=rounds_se,
        predicted_pe=pred_pe,
        predicted_bits=pred_bits,
        predicted_rounds=pred_rounds,
        unhalted_count=n_unhalted,
    )


def _count_errors(params: LatticeParams, x1, x2, dec1, dec2, span: float, ws: Workspace) -> int:
    """How many of a block's decisions (arrays, or one number each for every
    trial) differ from the exact nearest point.  Only the trials whose
    decision the hexagon test, given the call's span, leaves uncertified
    are compacted with their decisions into the workspace's "doubt0", ...
    buffers and given to exact_nearest_batch."""
    doubt = _uncertified(params, x1, x2, dec1, dec2, span, ws)
    k = len(doubt)
    if not k:
        return 0
    y1, y2, d1, d2 = [
        np.take(a, doubt, out=ws(f"doubt{i}", k), mode="clip") if np.ndim(a) else a
        for i, a in enumerate((x1, x2, dec1, dec2))
    ]
    e1, e2 = exact_nearest_batch(params, y1, y2, workspace=ws)
    wrong = np.not_equal(d1, e1, out=ws("mask0", k, bool))
    wrong |= np.not_equal(d2, e2, out=ws("mask1", k, bool))
    return int(np.count_nonzero(wrong))


def _store(chunk: np.ndarray, at: int, values):
    """Write a block's per-trial values into its chunk's array from `at` and
    return the array, or return the one value every trial shares when the
    kernel gives one, or the block's own array when it is the whole chunk
    (the chunk's array is then never written).  The round counts may stay
    int64 there: their sums and sums of squares are exact in int64 and in
    float64 alike."""
    if np.ndim(values) == 0 or len(values) == len(chunk):
        return values
    chunk[at : at + len(values)] = values
    return chunk


def _sums(values, n: int) -> tuple[float, float]:
    """Sum and sum of squares of n per-trial values, or of one value n times
    (exact for the integer round counts); an array is squared in place."""
    if np.ndim(values) == 0:
        return values * n, values * values * n
    total = float(np.sum(values))
    return total, float(np.sum(np.multiply(values, values, out=values)))


def _mean_and_stderr(sums: list[tuple[float, float]], n: int) -> tuple[float, float]:
    s = math.fsum(a for a, _ in sums)
    s2 = math.fsum(b for _, b in sums)
    mean = s / n
    if n < 2:
        return mean, 0.0
    var = max(0.0, (s2 - n * mean * mean) / (n - 1))
    return mean, math.sqrt(var / n)
