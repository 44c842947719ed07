"""Uniform sampling over the Babai cell and vectorized protocol estimators.

Sampling is counter-based (SplitMix64 keyed by the seed, indexed by the
trial number), so every trial is a pure function of (seed, trial_index),
whatever block of trials it is computed in.  The run_batch_* kernels
evaluate a whole array of trials at once and return per-trial arrays;
simulate() reduces them into a SimReport with binomial / sample standard
errors next to the closed-form predictions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import analytics, protocols
from .errors import require_int
from .lattice import LatticeParams, Point2, babai_error_probability, cell_geometry
from .protocols import DEFAULT_MAX_ROUNDS

# Trials per reduction chunk: its per-chunk float sums set a report's low
# bits, so it is fixed.
_CHUNK = 1 << 20
# Trials per block of the per-trial stages (sampling, oracle, kernel, error
# flags).  Any size gives the same report; at 2^16 a block's float64 arrays
# are 512 KB, so the stages' elementwise passes stay in a 2 MB L2 cache and
# reuse freed pages instead of faulting in fresh 8 MB arrays.
_BLOCK = 1 << 16

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _mixed_draws(z: np.ndarray, scale: float) -> np.ndarray:
    """SplitMix64's finaliser on the counters z, in place, as uniform doubles.

    The draw k = mix(z) >> 11 stands for u = (k + 1) * 2^-53 in (0, 1], and
    the result is (u - 1/2) * scale.  It is computed as
    (k - (2^52 - 1)) * (scale * 2^-53): the centred draw is an int64 of
    magnitude at most 2^52, so its float is exact, and scaling by a power of
    two commutes with rounding, so the single rounding of the product is
    that of (u - 1/2) * scale (none at all for scale = 1).
    """
    t = np.empty_like(z)
    for shift, mix in ((30, _MIX1), (27, _MIX2)):
        np.right_shift(z, np.uint64(shift), out=t)
        z ^= t
        z *= mix
    np.right_shift(z, np.uint64(31), out=t)
    z ^= t
    z >>= np.uint64(11)
    z -= np.uint64((1 << 52) - 1)  # wraps below 0: read as int64 it is k - (2^52 - 1)
    u = z.view(np.int64).astype(np.float64)
    u *= scale * 2.0**-53
    return u


def sample_cell_arrays(
    params: LatticeParams, trial_index: np.ndarray, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Uniform points over (-1/2,1/2] x (-H/2,H/2], one per trial index.

    Slot j in {0, 1} of trial i draws k = SplitMix64(seed + (2i + j + 1)g)
    >> 11 (g the golden-ratio constant, arithmetic mod 2^64) and
    u = (k + 1) * 2^-53 in (0, 1]; x1 = u - 1/2 from slot 0 and
    x2 = (u - 1/2) * H from slot 1.  The counters are computed folded, as
    i * 2g + (g + seed) and that plus g, an identity mod 2^64, and the draws
    as _mixed_draws states, so the points are those of the definition bit
    for bit.

    The seed must be an int in [0, 2^64), and the trial indices integers in
    [0, 2^64): an integer-dtype array (uint64 is used with no scan) or a list
    of ints.  A float, bool or object array or a negative entry raises
    ValueError; an empty array, of any dtype, holds nothing to check.
    """
    _check_seed(seed)
    idx = np.asarray(trial_index)
    if idx.dtype != np.uint64 and idx.size:
        if idx.dtype.kind not in "iu":
            raise ValueError(f"trial indices must be integers, got dtype {idx.dtype}")
        if idx.dtype.kind == "i" and idx.min() < 0:
            raise ValueError("trial indices must be >= 0")
    z0 = idx.astype(np.uint64)
    z0 *= np.uint64((2 * _GOLDEN) & _U64)
    z0 += np.uint64((_GOLDEN + seed) & _U64)
    z1 = np.add(z0, np.uint64(_GOLDEN))
    return _mixed_draws(z0, 1.0), _mixed_draws(z1, params.rsin)


def sample_uniform_babai_cell(params: LatticeParams, trial_index: int, seed: int) -> Point2:
    """Single uniform point over the zero-centred Babai cell.

    trial_index must be an int in [0, 2^64), like the seed (ValueError).
    """
    require_int(trial_index=trial_index)
    if not 0 <= trial_index <= _U64:
        raise ValueError(f"trial_index must be in [0, 2**64), got {trial_index}")
    x1, x2 = sample_cell_arrays(params, np.array([trial_index], dtype=np.uint64), seed)
    return Point2(float(x1[0]), float(x2[0]))


_U64 = 0xFFFFFFFFFFFFFFFF


def _mix64_int(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _U64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _U64
    return z ^ (z >> 31)


def _check_seed(seed) -> None:
    require_int(seed=seed)
    if not 0 <= seed <= _U64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")


def derive_seed(seed: int, stream: int) -> int:
    """Deterministic 64-bit sub-seed for a named stream of a master seed."""
    _check_seed(seed)
    base = (seed + _GOLDEN * (stream + 1)) & _U64
    return _mix64_int(_mix64_int(base))


def babai_batch(params: LatticeParams, x1: np.ndarray, x2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized nearest-plane decode."""
    c, s = params.rcos, params.rsin
    u2 = np.divide(x2, s)
    u2 -= 0.5
    np.ceil(u2, out=u2)
    u1 = np.multiply(c, u2)
    np.subtract(x1, u1, out=u1)
    u1 -= 0.5
    np.ceil(u1, out=u1)
    return u1, u2


# Babai plus the six relevant vectors +-v1, +-v2, +-(v2 - v1), as du1 offsets
# per du2 row, in the 5x5 window's ascending (du2, du1) scan order.
_RELEVANT_ROWS = ((-1, (0, 1)), (0, (-1, 0, 1)), (1, (-1, 0)))

# Safety margin of exact_nearest_batch's pre-filter per unit of
# 1 + max|x1| + max|x2| over the call's points.
_MARGIN = 2.0**-30


def _scan_relevant(
    c: float, s: float, x1: np.ndarray, x2: np.ndarray, b1: np.ndarray, b2: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Nearest of the Babai point (b1, b2) and its six relevant neighbours.

    They are visited in the window's ascending (u2, u1) order with
    strict-improvement updates, and each distance is the same float
    expression as the full window scan's, in preallocated buffers.
    """
    best_d2 = np.full(x1.shape, np.inf)
    best_u1 = np.zeros_like(x1)
    best_u2 = np.zeros_like(x1)
    cu1 = np.empty_like(best_d2)
    cu2 = np.empty_like(best_d2)
    c_cu2 = np.empty_like(best_d2)
    dy2 = np.empty_like(best_d2)
    d2 = np.empty_like(best_d2)
    better = np.empty(x1.shape, dtype=bool)
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
    return best_u1, best_u2


def exact_nearest_batch(
    params: LatticeParams, x1: np.ndarray, x2: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized nearest point: Babai unless the residual may leave V(0).

    For a reduced basis (0 < rho*cos(theta) < 1/2) the Voronoi cell V(0) is
    the hexagon |r.n| <= |n|^2/2 for the three face normals n = v1, v2 and
    v2 - v1 (the relevant vectors +-n; Agrell, Eriksson, Vardy & Zeger,
    "Closest point search in lattices", IEEE Trans. IT 2002; SPLAG ch. 20).
    So the nearest point is the Babai point b unless the residual
    r = x - V b lies outside that hexagon; inside the Babai cell this
    happens only in the four corner error triangles.

    Pre-filter.  With one margin per call, M = 2^-30 * (1 + max|x1| +
    max|x2|), a trial is safe, and its answer is b + 0.0, when
    |r1| < 1/2 - M and |r.n| < |n|^2/2 - M|n| for n = v2 and n = v2 - v1;
    the thresholds are scalars.  Every other trial (outside the hexagon, in
    a band of width M inside its faces, or non-finite) is compacted and
    scanned over b and its six relevant neighbours.  The comparisons are
    strict, so a NaN residual fails them; a NaN or infinite coordinate
    makes M NaN or infinite, and a point with 1 + |x1| + |x2| >= 2^29 makes
    M >= 1/2, so one such point sends its whole call to the scan: the same
    answers, only slower.  The `+ 0.0` turns a Babai -0.0 into +0.0, as
    the scan's b + du does.

    Why the filter is exact.  Passing it puts the open disc of radius M
    about r inside V(0): r is more than M from each of the six faces.  V(0)
    lies on 0's side of the bisector of every other lattice point Vk, so
    r.k + M|k| < |k|^2/2, and Vk is farther from x than Vb is, in squared
    distance, by |k|^2 - 2r.k > 2M|k| >= 2M (|k| >= 1 in a reduced basis
    with rho >= 1).  M is at least each trial's own 2^-30 * (1 + |x1| +
    |x2|), and that is over 10^5 times the rounding error of r, of the
    thresholds and of the scan's squared distances (tens of ulps of
    1 + |x1| + |x2|, at rho of order 1), so the float scan, too, ranks b
    strictly first.

    The scanned trials resolve exact ties to the lexicographically smallest
    coordinates, as the scalar oracle does, and the result equals the full
    5x5 window scan bit for bit.
    """
    c, s = params.rcos, params.rsin
    shape = np.shape(x1)
    x1 = np.ravel(x1)  # the trials are compacted by flat index
    x2 = np.ravel(x2)
    b1, b2 = babai_batch(params, x1, x2)
    # the residual, in the scan's expressions for the candidate b itself
    r2 = np.multiply(s, b2)
    np.subtract(x2, r2, out=r2)
    r1 = np.multiply(c, b2)
    np.add(b1, r1, out=r1)
    np.subtract(x1, r1, out=r1)
    m = _MARGIN * (1.0 + _max_abs(x1) + _max_abs(x2))
    t = np.abs(r1)
    safe = t < 0.5 - m
    r2 *= s  # r.n = n1*r1 + s*r2 for both tested normals
    for n1 in (c, c - 1.0):
        np.multiply(n1, r1, out=t)
        t += r2
        np.abs(t, out=t)
        safe &= t < 0.5 * (n1 * n1 + s * s) - m * math.hypot(n1, s)
    rest = np.flatnonzero(~safe)
    b1 += 0.0
    b2 += 0.0
    if rest.size:
        b1[rest], b2[rest] = _scan_relevant(c, s, x1[rest], x2[rest], b1[rest], b2[rest])
    return b1.reshape(shape), b2.reshape(shape)


def _max_abs(x: np.ndarray) -> float:
    """max|x| over the array (0.0 if empty; NaN if any entry is NaN)."""
    return float(np.max(np.abs(x), initial=0.0))


def _single_round_batch(
    q: protocols.Quantizer, x1: np.ndarray, x2: np.ndarray
) -> dict[str, np.ndarray]:
    """Shared body of the single-round kernels, in the speaking order of q.

    The first speaker sends the bin of its coordinate; the other answers
    with the side of the cuts at that bin's midpoint its own coordinate
    falls on.  Returns per trial both symbols, their ideal bits and the
    decision (dec1, dec2, float64), indexed from q as _single_round does.
    """
    if q.vertical:
        first, second, (a, b) = x1, x2, ("u1", "u2")
    else:
        first, second, (a, b) = x2, x1, ("u2", "u1")
    edges, table = q.edges, q.table
    pos = np.clip(np.searchsorted(edges, first, side="left") - 1, 0, len(edges) - 2)
    sym = np.where(second > table.hi[pos], 1, np.where(second <= table.lo[pos], -1, 0))
    flat = 3 * pos + sym + 1
    bits1 = q.bin_bits[pos]
    pos -= q.center  # the bin symbol, in place: one fewer live per-trial array
    labels = table.labels.reshape(-1)  # (bin, region, coordinate), flat
    return {
        f"{a}_symbol": pos,
        f"{b}_symbol": sym,
        f"{a}_bits": bits1,
        f"{b}_bits": q.answer_bits.reshape(-1)[flat],
        "dec1": labels[2 * flat].astype(np.float64),
        "dec2": labels[2 * flat + 1].astype(np.float64),
    }


def run_batch_12(
    params: LatticeParams, q: protocols.Quantizer, x1: np.ndarray, x2: np.ndarray
) -> dict[str, np.ndarray]:
    """Vectorized 12-order single round over arrays of in-cell points.

    Returns u1_symbol, u2_symbol, u1_bits, u2_bits, dec1, dec2 per trial,
    read from q, which must come from protocols.quantizer_12 on params
    (ValueError otherwise), as for protocols.run_single_round_12.
    """
    return _single_round_batch(protocols._checked("12", q, params), x1, x2)


def run_batch_21(
    params: LatticeParams, q: protocols.Quantizer, x1: np.ndarray, x2: np.ndarray
) -> dict[str, np.ndarray]:
    """Vectorized 21-order single round (S2 quantizes, S1 answers), read from
    q, which must come from protocols.quantizer_21 on params."""
    return _single_round_batch(protocols._checked("21", q, params), x1, x2)


def run_batch_infinite(
    params: LatticeParams,
    x1: np.ndarray,
    x2: np.ndarray,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
) -> dict[str, np.ndarray]:
    """Vectorized infinite-round scheme.

    Returns per-trial total bits, rounds, decisions, halted flags, the
    entered-error-rectangle indicator and the number of bisection rounds
    (for the geometric halting-law checks), each in the shape of x1.  The
    coordinates, bits and decision rule are run_infinite_rounds'.
    """
    require_int(max_rounds=max_rounds)
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    shape = np.shape(x1)
    x1 = np.ravel(x1)  # the trials are compacted by flat index
    x2 = np.ravel(x2)
    g = cell_geometry(params)
    # round 1 costs the protocol's own math.log2 bits (np.log2 can differ by an ulp)
    q_bits, p_bits = (
        [-math.log2(p) for p in dist.probs] for dist in analytics.round1_distributions(params)
    )
    n = len(x1)
    top = x2 > g.tau_1
    bottom = x2 <= g.tau_m1
    bits = np.where(top, q_bits[2], np.where(bottom, q_bits[0], q_bits[1]))

    # round 1 for the active trials (u2 != 0), mirrored so u2 = -1 reads as +1
    act = np.flatnonzero(top | bottom)
    flip = bottom[act]
    mirror = act[flip]
    ax1 = x1[act]
    ax2 = x2[act]
    np.negative(ax1, out=ax1, where=flip)
    np.negative(ax2, out=ax2, where=flip)
    right = ax1 > g.t_1
    left = ax1 <= g.t_m2
    bits[act] += np.where(right, p_bits[2], np.where(left, p_bits[0], p_bits[1]))

    # the entered trials (u1 != 0) and their coordinates in the error rectangle
    sub = np.flatnonzero(right | left)
    entered_idx = act[sub]
    ex1 = ax1[sub]
    ex2 = ax2[sub]
    right = right[sub]
    left = ~right
    y1 = np.empty(len(sub))
    y1[right] = (ex1[right] - g.t_1) / (0.5 - g.t_1)
    y1[left] = 1.0 - (ex1[left] + 0.5) / (g.t_m2 + 0.5)
    y2 = (ex2 - g.tau_1) / g.H1

    # bisection on the live trials, one binary-expansion bit per node per round
    extra_rounds = np.zeros(n, dtype=np.int64)
    far = np.zeros(len(sub), dtype=bool)
    live = np.arange(len(sub))
    lbits = bits[entered_idx]
    for k in range(1, max_rounds):
        if live.size == 0:
            break
        bit1 = y1 > 0.5
        bit2 = y2 > 0.5
        lbits += 2.0
        y1 = 2.0 * y1 - bit1
        y2 = 2.0 * y2 - bit2
        stop = bit1 == bit2
        done = live[stop]
        extra_rounds[entered_idx[done]] = k
        bits[entered_idx[done]] = lbits[stop]
        far[done] = bit1[stop]
        go = ~stop
        live, lbits, y1, y2 = live[go], lbits[go], y1[go], y2[go]
    halted = np.ones(n, dtype=bool)
    if live.size:
        # unhalted trials: exact side test against the rectangle's bisector
        unhalted = entered_idx[live]
        extra_rounds[unhalted] = max_rounds - 1
        bits[unhalted] = lbits
        halted[unhalted] = False
        for side, u1m in ((right, 1), (left, -1)):
            sel = live[side[live]]
            far[sel] = protocols._beyond_bisector(params, u1m, ex1[sel], ex2[sel])

    rounds = extra_rounds + 1
    entered = np.zeros(n, dtype=bool)
    entered[entered_idx] = True
    dec1 = np.zeros(n)
    dec2 = np.zeros(n)
    dec1[entered_idx] = np.where(far & left, -1.0, 0.0)
    dec2[entered_idx] = np.where(far, 1.0, 0.0)
    dec1[mirror] *= -1.0
    dec2[mirror] *= -1.0
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


def _one_round(out: dict[str, np.ndarray]) -> tuple:
    """A single-round kernel's output as Scheme.kernel returns it."""
    return out["dec1"], out["dec2"], out["u1_bits"] + out["u2_bits"], 1.0, 0


def _infinite_kernel(params, x1, x2, max_rounds, _) -> tuple:
    out = run_batch_infinite(params, x1, x2, max_rounds)
    rounds = out["rounds"].astype(np.float64)
    return out["dec1"], out["dec2"], out["bits"], rounds, int(np.sum(~out["halted"]))


def _predict_12(params: LatticeParams, n1: int, n2: int) -> tuple[float, float, float]:
    h1, h2 = analytics.rate_12(params, n1, n2)
    return analytics.pe_12(params, n1, n2), h1 + h2, 1.0


@dataclass(frozen=True)
class Scheme:
    """One scheme, as every place that dispatches on a scheme reads it.

    `sizes` are the SimConfig size fields the scheme requires, and the only
    ones it accepts.  `quantizer(params, **sizes)` builds the scheme's code
    q (None if it has none); `kernel(params, x1, x2, max_rounds, q)` returns
    per-trial decisions (dec1, dec2), bits and rounds (each an array, or one
    float shared by every trial) and the unhalted count; `predict(params,
    **sizes)` returns the closed-form (pe, bits, rounds); `transcript(x,
    params, max_rounds, q)` runs the scalar protocol (None: there is none).
    `sweep` pairs each of the sweep's empirical column stems with the
    SimReport field it reports, and `round_limit` says whether the scheme
    takes max_rounds (the others are called with it and ignore it).  The
    callables look the kernels and protocols up by name when called, so a
    wrapper installed on a module's name (the benchmark's tracer) sees
    every call.
    """

    name: str
    alias: str
    sizes: tuple[str, ...]
    kernel: Callable[..., tuple]
    predict: Callable[..., tuple[float, float, float]]
    transcript: Callable[..., protocols.Transcript] | None
    sweep: tuple[tuple[str, str], ...]
    round_limit: bool = False
    quantizer: Callable[..., protocols.Quantizer | None] = lambda params: None


SCHEMES = {
    s.name: s
    for s in (
        Scheme(
            "12", "12", ("n1", "n2"),
            kernel=lambda params, x1, x2, _, q: _one_round(run_batch_12(params, q, x1, x2)),
            predict=_predict_12,
            transcript=lambda x, params, _, q: protocols.run_single_round_12(x, params, q),
            sweep=(("pe12", "empirical_pe"),),
            quantizer=lambda params, n1, n2: protocols.quantizer_12(params, n1, n2),
        ),
        Scheme(
            "21", "21", ("n",),
            kernel=lambda params, x1, x2, _, q: _one_round(run_batch_21(params, q, x1, x2)),
            predict=lambda params, n: (
                analytics.pe_21(params, n), analytics.rate_21(params, n), 1.0
            ),
            transcript=lambda x, params, _, q: protocols.run_single_round_21(x, params, q),
            sweep=(("pe21", "empirical_pe"),),
            quantizer=lambda params, n: protocols.quantizer_21(params, n),
        ),
        Scheme(
            "infinite", "inf", (),
            kernel=_infinite_kernel,
            predict=lambda params: (
                0.0, analytics.rbar_infinite(params), analytics.nbar_infinite(params)
            ),
            transcript=lambda x, params, max_rounds, _: protocols.run_infinite_rounds(
                x, params, max_rounds
            ),
            sweep=(("rbar", "mean_bits"), ("nbar", "mean_rounds")),
            round_limit=True,
        ),
        Scheme(
            "babai_only", "babai", (),
            # every trial keeps the Babai point, with no message
            kernel=lambda *_: (0.0, 0.0, 0.0, 0.0, 0),
            predict=lambda params: (babai_error_probability(params), 0.0, 0.0),
            transcript=None,
            sweep=(("pe_babai", "empirical_pe"),),
        ),
    )
}

_SIZE_FIELDS = tuple(dict.fromkeys(f for s in SCHEMES.values() for f in s.sizes))


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
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {tuple(SCHEMES)}, got {self.scheme!r}")
        _check_seed(self.seed)
        given = [f for f in _SIZE_FIELDS if getattr(self, f) is not None]
        require_int(**{f: getattr(self, f) for f in ("trials", "max_rounds", *given)})
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        sizes = SCHEMES[self.scheme].sizes
        if any(getattr(self, f) is None for f in sizes):
            raise ValueError(f"scheme {self.scheme!r} requires {' and '.join(sizes)}")
        extra = [f for f in _SIZE_FIELDS if f not in sizes and getattr(self, f) is not None]
        if extra:
            raise ValueError(f"scheme {self.scheme!r} takes no {' or '.join(extra)}")

    @property
    def sizes(self) -> dict[str, int]:
        """The scheme's size fields and their values."""
        return {f: getattr(self, f) for f in SCHEMES[self.scheme].sizes}


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

    Errors count decisions differing from the exact nearest point.  The
    scheme's quantizer, if it has one, is built once per call.  The
    per-trial stages run on blocks of `_BLOCK` trials, whose size does not
    change the report; the bits and rounds are reduced over fixed chunks of
    `_CHUNK` trials in index order, and the chunk size does set the low bits
    of the means and standard errors.
    """
    params = config.params
    scheme = SCHEMES[config.scheme]
    q = scheme.quantizer(params, **config.sizes)
    n_err = 0
    n_unhalted = 0
    bit_sums = []
    round_sums = []
    total = config.trials
    for lo in range(0, total, _CHUNK):
        hi = min(lo + _CHUNK, total)
        bit_array = np.empty(hi - lo)
        round_array = np.empty(hi - lo)
        for a in range(lo, hi, _BLOCK):
            x1, x2 = sample_cell_arrays(
                params, np.arange(a, min(a + _BLOCK, hi), dtype=np.uint64), config.seed
            )
            e1, e2 = exact_nearest_batch(params, x1, x2)
            dec1, dec2, block_bits, block_rounds, unhalted = scheme.kernel(
                params, x1, x2, config.max_rounds, q
            )
            n_err += int(np.sum((dec1 != e1) | (dec2 != e2)))
            n_unhalted += unhalted
            bits = _store(bit_array, a - lo, block_bits)
            rounds = _store(round_array, a - lo, block_rounds)
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


def _store(chunk: np.ndarray, at: int, values):
    """Write a block's per-trial values into its chunk's array from `at` and
    return the array, or return the one value every trial shares when the
    kernel gives one (the array is then never written)."""
    if np.ndim(values) == 0:
        return values
    chunk[at : at + len(values)] = values
    return chunk


def _sums(values, n: int) -> tuple[float, float]:
    """Sum and sum of squares of n per-trial values, or of one value n times
    (exact for the integer round counts)."""
    if np.ndim(values) == 0:
        return values * n, values * values * n
    return float(np.sum(values)), float(np.sum(values * values))


def _mean_and_stderr(sums: list[tuple[float, float]], n: int) -> tuple[float, float]:
    s = math.fsum(a for a, _ in sums)
    s2 = math.fsum(b for _, b in sums)
    mean = s / n
    if n < 2:
        return mean, 0.0
    var = max(0.0, (s2 - n * mean * mean) / (n - 1))
    return mean, math.sqrt(var / n)
