"""Uniform sampling over the Babai cell and vectorized protocol estimators.

Sampling is counter-based (SplitMix64 keyed by the seed, indexed by the
trial number), so every trial is a pure function of (seed, trial_index) and
reports are bit-identical regardless of how trials are batched or scheduled.
The run_batch_* kernels evaluate a whole array of trials at once and return
per-trial arrays; simulate() reduces them into a SimReport with binomial /
sample standard errors next to the closed-form predictions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import analytics
from .lattice import (
    LatticeParams,
    Point2,
    babai_error_probability,
    cell_geometry,
    cross_section,
)
from .protocols import DEFAULT_MAX_ROUNDS

SCHEMES = ("12", "21", "infinite", "babai_only")

_CHUNK = 1 << 20

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _splitmix64(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def _unit_open_closed(seed: int, index: np.ndarray, slot: int) -> np.ndarray:
    """Uniform double in (0, 1], a pure function of (seed, index, slot)."""
    counter = np.uint64(2) * index.astype(np.uint64) + np.uint64(slot + 1)
    word = _splitmix64(np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + counter * _GOLDEN)
    return ((word >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53


def sample_cell_arrays(
    params: LatticeParams, trial_index: np.ndarray, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Uniform points over (-1/2,1/2] x (-H/2,H/2], one per trial index."""
    idx = np.asarray(trial_index, dtype=np.uint64)
    x1 = _unit_open_closed(seed, idx, 0) - 0.5
    x2 = (_unit_open_closed(seed, idx, 1) - 0.5) * params.rsin
    return x1, x2


def sample_uniform_babai_cell(params: LatticeParams, trial_index: int, seed: int) -> Point2:
    """Single uniform point over the zero-centred Babai cell."""
    if trial_index < 0:
        raise ValueError("trial_index must be >= 0")
    x1, x2 = sample_cell_arrays(params, np.array([trial_index], dtype=np.uint64), seed)
    return Point2(float(x1[0]), float(x2[0]))


_U64 = 0xFFFFFFFFFFFFFFFF


def _mix64_int(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _U64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _U64
    return z ^ (z >> 31)


def derive_seed(seed: int, stream: int) -> int:
    """Deterministic 64-bit sub-seed for a named stream of a master seed."""
    base = ((seed & _U64) + 0x9E3779B97F4A7C15 * (stream + 1)) & _U64
    return _mix64_int(_mix64_int(base))


def _round_half_low(y: np.ndarray) -> np.ndarray:
    return np.ceil(y - 0.5)


def babai_batch(params: LatticeParams, x1: np.ndarray, x2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized nearest-plane decode."""
    c, s = params.rcos, params.rsin
    u2 = _round_half_low(x2 / s)
    u1 = _round_half_low(x1 - c * u2)
    return u1, u2


# Babai plus the six relevant vectors +-v1, +-v2, +-(v2 - v1), as du1 offsets
# per du2 row, in the 5x5 window's ascending (du2, du1) scan order.
_RELEVANT_ROWS = ((-1, (0, 1)), (0, (-1, 0, 1)), (1, (-1, 0)))


def exact_nearest_batch(
    params: LatticeParams, x1: np.ndarray, x2: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized nearest point: Babai plus the six relevant vectors.

    For a reduced basis (0 < rho*cos(theta) < 1/2) the Voronoi cell's faces
    lie on the bisectors of the six relevant vectors +-v1, +-v2, +-(v2 - v1),
    and the Babai cell (-1/2, 1/2] x (-H/2, H/2] is covered by the Voronoi
    cells of 0 and those six neighbours (Agrell, Eriksson, Vardy & Zeger,
    "Closest point search in lattices", IEEE Trans. IT 2002; SPLAG ch. 20).
    So the nearest point differs from the Babai point by at most one
    relevant vector, and these 7 of the 25 candidates of a 5x5 window
    decide.  They are visited in the window's ascending (u2, u1) order with
    strict-improvement updates, and each distance is the same float
    expression, so exact ties still resolve to the lexicographically
    smallest coordinates, as in the scalar oracle, and the result equals
    the full window scan bit for bit.
    """
    c, s = params.rcos, params.rsin
    b1, b2 = babai_batch(params, x1, x2)
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


def _single_round_batch(
    params: LatticeParams,
    edges: np.ndarray,
    first: np.ndarray,
    second: np.ndarray,
    vertical: bool,
) -> tuple[np.ndarray, ...]:
    """Shared body of the single-round kernels.

    The first speaker sends the bin of `first`; the answer is the side of
    the cuts at that bin's midpoint `second` falls on.  Returns per trial the
    bin index, the answer symbol, its ideal bits and the decision (dec1, dec2).
    """
    table = cross_section(cell_geometry(params), 0.5 * (edges[:-1] + edges[1:]), vertical)
    pos = np.clip(np.searchsorted(edges, first, side="left") - 1, 0, len(edges) - 2)
    sym = np.where(second > table.hi[pos], 1, np.where(second <= table.lo[pos], -1, 0))
    dec = table.labels[pos, sym + 1]
    return pos, sym, -np.log2(table.probs[pos, sym + 1]), dec[:, 0], dec[:, 1]


def run_batch_12(
    params: LatticeParams, n1: int, n2: int, x1: np.ndarray, x2: np.ndarray
) -> dict[str, np.ndarray]:
    """Vectorized 12-order single round over arrays of in-cell points.

    Returns u1_symbol, u2_symbol, u1_bits, u2_bits, dec1, dec2 per trial.
    """
    edges = analytics.bin_edges_12(params, n1, n2)
    pos, u2_sym, u2_bits, dec1, dec2 = _single_round_batch(params, edges, x1, x2, vertical=True)
    return {
        "u1_symbol": pos - (n1 + n2),
        "u2_symbol": u2_sym,
        "u1_bits": -np.log2(np.diff(edges)[pos]),
        "u2_bits": u2_bits,
        "dec1": dec1,
        "dec2": dec2,
    }


def run_batch_21(
    params: LatticeParams, n: int, x1: np.ndarray, x2: np.ndarray
) -> dict[str, np.ndarray]:
    """Vectorized 21-order single round (S2 quantizes, S1 answers)."""
    g = cell_geometry(params)
    edges = analytics.bin_edges_21(params, n)
    pos, u1_sym, u1_bits, dec1, dec2 = _single_round_batch(params, edges, x2, x1, vertical=False)
    return {
        "u2_symbol": pos - n,
        "u1_symbol": u1_sym,
        "u2_bits": -np.log2(np.diff(edges)[pos] / g.H),
        "u1_bits": u1_bits,
        "dec1": dec1,
        "dec2": dec2,
    }


def run_batch_infinite(
    params: LatticeParams,
    x1: np.ndarray,
    x2: np.ndarray,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
) -> dict[str, np.ndarray]:
    """Vectorized infinite-round scheme.

    Returns per-trial total bits, rounds, decisions, halted flags, the
    entered-error-rectangle indicator and the number of bisection rounds
    (for the geometric halting-law checks).
    """
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    g = cell_geometry(params)
    q_dist, p_dist = analytics.round1_distributions(params)
    q = np.array(q_dist.probs)
    p = np.array(p_dist.probs)
    n = len(x1)
    u2 = np.where(x2 > g.tau_1, 1, np.where(x2 <= g.tau_m1, -1, 0))
    bits = -np.log2(q[u2 + 1])

    # round 1 for the active trials (u2 != 0), mirrored so u2 = -1 reads as +1
    act = np.flatnonzero(u2)
    flip = u2[act] == -1
    mirror = act[flip]
    ax1 = x1[act]
    ax2 = x2[act]
    np.negative(ax1, out=ax1, where=flip)
    np.negative(ax2, out=ax2, where=flip)
    u1m = np.where(ax1 > g.t_1, 1, np.where(ax1 <= g.t_m2, -1, 0))
    bits[act] -= np.log2(p[u1m + 1])

    # the entered trials (u1m != 0) and their coordinates in the error rectangle
    sub = np.flatnonzero(u1m)
    entered_idx = act[sub]
    ex1 = ax1[sub]
    ex2 = ax2[sub]
    right = u1m[sub] == 1
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
        c, s = params.rcos, params.rsin
        rr = live[right[live]]
        far[rr] = ex1[rr] * c + ex2[rr] * s > 0.5 * (c * c + s * s)
        ll = live[left[live]]
        nx, ny = c - 1.0, s
        far[ll] = ex1[ll] * nx + ex2[ll] * ny > 0.5 * (nx * nx + ny * ny)

    rounds = extra_rounds + 1
    entered = np.zeros(n, dtype=bool)
    entered[entered_idx] = True
    dec1 = np.zeros(n)
    dec2 = np.zeros(n)
    dec1[entered_idx] = np.where(far & left, -1.0, 0.0)
    dec2[entered_idx] = np.where(far, 1.0, 0.0)
    dec1[mirror] *= -1.0
    dec2[mirror] *= -1.0
    return {
        "dec1": dec1,
        "dec2": dec2,
        "bits": bits,
        "rounds": rounds,
        "halted": halted,
        "entered_error_rect": entered,
        "extra_rounds": extra_rounds,
    }


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
            raise ValueError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        if self.scheme == "12" and (self.n1 is None or self.n2 is None):
            raise ValueError("scheme '12' requires n1 and n2")
        if self.scheme == "21" and self.n is None:
            raise ValueError("scheme '21' requires n")


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


def _predictions(config: SimConfig) -> tuple[float, float, float]:
    params = config.params
    if config.scheme == "12":
        h1, h2 = analytics.rate_12(params, config.n1, config.n2)
        return analytics.pe_12(params, config.n1, config.n2), h1 + h2, 1.0
    if config.scheme == "21":
        return (
            analytics.pe_21(params, config.n),
            analytics.rate_21(params, config.n),
            1.0,
        )
    if config.scheme == "infinite":
        return 0.0, analytics.rbar_infinite(params), analytics.nbar_infinite(params)
    return babai_error_probability(params), 0.0, 0.0


def simulate(config: SimConfig) -> SimReport:
    """Run the configured scheme over `trials` uniform cell points.

    Errors count decisions differing from the exact nearest point.  Trials
    are processed in fixed-size chunks and reduced in index order, keeping
    the report independent of any internal batching.
    """
    params = config.params
    n_err = 0
    n_unhalted = 0
    sum_bits = []
    sum_bits2 = []
    sum_rounds = []
    sum_rounds2 = []
    total = config.trials
    for lo in range(0, total, _CHUNK):
        hi = min(lo + _CHUNK, total)
        idx = np.arange(lo, hi, dtype=np.uint64)
        x1, x2 = sample_cell_arrays(params, idx, config.seed)
        e1, e2 = exact_nearest_batch(params, x1, x2)
        if config.scheme == "babai_only":
            n_err += int(np.sum((e1 != 0.0) | (e2 != 0.0)))
            bits = rounds = None
        else:
            if config.scheme == "12":
                out = run_batch_12(params, config.n1, config.n2, x1, x2)
                bits = out["u1_bits"] + out["u2_bits"]
                rounds = np.ones(len(x1))
            elif config.scheme == "21":
                out = run_batch_21(params, config.n, x1, x2)
                bits = out["u1_bits"] + out["u2_bits"]
                rounds = np.ones(len(x1))
            else:
                out = run_batch_infinite(params, x1, x2, config.max_rounds)
                bits = out["bits"]
                rounds = out["rounds"].astype(np.float64)
                n_unhalted += int(np.sum(~out["halted"]))
            n_err += int(np.sum((out["dec1"] != e1) | (out["dec2"] != e2)))
        if bits is not None:
            sum_bits.append(float(np.sum(bits)))
            sum_bits2.append(float(np.sum(bits * bits)))
            sum_rounds.append(float(np.sum(rounds)))
            sum_rounds2.append(float(np.sum(rounds * rounds)))

    pe_hat = n_err / total
    pe_se = math.sqrt(pe_hat * (1.0 - pe_hat) / total)
    if sum_bits:
        mean_bits, bits_se = _mean_and_stderr(sum_bits, sum_bits2, total)
        mean_rounds, rounds_se = _mean_and_stderr(sum_rounds, sum_rounds2, total)
    else:
        mean_bits = bits_se = mean_rounds = rounds_se = 0.0
    pred_pe, pred_bits, pred_rounds = _predictions(config)
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


def _mean_and_stderr(sums: list[float], sums_sq: list[float], n: int) -> tuple[float, float]:
    s = math.fsum(sums)
    s2 = math.fsum(sums_sq)
    mean = s / n
    if n < 2:
        return mean, 0.0
    var = max(0.0, (s2 - n * mean * mean) / (n - 1))
    return mean, math.sqrt(var / n)
