"""Executable two-party state machines for the three refinement schemes.

Every run_* function maps one plane point to a Transcript: the ordered
message list with ideal-codelength accounting (-log2 of each symbol's
probability under the sender's model; exactly 1.0 for bisection bits), the
round count and the final decision in lattice coordinates.  All functions
are pure; identical inputs give identical transcripts.

The two single-round schemes are one protocol in two speaking orders, and
a Quantizer knows which: scheme 12 bins x1 (S1 speaks first), scheme 21
bins x2 (S2 first); it is the code both parties hold before any bit is
sent: lattice, bins, each bin's cuts and the ideal code lengths.
run_single_round_12/21 and replay_decision reject a quantizer of the other
scheme or another lattice, and replay rejects symbols outside the
alphabets, with ValueError.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from . import analytics
from .errors import OutOfCell
from .lattice import (
    CrossSection,
    IntegerPair,
    LatticeParams,
    Point2,
    cell_geometry,
)

S1 = "S1"
S2 = "S2"

DEFAULT_MAX_ROUNDS = 64


@dataclass(frozen=True)
class Message:
    sender: str
    symbol: int
    ideal_bits: float


@dataclass(frozen=True)
class Transcript:
    messages: tuple[Message, ...]
    rounds: int
    total_bits: float
    decision: IntegerPair
    halted: bool


@dataclass(frozen=True)
class Quantizer:
    """Codebook of a single-round scheme over its first speaker's axis.

    vertical: x1 is binned (scheme 12, sizes (N1, N2): N2 | N1 | 1 | N1 | N2
    bins, S1 first); otherwise x2 is (scheme 21, sizes (N,): N | 1 | N bins,
    S2 first).  Bin symbols are centred: `center` indexes the cut-free middle
    bin, sent as 0, positive to the right, so mirroring negates the symbol.
    Row i of `table` (int8 labels) cuts the line through the midpoint of bin
    i of `edges` (read-only float64) in the cell of `params`.  The code, read
    by transcripts and batch kernels alike, is read-only too: `bin_bits[i]`
    = -log2(width of bin i / axis span), `answer_bits[i, symbol + 1]` =
    -log2(table.probs[i, symbol + 1]), inf for an empty region.  Equality
    and hash use params, vertical and sizes alone, which determine the rest.
    """

    params: LatticeParams
    vertical: bool
    sizes: tuple[int, ...]
    center: int = field(compare=False)
    edges: np.ndarray = field(compare=False, repr=False)
    table: CrossSection = field(compare=False, repr=False)
    bin_bits: np.ndarray = field(compare=False, repr=False)
    answer_bits: np.ndarray = field(compare=False, repr=False)


def _ideal_bits(values: np.ndarray) -> np.ndarray:
    """-math.log2 of each entry, inf for 0 (an empty region).

    math.log2 is the C library's log2 on every CPU; np.log2 takes a SIMD
    path on AVX-512 CPUs that differs from it by an ulp on some entries.
    """
    nonempty = values > 0.0
    positive = values[nonempty]
    logs = np.full(values.shape, -math.inf)
    logs[nonempty] = np.fromiter(map(math.log2, memoryview(positive)), np.float64, len(positive))
    return np.negative(logs, out=logs)


def _quantizer(params: LatticeParams, edges, vertical: bool, sizes: tuple[int, ...]) -> Quantizer:
    """The quantizer with bin edges `edges` (a float64 array), its cut table
    and code, the table built in analytics.bin_sections' chunks into arrays
    of its final size, so no float64 copy of all the labels is ever held."""
    n = len(edges) - 1
    table = CrossSection(
        lo=np.empty(n), hi=np.empty(n), labels=np.empty((n, 3, 2), np.int8), probs=np.empty((n, 3))
    )
    widths = np.empty(n)
    start = 0
    for chunk_widths, part in analytics.bin_sections(cell_geometry(params), edges, vertical):
        for whole, rows in zip((widths, *table), (chunk_widths, *part)):
            whole[start : start + len(rows)] = rows
        start += len(chunk_widths)
    widths /= edges[-1] - edges[0]
    bin_bits, answer_bits = _ideal_bits(widths), _ideal_bits(table.probs)
    for a in (edges, bin_bits, answer_bits):
        a.setflags(write=False)
    return Quantizer(params, vertical, sizes, sum(sizes), edges, table, bin_bits, answer_bits)


def quantizer_12(params: LatticeParams, n1: int, n2: int) -> Quantizer:
    return _quantizer(params, analytics.bin_edges_12(params, n1, n2), True, (n1, n2))


def quantizer_21(params: LatticeParams, n: int) -> Quantizer:
    return _quantizer(params, analytics.bin_edges_21(params, n), False, (n,))


# the axis each scheme's quantizer bins (vertical strips for 12); none for infinite
_AXIS = {"12": True, "21": False, "infinite": None}


def _checked(scheme: str, q: Quantizer | None, params: LatticeParams) -> Quantizer | None:
    """q, if `scheme` takes it: a quantizer over its axis built on params, or None."""
    if scheme not in _AXIS:
        raise ValueError(f"unknown scheme {scheme!r}")
    if (None if q is None else q.vertical) != _AXIS[scheme]:
        want = "no quantizer" if _AXIS[scheme] is None else f"a quantizer from quantizer_{scheme}"
        raise ValueError(f"scheme {scheme!r} takes {want}")
    if q is not None and q.params != params:
        raise ValueError(f"quantizer was built for {q.params}, not {params}")
    return q


def _require_in_cell(x: Point2, params: LatticeParams) -> None:
    h = params.rsin / 2.0
    if not (-0.5 < x[0] <= 0.5 and -h < x[1] <= h):
        raise OutOfCell(f"{tuple(x)} outside (-1/2,1/2] x (-{h},{h}]")


def _decision(q: Quantizer, pos: int, symbol: int) -> IntegerPair:
    return IntegerPair(*q.table.labels[pos, symbol + 1].tolist())


def _single_round(x: Point2, params: LatticeParams, q: Quantizer) -> Transcript:
    """Shared body of the single-round schemes, in the speaking order of q.

    The first speaker sends the bin of its coordinate; the other answers -1
    below the lower cut at the bin midpoint, +1 above the upper cut and 0 in
    the (0,0) region.  Both messages cost their ideal bits from q's code.
    """
    _require_in_cell(x, params)
    if q.vertical:
        first, second, senders = x[0], x[1], (S1, S2)
    else:
        first, second, senders = x[1], x[0], (S2, S1)
    table = q.table
    # the half-open bin edges[pos] < first <= edges[pos + 1]
    pos = min(max(bisect_left(q.edges, first) - 1, 0), len(q.edges) - 2)
    symbol = 1 if second > table.hi[pos] else (-1 if second <= table.lo[pos] else 0)
    bits1 = q.bin_bits.item(pos)
    bits2 = q.answer_bits.item(pos, symbol + 1)
    return Transcript(
        messages=(Message(senders[0], pos - q.center, bits1), Message(senders[1], symbol, bits2)),
        rounds=1,
        total_bits=bits1 + bits2,
        decision=_decision(q, pos, symbol),
        halted=True,
    )


def run_single_round_12(x: Point2, params: LatticeParams, q: Quantizer) -> Transcript:
    """One round, S1 first: bin index of x1, then S2's ternary decision.

    S2's cuts sit at the boundary heights of the bin midpoint (the optimal
    mid-height cut for a linear boundary); the decision is the region label,
    known to both parties from the two symbols alone.  q must come from
    quantizer_12 on the same params (ValueError otherwise).
    """
    return _single_round(x, params, _checked("12", q, params))


def run_single_round_21(x: Point2, params: LatticeParams, q: Quantizer) -> Transcript:
    """One round, S2 first: bin index of x2, then S1's ternary decision;
    q must come from quantizer_21 on the same params."""
    return _single_round(x, params, _checked("21", q, params))


@dataclass(frozen=True)
class ErrorRectangle:
    """A round-1 cell whose Voronoi boundary is exactly its diagonal."""

    x_lo: float
    x_hi: float
    y_lo: float
    y_hi: float
    neighbor: IntegerPair
    positive_slope: bool


def _infinite_decision(u2: int, u1m: int, far: bool) -> IntegerPair:
    """The neighbour across the diagonal of error rectangle (u2, u1m) if `far`, else 0."""
    return (IntegerPair(0, u2) if u1m == 1 else IntegerPair(-u2, u2)) if far else IntegerPair(0, 0)


def error_rectangle(params: LatticeParams, u2: int, u1: int) -> ErrorRectangle:
    """The round-1 error rectangle selected by symbols (u2, u1), both nonzero.

    It is the bounding box of the boundary segment of neighbour u2*(0,1)
    (u1 = 1) or u2*(-1,1) (u1 = -1): for u2 = 1 the two rectangles sit in
    the top band, and u2 = -1 mirrors them through the origin.
    """
    if u2 not in (-1, 1) or u1 not in (-1, 1):
        raise ValueError("error rectangles exist only for u2, u1 in {-1, +1}")
    neighbor = _infinite_decision(u2, u1, far=True)
    seg = next(s for s in cell_geometry(params).boundary_segments if s.neighbor == neighbor)
    return ErrorRectangle(*seg.x1_span, *seg.x2_span, seg.neighbor, seg.slope > 0.0)


def _beyond_bisector(params: LatticeParams, u1m: int, x1: float, x2: float) -> bool:
    """True if (x1, x2) lies strictly on the neighbour's side of the bisector
    of error rectangle u1m in the mirrored frame (run_batch_infinite's test)."""
    c, s = params.rcos, params.rsin
    n1 = c if u1m == 1 else c - 1.0
    return x1 * n1 + x2 * s > 0.5 * (n1 * n1 + s * s)


def run_infinite_rounds(
    x: Point2, params: LatticeParams, max_rounds: int = DEFAULT_MAX_ROUNDS
) -> Transcript:
    """Zero-error interactive refinement with unbounded rounds.

    Round 1: S2 sends the band index; if nonzero, S1 answers with the coarse
    interval index (mirrored through the origin when the band index is -1).
    Both zero symbols halt immediately in an error-free cell.  Otherwise the
    point lies in an error rectangle whose Voronoi boundary is its exact
    diagonal.  In the normalised coordinates y1 (x1 measured from the right
    edge when the diagonal's slope is positive) and y2 = (x2 - tau_1)/H1 the
    diagonal is y1 + y2 = 1, and each further round exchanges the next
    binary-expansion bit b of y1 and c of y2, halting on the first equal
    pair: the neighbour's side when b = c = 1, the zero side when b = c = 0.
    The decision is that of replay_decision and run_batch_infinite, from the
    same coordinates and the same bits.

    A transcript that exhausts max_rounds is returned with halted=False and
    the decision taken from an exact side test of x itself.
    """
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    _require_in_cell(x, params)
    g = cell_geometry(params)
    q_dist, p_dist = analytics.round1_distributions(params)
    u2 = 1 if x[1] > g.tau_1 else (-1 if x[1] <= g.tau_m1 else 0)
    messages = [Message(S2, u2, -math.log2(q_dist.probs[u2 + 1]))]
    if u2 == 0:
        return Transcript(tuple(messages), 1, messages[0].ideal_bits, IntegerPair(0, 0), True)

    mx1, mx2 = (-x[0], -x[1]) if u2 == -1 else (x[0], x[1])
    u1m = 1 if mx1 > g.t_1 else (-1 if mx1 <= g.t_m2 else 0)
    messages.append(Message(S1, u2 * u1m, -math.log2(p_dist.probs[u1m + 1])))
    total = messages[0].ideal_bits + messages[1].ideal_bits
    if u1m == 0:
        return Transcript(tuple(messages), 1, total, IntegerPair(0, 0), True)

    if u1m == 1:
        y1 = (mx1 - g.t_1) / (0.5 - g.t_1)
    else:
        y1 = 1.0 - (mx1 + 0.5) / (g.t_m2 + 0.5)
    y2 = (mx2 - g.tau_1) / g.H1
    rounds = 1
    while rounds < max_rounds:
        b = 1 if y1 > 0.5 else 0
        c = 1 if y2 > 0.5 else 0
        messages += (Message(S1, b, 1.0), Message(S2, c, 1.0))
        total += 2.0
        rounds += 1
        if b == c:
            decision = _infinite_decision(u2, u1m, b == 1)
            return Transcript(tuple(messages), rounds, total, decision, True)
        y1 = 2.0 * y1 - b
        y2 = 2.0 * y2 - c
    decision = _infinite_decision(u2, u1m, _beyond_bisector(params, u1m, mx1, mx2))
    return Transcript(tuple(messages), rounds, total, decision, False)


def transcript_to_json(t: Transcript) -> str:
    """Serialize a transcript with stable field names and key order."""
    doc = {
        "messages": [
            {"sender": m.sender, "symbol": m.symbol, "ideal_bits": m.ideal_bits}
            for m in t.messages
        ],
        "rounds": t.rounds,
        "total_bits": t.total_bits,
        "decision": [t.decision.u1, t.decision.u2],
        "halted": t.halted,
    }
    return json.dumps(doc)


def transcript_from_json(text: str) -> Transcript:
    doc = json.loads(text)
    return Transcript(
        messages=tuple(
            Message(m["sender"], int(m["symbol"]), float(m["ideal_bits"]))
            for m in doc["messages"]
        ),
        rounds=int(doc["rounds"]),
        total_bits=float(doc["total_bits"]),
        decision=IntegerPair(int(doc["decision"][0]), int(doc["decision"][1])),
        halted=bool(doc["halted"]),
    )


def _expect(symbols: list[int], *alphabets) -> None:
    """One symbol per alphabet, each in its own (ValueError otherwise)."""
    if len(symbols) != len(alphabets) or any(s not in a for s, a in zip(symbols, alphabets)):
        raise ValueError(f"symbols {symbols} do not fit the alphabets {list(alphabets)}")


def replay_decision(
    messages: tuple[Message, ...],
    params: LatticeParams,
    scheme: str,
    quantizer: Quantizer | None = None,
) -> IntegerPair:
    """Recompute the decision from the message symbols alone (no x).

    Demonstrates that both parties reach the same decision from what was
    communicated.  The single-round schemes need the quantizer of their
    own scheme built on params, and "infinite" takes none.  Anything else, a
    missing message, a symbol outside its message's alphabet (a bin of the
    quantizer, a ternary answer or band, a bisection bit) and a transcript
    that never halted raise ValueError.
    """
    q = _checked(scheme, quantizer, params)
    symbols = [m.symbol for m in messages]
    if q is not None:
        _expect(symbols, range(-q.center, len(q.edges) - 1 - q.center), (-1, 0, 1))
        return _decision(q, symbols[0] + q.center, symbols[1])
    _expect(symbols[:1], (-1, 0, 1))
    if symbols[0] == 0:
        return IntegerPair(0, 0)
    _expect(symbols[1:2], (-1, 0, 1))
    u2, u1m = symbols[0], symbols[0] * symbols[1]
    if u1m == 0:
        return IntegerPair(0, 0)
    for b, c in zip(symbols[2::2], symbols[3::2]):
        _expect([b, c], (0, 1), (0, 1))
        if b == c:
            return _infinite_decision(u2, u1m, b == 1)
    raise ValueError("transcript did not halt; decision is not replayable")

