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
import operator
import threading
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import analytics
from .errors import OutOfCell, require_int
from .lattice import IntegerPair, LatticeParams, Point2, cell_geometry, cross_section, round1_code

S1 = "S1"
S2 = "S2"

DEFAULT_MAX_ROUNDS = 64

# rows per cross_section call of a row fill: it bounds the fill's temporaries,
# about 200 bytes a row, at about 200 KB
_FILL_CHUNK = 1 << 10


class Message(NamedTuple):
    sender: str
    symbol: int
    ideal_bits: float


class Transcript(NamedTuple):
    messages: tuple[Message, ...]
    rounds: int
    total_bits: float
    decision: IntegerPair
    halted: bool


class BinRows:
    """A quantizer's per-bin rows, each computed on first use.

    Row i is bin i's line through its midpoint, from its cross_section row:
    the cuts `lo[i]` and `hi[i]`, the decision columns `decisions[:, i]`
    (the labels as float64; C-contiguous, so a batch kernel gathers each
    coordinate with one take at index 3 * i + symbol + 1) and the code
    lengths `bin_bits[i]` = -log2(width of bin i / axis span) and
    `answer_bits[i, symbol + 1]` = -log2(the region's probability), inf for
    an empty region.  The five arrays have the size of the whole quantizer
    from the start, but row i holds its values only once it is filled, and
    `bin_bits[i]` is NaN until then (a filled one never is): that NaN is the
    only record of what is filled.  Rows are filled under `lock`, bin_bits
    last, so threads that share a quantizer fill each row once, and a row
    whose bin_bits they read as a number is whole.
    """

    def __init__(self, geom, edges: np.ndarray, vertical: bool):
        n = len(edges) - 1
        self.geom, self.edges, self.vertical = geom, edges, vertical
        self.lo = np.empty(n)
        self.hi = np.empty(n)
        self.decisions = np.empty((2, n, 3))
        self.answer_bits = np.empty((n, 3))
        self.bin_bits = np.full(n, math.nan)
        self.lock = threading.Lock()

    def fill(self, bins: np.ndarray) -> None:
        """Compute the rows of the distinct bins `bins` (an intp array) that
        are not filled yet, _FILL_CHUNK rows at a time.

        Row i of edges e takes the midpoint 0.5*(e[i] + e[i+1]), the width
        (e[i+1] - e[i]) / (e[-1] - e[0]), cross_section at the midpoint and
        _ideal_bits of the width and of the probs.  Each is elementwise, so
        a row does not depend on which rows are filled with it, nor on the
        chunk.
        """
        e = self.edges
        with self.lock:
            bins = bins[np.isnan(self.bin_bits[bins])]
            for start in range(0, len(bins), _FILL_CHUNK):
                part = bins[start : start + _FILL_CHUNK]
                below, above = e[part], e[part + 1]
                cuts = cross_section(self.geom, 0.5 * (below + above), self.vertical)
                self.lo[part] = cuts.lo
                self.hi[part] = cuts.hi
                self.decisions[:, part] = np.moveaxis(cuts.labels, 2, 0)
                self.answer_bits[part] = _ideal_bits(cuts.probs)
                self.bin_bits[part] = _ideal_bits((above - below) / (e[-1] - e[0]))

    def bits(self, pos: int) -> float:
        """bin_bits[pos], with bin pos's row filled first: a scalar reader
        calls it before it reads the rest of the row."""
        if math.isnan(self.bin_bits.item(pos)):
            self.fill(np.array([pos]))
        return self.bin_bits.item(pos)


@dataclass(frozen=True)
class Quantizer:
    """Codebook of a single-round scheme over its first speaker's axis.

    vertical: x1 is binned (scheme 12, sizes (N1, N2): N2 | N1 | 1 | N1 | N2
    bins, S1 first); otherwise x2 is (scheme 21, sizes (N,): N | 1 | N bins,
    S2 first).  Bin symbols are centred: `center` indexes the cut-free middle
    bin, sent as 0, positive to the right, so mirroring negates the symbol.
    A quantizer is built with its `edges` alone (read-only float64).  Its
    code, read by transcripts, replays and batch kernels alike, is `rows` (a
    BinRows), each bin's row computed when first read, so a call pays only
    for the bins it touches.  Equality and hash use params, vertical and
    sizes alone, which determine the rest.
    """

    params: LatticeParams
    vertical: bool
    sizes: tuple[int, ...]
    center: int = field(compare=False)
    edges: np.ndarray = field(compare=False, repr=False)
    rows: BinRows = field(compare=False, repr=False)

    def __reduce__(self):
        # pickled as what determines it (its rows hold a lock); unpickled with no row filled
        return (quantizer_12 if self.vertical else quantizer_21, (self.params, *self.sizes))


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
    """The quantizer with bin edges `edges` (a float64 array), none of its
    rows filled yet."""
    edges.setflags(write=False)
    rows = BinRows(cell_geometry(params), edges, vertical)
    return Quantizer(params, vertical, sizes, sum(sizes), edges, rows)


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
    # a LatticeParams has finite fields, so it equals itself: `is` settles
    # the common case before the field-by-field comparison
    if q is not None and q.params is not params and q.params != params:
        raise ValueError(f"quantizer was built for {q.params}, not {params}")
    return q


def _require_in_cell(x: Point2, params: LatticeParams) -> None:
    h = params.rsin / 2.0
    if not (-0.5 < x[0] <= 0.5 and -h < x[1] <= h):
        raise OutOfCell(f"{tuple(x)} outside (-1/2,1/2] x (-{h},{h}]")


def _decision(rows: BinRows, pos: int, symbol: int) -> IntegerPair:
    d = rows.decisions
    return IntegerPair(int(d.item(0, pos, symbol + 1)), int(d.item(1, pos, symbol + 1)))


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
    # the half-open bin edges[pos] < first <= edges[pos + 1]
    pos = min(max(bisect_left(q.edges, first) - 1, 0), len(q.edges) - 2)
    rows = q.rows
    bits1 = rows.bits(pos)
    symbol = 1 if second > rows.hi.item(pos) else (-1 if second <= rows.lo.item(pos) else 0)
    bits2 = rows.answer_bits.item(pos, symbol + 1)
    messages = (Message(senders[0], pos - q.center, bits1), Message(senders[1], symbol, bits2))
    return Transcript(messages, 1, bits1 + bits2, _decision(rows, pos, symbol), True)


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


class ErrorRectangle(NamedTuple):
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
    of error rectangle u1m in the mirrored frame; elementwise on arrays, as
    run_batch_infinite calls it."""
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
    the decision taken from an exact side test of x itself.  max_rounds must
    be an int >= 1 (ValueError).
    """
    require_int(max_rounds=max_rounds)
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    _require_in_cell(x, params)
    t_m2, t_1, tau_1, H1, _, _, q_bits, p_bits = round1_code(params)
    u2 = 1 if x[1] > tau_1 else (-1 if x[1] <= -tau_1 else 0)
    messages = [Message(S2, u2, q_bits[u2 + 1])]
    if u2 == 0:
        return Transcript(tuple(messages), 1, messages[0].ideal_bits, IntegerPair(0, 0), True)

    mx1, mx2 = (-x[0], -x[1]) if u2 == -1 else (x[0], x[1])
    u1m = 1 if mx1 > t_1 else (-1 if mx1 <= t_m2 else 0)
    messages.append(Message(S1, u2 * u1m, p_bits[u1m + 1]))
    total = messages[0].ideal_bits + messages[1].ideal_bits
    if u1m == 0:
        return Transcript(tuple(messages), 1, total, IntegerPair(0, 0), True)

    y1 = (mx1 - t_1) / (0.5 - t_1) if u1m == 1 else 1.0 - (mx1 + 0.5) / (t_m2 + 0.5)
    y2 = (mx2 - tau_1) / H1
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


# json.dumps's spellings of the floats whose repr is not JSON
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_SENDERS = (S1, S2)
_INT = frozenset((int,))


def _float_text(value, name: str) -> str:
    if type(value) is not float:
        raise ValueError(f"{name} must be a float, got {value!r}")
    text = repr(value)
    return _NONFINITE.get(text, text)


def _int_text(value, name: str) -> str:
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, got {value!r}")
    return repr(value)


def transcript_to_json(t: Transcript) -> str:
    """Serialize a transcript with stable field names and key order.

    The text is json.dumps of {"messages": [{"sender", "symbol",
    "ideal_bits"}, ...], "rounds", "total_bits", "decision": [u1, u2],
    "halted"}, written here byte for byte as json.dumps writes it: ints by
    int.__repr__, floats by float.__repr__ with NaN, Infinity and -Infinity.
    A sender other than "S1"/"S2", a symbol, round count or decision entry
    that is not an int (a bool or numpy int included), bits that are not a
    float or a `halted` that is not a bool raise ValueError.
    """
    parts = []
    for sender, symbol, bits in t.messages:
        if type(sender) is not str or sender not in _SENDERS:
            raise ValueError(f"sender must be 'S1' or 'S2', got {sender!r}")
        if type(symbol) is not int:
            raise ValueError(f"symbol must be an int, got {symbol!r}")
        bits = _float_text(bits, "ideal_bits")
        parts.append(f'{{"sender": "{sender}", "symbol": {symbol!r}, "ideal_bits": {bits}}}')
    if type(t.halted) is not bool:
        raise ValueError(f"halted must be a bool, got {t.halted!r}")
    return (
        f'{{"messages": [{", ".join(parts)}], "rounds": {_int_text(t.rounds, "rounds")}, '
        f'"total_bits": {_float_text(t.total_bits, "total_bits")}, '
        f'"decision": [{_int_text(t.decision.u1, "u1")}, {_int_text(t.decision.u2, "u2")}], '
        f'"halted": {"true" if t.halted else "false"}}}'
    )


def _int_bits(value, name: str) -> float:
    """The float of the JSON integer read where bits go, which are not a
    float; anything else, or an integer beyond a float's range, raises."""
    if type(value) is int:
        try:
            return float(value)
        except OverflowError:
            pass
    raise ValueError(f"{name} must be a JSON number within a float's range, got {value!r}")


def transcript_from_json(text: str) -> Transcript:
    """The transcript that transcript_to_json wrote as `text`.

    Parsed by json.loads, then checked, never coerced: a document that is
    not an object with exactly the five keys, a message that is not an
    object with exactly its three, a sender other than "S1"/"S2", a symbol,
    round count or decision entry that is not a JSON integer (true and 1.0
    included), bits that are not a JSON number (true included) and a
    `halted` other than true/false raise ValueError.  Integer bits are read
    as float(bits).
    """
    doc = json.loads(text)
    # an object of exactly n keys that has every key it needs has no other
    try:
        if type(doc) is not dict or len(doc) != len(Transcript._fields):
            raise KeyError
        messages, rounds, total_bits = doc["messages"], doc["rounds"], doc["total_bits"]
        decision, halted = doc["decision"], doc["halted"]
    except KeyError:
        raise ValueError(f"a transcript must be an object with keys {Transcript._fields}") from None
    if type(messages) is not list:
        raise ValueError(f"messages must be a list, got {messages!r}")
    decoded = []
    for m in messages:
        try:
            if type(m) is not dict or len(m) != len(Message._fields):
                raise KeyError
            sender, symbol, bits = m["sender"], m["symbol"], m["ideal_bits"]
        except KeyError:
            raise ValueError(f"a message must be an object with keys {Message._fields}") from None
        if sender not in _SENDERS:
            raise ValueError(f"sender must be 'S1' or 'S2', got {sender!r}")
        if type(symbol) is not int:
            raise ValueError(f"symbol must be a JSON integer, got {symbol!r}")
        if type(bits) is not float:
            bits = _int_bits(bits, "ideal_bits")
        decoded.append(Message(sender, symbol, bits))
    if type(rounds) is not int:
        raise ValueError(f"rounds must be a JSON integer, got {rounds!r}")
    if type(total_bits) is not float:
        total_bits = _int_bits(total_bits, "total_bits")
    if type(decision) is not list or len(decision) != 2 or not _INT.issuperset(map(type, decision)):
        raise ValueError(f"decision must be a list of two JSON integers, got {decision!r}")
    if type(halted) is not bool:
        raise ValueError(f"halted must be true or false, got {halted!r}")
    return Transcript(tuple(decoded), rounds, total_bits, IntegerPair(*decision), halted)


def _expect(symbols: list[int], *alphabets) -> None:
    """One symbol per alphabet, each in its own (ValueError otherwise)."""
    if len(symbols) != len(alphabets) or not all(map(operator.contains, alphabets, symbols)):
        raise ValueError(f"symbols {symbols} do not fit the alphabets {list(alphabets)}")


def _out_of_order(messages: tuple[Message, ...], scheme: str) -> ValueError:
    """The error for messages whose senders break the scheme's speaking order."""
    senders = [m.sender for m in messages]
    return ValueError(f"senders {senders} are not the speaking order of scheme {scheme!r}")


def _ends_at(messages: tuple[Message, ...], n: int, decision: IntegerPair) -> IntegerPair:
    """decision, if the n-th message, which decides, is the last (ValueError otherwise)."""
    if len(messages) != n:
        raise ValueError(f"{len(messages) - n} message(s) follow the one that decides")
    return decision


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
    missing message, a symbol that is not an int (a bool or a float; see
    require_int) or lies outside its message's alphabet (a bin of the
    quantizer, a ternary answer or band, a bisection bit), a message from
    the wrong party, a message after the one that decides and a transcript
    that never halted raise ValueError.
    The parties speak in the scheme's order: S1 then S2 for "12", S2 then
    S1 for "21"; for "infinite", S2, then S1, then S1 and S2 in each
    bisection round.
    """
    q = _checked(scheme, quantizer, params)
    symbols = [m.symbol for m in messages]
    if not _INT.issuperset(map(type, symbols)):
        # require_int's rule: an int subclass passes, a bool or a float never
        for symbol in symbols:
            require_int(symbol=symbol)
    if q is not None:
        _expect(symbols, range(-q.center, len(q.edges) - 1 - q.center), (-1, 0, 1))
        first, second = (S1, S2) if q.vertical else (S2, S1)
        if messages[0].sender != first or messages[1].sender != second:
            raise _out_of_order(messages, scheme)
        pos = symbols[0] + q.center
        q.rows.bits(pos)  # fills the row
        return _decision(q.rows, pos, symbols[1])
    _expect(symbols[:1], (-1, 0, 1))
    if messages[0].sender != S2:
        raise _out_of_order(messages, scheme)
    if symbols[0] == 0:
        return _ends_at(messages, 1, IntegerPair(0, 0))
    _expect(symbols[1:2], (-1, 0, 1))
    if messages[1].sender != S1:
        raise _out_of_order(messages, scheme)
    u2, u1m = symbols[0], symbols[0] * symbols[1]
    if u1m == 0:
        return _ends_at(messages, 2, IntegerPair(0, 0))
    for i in range(2, len(messages) - 1, 2):
        b, c = symbols[i], symbols[i + 1]
        _expect([b, c], (0, 1), (0, 1))
        if messages[i].sender != S1 or messages[i + 1].sender != S2:
            raise _out_of_order(messages, scheme)
        if b == c:
            return _ends_at(messages, i + 2, _infinite_decision(u2, u1m, b == 1))
    raise ValueError("transcript did not halt; decision is not replayable")

