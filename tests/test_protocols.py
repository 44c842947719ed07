import copy
import json
import math
import pickle
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from babai_refine import (
    IntegerPair,
    LatticeParams,
    OutOfCell,
    Point2,
    cell_geometry,
    error_rectangle,
    exact_nearest_point,
    lattice_point,
    protocols,
    quantizer_12,
    quantizer_21,
    replay_decision,
    round1_distributions,
    run_batch_12,
    run_batch_21,
    run_infinite_rounds,
    run_single_round_12,
    run_single_round_21,
    transcript_from_json,
    transcript_to_json,
)

from conftest import (
    ROW_NAMES,
    assert_rows_are_eager,
    eager_rows,
    fill_every_row,
    filled_bins,
    lattices,
    random_valid_params,
)

SIN03 = math.sqrt(0.91)


def _uniform_cell(params, count, seed):
    rng = np.random.default_rng(seed)
    h = params.rsin / 2.0
    return [
        Point2(float(rng.uniform(-0.5, 0.5)), float(rng.uniform(-h, h)))
        for _ in range(count)
    ]


def test_run_12_center(params_main):
    q = quantizer_12(params_main, 3, 5)
    t = run_single_round_12(Point2(0.0, 0.0), params_main, q)
    assert t.messages[0].symbol == 0
    assert t.messages[1].symbol == 0
    assert t.messages[1].ideal_bits == 0.0  # degenerate answer on the free strip
    assert t.decision == (0, 0)
    assert t.rounds == 1 and t.halted


def test_run_12_outer_strip(params_main):
    q = quantizer_12(params_main, 1, 1)
    x = Point2(0.45, 0.45)
    t = run_single_round_12(x, params_main, q)
    # bin I_2 (symbol +2); upper cut at the bisector height of the strip
    # midpoint 0.425; x2 = 0.45 lies above it
    cut = (0.5 - 0.3 * 0.425) / SIN03
    assert x[1] > cut
    assert t.messages[0].symbol == 2
    assert t.messages[1].symbol == 1
    assert math.isclose(t.messages[0].ideal_bits, -math.log2(0.15), rel_tol=1e-12)
    assert t.decision == (0, 1)
    assert t.decision == exact_nearest_point(x, params_main)


def test_run_12_bits_model(params_main):
    q = quantizer_12(params_main, 2, 3)
    g = cell_geometry(params_main)
    for x in _uniform_cell(params_main, 200, seed=2):
        t = run_single_round_12(x, params_main, q)
        assert t.total_bits == t.messages[0].ideal_bits + t.messages[1].ideal_bits
        assert t.messages[0].ideal_bits >= 0 and t.messages[1].ideal_bits >= 0
        assert tuple(t.decision) in {(0, 0), (0, 1), (0, -1), (-1, 1), (1, -1)}


def test_run_21_center(params_main):
    q = quantizer_21(params_main, 4)
    t = run_single_round_21(Point2(0.0, 0.0), params_main, q)
    assert t.messages[0].sender == "S2" and t.messages[0].symbol == 0
    assert t.messages[1].sender == "S1" and t.messages[1].symbol == 0
    assert t.decision == (0, 0)


def test_run_21_top_row(params_main):
    q = quantizer_21(params_main, 1)
    x = Point2(-0.47, 0.42)
    t = run_single_round_21(x, params_main, q)
    g = cell_geometry(params_main)
    mid = 0.5 * (g.tau_1 + g.H / 2)
    left_cut = (SIN03 * mid - 0.7) / 0.7
    assert x[0] < left_cut
    assert t.messages[0].symbol == 1
    assert t.messages[1].symbol == -1
    assert t.decision == (-1, 1)
    assert t.decision == exact_nearest_point(x, params_main)


def test_run_inf_center(params_main):
    t = run_infinite_rounds(Point2(0.0, 0.0), params_main)
    assert len(t.messages) == 1
    assert t.messages[0].sender == "S2" and t.messages[0].symbol == 0
    assert t.rounds == 1 and t.halted
    assert t.decision == (0, 0)


def test_run_inf_hand_traced(params_main):
    """x = (0.45, 0.45): band 1, interval 1, one bisection round."""
    t = run_infinite_rounds(Point2(0.45, 0.45), params_main)
    q, p = round1_distributions(params_main)
    want_bits = -math.log2(q.probs[2]) - math.log2(p.probs[2]) + 2.0
    assert [m.symbol for m in t.messages] == [1, 1, 1, 1]
    assert math.isclose(t.messages[0].ideal_bits, 3.11548, abs_tol=5e-6)
    assert math.isclose(t.messages[1].ideal_bits, 1.51457, abs_tol=5e-6)
    assert math.isclose(t.total_bits, want_bits, rel_tol=1e-12)
    assert math.isclose(t.total_bits, 6.630, abs_tol=5e-4)
    assert t.rounds == 2
    assert t.decision == (0, 1)
    assert t.halted


def test_run_inf_halts_on_zero_symbols(params_main):
    g = cell_geometry(params_main)
    # band 1 but central slot: halts after the two round-1 messages
    x = Point2(0.0, 0.45)
    assert g.tau_1 < x[1] <= g.H / 2
    t = run_infinite_rounds(x, params_main)
    assert len(t.messages) == 2
    assert [m.symbol for m in t.messages] == [1, 0]
    assert t.rounds == 1 and t.halted
    assert t.decision == (0, 0)
    assert t.decision == exact_nearest_point(x, params_main)


def test_run_inf_zero_error(params_main):
    for x in _uniform_cell(params_main, 20_000, seed=5):
        t = run_infinite_rounds(x, params_main)
        assert t.halted
        assert t.decision == exact_nearest_point(x, params_main)


@pytest.mark.parametrize("params", random_valid_params(6, seed=83))
def test_run_inf_zero_error_other_lattices(params):
    for x in _uniform_cell(params, 2_000, seed=7):
        t = run_infinite_rounds(x, params)
        assert t.halted
        assert t.decision == exact_nearest_point(x, params)


def test_determinism(params_main):
    x = Point2(0.431, -0.377)
    assert run_infinite_rounds(x, params_main) == run_infinite_rounds(x, params_main)
    q = quantizer_12(params_main, 2, 3)
    assert run_single_round_12(x, params_main, q) == run_single_round_12(x, params_main, q)


def test_replay_reproduces_decisions(params_main):
    q12 = quantizer_12(params_main, 2, 3)
    q21 = quantizer_21(params_main, 4)
    for x in _uniform_cell(params_main, 500, seed=11):
        t = run_single_round_12(x, params_main, q12)
        assert replay_decision(t.messages, params_main, "12", q12) == t.decision
        t = run_single_round_21(x, params_main, q21)
        assert replay_decision(t.messages, params_main, "21", q21) == t.decision
        t = run_infinite_rounds(x, params_main)
        assert replay_decision(t.messages, params_main, "infinite") == t.decision


def test_single_round_rejects_the_other_schemes_quantizer(params_main):
    """A 21 quantizer in the 12 protocol (or the reverse) would bin the wrong
    coordinate and return a wrong transcript; it raises instead."""
    x = Point2(0.1, 0.05)
    with pytest.raises(ValueError, match="scheme '12' takes a quantizer from quantizer_12"):
        run_single_round_12(x, params_main, quantizer_21(params_main, 4))
    with pytest.raises(ValueError, match="scheme '21' takes a quantizer from quantizer_21"):
        run_single_round_21(x, params_main, quantizer_12(params_main, 2, 3))


def test_replay_rejects_a_missing_or_foreign_quantizer(params_main):
    q12 = quantizer_12(params_main, 2, 3)
    q21 = quantizer_21(params_main, 4)
    x = Point2(0.45, 0.45)
    m12 = run_single_round_12(x, params_main, q12).messages
    m21 = run_single_round_21(x, params_main, q21).messages
    minf = run_infinite_rounds(x, params_main).messages
    for messages, scheme, q, want in (
        (m12, "12", None, "a quantizer from quantizer_12"),
        (m12, "12", q21, "a quantizer from quantizer_12"),
        (m21, "21", None, "a quantizer from quantizer_21"),
        (m21, "21", q12, "a quantizer from quantizer_21"),
        (minf, "infinite", q12, "no quantizer"),
        (minf, "infinite", q21, "no quantizer"),
    ):
        with pytest.raises(ValueError, match=f"scheme '{scheme}' takes {want}"):
            replay_decision(messages, params_main, scheme, q)
    with pytest.raises(ValueError, match="unknown scheme 'babai_only'"):
        replay_decision(minf, params_main, "babai_only")


def test_quantizer_of_another_lattice_is_rejected(params_main, params_hex):
    """A quantizer's cut table holds only on the lattice it was built for."""
    x = Point2(0.1, 0.05)
    for scheme, q, run in (
        ("12", quantizer_12(params_hex, 2, 3), run_single_round_12),
        ("21", quantizer_21(params_hex, 4), run_single_round_21),
    ):
        messages = run(x, params_hex, q).messages
        with pytest.raises(ValueError, match="quantizer was built for"):
            run(x, params_main, q)
        with pytest.raises(ValueError, match="quantizer was built for"):
            replay_decision(messages, params_main, scheme, q)


def test_quantizer_of_the_theta_route_lattice_is_rejected():
    """from_rcos(1, 0.3) and LatticeParams(1, acos(0.3)) share theta but not
    c, so a quantizer of one is a quantizer of another lattice."""
    exact = LatticeParams.from_rcos(1.0, 0.3)
    via_theta = LatticeParams(rho=1.0, theta=math.acos(0.3))
    x = Point2(0.1, 0.05)
    for a, b in ((exact, via_theta), (via_theta, exact)):
        run_single_round_12(x, a, quantizer_12(a, 2, 3))
        with pytest.raises(ValueError, match="quantizer was built for"):
            run_single_round_12(x, a, quantizer_12(b, 2, 3))


@pytest.mark.parametrize("lattice", ["params_main", "params_hex"])
def test_quantizer_of_an_equal_params_object_is_accepted(lattice, request):
    """A quantizer built on a params object equal to, but not the same
    object as, the one a run is given (rebuilt from the same rho and theta,
    or a pickled copy) is accepted and gives what the run's own gives."""
    params = request.getfixturevalue(lattice)
    x = Point2(0.45, 0.4)
    x1, x2 = np.array([0.45, 0.1, -0.4]), np.array([0.4, 0.05, -0.3])
    for other in (
        LatticeParams(rho=params.rho, theta=params.theta),
        pickle.loads(pickle.dumps(params)),
    ):
        assert other == params and other is not params
        for scheme, make, run, batch in (
            ("12", lambda p: quantizer_12(p, 2, 3), run_single_round_12, run_batch_12),
            ("21", lambda p: quantizer_21(p, 4), run_single_round_21, run_batch_21),
        ):
            q, own = make(other), make(params)
            t = run(x, params, q)
            assert t == run(x, params, own)
            assert replay_decision(t.messages, params, scheme, q) == t.decision
            got, want = batch(params, q, x1, x2), batch(params, own, x1, x2)
            assert got.keys() == want.keys()
            for name in want:
                assert got[name].tobytes() == want[name].tobytes(), (scheme, name)


def test_quantizers_from_the_same_arguments_are_equal(params_main, params_hex):
    assert quantizer_12(params_main, 2, 3) == quantizer_12(params_main, 2, 3)
    assert hash(quantizer_21(params_main, 4)) == hash(quantizer_21(params_main, 4))
    assert quantizer_21(params_main, 4) == quantizer_21(params_main, 4)
    assert quantizer_12(params_main, 2, 3) != quantizer_12(params_hex, 2, 3)
    # both have centre 5
    assert quantizer_12(params_main, 2, 3) != quantizer_12(params_main, 3, 2)
    assert "table" not in repr(quantizer_12(params_main, 1, 1))
    assert "bits" not in repr(quantizer_12(params_main, 1, 1))


@pytest.mark.parametrize("chunk", [1, 7, 1 << 20])
@pytest.mark.parametrize("lattice", ["params_main", "params_hex", "params_square"])
def test_quantizer_code_lengths(lattice, chunk, request, monkeypatch):
    """Once filled, the quantizer's code holds the first message's bits,
    -math.log2 of each bin's width over the axis span, and the answer's
    bits, -math.log2 of each region's probability, inf exactly where it is 0,
    whatever the chunk the rows are filled in."""
    monkeypatch.setattr(protocols, "_FILL_CHUNK", chunk)
    params = request.getfixturevalue(lattice)
    for q, span in ((quantizer_12(params, 40, 70), 1.0), (quantizer_21(params, 99), params.rsin)):
        fill_every_row(q)
        rows, eager_probs = q.rows, eager_rows(q)["probs"]
        assert rows.bin_bits.dtype == rows.answer_bits.dtype == np.float64
        edges = q.edges.tolist()
        want = [-math.log2((b - a) / span) for a, b in zip(edges, edges[1:])]
        assert [v.hex() for v in rows.bin_bits.tolist()] == [v.hex() for v in want]
        probs = eager_probs.ravel().tolist()
        want = [math.inf if p == 0.0 else -math.log2(p) for p in probs]
        assert rows.answer_bits.shape == eager_probs.shape
        assert [v.hex() for v in rows.answer_bits.ravel().tolist()] == [v.hex() for v in want]
        assert 0.0 in probs  # the centre bin has two empty regions


@pytest.mark.parametrize("chunk", [1, 7, 1 << 20])
def test_quantizer_table_does_not_depend_on_chunking(chunk, params_main, params_hex, monkeypatch):
    """The stored rows, filled chunk by chunk, equal one cross_section of
    all the bin midpoints plus math.log2 bit for bit, whatever the chunk."""
    monkeypatch.setattr(protocols, "_FILL_CHUNK", chunk)
    for params in (params_main, params_hex):
        for q in (quantizer_12(params, 40, 70), quantizer_21(params, 99)):
            assert_rows_are_eager(q, fill_every_row(q))


@pytest.mark.parametrize("lattice", ["params_main", "params_hex", "params_square"])
def test_quantizer_decision_columns_are_the_labels(lattice, request):
    """Once filled, rows.decisions[j, i, k] is the float of the cut table's
    labels[i, k, j] on every entry, at sizes from one bin a side to
    thousands, and the columns are C-contiguous, so the batch kernels gather
    from them in place."""
    params = request.getfixturevalue(lattice)
    for q in (
        *(quantizer_12(params, n1, n2) for n1, n2 in ((1, 1), (2, 3), (40, 70), (4096, 4096))),
        *(quantizer_21(params, n) for n in (1, 4, 99, 4096)),
    ):
        fill_every_row(q)
        decisions, labels = q.rows.decisions, eager_rows(q)["labels"]
        assert decisions.dtype == np.float64
        assert decisions.shape == (2, len(labels), 3)
        assert decisions.flags.c_contiguous
        for j, column in enumerate(decisions):
            assert column.flags.c_contiguous
            assert column.tobytes() == labels[:, :, j].astype(np.float64).tobytes()
            assert not np.any(np.signbit(column) & (column == 0.0))  # no -0.0


def test_quantizers_pickle_and_copy(params_main):
    """A quantizer, with one row filled or none, pickles and copies to an
    equal one with the same edges and centre, whose rows, once filled, are
    the eager rows."""
    filled = quantizer_12(params_main, 2, 3)
    run_single_round_12(Point2(0.1, 0.2), params_main, filled)
    for q in (filled, quantizer_21(params_main, 4)):
        for other in (pickle.loads(pickle.dumps(q)), copy.deepcopy(q)):
            assert other == q and hash(other) == hash(q)
            assert other.edges.tobytes() == q.edges.tobytes() and other.center == q.center
            assert_rows_are_eager(other, fill_every_row(other))


def test_copied_quantizers_fill_the_same_rows(params_main):
    """A pickled or copied quantizer starts with no row filled, and its
    rows, once all filled, are the original's bit for bit."""
    filled = quantizer_12(params_main, 2, 3)
    run_single_round_12(Point2(0.1, 0.2), params_main, filled)
    for q in (filled, quantizer_21(params_main, 4)):
        for other in (pickle.loads(pickle.dumps(q)), copy.deepcopy(q)):
            assert filled_bins(other).size == 0
            fill_every_row(other)
            fill_every_row(q)
            for name in ROW_NAMES:
                got, want = getattr(other.rows, name), getattr(q.rows, name)
                assert got.tobytes() == want.tobytes(), name


def test_a_fresh_quantizer_fills_no_row(params_main, params_square, monkeypatch):
    """Building a quantizer computes no cut and takes no logarithm, up to
    4096 bins a side: every row waits for its first reader."""
    calls = []
    monkeypatch.setattr(protocols, "cross_section", lambda *args, **kw: calls.append(args))
    monkeypatch.setattr(math, "log2", lambda v: calls.append(v))
    for params in (params_main, params_square):
        for q in (quantizer_21(params, 4096), quantizer_12(params, 4096, 4096)):
            assert filled_bins(q).size == 0
    assert calls == []


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(
    params=lattices(),
    vertical=st.booleans(),
    n1=st.integers(1, 30),
    n2=st.integers(1, 30),
    chunk=st.sampled_from([1, 7, 1 << 10]),
    data=st.data(),
)
def test_rows_filled_in_any_order_are_the_eager_rows(params, vertical, n1, n2, chunk, data):
    """Rows asked for in any order and subset (scalar transcripts and
    replays, then batch kernel blocks, then every row) are one cross_section
    of all the bin midpoints plus math.log2, bit for bit, whatever the
    fill's chunk, and before every row is asked for exactly the rows asked
    for are filled."""
    with mock.patch.object(protocols, "_FILL_CHUNK", chunk):
        _fill_rows_in_order(params, vertical, n1, n2, data)


def _fill_rows_in_order(params, vertical, n1, n2, data):
    q = quantizer_12(params, n1, n2) if vertical else quantizer_21(params, n1)
    if vertical:
        scheme, run, batch = "12", run_single_round_12, run_batch_12
    else:
        scheme, run, batch = "21", run_single_round_21, run_batch_21
    edges = np.asarray(q.edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    other_half = (params.rsin if vertical else 1.0) / 2.0
    bins = st.integers(0, len(mid) - 1)
    asked = set()

    def point(i, f):
        return Point2(mid[i], f * other_half) if vertical else Point2(f * other_half, mid[i])

    def check():
        assert set(filled_bins(q).tolist()) == asked
        assert_rows_are_eager(q, sorted(asked))

    for i, f in data.draw(st.lists(st.tuples(bins, st.floats(-0.99, 0.99)), max_size=5)):
        t = run(point(i, f), params, q)
        assert t.messages[0].symbol == i - q.center
        asked.add(i)
        check()
    for i, answer in data.draw(st.lists(st.tuples(bins, st.sampled_from((-1, 0, 1))), max_size=5)):
        senders = ("S1", "S2") if vertical else ("S2", "S1")
        messages = tuple(map(protocols.Message, senders, (i - q.center, answer), (0.0, 0.0)))
        replay_decision(messages, params, scheme, q)
        asked.add(i)
        check()
    for block in data.draw(st.lists(st.lists(bins, min_size=1, max_size=40), max_size=3)):
        x1, x2 = np.array([point(i, 0.5) for i in block]).T
        batch(params, q, x1, x2)
        asked.update(block)
        check()
    fill_every_row(q)
    assert len(filled_bins(q)) == len(q.edges) - 1
    assert_rows_are_eager(q, filled_bins(q))


def _edited(t, symbols: dict[int, int], keep: int | None = None):
    """t's messages after a JSON round trip with some symbols replaced and
    only the first `keep` messages kept."""
    doc = json.loads(transcript_to_json(t))
    for i, symbol in symbols.items():
        doc["messages"][i]["symbol"] = symbol
    doc["messages"] = doc["messages"][:keep]
    return transcript_from_json(json.dumps(doc)).messages


def test_replay_rejects_symbols_outside_the_single_round_alphabets(params_main):
    """quantizer_12(2, 3) has 11 bins centred on 5: first symbols -5..5,
    answers -1, 0, 1, and exactly two messages."""
    q = quantizer_12(params_main, 2, 3)
    t = run_single_round_12(Point2(0.1, 0.05), params_main, q)
    for first in (-5, 0, 5):
        assert isinstance(replay_decision(_edited(t, {0: first}), params_main, "12", q), IntegerPair)
    for symbols, keep in (
        ({0: -6}, None), ({0: -7}, None), ({0: 6}, None), ({0: 7}, None),
        ({1: 5}, None), ({1: -3}, None), ({1: 2}, None), ({}, 1), ({}, 0),
    ):
        with pytest.raises(ValueError, match="do not fit the alphabets"):
            replay_decision(_edited(t, symbols, keep), params_main, "12", q)
    t = run_single_round_21(Point2(0.1, 0.05), params_main, quantizer_21(params_main, 4))
    with pytest.raises(ValueError, match="do not fit the alphabets"):
        replay_decision(_edited(t, {0: 5}), params_main, "21", quantizer_21(params_main, 4))


def test_replay_rejects_symbols_outside_the_infinite_alphabets(params_main):
    x = next(
        x for x in _uniform_cell(params_main, 500, seed=3)
        if len(run_infinite_rounds(x, params_main).messages) > 4
    )
    t = run_infinite_rounds(x, params_main)
    assert replay_decision(_edited(t, {}), params_main, "infinite") == t.decision
    assert replay_decision(_edited(t, {0: 0}, 1), params_main, "infinite") == IntegerPair(0, 0)
    for symbols, keep in (
        ({0: 2}, None), ({0: -2}, None), ({1: 2}, None), ({1: -5}, None),
        ({}, 1), ({}, 0), ({2: 2, 3: 2}, None), ({2: -1}, None), ({3: 3}, None),
    ):
        with pytest.raises(ValueError, match="do not fit the alphabets"):
            replay_decision(_edited(t, symbols, keep), params_main, "infinite")


def test_mirror_symmetry(params_main):
    """Negating the point negates ternary symbols and the decision; the
    bisection bit streams are unchanged (the mirrored rectangle is walked
    with the same normalised coordinates)."""
    q12 = quantizer_12(params_main, 2, 3)
    q21 = quantizer_21(params_main, 3)
    for x in _uniform_cell(params_main, 400, seed=13):
        neg = Point2(-x[0], -x[1])
        try:
            a = run_single_round_12(x, params_main, q12)
            b = run_single_round_12(neg, params_main, q12)
        except OutOfCell:
            continue  # half-open cell: -x can fall just outside
        assert [m.symbol for m in b.messages] == [-m.symbol for m in a.messages]
        assert b.decision == -a.decision
        a = run_single_round_21(x, params_main, q21)
        b = run_single_round_21(neg, params_main, q21)
        assert [m.symbol for m in b.messages] == [-m.symbol for m in a.messages]
        assert b.decision == -a.decision
        a = run_infinite_rounds(x, params_main)
        b = run_infinite_rounds(neg, params_main)
        assert [m.symbol for m in b.messages[:2]] == [-m.symbol for m in a.messages[:2]]
        assert [m.symbol for m in b.messages[2:]] == [m.symbol for m in a.messages[2:]]
        assert b.decision == -a.decision


def test_error_rectangle_diagonal(params_main):
    """The Voronoi boundary joins opposite corners of each error rectangle."""
    for u2 in (-1, 1):
        for u1 in (-1, 1):
            seg = error_rectangle(params_main, u2, u1)
            n = lattice_point(seg.neighbor, params_main)
            off = 0.5 * (n[0] ** 2 + n[1] ** 2)
            (x_lo, x_hi), (y_lo, y_hi) = seg.x1_span, seg.x2_span
            if seg.slope > 0.0:
                corners = [(x_lo, y_lo), (x_hi, y_hi)]
            else:
                corners = [(x_lo, y_hi), (x_hi, y_lo)]
            for cx, cy in corners:
                assert abs(cx * n[0] + cy * n[1] - off) < 1e-12


@pytest.mark.parametrize("params", random_valid_params(20, seed=83))
def test_error_rectangles_are_the_threshold_boxes(params):
    """Bit for bit: the top boxes from the t/tau thresholds, the bottom ones
    negated, each the span of one of cell_geometry's boundary segments."""
    g = cell_geometry(params)
    top = {
        1: (g.t_1, 0.5, g.tau_1, g.H / 2.0, IntegerPair(0, 1), False),
        -1: (-0.5, g.t_m2, g.tau_1, g.H / 2.0, IntegerPair(-1, 1), True),
    }

    def box(u2, u1):
        seg = error_rectangle(params, u2, u1)
        assert seg in g.boundary_segments
        return seg.x1_span, seg.x2_span, seg.neighbor, seg.slope > 0.0

    for u1, (x_lo, x_hi, y_lo, y_hi, nb, pos) in top.items():
        assert box(1, u1) == ((x_lo, x_hi), (y_lo, y_hi), nb, pos)
        assert box(-1, u1) == ((-x_hi, -x_lo), (-y_hi, -y_lo), -nb, pos)


@pytest.mark.parametrize("u2, u1", [(0, 1), (1, 0), (2, 1), (-1, -2)])
def test_error_rectangle_needs_nonzero_unit_symbols(params_main, u2, u1):
    message = "error rectangles exist only for u2, u1 in {-1, +1}"
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        error_rectangle(params_main, u2, u1)


def test_bisection_recursion_keeps_diagonal(params_main):
    """Surviving sub-rectangles keep the bisector as their exact diagonal."""
    rng = np.random.default_rng(17)
    for u1 in (-1, 1):
        seg = error_rectangle(params_main, 1, u1)
        n = lattice_point(seg.neighbor, params_main)
        off = 0.5 * (n[0] ** 2 + n[1] ** 2)
        positive_slope = seg.slope > 0.0
        (x_lo, x_hi), (y_lo, y_hi) = seg.x1_span, seg.x2_span
        for _ in range(20):
            # pick either quadrant the diagonal crosses (continue rounds)
            b = int(rng.integers(0, 2))
            c = 1 - b
            xm, ym = 0.5 * (x_lo + x_hi), 0.5 * (y_lo + y_hi)
            right_half = (b == 1) != positive_slope
            x_lo, x_hi = (xm, x_hi) if right_half else (x_lo, xm)
            y_lo, y_hi = (ym, y_hi) if c == 1 else (y_lo, ym)
            if positive_slope:
                corners = [(x_lo, y_lo), (x_hi, y_hi)]
            else:
                corners = [(x_lo, y_hi), (x_hi, y_lo)]
            for cx, cy in corners:
                assert abs(cx * n[0] + cy * n[1] - off) < 1e-9


def test_max_rounds_unhalted(params_main):
    g = cell_geometry(params_main)
    # a point deep in the right error rectangle, clearly above the boundary
    x = Point2(0.3, g.H / 2 - 1e-3)
    t = run_infinite_rounds(x, params_main, max_rounds=1)
    assert not t.halted
    assert len(t.messages) == 2
    assert t.decision == exact_nearest_point(x, params_main)


def test_infinite_transcripts_build_no_cell_geometry(params_main):
    """A scalar infinite transcript reads its round-1 code from round1_code,
    not from a cold cell_geometry: after the cache is cleared, transcripts
    that halt in band 0, on interval 0, in a bisection round and unhalted,
    their replays and JSON round trips leave cell_geometry with no miss."""
    pts = [Point2(0.0, 0.0), Point2(0.0, 0.45), Point2(0.45, 0.45), Point2(-0.45, -0.45)]
    pts += _uniform_cell(params_main, 200, seed=13)
    cell_geometry.cache_clear()
    for x in pts:
        for max_rounds in (1, protocols.DEFAULT_MAX_ROUNDS):
            t = run_infinite_rounds(x, params_main, max_rounds)
            assert transcript_from_json(transcript_to_json(t)) == t
            if t.halted:
                assert replay_decision(t.messages, params_main, "infinite") == t.decision
    assert cell_geometry.cache_info().misses == 0


def test_out_of_cell(params_main):
    q = quantizer_12(params_main, 1, 1)
    with pytest.raises(OutOfCell):
        run_single_round_12(Point2(0.51, 0.0), params_main, q)
    with pytest.raises(OutOfCell):
        run_single_round_21(Point2(0.0, params_main.rsin), params_main, quantizer_21(params_main, 1))
    with pytest.raises(OutOfCell):
        run_infinite_rounds(Point2(-0.5, 0.0), params_main)


def test_transcript_json_roundtrip(params_main):
    """Transcripts of all three schemes: the text is json.dumps's, with the
    keys in their order, and decodes to the transcript, which hashes and
    pickles equal to it and, like it, cannot be set."""
    t = run_infinite_rounds(Point2(0.45, 0.45), params_main)
    text = transcript_to_json(t)
    assert transcript_from_json(text) == t
    doc_keys = list(__import__("json").loads(text))
    assert doc_keys == ["messages", "rounds", "total_bits", "decision", "halted"]
    q12, q21 = quantizer_12(params_main, 2, 3), quantizer_21(params_main, 4)
    for x in _uniform_cell(params_main, 300, seed=29):
        for t in (
            run_single_round_12(x, params_main, q12),
            run_single_round_21(x, params_main, q21),
            run_infinite_rounds(x, params_main),
        ):
            text = transcript_to_json(t)
            assert text == _dumps_json(t)
            back = transcript_from_json(text)
            assert back == t and hash(back) == hash(t)
            assert pickle.loads(pickle.dumps(back)) == t
            with pytest.raises(AttributeError):
                back.rounds = 2
            with pytest.raises(AttributeError):
                back.messages[0].symbol = 7


def _dumps_json(t) -> str:
    """The text of json.dumps on the transcript's dict, as transcript_to_json
    once wrote it."""
    return json.dumps(
        {
            "messages": [
                {"sender": m.sender, "symbol": m.symbol, "ideal_bits": m.ideal_bits}
                for m in t.messages
            ],
            "rounds": t.rounds,
            "total_bits": t.total_bits,
            "decision": [t.decision.u1, t.decision.u2],
            "halted": t.halted,
        }
    )


_EDGE_FLOATS = (0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.5e-310, 1e300, -1e300, 1.0)
_json_floats = st.one_of(st.floats(), st.sampled_from(_EDGE_FLOATS))
_json_ints = st.one_of(
    st.integers(-5, 5), st.integers(), st.integers(2**63 - 2, 2**80), st.integers(-(2**80), -(2**63))
)


@st.composite
def _any_transcripts(draw):
    message = st.builds(protocols.Message, st.sampled_from(("S1", "S2")), _json_ints, _json_floats)
    return protocols.Transcript(
        messages=tuple(draw(st.lists(message, max_size=6))),
        rounds=draw(_json_ints),
        total_bits=draw(_json_floats),
        decision=IntegerPair(draw(_json_ints), draw(_json_ints)),
        halted=draw(st.booleans()),
    )


def _has_nan(t) -> bool:
    return any(math.isnan(b) for b in (t.total_bits, *(m.ideal_bits for m in t.messages)))


@settings(max_examples=1000, derandomize=True, database=None, deadline=None)
@given(_any_transcripts())
def test_transcript_to_json_writes_the_bytes_of_json_dumps(t):
    """Floats as float.__repr__ with NaN and +/-Infinity (-0.0, subnormals
    and 1e300 included), ints as int.__repr__ past 2^63 and below zero: the
    text is json.dumps's, and decoding it gives t back."""
    text = transcript_to_json(t)
    assert text == _dumps_json(t)
    back = transcript_from_json(text)
    assert transcript_to_json(back) == text
    if not _has_nan(t):
        assert back == t


def _replaced(t, field: str, value):
    """t with one field, or that field of its first message, set to value."""
    if field in ("sender", "symbol", "ideal_bits"):
        first = t.messages[0]._replace(**{field: value})
        return t._replace(messages=(first, *t.messages[1:]))
    return t._replace(**{field: value})


@pytest.mark.parametrize(
    "field, value",
    [
        ("sender", "Bob"),
        ("sender", None),
        ("symbol", True),
        ("symbol", np.int64(1)),
        ("symbol", 1.0),
        ("ideal_bits", True),
        ("ideal_bits", 1),
        ("ideal_bits", np.float64(1.0)),
        ("rounds", False),
        ("rounds", np.int64(1)),
        ("total_bits", True),
        ("total_bits", np.float64(2.0)),
        ("decision", IntegerPair(True, 0)),
        ("decision", IntegerPair(0, np.int64(1))),
        ("halted", 1),
        ("halted", np.bool_(True)),
    ],
)
def test_transcript_to_json_rejects_fields_of_other_types(field, value, params_main):
    t = run_single_round_12(Point2(0.4, 0.3), params_main, quantizer_12(params_main, 2, 3))
    transcript_to_json(t)
    with pytest.raises(ValueError):
        transcript_to_json(_replaced(t, field, value))


def _doc(params_main) -> dict:
    """A transcript's JSON object with four messages, which decodes."""
    t = run_infinite_rounds(Point2(0.45, 0.45), params_main)
    doc = json.loads(transcript_to_json(t))
    assert transcript_from_json(json.dumps(doc)) == t
    return doc


def _rejected(doc) -> None:
    with pytest.raises(ValueError):
        transcript_from_json(json.dumps(doc))


def test_transcript_from_json_rejects_a_document_it_once_coerced():
    """sender 'Bob', symbol 1.9, string bits and rounds, bool total_bits,
    float decision and string halted: each alone is rejected, so together too."""
    text = (
        '{"messages": [{"sender": "Bob", "symbol": 1.9, "ideal_bits": "2.5"}], "rounds": "3",'
        ' "total_bits": true, "decision": [0.7, -1.2], "halted": "false"}'
    )
    with pytest.raises(ValueError):
        transcript_from_json(text)


def test_transcript_from_json_rejects_a_document_of_another_shape(params_main):
    """Not an object, a key missing or unknown, in the transcript or in a message."""
    for text in ("[]", "1", "null", '"transcript"', "true"):
        with pytest.raises(ValueError):
            transcript_from_json(text)
    doc = _doc(params_main)
    for key in doc:
        _rejected({k: v for k, v in doc.items() if k != key})
    _rejected({**doc, "extra": 0})
    for key in doc["messages"][0]:
        message = {k: v for k, v in doc["messages"][0].items() if k != key}
        _rejected({**doc, "messages": [message, *doc["messages"][1:]]})
    _rejected({**doc, "messages": [{**doc["messages"][0], "note": ""}, *doc["messages"][1:]]})
    for messages in ({}, "S1", None, [1], [[]]):
        _rejected({**doc, "messages": messages})


def test_transcript_from_json_rejects_an_unknown_sender(params_main):
    for sender in ("Bob", "s1", "", 1, None, ["S1"]):
        doc = _doc(params_main)
        doc["messages"][0]["sender"] = sender
        _rejected(doc)


def test_transcript_from_json_rejects_integers_that_are_not_json_integers(params_main):
    """A symbol, `rounds` or decision entry that is a float (1.0 too), a
    bool, a string or null; a decision that is not a list of two."""
    doc = _doc(params_main)
    for value in (1.9, 1.0, -0.0, True, False, "1", None, [1]):
        bad_symbol = _doc(params_main)
        bad_symbol["messages"][1]["symbol"] = value
        _rejected(bad_symbol)
        _rejected({**doc, "rounds": value})
        _rejected({**doc, "decision": [value, 1]})
        _rejected({**doc, "decision": [0, value]})
    for decision in ([0], [0, 1, 1], "01", {"u1": 0, "u2": 1}, None):
        _rejected({**doc, "decision": decision})


def test_transcript_from_json_rejects_bits_that_are_not_json_numbers(params_main):
    """ideal_bits or total_bits: a string, a bool, null, a list, or an
    integer past a float's range; an integer in range reads as its float."""
    doc = _doc(params_main)
    for value in ("2.5", True, False, None, [1.0], 10**400):
        bad_bits = _doc(params_main)
        bad_bits["messages"][0]["ideal_bits"] = value
        _rejected(bad_bits)
        _rejected({**doc, "total_bits": value})
    doc["messages"][2]["ideal_bits"] = 1
    t = transcript_from_json(json.dumps({**doc, "total_bits": 7}))
    assert type(t.messages[2].ideal_bits) is float and t.messages[2].ideal_bits == 1.0
    assert type(t.total_bits) is float and t.total_bits == 7.0


def test_transcript_from_json_rejects_halted_other_than_true_or_false(params_main):
    doc = _doc(params_main)
    for halted in ("false", "true", 0, 1, 1.0, None, []):
        _rejected({**doc, "halted": halted})
    assert transcript_from_json(json.dumps({**doc, "halted": False})).halted is False


@pytest.mark.parametrize("scheme", ["12", "21"])
def test_replay_rejects_single_round_symbols_that_are_not_ints(scheme, params_main):
    """A float in range (1.0) or a bool passed the alphabet test before and
    then raised TypeError or read as an int; now require_int's rule holds:
    ValueError for both, while an int subclass replays like its int."""
    q = quantizer_12(params_main, 2, 3) if scheme == "12" else quantizer_21(params_main, 4)
    s1, s2 = ("S1", "S2") if scheme == "12" else ("S2", "S1")
    good = replay_decision(
        (protocols.Message(s1, 1, 0.0), protocols.Message(s2, 1, 0.0)), params_main, scheme, q
    )
    for first, answer in ((1.0, 1), (True, 1), (np.int64(1), 1), (1, True), (1, 1.0)):
        messages = (protocols.Message(s1, first, 0.0), protocols.Message(s2, answer, 0.0))
        with pytest.raises(ValueError):
            replay_decision(messages, params_main, scheme, q)

    class Symbol(int):
        pass

    messages = (protocols.Message(s1, Symbol(1), 0.0), protocols.Message(s2, Symbol(1), 0.0))
    assert replay_decision(messages, params_main, scheme, q) == good


def test_replay_rejects_infinite_symbols_that_are_not_ints(params_main):
    """(True, True, 1, 1) read as (1, 1, 1, 1) gave IntegerPair(0, True)."""
    senders = ("S2", "S1", "S1", "S2")
    as_ints = tuple(map(protocols.Message, senders, (1, 1, 1, 1), (0.0,) * 4))
    assert replay_decision(as_ints, params_main, "infinite") == IntegerPair(0, 1)
    for symbols in ((True, True, 1, 1), (1, 1, True, True), (1.0, 1, 1, 1), (1, 1, 1.0, 1.0)):
        messages = tuple(map(protocols.Message, senders, symbols, (0.0,) * 4))
        with pytest.raises(ValueError):
            replay_decision(messages, params_main, "infinite")
    with pytest.raises(ValueError):
        replay_decision((protocols.Message("S2", np.int64(0), 0.0),), params_main, "infinite")


def _sent_by(messages, senders):
    """The messages with their senders replaced by `senders`, in order."""
    return tuple(m._replace(sender=s) for m, s in zip(messages, senders))


@pytest.mark.parametrize("scheme", ["12", "21"])
def test_replay_rejects_single_round_senders_out_of_order(scheme, params_main):
    """A single-round transcript replays only in its scheme's speaking order,
    S1 then S2 for 12 and S2 then S1 for 21.  With the senders swapped (the
    12 transcript at (0.4, 0.3) replayed to (0, 0) that way) or both
    messages from one party, replay raises ValueError."""
    if scheme == "12":
        q = quantizer_12(params_main, 2, 3)
        t = run_single_round_12(Point2(0.4, 0.3), params_main, q)
    else:
        q = quantizer_21(params_main, 4)
        t = run_single_round_21(Point2(0.4, 0.3), params_main, q)
    order = ("S1", "S2") if scheme == "12" else ("S2", "S1")
    assert tuple(m.sender for m in t.messages) == order
    assert replay_decision(_sent_by(t.messages, order), params_main, scheme, q) == t.decision
    for senders in (order[::-1], ("S1", "S1"), ("S2", "S2"), ("S", "S")):
        with pytest.raises(ValueError, match="speaking order"):
            replay_decision(_sent_by(t.messages, senders), params_main, scheme, q)


def test_replay_rejects_infinite_senders_out_of_order(params_main):
    """The infinite scheme speaks S2, then S1, then S1 and S2 in each
    bisection round.  Replay raises ValueError when the first two senders
    are swapped or are one party, when a bisection pair is reversed or from
    one party, and when a lone band message comes from S1."""
    x = next(
        x for x in _uniform_cell(params_main, 500, seed=3)
        if len(run_infinite_rounds(x, params_main).messages) > 4
    )
    t = run_infinite_rounds(x, params_main)
    order = [m.sender for m in t.messages]
    assert order == ["S2", "S1"] + ["S1", "S2"] * (len(order) // 2 - 1)
    assert replay_decision(t.messages, params_main, "infinite") == t.decision
    wrong = [pair + order[2:] for pair in (["S1", "S2"], ["S1", "S1"], ["S2", "S2"])]
    for k in range(2, len(order), 2):
        wrong += [order[:k] + pair + order[k + 2 :] for pair in (["S2", "S1"], ["S1", "S1"])]
    for senders in wrong:
        with pytest.raises(ValueError, match="speaking order"):
            replay_decision(_sent_by(t.messages, senders), params_main, "infinite")
    band = run_infinite_rounds(Point2(0.0, 0.0), params_main).messages
    assert len(band) == 1
    assert replay_decision(band, params_main, "infinite") == IntegerPair(0, 0)
    with pytest.raises(ValueError, match="speaking order"):
        replay_decision(_sent_by(band, ["S1"]), params_main, "infinite")


# a halted transcript of `length` messages, then the messages appended to it
_TRAILING = {
    "band 0, then two more": ("infinite", 1, [("S1", 1), ("S2", 1)]),
    "interval 0, then a bit pair": ("infinite", 2, [("S1", 1), ("S2", 1)]),
    "14 messages, then S1": ("infinite", 14, [("S1", 1)]),
    "14 messages, then a bit pair": ("infinite", 14, [("S1", 0), ("S2", 0)]),
    "12, then a third": ("12", 2, [("S1", 0)]),
    "21, then a third": ("21", 2, [("S2", 0)]),
}


@pytest.mark.parametrize("case", list(_TRAILING))
def test_replay_rejects_messages_after_the_one_that_decides(case, params_main):
    """A transcript ends with the message that decides: the band-0 symbol,
    the interval-0 symbol, the first equal bit pair or a single round's
    answer.  Replay raises ValueError on any message after it; the infinite
    scheme once replayed a band-0 message followed by two more to (0, 0)."""
    scheme, length, extra = _TRAILING[case]
    q = {"12": quantizer_12(params_main, 2, 3), "21": quantizer_21(params_main, 4)}.get(scheme)
    runs = {"12": run_single_round_12, "21": run_single_round_21}
    transcripts = (
        run_infinite_rounds(x, params_main) if q is None else runs[scheme](x, params_main, q)
        for x in _uniform_cell(params_main, 20000, seed=5)
    )
    t = next(t for t in transcripts if len(t.messages) == length)
    assert t.halted and replay_decision(t.messages, params_main, scheme, q) == t.decision
    messages = t.messages + tuple(protocols.Message(s, symbol, 1.0) for s, symbol in extra)
    with pytest.raises(ValueError):
        replay_decision(messages, params_main, scheme, q)


def test_quantizer_bin_structure(params_main):
    g = cell_geometry(params_main)
    q = quantizer_12(params_main, 2, 3)
    assert q.edges.dtype == np.float64 and not q.edges.flags.writeable
    edges = np.array(q.edges)
    assert len(edges) == 2 * (2 + 3) + 2
    assert edges[0] == -0.5 and edges[-1] == 0.5
    assert np.all(np.diff(edges) > 0)
    # equal widths within each interval
    widths = np.diff(edges)
    assert np.allclose(widths[:3], g.L2 / 3, atol=1e-15)
    assert np.allclose(widths[3:5], g.L1 / 2, atol=1e-15)
    q21 = quantizer_21(params_main, 4)
    e21 = np.array(q21.edges)
    assert len(e21) == 2 * 4 + 2
    assert np.isclose(e21[0], -g.H / 2) and np.isclose(e21[-1], g.H / 2)
    assert np.all(np.diff(e21) > 0)
