import json
import math

import numpy as np
import pytest

from babai_refine import (
    ErrorRectangle,
    IntegerPair,
    LatticeParams,
    OutOfCell,
    Point2,
    analytics,
    cell_geometry,
    cross_section,
    error_rectangle,
    exact_nearest_point,
    lattice_point,
    make_generator,
    quantizer_12,
    quantizer_21,
    replay_decision,
    round1_distributions,
    run_infinite_rounds,
    run_single_round_12,
    run_single_round_21,
    transcript_from_json,
    transcript_to_json,
)

from conftest import random_valid_params

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
    gen = make_generator(params_main)
    assert t.decision == exact_nearest_point(x, gen)


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
    assert t.decision == exact_nearest_point(x, make_generator(params_main))


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
    assert t.decision == exact_nearest_point(x, make_generator(params_main))


def test_run_inf_zero_error(params_main):
    gen = make_generator(params_main)
    for x in _uniform_cell(params_main, 20_000, seed=5):
        t = run_infinite_rounds(x, params_main)
        assert t.halted
        assert t.decision == exact_nearest_point(x, gen)


@pytest.mark.parametrize("params", random_valid_params(6, seed=83))
def test_run_inf_zero_error_other_lattices(params):
    gen = make_generator(params)
    for x in _uniform_cell(params, 2_000, seed=7):
        t = run_infinite_rounds(x, params)
        assert t.halted
        assert t.decision == exact_nearest_point(x, gen)


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
    """The quantizer's code is read-only: the first message's bits are
    -math.log2 of each bin's width over the axis span, the answer's bits
    -math.log2 of each region's probability, inf exactly where it is 0."""
    monkeypatch.setattr(analytics, "_RATE_CHUNK", chunk)
    params = request.getfixturevalue(lattice)
    for q, span in ((quantizer_12(params, 40, 70), 1.0), (quantizer_21(params, 99), params.rsin)):
        for bits in (q.bin_bits, q.answer_bits):
            assert bits.dtype == np.float64 and not bits.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                bits[0] = 0.0
        edges = q.edges.tolist()
        want = [-math.log2((b - a) / span) for a, b in zip(edges, edges[1:])]
        assert [v.hex() for v in q.bin_bits.tolist()] == [v.hex() for v in want]
        probs = q.table.probs.ravel().tolist()
        want = [math.inf if p == 0.0 else -math.log2(p) for p in probs]
        assert q.answer_bits.shape == q.table.probs.shape
        assert [v.hex() for v in q.answer_bits.ravel().tolist()] == [v.hex() for v in want]
        assert 0.0 in probs  # the centre bin has two empty regions


@pytest.mark.parametrize("chunk", [1, 7, 1 << 20])
def test_quantizer_table_does_not_depend_on_chunking(chunk, params_main, params_hex, monkeypatch):
    """The table, built chunk by chunk, equals one cross_section of all the
    bin midpoints (labels as int8) bit for bit, whatever the chunk."""
    monkeypatch.setattr(analytics, "_RATE_CHUNK", chunk)
    for params in (params_main, params_hex):
        for q in (quantizer_12(params, 40, 70), quantizer_21(params, 99)):
            edges = np.asarray(q.edges)
            whole = cross_section(
                cell_geometry(params), 0.5 * (edges[:-1] + edges[1:]), q.vertical
            )
            whole = whole._replace(labels=whole.labels.astype(np.int8))
            for got, want in zip(q.table, whole):
                assert (got.dtype, got.shape) == (want.dtype, want.shape)
                assert got.tobytes() == want.tobytes()


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
    gen = make_generator(params_main)
    for u2 in (-1, 1):
        for u1 in (-1, 1):
            rect = error_rectangle(params_main, u2, u1)
            n = lattice_point(rect.neighbor, gen)
            off = 0.5 * (n[0] ** 2 + n[1] ** 2)
            if rect.positive_slope:
                corners = [(rect.x_lo, rect.y_lo), (rect.x_hi, rect.y_hi)]
            else:
                corners = [(rect.x_lo, rect.y_hi), (rect.x_hi, rect.y_lo)]
            for cx, cy in corners:
                assert abs(cx * n[0] + cy * n[1] - off) < 1e-12


@pytest.mark.parametrize("params", random_valid_params(20, seed=83))
def test_error_rectangles_are_the_threshold_boxes(params):
    """Bit for bit: the top boxes from the t/tau thresholds, the bottom ones negated."""
    g = cell_geometry(params)
    top = {
        1: (g.t_1, 0.5, g.tau_1, g.H / 2.0, IntegerPair(0, 1), False),
        -1: (-0.5, g.t_m2, g.tau_1, g.H / 2.0, IntegerPair(-1, 1), True),
    }
    for u1, (x_lo, x_hi, y_lo, y_hi, nb, pos) in top.items():
        assert error_rectangle(params, 1, u1) == ErrorRectangle(x_lo, x_hi, y_lo, y_hi, nb, pos)
        mirrored = ErrorRectangle(-x_hi, -x_lo, -y_hi, -y_lo, -nb, pos)
        assert error_rectangle(params, -1, u1) == mirrored


def test_bisection_recursion_keeps_diagonal(params_main):
    """Surviving sub-rectangles keep the bisector as their exact diagonal."""
    gen = make_generator(params_main)
    rng = np.random.default_rng(17)
    for u1 in (-1, 1):
        rect = error_rectangle(params_main, 1, u1)
        n = lattice_point(rect.neighbor, gen)
        off = 0.5 * (n[0] ** 2 + n[1] ** 2)
        x_lo, x_hi, y_lo, y_hi = rect.x_lo, rect.x_hi, rect.y_lo, rect.y_hi
        for _ in range(20):
            # pick either quadrant the diagonal crosses (continue rounds)
            b = int(rng.integers(0, 2))
            c = 1 - b
            xm, ym = 0.5 * (x_lo + x_hi), 0.5 * (y_lo + y_hi)
            right_half = (b == 1) != rect.positive_slope
            x_lo, x_hi = (xm, x_hi) if right_half else (x_lo, xm)
            y_lo, y_hi = (ym, y_hi) if c == 1 else (y_lo, ym)
            if rect.positive_slope:
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
    assert t.decision == exact_nearest_point(x, make_generator(params_main))


def test_out_of_cell(params_main):
    q = quantizer_12(params_main, 1, 1)
    with pytest.raises(OutOfCell):
        run_single_round_12(Point2(0.51, 0.0), params_main, q)
    with pytest.raises(OutOfCell):
        run_single_round_21(Point2(0.0, params_main.rsin), params_main, quantizer_21(params_main, 1))
    with pytest.raises(OutOfCell):
        run_infinite_rounds(Point2(-0.5, 0.0), params_main)


def test_transcript_json_roundtrip(params_main):
    t = run_infinite_rounds(Point2(0.45, 0.45), params_main)
    text = transcript_to_json(t)
    assert transcript_from_json(text) == t
    doc_keys = list(__import__("json").loads(text))
    assert doc_keys == ["messages", "rounds", "total_bits", "decision", "halted"]


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
