"""One spelling of a face's half-norm in the infinite scheme's side test.

A trial that exhausts its round limit is decided by an exact side test
against the bisector of its error rectangle.  That test once spelled the
half-norm 0.5*(n1*n1 + s*s) in the frame mirrored for u2 = -1
(`_old_beyond_bisector` below is a frozen copy); it now reads
lattice._face, whose 0.5*(n1**2 + n2**2) is cell_geometry's segment
offset, and tests the point unmirrored.  The two spellings differ by an
ulp on a few faces (pow and a product may round apart), so the change may
move a decision only at a point within an ulp or so of such a face.  These
tests show that it moves none on the golden and benchmark lattices, and
that on random lattices every decision it moves is at a point built next
to a face whose spellings differ, where the new decision is the side of
cell_geometry's own segment.
"""

import math

import numpy as np
import pytest

from babai_refine import LatticeParams, Point2, error_rectangle, protocols, run_batch_infinite
from babai_refine.lattice import _face, round1_code

# the golden lattices (conftest's params_main, params_hex, params_square) and
# the benchmark's hexagonal, rcos0.3 and near-rectangular lattices
NAMED = {
    "params_main": LatticeParams(rho=1.0, theta=math.acos(0.3)),
    "params_hex": LatticeParams(rho=1.0, theta=math.pi / 3 + 1e-6),
    "params_square": LatticeParams(rho=1.0, theta=math.pi / 2 - 1e-6),
    "hexagonal": LatticeParams(rho=1.0, theta=math.pi / 3 + 1e-6),
    "rcos0.3": LatticeParams(rho=1.0, theta=math.acos(0.3)),
    "near-rectangular": LatticeParams(rho=1.0, theta=math.pi / 2 - 1e-3),
}
RECTANGLES = [(1, 1), (-1, 1), (1, -1), (-1, -1)]  # (u2, u1), u1 mirrored for u2 = -1
ULPS = 3


def _old_beyond_bisector(params: LatticeParams, u1m: int, x1, x2):
    """The side test as protocols._beyond_bisector spelled it: (x1, x2) in
    the mirrored frame, strictly on the neighbour's side of rectangle u1m's
    bisector; elementwise on arrays."""
    c, s = params.rcos, params.rsin
    n1 = c if u1m == 1 else c - 1.0
    return x1 * n1 + x2 * s > 0.5 * (n1 * n1 + s * s)


def _old_half_norm(params: LatticeParams, u1m: int) -> float:
    n1 = params.rcos if u1m == 1 else params.rcos - 1.0
    return 0.5 * (n1 * n1 + params.rsin * params.rsin)


def _near_face(params, u2, u1, x1) -> tuple[np.ndarray, np.ndarray]:
    """Points at abscissae x1 on rectangle (u2, u1)'s face and up to ULPS
    ulps above and below it in x2."""
    x1 = np.asarray(x1, dtype=np.float64)
    up = down = error_rectangle(params, u2, u1).x2_at(x1)
    xs, ys = [x1], [up]
    for _ in range(ULPS):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        xs += [x1, x1]
        ys += [up, down]
    return np.concatenate(xs), np.concatenate(ys)


def _old_decisions(params, x1, x2):
    """The old rule's far flag per point, for points in an error rectangle."""
    _, t_1, tau_1 = round1_code(params)[:3]
    u2 = np.where(x2 > tau_1, 1, -1)
    mx1, mx2 = x1 * u2, x2 * u2
    right = _old_beyond_bisector(params, 1, mx1, mx2)
    return np.where(mx1 > t_1, right, _old_beyond_bisector(params, -1, mx1, mx2))


@pytest.mark.parametrize("name", NAMED)
def test_side_test_keeps_the_old_decisions_on_the_named_lattices(name):
    """10^5 points per lattice, a fifth of them within ULPS ulps of a face:
    the batch kernel's and the scalar walk's unhalted decisions at round
    limit 1 are the old rule's, as both spellings agree on every face."""
    params = NAMED[name]
    for u1 in (1, -1):
        half_norm = _face(params, error_rectangle(params, 1, u1).neighbor)[1]
        assert half_norm == _old_half_norm(params, u1)
    rng = np.random.default_rng(31)
    x1s, x2s = [], []
    for u2, u1 in RECTANGLES:
        seg = error_rectangle(params, u2, u1)
        (a, b), (c, d) = seg.x1_span, seg.x2_span
        x1s += [rng.uniform(a, b, 20_000)]
        x2s += [rng.uniform(c, d, 20_000)]
        x1, x2 = _near_face(params, u2, u1, rng.uniform(a, b, 5_000 // (2 * ULPS + 1) + 1))
        x1s += [x1[:5_000]]
        x2s += [x2[:5_000]]
    x1, x2 = np.concatenate(x1s), np.concatenate(x2s)
    assert len(x1) == 100_000
    h = params.rsin / 2.0
    inside = (-0.5 < x1) & (x1 <= 0.5) & (-h < x2) & (x2 <= h)
    out = run_batch_infinite(params, x1, x2, 1)
    entered = out["entered_error_rect"] & inside
    assert np.count_nonzero(entered) > 99_000
    x1, x2 = x1[entered], x2[entered]
    dec = np.stack([out["dec1"][entered], out["dec2"][entered]], axis=1)
    far = np.any(dec != 0.0, axis=1)
    assert np.array_equal(far, _old_decisions(params, x1, x2))
    for i in range(0, len(x1), 97):  # the scalar walk on about a thousand of them
        t = protocols.run_infinite_rounds(Point2(float(x1[i]), float(x2[i])), params, 1)
        assert not t.halted and tuple(t.decision) == tuple(dec[i])


def _random_lattices(count: int, seed: int) -> list[LatticeParams]:
    """from_rcos lattices with rho uniform in [1, 2.5) and c in (0, 1/2)."""
    rng = np.random.default_rng(seed)
    return [
        LatticeParams.from_rcos(1.0 + 1.5 * float(r), 0.5 * float(1.0 - c))
        for r, c in rng.random((count, 2))
        if c > 0.0
    ]


def spelling_counts(count: int = 20_000, seed: int = 61) -> dict[str, int]:
    """Over `count` random lattices: the faces (two per lattice, the bottom
    ones share their mirror's half-norm) whose two spellings differ, and at
    points within ULPS ulps of each such face and of as many faces where
    they agree, the decisions at round limits 1-3 that move.  Asserts on
    the way that each moved decision is the side of cell_geometry's segment
    and that no decision moves next to a face where the spellings agree."""
    counts = dict(faces=0, differ=0, walks=0, moved=0, moved_where_they_agree=0)
    agreeing = 0
    for params in _random_lattices(count, seed):
        for u1 in (1, -1):
            counts["faces"] += 1
            new = _face(params, error_rectangle(params, 1, u1).neighbor)[1]
            differ = new != _old_half_norm(params, u1)
            counts["differ"] += differ
            if not differ:
                if agreeing >= counts["differ"]:
                    continue
                agreeing += 1
            for u2 in (1, -1):
                _walk_near_face(params, u2, u1, differ, counts)
    return counts


def _walk_near_face(params, u2, u1, differ, counts) -> None:
    seg = error_rectangle(params, u2, u1)
    a, b = seg.x1_span
    x1, x2 = _near_face(params, u2, u1, [a + f * (b - a) for f in (0.25, 0.5, 0.75)])
    h = params.rsin / 2.0
    for p in zip(x1.tolist(), x2.tolist()):
        if not (-0.5 < p[0] <= 0.5 and -h < p[1] <= h):
            continue
        for max_rounds in (1, 2, 3):
            t = protocols.run_infinite_rounds(Point2(*p), params, max_rounds)
            symbols = [m.symbol for m in t.messages[:2]]
            if t.halted or symbols != [u2, u2 * u1]:
                continue
            counts["walks"] += 1
            mx1, mx2 = p[0] * u2, p[1] * u2
            old = seg.neighbor if _old_beyond_bisector(params, u1, mx1, mx2) else (0, 0)
            side = p[0] * seg.normal[0] + p[1] * seg.normal[1] > seg.offset
            assert tuple(t.decision) == (tuple(seg.neighbor) if side else (0, 0)), p
            if tuple(t.decision) != tuple(old):
                counts["moved"] += 1
                counts["moved_where_they_agree"] += not differ


def test_spellings_differ_only_where_counted():
    """On 20000 random from_rcos lattices, a decision moves only next to a
    face whose spellings differ, and there it takes cell_geometry's side."""
    counts = spelling_counts()
    assert counts["faces"] >= 40_000
    assert counts["moved_where_they_agree"] == 0
    assert counts["moved"] <= counts["walks"]
