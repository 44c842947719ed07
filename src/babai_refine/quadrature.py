"""Adaptive Simpson quadrature for piecewise-smooth entropy integrands."""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import QuadratureFailure

MAX_DEPTH = 40
# widest level refined in one integrand call; wider levels are split in two,
# left half first, which bounds memory when no interval converges
_MAX_LEVEL = 1 << 12


def adaptive_simpson(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    abs_tol: float = 1e-9,
    max_depth: int = MAX_DEPTH,
) -> float:
    """Integrate f over [a, b] to absolute tolerance abs_tol.

    Classic adaptive Simpson with Richardson correction (Lyness, J. ACM
    1969); the caller is responsible for splitting at interior kinks of f.
    f maps a float64 array to the array of its values, point by point.  The
    interval tree is refined one depth level at a time, with one call of f
    for the new midpoints of every unconverged interval of a level, and the
    leaf sums are added back in pairs, so the result is bit for bit that of
    the depth-first recursion.  Raises QuadratureFailure, for the leftmost
    such interval, if the depth limit is hit before the local error
    estimate falls below tolerance.
    """
    if b <= a:
        return 0.0
    m = 0.5 * (a + b)
    fa, fm, fb = f(np.array([a, m, b])).tolist()
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    level = tuple(np.array([v]) for v in (a, b, fa, fm, fb, whole))
    return float(_refine(f, level, abs_tol, max_depth)[0])


def _interleave(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.stack([x, y], axis=1).ravel()


def _refine(f, level, tol, depth) -> np.ndarray:
    """Simpson values of the intervals of one level, ordered left to right.

    level holds the arrays (a, b, fa, fm, fb, whole) of the intervals; each
    value is what the recursion returns on that interval at this tol and
    depth.
    """
    a, b, fa, fm, fb, whole = level
    if a.size > _MAX_LEVEL:
        half = a.size // 2
        return np.concatenate(
            [
                _refine(f, tuple(v[:half] for v in level), tol, depth),
                _refine(f, tuple(v[half:] for v in level), tol, depth),
            ]
        )
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm, frm = np.split(f(np.concatenate([lm, rm])), 2)
    with np.errstate(over="ignore", invalid="ignore"):
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        delta = left + right - whole
        out = left + right + delta / 15.0
    open_ = ~(np.abs(delta) <= 15.0 * tol)
    if not open_.any():
        return out
    if depth <= 0:
        i = int(np.flatnonzero(open_)[0])
        raise QuadratureFailure(
            f"adaptive Simpson did not converge on [{a[i].item()}, {b[i].item()}] "
            f"(remaining error estimate {abs(delta[i].item()) / 15.0:.3e} > {tol:.3e})"
        )
    a, b, m, fa, fm, fb = (v[open_] for v in (a, b, m, fa, fm, fb))
    children = (
        _interleave(a, m),
        _interleave(m, b),
        _interleave(fa, fm),
        _interleave(flm[open_], frm[open_]),
        _interleave(fm, fb),
        _interleave(left[open_], right[open_]),
    )
    sums = _refine(f, children, 0.5 * tol, depth - 1)
    with np.errstate(over="ignore", invalid="ignore"):
        out[open_] = sums[0::2] + sums[1::2]
    return out
