"""The scheme table: the facts of each way to decide the nearest point.

`SCHEMES` holds the single-round 12 and 21 schemes, the zero-error
infinite-round scheme and plain Babai, by name.  `SimConfig`, `simulate`,
the budget search and the CLI read each scheme's facts from its entry.
They import this module and read `SCHEMES` only when called, which keeps
the import cycle with `analytics` and `montecarlo` safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import analytics, montecarlo, protocols
from .lattice import LatticeParams, babai_error_probability, cell_geometry, round1_code


def _one_round(batch: str) -> Callable[..., tuple]:
    """The Scheme.kernel of a single-round batch kernel of montecarlo."""

    def kernel(params, x1, x2, _, q, workspace) -> tuple:
        out = getattr(montecarlo, batch)(params, q, x1, x2, workspace=workspace)
        bits = np.add(out["u1_bits"], out["u2_bits"], out=out["u1_bits"])
        return out["dec1"], out["dec2"], bits, 1.0, 0

    return kernel


def _infinite_kernel(params, x1, x2, max_rounds, _, workspace) -> tuple:
    out = montecarlo.run_batch_infinite(params, x1, x2, max_rounds, workspace=workspace)
    halted = out["halted"]
    unhalted = halted.size - int(np.count_nonzero(halted))
    return out["dec1"], out["dec2"], out["bits"], out["rounds"], unhalted


def _analyze_12(params: LatticeParams, n1: int, n2: int) -> dict:
    geo = analytics.coefficients_12(params)
    printed = analytics.coefficients_12(params, provenance="printed")
    h1, h2 = analytics.rate_12(params, n1, n2)
    g = cell_geometry(params)
    return {
        "alpha1": geo.alpha1,
        "alpha2": geo.alpha2,
        "alpha1_printed": printed.alpha1,
        "alpha2_printed": printed.alpha2,
        "alpha_ratio": geo.alpha2 * g.L1 / (geo.alpha1 * g.L2),
        "alpha_ratio_printed": printed.alpha2 * g.L1 / (printed.alpha1 * g.L2),
        "pe": analytics.pe_12(params, n1, n2),
        "h_u1": h1,
        "h_u2_given_u1": h2,
        "rate_bits": h1 + h2,
        "kappa": analytics.kappa_12(params),
        "asymptotic_constant": analytics.asymptotic_constant_12(params),
    }


def _analyze_21(params: LatticeParams, n: int) -> dict:
    return {
        "beta": analytics.beta_21(params),
        "pe": analytics.pe_21(params, n),
        "rate_bits": analytics.rate_21(params, n),
        "kappa": analytics.kappa_21(params),
        "asymptotic_constant": analytics.asymptotic_constant_21(params),
    }


def _analyze_infinite(params: LatticeParams) -> dict:
    code = round1_code(params)
    return {
        "rbar_bits": analytics.rbar_infinite(params),
        "nbar_rounds": analytics.nbar_infinite(params),
        "q": list(code.q),
        "p": list(code.p),
    }


def _predicted(point: analytics.TradeoffPoint) -> tuple[float, float, float]:
    """A single-round (rate, pe) point as Scheme.predict returns it."""
    return point.pe, point.rate_bits, 1.0


@dataclass(frozen=True)
class Scheme:
    """One scheme, as every place that dispatches on a scheme reads it.

    `sizes` are the SimConfig size fields it requires and the only ones it
    accepts; `round_limit` says whether it takes max_rounds (the others get
    it and ignore it).  `quantizer(params, **sizes)` builds its code q (None
    if it has none); `kernel(params, x1, x2, max_rounds, q, workspace)`
    returns per-trial decisions (dec1, dec2), bits and rounds (each an array
    in the montecarlo workspace, or one number for every trial) and the
    unhalted count; each decision is (0, 0) or a relevant neighbour, so
    |dec1| <= 1 and |dec2| <= 1, which simulate's hexagon-test margin
    assumes.  `predict(params, **sizes)` gives the closed-form (pe, bits,
    rounds); `transcript(x, params, max_rounds, q)` runs the scalar protocol
    (None: there is none).  `analyze(params, **sizes)` gives the `analyze`
    JSON fields after the sizes.  A sweep row holds each scheme's `columns`
    (with sizes: budget_pe's pe below and interpolated pe, whose point sizes
    its simulation; without: the predictions of its `sweep` fields), then
    an empirical pair per (stem, SimReport field) of `sweep`.  With sizes
    come a rate/error `curve(params, size)` over one size index, which the
    budget search gallops on from `seed(params, budget, cap)` within
    [1, cap] and `tradeoff_curve` prunes, and its pe_scaled `exponent(g)`;
    `ceiling(params)` bounds the rate at size 1 from above in closed form,
    so the search reads that point only below it (None: always).  The
    callables look traced functions up by module attribute when called, so
    a wrapper on a module's name (the benchmark's tracer) sees every call.
    """

    name: str
    alias: str
    sizes: tuple[str, ...]
    kernel: Callable[..., tuple]
    predict: Callable[..., tuple[float, float, float]]
    transcript: Callable[..., protocols.Transcript] | None
    analyze: Callable[..., dict]
    columns: tuple[str, ...]
    sweep: tuple[tuple[str, str], ...]
    round_limit: bool = False
    quantizer: Callable[..., protocols.Quantizer | None] = lambda params: None
    curve: Callable[..., analytics.TradeoffPoint] | None = None
    seed: Callable[..., int] | None = None
    cap: int = 0
    exponent: Callable[..., float] | None = None
    ceiling: Callable[..., float] | None = None


SCHEMES = {
    s.name: s
    for s in (
        Scheme(
            "12", "12", ("n1", "n2"),
            kernel=_one_round("run_batch_12"),
            predict=lambda params, n1, n2: _predicted(analytics.point_12(params, n1, n2)),
            transcript=lambda x, params, _, q: protocols.run_single_round_12(x, params, q),
            analyze=_analyze_12,
            columns=("pe12_below", "pe12_interp"),
            sweep=(("pe12", "empirical_pe"),),
            quantizer=lambda params, n1, n2: protocols.quantizer_12(params, n1, n2),
            curve=lambda params, n: analytics.point_12(params, analytics.optimal_n1(params, n), n),
            seed=lambda *search: analytics._seed_12(*search),
            cap=1 << 20,  # the 12-scheme rate costs O(n2) to evaluate exactly
            exponent=lambda g: g.L / (2.0 * (g.L1 + g.L2)),
            ceiling=lambda params: analytics._ceiling_12(params),
        ),
        Scheme(
            "21", "21", ("n",),
            kernel=_one_round("run_batch_21"),
            predict=lambda params, n: _predicted(analytics.point_21(params, n)),
            transcript=lambda x, params, _, q: protocols.run_single_round_21(x, params, q),
            analyze=_analyze_21,
            columns=("pe21_below", "pe21_interp"),
            sweep=(("pe21", "empirical_pe"),),
            quantizer=lambda params, n: protocols.quantizer_21(params, n),
            curve=lambda params, n: analytics.point_21(params, n),
            seed=lambda *search: analytics._seed_21(*search),
            cap=1 << 62,  # the 21-scheme rate is O(1)
            exponent=lambda g: 1.0 / (1.0 - g.H0 / g.H),
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
            analyze=_analyze_infinite,
            columns=("rbar_bits", "nbar_rounds"),
            sweep=(("rbar", "mean_bits"), ("nbar", "mean_rounds")),
            round_limit=True,
        ),
        Scheme(
            "babai_only", "babai", (),
            # every trial keeps the Babai point, with no message
            kernel=lambda *_: (0.0, 0.0, 0.0, 0.0, 0),
            predict=lambda params: (babai_error_probability(params), 0.0, 0.0),
            transcript=None,
            analyze=lambda params: {"pe_babai": babai_error_probability(params)},
            columns=("pe_babai",),
            sweep=(("pe_babai", "empirical_pe"),),
        ),
    )
}
