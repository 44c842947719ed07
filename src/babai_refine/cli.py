"""Command-line front end.

Subcommands: geometry (cell constants), analyze (closed forms), tradeoff
(rate/error curves), simulate (Monte Carlo), trace (single-point protocol
transcript), sweep (theta sweeps with fixed-budget comparisons).  Output is
plain CSV (RFC-4180 style, '.' decimal separator, 12 significant digits) or
JSON with stable key order; no ANSI colour is ever emitted, so NO_COLOR is
honoured trivially.

Exit codes: 0 success, 2 invalid input, 3 quadrature failure (reserved:
nothing in the package integrates numerically any more).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import asdict

from . import analytics, montecarlo, protocols, schemes
from .errors import (
    BabaiRefineError,
    InvalidParams,
    QuadratureFailure,
)
from .lattice import LatticeParams, Point2, cell_geometry, check_rho

_CLAMP_EPS = 1e-6
_SIM_SIZE_CAP = 4096


def _fmt(v: float) -> str:
    return format(float(v), ".12g")


def resolve_params(rho: float, theta_deg, theta_rad, rcos) -> LatticeParams:
    """Build LatticeParams from the CLI angle flags.

    --rcos sets c = rho*cos(theta) exactly (from_rcos, which also rejects
    every c outside (0, 1/2)), the angle flags c = fl(rho*cos(theta)).  c
    within 1e-9 of 0 or 1/2 clamps theta inward by 1e-6 rad (notice on
    stderr); other invalid input raises InvalidParams.
    """
    check_rho(rho)
    given = [v for v in (theta_deg, theta_rad, rcos) if v is not None]
    if len(given) != 1:
        raise InvalidParams("specify exactly one of --theta-deg, --theta-rad, --rcos")
    if rcos is not None:
        c = rcos
    else:
        theta = math.radians(theta_deg) if theta_deg is not None else theta_rad
        c = rho * math.cos(theta)
    if abs(c - 0.5) < 1e-9:
        step = _CLAMP_EPS
    elif abs(c) < 1e-9:
        step = -_CLAMP_EPS
    elif rcos is not None:
        return LatticeParams.from_rcos(rho, rcos)
    else:
        return LatticeParams(rho=rho, theta=theta)
    if rcos is not None:
        theta = math.acos(rcos / rho)
    print(
        f"notice: theta={theta:.9f} rad is on the boundary of the valid "
        f"region; clamped to {theta + step:.9f}",
        file=sys.stderr,
    )
    return LatticeParams(rho=rho, theta=theta + step)


def _geometry_dict(params: LatticeParams) -> dict:
    return {"rho": params.rho, "theta_rad": params.theta, **asdict(cell_geometry(params))}


def cmd_geometry(args) -> str:
    params = resolve_params(args.rho, args.theta_deg, args.theta_rad, args.rcos)
    doc = _geometry_dict(params)
    if args.format == "json":
        return json.dumps(doc)
    lines = []
    for key, val in doc.items():
        if key == "boundary_segments":
            for seg in val:
                lines.append(
                    f"segment neighbor=({seg['neighbor'][0]},{seg['neighbor'][1]}) "
                    f"slope={_fmt(seg['slope'])} "
                    f"x1_span=({_fmt(seg['x1_span'][0])},{_fmt(seg['x1_span'][1])}] "
                    f"x2_span=({_fmt(seg['x2_span'][0])},{_fmt(seg['x2_span'][1])}]"
                )
        else:
            lines.append(f"{key}={_fmt(val)}")
    return "\n".join(lines) + "\n"


def _scheme(alias: str) -> schemes.Scheme:
    """The scheme table's entry for a --scheme alias."""
    return next(s for s in schemes.SCHEMES.values() if s.alias == alias)


def _scheme_flags(args, scheme: schemes.Scheme, size_default: int | None) -> dict:
    """The size and round-limit flags the scheme takes, as keyword values.

    A flag given for a scheme that does not take it is invalid input, never
    ignored.  A size the scheme takes but was not given gets size_default
    (None: the scheme requires it); an omitted round limit is left out, for
    the callee's default.
    """
    takes = scheme.sizes + (("max_rounds",) if scheme.round_limit else ())
    given = {
        f: getattr(args, f)
        for f in ("n1", "n2", "n", "max_rounds")
        if getattr(args, f, None) is not None
    }
    extra = ["--" + f.replace("_", "-") for f in given if f not in takes]
    if extra:
        raise InvalidParams(f"scheme {scheme.alias!r} takes no {' or '.join(extra)}")
    return {**dict.fromkeys(scheme.sizes, size_default), **given}


def cmd_analyze(args) -> str:
    params = resolve_params(args.rho, args.theta_deg, args.theta_rad, args.rcos)
    scheme = _scheme(args.scheme)
    sizes = _scheme_flags(args, scheme, 1)
    doc = {"scheme": args.scheme, "rho": params.rho, "theta_rad": params.theta, **sizes}
    return json.dumps({**doc, **scheme.analyze(params, **sizes)})


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([cell if isinstance(cell, str) else _fmt(cell) for cell in row])
    return buf.getvalue()


def cmd_tradeoff(args) -> str:
    params = resolve_params(args.rho, args.theta_deg, args.theta_rad, args.rcos)
    scheme = _scheme(args.scheme)
    if args.max_size < 1:
        raise InvalidParams("--max-size must be >= 1")
    if args.budget is not None and not math.isfinite(args.budget):
        raise InvalidParams("rate budget must be finite")
    exponent = scheme.exponent(cell_geometry(params))
    points = scheme.tradeoff(params, args.max_size)
    sizes = scheme.sizes
    header = [*sizes, "rate_bits", "pe", "pe_scaled"]
    rows = [
        [*(getattr(p, f) for f in sizes), p.rate_bits, p.pe, p.pe * 2.0 ** (exponent * p.rate_bits)]
        for p in points
    ]
    if args.budget is not None:
        header.append("within_budget")
        for row, p in zip(rows, points):
            row.append(1 if p.rate_bits <= args.budget else 0)
    return _csv_text(header, rows)


def cmd_simulate(args) -> str:
    params = resolve_params(args.rho, args.theta_deg, args.theta_rad, args.rcos)
    scheme = _scheme(args.scheme)
    config = montecarlo.SimConfig(
        params=params,
        scheme=scheme.name,
        trials=args.trials,
        seed=args.seed,
        **_scheme_flags(args, scheme, None),
    )
    return json.dumps(asdict(montecarlo.simulate(config)))


def cmd_trace(args) -> str:
    params = resolve_params(args.rho, args.theta_deg, args.theta_rad, args.rcos)
    scheme = _scheme(args.scheme)
    sizes = _scheme_flags(args, scheme, 1)
    max_rounds = sizes.pop("max_rounds", protocols.DEFAULT_MAX_ROUNDS)
    q = scheme.quantizer(params, **sizes)
    t = scheme.transcript(Point2(args.x1, args.x2), params, max_rounds, q)
    return protocols.transcript_to_json(t)


def cmd_sweep(args) -> str:
    if args.grid < 1:
        raise InvalidParams("grid must have at least one point")
    if args.max_rounds < 1:
        raise InvalidParams("max_rounds must be >= 1")
    if args.trials < 0:
        raise InvalidParams("trials must be >= 0")
    if not math.isfinite(args.budget):
        raise InvalidParams("rate budget must be finite")
    if (args.theta_deg, args.theta_rad, args.rcos) != (None, None, None):
        raise InvalidParams("sweep varies theta itself; drop --theta-deg, --theta-rad and --rcos")
    rho = check_rho(args.rho)
    theta_lo = math.acos(min(1.0, 1.0 / (2.0 * rho)))
    theta_hi = math.pi / 2.0
    if args.grid == 1:
        thetas = [0.5 * (theta_lo + theta_hi)]
    else:
        lo = theta_lo + _CLAMP_EPS
        hi = theta_hi - _CLAMP_EPS
        step = (hi - lo) / (args.grid - 1)
        thetas = [lo + i * step for i in range(args.grid)]
    table = list(schemes.SCHEMES.values())
    header = ["theta_rad", "rho", *(c for s in table for c in s.columns)]
    empirical = args.trials > 0
    if empirical:
        header += [f"{stem}_emp{x}" for s in table for stem, _ in s.sweep for x in ("", "_stderr")]
    rows = []
    for i, theta in enumerate(thetas):
        params = LatticeParams(rho=rho, theta=theta)
        closed = [s.closed(s.name, params, args.budget) for s in table]
        row = [theta, rho, *(v for values, _ in closed for v in values)]
        if empirical:
            for j, (scheme, (_, point)) in enumerate(zip(table, closed)):
                # cap the simulated quantizer sizes; the saturated tail of the
                # 21 curve near theta = pi/2 returns astronomically fine points
                sizes = {f: min(getattr(point, f), _SIM_SIZE_CAP) for f in scheme.sizes}
                report = montecarlo.simulate(
                    montecarlo.SimConfig(
                        params=params,
                        scheme=scheme.name,
                        trials=args.trials,
                        seed=montecarlo.derive_seed(args.seed, len(table) * i + j),
                        max_rounds=args.max_rounds,
                        **sizes,
                    )
                )
                for _, field in scheme.sweep:
                    row += [getattr(report, field), getattr(report, field + "_stderr")]
        rows.append(row)
    return _csv_text(header, rows)


def _add_param_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--rho", type=float, default=1.0, help="length ratio, >= 1")
    p.add_argument("--theta-deg", type=float, default=None, help="angle in degrees")
    p.add_argument("--theta-rad", type=float, default=None, help="angle in radians")
    p.add_argument(
        "--rcos", type=float, default=None, help="rho*cos(theta), taken exactly, with rho fixed"
    )
    p.add_argument("--output", default=None, help="output path (default: stdout)")


def _add_size_flags(p: argparse.ArgumentParser, default: int | None) -> None:
    # None tells an omitted flag from a given one; _scheme_flags fills it in
    table = schemes.SCHEMES.values()
    for field in dict.fromkeys(f for s in table for f in s.sizes):
        aliases = [s.alias for s in table if field in s.sizes]
        p.add_argument(
            "--" + field,
            type=int,
            default=None,
            help=f"scheme {' or '.join(aliases)} only, "
            + (f"default {default}" if default is not None else "required there"),
        )


def _add_round_limit_flag(p: argparse.ArgumentParser) -> None:
    limited = [s.alias for s in schemes.SCHEMES.values() if s.round_limit]
    p.add_argument(
        "--max-rounds",
        type=int,
        default=None,
        help=f"scheme {' or '.join(limited)} only, default {protocols.DEFAULT_MAX_ROUNDS}",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="babai-refine",
        description="Refining a 2-D nearest-plane (Babai) partition into the "
        "Voronoi partition: geometry, rate/error analysis, protocol simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    table = schemes.SCHEMES.values()
    aliases = [s.alias for s in table]

    p = sub.add_parser("geometry", help="dump the Babai/Voronoi cell constants")
    _add_param_flags(p)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_geometry)

    p = sub.add_parser("analyze", help="closed-form error/rate figures for a scheme")
    _add_param_flags(p)
    p.add_argument("--scheme", choices=aliases, required=True)
    _add_size_flags(p, 1)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("tradeoff", help="CSV rate/error curve for a scheme")
    _add_param_flags(p)
    p.add_argument("--scheme", choices=[s.alias for s in table if s.tradeoff], required=True)
    p.add_argument("--max-size", type=int, default=32)
    p.add_argument("--budget", type=float, default=None)
    p.set_defaults(func=cmd_tradeoff)

    p = sub.add_parser("simulate", help="Monte Carlo protocol simulation (JSON report)")
    _add_param_flags(p)
    p.add_argument("--scheme", choices=aliases, required=True)
    _add_size_flags(p, None)
    p.add_argument("--trials", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    _add_round_limit_flag(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("trace", help="single-point protocol transcript (JSON)")
    _add_param_flags(p)
    p.add_argument("--scheme", choices=[s.alias for s in table if s.transcript], required=True)
    p.add_argument("--x1", type=float, required=True)
    p.add_argument("--x2", type=float, required=True)
    _add_size_flags(p, 1)
    _add_round_limit_flag(p)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("sweep", help="theta sweep CSV (fixed-budget comparison)")
    _add_param_flags(p)
    p.add_argument("--grid", type=int, default=50, help="number of theta gridpoints")
    p.add_argument("--budget", type=float, default=4.0, help="rate budget in bits")
    p.add_argument("--trials", type=int, default=0, help="empirical trials per row (0: none)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-rounds", type=int, default=protocols.DEFAULT_MAX_ROUNDS)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        text = args.func(args)
    except QuadratureFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (BabaiRefineError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not text.endswith("\n"):
        text += "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
