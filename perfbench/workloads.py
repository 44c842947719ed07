"""The benchmark's workloads: their fixed op lists, the ops and the output checks.

Every workload is a closed loop: an op starts only after the previous one
returned.  The inputs of every op derive from the workload seed alone.  An
op's `run` is the timed call into the package and returns the op's raw
result; `output` turns that into the text whose SHA-256 is recorded (report
JSON, sweep CSV or transcript JSON) and `check` lists what is wrong with it
(empty when the output is right).  Neither is timed.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from babai_refine import analytics, cli, lattice, montecarlo, protocols
from babai_refine.lattice import IntegerPair, LatticeParams, Point2

# Caches a user's fresh process starts without; cleared before every op.
# Held here so they stay reachable while the tracer wraps the public names.
CACHES = (lattice.cell_geometry, analytics.kappa_12, analytics.kappa_21)

LATTICES = {
    "hexagonal": LatticeParams(rho=1.0, theta=math.pi / 3 + 1e-6),
    "rcos0.3": LatticeParams(rho=1.0, theta=math.acos(0.3)),
    "near-rectangular": LatticeParams(rho=1.0, theta=math.pi / 2 - 1e-3),
}

Z_LIMIT = 5.0
# Two-sided tail of a normal variable beyond Z_LIMIT standard deviations.
ALPHA = math.erfc(Z_LIMIT / math.sqrt(2.0))
# The sweep command caps simulated quantizer sizes at this many bins per side.
SIM_SIZE_CAP = 4096
PE_COLUMNS = ("pe12_below", "pe12_interp", "pe21_below", "pe21_interp", "pe_babai")


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    output: Callable[[object], str]
    check: Callable[[object], list[str]]
    trials: int = 0


@dataclass
class Workload:
    name: str
    # the reference kernel (reference.py) whose work is like this workload's
    reference: str
    ops: list[Op] = field(default_factory=list)


def clear_caches() -> None:
    for cached in CACHES:
        cached.cache_clear()


def _z_problem(what: str, value: float, expected: float, stderr: float) -> list[str]:
    if abs(value - expected) <= Z_LIMIT * stderr:
        return []
    return [f"{what} = {value!r} is not within {Z_LIMIT} x {stderr!r} of {expected!r}"]


def _mean_problem(
    what: str, value: float, expected: float, variance: float, span: float, n: int
) -> list[str]:
    """Is a sample mean of n draws consistent with its closed form?

    The tolerance comes from Bernstein's inequality at the false-alarm rate
    of a 5-sigma normal test, for draws with the closed-form variance that
    lie within `span` of their mean.  With many expected events it is about
    5.5 standard errors; when the closed form expects under one event in n
    draws (pe ~ 1e-7 at 32768 trials) it still admits a few, where a normal
    test would call a single event a failure.
    """
    log_term = math.log(2.0 / ALPHA)
    linear = span * log_term / (3.0 * n)
    tol = linear + math.sqrt(linear * linear + 2.0 * variance * log_term / n)
    if abs(value - expected) <= tol:
        return []
    return [f"{what} = {value!r} is not within {tol!r} of {expected!r}"]


def _pe_problem(what: str, value: float, expected: float, n: int) -> list[str]:
    return _mean_problem(what, value, expected, expected * (1.0 - expected), 1.0, n)


def infinite_moments(params: LatticeParams, max_rounds: int = protocols.DEFAULT_MAX_ROUNDS):
    """Mean, variance and span of total bits and of rounds, infinite scheme.

    Round 1 costs -log2 of the band and interval probabilities; a point in
    an error rectangle then bisects K ~ Geometric(1/2) more rounds of two
    bits each (E[K] = 2, E[K^2] = 6, K < max_rounds).  Returns
    ((mean, variance, span) of bits, (mean, variance, span) of rounds).
    """
    q, p = analytics.round1_distributions(params)
    terms = []
    for u2, qu in zip((-1, 0, 1), q.probs):
        if u2 == 0:
            terms.append((qu, -math.log2(qu), False))
            continue
        for u1, pu in zip((-1, 0, 1), p.probs):
            terms.append((qu * pu, -math.log2(qu) - math.log2(pu), u1 != 0))
    eb = eb2 = er = er2 = 0.0
    for w, b, entered in terms:
        if entered:
            eb += w * (b + 4.0)
            eb2 += w * (b * b + 8.0 * b + 24.0)
            er += w * 3.0
            er2 += w * 11.0
        else:
            eb += w * b
            eb2 += w * b * b
            er += w
            er2 += w
    extra = 2.0 * (max_rounds - 1)
    bits_span = max(b + extra * entered for _, b, entered in terms) - min(b for _, b, _ in terms)
    return (eb, eb2 - eb * eb, bits_span), (er, er2 - er * er, max_rounds - 1.0)


# --- mc-coarse -------------------------------------------------------------

_MC_SCHEMES = (
    ("babai_only", {}),
    ("infinite", {}),
    ("12", {"n1": 2, "n2": 3}),
    ("21", {"n": 4}),
)
MC_TRIALS = 1 << 20


def _check_report(config: montecarlo.SimConfig, r: montecarlo.SimReport) -> list[str]:
    problems = []
    if (r.scheme, r.trials, r.seed) != (config.scheme, config.trials, config.seed):
        problems.append(f"report echoes {(r.scheme, r.trials, r.seed)}")
    n = r.trials
    if config.scheme == "infinite":
        if r.empirical_pe != 0.0 or r.unhalted_count != 0:
            problems.append(f"pe {r.empirical_pe}, unhalted {r.unhalted_count}; both must be 0")
        bits, rounds = infinite_moments(config.params, config.max_rounds)
        for name, model, closed in (
            ("predicted_bits", bits[0], r.predicted_bits),
            ("predicted_rounds", rounds[0], r.predicted_rounds),
        ):
            if not math.isclose(model, closed, rel_tol=1e-9):
                problems.append(f"{name} {closed!r} differs from the moment model's {model!r}")
        problems += _mean_problem("mean_bits", r.mean_bits, r.predicted_bits, bits[1], bits[2], n)
        problems += _mean_problem(
            "mean_rounds", r.mean_rounds, r.predicted_rounds, rounds[1], rounds[2], n
        )
        return problems
    problems += _pe_problem("empirical_pe", r.empirical_pe, r.predicted_pe, n)
    if config.scheme != "babai_only":
        problems += _z_problem("mean_bits", r.mean_bits, r.predicted_bits, r.mean_bits_stderr)
    return problems


def mc_coarse(seed: int) -> Workload:
    """Four schemes on three lattices, one 2^20-trial `simulate` per op."""
    cases = [(lat, scheme, sizes) for lat in LATTICES for scheme, sizes in _MC_SCHEMES]
    sim_seeds = np.random.default_rng(seed).integers(0, 2**63, size=len(cases))
    w = Workload("mc-coarse", "numpy")
    for (lat, scheme, sizes), sim_seed in zip(cases, sim_seeds):
        config = montecarlo.SimConfig(
            params=LATTICES[lat], scheme=scheme, trials=MC_TRIALS, seed=int(sim_seed), **sizes
        )
        w.ops.append(
            Op(
                label=f"simulate {scheme} {lat}",
                run=lambda c=config: montecarlo.simulate(c),
                output=lambda r: json.dumps(dataclasses.asdict(r)),
                check=lambda r, c=config: _check_report(c, r),
                trials=MC_TRIALS,
            )
        )
    return w


# --- sweeps ----------------------------------------------------------------


def _run_cli(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"babai-refine {' '.join(argv)} exited with {code}")
    return buf.getvalue()


def _check_sweep(text: str, rho: float, grid: int, budget: float, trials: int) -> list[str]:
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    if len(body) != grid:
        return [f"{len(body)} rows, expected {grid}"]
    problems = []
    for raw in body:
        row = dict(zip(header, map(float, raw)))
        theta = row["theta_rad"]
        for col in PE_COLUMNS:
            if not 0.0 < row[col] <= 1.0:
                problems.append(f"theta {theta}: {col} = {row[col]} outside (0, 1]")
        if not trials:
            continue
        params = LatticeParams(rho=rho, theta=theta)
        p12 = analytics.budget_point(params, "12", budget)
        p21 = analytics.budget_point(params, "21", budget)
        pairs = [("pe_babai", "pe_babai_emp")]
        if max(p12.n1, p12.n2) <= SIM_SIZE_CAP:
            pairs.append(("pe12_below", "pe12_emp"))
        if p21.n <= SIM_SIZE_CAP:
            pairs.append(("pe21_below", "pe21_emp"))
        for closed, emp in pairs:
            problems += _pe_problem(f"theta {theta}: {emp}", row[emp], row[closed], trials)
        bits, rounds = infinite_moments(params)
        problems += _mean_problem(
            f"theta {theta}: rbar_emp", row["rbar_emp"], row["rbar_bits"], *bits[1:], trials
        )
        problems += _mean_problem(
            f"theta {theta}: nbar_emp", row["nbar_emp"], row["nbar_rounds"], *rounds[1:], trials
        )
    return problems


def _sweep_op(rho: float, grid: int, budget: float, trials: int = 0, sim_seed: int = 0) -> Op:
    argv = ["sweep", "--rho", repr(rho), "--grid", str(grid), "--budget", repr(budget)]
    if trials:
        argv += ["--trials", str(trials), "--seed", str(sim_seed)]
    return Op(
        label=" ".join(argv),
        run=lambda: _run_cli(argv),
        output=lambda text: text,
        check=lambda text: _check_sweep(text, rho, grid, budget, trials),
        trials=4 * grid * trials,
    )


def sweep_analytic(seed: int) -> Workload:
    """One closed-form sweep at an 8-bit budget.

    The sweep has no random input, so the seed changes nothing here.  rho = 1
    is the paper's comparison table; at rho = 1.5 the same command takes
    minutes.  Four rows keep most of the time out of the hexagonal-end row.
    """
    return Workload("sweep-analytic", "python", [_sweep_op(1.0, 4, 8.0)])


EMPIRICAL_TRIALS = 1 << 15


def sweep_empirical(seed: int) -> Workload:
    """One sweep with four short `simulate` calls per row at a 4-bit budget;
    the seed sets the sweep's own --seed."""
    sim_seed = int(np.random.default_rng(seed).integers(0, 2**31))
    return Workload("sweep-empirical", "python", [_sweep_op(1.0, 3, 4.0, EMPIRICAL_TRIALS, sim_seed)])


# --- transcripts -------------------------------------------------------------

TRANSCRIPT_OPS = 3000


def _transcript(params, scheme, quantizer, x):
    if scheme == "12":
        t = protocols.run_single_round_12(x, params, quantizer)
    elif scheme == "21":
        t = protocols.run_single_round_21(x, params, quantizer)
    else:
        t = protocols.run_infinite_rounds(x, params)
    replayed = protocols.replay_decision(t.messages, params, scheme, quantizer)
    text = protocols.transcript_to_json(t)
    return t, replayed, text, protocols.transcript_from_json(text)


def _expected_decision(params, scheme, quantizer, x) -> IntegerPair:
    """The label the scheme must output, from the brute-force oracle.

    Single-round schemes label x by the region it falls in along the line
    through its bin's midpoint; the infinite scheme must find the exact
    nearest point.
    """
    gen = lattice.make_generator(params)
    if scheme == "infinite":
        return lattice.exact_nearest_point(x, gen)
    coord = x[0] if scheme == "12" else x[1]
    edges = quantizer.edges
    pos = min(max(int(np.searchsorted(edges, coord, side="left")) - 1, 0), len(edges) - 2)
    mid = 0.5 * (edges[pos] + edges[pos + 1])
    probe = Point2(mid, x[1]) if scheme == "12" else Point2(x[0], mid)
    return lattice.exact_nearest_point(probe, gen)


def _check_transcript(params, scheme, quantizer, x, result) -> list[str]:
    t, replayed, _, back = result
    problems = []
    expected = _expected_decision(params, scheme, quantizer, x)
    if t.decision != expected:
        problems.append(f"{scheme} at {tuple(x)}: decision {t.decision}, oracle {expected}")
    if replayed != t.decision:
        problems.append(f"{scheme} at {tuple(x)}: replay gives {replayed}, not {t.decision}")
    if back != t:
        problems.append(f"{scheme} at {tuple(x)}: JSON round trip changed the transcript")
    if not t.halted:
        problems.append(f"{scheme} at {tuple(x)}: did not halt")
    return problems


def transcripts(seed: int) -> Workload:
    """Scalar transcripts at points drawn by the benchmark, cycling the
    three schemes over the three lattices."""
    rng = np.random.default_rng(seed)
    quantizers = {
        lat: {
            "12": protocols.quantizer_12(p, 2, 3),
            "21": protocols.quantizer_21(p, 4),
            "infinite": None,
        }
        for lat, p in LATTICES.items()
    }
    lat_names = list(LATTICES)
    w = Workload("transcripts", "python")
    for k in range(TRANSCRIPT_OPS):
        lat = lat_names[k % 3]
        scheme = ("12", "21", "infinite")[(k // 3) % 3]
        params = LATTICES[lat]
        u1, u2 = rng.uniform(-0.5, 0.5, size=2)
        # negating [-a, a) lands in the half-open cell (-a, a]
        x = Point2(-float(u1), -float(u2) * params.rsin)
        q = quantizers[lat][scheme]
        w.ops.append(
            Op(
                label=f"transcript {scheme} {lat}",
                run=lambda p=params, s=scheme, q=q, x=x: _transcript(p, s, q, x),
                output=lambda result: result[2],
                check=lambda result, p=params, s=scheme, q=q, x=x: _check_transcript(
                    p, s, q, x, result
                ),
            )
        )
    return w


WORKLOADS = {
    "mc-coarse": mc_coarse,
    "sweep-analytic": sweep_analytic,
    "sweep-empirical": sweep_empirical,
    "transcripts": transcripts,
}
