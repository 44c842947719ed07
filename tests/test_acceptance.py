"""Acceptance suite: one criterion per test, each printing a PASS line with
the measured figures when its stated tolerance is met.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines as they pass.
"""

import math
import time

import numpy as np
import pytest

from babai_refine import (
    LatticeParams,
    Point2,
    SimConfig,
    asymptotic_constant_12,
    asymptotic_constant_21,
    babai_error_probability,
    beta_21,
    cell_geometry,
    coefficients_12,
    curve_point,
    exact_nearest_batch,
    exact_nearest_point,
    kappa_12,
    make_generator,
    pe_21,
    quantizer_12,
    rate_12,
    rate_21,
    rbar_infinite,
    run_batch_12,
    run_batch_infinite,
    sample_cell_arrays,
    simulate,
)
from babai_refine.cli import main as cli_main

SEED = 20240801


def _params(rcos: float) -> LatticeParams:
    return LatticeParams(rho=1.0, theta=math.acos(rcos))


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_a1_closed_form_average_cost_hexagonal_limit():
    t0 = time.perf_counter()
    rbar = rbar_infinite(LatticeParams(rho=1.0, theta=math.pi / 3 + 1e-6))
    elapsed = time.perf_counter() - t0
    ok = abs(rbar - 2.418) <= 0.005 and elapsed < 1.0
    _report("A1", ok, f"rbar(hexagonal limit) = {rbar:.5f} (target 2.418 +/- 0.005), "
                      f"{elapsed * 1e3:.1f} ms")


@pytest.fixture(scope="module")
def infinite_reports():
    t0 = time.perf_counter()
    reports = {}
    for rcos in (0.05, 0.15, 0.25, 0.35, 0.45):
        cfg = SimConfig(
            params=_params(rcos), scheme="infinite", trials=1_000_000, seed=SEED
        )
        reports[rcos] = simulate(cfg)
    return reports, time.perf_counter() - t0


def test_a2_infinite_scheme_cost_by_simulation(infinite_reports):
    reports, elapsed = infinite_reports
    lines = []
    ok = elapsed < 120.0
    for rcos, rep in reports.items():
        zb = (rep.mean_bits - rep.predicted_bits) / rep.mean_bits_stderr
        zr = (rep.mean_rounds - rep.predicted_rounds) / rep.mean_rounds_stderr
        ok &= abs(zb) <= 3.0 and abs(zr) <= 3.0
        lines.append(f"rcos={rcos}: z_bits={zb:+.2f} z_rounds={zr:+.2f}")
    _report("A2", ok, f"{'; '.join(lines)}; runtime {elapsed:.1f} s (< 120 s)")


def test_a3_zero_error(infinite_reports):
    reports, _ = infinite_reports
    ok = True
    worst_unhalted = 0.0
    for rep in reports.values():
        ok &= rep.empirical_pe == 0.0
        worst_unhalted = max(worst_unhalted, rep.unhalted_count / rep.trials)
    ok &= worst_unhalted < 1e-5
    _report("A3", ok, f"all decisions exact over 5x10^6 trials, "
                      f"unhalted fraction {worst_unhalted:.1e} (< 1e-5)")


def test_a4_single_round_12_formula_vs_protocol():
    co = coefficients_12(_params(0.3))
    printed = coefficients_12(_params(0.3), provenance="printed")
    consts_ok = math.isclose(co.alpha1, 0.0065938, rel_tol=1e-3) and math.isclose(
        co.alpha2, 0.012362, rel_tol=1e-3
    )
    ok = consts_ok
    lines = []
    printed_rejected = False
    for rcos in (0.15, 0.3, 0.45):
        params = _params(rcos)
        geom = coefficients_12(params)
        alt = coefficients_12(params, provenance="printed")
        for n1, n2 in ((1, 1), (2, 3), (5, 12)):
            cfg = SimConfig(
                params=params, scheme="12", trials=1_000_000, seed=SEED, n1=n1, n2=n2
            )
            rep = simulate(cfg)
            z = (rep.empirical_pe - rep.predicted_pe) / rep.empirical_pe_stderr
            ok &= abs(z) <= 3.0
            pe_alt = alt.alpha1 / n1 + alt.alpha2 / n2
            z_alt = (rep.empirical_pe - pe_alt) / rep.empirical_pe_stderr
            if abs(z_alt) > 3.0:
                printed_rejected = True
            lines.append(f"c={rcos},(n1,n2)=({n1},{n2}): z={z:+.2f}")
    ok &= printed_rejected
    _report(
        "A4",
        ok,
        "coefficient variant matched: geometry_derived "
        f"(alpha1={co.alpha1:.7f}, alpha2={co.alpha2:.6f}; printed variant "
        f"alpha1={printed.alpha1:.7f}, alpha2={printed.alpha2:.6f} rejected); "
        + "; ".join(lines),
    )


def test_a5_single_round_21_formula_vs_protocol():
    b_main = beta_21(_params(0.3))
    b_hex = beta_21(LatticeParams(rho=1.0, theta=math.pi / 3 + 1e-6))
    ok = math.isclose(b_main, 0.028845, rel_tol=1e-3) and math.isclose(
        b_hex, 1.0 / 24.0, rel_tol=1e-4
    )
    lines = []
    for rcos in (0.15, 0.3, 0.45):
        params = _params(rcos)
        for n in (1, 4, 16):
            cfg = SimConfig(params=params, scheme="21", trials=1_000_000, seed=SEED, n=n)
            rep = simulate(cfg)
            z = (rep.empirical_pe - rep.predicted_pe) / rep.empirical_pe_stderr
            ok &= abs(z) <= 3.0
            lines.append(f"c={rcos},n={n}: z={z:+.2f}")
    _report("A5", ok, f"beta(0.3)={b_main:.6f}, beta(hex)={b_hex:.6f}; " + "; ".join(lines))


def test_a6_babai_error_polygon_vs_monte_carlo():
    ok = True
    lines = []
    for name, params, target in (
        ("c=0.3", _params(0.3), 0.05769),
        ("hexagonal", LatticeParams(rho=1.0, theta=math.pi / 3 + 1e-6), 1.0 / 12.0),
    ):
        poly = babai_error_probability(params)
        ok &= math.isclose(poly, target, rel_tol=2e-4)
        rep = simulate(
            SimConfig(params=params, scheme="babai_only", trials=10_000_000, seed=SEED)
        )
        z = (rep.empirical_pe - poly) / rep.empirical_pe_stderr
        ok &= abs(z) <= 4.0
        lines.append(f"{name}: polygon={poly:.6f} empirical={rep.empirical_pe:.6f} z={z:+.2f}")
    _report("A6", ok, "; ".join(lines))


def test_a7_rate_consistency():
    params = _params(0.3)
    h1, _ = rate_12(params, 2, 3)
    idx = np.arange(1_000_000, dtype=np.uint64)
    x1, x2 = sample_cell_arrays(params, idx, SEED)
    out = run_batch_12(params, quantizer_12(params, 2, 3), x1, x2)
    bits = out["u1_bits"]
    se = bits.std(ddof=1) / math.sqrt(len(bits))
    z = (bits.mean() - h1) / se
    ok = abs(z) <= 3.0
    kap = kappa_12(params)
    errs = []
    for k in range(4, 11):
        _, h2 = rate_12(params, 2**k, 2**k)
        errs.append(abs(h2 - kap))
    mono = all(a > b for a, b in zip(errs, errs[1:]))
    ok &= mono
    _report(
        "A7",
        ok,
        f"mean U1 bits {bits.mean():.5f} vs H(U1) {h1:.5f} (z={z:+.2f}); "
        f"|H(U2|U1)-kappa| over k=4..10: {errs[0]:.1e} -> {errs[-1]:.1e}, "
        f"monotone={mono}",
    )


def test_a8_asymptotic_constants():
    params = _params(0.3)
    g = cell_geometry(params)
    const12 = asymptotic_constant_12(params)
    forms_ok = math.isclose(
        const12, asymptotic_constant_12(params, form="probability"), rel_tol=1e-10
    )
    pt = curve_point(params, "12", 1 << 10)
    scaled12 = pt.pe * 2.0 ** (g.L * pt.rate_bits / (2.0 * (g.L1 + g.L2)))
    ok12 = abs(scaled12 - const12) / const12 <= 0.05
    const21 = asymptotic_constant_21(params)
    q0 = g.H0 / g.H
    n = 1 << 10
    scaled21 = pe_21(params, n) * 2.0 ** (rate_21(params, n) / (1.0 - q0))
    ok21 = math.isclose(scaled21, const21, rel_tol=1e-9)
    ok = forms_ok and ok12 and ok21
    _report(
        "A8",
        ok,
        f"12: pe*2^(LR/2(L1+L2)) = {scaled12:.6f} vs {const12:.6f} "
        f"({abs(scaled12 - const12) / const12 * 100:.2f}% <= 5%), forms agree to 1e-10: "
        f"{forms_ok}; 21: {scaled21:.6f} vs {const21:.6f}",
    )


def test_a9_theta_sweep_trends(capsys):
    rc = cli_main(["sweep", "--rho", "1", "--grid", "50", "--budget", "4.0"])
    out = capsys.readouterr().out
    assert rc == 0
    import csv as _csv
    import io as _io

    rows = list(_csv.DictReader(_io.StringIO(out)))
    pe12 = [float(r["pe12_interp"]) for r in rows]
    pe21 = [float(r["pe21_interp"]) for r in rows]
    rbar = [float(r["rbar_bits"]) for r in rows]
    arg21 = int(np.argmax(pe21))
    arg12 = int(np.argmax(pe12))
    decreasing = all(a > b for a, b in zip(rbar, rbar[1:]))
    ok = (
        len(rows) == 50
        and arg21 == 0
        and arg12 != 0
        and decreasing
        and abs(max(rbar) - 2.42) <= 0.01
    )
    with capsys.disabled():
        _report(
            "A9",
            ok,
            f"argmax pe21 at gridpoint {arg21} (smallest theta), argmax pe12 at "
            f"{arg12} (not smallest), rbar decreasing={decreasing}, "
            f"max rbar={max(rbar):.4f} (2.42 +/- 0.01)",
        )


def test_a10_oracle_equivalence():
    params = _params(0.3)
    rng = np.random.default_rng(SEED)
    x1 = rng.uniform(-3.0, 3.0, size=100_000)
    x2 = rng.uniform(-3.0, 3.0, size=100_000)
    e1, e2 = exact_nearest_batch(params, x1, x2)
    # independent 11x11 brute force around the Babai point, same tie order
    c, s = params.rcos, params.rsin
    b2 = np.ceil(x2 / s - 0.5)
    b1 = np.ceil(x1 - c * b2 - 0.5)
    offs = np.array([(i, j) for j in range(-5, 6) for i in range(-5, 6)], dtype=float)
    cu1 = b1[:, None] + offs[None, :, 0]
    cu2 = b2[:, None] + offs[None, :, 1]
    d2 = (x1[:, None] - (cu1 + c * cu2)) ** 2 + (x2[:, None] - s * cu2) ** 2
    k = np.argmin(d2, axis=1)
    rows = np.arange(len(k))
    match = np.mean((e1 == cu1[rows, k]) & (e2 == cu2[rows, k]))
    gen = make_generator(params)
    scalar_ok = all(
        exact_nearest_point(Point2(x1[i], x2[i]), gen)
        == exact_nearest_point(Point2(x1[i], x2[i]), gen, window=5)
        for i in range(0, 100_000, 500)
    )
    ok = match == 1.0 and scalar_ok
    _report("A10", ok, f"5x5-window result matched 11x11 brute force on "
                       f"{match * 100:.1f}% of 10^5 points (need 100%)")


def test_a11_geometric_halting_law():
    params = _params(0.3)
    idx = np.arange(9_000_000, dtype=np.uint64)
    x1, x2 = sample_cell_arrays(params, idx, SEED + 1)
    out = run_batch_infinite(params, x1, x2)
    cond = out["extra_rounds"][out["entered_error_rect"] & out["halted"]]
    m = len(cond)
    ok = m >= 1_000_000
    zs = []
    for n in range(1, 11):
        p = 2.0**-n
        phat = float(np.mean(cond == n))
        z = (phat - p) / math.sqrt(p * (1 - p) / m)
        zs.append(z)
        ok &= abs(z) <= 3.0
    _report(
        "A11",
        ok,
        f"{m} conditioned trials; z(n=1..10) = "
        + ", ".join(f"{z:+.2f}" for z in zs),
    )
