"""Single-round refinement in both speaking orders.

One node quantizes its coordinate into bins and announces the bin; the
other compares its own coordinate against the decision boundary inside that
bin and answers with a ternary verdict.  Error probability falls like 1/N
in the bin counts; the rate grows logarithmically.  The speaking order
matters: the "21" order (vertical coordinate first) needs a single size
parameter and decays faster per bit here.
"""

import math

from babai_refine import (
    LatticeParams,
    Point2,
    SimConfig,
    asymptotic_constant_12,
    asymptotic_constant_21,
    coefficients_12,
    beta_21,
    pe_at_rate,
    quantizer_12,
    run_single_round_12,
    simulate,
    tradeoff_curve,
    transcript_to_json,
)

params = LatticeParams(rho=1.0, theta=math.acos(0.3))

co = coefficients_12(params)
print(f"12-order coefficients: pe = {co.alpha1:.6f}/N1 + {co.alpha2:.6f}/N2")
print(f"21-order coefficient:  pe = {beta_21(params):.6f}/N")
print()

# one transcript, spelled out
q = quantizer_12(params, 2, 3)
t = run_single_round_12(Point2(0.45, 0.45), params, q)
print("a 12-order transcript for x = (0.45, 0.45), N1=2, N2=3:")
print(" ", transcript_to_json(t))
print()

# the rate/error tradeoff, with the optimal N1 per N2
print("Pareto curve of the 12 scheme (N1 chosen per N2):")
print("  n1  n2   rate_bits     pe")
for p in tradeoff_curve(params, "12", 8):
    print(f"  {p.n1:2d}  {p.n2:2d}   {p.rate_bits:9.5f}   {p.pe:.6f}")
print(f"asymptotic constant of pe * 2^(R/(1-rcos)): {asymptotic_constant_12(params):.6f}")
print(f"same for the 21 scheme:                     {asymptotic_constant_21(params):.6f}")
print()

# both schemes at a common 4-bit budget
for scheme in ("12", "21"):
    below, interp = pe_at_rate(params, scheme, 4.0)
    print(f"scheme {scheme} at 4.0 bits: pe_below={below:.3e}  pe_interp={interp:.3e}")
print()

# Monte Carlo agrees with the closed forms
for scheme, kw in (("12", {"n1": 2, "n2": 3}), ("21", {"n": 4})):
    rep = simulate(
        SimConfig(params=params, scheme=scheme, trials=500_000, seed=7, **kw)
    )
    z = (rep.empirical_pe - rep.predicted_pe) / rep.empirical_pe_stderr
    print(
        f"scheme {scheme} {kw}: empirical pe {rep.empirical_pe:.6f} "
        f"vs formula {rep.predicted_pe:.6f}  (z = {z:+.2f})"
    )
