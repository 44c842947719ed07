"""Tour of the lattice cell geometry.

A point x = (x1, x2) is decoded to a lattice point twice: the cheap
nearest-plane (Babai) rule rounds coordinate by coordinate and lands in a
rectangle; the true nearest-point rule lands in a hexagonal Voronoi cell.
Inside the zero-centred Babai rectangle the two disagree on four little
triangles hanging off the top and bottom edges.  This script prints all the
constants of that picture and checks them against first principles.
"""

import math

from babai_refine import (
    LatticeParams,
    Point2,
    babai_error_probability,
    babai_nearest_plane,
    cell_geometry,
    exact_nearest_point,
    strip_cuts,
)

params = LatticeParams(rho=1.0, theta=math.acos(0.3))
g = cell_geometry(params)

print(f"basis v1 = (1, 0)  v2 = (rcos, rsin) = ({params.rcos}, {params.rsin})  det = {params.rsin}")
print(f"Babai cell: (-1/2, 1/2] x (-{g.H / 2:.5f}, {g.H / 2:.5f}]")
print(f"x1 thresholds: t_m2={g.t_m2}  t_m1={g.t_m1}  t_1={g.t_1}  t_2={g.t_2}")
print(f"interval lengths: L0={g.L0}  L1={g.L1}  L2={g.L2}  (sum with mirrors = 1)")
print(f"heights: H1={g.H1:.6f} = H21 ({g.H21:.6f}) + H22 ({g.H22:.6f})")
print(f"x2 thresholds: tau_1 = H/2 - H1 = {g.tau_1:.6f}")
print()

print("boundary segments inside the cell (each is a Voronoi face):")
for seg in g.boundary_segments:
    print(
        f"  neighbor {tuple(seg.neighbor)}: slope {seg.slope:+.5f}, "
        f"x1 in ({seg.x1_span[0]:+.5f}, {seg.x1_span[1]:+.5f}]"
    )
print()

# where the two decoders disagree
x = Point2(0.45, 0.45)
print(f"point {tuple(x)}: Babai -> {tuple(babai_nearest_plane(x, params))}, "
      f"exact -> {tuple(exact_nearest_point(x, params))}")

# a vertical strip through the cell and its decision structure
for x1 in (0.0, 0.25, 0.45):
    spec = strip_cuts(params, x1)
    print(f"strip at x1={x1}: cuts={tuple(round(c, 5) for c in spec.cuts)} "
          f"labels={[tuple(l) for l in spec.labels]}")
print()

pe = babai_error_probability(params)
cot = math.cos(params.theta) / math.sin(params.theta)
print(f"Babai error probability H1/(2H):          {pe:.6f}")
print(f"as cot(1 - rho cos)/(4 rho sin):          "
      f"{cot * (1 - params.rcos) / (4 * params.rho * math.sin(params.theta)):.6f}")

hexa = LatticeParams(rho=1.0, theta=math.pi / 3 + 1e-6)
print(f"hexagonal limit: {babai_error_probability(hexa):.6f} (= 1/12)")
