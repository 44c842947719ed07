"""Refining a 2-D nearest-plane (Babai) partition into the Voronoi partition.

Two nodes each hold one coordinate of a point known to lie in the
zero-centred Babai cell of a plane lattice.  This package provides the exact
cell geometry, the closed-form error/rate analysis of the single-round
interactive refinement schemes (in both speaking orders) and of the
zero-error infinite-round scheme, executable protocol state machines with
ideal-codelength transcripts, and deterministic Monte Carlo estimators that
cross-validate every formula.
"""

from .analytics import (
    Distribution,
    Scheme12Coefficients,
    TradeoffPoint,
    asymptotic_constant_12,
    asymptotic_constant_21,
    beta_21,
    bin_edges_12,
    bin_edges_21,
    budget_point,
    coefficients_12,
    curve_point,
    entropy,
    kappa_12,
    kappa_21,
    nbar_infinite,
    optimal_n1,
    pe_12,
    pe_21,
    pe_at_rate,
    rate_12,
    rate_21,
    rbar_infinite,
    round1_distributions,
    tradeoff_curve_12,
)
from .errors import (
    BabaiRefineError,
    BudgetTooSmall,
    DegenerateInterval,
    InvalidDistribution,
    InvalidParams,
    OutOfCell,
    QuadratureFailure,
)
from .lattice import (
    BoundarySegment,
    CellGeometry,
    CrossSection,
    CutSpec,
    Generator,
    IntegerPair,
    LatticeParams,
    Point2,
    babai_error_probability,
    babai_nearest_plane,
    cell_geometry,
    cross_section,
    exact_nearest_point,
    in_voronoi_cell,
    lattice_point,
    make_generator,
    relevant_vectors,
    row_cuts,
    strip_cuts,
)
from .montecarlo import (
    SimConfig,
    SimReport,
    babai_batch,
    derive_seed,
    exact_nearest_batch,
    run_batch_12,
    run_batch_21,
    run_batch_infinite,
    sample_cell_arrays,
    sample_uniform_babai_cell,
    simulate,
)
from .protocols import (
    ErrorRectangle,
    Message,
    Quantizer,
    Transcript,
    error_rectangle,
    quantizer_12,
    quantizer_21,
    replay_decision,
    run_infinite_rounds,
    run_single_round_12,
    run_single_round_21,
    transcript_from_json,
    transcript_to_json,
)

# Nothing in the package calls quadrature any more; it is still imported with
# the package because perfbench/tracing.py wraps quadrature.adaptive_simpson.
from . import quadrature  # noqa: F401

__version__ = "0.1.0"
