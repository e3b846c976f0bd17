"""Slab-geometry radiative transfer solver laboratory.

Deterministic and random ordinate discretizations of the isotropic-
scattering transport equation on a slab, with exact per-cell sweeps, a
certified direct solve, a dense operator laboratory, and convergence studies.
"""

from .angular import (
    QuadratureSet,
    VelocityPartition,
    build_partition,
    composite_gauss,
    dom_quadrature,
    reference_quadrature,
    rom_pair_block,
    rom_sample,
    uniform_stream,
)
from .config import StudyConfig
from .errors import (
    AlphaUnbounded,
    ConfigError,
    DeltaOutOfRange,
    LambdaAtLeastOne,
    LengthMismatch,
    NoConvergence,
    NonPositiveSigmaT,
    OddN,
    PureAbsorber,
    ReferenceNotConverged,
    RomlabError,
    TooFewPoints,
    ZeroMu,
)
from .medium import (
    BoundarySpec,
    ConstantBoundary,
    LinearBoundary,
    MediumProfile,
    SpatialGrid,
    TabulatedBoundary,
    make_medium,
    weighted_norm_of,
)
from .operators import (
    boundary_deviation_stats,
    gram_trace,
    iteration_deviation_stats,
    iteration_matrix,
    reference_boundary_average,
    reference_iteration_matrix,
    transport_matrix,
    weighted_adjoint,
    weighted_operator_norm,
)
from .solver import SolveReport, solve
from .sweep import angular_fluxes, apply_transport, boundary_term, sweep_direction
from .experiments import (
    ErrorRow,
    ErrorTable,
    RegularizationRow,
    SlopeFit,
    bias_study,
    certified_reference,
    deviation_study,
    dom_error_study,
    fit_slope,
    regularization_study,
    single_run_error_study,
)

__version__ = "0.1.0"
