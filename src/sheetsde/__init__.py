"""Numerics for SDEs on the plane driven by a Brownian sheet.

The package samples the sheet on rectangular grids, solves the
two-parameter SDE by corner Euler and Picard schemes, propagates
directional (Malliavin-type) derivatives, reweights by the Girsanov
factor, and, centrally, builds and numerically verifies the
rectangle-selection integration-by-parts expansion together with its
product bound, shuffle-partition combinatorics, and singular simplex
integrals.
"""

__version__ = "0.1.0"

from .plane_geometry import (
    DegenerateGridError,
    GridPartition,
    geometric_grid,
    uniform_grid,
)
from .brownian_sheet import (
    SheetSample,
    cameron_martin_shift,
    coarsen,
    cumulative_values,
    export_csv,
    sample,
    stream,
)
from .integrators import (
    McEstimate,
    monte_carlo,
    simplex_dirichlet_oracle,
    simplex_singular_integral,
)
from .ibp_engine import (
    EmptySelectionError,
    PermutationSpec,
    TermTable,
    crossing_set,
    expand,
    span,
    spec_variances,
    staircase,
    uniform_spec,
)
from .shuffle_combinatorics import (
    DegenerateTiesError,
    NotInProductError,
    PartitionReport,
    RegionDescriptor,
    enumerate_block_increasing,
    locate_cell_batch,
    membership_batch,
    partition_report,
    sample_region_batch,
)
from .estimate_lab import (
    DEFAULT_C0,
    IdentityReport,
    abs_gradient_l1,
    bump_factor,
    davie_bound,
    direct_expectation,
    gaussian_factor,
    ibp_expectation,
    sign_direct_expectation,
    verify_identity,
)
from .sde_plane import (
    DriftField,
    DriftScalarFactor,
    MissingJacobianError,
    NonConvergenceError,
    SolutionField,
    WeakComparison,
    constant_drift,
    malliavin_adjoint,
    paired_weak_expectation,
    sign_drift,
    solve_euler,
    solve_picard,
    tanh_drift,
)

# the public surface, sorted; tests/test_package.py keeps it in step with the imports
__all__ = [
    "DEFAULT_C0", "DegenerateGridError",
    "DegenerateTiesError", "DriftField", "DriftScalarFactor", "EmptySelectionError",
    "GridPartition", "IdentityReport", "McEstimate",
    "MissingJacobianError", "NonConvergenceError", "NotInProductError",
    "PartitionReport", "PermutationSpec", "RegionDescriptor", "SheetSample",
    "SolutionField", "TermTable", "WeakComparison",
    "abs_gradient_l1", "bump_factor",
    "cameron_martin_shift", "coarsen", "constant_drift", "crossing_set", "cumulative_values",
    "davie_bound", "direct_expectation", "enumerate_block_increasing",
    "expand", "export_csv", "gaussian_factor",
    "geometric_grid", "ibp_expectation",
    "locate_cell_batch",
    "malliavin_adjoint", "membership_batch",
    "monte_carlo", "paired_weak_expectation", "partition_report",
    "sample", "sample_region_batch", "sign_direct_expectation", "sign_drift",
    "simplex_dirichlet_oracle", "simplex_singular_integral", "solve_euler",
    "solve_picard", "span", "spec_variances", "staircase", "stream", "tanh_drift",
    "uniform_grid", "uniform_spec", "verify_identity",
]
