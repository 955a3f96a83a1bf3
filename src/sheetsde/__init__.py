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
    Cell,
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
    values,
)
from .kernels import (
    DEFAULT_C0,
    KernelCell,
    abs_gradient_l1,
    density,
    gradient_component,
    hermite_weight,
    log_density,
)
from .integrators import (
    DEFAULT_C1,
    GammaBound,
    McEstimate,
    TimeWindow,
    corollary_rhs,
    log_gamma,
    merge_estimates,
    monte_carlo,
    simplex_dirichlet_oracle,
    simplex_singular_integral,
)
from .ibp_engine import (
    EmptySelectionError,
    GammaTauAssignment,
    IbpTerm,
    PermutationSpec,
    all_permutation_specs,
    assert_shift_lemmas,
    crossing_set,
    expand,
    gamma_tau,
    orientation_points,
    span,
    spec_variances,
    staircase,
    term_to_dict,
    uniform_spec,
)
from .shuffle_combinatorics import (
    BlockIncreasingFamily,
    DegenerateTiesError,
    NotInProductError,
    PartitionReport,
    RegionDescriptor,
    SplitIndexFamily,
    enumerate_block_increasing,
    enumerate_split_family,
    locate_cell_batch,
    locate_cell_split_batch,
    membership_batch,
    partition_report,
    product_identity_check,
    sample_region_batch,
)
from .estimate_lab import (
    CorollaryReport,
    DriftScalarFactor,
    IdentityReport,
    bump_factor,
    corollary_check,
    corollary_scaling_slope,
    davie_bound,
    direct_expectation,
    gaussian_factor,
    ibp_expectation,
    verify_identity,
)
from .sde_plane import (
    DriftField,
    MalliavinField,
    MissingJacobianError,
    NonConvergenceError,
    SolutionField,
    WeakComparison,
    constant_drift,
    malliavin_adjoint,
    malliavin_solve,
    paired_weak_expectation,
    sign_drift,
    solve_euler,
    solve_picard,
    tanh_drift,
    zero_drift,
)

# the public surface, sorted; tests/test_package.py keeps it in step with the imports
__all__ = [
    "BlockIncreasingFamily", "Cell", "CorollaryReport", "DEFAULT_C0", "DEFAULT_C1",
    "DegenerateGridError", "DegenerateTiesError", "DriftField", "DriftScalarFactor",
    "EmptySelectionError", "GammaBound", "GammaTauAssignment", "GridPartition",
    "IbpTerm", "IdentityReport", "KernelCell", "MalliavinField", "McEstimate",
    "MissingJacobianError", "NonConvergenceError", "NotInProductError",
    "PartitionReport", "PermutationSpec", "RegionDescriptor", "SheetSample",
    "SolutionField", "SplitIndexFamily", "TimeWindow", "WeakComparison",
    "abs_gradient_l1", "all_permutation_specs", "assert_shift_lemmas", "bump_factor",
    "cameron_martin_shift", "coarsen", "constant_drift", "corollary_check",
    "corollary_rhs", "corollary_scaling_slope", "crossing_set", "cumulative_values",
    "davie_bound", "density", "direct_expectation", "enumerate_block_increasing",
    "enumerate_split_family", "expand", "export_csv", "gamma_tau", "gaussian_factor",
    "geometric_grid", "gradient_component", "hermite_weight", "ibp_expectation",
    "locate_cell_batch", "locate_cell_split_batch", "log_density", "log_gamma",
    "malliavin_adjoint", "malliavin_solve", "membership_batch", "merge_estimates",
    "monte_carlo", "orientation_points", "paired_weak_expectation", "partition_report",
    "product_identity_check", "sample", "sample_region_batch", "sign_drift",
    "simplex_dirichlet_oracle", "simplex_singular_integral", "solve_euler",
    "solve_picard", "span", "spec_variances", "staircase", "stream", "tanh_drift",
    "term_to_dict", "uniform_grid", "uniform_spec", "values", "verify_identity",
    "zero_drift",
]
