"""Numerical laboratory for elliptic interface problems on wedge domains."""

__version__ = "0.1.0"

from .geometry import (
    DomainSpec,
    GeometryError,
    Mesh,
    Wedge,
    generate_mesh,
    generate_nonobtuse_mesh,
    make_wedge,
    sector,
)
from .exact_solutions import (
    Barrier,
    Corrector,
    SeparableSolution,
    build_dirichlet_example,
    corrector_solve,
    singular_exponent,
    singular_exponents,
    transmission_coeffs,
)
from .norms import (
    NormParams,
    NormReport,
    SampledField,
    weighted_norm,
    weighted_seminorm_k0,
    weighted_seminorm_kalpha,
)
from .fem import (
    ErrorReport,
    FemSolution,
    PiecewiseCoefficient,
    ProblemSpec,
    SparseSystem,
    assemble,
    coefficient_jump,
    error_report,
    solve_cg,
    solve_on_mesh,
    solve_problem,
)
from .analysis import (
    ComparisonReport,
    EstimateRatio,
    ExponentFit,
    comparison_check,
    estimate_ratio_corner,
    estimate_ratio_global,
    estimate_ratio_interior,
    fit_corner_exponent,
    interface_flux_jump,
)
