"""Finite-difference laboratory for quasilinear Dirichlet problems.

plaplab assembles, on uniform box grids, every ingredient of the
sub-supersolution existence analysis for

    -div(|grad u|^(p-2) grad u) = lambda*h(x, u) + beta*f(x, u, |grad u|),
    u = 0 on the boundary, u > 0 inside,

with sublinear h and gradient-dependent f subject to weighted growth bounds:
the p-Laplacian solver itself, the torsion function and first eigenpair of the
weighted operator, the explicit constants and the (lambda, beta) existence
region they define, and the monotone inner / fixed-point outer iteration whose
limits come with checkable certificates.
"""

from .constants import (
    ConstantsBundle,
    RegionVerdict,
    barrier_height,
    barrier_value,
    combined_weight,
    compute_constants,
    growth_case,
    region_boundary,
    region_classify,
    super_threshold,
)
from .errors import (
    ConfigurationError,
    EigenFailure,
    EstimateFailure,
    GridMismatchError,
    HypothesisViolationError,
    InvariantViolation,
    IterationFailure,
    MonotonicityError,
    OutOfRegionError,
    PlapLabError,
    ProblemFileError,
    SolveFailure,
    StaleGradConstantError,
)
from .expr import (
    EvalError,
    ParseError,
    ProblemSpec,
    bundled_problem_path,
    evaluate,
    evaluate_on,
    list_bundled_problems,
    load_problem,
    parse,
    sample_weights,
    validate_hypotheses,
)
from .grid import (
    Grid,
    ScalarField,
    VectorField,
    build_grid,
    field_from_function,
    flux_delta,
    gradient,
    integrate,
    p_laplacian_apply,
    sup_norm,
    zero_field,
)
from .plap import (
    GradConstantEstimate,
    SolveOptions,
    assert_gradient_bound,
    default_probes,
    estimate_grad_constant,
    solve_plap_dirichlet,
)
from .scheme import (
    Certificates,
    FrozenNonlinearity,
    SolveReport,
    freeze_nonlinearity,
    inner_monotone_solve,
    make_epsilon,
    outer_fixed_point,
    picone_diagnostic,
    verify_solution_bounds,
    verify_subsuper,
)
from .spectral import (
    EigenPair,
    TorsionResult,
    first_eigenpair,
    torsion_function,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
