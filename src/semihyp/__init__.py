"""Exact-arithmetic toolkit for finite semihypergroups.

Convolution algebras over a finite point space, structural axiom checks,
left invariant means by exact linear programming, and affine actions on
convex carriers with common fixed-point solving.  Everything is computed
over `fractions.Fraction`, so every verdict is exact.
"""

from .algebra import (
    CheckReport,
    ConvolutionTable,
    DimensionMismatch,
    Mean,
    Measure,
    PointSpace,
    PreconditionError,
    Semihypergroup,
    UnknownLabel,
    check_associativity,
    check_commutative,
    check_probability,
    convolve,
    convolve_sets,
    find_identity,
    generating_points,
    opposite,
    point_mass,
    zero_measure,
)
from .construct import (
    CayleyTable,
    ConstraintViolation,
    GroupAction,
    InvalidActionError,
    NotASubgroupError,
    NotAssociativeError,
    coset_space,
    cyclic_group,
    double_coset_space,
    from_semigroup,
    inversion_action,
    left_zero_semigroup,
    orbit_space,
    symmetric_group,
    triple_hypergroup,
)
from .functions import (
    PointFunction,
    TranslationMatrix,
    averaged_translate,
    constant_function,
    indicator,
    left_translate,
    translation_matrix,
)
from .linprog import LPProblem, LPSolution, solve_linear_system, solve_lp_feasibility
from .amenability import (
    find_left_invariant_mean,
    is_left_amenable,
    left_invariance_problem,
    left_invariant_mean_solution,
    uniform_mean,
    verify_left_invariant_mean,
)
from .actions import (
    AffineAction,
    AffineFunctional,
    AffineMap,
    CarrierError,
    DualAction,
    Hull,
    IterationResult,
    Seminorm,
    Simplex,
    canonical_means_action,
    check_action_axiom,
    check_invariance,
    check_nonexpansive,
    common_fixed_point_solution,
    dual_action,
    equicontinuity_bound,
    find_common_fixed_point,
    induced_function,
    iterate_fixed_point,
    mean_via_dual_action,
    operator_seminorm,
    uniform_seminorms,
)

__version__ = "0.1.0"
