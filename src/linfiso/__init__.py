"""Exact decision procedures for sup-norm subspace isometry.

Given an n-dimensional subspace V of Q^N with the sup norm, this package
decides in exact rational arithmetic whether V is isometrically
isomorphic to the sup-norm space of dimension n, produces certifying
index sets, bounds the distance when it is not, and computes the
projection constant of V by exact linear programming (in closed form
for a hyperplane).  Everything is pure Python; the hot loops (the
Bareiss determinant, the pivot of the revised simplex master and the
fraction-free exchange of the canonical-family scan) live in
linfiso._kernels."""

from .bounds import BoundReport, best_upper_bound, distance_bound_for_set
from .canonical import (
    CanonicalFamily,
    SubspaceSpec,
    admissible_sets,
    canonical_family,
    family_from_minors,
    minor_vectors,
    subspace_from_annihilator,
    subspace_from_spanning_set,
)
from .crosscheck import CrossCheckSummary, check_instance, run_crosscheck
from .decide import (
    DecisionReport,
    decide_by_minors,
    decide_hyperplane,
    decide_isometric,
)
from .instances import (
    Instance,
    format_instance,
    load_instance,
    parse_instance,
    random_instance,
)
from .linalg import (
    IndexSet,
    Matrix,
    as_rational,
    cauchy_binet_check,
    det,
    format_rational,
    inverse,
    nullspace_columns,
    op_norm_inf,
    rank,
    rref,
    vec_norm1,
)
from .lp import (
    LpProblem,
    LpSolution,
    LpStats,
    solve,
    verify_certificate,
)
from .projection import (
    GapReport,
    ProjectionResult,
    good_index_set,
    lp_certificate,
    minimal_projection_program,
    projection_constant,
    projection_norm,
    verify_norm_gap,
    verify_trace_duality,
)

__version__ = "0.1.0"
