"""Projection constants by exact linear programming.

Every projection of Q^N onto the subspace V annihilated by the columns
of F has the form P = I - Y F^T with F^T Y = I.  Minimizing the largest
absolute row sum of P over such Y is a linear program once row sums are
majorized entrywise by a slack matrix T; its exact optimum is the
projection constant.  The LP layout (variable order, constraint order)
is fixed so results are reproducible."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .canonical import SubspaceSpec, admissible_sets, canonical_family
from .errors import (
    ContractError,
    InadmissibleSetError,
    InternalConsistencyError,
)
from .linalg import (
    IndexSet,
    Matrix,
    det,
    inverse,
    op_norm_inf,
)
from .lp import LpProblem, LpSolution, LpStatus, solve

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class ProjectionResult:
    """A minimal-norm projection onto the subspace.

    constant is the projection constant (the LP optimum, always >= 1),
    projection is P = I - Y F^T for the optimal right inverse Y, and
    certificate carries the LP solution whose duals prove optimality
    for program."""

    constant: Fraction
    projection: Matrix
    right_inverse: Matrix
    certificate: LpSolution
    program: LpProblem


def minimal_projection_program(spec: SubspaceSpec) -> LpProblem:
    """The LP whose optimum is the projection constant.

    Variables, in order: Y entries row-major (N*m of them, free), then
    the slack matrix T row-major (N*N, nonnegative), then the objective
    scalar t (nonnegative; both sign restrictions are implied by the
    constraints and cost nothing).  Constraints, in order: F^T Y = I
    entrywise, P <= T entrywise, -P <= T entrywise, then row sums of T
    at most t."""
    mat = spec.annihilator
    n, m = spec.ambient, spec.codim

    def y_col(i: int, k: int) -> int:
        return i * m + k

    def t_col(i: int, j: int) -> int:
        return n * m + i * n + j

    t_scalar = n * m + n * n
    nvars = t_scalar + 1
    objective = [_ZERO] * nvars
    objective[t_scalar] = _ONE

    rows = []
    senses = []
    rhs = []
    # F^T Y = I
    for j in range(m):
        for k in range(m):
            row = [_ZERO] * nvars
            for i in range(n):
                row[y_col(i, k)] = mat[i, j]
            rows.append(row)
            senses.append("==")
            rhs.append(_ONE if j == k else _ZERO)
    # P_ij <= T_ij with P = I - Y F^T
    for i in range(n):
        for j in range(n):
            row = [_ZERO] * nvars
            for k in range(m):
                row[y_col(i, k)] = -mat[j, k]
            row[t_col(i, j)] = -_ONE
            rows.append(row)
            senses.append("<=")
            rhs.append(-_ONE if i == j else _ZERO)
    # -P_ij <= T_ij
    for i in range(n):
        for j in range(n):
            row = [_ZERO] * nvars
            for k in range(m):
                row[y_col(i, k)] = mat[j, k]
            row[t_col(i, j)] = -_ONE
            rows.append(row)
            senses.append("<=")
            rhs.append(_ONE if i == j else _ZERO)
    # row sums of T bounded by t
    for i in range(n):
        row = [_ZERO] * nvars
        for j in range(n):
            row[t_col(i, j)] = _ONE
        row[t_scalar] = -_ONE
        rows.append(row)
        senses.append("<=")
        rhs.append(_ZERO)

    lower: list[Optional[Fraction]] = [None] * (n * m) + [_ZERO] * (n * n + 1)
    return LpProblem.build(objective, rows, senses, rhs, lower=lower)


def projection_constant(spec: SubspaceSpec) -> ProjectionResult:
    """Solve the minimal projection LP exactly."""
    program = minimal_projection_program(spec)
    solution = solve(program)
    if solution.status is not LpStatus.OPTIMAL or solution.x is None:
        raise InternalConsistencyError(
            f"the projection program must have an optimum, got {solution.status}"
        )
    n, m = spec.ambient, spec.codim
    x = solution.x
    right_inverse = Matrix(
        [x[i * m : (i + 1) * m] for i in range(n)]
    )
    projection = Matrix.identity(n) - right_inverse @ spec.annihilator.transpose()
    constant = op_norm_inf(projection)
    if constant != solution.objective_value:
        raise InternalConsistencyError(
            "LP optimum differs from the norm of the projection it returned"
        )
    if constant < 1:
        raise InternalConsistencyError("projection constant below 1")
    return ProjectionResult(constant, projection, right_inverse, solution, program)


def projection_norm(spec: SubspaceSpec, candidate: Matrix) -> Fraction:
    """Operator norm of a projection onto the subspace.

    Validates the contract first: candidate must be square of the right
    size, idempotent, annihilated by F^T, and the identity on V."""
    n = spec.ambient
    if candidate.rows != n or candidate.cols != n:
        raise ContractError("projection has the wrong shape")
    if candidate @ candidate != candidate:
        raise ContractError("candidate is not idempotent")
    ft = spec.annihilator.transpose()
    if ft @ candidate != Matrix.zeros(spec.codim, n):
        raise ContractError("candidate does not map into the subspace")
    for column in spec.spanning_columns():
        image = candidate @ Matrix.column_vector(column)
        if image != Matrix.column_vector(column):
            raise ContractError("candidate does not fix the subspace")
    return op_norm_inf(candidate)


def good_index_set(spec: SubspaceSpec, right_inverse: Matrix) -> IndexSet:
    """Lexicographically first index set whose row blocks of both the
    annihilator and the right inverse are invertible.

    Such a set exists because the products of the two block determinants
    sum to det(F^T Y) = 1 over all sets."""
    mat = spec.annihilator
    n, m = spec.ambient, spec.codim
    if right_inverse.rows != n or right_inverse.cols != m:
        raise ContractError("right inverse has the wrong shape")
    if mat.transpose() @ right_inverse != Matrix.identity(m):
        raise ContractError("matrix is not a right inverse of the annihilator")
    for index_set, _ in admissible_sets(spec):
        if det(right_inverse.take_rows(index_set)) != 0:
            return index_set
    raise InternalConsistencyError(
        "no index set with both blocks invertible; the determinant "
        "products sum to 1, so this cannot happen"
    )


@dataclass(frozen=True)
class GapReport:
    """Relates canonical-vector norms at one index set to the projection
    constant: excess is the largest canonical 1-norm minus 1, bound is
    1 + (constant - 1) * amplification, and amplification is the norm of
    the inverse of section = Y_S F_S^T (which equals I minus the S-block
    of the projection)."""

    index_set: IndexSet
    excess: Fraction
    bound: Fraction
    amplification: Fraction
    section: Matrix

    @property
    def holds(self) -> bool:
        return self.excess <= self.bound


def verify_norm_gap(
    spec: SubspaceSpec,
    result: ProjectionResult,
    index_set: Optional[IndexSet] = None,
) -> GapReport:
    """Build the gap report for one index set (default: good_index_set).

    Raises InadmissibleSetError when the section is singular and
    InternalConsistencyError if the section identity fails, which exact
    arithmetic forbids."""
    y = result.right_inverse
    if index_set is None:
        index_set = good_index_set(spec, y)
    block = spec.annihilator.take_rows(index_set)
    section = y.take_rows(index_set) @ block.transpose()
    m = spec.codim
    p_block = Matrix(
        [
            [result.projection[k - 1, l - 1] for l in index_set]
            for k in index_set
        ]
    )
    if Matrix.identity(m) - p_block != section:
        raise InternalConsistencyError(
            "section identity failed: Y_S F_S^T != I - P_S"
        )
    if det(section) == 0:
        raise InadmissibleSetError(f"section at {index_set} is singular")
    amplification = op_norm_inf(inverse(section))
    family = canonical_family(spec, index_set)
    excess = max(family.norms().values()) - 1
    bound = _ONE + (result.constant - 1) * amplification
    return GapReport(index_set, excess, bound, amplification, section)
