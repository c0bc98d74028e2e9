"""Projection constants, by closed form for hyperplanes and by exact
linear programming otherwise.

Every projection of Q^N onto the subspace V annihilated by the columns
of F has the form P = I - Y F^T with F^T Y = I.  Minimizing the largest
absolute row sum of P over such Y is a linear program once row sums are
majorized entrywise by a slack matrix T; its exact optimum is the
projection constant.  The LP layout (variable order, constraint order)
is fixed so results are reproducible, and written once, in _Layout:
minimal_projection_program, the crash start, the hyperplane closed form
and the reading of Y from a solution all index through it.

For codimension m >= 2 the program is solved by the simplex in lp,
started from a coordinate projection instead of from phase 1.  Each
index set S whose block F_S is invertible gives the right inverse Y_S,
equal to F_S^{-T} on the rows of S and zero elsewhere, and the
projection P_S = I - Y_S F^T, whose norm is the per-set distance bound
of bounds (rows outside S are unit rows; row i in S is zero on S and
minus the canonical vector of i off it).  The point Y = Y_S,
T = |P_S| entrywise, t = the norm of P_S is feasible, and the crash
pivots of _crash_start make it a basis: each Y_ik with i in S on a
free row of the F^T Y = I block of column k, with the split column of
its sign; T_ij on its P <= T row when P_ij >= 0 and on its -P <= T row
otherwise, for every nonzero P_ij and every diagonal entry, so that
every artificial leaves the basis; t on the row-sum row of the first
largest row.  S is best_set of
bounds.best_upper_bound, the set with the smallest norm, so phase 2
starts at the best bound the coordinate sections offer; starting at the
first admissible set instead cost a third more phase-2 pivots on seeded
instances.  A caller that already holds that report passes its best_set
to projection_constant, so the scan runs once.  The start changes only the route: the program, its optimum
and the certificate check are the same, though the optimal vertex
reached may differ from a cold start's.

For a hyperplane (m = 1, F a single column f) the optimal point and an
optimal dual of the same program are written down directly (Blatter and
Cheney 1974) and the simplex does not run.  Let g_i = |f_i| / |f|_1 and
s_i the sign of f_i (+1 when f_i = 0).

* Some g_p >= 1/2 (take the first): y = e_p / f_p and the constant is 1.
  The dual certificate is Z = e_k (e_k - (f_k / f_p) e_p)^T with nu = 0,
  k the first index other than p.
* Otherwise, with c = 1 / sum_i g_i / (1 - 2 g_i), the constant is
  1 + c, attained by y_i = s_i c / ((1 - 2 g_i) |f|_1).  The dual is
  nu = c and Z with a_i = c g_i / (1 - 2 g_i) on the diagonal and
  -a_i s_i s_j off it.

Here nu is the multiplier of the row f^T y = 1 and Z an N x N matrix
with Z f = -nu f, trace 1 and sum_i max_j |Z_ij| = 1, so its dual bound
is nu + trace Z.  Z_ij is split over the rows P_ij <= T_ij and
-P_ij <= T_ij as -max(Z_ij, 0) and -max(-Z_ij, 0), and row i of the
row-sum block gets -max_j |Z_ij|.  The pair is an ordinary LpSolution, so
lp.verify_certificate checks it exactly like a simplex answer."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .bounds import best_upper_bound
from .canonical import SubspaceSpec, admissible_sets, canonical_family
from .errors import (
    ContractError,
    InadmissibleSetError,
    InternalConsistencyError,
    SingularMatrixError,
)
from .linalg import (
    IndexSet,
    Matrix,
    det,
    inverse,
    op_norm_inf,
    vec_norm1,
)
from .lp import Crash, LpProblem, LpSolution, LpStatus, solve

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class ProjectionResult:
    """A minimal-norm projection onto the subspace.

    constant is the projection constant (the optimum of program, always
    >= 1), projection is P = I - Y F^T for the optimal right inverse Y,
    and certificate is an optimal LpSolution of program whose duals
    prove optimality.  method names the route: "hyperplane" when m = 1
    and the primal and dual were built in closed form (certificate.stats
    is then None), "lp" when the simplex solved program."""

    constant: Fraction
    projection: Matrix
    right_inverse: Matrix
    certificate: LpSolution
    program: LpProblem
    method: str


@dataclass(frozen=True)
class _Layout:
    """Where each variable and each row of minimal_projection_program
    sits for an N x m annihilator (N = n); every index into the
    program's variables, rows and duals goes through here.

    Variables, in order: Y entries row-major (N*m of them, free), then
    the slack matrix T row-major (N*N, nonnegative), then the objective
    scalar t (nonnegative; both sign restrictions are implied by the
    constraints and cost nothing).  Rows, in order: F^T Y = I entrywise
    (m*m, row-major), P <= T entrywise, -P <= T entrywise (N*N each,
    row-major), then the row sums of T at most t (N)."""

    n: int
    m: int

    def y(self, i: int, k: int) -> int:
        return i * self.m + k

    def t(self, i: int, j: int) -> int:
        return self.n * self.m + i * self.n + j

    @property
    def scalar(self) -> int:
        return self.n * self.m + self.n * self.n

    @property
    def nvars(self) -> int:
        return self.scalar + 1

    def identity_row(self, j: int, k: int) -> int:
        """The row (F^T Y)_jk = delta_jk."""
        return j * self.m + k

    def upper_row(self, i: int, j: int) -> int:
        """The row P_ij <= T_ij."""
        return self.m * self.m + i * self.n + j

    def lower_row(self, i: int, j: int) -> int:
        """The row -P_ij <= T_ij."""
        return self.upper_row(i, j) + self.n * self.n

    def sum_row(self, i: int) -> int:
        """The row sum_j T_ij <= t."""
        return self.m * self.m + 2 * self.n * self.n + i

    @property
    def nrows(self) -> int:
        return self.sum_row(self.n)


def minimal_projection_program(spec: SubspaceSpec) -> LpProblem:
    """The LP whose optimum is the projection constant: minimize t over
    Y, T and t with F^T Y = I, P <= T and -P <= T entrywise for
    P = I - Y F^T, and every row sum of T at most t, laid out as _Layout
    says."""
    mat = spec.annihilator
    n, m = spec.ambient, spec.codim
    lay = _Layout(n, m)
    f_rows = [mat.row(i) for i in range(n)]
    objective = [_ZERO] * lay.nvars
    objective[lay.scalar] = _ONE
    lower: list[Optional[Fraction]] = [_ZERO] * lay.nvars
    rows: list[tuple] = [()] * lay.nrows
    senses = ["<="] * lay.nrows
    rhs = [_ZERO] * lay.nrows
    for j in range(m):
        for k in range(m):
            r = lay.identity_row(j, k)
            rows[r] = tuple((lay.y(i, k), f_rows[i][j]) for i in range(n))
            senses[r] = "=="
            if j == k:
                rhs[r] = _ONE
    for i in range(n):
        for k in range(m):
            lower[lay.y(i, k)] = None
        for j, f in enumerate(f_rows):
            # P_ij = delta_ij - sum_k Y_ik F_jk
            ys = tuple((lay.y(i, k), a) for k, a in enumerate(f))
            slack = (lay.t(i, j), -_ONE)
            rows[lay.upper_row(i, j)] = (*((c, -a) for c, a in ys), slack)
            rows[lay.lower_row(i, j)] = (*ys, slack)
            if i == j:
                rhs[lay.upper_row(i, j)] = -_ONE
                rhs[lay.lower_row(i, j)] = _ONE
        rows[lay.sum_row(i)] = (
            *((lay.t(i, j), _ONE) for j in range(n)), (lay.scalar, -_ONE)
        )
    return LpProblem.build(objective, rows, senses, rhs, lower=lower)


def coordinate_projection(
    spec: SubspaceSpec, index_set: IndexSet
) -> tuple[Matrix, Matrix]:
    """The right inverse Y_S (F_S^{-T} on the rows of index_set, zero
    elsewhere) and the projection P_S = I - Y_S F^T of one index set.

    The norm of P_S is bounds.distance_bound_for_set(spec, index_set).
    Raises InadmissibleSetError when the block F_S is singular."""
    mat = spec.annihilator
    n = spec.ambient
    try:
        block_inverse = inverse(mat.take_rows(index_set).transpose())
    except SingularMatrixError:
        raise InadmissibleSetError(f"block at {index_set} is singular") from None
    f_rows = [mat.row(j) for j in range(n)]
    y_rows = [(_ZERO,) * spec.codim] * n
    p_rows = [[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)]
    # only the rows of S differ from the identity and from zero
    for r, member in enumerate(index_set):
        i = member - 1
        y_rows[i] = y = block_inverse.row(r)
        p_rows[i] = [
            (_ONE if i == j else _ZERO) - sum(a * b for a, b in zip(y, f))
            for j, f in enumerate(f_rows)
        ]
    return Matrix(y_rows), Matrix(p_rows)


def _crash_start(
    index_set: IndexSet, right_inverse: Matrix, projection: Matrix
) -> list[Crash]:
    """Crash pivots that make the point Y = Y_S, T = |P_S| entrywise,
    t = the norm of P_S a basis of minimal_projection_program (see the
    module docstring)."""
    n, m = right_inverse.rows, right_inverse.cols
    lay = _Layout(n, m)
    start = []
    for i in (member - 1 for member in index_set):
        for k in range(m):
            side = 1 if right_inverse[i, k] >= 0 else -1
            rows = tuple(lay.identity_row(j, k) for j in range(m))
            start.append(Crash(lay.y(i, k), rows, side))
    for i in range(n):
        for j in range(n):
            value = projection[i, j]
            if value or i == j:
                row = lay.upper_row(i, j) if value >= 0 else lay.lower_row(i, j)
                start.append(Crash(lay.t(i, j), (row,)))
    sums = [vec_norm1(projection.row(i)) for i in range(n)]
    widest = sums.index(max(sums))
    start.append(Crash(lay.scalar, (lay.sum_row(widest),)))
    return start


def _hyperplane_solution(f: tuple[Fraction, ...]) -> LpSolution:
    """The optimal point and dual of minimal_projection_program for the
    single annihilator column f, in closed form (see the module
    docstring)."""
    n = len(f)
    sizes = [abs(v) for v in f]
    norm = sum(sizes, _ZERO)
    signs = [-1 if v < 0 else 1 for v in f]
    p = next((i for i, a in enumerate(sizes) if 2 * a >= norm), None)
    z = [[_ZERO] * n for _ in range(n)]
    if p is not None:
        constant, nu = _ONE, _ZERO
        y = [_ZERO] * n
        y[p] = 1 / f[p]
        k = 1 if p == 0 else 0
        z[k][k] = _ONE
        z[k][p] = -f[k] / f[p]
    else:
        weights = [a / (norm - 2 * a) for a in sizes]  # g / (1 - 2g)
        nu = 1 / sum(weights, _ZERO)
        constant = 1 + nu
        y = [s * nu / (norm - 2 * a) for s, a in zip(signs, sizes)]
        for i, row in enumerate(z):
            # a_i on the diagonal, -a_i s_i s_j off it
            a = nu * weights[i]
            row[:] = (a if s != signs[i] else -a for s in signs)
            row[i] = a
    lay = _Layout(n, 1)
    x = [_ZERO] * lay.nvars
    duals = [_ZERO] * lay.nrows
    x[lay.scalar] = constant
    duals[lay.identity_row(0, 0)] = nu
    for i, row in enumerate(z):
        x[lay.y(i, 0)] = y[i]
        for j, e in enumerate(row):
            # T = |P| with P = I - y f^T
            x[lay.t(i, j)] = abs((_ONE if i == j else _ZERO) - y[i] * f[j])
            if e > 0:
                duals[lay.upper_row(i, j)] = -e
            elif e < 0:
                duals[lay.lower_row(i, j)] = e
        duals[lay.sum_row(i)] = -max(abs(e) for e in row)
    return LpSolution(LpStatus.OPTIMAL, tuple(x), constant, tuple(duals))


def projection_constant(
    spec: SubspaceSpec, best_set: Optional[IndexSet] = None
) -> ProjectionResult:
    """The projection constant with an exact optimality certificate for
    minimal_projection_program(spec): in closed form for a hyperplane,
    otherwise by the simplex started at the coordinate projection of
    best_set.

    best_set defaults to the best set of bounds.best_upper_bound(spec);
    a caller that already holds that report passes its best_set so the
    scan runs once.  Any admissible set gives a valid start; a singular
    block raises InadmissibleSetError.  A hyperplane ignores it."""
    program = minimal_projection_program(spec)
    if spec.codim == 1:
        solution = _hyperplane_solution(spec.annihilator.column(0))
        method = "hyperplane"
    else:
        if best_set is None:
            best_set = best_upper_bound(spec).best_set
        start = _crash_start(best_set, *coordinate_projection(spec, best_set))
        solution = solve(program, start)
        method = "lp"
    if solution.status is not LpStatus.OPTIMAL or solution.x is None:
        raise InternalConsistencyError(
            f"the projection program must have an optimum, got {solution.status}"
        )
    n, m = spec.ambient, spec.codim
    lay = _Layout(n, m)
    x = solution.x
    right_inverse = Matrix(
        [[x[lay.y(i, k)] for k in range(m)] for i in range(n)]
    )
    projection = Matrix.identity(n) - right_inverse @ spec.annihilator.transpose()
    constant = op_norm_inf(projection)
    if constant != solution.objective_value:
        raise InternalConsistencyError(
            "LP optimum differs from the norm of the projection it returned"
        )
    if constant < 1:
        raise InternalConsistencyError("projection constant below 1")
    return ProjectionResult(
        constant, projection, right_inverse, solution, program, method
    )


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
