"""Projection constants, by closed form for hyperplanes and by exact
linear programming otherwise.

Every projection of Q^N onto the subspace V annihilated by the columns
of F has the form P = I - Y F^T with F^T Y = I.  Minimizing the largest
absolute row sum of P over such Y is a linear program once row sums are
majorized entrywise by a slack matrix T; its exact optimum is the
projection constant.  The LP layout (variable order, constraint order)
is fixed so results are reproducible, and written once, in _Layout:
minimal_projection_program and lp_certificate, the one writer of the
certificate's point and duals, index through it.

Each index set S whose block F_S is invertible gives the right inverse
Y_S, equal to F_S^{-T} on the rows of S and zero elsewhere, and the
projection P_S = I - Y_S F^T, whose norm is the per-set distance bound
of bounds (rows outside S are unit rows; row i in S is zero on S and
minus the canonical vector of i off it).

For codimension m >= 2 the program is solved by delayed sign-vector
cuts (Kelley 1960) from P_S, S the best set of bounds.best_upper_bound;
a caller that already holds that report passes its best_set to
projection_constant, so the scan runs once.  Every right inverse is
Y = Y_S + K W, where K, the columns of P_S off S, spans V and is the
identity off S, and W is a free (N - m) x m matrix; then
P = P_S - K W F^T.  The master is min t over W and t >= 1 subject to
cuts sigma . P_i <= t, one per row i and sign vector sigma (+1 on
zeros); it starts with +-sign(row i of P_S) for every i, and after each
solve gets sign(P_i) for every row with |P_i|_1 > t, until there is
none.  There are finitely many sign vectors, so the loop ends, and then
t is the norm of P and the optimum, since the master relaxes the
program.  lp.Master solves the master's dual, one column per cut:
minimize sum_c mu_c (1 - sigma . P_S,i) subject to sum_c mu_c a_c = 0 on
the (N - m) m rows of W, a_c[a, k] = K_ia (F^T sigma)_k, and
sum_c mu_c <= 1, mu >= 0, whose slack is the multiplier of t >= 1.
Those two bound it, so every solve ends at an optimum.

The master's rows start with artificials at 0 and that slack at 1, so
no phase 1 runs.  Each round's cuts are inserted as new integer columns,
and the next solve resumes from the basis the last one ended at.  W is
minus the duals of the W rows and t is 1 minus the dual of the last
row.

The loop runs on integers from P_S to its return value.  It reads F, P_S
and Y_S as integer rows over one denominator each (Matrix.integers).  A
cut's cost and column are written over the product of the denominators
of P_S and F, then divided by the gcd of them all, so the scale is the
lcm of their reduced denominators: the form Master.insert takes.  After
each solve Master.integer_duals gives the duals over d = |det|, so W and
t are integers over d and P has integer rows over d times both
denominators.  A row is cut when the sum of the absolute values of its
integers exceeds t times both denominators, and its sign vector is that
of its integers.  The multipliers of the last solve are put over their
least common denominator for Z below.  Fractions are built only for the
returned Y and t.

For a hyperplane (m = 1, F a single column f) the optimal y is written
down directly (Blatter and Cheney 1974) and the cut loop does not run.
Let g_i = |f_i| / |f|_1 and s_i the sign of f_i (+1 when f_i = 0).

* Some g_p >= 1/2 (take the first): y = e_p / f_p and the constant is 1.
* Otherwise, with c = 1 / sum_i g_i / (1 - 2 g_i), the constant is
  1 + c, attained by y_i = s_i c / ((1 - 2 g_i) |f|_1).

Every optimum is proved by trace duality, the l-infinity case of the
characterization of minimal projections by Chalmers and Metcalf (Trans.
AMS 1992).  Let Z be an N x N matrix with sum_i max_j |Z_ij| <= 1 and
Z F = F M for some m x m matrix M.  Every projection P = I - Y F^T has
|P| >= sum_ij Z_ij P_ij = tr Z - tr M, so the constant is at least
tr Z - tr M.  Each route returns its Z for a claim above 1, as integer
rows over one positive denominator:

* The cut loop: Z = sum_c mu_c e_i sigma^T over the cuts (i, sigma), mu
  the multipliers of the last master.  When t > 1 the t >= 1 row is
  slack, so sum mu = 1; a cut with mu_c > 0 is tight, so sigma agrees
  with the signs of P_i and max_j |Z_ij| is the sum of row i's mu.  The
  master's dual constraints read K^T Z F = 0, so Z F lies in the span
  of F.
* The hyperplane: Z_ii = a_i and Z_ij = -a_i s_i s_j for
  a_i = c g_i / (1 - 2 g_i), so Z f = -c f, trace Z = 1 and M = -c.
* A claim of 1 (either route): _result takes Z = e_k v^T / v_k for v
  the first nonzero column of P, which lies in V, and k the first index
  of its largest entry, so Z F = 0 and trace Z = 1.

Both routes end in _result, which forms P = I - Y F^T once, checks that
its norm is the claim and at least 1, and returns the ProjectionResult
with its Z.  verify_trace_duality(spec, result) checks that proof as it
stands, in integers and with no program: F^T Y = I, P = I - Y F^T with
norm the constant, the row maxima of Z, and Z F = F M with
tr Z - tr M the constant for M = Y^T Z F, which is the only candidate
since Y^T F = I.  crosscheck proves both routes' answers with it.

The LP check of the same answer goes through the full program.
lp_certificate(spec, result), called only where it runs (the projconst
command, the layer benchmark and the tests), writes the point
(Y, T = |P| entrywise, t) of the program and its duals from Z: -|Z_ij|
on the P_ij <= T_ij row when Z_ij > 0 and on the -P_ij <= T_ij row when
Z_ij < 0, -max_j |Z_ij| on row i of the row-sum block, and nu = -Y^T Z F
on the F^T Y = I rows, which is -M, so no system is solved.  It builds
one Fraction per distinct |P_ij| and per distinct |Z_ij|, and
lp.verify_certificate checks either route's answer the same way."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd
from operator import mul
from typing import Optional, Sequence

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
    common_denominator,
    det,
    inverse,
    op_norm_inf,
)
from .lp import LpProblem, LpSolution, LpStats, Master, solve

_ZERO = Fraction(0)
_ONE = Fraction(1)

# an N x N matrix as integer rows over one positive denominator
_Z = tuple[Sequence[Sequence[int]], int]


@dataclass(frozen=True)
class ProjectionResult:
    """A minimal-norm projection onto the subspace, with its proof.

    constant is the projection constant (the optimum of
    minimal_projection_program(spec), always >= 1), projection is
    P = I - Y F^T for the optimal right inverse Y, and dual is the
    trace-duality operator Z that proves the constant a lower bound, as
    integer rows over one positive denominator (see the module
    docstring); verify_trace_duality(spec, result) checks that proof,
    and lp_certificate(spec, result) writes it as an optimal LpSolution
    of the program.  method names the route: "hyperplane" when m = 1
    and Y and Z were built in closed form, "cuts" when the cut loop
    solved the program.  rounds counts the master solves and cuts the
    sign-vector cuts of the cut loop, and stats is the master's LpStats
    (0, 0 and None for a hyperplane)."""

    constant: Fraction
    projection: Matrix
    right_inverse: Matrix
    dual: _Z
    method: str
    rounds: int
    cuts: int
    stats: Optional[LpStats]


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
    neg_rows = [tuple(-a for a in f) for f in f_rows]
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
        y_cols = [lay.y(i, k) for k in range(m)]
        for j in range(n):
            # P_ij = delta_ij - sum_k Y_ik F_jk
            slack = (lay.t(i, j), -_ONE)
            rows[lay.upper_row(i, j)] = (*zip(y_cols, neg_rows[j]), slack)
            rows[lay.lower_row(i, j)] = (*zip(y_cols, f_rows[j]), slack)
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
    y_rows = [(_ZERO,) * spec.codim] * n
    for r, member in enumerate(index_set):
        y_rows[member - 1] = block_inverse.row(r)
    y_s = Matrix(y_rows)
    return y_s, Matrix.identity(n) - y_s @ mat.transpose()


def _signs(row) -> tuple[int, ...]:
    """The sign vector of row, +1 on zeros."""
    return tuple(-1 if v < 0 else 1 for v in row)


def _cut_loop(spec: SubspaceSpec, index_set: IndexSet) -> ProjectionResult:
    """The result of delayed sign-vector cuts from the coordinate
    projection of index_set, with its Z when t > 1 (see the module
    docstring)."""
    n, m = spec.ambient, spec.codim
    f_rows, f_den = spec.annihilator.integers()
    ft_rows = list(zip(*f_rows))
    y_s, p_s = coordinate_projection(spec, index_set)
    p_rows, p_den = p_s.integers()
    # K, the columns of P_S off index_set, spans V and is the identity
    # off index_set; k_rows[i] holds the nonzero (a, K_ia), over p_den
    off = [b for b in range(n) if b + 1 not in index_set]
    k_rows = [[(a, row[b]) for a, b in enumerate(off) if row[b]] for row in p_rows]
    convexity = len(off) * m  # the master row sum(mu) <= 1, after the W rows
    scale = p_den * f_den  # of every cut's cost and column before reduction
    cuts: list[tuple[int, tuple[int, ...]]] = []  # (row i, sigma) per column

    def columns(new) -> list[tuple]:
        """The cuts new as Master.insert takes them: the cost
        1 - sigma . P_S,i and the column, K_ia (F^T sigma)_k on W row
        (a, k) and 1 on the last row, over scale and then in lowest
        terms."""
        out = []
        for i, sign in new:
            ft_sign = [sum(map(mul, sign, col)) for col in ft_rows]
            cost = (p_den - sum(map(mul, sign, p_rows[i]))) * f_den
            rows, ints = [], []
            for a, ka in k_rows[i]:
                for k, g in enumerate(ft_sign):
                    if g:
                        rows.append(a * m + k)
                        ints.append(ka * g)
            rows.append(convexity)
            ints.append(scale)
            common = gcd(cost, *ints)
            out.append(
                (rows, [v // common for v in ints], cost // common, scale // common)
            )
        return out

    master = Master(["=="] * convexity + ["<="], [0] * convexity + [1])
    new = [
        (i, sign)
        for i, row in enumerate(p_rows)
        for sign in (_signs(row), tuple(-s for s in _signs(row)))
    ]
    seen = set(new)
    rounds = 0
    while True:
        master.insert(columns(new))
        cuts.extend(new)
        rounds += 1
        solution = solve(master)
        # over d = |det|: W is minus the duals of the W rows and t is 1
        # minus the dual of the last row; P = P_S - K W F^T over p_den d f_den
        duals, d = master.integer_duals()
        w = [[-y for y in duals[a * m : a * m + m]] for a in range(len(off))]
        t = d - duals[convexity]
        wf = [[sum(map(mul, w_a, f)) for f in f_rows] for w_a in w]
        lift = d * f_den
        new = []
        for i, (row, k_row) in enumerate(zip(p_rows, k_rows)):
            p = [x * lift for x in row]
            for a, ka in k_row:
                p = [x - ka * v for x, v in zip(p, wf[a])]
            if sum(map(abs, p)) > t * scale:
                new.append((i, _signs(p)))
        if not new:
            break
        if seen.intersection(new):
            # the master's own cuts hold at its optimum; this is the
            # reading of W and t gone wrong, and the loop would not end
            raise InternalConsistencyError("a cut of the master is violated")
        seen.update(new)

    # Y = Y_S + K W over y_den p_den d
    y_rows, y_den = y_s.integers()
    y_num = []
    for y_row, k_row in zip(y_rows, k_rows):
        kw = [sum(ka * w[a][k] for a, ka in k_row) for k in range(m)]
        y_num.append([y * p_den * d + y_den * v for y, v in zip(y_row, kw)])
    den = y_den * p_den * d
    right_inverse = Matrix([[Fraction(y, den) for y in row] for row in y_num])
    z = None
    if t > d:
        # Z = sum_c mu_c e_i sigma^T over the cuts (i, sigma)
        mus, mu_den = common_denominator(solution.x)
        z_rows = [[0] * n for _ in range(n)]
        for (i, sign), mu in zip(cuts, mus):
            if mu:
                z_rows[i] = [v + mu * s for v, s in zip(z_rows[i], sign)]
        z = (z_rows, mu_den)
    constant, stats = Fraction(t, d), master.stats()
    return _result(spec, right_inverse, constant, z, "cuts", rounds, len(cuts), stats)


def _hyperplane_solution(
    annihilator: Matrix,
) -> tuple[Matrix, Fraction, Optional[_Z]]:
    """The optimal right inverse y, the constant and, when it is above 1,
    its trace-duality operator Z for the single annihilator column, in
    closed form (see the module docstring)."""
    f = annihilator.column(0)
    n = len(f)
    sizes = [abs(v) for v in f]
    norm = sum(sizes, _ZERO)
    signs = [-1 if v < 0 else 1 for v in f]
    p = next((i for i, a in enumerate(sizes) if 2 * a >= norm), None)
    if p is not None:
        y = [_ZERO] * n
        y[p] = 1 / f[p]
        return Matrix.column_vector(y), _ONE, None
    weights = [a / (norm - 2 * a) for a in sizes]  # g / (1 - 2g)
    c = 1 / sum(weights, _ZERO)
    y = [s * c / (norm - 2 * a) for s, a in zip(signs, sizes)]
    # a_i = c w_i on the diagonal of Z and -a_i s_i s_j off it, over the
    # denominator of c times the weights' least common denominator
    ints, w_den = common_denominator(weights)
    a = [c.numerator * v for v in ints]
    z_rows = [
        [a_i if j == i else -a_i * s * t for j, t in enumerate(signs)]
        for i, (a_i, s) in enumerate(zip(a, signs))
    ]
    return Matrix.column_vector(y), 1 + c, (z_rows, c.denominator * w_den)


def projection_constant(
    spec: SubspaceSpec, best_set: Optional[IndexSet] = None
) -> ProjectionResult:
    """The projection constant with its trace-duality operator Z, which
    proves it optimal for minimal_projection_program(spec): in closed
    form for a hyperplane, otherwise by the cut loop started at the
    coordinate projection of best_set.

    best_set defaults to the best set of bounds.best_upper_bound(spec),
    whose scan keeps the default set budget; a caller that already holds
    that report, or one scanned under a larger budget, passes its
    best_set so the scan runs once.  Any admissible set gives a valid
    start; a singular block raises InadmissibleSetError.  A hyperplane
    ignores it."""
    if spec.codim == 1:
        y, claimed, z = _hyperplane_solution(spec.annihilator)
        return _result(spec, y, claimed, z, "hyperplane", 0, 0, None)
    if best_set is None:
        best_set = best_upper_bound(spec).best_set
    return _cut_loop(spec, best_set)


def _result(
    spec: SubspaceSpec, right_inverse: Matrix, claimed: Fraction, z: Optional[_Z],
    method: str, rounds: int, cuts: int, stats: Optional[LpStats],
) -> ProjectionResult:
    """The result of a route: the projection P = I - Y F^T of the right
    inverse Y, and the route's Z, or for a claim of 1 the rank-one Z of
    the module docstring.  Raises InternalConsistencyError unless the
    norm of P is claimed and at least 1."""
    n = spec.ambient
    projection = Matrix.identity(n) - right_inverse @ spec.annihilator.transpose()
    if op_norm_inf(projection) != claimed:
        raise InternalConsistencyError(
            "LP optimum differs from the norm of the projection it returned"
        )
    if claimed < 1:
        raise InternalConsistencyError("projection constant below 1")
    if claimed == 1:
        # Z = e_k v^T / v_k, v the first nonzero column of P
        v = next(col for col in zip(*projection.integers()[0]) if any(col))
        k = max(range(n), key=lambda j: (abs(v[j]), -j))
        z_rows = [(0,) * n] * n
        z_rows[k] = v if v[k] > 0 else tuple(-e for e in v)
        z = (z_rows, abs(v[k]))
    return ProjectionResult(
        claimed, projection, right_inverse, z, method, rounds, cuts, stats
    )


def lp_certificate(spec: SubspaceSpec, result: ProjectionResult) -> LpSolution:
    """The certificate for minimal_projection_program(spec) that the
    point (Y, T = |P| entrywise, t = constant) of result and the duals
    of its trace-duality operator make (see the module docstring)."""
    n, m = spec.ambient, spec.codim
    lay = _Layout(n, m)
    y = result.right_inverse
    # every block of variables and of rows below is consecutive, row-major
    p_rows, p_den = result.projection.integers()
    p_flat = list(chain.from_iterable(p_rows))
    # |P_ij|, one Fraction per distinct size
    size = {a: Fraction(a, p_den) for a in set(map(abs, p_flat))}
    x = [_ZERO] * lay.nvars
    x[lay.y(0, 0) : lay.t(0, 0)] = [v for i in range(n) for v in y.row(i)]
    x[lay.t(0, 0) : lay.scalar] = [size[abs(e)] for e in p_flat]
    x[lay.scalar] = result.constant
    z_rows, z_den = result.dual
    z_flat = list(chain.from_iterable(z_rows))
    # -|Z_ij| over z_den, one Fraction per distinct size
    price = {a: Fraction(-a, z_den) for a in set(map(abs, z_flat))}
    duals = [_ZERO] * lay.nrows
    up, low, sums = lay.upper_row(0, 0), lay.lower_row(0, 0), lay.sum_row(0)
    duals[up:low] = [price[e] if e > 0 else _ZERO for e in z_flat]
    duals[low:sums] = [price[-e] if e < 0 else _ZERO for e in z_flat]
    duals[sums:] = [price[max(map(abs, row))] for row in z_rows]
    # nu = -Y^T Z F over y_den z_den f_den
    f_rows, f_den = spec.annihilator.integers()
    y_rows, y_den = y.integers()
    f_cols = list(zip(*f_rows))
    zf = [[sum(map(mul, row, col)) for col in f_cols] for row in z_rows]
    nu_den = y_den * z_den * f_den
    for j in range(m):
        for k in range(m):
            nu = -sum(row[j] * g[k] for row, g in zip(y_rows, zf))
            duals[lay.identity_row(j, k)] = Fraction(nu, nu_den)
    return LpSolution(tuple(x), result.constant, tuple(duals))


def verify_trace_duality(spec: SubspaceSpec, result: ProjectionResult) -> bool:
    """Whether result proves its constant to be the projection constant
    by trace duality (see the module docstring): F^T Y = I, projection
    is I - Y F^T and its norm is the constant, Z has a positive
    denominator and row maxima summing to at most 1, and Z F = F M with
    tr Z - tr M the constant for M = Y^T Z F, the only M possible since
    Y^T F = I.  Every test compares integer rows by cross-multiplication,
    in O(N^2 m) products; nothing is solved and no Fraction is built."""
    n, m = spec.ambient, spec.codim
    y, p = result.right_inverse, result.projection
    z_rows, z_den = result.dual
    if (y.rows, y.cols, p.rows, p.cols, len(z_rows)) != (n, m, n, n, n) or any(
        len(row) != n for row in z_rows
    ):
        return False
    f_rows, f_den = spec.annihilator.integers()
    y_rows, y_den = y.integers()
    p_rows, p_den = p.integers()
    value_num, value_den = result.constant.numerator, result.constant.denominator
    f_cols, y_cols = list(zip(*f_rows)), list(zip(*y_rows))
    # F^T Y over f_den y_den
    one = f_den * y_den
    if any(
        sum(map(mul, f_col, y_col)) != (one if j == k else 0)
        for j, f_col in enumerate(f_cols)
        for k, y_col in enumerate(y_cols)
    ):
        return False
    # P = I - Y F^T, Y F^T over f_den y_den
    for i, (p_row, y_row) in enumerate(zip(p_rows, y_rows)):
        for j, (p_ij, f_row) in enumerate(zip(p_row, f_rows)):
            yf = sum(map(mul, y_row, f_row))
            if p_ij * one != p_den * ((one if i == j else 0) - yf):
                return False
    if max(sum(map(abs, row)) for row in p_rows) * value_den != value_num * p_den:
        return False
    if z_den <= 0 or sum(max(map(abs, row)) for row in z_rows) > z_den:
        return False
    # Z F over z_den f_den, M = Y^T Z F over y_den z_den f_den, and F M
    # over f_den y_den z_den f_den
    zf = [[sum(map(mul, row, f_col)) for f_col in f_cols] for row in z_rows]
    zf_cols = list(zip(*zf))
    m_rows = [[sum(map(mul, y_col, col)) for col in zf_cols] for y_col in y_cols]
    m_cols = list(zip(*m_rows))
    if any(
        sum(map(mul, f_row, m_col)) != zf_ik * one
        for f_row, zf_row in zip(f_rows, zf)
        for m_col, zf_ik in zip(m_cols, zf_row)
    ):
        return False
    trace_z = sum(row[i] for i, row in enumerate(z_rows))
    trace_m = sum(row[k] for k, row in enumerate(m_rows))
    return (trace_z * one - trace_m) * value_den == value_num * one * z_den


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
