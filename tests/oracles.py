"""Independent oracles used by the tests, and the adapter that feeds
an LpProblem to lp.Master.

The oracles are deliberately written against plain lists of Fractions
with their own tiny Gaussian solver, so they share no code path with the
package internals they are checking."""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm

from linfiso.lp import Master

ZERO = Fraction(0)
ONE = Fraction(1)


def to_lists(matrix) -> list[list[Fraction]]:
    """The entries of a linfiso Matrix as lists of Fractions, row by row."""
    return [list(matrix.row(i)) for i in range(matrix.rows)]


def laplace_det(rows: list[list[Fraction]]) -> Fraction:
    """Cofactor expansion along the first row.  Fine up to size 5."""
    n = len(rows)
    assert all(len(r) == n for r in rows)
    if n == 1:
        return rows[0][0]
    total = ZERO
    for j, head in enumerate(rows[0]):
        if head == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        sign = ONE if j % 2 == 0 else -ONE
        total += sign * head * laplace_det(minor)
    return total


def solve_square(rows: list[list[Fraction]], rhs: list[Fraction]):
    """Gaussian elimination; None when the system is singular."""
    n = len(rows)
    work = [list(r) + [b] for r, b in zip(rows, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col] != 0), None)
        if pivot is None:
            return None
        work[col], work[pivot] = work[pivot], work[col]
        inv = 1 / work[col][col]
        work[col] = [inv * v for v in work[col]]
        for r in range(n):
            if r != col and work[r][col] != 0:
                f = work[r][col]
                work[r] = [a - f * b for a, b in zip(work[r], work[col])]
    return [work[i][n] for i in range(n)]


def independent_rows(rows: list[list[Fraction]]) -> list[int]:
    """Indices of a maximal linearly independent subset of rows, each
    row kept when it is independent of the rows kept before it."""
    kept: list[int] = []
    echelon: list[tuple[int, list[Fraction]]] = []  # (pivot column, row)
    for index, row in enumerate(rows):
        work = list(row)
        for col, basis in echelon:
            if work[col] != 0:
                f = work[col] / basis[col]
                work = [a - f * b for a, b in zip(work, basis)]
        col = next((j for j, a in enumerate(work) if a != 0), None)
        if col is not None:
            echelon.append((col, work))
            kept.append(index)
    return kept


def enumerate_lp(c, rows, senses, rhs, lower=None, upper=None):
    """Brute-force LP minimum over vertices of the feasible region.

    A vertex meets n linearly independent constraints with equality, and
    those can always be chosen to contain any maximal independent subset
    of the equality rows.  So every combination of such a subset with
    enough inequalities (finite bounds counted as rows) is solved exactly
    and filtered by feasibility, which enforces every equality, the
    dependent ones included.  Returns (value, x) or None when no feasible
    vertex exists.  Only valid for problems whose optimum is attained at
    a vertex, e.g. when the region contains no line."""
    n = len(c)
    lower = [ZERO] * n if lower is None else lower
    upper = [None] * n if upper is None else upper

    all_rows: list[list[Fraction]] = []
    all_rhs: list[Fraction] = []
    all_senses: list[str] = []
    for row, sense, b in zip(rows, senses, rhs):
        all_rows.append(list(row))
        all_rhs.append(b)
        all_senses.append("==" if sense == "=" else sense)
    for j in range(n):
        unit = [ZERO] * n
        unit[j] = ONE
        if lower[j] is not None:
            all_rows.append(list(unit))
            all_rhs.append(lower[j])
            all_senses.append(">=")
        if upper[j] is not None:
            all_rows.append(list(unit))
            all_rhs.append(upper[j])
            all_senses.append("<=")

    eq_all = [i for i, s in enumerate(all_senses) if s == "=="]
    eq_idx = [eq_all[k] for k in independent_rows([all_rows[i] for i in eq_all])]
    ineq_idx = [i for i, s in enumerate(all_senses) if s != "=="]
    need = n - len(eq_idx)

    def feasible(x) -> bool:
        for row, sense, b in zip(all_rows, all_senses, all_rhs):
            lhs = sum((a * v for a, v in zip(row, x)), ZERO)
            if sense == "<=" and lhs > b:
                return False
            if sense == ">=" and lhs < b:
                return False
            if sense == "==" and lhs != b:
                return False
        return True

    best = None
    for combo in itertools.combinations(ineq_idx, need):
        active = eq_idx + list(combo)
        sys_rows = [all_rows[i] for i in active]
        sys_rhs = [all_rhs[i] for i in active]
        x = solve_square(sys_rows, sys_rhs)
        if x is None or not feasible(x):
            continue
        value = sum((a * v for a, v in zip(c, x)), ZERO)
        if best is None or value < best[0]:
            best = (value, x)
    return best


def hyperplane_projection_constant(f: list[Fraction]) -> Fraction:
    """Projection constant for the kernel of a single functional, by a
    sign-pattern LP solved with the vertex oracle.

    Projections are P = I - y f^T with f . y = 1; the largest absolute
    row sum is linearized over all sign vectors s: row i obeys
    s_i - y_i (s . f) <= t."""
    n = len(f)
    c = [ZERO] * n + [ONE]
    rows = [list(f) + [ZERO]]
    senses = ["=="]
    rhs = [ONE]
    for i in range(n):
        for signs in itertools.product((ONE, -ONE), repeat=n):
            dot = sum((s * v for s, v in zip(signs, f)), ZERO)
            row = [ZERO] * (n + 1)
            row[i] = -dot
            row[n] = -ONE
            rows.append(row)
            senses.append("<=")
            rhs.append(-signs[i])
    best = enumerate_lp(
        c, rows, senses, rhs, lower=[None] * (n + 1), upper=[None] * (n + 1)
    )
    assert best is not None
    return best[0]


def dense_projection_program(f: list[list[Fraction]]):
    """minimal_projection_program written out with dense rows, as the
    reference for its sparse rows: f is the annihilator as N lists of m
    Fractions.  Returns (objective, rows, senses, rhs, lower), every row
    of length N*m + N*N + 1.

    Variables: Y row-major (free), T row-major, then t.  Rows: F^T Y = I
    entrywise, P <= T entrywise, -P <= T entrywise with P = I - Y F^T,
    then the row sums of T at most t."""
    n, m = len(f), len(f[0])

    def y_col(i, k):
        return i * m + k

    def t_col(i, j):
        return n * m + i * n + j

    t_scalar = n * m + n * n
    nvars = t_scalar + 1
    objective = [ZERO] * nvars
    objective[t_scalar] = ONE
    rows, senses, rhs = [], [], []
    for j in range(m):
        for k in range(m):
            row = [ZERO] * nvars
            for i in range(n):
                row[y_col(i, k)] = f[i][j]
            rows.append(row)
            senses.append("==")
            rhs.append(ONE if j == k else ZERO)
    for sign in (ONE, -ONE):  # P <= T, then -P <= T
        for i in range(n):
            for j in range(n):
                row = [ZERO] * nvars
                for k in range(m):
                    row[y_col(i, k)] = -sign * f[j][k]
                row[t_col(i, j)] = -ONE
                rows.append(row)
                senses.append("<=")
                rhs.append(-sign if i == j else ZERO)
    for i in range(n):
        row = [ZERO] * nvars
        for j in range(n):
            row[t_col(i, j)] = ONE
        row[t_scalar] = -ONE
        rows.append(row)
        senses.append("<=")
        rhs.append(ZERO)
    lower = [None] * (n * m) + [ZERO] * (n * n + 1)
    return objective, rows, senses, rhs, lower


def reduced_row_echelon(rows: list[list[Fraction]]):
    """Gauss-Jordan elimination in plain Fractions: the reduced row
    echelon form and the pivot columns."""
    work = [list(r) for r in rows]
    pivots: list[int] = []
    for col in range(len(work[0])):
        r = len(pivots)
        if r == len(work):
            break
        found = next((i for i in range(r, len(work)) if work[i][col] != 0), None)
        if found is None:
            continue
        work[r], work[found] = work[found], work[r]
        inv = 1 / work[r][col]
        work[r] = [inv * v for v in work[r]]
        for i in range(len(work)):
            if i != r and work[i][col] != 0:
                f = work[i][col]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivots.append(col)
    return work, pivots


# -- LP certificate check ------------------------------------------------
#
# The check of an LP answer, an optimal point with row duals, one
# Fraction at a time.  It reads the fields of a problem (objective,
# sparse rows of (column, coefficient) pairs, senses, rhs, lower) and
# calls nothing in the package.


def meets_rows_and_bounds(problem, v) -> bool:
    """v satisfies every lower bound and row."""
    if len(v) != len(problem.objective):
        return False
    for vj, lo in zip(v, problem.lower):
        if lo is not None and vj < lo:
            return False
    for row, sense, b in zip(problem.rows, problem.senses, problem.rhs):
        lhs = ZERO
        for j, a in row:
            lhs += a * v[j]
        if sense == "<=" and lhs > b:
            return False
        if sense == ">=" and lhs < b:
            return False
        if sense == "==" and lhs != b:
            return False
    return True


def multiplier_bound(problem, y, cost):
    """y . rhs plus the least value of (cost - A^T y) . x over the lower
    bounds; None for a wrong length, a multiplier of the wrong sign or
    an unbounded least value."""
    if len(y) != len(problem.rows):
        return None
    reduced = list(cost)
    bound = ZERO
    for yi, row, sense, b in zip(y, problem.rows, problem.senses, problem.rhs):
        if sense == "<=" and yi > 0:
            return None
        if sense == ">=" and yi < 0:
            return None
        bound += yi * b
        for j, a in row:
            reduced[j] -= a * yi
    for r, lo in zip(reduced, problem.lower):
        if r:
            if r < 0 or lo is None:
                return None
            bound += r * lo
    return bound


def certificate_verdict(problem, solution) -> bool:
    """Whether solution proves that its point is optimal for problem."""
    x, y, value = solution.x, solution.duals, solution.objective_value
    return (
        meets_rows_and_bounds(problem, x)
        and sum((c * v for c, v in zip(problem.objective, x)), ZERO) == value
        and multiplier_bound(problem, y, problem.objective) == value
    )


# -- Master adapter -----------------------------------------------------
#
# A Master takes its rows at construction and its columns only as
# integers through insert.  The tests write their programs as an
# LpProblem, which verify_certificate reads, and hand them over here.


def integer_columns(costs, columns) -> list[tuple]:
    """Costs and columns of (row, coefficient) pairs, rows increasing, in
    the form Master.insert takes: each as (rows, ints, cost, scale) over
    the lcm scale of the denominators of its cost and nonzero entries."""
    assert len(costs) == len(columns)
    out = []
    for cost, pairs in zip(costs, columns):
        cost = Fraction(cost)
        pairs = [(i, Fraction(a)) for i, a in pairs if a]
        s = lcm(cost.denominator, *(a.denominator for _, a in pairs))
        rows = [i for i, _ in pairs]
        ints = [a.numerator * (s // a.denominator) for _, a in pairs]
        out.append((rows, ints, cost.numerator * (s // cost.denominator), s))
    return out


def master_of(problem) -> Master:
    """A Master with the rows of problem, whose variables must all be
    nonnegative, and its columns inserted in variable order."""
    assert all(lo == 0 for lo in problem.lower)
    columns = [[] for _ in problem.objective]
    for i, row in enumerate(problem.rows):
        for j, a in row:
            columns[j].append((i, a))
    master = Master(problem.senses, problem.rhs)
    master.insert(integer_columns(problem.objective, columns))
    return master


# -- Trace duality -------------------------------------------------------
#
# The duals of the projection program read as one N x N matrix Z.  If
# sum_i max_j |Z_ij| <= 1 and Z F = F M for some m x m matrix M, every
# projection P = I - Y F^T has |P| >= sum_ij Z_ij P_ij = tr Z - tr M
# (Chalmers and Metcalf, Trans. AMS 1992).  The rows are those of
# dense_projection_program: F^T Y = I (m*m), P <= T and -P <= T (N*N
# each, row-major), then the row sums (N).


def dual_operator(n, m, duals) -> list[list[Fraction]]:
    """Z read back from the duals of the projection program of an N x m
    annihilator: Z_ij = dual(-P_ij <= T_ij) - dual(P_ij <= T_ij)."""
    upper = m * m
    lower = upper + n * n
    return [
        [duals[lower + i * n + j] - duals[upper + i * n + j] for j in range(n)]
        for i in range(n)
    ]


def trace_duality_verdict(f, solution) -> bool:
    """Whether solution proves its value optimal for the projection
    program of the annihilator f (N lists of m Fractions) by trace
    duality alone: trace_duality_holds on the Y block of its point, its
    value and the Z of its duals.  The identity-row and row-sum duals
    are not read."""
    n, m = len(f), len(f[0])
    y = [solution.x[i * m : i * m + m] for i in range(n)]
    z = dual_operator(n, m, solution.duals)
    return trace_duality_holds(f, y, solution.objective_value, z)


def operator_fractions(dual) -> list[list[Fraction]]:
    """A trace-duality operator given as integer rows over one
    denominator (ProjectionResult.dual), as N lists of N Fractions."""
    rows, den = dual
    return [[Fraction(v, den) for v in row] for row in rows]


def trace_duality_holds(f, y, value, z) -> bool:
    """Whether the right inverse y (N lists of m Fractions) and the
    operator z (N lists of N Fractions) prove value to be the projection
    constant of the annihilator f (N lists of m Fractions): y is a right
    inverse of F^T whose projection has norm value, and z has row maxima
    summing to at most 1, Z F = F M for the M solved on an admissible
    block of F, and tr Z - tr M = value."""
    n, m = len(f), len(f[0])
    for j in range(m):
        for k in range(m):
            if sum(f[i][j] * y[i][k] for i in range(n)) != (ONE if j == k else ZERO):
                return False
    norm = max(
        sum(
            abs((ONE if i == j else ZERO) - sum(a * b for a, b in zip(y[i], f[j])))
            for j in range(n)
        )
        for i in range(n)
    )
    if norm != value:
        return False
    if sum(max(abs(v) for v in row) for row in z) > 1:
        return False
    zf = [
        [sum(z[i][a] * f[a][k] for a in range(n)) for k in range(m)] for i in range(n)
    ]
    block = independent_rows(f)
    # column k of M solves F_S M_k = (Z F)_S,k
    m_cols = [
        solve_square([f[i] for i in block], [zf[i][k] for i in block])
        for k in range(m)
    ]
    for i in range(n):
        for k in range(m):
            if sum(f[i][r] * m_cols[k][r] for r in range(m)) != zf[i][k]:
                return False
    trace_z = sum((z[i][i] for i in range(n)), ZERO)
    trace_m = sum((m_cols[r][r] for r in range(m)), ZERO)
    return trace_z - trace_m == value


# -- Fraction routes -----------------------------------------------------
#
# The routes crosscheck runs on integer rows, written again on plain
# lists of Fractions: the annihilator f and a right inverse y as N lists
# of m entries, index sets as tuples of 1-based members, determinants by
# laplace_det and inverses by solve_square.


def block_rows(rows, members):
    """The rows of rows at the 1-based members, in their order."""
    return [list(rows[k - 1]) for k in members]


def admissible_sets_oracle(f) -> list[tuple[tuple[int, ...], Fraction]]:
    """Every m-subset in lexicographic order whose block of f has a
    nonzero determinant, with that determinant."""
    n, m = len(f), len(f[0])
    found = []
    for members in itertools.combinations(range(1, n + 1), m):
        d = laplace_det(block_rows(f, members))
        if d != 0:
            found.append((members, d))
    return found


def cauchy_binet_oracle(a, b) -> tuple[Fraction, Fraction]:
    """det(a^T b) and the sum over m-subsets of the products of the two
    block determinants, for a and b as N lists of m Fractions."""
    n, m = len(a), len(a[0])
    product = [
        [sum((a[i][j] * b[i][k] for i in range(n)), ZERO) for k in range(m)]
        for j in range(m)
    ]
    total = ZERO
    for members in itertools.combinations(range(1, n + 1), m):
        total += laplace_det(block_rows(a, members)) * laplace_det(
            block_rows(b, members)
        )
    return laplace_det(product), total


def minor_vectors_oracle(f) -> list[tuple[Fraction, ...]]:
    """For two columns (N lists of 2): vector k has entry l equal to the
    2x2 minor of f on rows k and l, in that order."""
    n = len(f)
    return [
        tuple(f[k][0] * f[l][1] - f[k][1] * f[l][0] for l in range(n))
        for k in range(n)
    ]


def canonical_vectors_oracle(f, members):
    """The canonical vectors of the index set by Cramer's rule: entry i
    of member k's vector is the determinant of the block with row k
    swapped for row i, over the block's own.  None when the block is
    singular."""
    block = block_rows(f, members)
    base = laplace_det(block)
    if base == 0:
        return None
    vectors = {}
    for pos, k in enumerate(members):
        entries = []
        for row in f:
            swapped = [list(r) for r in block]
            swapped[pos] = list(row)
            entries.append(laplace_det(swapped) / base)
        vectors[k] = tuple(entries)
    return vectors


def decide_pairs_oracle(f):
    """The paper's test at codimension 2, pair by pair in lexicographic
    order: (verdict, first witness or None, admissible pairs examined up
    to and including it), a witness being a pair whose canonical
    vectors all have 1-norm at most 2."""
    examined = 0
    for members in itertools.combinations(range(1, len(f) + 1), 2):
        vectors = canonical_vectors_oracle(f, members)
        if vectors is None:
            continue
        examined += 1
        if all(sum(abs(v) for v in vec) <= 2 for vec in vectors.values()):
            return True, members, examined
    return False, None, examined


def coordinate_projection_oracle(f, members):
    """(Y_S, P_S) for the index set: Y_S carries the inverse of the
    block's transpose on the rows of the set and zeros elsewhere, and
    P_S = I - Y_S F^T.  None when the block is singular."""
    n, m = len(f), len(f[0])
    block_t = [list(col) for col in zip(*block_rows(f, members))]
    columns = []
    for k in range(m):
        unit = [ONE if j == k else ZERO for j in range(m)]
        x = solve_square(block_t, unit)
        if x is None:
            return None
        columns.append(x)
    y = [[ZERO] * m for _ in range(n)]
    for r, k in enumerate(members):
        y[k - 1] = [columns[c][r] for c in range(m)]
    p = [
        [
            (ONE if i == j else ZERO)
            - sum((y[i][k] * f[j][k] for k in range(m)), ZERO)
            for j in range(n)
        ]
        for i in range(n)
    ]
    return y, p


def good_index_set_oracle(f, y) -> tuple[int, ...]:
    """The first m-subset in lexicographic order at which the blocks of
    both f and y have nonzero determinants."""
    n, m = len(f), len(f[0])
    return next(
        members
        for members in itertools.combinations(range(1, n + 1), m)
        if laplace_det(block_rows(f, members)) != 0
        and laplace_det(block_rows(y, members)) != 0
    )


def norm_gap_oracle(f, y, constant, members):
    """(excess, bound, amplification, section) of the norm gap at the
    index set, for the right inverse y of a projection with norm
    constant: section = Y_S F_S^T, amplification the largest absolute
    row sum of its inverse, excess the largest canonical 1-norm minus 1
    and bound 1 + (constant - 1) amplification.  None when the section
    is singular."""
    m = len(f[0])
    y_s, f_s = block_rows(y, members), block_rows(f, members)
    section = [
        [sum((a * b for a, b in zip(y_row, f_row)), ZERO) for f_row in f_s]
        for y_row in y_s
    ]
    columns = []
    for k in range(m):
        x = solve_square(section, [ONE if j == k else ZERO for j in range(m)])
        if x is None:
            return None
        columns.append(x)
    amplification = max(
        sum(abs(columns[k][i]) for k in range(m)) for i in range(m)
    )
    vectors = canonical_vectors_oracle(f, members)
    excess = max(sum(abs(v) for v in vec) for vec in vectors.values()) - 1
    bound = ONE + (constant - 1) * amplification
    return excess, bound, amplification, section


def full_exchange_walk(columns, codim):
    """The prefix walk with every (m - 1)-prefix Q of range(N - 1)
    pivoted fully into an m-row fraction-free tableau: the reference
    for canonical._prefix_walk, whose live tableau stands at the
    (m - 2)-prefixes and which computes only Q's residual row.  columns
    are the annihilator's integer-scaled columns.  Each entering member
    pivots on the first leaving row with a nonzero entry there; a prefix
    with no such row is skipped.  Yields (Q, rho), rho the one row
    outside Q, for every Q whose rows of F are independent."""
    n = len(columns[0])
    rows = [list(column) for column in columns]
    common = 1
    basis = [-1] * codim
    row_of = {}
    for prefix in itertools.combinations(range(n - 1), codim - 1):
        leaving = [r for r, q in enumerate(basis) if q not in prefix]
        for q in prefix:
            if q in row_of:
                continue
            r = next((r for r in leaving if rows[r][q]), None)
            if r is None:
                break
            common = _exchange(rows, common, r, q)
            row_of.pop(basis[r], None)
            basis[r] = q
            row_of[q] = r
            leaving.remove(r)
        else:
            yield prefix, list(rows[leaving[0]])


def _exchange(rows, common, prow, pcol):
    """A fraction-free Gauss-Jordan pivot on (prow, pcol), in place;
    returns the new common denominator, the pivot entry."""
    pivot_row = rows[prow]
    p = pivot_row[pcol]
    for i, row in enumerate(rows):
        if i != prow:
            h = row[pcol]
            rows[i] = [(a * p - h * b) // common for a, b in zip(row, pivot_row)]
    return p
