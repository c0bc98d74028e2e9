"""Independent oracles used by the tests.

Deliberately written against plain lists of Fractions with their own
tiny Gaussian solver, so they share no code path with the package
internals they are checking."""

from __future__ import annotations

import itertools
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


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
