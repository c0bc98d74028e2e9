"""Plain Fraction linear algebra for the answer checks.

Nothing here imports linfiso: the checks must not trust the code they
check.  Matrices are lists of rows of Fractions; index sets are tuples
of 0-based row indices."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

ONE = Fraction(1)
ZERO = Fraction(0)


def matmul(a, b):
    cols = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col)), ZERO) for col in cols] for row in a]


def transpose(a):
    return [list(col) for col in zip(*a)]


def identity(n):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def _eliminate(rows):
    """Gauss-Jordan on a copy; returns (reduced rows, pivot columns)."""
    work = [list(r) for r in rows]
    pivots = []
    r = 0
    for col in range(len(work[0]) if work else 0):
        hit = next((i for i in range(r, len(work)) if work[i][col] != 0), None)
        if hit is None:
            continue
        work[r], work[hit] = work[hit], work[r]
        inv = 1 / work[r][col]
        work[r] = [inv * x for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][col] != 0:
                f = work[i][col]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        pivots.append(col)
        r += 1
    return work, pivots


def rank(rows) -> int:
    return len(_eliminate(rows)[1])


def inverse(square):
    """Inverse of a square matrix, or None when it is singular."""
    n = len(square)
    work, pivots = _eliminate([list(row) + e for row, e in zip(square, identity(n))])
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in work]


def norm1(vec) -> Fraction:
    return sum((abs(x) for x in vec), ZERO)


def op_norm_inf(a) -> Fraction:
    """Largest absolute row sum."""
    return max(norm1(row) for row in a)


def canonical_vectors(f, index_set):
    """Columns of F F_S^-1, one per member of S in order, or None when
    the row block F_S is singular."""
    inv = inverse([f[i] for i in index_set])
    if inv is None:
        return None
    return transpose(matmul(f, inv))


def set_bound(f, index_set):
    """The per-set distance bound max(1, largest canonical 1-norm - 1),
    or None for a singular block."""
    vectors = canonical_vectors(f, index_set)
    if vectors is None:
        return None
    return max(ONE, max(norm1(v) for v in vectors) - 1)


def per_set_bounds(f):
    """[(index set, bound)] over every admissible set, lexicographically."""
    n, m = len(f), len(f[0])
    out = []
    for s in combinations(range(n), m):
        bound = set_bound(f, s)
        if bound is not None:
            out.append((s, bound))
    return out


def hyperplane_constant(functional) -> Fraction:
    """Blatter-Cheney projection constant of the hyperplane ker f:
    with g = |f| / |f|_1, 1 if some g_i >= 1/2, else
    1 + (sum g_i / (1 - 2 g_i))^-1."""
    total = norm1(functional)
    g = [abs(x) / total for x in functional]
    if any(2 * gi >= 1 for gi in g):
        return ONE
    return 1 + 1 / sum(gi / (1 - 2 * gi) for gi in g)
