"""Exact rational vectors, matrices, and index sets.

Every value is rational and floats are rejected at the door, so no
rounding can sneak in.  A Matrix holds integer rows over one positive
denominator in lowest terms: products, sums, norms and determinants
run on Python ints and reduce each result once, and rref, inverse, rank
and nullspace_columns eliminate fraction-free with _kernels.exchange
(Bareiss 1968; Edmonds 1967).  Entries cross the API as Fractions.
Matrix and IndexSet are immutable.  Matrix indices are 0-based Python
indices; IndexSet members are 1-based coordinates of the ambient space,
which is the convention used in every report and file format this
package emits.
"""

from __future__ import annotations

import itertools
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Iterator

from . import _kernels
from .errors import BoundsError, DimensionError, SingularMatrixError

_ZERO = Fraction(0)
_ONE = Fraction(1)

# An optional sign, digits, then optionally /digits or .digits.  Fraction
# alone would also take exponents ("1e300000") and underscores.
# The group is None for a plain integer, which int() reads faster than
# Fraction's own parser.
_TOKEN = re.compile(r"[+-]?[0-9]+(/[0-9]+|\.[0-9]+)?")


def as_rational(value) -> Fraction:
    """Coerce int, Fraction, or numeric string to Fraction; reject floats.

    Strings may be integers ("7"), ratios ("-3/4"), or decimals ("0.25");
    decimals parse exactly over a power-of-ten denominator.  Nothing else
    is accepted: no exponents, underscores, spaces or bare points.  A
    digit run wider than the interpreter's str-to-int limit (4300 digits
    by default) is refused with its own message.  Error messages quote
    at most a short prefix of the token.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a rational scalar")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        match = _TOKEN.fullmatch(value)
        if match is None:
            raise ValueError(f"not rational: {token_excerpt(value)}")
        try:
            if match.group(1) is None:
                return Fraction(int(value))
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator: {token_excerpt(value)}") from None
        except ValueError:
            # the grammar matched, so only the str-to-int limit is left
            widest = max(len(run) for run in re.findall("[0-9]+", value))
            raise ValueError(
                f"a {widest}-digit number is wider than the interpreter's "
                f"limit of {sys.get_int_max_str_digits()} digits: "
                f"{token_excerpt(value)}"
            ) from None
    raise TypeError(f"refusing inexact scalar of type {type(value).__name__}")


_EXCERPT = 24


def token_excerpt(token: str) -> str:
    """The token quoted for an error message; a long one is cut to a
    prefix and its length, so one error stays one short line."""
    if len(token) <= 2 * _EXCERPT:
        return repr(token)
    return f"{token[:_EXCERPT]!r}... ({len(token)} characters)"


def format_rational(value: Fraction) -> str:
    """Canonical token: "p/q" in lowest terms, or just "p" for integers.
    Integers of any width print in full."""
    if value.denominator == 1:
        return _decimal(value.numerator)
    return f"{_decimal(value.numerator)}/{_decimal(value.denominator)}"


# str() refuses integers wider than the interpreter's digit limit (4300
# by default, 640 at the least); below 2**2000 an integer has at most 603
# digits.
_STR_BITS = 2000


def _decimal(n: int) -> str:
    """Decimal digits of n, split by a power of ten until each piece is
    narrow enough for str(), so the interpreter-wide limit is untouched."""
    if n < 0:
        return "-" + _decimal(-n)
    bits = n.bit_length()
    if bits <= _STR_BITS:
        return str(n)
    k = bits * 3 // 20  # about half of the bits * log10(2) digits
    high, low = divmod(n, 10**k)
    return _decimal(high) + _decimal(low).zfill(k)


@dataclass(frozen=True)
class IndexSet:
    """A strictly increasing tuple of 1-based coordinates of an ambient space."""

    members: tuple[int, ...]
    ambient: int

    def __post_init__(self):
        if self.ambient < 1:
            raise DimensionError("ambient dimension must be at least 1")
        prev = 0
        for k in self.members:
            if not isinstance(k, int) or isinstance(k, bool):
                raise TypeError("index set members must be ints")
            if k <= prev:
                raise BoundsError("members must be strictly increasing and >= 1")
            prev = k
        if prev > self.ambient:
            raise BoundsError(f"member {prev} exceeds ambient {self.ambient}")

    @classmethod
    def _of(cls, members: tuple[int, ...], ambient: int) -> "IndexSet":
        """The set of members, a strictly increasing tuple of ints in
        1..ambient, ambient >= 1, without __post_init__'s checks: for
        callers that drew the members themselves, from
        itertools.combinations or a walk prefix."""
        index_set = object.__new__(cls)
        fields = index_set.__dict__
        fields["members"] = members
        fields["ambient"] = ambient
        return index_set

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, k) -> bool:
        return k in self.members

    def __str__(self) -> str:
        return "{" + ",".join(str(k) for k in self.members) + "}"


class Matrix:
    """Immutable rational matrix with at least one row and one column.

    It is held as integer rows over one positive denominator, in lowest
    terms: no prime divides the denominator and every numerator.  That
    form is unique, so == and hash compare it directly.  Arithmetic runs
    on the integers and reduces each result once; the entries come out
    as Fractions, built once and kept, at [], row, column and repr, and
    integers() hands out the integer rows and the denominator
    as held, for callers that work in integers.  The constructor keeps
    the Fractions it was given."""

    __slots__ = ("_rows", "_den", "_entries")

    def __init__(self, rows: Iterable[Iterable]):
        entries = tuple(tuple(as_rational(x) for x in row) for row in rows)
        if not entries or not entries[0]:
            raise DimensionError("matrix needs at least one row and one column")
        width = len(entries[0])
        if any(len(row) != width for row in entries):
            raise DimensionError("ragged rows")
        den = lcm(*(x.denominator for row in entries for x in row))
        ints = tuple(
            tuple(x.numerator * (den // x.denominator) for x in row)
            for row in entries
        )
        self._fill(ints, den, entries)

    def _fill(self, rows: tuple, den: int, entries=None) -> "Matrix":
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_entries", entries)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def _of(cls, rows, den: int) -> "Matrix":
        """The matrix rows / den for integer rows and a nonzero den,
        reduced to lowest terms with a positive denominator."""
        g = gcd(den, *(x for row in rows for x in row))
        if den < 0:
            g = -g
        if g != 1:
            rows = [[x // g for x in row] for row in rows]
            den //= g
        return object.__new__(cls)._fill(tuple(map(tuple, rows)), den)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        if n < 1:
            raise DimensionError("matrix needs at least one row and one column")
        return cls._of([[int(i == j) for j in range(n)] for i in range(n)], 1)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        if rows < 1 or cols < 1:
            raise DimensionError("matrix needs at least one row and one column")
        return cls._of([[0] * cols] * rows, 1)

    @classmethod
    def from_columns(cls, columns: Iterable[Iterable]) -> "Matrix":
        cols = [tuple(c) for c in columns]
        if not cols:
            raise DimensionError("need at least one column")
        return cls(zip(*cols))

    @classmethod
    def column_vector(cls, entries: Iterable) -> "Matrix":
        return cls([[x] for x in entries])

    @property
    def rows(self) -> int:
        return len(self._rows)

    @property
    def cols(self) -> int:
        return len(self._rows[0])

    def _fractions(self) -> tuple[tuple[Fraction, ...], ...]:
        entries = self._entries
        if entries is None:
            den = self._den
            entries = tuple(
                tuple(Fraction(x, den) for x in row) for row in self._rows
            )
            object.__setattr__(self, "_entries", entries)
        return entries

    def __getitem__(self, key) -> Fraction:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise BoundsError(f"entry ({i},{j}) outside {self.rows}x{self.cols}")
        if self._entries is None:
            return Fraction(self._rows[i][j], self._den)
        return self._entries[i][j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        if not 0 <= i < self.rows:
            raise BoundsError(f"row {i} outside 0..{self.rows - 1}")
        return self._fractions()[i]

    def column(self, j: int) -> tuple[Fraction, ...]:
        if not 0 <= j < self.cols:
            raise BoundsError(f"column {j} outside 0..{self.cols - 1}")
        return tuple(row[j] for row in self._fractions())

    def integers(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """The integer rows and the positive denominator the matrix is
        held as, in lowest terms: entry (i, j) is rows[i][j] / den."""
        return self._rows, self._den

    def take_rows(self, index_set: IndexSet) -> "Matrix":
        """Rows named by the 1-based members of index_set, in their order."""
        if index_set.ambient != self.rows:
            raise DimensionError("index set ambient does not match row count")
        if len(index_set) == 0:
            raise DimensionError("cannot take zero rows")
        return Matrix._of([self._rows[k - 1] for k in index_set], self._den)

    def transpose(self) -> "Matrix":
        return Matrix._of(list(zip(*self._rows)), self._den)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        cols = tuple(zip(*other._rows))
        return Matrix._of(
            [[sum(map(mul, row, col)) for col in cols] for row in self._rows],
            self._den * other._den,
        )

    def _plus(self, other: "Matrix", sign: int) -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionError("shape mismatch in addition")
        den = lcm(self._den, other._den)
        s, t = den // self._den, sign * (den // other._den)
        return Matrix._of(
            [[a * s + b * t for a, b in zip(r1, r2)]
             for r1, r2 in zip(self._rows, other._rows)],
            den,
        )

    def __add__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        return self._plus(other, 1)

    def __sub__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        return self._plus(other, -1)

    def __neg__(self) -> "Matrix":
        return Matrix._of([[-x for x in row] for row in self._rows], self._den)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self._den == other._den
            and self._rows == other._rows
        )

    def __hash__(self) -> int:
        return hash((self._den, self._rows))

    def __repr__(self) -> str:
        body = "; ".join(
            " ".join(format_rational(x) for x in row) for row in self._fractions()
        )
        return f"Matrix[{body}]"


def det(matrix: Matrix) -> Fraction:
    """Determinant by fraction-free elimination.  Square input only."""
    if matrix.rows != matrix.cols:
        raise DimensionError("determinant of a non-square matrix")
    return Fraction(_kernels.det_bareiss(matrix._rows), matrix._den**matrix.rows)


def inverse(matrix: Matrix) -> Matrix:
    """Exact inverse, read from the right half of rref([A | I])."""
    n = matrix.rows
    if n != matrix.cols:
        raise DimensionError("inverse of a non-square matrix")
    den = matrix._den
    reduced, pivots = rref(
        Matrix._of(
            [row + tuple(den * (i == j) for j in range(n))
             for i, row in enumerate(matrix._rows)],
            den,
        )
    )
    if pivots != tuple(range(n)):
        raise SingularMatrixError("matrix is singular")
    return Matrix._of([row[n:] for row in reduced._rows], reduced._den)


def rref(matrix: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form and the 0-based pivot column indices.

    The elimination is fraction-free: the first nonzero entry at or
    below the next pivot row is swapped up and _kernels.exchange pivots
    on it, so the rows stay integers over one common denominator, the
    last pivot, and every entry stays a minor of the input."""
    rows = [list(row) for row in matrix._rows]
    common = 1
    pivots: list[int] = []
    for col in range(matrix.cols):
        r = len(pivots)
        if r == len(rows):
            break
        found = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if found is None:
            continue
        rows[r], rows[found] = rows[found], rows[r]
        common = _kernels.exchange(rows, common, r, col)
        pivots.append(col)
    return Matrix._of(rows, common), tuple(pivots)


def rank(matrix: Matrix) -> int:
    return len(rref(matrix)[1])


def nullspace_columns(matrix: Matrix) -> list[tuple[Fraction, ...]]:
    """Basis vectors of the right kernel, ordered by free column index."""
    reduced, pivots = rref(matrix)
    ncols = matrix.cols
    pivot_set = set(pivots)
    free = [j for j in range(ncols) if j not in pivot_set]
    basis = []
    for f in free:
        vec = [_ZERO] * ncols
        vec[f] = _ONE
        for row_idx, p in enumerate(pivots):
            vec[p] = -reduced[row_idx, f]
        basis.append(tuple(vec))
    return basis


def vec_norm1(vector: Iterable) -> Fraction:
    """The 1-norm, as one Fraction: the numerators' absolute values
    summed over their least common denominator."""
    nums, den = common_denominator(as_rational(x) for x in vector)
    return Fraction(sum(map(abs, nums)), den)


def op_norm_inf(matrix: Matrix) -> Fraction:
    """Operator norm on sup-norm spaces: the largest absolute row sum."""
    return max(row_norms(matrix))


def row_norms(matrix: Matrix) -> list[Fraction]:
    """The 1-norm of each row."""
    return [Fraction(sum(map(abs, row)), matrix._den) for row in matrix._rows]


def common_denominator(values: Iterable) -> tuple[list[int], int]:
    """Fractions (or ints) as integer numerators over their least common
    denominator."""
    values = list(values)
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def cauchy_binet_check(a: Matrix, b: Matrix) -> tuple[Fraction, Fraction]:
    """Both sides of det(a^T b) = sum over size-m row subsets of products.

    a and b must share the shape N x m with m <= N.  Returns the pair
    (det of the product, the subset sum); callers compare them.  The
    subset sum runs on the integer rows of a and b (Matrix.integers),
    each block determinant a Bareiss elimination and b's taken only
    where a's is nonzero, and becomes one Fraction over
    (den_a den_b)**m at the end.
    """
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise DimensionError("shape mismatch")
    n, m = a.rows, a.cols
    if m > n:
        raise DimensionError("more columns than rows")
    lhs = det(a.transpose() @ b)
    total = 0
    for combo in itertools.combinations(range(n), m):
        d = _kernels.det_bareiss([a._rows[i] for i in combo])
        if d:
            total += d * _kernels.det_bareiss([b._rows[i] for i in combo])
    return lhs, Fraction(total, (a._den * b._den) ** m)
