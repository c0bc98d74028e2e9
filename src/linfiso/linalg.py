"""Exact rational vectors, matrices, and index sets.

Everything is a Fraction; floats are rejected at the door so no rounding
can sneak in.  Matrix and IndexSet are immutable.  Matrix indices are
0-based Python indices; IndexSet members are 1-based coordinates of the
ambient space, which is the convention used in every report and file
format this package emits.
"""

from __future__ import annotations

import itertools
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from . import _kernels
from .errors import BoundsError, DimensionError, SingularMatrixError

Rational = Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)

# An optional sign, digits, then optionally /digits or .digits.  Fraction
# alone would also take exponents ("1e300000") and underscores.
_TOKEN = re.compile(r"[+-]?[0-9]+(?:/[0-9]+|\.[0-9]+)?")


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
        if _TOKEN.fullmatch(value) is None:
            raise ValueError(f"not rational: {token_excerpt(value)}")
        try:
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
    def all_of_size(cls, ambient: int, size: int) -> Iterator["IndexSet"]:
        """All size-element subsets of {1..ambient} in lexicographic order."""
        for combo in itertools.combinations(range(1, ambient + 1), size):
            yield cls(combo, ambient)

    def position(self, member: int) -> int:
        """0-based position of a member within the set."""
        try:
            return self.members.index(member)
        except ValueError:
            raise BoundsError(f"{member} is not in {self}") from None

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, k) -> bool:
        return k in self.members

    def __str__(self) -> str:
        return "{" + ",".join(str(k) for k in self.members) + "}"


class Matrix:
    """Immutable rational matrix with at least one row and one column."""

    __slots__ = ("_data",)

    def __init__(self, rows: Iterable[Iterable]):
        data = tuple(tuple(as_rational(x) for x in row) for row in rows)
        if not data or not data[0]:
            raise DimensionError("matrix needs at least one row and one column")
        width = len(data[0])
        if any(len(row) != width for row in data):
            raise DimensionError("ragged rows")
        object.__setattr__(self, "_data", data)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls([[_ZERO] * cols for _ in range(rows)])

    @classmethod
    def from_columns(cls, columns: Iterable[Iterable]) -> "Matrix":
        cols = [tuple(as_rational(x) for x in c) for c in columns]
        if not cols:
            raise DimensionError("need at least one column")
        return cls(zip(*cols))

    @classmethod
    def column_vector(cls, entries: Iterable) -> "Matrix":
        return cls([[x] for x in entries])

    @property
    def rows(self) -> int:
        return len(self._data)

    @property
    def cols(self) -> int:
        return len(self._data[0])

    def __getitem__(self, key) -> Fraction:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise BoundsError(f"entry ({i},{j}) outside {self.rows}x{self.cols}")
        return self._data[i][j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        if not 0 <= i < self.rows:
            raise BoundsError(f"row {i} outside 0..{self.rows - 1}")
        return self._data[i]

    def column(self, j: int) -> tuple[Fraction, ...]:
        if not 0 <= j < self.cols:
            raise BoundsError(f"column {j} outside 0..{self.cols - 1}")
        return tuple(row[j] for row in self._data)

    def take_rows(self, index_set: IndexSet) -> "Matrix":
        """Rows named by the 1-based members of index_set, in their order."""
        if index_set.ambient != self.rows:
            raise DimensionError("index set ambient does not match row count")
        if len(index_set) == 0:
            raise DimensionError("cannot take zero rows")
        return Matrix(self._data[k - 1] for k in index_set)

    def replace_row(self, i: int, row: Sequence) -> "Matrix":
        new_row = tuple(as_rational(x) for x in row)
        if len(new_row) != self.cols:
            raise DimensionError("replacement row has the wrong length")
        if not 0 <= i < self.rows:
            raise BoundsError(f"row {i} outside 0..{self.rows - 1}")
        data = list(self._data)
        data[i] = new_row
        return Matrix(data)

    def transpose(self) -> "Matrix":
        return Matrix(zip(*self._data))

    def to_lists(self) -> list[list[Fraction]]:
        return [list(row) for row in self._data]

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        other_t = list(zip(*other._data))
        return Matrix(
            [
                [
                    sum((a * b for a, b in zip(row, col)), _ZERO)
                    for col in other_t
                ]
                for row in self._data
            ]
        )

    def __add__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionError("shape mismatch in addition")
        return Matrix(
            [a + b for a, b in zip(r1, r2)]
            for r1, r2 in zip(self._data, other._data)
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "Matrix":
        return Matrix([-x for x in row] for row in self._data)

    def __eq__(self, other) -> bool:
        return isinstance(other, Matrix) and self._data == other._data

    def __hash__(self) -> int:
        return hash(self._data)

    def __repr__(self) -> str:
        body = "; ".join(
            " ".join(format_rational(x) for x in row) for row in self._data
        )
        return f"Matrix[{body}]"


def _flat_pairs(matrix: Matrix) -> tuple[list[int], list[int]]:
    nums: list[int] = []
    dens: list[int] = []
    for i in range(matrix.rows):
        for x in matrix.row(i):
            nums.append(x.numerator)
            dens.append(x.denominator)
    return nums, dens


def det(matrix: Matrix) -> Fraction:
    """Determinant by fraction-free elimination.  Square input only."""
    if matrix.rows != matrix.cols:
        raise DimensionError("determinant of a non-square matrix")
    nums, dens = _flat_pairs(matrix)
    num, den = _kernels.det_bareiss(matrix.rows, nums, dens)
    return Fraction(num, den)


def inverse(matrix: Matrix) -> Matrix:
    """Exact inverse, read from the right half of rref([A | I])."""
    n = matrix.rows
    if n != matrix.cols:
        raise DimensionError("inverse of a non-square matrix")
    reduced, pivots = rref(
        Matrix(
            matrix.row(i) + tuple(_ONE if i == j else _ZERO for j in range(n))
            for i in range(n)
        )
    )
    if pivots != tuple(range(n)):
        raise SingularMatrixError("matrix is singular")
    return Matrix(reduced.row(i)[n:] for i in range(n))


def rref(matrix: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form and the 0-based pivot column indices."""
    work = matrix.to_lists()
    nrows, ncols = matrix.rows, matrix.cols
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        pivot_row = next(
            (i for i in range(r, nrows) if work[i][col] != 0), None
        )
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        inv = 1 / work[r][col]
        work[r] = [inv * x for x in work[r]]
        for i in range(nrows):
            if i == r or work[i][col] == 0:
                continue
            factor = work[i][col]
            work[i] = [a - factor * b for a, b in zip(work[i], work[r])]
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return Matrix(work), tuple(pivots)


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
    return sum((abs(as_rational(x)) for x in vector), _ZERO)


def vec_norm_inf(vector: Iterable) -> Fraction:
    entries = [abs(as_rational(x)) for x in vector]
    if not entries:
        raise DimensionError("norm of an empty vector")
    return max(entries)


def op_norm_inf(matrix: Matrix) -> Fraction:
    """Operator norm on sup-norm spaces: the largest absolute row sum."""
    return max(vec_norm1(matrix.row(i)) for i in range(matrix.rows))


def cauchy_binet_check(a: Matrix, b: Matrix) -> tuple[Fraction, Fraction]:
    """Both sides of det(a^T b) = sum over size-m row subsets of products.

    a and b must share the shape N x m with m <= N.  Returns the pair
    (det of the product, the subset sum); callers compare them.
    """
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise DimensionError("shape mismatch")
    n, m = a.rows, a.cols
    if m > n:
        raise DimensionError("more columns than rows")
    lhs = det(a.transpose() @ b)
    rhs = _ZERO
    for index_set in IndexSet.all_of_size(n, m):
        rhs += det(a.take_rows(index_set)) * det(b.take_rows(index_set))
    return lhs, rhs
