"""Subspace descriptions and their canonical annihilator families.

A subspace V of Q^N with codimension m is stored through a full-rank
N x m matrix whose columns annihilate V.  For an index set S of size m
whose row block is invertible, the canonical family rescales the
annihilator data into m vectors that carry the identity pattern on S;
their 1-norms drive both the isometry test and the distance bounds.

Two routes compute the families.  canonical_family is the paper's own
formulation, determinant ratios by Cramer's rule at one set: m(N - m) + 2
determinants.  canonical_scan walks every admissible set in the order of
admissible_sets and moves from one family to the next by basis exchange:
the family is kept as the m x N matrix C_S^T, whose row r is the vector
of basis member r, and a Gauss-Jordan pivot on that matrix is the column
exchange C_S' = C_S E, so one pivot replaces a whole family of
determinants.  The pivots are fraction-free (_kernels.exchange): the
rows are integers over one common denominator, the determinant of the
current basis, so the block determinant comes with every family and no
entry needs a gcd.  The scan serves the isometry test and the bounds;
the ratio route stays as the definition and the independent check of it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterator, Mapping

from . import _kernels
from .errors import (
    DimensionError,
    InadmissibleSetError,
    InvalidBasisError,
    WrongCodimensionError,
)
from .linalg import IndexSet, Matrix, det, nullspace_columns, rank, vec_norm1

_ONE = Fraction(1)
_ZERO = Fraction(0)


@dataclass(frozen=True)
class SubspaceSpec:
    """A codimension-m subspace of Q^N, described by its annihilator.

    annihilator: N x m matrix of full column rank; V is the set of
    vectors killed by every column.  1 <= m < N always holds.
    """

    annihilator: Matrix

    def __post_init__(self):
        mat = self.annihilator
        if mat.cols >= mat.rows:
            raise InvalidBasisError(
                "codimension must be smaller than the ambient dimension"
            )
        if rank(mat) != mat.cols:
            raise InvalidBasisError("annihilator columns are linearly dependent")

    @property
    def ambient(self) -> int:
        return self.annihilator.rows

    @property
    def codim(self) -> int:
        return self.annihilator.cols

    @property
    def dim(self) -> int:
        return self.ambient - self.codim

    def spanning_columns(self) -> list[tuple[Fraction, ...]]:
        """A basis of the subspace itself, as kernel vectors of the
        transposed annihilator."""
        return nullspace_columns(self.annihilator.transpose())


def subspace_from_annihilator(entries) -> SubspaceSpec:
    """Build a spec from an N x m matrix (or a flat vector when m = 1)."""
    if isinstance(entries, Matrix):
        mat = entries
    else:
        rows = list(entries)
        if rows and not _is_iterable_row(rows[0]):
            mat = Matrix.column_vector(rows)
        else:
            mat = Matrix(rows)
    return SubspaceSpec(mat)


def subspace_from_spanning_set(entries) -> SubspaceSpec:
    """Build a spec from an N x n matrix whose columns span the subspace."""
    mat = entries if isinstance(entries, Matrix) else Matrix(entries)
    n = mat.cols
    if rank(mat) != n:
        raise InvalidBasisError("spanning columns are linearly dependent")
    if n >= mat.rows:
        raise InvalidBasisError("spanning set already fills the ambient space")
    kernel = nullspace_columns(mat.transpose())
    return SubspaceSpec(Matrix.from_columns(kernel))


def _is_iterable_row(obj) -> bool:
    if isinstance(obj, (str, bytes)):
        return False
    try:
        iter(obj)
    except TypeError:
        return False
    return True


@dataclass(frozen=True, eq=False)
class CanonicalFamily:
    """The canonical vectors attached to one admissible index set.

    vectors maps each member k of the index set to a length-N vector
    whose restriction to the set is the k-th identity row.  block_det is
    the determinant of the selected square row block of the annihilator.
    """

    index_set: IndexSet
    vectors: Mapping[int, tuple[Fraction, ...]]
    block_det: Fraction

    def matrix(self) -> Matrix:
        """N x m matrix whose columns are the vectors, in member order."""
        return Matrix.from_columns(
            self.vectors[k] for k in self.index_set
        )

    def norms(self) -> dict[int, Fraction]:
        return {k: vec_norm1(v) for k, v in self.vectors.items()}

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CanonicalFamily)
            and self.index_set == other.index_set
            and dict(self.vectors) == dict(other.vectors)
            and self.block_det == other.block_det
        )


def admissible_sets(spec: SubspaceSpec) -> Iterator[tuple[IndexSet, Fraction]]:
    """Index sets with an invertible row block, lexicographically, with
    the block determinant attached."""
    mat = spec.annihilator
    for index_set in IndexSet.all_of_size(spec.ambient, spec.codim):
        block = mat.take_rows(index_set)
        d = det(block)
        if d != 0:
            yield index_set, d


def canonical_family(spec: SubspaceSpec, index_set: IndexSet) -> CanonicalFamily:
    """Canonical vectors for one index set, by determinant ratios.

    Entry i of the vector for member k is the determinant of the row
    block with row k swapped for row i, divided by the block determinant.
    On the set itself that ratio collapses to the identity pattern.
    """
    if len(index_set) != spec.codim or index_set.ambient != spec.ambient:
        raise DimensionError("index set size must equal the codimension")
    mat = spec.annihilator
    block = mat.take_rows(index_set)
    d = det(block)
    if d == 0:
        raise InadmissibleSetError(f"row block {index_set} is singular")
    inside = set(index_set)
    vectors: dict[int, tuple[Fraction, ...]] = {}
    for k in index_set:
        pos = index_set.position(k)
        entries = []
        for i in range(1, spec.ambient + 1):
            if i in inside:
                entries.append(_ONE if i == k else _ZERO)
            else:
                swapped = block.replace_row(pos, mat.row(i - 1))
                entries.append(det(swapped) / d)
        vectors[k] = tuple(entries)
    return CanonicalFamily(index_set, vectors, d)


def canonical_scan(
    spec: SubspaceSpec,
) -> Iterator[tuple[IndexSet, Fraction, tuple[Fraction, ...]]]:
    """The admissible sets of admissible_sets, in the same order, each
    with its block determinant and the 1-norms of its canonical vectors
    in member order; computed by basis exchange, with no family built per
    set."""
    for index_set, block_det, order, rows, common in _exchange_walk(spec):
        den = abs(common)
        yield index_set, block_det, tuple(
            Fraction(sum(map(abs, rows[r])), den) for r in order
        )


def exchange_families(spec: SubspaceSpec) -> Iterator[CanonicalFamily]:
    """The families of canonical_scan, one CanonicalFamily per set; equal,
    entry for entry, to canonical_family at each admissible set."""
    for index_set, block_det, order, rows, common in _exchange_walk(spec):
        vectors = {
            k: tuple(Fraction(x, common) for x in rows[r])
            for k, r in zip(index_set, order)
        }
        yield CanonicalFamily(index_set, vectors, block_det)


def _exchange_walk(spec: SubspaceSpec):
    """Walk the admissible sets in lexicographic order by basis exchange.

    The tableau is m integer rows of length N over the common
    denominator `common`: column j of the annihilator, scaled by the lcm
    c_j of its denominators, starts as row j with `common` = 1, which is
    the tableau of [I | F^T] on the basis of its m unit columns.  Once
    every basis member is a coordinate, row r divided by `common` is the
    canonical vector of basis[r], a 0-based coordinate, in whatever
    order the exchanges left the rows, and `common` is the determinant
    of those coordinates' block, rows in basis order, times the product
    of the c_j.

    To reach the next set T, each entering member q pivots on the first
    leaving row with a nonzero entry at column q.  det F_T / det F_B is,
    up to sign, the determinant of the block C_B[T - B, B - T], and these
    pivots are a greedy elimination of that block; so a leaving row with
    a nonzero entry exists at every step exactly when T is admissible.
    When none does, T is skipped and the basis stays where the pivots
    left it, which is still a basis, so the walk never refactors.  The
    same rule reaches the first admissible set from the unit columns.

    Yields (index_set, block_det, order, rows, common) where order[j]
    is the tableau row of the j-th member; the tableau is live and
    changes at the next step."""
    n, m = spec.ambient, spec.codim
    rows = []
    scale = 1
    for j in range(m):
        column = spec.annihilator.column(j)
        c = lcm(*(x.denominator for x in column))
        scale *= c
        rows.append([x.numerator * (c // x.denominator) for x in column])
    common = 1
    basis = [-1] * m  # -1: the row's basis member is still its unit column
    row_of: dict[int, int] = {}
    for combo in itertools.combinations(range(n), m):
        leaving = [r for r, q in enumerate(basis) if q not in combo]
        for q in combo:
            if q in row_of:
                continue
            r = next((r for r in leaving if rows[r][q]), None)
            if r is None:
                break
            common = _kernels.exchange(rows, common, r, q)
            row_of.pop(basis[r], None)
            basis[r] = q
            row_of[q] = r
            leaving.remove(r)
        else:
            order = tuple(row_of[q] for q in combo)
            block_det = Fraction(-common if _odd(order) else common, scale)
            index_set = IndexSet(tuple(q + 1 for q in combo), n)
            yield index_set, block_det, order, rows, common


def _odd(perm: tuple[int, ...]) -> bool:
    """Whether the permutation has an odd number of inversions."""
    inversions = sum(
        1 for i, a in enumerate(perm) for b in perm[i + 1 :] if a > b
    )
    return inversions % 2 == 1


def minor_vectors(spec: SubspaceSpec) -> list[tuple[Fraction, ...]]:
    """For codimension 2: one vector per coordinate, built from the 2x2
    minors of the annihilator.

    With columns f and g, vector k is f_k * g - g_k * f; entry l equals
    the minor on rows {k, l}, so entry k vanishes and the l-th entry of
    vector k is the negative of the k-th entry of vector l.
    """
    if spec.codim != 2:
        raise WrongCodimensionError("minor vectors need codimension 2")
    f = spec.annihilator.column(0)
    g = spec.annihilator.column(1)
    return [
        tuple(f[k] * g[i] - g[k] * f[i] for i in range(spec.ambient))
        for k in range(spec.ambient)
    ]


def family_from_minors(spec: SubspaceSpec, index_set: IndexSet) -> CanonicalFamily:
    """Canonical vectors for codimension 2, rebuilt from minor vectors
    instead of determinant ratios; used to cross-validate the two routes."""
    if spec.codim != 2:
        raise WrongCodimensionError("minor route needs codimension 2")
    if len(index_set) != 2 or index_set.ambient != spec.ambient:
        raise DimensionError("index set must have exactly two members")
    k, l = index_set.members
    minors = minor_vectors(spec)
    pivot_kl = minors[k - 1][l - 1]
    if pivot_kl == 0:
        raise InadmissibleSetError(f"row block {index_set} is singular")
    vec_k = tuple(x / minors[l - 1][k - 1] for x in minors[l - 1])
    vec_l = tuple(x / pivot_kl for x in minors[k - 1])
    return CanonicalFamily(index_set, {k: vec_k, l: vec_l}, pivot_kl)
