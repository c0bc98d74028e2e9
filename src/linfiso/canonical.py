"""Subspace descriptions and their canonical annihilator families.

A subspace V of Q^N with codimension m is stored through a full-rank
N x m matrix whose columns annihilate V.  For an index set S of size m
whose row block is invertible, the canonical family rescales the
annihilator data into m vectors that carry the identity pattern on S;
their 1-norms drive both the isometry test and the distance bounds.

Two routes compute the families.  canonical_family is the paper's own
formulation, determinant ratios by Cramer's rule at one set: m(N - m) + 1
determinants, each by Bareiss elimination on the annihilator's integer
rows.  _prefix_walk walks the (m - 1)-prefixes Q of the admissible sets
in lexicographic order and moves from one prefix to the next by basis
exchange: the tableau is the m x N matrix C^T, whose row r is the
canonical vector of basis member r, and a Gauss-Jordan pivot on it is a
column exchange, so one pivot replaces a whole family of determinants.
The pivots are fraction-free (_kernels.exchange): the rows are integers
over one common denominator, the determinant of the current basis, so no
entry needs a gcd.  With Q in the basis, one row is left over: the
residual row rho of Q, which vanishes on Q and whose entry rho[x] is,
up to a factor fixed for the prefix, det F_{Q + x}.  So Q + x is
admissible exactly when rho[x] != 0, its last member's canonical vector
is rho / rho[x], and that member's determinantal inequality reads
||rho||_1 <= 2 |rho[x]|, with ||rho||_1 fixed per prefix: at most two x
per prefix pass it.  A set is completed, by one exchange on a copy of
the rows (_complete), only when a consumer needs its other members.  The
isometry test and the bounds read those integer rows in place, so the
paper's inequalities are integer comparisons.  A completed set's rows
become Fractions in one place, _family: exchange_families, the Fraction
view of the same walk, builds every set's family there, and decide only
its witness's.  The ratio route stays as the definition and the
independent check of both.

The scans of decide and bounds refuse a shape with more than a set
budget of C(N, m) index sets before they start (_check_set_budget):
their cost grows with that count, and where decide's scan would stop at
a witness cannot be known before it runs, so the budget counts sets,
not sets examined.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm
from typing import Iterator, Mapping

from . import _kernels
from .errors import (
    DimensionError,
    InadmissibleSetError,
    InvalidBasisError,
    SetBudgetError,
    WrongCodimensionError,
)
from .linalg import IndexSet, Matrix, det, nullspace_columns, rank, vec_norm1

_ONE = Fraction(1)
_ZERO = Fraction(0)

# the default set budget.  The widest shape under it is (19, 9), 92,378
# sets, whose full scan took 2 s in decide and 6.5 s materializing every
# bound on a 2-vCPU Intel Xeon; the largest shape the tests and
# benchmarks scan is (18, 6), 18,564 sets
MAX_SETS = 100_000


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


@dataclass(frozen=True)
class CanonicalFamily:
    """The canonical vectors attached to one admissible index set.

    vectors maps each member k of the index set to a length-N vector
    whose restriction to the set is the k-th identity row.  Its entries
    are ratios of determinants of row blocks of the annihilator F, so
    they depend only on the subspace and the set: a change of basis
    F -> F C multiplies both determinants of each ratio by det C.
    """

    index_set: IndexSet
    vectors: Mapping[int, tuple[Fraction, ...]]

    def matrix(self) -> Matrix:
        """N x m matrix whose columns are the vectors, in member order."""
        return Matrix.from_columns(
            self.vectors[k] for k in self.index_set
        )

    def norms(self) -> dict[int, Fraction]:
        return {k: vec_norm1(v) for k, v in self.vectors.items()}


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
    On the set itself that ratio collapses to the identity pattern.  The
    determinants are taken on the annihilator's rows with each column
    scaled to integers (_integer_columns); the scales cancel in every
    ratio.
    """
    if len(index_set) != spec.codim or index_set.ambient != spec.ambient:
        raise DimensionError("index set size must equal the codimension")
    rows = list(zip(*_integer_columns(spec)))
    block = [rows[k - 1] for k in index_set]
    d = _kernels.det_bareiss(block)
    if d == 0:
        raise InadmissibleSetError(f"row block {index_set} is singular")
    inside = set(index_set)
    vectors: dict[int, tuple[Fraction, ...]] = {}
    for pos, k in enumerate(index_set):
        entries = []
        for i in range(1, spec.ambient + 1):
            if i in inside:
                entries.append(_ONE if i == k else _ZERO)
            else:
                swapped = block[:pos] + [rows[i - 1]] + block[pos + 1 :]
                entries.append(Fraction(_kernels.det_bareiss(swapped), d))
        vectors[k] = tuple(entries)
    return CanonicalFamily(index_set, vectors)


def exchange_families(spec: SubspaceSpec) -> Iterator[CanonicalFamily]:
    """The admissible sets of admissible_sets, in the same order, one
    CanonicalFamily per set; the Fraction view of _prefix_walk, equal,
    entry for entry, to canonical_family at each set.  Every admissible
    completion of every prefix is completed (_complete) and read by
    _family, as decide_isometric reads its witness."""
    n = spec.ambient
    for prefix, order, rows, common, free in _prefix_walk(spec):
        rho = rows[free]
        for x in range(prefix[-1] + 1 if prefix else 0, n):
            if not rho[x]:
                continue
            done, den = _complete(rows, common, free, x)
            yield _family(n, prefix + (x,), order + (free,), done, den)


def _family(n: int, members, order, rows: list, den: int) -> CanonicalFamily:
    """The CanonicalFamily of a completed set: members are its 0-based
    coordinates in ascending order, and tableau row order[j] over the
    signed common denominator den, as _complete returns them, is the
    canonical vector of members[j]."""
    vectors = {
        q + 1: tuple(Fraction(v, den) for v in rows[r])
        for q, r in zip(members, order)
    }
    return CanonicalFamily(IndexSet(tuple(q + 1 for q in members), n), vectors)


def _integer_columns(spec: SubspaceSpec) -> list[list[int]]:
    """The annihilator's columns, each scaled to integers by the lcm of
    its own denominators."""
    columns = []
    for j in range(spec.codim):
        column = spec.annihilator.column(j)
        c = lcm(*(x.denominator for x in column))
        columns.append([x.numerator * (c // x.denominator) for x in column])
    return columns


def _check_set_budget(spec: SubspaceSpec, max_sets: int) -> None:
    """Raise SetBudgetError when the spec has more than max_sets index
    sets."""
    count = comb(spec.ambient, spec.codim)
    if count > max_sets:
        raise SetBudgetError(
            f"C({spec.ambient}, {spec.codim}) = {count} index sets exceed "
            f"the set budget of {max_sets}"
        )


def _prefix_walk(spec: SubspaceSpec):
    """Walk the prefixes of the admissible sets in lexicographic order
    by basis exchange.

    A prefix is an (m - 1)-subset Q of range(N - 1); the sets Q + (x,)
    with x > max Q, prefix by prefix, are the m-subsets in the order of
    admissible_sets.  The tableau is m integer rows of length N over the
    common denominator `common`: column j of the annihilator, scaled to
    integers (_integer_columns), starts as row j with `common` = 1,
    which is the tableau of [I | F^T] on the basis of its m unit
    columns, and `common` stays the determinant of the basis columns
    after each exchange.  Once every basis member is a coordinate, row r
    over `common` is the canonical vector of basis[r], and `common` is
    the determinant of their block of F, rows in basis order, times the
    product of the column scales; `common` can be negative.

    To reach the next prefix, each entering member q pivots on the
    first leaving row with a nonzero entry at column q.  The pivots are
    a greedy elimination of the tableau's columns Q, which have rank
    m - 1 exactly when the rows of F at Q are independent; so a leaving
    row with a nonzero entry exists at every step exactly when they are.
    When none does, every set Q + (x,) has a singular block, so the
    prefix is skipped and the basis stays where the pivots left it,
    which is still a basis, so the walk never refactors.

    Once Q is in the basis, exactly one row, `free`, belongs to a member
    outside Q.  That row rho is the residual row of Q: it vanishes on Q
    and, by Cramer's rule, rho[y] is det F_{Q+y} (y in the free row's
    place) times a factor that does not depend on y.  So Q + (x,) is
    admissible exactly when rho[x] != 0, and completing it is one more
    exchange on (free, x) (_complete), after which row free still holds
    rho and rho / rho[x] is the canonical vector of x.  Its 1-norm
    ||rho||_1 / |rho[x]| is x's determinantal inequality, with
    ||rho||_1 fixed for the prefix: at most two x can have
    ||rho||_1 <= 2 |rho[x]|, as three such entries would sum to more
    than ||rho||_1.  At m = 1 the only prefix is empty and rho is the
    scaled column of F.

    Yields (prefix, order, rows, common, free): prefix is Q as a tuple
    of 0-based coordinates, and order[j] is the tableau row of
    prefix[j].  The tableau is live and changes at the next step;
    consumers read it in place and complete sets on copies."""
    n, m = spec.ambient, spec.codim
    rows = _integer_columns(spec)
    common = 1
    basis = [-1] * m  # -1: the row's basis member is still its unit column
    row_of: dict[int, int] = {}
    for prefix in itertools.combinations(range(n - 1), m - 1):
        leaving = [r for r, q in enumerate(basis) if q not in prefix]
        for q in prefix:
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
            yield prefix, tuple(row_of[q] for q in prefix), rows, common, leaving[0]


def _complete(rows: list, common: int, free: int, x: int) -> tuple[list, int]:
    """The tableau of the set prefix + (x,), for a prefix's live rows
    with rows[free][x] != 0: one exchange on (free, x), applied to a copy,
    row -> (row * rho[x] - row[x] * rho) / common.  Returns the rows and
    their common denominator rho[x]; row free is rho itself."""
    done = list(rows)
    return done, _kernels.exchange(done, common, free, x)


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
    return [_minor_vector(f, g, k) for k in range(spec.ambient)]


def _minor_vector(f, g, k: int) -> tuple[Fraction, ...]:
    """f_k * g - g_k * f, vector k of minor_vectors (0-based k)."""
    return tuple(f[k] * y - g[k] * x for x, y in zip(f, g))


def family_from_minors(spec: SubspaceSpec, index_set: IndexSet) -> CanonicalFamily:
    """Canonical vectors for codimension 2, rebuilt from the two minor
    vectors of the set's members instead of determinant ratios; used to
    cross-validate the two routes."""
    if spec.codim != 2:
        raise WrongCodimensionError("minor route needs codimension 2")
    if len(index_set) != 2 or index_set.ambient != spec.ambient:
        raise DimensionError("index set must have exactly two members")
    k, l = index_set.members
    f = spec.annihilator.column(0)
    g = spec.annihilator.column(1)
    minor_k, minor_l = _minor_vector(f, g, k - 1), _minor_vector(f, g, l - 1)
    pivot_kl = minor_k[l - 1]
    if pivot_kl == 0:
        raise InadmissibleSetError(f"row block {index_set} is singular")
    vec_k = tuple(x / minor_l[k - 1] for x in minor_l)
    vec_l = tuple(x / pivot_kl for x in minor_k)
    return CanonicalFamily(index_set, {k: vec_k, l: vec_l})
