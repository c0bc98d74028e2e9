"""Subspace descriptions and their canonical annihilator families.

A subspace V of Q^N with codimension m is stored through a full-rank
N x m matrix whose columns annihilate V.  For an index set S of size m
whose row block is invertible, the canonical family rescales the
annihilator data into m vectors that carry the identity pattern on S;
their 1-norms drive both the isometry test and the distance bounds.

Two routes compute the families.  canonical_family is the paper's own
formulation, determinant ratios by Cramer's rule at one set: m(N - m) + 1
determinants, each by Bareiss elimination on the annihilator's columns
scaled to integers, which each spec computes once
(SubspaceSpec._integer_columns).  _prefix_walk walks the
(m - 1)-prefixes Q of the admissible sets in lexicographic order by
basis exchange: the tableau is the m x N matrix C^T, whose row r is the
canonical vector of basis member r, and a Gauss-Jordan pivot on it is a
column exchange, so one pivot replaces a whole family of determinants.
The pivots are fraction-free (_kernels.exchange): the rows are integers
over one common denominator, the determinant of the current basis, so no
entry needs a gcd.  The live tableau stands one level short of Q, at
its parent R = Q minus its last member d, with two rows left over; the
residual row rho of Q is the one row that pivoting d in would leave
outside Q, so it costs one row of that exchange, N products, and the
exchange itself is made only where a consumer reads the other rows.
rho vanishes on Q, and its entry |rho[x]| is |det F_{Q + x}| times the
product of the column scales, the same from every prefix of Q + x; its
sign depends on the pivots.  So Q + x is admissible exactly when
rho[x] != 0, and then rho / rho[x] is the canonical vector of x in
Q + x for every such x outside Q, not only for x > max Q: it is the one
vector of F's column span that vanishes on Q and is 1 at x.  x's
determinantal inequality reads ||rho||_1 <= 2 |rho[x]|, with ||rho||_1
fixed per prefix: at most two x per prefix pass it.  decide completes
only those candidates (_complete, two exchanges on a copy of the
parent's rows: d's, then x's) and tests every completed row against
2 |rho[x]|.  The bounds scan reads no other row: it reads each member y
of a set S off the residual row of S - y, and for the prefixes that
hold coordinate N - 1, which the walk skips, it sums the |rho[x]| the
walk recorded.  The isometry test and the bounds compare those
integers, so the paper's inequalities are integer comparisons.  A
completed set's rows become Fractions in one place, _family:
exchange_families, the Fraction view of the same walk, completes every
admissible set through the same _complete and builds its family there,
and decide only its witness's.  The ratio route stays as the definition
and the independent check of both.

At codimension 2 a third route reads the 2 x 2 minors (minor_vectors,
family_from_minors) off the annihilator's integer rows over their one
denominator (Matrix.integers), not the column-scaled rows, so it shares
no input form with the other two.  admissible_sets also reads those
rows.

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
from functools import cached_property
from math import comb, gcd
from typing import Iterator, Mapping

from . import _kernels
from .errors import (
    DimensionError,
    InadmissibleSetError,
    InvalidBasisError,
    SetBudgetError,
    WrongCodimensionError,
)
from .linalg import IndexSet, Matrix, nullspace_columns, rank, vec_norm1

_ONE = Fraction(1)
_ZERO = Fraction(0)

# the default set budget.  The widest shape under it is (19, 9), 92,378
# sets, whose full scan took about 1 s in decide and 1.5 s materializing
# every bound on a 2-vCPU Intel Xeon; the widest scan in the tests and
# benchmarks is the start scan of bench_layers' (20, 4) LP rung, 4,845
# sets
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

    @cached_property
    def _integer_columns(self) -> tuple[tuple[int, ...], ...]:
        """The annihilator's columns, each scaled to integers by the lcm
        of its own denominators: the rows of the ratio route and the
        starting tableau of the prefix walk.  Computed once per spec and
        immutable, so the walk exchanges a copy.  Column j of the integer
        rows over den (Matrix.integers) has that lcm den / g, g the gcd of
        den and the column, so the scaled column is the column over g."""
        rows, den = self.annihilator.integers()
        columns = []
        for column in zip(*rows):
            g = gcd(den, *column)
            columns.append(tuple(x // g for x in column))
        return tuple(columns)


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

    def norms(self) -> dict[int, Fraction]:
        return {k: vec_norm1(v) for k, v in self.vectors.items()}


def admissible_sets(spec: SubspaceSpec) -> Iterator[tuple[IndexSet, Fraction]]:
    """Index sets with an invertible row block, lexicographically, with
    the block determinant attached.

    Each block's determinant is a Bareiss elimination on the
    annihilator's integer rows (Matrix.integers), which stand over den,
    so the determinant stands over den**m; a Fraction and an IndexSet
    are built only for the sets yielded."""
    rows, den = spec.annihilator.integers()
    n, m = spec.ambient, spec.codim
    scale = den**m
    for combo in itertools.combinations(range(n), m):
        d = _kernels.det_bareiss([rows[k] for k in combo])
        if d:
            yield IndexSet._of(tuple(k + 1 for k in combo), n), Fraction(d, scale)


def canonical_family(spec: SubspaceSpec, index_set: IndexSet) -> CanonicalFamily:
    """Canonical vectors for one index set, by determinant ratios.

    Entry i of the vector for member k is the determinant of the row
    block with row k swapped for row i, divided by the block determinant.
    On the set itself that ratio collapses to the identity pattern.  The
    determinants are taken on the annihilator's rows with each column
    scaled to integers (SubspaceSpec._integer_columns, computed once per
    spec); the scales cancel in every ratio.
    """
    if len(index_set) != spec.codim or index_set.ambient != spec.ambient:
        raise DimensionError("index set size must equal the codimension")
    rows = list(zip(*spec._integer_columns))
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
    set is completed (_complete) and read by _family, as
    decide_isometric completes and tests its candidates."""
    n = spec.ambient
    for prefix, rho, parent in _prefix_walk(spec):
        for x in range(prefix[-1] + 1 if prefix else 0, n):
            if rho[x]:
                rows, den, order = _complete(prefix, rho, parent, x)
                yield _family(n, prefix + (x,), order, rows, den)


def _family(n: int, members, order, rows: list, den: int) -> CanonicalFamily:
    """The CanonicalFamily of a set that _complete completed: members
    are its 0-based coordinates in ascending order, and row order[j]
    over the signed den is the canonical vector of members[j]."""
    vectors = {
        q + 1: tuple(Fraction(v, den) for v in rows[r])
        for q, r in zip(members, order)
    }
    return CanonicalFamily(IndexSet._of(tuple(q + 1 for q in members), n), vectors)


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
    by basis exchange, with the live tableau at each prefix's parent.

    A prefix is an (m - 1)-subset Q of range(N - 1); the sets Q + (x,)
    with x > max Q, prefix by prefix, are then the m-subsets in the
    order of admissible_sets.  Each Q is R + (d,) for its parent R, an
    (m - 2)-subset of range(N - 2), and d > max R; so the Q in order
    are the d of each R in turn, the R in order.

    The live tableau stands at the parents.  It is m integer rows of
    length N over the common denominator `common`: column j of the
    annihilator, scaled to integers (a copy of
    SubspaceSpec._integer_columns, since the exchanges work in place),
    starts as row j with `common` = 1, which is the tableau of [I | F^T]
    on the basis of its m unit columns, and `common` stays the
    determinant of the basis columns after each exchange.  Once every
    basis member is a coordinate, row r over `common` is the canonical
    vector of basis[r], and `common` is the determinant of their block
    of F, rows in basis order, times the product of the column scales;
    `common` can be negative.

    To reach the next parent, each entering member q pivots on the
    first leaving row with a nonzero entry at column q.  The pivots are
    a greedy elimination of the tableau's columns R, which have rank
    m - 2 exactly when the rows of F at R are independent; so a leaving
    row with a nonzero entry exists at every step exactly when they are.
    When none does, every set holding R has a singular block, so every
    Q = R + (d,) is skipped, and the basis stays where the pivots left
    it, which is still a basis, so the walk never refactors.

    With R in the basis two rows, u and v in row order, belong to
    members outside R.  Pivoting d in on u would be one exchange, and
    it would leave one row outside Q: the residual row rho of Q,
    (v u[d] - v[d] u) / common, the one row of that exchange the scans
    read.  So each Q costs N products, not the m N of the exchange.
    When u[d] = 0 the pivot is v, and rho is u v[d] / common; when both
    are 0, the rows of F at Q are dependent and Q is skipped.  At m = 2
    the only parent is empty and the walk makes no exchange at all.

    rho vanishes on Q and, by Cramer's rule, rho[y] is det F_{Q+y}
    (y in the free row's place) times a factor that does not depend on
    y; |rho[y]| is |det F_{Q+y}| times the product of the column
    scales, the same from every prefix of Q + y, while its sign depends
    on the pivots that reached Q.  So Q + (x,) is admissible exactly
    when rho[x] != 0, and then rho / rho[x] is the canonical vector of
    x in Q + (x,), for every x outside Q, not only for x > max Q (see
    the module docstring).  At
    m = 1 the only prefix is empty and rho is the scaled column of F.

    Yields (prefix, rho, parent): prefix is Q as a tuple of 0-based
    coordinates, rho its residual row, and parent the live tableau of
    R, (rows, common, order, u, v), order[j] the tableau row of R[j]
    (None at m = 1).  The tableau changes at the next parent; the
    bounds scan reads rho alone, and decide and exchange_families
    complete a set Q + (x,) from it (_complete), on a copy, only where
    they read the other members' rows."""
    n, m = spec.ambient, spec.codim
    rows = [list(column) for column in spec._integer_columns]
    if m == 1:
        yield (), rows[0], None
        return
    common = 1
    basis = [-1] * m  # -1: the row's basis member is still its unit column
    row_of: dict[int, int] = {}
    for head in itertools.combinations(range(n - 2), m - 2):
        leaving = [r for r, q in enumerate(basis) if q not in head]
        for q in head:
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
            u, v = leaving
            parent = rows, common, tuple(row_of[q] for q in head), u, v
            row_u, row_v = rows[u], rows[v]
            for d in range(head[-1] + 1 if head else 0, n - 1):
                p, h = row_u[d], row_v[d]
                if p:
                    rho = [(a * p - h * b) // common for a, b in zip(row_v, row_u)]
                elif h:
                    rho = [b * h // common for b in row_u]
                else:
                    continue
                yield head + (d,), rho, parent


def _complete(prefix: tuple, rho: list, parent, x: int) -> tuple[list, int, tuple]:
    """The tableau of the set prefix + (x,), for a prefix Q that
    _prefix_walk yielded with rho and parent, and rho[x] != 0: on a copy
    of the parent's rows, Q's last member d is pivoted in on the first
    free row with a nonzero entry at d, which leaves rho on the other
    row, and x is pivoted in on that row.  Returns (rows, den, order):
    row order[j] over the signed den = rho[x] is the canonical vector of
    (prefix + (x,))[j], and row order[-1] is rho itself.  At m = 1
    (parent None) the rows are [rho] alone."""
    if parent is None:
        return [rho], rho[x], (0,)
    rows, common, order, u, v = parent
    d = prefix[-1]
    if not rows[u][d]:
        u, v = v, u
    done = list(rows)
    common = _kernels.exchange(done, common, u, d)
    return done, _kernels.exchange(done, common, v, x), order + (u, v)


def minor_vectors(spec: SubspaceSpec) -> list[tuple[Fraction, ...]]:
    """For codimension 2: one vector per coordinate, built from the 2x2
    minors of the annihilator.

    With columns f and g, vector k is f_k * g - g_k * f; entry l equals
    the minor on rows {k, l}, so entry k vanishes and the l-th entry of
    vector k is the negative of the k-th entry of vector l.  The minors
    are taken on the annihilator's integer rows over den
    (Matrix.integers, by _minor_row) and become Fractions over den**2
    only here.  The minor route reads those rows, not the column-scaled
    ones of the ratio route and the walk, so it stays independent of
    both.
    """
    if spec.codim != 2:
        raise WrongCodimensionError("minor vectors need codimension 2")
    rows, den = spec.annihilator.integers()
    scale = den * den
    return [
        tuple(Fraction(v, scale) for v in _minor_row(rows, k))
        for k in range(spec.ambient)
    ]


def _minor_row(rows, k: int) -> list[int]:
    """f_k * g - g_k * f on integer rows (f_i, g_i), vector k of
    minor_vectors (0-based k) times den**2: entry l is the minor on rows
    {k, l}."""
    fk, gk = rows[k]
    return [fk * g - gk * f for f, g in rows]


def family_from_minors(spec: SubspaceSpec, index_set: IndexSet) -> CanonicalFamily:
    """Canonical vectors for codimension 2, rebuilt from the two minor
    vectors of the set's members instead of determinant ratios; used to
    cross-validate the two routes.  The minor vectors are integer rows
    (_minor_row), and each canonical vector is one of them over one of
    its entries, the common scale cancelling, so the returned vectors
    are the only Fractions built."""
    if spec.codim != 2:
        raise WrongCodimensionError("minor route needs codimension 2")
    if len(index_set) != 2 or index_set.ambient != spec.ambient:
        raise DimensionError("index set must have exactly two members")
    k, l = index_set.members
    rows, _ = spec.annihilator.integers()
    minor_k, minor_l = _minor_row(rows, k - 1), _minor_row(rows, l - 1)
    pivot_kl = minor_k[l - 1]
    if pivot_kl == 0:
        raise InadmissibleSetError(f"row block {index_set} is singular")
    pivot_lk = minor_l[k - 1]
    vec_k = tuple(Fraction(x, pivot_lk) for x in minor_l)
    vec_l = tuple(Fraction(x, pivot_kl) for x in minor_k)
    return CanonicalFamily(index_set, {k: vec_k, l: vec_l})
