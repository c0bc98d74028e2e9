"""Exact linear programming over the rationals, by a revised simplex
whose columns can arrive over rounds.

A problem is minimize objective . x subject to rows of sense <=, == or
>= and a lower bound per variable, None for a free one; an upper bound
is written as a <= row.  It stores each row as its nonzeros only,
(column, coefficient) pairs in increasing column order, and build()
takes rows in that form; the certificate checks read only those pairs,
and a Master keeps no problem.

Master(senses, rhs) holds the rows of a problem whose variables are
nonnegative and whose objective is bounded below.  Its columns arrive
over rounds, as in column generation, and each solve starts from the
basis the last one ended at.  Each row is written once, times the sign
phi that makes its right-hand side nonnegative (-1 when b < 0 or b = 0
on a >= row, else 1); equalities, and inequalities whose slack that sign
turns negative, get artificial variables.  The start basis holds each
row's slack or artificial.  It is feasible because Master refuses an
artificial on a row of rhs other than 0, so phase 1 never runs.  A basic
artificial stays at 0 until a column with a nonzero entry in its row
enters; it then leaves first, whatever the sign, and never enters again,
so the point stays feasible and the argument below holds.  Its row is
kept: a later column may load it.

A Master runs the revised simplex in integers (Dantzig and Orchard-Hays
1954; Bareiss 1968).  Its columns arrive through Master.insert as
integers: (rows, ints, cost, s) stands for a column with ints[r] / s in
row rows[r] and cost cost / s, rows in increasing order, no entry 0, and
s the lcm of the denominators of the cost and the entries in lowest
terms, so gcd(s, cost, *ints) = 1.  The rhs is scaled by its own lcm.
Only the block [R, R b; r, -z] is kept, over the determinant det of the
basis: R = det B^-1, r = -det c_B B^-1.  A pivot prices each column a of
cost c by d = c det + r . a, s det times its reduced cost, computes R a,
and pivots the block with _kernels.pivot, the fraction-free exchange on
integer rows: its division by det is exact, and det, the pivot entry,
can be negative, so comparisons take its sign.  A scale divides a price
and a row's ratios alike, so the pivots are those of the rational
tableau, and a scale in lowest terms makes a column's integers, and so
the block's, a function of its rational entries alone.  The optimum is
read from the integer costs and the block: the sum of c_j s_j (R b)_i
over the structural columns j basic in row i, over det times the rhs
scale.  The row duals are the cost row r times -phi, over det;
Master.integer_duals gives them as integers over |det|, which solve
turns into Fractions and a caller that works in integers reads as they
are.

The entering column follows Dantzig's rule: the most negative reduced
cost, compared by integer cross-multiplication, ties to the smallest
column.  A pivot is degenerate when its leaving row has rhs 0, so the
objective does not move, and Dantzig's rule alone can then cycle.  The
leaving row follows the lexicographic ratio test (Dantzig, Orden and
Wolfe 1955), which ends cycling under any entering rule.  Its anchor B0
is the basis at the start of each solve and again after each artificial
leaves, held as its basic columns in row order.  An artificial in B0 is
still basic, since an artificial's exit retakes B0.  Among the rows i
whose entry alpha_i of R a has the sign of det, the test keeps those of
least (R b)_i / alpha_i, then of least (R a_k)_i / alpha_i for the
columns a_k of B0 in turn, until one row is left: the lexicographically
least row of [R b | R B0] / alpha_i.  The comparisons are integer
cross-multiplications, and each kept row's entry is computed once per
column.  A column of B0 still basic in row p is det e_p under R, so it
drops row p from the kept rows and costs no product.  Two rows left
after every column would make R singular, so the test raises
InternalConsistencyError.

The method terminates on every input.  At an anchor, the rows of
[B^-1 b | B^-1 B0] = [R b | R B0] / det are [x_B | I], each of them
lexicographically positive, as x_B >= 0.  A pivot on the
lexicographically least row keeps every row positive and strictly lowers
the cost row [c_B B^-1 b | c_B B^-1 B0], a function of the basis, so no
basis repeats before the next anchor.  A basic artificial's row of R is
a multiple of e_r, r its row, because every pivot before its exit had
alpha_r = 0: it would have left otherwise.  So its rhs stays 0, and its
exit is degenerate; exiting it on a negative entry is what breaks
lexicographic positivity, and the new anchor taken right after the exit
restores it.  An artificial leaves at most once, so a solve has at most
one anchor more than the master has artificials, and each anchor's
stretch of pivots is finite.  The pivot count is still guarded: passing
the guard raises InternalConsistencyError.  Every choice is a fixed
function of the block, so the answer is reproducible.

A solve ends at an optimum: when an entering column has no leaving row
the problem is unbounded, which a Master's must not be, and the solve
raises LpModelError naming the column.  The optimum is primal values
plus row duals, an exact certificate: verify_certificate checks that x
is feasible and that its value equals the stated optimum and the dual
bound (strong duality).  It runs two shared passes over the problem:
_within (a point meets every row and lower bound) and _dual_bound (the
lower bound that row multipliers prove on a cost over the variable
lower bounds, skipping zero multipliers and coefficients).  Both run
on integers, with the point or the multipliers put over their least
common denominator once per call.  _within puts each row's coefficients
over their own lcm and compares the row with its right-hand side by
integer cross-multiplication; _dual_bound gathers y.b and each column's
A^T y over a running lcm of the denominators it meets.  No lcm is taken
over the whole program, whose rows may have many coprime denominators.
The checks take any problem, whatever its lower bounds, and any claimed
answer, whoever wrote it.
"""

from __future__ import annotations

import time
from itertools import chain
from math import gcd, lcm
from operator import mul
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from . import _kernels
from .errors import InternalConsistencyError, LpModelError
from .linalg import as_rational, common_denominator

LESS = "<="
EQUAL = "=="
GREATER = ">="
_SENSES = (LESS, EQUAL, GREATER)

_ZERO = Fraction(0)

@dataclass(frozen=True)
class LpProblem:
    """minimize objective . x subject to rows (sense) rhs, lower <= x.

    Each row is a tuple of (column, coefficient) pairs in increasing
    column order, nonzero coefficients only.  A lower bound of None
    leaves its variable free; lower defaults to 0 for every variable.
    Construct through build(), which takes rows in that form, refuses a
    column out of range, repeated or out of order, drops zero
    coefficients, and validates shapes and senses.
    """

    objective: tuple[Fraction, ...]
    rows: tuple[tuple[tuple[int, Fraction], ...], ...]
    senses: tuple[str, ...]
    rhs: tuple[Fraction, ...]
    lower: tuple[Optional[Fraction], ...]

    @classmethod
    def build(
        cls,
        objective: Sequence,
        rows: Sequence[Sequence[tuple[int, object]]],
        senses: Sequence[str],
        rhs: Sequence,
        lower: Optional[Sequence] = None,
    ) -> "LpProblem":
        c = tuple(as_rational(x) for x in objective)
        n = len(c)
        if n == 0:
            raise LpModelError("objective has no variables")
        mat = tuple(_sparse_row(row, n) for row in rows)
        sn = tuple(EQUAL if s == "=" else s for s in senses)
        for s in sn:
            if s not in _SENSES:
                raise LpModelError(f"unknown sense {s!r}")
        b = tuple(as_rational(x) for x in rhs)
        if not (len(mat) == len(sn) == len(b)):
            raise LpModelError("rows, senses, and rhs lengths differ")
        if lower is None:
            low = (_ZERO,) * n
        else:
            low = tuple(None if v is None else as_rational(v) for v in lower)
        if len(low) != n:
            raise LpModelError("bounds length does not match variable count")
        return cls(c, mat, sn, b, low)

    @property
    def nvars(self) -> int:
        return len(self.objective)

    @property
    def nrows(self) -> int:
        return len(self.rows)


def _sparse_row(pairs, n: int) -> tuple[tuple[int, Fraction], ...]:
    """The pairs of one row with columns checked against n and zero
    coefficients dropped."""
    row = []
    prev = -1
    for j, a in pairs:
        if not (isinstance(j, int) and prev < j < n):
            _refuse_index(j, n, "column")
        prev = j
        a = as_rational(a)
        if a:
            row.append((j, a))
    return tuple(row)


def _least(block, tied, alpha, rows, ints) -> list[int]:
    """The rows i of tied of least (R a)_i / alpha_i, for R a Master's
    block, a the column with ints in rows and alpha_i all of one sign."""
    least, n0, d0 = [], 0, 1
    for i in tied:
        n, d = sum(map(mul, map(block[i].__getitem__, rows), ints)), alpha[i]
        diff = n * d0 - n0 * d
        if not least or diff < 0:
            least, n0, d0 = [i], n, d
        elif not diff:
            least.append(i)
    return least


def _refuse_index(j, n: int, index: str) -> None:
    """Raise for an index j that is not an int above the one before it
    and below n: outside 0..n - 1, or else repeated or out of order."""
    if not (isinstance(j, int) and 0 <= j < n):
        raise LpModelError(f"{index} {j!r} outside 0..{n - 1}")
    raise LpModelError(f"{index} {j} repeated or out of order")


@dataclass(frozen=True)
class LpStats:
    """Counters of a Master's solves so far.

    rows and cols are those of the tableau the master stands for after
    the last insert: its constraint rows, and its structural, slack and
    artificial columns and the rhs column.  pivots counts every pivot of
    every solve; degenerate pivots are those whose leaving row had rhs 0.
    start_bits and end_bits are the largest bit length in the
    integer block and det, at the start and after the last solve.  The
    perf_counter readings mark the construction and the end of the last
    solve; they are left out of equality, so two solves of one program
    compare equal.
    """

    rows: int
    cols: int
    pivots: int
    degenerate_pivots: int
    start_bits: int
    end_bits: int
    started: float = field(compare=False)
    finished: float = field(compare=False)


@dataclass(frozen=True)
class LpSolution:
    """An optimum: the point x, its objective value and the row duals
    that certify it.  stats is set by solve(); a solution written down
    without it, such as the closed form for hyperplanes in projection,
    has stats None.
    """

    x: tuple[Fraction, ...]
    objective_value: Fraction
    duals: tuple[Fraction, ...]
    stats: Optional[LpStats] = None


class Master:
    """The rows of a problem, given columns over rounds and solved each
    time from the basis the last solve ended at, without phase 1 (see
    the module docstring).  Every row that needs an artificial must have
    rhs 0, or the constructor raises LpModelError; the objective must be
    bounded below, or solve(master) raises it.  Each column, one
    nonnegative variable, arrives through insert in the integer form
    (rows, ints, cost, scale) of the module docstring.  No LpProblem is
    kept: the solutions of solve(master) verify on the problem whose
    variables are the inserted columns in order of arrival.  Columns are
    numbered structural (in order of arrival), slacks, then artificials,
    which never enter.  columns holds the structural ones times each
    row's phi, then the slacks, in that form.  integer_duals reads the
    row duals of the current basis as integers over |det|."""

    def __init__(self, senses: Sequence[str], rhs: Sequence):
        """A master with the rows senses and rhs, their slacks and the
        start basis of slacks and artificials, and no structural column
        yet; insert gives it columns."""
        self.started = time.perf_counter()
        self.pivots = self.degenerate_pivots = 0
        rhs = [as_rational(b) for b in rhs]
        if len(senses) != len(rhs):
            raise LpModelError("senses and rhs lengths differ")
        self.nrows = nrows = len(rhs)
        self.rhs_scale = lcm(*(b.denominator for b in rhs))
        self.block = [
            [int(k == i) for k in range(nrows)] + [0] for i in range(nrows + 1)
        ]
        self.det = 1
        self.columns: list[tuple[tuple[int, ...], tuple[int, ...], int, int]] = []
        self.phi, self.basis = [], []  # per row: phi, the basic column
        self.ncols = sum(sense != EQUAL for sense in senses) + 1
        for i, (sense, b) in enumerate(zip(senses, rhs)):
            if sense not in _SENSES:
                raise LpModelError(f"unknown sense {sense!r}")
            # phi, and the slack's coefficient times phi (0 on ==)
            phi = -1 if b < 0 or (b == 0 and sense == GREATER) else 1
            slack = 0 if sense == EQUAL else phi if sense == LESS else -phi
            needs_art = slack <= 0
            if needs_art and b:
                raise LpModelError("a master's rows with artificials must have rhs 0")
            self.phi.append(phi)
            if slack:
                self.columns.append(((i,), (slack,), 0, 1))
            # the row's artificial is column ncols - 1, its slack the last one
            self.basis.append(self.ncols - 1 if needs_art else len(self.columns) - 1)
            self.ncols += needs_art
            self.block[i][nrows] = phi * b.numerator * self.rhs_scale // b.denominator
        self.nstruct = 0
        self.start_bits = self._bits()

    def insert(self, columns: Sequence[tuple]) -> None:
        """Add one nonnegative variable per column, given as integers
        (rows, ints, cost, scale): the column has ints[r] / scale in row
        rows[r] and cost cost / scale, the rows are in increasing order,
        no entry is 0, and scale > 0 is the lcm of the denominators of
        the cost and the entries in lowest terms, so gcd(scale, cost,
        *ints) = 1.  The columns are stored times each row's phi and
        numbered after the structural ones held, before the slacks.  A
        refused insert leaves the master as it was."""
        new = []
        for rows, ints, cost, scale in columns:
            prev = -1
            for i in rows:
                if not (isinstance(i, int) and prev < i < self.nrows):
                    _refuse_index(i, self.nrows, "row")
                prev = i
            if len(ints) != len(rows) or not all(ints):
                raise LpModelError("a column needs one nonzero integer per row")
            if scale <= 0 or gcd(scale, cost, *ints) != 1:
                raise LpModelError("a column's scale must be its lcm in lowest terms")
            ints = tuple(self.phi[i] * a for i, a in zip(rows, ints))
            new.append((tuple(rows), ints, cost, scale))
        first, width = self.nstruct, len(new)
        self.columns[first:first] = new
        self.basis = [j + width if j >= first else j for j in self.basis]
        self.nstruct += width
        self.ncols += width

    def integer_duals(self) -> tuple[list[int], int]:
        """The row duals of the current basis as integers over |det|:
        phi times minus the reduced cost of each row's unit column."""
        sign = -1 if self.det < 0 else 1
        cost = self.block[self.nrows]
        return [-sign * phi * r for phi, r in zip(self.phi, cost)], abs(self.det)

    def _price(self, j: int) -> int:
        """d = c det + r . a for column j."""
        rows, ints, c, _ = self.columns[j]
        cost = self.block[self.nrows]
        return c * self.det + sum(map(mul, map(cost.__getitem__, rows), ints))

    def _entering(self) -> Optional[int]:
        """The nonbasic column of the most negative d / s times the sign of
        det, ties to the first (Dantzig's rule)."""
        sign = -1 if self.det < 0 else 1
        basic = set(self.basis)
        best, best_d, best_s = None, 0, 1
        for j, (_, _, _, s) in enumerate(self.columns):
            if j in basic:
                continue
            d = sign * self._price(j)
            if d < 0 and d * best_s < best_d * s:
                best, best_d, best_s = j, d, s
        return best

    def _leaving(self, col: int) -> Optional[int]:
        """The lexicographic ratio test on the entering column R a, kept
        for the pivot: among the rows whose entry alpha_i has the sign of
        det, those of least (R b)_i / alpha_i, then of least R_i a_k /
        alpha_i for each column a_k of the anchor in turn, until one row
        is left.  A basic artificial with a nonzero entry leaves first,
        and stays 0.  Raises InternalConsistencyError when two rows tie
        on every anchor column, which a nonsingular basis forbids."""
        rows, ints, _, _ = self.columns[col]
        nrows = self.nrows
        self.entering = alpha = [
            sum(map(mul, map(row.__getitem__, rows), ints))
            for row in self.block[:nrows]
        ]
        for i, a in enumerate(alpha):
            if a and self.basis[i] >= len(self.columns):
                return i
        sign = -1 if self.det < 0 else 1
        tied = [i for i, a in enumerate(alpha) if sign * a > 0]
        if not tied:
            return None
        # R b is entry nrows of a block row
        tied = _least(self.block, tied, alpha, (nrows,), (1,))
        if len(tied) == 1:
            return tied[0]
        row_of = {j: i for i, j in enumerate(self.basis)}
        for j in self.anchor:
            if j in row_of:
                # still basic in row p, so R a_j = det e_p: row p's entry
                # over alpha_p is positive and every other row's is 0
                tied = [i for i in tied if i != row_of[j]]
            else:
                tied = _least(self.block, tied, alpha, *self.columns[j][:2])
            if len(tied) == 1:
                return tied[0]
        raise InternalConsistencyError("two rows tie on every anchor column")

    def _pivot(self, row: int, col: int) -> None:
        """Exchange the block with the entering column and its price
        beside it; when an artificial leaves, the new basis is the anchor."""
        for entries, a in zip(self.block, self.entering + [self._price(col)]):
            entries.append(a)
        self.det = _kernels.pivot(self.block, self.det, row, self.nrows + 1)
        for entries in self.block:
            entries.pop()
        artificial = self.basis[row] >= len(self.columns)
        self.basis[row] = col
        if artificial:
            self.anchor = self.basis[:]
        self.pivots += 1

    def _bits(self) -> int:
        """The largest bit length in the block and det."""
        return max(map(int.bit_length, [self.det, *chain(*self.block)]))

    def _run_phase(self) -> None:
        """Pivot from the anchor, the basis at the start, until no column
        prices negative (the module docstring gives the rules).  Raises
        LpModelError when an entering column has no leaving row: the
        objective is unbounded below."""
        guard = 20000 + 200 * (self.nrows + self.ncols)
        self.anchor = self.basis[:]
        for _ in range(guard):
            col = self._entering()
            if col is None:
                return
            row = self._leaving(col)
            if row is None:
                raise LpModelError(
                    f"column {col} enters with no leaving row: the master is unbounded"
                )
            if not self.block[row][self.nrows]:
                self.degenerate_pivots += 1
            self._pivot(row, col)
        raise InternalConsistencyError("simplex did not terminate inside its guard")

    def _solve(self) -> LpSolution:
        """Run the pricing loop from the current basis to the optimum."""
        self._run_phase()
        end_bits = self._bits()
        n, det = self.nstruct, self.det
        basic = [(i, j, self.columns[j][3]) for i, j in enumerate(self.basis) if j < n]
        x = [_ZERO] * n
        for i, j, s in basic:
            x[j] = Fraction(s * self.block[i][self.nrows], det * self.rhs_scale)
        value = Fraction(
            sum(self.columns[j][2] * self.block[i][self.nrows] for i, j, _ in basic),
            det * self.rhs_scale,
        )
        nums, den = self.integer_duals()
        duals = tuple(Fraction(y, den) for y in nums)
        stats = LpStats(
            self.nrows, self.ncols, self.pivots, self.degenerate_pivots,
            self.start_bits, end_bits,
            self.started, time.perf_counter(),
        )
        return LpSolution((*x,), value, duals, stats)


def solve(master: Master) -> LpSolution:
    """Solve a Master's problem to its optimum with an exact
    certificate, from the basis its last solve ended at."""
    return master._solve()


# -- certificate checks ------------------------------------------------


def _within(problem: LpProblem, v: Sequence[Fraction]) -> bool:
    """v meets every lower bound and row.

    v is scaled to integers once, v = V / d, and each row's coefficients
    over their own lcm s, so row . v - b has the sign of
    (sum of the integer products) * b.den - b.num * s * d."""
    if len(v) != problem.nvars:
        return False
    ints, d = common_denominator(v)
    for vj, lo in zip(ints, problem.lower):
        if lo is not None and vj * lo.denominator < lo.numerator * d:
            return False
    for row, sense, b in zip(problem.rows, problem.senses, problem.rhs):
        s = lcm(*(a.denominator for _, a in row))
        gap = sum(a.numerator * (s // a.denominator) * ints[j] for j, a in row)
        gap = gap * b.denominator - b.numerator * s * d
        if (gap > 0 and sense != GREATER) or (gap < 0 and sense != LESS):
            return False
    return True


def _add(num: int, den: int, n: int, d: int) -> tuple[int, int]:
    """num / den + n / d as an integer over the lcm of den and d."""
    if den == d:
        return num + n, den
    m = lcm(den, d)
    return num * (m // den) + n * (m // d), m


def _dual_bound(
    problem: LpProblem, y: Sequence[Fraction], cost: Sequence[Fraction]
) -> Optional[Fraction]:
    """y.b plus the minimum of (cost - A^T y).x over the lower bounds,
    a lower bound on cost.x over the feasible set.  None when y has the
    wrong length or a multiplier the wrong sign, or when that minimum
    is unbounded: a reduced cost is negative, or nonzero on a free
    variable.

    y is scaled to integers once, y = Y / d.  Y . b and each (A^T Y)_j
    are gathered as an integer over a running lcm of the denominators
    they meet, so no lcm spans the whole program."""
    if len(y) != problem.nrows:
        return None
    ints, d = common_denominator(y)
    nums = [0] * problem.nvars  # (A^T Y)_j = nums[j] / dens[j]
    dens = [1] * problem.nvars
    bound_num, bound_den = 0, 1  # Y . b
    for yi, row, sense, b in zip(ints, problem.rows, problem.senses, problem.rhs):
        if not yi:
            continue
        if (sense == LESS and yi > 0) or (sense == GREATER and yi < 0):
            return None
        bound_num, bound_den = _add(
            bound_num, bound_den, yi * b.numerator, b.denominator
        )
        for j, a in row:
            nums[j], dens[j] = _add(nums[j], dens[j], yi * a.numerator, a.denominator)
    bound = Fraction(bound_num, bound_den * d)
    for c, num, den, lo in zip(cost, nums, dens, problem.lower):
        # the reduced cost c - num / (den d), over c.den den d
        r = c.numerator * den * d - num * c.denominator
        if not r:
            continue
        if r < 0 or lo is None:
            return None
        if lo:
            bound += Fraction(r, c.denominator * den * d) * lo
    return bound


def verify_certificate(problem: LpProblem, solution: LpSolution) -> bool:
    """Exact optimality check: primal feasibility, dual feasibility with
    bound pricing, and equality of the primal and dual objectives."""
    x, y, value = solution.x, solution.duals, solution.objective_value
    if not _within(problem, x):
        return False
    primal = sum((c * xj for c, xj in zip(problem.objective, x) if c), _ZERO)
    return primal == value and _dual_bound(problem, y, problem.objective) == value

