"""Exact linear programming over the rationals.

Minimization problems with row senses <=, ==, >= and optional per-variable
bounds are solved by a two-phase primal simplex on a dense rational
tableau.  Conversion to standard form shifts variables by a finite
bound, splits free variables into differences of nonnegative ones, and
writes each row once, times the sign that makes its right-hand side
nonnegative; equalities, and inequalities whose slack that sign turns
negative, get artificial variables.  A problem stores each row as its
nonzeros only, (column, coefficient) pairs in increasing column order,
and build() takes rows in that form; the tableau and the certificate
checks read only those pairs, and every other tableau entry starts as
0.

The entering column follows Dantzig's rule: the most negative reduced
cost, compared by integer cross-multiplication, ties to the smallest
column.  The ratio test breaks ties to the smallest basic column.  A
pivot is degenerate when its leaving row has rhs 0, so the objective
does not move.  Dantzig's rule can cycle through degenerate pivots, so
after more than _DEGENERATE_STREAK of them in a row the entering column
follows Bland's smallest-index rule, for at most as many pivots again;
if the stretch goes on, the two rules alternate with the allowance
doubled each round.  A non-degenerate pivot returns to Dantzig's rule
and the first allowance.  The Bland turn is bounded because Bland's rule,
though it cannot cycle, can creep through thousands of degenerate
pivots at a vertex that Dantzig's rule leaves in a few hundred.

The method terminates on every input.  Bland's rule never repeats a
basis, so a Bland turn longer than the number of bases ends its
degenerate stretch, and the doubling allowance reaches that length.
Each non-degenerate pivot strictly lowers the objective, so no basis
repeats across stretches.  Every choice is a fixed function of the
tableau, so the answer is reproducible.

Every terminal status carries an exact certificate, checked from scratch
by two shared passes over the problem: _within (a point meets every row
and bound, or a direction meets their homogeneous versions) and
_dual_bound (the lower bound that row multipliers prove on a cost over
the variable box, skipping zero multipliers and coefficients).  Both run
on integers, with the point or the multipliers put over their least
common denominator once per call.  _within puts each row's coefficients
over their own lcm and compares the row with its right-hand side by
integer cross-multiplication; _dual_bound gathers y.b and each column's
A^T y over a running lcm of the denominators it meets.  No lcm is taken
over the whole program, whose rows may have many coprime denominators.

* optimal: primal values plus row duals; verify_certificate checks that
  x is feasible and that its value equals the stated optimum and the
  dual bound (strong duality).
* infeasible: row multipliers whose dual bound on the zero cost is
  positive, so no point meets the rows inside the box (Farkas;
  verify_infeasibility).
* unbounded: a feasible point and an improving ray that meets the
  homogeneous rows and bounds (verify_unboundedness).

Master holds a problem whose columns arrive over rounds, as in column
generation: every variable is nonnegative, and every row that needs an
artificial has right-hand side 0, so the starting basis of slacks and
artificials is feasible and phase 1 never runs.  Such an artificial
stays basic at 0 until a column with a nonzero entry in its row enters:
in phase 2 the ratio test lets it leave first, at ratio 0, whatever the
sign of that entry, and an artificial never enters, so phase 2 holds
every basic artificial at 0 and the point stays feasible.  The row of
an artificial is never dropped, because a later column may load it.
Each artificial leaves at most once, so these pivots leave the
termination argument above intact.  append() writes new columns into
the tableau priced through the starting unit columns, which hold B^-1:
the tableau column of a is B^-1 a, and its reduced cost is its cost
plus the cost row on those unit columns times a.  B^-1 is read once per
call, for all the columns of the call.  solve(master) then resumes
phase 2 from the basis the last solve ended at, with the same pricing,
ratio test and pivot as a cold solve.
"""

from __future__ import annotations

import enum
import time
from math import lcm
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
_ONE = Fraction(1)

# degenerate pivots in a row after which Bland's rule takes its first turn
_DEGENERATE_STREAK = 50


class LpStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LpProblem:
    """minimize objective . x subject to rows (sense) rhs, lower <= x <= upper.

    Each row is a tuple of (column, coefficient) pairs in increasing
    column order, nonzero coefficients only.  A bound entry of None means
    unbounded on that side.  Construct through build(), which takes rows
    in that form, refuses a column out of range, repeated or out of
    order, drops zero coefficients, and validates shapes and senses.
    """

    objective: tuple[Fraction, ...]
    rows: tuple[tuple[tuple[int, Fraction], ...], ...]
    senses: tuple[str, ...]
    rhs: tuple[Fraction, ...]
    lower: tuple[Optional[Fraction], ...]
    upper: tuple[Optional[Fraction], ...]

    @classmethod
    def build(
        cls,
        objective: Sequence,
        rows: Sequence[Sequence[tuple[int, object]]],
        senses: Sequence[str],
        rhs: Sequence,
        lower: Optional[Sequence] = None,
        upper: Optional[Sequence] = None,
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
        low = _bound_tuple(lower, n, _ZERO)
        up = _bound_tuple(upper, n, None)
        for lo, hi in zip(low, up):
            if lo is not None and hi is not None and lo > hi:
                raise LpModelError("lower bound exceeds upper bound")
        return cls(c, mat, sn, b, low, up)

    @property
    def nvars(self) -> int:
        return len(self.objective)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def with_columns(
        self, objective: Sequence, columns: Sequence[Sequence[tuple[int, object]]]
    ) -> "LpProblem":
        """This problem with one more nonnegative variable per column,
        numbered after the existing ones.  Each column is (row,
        coefficient) pairs in increasing row order, checked like a row of
        build()."""
        costs = tuple(as_rational(c) for c in objective)
        if len(costs) != len(columns):
            raise LpModelError("objective and columns lengths differ")
        rows = [list(row) for row in self.rows]
        for j, column in enumerate(columns, start=self.nvars):
            for i, a in _sparse_row(column, self.nrows, "row"):
                rows[i].append((j, a))
        return LpProblem(
            self.objective + costs,
            tuple(map(tuple, rows)),
            self.senses,
            self.rhs,
            self.lower + (_ZERO,) * len(costs),
            self.upper + (None,) * len(costs),
        )


def _sparse_row(
    pairs, n: int, index: str = "column"
) -> tuple[tuple[int, Fraction], ...]:
    """The pairs of one row (or, with index="row", of one column) with
    indices checked against n and zero coefficients dropped."""
    row = []
    prev = -1
    for j, a in pairs:
        if not (isinstance(j, int) and 0 <= j < n):
            raise LpModelError(f"{index} {j!r} outside 0..{n - 1}")
        if j <= prev:
            raise LpModelError(f"{index} {j} repeated or out of order")
        prev = j
        a = as_rational(a)
        if a:
            row.append((j, a))
    return tuple(row)


def _bound_tuple(values, n: int, default) -> tuple:
    if values is None:
        return (default,) * n
    out = tuple(None if v is None else as_rational(v) for v in values)
    if len(out) != n:
        raise LpModelError("bounds length does not match variable count")
    return out


@dataclass(frozen=True)
class LpStats:
    """Counters of one solve.

    rows and cols are the tableau's constraint rows and columns (the rhs
    column included) as assembled.  Phase-1 pivots include those that
    drive zero-valued artificials out of the basis.  Degenerate pivots
    are pricing pivots whose leaving row had rhs 0; bland_fallbacks
    counts the turns in which Bland's rule priced them.  phase1_bits and
    phase2_bits are the largest bit length of a numerator or denominator
    in the tableau at the end of each phase, read by one scan each
    (phase1_bits is read after the build when phase 1 does not run, and
    phase2_bits is None when phase 2 does not run).  The perf_counter
    readings mark the start of the solve and the end of the build and of
    each phase (an infeasible solve ends after phase 1); they are left
    out of equality, so two solves of one program compare equal.

    For a Master the counts run over all its solves so far, cols is the
    width after the last append, phase1_done equals built, and phase2_bits
    and finished are those of the last solve.
    """

    rows: int
    cols: int
    phase1_pivots: int
    phase2_pivots: int
    degenerate_pivots: int
    bland_fallbacks: int
    phase1_bits: int
    phase2_bits: Optional[int]
    started: float = field(compare=False)
    built: float = field(compare=False)
    phase1_done: float = field(compare=False)
    finished: float = field(compare=False)


@dataclass(frozen=True)
class LpSolution:
    """Terminal state of a solve.

    duals holds row duals when optimal and the infeasibility multipliers
    when infeasible.  ray is the improving direction when unbounded (x is
    then a feasible starting point).  stats is set by solve(); a
    solution written down without it, such as the closed form for
    hyperplanes in projection, has stats None.
    """

    status: LpStatus
    x: Optional[tuple[Fraction, ...]]
    objective_value: Optional[Fraction]
    duals: Optional[tuple[Fraction, ...]]
    ray: Optional[tuple[Fraction, ...]] = None
    stats: Optional[LpStats] = None


@dataclass
class _RowRecord:
    origin: Optional[int]  # problem row index, or None for a bound row
    phi: int  # +-1 factor mapping the tableau row back to the problem row
    slack_col: Optional[int]
    slack_sign: int
    art_col: Optional[int]


class _Simplex:
    """The tableau of one problem.  phase1=False writes no phase-1 cost
    row, for a Master, whose starting basis is feasible."""

    def __init__(self, problem: LpProblem, phase1: bool = True):
        self.started = time.perf_counter()
        self.problem = problem
        self._build(phase1)
        self.shape = (self.nrows, self.ncols)
        self.pivots = 0
        self.degenerate_pivots = 0
        self.bland_fallbacks = 0
        self.phase2_bits: Optional[int] = None
        self.built = time.perf_counter()

    # -- tableau -------------------------------------------------------

    def _build(self, phase1: bool) -> None:
        """Write the standard-form tableau, each row once.

        Each x_j is its shift plus signed nonnegative columns x': a finite
        lower bound shifts, an upper bound alone reflects, and a free
        variable splits into a difference of two columns.  Each problem
        row, then the row x_j <= hi of each boxed variable, is written
        once in x', times the sign phi that makes its shifted rhs
        nonnegative (-1 when the rhs is negative, or 0 on a >= row).  An
        inequality gets a slack of coefficient phi on <= and -phi on >=,
        and a row gets an artificial when it is an equality or that
        coefficient is -1.  Columns: structural, slacks, artificials, rhs.
        Rows: constraints, the phase-2 costs, and with phase1 and
        artificials the phase-1 costs; every entry not written is 0."""
        problem = self.problem
        # per variable: ((x' column, sign), ...) and the shift (or None)
        self.columns: list[tuple[tuple, Optional[Fraction]]] = []
        costs: list[Fraction] = []
        for cj, lo, hi in zip(problem.objective, problem.lower, problem.upper):
            col = len(costs)
            if lo is not None:
                pairs, shift = ((col, 1),), lo
            elif hi is not None:
                pairs, shift = ((col, -1),), hi
            else:
                pairs, shift = ((col, 1), (col + 1, -1)), None
            self.columns.append((pairs, shift))
            costs.extend(cj if sign > 0 else -cj for _, sign in pairs)
        self.nstruct = len(costs)

        # the problem rows, then the row x_j <= hi of each boxed variable
        rows = [*zip(problem.rows, problem.senses, problem.rhs)]
        rows += [
            (((j, _ONE),), LESS, hi)
            for j, (lo, hi) in enumerate(zip(problem.lower, problem.upper))
            if lo is not None and hi is not None
        ]
        shifts = [shift for _, shift in self.columns]
        slack = self.nstruct
        art = slack + sum(sense != EQUAL for _, sense, _ in rows)
        self.enter_limit = art  # artificial columns never enter
        records: list[_RowRecord] = []
        rhs: list[Fraction] = []  # phi times the shifted rhs
        for i, (row, sense, b) in enumerate(rows):
            b -= sum((a * shifts[j] for j, a in row if shifts[j]), _ZERO)
            phi = -1 if b < 0 or (b == 0 and sense == GREATER) else 1
            rec = _RowRecord(i if i < problem.nrows else None, phi, None, 1, None)
            if sense != EQUAL:
                rec.slack_col = slack
                rec.slack_sign = phi if sense == LESS else -phi
                slack += 1
            if sense == EQUAL or rec.slack_sign < 0:
                rec.art_col = art
                art += 1
            records.append(rec)
            rhs.append(phi * b)
        self.records = records
        self.art_cols = [rec.art_col for rec in records if rec.art_col is not None]
        self.nrows = nrows = len(records)
        self.ncols = ncols = art + 1
        self.basis = [
            rec.art_col if rec.art_col is not None else rec.slack_col
            for rec in records
        ]
        phase1 = phase1 and bool(self.art_cols)
        nums = [0] * ((nrows + 1 + phase1) * ncols)
        dens = [1] * len(nums)

        def put(row: int, entries) -> None:
            base = row * ncols
            for col, value in entries:
                nums[base + col] = value.numerator
                dens[base + col] = value.denominator

        # phase-1 costs: 1 on each artificial less its row, which prices
        # the starting basic artificials out
        phase1_costs: dict[int, Fraction] = {}
        for i, ((row, _, _), rec, b) in enumerate(zip(rows, records, rhs)):
            entries = [
                (col, a if sign == rec.phi else -a)
                for j, a in row
                for col, sign in self.columns[j][0]
            ]
            entries.append((ncols - 1, b))
            if rec.slack_col is not None:
                entries.append((rec.slack_col, Fraction(rec.slack_sign)))
            if rec.art_col is not None:
                if phase1:
                    for col, a in entries:
                        phase1_costs[col] = phase1_costs.get(col, _ZERO) - a
                entries.append((rec.art_col, _ONE))
            put(i, entries)
        put(nrows, enumerate(costs))
        if phase1:
            put(nrows + 1, phase1_costs.items())
        self.nums = nums
        self.dens = dens

    def _frac(self, row: int, col: int) -> Fraction:
        idx = row * self.ncols + col
        return Fraction(self.nums[idx], self.dens[idx])

    # -- pivoting ------------------------------------------------------

    def _entering(self, cost_idx: int, bland: bool) -> Optional[int]:
        """The column with the most negative reduced cost, ties to the
        smallest index (Dantzig); with bland, the first negative one."""
        nums, dens = self.nums, self.dens
        base = cost_idx * self.ncols
        best = None
        best_n, best_d = 0, 1
        for j in range(self.enter_limit):
            n = nums[base + j]
            if n < 0:
                if bland:
                    return j
                # n/d < best_n/best_d, denominators positive
                d = dens[base + j]
                if n * best_d < best_n * d:
                    best, best_n, best_d = j, n, d
        return best

    def _leaving(self, col: int, hold: bool) -> Optional[int]:
        """The ratio test, ties to the smallest basic column.  With hold
        (phase 2), the first basic artificial with a nonzero entry leaves
        first: it is at 0, and leaving keeps it there."""
        ncols = self.ncols
        rhs = ncols - 1
        best = None
        best_rn = best_rd = 0
        for i in range(self.nrows):
            an = self.nums[i * ncols + col]
            if hold and an and self.basis[i] >= self.enter_limit:
                return i
            if an <= 0:
                continue
            ad = self.dens[i * ncols + col]
            bn = self.nums[i * ncols + rhs]
            bd = self.dens[i * ncols + rhs]
            rn, rd = bn * ad, bd * an  # ratio rn/rd with rd > 0
            if best is None:
                best, best_rn, best_rd = i, rn, rd
                continue
            diff = rn * best_rd - best_rn * rd
            if diff < 0 or (diff == 0 and self.basis[i] < self.basis[best]):
                best, best_rn, best_rd = i, rn, rd
        return best

    def _pivot(self, row: int, col: int) -> None:
        _kernels.pivot(self.nums, self.dens, self.ncols, row, col)
        self.basis[row] = col
        self.pivots += 1

    def _run_phase(self, cost_idx: int) -> Optional[int]:
        """Pivot until the cost row has no negative entry.  Returns the
        entering column when the objective is unbounded below, else None.
        Prices by Dantzig's rule until more than span pivots in a row are
        degenerate, then by Bland's rule for more than span pivots, and
        so on with span doubled each time; a non-degenerate pivot returns
        to Dantzig's rule and span to _DEGENERATE_STREAK."""
        guard = 20000 + 200 * (self.nrows + self.ncols)
        rhs = self.ncols - 1
        hold = cost_idx == self.nrows
        bland = False
        span = _DEGENERATE_STREAK
        run = 0  # degenerate pivots under the current rule
        for _ in range(guard):
            col = self._entering(cost_idx, bland)
            if col is None:
                return None
            row = self._leaving(col, hold)
            if row is None:
                return col
            if self.nums[row * self.ncols + rhs]:
                bland, span, run = False, _DEGENERATE_STREAK, 0
            else:
                self.degenerate_pivots += 1
                run += 1
                if run > span:
                    if bland:
                        span *= 2
                    else:
                        self.bland_fallbacks += 1
                    bland, run = not bland, 0
            self._pivot(row, col)
        raise InternalConsistencyError("simplex did not terminate inside its guard")

    # -- phase transitions --------------------------------------------

    def _phase1_value(self) -> Fraction:
        return -self._frac(self.nrows + 1, self.ncols - 1)

    def _purge_artificials(self) -> None:
        """Pivot basic artificials out (their value is 0) or mark their
        rows redundant, then drop those rows and the phase-1 cost row."""
        art_set = set(self.art_cols)
        drop: set[int] = set()
        for i in range(self.nrows):
            if self.basis[i] not in art_set:
                continue
            pivot_col = None
            base = i * self.ncols
            for j in range(self.enter_limit):
                if self.nums[base + j] != 0:
                    pivot_col = j
                    break
            if pivot_col is None:
                drop.add(i)
            else:
                self._pivot(i, pivot_col)
        keep = [i for i in range(self.nrows) if i not in drop]
        ncols = self.ncols
        new_nums: list[int] = []
        new_dens: list[int] = []
        for i in keep + [self.nrows]:  # constraint rows plus phase-2 cost row
            base = i * ncols
            new_nums.extend(self.nums[base : base + ncols])
            new_dens.extend(self.dens[base : base + ncols])
        self.nums = new_nums
        self.dens = new_dens
        self.records = [self.records[i] for i in keep]
        self.basis = [self.basis[i] for i in keep]
        self.nrows = len(keep)

    # -- extraction ----------------------------------------------------

    def _structural_values(self) -> list[Fraction]:
        values = [_ZERO] * self.nstruct
        rhs = self.ncols - 1
        for i, col in enumerate(self.basis):
            if col < self.nstruct:
                values[col] = self._frac(i, rhs)
        return values

    def _to_original(self, values: list[Fraction], affine: bool) -> tuple:
        x = []
        for pairs, shift in self.columns:
            xj = shift if affine and shift is not None else _ZERO
            for col, sign in pairs:
                xj = xj + values[col] if sign > 0 else xj - values[col]
            x.append(xj)
        return tuple(x)

    def _row_duals(self, cost_idx: int, phase1: bool) -> tuple:
        y = [_ZERO] * self.problem.nrows
        for i, rec in enumerate(self.records):
            if rec.art_col is not None:
                cbar = self._frac(cost_idx, rec.art_col)
                local = (1 - cbar) if phase1 else -cbar
            elif rec.slack_col is not None:
                cbar = self._frac(cost_idx, rec.slack_col)
                local = -cbar * rec.slack_sign
            else:  # unreachable: every row starts with a unit column
                raise InternalConsistencyError("row without a unit column")
            if rec.origin is not None:
                y[rec.origin] = rec.phi * local
        return tuple(y)

    def _basic_point(self) -> tuple[tuple, Fraction]:
        """The basic solution in the problem's variables and its cost."""
        x = self._to_original(self._structural_values(), affine=True)
        value = sum((c * v for c, v in zip(self.problem.objective, x)), _ZERO)
        return x, value

    def _ray(self, entering_col: int) -> tuple:
        direction = [_ZERO] * self.nstruct
        if entering_col < self.nstruct:
            direction[entering_col] = _ONE
        for i, col in enumerate(self.basis):
            if col < self.nstruct:
                direction[col] = -self._frac(i, entering_col)
        return self._to_original(direction, affine=False)

    # -- driver --------------------------------------------------------

    def _bits(self) -> int:
        """The largest bit length of a numerator or denominator."""
        return max(map(int.bit_length, self.nums + self.dens))

    def _solution(self, status, x, value, duals, ray=None) -> LpSolution:
        stats = LpStats(
            *self.shape,
            self.phase1_pivots,
            self.pivots - self.phase1_pivots,
            self.degenerate_pivots,
            self.bland_fallbacks,
            self.phase1_bits,
            self.phase2_bits,
            self.started,
            self.built,
            self.phase1_done,
            time.perf_counter(),
        )
        return LpSolution(status, x, value, duals, ray, stats)

    def _end_phase1(self) -> None:
        self.phase1_pivots = self.pivots
        self.phase1_bits = self._bits()
        self.phase1_done = time.perf_counter()

    def run(self) -> LpSolution:
        if self.art_cols:
            unbounded_col = self._run_phase(self.nrows + 1)
            if unbounded_col is not None:
                raise InternalConsistencyError(
                    "phase-1 objective is bounded below by zero"
                )
            if self._phase1_value() > 0:
                self._end_phase1()
                farkas = self._row_duals(self.nrows + 1, phase1=True)
                return self._solution(LpStatus.INFEASIBLE, None, None, farkas)
            self._purge_artificials()
        self._end_phase1()
        return self.phase2()

    def phase2(self) -> LpSolution:
        """Run phase 2 from the current basis to a terminal status."""
        unbounded_col = self._run_phase(self.nrows)
        self.phase2_bits = self._bits()
        if unbounded_col is not None:
            x = self._to_original(self._structural_values(), affine=True)
            ray = self._ray(unbounded_col)
            return self._solution(LpStatus.UNBOUNDED, x, None, None, ray)
        x, value = self._basic_point()
        duals = self._row_duals(self.nrows, phase1=False)
        return self._solution(LpStatus.OPTIMAL, x, value, duals)

    # -- appended columns ----------------------------------------------

    def append(self, problem: LpProblem) -> None:
        """Write the variables problem has beyond self.problem, which it
        extends by with_columns, as tableau columns after the structural
        ones: B^-1 a and the reduced cost, read through the unit column
        each row started with (see the module docstring)."""
        old = self.problem
        width = problem.nvars - old.nvars
        # each new column a in tableau rows (phi times its entries)
        entries: list[dict[int, Fraction]] = [{} for _ in range(width)]
        for r, rec in enumerate(self.records):
            if rec.origin is not None:
                for j, a in problem.rows[rec.origin]:
                    if j >= old.nvars:
                        entries[j - old.nvars][r] = a if rec.phi > 0 else -a
        loaded = sorted({r for column in entries for r in column})
        units = [
            rec.art_col if rec.art_col is not None else rec.slack_col
            for rec in self.records
        ]
        # integer columns over one denominator each, indexed like loaded
        at = {r: p for p, r in enumerate(loaded)}
        columns = []
        for column in entries:
            den = lcm(*(a.denominator for a in column.values()))
            ints = [
                (at[r], a.numerator * (den // a.denominator))
                for r, a in column.items()
            ]
            columns.append((ints, den))
        costs = problem.objective[old.nvars :]
        ncols = self.ncols
        nums, dens = self.nums, self.dens
        new_nums: list[int] = []
        new_dens: list[int] = []
        for i in range(self.nrows + 1):  # constraint rows and the cost row
            base = i * ncols
            # row i of B^-1 on the loaded rows, over one denominator
            row_dens = [dens[base + units[r]] for r in loaded]
            row_den = lcm(*row_dens)
            inverse = [
                nums[base + units[r]] * (row_den // d) for r, d in zip(loaded, row_dens)
            ]
            values = []
            for (ints, den), cost in zip(columns, costs):
                num = sum(a * inverse[p] for p, a in ints)
                den *= row_den
                if i == self.nrows:  # the reduced cost adds the cost
                    num = num * cost.denominator + cost.numerator * den
                    den *= cost.denominator
                values.append(_kernels.normalize(num, den))
            cut = base + self.nstruct
            new_nums += nums[base:cut]
            new_nums += (v[0] for v in values)
            new_nums += nums[cut : base + ncols]
            new_dens += dens[base:cut]
            new_dens += (v[1] for v in values)
            new_dens += dens[cut : base + ncols]
        self.nums, self.dens = new_nums, new_dens
        first = self.nstruct
        self.columns += [(((first + k, 1),), _ZERO) for k in range(width)]
        self.basis = [col + width if col >= first else col for col in self.basis]
        for rec in self.records:
            if rec.slack_col is not None:
                rec.slack_col += width
            if rec.art_col is not None:
                rec.art_col += width
        self.art_cols = [col + width for col in self.art_cols]
        self.nstruct += width
        self.enter_limit += width
        self.ncols += width
        self.shape = (self.nrows, self.ncols)
        self.problem = problem


class Master:
    """A problem solved, then extended by columns and solved again from
    the basis the last solve ended at, without phase 1 (see the module
    docstring).  Every variable must be nonnegative and unbounded above,
    and every row that needs an artificial must have right-hand side 0;
    otherwise the constructor raises LpModelError.  problem is the
    problem with every column appended so far, on which the solutions of
    solve(master) verify."""

    def __init__(self, problem: LpProblem):
        bounds = zip(problem.lower, problem.upper)
        if any(lo != 0 or hi is not None for lo, hi in bounds):
            raise LpModelError(
                "a master's variables must be nonnegative and unbounded above"
            )
        self._tableau = tableau = _Simplex(problem, phase1=False)
        rhs = tableau.ncols - 1
        if any(
            rec.art_col is not None and tableau.nums[i * tableau.ncols + rhs]
            for i, rec in enumerate(tableau.records)
        ):
            raise LpModelError("a master's rows with artificials must have rhs 0")
        tableau._end_phase1()

    @property
    def problem(self) -> LpProblem:
        return self._tableau.problem

    def append(
        self, objective: Sequence, columns: Sequence[Sequence[tuple[int, object]]]
    ) -> None:
        """Add one nonnegative variable per column, with the given costs;
        columns are (row, coefficient) pairs in increasing row order."""
        self._tableau.append(self.problem.with_columns(objective, columns))



def solve(problem: LpProblem | Master) -> LpSolution:
    """Solve to a terminal status with an exact certificate: an LpProblem
    from scratch, or a Master's problem from the basis its last solve
    ended at (phase 2 alone)."""
    if isinstance(problem, Master):
        return problem._tableau.phase2()
    return _Simplex(problem).run()


# -- certificate checks ------------------------------------------------


def _within(
    problem: LpProblem, v: Sequence[Fraction], homogeneous: bool = False
) -> bool:
    """v meets every bound and row.  homogeneous=True counts right-hand
    sides and finite bounds as 0: v is then a recession direction.

    v is scaled to integers once, v = V / d, and each row's coefficients
    over their own lcm s, so row . v - b has the sign of
    (sum of the integer products) * b.den - b.num * s * d."""
    if len(v) != problem.nvars:
        return False
    ints, d = common_denominator(v)
    for vj, lo, hi in zip(ints, problem.lower, problem.upper):
        if homogeneous:
            if (lo is not None and vj < 0) or (hi is not None and vj > 0):
                return False
            continue
        if lo is not None and vj * lo.denominator < lo.numerator * d:
            return False
        if hi is not None and vj * hi.denominator > hi.numerator * d:
            return False
    for row, sense, b in zip(problem.rows, problem.senses, problem.rhs):
        s = lcm(*(a.denominator for _, a in row))
        gap = sum(a.numerator * (s // a.denominator) * ints[j] for j, a in row)
        if not homogeneous:
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
    """y.b plus the minimum of (cost - A^T y).x over the variable box,
    a lower bound on cost.x over the feasible set.  None when y has the
    wrong length or a multiplier the wrong sign, or when that minimum
    is unbounded.

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
    for c, num, den, lo, hi in zip(cost, nums, dens, problem.lower, problem.upper):
        # the reduced cost c - num / (den d), over c.den den d
        r = c.numerator * den * d - num * c.denominator
        if not r:
            continue
        side = lo if r > 0 else hi
        if side is None:
            return None
        if side:
            bound += Fraction(r, c.denominator * den * d) * side
    return bound


def verify_certificate(problem: LpProblem, solution: LpSolution) -> bool:
    """Exact optimality check: primal feasibility, dual feasibility with
    bound pricing, and equality of the primal and dual objectives."""
    if solution.status is not LpStatus.OPTIMAL:
        return False
    x, y, value = solution.x, solution.duals, solution.objective_value
    if x is None or y is None or value is None:
        return False
    if not _within(problem, x):
        return False
    primal = sum((c * xj for c, xj in zip(problem.objective, x) if c), _ZERO)
    return primal == value and _dual_bound(problem, y, problem.objective) == value


def verify_infeasibility(problem: LpProblem, solution: LpSolution) -> bool:
    """The multipliers aggregate the rows into a constraint the variable
    box cannot satisfy: the Farkas bound over the box is positive."""
    if solution.status is not LpStatus.INFEASIBLE or solution.duals is None:
        return False
    bound = _dual_bound(problem, solution.duals, (_ZERO,) * problem.nvars)
    return bound is not None and bound > 0


def verify_unboundedness(problem: LpProblem, solution: LpSolution) -> bool:
    """x is feasible and the ray keeps every constraint and bound while
    strictly decreasing the objective."""
    if solution.status is not LpStatus.UNBOUNDED:
        return False
    x, d = solution.x, solution.ray
    if x is None or d is None:
        return False
    if not (_within(problem, x) and _within(problem, d, homogeneous=True)):
        return False
    slope = sum((c * dj for c, dj in zip(problem.objective, d)), _ZERO)
    return slope < 0
