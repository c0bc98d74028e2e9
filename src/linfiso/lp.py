"""Exact linear programming over the rationals.

Minimization problems with row senses <=, ==, >= and optional per-variable
bounds are solved by a two-phase primal simplex on a dense rational
tableau.  Conversion to standard form shifts variables by a finite
bound, splits free variables into differences of nonnegative ones,
negates >= rows, and gives equalities artificial variables.  A problem
stores each row as its nonzeros only, (column, coefficient) pairs in
increasing column order, and build() takes rows in that form; the
standard form, the tableau and the certificate checks read only those
pairs, and every other tableau entry starts as 0.

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
the variable box, skipping zero multipliers and coefficients).

* optimal: primal values plus row duals; verify_certificate checks that
  x is feasible and that its value equals the stated optimum and the
  dual bound (strong duality).
* infeasible: row multipliers whose dual bound on the zero cost is
  positive, so no point meets the rows inside the box (Farkas;
  verify_infeasibility).
* unbounded: a feasible point and an improving ray that meets the
  homogeneous rows and bounds (verify_unboundedness).

solve takes an optional start: an ordered list of crash pivots (Bixby
1992) that builds a primal feasible basis the caller knows, in place of
phase 1.  Each Crash names a variable, the side of its split column for
a free variable, and the problem rows it may enter on; it pivots on the
first of those rows not taken by an earlier crash pivot whose tableau
entry in its column is nonzero, whatever the ratio test would say.  The
basis the list reaches must hold no artificial and have a nonnegative
right-hand side; otherwise solve raises InternalConsistencyError, as it
does when an entry finds no row.  Phase 1 then has nothing to price and
phase 2 starts at once.  The start changes the route, not the program:
the optimum value and the certificate checks are the same, and only the
optimal vertex may differ.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from . import _kernels
from .errors import InternalConsistencyError, LpModelError
from .linalg import as_rational

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


def _sparse_row(pairs, n: int) -> tuple[tuple[int, Fraction], ...]:
    row = []
    prev = -1
    for j, a in pairs:
        if not (isinstance(j, int) and 0 <= j < n):
            raise LpModelError(f"column {j!r} outside 0..{n - 1}")
        if j <= prev:
            raise LpModelError(f"column {j} repeated or out of order in a row")
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
class Crash:
    """One pivot of a crash start: variable var enters the basis on the
    first of rows (problem row indices) not taken by an earlier crash
    pivot whose entry in its column is nonzero.  side picks the split
    column of a free variable: +1 its positive part, -1 its negative
    part; a variable with a finite bound has one column, of side +1 for a
    lower bound and -1 for an upper bound alone."""

    var: int
    rows: tuple[int, ...]
    side: int = 1


@dataclass(frozen=True)
class LpStats:
    """Counters of one solve.

    rows and cols are the tableau's constraint rows and columns (the rhs
    column included) as assembled.  start_pivots counts the crash pivots
    of a start and start_value is the objective at the basis they reach
    (0 and None on a cold start).  Phase-1 pivots include those that
    drive zero-valued artificials out of the basis; a crashed solve has
    none.  Degenerate pivots are pricing pivots whose leaving row had
    rhs 0; bland_fallbacks counts the turns in which Bland's rule priced
    them.  The perf_counter readings mark the start of the solve and the
    end of the build and of each phase (an infeasible solve ends after
    phase 1, and a crashed one's phase 1 ends with its last crash
    pivot); they are left out of equality, so two solves of one program
    compare equal.
    """

    rows: int
    cols: int
    start_pivots: int
    start_value: Optional[Fraction]
    phase1_pivots: int
    phase2_pivots: int
    degenerate_pivots: int
    bland_fallbacks: int
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
    origin: tuple  # ("row", problem_row_index) or ("bound", variable_index)
    phi: int  # +-1 factor mapping the tableau row back to the problem row
    slack_col: Optional[int]
    slack_sign: int
    art_col: Optional[int]


class _Simplex:
    def __init__(self, problem: LpProblem):
        self.started = time.perf_counter()
        self.problem = problem
        self._standardize()
        self._assemble()
        self.shape = (self.nrows, self.ncols)
        self.pivots = 0
        self.start_pivots = 0
        self.start_value: Optional[Fraction] = None
        self.degenerate_pivots = 0
        self.bland_fallbacks = 0
        self.built = time.perf_counter()

    # -- standard form -------------------------------------------------

    def _standardize(self) -> None:
        """Write each x_j as its shift plus signed nonnegative columns x':
        a finite lower bound shifts, an upper bound alone reflects, and a
        free variable splits into a difference of two columns."""
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
        self.struct_costs = costs
        self.nstruct = len(costs)

        # rows in x' space, nonzeros only: (coeffs, rhs, sense, origin, tau)
        staged: list[tuple[dict[int, Fraction], Fraction, str, tuple, int]] = []
        for i, (row, sense, b) in enumerate(
            zip(problem.rows, problem.senses, problem.rhs)
        ):
            coeffs: dict[int, Fraction] = {}
            for j, a in row:
                pairs, shift = self.columns[j]
                for col, sign in pairs:
                    coeffs[col] = a if sign > 0 else -a
                if shift is not None:
                    b -= a * shift
            if sense == GREATER:
                coeffs = {col: -a for col, a in coeffs.items()}
                staged.append((coeffs, -b, LESS, ("row", i), -1))
            else:
                staged.append((coeffs, b, sense, ("row", i), 1))
        for j, ((pairs, _), lo, hi) in enumerate(
            zip(self.columns, problem.lower, problem.upper)
        ):
            if lo is not None and hi is not None:
                staged.append(({pairs[0][0]: _ONE}, hi - lo, LESS, ("bound", j), 1))
        self.staged = staged

    # -- tableau -------------------------------------------------------

    def _assemble(self) -> None:
        staged = self.staged
        nrows = len(staged)
        records: list[_RowRecord] = []
        nslack = sum(1 for r in staged if r[2] == LESS)
        slack_base = self.nstruct
        art_base = slack_base + nslack
        slack_seen = 0
        art_cols: list[int] = []
        prepared: list[tuple[dict[int, Fraction], Fraction, _RowRecord]] = []
        for coeffs, b, sense, origin, tau in staged:
            sigma = 1
            slack_col = None
            slack_sign = 1
            if sense == LESS:
                slack_col = slack_base + slack_seen
                slack_seen += 1
            if b < 0:
                sigma = -1
                b = -b
                coeffs = {col: -a for col, a in coeffs.items()}
                slack_sign = -1
            art_col = None
            if sense == EQUAL or slack_sign < 0:
                art_col = art_base + len(art_cols)
                art_cols.append(art_col)
            rec = _RowRecord(origin, tau * sigma, slack_col, slack_sign, art_col)
            records.append(rec)
            prepared.append((coeffs, b, rec))

        self.records = records
        self.art_cols = art_cols
        self.enter_limit = art_base  # artificial columns never enter
        self.ncols = ncols = art_base + len(art_cols) + 1
        self.nrows = nrows
        self.basis = [
            rec.art_col if rec.art_col is not None else rec.slack_col
            for rec in records
        ]
        if any(col is None for col in self.basis):
            raise InternalConsistencyError("row without a starting basic column")

        # rows 0..nrows-1 constraints, then the phase-2 and phase-1 costs;
        # every entry not written below is 0
        nums = [0] * ((nrows + 2) * ncols)
        dens = [1] * len(nums)

        def put(row: int, entries) -> None:
            base = row * ncols
            for col, value in entries:
                nums[base + col] = value.numerator
                dens[base + col] = value.denominator

        # phase-1 costs: 1 on each artificial less its row, which prices
        # the starting basic artificials out
        phase1: dict[int, Fraction] = {}
        for i, (coeffs, b, rec) in enumerate(prepared):
            coeffs[ncols - 1] = b
            if rec.slack_col is not None:
                coeffs[rec.slack_col] = Fraction(rec.slack_sign)
            if rec.art_col is not None:
                for col, a in coeffs.items():
                    phase1[col] = phase1.get(col, _ZERO) - a
                coeffs[rec.art_col] = _ONE
            put(i, coeffs.items())
        put(nrows, enumerate(self.struct_costs))
        put(nrows + 1, phase1.items())
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

    def _leaving(self, col: int) -> Optional[int]:
        ncols = self.ncols
        rhs = ncols - 1
        best = None
        best_rn = best_rd = 0
        for i in range(self.nrows):
            an = self.nums[i * ncols + col]
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
        bland = False
        span = _DEGENERATE_STREAK
        run = 0  # degenerate pivots under the current rule
        for _ in range(guard):
            col = self._entering(cost_idx, bland)
            if col is None:
                return None
            row = self._leaving(col)
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
            if rec.origin[0] == "row":
                y[rec.origin[1]] = rec.phi * local
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

    # -- crash start ---------------------------------------------------

    def _crash(self, start: Sequence[Crash]) -> None:
        """Pivot each entry of start into the basis on its first free row
        with a nonzero entry, then check that the basis reached is
        primal feasible and free of artificials."""
        ncols = self.ncols
        nums = self.nums
        taken: set[int] = set()
        for entry in start:
            if not 0 <= entry.var < self.problem.nvars:
                raise LpModelError(f"crash variable {entry.var} out of range")
            col = next(
                (c for c, sign in self.columns[entry.var][0] if sign == entry.side),
                None,
            )
            if col is None:
                raise LpModelError(
                    f"crash variable {entry.var} has no column of side {entry.side}"
                )
            for i in entry.rows:
                if not 0 <= i < self.problem.nrows:
                    raise LpModelError(f"crash row {i} out of range")
            row = next(
                (i for i in entry.rows if i not in taken and nums[i * ncols + col]),
                None,
            )
            if row is None:
                raise InternalConsistencyError(
                    f"crash variable {entry.var} has no free row with a "
                    "nonzero entry"
                )
            self._pivot(row, col)
            taken.add(row)
        self.start_pivots = self.pivots
        art_set = set(self.art_cols)
        if any(col in art_set for col in self.basis):
            raise InternalConsistencyError("the crash basis holds an artificial")
        rhs = ncols - 1
        if any(nums[i * ncols + rhs] < 0 for i in range(self.nrows)):
            raise InternalConsistencyError("the crash basis is not primal feasible")
        self.start_value = self._basic_point()[1]

    # -- driver --------------------------------------------------------

    def _end_phase1(self) -> None:
        self.phase1_pivots = self.pivots - self.start_pivots
        self.phase1_done = time.perf_counter()

    def _solution(self, status, x, value, duals, ray=None) -> LpSolution:
        stats = LpStats(
            *self.shape,
            self.start_pivots,
            self.start_value,
            self.phase1_pivots,
            self.pivots - self.start_pivots - self.phase1_pivots,
            self.degenerate_pivots,
            self.bland_fallbacks,
            self.started,
            self.built,
            self.phase1_done,
            time.perf_counter(),
        )
        return LpSolution(status, x, value, duals, ray, stats)

    def run(self, start: Optional[Sequence[Crash]] = None) -> LpSolution:
        if start is not None:
            self._crash(start)
        if self.art_cols and start is None:
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
        else:
            # no artificial is basic; remove the phase-1 row unpriced
            ncols = self.ncols
            self.nums = self.nums[: (self.nrows + 1) * ncols]
            self.dens = self.dens[: (self.nrows + 1) * ncols]
        self._end_phase1()
        unbounded_col = self._run_phase(self.nrows)
        if unbounded_col is not None:
            x = self._to_original(self._structural_values(), affine=True)
            ray = self._ray(unbounded_col)
            return self._solution(LpStatus.UNBOUNDED, x, None, None, ray)
        x, value = self._basic_point()
        duals = self._row_duals(self.nrows, phase1=False)
        return self._solution(LpStatus.OPTIMAL, x, value, duals)


def solve(
    problem: LpProblem, start: Optional[Sequence[Crash]] = None
) -> LpSolution:
    """Solve to a terminal status with an exact certificate, from the
    crash basis of start when given (see the module docstring)."""
    return _Simplex(problem).run(start)


# -- certificate checks ------------------------------------------------


def _within(
    problem: LpProblem, v: Sequence[Fraction], homogeneous: bool = False
) -> bool:
    """v meets every bound and row.  homogeneous=True counts right-hand
    sides and finite bounds as 0: v is then a recession direction."""
    if len(v) != problem.nvars:
        return False
    for vj, lo, hi in zip(v, problem.lower, problem.upper):
        if lo is not None and vj < (_ZERO if homogeneous else lo):
            return False
        if hi is not None and vj > (_ZERO if homogeneous else hi):
            return False
    for row, sense, b in zip(problem.rows, problem.senses, problem.rhs):
        lhs = sum((a * v[j] for j, a in row), _ZERO)
        gap = lhs - (_ZERO if homogeneous else b)
        if (gap > 0 and sense != GREATER) or (gap < 0 and sense != LESS):
            return False
    return True


def _dual_bound(
    problem: LpProblem, y: Sequence[Fraction], cost: Sequence[Fraction]
) -> Optional[Fraction]:
    """y.b plus the minimum of (cost - A^T y).x over the variable box,
    a lower bound on cost.x over the feasible set.  None when y has the
    wrong length or a multiplier the wrong sign, or when that minimum
    is unbounded."""
    if len(y) != problem.nrows:
        return None
    reduced = list(cost)
    bound = _ZERO
    for yi, row, sense, b in zip(y, problem.rows, problem.senses, problem.rhs):
        if not yi:
            continue
        if (sense == LESS and yi > 0) or (sense == GREATER and yi < 0):
            return None
        bound += yi * b
        for j, a in row:
            reduced[j] -= a * yi
    for r, lo, hi in zip(reduced, problem.lower, problem.upper):
        if r > 0:
            if lo is None:
                return None
            bound += r * lo
        elif r < 0:
            if hi is None:
                return None
            bound += r * hi
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
