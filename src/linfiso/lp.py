"""Exact linear programming over the rationals.

Minimization problems with row senses <=, ==, >= and optional per-variable
bounds are solved by a two-phase primal simplex on a dense rational
tableau.  Conversion to standard form splits free variables into
differences of nonnegative ones, negates >= rows, and gives equalities
artificial variables.  Bland's smallest-index rule governs both the
entering column and ratio-test ties, so the method terminates on every
input and the answer is reproducible.

Every terminal status carries an exact certificate:

* optimal: primal values plus row duals; verify_certificate recomputes
  feasibility, dual sign conditions, and strong duality (reduced costs
  priced against finite bounds) from scratch.
* infeasible: row multipliers whose aggregated constraint cannot be met
  inside the variable box (verify_infeasibility).
* unbounded: a feasible point and an improving ray (verify_unboundedness).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
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


class LpStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LpProblem:
    """minimize objective . x subject to rows (sense) rhs, lower <= x <= upper.

    A bound entry of None means unbounded on that side.  Construct
    through build(), which validates shapes and normalizes senses.
    """

    objective: tuple[Fraction, ...]
    rows: tuple[tuple[Fraction, ...], ...]
    senses: tuple[str, ...]
    rhs: tuple[Fraction, ...]
    lower: tuple[Optional[Fraction], ...]
    upper: tuple[Optional[Fraction], ...]

    @classmethod
    def build(
        cls,
        objective: Sequence,
        rows: Sequence[Sequence],
        senses: Sequence[str],
        rhs: Sequence,
        lower: Optional[Sequence] = None,
        upper: Optional[Sequence] = None,
    ) -> "LpProblem":
        c = tuple(as_rational(x) for x in objective)
        n = len(c)
        if n == 0:
            raise LpModelError("objective has no variables")
        mat = tuple(tuple(as_rational(x) for x in row) for row in rows)
        for row in mat:
            if len(row) != n:
                raise LpModelError("row length does not match variable count")
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


def _bound_tuple(values, n: int, default) -> tuple:
    if values is None:
        return (default,) * n
    out = tuple(None if v is None else as_rational(v) for v in values)
    if len(out) != n:
        raise LpModelError("bounds length does not match variable count")
    return out


@dataclass(frozen=True)
class LpSolution:
    """Terminal state of a solve.

    duals holds row duals when optimal and the infeasibility multipliers
    when infeasible.  ray is the improving direction when unbounded (x is
    then a feasible starting point).
    """

    status: LpStatus
    x: Optional[tuple[Fraction, ...]]
    objective_value: Optional[Fraction]
    duals: Optional[tuple[Fraction, ...]]
    ray: Optional[tuple[Fraction, ...]] = None


@dataclass
class _RowRecord:
    origin: tuple  # ("row", problem_row_index) or ("bound", variable_index)
    phi: int  # +-1 factor mapping the tableau row back to the problem row
    slack_col: Optional[int]
    slack_sign: int
    art_col: Optional[int]


class _Simplex:
    def __init__(self, problem: LpProblem):
        self.problem = problem
        self._standardize()
        self._assemble()

    # -- standard form -------------------------------------------------

    def _standardize(self) -> None:
        problem = self.problem
        self.col_meta: list[tuple] = []
        costs: list[Fraction] = []
        for j in range(problem.nvars):
            lo, hi = problem.lower[j], problem.upper[j]
            cj = problem.objective[j]
            if lo is not None:
                self.col_meta.append(("shift", j, lo))
                costs.append(cj)
            elif hi is not None:
                self.col_meta.append(("neg", j, hi))
                costs.append(-cj)
            else:
                self.col_meta.append(("plus", j))
                costs.append(cj)
                self.col_meta.append(("minus", j))
                costs.append(-cj)
        self.struct_costs = costs
        self.nstruct = len(costs)

        # rows in x' space: (coeffs, rhs, sense, origin, tau)
        staged: list[tuple[list[Fraction], Fraction, str, tuple, int]] = []
        for i, (row, sense, b) in enumerate(
            zip(problem.rows, problem.senses, problem.rhs)
        ):
            coeffs: list[Fraction] = []
            shifted = b
            for meta in self.col_meta:
                kind, j = meta[0], meta[1]
                a = row[j]
                if kind == "shift":
                    coeffs.append(a)
                    shifted -= a * meta[2]
                elif kind == "neg":
                    coeffs.append(-a)
                    shifted -= a * meta[2]
                elif kind == "plus":
                    coeffs.append(a)
                else:
                    coeffs.append(-a)
            if sense == GREATER:
                coeffs = [-a for a in coeffs]
                shifted = -shifted
                staged.append((coeffs, shifted, LESS, ("row", i), -1))
            else:
                staged.append((coeffs, shifted, sense, ("row", i), 1))
        for col, meta in enumerate(self.col_meta):
            if meta[0] == "shift":
                j = meta[1]
                hi = self.problem.upper[j]
                if hi is not None:
                    coeffs = [_ZERO] * self.nstruct
                    coeffs[col] = Fraction(1)
                    staged.append((coeffs, hi - meta[2], LESS, ("bound", j), 1))
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
        prepared: list[tuple[list[Fraction], Fraction, _RowRecord]] = []
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
                coeffs = [-a for a in coeffs]
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
        self.ncols = art_base + len(art_cols) + 1
        self.nrows = nrows
        ncols = self.ncols

        nums: list[int] = []
        dens: list[int] = []

        def push(value: Fraction) -> None:
            nums.append(value.numerator)
            dens.append(value.denominator)

        for coeffs, b, rec in prepared:
            full = list(coeffs) + [_ZERO] * (ncols - self.nstruct)
            if rec.slack_col is not None:
                full[rec.slack_col] = Fraction(rec.slack_sign)
            if rec.art_col is not None:
                full[rec.art_col] = Fraction(1)
            full[-1] = b
            for v in full:
                push(v)
        # phase-2 cost row: structural costs, zeros elsewhere
        for col in range(ncols):
            push(self.struct_costs[col] if col < self.nstruct else _ZERO)
        # phase-1 cost row: 1 on artificials, priced out below
        art_set = set(art_cols)
        for col in range(ncols):
            push(Fraction(1) if col in art_set else _ZERO)
        self.nums = nums
        self.dens = dens
        self.basis = [
            rec.art_col if rec.art_col is not None else rec.slack_col
            for rec in records
        ]
        if any(col is None for col in self.basis):
            raise InternalConsistencyError("row without a starting basic column")
        # price the basic artificials out of the phase-1 cost row
        for i, rec in enumerate(records):
            if self.basis[i] == rec.art_col and rec.art_col is not None:
                self._subtract_row_from_cost(self.nrows + 1, i)

    def _subtract_row_from_cost(self, cost_idx: int, row_idx: int) -> None:
        ncols = self.ncols
        cbase = cost_idx * ncols
        rbase = row_idx * ncols
        for j in range(ncols):
            an, ad = self.nums[cbase + j], self.dens[cbase + j]
            bn, bd = self.nums[rbase + j], self.dens[rbase + j]
            if bn == 0:
                continue
            value = Fraction(an, ad) - Fraction(bn, bd)
            self.nums[cbase + j] = value.numerator
            self.dens[cbase + j] = value.denominator

    def _frac(self, row: int, col: int) -> Fraction:
        idx = row * self.ncols + col
        return Fraction(self.nums[idx], self.dens[idx])

    # -- pivoting ------------------------------------------------------

    def _entering(self, cost_idx: int) -> Optional[int]:
        base = cost_idx * self.ncols
        for j in range(self.enter_limit):
            if self.nums[base + j] < 0:
                return j
        return None

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

    def _run_phase(self, cost_idx: int) -> Optional[int]:
        """Pivot until the cost row has no negative entry.  Returns the
        entering column when the objective is unbounded below, else None."""
        guard = 20000 + 200 * (self.nrows + self.ncols)
        for _ in range(guard):
            col = self._entering(cost_idx)
            if col is None:
                return None
            row = self._leaving(col)
            if row is None:
                return col
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
        x = [_ZERO] * self.problem.nvars
        for col, meta in enumerate(self.col_meta):
            kind, j = meta[0], meta[1]
            v = values[col]
            if kind == "shift":
                x[j] = (meta[2] + v) if affine else v
            elif kind == "neg":
                x[j] = (meta[2] - v) if affine else -v
            elif kind == "plus":
                x[j] = x[j] + v
            else:
                x[j] = x[j] - v
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

    def _ray(self, entering_col: int) -> tuple:
        direction = [_ZERO] * self.nstruct
        if entering_col < self.nstruct:
            direction[entering_col] = Fraction(1)
        for i, col in enumerate(self.basis):
            if col < self.nstruct:
                direction[col] = -self._frac(i, entering_col)
        return self._to_original(direction, affine=False)

    # -- driver --------------------------------------------------------

    def run(self) -> LpSolution:
        if self.art_cols:
            unbounded_col = self._run_phase(self.nrows + 1)
            if unbounded_col is not None:
                raise InternalConsistencyError(
                    "phase-1 objective is bounded below by zero"
                )
            if self._phase1_value() > 0:
                farkas = self._row_duals(self.nrows + 1, phase1=True)
                return LpSolution(LpStatus.INFEASIBLE, None, None, farkas)
            self._purge_artificials()
        else:
            # no artificials were needed; remove the unused phase-1 row
            ncols = self.ncols
            self.nums = self.nums[: (self.nrows + 1) * ncols]
            self.dens = self.dens[: (self.nrows + 1) * ncols]
        unbounded_col = self._run_phase(self.nrows)
        if unbounded_col is not None:
            x = self._to_original(self._structural_values(), affine=True)
            ray = self._ray(unbounded_col)
            return LpSolution(LpStatus.UNBOUNDED, x, None, None, ray)
        x = self._to_original(self._structural_values(), affine=True)
        value = sum(
            (c * v for c, v in zip(self.problem.objective, x)), _ZERO
        )
        duals = self._row_duals(self.nrows, phase1=False)
        return LpSolution(LpStatus.OPTIMAL, x, value, duals)


def solve(problem: LpProblem) -> LpSolution:
    """Solve to a terminal status with an exact certificate."""
    return _Simplex(problem).run()


# -- certificate checks ------------------------------------------------


def _is_feasible(problem: LpProblem, x: Sequence[Fraction]) -> bool:
    if len(x) != problem.nvars:
        return False
    for xj, lo, hi in zip(x, problem.lower, problem.upper):
        if lo is not None and xj < lo:
            return False
        if hi is not None and xj > hi:
            return False
    for row, sense, b in zip(problem.rows, problem.senses, problem.rhs):
        lhs = sum((a * xj for a, xj in zip(row, x)), _ZERO)
        if sense == LESS and lhs > b:
            return False
        if sense == GREATER and lhs < b:
            return False
        if sense == EQUAL and lhs != b:
            return False
    return True


def _dual_signs_ok(problem: LpProblem, y: Sequence[Fraction]) -> bool:
    if len(y) != problem.nrows:
        return False
    for yi, sense in zip(y, problem.senses):
        if sense == LESS and yi > 0:
            return False
        if sense == GREATER and yi < 0:
            return False
    return True


def verify_certificate(problem: LpProblem, solution: LpSolution) -> bool:
    """Exact optimality check: primal feasibility, dual feasibility with
    bound pricing, and equality of the primal and dual objectives."""
    if solution.status is not LpStatus.OPTIMAL:
        return False
    if solution.x is None or solution.duals is None:
        return False
    if solution.objective_value is None:
        return False
    x, y = solution.x, solution.duals
    if not _is_feasible(problem, x):
        return False
    if not _dual_signs_ok(problem, y):
        return False
    primal = sum((c * xj for c, xj in zip(problem.objective, x)), _ZERO)
    if primal != solution.objective_value:
        return False
    dual = sum((yi * b for yi, b in zip(y, problem.rhs)), _ZERO)
    for j in range(problem.nvars):
        reduced = problem.objective[j] - sum(
            (problem.rows[i][j] * y[i] for i in range(problem.nrows)), _ZERO
        )
        if reduced > 0:
            lo = problem.lower[j]
            if lo is None:
                return False
            dual += reduced * lo
        elif reduced < 0:
            hi = problem.upper[j]
            if hi is None:
                return False
            dual += reduced * hi
    return primal == dual


def verify_infeasibility(problem: LpProblem, solution: LpSolution) -> bool:
    """The multipliers aggregate the rows into a constraint the variable
    box cannot satisfy: sup over the box falls short of the aggregated rhs."""
    if solution.status is not LpStatus.INFEASIBLE or solution.duals is None:
        return False
    y = solution.duals
    if not _dual_signs_ok(problem, y):
        return False
    needed = sum((yi * b for yi, b in zip(y, problem.rhs)), _ZERO)
    supremum = _ZERO
    for j in range(problem.nvars):
        g = sum(
            (problem.rows[i][j] * y[i] for i in range(problem.nrows)), _ZERO
        )
        if g > 0:
            hi = problem.upper[j]
            if hi is None:
                return False
            supremum += g * hi
        elif g < 0:
            lo = problem.lower[j]
            if lo is None:
                return False
            supremum += g * lo
    return supremum < needed


def verify_unboundedness(problem: LpProblem, solution: LpSolution) -> bool:
    """x is feasible and the ray keeps every constraint and bound while
    strictly decreasing the objective."""
    if solution.status is not LpStatus.UNBOUNDED:
        return False
    if solution.x is None or solution.ray is None:
        return False
    if not _is_feasible(problem, solution.x):
        return False
    d = solution.ray
    if len(d) != problem.nvars:
        return False
    for row, sense in zip(problem.rows, problem.senses):
        along = sum((a * dj for a, dj in zip(row, d)), _ZERO)
        if sense == LESS and along > 0:
            return False
        if sense == GREATER and along < 0:
            return False
        if sense == EQUAL and along != 0:
            return False
    for dj, lo, hi in zip(d, problem.lower, problem.upper):
        if lo is not None and dj < 0:
            return False
        if hi is not None and dj > 0:
            return False
    slope = sum((c * dj for c, dj in zip(problem.objective, d)), _ZERO)
    return slope < 0
