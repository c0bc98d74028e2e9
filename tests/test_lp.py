import random
from dataclasses import replace
from fractions import Fraction as F
from math import lcm

import pytest

from linfiso import _kernels
from linfiso.canonical import subspace_from_annihilator
from linfiso.errors import InternalConsistencyError, LpModelError
from linfiso.instances import random_instance
from linfiso.lp import (
    LpProblem,
    LpSolution,
    Master,
    solve,
    verify_certificate,
)
from linfiso.projection import minimal_projection_program, projection_constant
from oracles import certificate_verdict, enumerate_lp, integer_columns, master_of


def build(objective, rows, *args, **kwargs):
    """LpProblem.build with each row written densely."""
    pairs = [list(enumerate(row)) for row in rows]
    return LpProblem.build(objective, pairs, *args, **kwargs)


class TestModelValidation:
    def test_shape_mismatches(self):
        with pytest.raises(LpModelError):
            build([1], [[1, 2]], ["<="], [0])
        with pytest.raises(LpModelError):
            build([1], [[1]], ["<="], [0, 1])
        with pytest.raises(LpModelError):
            build([1], [[1]], ["<=", ">="], [0])
        with pytest.raises(LpModelError):
            build([], [], [], [])

    def test_unknown_sense(self):
        with pytest.raises(LpModelError):
            build([1], [[1]], ["!"], [0])

    def test_equality_spelling_normalized(self):
        prob = build([1], [[1]], ["="], [2])
        assert prob.senses == ("==",)

    def test_bound_defaults(self):
        prob = build([1, 1], [[1, 1]], ["<="], [1])
        assert prob.lower == (F(0), F(0))

    def test_out_of_range_column(self):
        for column in (2, -1):
            with pytest.raises(LpModelError, match="outside"):
                LpProblem.build([1, 1], [[(column, 1)]], ["<="], [0])

    def test_repeated_column(self):
        for row in ([(0, 1), (0, 2)], [(1, 1), (0, 1)]):
            with pytest.raises(LpModelError, match="repeated or out of order"):
                LpProblem.build([1, 1], [row], ["<="], [0])

    def test_zero_coefficient_dropped(self):
        prob = build([1, 1], [[0, 3], [F(0), 0]], ["<=", "<="], [1, 0])
        assert prob.rows == (((1, F(3)),), ())


def beale():
    """Beale's instance, on which Dantzig's rule cycles."""
    return build(
        [F(-3, 4), 150, F(-1, 50), 6],
        [
            [F(1, 4), -60, F(-1, 25), 9],
            [F(1, 2), -90, F(-1, 50), 3],
            [0, 0, 1, 0],
        ],
        ["<=", "<=", "<="],
        [0, 0, 1],
    )


def lex_positive(master):
    """Whether every row of [R b | R B0] times the sign of det is
    lexicographically positive, B0 the master's anchor, a basic
    artificial standing for the unit column of its row."""
    nrows = master.nrows
    sign = -1 if master.det < 0 else 1
    anchor = [
        master.columns[j][:2] if j < len(master.columns) else ((k,), (1,))
        for k, j in enumerate(master.anchor)
    ]
    for row in master.block[:nrows]:
        entries = [row[nrows]]
        entries += [sum(row[r] * a for r, a in zip(rows, ints)) for rows, ints in anchor]
        if sign * next((e for e in entries if e), 0) <= 0:
            return False
    return True


def written(objective, rows, senses, rhs, x, duals, **bounds):
    """The program build(objective, rows, senses, rhs, **bounds) and the
    optimal answer (x, duals) written down for it, whose value is the
    vertex oracle's optimum."""
    prob = build(objective, rows, senses, rhs, **bounds)
    x = tuple(F(v) for v in x)
    value = sum(c * v for c, v in zip(prob.objective, x))
    dense = [[F(a) for a in row] for row in rows]
    oracle = enumerate_lp(list(prob.objective), dense, list(prob.senses),
                          list(prob.rhs), list(prob.lower))
    assert oracle[0] == value
    return prob, LpSolution(x, value, tuple(F(y) for y in duals))


class TestSolveBasics:
    """Small programs with known answers: a Master solves those that fit
    one, and verify_certificate checks an answer written down for the
    others, whose bounds a Master does not take."""

    def test_single_variable_floor(self):
        prob, sol = written([1], [[1]], [">="], [1], x=[1], duals=[1])
        assert sol.objective_value == F(1)
        assert verify_certificate(prob, sol)

    def test_free_variable(self):
        prob, sol = written([1], [[1]], [">="], [-5], x=[-5], duals=[1], lower=[None])
        assert sol.objective_value == F(-5)
        assert verify_certificate(prob, sol)

    def test_equality_with_negative_rhs(self):
        # y = -1 prices x at 2 against its lower bound 0 and y at 0
        prob, sol = written([1, 1], [[1, -1]], ["=="], [-2], x=[0, 2], duals=[-1])
        assert sol.objective_value == F(2)
        assert verify_certificate(prob, sol)

    def test_two_variable_dual_pair(self):
        # min -x - y  s.t.  x + y <= 2,  x <= 1, both vars >= 0
        prob = build([-1, -1], [[1, 1], [1, 0]], ["<=", "<="], [2, 1])
        sol = solve(master_of(prob))
        assert sol.x == (F(1), F(1))
        assert sol.objective_value == F(-2)
        # the dual optimum is unique here
        assert sol.duals == (F(-1), F(0))
        assert verify_certificate(prob, sol)

    def test_degenerate_pivoting_terminates(self):
        prob = beale()
        sol = solve(master_of(prob))
        assert sol.objective_value == F(-1, 20)
        assert verify_certificate(prob, sol)

    def test_smallest_basic_column_tie_break_cycles(self, monkeypatch):
        # without the lexicographic test, Dantzig's rule with ratio ties
        # broken to the smallest basic column cycles on Beale's instance
        # until the pivot guard stops it; its master has no artificials
        def leaving(self, col):
            rows, ints, _, _ = self.columns[col]
            nrows = self.nrows
            self.entering = alpha = [
                sum(a * row[r] for r, a in zip(rows, ints))
                for row in self.block[:nrows]
            ]
            sign = -1 if self.det < 0 else 1
            best = best_n = best_d = None
            for i, a in enumerate(alpha):
                if sign * a <= 0:
                    continue
                n, d = sign * self.block[i][nrows], sign * a
                if best is not None:
                    diff = n * best_d - best_n * d
                    if diff > 0 or (diff == 0 and self.basis[i] > self.basis[best]):
                        continue
                best, best_n, best_d = i, n, d
            return best

        monkeypatch.setattr(Master, "_leaving", leaving)
        with pytest.raises(InternalConsistencyError, match="guard"):
            solve(master_of(beale()))

    def test_redundant_equalities_survive(self):
        # min -x0 s.t. x0 - x1 == 0, 2 x0 - 2 x1 == 0, x0 + x1 <= 2: x0
        # replaces one row's artificial, and the other row, emptied by
        # that pivot, keeps its artificial at 0
        prob = build([-1, 0], [[1, -1], [2, -2], [1, 1]], ["==", "==", "<="], [0, 0, 2])
        sol = solve(master_of(prob))
        assert sol.x == (F(1), F(1))
        assert sol.objective_value == F(-1)
        assert verify_certificate(prob, sol)

    def test_tableau_bit_lengths(self):
        # start_bits reads the start block, whose widest entry is the
        # rhs 999; x and the duals are read off the final block and det
        prob = build([-1, -1], [[1000, 3], [1, 7]], ["<=", "<="], [999, 5])
        sol = solve(master_of(prob))
        assert sol.stats.start_bits == 10
        assert sol.stats.end_bits >= max(
            max(v.numerator.bit_length(), v.denominator.bit_length())
            for v in sol.x + sol.duals
        )

    def test_upper_bounds_respected(self):
        # x <= 2 and y <= 3 written as <= rows bind before x + y <= 10
        prob = build([-1, -1], [[1, 1], [1, 0], [0, 1]], ["<="] * 3, [10, 2, 3])
        sol = solve(master_of(prob))
        assert sol.x == (F(2), F(3))
        assert sol.duals == (F(0), F(-1), F(-1))
        assert verify_certificate(prob, sol)


def by_columns(columns):
    """Dense columns as the sparse (row, coefficient) pairs of
    integer_columns."""
    return [[(i, a) for i, a in enumerate(col) if a] for col in columns]


class TestMaster:
    """Columns appended over rounds to a Master reach the optimum of one
    solve over all of them, from the basis of the last solve and without
    phase 1."""

    @staticmethod
    def rounds(rng):
        """Two == rows with rhs 0 and a <= row with rhs 1 that bounds
        every column, in three rounds of columns.  No first-round column
        loads row 0, so its artificial must stay until a later one does."""
        nrows = 3
        rounds = []
        for r in range(3):
            cols = []
            for _ in range(rng.randint(1, 3)):
                col = [F(rng.randint(-3, 3)) for _ in range(nrows - 1)]
                col.append(F(rng.randint(1, 3)))
                if r == 0:
                    col[0] = F(0)
                cols.append(col)
            costs = [F(rng.randint(-4, 4)) for _ in cols]
            rounds.append((costs, cols))
        rounds[1][1][0][0] = F(rng.choice([-2, -1, 1, 2]))
        return rounds

    def test_appended_rounds_reach_the_one_shot_optimum(self):
        rng = random.Random(1960)
        degenerate = 0
        for _ in range(40):
            rounds = self.rounds(rng)
            costs, cols = rounds[0]
            rows = [[col[i] for col in cols] for i in range(3)]
            master = master_of(build(costs, rows, ["==", "==", "<="], [0, 0, 1]))
            all_costs, all_cols = [], []
            for r, (costs, cols) in enumerate(rounds):
                if r:
                    master.insert(integer_columns(costs, by_columns(cols)))
                all_costs += costs
                all_cols += cols
                sol = solve(master)
                rows = [[col[i] for col in all_cols] for i in range(3)]
                oracle = enumerate_lp(all_costs, rows, ["==", "==", "<="], [0, 0, 1])
                assert sol.objective_value == oracle[0]
                problem = build(all_costs, rows, ["==", "==", "<="], [0, 0, 1])
                assert verify_certificate(problem, sol)
                assert (sol.stats.rows, sol.stats.cols) == (3, len(all_cols) + 4)
            degenerate += sol.stats.degenerate_pivots
        assert degenerate > 0

    def test_row_loaded_only_by_a_later_column(self):
        # min -x2 s.t. x2 - x3 == 0, x0 - x1 == 0, x0 + x1 + x2 + x3 <= 1:
        # row 0 is empty until x2 and x3 arrive, and holds x2 to 1/2
        master = master_of(build([0, 0], [[0, 0], [1, -1], [1, 1]],
                                 ["==", "==", "<="], [0, 0, 1]))
        sol = solve(master)
        assert (sol.objective_value, sol.stats.pivots) == (0, 0)
        master.insert(
            integer_columns([-1, 0], [[(0, 1), (2, 1)], [(0, -1), (2, 1)]])
        )
        sol = solve(master)
        assert sol.x == (0, 0, F(1, 2), F(1, 2))
        assert sol.objective_value == F(-1, 2)
        whole = build([0, 0, -1, 0], [[0, 0, 1, -1], [1, -1, 0, 0], [1, 1, 1, 1]],
                      ["==", "==", "<="], [0, 0, 1])
        assert verify_certificate(whole, sol)

    def test_lex_rule_ends_a_cycling_master(self):
        # Beale's instance, its columns in two rounds
        rows = [[F(1, 4), -60], [F(1, 2), -90], [0, 0]]
        master = master_of(build([F(-3, 4), 150], rows, ["<="] * 3, [0, 0, 1]))
        solve(master)
        master.insert(integer_columns(
            [F(-1, 50), 6], by_columns([[F(-1, 25), F(-1, 50), 1], [9, 3, 0]])
        ))
        sol = solve(master)
        assert sol.objective_value == F(-1, 20)
        assert verify_certificate(beale(), sol)

    def test_rows_stay_lex_positive_against_the_anchor(self, monkeypatch):
        # after every pivot of Beale's master and of the seed-2 (8, 4) cut
        # loop, whose W rows hold artificials, every row of [R b | R B0]
        # is lexicographically positive; an artificial's exit, which can
        # break that, makes the new basis the anchor
        pivot = Master._pivot
        checked, reanchored = [], []

        def checked_pivot(self, row, col):
            artificial = self.basis[row] >= len(self.columns)
            pivot(self, row, col)
            if artificial:
                assert self.anchor == self.basis
                reanchored.append(self.anchor)
            checked.append(lex_positive(self))

        monkeypatch.setattr(Master, "_pivot", checked_pivot)
        prob = beale()
        sol = solve(master_of(prob))
        assert verify_certificate(prob, sol)
        assert sol.stats.pivots == len(checked) and not reanchored
        spec = random_instance(random.Random(2), 8, 4).to_spec()
        result = projection_constant(spec)
        assert verify_certificate(minimal_projection_program(spec), result.certificate)
        assert result.certificate.stats.pivots + sol.stats.pivots == len(checked)
        assert all(checked) and reanchored

    @staticmethod
    def exchange_pivots(monkeypatch):
        """The pivot entries _kernels.pivot returns on a master's integer
        block, each the new det."""
        pivots = []
        pivot = _kernels.pivot

        def recorded(*args):
            pivots.append(pivot(*args))
            return pivots[-1]

        monkeypatch.setattr(_kernels, "pivot", recorded)
        return pivots

    def test_negative_pivot_entry(self, monkeypatch):
        # x1 enters first and the artificial of row 0 leaves on its entry
        # -2, so the next pivot prices and tests ratios over det = -2.
        # The values are those of the rational tableau, which takes the
        # same pivots.
        pivots = self.exchange_pivots(monkeypatch)
        rows = [[1, -2, 0], [-3, 1, 2], [1, 1, 1]]
        problem = build([-1, -2, -1], rows, ["==", "==", "<="], [0, 0, 1])
        master = master_of(problem)
        sol = solve(master)
        assert pivots == [-2, 5, 11]
        assert sol.x == (F(4, 11), F(2, 11), F(5, 11))
        assert sol.objective_value == F(-13, 11)
        assert sol.duals == (F(5, 11), F(1, 11), F(-13, 11))
        assert (sol.stats.pivots, sol.stats.degenerate_pivots) == (3, 2)
        assert verify_certificate(problem, sol)
        master.insert(integer_columns(
            [-3, 1], [[(0, -2), (1, 1), (2, 1)], [(0, 1), (1, -3), (2, 2)]]
        ))
        sol = solve(master)
        assert sol.x == (F(4, 11), 0, F(5, 11), F(2, 11), 0)
        assert sol.objective_value == F(-15, 11)
        assert sol.duals == (F(10, 11), F(2, 11), F(-15, 11))
        assert (sol.stats.pivots, sol.stats.degenerate_pivots) == (4, 2)
        rows = [[1, -2, 0, -2, 1], [-3, 1, 2, 1, -3], [1, 1, 1, 1, 2]]
        whole = build([-1, -2, -1, -3, 1], rows, ["==", "==", "<="], [0, 0, 1])
        assert verify_certificate(whole, sol)

    def test_negative_determinants_against_the_oracle(self, monkeypatch):
        # random masters of self.rounds whose artificials leave on
        # negative entries reach the oracle's optimum all the same
        pivots = self.exchange_pivots(monkeypatch)
        rng = random.Random(1968)
        negative = 0
        for _ in range(40):
            rounds = self.rounds(rng)
            costs, cols = rounds[0]
            rows = [[col[i] for col in cols] for i in range(3)]
            master = master_of(build(costs, rows, ["==", "==", "<="], [0, 0, 1]))
            all_costs, all_cols = [], []
            for r, (costs, cols) in enumerate(rounds):
                if r:
                    master.insert(integer_columns(costs, by_columns(cols)))
                all_costs += costs
                all_cols += cols
                pivots.clear()
                sol = solve(master)
                negative += any(p < 0 for p in pivots)
                rows = [[col[i] for col in all_cols] for i in range(3)]
                oracle = enumerate_lp(all_costs, rows, ["==", "==", "<="], [0, 0, 1])
                assert sol.objective_value == oracle[0]
                problem = build(all_costs, rows, ["==", "==", "<="], [0, 0, 1])
                assert verify_certificate(problem, sol)
        assert negative >= 10

    def test_coprime_denominators_in_a_column(self):
        # each column and cost mixes denominators 2, 3, 5, 7, 11, 13, so
        # every column has its own scale (30, 42, 1155, 910, 36) and the
        # rhs 1/3 its own; the values are those of the rational tableau,
        # which takes the same pivots
        rows = [[F(-1, 2), F(1, 3), F(1, 5)], [F(1, 3), F(-1, 2), F(1, 7)],
                [1, 1, F(2, 3)]]
        costs = [F(-1, 5), F(-1, 7), F(1, 11)]
        senses, rhs = ["==", ">=", "<="], [0, 0, F(1, 3)]
        master = master_of(build(costs, rows, senses, rhs))
        sol = solve(master)
        assert sol.x == (F(93, 715), F(87, 715), F(35, 286))
        assert sol.objective_value == F(-17767, 550550)
        assert sol.duals == (F(5307, 11011), F(16257, 39325), F(-53301, 550550))
        assert (sol.stats.pivots, sol.stats.degenerate_pivots) == (3, 2)
        assert verify_certificate(build(costs, rows, senses, rhs), sol)
        new_costs = [F(-3, 13), F(-1, 6)]
        new_cols = [[F(-2, 7), F(-1, 5), F(1, 2)], [F(3, 4), F(-5, 9), 1]]
        master.insert(integer_columns(new_costs, by_columns(new_cols)))
        sol = solve(master)
        assert sol.x == (F(275, 1417), 0, F(35, 1417), 0, F(174, 1417))
        assert sol.objective_value == F(-889, 15587)
        assert sol.duals == (F(8178, 15587), F(54579, 77935), F(-2667, 15587))
        assert (sol.stats.pivots, sol.stats.degenerate_pivots) == (4, 2)
        rows = [row + [col[i] for col in new_cols] for i, row in enumerate(rows)]
        assert verify_certificate(build(costs + new_costs, rows, senses, rhs), sol)

    def test_unbounded_after_an_append(self):
        # x0 = 4 is optimal until x2 arrives with a negative reduced cost
        # and no positive entry: the master is unbounded, and the solve
        # that finds it names x2
        rows = [[F(1, 2), 1], [1, -1]]
        master = master_of(build([F(-1, 3), 0], rows, ["<=", ">="], [2, 0]))
        sol = solve(master)
        assert (sol.x, sol.objective_value) == ((4, 0), F(-4, 3))
        master.insert(integer_columns([F(-2, 7)], [[(0, F(-1, 5)), (1, F(3, 4))]]))
        with pytest.raises(LpModelError, match="column 2 .* unbounded"):
            solve(master)

    def test_columns_appended_to_an_empty_master(self):
        # column generation from no columns at all: the start is optimal
        # at 0, and appending every column gives the answer and the pivots
        # of a master built with them
        rng = random.Random(1954)
        senses, rhs = ("==", "==", "<="), (F(0), F(0), F(1))
        for _ in range(10):
            costs, cols = map(list, zip(*self.rounds(rng)))
            costs, cols = sum(costs, []), sum(cols, [])
            empty = LpProblem((), ((),) * 3, senses, rhs, ())
            master = master_of(empty)
            sol = solve(master)
            assert (sol.x, sol.objective_value) == ((), 0)
            assert verify_certificate(empty, sol)
            master.insert(integer_columns(costs, by_columns(cols)))
            sol = solve(master)
            rows = [[col[i] for col in cols] for i in range(3)]
            problem = build(costs, rows, senses, rhs)
            expected = solve(master_of(problem))
            assert (sol.x, sol.objective_value, sol.duals) == (
                expected.x, expected.objective_value, expected.duals
            )
            assert sol.stats == expected.stats
            assert verify_certificate(problem, sol)


class TestIntegerColumns:
    """Master.insert takes columns as integers over the lcm of their
    denominators, the form the tests' master_of adapter hands it, and
    checks them; the constructor checks the rows."""

    SENSES, RHS = ["==", ">=", "<="], [0, 0, F(1, 3)]

    @staticmethod
    def integer(cost, column):
        """A cost and dense Fraction column as (rows, ints, cost, scale)."""
        s = lcm(cost.denominator, *(a.denominator for a in column))
        rows = [i for i, a in enumerate(column) if a]
        return rows, [int(column[i] * s) for i in rows], int(cost * s), s

    def rounds(self, rng):
        for _ in range(3):
            width = rng.randint(1, 3)
            costs = [
                F(rng.randint(-4, 4), rng.choice((1, 2, 3, 5))) for _ in range(width)
            ]
            cols = [
                [F(rng.randint(-3, 3), rng.choice((1, 2, 3, 7))) for _ in range(2)]
                + [F(rng.randint(1, 3), rng.choice((1, 4, 5)))]
                for _ in range(width)
            ]
            yield costs, cols

    def test_adapter_matches_integer_columns(self):
        # the same rounds through master_of and integer_columns, the
        # adapter every LP test builds its masters with, and through
        # columns written by integer: the same stored columns, answers,
        # duals and stats after every round
        rng = random.Random(1977)
        for _ in range(20):
            rational = integral = None
            for costs, cols in self.rounds(rng):
                if rational is None:
                    rows = [[col[i] for col in cols] for i in range(3)]
                    rational = master_of(build(costs, rows, self.SENSES, self.RHS))
                    integral = Master(self.SENSES, self.RHS)
                else:
                    rational.insert(integer_columns(costs, by_columns(cols)))
                integral.insert([self.integer(c, col) for c, col in zip(costs, cols)])
                assert integral.columns == rational.columns
                expected, sol = solve(rational), solve(integral)
                assert (sol.x, sol.objective_value, sol.duals) == (
                    expected.x, expected.objective_value, expected.duals
                )
                assert sol.stats == expected.stats

    def test_integer_duals(self):
        # the solution's duals are the accessor's integers over |det|
        rng = random.Random(1978)
        for _ in range(20):
            master = Master(self.SENSES, self.RHS)
            for costs, cols in self.rounds(rng):
                master.insert([self.integer(c, col) for c, col in zip(costs, cols)])
                sol = solve(master)
                nums, den = master.integer_duals()
                assert den == abs(master.det) > 0
                assert tuple(F(y, den) for y in nums) == sol.duals

    def test_malformed_columns_refused(self):
        # a row past the end, rows out of order or repeated, a zero entry,
        # an entry short, a scale that is not the lcm, a scale below 1,
        # and a good column before a bad one; none changes the next solve
        good = ([0, 2], [1, 2], -1, 1)
        master = Master(["==", "==", "<="], [0, 0, 1])
        master.insert([good])
        for bad in (([3], [1], 0, 1), ([2, 0], [1, 1], 0, 1),
                    ([0, 0], [1, 1], 0, 1), ([0, 2], [0, 1], 0, 1),
                    ([0, 2], [1], 0, 1), ([0, 2], [2, 4], -2, 2),
                    ([0, 2], [1, 1], 0, 0), ([0, 2], [1, 1], 0, -1)):
            for columns in ([bad], [([1, 2], [1, 1], -1, 1), bad]):
                with pytest.raises(LpModelError):
                    master.insert(columns)
        sol = solve(master)
        expected = Master(["==", "==", "<="], [0, 0, 1])
        expected.insert([good])
        assert sol == solve(expected)

    def test_rows_checked(self):
        # the constructor's row checks: known senses, one rhs per row,
        # and rhs 0 on every row that needs an artificial
        for senses, rhs in ((["<"], [0]), (["==", "<="], [0]),
                            (["=="], [1]), ([">="], [F(1, 2)]), (["<="], [-1])):
            with pytest.raises(LpModelError):
                Master(senses, rhs)
        master = Master(["==", ">=", "<="], [0, 0, F(1, 3)])
        assert (master.nrows, master.nstruct, master.rhs_scale) == (3, 0, 3)


class TestCrashStart:
    """A Master starts from the basis of slacks and artificials in place
    of phase 1: feasible when every row with an artificial has rhs 0,
    and refused otherwise."""

    # x0 - x1 == 0 needs an artificial, x0 + x1 <= 2 has a slack
    PROB = build([-1, -2], [[1, -1], [1, 1]], ["==", "<="], [0, 2])

    def test_crash_replaces_phase_one(self):
        sol = solve(master_of(self.PROB))
        assert sol.x == (F(1), F(1))
        assert verify_certificate(self.PROB, sol)
        oracle = enumerate_lp([F(-1), F(-2)], [[F(1), F(-1)], [F(1), F(1)]],
                              ["==", "<="], [F(0), F(2)])
        assert (sol.objective_value, list(sol.x)) == oracle

    def test_start_above_the_optimum(self):
        # the start vertex x = 0 costs 0: x0 replaces the artificial at
        # ratio 0, then phase 2 moves to (1, 1) at cost -3
        sol = solve(master_of(self.PROB))
        assert sol.objective_value == -3
        assert (sol.stats.pivots, sol.stats.degenerate_pivots) == (2, 1)
        # with costs >= 0 the start is optimal and nothing pivots
        rows = [[1, -1], [1, 1]]
        cheap = solve(master_of(build([1, 2], rows, ["==", "<="], [0, 2])))
        assert (cheap.x, cheap.objective_value) == ((0, 0), 0)
        assert cheap.stats.pivots == 0

    def test_infeasible_basis_raises(self):
        # an artificial on a row with rhs 1 would start at 1; a <= row
        # with rhs -1 needs one too
        for sense, rhs in (("==", 1), (">=", 1), ("<=", -1)):
            with pytest.raises(LpModelError, match="rhs 0"):
                master_of(build([1], [[1]], [sense], [rhs]))
        master_of(build([1], [[1]], [">="], [0]))


class TestInfeasible:
    """An infeasible program has no answer to certify: the vertex oracle
    finds no vertex, verify_certificate rejects an optimum claimed at any
    point, and a Master refuses the program, whose start basis would hold
    an artificial above 0."""

    def check(self, objective, rows, senses, rhs, points):
        prob = build(objective, rows, senses, rhs)
        dense = [[F(a) for a in row] for row in rows]
        assert enumerate_lp([F(c) for c in objective], dense, senses,
                            [F(b) for b in rhs]) is None
        for x in points:
            x = tuple(F(v) for v in x)
            value = sum(c * v for c, v in zip(prob.objective, x))
            claim = LpSolution(x, value, (F(0),) * len(rows))
            assert not verify_certificate(prob, claim)
        with pytest.raises(LpModelError, match="rhs 0"):
            master_of(prob)

    def test_contradictory_bound_row(self):
        self.check([1], [[1]], ["<="], [-1], points=[[0], [-1]])

    def test_contradictory_equalities(self):
        self.check([1, 1], [[1, 1], [1, 1]], ["==", "=="], [1, 2],
                   points=[[1, 0], [0, 2], [F(1, 2), F(1, 2)]])

    def test_box_against_row(self):
        # x + y >= 10 against x <= 2 and y <= 3, written as rows
        self.check([0, 0], [[1, 1], [1, 0], [0, 1]], [">=", "<=", "<="], [10, 2, 3],
                   points=[[2, 3], [5, 5], [10, 0]])


class TestUnbounded:
    """A master whose objective falls without end along a ray is refused
    at the solve that reaches it: the entering column has no leaving
    row, and LpModelError names it."""

    def test_simple_ray(self):
        # x0 meets no row, so its ray starts at the first basis
        with pytest.raises(LpModelError, match="column 0 .* unbounded"):
            solve(master_of(build([-1], [[0]], ["<="], [0])))

    def test_ray_inside_constraints(self):
        # minimize -x - y with x - y <= 1: x enters and stops at 1, then
        # y enters along the diagonal, which meets no bound
        with pytest.raises(LpModelError, match="column 1 .* unbounded"):
            solve(master_of(build([-1, -1], [[1, -1]], ["<="], [1])))


def at_zero(sense, b):
    """b with the sign that lets x = 0 meet a row of this sense: >= 0
    on <=, <= 0 on >=, and 0 on ==, so a Master's start is feasible."""
    return abs(b) if sense == "<=" else -abs(b) if sense == ">=" else F(0)


class TestAgainstEnumeration:
    """A Master reaches the vertex oracle's optimum on random programs
    that its start basis fits: each row is met at x = 0 (at_zero), and
    the upper bounds of the box are written as rows."""

    def check(self, c, rows, senses, rhs, upper):
        n = len(c)
        box = [[F(int(k == j)) for k in range(n)] for j in range(n)]
        prob = build(c, rows + box, senses + ["<="] * n, rhs + upper)
        sol = solve(master_of(prob))
        oracle = enumerate_lp(c, rows, senses, rhs, upper=upper)
        assert sol.objective_value == oracle[0]
        assert verify_certificate(prob, sol)
        return sol

    def run_case(self, rng, nvars, nrows):
        c = [F(rng.randint(-5, 5)) for _ in range(nvars)]
        rows = [
            [F(rng.randint(-4, 4)) for _ in range(nvars)] for _ in range(nrows)
        ]
        senses = [rng.choice(["<=", ">="]) for _ in range(nrows)]
        rhs = [at_zero(s, F(rng.randint(-6, 6))) for s in senses]
        upper = [F(rng.randint(1, 6)) for _ in range(nvars)]
        self.check(c, rows, senses, rhs, upper)

    def test_random_boxes(self):
        rng = random.Random(31337)
        for _ in range(120):
            self.run_case(rng, rng.randint(1, 4), rng.randint(1, 4))

    def test_random_with_equalities(self):
        rng = random.Random(4242)
        for _ in range(60):
            nvars = rng.randint(2, 4)
            c = [F(rng.randint(-5, 5)) for _ in range(nvars)]
            row_eq = [F(rng.randint(-3, 3)) for _ in range(nvars)]
            row_le = [F(rng.randint(-3, 3)) for _ in range(nvars)]
            rhs = [F(0), F(rng.randint(0, 6))]
            self.check(c, [row_eq, row_le], ["==", "<="], rhs, [F(4)] * nvars)

    def test_random_degenerate(self):
        # mostly homogeneous rows in a box with corner 0: many rows are
        # tight at the same vertex, so degenerate pivots are common
        rng = random.Random(1955)
        cases = degenerate = 0
        while cases < 120:
            nvars, nrows = rng.randint(2, 4), rng.randint(2, 5)
            c = [F(rng.randint(-5, 5)) for _ in range(nvars)]
            rows = [
                [F(rng.randint(-3, 3)) for _ in range(nvars)]
                for _ in range(nrows)
            ]
            senses = [rng.choice(["<=", ">=", "=="]) for _ in range(nrows)]
            cases += 1
            rhs = [
                at_zero(s, F(rng.randint(-4, 4))) if rng.random() < 0.2 else F(0)
                for s in senses
            ]
            upper = [F(rng.randint(1, 4)) for _ in range(nvars)]
            sol = self.check(c, rows, senses, rhs, upper)
            degenerate += sol.stats.degenerate_pivots > 0
        assert degenerate >= 60

    def test_dependent_equalities(self):
        # seed 1955, 9th draw of test_random_degenerate: an all-zero
        # equality row, which the oracle once reported as infeasible
        rows = [[F(0), F(0)], [F(2), F(1)], [F(0), F(0)], [F(3), F(-1)],
                [F(-3), F(-3)]]
        senses = ["==", ">=", ">=", "<=", "<="]
        sol = self.check([F(-4), F(-3)], rows, senses, [F(0)] * 5, [F(4), F(2)])
        assert sol.objective_value == F(-26, 3)
        assert sol.x == (F(2, 3), F(2))
        # more equalities than variables: the second and third repeat the
        # first, so one artificial leaves and two stay basic at 0
        rows = [[F(1), F(-1)], [F(2), F(-2)], [F(-1), F(1)]]
        sol = self.check([F(-1), F(-1)], rows, ["=="] * 3, [F(0)] * 3, [F(4), F(2)])
        assert sol.x == (F(2), F(2))


class TestDeterminism:
    def test_same_program_same_answer_and_stats(self, monkeypatch):
        # the cut loop of one program, run twice, takes the same master
        # pivots to the same certificate and stats
        spec = subspace_from_annihilator(
            [[1, 2], [-3, 1], [2, -2], [1, 4], [-1, -1], [5, 3]]
        )
        calls = []
        pivot = _kernels.pivot

        def counted(*args):
            calls.append(args[2:])
            return pivot(*args)

        monkeypatch.setattr(_kernels, "pivot", counted)
        first, second = projection_constant(spec), projection_constant(spec)
        assert verify_certificate(minimal_projection_program(spec), first.certificate)
        assert first.certificate == second.certificate
        assert first.certificate.stats == second.certificate.stats
        assert calls[: len(calls) // 2] == calls[len(calls) // 2 :]

        stats = first.certificate.stats
        assert stats.pivots == len(calls) // 2 > 0
        assert stats.degenerate_pivots <= len(calls) // 2
        # (N - m) m = 8 rows of W and the row sum(mu) <= 1; a column per
        # cut, that row's slack, an artificial per W row, and the rhs
        assert (stats.rows, stats.cols) == (9, first.cuts + 1 + 8 + 1)
        assert stats.started <= stats.finished


class TestCertificateRejection:
    PAIR = build([-1, -1], [[1, 1], [1, 0]], ["<=", "<="], [2, 1])

    def test_perturbed_primal_rejected(self):
        sol = solve(master_of(self.PAIR))
        bad = LpSolution(
            x=(sol.x[0] + F(1, 1000), sol.x[1]),
            objective_value=sol.objective_value,
            duals=sol.duals,
        )
        assert not verify_certificate(self.PAIR, bad)

    def test_perturbed_dual_rejected(self):
        sol = solve(master_of(self.PAIR))
        bad = LpSolution(
            x=sol.x,
            objective_value=sol.objective_value,
            duals=(sol.duals[0] + F(1, 1000), sol.duals[1]),
        )
        assert not verify_certificate(self.PAIR, bad)

    def test_wrong_sign_multiplier_rejected(self):
        # a <= row's multiplier must be <= 0, so the flipped duals
        # (1, 0) prove no bound
        sol = solve(master_of(self.PAIR))
        assert sol.duals == (F(-1), F(0))
        bad = replace(sol, duals=tuple(-y for y in sol.duals))
        assert not verify_certificate(self.PAIR, bad)

    def test_reduced_cost_on_free_variable_rejected(self):
        # min x1 with x1 >= 2 and x2 >= 0, x2 free: y = (1, 1) keeps the
        # signs and y.b equals the optimum, but prices x2 at -1
        prob, sol = written([1, 0], [[1, 0], [0, 1]], [">=", ">="], [2, 0],
                            x=[2, 0], duals=[1, 0], lower=[0, None])
        assert verify_certificate(prob, sol)
        bad = replace(sol, duals=(F(1), F(1)))
        assert not verify_certificate(prob, bad)

    def test_wrong_lengths_rejected(self):
        sol = solve(master_of(self.PAIR))
        assert sol.duals[-1] == 0
        for x, duals in (
            (sol.x + (F(0),), sol.duals),
            (sol.x[:1], sol.duals),
            (sol.x, sol.duals + (F(0),)),
            (sol.x, sol.duals[:-1]),
        ):
            bad = LpSolution(x, sol.objective_value, duals)
            assert not verify_certificate(self.PAIR, bad)


_DENOMINATORS = (1, 2, 3, 5, 7, 11, 13)
_TINY = F(1, 10**12)


def coprime_rational(rng, bound=6):
    return F(rng.randint(-bound, bound), rng.choice(_DENOMINATORS))


def certified_program(rng):
    """A small program with rational coefficients over coprime
    denominators, all three senses, and free and lower-bounded
    variables, some boxed by an upper bound written as a <= row, with
    an optimal point and duals written around it.

    Each row holds at x, tight where its multiplier y_i may be nonzero
    (of the sign its sense allows) and slack elsewhere; an upper-bound
    row is one of them, with a multiplier <= 0 when tight.  Each
    variable sits at its lower bound with a reduced cost r_j >= 0, or
    above it (or free) with r_j = 0.  Then c = A^T y + r, and y.b plus
    r over the lower bounds is c.x."""
    nvars, nrows = rng.randint(1, 4), rng.randint(1, 4)
    x = [coprime_rational(rng) for _ in range(nvars)]
    rows = [
        [(j, coprime_rational(rng)) for j in range(nvars) if rng.random() < 0.8]
        for _ in range(nrows)
    ]
    lhs = [sum((a * x[j] for j, a in row), F(0)) for row in rows]

    def gap():
        return abs(coprime_rational(rng))

    senses, rhs, duals = [], [], []
    for v in lhs:
        sense = rng.choice(("<=", "==", ">="))
        tight = sense == "==" or rng.random() < 0.6
        y = {"<=": -gap(), ">=": gap(), "==": coprime_rational(rng)}[sense]
        slack = F(0) if tight else gap()
        senses.append(sense)
        rhs.append(v - slack if sense == ">=" else v + slack)
        duals.append(y if tight else F(0))
    lower, reduced = [], []
    for j, xj in enumerate(x):
        kind = rng.choice(("free", "boxed", "upper", "lower"))
        at = rng.choice(("lower", "upper", "inside"))
        lo = xj - gap() if kind in ("boxed", "lower") else None
        r = F(0)
        if at == "lower" and lo is not None:
            lo, r = xj, gap()
        if kind in ("boxed", "upper"):
            tight = at == "upper"
            rows.append(((j, F(1)),))
            senses.append("<=")
            rhs.append(xj if tight else xj + gap())
            duals.append(-gap() if tight else F(0))
        lower.append(lo)
        reduced.append(r)
    objective = reduced  # plus A^T y
    for row, y in zip(rows, duals):
        for j, a in row:
            objective[j] += a * y
    problem = LpProblem.build(objective, rows, senses, rhs, lower=lower)
    value = sum((c * v for c, v in zip(problem.objective, x)), F(0))
    return problem, LpSolution(tuple(x), value, tuple(duals))


def moved(values, i, delta):
    return values[:i] + (values[i] + delta,) + values[i + 1 :]


def variants(solution):
    """The solution and its perturbations: each x and dual entry moved
    by +-1/10**12, each nonzero multiplier with its sign flipped, and
    the stated optimum moved."""
    yield solution
    x, y = solution.x, solution.duals
    for delta in (_TINY, -_TINY):
        for i in range(len(x)):
            yield replace(solution, x=moved(x, i, delta))
        for i in range(len(y)):
            yield replace(solution, duals=moved(y, i, delta))
        yield replace(solution, objective_value=solution.objective_value + delta)
    for i, yi in enumerate(y):
        if yi:
            yield replace(solution, duals=moved(y, i, -2 * yi))


class TestCertificateOracle:
    """verify_certificate gives the verdict of the plain-Fraction check
    in oracles on answers written with their programs, on a Master's
    answers, and on each perturbation of them."""

    def check(self, problem, solution, tally):
        for candidate in variants(solution):
            got = verify_certificate(problem, candidate)
            assert got == certificate_verdict(problem, candidate), candidate
            tally[got] += 1

    def test_random_programs(self):
        rng = random.Random(1947)
        tally = {True: 0, False: 0}
        for _ in range(240):
            problem, solution = certified_program(rng)
            assert verify_certificate(problem, solution)
            self.check(problem, solution, tally)
        assert tally[True] >= 240 and tally[False] >= 2000, tally

    def test_master_problem_after_appended_rounds(self):
        rng = random.Random(1967)
        tally = {True: 0, False: 0}
        for _ in range(20):
            master = None
            all_costs, all_cols = [], []
            for r in range(3):
                cols = []
                for _ in range(rng.randint(1, 3)):
                    col = [coprime_rational(rng, 3) for _ in range(2)]
                    col.append(F(rng.randint(1, 3), rng.choice(_DENOMINATORS)))
                    cols.append(list(enumerate(col)))
                costs = [coprime_rational(rng, 4) for _ in cols]
                all_costs += costs
                all_cols += cols
                rows = [
                    [(j, col[r][1]) for j, col in enumerate(all_cols)] for r in range(3)
                ]
                problem = LpProblem.build(
                    all_costs, rows, ["==", "==", "<="], [0, 0, 1]
                )
                if master is None:
                    master = master_of(problem)
                else:
                    master.insert(integer_columns(costs, cols))
                solution = solve(master)
                dense = [[col[r][1] for col in all_cols] for r in range(3)]
                oracle = enumerate_lp(all_costs, dense, ["==", "==", "<="], [0, 0, 1])
                assert solution.objective_value == oracle[0]
                assert verify_certificate(problem, solution)
                self.check(problem, solution, tally)
        assert tally[True] >= 60 and tally[False] >= 600, tally
