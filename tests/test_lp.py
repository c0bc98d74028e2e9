import random
from fractions import Fraction as F

import pytest

from linfiso import _kernels
from linfiso.canonical import subspace_from_annihilator
from linfiso.errors import InternalConsistencyError, LpModelError
from linfiso.instances import random_instance
from linfiso.lp import (
    Crash,
    LpProblem,
    LpSolution,
    LpStatus,
    solve,
    verify_certificate,
    verify_infeasibility,
    verify_unboundedness,
)
from linfiso.projection import minimal_projection_program
from oracles import enumerate_lp


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

    def test_crossed_bounds(self):
        with pytest.raises(LpModelError):
            build([1], [[1]], ["<="], [0], lower=[3], upper=[2])

    def test_bound_defaults(self):
        prob = build([1, 1], [[1, 1]], ["<="], [1])
        assert prob.lower == (F(0), F(0))
        assert prob.upper == (None, None)

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


class TestSolveBasics:
    def test_single_variable_floor(self):
        prob = build([1], [[1]], [">="], [1])
        sol = solve(prob)
        assert sol.status is LpStatus.OPTIMAL
        assert sol.x == (F(1),)
        assert sol.objective_value == F(1)
        assert verify_certificate(prob, sol)

    def test_free_variable(self):
        prob = build([1], [[1]], [">="], [-5], lower=[None])
        sol = solve(prob)
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective_value == F(-5)
        assert verify_certificate(prob, sol)

    def test_equality_with_negative_rhs(self):
        prob = build([1, 1], [[1, -1]], ["=="], [-2], upper=[3, 3])
        sol = solve(prob)
        assert sol.status is LpStatus.OPTIMAL
        assert sol.x == (F(0), F(2))
        assert sol.objective_value == F(2)
        assert verify_certificate(prob, sol)

    def test_two_variable_dual_pair(self):
        # min -x - y  s.t.  x + y <= 2,  x <= 1, both vars >= 0
        prob = build([-1, -1], [[1, 1], [1, 0]], ["<=", "<="], [2, 1])
        sol = solve(prob)
        assert sol.status is LpStatus.OPTIMAL
        assert sol.x == (F(1), F(1))
        assert sol.objective_value == F(-2)
        # the dual optimum is unique here
        assert sol.duals == (F(-1), F(0))
        assert verify_certificate(prob, sol)

    def test_degenerate_pivoting_terminates(self):
        # classic cycling instance for naive pivoting rules
        prob = build(
            [F(-3, 4), 150, F(-1, 50), 6],
            [
                [F(1, 4), -60, F(-1, 25), 9],
                [F(1, 2), -90, F(-1, 50), 3],
                [0, 0, 1, 0],
            ],
            ["<=", "<=", "<="],
            [0, 0, 1],
        )
        sol = solve(prob)
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective_value == F(-1, 20)
        assert verify_certificate(prob, sol)
        # Dantzig's rule alone cycles here; Bland's rule breaks the stretch
        # once more than 50 pivots in a row are degenerate
        assert sol.stats.degenerate_pivots > 50
        assert sol.stats.bland_fallbacks >= 1

    def test_bland_turn_is_bounded(self):
        # Bland's rule kept until the next non-degenerate pivot creeps
        # through about 2,000 pivots here; giving the stretch back to
        # Dantzig's rule after the allowance solves it in about 300
        prob = minimal_projection_program(
            random_instance(random.Random(5), 6, 4).to_spec()
        )
        sol = solve(prob)
        assert sol.status is LpStatus.OPTIMAL
        assert verify_certificate(prob, sol)
        assert sol.stats.bland_fallbacks >= 1
        assert sol.stats.phase1_pivots + sol.stats.phase2_pivots < 600

    def test_redundant_equalities_survive(self):
        prob = build(
            [1, 1],
            [[1, 1], [2, 2]],
            ["==", "=="],
            [2, 4],
        )
        sol = solve(prob)
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective_value == F(2)
        assert verify_certificate(prob, sol)

    def test_upper_bounds_respected(self):
        prob = build([-1, -1], [[1, 1]], ["<="], [10], upper=[2, 3])
        sol = solve(prob)
        assert sol.status is LpStatus.OPTIMAL
        assert sol.x == (F(2), F(3))
        assert verify_certificate(prob, sol)


class TestCrashStart:
    """A start of crash pivots replaces phase 1 when it reaches a
    feasible basis without artificials, and is refused otherwise."""

    # x0 - x1 = -2 with both in [0, 3]: the equality needs an artificial
    PROB = build([1, 1], [[1, -1]], ["=="], [-2], upper=[3, 3])

    def test_crash_replaces_phase_one(self):
        sol = solve(self.PROB, [Crash(1, (0,))])
        assert sol.status is LpStatus.OPTIMAL
        assert sol.x == (F(0), F(2))
        assert verify_certificate(self.PROB, sol)
        stats = sol.stats
        assert (stats.start_pivots, stats.phase1_pivots) == (1, 0)
        assert stats.start_value == F(2)
        cold = solve(self.PROB).stats
        assert (cold.start_pivots, cold.start_value) == (0, None)
        assert cold.phase1_pivots > 0

    def test_start_above_the_optimum(self):
        # x0 + 2 x1 = 2: the crash vertex (2, 0) costs 2, phase 2 moves
        # to (0, 1)
        prob = build([1, 1], [[1, 2]], ["=="], [2])
        sol = solve(prob, [Crash(0, (0,))])
        assert sol.stats.start_value == 2
        assert sol.stats.phase2_pivots == 1
        assert sol.x == (F(0), F(1))
        assert verify_certificate(prob, sol)

    def test_free_variable_sides(self):
        prob = build([0], [[1]], ["=="], [-5], lower=[None])
        sol = solve(prob, [Crash(0, (0,), -1)])
        assert sol.x == (F(-5),)
        with pytest.raises(InternalConsistencyError, match="feasible"):
            solve(prob, [Crash(0, (0,), 1)])

    def test_infeasible_basis_raises(self):
        # x0 basic on the equality gives x0 = -2
        with pytest.raises(InternalConsistencyError, match="feasible"):
            solve(self.PROB, [Crash(0, (0,))])

    def test_artificial_left_basic_raises(self):
        with pytest.raises(InternalConsistencyError, match="artificial"):
            solve(self.PROB, [])

    def test_entry_without_a_pivot_row_raises(self):
        prob = build([1, 1], [[1, -1], [0, 1]], ["==", "<="], [-2, 3])
        with pytest.raises(InternalConsistencyError, match="no free row"):
            solve(prob, [Crash(0, (1,))])
        with pytest.raises(InternalConsistencyError, match="no free row"):
            solve(prob, [Crash(1, (0,)), Crash(0, (0,))])

    def test_malformed_entries_refused(self):
        for bad in (Crash(2, (0,)), Crash(0, (1,)), Crash(0, (0,), -1)):
            with pytest.raises(LpModelError):
                solve(self.PROB, [bad])


class TestInfeasible:
    def test_contradictory_bound_row(self):
        prob = build([1], [[1]], ["<="], [-1])
        sol = solve(prob)
        assert sol.status is LpStatus.INFEASIBLE
        assert sol.duals is not None
        assert verify_infeasibility(prob, sol)

    def test_contradictory_equalities(self):
        prob = build([1, 1], [[1, 1], [1, 1]], ["==", "=="], [1, 2])
        sol = solve(prob)
        assert sol.status is LpStatus.INFEASIBLE
        assert verify_infeasibility(prob, sol)

    def test_box_against_row(self):
        prob = build([0, 0], [[1, 1]], [">="], [10], upper=[2, 3])
        sol = solve(prob)
        assert sol.status is LpStatus.INFEASIBLE
        assert verify_infeasibility(prob, sol)


class TestUnbounded:
    def test_simple_ray(self):
        prob = build([-1], [[0]], ["<="], [0])
        sol = solve(prob)
        assert sol.status is LpStatus.UNBOUNDED
        assert sol.ray is not None
        assert verify_unboundedness(prob, sol)

    def test_ray_inside_constraints(self):
        # minimize -x - y with x - y <= 1: the diagonal direction escapes
        prob = build([-1, -1], [[1, -1]], ["<="], [1])
        sol = solve(prob)
        assert sol.status is LpStatus.UNBOUNDED
        assert verify_unboundedness(prob, sol)


class TestAgainstEnumeration:
    def check(self, c, rows, senses, rhs, lower, upper):
        prob = build(c, rows, senses, rhs, lower=lower, upper=upper)
        sol = solve(prob)
        oracle = enumerate_lp(c, rows, senses, rhs, lower=lower, upper=upper)
        if oracle is None:
            assert sol.status is LpStatus.INFEASIBLE
            assert verify_infeasibility(prob, sol)
        else:
            assert sol.status is LpStatus.OPTIMAL
            assert sol.objective_value == oracle[0]
            assert verify_certificate(prob, sol)
        return sol

    def run_case(self, rng, nvars, nrows):
        c = [F(rng.randint(-5, 5)) for _ in range(nvars)]
        rows = [
            [F(rng.randint(-4, 4)) for _ in range(nvars)] for _ in range(nrows)
        ]
        senses = [rng.choice(["<=", ">="]) for _ in range(nrows)]
        rhs = [F(rng.randint(-6, 6)) for _ in range(nrows)]
        upper = [F(rng.randint(1, 6)) for _ in range(nvars)]
        self.check(c, rows, senses, rhs, [F(0)] * nvars, upper)

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
            rhs = [F(rng.randint(-4, 4)), F(rng.randint(0, 6))]
            self.check(
                c,
                [row_eq, row_le],
                ["==", "<="],
                rhs,
                [F(0)] * nvars,
                [F(4)] * nvars,
            )

    def test_random_mixed_bounds(self):
        # each box is [lo, hi], (-inf, hi] with cost <= 0, or [lo, inf)
        # with cost >= 0, so every draw is bounded below; lo != 0 shifts
        # the variable and (-inf, hi] reflects it
        rng = random.Random(2025)
        seen = set()
        for _ in range(150):
            nvars, nrows = rng.randint(1, 4), rng.randint(1, 4)
            c, lower, upper = [], [], []
            for _ in range(nvars):
                lo = F(rng.randint(-3, 2))
                hi = lo + rng.randint(0, 4)
                kind = rng.randrange(3)
                if kind == 0:
                    c.append(F(rng.randint(-5, 5)))
                    lower.append(lo)
                    upper.append(hi)
                elif kind == 1:
                    c.append(F(rng.randint(-5, 0)))
                    lower.append(None)
                    upper.append(hi)
                else:
                    c.append(F(rng.randint(0, 5)))
                    lower.append(lo)
                    upper.append(None)
            rows = [
                [F(rng.randint(-4, 4)) for _ in range(nvars)]
                for _ in range(nrows)
            ]
            senses = [rng.choice(["<=", ">=", "=="]) for _ in range(nrows)]
            rhs = [F(rng.randint(-6, 6)) for _ in range(nrows)]
            seen.add(self.check(c, rows, senses, rhs, lower, upper).status)
        assert seen == {LpStatus.OPTIMAL, LpStatus.INFEASIBLE}

    def test_random_degenerate(self):
        # mostly homogeneous rows in a box with corner 0: many rows are
        # tight at the same vertex, so degenerate pivots are common
        rng = random.Random(1955)
        seen = set()
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
                F(rng.randint(-4, 4)) if rng.random() < 0.2 else F(0)
                for _ in range(nrows)
            ]
            upper = [F(rng.randint(1, 4)) for _ in range(nvars)]
            sol = self.check(c, rows, senses, rhs, [F(0)] * nvars, upper)
            seen.add(sol.status)
            degenerate += sol.stats.degenerate_pivots > 0
        assert seen == {LpStatus.OPTIMAL, LpStatus.INFEASIBLE}
        assert degenerate >= 60

    def test_dependent_equalities(self):
        # seed 1955, 9th draw of test_random_degenerate: an all-zero
        # equality row, which the oracle once reported as infeasible
        rows = [[F(0), F(0)], [F(2), F(1)], [F(0), F(0)], [F(3), F(-1)],
                [F(-3), F(-3)]]
        senses = ["==", ">=", ">=", "<=", "<="]
        box = ([F(0)] * 2, [F(4), F(2)])
        sol = self.check([F(-4), F(-3)], rows, senses, [F(0)] * 5, *box)
        assert sol.objective_value == F(-26, 3)
        assert sol.x == (F(2, 3), F(2))
        # more equalities than variables, consistent and then not
        rows = [[F(1), F(1)], [F(1), F(-1)], [F(2), F(0)]]
        sol = self.check([F(1), F(2)], rows, ["=="] * 3, [F(2), F(0), F(2)],
                         *box)
        assert sol.x == (F(1), F(1))
        sol = self.check([F(1), F(2)], rows, ["=="] * 3, [F(2), F(0), F(3)],
                         *box)
        assert sol.status is LpStatus.INFEASIBLE


class TestDeterminism:
    def test_same_program_same_answer_and_stats(self, monkeypatch):
        spec = subspace_from_annihilator(
            [[1, 2], [-3, 1], [2, -2], [1, 4], [-1, -1], [5, 3]]
        )
        prob = minimal_projection_program(spec)
        calls = []
        pivot = _kernels.pivot

        def counted(*args):
            calls.append(args[3:])
            return pivot(*args)

        monkeypatch.setattr(_kernels, "pivot", counted)
        first, second = solve(prob), solve(prob)
        assert first.status is second.status is LpStatus.OPTIMAL
        assert verify_certificate(prob, first)
        assert first.x == second.x
        assert first.duals == second.duals
        assert first.stats == second.stats
        assert calls[: len(calls) // 2] == calls[len(calls) // 2 :]

        stats = first.stats
        assert stats.phase1_pivots + stats.phase2_pivots == len(calls) // 2
        assert stats.phase1_pivots > 0 and stats.phase2_pivots > 0
        assert stats.degenerate_pivots <= len(calls) // 2
        # 49 variables, 12 of them free and split; 78 <= rows with a
        # slack; 4 == rows and the 6 <= rows with rhs -1 get artificials
        assert (prob.nvars, prob.nrows) == (49, 82)
        assert (stats.rows, stats.cols) == (82, 61 + 78 + 10 + 1)
        assert (
            stats.started <= stats.built <= stats.phase1_done <= stats.finished
        )


class TestCertificateRejection:
    def test_perturbed_primal_rejected(self):
        prob = build([-1, -1], [[1, 1], [1, 0]], ["<=", "<="], [2, 1])
        sol = solve(prob)
        bad = LpSolution(
            status=sol.status,
            x=(sol.x[0] + F(1, 1000), sol.x[1]),
            objective_value=sol.objective_value,
            duals=sol.duals,
        )
        assert not verify_certificate(prob, bad)

    def test_perturbed_dual_rejected(self):
        prob = build([-1, -1], [[1, 1], [1, 0]], ["<=", "<="], [2, 1])
        sol = solve(prob)
        bad = LpSolution(
            status=sol.status,
            x=sol.x,
            objective_value=sol.objective_value,
            duals=(sol.duals[0] + F(1, 1000), sol.duals[1]),
        )
        assert not verify_certificate(prob, bad)

    def test_wrong_sign_multiplier_rejected(self):
        prob = build([1], [[1]], ["<="], [-1])
        sol = solve(prob)
        bad = LpSolution(
            status=sol.status,
            x=None,
            objective_value=None,
            duals=tuple(-y for y in sol.duals),
        )
        assert not verify_infeasibility(prob, bad)

    def test_non_improving_ray_rejected(self):
        prob = build([-1], [[0]], ["<="], [0])
        sol = solve(prob)
        bad = LpSolution(
            status=sol.status,
            x=sol.x,
            objective_value=None,
            duals=None,
            ray=(F(-1),),
        )
        assert not verify_unboundedness(prob, bad)

    def test_reduced_cost_on_free_variable_rejected(self):
        # min x1 with x1 >= 2 and x2 >= 0, x2 free: y = (1, 1) keeps the
        # signs and y.b equals the optimum, but prices x2 at -1
        prob = build([1, 0], [[1, 0], [0, 1]], [">=", ">="], [2, 0],
                     lower=[0, None])
        sol = solve(prob)
        assert verify_certificate(prob, sol)
        bad = LpSolution(
            status=sol.status,
            x=sol.x,
            objective_value=sol.objective_value,
            duals=(F(1), F(1)),
        )
        assert not verify_certificate(prob, bad)

    def test_ray_breaking_equality_rejected(self):
        # x1 - x2 == 1: the ray (1, 0) meets the row's rhs but not 0
        prob = build([-1, 0], [[1, -1]], ["=="], [1])
        sol = solve(prob)
        assert verify_unboundedness(prob, sol)
        bad = LpSolution(
            status=sol.status,
            x=sol.x,
            objective_value=None,
            duals=None,
            ray=(F(1), F(0)),
        )
        assert not verify_unboundedness(prob, bad)

    def test_ray_leaving_finite_lower_bound_rejected(self):
        # x >= -3: a ray with d < 0 stays above -3 but leaves the box
        prob = build([1], [[0]], ["<="], [0], lower=[-3])
        bad = LpSolution(
            status=LpStatus.UNBOUNDED,
            x=(F(0),),
            objective_value=None,
            duals=None,
            ray=(F(-1),),
        )
        assert not verify_unboundedness(prob, bad)

    def test_zero_farkas_bound_rejected(self):
        # x <= 0 with x >= 0 is feasible; y = -1 aggregates to exactly 0
        prob = build([1], [[1]], ["<="], [0])
        bad = LpSolution(
            status=LpStatus.INFEASIBLE,
            x=None,
            objective_value=None,
            duals=(F(-1),),
        )
        assert not verify_infeasibility(prob, bad)

    def test_wrong_lengths_rejected(self):
        prob = build([-1, -1], [[1, 1], [1, 0]], ["<=", "<="], [2, 1])
        sol = solve(prob)
        assert sol.duals[-1] == 0
        for x, duals in (
            (sol.x + (F(0),), sol.duals),
            (sol.x[:1], sol.duals),
            (sol.x, sol.duals + (F(0),)),
            (sol.x, sol.duals[:-1]),
        ):
            bad = LpSolution(sol.status, x, sol.objective_value, duals)
            assert not verify_certificate(prob, bad)

        prob = build([1], [[1]], ["<="], [-1])
        sol = solve(prob)
        bad = LpSolution(sol.status, None, None, sol.duals + (F(0),))
        assert not verify_infeasibility(prob, bad)

        prob = build([-1], [[0]], ["<="], [0])
        sol = solve(prob)
        for x, ray in ((sol.x + (F(0),), sol.ray), (sol.x, sol.ray + (F(0),))):
            bad = LpSolution(sol.status, x, None, None, ray)
            assert not verify_unboundedness(prob, bad)
