import random
from fractions import Fraction as F

import pytest

from linfiso import bounds, decide
from linfiso.bounds import BoundReport, best_upper_bound, distance_bound_for_set
from linfiso.canonical import (
    admissible_sets,
    canonical_family,
    subspace_from_annihilator,
)
from linfiso.decide import decide_isometric
from linfiso.errors import InvalidBasisError, LinfisoError, SetBudgetError
from linfiso.instances import random_instance
from linfiso.linalg import IndexSet
from linfiso.projection import projection_constant
from test_canonical import (
    degenerate_spec,
    random_spec,
    rational_spec,
    residual_rows,
    set_denominators,
)
from test_decide import NEGATIVE_COMMON


def random_annihilator(rng, ambient, codim, bound=5):
    while True:
        rows = [
            [F(rng.randint(-bound, bound)) for _ in range(codim)]
            for _ in range(ambient)
        ]
        try:
            return subspace_from_annihilator(rows)
        except InvalidBasisError:
            continue


class TestPerSetBound:
    def test_example_values(self):
        spec = subspace_from_annihilator([1, 1, 1])
        # every singleton gives vector norms 3, so each bound is 3 - 1 = 2
        for k in (1, 2, 3):
            assert distance_bound_for_set(spec, IndexSet((k,), 3)) == F(2)

    def test_floor_at_one(self):
        spec = subspace_from_annihilator([1, 1, 2])
        # norms equal 2 exactly, excess 1, but the bound never dips below 1
        assert distance_bound_for_set(spec, IndexSet((3,), 3)) == F(1)


class TestBestUpperBound:
    def test_rejecting_example(self):
        spec = subspace_from_annihilator([1, 1, 1])
        report = best_upper_bound(spec)
        assert report.best_upper == F(2)
        assert report.best_set.members == (1,)
        assert report.per_set is None

    def test_per_set_materialization(self):
        spec = subspace_from_annihilator([1, 1, 1])
        report = best_upper_bound(spec, materialize=True)
        assert [s.members for s in report.per_set] == [(1,), (2,), (3,)]
        assert all(value == F(2) for value in report.per_set.values())

    def test_at_least_one_and_argmin(self):
        rng = random.Random(51)
        for _ in range(30):
            ambient = rng.randint(3, 6)
            codim = rng.randint(1, min(3, ambient - 1))
            spec = random_annihilator(rng, ambient, codim)
            report = best_upper_bound(spec, materialize=True)
            assert report.best_upper >= 1
            assert report.best_upper == min(report.per_set.values())
            # lexicographically first argmin wins
            first = next(
                s
                for s, value in report.per_set.items()
                if value == report.best_upper
            )
            assert first == report.best_set

    def test_one_exactly_when_isometric(self):
        rng = random.Random(52)
        for _ in range(40):
            ambient = rng.randint(3, 6)
            codim = rng.randint(1, min(3, ambient - 1))
            spec = random_annihilator(rng, ambient, codim)
            report = best_upper_bound(spec)
            verdict = decide_isometric(spec).verdict
            assert (report.best_upper == 1) == verdict

    def test_per_set_covers_every_admissible_set(self):
        rng = random.Random(53)
        spec = random_annihilator(rng, 5, 2)
        report = best_upper_bound(spec, materialize=True)
        expected = [s for s, _ in admissible_sets(spec)]
        assert list(report.per_set) == expected


def bounds_from_ratios(spec):
    """best_upper_bound(spec, materialize=True), rebuilt from
    canonical_family at each admissible set; min keeps the first
    minimizer in the scan order."""
    per_set = {
        index_set: max(F(1), max(canonical_family(spec, index_set).norms().values()) - 1)
        for index_set, _ in admissible_sets(spec)
    }
    best_set = min(per_set, key=per_set.get)
    return BoundReport(per_set[best_set], best_set, per_set)


class TestIntegerBounds:
    """The per-set bound read off the walk's integer rows, compared by
    cross-multiplication."""

    def test_floor_exactly_one(self):
        # {3}: top / d = 2 exactly, so the bound is d / d = 1
        report = best_upper_bound(subspace_from_annihilator([1, 1, 2]), materialize=True)
        assert report == BoundReport(
            F(1),
            IndexSet((3,), 3),
            {IndexSet((1,), 3): F(3), IndexSet((2,), 3): F(3), IndexSet((3,), 3): F(1)},
        )
        # below the floor: {3} has 1-norm 5/3, still bound 1
        report = best_upper_bound(subspace_from_annihilator([1, 1, 3]))
        assert (report.best_upper, report.best_set) == (F(1), IndexSet((3,), 3))

    def test_tie_keeps_the_first_set(self):
        # 1-norm 10: {1} and {3} tie at 10/3 - 1, {2} and {4} at 10/2 - 1
        report = best_upper_bound(subspace_from_annihilator([3, 2, 3, 2]), materialize=True)
        assert list(report.per_set.values()) == [F(7, 3), F(4), F(7, 3), F(4)]
        assert (report.best_upper, report.best_set) == (F(7, 3), IndexSet((1,), 4))
        report = best_upper_bound(subspace_from_annihilator([2, 3, 2, 3]))
        assert (report.best_upper, report.best_set) == (F(7, 3), IndexSet((2,), 4))
        # m = 2, a three-way tie at the floor
        spec = subspace_from_annihilator([[1, 0], [0, 1], [1, 1]])
        report = best_upper_bound(spec, materialize=True)
        assert list(report.per_set.values()) == [F(1), F(1), F(1)]
        assert report.best_set == IndexSet((1, 2), 3)

    def test_negative_common(self):
        spec = subspace_from_annihilator(NEGATIVE_COMMON)
        assert set_denominators(spec) == [1, -27, 4]
        report = best_upper_bound(spec, materialize=True)
        assert report == BoundReport(
            F(1),
            IndexSet((1, 3), 3),
            {
                IndexSet((1, 2), 3): F(27),
                IndexSet((1, 3), 3): F(1),
                IndexSet((2, 3), 3): F(27, 4),
            },
        )
        assert report == bounds_from_ratios(spec)
        # above the floor: the best set {1,4} is over -42
        spec = subspace_from_annihilator(
            [[F(1, 3), F(2)], [F(-1), F(1, 3)], [F(1), F(1, 2)], [F(1), F(-1)]]
        )
        assert set_denominators(spec) == [38, -33, -42, -15, 12, -27]
        report = best_upper_bound(spec, materialize=True)
        assert list(report.per_set.values()) == [
            F(75, 38), F(80, 33), F(71, 42), F(4), F(23, 4), F(2)
        ]
        assert (report.best_upper, report.best_set) == (F(71, 42), IndexSet((1, 4), 4))
        assert report == bounds_from_ratios(spec)

    def test_seeded_sweep_matches_ratio_families(self):
        rng = random.Random(1302)
        negative = 0
        for _ in range(60):
            ambient = rng.randint(2, 7)
            codim = rng.randint(1, ambient - 1)
            for spec in (
                random_spec(rng, ambient, codim),
                degenerate_spec(rng, ambient, codim),
            ):
                expected = bounds_from_ratios(spec)
                assert best_upper_bound(spec, materialize=True) == expected
                report = best_upper_bound(spec)
                assert (report.best_upper, report.best_set) == (
                    expected.best_upper,
                    expected.best_set,
                )
                assert report.per_set is None
                negative += any(d < 0 for d in set_denominators(spec))
        assert negative > 20  # the negative-denominator branch was exercised



def completed_sets(monkeypatch):
    """Patch bounds to record, 1-based, each set that best_upper_bound
    completes; returns the record."""
    done = []
    prefix = []
    walk, complete = bounds._prefix_walk, bounds._complete

    def walked(spec):
        for item in walk(spec):
            prefix[:] = item[0]
            yield item

    def completing(rows, common, free, x):
        done.append(tuple(q + 1 for q in prefix) + (x + 1,))
        return complete(rows, common, free, x)

    monkeypatch.setattr(bounds, "_prefix_walk", walked)
    monkeypatch.setattr(bounds, "_complete", completing)
    return done


class TestPrunedBounds:
    """Without materialize, a set whose floor max(1, ||rho||_1 / |rho[x]| - 1)
    cannot strictly beat the best bound so far is not completed."""

    def test_later_tie_above_the_floor_is_skipped(self, monkeypatch):
        done = completed_sets(monkeypatch)
        # m = 1, ||rho||_1 = 10: {3} ties {1} at 10/3 - 1
        spec = subspace_from_annihilator([3, 2, 3, 2])
        report = best_upper_bound(spec)
        assert (report.best_upper, report.best_set) == (F(7, 3), IndexSet((1,), 4))
        assert done == [(1,)]
        # m = 2: row 4 repeats row 3, so {1,4} ties {1,3} at 3/2
        done.clear()
        spec = subspace_from_annihilator([[1, -3], [1, 0], [-3, 1], [-3, 1], [0, 1]])
        report = best_upper_bound(spec)
        assert (report.best_upper, report.best_set) == (F(3, 2), IndexSet((1, 3), 5))
        assert done == [(1, 2), (1, 3)]
        expected = bounds_from_ratios(spec)
        assert (report.best_upper, report.best_set) == (expected.best_upper, expected.best_set)
        assert list(expected.per_set.values()) == [
            F(17, 3), F(3, 2), F(3, 2), F(19), F(11), F(11), F(7), F(3), F(3)
        ]
        # materialized, every set is completed
        done.clear()
        assert best_upper_bound(spec, materialize=True) == expected
        assert done == list(s.members for s in expected.per_set)

    def test_later_set_at_the_floor_is_skipped(self, monkeypatch):
        done = completed_sets(monkeypatch)
        # {1,3} reaches the floor 1.  Prefix {2} has rho = (0, 0, 2, 1), so
        # the floor of {2,3} is max(1, 3/2 - 1) = 1, which cannot beat 1;
        # its bound is 2.
        spec = subspace_from_annihilator([[-2, 0], [1, 0], [0, 2], [0, 1]])
        walked = residual_rows(spec)
        assert walked[(1,)] == [0, 0, 2, 1]
        report = best_upper_bound(spec)
        assert (report.best_upper, report.best_set) == (F(1), IndexSet((1, 3), 4))
        assert done == [(1, 3)]
        assert list(bounds_from_ratios(spec).per_set.values()) == [F(1), F(2), F(2), F(2)]

    def test_seeded_sweep_to_nine(self):
        rng = random.Random(1502)
        for _ in range(30):
            ambient = rng.randint(2, 9)
            codim = rng.randint(1, min(5, ambient - 1))
            for make in (rational_spec, degenerate_spec):
                spec = make(rng, ambient, codim)
                expected = bounds_from_ratios(spec)
                assert best_upper_bound(spec, materialize=True) == expected
                report = best_upper_bound(spec)
                assert report == BoundReport(expected.best_upper, expected.best_set, None)


class TestSetBudget:
    def test_library_refuses_before_the_scan(self, monkeypatch):
        # the budget is inclusive: the 30 sets at (30, 1) pass a budget
        # of 30 and fail one of 29; decide's scan is held to the budget
        # at (8, 2), C(8, 2) = 28
        line = random_instance(random.Random(1), 30, 1).to_spec()
        assert best_upper_bound(line, max_sets=30) == best_upper_bound(line)
        with pytest.raises(SetBudgetError, match="C\\(30, 1\\) = 30 index sets"):
            best_upper_bound(line, max_sets=29)
        plane = random_instance(random.Random(1), 8, 2).to_spec()
        assert decide_isometric(plane, max_sets=28) == decide_isometric(plane)
        with pytest.raises(SetBudgetError, match="C\\(8, 2\\) = 28 index sets"):
            decide_isometric(plane, max_sets=27)
        # C(30, 15) sets: decide, bounds and the start scan of
        # projection_constant raise SetBudgetError without walking a set

        def no_scan(spec):
            raise AssertionError("the scan started")

        monkeypatch.setattr(decide, "_prefix_walk", no_scan)
        monkeypatch.setattr(bounds, "_prefix_walk", no_scan)
        spec = random_instance(random.Random(1), 30, 15).to_spec()
        for run in (
            lambda: decide_isometric(spec),
            lambda: best_upper_bound(spec),
            lambda: best_upper_bound(spec, materialize=True),
            lambda: projection_constant(spec),
        ):
            with pytest.raises(SetBudgetError, match="exceed the set budget of 100000"):
                run()
        assert issubclass(SetBudgetError, LinfisoError)
