import random
from fractions import Fraction as F
from math import comb

import pytest

from linfiso import bounds, canonical, decide
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
from test_decide import NEGATIVE_COMMON, planted_spec


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

    def test_scan_wide_shapes_match_ratio_families(self):
        # the (12, 5) and (14, 3) shapes of the scan benchmark, one random
        # and one planted isometric instance each
        rng = random.Random(1303)
        for ambient, codim in ((12, 5), (14, 3)):
            for spec in (
                random_spec(rng, ambient, codim),
                planted_spec(rng, ambient, codim),
            ):
                expected = bounds_from_ratios(spec)
                assert best_upper_bound(spec, materialize=True) == expected
                report = best_upper_bound(spec)
                assert report == BoundReport(expected.best_upper, expected.best_set, None)
                assert (report.best_upper == 1) == decide_isometric(spec).verdict


class TestFirstMinimizer:
    """Default-mode answers where a later set ties the best bound or
    reaches the floor at one: the first minimizer is reported."""

    def test_first_minimizer_on_a_tie(self):
        # m = 1, ||rho||_1 = 10: {3} ties {1} at 10/3 - 1
        spec = subspace_from_annihilator([3, 2, 3, 2])
        report = best_upper_bound(spec)
        assert (report.best_upper, report.best_set) == (F(7, 3), IndexSet((1,), 4))
        # m = 2: row 4 repeats row 3, so {1,4} ties {1,3} at 3/2
        spec = subspace_from_annihilator([[1, -3], [1, 0], [-3, 1], [-3, 1], [0, 1]])
        report = best_upper_bound(spec)
        assert (report.best_upper, report.best_set) == (F(3, 2), IndexSet((1, 3), 5))
        expected = bounds_from_ratios(spec)
        assert (report.best_upper, report.best_set) == (expected.best_upper, expected.best_set)
        assert list(expected.per_set.values()) == [
            F(17, 3), F(3, 2), F(3, 2), F(19), F(11), F(11), F(7), F(3), F(3)
        ]
        report = best_upper_bound(spec, materialize=True)
        assert report == expected
        assert list(report.per_set.items()) == list(expected.per_set.items())

    def test_first_set_at_the_floor_of_one(self):
        # {1,3} reaches the floor 1.  Prefix {2} has rho = (0, 0, 2, 1), so
        # {2,3}'s own 1-norm for 3 is 3/2, at the floor too, but 2's vector
        # gives it the bound 2
        spec = subspace_from_annihilator([[-2, 0], [1, 0], [0, 2], [0, 1]])
        walked = residual_rows(spec)
        assert walked[(1,)] == [0, 0, 2, 1]
        report = best_upper_bound(spec)
        assert (report.best_upper, report.best_set) == (F(1), IndexSet((1, 3), 4))
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


class TestPerSetScan:
    """best_upper_bound reads member y of each set S off the residual row
    of S - y: the walk's prefixes of range(N - 1) and, for the prefixes
    that hold coordinate N, the determinants the walk left: against the
    ratio families at every codimension, in both modes."""

    def test_seeded_sweep_every_codimension(self, monkeypatch):
        walk = bounds._prefix_walk
        dens = []

        def recorded(spec):
            # per prefix, the signed den of each set completed on it,
            # which the scan never completes
            for prefix, rho, parent in walk(spec):
                xs = range(prefix[-1] + 1 if prefix else 0, spec.ambient)
                dens.append(
                    [canonical._complete(prefix, rho, parent, x)[1] for x in xs if rho[x]]
                )
                yield prefix, rho, parent

        monkeypatch.setattr(bounds, "_prefix_walk", recorded)
        rng = random.Random(3001)
        decided_late = negative = skipped = 0
        for _ in range(20):
            ambient = rng.randint(2, 9)
            for codim in range(1, ambient):
                for make in (random_spec, rational_spec, degenerate_spec, planted_spec):
                    spec = make(rng, ambient, codim)
                    default = best_upper_bound(spec)
                    dens.clear()
                    report = best_upper_bound(spec, materialize=True)
                    expected = bounds_from_ratios(spec)
                    assert report == expected
                    assert default == BoundReport(report.best_upper, report.best_set, None)
                    assert list(report.per_set.items()) == list(expected.per_set.items())
                    negative += any(d < 0 for row in dens for d in row)
                    skipped += len(dens) < comb(ambient - 1, codim - 1)
                    # a set holding coordinate N whose bound is not that
                    # of N's own vector: only a prefix holding N gives it
                    for index_set, value in report.per_set.items():
                        if codim > 1 and ambient in index_set:
                            own = canonical_family(spec, index_set).norms()[ambient]
                            decided_late += max(F(1), own - 1) != value
        assert decided_late > 1000
        assert negative > 100  # specs with a set completed over a negative den
        assert skipped > 30  # specs with a singular prefix skipped

    def test_prefix_holding_coordinate_n_decides(self):
        # {2,3}: 3's own vector (-1/2, 0, 1) has 1-norm 3/2, bound 1, but
        # 2's vector (3/2, 1, 0), read off the prefix {3}, has 5/2
        spec = subspace_from_annihilator([[1, 0], [1, 1], [1, 3]])
        report = best_upper_bound(spec, materialize=True)
        assert list(report.per_set.items()) == [
            (IndexSet((1, 2), 3), F(3)),
            (IndexSet((1, 3), 3), F(1)),
            (IndexSet((2, 3), 3), F(3, 2)),
        ]
        assert report == bounds_from_ratios(spec)


    def test_singular_sets_holding_coordinate_n(self):
        # a zero last row makes every set holding N singular, and so
        # every prefix holding N; a last row repeating row j makes
        # P + j singular for a prefix P that holds N and not j, which
        # the pass over the prefixes holding N must skip
        rng = random.Random(3002)
        mixed = 0
        for _ in range(25):
            ambient = rng.randint(3, 8)
            for codim in range(1, ambient):
                for last in (None, rng.randrange(ambient - 1)):
                    spec = last_row_spec(rng, ambient, codim, last)
                    report = best_upper_bound(spec, materialize=True)
                    expected = bounds_from_ratios(spec)
                    assert report == expected
                    assert list(report.per_set.items()) == list(expected.per_set.items())
                    holding = [s for s in report.per_set if ambient in s]
                    if last is None:
                        assert holding == []
                    elif codim > 1:
                        mixed += 0 < len(holding) < comb(ambient - 1, codim - 1)
        assert mixed > 50  # specs with admissible and singular sets holding N


def last_row_spec(rng, ambient, codim, last):
    """A random rational annihilator whose last row is zero (last=None)
    or repeats row `last`."""
    while True:
        rows = [
            [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(codim)]
            for _ in range(ambient - 1)
        ]
        rows.append([F(0)] * codim if last is None else list(rows[last]))
        try:
            return subspace_from_annihilator(rows)
        except InvalidBasisError:
            continue


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
