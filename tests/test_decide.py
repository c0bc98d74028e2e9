import random
from fractions import Fraction as F
from math import comb

import pytest

from linfiso import decide
from linfiso.canonical import (
    admissible_sets,
    canonical_family,
    subspace_from_annihilator,
)
from linfiso.decide import (
    DecisionReport,
    decide_by_minors,
    decide_hyperplane,
    decide_isometric,
)
from linfiso.errors import InvalidBasisError, SetBudgetError, WrongCodimensionError
from linfiso.linalg import IndexSet, Matrix, det
from test_canonical import (
    degenerate_spec,
    random_spec,
    rational_spec,
    residual_rows,
    set_denominators,
)

# A rational annihilator whose prefix walk completes a set over a negative
# denominator rho[x]: {1,2} (over 1) fails the test, {1,3} (over -27) passes.
NEGATIVE_COMMON = [[F(1, 2), F(2)], [F(0), F(1, 3)], [F(2), F(-1)]]


def hyperplane_functional(rng, ambient, rational, planted):
    """A nonzero functional with about a third of its entries zero.
    planted puts at a random coordinate an entry of either sign at least
    as large as the 1-norm of the others, which makes it isometric."""
    while True:
        f = [
            F(rng.randint(-5, 5), rng.randint(1, 4) if rational else 1)
            if rng.random() < 2 / 3 else F(0)
            for _ in range(ambient)
        ]
        if planted:
            k = rng.randrange(ambient)
            rest = sum(abs(v) for i, v in enumerate(f) if i != k)
            extra = F(rng.randint(0, 2), rng.randint(1, 3) if rational else 1)
            f[k] = rng.choice((-1, 1)) * (rest + extra)
        if any(f):
            return f


def planted_spec(rng, ambient, codim):
    """F = [I; G] A with its rows shuffled: A a random invertible integer
    block and every column of G of 1-norm at most 1, so the set of the
    identity rows is a witness and the subspace is isometric."""
    while True:
        a = [[rng.randint(-3, 3) for _ in range(codim)] for _ in range(codim)]
        if det(Matrix(a)) != 0:
            break
    g = [[F(0)] * codim for _ in range(ambient - codim)]
    for j in range(codim):
        column = [rng.randint(-3, 3) for _ in range(ambient - codim)]
        scale = sum(map(abs, column)) + rng.randint(0, 2) or 1
        for i, v in enumerate(column):
            g[i][j] = F(v, scale)
    left = [[F(int(i == j)) for j in range(codim)] for i in range(codim)] + g
    rows = [
        [sum((row[k] * a[k][j] for k in range(codim)), F(0)) for j in range(codim)]
        for row in left
    ]
    rng.shuffle(rows)
    return subspace_from_annihilator(rows)


def dominant_last_row_spec(rng, ambient, codim, rational):
    """Small entries above a last row of entries 50 to 99 in absolute
    value, signs at random: the last member of nearly every prefix's
    last set passes its inequality, and another member fails its own."""
    while True:
        rows = [
            [F(rng.randint(-3, 3), rng.randint(1, 3) if rational else 1) for _ in range(codim)]
            for _ in range(ambient - 1)
        ]
        rows.append([F(rng.choice((-1, 1)) * rng.randint(50, 99)) for _ in range(codim)])
        try:
            return subspace_from_annihilator(rows)
        except InvalidBasisError:
            continue


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


class TestHyperplane:
    def test_accepting_instance(self):
        report = decide_hyperplane([1, 1, 2])
        assert report.verdict is True
        assert report.witness.index_set.members == (3,)
        assert report.witness.vectors[3] == (F(1, 2), F(1, 2), F(1))
        assert report.witness.norms() == {3: F(2)}
        assert report.sets_examined == 3

    def test_rejecting_instance(self):
        report = decide_hyperplane([1, 1, 1])
        assert report.verdict is False
        assert report.witness is None
        assert report.sets_examined == 3

    def test_boundary_equality_accepts(self):
        # ||f||_1 == 2 |f_3| exactly
        report = decide_hyperplane([2, 2, 4])
        assert report.verdict is True
        assert report.witness.index_set.members == (3,)

    def test_witness_is_first_qualifying_index(self):
        report = decide_hyperplane([3, 1, 2])
        # 6 <= 2*3 holds at k=1 already
        assert report.verdict is True
        assert report.witness.index_set.members == (1,)
        assert report.sets_examined == 1

    def test_zero_entries_skipped(self):
        report = decide_hyperplane([0, 1, 0, 1])
        assert report.verdict is True
        assert report.witness.index_set.members == (2,)
        assert report.sets_examined == 1

    def test_degenerate_inputs(self):
        with pytest.raises(InvalidBasisError):
            decide_hyperplane([1])
        with pytest.raises(InvalidBasisError):
            decide_hyperplane([0, 0, 0])

    def test_agrees_with_general_scan(self):
        # decide_isometric walks at m = 1 too, and the closed form gives
        # the same report: verdict, sets examined and witness family
        rng = random.Random(333)
        verdicts, zeros, negative = set(), 0, 0
        for ambient in range(2, 41):
            for rational in (False, True):
                for planted in (False, True):
                    f = hyperplane_functional(rng, ambient, rational, planted)
                    walked = decide_isometric(subspace_from_annihilator(f))
                    closed = decide_hyperplane(f)
                    assert walked == closed
                    verdicts.add(walked.verdict)
                    zeros += 0 in f
                    if walked.verdict:
                        negative += f[walked.witness.index_set.members[0] - 1] < 0
        assert verdicts == {True, False} and zeros > 100 and negative > 20

    def test_set_budget_counts_the_coordinates(self, monkeypatch):
        # C(N, 1) = N sets: refused under a budget of N - 1 before the
        # walk starts, as at every other codimension
        def no_walk(spec):
            raise AssertionError("the walk started")

        for ambient in (3, 4, 9):
            spec = subspace_from_annihilator([1] * ambient)
            with monkeypatch.context() as patched:
                patched.setattr(decide, "_prefix_walk", no_walk)
                with pytest.raises(SetBudgetError):
                    decide_isometric(spec, max_sets=ambient - 1)
            assert decide_isometric(spec, max_sets=ambient).sets_examined == ambient


class TestPairMinors:
    def test_example_witness(self):
        spec = subspace_from_annihilator([[1, 0], [0, 1], [1, 1]])
        report = decide_by_minors(spec)
        assert report.verdict is True
        assert report.witness.index_set.members == (1, 2)
        assert report.witness.norms() == {1: F(2), 2: F(2)}

    def test_requires_codim_two(self):
        with pytest.raises(WrongCodimensionError):
            decide_by_minors(subspace_from_annihilator([1, 1, 2]))

    def test_agrees_with_general_scan(self):
        rng = random.Random(777)
        for _ in range(60):
            ambient = rng.randint(3, 6)
            spec = random_annihilator(rng, ambient, 2)
            assert decide_by_minors(spec) == decide_isometric(spec)


class TestGeneralScan:
    def test_witness_certifies_verdict(self):
        rng = random.Random(888)
        for _ in range(40):
            ambient = rng.randint(3, 6)
            codim = rng.randint(1, min(3, ambient - 1))
            spec = random_annihilator(rng, ambient, codim)
            report = decide_isometric(spec)
            if report.verdict:
                fam = canonical_family(spec, report.witness.index_set)
                assert fam == report.witness
                assert all(v <= 2 for v in report.witness.norms().values())
            else:
                # exhausted every admissible set without finding a witness
                total = sum(1 for _ in admissible_sets(spec))
                assert report.sets_examined == total
                for index_set, _ in admissible_sets(spec):
                    fam = canonical_family(spec, index_set)
                    assert any(v > 2 for v in fam.norms().values())

    def test_witness_is_lexicographically_first(self):
        rng = random.Random(999)
        for _ in range(25):
            ambient = rng.randint(3, 5)
            codim = rng.randint(1, min(2, ambient - 1))
            spec = random_annihilator(rng, ambient, codim)
            report = decide_isometric(spec)
            if not report.verdict:
                continue
            for index_set, _ in admissible_sets(spec):
                if index_set == report.witness.index_set:
                    break
                fam = canonical_family(spec, index_set)
                assert any(v > 2 for v in fam.norms().values())

    def test_planted_witness_matches_ratio_family(self):
        # the witness's family, read off the walk's completed rows, is the
        # determinant-ratio family, also when the walk completes it over
        # a negative denominator
        rng = random.Random(2402)
        negative = 0
        for _ in range(90):
            codim = rng.randint(2, 4)
            spec = planted_spec(rng, rng.randint(codim + 1, 9), codim)
            report = decide_isometric(spec)
            assert report.verdict is True
            witness = report.witness
            assert witness == canonical_family(spec, witness.index_set)
            assert all(v <= 2 for v in witness.norms().values())
            negative += set_denominators(spec)[report.sets_examined - 1] < 0
        assert negative > 20

    def test_full_kernel_of_coordinate_functionals(self):
        # the subspace spanned by e_4 inside Q^4: trivially a sup-norm cube
        spec = subspace_from_annihilator([[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]])
        report = decide_isometric(spec)
        assert report.verdict is True
        assert report.witness.index_set.members == (1, 2, 3)


def decision_from_ratios(spec):
    """The general scan's report, rebuilt from canonical_family at each
    admissible set in order."""
    examined = 0
    for index_set, _ in admissible_sets(spec):
        examined += 1
        family = canonical_family(spec, index_set)
        if all(v <= 2 for v in family.norms().values()):
            return DecisionReport(True, family, examined)
    return DecisionReport(False, None, examined)


class TestIntegerInequalities:
    """The general scan tests sum |row| <= 2 |common| on the walk's rows."""

    def test_norm_exactly_two_accepts(self):
        # m = 1: {3} has the vector (1/2, 1/2, 1), 1-norm 2
        report = decide_isometric(subspace_from_annihilator([1, 1, 2]))
        assert report.verdict is True
        assert report.witness.index_set == IndexSet((3,), 3)
        assert report.witness.norms() == {3: F(2)}
        assert report.sets_examined == 3
        # m = 2: both vectors of {1,2} are columns of F, 1-norm 2 each
        report = decide_isometric(subspace_from_annihilator([[1, 0], [0, 1], [1, 1]]))
        assert report.verdict is True
        assert report.witness.index_set == IndexSet((1, 2), 3)
        assert report.witness.norms() == {1: F(2), 2: F(2)}
        assert report.sets_examined == 1

    def test_norm_just_above_two_rejects(self):
        # {3} has the vector (100/199, 100/199, 1), 1-norm 2 + 1/199
        spec = subspace_from_annihilator([100, 100, 199])
        assert canonical_family(spec, IndexSet((3,), 3)).norms() == {3: F(399, 199)}
        report = decide_isometric(spec)
        assert report == DecisionReport(False, None, 3)
        # m = 2: the vector of member 1 at {1,2} is (1, 0, 201/200), 1-norm
        # 2 + 1/200, so {1,2} and {1,3} fail and {2,3} is the witness
        spec = subspace_from_annihilator([[1, 0], [0, 1], [F(201, 200), 1]])
        assert canonical_family(spec, IndexSet((1, 2), 3)).norms() == {
            1: F(401, 200),
            2: F(2),
        }
        report = decide_isometric(spec)
        assert report.witness.index_set == IndexSet((2, 3), 3)
        assert report.witness.norms() == {2: F(401, 201), 3: F(401, 201)}
        assert report.sets_examined == 3
        assert report == decision_from_ratios(spec)

    def test_negative_common_witness(self):
        spec = subspace_from_annihilator(NEGATIVE_COMMON)
        assert set_denominators(spec) == [1, -27, 4]
        report = decide_isometric(spec)
        assert report.verdict is True
        assert report.witness.index_set == IndexSet((1, 3), 3)
        assert report.witness.norms() == {1: F(31, 27), 3: F(28, 27)}
        assert report.sets_examined == 2
        assert report == decision_from_ratios(spec)

    def test_seeded_sweep_matches_ratio_families(self):
        rng = random.Random(1301)
        accepted = negative = 0
        for _ in range(60):
            ambient = rng.randint(2, 7)
            codim = rng.randint(1, ambient - 1)
            for spec in (
                random_spec(rng, ambient, codim),
                degenerate_spec(rng, ambient, codim),
            ):
                report = decide_isometric(spec)
                assert report == decision_from_ratios(spec)
                accepted += report.verdict
                negative += any(d < 0 for d in set_denominators(spec))
        assert accepted > 20 and negative > 20  # both branches were exercised


class TestPrefixCandidates:
    """Only a set whose last member passes ||rho||_1 <= 2 |rho[x]| on its
    prefix's residual row is completed and fully tested."""

    def test_tied_candidates_first_wins(self):
        # m = 2: the residual row of prefix {2} is (0, 0, -4, 4), so {2,3}
        # and {2,4} both pass the last member's test, and both are witnesses
        spec = subspace_from_annihilator([[1, 0], [-2, 0], [1, 2], [0, -2]])
        walked = residual_rows(spec)
        assert walked[(1,)] == [0, 0, -4, 4]
        assert canonical_family(spec, IndexSet((2, 4), 4)).norms() == {2: F(2), 4: F(2)}
        report = decide_isometric(spec)
        assert report.witness.index_set == IndexSet((2, 3), 4)
        assert report.witness.norms() == {2: F(2), 3: F(2)}
        assert report.sets_examined == 3  # {1,3}, {1,4}, {2,3}; {1,2} is singular
        assert report == decision_from_ratios(spec)
        # m = 3: prefix {1,3} has the residual row (0, 0, 0, 4, 4)
        spec = subspace_from_annihilator(
            [[1, 0, 1], [0, -1, -1], [0, 2, 2], [-2, 2, 2], [-2, 1, 1]]
        )
        walked = residual_rows(spec)
        assert walked[(0, 2)] == [0, 0, 0, 4, 4]
        assert all(
            v <= 2 for v in canonical_family(spec, IndexSet((1, 3, 5), 5)).norms().values()
        )
        report = decide_isometric(spec)
        assert report.witness.index_set == IndexSet((1, 3, 4), 5)
        assert report.witness.norms() == {1: F(1), 3: F(2), 4: F(2)}
        assert report.sets_examined == 3
        assert report == decision_from_ratios(spec)

    def test_rational_residual_at_the_boundary(self):
        # prefix {1}: rho = (0, 6, 2, 4), ||rho||_1 = 12 = 2 |rho[2]|
        spec = subspace_from_annihilator([[1, 0], [0, 1], [F(1, 2), F(1, 3)], [F(1, 2), F(2, 3)]])
        walked = residual_rows(spec)
        assert walked[(0,)] == [0, 6, 2, 4]
        report = decide_isometric(spec)
        assert report.witness.index_set == IndexSet((1, 2), 4)
        assert report.witness.norms() == {1: F(2), 2: F(2)}
        assert report.sets_examined == 1
        assert report == decision_from_ratios(spec)
        # 1/300 more: rho = (0, 600, 200, 402), ||rho||_1 = 1202 > 2 * 600
        spec = subspace_from_annihilator(
            [[1, 0], [0, 1], [F(1, 2), F(1, 3)], [F(1, 2), F(2, 3) + F(1, 300)]]
        )
        walked = residual_rows(spec)
        assert walked[(0,)] == [0, 600, 200, 402]
        assert canonical_family(spec, IndexSet((1, 2), 4)).norms() == {1: F(2), 2: F(601, 300)}
        report = decide_isometric(spec)
        assert report == DecisionReport(False, None, 6)
        assert report == decision_from_ratios(spec)

    def test_dependent_prefixes_are_skipped(self):
        # row 2 repeats row 1 and row 3 is zero: 7 of the 20 sets are admissible
        spec = subspace_from_annihilator(
            [[1, 2, 0], [1, 2, 0], [0, 0, 0], [0, 1, 1], [1, 0, 1], [2, 1, -1]]
        )
        report = decide_isometric(spec)
        assert report == DecisionReport(False, None, 7)
        assert report == decision_from_ratios(spec)

    def test_rejected_candidates_at_scale(self, monkeypatch):
        # a dominant last row: nearly every prefix completes a candidate
        # that another member rejects, over dens of either sign
        completed = []

        def recorded(*args):
            completion = complete(*args)
            completed.append(completion)
            return completion

        complete = decide._complete
        monkeypatch.setattr(decide, "_complete", recorded)
        prefixes = rejected = negative = 0
        for codim in range(2, 6):
            for rational in (False, True):
                rng = random.Random(3400 + codim)
                ambient = codim + 6
                spec = dominant_last_row_spec(rng, ambient, codim, rational)
                completed.clear()
                report = decide_isometric(spec)
                assert report == decision_from_ratios(spec)
                for rows, den, _ in completed:
                    if any(sum(map(abs, row)) > 2 * abs(den) for row in rows):
                        rejected += 1
                        negative += den < 0
                prefixes += comb(ambient - 1, codim - 1)
        assert rejected > 0.9 * prefixes  # 626 of 658
        assert negative > 100  # 310 rejected over a negative den

    def test_seeded_sweep_to_nine(self):
        rng = random.Random(1501)
        accepted = 0
        for _ in range(30):
            ambient = rng.randint(2, 9)
            codim = rng.randint(1, min(5, ambient - 1))
            for make in (rational_spec, degenerate_spec):
                spec = make(rng, ambient, codim)
                report = decide_isometric(spec)
                assert report == decision_from_ratios(spec)
                accepted += report.verdict
        assert 10 < accepted < 50  # both verdicts were exercised
