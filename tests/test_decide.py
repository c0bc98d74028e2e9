import random
from fractions import Fraction as F

import pytest

from linfiso.canonical import (
    admissible_sets,
    canonical_family,
    subspace_from_annihilator,
)
from linfiso.decide import (
    DecisionMethod,
    decide_by_minors,
    decide_hyperplane,
    decide_isometric,
)
from linfiso.errors import InvalidBasisError, WrongCodimensionError


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
        assert report.method is DecisionMethod.HYPERPLANE
        assert report.witness.index_set.members == (3,)
        assert report.witness.family.vectors[3] == (F(1, 2), F(1, 2), F(1))
        assert report.witness.norms == {3: F(2)}
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
        rng = random.Random(333)
        for _ in range(60):
            ambient = rng.randint(2, 6)
            spec = random_annihilator(rng, ambient, 1)
            fast = decide_isometric(spec)
            slow = decide_isometric(spec, mode="general")
            assert fast.method is DecisionMethod.HYPERPLANE
            assert slow.method is DecisionMethod.GENERAL
            assert fast.verdict == slow.verdict
            assert fast.sets_examined == slow.sets_examined
            if fast.verdict:
                assert fast.witness.index_set == slow.witness.index_set
                assert fast.witness.family == slow.witness.family
                assert fast.witness.norms == slow.witness.norms


class TestPairMinors:
    def test_method_tag(self):
        spec = subspace_from_annihilator([[1, 0], [0, 1], [1, 1]])
        report = decide_isometric(spec)
        assert report.method is DecisionMethod.GENERAL

    def test_example_witness(self):
        spec = subspace_from_annihilator([[1, 0], [0, 1], [1, 1]])
        report = decide_by_minors(spec)
        assert report.verdict is True
        assert report.witness.index_set.members == (1, 2)
        assert report.witness.norms == {1: F(2), 2: F(2)}

    def test_requires_codim_two(self):
        with pytest.raises(WrongCodimensionError):
            decide_by_minors(subspace_from_annihilator([1, 1, 2]))

    def test_agrees_with_general_scan(self):
        rng = random.Random(777)
        for _ in range(60):
            ambient = rng.randint(3, 6)
            spec = random_annihilator(rng, ambient, 2)
            fast = decide_by_minors(spec)
            slow = decide_isometric(spec, mode="general")
            assert fast.verdict == slow.verdict
            assert fast.sets_examined == slow.sets_examined
            if fast.verdict:
                assert fast.witness.index_set == slow.witness.index_set
                assert fast.witness.family == slow.witness.family
                assert fast.witness.norms == slow.witness.norms


class TestGeneralScan:
    def test_witness_certifies_verdict(self):
        rng = random.Random(888)
        for _ in range(40):
            ambient = rng.randint(3, 6)
            codim = rng.randint(1, min(3, ambient - 1))
            spec = random_annihilator(rng, ambient, codim)
            report = decide_isometric(spec, mode="general")
            if report.verdict:
                fam = canonical_family(spec, report.witness.index_set)
                assert fam == report.witness.family
                assert all(v <= 2 for v in report.witness.norms.values())
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
            report = decide_isometric(spec, mode="general")
            if not report.verdict:
                continue
            for index_set, _ in admissible_sets(spec):
                if index_set == report.witness.index_set:
                    break
                fam = canonical_family(spec, index_set)
                assert any(v > 2 for v in fam.norms().values())

    def test_full_kernel_of_coordinate_functionals(self):
        # the subspace spanned by e_4 inside Q^4: trivially a sup-norm cube
        spec = subspace_from_annihilator([[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]])
        report = decide_isometric(spec, mode="general")
        assert report.verdict is True
        assert report.witness.index_set.members == (1, 2, 3)

    def test_mode_validation(self):
        spec = subspace_from_annihilator([1, 1, 2])
        with pytest.raises(ValueError):
            decide_isometric(spec, mode="fastest")
