"""The routes crosscheck runs on integer rows, each against its Fraction
oracle in tests/oracles.py, on seeded integer, rational and
singular-prone annihilators with N <= 8 and m <= 3."""

import itertools
import random

import pytest

from linfiso.canonical import (
    admissible_sets,
    family_from_minors,
    minor_vectors,
)
from linfiso.decide import decide_by_minors
from linfiso.errors import InadmissibleSetError
from linfiso.linalg import IndexSet, cauchy_binet_check
from linfiso.projection import (
    coordinate_projection,
    good_index_set,
    projection_constant,
    verify_norm_gap,
)
from oracles import (
    admissible_sets_oracle,
    canonical_vectors_oracle,
    cauchy_binet_oracle,
    coordinate_projection_oracle,
    decide_pairs_oracle,
    good_index_set_oracle,
    minor_vectors_oracle,
    norm_gap_oracle,
    to_lists,
)
from test_canonical import degenerate_spec, random_spec, rational_spec

# (spec maker, seed) per kind of annihilator
KINDS = {
    "integer": (random_spec, 4100),
    "rational": (rational_spec, 4101),
    "singular": (degenerate_spec, 4102),
}


def seeded_specs(kind, offset, count, codims):
    make, seed = KINDS[kind]
    rng = random.Random(seed + offset)
    specs = []
    for _ in range(count):
        codim = rng.choice(codims)
        specs.append(make(rng, rng.randint(codim + 1, 8), codim))
    return specs


@pytest.fixture(params=KINDS)
def specs(request):
    return seeded_specs(request.param, 0, 12, (1, 2, 3))


@pytest.fixture(params=KINDS)
def pair_specs(request):
    return seeded_specs(request.param, 100, 16, (2,))


def test_admissible_sets(specs):
    for spec in specs:
        got = [(s.members, d) for s, d in admissible_sets(spec)]
        assert got == admissible_sets_oracle(to_lists(spec.annihilator))


def test_cauchy_binet_check(specs):
    for spec in specs:
        f = to_lists(spec.annihilator)
        start = next(s for s, _ in admissible_sets(spec))
        y_s, _ = coordinate_projection(spec, start)
        # a right inverse, and an unrelated factor of the same shape
        other = spec.annihilator @ spec.annihilator.transpose() @ y_s
        for b in (y_s, other):
            assert cauchy_binet_check(spec.annihilator, b) == cauchy_binet_oracle(
                f, to_lists(b)
            )


def test_minor_vectors(pair_specs):
    for spec in pair_specs:
        assert minor_vectors(spec) == minor_vectors_oracle(to_lists(spec.annihilator))


def test_family_from_minors(pair_specs):
    singular = 0
    for spec in pair_specs:
        f = to_lists(spec.annihilator)
        for combo in itertools.combinations(range(1, spec.ambient + 1), 2):
            index_set = IndexSet(combo, spec.ambient)
            want = canonical_vectors_oracle(f, index_set.members)
            if want is None:
                singular += 1
                with pytest.raises(InadmissibleSetError):
                    family_from_minors(spec, index_set)
            else:
                assert family_from_minors(spec, index_set).vectors == want
    assert singular


def test_decide_by_minors(pair_specs):
    for spec in pair_specs:
        report = decide_by_minors(spec)
        verdict, witness, examined = decide_pairs_oracle(to_lists(spec.annihilator))
        assert (report.verdict, report.sets_examined) == (verdict, examined)
        if witness is None:
            assert report.witness is None
        else:
            assert report.witness.index_set.members == witness
            assert report.witness.vectors == canonical_vectors_oracle(
                to_lists(spec.annihilator), witness
            )


def test_coordinate_projection(specs):
    for spec in specs:
        f = to_lists(spec.annihilator)
        for combo in itertools.combinations(range(1, spec.ambient + 1), spec.codim):
            index_set = IndexSet(combo, spec.ambient)
            want = coordinate_projection_oracle(f, index_set.members)
            if want is None:
                with pytest.raises(InadmissibleSetError):
                    coordinate_projection(spec, index_set)
            else:
                y_s, p_s = coordinate_projection(spec, index_set)
                assert (to_lists(y_s), to_lists(p_s)) == want


def test_good_index_set_and_norm_gap(specs):
    for spec in specs:
        f = to_lists(spec.annihilator)
        result = projection_constant(spec)
        y = to_lists(result.right_inverse)
        first = good_index_set_oracle(f, y)
        assert good_index_set(spec, result.right_inverse).members == first
        for members, _ in admissible_sets_oracle(f):
            index_set = IndexSet(members, spec.ambient)
            want = norm_gap_oracle(f, y, result.constant, members)
            if want is None:
                with pytest.raises(InadmissibleSetError):
                    verify_norm_gap(spec, result, index_set)
                continue
            gap = verify_norm_gap(spec, result, index_set)
            got = (gap.excess, gap.bound, gap.amplification, to_lists(gap.section))
            assert got == want
        assert verify_norm_gap(spec, result).index_set.members == first
