import itertools
import random
from fractions import Fraction as F
from math import comb, lcm

import pytest

from linfiso import _kernels, bounds, canonical, decide
from linfiso.canonical import (
    SubspaceSpec,
    _prefix_walk,
    admissible_sets,
    canonical_family,
    exchange_families,
    family_from_minors,
    minor_vectors,
    subspace_from_annihilator,
    subspace_from_spanning_set,
)
from linfiso.errors import (
    DimensionError,
    InadmissibleSetError,
    InvalidBasisError,
    WrongCodimensionError,
)
from linfiso.linalg import IndexSet, Matrix, det, rank, vec_norm1
from oracles import laplace_det

EXAMPLE = subspace_from_annihilator([[1, 0], [0, 1], [1, 1]])


def random_spec(rng, ambient, codim, bound=5):
    assert codim < ambient
    while True:
        rows = [
            [F(rng.randint(-bound, bound)) for _ in range(codim)]
            for _ in range(ambient)
        ]
        try:
            return subspace_from_annihilator(rows)
        except InvalidBasisError:
            continue


def rational_spec(rng, ambient, codim, bound=6):
    """Random annihilator with small rational entries."""
    while True:
        rows = [
            [F(rng.randint(-bound, bound), rng.randint(1, 4)) for _ in range(codim)]
            for _ in range(ambient)
        ]
        try:
            return subspace_from_annihilator(rows)
        except InvalidBasisError:
            continue


def residual_rows(spec):
    """The residual row rho of each prefix the walk yields, keyed by the
    0-based prefix, in the walk's order."""
    return {prefix: list(rows[free]) for prefix, _, rows, _, free in _prefix_walk(spec)}


def set_denominators(spec):
    """The denominator rho[x] over which the prefix walk completes each
    admissible set Q + x, in the walk's order."""
    return [
        rho[x]
        for prefix, rho in residual_rows(spec).items()
        for x in range(prefix[-1] + 1 if prefix else 0, spec.ambient)
        if rho[x]
    ]


class TestSubspaceSpec:
    def test_dimensions(self):
        assert EXAMPLE.ambient == 3
        assert EXAMPLE.codim == 2

    def test_vector_annihilator_becomes_column(self):
        spec = subspace_from_annihilator([1, 1, 2])
        assert spec.codim == 1
        assert spec.annihilator == Matrix([[1], [1], [2]])

    def test_rank_deficient_rejected(self):
        with pytest.raises(InvalidBasisError):
            subspace_from_annihilator([[1, 2], [2, 4], [3, 6]])

    def test_zero_dimension_rejected(self):
        with pytest.raises(InvalidBasisError):
            subspace_from_annihilator([[1, 0], [0, 1]])

    def test_spanning_columns_are_annihilated(self):
        for col in EXAMPLE.spanning_columns():
            out = EXAMPLE.annihilator.transpose() @ Matrix.column_vector(col)
            assert all(out[k, 0] == 0 for k in range(EXAMPLE.codim))

    def test_from_spanning_set_round_trip(self):
        rng = random.Random(614)
        for _ in range(10):
            spec = random_spec(rng, 5, 2)
            rebuilt = subspace_from_spanning_set(
                Matrix.from_columns(spec.spanning_columns())
            )
            assert rebuilt.ambient == spec.ambient
            assert rebuilt.codim == spec.codim
            # same subspace: rebuilt annihilator kills the original columns
            for col in spec.spanning_columns():
                out = rebuilt.annihilator.transpose() @ Matrix.column_vector(col)
                assert all(out[k, 0] == 0 for k in range(spec.codim))

    def test_spanning_set_rank_checked(self):
        with pytest.raises(InvalidBasisError):
            subspace_from_spanning_set([[1, 2], [2, 4], [0, 0]])


class TestAdmissibleSets:
    def test_example_enumeration(self):
        got = [(s.members, d) for s, d in admissible_sets(EXAMPLE)]
        assert got == [((1, 2), F(1)), ((1, 3), F(1)), ((2, 3), F(-1))]

    def test_skips_singular_blocks(self):
        spec = subspace_from_annihilator([[1, 0], [2, 0], [0, 1]])
        got = [s.members for s, _ in admissible_sets(spec)]
        # rows 1 and 2 are parallel, so {1,2} is out
        assert got == [(1, 3), (2, 3)]

    def test_always_nonempty(self):
        rng = random.Random(77)
        for _ in range(15):
            ambient = rng.randint(3, 6)
            spec = random_spec(rng, ambient, rng.randint(1, min(3, ambient - 1)))
            assert list(admissible_sets(spec))


class TestCanonicalFamily:
    def test_example_vectors(self):
        fam = canonical_family(EXAMPLE, IndexSet((1, 2), 3))
        assert fam.vectors[1] == (F(1), F(0), F(1))
        assert fam.vectors[2] == (F(0), F(1), F(1))
        assert fam.norms() == {1: F(2), 2: F(2)}

    def test_identity_pattern_on_set(self):
        rng = random.Random(2024)
        for _ in range(12):
            ambient = rng.randint(3, 6)
            spec = random_spec(rng, ambient, rng.randint(1, min(3, ambient - 1)))
            for index_set, _ in admissible_sets(spec):
                fam = canonical_family(spec, index_set)
                for k in index_set.members:
                    for j in index_set.members:
                        want = F(1) if j == k else F(0)
                        assert fam.vectors[k][j - 1] == want

    def test_reconstructs_annihilator(self):
        rng = random.Random(2025)
        for _ in range(12):
            ambient = rng.randint(3, 6)
            spec = random_spec(rng, ambient, rng.randint(1, min(3, ambient - 1)))
            block = None
            for index_set, _ in admissible_sets(spec):
                fam = canonical_family(spec, index_set)
                block = spec.annihilator.take_rows(index_set)
                assert fam.matrix() @ block == spec.annihilator

    def test_vectors_lie_in_annihilator_span(self):
        rng = random.Random(2026)
        for _ in range(8):
            spec = random_spec(rng, 5, 2)
            columns = [spec.annihilator.column(j) for j in range(spec.codim)]
            for index_set, _ in admissible_sets(spec):
                fam = canonical_family(spec, index_set)
                for vec in fam.vectors.values():
                    widened = Matrix.from_columns([*columns, vec])
                    assert rank(widened) == spec.codim

    def test_matches_determinant_ratio_oracle(self):
        # three integer annihilators, and a rational one whose columns
        # have the unequal denominators 2, 12 and 7, so each is scaled
        # to integers by its own lcm before the determinants
        rng = random.Random(2027)
        specs = [random_spec(rng, codim + 2, codim) for codim in (1, 2, 3)]
        rational = subspace_from_annihilator(
            [[F(1, 2), 0, F(1, 7)], [0, F(2, 3), 1], [1, 1, 0],
             [2, F(-1, 4), F(3, 7)], [1, 0, 5]]
        )
        columns = map(rational.annihilator.column, range(3))
        assert [lcm(*(x.denominator for x in c)) for c in columns] == [2, 12, 7]
        for spec in specs + [rational]:
            for index_set, _ in admissible_sets(spec):
                fam = canonical_family(spec, index_set)
                block = spec.annihilator.take_rows(index_set).to_lists()
                base = laplace_det(block)
                for k in index_set.members:
                    pos = index_set.members.index(k)
                    for i in range(1, spec.ambient + 1):
                        patched = [row[:] for row in block]
                        patched[pos] = list(spec.annihilator.row(i - 1))
                        assert fam.vectors[k][i - 1] == laplace_det(patched) / base

    def test_invariant_under_annihilator_basis_change(self):
        rng = random.Random(2028)
        for _ in range(8):
            spec = random_spec(rng, 5, 2)
            while True:
                change = Matrix(
                    [[F(rng.randint(-3, 3)) for _ in range(2)] for _ in range(2)]
                )
                if laplace_det(change.to_lists()) != 0:
                    break
            other = SubspaceSpec(spec.annihilator @ change)
            sets_a = [(s.members) for s, _ in admissible_sets(spec)]
            sets_b = [(s.members) for s, _ in admissible_sets(other)]
            assert sets_a == sets_b
            for index_set, _ in admissible_sets(spec):
                fam_a = canonical_family(spec, index_set)
                fam_b = canonical_family(other, index_set)
                assert fam_a.vectors == fam_b.vectors

    def test_one_determinant_per_entry_through_the_kernel(self, monkeypatch):
        # m(N - m) + 1 Bareiss determinants, called through the module
        calls = []
        real = _kernels.det_bareiss

        def counted(rows):
            calls.append(len(rows))
            return real(rows)

        monkeypatch.setattr(_kernels, "det_bareiss", counted)
        spec = subspace_from_annihilator(
            [[F(1, 2), 0, 1], [0, F(2, 3), 1], [1, 1, 0], [2, F(-1, 4), 1], [1, 0, 5]]
        )
        fam = canonical_family(spec, IndexSet((1, 2, 4), 5))
        assert calls == [3] * (3 * 2 + 1)
        assert fam.vectors[1] == (F(1), F(0), F(-10, 3), F(0), F(46, 7))

    def test_inadmissible_set_raises(self):
        spec = subspace_from_annihilator([[1, 0], [2, 0], [0, 1]])
        with pytest.raises(InadmissibleSetError):
            canonical_family(spec, IndexSet((1, 2), 3))

    def test_wrong_sized_set_raises(self):
        with pytest.raises(DimensionError):
            canonical_family(EXAMPLE, IndexSet((1,), 3))

    def test_family_equality_semantics(self):
        fam = canonical_family(EXAMPLE, IndexSet((1, 2), 3))
        same = canonical_family(EXAMPLE, IndexSet((1, 2), 3))
        other = canonical_family(EXAMPLE, IndexSet((1, 3), 3))
        assert fam == same
        assert fam != other
        assert fam != "not a family"


def degenerate_spec(rng, ambient, codim):
    """Random annihilator prone to singular blocks: zero rows, repeated
    and proportional rows, and rational entries."""
    values = [F(0), F(0), F(1), F(-1), F(2), F(1, 2), F(-3, 4), F(5, 3)]
    while True:
        rows = [[rng.choice(values) for _ in range(codim)] for _ in range(ambient)]
        for i in range(ambient):
            pick = rng.random()
            if pick < 0.15:
                rows[i] = [F(0)] * codim
            elif pick < 0.45:
                factor = rng.choice([F(1), F(-2), F(1, 3)])
                rows[i] = [factor * x for x in rows[rng.randrange(ambient)]]
        try:
            return subspace_from_annihilator(rows)
        except InvalidBasisError:
            continue


class TestExchangeScan:
    """The basis-exchange scan against the determinant-ratio families."""

    def assert_matches_ratios(self, spec):
        ratio_sets = list(admissible_sets(spec))
        expected = [canonical_family(spec, s) for s, _ in ratio_sets]
        assert list(exchange_families(spec)) == expected
        return ratio_sets

    def test_example(self):
        families = list(exchange_families(EXAMPLE))
        assert [f.index_set.members for f in families] == [(1, 2), (1, 3), (2, 3)]
        assert families[2].vectors == {2: (F(-1), F(1), F(0)), 3: (F(1), F(0), F(1))}

    def test_seeded_random(self):
        rng = random.Random(3101)
        for _ in range(60):
            ambient = rng.randint(2, 7)
            self.assert_matches_ratios(
                random_spec(rng, ambient, rng.randint(1, ambient - 1))
            )

    def test_seeded_singular_prone(self):
        rng = random.Random(3102)
        skipped = 0
        for _ in range(80):
            ambient = rng.randint(2, 7)
            spec = degenerate_spec(rng, ambient, rng.randint(1, ambient - 1))
            sets = self.assert_matches_ratios(spec)
            skipped += comb(ambient, spec.codim) - len(sets)
        assert skipped > 100  # the singular runs were really exercised

    def test_codimension_one_and_ambient_minus_one(self):
        rng = random.Random(3103)
        for ambient in range(2, 8):
            for codim in {1, ambient - 1}:
                for make in (random_spec, degenerate_spec):
                    self.assert_matches_ratios(make(rng, ambient, codim))

    def test_zero_rows_and_late_first_set(self):
        # rows 1 and 2 vanish and row 4 repeats row 3: the first
        # admissible set is {3, 5}, far from {1, 2}
        spec = subspace_from_annihilator(
            [[0, 0], [0, 0], [1, 2], [1, 2], [F(1, 2), -1], [0, 3]]
        )
        sets = self.assert_matches_ratios(spec)
        assert [s.members for s, _ in sets] == [
            (3, 5), (3, 6), (4, 5), (4, 6), (5, 6)
        ]

    def test_zero_first_pairing_and_reordered_basis(self):
        # Rows 2 and 4 are equal.  From {1, 4} to {2, 3} both members
        # change, and member 1's vector is zero at coordinate 2, so the
        # first pairing tried (2 for 1) has a zero pivot: 2 replaces 4
        # and 3 replaces 1, leaving the basis rows in the order (3, 2).
        spec = subspace_from_annihilator([[1, 0], [0, 1], [1, 1], [0, 1]])
        assert canonical_family(spec, IndexSet((1, 4), 4)).vectors[1][1] == 0
        sets = self.assert_matches_ratios(spec)
        assert [s.members for s, _ in sets] == [(1, 2), (1, 3), (1, 4), (2, 3), (3, 4)]
        assert dict((s.members, d) for s, d in sets)[(2, 3)] == -1

    def test_proportional_rows_skip_runs(self):
        # rows 2, 3, 4 and 6 are multiples of one row and row 5 is zero,
        # so every set holding two multiples or row 5 is singular, in
        # long runs between the admissible sets
        spec = subspace_from_annihilator(
            [[1, 0, 0], [1, 1, 1], [2, 2, 2], [F(-1, 3), F(-1, 3), F(-1, 3)],
             [0, 0, 0], [5, 5, 5], [0, 1, 0], [0, 0, 1]]
        )
        sets = self.assert_matches_ratios(spec)
        assert len(sets) == 1 + 3 * 4  # {1, 7, 8}, or a multiple with two of them

    def assert_residual_rows(self, spec):
        """Each prefix Q the walk yields has independent rows of F, and
        every independent Q is yielded; its free row vanishes on Q and,
        past max Q, is a nonzero multiple of x -> det F_{Q + x}.
        Returns the yielded prefixes, 1-based."""
        n, m = spec.ambient, spec.codim
        mat = spec.annihilator
        yielded = []
        for prefix, order, rows, _, free in _prefix_walk(spec):
            members = tuple(q + 1 for q in prefix)
            yielded.append(members)
            assert sorted(order + (free,)) == list(range(m))
            rho = rows[free]
            assert all(rho[q] == 0 for q in prefix)
            xs = range(prefix[-1] + 1 if prefix else 0, n)
            dets = [det(mat.take_rows(IndexSet(members + (x + 1,), n))) for x in xs]
            tail = [rho[x] for x in xs]
            assert [v == 0 for v in tail] == [d == 0 for d in dets]
            assert all(a * e == b * d for a, d in zip(tail, dets) for b, e in zip(tail, dets))
        independent = [
            tuple(q + 1 for q in prefix)
            for prefix in itertools.combinations(range(n - 1), m - 1)
            if not prefix
            or rank(mat.take_rows(IndexSet(tuple(q + 1 for q in prefix), n))) == m - 1
        ]
        assert yielded == independent
        return yielded

    def test_dependent_prefixes_are_skipped(self):
        # row 2 repeats row 1 and row 3 is zero, so every prefix holding
        # {1, 2} or 3 is dependent, and so is each of its m-sets
        spec = subspace_from_annihilator(
            [[1, 2, 0], [1, 2, 0], [0, 0, 0], [0, 1, 1], [1, 0, 1], [2, 1, -1]]
        )
        assert self.assert_residual_rows(spec) == [(1, 4), (1, 5), (2, 4), (2, 5), (4, 5)]
        sets = self.assert_matches_ratios(spec)
        assert [s.members for s, _ in sets] == [
            (1, 4, 5), (1, 4, 6), (1, 5, 6), (2, 4, 5), (2, 4, 6), (2, 5, 6), (4, 5, 6)
        ]
        # m = 2: the zero row is the one dependent prefix
        spec = subspace_from_annihilator([[1, 2], [0, 0], [1, 2], [F(1, 2), -1]])
        assert self.assert_residual_rows(spec) == [(1,), (3,)]
        sets = self.assert_matches_ratios(spec)
        assert [s.members for s, _ in sets] == [(1, 4), (3, 4)]

    def test_codimension_one_is_the_column(self):
        # the only prefix is empty and its residual row is F's column
        spec = subspace_from_annihilator([F(1, 2), 0, F(-2, 3), 1])
        walked = [(p, o, list(r), c, f) for p, o, r, c, f in _prefix_walk(spec)]
        assert walked == [((), (), [[3, 0, -4, 6]], 1, 0)]

    def test_residual_rows_seeded(self):
        rng = random.Random(3105)
        for _ in range(40):
            ambient = rng.randint(2, 7)
            codim = rng.randint(1, ambient - 1)
            for make in (random_spec, rational_spec, degenerate_spec):
                self.assert_residual_rows(make(rng, ambient, codim))

    def test_seeded_sweep_to_nine(self):
        rng = random.Random(3106)
        for _ in range(12):
            ambient = rng.randint(2, 9)
            codim = rng.randint(1, min(5, ambient - 1))
            for make in (rational_spec, degenerate_spec):
                self.assert_matches_ratios(make(rng, ambient, codim))

    def test_decide_and_bounds_build_no_family_per_set(self, monkeypatch):
        calls = []
        real = canonical.canonical_family

        def counted(spec, index_set):
            calls.append(index_set)
            return real(spec, index_set)

        # decide reads its witness off the walk's rows and imports no
        # ratio route; patch the name wherever a module might bind it
        for module in (canonical, decide, bounds):
            monkeypatch.setattr(module, "canonical_family", counted, raising=False)
        spec = random_spec(random.Random(3104), 8, 3)
        report = bounds.best_upper_bound(spec, materialize=True)
        assert len(report.per_set) > 40
        assert calls == []
        verdict = decide.decide_isometric(spec)
        assert verdict.sets_examined > 1
        assert calls == []
        assert decide.decide_isometric(EXAMPLE).witness is not None
        assert calls == []


class TestMinorVectors:
    def test_example_values(self):
        deltas = minor_vectors(EXAMPLE)
        assert deltas[0] == (F(0), F(1), F(1))
        assert deltas[1] == (F(-1), F(0), F(-1))
        assert deltas[2] == (F(-1), F(1), F(0))

    def test_antisymmetry(self):
        rng = random.Random(404)
        for _ in range(10):
            spec = random_spec(rng, rng.randint(3, 6), 2)
            deltas = minor_vectors(spec)
            n = spec.ambient
            for k in range(n):
                for i in range(n):
                    assert deltas[k][i] == -deltas[i][k]

    def test_requires_codimension_two(self):
        with pytest.raises(WrongCodimensionError):
            minor_vectors(subspace_from_annihilator([1, 1, 2]))

    def test_family_from_minors_matches_general(self):
        rng = random.Random(405)
        for _ in range(10):
            spec = random_spec(rng, rng.randint(4, 6), 2)
            for index_set, _ in admissible_sets(spec):
                assert family_from_minors(spec, index_set) == canonical_family(
                    spec, index_set
                )

    def test_norms_are_minor_ratio(self):
        # ||h^k||_1 over S={k,l} equals ||delta^l||_1 / |delta^l_k|
        rng = random.Random(406)
        spec = random_spec(rng, 5, 2)
        deltas = minor_vectors(spec)
        for index_set, _ in admissible_sets(spec):
            k, l = index_set.members
            fam = canonical_family(spec, index_set)
            pivot = deltas[l - 1][k - 1]
            assert vec_norm1(fam.vectors[k]) == vec_norm1(deltas[l - 1]) / abs(pivot)
            assert vec_norm1(fam.vectors[l]) == vec_norm1(deltas[k - 1]) / abs(pivot)
