import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

from linfiso.bounds import best_upper_bound, distance_bound_for_set
from linfiso.canonical import (
    admissible_sets,
    canonical_family,
    subspace_from_annihilator,
)
from linfiso.decide import decide_isometric
from linfiso.errors import (
    ContractError,
    InadmissibleSetError,
    InternalConsistencyError,
)
from linfiso.instances import random_instance
from linfiso.linalg import IndexSet, Matrix, op_norm_inf
from linfiso.lp import Crash, solve, verify_certificate
from linfiso.projection import (
    _crash_start,
    coordinate_projection,
    good_index_set,
    minimal_projection_program,
    projection_constant,
    projection_norm,
    verify_norm_gap,
)
from oracles import dense_projection_program, hyperplane_projection_constant

ANCHOR = subspace_from_annihilator([1, 1, 1])


def random_spec(rng, ambient, codim, bound=5):
    from linfiso.errors import InvalidBasisError

    while True:
        rows = [
            [F(rng.randint(-bound, bound)) for _ in range(codim)]
            for _ in range(ambient)
        ]
        try:
            return subspace_from_annihilator(rows)
        except InvalidBasisError:
            continue


class TestProjectionConstant:
    def test_anchor_value(self):
        result = projection_constant(ANCHOR)
        assert result.constant == F(4, 3)

    def test_anchor_right_inverse_is_uniform(self):
        # (1/3, 1/3, 1/3) is the unique minimizer for this functional
        result = projection_constant(ANCHOR)
        assert result.right_inverse == Matrix([[F(1, 3)], [F(1, 3)], [F(1, 3)]])

    def test_certificate_attached_and_valid(self):
        result = projection_constant(ANCHOR)
        assert verify_certificate(result.program, result.certificate)

    def test_isometric_instances_reach_one(self):
        assert projection_constant(subspace_from_annihilator([1, 1])).constant == 1
        assert projection_constant(subspace_from_annihilator([1, 1, 2])).constant == 1

    def test_matches_sign_pattern_oracle(self):
        # the enumeration oracle is exponential in the ambient dimension,
        # so the live comparison stays at 3
        rng = random.Random(11811)
        seen_nontrivial = 0
        while seen_nontrivial < 4:
            spec = random_spec(rng, 3, 1, bound=3)
            value = hyperplane_projection_constant(
                list(spec.annihilator.column(0))
            )
            result = projection_constant(spec)
            assert result.constant == value
            if value > 1:
                seen_nontrivial += 1

    def test_uniform_functional_values(self):
        # frozen outputs of hyperplane_projection_constant for the
        # all-ones functionals (the four-dimensional run is too slow to
        # repeat inline)
        assert projection_constant(ANCHOR).constant == F(4, 3)
        four = subspace_from_annihilator([1, 1, 1, 1])
        assert projection_constant(four).constant == F(3, 2)

    def test_projection_matrix_consistency(self):
        rng = random.Random(11812)
        for _ in range(8):
            ambient = rng.randint(3, 5)
            codim = rng.randint(1, 2)
            spec = random_spec(rng, ambient, codim)
            result = projection_constant(spec)
            p, y, f = result.projection, result.right_inverse, spec.annihilator
            assert result.constant >= 1
            assert op_norm_inf(p) == result.constant
            assert p @ p == p
            # vanishes against the annihilator and fixes the subspace
            assert f.transpose() @ p == Matrix.zeros(codim, ambient)
            for col in spec.spanning_columns():
                out = p @ Matrix.column_vector(col)
                assert tuple(out[i, 0] for i in range(ambient)) == col
            assert f.transpose() @ y == Matrix.identity(codim)

    def test_program_shape(self):
        prog = minimal_projection_program(ANCHOR)
        n, m = 3, 1
        assert len(prog.objective) == n * m + n * n + 1
        # one equality block, two entrywise blocks, one row-sum block
        assert len(prog.rows) == m * m + 2 * n * n + n


class TestSparseProgram:
    """minimal_projection_program writes each row's nonzeros, equal pair
    for pair to the nonzeros of the dense reference program."""

    @staticmethod
    def specs():
        """Seeded m = 1..4 with integer and rational entries; entry bounds
        1 and 2 draw many zeros."""
        rng = random.Random(744)
        out = []
        for m in (1, 2, 3, 4):
            for rational in (False, True):
                for bound in (1, 2, 5):
                    n = m + rng.randint(1, 3)
                    out.append(
                        random_instance(
                            rng, n, m, entry_bound=bound, rational=rational
                        ).to_spec()
                    )
        return out

    def test_matches_the_dense_reference(self):
        zeros = 0
        for spec in self.specs():
            f = spec.annihilator.to_lists()
            objective, rows, senses, rhs, lower = dense_projection_program(f)
            program = minimal_projection_program(spec)
            assert program.rows == tuple(
                tuple((j, a) for j, a in enumerate(row) if a) for row in rows
            )
            assert program.objective == tuple(objective)
            assert program.senses == tuple(senses)
            assert program.rhs == tuple(rhs)
            assert program.lower == tuple(lower)
            assert program.upper == (None,) * len(objective)
            zeros += sum(1 for row in f for a in row if not a)
        assert zeros > 20

    @staticmethod
    def entries(spec):
        return sum(len(row) for row in minimal_projection_program(spec).rows)

    def test_entry_count(self):
        # m nnz(F) for F^T Y = I, N nnz(F) + N^2 for each entrywise block,
        # N^2 + N for the row sums
        for spec in self.specs():
            n, m = spec.ambient, spec.codim
            f = spec.annihilator
            nnz = sum(1 for i in range(n) for a in f.row(i) if a)
            assert self.entries(spec) == m * nnz + 2 * n * nnz + 3 * n * n + n
        dense = subspace_from_annihilator(list(range(1, 13)))
        assert self.entries(dense) == 744


def hyperplane_functionals():
    """Fixed functionals for the edge cases, then seeded random ones."""
    cases = [
        [F(1), F(1)],  # g = 1/2 twice
        [F(2), F(-1), F(1)],  # g_1 exactly 1/2
        [F(1), F(1), F(2)],  # g_3 exactly 1/2, after two smaller ones
        [F(-5), F(1), F(1)],  # g_1 above 1/2, negative
        [F(0), F(3), F(1), F(1)],  # a zero before the dominant entry
        [F(-1), F(-2), F(-3), F(-1)],  # all negative
        [F(1, 2), F(-1, 3), F(1, 5), F(0)],  # rational with a zero
        [F(1), F(1), F(1), F(1), F(1)],
    ]
    rng = random.Random(1974)
    while len(cases) < 40:
        n = rng.randint(2, 6)
        rational = rng.random() < 0.5
        f = [
            F(rng.randint(-6, 6), rng.randint(1, 5) if rational else 1)
            for _ in range(n)
        ]
        if rng.random() < 0.3:
            f[rng.randrange(n)] = 0
        if rng.random() < 0.2:
            f[rng.randrange(n)] = sum(abs(v) for v in f) * rng.choice([1, -2])
        if any(f):
            cases.append(f)
    return cases


class TestHyperplaneClosedForm:
    def test_certificate_and_value_match_the_lp(self):
        kinds = set()
        for f in hyperplane_functionals():
            spec = subspace_from_annihilator(f)
            result = projection_constant(spec)
            assert result.method == "hyperplane"
            assert result.certificate.stats is None
            assert result.program == minimal_projection_program(spec)
            assert verify_certificate(result.program, result.certificate)
            lp = solve(result.program)
            assert lp.objective_value == result.constant
            if len(f) <= 3:
                assert result.constant == hyperplane_projection_constant(f)
            kinds.add(result.constant == 1)
        assert kinds == {True, False}

    def test_codimension_two_uses_the_lp(self):
        spec = subspace_from_annihilator([[1, 0], [0, 1], [1, 1], [1, -1]])
        result = projection_constant(spec)
        assert result.method == "lp"
        assert result.certificate.stats is not None

    def test_perturbed_certificates_rejected(self):
        eps = F(1, 1000)
        for f in hyperplane_functionals()[:16]:
            result = projection_constant(subspace_from_annihilator(f))
            cert, program = result.certificate, result.program
            # nu prices every free y_i with f_i != 0
            duals = (cert.duals[0] + eps,) + cert.duals[1:]
            # y_k with f_k != 0 moves f^T y off 1
            k = next(i for i, v in enumerate(f) if v)
            x = list(cert.x)
            x[k] += eps
            value = cert.objective_value
            for bad in (
                replace(cert, duals=duals),
                replace(cert, x=tuple(x)),
                replace(cert, objective_value=value + eps),
                replace(cert, objective_value=value - eps),
            ):
                assert not verify_certificate(program, bad)


class TestProjectionNorm:
    def test_suboptimal_candidate(self):
        # projection along e_1: norm 2, strictly above the constant 4/3
        p = Matrix([[0, -1, -1], [0, 1, 0], [0, 0, 1]])
        assert projection_norm(ANCHOR, p) == F(2)

    def test_optimal_candidate_matches_constant(self):
        result = projection_constant(ANCHOR)
        assert projection_norm(ANCHOR, result.projection) == F(4, 3)

    def test_shape_contract(self):
        with pytest.raises(ContractError):
            projection_norm(ANCHOR, Matrix.identity(2))

    def test_idempotence_contract(self):
        with pytest.raises(ContractError):
            projection_norm(ANCHOR, Matrix.identity(3).scaled(F(1, 2)))

    def test_range_contract(self):
        # idempotent, but its range is not the subspace
        p = Matrix([[1, 0, 0], [0, 1, 0], [0, 0, 0]])
        with pytest.raises(ContractError):
            projection_norm(ANCHOR, p)


class TestGoodIndexSet:
    def test_anchor_set(self):
        result = projection_constant(ANCHOR)
        assert good_index_set(ANCHOR, result.right_inverse).members == (1,)

    def test_right_inverse_contract(self):
        with pytest.raises(ContractError):
            good_index_set(ANCHOR, Matrix([[1], [0], [0]]).scaled(F(2)))

    def test_block_is_invertible(self):
        rng = random.Random(606)
        for _ in range(8):
            ambient = rng.randint(3, 5)
            codim = rng.randint(1, 2)
            spec = random_spec(rng, ambient, codim)
            result = projection_constant(spec)
            chosen = good_index_set(spec, result.right_inverse)
            block = result.right_inverse.take_rows(chosen)
            f_block = spec.annihilator.take_rows(chosen)
            from linfiso.linalg import det

            assert det(block) != 0
            assert det(f_block) != 0


class TestNormGap:
    def test_anchor_holds_with_equality(self):
        result = projection_constant(ANCHOR)
        report = verify_norm_gap(ANCHOR, result)
        assert report.index_set.members == (1,)
        assert report.amplification == F(3)
        assert report.excess == F(2)
        assert report.bound == F(2)
        assert report.holds

    def test_explicit_set_override(self):
        result = projection_constant(ANCHOR)
        report = verify_norm_gap(ANCHOR, result, IndexSet((2,), 3))
        assert report.index_set.members == (2,)
        assert report.holds

    def test_isometric_case_bounds_norms_by_two(self):
        spec = subspace_from_annihilator([1, 1, 2])
        result = projection_constant(spec)
        report = verify_norm_gap(spec, result)
        # constant 1 forces excess <= 1, i.e. every norm at most 2
        assert result.constant == 1
        assert report.bound == 1
        assert report.excess <= 1
        fam = canonical_family(spec, report.index_set)
        assert all(v <= 2 for v in fam.norms().values())

    def test_holds_on_random_instances(self):
        rng = random.Random(607)
        for _ in range(10):
            ambient = rng.randint(3, 5)
            codim = rng.randint(1, 2)
            spec = random_spec(rng, ambient, codim)
            result = projection_constant(spec)
            report = verify_norm_gap(spec, result)
            assert report.holds
            assert report.excess >= 0
            assert report.amplification >= 0

    def test_gap_links_constant_and_verdict(self):
        rng = random.Random(608)
        for _ in range(10):
            ambient = rng.randint(3, 5)
            spec = random_spec(rng, ambient, 1)
            result = projection_constant(spec)
            verdict = decide_isometric(spec).verdict
            assert (result.constant == 1) == verdict


# an isometric (lambda = 1) instance: on S = {1, 2} the canonical vectors
# are the two columns, of 1-norm 7/4
PLANTED = subspace_from_annihilator(
    [[1, 0], [0, 1], [F(1, 2), 0], [0, F(-1, 2)], [F(1, 4), F(-1, 4)]]
)


def crash_specs():
    """Seeded instances with N <= 7 and m = 2..4, integer and rational
    entries, then the planted isometric one."""
    shapes = [
        (4, 2, False), (5, 2, True), (5, 3, False), (6, 2, False),
        (6, 3, True), (6, 4, False), (7, 2, True), (7, 3, False),
    ]
    rng = random.Random(1992)
    specs = [
        random_instance(rng, n, m, rational=rational).to_spec()
        for n, m, rational in shapes
    ]
    return specs + [PLANTED]


class TestCrashStart:
    """projection_constant starts the m >= 2 simplex at the coordinate
    projection of bounds' best set instead of running phase 1."""

    @pytest.fixture(scope="class")
    def solved(self):
        return [(spec, projection_constant(spec)) for spec in crash_specs()]

    def test_lambda_matches_a_cold_start(self, solved):
        for spec, result in solved:
            cold = solve(minimal_projection_program(spec))
            assert result.constant == cold.objective_value
            assert cold.stats.start_pivots == 0
            assert cold.stats.start_value is None
        assert solved[-1][1].constant == 1

    def test_certificate_verifies_on_the_unchanged_program(self, solved):
        for spec, result in solved:
            assert result.method == "lp"
            assert verify_certificate(
                minimal_projection_program(spec), result.certificate
            )

    def test_start_is_the_best_per_set_bound(self, solved):
        for spec, result in solved:
            stats = result.certificate.stats
            assert stats.start_value == best_upper_bound(spec).best_upper
            assert stats.start_pivots > 0
            assert stats.phase1_pivots == 0
            assert stats.start_value >= result.constant

    @staticmethod
    def starts(spec):
        """The crash list of projection_constant, with Y_S and P_S."""
        best = best_upper_bound(spec).best_set
        y, p = coordinate_projection(spec, best)
        return _crash_start(best, y, p), y, p

    def test_start_pivot_count(self):
        # m^2 Y entries, a T entry per nonzero or diagonal entry of P_S,
        # and t: P_S has N unit or zero diagonal entries and m(N - m)
        # off-diagonal entries at most
        for spec in crash_specs():
            n, m = spec.ambient, spec.codim
            start, _, p = self.starts(spec)
            nonzero = sum(
                1 for i in range(n) for j in range(n) if i != j and p[i, j]
            )
            assert len(start) == m * m + n + nonzero + 1
            assert nonzero <= m * (n - m)

    def test_wrong_y_sign_raises(self):
        for spec in crash_specs()[:4]:
            start, y, _ = self.starts(spec)
            program = minimal_projection_program(spec)
            m = spec.codim
            k = next(
                i for i, c in enumerate(start[: m * m]) if y[c.var // m, c.var % m]
            )
            side = -start[k].side
            flipped = start[:k] + [Crash(start[k].var, start[k].rows, side)]
            with pytest.raises(InternalConsistencyError):
                solve(program, flipped + start[k + 1 :])

    def test_wrong_t_row_raises(self):
        for spec in crash_specs()[:4]:
            start, _, p = self.starts(spec)
            program = minimal_projection_program(spec)
            n, m = spec.ambient, spec.codim
            # an off-diagonal entry on the other row of its pair takes
            # T_ij = -|P_ij|; a diagonal one leaves its artificial basic
            for off in (True, False):
                k = next(
                    i for i, c in enumerate(start)
                    if n * m <= c.var < n * m + n * n
                    and ((c.var - n * m) // n != (c.var - n * m) % n) == off
                )
                row = start[k].rows[0]
                other = row + n * n if row < m * m + n * n else row - n * n
                moved = start[:k] + [Crash(start[k].var, (other,))]
                with pytest.raises(InternalConsistencyError):
                    solve(program, moved + start[k + 1 :])

    def test_any_admissible_start_set_gives_the_same_optimum(self, solved):
        # a passed set replaces the best_upper_bound scan; each admissible
        # set starts at its own per-set bound and reaches the same lambda
        for spec, result in solved[:4] + solved[-1:]:
            for index_set in (next(admissible_sets(spec))[0],
                              best_upper_bound(spec).best_set):
                started = projection_constant(spec, index_set)
                assert started.constant == result.constant
                stats = started.certificate.stats
                assert stats.start_value == distance_bound_for_set(spec, index_set)
                assert stats.phase1_pivots == 0
                assert verify_certificate(started.program, started.certificate)

    def test_singular_start_set_refused(self):
        spec = subspace_from_annihilator([[1, 2], [2, 4], [0, 1], [1, 0]])
        with pytest.raises(InadmissibleSetError):
            projection_constant(spec, IndexSet((1, 2), 4))
        assert projection_constant(spec, IndexSet((3, 4), 4)).constant >= 1

    def test_entry_without_a_pivot_row_raises(self):
        spec = crash_specs()[0]
        start, _, _ = self.starts(spec)
        program = minimal_projection_program(spec)
        m = spec.codim
        # once basic, a variable is zero on every row it did not take
        first = start[0]
        with pytest.raises(InternalConsistencyError):
            solve(program, start[:m] + [Crash(first.var, first.rows)])


class TestCoordinateProjection:
    """P_S = I - Y_S F^T is the feasible projection behind each per-set
    bound and the crash start."""

    def specs(self):
        rng = random.Random(621)
        out = [PLANTED, subspace_from_annihilator([[1, 2], [2, 4], [0, 1], [1, 0]])]
        for n, m, rational in [(4, 2, False), (5, 3, True), (6, 2, False),
                               (6, 3, False), (5, 4, True)]:
            out.append(random_instance(rng, n, m, rational=rational).to_spec())
        return out

    def test_norm_is_the_per_set_bound(self):
        sets = 0
        for spec in self.specs():
            f = spec.annihilator
            for index_set, _ in admissible_sets(spec):
                y, p = coordinate_projection(spec, index_set)
                assert op_norm_inf(p) == distance_bound_for_set(spec, index_set)
                assert p @ p == p
                assert f.transpose() @ p == Matrix.zeros(spec.codim, spec.ambient)
                assert f.transpose() @ y == Matrix.identity(spec.codim)
                for i in range(spec.ambient):
                    if i + 1 not in index_set:
                        assert not any(y.row(i))
                sets += 1
        assert sets > 50

    def test_singular_block_refused(self):
        spec = subspace_from_annihilator([[1, 2], [2, 4], [0, 1], [1, 0]])
        with pytest.raises(InadmissibleSetError):
            coordinate_projection(spec, IndexSet((1, 2), 4))
