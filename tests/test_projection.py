import random
from dataclasses import replace
from fractions import Fraction as F
from operator import mul

import pytest

from linfiso.bounds import best_upper_bound, distance_bound_for_set
from linfiso import projection
from linfiso.canonical import (
    admissible_sets,
    canonical_family,
    subspace_from_annihilator,
)
from linfiso.decide import decide_isometric
from linfiso.errors import ContractError, InadmissibleSetError
from linfiso.instances import random_instance
from linfiso.linalg import IndexSet, Matrix, op_norm_inf, row_norms
from linfiso.lp import Master, verify_certificate
from linfiso.projection import (
    _cut_loop,
    _Layout,
    coordinate_projection,
    good_index_set,
    lp_certificate,
    minimal_projection_program,
    projection_constant,
    projection_norm,
    verify_norm_gap,
    verify_trace_duality,
)
from oracles import (
    dense_projection_program,
    dual_operator,
    hyperplane_projection_constant,
    integer_columns,
    operator_fractions,
    to_lists,
    trace_duality_holds,
    trace_duality_verdict,
)

ANCHOR = subspace_from_annihilator([1, 1, 1])


def proved_by_its_dual(spec, result) -> bool:
    """Whether result.dual proves result.constant by trace duality, to
    the oracle and to verify_trace_duality, and is the operator that
    lp_certificate spreads over the program's duals."""
    n, m = spec.ambient, spec.codim
    f = to_lists(spec.annihilator)
    z = operator_fractions(result.dual)
    duals = lp_certificate(spec, result).duals
    return (
        trace_duality_holds(f, to_lists(result.right_inverse), result.constant, z)
        and verify_trace_duality(spec, result)
        and dual_operator(n, m, duals) == z
    )


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
        certificate = lp_certificate(ANCHOR, result)
        assert verify_certificate(minimal_projection_program(ANCHOR), certificate)

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
            f = to_lists(spec.annihilator)
            objective, rows, senses, rhs, lower = dense_projection_program(f)
            program = minimal_projection_program(spec)
            assert program.rows == tuple(
                tuple((j, a) for j, a in enumerate(row) if a) for row in rows
            )
            assert program.objective == tuple(objective)
            assert program.senses == tuple(senses)
            assert program.rhs == tuple(rhs)
            assert program.lower == tuple(lower)
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
            program = minimal_projection_program(spec)
            assert result.method == "hyperplane"
            assert result.stats is None
            assert verify_certificate(program, lp_certificate(spec, result))
            assert proved_by_its_dual(spec, result)
            # the cut loop from every admissible set reaches the closed
            # form's optimum, and its certificate verifies on the program
            for index_set, _ in admissible_sets(spec):
                cut = _cut_loop(spec, index_set)
                assert cut.constant == result.constant
                assert verify_certificate(program, lp_certificate(spec, cut))
            if len(f) <= 3:
                assert result.constant == hyperplane_projection_constant(f)
            kinds.add(result.constant == 1)
        assert kinds == {True, False}

    def test_rank_one_dual_at_tied_halves(self):
        # |f_p| = |f_q| = |f|_1 / 2: the first nonzero column of P has two
        # entries of the largest size, and the rank-one dual takes the first
        for f in ([1, -1], [2, 2, 0], [0, 3, -3], [F(1, 2), 0, F(-1, 2)]):
            spec = subspace_from_annihilator(f)
            result = projection_constant(spec)
            assert result.constant == 1
            certificate = lp_certificate(spec, result)
            assert verify_certificate(minimal_projection_program(spec), certificate)
            lay = _Layout(len(f), 1)
            assert certificate.duals[lay.identity_row(0, 0)] == 0

    def test_codimension_two_uses_the_lp(self):
        spec = subspace_from_annihilator([[1, 0], [0, 1], [1, 1], [1, -1]])
        result = projection_constant(spec)
        assert result.method == "cuts"
        assert result.stats is not None

    def test_perturbed_certificates_rejected(self):
        eps = F(1, 1000)
        for f in hyperplane_functionals()[:16]:
            spec = subspace_from_annihilator(f)
            result = projection_constant(spec)
            cert = lp_certificate(spec, result)
            program = minimal_projection_program(spec)
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
            projection_norm(ANCHOR, Matrix([[F(1, 2), 0, 0], [0, F(1, 2), 0], [0, 0, F(1, 2)]]))

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
            good_index_set(ANCHOR, Matrix([[2], [0], [0]]))

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


def cut_specs():
    """Seeded instances with N <= 7 and m = 2..4, integer and rational
    entries, N = m + 1 among them, then the planted isometric one."""
    shapes = [
        (4, 2, False), (5, 2, True), (5, 3, False), (6, 2, False),
        (6, 3, True), (6, 4, False), (7, 2, True), (7, 3, False),
        (3, 2, False), (4, 3, True), (5, 4, False),
    ]
    rng = random.Random(1992)
    specs = [
        random_instance(rng, n, m, rational=rational).to_spec()
        for n, m, rational in shapes
    ]
    return specs + [PLANTED]


@pytest.fixture(scope="module")
def solved():
    return [(spec, projection_constant(spec)) for spec in cut_specs()]


class TestCrashStart:
    """projection_constant starts the m >= 2 cut loop at the coordinate
    projection of bounds' best set (W = 0), from a master basis that
    needs no phase 1, and reaches the optimum of the unchanged program."""

    def test_lambda_matches_a_cold_start(self, solved):
        # a start the crash did not pick: the cut loop run from every
        # admissible set reaches the crash start's lambda, and each run's
        # certificate proves it on the unchanged program
        for spec, result in solved:
            program = minimal_projection_program(spec)
            for index_set, _ in admissible_sets(spec):
                cut = _cut_loop(spec, index_set)
                assert cut.constant == result.constant
                assert verify_certificate(program, lp_certificate(spec, cut))
        assert solved[-1][1].constant == 1
        assert any(result.constant > 1 for _, result in solved)

    def test_certificate_verifies_on_the_unchanged_program(self, solved):
        for spec, result in solved:
            assert result.method == "cuts"
            assert verify_certificate(
                minimal_projection_program(spec), lp_certificate(spec, result)
            )

    def test_start_is_the_best_per_set_bound(self, solved):
        # with no set passed the loop starts at P_S for the best set of
        # best_upper_bound, whose norm bounds lambda; passing that set
        # gives the same run
        for spec, result in solved:
            report = best_upper_bound(spec)
            _, p = coordinate_projection(spec, report.best_set)
            assert op_norm_inf(p) == report.best_upper >= result.constant
            started = projection_constant(spec, report.best_set)
            assert (started.rounds, started.cuts) == (result.rounds, result.cuts)
            assert started == result

    def test_any_admissible_start_set_gives_the_same_optimum(self, solved):
        # a passed set replaces the best_upper_bound scan; each admissible
        # set starts at its own coordinate projection and reaches the
        # same lambda
        for spec, result in solved[:4] + solved[-1:]:
            for index_set, _ in admissible_sets(spec):
                started = projection_constant(spec, index_set)
                assert started.constant == result.constant
                assert verify_certificate(
                    minimal_projection_program(spec), lp_certificate(spec, started)
                )

    def test_singular_start_set_refused(self):
        spec = subspace_from_annihilator([[1, 2], [2, 4], [0, 1], [1, 0]])
        with pytest.raises(InadmissibleSetError):
            projection_constant(spec, IndexSet((1, 2), 4))
        assert projection_constant(spec, IndexSet((3, 4), 4)).constant >= 1


class TestCutLoop:
    """projection_constant solves m >= 2 by delayed sign-vector cuts and
    maps the master's answer back to the unchanged program."""

    def test_rounds_and_cuts(self, solved):
        # the first master holds +-sign(row i of P_S) for every row i;
        # each later round adds at least one cut
        for spec, result in solved:
            stats = result.stats
            assert result.rounds >= 1
            assert result.cuts >= 2 * spec.ambient + result.rounds - 1
            n, m = spec.ambient, spec.codim
            assert stats.rows == (n - m) * m + 1

    # (seed, N, m, rational): lambda, rounds, cuts, master pivots,
    # degenerate pivots and the end_bits of the integer block, as a
    # rational tableau pivoting by the same rules gives them
    PINNED = {
        (1, 8, 4, False): (F(71292739, 46730461), 13, 89, 138, 64, 101),
        (3, 10, 3, False): (
            F(7465659138011674267, 4296545603081496817), 12, 97, 106, 49, 115
        ),
        (9, 7, 4, True): (
            F(15044187730467996446680, 11951900177493942340463),
            12, 69, 92, 41, 178,
        ),
        (6, 8, 2, True): (
            F(1798989858396784667955056, 1389842703523678596817991),
            9, 57, 80, 45, 146,
        ),
        (5, 7, 3, True): (
            F(16266257241405291, 11260385972733563), 10, 60, 70, 26, 125
        ),
        (20, 5, 3, False): (F(32, 27), 7, 34, 27, 24, 25),
        (28, 4, 2, False): (F(9396, 7211), 6, 17, 12, 9, 23),
        # the cut loop of test_lp's lexicographic invariant test
        (2, 8, 4, False): (
            F(439003249689383, 299756505533938), 13, 91, 117, 48, 95
        ),
    }

    def test_pinned_master_pivots(self):
        for (seed, n, m, rational), pinned in self.PINNED.items():
            instance = random_instance(random.Random(seed), n, m, rational=rational)
            spec = instance.to_spec()
            result = projection_constant(spec)
            stats = result.stats
            assert (
                result.constant, result.rounds, result.cuts, stats.pivots,
                stats.degenerate_pivots, stats.end_bits,
            ) == pinned, (seed, n, m, rational)
            certificate = lp_certificate(spec, result)
            assert verify_certificate(minimal_projection_program(spec), certificate)
            assert proved_by_its_dual(spec, result)

    @staticmethod
    def rational_columns(ft, p_s, k_rows, convexity, new):
        """The costs and columns of the cuts new in Fractions, the
        reference for the loop's integer columns: cost 1 - sigma . P_S,i,
        K_ia (F^T sigma)_k on W row (a, k) and 1 on the last row."""
        m = ft.rows
        costs, columns = [], []
        for i, sign in new:
            ft_sign = [sum(map(mul, sign, ft.row(k)), F(0)) for k in range(m)]
            costs.append(1 - sum(map(mul, sign, p_s.row(i)), F(0)))
            column = [
                (a * m + k, ka * g)
                for a, ka in k_rows[i]
                for k, g in enumerate(ft_sign)
                if g
            ]
            column.append((convexity, F(1)))
            columns.append(column)
        return costs, columns

    def test_integer_columns_match_the_rational_front_end(self, monkeypatch):
        # every round's columns, as the loop hands them to the master,
        # are what the integer_columns adapter writes for the same cuts as
        # Fractions, and the cuts are those a rational separation finds:
        # the signs of the rows of P = P_S - K W F^T with |P_i|_1 > t, W
        # and t read from the Fraction duals of each solve
        handed, solutions = [], []
        insert, real_solve = Master.insert, projection.solve

        def signs(row):
            return tuple(-1 if v < 0 else 1 for v in row)

        def recorded_insert(self, columns):
            handed.append([(tuple(r), tuple(a), c, s) for r, a, c, s in columns])
            insert(self, columns)

        def recorded_solve(master):
            solutions.append(real_solve(master))
            return solutions[-1]

        monkeypatch.setattr(Master, "insert", recorded_insert)
        monkeypatch.setattr(projection, "solve", recorded_solve)
        rational = [
            random_instance(random.Random(seed), n, m, rational=True).to_spec()
            for seed, n, m in ((9, 7, 4), (6, 8, 2))
        ]
        specs = [*cut_specs(), *rational]
        rounds = 0
        for spec in specs:
            handed.clear()
            solutions.clear()
            index_set = best_upper_bound(spec).best_set
            _cut_loop(spec, index_set)
            n, m = spec.ambient, spec.codim
            ft = spec.annihilator.transpose()
            _, p_s = coordinate_projection(spec, index_set)
            off = [b for b in range(n) if b + 1 not in index_set]
            k_mat = Matrix([[p_s[i, b] for b in off] for i in range(n)])
            k_rows = [
                [(a, ka) for a, ka in enumerate(k_mat.row(i)) if ka] for i in range(n)
            ]
            convexity = len(off) * m
            reference = Master(["=="] * convexity + ["<="], [0] * convexity + [1])
            new = [
                (i, sign)
                for i in range(n)
                for sign in (signs(p_s.row(i)), tuple(-s for s in signs(p_s.row(i))))
            ]
            assert len(handed) == len(solutions) > 0
            for columns, solution in zip(handed, solutions):
                first = reference.nstruct
                reference.insert(
                    integer_columns(
                        *self.rational_columns(ft, p_s, k_rows, convexity, new)
                    )
                )
                assert columns == reference.columns[first : reference.nstruct]
                duals = solution.duals
                w = Matrix(
                    [[-duals[a * m + c] for c in range(m)] for a in range(len(off))]
                )
                t = 1 - duals[convexity]
                p = p_s - k_mat @ (w @ ft)
                new = [
                    (i, signs(p.row(i)))
                    for i, norm in enumerate(row_norms(p))
                    if norm > t
                ]
                rounds += 1
            assert not new
        assert rounds > 3 * len(specs)

    def test_isometric_certificate_is_rank_one(self, solved):
        # lambda = 1: nu = 0 and a single row-sum row carries the dual
        isometric = [(spec, r) for spec, r in solved if r.constant == 1]
        assert isometric
        for spec, result in isometric:
            lay = _Layout(spec.ambient, spec.codim)
            duals = lp_certificate(spec, result).duals
            assert not any(duals[: lay.upper_row(0, 0)])
            sums = duals[lay.sum_row(0) :]
            assert sorted(sums)[:2] == [-1, 0] and sum(sums) == -1

    def test_rank_one_dual_written_only_by_the_result(self, monkeypatch):
        # lambda = 1 on either route: the route hands _result no Z, and
        # _result writes the rank-one Z = e_k v^T / v_k, once per result;
        # a constant above 1 carries the route's own Z
        calls = []
        real = projection._result

        def recorded(spec, y, claimed, z, *rest):
            calls.append((z, real(spec, y, claimed, z, *rest)))
            return calls[-1][1]

        monkeypatch.setattr(projection, "_result", recorded)
        seen = set()
        for spec in (subspace_from_annihilator([1, 1, 2]), ANCHOR, *cut_specs()):
            calls.clear()
            result = projection_constant(spec)
            [(z, written)] = calls
            assert written is result
            certificate = lp_certificate(spec, result)
            assert verify_certificate(minimal_projection_program(spec), certificate)
            assert proved_by_its_dual(spec, result)
            isometric = result.constant == 1
            assert (z is None) == isometric
            if isometric:
                rows, den = result.dual
                rows = [row for row in rows if any(row)]
                assert len(rows) == 1 and max(map(abs, rows[0])) == den
                assert not any(certificate.duals[: spec.codim**2])  # nu = 0
            else:
                assert result.dual is z
            seen.add((result.method, isometric))
        assert seen == {
            ("hyperplane", True), ("hyperplane", False), ("cuts", True), ("cuts", False)
        }


class TestTraceDuality:
    """Every certificate's duals are one operator Z, and the check of Z
    by trace duality, which solves Z F = F M on its own, agrees with
    verify_certificate."""

    @staticmethod
    def specs():
        rng = random.Random(2024)
        out = [subspace_from_annihilator([1, 1, 2]), ANCHOR, PLANTED]
        for n, m in ((6, 1), (7, 1), (5, 2), (6, 3), (7, 2)):
            for rational in (False, True):
                out.append(random_instance(rng, n, m, rational=rational).to_spec())
        return out

    def test_agrees_with_verify_certificate(self):
        kinds = set()
        for spec in self.specs():
            result = projection_constant(spec)
            f = [list(spec.annihilator.row(i)) for i in range(spec.ambient)]
            cert = lp_certificate(spec, result)
            assert trace_duality_verdict(f, cert)
            program = minimal_projection_program(spec)
            assert verify_certificate(program, cert)
            # Z_00 + 1/7: the dual of P_00 <= T_00 moves down by 1/7
            m = spec.codim
            duals = list(cert.duals)
            duals[m * m] -= F(1, 7)
            bad = replace(cert, duals=tuple(duals))
            assert not trace_duality_verdict(f, bad)
            assert not verify_certificate(program, bad)
            kinds.add((result.method, result.constant == 1))
        assert kinds == {
            ("hyperplane", True), ("hyperplane", False), ("cuts", True), ("cuts", False)
        }

    def test_result_dual_checked_without_the_program(self):
        # trace_duality_holds reads result.dual as it is: it accepts every
        # answer, and rejects Z_00 raised by one unit of Z's denominator
        # and a Y moved off F^T Y = I
        kinds = set()
        for spec in self.specs():
            result = projection_constant(spec)
            assert proved_by_its_dual(spec, result)
            f = to_lists(spec.annihilator)
            y = to_lists(result.right_inverse)
            z = operator_fractions(result.dual)
            assert trace_duality_holds(f, y, result.constant, z)
            raised = [list(row) for row in z]
            raised[0][0] += F(1, result.dual[1])
            assert not trace_duality_holds(f, y, result.constant, raised)
            # y_k with f_k0 != 0 moves (F^T Y)_00 off 1
            k = next(i for i, row in enumerate(f) if row[0])
            moved = [list(row) for row in y]
            moved[k][0] += F(1, 7)
            assert not trace_duality_holds(f, moved, result.constant, z)
            kinds.add((result.method, result.constant == 1))
        assert kinds == {
            ("hyperplane", True), ("hyperplane", False), ("cuts", True), ("cuts", False)
        }

    def test_no_entry_priced_on_both_sides(self):
        # Z_ij goes on one row of its entry, P_ij <= T_ij or -P_ij <= T_ij,
        # by its sign
        specs = [
            random_instance(random.Random(seed), n, m).to_spec()
            for seed in (1, 2, 3)
            for n, m in ((8, 3), (6, 2), (7, 1))
        ]
        for spec in specs:
            n, m = spec.ambient, spec.codim
            lay = _Layout(n, m)
            duals = lp_certificate(spec, projection_constant(spec)).duals
            both = [
                (i, j)
                for i in range(n)
                for j in range(n)
                if duals[lay.upper_row(i, j)] and duals[lay.lower_row(i, j)]
            ]
            assert both == []


def seeded_specs():
    """The seeded shapes the checker is held to, integer and rational,
    seeds 1-7 (1-3 from N = 12)."""
    shapes = (
        (5, 2), (5, 3), (6, 1), (6, 2), (7, 1), (7, 3), (8, 3), (10, 4),
        (11, 1), (12, 3), (12, 4), (24, 1),
    )
    return [
        random_instance(random.Random(seed), n, m, rational=rational).to_spec()
        for n, m in shapes
        for rational in (False, True)
        for seed in range(1, 8 if n < 12 else 4)
    ]


def trace_duality_parts(spec, result) -> dict:
    """The tests of verify_trace_duality, each on its own, in Fractions,
    for a Z over a nonzero denominator."""
    n, f = spec.ambient, spec.annihilator
    y, p = result.right_inverse, result.projection
    z = Matrix(operator_fractions(result.dual))
    m = y.transpose() @ z @ f
    trace = sum(z[i, i] for i in range(n)) - sum(m[k, k] for k in range(m.rows))
    return {
        "F^T Y = I": f.transpose() @ y == Matrix.identity(spec.codim),
        "P = I - Y F^T": p == Matrix.identity(n) - y @ f.transpose(),
        "norm": op_norm_inf(p) == result.constant,
        "row maxima": sum(max(map(abs, z.row(i))) for i in range(n)) <= 1,
        "Z F = F M": z @ f == f @ m,
        "trace": trace == result.constant,
    }


def with_z(result, rows, den):
    return replace(result, dual=(rows, den))


def with_entry(matrix, i, j, delta):
    rows = to_lists(matrix)
    rows[i][j] += delta
    return Matrix(rows)


class TestVerifyTraceDuality:
    """verify_trace_duality proves a result's constant from its Y, P and
    Z alone, in integers: it accepts every answer the LP check accepts
    and rejects each broken part of one."""

    def test_agrees_with_the_lp_check_and_the_oracle(self):
        kinds = set()
        for spec in seeded_specs():
            result = projection_constant(spec)
            lp = verify_certificate(
                minimal_projection_program(spec), lp_certificate(spec, result)
            )
            oracle = trace_duality_holds(
                to_lists(spec.annihilator), to_lists(result.right_inverse),
                result.constant, operator_fractions(result.dual),
            )
            assert verify_trace_duality(spec, result) is lp is oracle is True
            rows, den = result.dual
            raised = [list(row) for row in rows]
            raised[0][0] += 1
            assert not verify_trace_duality(spec, with_z(result, raised, den))
            kinds.add((result.method, result.constant == 1))
        assert kinds == {
            ("hyperplane", True), ("hyperplane", False), ("cuts", True), ("cuts", False)
        }

    @staticmethod
    def broken(spec, result):
        """What was broken, mapped to the result with it broken."""
        n = spec.ambient
        f = spec.annihilator
        rows, den = result.dual
        rows = [list(row) for row in rows]
        raised = [list(row) for row in rows]
        raised[0][0] += 1
        # y_k with f_k0 != 0 moves (F^T Y)_00 off 1, and P follows Y
        k = next(i for i in range(n) if f[i, 0])
        moved = with_entry(result.right_inverse, k, 0, F(1, 7))
        off = replace(
            result,
            right_inverse=moved,
            projection=Matrix.identity(n) - moved @ f.transpose(),
        )
        unit = F(1, result.constant.denominator)
        # a nonzero row of Z doubled: its row maximum sum goes over 1
        i = next(i for i, row in enumerate(rows) if any(row))
        scaled = [[2 * v for v in row] if r == i else row for r, row in enumerate(rows)]
        # Z + c F F^T, c = 4 f_den^2
        f_rows, _ = f.integers()
        grown = [
            [z + 4 * den * sum(map(mul, a, b)) for z, b in zip(row, f_rows)]
            for row, a in zip(rows, f_rows)
        ]
        out = {
            "Z_00 + 1/z_den": with_z(result, raised, den),
            "Y off F^T Y = I": off,
            "lambda + 1/den": replace(result, constant=result.constant + unit),
            "lambda - 1/den": replace(result, constant=result.constant - unit),
            "P_00 changed": replace(
                result, projection=with_entry(result.projection, 0, 0, F(1, 7))
            ),
            "a row of Z doubled": with_z(result, scaled, den),
            "Z + c F F^T": with_z(result, grown, den),
            "z_den = 0, Z = 0": with_z(result, [[0] * n for _ in range(n)], 0),
            "z_den < 0": with_z(result, [[-v for v in row] for row in rows], -den),
            "Z one row short": with_z(result, rows[:-1], den),
        }
        # the coordinate projection of a set whose norm is above the
        # constant, with the constant and Z kept
        for index_set, _ in admissible_sets(spec):
            y_s, p_s = coordinate_projection(spec, index_set)
            if op_norm_inf(p_s) > result.constant:
                out["a projection of larger norm"] = replace(
                    result, right_inverse=y_s, projection=p_s
                )
                break
        # one cut as Z: e_i sigma^T for a row i of P at the constant and
        # sigma its signs, where Z F is outside the span of F
        p_rows, p_den = result.projection.integers()
        i = next(
            i for i, row in enumerate(p_rows)
            if sum(map(abs, row)) == result.constant * p_den
        )
        one_cut = [[0] * n for _ in range(n)]
        one_cut[i] = [-1 if v < 0 else 1 for v in p_rows[i]]
        one_cut = with_z(result, one_cut, 1)
        if not trace_duality_parts(spec, one_cut)["Z F = F M"]:
            out["one cut as Z"] = one_cut
        return out

    def test_rejects_each_broken_part(self):
        kinds, names = set(), set()
        for spec in TestTraceDuality.specs():
            result = projection_constant(spec)
            assert verify_trace_duality(spec, result)
            for name, bad in self.broken(spec, result).items():
                assert not verify_trace_duality(spec, bad), name
                names.add(name)
            kinds.add((result.method, result.constant == 1))
        assert kinds == {
            ("hyperplane", True), ("hyperplane", False), ("cuts", True), ("cuts", False)
        }
        assert {"a projection of larger norm", "one cut as Z"} <= names

    def test_some_cases_break_one_test_alone(self):
        # Z + c F F^T breaks only the row maxima, a projection of larger
        # norm only the norm, and one cut as Z only Z F = F M, so each of
        # those three tests is needed
        alone = {
            "Z + c F F^T": "row maxima",
            "a projection of larger norm": "norm",
            "one cut as Z": "Z F = F M",
        }
        seen = set()
        for spec in TestTraceDuality.specs():
            result = projection_constant(spec)
            assert all(trace_duality_parts(spec, result).values())
            for name, bad in self.broken(spec, result).items():
                if name in alone:
                    parts = trace_duality_parts(spec, bad)
                    assert [k for k, ok in parts.items() if not ok] == [alone[name]]
                    seen.add(name)
        assert seen == set(alone)


class TestCertificatePoint:
    """projection_constant writes the certificate's point from its result:
    the Y block is right_inverse, the T block is |projection| entrywise
    and t is constant, on both routes."""

    @staticmethod
    def assert_point(spec, result):
        n, m = spec.ambient, spec.codim
        lay = _Layout(n, m)
        certificate = lp_certificate(spec, result)
        x = certificate.x
        assert len(x) == lay.nvars
        for i in range(n):
            y_row = [x[lay.y(i, k)] for k in range(m)]
            assert y_row == list(result.right_inverse.row(i))
            t_row = [x[lay.t(i, j)] for j in range(n)]
            assert t_row == [abs(v) for v in result.projection.row(i)]
        assert x[lay.scalar] == result.constant == certificate.objective_value

    def test_hyperplane_closed_forms(self):
        branches = set()
        for f in hyperplane_functionals():
            spec = subspace_from_annihilator(f)
            result = projection_constant(spec)
            self.assert_point(spec, result)
            branches.add(result.constant == 1)
        assert branches == {True, False}  # some g_p >= 1/2, and none

    def test_cut_loop(self, solved):
        for spec, result in solved:
            self.assert_point(spec, result)


class TestCoordinateProjection:
    """P_S = I - Y_S F^T is the feasible projection behind each per-set
    bound and the start of the cut loop."""

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
