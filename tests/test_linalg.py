import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linfiso.errors import (
    BoundsError,
    DimensionError,
    SingularMatrixError,
)
from linfiso.linalg import (
    IndexSet,
    Matrix,
    as_rational,
    cauchy_binet_check,
    det,
    format_rational,
    inverse,
    nullspace_columns,
    op_norm_inf,
    rank,
    rref,
    vec_norm1,
    vec_norm_inf,
)
from oracles import laplace_det

rationals = st.builds(F, st.integers(-9, 9), st.integers(1, 9))


def rand_matrix(rng, rows, cols, bound=9):
    return Matrix(
        [
            [F(rng.randint(-bound, bound), rng.randint(1, 4)) for _ in range(cols)]
            for _ in range(rows)
        ]
    )


class TestScalars:
    def test_parse_integer_ratio_decimal(self):
        assert as_rational("7") == F(7)
        assert as_rational("-3/4") == F(-3, 4)
        assert as_rational("0.25") == F(1, 4)
        assert as_rational(5) == F(5)

    def test_decimal_parse_is_exact(self):
        assert as_rational("0.1") == F(1, 10)

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            as_rational(0.5)
        with pytest.raises(TypeError):
            Matrix([[0.5]])

    def test_bad_token(self):
        with pytest.raises(ValueError):
            as_rational("x")
        with pytest.raises(ValueError):
            as_rational("1/0")

    @pytest.mark.parametrize(
        "token",
        ["1e3", "1E3", "1_000", "1.5e-2", "1e300000", ".5", "3.", " 7", "1/2/3",
         "0.5/2", "+", "", "\u0661"],
    )
    def test_only_documented_grammar(self, token):
        with pytest.raises(ValueError):
            as_rational(token)

    def test_rejected_token_echo_is_short(self):
        for token in ("1" * 5000, "x" * 5000, "1e" + "9" * 6000):
            with pytest.raises(ValueError) as exc:
                as_rational(token)
            message = str(exc.value)
            assert len(message) < 200
            assert f"({len(token)} characters)" in message
        with pytest.raises(ValueError, match=r"^not rational: 'x'$"):
            as_rational("x")

    @pytest.mark.parametrize(
        "token",
        ["1" * 4301, "-" + "7" * 5000, "1/" + "3" * 4301, "0." + "5" * 4400],
        ids=["integer", "negative", "denominator", "decimal"],
    )
    def test_wider_than_str_limit_has_its_own_message(self, token):
        with pytest.raises(ValueError) as exc:
            as_rational(token)
        message = str(exc.value)
        assert "not rational" not in message
        assert "digit number is wider than the interpreter's limit" in message
        assert len(message) < 200

    def test_str_limit_itself_parses(self):
        assert as_rational("9" * 4300) == F(10**4300 - 1)

    def test_signed_tokens(self):
        assert as_rational("+3/6") == F(1, 2)
        assert as_rational("-0.5") == F(-1, 2)

    def test_format_round_trip(self):
        for q in (F(0), F(5), F(-5), F(2, 3), F(-7, 11)):
            assert as_rational(format_rational(q)) == q

    def test_format_wider_than_str_limit(self):
        # str() of an int over 4300 digits raises by default; the digits
        # are built chunk by chunk so the test never calls it on one
        def value(digits):
            n = 0
            for i in range(0, len(digits), 500):
                chunk = digits[i : i + 500]
                n = n * 10 ** len(chunk) + int(chunk)
            return n

        rng = random.Random(4300)
        cases = ["1" + "0" * 9000 + "7", "9" * 4301, "5" + "0" * 602]
        for width in (603, 604, 4300, 4301, 12000):
            body = [rng.choice("0123456789") for _ in range(width - 2)]
            # zero runs make the split's padding matter
            start = rng.randrange(width // 3)
            body[start : start + width // 4] = "0" * (width // 4)
            cases.append(rng.choice("123456789") + "".join(body) + "3")
        for digits in cases:
            n = value(digits)
            assert format_rational(F(n)) == digits
            assert format_rational(F(-n)) == "-" + digits
            if digits[-1] == "3":
                den = 10**5000
                assert format_rational(F(n, den)) == f"{digits}/1{'0' * 5000}"


class TestIndexSet:
    def test_membership_and_position(self):
        s = IndexSet((1, 3), 4)
        assert 3 in s and 2 not in s
        assert s.position(3) == 1

    def test_validation(self):
        with pytest.raises(BoundsError):
            IndexSet((2, 2), 4)
        with pytest.raises(BoundsError):
            IndexSet((0,), 4)
        with pytest.raises(BoundsError):
            IndexSet((5,), 4)

    def test_lexicographic_enumeration(self):
        got = [s.members for s in IndexSet.all_of_size(4, 2)]
        assert got == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]


class TestMatrix:
    def test_shape_validation(self):
        with pytest.raises(DimensionError):
            Matrix([])
        with pytest.raises(DimensionError):
            Matrix([[1, 2], [3]])

    def test_immutably_frozen(self):
        m = Matrix([[1]])
        with pytest.raises(AttributeError):
            m.rows = 2

    def test_matmul_and_identity(self):
        a = Matrix([[1, 2], [3, 4]])
        assert Matrix.identity(2) @ a == a
        assert a @ Matrix.identity(2) == a
        b = Matrix([[0, 1], [1, 0]])
        assert (a @ b) == Matrix([[2, 1], [4, 3]])

    def test_take_rows_uses_one_based_members(self):
        m = Matrix([[1, 0], [0, 1], [1, 1]])
        sub = m.take_rows(IndexSet((1, 3), 3))
        assert sub == Matrix([[1, 0], [1, 1]])

    def test_take_rows_checks_ambient(self):
        m = Matrix([[1], [2]])
        with pytest.raises(DimensionError):
            m.take_rows(IndexSet((1,), 3))

    def test_replace_row(self):
        m = Matrix.identity(2)
        # spec example: replacing the second row by (1, 1) keeps det 1
        assert det(m.replace_row(1, [1, 1])) == 1

    def test_out_of_range(self):
        m = Matrix([[1, 2]])
        with pytest.raises(BoundsError):
            m[0, 5]
        with pytest.raises(BoundsError):
            m.row(3)


class TestDet:
    def test_triangular(self):
        m = Matrix([[2, 5, 1], [0, 3, 7], [0, 0, F(1, 2)]])
        assert det(m) == 3

    def test_singular(self):
        assert det(Matrix([[1, 2], [2, 4]])) == 0

    def test_matches_laplace_oracle(self):
        rng = random.Random(20211)
        for size in (1, 2, 3, 4, 5):
            for _ in range(25):
                m = rand_matrix(rng, size, size)
                assert det(m) == laplace_det(m.to_lists())

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.lists(rationals, min_size=3, max_size=3), min_size=3, max_size=3
        ),
        st.lists(
            st.lists(rationals, min_size=3, max_size=3), min_size=3, max_size=3
        ),
    )
    def test_multiplicative(self, a_rows, b_rows):
        a, b = Matrix(a_rows), Matrix(b_rows)
        assert det(a @ b) == det(a) * det(b)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            det(Matrix([[1, 2]]))


class TestInverse:
    def test_round_trip(self):
        rng = random.Random(4411)
        done = 0
        while done < 20:
            m = rand_matrix(rng, 4, 4)
            if det(m) == 0:
                continue
            assert m @ inverse(m) == Matrix.identity(4)
            assert inverse(m) @ m == Matrix.identity(4)
            done += 1

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            inverse(Matrix([[1, 1], [1, 1]]))


class TestRrefNullspace:
    def test_rank(self):
        assert rank(Matrix([[1, 2], [2, 4], [0, 1]])) == 2
        assert rank(Matrix([[1, 2], [2, 4]])) == 1

    def test_rref_pivots(self):
        reduced, pivots = rref(Matrix([[0, 2], [3, 1]]))
        assert pivots == (0, 1)
        assert reduced == Matrix.identity(2)

    def test_nullspace_annihilates(self):
        rng = random.Random(909)
        for _ in range(20):
            m = rand_matrix(rng, 2, 4, bound=5)
            for vec in nullspace_columns(m):
                out = m @ Matrix.column_vector(vec)
                assert all(out[i, 0] == 0 for i in range(m.rows))

    def test_nullspace_of_coordinate_columns(self):
        # spanning columns e_1..e_n leave the last coordinates free
        m = Matrix([[1, 0, 0], [0, 1, 0]])  # transpose of [e1 e2] in Q^3
        basis = nullspace_columns(m)
        assert basis == [(F(0), F(0), F(1))]


class TestNorms:
    def test_vector_norms(self):
        v = [F(1), F(-2), F(1, 2)]
        assert vec_norm1(v) == F(7, 2)
        assert vec_norm_inf(v) == 2

    def test_operator_norm_is_max_row_sum(self):
        m = Matrix([[F(1, 2), F(-1, 2)], [F(-1, 2), F(1, 2)]])
        assert op_norm_inf(m) == 1

    def test_suboptimal_projection_row_sum(self):
        # P = I - y f^T with f = (1,1,1), y = e_1 has norm 2
        p = Matrix([[0, -1, -1], [0, 1, 0], [0, 0, 1]])
        assert op_norm_inf(p) == 2

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.lists(rationals, min_size=2, max_size=2), min_size=2, max_size=2
        ),
        st.lists(
            st.lists(rationals, min_size=2, max_size=2), min_size=2, max_size=2
        ),
    )
    def test_submultiplicative(self, a_rows, b_rows):
        a, b = Matrix(a_rows), Matrix(b_rows)
        assert op_norm_inf(a @ b) <= op_norm_inf(a) * op_norm_inf(b)


class TestCauchyBinet:
    def test_single_column_pair(self):
        a = Matrix([[1], [1]])
        lhs, rhs = cauchy_binet_check(a, a)
        assert lhs == rhs == 2

    def test_random_agreement(self):
        rng = random.Random(5150)
        for n, m in ((3, 1), (4, 2), (5, 2), (5, 3)):
            a = rand_matrix(rng, n, m, bound=4)
            b = rand_matrix(rng, n, m, bound=4)
            lhs, rhs = cauchy_binet_check(a, b)
            assert lhs == rhs

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.lists(rationals, min_size=2, max_size=2), min_size=4, max_size=4
        ),
        st.lists(
            st.lists(rationals, min_size=2, max_size=2), min_size=4, max_size=4
        ),
    )
    def test_property(self, a_rows, b_rows):
        lhs, rhs = cauchy_binet_check(Matrix(a_rows), Matrix(b_rows))
        assert lhs == rhs

    def test_shape_guards(self):
        with pytest.raises(DimensionError):
            cauchy_binet_check(Matrix([[1]]), Matrix([[1], [2]]))
        with pytest.raises(DimensionError):
            cauchy_binet_check(Matrix([[1, 2]]), Matrix([[1, 2]]))
