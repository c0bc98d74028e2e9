import itertools
import random
from fractions import Fraction as F
from math import gcd

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
    common_denominator,
    op_norm_inf,
    rank,
    row_norms,
    rref,
    vec_norm1,
)
from oracles import laplace_det, reduced_row_echelon, solve_square, to_lists

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

    def test_integer_tokens(self):
        # a plain integer takes int() rather than Fraction's own parser
        for token, value in [("+7", 7), ("-0", 0), ("007", 7), ("-007", -7)]:
            got = as_rational(token)
            assert got == F(token) == value
            assert type(got) is F and got.denominator == 1

    @pytest.mark.parametrize(
        "token, message",
        [
            ("1" * 4301, "a 4301-digit number is wider than the interpreter's "
             "limit of 4300 digits: '111111111111111111111111'... (4301 characters)"),
            ("+" + "0" * 4301, "a 4301-digit number is wider than the interpreter's "
             "limit of 4300 digits: '+00000000000000000000000'... (4302 characters)"),
            ("x", "not rational: 'x'"),
            ("1/0", "zero denominator: '1/0'"),
            ("--7", "not rational: '--7'"),
            ("7 ", "not rational: '7 '"),
            ("1_000", "not rational: '1_000'"),
        ],
        ids=["wide", "wide-zeros", "word", "zero-denominator", "two-signs",
             "space", "underscore"],
    )
    def test_error_messages_are_exact(self, token, message):
        with pytest.raises(ValueError) as exc:
            as_rational(token)
        assert str(exc.value) == message

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

    def test_validation(self):
        with pytest.raises(BoundsError):
            IndexSet((2, 2), 4)
        with pytest.raises(BoundsError):
            IndexSet((0,), 4)
        with pytest.raises(BoundsError):
            IndexSet((5,), 4)
        with pytest.raises(DimensionError):
            IndexSet((), 0)

    def test_unchecked_constructor_equals_the_validated_one(self):
        # IndexSet._of skips __post_init__ for members drawn from
        # itertools.combinations; the sets compare, hash and print as
        # the validated ones
        for ambient in range(1, 7):
            for size in range(ambient + 1):
                for combo in itertools.combinations(range(1, ambient + 1), size):
                    made, checked = IndexSet._of(combo, ambient), IndexSet(combo, ambient)
                    assert made == checked and hash(made) == hash(checked)
                    assert (made.members, made.ambient, str(made)) == (
                        checked.members, checked.ambient, str(checked)
                    )


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
                assert det(m) == laplace_det(to_lists(m))

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


def coprime_grid(rng, rows, cols, zero_rows=0.0):
    """Rational entries over coprime denominators; each row is all zero
    with probability zero_rows."""
    return [
        [F(0)] * cols if rng.random() < zero_rows else
        [F(rng.randint(-6, 6), rng.choice((1, 2, 3, 5, 7, 11))) for _ in range(cols)]
        for _ in range(rows)
    ]


def plain_product(a, b):
    return [
        [sum((x * y for x, y in zip(row, col)), F(0)) for col in zip(*b)] for row in a
    ]


class TestIntegerPaths:
    """Matrix arithmetic on integer rows over one denominator agrees
    with plain Fraction arithmetic, and every internally built result is
    the matrix the public constructor builds from the same entries."""

    SHAPES = ((1, 1), (1, 4), (4, 1), (2, 3), (3, 2), (3, 3), (4, 4), (5, 5))

    def same(self, got: Matrix, grid):
        expected = Matrix(grid)
        assert got == expected
        assert hash(got) == hash(expected)
        assert repr(got) == repr(expected)
        assert to_lists(got) == grid
        # lowest terms: a positive denominator sharing no prime with
        # every numerator, so the form, == and hash are unique
        assert got._den > 0
        assert gcd(got._den, *(x for row in got._rows for x in row)) == 1

    def test_arithmetic(self):
        rng = random.Random(1968)
        for rows, cols in self.SHAPES:
            for _ in range(8):
                a = coprime_grid(rng, rows, cols, zero_rows=0.2)
                b = coprime_grid(rng, rows, cols, zero_rows=0.2)
                c = coprime_grid(rng, cols, rng.randint(1, 4), zero_rows=0.2)
                ma, mb, mc = Matrix(a), Matrix(b), Matrix(c)
                self.same(ma @ mc, plain_product(a, c))
                pairs = [list(zip(r, s)) for r, s in zip(a, b)]
                self.same(ma + mb, [[x + y for x, y in row] for row in pairs])
                self.same(ma - mb, [[x - y for x, y in row] for row in pairs])
                self.same(-ma, [[-x for x in r] for r in a])
                self.same(ma - ma, [[F(0)] * cols for _ in range(rows)])
                self.same(ma.transpose(), [list(col) for col in zip(*a)])
                sums = [sum((abs(x) for x in r), F(0)) for r in a]
                assert row_norms(ma) == sums
                assert op_norm_inf(ma) == max(sums)

    def test_eliminations(self):
        rng = random.Random(1967)
        singular = 0
        for rows, cols in self.SHAPES:
            for _ in range(8):
                a = coprime_grid(rng, rows, cols, zero_rows=0.15)
                if rows > 1 and rng.random() < 0.3:
                    a[-1] = [2 * x - y for x, y in zip(a[0], a[1 % rows])]
                m = Matrix(a)
                reduced, pivots = reduced_row_echelon(a)
                got, got_pivots = rref(m)
                assert got_pivots == tuple(pivots)
                self.same(got, reduced)
                assert rank(m) == len(pivots)
                kernel = nullspace_columns(m)
                assert len(kernel) == cols - len(pivots)
                for vec in kernel:
                    assert all(sum(x * v for x, v in zip(r, vec)) == 0 for r in a)
                if rows != cols:
                    continue
                assert det(m) == laplace_det(a)
                if det(m) == 0:
                    singular += 1
                    with pytest.raises(SingularMatrixError):
                        inverse(m)
                    continue
                unit = [[F(int(i == j)) for j in range(rows)] for i in range(rows)]
                columns = [solve_square(a, e) for e in unit]
                self.same(inverse(m), [list(r) for r in zip(*columns)])
        assert singular >= 5

    def test_take_and_replace_rows(self):
        rng = random.Random(1966)
        a = coprime_grid(rng, 5, 3)
        m = Matrix(a)
        self.same(m.take_rows(IndexSet((2, 4), 5)), [a[1], a[3]])
        self.same(Matrix.identity(3) @ Matrix.zeros(3, 2), [[F(0)] * 2] * 3)

    def test_integers(self):
        # the rows and denominator the matrix holds: lowest terms, so
        # they equal common_denominator over all the entries
        rng = random.Random(1969)
        for rows, cols in self.SHAPES:
            grid = coprime_grid(rng, rows, cols, zero_rows=0.2)
            ints, den = Matrix(grid).integers()
            flat, common = common_denominator([x for row in grid for x in row])
            assert den == common
            assert [x for row in ints for x in row] == flat
            assert [[F(x, den) for x in row] for row in ints] == grid
        assert Matrix([[F(2, 4), 1]]).integers() == (((1, 2),), 2)

    def test_common_denominator(self):
        ints, den = common_denominator([F(1, 6), F(-3, 4), F(2)])
        assert (ints, den) == ([2, -9, 24], 12)
        assert common_denominator([]) == ([], 1)

    def test_floats_still_refused(self):
        with pytest.raises(TypeError):
            Matrix([[0.5]])
        with pytest.raises(TypeError):
            Matrix.column_vector([1, 0.5])
