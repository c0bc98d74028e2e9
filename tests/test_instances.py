import random
from fractions import Fraction as F

import pytest

from linfiso.errors import InstanceFormatError
from linfiso.instances import (
    KIND_ANNIHILATOR,
    KIND_SPANNING,
    format_instance,
    load_instance,
    parse_instance,
    random_instance,
)
from linfiso.linalg import Matrix, rank

GOOD = "3 2 annihilator\n1 0\n0 1\n1 1\n"


class TestParse:
    def test_basic(self):
        inst = parse_instance(GOOD)
        assert inst.ambient == 3
        assert inst.codim == 2
        assert inst.kind == KIND_ANNIHILATOR
        assert inst.matrix == Matrix([[1, 0], [0, 1], [1, 1]])

    def test_tokens_parse_exactly(self):
        inst = parse_instance("3 1 annihilator\n0.5\n-2/3\n4\n")
        assert inst.matrix.column(0) == (F(1, 2), F(-2, 3), F(4))

    def test_blank_lines_ignored(self):
        inst = parse_instance("\n\n3 2 annihilator\n\n1 0\n0 1\n\n1 1\n\n")
        assert inst.matrix == Matrix([[1, 0], [0, 1], [1, 1]])

    def test_spanning_width(self):
        inst = parse_instance("4 2 spanning\n1 0\n0 1\n1 1\n2 0\n")
        assert inst.kind == KIND_SPANNING
        assert inst.matrix.rows == 4 and inst.matrix.cols == 2
        spec = inst.to_spec()
        assert spec.ambient == 4
        assert spec.codim == 2

    def test_annihilator_round_trip_through_spec(self):
        spec = parse_instance(GOOD).to_spec()
        assert spec.annihilator == Matrix([[1, 0], [0, 1], [1, 1]])


class TestParseErrors:
    def check(self, text, lineno, needle):
        with pytest.raises(InstanceFormatError) as exc:
            parse_instance(text)
        assert exc.value.line == lineno
        assert needle in str(exc.value)
        assert f"line {lineno}:" in str(exc.value)

    def test_empty(self):
        with pytest.raises(InstanceFormatError):
            parse_instance("   \n  \n")

    def test_header_arity(self):
        self.check("3 2\n", 1, "header")

    def test_header_integers(self):
        self.check("three 2 annihilator\n", 1, "integers")

    @pytest.mark.parametrize(
        "header", ["0_3 1", "3 +1", "\u0663 1", "3 1\u0660", "-3 1", "3 \uff11"]
    )
    def test_header_ascii_digits_only(self, header):
        # int() takes all of these as N = 3 or m = 1
        self.check(f"{header} annihilator\n1\n1\n2\n", 1, "ASCII digits")

    def test_header_wider_than_the_int_limit(self):
        # int() refuses the token, which is still an integer
        self.check(
            "1" * 5000 + " 1 annihilator\n1\n1\n", 1,
            "wider than the interpreter's limit",
        )

    def test_header_kind(self):
        self.check("3 2 rows\n", 1, "kind")

    def test_header_range(self):
        self.check("3 3 annihilator\n1\n1\n1\n", 1, "1 <= m < N")
        self.check("3 0 annihilator\n1\n1\n1\n", 1, "1 <= m < N")

    def test_row_count(self):
        self.check("3 2 annihilator\n1 0\n0 1\n", 1, "3 data lines")

    def test_token_count(self):
        self.check("3 2 annihilator\n1 0\n0 1 7\n1 1\n", 3, "2 tokens")

    def test_bad_token(self):
        self.check("3 2 annihilator\n1 0\n0 x\n1 1\n", 3, "not rational")

    def test_line_numbers_skip_blanks(self):
        self.check("\n3 2 annihilator\n1 0\n\n0 y\n1 1\n", 5, "not rational")


class TestFormat:
    def test_round_trip(self):
        inst = parse_instance(GOOD)
        assert parse_instance(format_instance(inst)) == inst

    def test_canonical_tokens(self):
        inst = parse_instance("2 1 annihilator\n0.5\n-6/8\n")
        text = format_instance(inst)
        assert text == "2 1 annihilator\n1/2\n-3/4\n"

    def test_random_round_trip(self):
        rng = random.Random(12)
        for _ in range(20):
            ambient = rng.randint(2, 6)
            codim = rng.randint(1, ambient - 1)
            kind = rng.choice([KIND_ANNIHILATOR, KIND_SPANNING])
            inst = random_instance(
                rng, ambient, codim, kind=kind, rational=rng.random() < 0.5
            )
            assert parse_instance(format_instance(inst)) == inst


class TestLoad:
    def test_from_file(self, tmp_path):
        path = tmp_path / "inst.txt"
        path.write_text(GOOD, encoding="utf-8")
        assert load_instance(str(path)) == parse_instance(GOOD)


class TestRandom:
    def test_deterministic_under_seed(self):
        a = random_instance(random.Random(5), 5, 2)
        b = random_instance(random.Random(5), 5, 2)
        assert a == b

    def test_full_rank(self):
        rng = random.Random(6)
        for _ in range(30):
            inst = random_instance(rng, 4, 2)
            assert rank(inst.matrix) == 2
            inst.to_spec()

    def test_entry_bound_respected(self):
        rng = random.Random(7)
        inst = random_instance(rng, 6, 3, entry_bound=2)
        for i in range(6):
            for x in inst.matrix.row(i):
                assert abs(x) <= 2

    def test_rational_entries(self):
        rng = random.Random(8)
        inst = random_instance(rng, 6, 2, entry_bound=4, rational=True)
        denominators = {
            x.denominator for i in range(6) for x in inst.matrix.row(i)
        }
        assert denominators - {1}  # at least one genuine fraction
        assert all(d <= 4 for d in denominators)

    def test_validation(self):
        rng = random.Random(9)
        with pytest.raises(ValueError):
            random_instance(rng, 3, 3)
        with pytest.raises(ValueError):
            random_instance(rng, 3, 1, entry_bound=0)
        with pytest.raises(ValueError):
            random_instance(rng, 3, 1, kind="columns")

    def test_spanning_kind_dimensions(self):
        rng = random.Random(10)
        inst = random_instance(rng, 5, 2, kind=KIND_SPANNING)
        assert inst.matrix.cols == 3
        spec = inst.to_spec()
        assert spec.codim == 2
        assert spec.ambient == 5
