"""The exact kernels, checked against plain Fraction arithmetic and the
cofactor-expansion oracle."""

import random
from fractions import Fraction as F
from math import lcm

import pytest

from linfiso import _kernels
from oracles import laplace_det


def flat_pairs(rng, count, bound=9):
    nums, dens = [], []
    for _ in range(count):
        q = F(rng.randint(-bound, bound), rng.randint(1, 6))
        nums.append(q.numerator)
        dens.append(q.denominator)
    return nums, dens


def to_grid(nums, dens, ncols):
    return [
        [F(nums[i + j], dens[i + j]) for j in range(ncols)]
        for i in range(0, len(nums), ncols)
    ]


def int_rows(grid):
    """A grid of Fractions as integer rows over one positive denominator."""
    den = lcm(*(x.denominator for row in grid for x in row))
    return [[x.numerator * (den // x.denominator) for x in row] for row in grid], den


class TestDetBareiss:
    def test_identity(self):
        assert _kernels.det_bareiss([[1, 0], [0, 1]]) == 1

    def test_fractional_entries(self):
        # [[1/2, 1/3], [1/4, 1/5]] is [[30, 20], [15, 12]] over 60, with
        # the integer determinant 60 = 60**2 * (1/10 - 1/12)
        rows, den = int_rows([[F(1, 2), F(1, 3)], [F(1, 4), F(1, 5)]])
        assert (rows, den) == ([[30, 20], [15, 12]], 60)
        assert _kernels.det_bareiss(rows) == 60

    def test_row_swap_sign(self):
        assert _kernels.det_bareiss([[0, 1], [1, 0]]) == -1

    def test_singular(self):
        assert _kernels.det_bareiss([[1, 2], [2, 4]]) == 0

    def test_matches_laplace(self):
        rng = random.Random(1234)
        for _ in range(40):
            size = rng.randint(1, 5)
            nums, dens = flat_pairs(rng, size * size)
            rows, _ = int_rows(to_grid(nums, dens, size))
            got = _kernels.det_bareiss(rows)
            assert type(got) is int
            assert got == laplace_det(rows)

    def test_inputs_not_mutated(self):
        rows = [[1, 2], [3, 4]]
        _kernels.det_bareiss(rows)
        assert rows == [[1, 2], [3, 4]]


def gauss_jordan_pivot(grid, prow, pcol):
    """One pivot in plain Fraction arithmetic, returning a new grid."""
    piv_row = [v / grid[prow][pcol] for v in grid[prow]]
    return [
        piv_row if i == prow else [a - row[pcol] * b for a, b in zip(row, piv_row)]
        for i, row in enumerate(grid)
    ]


def int_grid(rng, nrows, ncols, bound=9):
    return [[rng.randint(-bound, bound) for _ in range(ncols)] for _ in range(nrows)]


def over(rows, det):
    return [[F(x, det) for x in row] for row in rows]


class TestPivot:
    """pivot on integer rows over one denominator, the form of lp.Master's
    block: rows / det after each pivot is the Fraction tableau."""

    def test_pivot_column_becomes_unit(self):
        rng = random.Random(7)
        rows = int_grid(rng, 3, 4)
        while rows[0][0] == 0:
            rows = int_grid(rng, 3, 4)
        head = rows[0][0]
        det = _kernels.pivot(rows, 1, 0, 0)
        # the pivot entry is the new denominator, so over it the pivot
        # column is the unit column of the pivot row
        assert det == head
        assert [row[0] for row in rows] == [det, 0, 0]

    def test_matches_fraction_arithmetic(self):
        rng = random.Random(99)
        done = 0
        for _ in range(20):
            rows = int_grid(rng, 3, 4)
            det = 1
            for prow, pcol in ((0, 0), (1, 1)):
                if rows[prow][pcol] == 0:
                    continue
                grid = over(rows, det)
                det = _kernels.pivot(rows, det, prow, pcol)
                piv = grid[prow][pcol]
                ref_row = [v / piv for v in grid[prow]]
                for i in range(3):
                    factor = grid[i][pcol]
                    for j in range(4):
                        expect = grid[i][j] - factor * ref_row[j]
                        if i == prow:
                            expect = ref_row[j]
                        assert F(rows[i][j], det) == expect
                done += 1
        assert done >= 30

    def test_pivot_chain_matches_gauss_jordan(self):
        rng = random.Random(4242)
        rows = int_grid(rng, 4, 6)
        grid = over(rows, 1)
        det = 1
        pivots_done = 0
        for prow, pcol in [(0, 0), (1, 1), (2, 2), (3, 3), (0, 4), (1, 5)]:
            if grid[prow][pcol] == 0:
                continue
            det = _kernels.pivot(rows, det, prow, pcol)
            grid = gauss_jordan_pivot(grid, prow, pcol)
            assert over(rows, det) == grid
            pivots_done += 1
        assert pivots_done >= 4


class TestExchange:
    def test_chain_matches_gauss_jordan_and_tracks_the_determinant(self):
        # Integer rows over a common denominator, started as [I | A] with
        # denominator 1: after each exchange rows / det is the Fraction
        # Gauss-Jordan tableau and det the determinant of the basis.
        rng = random.Random(5150)
        for _ in range(20):
            size, extra = rng.randint(1, 4), rng.randint(1, 4)
            rows = [
                [int(i == j) for j in range(size)]
                + [rng.randint(-6, 6) for _ in range(extra)]
                for i in range(size)
            ]
            start = [list(row) for row in rows]
            grid = [[F(x) for x in row] for row in rows]
            basis = list(range(size))
            det = 1
            for _ in range(6):
                prow = rng.randrange(size)
                pcol = rng.randrange(size + extra)
                if rows[prow][pcol] == 0:
                    continue
                det = _kernels.exchange(rows, det, prow, pcol)
                grid = gauss_jordan_pivot(grid, prow, pcol)
                basis[prow] = pcol
                assert [[F(x, det) for x in row] for row in rows] == grid
                block = [[start[i][q] for q in basis] for i in range(size)]
                assert det == laplace_det(block)

    def test_pivot_on_integer_rows_is_the_exchange(self):
        # pivot takes integer rows over one int denominator (lp's revised
        # master) to exchange, and returns the new denominator
        rng = random.Random(1968)
        for _ in range(20):
            rows = [[rng.randint(-6, 6) for _ in range(5)] for _ in range(3)]
            twin = [list(row) for row in rows]
            det = twin_det = 1
            for _ in range(4):
                prow, pcol = rng.randrange(3), rng.randrange(5)
                if rows[prow][pcol] == 0:
                    continue
                det = _kernels.pivot(rows, det, prow, pcol)
                twin_det = _kernels.exchange(twin, twin_det, prow, pcol)
                assert (rows, det) == (twin, twin_det)

    def test_zero_pivot_is_refused(self):
        rows = [[1, 0, 2], [0, 1, 3]]
        with pytest.raises(ZeroDivisionError):
            _kernels.exchange(rows, 1, 0, 1)
        assert rows == [[1, 0, 2], [0, 1, 3]]
