"""The exact kernels, checked against plain Fraction arithmetic and the
cofactor-expansion oracle."""

import random
from fractions import Fraction as F
from math import gcd

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


class TestNormalize:
    def test_sign_and_reduction(self):
        assert _kernels.normalize(2, -4) == (-1, 2)
        assert _kernels.normalize(-6, -3) == (2, 1)
        assert _kernels.normalize(0, 7) == (0, 1)

    def test_matches_fraction(self):
        rng = random.Random(31)
        for _ in range(200):
            n = rng.randint(-50, 50)
            d = rng.choice([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5])
            q = F(n, d)
            assert _kernels.normalize(n, d) == (q.numerator, q.denominator)


class TestDetBareiss:
    def test_identity(self):
        nums = [1, 0, 0, 1]
        dens = [1, 1, 1, 1]
        assert _kernels.det_bareiss(2, nums, dens) == (1, 1)

    def test_fractional_entries(self):
        # det [[1/2, 1/3], [1/4, 1/5]] = 1/10 - 1/12 = 1/60
        nums = [1, 1, 1, 1]
        dens = [2, 3, 4, 5]
        assert _kernels.det_bareiss(2, nums, dens) == (1, 60)

    def test_row_swap_sign(self):
        nums = [0, 1, 1, 0]
        dens = [1, 1, 1, 1]
        assert _kernels.det_bareiss(2, nums, dens) == (-1, 1)

    def test_singular(self):
        nums = [1, 2, 2, 4]
        dens = [1, 1, 1, 1]
        assert _kernels.det_bareiss(2, nums, dens) == (0, 1)

    def test_result_is_normalized(self):
        rng = random.Random(88)
        for _ in range(60):
            size = rng.randint(1, 4)
            nums, dens = flat_pairs(rng, size * size)
            n, d = _kernels.det_bareiss(size, nums, dens)
            assert d > 0
            assert gcd(n, d) == 1

    def test_matches_laplace(self):
        rng = random.Random(1234)
        for _ in range(40):
            size = rng.randint(1, 5)
            nums, dens = flat_pairs(rng, size * size)
            expected = laplace_det(to_grid(nums, dens, size))
            got = _kernels.det_bareiss(size, nums, dens)
            assert got == (expected.numerator, expected.denominator)

    def test_inputs_not_mutated(self):
        nums = [1, 2, 3, 4]
        dens = [1, 1, 1, 1]
        _kernels.det_bareiss(2, nums, dens)
        assert nums == [1, 2, 3, 4] and dens == [1, 1, 1, 1]


def gauss_jordan_pivot(grid, prow, pcol):
    """One pivot in plain Fraction arithmetic, returning a new grid."""
    piv_row = [v / grid[prow][pcol] for v in grid[prow]]
    return [
        piv_row if i == prow else [a - row[pcol] * b for a, b in zip(row, piv_row)]
        for i, row in enumerate(grid)
    ]


class TestPivot:
    def test_pivot_column_becomes_unit(self):
        rng = random.Random(7)
        nums, dens = flat_pairs(rng, 12)
        while nums[0] == 0:
            nums, dens = flat_pairs(rng, 12)
        _kernels.pivot(nums, dens, 4, 0, 0)
        assert (nums[0], dens[0]) == (1, 1)
        for i in (1, 2):
            assert nums[i * 4] == 0 and dens[i * 4] == 1

    def test_entries_stay_normalized(self):
        rng = random.Random(55)
        for _ in range(25):
            nums, dens = flat_pairs(rng, 12)
            if nums[5] == 0:
                continue
            _kernels.pivot(nums, dens, 4, 1, 1)
            for n, d in zip(nums, dens):
                assert d > 0
                assert gcd(n, d) == 1

    def test_matches_fraction_arithmetic(self):
        rng = random.Random(99)
        for _ in range(20):
            nums, dens = flat_pairs(rng, 12)
            if nums[0] == 0:
                continue
            grid = [[F(nums[i * 4 + j], dens[i * 4 + j]) for j in range(4)] for i in range(3)]
            _kernels.pivot(nums, dens, 4, 0, 0)
            piv = grid[0][0]
            ref_row0 = [v / piv for v in grid[0]]
            for j in range(4):
                assert F(nums[j], dens[j]) == ref_row0[j]
            for i in (1, 2):
                factor = grid[i][0]
                for j in range(4):
                    expect = grid[i][j] - factor * ref_row0[j]
                    assert F(nums[i * 4 + j], dens[i * 4 + j]) == expect

    def test_pivot_chain_matches_gauss_jordan(self):
        rng = random.Random(4242)
        nums, dens = flat_pairs(rng, 4 * 6)
        grid = to_grid(nums, dens, 6)
        pivots_done = 0
        for prow, pcol in [(0, 0), (1, 1), (2, 2), (3, 3), (0, 4), (1, 5)]:
            if grid[prow][pcol] == 0:
                continue
            _kernels.pivot(nums, dens, 6, prow, pcol)
            grid = gauss_jordan_pivot(grid, prow, pcol)
            assert to_grid(nums, dens, 6) == grid
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

    def test_zero_pivot_is_refused(self):
        rows = [[1, 0, 2], [0, 1, 3]]
        with pytest.raises(ZeroDivisionError):
            _kernels.exchange(rows, 1, 0, 1)
        assert rows == [[1, 0, 2], [0, 1, 3]]
