"""Exact kernels for the three hot loops: the Bareiss determinant, the
simplex pivot of lp's two tableau forms, and the fraction-free exchange
of the basis-exchange scan of canonical families and of linalg's
elimination.

The cold tableau holds numbers as parallel flat lists of Python ints:
nums[i] / dens[i] with dens[i] > 0 and gcd(|nums[i]|, dens[i]) == 1
(zero is 0/1).  The determinant, the exchange and lp's revised master
take integer rows over one common denominator instead, the form
linalg.Matrix holds.  Every simplex pivot, in either form, goes through
pivot.  Callers reach these functions through the module
(_kernels.pivot(...)), not by importing the names, so a tracer can wrap
them in one place.
"""

from math import gcd
from typing import Optional


def normalize(num: int, den: int) -> tuple[int, int]:
    """Reduce num/den to lowest terms with a positive denominator."""
    if den == 0:
        raise ZeroDivisionError("zero denominator")
    if num == 0:
        return 0, 1
    if den < 0:
        num, den = -num, -den
    g = gcd(num, den)
    return num // g, den // g


def det_bareiss(rows: list, den: int = 1) -> tuple[int, int]:
    """Determinant of the square matrix rows / den, for integer rows over
    one positive denominator, as num, den in lowest terms.

    The Bareiss fraction-free elimination runs on a copy of the integer
    rows, every interior division is exact, and the result is divided
    by den to the size once.
    """
    size = len(rows)
    if size == 0:
        return 1, 1
    work = [list(row) for row in rows]
    sign = 1
    prev = 1
    for k in range(size - 1):
        if work[k][k] == 0:
            for r in range(k + 1, size):
                if work[r][k] != 0:
                    work[k], work[r] = work[r], work[k]
                    sign = -sign
                    break
            else:
                return 0, 1
        pivot_entry = work[k][k]
        for i in range(k + 1, size):
            row_i = work[i]
            row_k = work[k]
            head = row_i[k]
            for j in range(k + 1, size):
                row_i[j] = (row_i[j] * pivot_entry - head * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot_entry
    return normalize(sign * work[size - 1][size - 1], den**size)


def pivot(nums: list, dens, ncols: int, prow: int, pcol: int) -> Optional[int]:
    """One simplex pivot on a tableau of ncols columns, in place.

    With dens a list, nums and dens are the flat rational tableau: row
    prow is scaled so the pivot becomes 1, then column pcol is eliminated
    from every other row (objective rows included, they are just rows).
    With dens an int, nums holds integer rows over that one denominator:
    the pivot is exchange(nums, dens, prow, pcol), and its pivot entry,
    the new denominator, is returned.
    """
    if not isinstance(dens, list):
        return exchange(nums, dens, prow, pcol)
    nrows = len(nums) // ncols
    base = prow * ncols
    pnum = nums[base + pcol]
    pden = dens[base + pcol]
    if pnum == 0:
        raise ZeroDivisionError("pivot on a zero entry")
    inv_num, inv_den = (pden, pnum) if pnum > 0 else (-pden, -pnum)
    for j in range(ncols):
        a = nums[base + j]
        if a == 0:
            continue
        b = dens[base + j]
        g1 = gcd(a if a > 0 else -a, inv_den)
        g2 = gcd(inv_num, b)
        nums[base + j] = (a // g1) * (inv_num // g2)
        dens[base + j] = (b // g2) * (inv_den // g1)
    nums[base + pcol] = 1
    dens[base + pcol] = 1
    hot = [
        (j, nums[base + j], dens[base + j])
        for j in range(ncols)
        if nums[base + j] != 0
    ]
    for i in range(nrows):
        if i == prow:
            continue
        rbase = i * ncols
        fnum = nums[rbase + pcol]
        if fnum == 0:
            continue
        fden = dens[rbase + pcol]
        for j, pn, pd in hot:
            an = nums[rbase + j]
            ad = dens[rbase + j]
            sub_num = an * (fden * pd) - fnum * pn * ad
            if sub_num == 0:
                nums[rbase + j] = 0
                dens[rbase + j] = 1
            else:
                sub_den = ad * fden * pd
                g = gcd(sub_num if sub_num > 0 else -sub_num, sub_den)
                nums[rbase + j] = sub_num // g
                dens[rbase + j] = sub_den // g
        nums[rbase + pcol] = 0
        dens[rbase + pcol] = 1


def exchange(rows: list, det: int, prow: int, pcol: int) -> int:
    """One fraction-free Gauss-Jordan pivot (integer pivoting), in place.

    rows holds integer rows that stand for rows[i][j] / det, where det
    is the determinant of the current basis.  The pivot row keeps its
    entries; every other row has column pcol eliminated by the Bareiss
    update (a * p - h * b) / det, whose division is exact.  Returns the
    pivot entry p, the determinant of the new basis and so the new
    common denominator.  Every entry stays a minor of the rows the
    exchanges started from, so nothing grows beyond those minors and no
    gcd is taken.
    """
    pivot_row = rows[prow]
    p = pivot_row[pcol]
    if p == 0:
        raise ZeroDivisionError("pivot on a zero entry")
    for i, row in enumerate(rows):
        if i == prow:
            continue
        h = row[pcol]
        if h:
            rows[i] = [(a * p - h * b) // det for a, b in zip(row, pivot_row)]
        elif p != det:
            rows[i] = [a * p // det for a in row]
    return p
