"""Exact kernels for the three hot loops: the Bareiss determinant, the
Gauss-Jordan pivot of the simplex tableau, and the fraction-free
exchange of the basis-exchange scan of canonical families.

The determinant and the pivot take numbers as parallel flat lists of
Python ints: nums[i] / dens[i] with dens[i] > 0 and
gcd(|nums[i]|, dens[i]) == 1 (zero is 0/1).  The exchange keeps integer
rows over one common denominator instead.  Callers reach these
functions through the module (_kernels.pivot(...)), not by importing
the names, so a tracer can wrap them in one place.
"""

from math import gcd, lcm


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


def det_bareiss(size: int, nums: list, dens: list) -> tuple[int, int]:
    """Determinant of a size x size rational matrix, flat row-major input.

    Denominators are cleared row by row, then the Bareiss fraction-free
    elimination runs on integers; every interior division is exact.
    """
    if size == 0:
        return 1, 1
    work = []
    scale = 1
    for i in range(size):
        base = i * size
        row_lcm = lcm(*dens[base : base + size]) if size > 1 else dens[base]
        scale *= row_lcm
        work.append(
            [nums[base + j] * (row_lcm // dens[base + j]) for j in range(size)]
        )
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
    return normalize(sign * work[size - 1][size - 1], scale)


def pivot(nums: list, dens: list, ncols: int, prow: int, pcol: int) -> None:
    """One Gauss-Jordan pivot on a flat tableau, in place.

    Scales row prow so the pivot becomes 1, then eliminates column pcol
    from every other row (objective rows included, they are just rows).
    """
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
