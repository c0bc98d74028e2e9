"""Exact kernels for the three hot loops: the Bareiss determinant, the
simplex pivot of lp's revised master, and the fraction-free exchange of
the basis-exchange scan of canonical families and of linalg's
elimination.  The scan's walk (canonical._prefix_walk) exchanges to
reach each prefix's parent; a prefix's residual row is one row of the
next exchange, computed alone, and a set is completed
(canonical._complete) by two exchanges on a copy of the parent's rows.

All of them work on integer rows: det_bareiss takes them alone and
returns an integer, and the exchanges take them over one common
denominator, the form linalg.Matrix holds.  Every simplex pivot goes
through pivot.  Callers reach these functions through the module
(_kernels.pivot(...)), not by importing the names, so a tracer can wrap
them in one place.
"""


def det_bareiss(rows: list) -> int:
    """Determinant of the square matrix of integer rows.

    The Bareiss fraction-free elimination runs on a copy of the rows and
    every interior division is exact.
    """
    size = len(rows)
    if size == 0:
        return 1
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
                return 0
        pivot_entry = work[k][k]
        for i in range(k + 1, size):
            row_i = work[i]
            row_k = work[k]
            head = row_i[k]
            for j in range(k + 1, size):
                row_i[j] = (row_i[j] * pivot_entry - head * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot_entry
    return sign * work[size - 1][size - 1]


def pivot(rows: list, det: int, prow: int, pcol: int) -> int:
    """One simplex pivot of lp.Master's integer block: the exchange of
    rows over the denominator det on (prow, pcol), in place, returning
    the new denominator.  It has its own name so that a tracer can count
    simplex pivots apart from the exchanges of the scans."""
    return exchange(rows, det, prow, pcol)


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

