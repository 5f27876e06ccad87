"""Dense linear solve for the fit layers' systems of 2 to 5 unknowns.

The normal equations of a contour parabola and the quasi-Newton step of the
loss-law solver are this small, so they are solved in Python floats, by
the algorithm LAPACK's gesv runs, rather than through LAPACK itself: a
process that fits only these systems then never pages in the LAPACK code.
"""

from __future__ import annotations

from .errors import NumericalError


def solve(a, b) -> list[float]:
    """x with a @ x = b, by Gaussian elimination with partial pivoting.

    a is a sequence of n rows of n numbers and b a sequence of n numbers;
    neither is modified.  At each column the row with the largest absolute
    entry is the pivot, the first such row on a tie.

    Raises:
        NumericalError: a pivot is zero, so a is singular.
    """
    n = len(b)
    rows = [[float(v) for v in row] + [float(rhs)] for row, rhs in zip(a, b)]
    for k in range(n):
        top = max(range(k, n), key=lambda i: abs(rows[i][k]))
        rows[k], rows[top] = rows[top], rows[k]
        pivot_row = rows[k]
        pivot = pivot_row[k]
        if pivot == 0.0:
            raise NumericalError(f"singular {n}x{n} system")
        for row in rows[k + 1 :]:
            factor = row[k] / pivot
            for j in range(k + 1, n + 1):
                row[j] -= factor * pivot_row[j]
    x = [0.0] * n
    for k in reversed(range(n)):
        row = rows[k]
        x[k] = (row[n] - sum(row[j] * x[j] for j in range(k + 1, n))) / row[k]
    return x
