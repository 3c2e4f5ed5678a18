"""Straight-line least squares in closed form, and small linear solves.

Every linear fit of the package is a line or, for the siZZle phase
modulation, a three-column solve of its normal equations.  Neither needs
LAPACK's SVD least-squares routine (dgelsd), which ``np.polyfit`` and
``np.linalg.lstsq`` fault in (about 0.3 MiB resident) to fit two or
three parameters.  The other systems of the fits, their covariances,
have at most five unknowns, and one elimination in Python solves them
all without ``np.linalg``, whose LAPACK solver code a process would
otherwise fault in (about 0.4 MiB).
"""
from __future__ import annotations

import numpy as np


def fit_line(x, y) -> tuple:
    """Least-squares slope and intercept of ``y = slope * x + intercept``
    along the last axis of ``y``, over the abscissae ``x`` (at least two
    distinct values).  A stack of rows gives, row for row, the bits that
    each row gives alone."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    x_mean = x.mean()
    dx = x - x_mean
    y_mean = y.mean(axis=-1)
    slope = ((y - y_mean[..., None]) * dx).sum(axis=-1) / (dx * dx).sum()
    return slope, y_mean - slope * x_mean


def solve(a, b):
    """Solution x of ``a @ x = b`` for a small square ``a`` and a vector
    or a matrix of columns ``b``, by Gaussian elimination with partial
    pivoting, or None when a pivot is exactly zero (``a`` is singular)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    k = len(a)
    rows = np.column_stack([a, b]).tolist()
    for col in range(k):
        pivot = max(range(col, k), key=lambda r: abs(rows[r][col]))
        if rows[pivot][col] == 0.0:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        top = rows[col]
        for r in range(col + 1, k):
            factor = rows[r][col] / top[col]
            rows[r] = [v - factor * w for v, w in zip(rows[r], top)]
    x = [None] * k
    for col in reversed(range(k)):
        row = rows[col]
        x[col] = [
            (rhs - sum(row[j] * x[j][i] for j in range(col + 1, k))) / row[col]
            for i, rhs in enumerate(row[k:])
        ]
    return np.array(x).reshape(b.shape)
