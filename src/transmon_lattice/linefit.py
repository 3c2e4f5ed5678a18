"""Straight-line least squares in closed form.

Every linear fit of the package is a line or, for the siZZle phase
modulation, a three-column solve of its normal equations.  Neither needs
LAPACK's SVD least-squares routine (dgelsd), which ``np.polyfit`` and
``np.linalg.lstsq`` fault in (about 0.3 MiB resident) to fit two or
three parameters.
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
