"""The closed-form line fit against numpy's least-squares polynomial fit,
on exact lines, and on stacks of rows; the small elimination against
numpy's LAPACK solver."""
import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from transmon_lattice import fitting
from transmon_lattice.linefit import fit_line, solve

# derandomized: the examples are the same on every run
PROPERTY = settings(max_examples=100, deadline=None, derandomize=True)

_unit = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


@st.composite
def _grids(draw):
    """Ascending abscissae that are well conditioned for a line: spread
    comparable to their offset, steps within a factor 8 of each other."""
    n = draw(st.integers(2, 200))
    start = draw(st.floats(-1e3, 1e3))
    spread = draw(st.floats(1e-3, 1e3))
    steps = np.array(draw(st.lists(st.floats(1.0, 8.0), min_size=n - 1, max_size=n - 1)))
    x = np.concatenate([[0.0], np.cumsum(steps)])
    x = start * spread / 1e3 + spread * x / x[-1]
    return x


@PROPERTY
@given(x=_grids(), slope=st.floats(-1e3, 1e3), intercept=st.floats(-1e3, 1e3), data=st.data())
def test_line_fit_matches_polyfit(x, slope, intercept, data):
    noise = np.array(data.draw(st.lists(_unit, min_size=len(x), max_size=len(x))))
    y = slope * x + intercept + noise
    got_slope, got_intercept = fit_line(x, y)
    ref_slope, ref_intercept = np.polyfit(x, y, 1)  # the route the fits took before
    # relative to the size of each parameter that the data can show
    y_size = np.max(np.abs(y))
    slope_size = abs(ref_slope) + y_size / np.ptp(x)
    intercept_size = abs(ref_intercept) + y_size + abs(ref_slope) * np.max(np.abs(x))
    assert abs(got_slope - ref_slope) <= 1e-12 * slope_size
    assert abs(got_intercept - ref_intercept) <= 1e-12 * intercept_size


@pytest.mark.parametrize("n", [2, 3, 4, 7, 16, 129])
@pytest.mark.parametrize("slope, intercept", [(2.0, 1.0), (-0.375, 12.5), (0.0, -3.0), (1024.0, 0.0)])
@pytest.mark.parametrize("start, step", [(0.0, 1.0), (-6.0, 0.25), (100.0, 4.0)])
def test_line_fit_is_exact_on_exact_lines(n, slope, intercept, start, step):
    # dyadic grids and coefficients: every sum, mean and product is exact
    x = start + step * np.arange(n)
    got = fit_line(x, slope * x + intercept)
    assert got == (slope, intercept)


@PROPERTY
@given(x=_grids(), rows=st.integers(1, 20), data=st.data())
def test_a_stack_of_rows_fits_each_row_bit_for_bit(x, rows, data):
    values = data.draw(st.lists(st.floats(-1e6, 1e6), min_size=rows * len(x),
                                max_size=rows * len(x)))
    y = np.array(values).reshape(rows, len(x))
    slopes, intercepts = fit_line(x, y)
    alone = [fit_line(x, row) for row in y]
    assert slopes.shape == intercepts.shape == (rows,)
    assert np.array_equal(slopes, [s for s, _ in alone])
    assert np.array_equal(intercepts, [c for _, c in alone])


def test_line_fit_takes_sequences():
    assert fit_line((1, 2, 3, 4), [3.0, 5.0, 7.0, 9.0]) == (2.0, 1.0)


def test_exp_decay_seeds_without_the_line_when_one_point_clears_the_mask():
    # a decay much faster than the grid step leaves one point above 5% of
    # the first, where a log-linear seed has no line to fit and fell back to
    # T = half the span and b = the first point's height above the last.
    # The projected search needs no seed, and does no worse than that one
    t = np.array([0.0, 10.0, 20.0, 30.0, 40.0])
    y = 0.1 + 0.8 * np.exp(-t / 0.5)
    fit = fitting.fit_exp_decay(t, y)
    old_seed = np.array([y[-1], y[0] - y[-1], 20.0])
    old_seed_rss = float(np.sum((fitting.exp_decay_model(t, old_seed) - y) ** 2))
    assert fit.rss <= old_seed_rss
    assert all(np.isfinite(list(fit.params.values())))


@PROPERTY
@given(st.integers(1, 5), st.integers(0, 3), st.integers(0, 2**32 - 1))
def test_solve_matches_lapack_on_small_systems(k, columns, seed):
    # columns 0 is a vector right-hand side; the matrices are well conditioned
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(k, k)) + k * np.eye(k)
    b = rng.normal(size=(k, columns) if columns else k)
    np.testing.assert_allclose(solve(a, b), np.linalg.solve(a, b), rtol=1e-12, atol=1e-12)


def test_solve_returns_none_on_an_exactly_singular_matrix():
    assert solve(np.zeros((3, 3)), np.ones(3)) is None
    assert solve([[1.0, 2.0], [2.0, 4.0]], np.eye(2)) is None
