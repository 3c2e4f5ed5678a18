"""Property tests of the decay fits on random noisy decays: the fitted
residual is never above the minimum of a dense scan of T, and the RB fit
is the exponential fit with p = exp(-1/T)."""
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from transmon_lattice.fitting import fit_damped_cos, fit_exp_decay, fit_rb_decay

# derandomized: the examples are the same on every run
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)


@st.composite
def _decays(draw):
    """(t, y): a + b exp(-t/T) on an even grid from a small offset, with
    Gaussian noise, clipped to [0, 1] so that it is also an RB survival."""
    n = draw(st.integers(6, 39))
    span = draw(st.floats(50.0, 400.0))
    start = draw(st.floats(0.0, 5.0))
    t = start + np.linspace(0.0, span, n)
    tau = draw(st.floats(10.0, 200.0))
    a = draw(st.floats(0.0, 0.5))
    b = draw(st.floats(0.1, 0.5))
    sigma = math.exp(draw(st.floats(math.log(1e-4), math.log(0.05))))
    noise = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(0.0, sigma, n)
    return t, np.clip(a + b * np.exp(-t / tau) + noise, 0.0, 1.0)


def _scan_rss(t, y, points=4001):
    """The rss of the least-squares line in x = exp(-(t - t0)/T) at each T
    of a dense log grid over the fit's interval [first step e^-7, span e^7]
    (the shift by t0 rescales b only)."""
    tau = t - t[0]
    log_t = np.linspace(math.log(tau[1]) - 7.0, math.log(tau[-1]) + 7.0, points)
    x = np.exp(-tau / np.exp(log_t)[:, None])
    dx = x - x.mean(axis=1, keepdims=True)
    dy = y - y.mean()
    slope = (dx @ dy) / np.einsum("ij,ij->i", dx, dx)
    residual = dy - slope[:, None] * dx
    return np.einsum("ij,ij->i", residual, residual)


@PROPERTY
@given(decay=_decays())
def test_exp_decay_reaches_the_minimum_of_a_dense_scan_of_t(decay):
    t, y = decay
    fit = fit_exp_decay(t, y)
    best = float(_scan_rss(t, y).min())
    assert fit.rss <= best * (1.0 + 1e-12), (fit.params, fit.flags, fit.rss, best)
    assert all(math.isfinite(v) for v in fit.params.values())


@PROPERTY
@given(decay=_decays())
def test_rb_decay_is_the_exp_decay_with_p_from_t(decay):
    m, s = decay
    exp, rb = fit_exp_decay(m, s), fit_rb_decay(m, s)
    T = exp.params["T"]
    p = math.exp(-1.0 / T)
    assert rb.params == {"A": exp.params["b"], "p": p, "B": exp.params["a"]}
    # nan where the covariance is singular, as at the lower bound of T
    np.testing.assert_array_equal(
        list(rb.uncertainties.values()),
        [exp.uncertainties["b"], exp.uncertainties["T"] * p / T**2, exp.uncertainties["a"]],
    )
    assert (rb.rss, rb.converged, rb.iterations, rb.flags) == (
        exp.rss, exp.converged, exp.iterations, exp.flags)


@st.composite
def _damped_cosines(draw):
    """(t, y): a + b cos(2 pi f t + phi) exp(-t/T) on an even grid from 0,
    with Gaussian noise; 3 cycles or more over the span, below 0.35 of a
    cycle per point, and T from a tenth of the span, where the decay hides
    most of the cycles, to three spans."""
    n = draw(st.integers(16, 80))
    span = draw(st.floats(5.0, 50.0))
    t = np.linspace(0.0, span, n)
    f = draw(st.floats(3.0, 0.35 * n)) / span
    tau = span * draw(st.floats(0.1, 3.0))
    phi = draw(st.floats(-math.pi, math.pi))
    a = draw(st.floats(0.3, 0.7))
    b = draw(st.floats(0.2, 0.5))
    sigma = math.exp(draw(st.floats(math.log(1e-4), math.log(0.03))))
    noise = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(0.0, sigma, n)
    return t, a + b * np.cos(2 * np.pi * f * t + phi) * np.exp(-t / tau) + noise


def _scan_cos_rss(t, y, freqs, log_t):
    """The least rss of a + x (c cos + s sin)(2 pi f t), x = exp(-t/T), over
    a grid of f and log T, one f at a time."""
    x = np.exp(-t / np.exp(log_t)[:, None])
    dy = y - y.mean()
    best = np.inf
    for f in freqs:
        cols = [x * np.cos(2 * np.pi * f * t), x * np.sin(2 * np.pi * f * t)]
        dc, ds = (col - col.mean(axis=1, keepdims=True) for col in cols)
        cc, ss, cs = (dc * dc).sum(1), (ds * ds).sum(1), (dc * ds).sum(1)
        cy, sy = dc @ dy, ds @ dy
        det = cc * ss - cs * cs
        c, s = (ss * cy - cs * sy) / det, (cc * sy - cs * cy) / det
        residual = dy - c[:, None] * dc - s[:, None] * ds
        best = min(best, float(np.einsum("ij,ij->i", residual, residual).min()))
    return best


@PROPERTY
@given(trace=_damped_cosines())
def test_damped_cos_reaches_the_minimum_of_a_dense_scan_of_f_and_t(trace):
    # the fit's window: f within two bins of the spectrum's peak (from one
    # cycle over n steps to 0.95 of Nyquist), T from the first step to span e^20
    t, y = trace
    n, span = len(t), t[-1] - t[0]
    fit = fit_damped_cos(t, y)
    width = 1.0 / (n * (span / (n - 1)))
    peak = 1 + int(np.argmax(np.abs(np.fft.rfft(y - y.mean()))[1:]))
    freqs = np.linspace(max(peak - 2, 1), min(peak + 2, 0.95 * n / 2), 101) * width
    log_t = np.linspace(math.log(t[1] - t[0]), math.log(span) + 20.0, 401)
    best = _scan_cos_rss(t, y, freqs, log_t)
    assert fit.rss <= best * (1.0 + 1e-12), (fit.params, fit.flags, fit.rss, best)
    assert all(math.isfinite(v) for v in fit.params.values())
