"""Least squares for every measurement model used here.

Every model is linear in all but at most two parameters, which are
searched while the linear ones are solved in closed form at each point
(variable projection, Golub & Pereyra, SIAM J. Numer. Anal. 10, 413
(1973)).  The exponential and RB decays are a line in exp(-t/T) once T
is fixed; the damped cosine is linear in its offset and its two
quadratures once f and T are, and f is searched with T searched at each
f; the anticrossing is a line in 1/Delta outright.  One search serves
each nonlinear parameter (:func:`_search`).  Non-convergence is
reported via ``FitResult.converged`` and ``flags``; it never raises.
Uncertainties come from the inverse of the Gauss-Newton Hessian at the
optimum, with analytic Jacobians, scaled by the residual variance.
"""
from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import AliasingError, NearResonanceError
from .linefit import fit_line, solve
from .values import FrozenValue

MAX_ITERATIONS = 200
# every search: a grid (log T of this step, or the spectrum's bins for f),
# then its best bracket refined until it is this narrow
GRID_STEP = 0.2
REFINE_TOL = 1e-9
EPS = np.finfo(float).eps
ANTICROSSING_GUARD = 1.0  # MHz window around zero detuning


class FitResult(FrozenValue):
    """Fitted parameters with 1-sigma uncertainties and diagnostics."""

    __slots__ = ("model", "params", "uncertainties", "rss", "converged", "iterations", "flags")

    def __init__(
        self,
        model: str,
        params: dict[str, float],
        uncertainties: dict[str, float],
        rss: float,
        converged: bool,
        iterations: int,
        flags: tuple[str, ...] = (),
    ):
        self._assign(model, params, uncertainties, rss, converged, iterations, flags)

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "params": dict(self.params),
            "uncertainties": dict(self.uncertainties),
            "rss": self.rss,
            "converged": self.converged,
            "iterations": self.iterations,
            "flags": list(self.flags),
        }


def _covariance(jac: np.ndarray, rss: float, n_points: int) -> np.ndarray:
    k = jac.shape[1]
    dof = max(n_points - k, 1)
    inverse = solve(jac.T @ jac, np.eye(k))
    return np.full((k, k), np.nan) if inverse is None else inverse * (rss / dof)


def _result(
    name: str,
    param_names: Sequence[str],
    p: np.ndarray,
    cov: np.ndarray,
    rss: float,
    converged: bool,
    iterations: int,
    flags: Sequence[str],
) -> FitResult:
    sigmas = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    return FitResult(
        model=name,
        params={n: float(v) for n, v in zip(param_names, p)},
        uncertainties={n: float(s) for n, s in zip(param_names, sigmas)},
        rss=float(rss),
        converged=converged,
        iterations=iterations,
        flags=tuple(flags),
    )


# ---------------------------------------------------------------- exp decay

def exp_decay_model(t: np.ndarray, p: np.ndarray) -> np.ndarray:
    a, b, tau = p
    return a + b * np.exp(-t / tau)


def exp_decay_jacobian(t: np.ndarray, p: np.ndarray) -> np.ndarray:
    a, b, tau = p
    e = np.exp(-t / tau)
    return np.column_stack([np.ones_like(t), e, b * e * t / tau**2])


# the fewest points a fit of each model takes
FEWEST_POINTS = {"exp_decay": 4, "damped_cos": 8}


def _projected(tau: np.ndarray, dy: np.ndarray, log_t):
    """(b, x, residuals, g) of the least-squares line through the centred
    data ``dy`` in x = exp(-tau/T), at each log T of ``log_t`` (a scalar or
    an array).  g = -b sum(r x tau) has the sign of d rss/dT at the line's
    (a, b), which for the line's optimum is that of the projected rss."""
    x = np.exp(np.multiply.outer(-np.exp(-log_t), tau))
    dx = x - x.sum(axis=-1, keepdims=True) / len(tau)
    b = (dx @ dy) / (dx * dx).sum(axis=-1)
    r = dy - b[..., None] * dx
    return b, x, r, -b * ((r * x) @ tau)


def _search(grid, rss, slopes, noise, slope) -> tuple[float, int, list[str]]:
    """Minimize a function of one variable, given its values ``rss`` and
    slopes ``slopes`` on the ascending ``grid`` and its slope at any point,
    ``slope(u)``.  (u, iterations, flags) of the minimum.

    The function has a local minimum in each grid step where the slope
    turns from negative beyond its rounding (``noise``) to non-negative,
    and at an end of the grid that it rises from; the lowest of these is
    taken, and a step is refined by Illinois regula falsi on the slope's
    sign until it is ``REFINE_TOL`` narrow.  An end of the grid is flagged
    ``parameter_at_bound``."""
    falling, last = slopes < -noise, len(grid) - 1
    # (rss, first, last grid index) of each local minimum, an end as a one-point step
    minima = [(min(rss[j], rss[j + 1]), j, j + 1)
              for j in np.flatnonzero(falling[:-1] & ~falling[1:])]
    if not falling[0]:
        minima.append((rss[0], 0, 0))
    if falling[last]:
        minima.append((rss[last], last, last))
    _, j, k = min(minima)
    u, iterations, flags = grid[j], 0, ["parameter_at_bound"]
    if j < k:
        # a slope within its noise at the step's upper end reads as flat there
        lo, hi, g_lo, g_hi = grid[j], grid[k], slopes[j], max(slopes[k], 0.0)
        u, flags = hi, []
        side = 0  # which end the last step moved: halve the other's value on a repeat
        while hi - lo > REFINE_TOL and g_hi != 0.0:
            if iterations == MAX_ITERATIONS:
                flags.append("max_iterations")
                break
            iterations += 1
            u = hi - g_hi * (hi - lo) / (g_hi - g_lo)
            g = slope(u)
            if g < 0.0:
                lo, g_lo, g_hi = u, g, g_hi / 2.0 if side < 0 else g_hi
                side = -1
            else:
                hi, g_hi, g_lo = u, g, g_lo / 2.0 if side > 0 else g_lo
                side = 1
    return u, iterations, flags


def _log_t_grid(t: np.ndarray, below: float) -> np.ndarray:
    """The grid of log T over [first step e^-below, span e^7], above
    |t0|/100, where a height at t = 0 would be e^100 times that at the
    first point t0."""
    lo = math.log(max((t[1] - t[0]) * math.exp(-below), abs(t[0]) / 100.0))
    hi = max(math.log(t[-1] - t[0]) + 7.0, lo)
    return np.linspace(lo, hi, 1 + math.ceil((hi - lo) / GRID_STEP))


def _decay_fit(t: np.ndarray, y: np.ndarray) -> FitResult:
    """Fit a + b exp(-t/T) by variable projection; constant y is flagged
    unidentifiable with a = mean.

    The rss of the best line at each T and its slope in T are evaluated
    on a grid of log T over [first step e^-7, span e^7] and searched
    (:func:`_search`).  Where x underflows at small T the rss is flat, and
    its slope is rounding noise of either sign, which ``noise`` keeps from
    reading as a minimum."""
    if np.any(np.diff(t) <= 0):
        raise ValueError("t must be strictly ascending")
    if float(y.max() - y.min()) < 1e-12 * max(1.0, abs(float(y.mean()))):
        return _result("exp_decay", ("a", "b", "T"), [y.mean(), 0.0, t[-1] - t[0]],
                       np.diag([0.0, np.nan, np.nan]), np.sum((y - y.mean()) ** 2),
                       False, 0, ["unidentifiable"])
    tau, dy = t - t[0], y - y.mean()  # x keeps its first point at 1 for every T
    grid = _log_t_grid(t, 7.0)
    b, x, r, slopes = _projected(tau, dy, grid)
    # the rounding of r alone moves g by up to about this much
    dx = x - x.mean(axis=-1, keepdims=True)
    noise = len(tau) * EPS * abs(b) * (((abs(dy) + abs(b[:, None] * dx)) * x) @ tau)
    u, iterations, flags = _search(grid, (r * r).sum(axis=-1), slopes, noise,
                                   lambda u: _projected(tau, dy, u)[3])
    b, x, r, _ = _projected(tau, dy, u)
    a, T = y.mean() - b * x.mean(), math.exp(u)
    rss = float(r @ r)
    p = np.array([a, b * math.exp(t[0] / T), T])
    cov = _covariance(exp_decay_jacobian(t, p), rss, len(t))
    return _result("exp_decay", ("a", "b", "T"), p, cov, rss, not flags, iterations, flags)


def fit_exp_decay(t: np.ndarray, y: np.ndarray) -> FitResult:
    """Fit a + b exp(-t/T) by a projected search over T; constant input
    is flagged unidentifiable with a = mean."""
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(t) < FEWEST_POINTS["exp_decay"]:
        raise ValueError(f"need at least {FEWEST_POINTS['exp_decay']} points")
    return _decay_fit(t, y)


# -------------------------------------------------------------- damped cosine

def damped_cos_model(t: np.ndarray, p: np.ndarray) -> np.ndarray:
    a, b, f, phi, tau = p
    return a + b * np.cos(2 * np.pi * f * t + phi) * np.exp(-t / tau)


def damped_cos_jacobian(t: np.ndarray, p: np.ndarray) -> np.ndarray:
    a, b, f, phi, tau = p
    e = np.exp(-t / tau)
    arg = 2 * np.pi * f * t + phi
    c, s = np.cos(arg), np.sin(arg)
    return np.column_stack(
        [
            np.ones_like(t),
            c * e,
            -b * 2 * np.pi * t * s * e,
            -b * s * e,
            b * c * e * t / tau**2,
        ]
    )


def _dominant_frequency(t: np.ndarray, y: np.ndarray) -> tuple[int, float]:
    """Index and width of the highest of the bins 1 .. n/2 of the detrended
    signal's periodogram, taken at its times t; the bins are spaced by
    1/(n mean step), so that on an even grid they are the DFT's."""
    width = 1.0 / (len(t) * float(np.mean(np.diff(t))))
    phase = np.multiply.outer(2.0 * math.pi * width * np.arange(1, len(t) // 2 + 1), t - t[0])
    z = y - y.mean()
    return 1 + int(np.argmax((np.cos(phase) @ z) ** 2 + (np.sin(phase) @ z) ** 2)), width


def _oscillation(tau: np.ndarray, dy: np.ndarray, wave, x: np.ndarray):
    """(c, s, r, m, g) of the least-squares m = c C + s S through the
    centred data ``dy``, with C = x cos(w tau) and S = x sin(w tau), at each
    row of x = exp(-tau/T) (one row or a stack), with its residuals r.
    ``wave`` holds cos(w tau), sin(w tau) and the columns whose products
    with x and x^2 sum the normal equations: (cos, sin, cos dy, sin dy) and
    (cos^2, sin^2, cos sin).  g = -sum(r m tau) has the sign of d rss/dT at
    (c, s), which for their optimum is that of the projected rss."""
    cos, sin, linear, square = wave
    n = len(tau)
    mc, ms, cy, sy = (x @ linear).T
    cc, ss, cs = ((x * x) @ square).T
    mc, ms = mc / n, ms / n  # the means of C and S: centre the sums
    cc, ss, cs = cc - n * mc * mc, ss - n * ms * ms, cs - n * mc * ms
    det = cc * ss - cs * cs
    c, s = (ss * cy - cs * sy) / det, (cc * sy - cs * cy) / det
    m = x * (np.multiply.outer(c, cos) + np.multiply.outer(s, sin))
    r = dy + (c * mc + s * ms)[..., None] - m
    return c, s, r, m, -(r * m) @ tau


def fit_damped_cos(t: np.ndarray, y: np.ndarray) -> FitResult:
    """Fit a + b cos(2 pi f t + phi) exp(-t/T) by variable projection, with
    b >= 0 and phi wrapped into (-pi, pi].  Raises :class:`AliasingError`
    when the grid cannot resolve a full oscillation below Nyquist.

    At each (f, T) the model is linear in a, c = b cos(phi) and
    s = -b sin(phi), which are solved in closed form.  At each f, T is
    searched (:func:`_search`) on a grid of log T over [first step,
    span e^7] and at span e^20; f is searched the same way over the bins
    within two of the periodogram's peak, on the slope of the rss in f at
    the inner optimum, which by the envelope theorem is that of the rss
    profiled over T, a, c and s.  A T or f that ends on its bound is
    flagged ``parameter_at_bound`` and not converged: T of an undamped
    trace (a Ramsey or AC-Stark trace under ``NoiseSpec()``) ends at
    span e^20.  ``iterations`` counts the refine steps of f."""
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(t) < FEWEST_POINTS["damped_cos"]:
        raise ValueError(f"need at least {FEWEST_POINTS['damped_cos']} points")
    if np.any(np.diff(t) <= 0):
        raise ValueError("t must be strictly ascending")

    if float(y.max() - y.min()) < 2e-12 * max(1.0, abs(float(y.mean()))):
        return FitResult(
            model="damped_cos",
            params={
                "a": float(y.mean()),
                "b": 0.0,
                "f": float("nan"),
                "phi": 0.0,
                "T": float("nan"),
            },
            uncertainties={k: float("nan") for k in ("a", "b", "f", "phi", "T")},
            rss=float(np.sum((y - y.mean()) ** 2)),
            converged=False,
            iterations=0,
            flags=("unidentifiable_frequency",),
        )

    peak, width = _dominant_frequency(t, y)
    f0 = peak * width
    nyquist = 0.5 * len(t) * width
    span = float(t[-1] - t[0])
    if f0 * span < 1.0:
        raise AliasingError(
            f"no resolvable oscillation: dominant peak {f0:.4g} over span {span:.4g}"
        )
    if f0 > 0.95 * nyquist:
        raise AliasingError(
            f"dominant frequency {f0:.4g} sits at the Nyquist edge {nyquist:.4g}"
        )

    tau, dy = t - t[0], y - y.mean()
    # and T = span e^20, where an undamped trace ends: its envelope falls by
    # a fraction e^-20 over the span there, which moves f by about 1e-10
    grid = np.append(_log_t_grid(t, 0.0), math.log(span) + 20.0)
    x = np.exp(np.multiply.outer(-np.exp(-grid), tau))

    def at(v):
        """(rss, its slope in f, log T, T's flags, (c, s, m)) at f = v width,
        T searched."""
        w = 2.0 * math.pi * v * width
        cos, sin = np.cos(w * tau), np.sin(w * tau)
        wave = cos, sin, np.array([cos, sin, cos * dy, sin * dy]).T, np.array(
            [cos * cos, sin * sin, cos * sin]).T
        _, _, r, _, slopes = _oscillation(tau, dy, wave, x)
        u, _, flags = _search(grid, (r * r).sum(axis=-1), slopes, 0.0, lambda u: _oscillation(
            tau, dy, wave, np.exp(-tau / math.exp(u)))[4])
        x_u = np.exp(-tau / math.exp(u))
        c, s, r, m, _ = _oscillation(tau, dy, wave, x_u)
        slope = -(r * x_u * (s * cos - c * sin)) @ tau  # d rss/dw at (c, s, T)
        return float(r @ r), float(slope), u, flags, (float(c), float(s), m)

    # the bins beside the peak, from one cycle over the grid to the Nyquist
    # edge, short of Nyquist itself, where sin(w tau) vanishes on an even grid;
    # clipped, they ascend, so the first of each run of equal bins is kept
    # (np.unique would import numpy.ma)
    bins = np.clip(peak + np.arange(-2.0, 3.0), 1.0, 0.95 * 0.5 * len(t))
    bins = bins[np.r_[True, bins[1:] > bins[:-1]]]
    rss, slopes = np.array([at(v)[:2] for v in bins]).T
    v, iterations, flags = _search(bins, rss, slopes, 0.0, lambda v: at(v)[1])
    rss, _, u, t_flags, (c, s, m) = at(v)
    flags += [flag for flag in t_flags if flag not in flags]
    f, T = v * width, math.exp(u)
    p = np.array([y.mean() - m.mean(), math.hypot(c, s) * math.exp(t[0] / T), f,
                  math.remainder(math.atan2(-s, c) - 2.0 * math.pi * f * t[0], 2.0 * math.pi), T])
    cov = _covariance(damped_cos_jacobian(t, p), rss, len(t))
    return _result("damped_cos", ("a", "b", "f", "phi", "T"), p, cov, rss, not flags,
                   iterations, flags)


# -------------------------------------------------------------- anticrossing

def anticrossing_model(delta: np.ndarray, p: np.ndarray) -> np.ndarray:
    j, c = p
    return j * j / delta + c


def anticrossing_jacobian(delta: np.ndarray, p: np.ndarray) -> np.ndarray:
    j, _ = p
    return np.column_stack([2.0 * j / delta, np.ones_like(delta)])


def fit_anticrossing(
    delta: np.ndarray, dfac: np.ndarray, guard: float = ANTICROSSING_GUARD
) -> FitResult:
    """Fit the dispersive level-repulsion model A J^2/(B Delta) + C.

    A and B are not identifiable separately from J (only A J^2 / B
    enters), so both are fixed at 1 and reported as such; J is reported
    positive.  Detunings inside the guard window raise
    :class:`NearResonanceError`.
    """
    delta = np.asarray(delta, dtype=float)
    dfac = np.asarray(dfac, dtype=float)
    if np.any(np.abs(delta) < guard):
        raise NearResonanceError(
            f"detunings within {guard} MHz of resonance are outside the "
            "dispersive regime"
        )
    # the model is a line in 1/delta with slope J^2.  Where the slope is not
    # positive (flat data, or one detuning, which fixes no slope), J = 0 and
    # C is the mean
    x = 1.0 / delta
    slope, c = fit_line(x, dfac) if np.any(x != x[:1]) else (0.0, 0.0)
    flags = []
    if slope <= 0.0:
        slope, c, flags = 0.0, float(dfac.sum()) / max(len(dfac), 1), ["coupling_at_zero"]
    p = np.array([math.sqrt(slope), c])
    rss = float(np.sum((anticrossing_model(delta, p) - dfac) ** 2))
    cov = np.zeros((4, 4))  # A and B are held
    cov[:2, :2] = _covariance(anticrossing_jacobian(delta, p), rss, len(delta))
    return _result("anticrossing", ("J", "C", "A", "B"), np.r_[p, 1.0, 1.0], cov, rss,
                   True, 0, flags + ["A_B_fixed"])


# ------------------------------------------------------------------ RB decay

def fit_rb_decay(
    m: np.ndarray, s: np.ndarray, asymptote: float = 0.5
) -> FitResult:
    """Fit the survival decay A p^m + B: the exponential decay a + b
    exp(-m/T) with A = b, p = exp(-1/T) and B = a, so p lies in (0, 1).

    Constant survivals show no decay.  They give p = 1 flagged
    ``parameter_at_bound``, B = ``asymptote`` (1/2 for single-qubit, 1/4
    for two-qubit sequences) and A = mean - asymptote, with the
    uncertainties of A and p at B held there.
    """
    m = np.asarray(m, dtype=float)
    s = np.asarray(s, dtype=float)
    if len(m) < 3:
        raise ValueError("need at least 3 sequence lengths")
    if np.any((s < -1e-9) | (s > 1 + 1e-9)):
        raise ValueError("survival probabilities must lie in [0, 1]")
    fit = _decay_fit(m, s)
    if "unidentifiable" in fit.flags:
        a = float(s.mean()) - asymptote
        rss = float(np.sum((s - s.mean()) ** 2))
        # at p = 1 the model's derivatives in (A, p) are 1 and A m
        cov = np.zeros((3, 3))  # B is held
        cov[:2, :2] = _covariance(np.column_stack([np.ones_like(m), a * m]), rss, len(m))
        return _result("rb_decay", ("A", "p", "B"), np.array([a, 1.0, asymptote]), cov, rss,
                       True, 0, ["parameter_at_bound"])
    a, b, T = fit.params.values()
    p, sigma = math.exp(-1.0 / T), fit.uncertainties
    return FitResult(  # the Gauss-Newton covariance maps through dp/dT = p/T^2
        "rb_decay", {"A": b, "p": p, "B": a},
        {"A": sigma["b"], "p": sigma["T"] * p / T**2, "B": sigma["a"]},
        fit.rss, fit.converged, fit.iterations, fit.flags,
    )


MODELS = {
    "exp_decay": (exp_decay_model, exp_decay_jacobian, 3),
    "damped_cos": (damped_cos_model, damped_cos_jacobian, 5),
    "anticrossing": (anticrossing_model, anticrossing_jacobian, 2),
}

FIT_FUNCTIONS = {
    "exp_decay": fit_exp_decay,
    "damped_cos": fit_damped_cos,
    "anticrossing": fit_anticrossing,
    "rb_decay": fit_rb_decay,
}
