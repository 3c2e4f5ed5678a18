"""Damped nonlinear least squares for every measurement model used here.

All fits run a Levenberg-Marquardt loop with analytic Jacobians and a
monotone-improvement guarantee: the returned residual never exceeds the
residual at the initialization point.  Non-convergence is reported via
``FitResult.converged`` and ``flags``; it never raises.  Uncertainties
come from the inverse of the Gauss-Newton Hessian at the optimum scaled
by the residual variance.
"""
from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import AliasingError, NearResonanceError
from .linefit import fit_line
from .values import FrozenValue

MAX_ITERATIONS = 200
GRADIENT_TOL = 1e-10
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
    hess = jac.T @ jac
    try:
        cov = np.linalg.inv(hess) * (rss / dof)
    except np.linalg.LinAlgError:
        cov = np.full((k, k), np.nan)
    return cov


def levenberg_marquardt(
    model: Callable[[np.ndarray, np.ndarray], np.ndarray],
    jacobian: Callable[[np.ndarray, np.ndarray], np.ndarray],
    x: np.ndarray,
    y: np.ndarray,
    p0: np.ndarray,
    lower: Optional[np.ndarray] = None,
    upper: Optional[np.ndarray] = None,
    max_iterations: int = MAX_ITERATIONS,
    gradient_tol: float = GRADIENT_TOL,
) -> tuple[np.ndarray, np.ndarray, float, bool, int, list[str]]:
    """Minimize ||model(x, p) - y||^2 with adaptive damping.

    Returns (params, covariance, rss, converged, iterations, flags).
    Steps that would increase the residual are rejected, so the result
    is never worse than the initialization.
    """
    p = np.array(p0, dtype=float)
    if lower is None:
        lower = np.full_like(p, -np.inf)
    if upper is None:
        upper = np.full_like(p, np.inf)
    p = np.clip(p, lower, upper)

    residual = model(x, p) - y
    cost = float(residual @ residual)
    lam = 1e-3
    converged = False
    flags: list[str] = []
    iterations = 0

    for iterations in range(1, max_iterations + 1):
        jac = jacobian(x, p)
        grad = jac.T @ residual
        scale = max(1.0, cost)
        if np.max(np.abs(grad)) <= gradient_tol * scale:
            converged = True
            break
        hess = jac.T @ jac
        diag = np.diag(hess).copy()
        diag[diag <= 0] = 1.0
        accepted = False
        for _ in range(50):
            try:
                step = np.linalg.solve(hess + lam * np.diag(diag), -grad)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            trial = np.clip(p + step, lower, upper)
            trial_residual = model(x, trial) - y
            trial_cost = float(trial_residual @ trial_residual)
            if trial_cost <= cost:
                improvement = cost - trial_cost
                p, residual, cost = trial, trial_residual, trial_cost
                lam = max(lam / 3.0, 1e-14)
                accepted = True
                if improvement <= 1e-15 * scale:
                    converged = True
                break
            lam *= 10.0
            if lam > 1e14:
                break
        if not accepted:
            converged = bool(np.max(np.abs(grad)) <= 1e4 * gradient_tol * scale)
            if not converged:
                flags.append("stalled")
            break
        if converged:
            break
    else:
        flags.append("max_iterations")

    at_bound = (p <= lower + 1e-300) | (p >= upper - 1e-300)
    finite_bound = np.isfinite(lower) | np.isfinite(upper)
    if np.any(at_bound & finite_bound):
        flags.append("parameter_at_bound")
    # the loop can end on an accepted step: evaluate at the returned point
    cov = _covariance(jacobian(x, p), cost, len(y))
    return p, cov, cost, converged, iterations, flags


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


def fit_exp_decay(t: np.ndarray, y: np.ndarray) -> FitResult:
    """Fit a + b exp(-t/T).  Initialization is a log-linear regression
    on the detrended data; constant input is flagged unidentifiable with
    a = mean."""
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(t) < FEWEST_POINTS["exp_decay"]:
        raise ValueError(f"need at least {FEWEST_POINTS['exp_decay']} points")
    if np.any(np.diff(t) <= 0):
        raise ValueError("t must be strictly ascending")

    span = float(y.max() - y.min())
    if span < 1e-12 * max(1.0, abs(float(y.mean()))):
        return FitResult(
            model="exp_decay",
            params={"a": float(y.mean()), "b": 0.0, "T": float(t[-1] - t[0])},
            uncertainties={"a": 0.0, "b": float("nan"), "T": float("nan")},
            rss=float(np.sum((y - y.mean()) ** 2)),
            converged=False,
            iterations=0,
            flags=("unidentifiable",),
        )

    a0 = float(y[-1])
    detrended = y - a0
    sign = 1.0 if detrended[0] >= 0 else -1.0
    z = sign * detrended
    mask = z > 0.05 * max(z.max(), 1e-12)
    if mask.sum() >= 2:
        slope, intercept = fit_line(t[mask], np.log(z[mask]))
        tau0 = -1.0 / slope if slope < 0 else (t[-1] - t[0])
        b0 = sign * math.exp(intercept)
    else:
        tau0 = (t[-1] - t[0]) / 2.0
        b0 = float(detrended[0])
    tau0 = min(max(tau0, (t[1] - t[0]) * 1e-3), (t[-1] - t[0]) * 1e3)

    p0 = np.array([a0, b0, tau0])
    lower = np.array([-np.inf, -np.inf, (t[1] - t[0]) * 1e-6])
    p, cov, rss, converged, it, flags = levenberg_marquardt(
        exp_decay_model, exp_decay_jacobian, t, y, p0, lower=lower
    )
    return _result("exp_decay", ("a", "b", "T"), p, cov, rss, converged, it, flags)


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


def _dominant_frequency(t: np.ndarray, y: np.ndarray) -> float:
    """Dominant nonzero frequency of a (possibly unevenly used) grid via
    the discrete spectrum of the detrended signal."""
    dt = float(np.mean(np.diff(t)))
    z = y - y.mean()
    spec = np.abs(np.fft.rfft(z))
    freqs = np.fft.rfftfreq(len(z), d=dt)
    peak = 1 + int(np.argmax(spec[1:]))
    return float(freqs[peak])


def fit_damped_cos(t: np.ndarray, y: np.ndarray) -> FitResult:
    """Fit a + b cos(2 pi f t + phi) exp(-t/T), seeding f from the
    spectrum's dominant peak.  Raises :class:`AliasingError` when the
    grid cannot resolve a full oscillation below Nyquist."""
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(t) < FEWEST_POINTS["damped_cos"]:
        raise ValueError(f"need at least {FEWEST_POINTS['damped_cos']} points")
    if np.any(np.diff(t) <= 0):
        raise ValueError("t must be strictly ascending")

    amp0 = float(y.max() - y.min()) / 2.0
    if amp0 < 1e-12 * max(1.0, abs(float(y.mean()))):
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

    f0 = _dominant_frequency(t, y)
    dt = float(np.mean(np.diff(t)))
    nyquist = 0.5 / dt
    span = float(t[-1] - t[0])
    if f0 <= 0 or f0 * span < 1.0:
        raise AliasingError(
            f"no resolvable oscillation: dominant peak {f0:.4g} over span {span:.4g}"
        )
    if f0 > 0.95 * nyquist:
        raise AliasingError(
            f"dominant frequency {f0:.4g} sits at the Nyquist edge {nyquist:.4g}"
        )

    a0 = float(y.mean())
    # phase from quadrature projections at the seeded frequency
    c = np.cos(2 * np.pi * f0 * t)
    s = np.sin(2 * np.pi * f0 * t)
    z = y - a0
    phi0 = math.atan2(-float(z @ s), float(z @ c))
    p0 = np.array([a0, amp0, f0, phi0, span])
    lower = np.array([-np.inf, -np.inf, f0 * 0.2, -np.inf, dt * 1e-3])
    upper = np.array([np.inf, np.inf, nyquist, np.inf, np.inf])
    p, cov, rss, converged, it, flags = levenberg_marquardt(
        damped_cos_model, damped_cos_jacobian, t, y, p0, lower=lower, upper=upper
    )
    # report phase wrapped into (-pi, pi]
    p[3] = math.remainder(p[3], 2 * math.pi)
    return _result(
        "damped_cos", ("a", "b", "f", "phi", "T"), p, cov, rss, converged, it, flags
    )


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
    # model is a line in 1/delta with slope J^2; seed from it, then polish
    # with LM.  One detuning fixes no slope, so J starts at zero there
    x = 1.0 / delta
    if np.any(x != x[:1]):
        slope, c0 = fit_line(x, dfac)
    else:  # C alone, and 0 from no point at all
        slope, c0 = 0.0, float(dfac.sum()) / max(len(dfac), 1)
    j0 = math.sqrt(max(float(slope), 0.0))
    p0 = np.array([j0, float(c0)])
    lower = np.array([0.0, -np.inf])
    p, cov, rss, converged, it, flags = levenberg_marquardt(
        anticrossing_model, anticrossing_jacobian, delta, dfac, p0, lower=lower
    )
    flags = list(flags)
    if p[0] == 0.0 and "parameter_at_bound" in flags:
        # flat data pins J at zero; that is the answer, not a failure
        flags.remove("parameter_at_bound")
        flags.append("coupling_at_zero")
        converged = True
    result = _result(
        "anticrossing", ("J", "C"), p, cov, rss, converged, it, flags
    )
    params = dict(result.params)
    params["A"] = 1.0
    params["B"] = 1.0
    uncertainties = dict(result.uncertainties)
    uncertainties["A"] = 0.0
    uncertainties["B"] = 0.0
    return FitResult(
        model=result.model,
        params=params,
        uncertainties=uncertainties,
        rss=result.rss,
        converged=result.converged,
        iterations=result.iterations,
        flags=result.flags + ("A_B_fixed",),
    )


# ------------------------------------------------------------------ RB decay

def rb_decay_model(m: np.ndarray, p: np.ndarray) -> np.ndarray:
    a, decay, b = p
    return a * np.power(decay, m) + b


def rb_decay_jacobian(m: np.ndarray, p: np.ndarray) -> np.ndarray:
    a, decay, b = p
    powm = np.power(decay, m)
    return np.column_stack([powm, a * m * np.power(decay, m - 1), np.ones_like(powm)])


def fit_rb_decay(
    m: np.ndarray, s: np.ndarray, asymptote: float = 0.5
) -> FitResult:
    """Fit the survival decay A p^m + B with p constrained to (0, 1].

    ``asymptote`` seeds B (1/2 for single-qubit, 1/4 for two-qubit
    sequences).  A fit pinned at the p = 1 bound is flagged.
    """
    m = np.asarray(m, dtype=float)
    s = np.asarray(s, dtype=float)
    if len(m) < 3:
        raise ValueError("need at least 3 sequence lengths")
    if np.any((s < -1e-9) | (s > 1 + 1e-9)):
        raise ValueError("survival probabilities must lie in [0, 1]")

    b0 = asymptote
    z = np.clip(s - b0, 1e-12, None)
    if z[0] > z[-1] and z[-1] > 0:
        p_seed = (z[-1] / z[0]) ** (1.0 / max(m[-1] - m[0], 1.0))
        p_seed = min(max(p_seed, 0.5), 1.0)
    else:
        p_seed = 1.0 - 1e-6
    p0 = np.array([max(float(s[0] - b0), 1e-6), p_seed, b0])
    lower = np.array([0.0, 1e-9, 0.0])
    upper = np.array([1.0, 1.0, 1.0])
    p, cov, rss, converged, it, flags = levenberg_marquardt(
        rb_decay_model, rb_decay_jacobian, m, s, p0, lower=lower, upper=upper
    )
    flags = list(flags)
    if abs(p[1] - 1.0) < 1e-12 and "parameter_at_bound" not in flags:
        flags.append("parameter_at_bound")
    return _result("rb_decay", ("A", "p", "B"), p, cov, rss, converged, it, flags)


MODELS = {
    "exp_decay": (exp_decay_model, exp_decay_jacobian, 3),
    "damped_cos": (damped_cos_model, damped_cos_jacobian, 5),
    "anticrossing": (anticrossing_model, anticrossing_jacobian, 2),
    "rb_decay": (rb_decay_model, rb_decay_jacobian, 3),
}

FIT_FUNCTIONS = {
    "exp_decay": fit_exp_decay,
    "damped_cos": fit_damped_cos,
    "anticrossing": fit_anticrossing,
    "rb_decay": fit_rb_decay,
}
