import json
import math

import numpy as np
import pytest

from transmon_lattice.errors import AliasingError, NearResonanceError
from transmon_lattice.fitting import (
    MODELS,
    _covariance,
    anticrossing_jacobian,
    anticrossing_model,
    damped_cos_jacobian,
    damped_cos_model,
    fit_anticrossing,
    fit_damped_cos,
    fit_exp_decay,
    fit_rb_decay,
)
from transmon_lattice.linefit import fit_line


# parameter points where every model is well defined and non-degenerate
GRADIENT_CASES = {
    "exp_decay": (np.linspace(0.1, 200.0, 40), [(0.1, 0.9, 71.0), (0.4, -0.5, 20.0)]),
    "damped_cos": (
        np.linspace(0.0, 30.0, 60),
        [(0.5, 0.4, 1.0, 0.3, 51.0), (0.2, 0.7, 0.5, -1.1, 12.0)],
    ),
    "anticrossing": (
        np.concatenate([np.linspace(-20, -2, 10), np.linspace(2, 20, 10)]),
        [(0.654, 0.1), (0.3, -0.2)],
    ),
}


@pytest.mark.parametrize("name", sorted(MODELS))
def test_analytic_gradients_match_finite_differences(name):
    model, jacobian, n_params = MODELS[name]
    x, base_points = GRADIENT_CASES[name]
    rng = np.random.default_rng(17)
    points = [np.array(p) for p in base_points]
    # add randomized perturbations of the listed points
    for p in list(points):
        for _ in range(4):
            points.append(p * rng.uniform(0.9, 1.1, size=len(p)))
    for p in points:
        analytic = jacobian(x, p)
        numeric = np.empty_like(analytic)
        for k in range(n_params):
            h = 1e-6 * max(abs(p[k]), 1e-3)
            up, down = p.copy(), p.copy()
            up[k] += h
            down[k] -= h
            numeric[:, k] = (model(x, up) - model(x, down)) / (2 * h)
        scale = np.max(np.abs(analytic)) + 1e-12
        assert np.max(np.abs(analytic - numeric)) <= 1e-6 * scale


def test_exp_decay_exact_recovery():
    t = np.linspace(0.5, 300.0, 60)
    y = 0.1 + 0.9 * np.exp(-t / 71.0)
    fit = fit_exp_decay(t, y)
    assert fit.converged
    assert fit.params["a"] == pytest.approx(0.1, abs=1e-6)
    assert fit.params["b"] == pytest.approx(0.9, abs=1e-6)
    assert fit.params["T"] == pytest.approx(71.0, rel=1e-6)


def test_exp_decay_constant_data_flagged():
    t = np.linspace(0.0, 10.0, 20)
    y = np.full_like(t, 0.37)
    fit = fit_exp_decay(t, y)
    assert not fit.converged
    assert "unidentifiable" in fit.flags
    assert fit.params["a"] == pytest.approx(0.37)
    assert fit.params["b"] == 0.0


def test_exp_decay_noise_monte_carlo():
    t = np.linspace(1.0, 250.0, 50)
    clean = 0.05 + 0.9 * np.exp(-t / 71.0)
    errors = []
    for seed in range(100):
        rng = np.random.default_rng(seed)
        fit = fit_exp_decay(t, clean + rng.normal(0.0, 0.018, len(t)))
        errors.append(abs(fit.params["T"] - 71.0) / 71.0)
    assert np.median(errors) <= 0.03


def test_damped_cos_exact_recovery():
    t = np.linspace(0.0, 120.0, 481)
    y = 0.5 + 0.45 * np.cos(2 * np.pi * 1.0 * t + 0.4) * np.exp(-t / 51.0)
    fit = fit_damped_cos(t, y)
    assert fit.converged
    assert fit.params["f"] == pytest.approx(1.0, rel=0.01)
    assert fit.params["T"] == pytest.approx(51.0, rel=0.01)
    assert fit.params["phi"] == pytest.approx(0.4, abs=1e-3)


def test_damped_cos_flat_input_flagged():
    t = np.linspace(0.0, 10.0, 50)
    fit = fit_damped_cos(t, np.full_like(t, 0.5))
    assert "unidentifiable_frequency" in fit.flags


def test_damped_cos_phase_wrapped():
    t = np.linspace(0.0, 20.0, 200)
    y = 0.5 + 0.4 * np.cos(2 * np.pi * 0.7 * t + 5.0) * np.exp(-t / 40.0)
    fit = fit_damped_cos(t, y)
    # 5.0 rad wraps to 5.0 - 2 pi
    assert fit.params["phi"] == pytest.approx(5.0 - 2 * np.pi, abs=1e-3)
    assert -np.pi <= fit.params["phi"] <= np.pi


def test_damped_cos_undersampled_raises():
    t = np.linspace(0.0, 0.4, 9)  # span < 1 period at 1 MHz
    y = 0.5 + 0.4 * np.cos(2 * np.pi * 1.0 * t)
    with pytest.raises(AliasingError):
        fit_damped_cos(t, y)


def _short_decay_cosine(seed):
    """A 40-point damped cosine over 0-10 us, decaying within 1.0-2.5 us,
    with noise sigma 0.01, and its generating parameters."""
    rng = np.random.default_rng([40, seed])
    t = np.linspace(0.0, 10.0, 40)
    p = np.array([rng.uniform(0.3, 0.7), rng.uniform(0.2, 0.5), rng.uniform(0.3, 1.5),
                  rng.uniform(-np.pi, np.pi), rng.uniform(1.0, 2.5)])
    return t, damped_cos_model(t, p) + rng.normal(0.0, 0.01, len(t)), p


@pytest.mark.parametrize("seed", range(24))
def test_damped_cos_with_a_short_decay_beats_its_generating_parameters(seed):
    # a cosine that decays within a quarter of the span: the fit ends no
    # higher than the parameters that made the trace, at an interior f and T
    t, y, p = _short_decay_cosine(seed)
    fit = fit_damped_cos(t, y)
    assert fit.rss <= float(np.sum((damped_cos_model(t, p) - y) ** 2)), (fit.params, p)
    assert fit.converged and fit.flags == ()


@pytest.mark.parametrize("seed", range(12))
def test_damped_cos_on_an_uneven_grid_beats_its_generating_parameters(seed):
    # 40 random times over 0-20 us, f up to 0.8 of the mean step's Nyquist:
    # the periodogram at the given times finds the peak that the search in f
    # starts from, where a DFT of the samples as if evenly spaced does not
    rng = np.random.default_rng([7, seed])
    t = np.sort(np.concatenate([[0.0, 20.0], rng.uniform(0.0, 20.0, 38)]))
    p = np.array([0.5, 0.4, rng.uniform(0.3, 0.8), rng.uniform(-3.0, 3.0), rng.uniform(5.0, 40.0)])
    y = damped_cos_model(t, p) + rng.normal(0.0, 0.01, len(t))
    fit = fit_damped_cos(t, y)
    assert fit.rss <= float(np.sum((damped_cos_model(t, p) - y) ** 2)), (fit.params, p)
    assert fit.converged and fit.flags == ()


def test_anticrossing_recovery():
    delta = np.concatenate([np.linspace(-25, -2, 12), np.linspace(2, 25, 12)])
    y = 0.654**2 / delta + 0.05
    fit = fit_anticrossing(delta, y)
    assert fit.params["J"] == pytest.approx(0.654, rel=0.02)
    assert fit.params["C"] == pytest.approx(0.05, abs=1e-6)
    assert fit.params["A"] == 1.0 and fit.params["B"] == 1.0


def test_anticrossing_flat_data():
    delta = np.concatenate([np.linspace(-25, -2, 12), np.linspace(2, 25, 12)])
    y = np.full_like(delta, 0.12)
    fit = fit_anticrossing(delta, y)
    assert fit.params["J"] == pytest.approx(0.0, abs=1e-6)
    assert fit.params["C"] == pytest.approx(0.12, abs=1e-9)


@pytest.mark.parametrize("delta", [[], [30.0], [-12.0, -12.0, -12.0]])
def test_anticrossing_at_one_detuning_pins_the_coupling_at_zero(delta):
    # J^2/delta + C is one number at one detuning (an AC-Stark sweep of one
    # amplitude): no slope is seen, so J stays at zero and C takes the mean
    delta = np.array(delta)
    y = np.linspace(0.1, 0.2, len(delta))
    fit = fit_anticrossing(delta, y)
    assert fit.params["J"] == 0.0
    assert fit.params["C"] == (float(np.mean(y)) if len(y) else 0.0)
    assert "coupling_at_zero" in fit.flags and fit.converged


@pytest.mark.parametrize("seed", range(5))
def test_anticrossing_is_the_line_in_one_over_delta(seed):
    # J^2/delta + C is a line in 1/delta: J is the root of its slope, C its
    # intercept, bit for bit, and the uncertainties those of the Jacobian there
    delta = np.concatenate([np.linspace(-25, -2, 12), np.linspace(2, 25, 12)])
    y = 0.654**2 / delta + 0.05 + np.random.default_rng(seed).normal(0.0, 0.004, len(delta))
    slope, intercept = fit_line(1.0 / delta, y)
    fit = fit_anticrossing(delta, y)
    assert fit.params == {"J": math.sqrt(slope), "C": intercept, "A": 1.0, "B": 1.0}
    p = np.array([math.sqrt(slope), intercept])
    cov = _covariance(anticrossing_jacobian(delta, p), fit.rss, len(delta))
    assert [fit.uncertainties[k] for k in ("J", "C")] == np.sqrt(np.diag(cov)).tolist()
    assert fit.rss == float(np.sum((anticrossing_model(delta, p) - y) ** 2))
    assert fit.converged and fit.flags == ("A_B_fixed",)


def test_anticrossing_with_a_negative_slope_pins_the_coupling_at_zero():
    delta = np.concatenate([np.linspace(-25, -2, 12), np.linspace(2, 25, 12)])
    y = -(0.3**2) / delta + 0.05
    assert fit_line(1.0 / delta, y)[0] < 0.0
    fit = fit_anticrossing(delta, y)
    assert fit.params == {"J": 0.0, "C": float(np.mean(y)), "A": 1.0, "B": 1.0}
    assert fit.converged and fit.flags == ("coupling_at_zero", "A_B_fixed")


def test_anticrossing_guard_violation():
    delta = np.linspace(-5.0, 5.0, 21)  # crosses zero
    with pytest.raises(NearResonanceError):
        fit_anticrossing(delta, delta * 0.0)


def test_rb_decay_perfect_survivals():
    m = np.array([2.0, 25.0, 100.0, 500.0, 1000.0])
    fit = fit_rb_decay(m, np.ones_like(m))
    assert fit.params["p"] >= 1.0 - 1e-9
    # constant survivals show no decay: p sits at 1, B at the asymptote and A
    # takes the rest; a finite p uncertainty (zero without residual) keeps
    # interleaved RB's error propagation finite
    assert fit.params == {"A": 0.5, "p": 1.0, "B": 0.5}
    assert fit.uncertainties["p"] == 0.0 and fit.rss == 0.0
    assert fit.converged and fit.flags == ("parameter_at_bound",)
    level = 0.9 + 1e-14 * np.array([0.0, 1.0, -1.0, 0.0, 1.0])  # constant to rounding
    fit = fit_rb_decay(m, level, asymptote=0.25)
    assert fit.params["p"] == 1.0 and fit.params["B"] == 0.25
    assert fit.params["A"] == pytest.approx(0.65, abs=1e-13)
    assert 0.0 < fit.uncertainties["p"] < 1e-15
    assert fit.converged and fit.flags == ("parameter_at_bound",)


@pytest.mark.parametrize("start", [2.0, -2.0])
def test_decay_that_drops_at_once_is_flagged_at_the_bound(start):
    # every point past the first sits at the asymptote: the best T is the
    # search's lower edge, |t0|/100 here, where b = b' exp(t0/T) and the
    # Jacobian at t0 are still finite; reported, not called converged
    t = start + np.array([0.0, 2.0, 6.0, 14.0, 30.0, 62.0])
    y = np.array([0.9, 0.25, 0.26, 0.24, 0.25, 0.25])
    fit = fit_exp_decay(t, y)
    assert not fit.converged and fit.flags == ("parameter_at_bound",)
    assert fit.params["T"] == pytest.approx(0.02, rel=1e-12)
    assert fit.params["a"] == pytest.approx(0.25, abs=0.01)
    assert all(math.isfinite(v) for v in fit.params.values())
    if start > 0:
        rb = fit_rb_decay(t, y, asymptote=0.25)
        assert rb.params["p"] == math.exp(-1.0 / fit.params["T"])
        assert not rb.converged and rb.flags == ("parameter_at_bound",)


@pytest.mark.parametrize("start", [0.0, -10.0])
def test_decay_on_the_flat_small_t_plateau_is_flagged_at_the_bound(start):
    # a spike at the first point over a flat rest: below T ~ 1 the rss is
    # flat to rounding and its slope in T is rounding noise of either sign,
    # which no longer passes for a minimum; the best T is the lower edge
    t = start + np.array([0.0, 10.0, 20.0, 30.0, 40.0])
    y = np.array([0.9, 0.2, 0.21, 0.19, 0.2])
    fit = fit_exp_decay(t, y)
    assert not fit.converged and fit.flags == ("parameter_at_bound",)
    assert fit.iterations == 0
    assert fit.params["T"] == pytest.approx(max(10.0 * math.exp(-7.0), abs(start) / 100.0),
                                            rel=1e-12)
    assert fit.params["a"] == pytest.approx(0.2, abs=1e-12)


def test_rb_decay_exact_recovery():
    m = np.array([2.0, 25.0, 50.0, 100.0, 250.0, 500.0, 750.0, 1000.0])
    s = 0.5 * 0.9988**m + 0.5
    fit = fit_rb_decay(m, s)
    assert fit.params["p"] == pytest.approx(0.9988, abs=1e-4)


def test_rb_decay_stalled_fit_serializes():
    # all-NaN survivals leave no best point inside the search interval
    m = np.array([2.0, 25.0, 50.0, 100.0])
    fit = fit_rb_decay(m, np.full(len(m), np.nan))
    assert fit.converged is False
    assert json.loads(json.dumps(fit.to_dict()))["converged"] is False


def test_rb_decay_two_qubit_asymptote_seed():
    m = np.array([2.0, 8.0, 16.0, 32.0, 64.0])
    s = 0.75 * 0.97**m + 0.25
    fit = fit_rb_decay(m, s, asymptote=0.25)
    assert fit.params["p"] == pytest.approx(0.97, abs=1e-6)
    assert fit.params["B"] == pytest.approx(0.25, abs=1e-4)


def test_fits_are_deterministic():
    t = np.linspace(1.0, 250.0, 50)
    rng = np.random.default_rng(5)
    y = 0.05 + 0.9 * np.exp(-t / 71.0) + rng.normal(0, 0.02, len(t))
    first = fit_exp_decay(t, y)
    second = fit_exp_decay(t, y)
    assert first.params == second.params
    assert first.uncertainties == second.uncertainties
    assert first.rss == second.rss


def test_monotone_improvement_from_bad_start():
    # even with noise the returned residual never exceeds the trivial
    # constant-model residual of the initialization path
    t = np.linspace(1.0, 250.0, 50)
    rng = np.random.default_rng(7)
    y = 0.05 + 0.9 * np.exp(-t / 71.0) + rng.normal(0, 0.05, len(t))
    fit = fit_exp_decay(t, y)
    assert fit.rss <= float(np.sum((y - y.mean()) ** 2))


@pytest.mark.parametrize("seed", [3, 200])
def test_covariance_is_taken_at_the_returned_parameters(seed):
    # the uncertainties belong to the point returned: the Gauss-Newton
    # covariance of the model's Jacobian there, bit for bit
    t, y, _ = _short_decay_cosine(seed)
    fit = fit_damped_cos(t, y)
    p = np.array([fit.params[k] for k in ("a", "b", "f", "phi", "T")])
    cov = _covariance(damped_cos_jacobian(t, p), fit.rss, len(t))
    assert list(fit.uncertainties.values()) == np.sqrt(np.diag(cov)).tolist()
    assert fit.rss == pytest.approx(float(np.sum((damped_cos_model(t, p) - y) ** 2)), rel=1e-12)


def test_damped_cos_of_an_undamped_trace_ends_at_the_upper_edge_of_t():
    # no decay: T ends on its search bound far beyond the span, flagged and
    # not converged, and f is that of the trace
    t = np.linspace(0.0, 20.0, 161)
    fit = fit_damped_cos(t, 0.5 + 0.45 * np.cos(2 * np.pi * 0.8 * t + 0.3))
    assert not fit.converged and fit.flags == ("parameter_at_bound",)
    assert fit.params["T"] == pytest.approx(20.0 * math.exp(20.0), rel=1e-12)
    assert fit.params["f"] == pytest.approx(0.8, rel=1e-9)
