import math

import numpy as np
import pytest

from transmon_lattice.device import zz_exact
from transmon_lattice.dynamics import (
    NoiseSpec,
    _blackman_rise,
    _frame_static,
    _propagate_sliced,
    _raising,
    evolve,
    rotation_gate,
    site_coherence,
)
from transmon_lattice.errors import (
    AliasingError, NearPoleError, ResourceLimitError, UncalibratableError,
)
from transmon_lattice.operators import SubsetSelection, assemble_hamiltonian
from transmon_lattice.cliffords import phase_transfer
from transmon_lattice.sizzle import (
    SizzleConfig,
    _echo,
    _prepared_states,
    _repeated_gate_phases,
    calibrate_cz,
    fit_phase_modulation,
    gate_duration,
    hamiltonian_tomography_pulsewidth,
    landscape_flags,
    sizzle_zz_predicted,
    sizzle_zz_predicted_for,
    sweep_drive_landscape,
    sweep_relative_phase,
)
from unitaries import _transfers, cz_unitary

CZ_PAIR = ("Q2", "Q7")  # control, target
DRIVE_FREQ = 5028.5  # 100 MHz above the upper qubit


def _config(amplitude=10.0, dphi=0.0, freq=DRIVE_FREQ, rise=50.0):
    return SizzleConfig(
        pair=CZ_PAIR, freq=freq, omega_target=amplitude, dphi=dphi, rise=rise
    )


def test_predicted_rate_zero_amplitude_is_static():
    assert sizzle_zz_predicted(
        0.5, -197.0, -196.0, 0.0, 10.0, -230.0, -100.0, 0.0, 0.0, 8.1
    ) == pytest.approx(8.1)


def test_predicted_rate_quadrature_phase_is_static():
    assert sizzle_zz_predicted(
        0.5, -197.0, -196.0, 10.0, 10.0, -230.0, -100.0, math.pi / 2.0, 0.0, 8.1
    ) == pytest.approx(8.1)


def test_predicted_rate_phase_flip_flips_drive_term():
    base = sizzle_zz_predicted(
        0.5, -197.0, -196.0, 10.0, 10.0, -230.0, -100.0, 0.0, 0.0, 0.0
    )
    flipped = sizzle_zz_predicted(
        0.5, -197.0, -196.0, 10.0, 10.0, -230.0, -100.0, math.pi, 0.0, 0.0
    )
    assert flipped == pytest.approx(-base, rel=1e-12)
    assert base != 0.0


def test_predicted_rate_symmetric_under_qubit_exchange():
    forward = sizzle_zz_predicted(
        0.5, -197.0, -194.0, 8.0, 11.0, -230.0, -100.0, 0.3, -0.2, 5.0
    )
    swapped = sizzle_zz_predicted(
        0.5, -194.0, -197.0, 11.0, 8.0, -100.0, -230.0, -0.2, 0.3, 5.0
    )
    assert forward == pytest.approx(swapped, rel=1e-12)


def test_predicted_rate_pole_guard():
    with pytest.raises(NearPoleError):
        sizzle_zz_predicted(0.5, -197.0, -196.0, 10.0, 10.0, 0.5, -100.0, 0, 0, 0.0)
    with pytest.raises(NearPoleError):
        sizzle_zz_predicted(0.5, -197.0, -196.0, 10.0, 10.0, 196.8, -100.0, 0, 0, 0.0)


def test_config_validation(device):
    with pytest.raises(NearPoleError):
        SizzleConfig(pair=CZ_PAIR, freq=4795.6, omega_target=5.0).validate_against(device)
    with pytest.raises(ValueError):
        SizzleConfig(pair=CZ_PAIR, freq=DRIVE_FREQ, omega_target=5.0, ratio=0.0)


def test_zero_amplitude_tomography_reproduces_static_zz(device):
    widths = np.linspace(0.0, 6.0, 25)
    nu, record = hamiltonian_tomography_pulsewidth(
        device, _config(amplitude=0.0, rise=0.0), widths, levels=4
    )
    zeta = zz_exact(device, CZ_PAIR)
    assert nu == pytest.approx(zeta, rel=0.02)
    assert record.data["differential_phase"][0] == pytest.approx(0.0, abs=1e-9)


def test_driven_tomography_matches_prediction_weak_drive(device):
    config = _config(amplitude=10.0)
    predicted = sizzle_zz_predicted_for(device, config)
    nu, _ = hamiltonian_tomography_pulsewidth(
        device, config, np.linspace(0.45, 3.0, 18), levels=4
    )
    assert abs(nu - predicted) / abs(predicted) <= 0.15


def test_tomography_aliasing_guard(device):
    with pytest.raises(AliasingError):
        hamiltonian_tomography_pulsewidth(
            device, _config(amplitude=10.0), np.array([0.45, 40.0, 80.0]), levels=3
        )
    with pytest.raises(ValueError):
        hamiltonian_tomography_pulsewidth(
            device, _config(amplitude=10.0), np.array([0.05, 1.0, 2.0]), levels=3
        )


def test_phase_sweep_cosine_modulation(device):
    config = _config(amplitude=10.0)
    dphis = np.linspace(0.0, 2 * math.pi, 12, endpoint=False)
    record = sweep_relative_phase(
        device, config, dphis, np.linspace(0.45, 3.0, 13), levels=3
    )
    fit = fit_phase_modulation(np.asarray(record.axis("dphi")), record.data["nu_tilde_khz"])
    assert fit["r_squared"] >= 0.99
    # amplitude and offset against the drive term and static rate
    zeta = zz_exact(device, CZ_PAIR)
    predicted_peak = sizzle_zz_predicted_for(device, config)
    drive_term = predicted_peak - zeta
    assert fit["amplitude"] == pytest.approx(drive_term, rel=0.15)
    assert fit["offset"] == pytest.approx(zeta, rel=0.15)


@pytest.mark.parametrize("n_phases", [3, 5, 16, 40])
def test_phase_modulation_matches_the_svd_least_squares_reference(n_phases):
    # the normal equations against the SVD route the fit took before
    rng = np.random.default_rng(n_phases)
    dphis = np.sort(rng.uniform(0.0, 2 * math.pi, n_phases))
    rates = 1.5 * np.cos(dphis) + 0.2 * np.sin(dphis) + 13.0 + rng.normal(0.0, 0.05, n_phases)
    fit = fit_phase_modulation(dphis, rates)
    design = np.column_stack([np.cos(dphis), np.sin(dphis), np.ones_like(dphis)])
    reference, *_ = np.linalg.lstsq(design, rates, rcond=None)
    got = [fit["amplitude"], fit["quadrature"], fit["offset"]]
    assert got == pytest.approx(list(reference), rel=1e-12, abs=1e-12 * np.max(np.abs(rates)))
    ss_res = np.sum((rates - design @ reference) ** 2)
    ss_tot = np.sum((rates - rates.mean()) ** 2)
    assert fit["r_squared"] == pytest.approx(1.0 - ss_res / ss_tot, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("phase", [0.0, 0.3])
def test_phase_modulation_of_one_repeated_phase_is_refused(phase):
    # one phase fixes no cosine and sine apart: the normal equations are singular
    with pytest.raises(ValueError, match="singular normal equations"):
        fit_phase_modulation(np.full(5, phase), np.arange(5.0))


@pytest.mark.parametrize(
    "rise, noisy, dphis, widths",
    [
        (0.0, False, np.linspace(0.0, 2 * math.pi, 16, endpoint=False), np.linspace(0.0, 3.0, 7)),
        (50.0, False, np.linspace(0.0, 2 * math.pi, 16, endpoint=False), np.linspace(0.0, 3.0, 7)),
        (0.0, True, np.array([0.0, 2.0, 4.0]), np.linspace(0.0, 1.5, 3)),
    ],
    ids=["rectangular", "ramped", "lindblad"],
)
def test_phase_sweep_matches_per_phase_tomography(device, rise, noisy, dphis, widths):
    # one echo over every phase gives each phase's rate bit for bit
    config = _config(amplitude=10.0, rise=rise)
    noise = NoiseSpec.from_device(device) if noisy else None
    record = sweep_relative_phase(device, config, dphis, widths, noise=noise, levels=3)
    per_phase = [
        hamiltonian_tomography_pulsewidth(
            device, _config(amplitude=10.0, dphi=float(dphi), rise=rise), widths,
            noise=noise, levels=3,
        )[0]
        for dphi in dphis
    ]
    assert np.array_equal(record.data["nu_tilde_khz"], per_phase)


@pytest.mark.parametrize("widths", [[1.0, 1.0, 1.0], [0.0, 0.0, 0.0], [0.0, 1.0, 1.0, 0.0]])
def test_tomography_needs_three_distinct_widths(device, widths):
    # the rate is the slope of the differential phase over the widths: the
    # tomography, the phase sweep and the CZ calibration refuse fewer than
    # 3 distinct widths before they evolve anything
    config = _config(amplitude=10.0, rise=0.0)
    for run in (
        lambda: hamiltonian_tomography_pulsewidth(device, config, widths, levels=3),
        lambda: sweep_relative_phase(device, config, [0.0, 1.0], widths, levels=3),
        lambda: calibrate_cz(device, config, levels=3, widths=widths),
    ):
        with pytest.raises(ValueError, match="need at least 3 distinct widths"):
            run()


def test_phase_sweep_builds_one_hamiltonian_and_one_decomposition(device, monkeypatch):
    # one eigh of the 16 stacked flat tops, and with ramps one more for
    # each stacked Magnus exponential of the two ramps, at any config count
    from transmon_lattice import dynamics, sizzle

    calls = {"assemble": 0, "eigh": 0}

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(sizzle, "assemble_hamiltonian", counted("assemble", assemble_hamiltonian))
    monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
    dphis = np.linspace(0.0, 2 * math.pi, 16, endpoint=False)
    for rise in (0.0, 50.0):
        calls.update(assemble=0, eigh=0)
        sweep_relative_phase(device, _config(rise=rise), dphis, np.linspace(0.0, 3.0, 7), levels=4)
        slices = 2 * 2 * dynamics.ENVELOPE_SLICES if rise else 0
        assert calls == {"assemble": 1, "eigh": 1 + slices}


def test_calibrate_cz_builds_one_hamiltonian(device, monkeypatch):
    # the tomography and the repeated-gate check share the pair Hamiltonian
    from transmon_lattice import sizzle

    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return assemble_hamiltonian(*args, **kwargs)

    monkeypatch.setattr(sizzle, "assemble_hamiltonian", counted)
    calibrate_cz(device, _config(amplitude=10.0, rise=0.0), levels=3)
    assert len(calls) == 1


@pytest.mark.parametrize("rise", [0.0, 50.0, 21.0])
def test_calibrate_cz_builds_one_echo(device, monkeypatch, rise):
    # the tomography and the repeated-gate check share one echo: one eigh
    # of the flat top, and two for each Magnus slice of the two ramps
    from transmon_lattice import dynamics

    calls = []
    eigh = np.linalg.eigh

    def counted(*args, **kwargs):
        calls.append(args)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    calibrate_cz(device, _config(amplitude=10.0, rise=rise), levels=3)
    assert len(calls) == 1 + (4 * dynamics.ENVELOPE_SLICES if rise else 0)


def test_phase_sweep_without_phases_is_a_value_error(device):
    with pytest.raises(ValueError, match="phase"):
        sweep_relative_phase(device, _config(), [], np.linspace(0.0, 3.0, 7))


def test_phase_table_echo_cancels_single_qubit_phases(device):
    # phases of |00>, |01>, |10>, |11> after one echoed 1 us pulse: the
    # echo cancels the single-qubit Stark phases, not the conditional one
    levels, config = 3, _config(amplitude=10.0)
    h0 = assemble_hamiltonian(device, SubsetSelection(config.pair, levels))
    diagonal = np.diagonal(_echo(h0, [config], None)(np.eye(h0.dim), [1.0])[0, 0])
    (p00, p01), (p10, p11) = np.angle(diagonal[[[0, 1], [levels, levels + 1]]])
    assert abs(math.remainder(0.5 * (p10 + p11 - p00 - p01), 2 * math.pi)) <= 1e-3
    assert abs(math.remainder(0.5 * (p01 + p11 - p00 - p10), 2 * math.pi)) <= 1e-3
    assert math.remainder(p11 - p10 - p01 + p00, 2 * math.pi) != 0.0


def test_landscape_flags_and_zero_row(device):
    q2 = device.qubit("Q2")
    assert landscape_flags(device, CZ_PAIR, q2.omega)  # carrier
    assert landscape_flags(device, CZ_PAIR, q2.omega + q2.alpha)  # 1-2 pole
    assert landscape_flags(device, CZ_PAIR, q2.omega + q2.alpha / 2)  # two-photon
    assert not landscape_flags(device, CZ_PAIR, DRIVE_FREQ)

    freqs = np.array([q2.omega + 2.0, DRIVE_FREQ])
    amps = np.array([0.0, 6.0])
    record = sweep_drive_landscape(
        device, CZ_PAIR, freqs, amps, width=1.0, levels=3
    )
    assert record.data["flagged"][0].all()
    assert np.isnan(record.data["differential_phase"][0]).all()
    zeta = zz_exact(device, CZ_PAIR)
    expected_phase = 2 * math.pi * zeta * 1e-3 * 1.0
    assert record.data["differential_phase"][1, 0] == pytest.approx(
        expected_phase, rel=0.02
    )


def test_landscape_quadratic_amplitude_scaling(device):
    amps = np.array([0.0, 2.0, 4.0, 6.0, 8.0])
    record = sweep_drive_landscape(
        device, CZ_PAIR, np.array([DRIVE_FREQ]), amps, width=1.0, levels=3
    )
    phases = record.data["differential_phase"][0]
    drive_part = phases - phases[0]
    nonzero = amps[1:]
    coeff = drive_part[1:] / nonzero**2
    # bilinearity of the drive term: the induced phase scales as amplitude^2
    assert np.max(np.abs(coeff - coeff.mean())) / abs(coeff.mean()) < 0.05


def test_landscape_builds_one_hamiltonian_one_decomposition_and_one_drive_per_site(
    device, monkeypatch
):
    # every unflagged cell of the benchmark grid shares one echo
    from transmon_lattice import dynamics, operators, sizzle

    calls = {"assemble": 0, "eigh": 0, "embed": 0}

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(sizzle, "assemble_hamiltonian", counted("assemble", assemble_hamiltonian))
    monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
    embed = counted("embed", operators._embed)
    for module in (operators, dynamics):
        monkeypatch.setattr(module, "_embed", embed)
    record = sweep_drive_landscape(
        device, CZ_PAIR, np.linspace(4900.0, 5300.0, 21), np.linspace(2.0, 20.0, 4), levels=4
    )
    assert 0 < record.data["flagged"][:, 0].sum() < 21
    assert calls == {"assemble": 1, "eigh": 1, "embed": 2}


def test_echo_refuses_configs_off_the_pair_or_the_first_rise(device):
    h0 = assemble_hamiltonian(device, SubsetSelection(CZ_PAIR, 3))
    swapped = SizzleConfig(pair=CZ_PAIR[::-1], freq=DRIVE_FREQ, omega_target=10.0)
    with pytest.raises(ValueError, match="pair"):
        _echo(h0, [_config(rise=0.0), swapped], None)
    # a mixed-rise batch would otherwise ramp every config with the first's rise
    with pytest.raises(ValueError, match="rise"):
        _echo(h0, [_config(rise=0.0), _config(rise=50.0)], None)


def test_gate_duration_algebra():
    assert gate_duration(math.pi, 100.0) == pytest.approx(5.0, rel=1e-12)
    assert gate_duration(math.pi, 200.0) == pytest.approx(2.5, rel=1e-12)
    assert gate_duration(math.pi / 4.0, 38.3) == pytest.approx(3.263, abs=0.005)


def test_calibrate_cz_with_supplied_rate(device):
    calibration = calibrate_cz(
        device, _config(amplitude=10.0), target_phase=math.pi, nu_tilde_khz=100.0
    )
    assert calibration.tau_g == pytest.approx(5.0, rel=0.01)
    assert calibration.residual <= 0.01
    # doubling the rate halves the duration
    double = calibrate_cz(
        device, _config(amplitude=10.0), target_phase=math.pi, nu_tilde_khz=200.0
    )
    assert double.tau_g == pytest.approx(2.5, rel=0.01)


def test_calibrate_cz_full_pipeline(device):
    config = _config(amplitude=10.0)
    calibration = calibrate_cz(
        device, config, target_phase=math.pi / 4.0, levels=3,
        widths=np.linspace(0.45, 3.0, 18),
    )
    assert calibration.residual <= 0.01
    phases = np.array(calibration.accumulated_phases)
    counts = np.array(calibration.gate_counts)
    signed = math.copysign(math.pi / 4.0, calibration.nu_tilde_khz)
    expected = np.array([math.remainder(signed * n, 2 * math.pi) for n in counts])
    assert phases == pytest.approx(expected, abs=0.03)


def test_calibrate_cz_floor(device):
    with pytest.raises(UncalibratableError):
        calibrate_cz(device, _config(), nu_tilde_khz=3.0)


@pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf])
def test_calibrate_cz_refuses_a_supplied_rate_that_is_not_finite(device, rate):
    # a nan rate passes every comparison the calibration makes, so without
    # the check it would report a nan gate as calibrated
    with pytest.raises(ValueError, match="must be finite"):
        calibrate_cz(device, _config(), nu_tilde_khz=rate)


def test_cz_unitary():
    u = cz_unitary(math.pi)
    assert np.allclose(u, np.diag([1, 1, 1, -1]))
    half = cz_unitary(math.pi / 2)
    assert half[3, 3] == pytest.approx(1j)
    # the package builds the conditional phase as its transfer matrix
    for phase in (math.pi, math.pi / 2):
        reference = _transfers(cz_unitary(phase)[None])[0]
        assert np.max(np.abs(phase_transfer({(0, 1): phase}, 2) - reference)) < 1e-12


# ------------------------------------------- echo maps against evolve()


def _echo_maps(h0, configs, widths):
    """Echo unitaries E(w), shape (configs, widths, dim, dim): the vector
    echo carries the identity's rows to the rows of E(w)^T."""
    return np.swapaxes(_echo(h0, configs, None)(np.eye(h0.dim), widths), -1, -2)


def _reference_echo(device, config, psi, width, levels):
    """[Stark(w/2), pi x pi, Stark(w/2), pi x pi] with the tones built here
    from the config: each Stark pulse is its flat top from evolve(), its
    phased drive D + D^dag passed as extra_static, between its Blackman
    ramps from _propagate_sliced, at the pulse's own times."""
    h0 = assemble_hamiltonian(device, SubsetSelection(config.pair, levels))
    pi = rotation_gate(math.pi, 0.0, levels)
    pi_pi = np.kron(pi, pi)
    tones = [(config.omega_control, config.dphi), (config.omega_target, 0.0)]
    static = _frame_static(h0, config.freq)
    # D = sum over sites of e^{-i phase} (amplitude / 2) a^dag
    d = sum(
        np.exp(-1j * phase) * (0.5 * amplitude * _raising(site, 2, levels))
        for site, (amplitude, phase) in enumerate(tones)
    )
    drive = d + d.conj().T
    half, rise = width / 2.0, config.rise * 1e-3

    def stark(psi):
        if rise > 0:
            psi = _propagate_sliced(
                static, drive, lambda t: _blackman_rise(t / rise), None, psi, 0.0, rise
            )
        psi = evolve(h0, psi, [max(half - 2.0 * rise, 0.0)], frame=config.freq,
                     extra_static=drive)[0]
        if rise > 0:
            psi = _propagate_sliced(
                static, drive, lambda t: _blackman_rise((half - t) / rise), None, psi,
                half - rise, half,
            )
        return psi

    for _ in range(2):
        psi = pi_pi @ (stark(psi) if width > 0 else psi)
    return psi


@pytest.mark.parametrize("levels", [3, 4])
@pytest.mark.parametrize("rise", [0.0, 50.0])
def test_echo_maps_match_evolve_reference(device, levels, rise):
    config = _config(amplitude=12.0, dphi=0.7, rise=rise)
    widths = np.array([0.0, 0.2, 0.45, 1.3])  # 0.2 us leaves no flat top at 50 ns
    h0 = assemble_hamiltonian(device, SubsetSelection(CZ_PAIR, levels))
    maps = _echo_maps(h0, [config], widths)
    assert maps.shape == (1, len(widths), levels**2, levels**2)
    rng = np.random.default_rng(5)
    psis = rng.normal(size=(2, levels**2)) + 1j * rng.normal(size=(2, levels**2))
    psis /= np.linalg.norm(psis, axis=1, keepdims=True)
    for echo, width in zip(maps[0], widths):
        for psi in psis:
            reference = _reference_echo(device, config, psi, width, levels)
            assert np.max(np.abs(echo @ psi - reference)) <= 1e-12


def test_echo_maps_stack_configs(device):
    # each config evolves in its own drive frequency's frame
    h0 = assemble_hamiltonian(device, SubsetSelection(CZ_PAIR, 3))
    for rise in (0.0, 50.0):
        configs = [
            _config(amplitude=amp, freq=freq, rise=rise)
            for freq, amp in ((DRIVE_FREQ, 0.0), (DRIVE_FREQ, 4.0), (4950.0, 9.0))
        ]
        stacked = _echo_maps(h0, configs, [0.5, 1.5])
        for config, maps in zip(configs, stacked):
            single = _echo_maps(h0, [config], [0.5, 1.5])[0]
            assert np.max(np.abs(maps - single)) <= 1e-13
    # the configs of one echo share its rise
    with pytest.raises(ValueError, match="an echo has one rise"):
        _echo(h0, [_config(rise=0.0), _config(rise=50.0)], None)


def test_echo_maps_reject_bad_widths(device):
    h0 = assemble_hamiltonian(device, SubsetSelection(CZ_PAIR, 3))
    for widths in ([0.5, -0.1], [0.5, math.nan], [0.5, math.inf]):
        with pytest.raises(ValueError, match="width"):
            _echo_maps(h0, [_config(rise=0.0)], widths)
    with pytest.raises(ValueError, match="ramped"):
        _echo_maps(h0, [_config(rise=50.0)], [0.1])


def test_repeated_gate_phases_match_sequential_echoes(device):
    levels = 3
    config = _config(amplitude=10.0, rise=50.0)
    tau_g, counts = 0.6, (1, 2, 3, 5)
    h0 = assemble_hamiltonian(device, SubsetSelection(CZ_PAIR, levels))
    phases = _repeated_gate_phases(_echo(h0, [config], None), tau_g, counts, levels, None)
    for n, phase in zip(counts, phases):
        target_phases = []
        for control_state in (0, 1):
            psi = _prepared_states(levels, None)[control_state]
            for _ in range(n):
                psi = _reference_echo(device, config, psi, tau_g, levels)
            coh = site_coherence(psi, 1, 2, levels)
            target_phases.append(math.atan2(coh.imag, coh.real))
        expected = target_phases[1] - target_phases[0]
        assert abs(math.remainder(phase - expected, 2 * math.pi)) <= 1e-12


# rates recorded from the per-width evolve() implementation of the echo;
# the ramped ones with its 48 Magnus slices per ramp, which land within
# 2e-9 relative of 768 slices
FROZEN_RATES_KHZ = {
    (3, 0.0): 14.230792551882733,
    (3, 50.0): 13.8284059339941,
    (4, 0.0): 14.27738342042288,
    (4, 50.0): 13.866504282245485,
}


@pytest.mark.parametrize("levels, rise", sorted(FROZEN_RATES_KHZ))
def test_tomography_rates_frozen(device, levels, rise):
    nu, _ = hamiltonian_tomography_pulsewidth(
        device, _config(amplitude=10.0, rise=rise), np.linspace(0.45, 3.0, 18),
        levels=levels,
    )
    assert nu == pytest.approx(FROZEN_RATES_KHZ[(levels, rise)], rel=1e-10)


def test_lindblad_tomography_frozen(device):
    # recorded from the per-width evolve_open implementation of the echo
    nu, record = hamiltonian_tomography_pulsewidth(
        device, _config(amplitude=10.0, rise=0.0), np.linspace(0.0, 1.5, 4),
        noise=NoiseSpec.from_device(device), levels=3,
    )
    assert nu == pytest.approx(13.645238378495375, rel=1e-12)
    # dephasing shrinks the target coherence below its closed-system value
    assert np.hypot(record.data["x_control0"][-1], record.data["y_control0"][-1]) < 0.999


def test_lindblad_ramped_tomography_matches_integrator(device):
    # DOP853 value of the per-width evolve_open echo; the Magnus-sliced
    # ramps of the decomposed echo land within 1.3e-8 relative of it
    nu, _ = hamiltonian_tomography_pulsewidth(
        device, _config(amplitude=10.0, rise=50.0), np.linspace(0.0, 1.5, 4),
        noise=NoiseSpec.from_device(device), levels=3,
    )
    assert nu == pytest.approx(13.571089474121758, rel=1e-7)


@pytest.mark.parametrize("amplitude", [1e-12, 3.5e-13])
def test_open_echo_of_a_vanishing_drive_keeps_states(device, amplitude):
    # a drive this weak beside the device's decay leaves the Liouvillian
    # nearly defective: its eig modes rebuild it only to ~3e-11, and states
    # carried by them drift from Hermiticity and unit trace by up to 8e-11,
    # so such a flat top must take _expm
    levels, noise = 3, NoiseSpec.from_device(device)
    h0 = assemble_hamiltonian(device, SubsetSelection(CZ_PAIR, levels))
    rng = np.random.default_rng(4)
    vecs = rng.normal(size=(h0.dim, 3)) + 1j * rng.normal(size=(h0.dim, 3))
    mixed = vecs @ vecs.conj().T
    states = np.concatenate([_prepared_states(levels, noise), (mixed / np.trace(mixed))[None]])
    widths = np.linspace(0.0, 3.0, 13)
    out = _echo(h0, [_config(amplitude=amplitude, rise=0.0)], noise)(states, widths)[0]
    assert np.max(np.abs(out - np.swapaxes(out.conj(), -1, -2))) <= 1e-12
    assert np.max(np.abs(np.trace(out, axis1=-2, axis2=-1) - 1.0)) <= 1e-12


def test_stacked_open_echo_equals_each_config_alone(device):
    # the rebuild check is per config: in a stack the 10 MHz flat top keeps
    # its eig modes while the 1e-12 MHz one beside it takes _expm
    levels, noise = 3, NoiseSpec.from_device(device)
    h0 = assemble_hamiltonian(device, SubsetSelection(CZ_PAIR, levels))
    configs = [_config(amplitude=amplitude, rise=0.0) for amplitude in (10.0, 1e-12)]
    states, widths = _prepared_states(levels, noise), np.linspace(0.0, 3.0, 7)
    stacked = _echo(h0, configs, noise)(states, widths)
    for config, out in zip(configs, stacked):
        alone = _echo(h0, [config], noise)(states, widths)[0]
        assert out.tobytes() == alone.tobytes()


def test_open_echo_refuses_a_side_over_the_lindblad_cap(device, monkeypatch):
    # at levels 6 the pair's density matrix has side 36, whose Liouvillian
    # eig (1296 x 1296) evolve_open refuses too; the closed echo still runs
    config, widths = _config(amplitude=10.0, rise=0.0), np.linspace(0.0, 1.5, 4)
    nu, _ = hamiltonian_tomography_pulsewidth(device, config, widths, levels=6)
    assert math.isfinite(nu)

    def decomposed(*args, **kwargs):
        raise AssertionError("refused only after a decomposition")

    monkeypatch.setattr(np.linalg, "eig", decomposed)
    monkeypatch.setattr(np.linalg, "eigh", decomposed)
    with pytest.raises(ResourceLimitError, match="side 36 > 32"):
        hamiltonian_tomography_pulsewidth(
            device, config, widths, noise=NoiseSpec.from_device(device), levels=6
        )


def test_repeated_gate_phases_under_lindblad(device):
    levels, tau_g = 3, 0.5
    config = _config(amplitude=10.0, rise=0.0)
    noise = NoiseSpec.from_device(device)
    h0 = assemble_hamiltonian(device, SubsetSelection(CZ_PAIR, levels))
    one, two = _repeated_gate_phases(
        _echo(h0, [config], noise), tau_g, (1, 2), levels, noise
    )
    _, record = hamiltonian_tomography_pulsewidth(
        device, config, [tau_g, 1.0, 1.5], noise=noise, levels=levels
    )
    assert one == pytest.approx(
        math.remainder(record.data["differential_phase"][0], 2 * math.pi), abs=1e-12
    )
    assert math.isfinite(two) and two != one
