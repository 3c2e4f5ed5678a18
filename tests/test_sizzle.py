import math

import numpy as np
import pytest

from transmon_lattice.cliffords import cz_unitary
from transmon_lattice.dynamics import (
    DriveTone,
    NoiseSpec,
    evolve,
    rotation_gate,
    site_coherence,
)
from transmon_lattice.errors import AliasingError, NearPoleError, UncalibratableError
from transmon_lattice.operators import SubsetSelection, assemble_hamiltonian
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
    sizzle_phase_table,
    sizzle_zz_predicted,
    sizzle_zz_predicted_for,
    sweep_drive_landscape,
    sweep_relative_phase,
)
from transmon_lattice.spectrum import zz_exact

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
    zeta = zz_exact(device, CZ_PAIR, levels=4)
    assert nu == pytest.approx(zeta, rel=0.02)
    assert record.data["differential_phase"][0] == pytest.approx(0.0, abs=1e-9)


def test_driven_tomography_matches_prediction_weak_drive(device):
    config = _config(amplitude=10.0)
    predicted = sizzle_zz_predicted_for(device, config, levels=4)
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
    zeta = zz_exact(device, CZ_PAIR, levels=3)
    predicted_peak = sizzle_zz_predicted_for(device, config, levels=3)
    drive_term = predicted_peak - zeta
    assert fit["amplitude"] == pytest.approx(drive_term, rel=0.15)
    assert fit["offset"] == pytest.approx(zeta, rel=0.15)


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


def test_phase_sweep_builds_one_hamiltonian_and_one_decomposition(device, monkeypatch):
    from transmon_lattice import sizzle

    calls = {"assemble": 0, "eigh": 0}

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(sizzle, "assemble_hamiltonian", counted("assemble", assemble_hamiltonian))
    monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
    dphis = np.linspace(0.0, 2 * math.pi, 16, endpoint=False)
    sweep_relative_phase(device, _config(rise=0.0), dphis, np.linspace(0.0, 3.0, 7), levels=4)
    assert calls == {"assemble": 1, "eigh": 1}


def test_phase_sweep_without_phases_is_a_value_error(device):
    with pytest.raises(ValueError, match="phase"):
        sweep_relative_phase(device, _config(), [], np.linspace(0.0, 3.0, 7))


def test_phase_table_echo_cancels_single_qubit_phases(device):
    table = sizzle_phase_table(device, _config(amplitude=10.0), 1.0, levels=3)
    assert abs(table["control_phase"]) <= 1e-3
    assert abs(table["target_phase"]) <= 1e-3
    assert table["conditional_phase"] != 0.0


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
    zeta = zz_exact(device, CZ_PAIR, levels=3)
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


def test_cz_unitary():
    u = cz_unitary(math.pi)
    assert np.allclose(u, np.diag([1, 1, 1, -1]))
    half = cz_unitary(math.pi / 2)
    assert half[3, 3] == pytest.approx(1j)


def test_default_amplitude_ratio_near_unity(device):
    from transmon_lattice.sizzle import calibrate_x_pi_amplitude, default_amplitude_ratio

    # simulated drive response is symmetric, so the X_pi ratio sits at 1
    # up to small anharmonicity differences
    ratio = default_amplitude_ratio(device, ("Q2", "Q7"))
    assert ratio == pytest.approx(1.0, abs=0.02)
    # the calibrated amplitude itself is near the two-level value
    amp = calibrate_x_pi_amplitude(device, "Q2", duration=0.05)
    assert amp == pytest.approx(10.0, rel=0.05)


# ------------------------------------------- echo maps against evolve()


def _echo_maps(h0, device, configs, widths):
    """Echo unitaries E(w), shape (configs, widths, dim, dim): the vector
    echo carries the identity's rows to the rows of E(w)^T."""
    return np.swapaxes(_echo(h0, device, configs, widths, None)(np.eye(h0.dim)), -1, -2)


def _reference_echo(device, config, psi, width, levels):
    """[Stark(w/2), pi x pi, Stark(w/2), pi x pi] from two evolve() calls
    per sequence, with the tones built here from the config."""
    h0 = assemble_hamiltonian(device, SubsetSelection(config.pair, levels))
    pi = rotation_gate(math.pi, 0.0, levels)
    pi_pi = np.kron(pi, pi)
    envelope = "blackman" if config.rise > 0 else "rectangular"
    tones = [
        DriveTone(
            target=label,
            amplitude=amplitude,
            detuning=config.freq - device.qubit(label).omega,
            phase=phase,
            envelope=envelope,
            rise=config.rise,
            duration=width / 2.0,
        )
        for label, amplitude, phase in (
            (config.control, config.omega_control, config.dphi),
            (config.target, config.omega_target, 0.0),
        )
    ] if width > 0 else []
    for _ in range(2):
        if width > 0:
            psi = evolve(
                h0, tones, psi, [width / 2.0], device=device, frame=config.freq
            )[0]
        psi = pi_pi @ psi
    return psi


@pytest.mark.parametrize("levels", [3, 4])
@pytest.mark.parametrize("rise", [0.0, 50.0])
def test_echo_maps_match_evolve_reference(device, levels, rise):
    config = _config(amplitude=12.0, dphi=0.7, rise=rise)
    widths = np.array([0.0, 0.2, 0.45, 1.3])  # 0.2 us leaves no flat top at 50 ns
    h0 = assemble_hamiltonian(device, SubsetSelection(CZ_PAIR, levels))
    maps = _echo_maps(h0, device, [config], widths)
    assert maps.shape == (1, len(widths), levels**2, levels**2)
    rng = np.random.default_rng(5)
    psis = rng.normal(size=(2, levels**2)) + 1j * rng.normal(size=(2, levels**2))
    psis /= np.linalg.norm(psis, axis=1, keepdims=True)
    for echo, width in zip(maps[0], widths):
        for psi in psis:
            reference = _reference_echo(device, config, psi, width, levels)
            assert np.max(np.abs(echo @ psi - reference)) <= 1e-12


def test_echo_maps_stack_configs(device):
    configs = [_config(amplitude=amp, rise=0.0) for amp in (0.0, 4.0, 9.0)]
    h0 = assemble_hamiltonian(device, SubsetSelection(CZ_PAIR, 3))
    stacked = _echo_maps(h0, device, configs, [0.5, 1.5])
    for config, maps in zip(configs, stacked):
        assert np.max(np.abs(maps - _echo_maps(h0, device, [config], [0.5, 1.5])[0])) <= 1e-13


def test_echo_maps_reject_bad_widths(device):
    h0 = assemble_hamiltonian(device, SubsetSelection(CZ_PAIR, 3))
    for widths in ([0.5, -0.1], [0.5, math.nan], [0.5, math.inf]):
        with pytest.raises(ValueError, match="width"):
            _echo_maps(h0, device, [_config(rise=0.0)], widths)
    with pytest.raises(ValueError, match="ramped"):
        _echo_maps(h0, device, [_config(rise=50.0)], [0.1])


def test_repeated_gate_phases_match_sequential_echoes(device):
    levels = 3
    config = _config(amplitude=10.0, rise=50.0)
    tau_g, counts = 0.6, (1, 2, 3, 5)
    phases = _repeated_gate_phases(device, config, tau_g, counts, levels, None)
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


# rates recorded from the per-width evolve() implementation of the echo
FROZEN_RATES_KHZ = {
    (3, 0.0): 14.230792551882733,
    (3, 50.0): 13.828383436572516,
    (4, 0.0): 14.27738342042288,
    (4, 50.0): 13.866482376509282,
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
    # DOP853 value of the per-width evolve_open echo; the 24-slice ramp
    # rule of the decomposed echo moves it by ~1e-6 relative
    nu, _ = hamiltonian_tomography_pulsewidth(
        device, _config(amplitude=10.0, rise=50.0), np.linspace(0.0, 1.5, 4),
        noise=NoiseSpec.from_device(device), levels=3,
    )
    assert nu == pytest.approx(13.571089474121758, rel=1e-5)


def test_repeated_gate_phases_under_lindblad(device):
    levels, tau_g = 3, 0.5
    config = _config(amplitude=10.0, rise=0.0)
    noise = NoiseSpec.from_device(device)
    one, two = _repeated_gate_phases(device, config, tau_g, (1, 2), levels, noise)
    _, record = hamiltonian_tomography_pulsewidth(
        device, config, [tau_g, 1.0, 1.5], noise=noise, levels=levels
    )
    assert one == pytest.approx(
        math.remainder(record.data["differential_phase"][0], 2 * math.pi), abs=1e-12
    )
    assert math.isfinite(two) and two != one
