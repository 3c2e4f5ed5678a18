import math
import tracemalloc

import numpy as np
import pytest

from transmon_lattice.device import CouplingGraph, DeviceSpec, TransmonParams
from transmon_lattice.dynamics import (
    NoiseSpec,
    _blackman_rise,
    _dissipators,
    _drive_terms,
    _frame_static,
    _modes,
    _propagate_sliced,
    _raising,
    _static_run,
    echo_sequence,
    evolve,
    rotation_gate,
    site_populations,
)
from transmon_lattice.errors import ContractViolation, ResourceLimitError
from transmon_lattice.fitting import fit_damped_cos, fit_exp_decay
from transmon_lattice.operators import (
    LatticeOperator, SubsetSelection, assemble_hamiltonian, basis_occupations,
)
from transmon_lattice.protocols import (
    _rng_for,
    extract_anticrossing,
    protocol_acstark_ramsey,
    protocol_echo,
    protocol_ramsey,
    protocol_swap,
    protocol_t1,
    sample_binary,
    stark_amplitude_for_shift,
    stark_shift,
    swap_resonance,
)


def _single(omega=4800.0, alpha=-200.0, label="A", t1=50.0, t2r=40.0, t2e=60.0):
    q = TransmonParams.from_frequency(label, omega, alpha, t1, t2r, t2e)
    return DeviceSpec(1, 1, (q,), couplings=CouplingGraph({}))


def _pair(delta=12.0, j=0.654, omega=4800.0, alpha=-200.0):
    qa = TransmonParams.from_frequency("A", omega, alpha, 50.0, 40.0, 60.0)
    qb = TransmonParams.from_frequency("B", omega + delta, alpha, 50.0, 40.0, 60.0)
    return DeviceSpec(1, 2, (qa, qb), couplings=CouplingGraph({("A", "B"): j}))


def test_drive_tone_validation():
    # evolve and the echo take their drives from one helper, which
    # refuses an amplitude that is negative or not finite
    h0 = assemble_hamiltonian(_pair(), SubsetSelection(("A", "B"), 2))
    psi0 = np.array([1.0, 0.0, 0.0, 0.0])
    for amplitude in (-1.0, math.nan, math.inf):
        message = f"drive amplitude {amplitude} MHz must be finite and non-negative"
        with pytest.raises(ValueError, match=message):
            evolve(h0, psi0, [0.0, 1.0], frame=4800.0, amplitudes=[amplitude, 0.0])
        with pytest.raises(ValueError, match=message):
            echo_sequence(h0, [4800.0], [[0.0, amplitude]], [[0.0, 0.0]], 0.0, np.eye(4))
    with pytest.raises(ValueError, match=r"amplitudes \(1,\) must hold one per site"):
        evolve(h0, psi0, [0.0, 1.0], frame=4800.0, amplitudes=[1.0])


def test_blackman_envelope_shape():
    # the echo's ramps: 0 where the tone starts, 1 at the flat top, rising between
    assert _blackman_rise(0.0) == pytest.approx(0.0, abs=1e-12)
    assert _blackman_rise(1.0) == pytest.approx(1.0, abs=1e-12)
    values = [_blackman_rise(x) for x in np.linspace(0.0, 1.0, 101)]
    assert np.all(np.diff(values) > 0.0)


def test_noise_spec_rejects_negative_rates():
    with pytest.raises(ContractViolation):
        NoiseSpec(relaxation={"A": -0.1})


def test_noise_spec_from_device_echo_reference(device):
    noise = NoiseSpec.from_device(device, ("Q1",))
    q1 = device.qubit("Q1")
    assert noise.rate("relaxation", "Q1") == pytest.approx(1.0 / q1.t1)
    assert noise.rate("dephasing", "Q1") == pytest.approx(1.0 / q1.t2e - 0.5 / q1.t1)
    # jitter sized so the Ramsey envelope reaches 1/e at T2R
    assert noise.rate("jitter_khz", "Q1") == pytest.approx(0.779, abs=0.01)


def test_eigenstate_is_stationary():
    dev = _pair(delta=12.0, j=0.654)
    subset = SubsetSelection(("A", "B"), 3)
    h0 = assemble_hamiltonian(dev, subset)
    _, vecs = np.linalg.eigh(h0.to_dense())
    psi0 = vecs[:, 4]
    times = np.linspace(0.0, 2.0, 21)
    states = evolve(h0, psi0, times, frame=4800.0)
    pops = np.abs(states) ** 2
    assert np.max(np.abs(pops - pops[0])) < 1e-10


def test_resonant_rabi_oracle():
    dev = _single()
    subset = SubsetSelection(("A",), 2)
    h0 = assemble_hamiltonian(dev, subset)
    t = np.linspace(0.0, 1.0, 101)
    states = evolve(h0, np.array([1.0, 0.0]), t, frame=4800.0, amplitudes=[1.0])
    p0 = np.abs(states[:, 0]) ** 2
    assert p0 == pytest.approx(np.cos(np.pi * t) ** 2, abs=1e-8)
    assert p0[50] < 1e-12  # full flip at 0.5 us for Omega = 1 MHz


def _sigma_x_pair():
    """A two-level pair at 4800 and 4812 MHz with a static 0.3 MHz sigma_x
    on A: a term that changes the excitation number."""
    n = np.diag([0.0, 1.0])
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    matrix = 4800.0 * np.kron(n, np.eye(2)) + 4812.0 * np.kron(np.eye(2), n)
    return LatticeOperator(matrix + 0.3 * np.kron(x, np.eye(2)), ("A", "B"), 2)


def test_a_term_that_rotates_in_the_frame_is_refused():
    # the engine steps only frames where every term is static: a term that
    # changes the excitation number by one rotates at the frame frequency,
    # in any frame but frame 0
    h0 = _sigma_x_pair()
    psi0 = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    rho0 = np.outer(psi0, psi0)
    t = np.linspace(0.0, 1.0, 11)
    message = "changes the excitation number rotates at 4800 MHz"
    with pytest.raises(ValueError, match=message):
        evolve(h0, psi0, t, frame=4800.0)
    with pytest.raises(ValueError, match=message):
        evolve(h0, rho0, t, frame=4800.0, noise=NoiseSpec())
    # in frame 0 (the lab frame) it is static: the states are those of the
    # absolute Hamiltonian, exp(-2 pi i H t) psi0
    energies, vectors = np.linalg.eigh(h0.matrix)
    expected = np.array(
        [vectors @ (np.exp(-2j * np.pi * energies * x) * (vectors.conj().T @ psi0)) for x in t]
    )
    states = evolve(h0, psi0, t, frame=0.0)
    assert np.max(np.abs(states - expected)) <= 1e-9
    rhos = evolve(h0, rho0, t, frame=0.0, noise=NoiseSpec())
    assert np.max(np.abs(rhos - np.einsum("ti,tj->tij", expected, expected.conj()))) <= 1e-9


def test_excitation_number_conserved_without_drives():
    dev = _pair(delta=12.0, j=0.654)
    subset = SubsetSelection(("A", "B"), 3)
    h0 = assemble_hamiltonian(dev, subset)
    psi0 = np.zeros(9, dtype=complex)
    psi0[3] = 1.0  # single excitation
    states = evolve(h0, psi0, np.linspace(0, 1.5, 16), frame=4806.0)
    totals = basis_occupations(len(h0.sites), h0.levels).sum(axis=1)
    for state in states:
        weight_outside = np.sum(np.abs(state[totals != 1]) ** 2)
        assert weight_outside < 1e-20


def test_open_t1_decay_closed_form():
    dev = _single()
    subset = SubsetSelection(("A",), 2)
    h0 = assemble_hamiltonian(dev, subset)
    noise = NoiseSpec(relaxation={"A": 1.0 / 50.0})
    rho0 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
    t = np.linspace(0.0, 120.0, 25)
    rhos = evolve(h0, rho0, t, frame=4800.0, noise=noise)
    p1 = np.real(rhos[:, 1, 1])
    assert p1 == pytest.approx(np.exp(-t / 50.0), abs=1e-9)
    traces = np.real(np.trace(rhos, axis1=1, axis2=2))
    assert np.max(np.abs(traces - 1.0)) < 1e-8


def test_open_pure_dephasing_closed_form():
    dev = _single()
    subset = SubsetSelection(("A",), 2)
    h0 = assemble_hamiltonian(dev, subset)
    tphi = 30.0
    noise = NoiseSpec(dephasing={"A": 1.0 / tphi})
    rho0 = np.full((2, 2), 0.5, dtype=complex)
    t = np.linspace(0.0, 60.0, 13)
    rhos = evolve(h0, rho0, t, frame=4800.0, noise=noise)
    coherence = np.abs(rhos[:, 0, 1])
    assert coherence == pytest.approx(0.5 * np.exp(-t / tphi), abs=1e-9)


def test_open_rejects_bad_density_matrix():
    dev = _single()
    h0 = assemble_hamiltonian(dev, SubsetSelection(("A",), 2))
    noise = NoiseSpec()
    with pytest.raises(ContractViolation):
        evolve(h0, np.diag([0.7, 0.7]).astype(complex), [0.0, 1.0], frame=4800.0, noise=noise)
    with pytest.raises(ContractViolation):
        bad = np.array([[1.2, 0], [0, -0.2]], dtype=complex)
        evolve(h0, bad, [0.0, 1.0], frame=4800.0, noise=noise)
    rho0 = np.diag([0.0, 1.0]).astype(complex)
    for grid in ([], [1.0, 0.5]):
        with pytest.raises(ValueError, match="t_grid"):
            evolve(h0, rho0, grid, frame=4800.0, noise=noise)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("noise", [None, NoiseSpec()], ids=["closed", "open"])
def test_evolve_refuses_a_time_that_is_not_finite(bad, noise):
    h0 = assemble_hamiltonian(_single(), SubsetSelection(("A",), 2))
    state = np.array([1.0, 0.0]) if noise is None else np.diag([1.0, 0.0])
    for grid in ([0.0, bad, 1.0], [0.0, 1.0, bad], [bad]):
        with pytest.raises(ValueError, match=f"t_grid times must be finite, got {bad}"):
            evolve(h0, state, grid, frame=4800.0, noise=noise)


def _drive(h0, amplitude):
    """D + D^dag of a tone of ``amplitude`` MHz at phase 0 on site A, with
    D = (Omega/2) a^dag: the drive _propagate_sliced takes."""
    half = 0.5 * amplitude * _raising(h0.sites.index("A"), len(h0.sites), h0.levels)
    return half + half.conj().T


def test_open_integrator_without_noise_is_the_closed_state():
    # in a common frame the exchange term is static, so both evolutions
    # diagonalize one generator (eig of the Liouvillian, eigh of H)
    dev = _pair(delta=2.0, j=0.654)
    h0 = assemble_hamiltonian(dev, SubsetSelection(("A", "B"), 2))
    psi0 = np.array([0.6, 0.0, 0.8j, 0.0], dtype=complex)
    t = np.linspace(0.0, 0.5, 6)
    kwargs = dict(frame=4801.0)
    states = evolve(h0, psi0, t, **kwargs)
    rhos = evolve(h0, np.outer(psi0, psi0.conj()), t, noise=NoiseSpec(), **kwargs)
    expected = np.einsum("ti,tj->tij", states, states.conj())
    assert np.max(np.abs(rhos - expected)) <= 1e-8


def test_a_grid_at_t_zero_returns_the_initial_state_exactly():
    h0 = assemble_hamiltonian(_pair(), SubsetSelection(("A", "B"), 2))
    psi0 = np.array([0.6, 0.0, 0.8j, 0.0])
    kwargs = dict(frame=4794.0, amplitudes=[3.0, 0.5])
    states = evolve(h0, psi0, [0.0, 0.0], **kwargs)
    assert np.array_equal(states, [psi0, psi0])
    rho0 = np.outer(psi0, psi0.conj())
    noise = NoiseSpec(relaxation={"A": 0.5})
    assert np.array_equal(evolve(h0, rho0, [0.0], noise=noise, **kwargs), [rho0])
    # beside later times too, a time of 0 is the state itself
    assert np.array_equal(evolve(h0, psi0, [0.0, 0.4], **kwargs)[0], psi0)
    assert np.array_equal(evolve(h0, rho0, [0.0, 0.4], noise=noise, **kwargs)[0], rho0)


@pytest.mark.parametrize(
    "noise", [None, NoiseSpec(relaxation={"A": 0.5}, dephasing={"B": 0.2})], ids=["closed", "open"]
)
def test_zero_amplitudes_evolve_as_no_drive_bit_for_bit(noise):
    # the amplitude-0 rows of a swap chevron evolve with every tone at 0
    h0 = assemble_hamiltonian(_pair(delta=2.0), SubsetSelection(("A", "B"), 3))
    psi0 = np.zeros(9, dtype=complex)
    psi0[3] = 1.0
    state = psi0 if noise is None else np.outer(psi0, psi0.conj())
    t = np.linspace(0.0, 2.0, 21)
    undriven = evolve(h0, state, t, frame=4790.0, noise=noise)
    zero = evolve(h0, state, t, frame=4790.0, amplitudes=[0.0, 0.0], noise=noise)
    assert np.array_equal(zero, undriven)
    assert zero.tobytes() == undriven.tobytes()


def test_open_ramp_takes_the_sliced_path():
    # a Blackman ramp of a tone in the frame at the qubit frequency, up and
    # down: at zero rates the open slices must give the closed state
    dev = _single()
    h0 = assemble_hamiltonian(dev, SubsetSelection(("A",), 3))
    static = _frame_static(h0, 4800.0)
    drive = _drive(h0, 2.0)
    psi = np.array([1.0, 0.0, 0.0], dtype=complex)
    rho = np.outer(psi, psi.conj()).reshape(-1)
    for left, envelope in ((0.0, lambda t: _blackman_rise(t / 0.1)),
                           (0.4, lambda t: _blackman_rise((0.5 - t) / 0.1))):
        psi = _propagate_sliced(static, drive, envelope, None, psi, left, left + 0.1)
        rho = _propagate_sliced(static, drive, envelope, [], rho, left, left + 0.1)
        assert np.max(np.abs(rho.reshape(3, 3) - np.outer(psi, psi.conj()))) <= 1e-11
    assert abs(psi[0]) ** 2 < 0.9  # the tone did drive the qubit


# DOP853 (rtol 1e-10, atol 1e-12) values of the driven open pair below, at
# DRIVEN_OPEN_TIMES: the four populations and <1,0|rho|0,0> in the qubit
# frame; a tighter DOP853 run moved them by < 5e-11
DRIVEN_OPEN_TIMES = (0.0, 0.05, 0.15, 0.4, 0.65, 0.9, 1.2)
DRIVEN_OPEN_POPULATIONS = np.array([
    [3.600000000000e-01, 0.000000000000e+00, 6.400000000000e-01, 0.000000000000e+00],
    [3.757304495964e-01, 2.515875446008e-02, 5.991107959435e-01, 0.000000000000e+00],
    [4.250587451329e-01, 1.442478671483e-01, 4.302355337281e-01, 4.578539907853e-04],
    [4.439845641686e-01, 1.998537757407e-01, 3.470505379489e-01, 9.111122141844e-03],
    [7.512074294550e-01, 4.033037357106e-02, 2.038116030656e-01, 4.650593908374e-03],
    [7.629623643039e-01, 4.522795078108e-02, 1.885081549453e-01, 3.301529969701e-03],
    [7.937897711206e-01, 2.976824482299e-02, 1.738707499307e-01, 2.571234125737e-03],
])
DRIVEN_OPEN_COHERENCE = np.array([
    0.000000000000 + 0.480000000000j, -0.002039979136 + 0.464408727083j,
    -0.041617124883 + 0.401249381847j, 0.314086460843 + 0.151878046592j,
    0.233560076458 - 0.181685331581j, 0.252228287201 - 0.141996313982j,
    0.277265556942 - 0.032912255848j,
])


def _driven_open_pair(monkeypatch, frame, slices):
    # a 4 MHz tone 6 MHz below qubit A and 8 MHz below B, on from 0.1 to
    # 0.7 us with 100 ns Blackman ramps: idle, ramp up, flat top, ramp down
    # and idle again, each ramp split at the recorded time inside it.  In
    # the tone's frame the exchange term and the tone are static, so
    # evolve takes the idle and flat segments and _propagate_sliced
    # the ramps.  The split falls at each ramp's midpoint, and each half
    # takes half the ramp's slices: a ramp steps the edges it has in the echo
    from transmon_lattice import dynamics

    monkeypatch.setattr(dynamics, "ENVELOPE_SLICES", slices // 2)
    dev = _pair(delta=2.0, j=0.654)
    h0 = assemble_hamiltonian(dev, SubsetSelection(("A", "B"), 2))
    noise = NoiseSpec(relaxation={"A": 1 / 2.0, "B": 1 / 3.0}, dephasing={"B": 1 / 5.0})
    collapse = _dissipators(h0.sites, h0.levels, noise)
    static, drive = _frame_static(h0, frame), _drive(h0, 4.0)
    psi0 = np.array([0.6, 0.0, 0.8j, 0.0])
    rho = np.outer(psi0, psi0.conj())

    def ramp(rho, envelope, left, right):
        moved = _propagate_sliced(static, drive, envelope, collapse, rho.reshape(-1), left, right)
        return moved.reshape(rho.shape)

    def up(t):
        return _blackman_rise((t - 0.1) / 0.1)

    def down(t):
        return _blackman_rise((0.7 - t) / 0.1)

    *rhos, rho = evolve(h0, rho, [0.0, 0.05, 0.1], frame, noise=noise)
    rhos.append(ramp(rho, up, 0.1, 0.15))
    rho = ramp(rhos[-1], up, 0.15, 0.2)
    rhos.append(evolve(h0, rho, [0.2], frame, [4.0, 0.0], noise)[0])
    rho = evolve(h0, rhos[-1], [0.2], frame, [4.0, 0.0], noise)[0]
    rhos.append(ramp(rho, down, 0.6, 0.65))
    rho = ramp(rhos[-1], down, 0.65, 0.7)
    rhos.extend(evolve(h0, rho, [0.2, 0.5], frame, noise=noise))
    rhos = np.array(rhos)
    return np.concatenate(
        [np.diagonal(rhos, axis1=1, axis2=2).real, rhos[:, 2:3, 0]], axis=1
    )


@pytest.mark.parametrize("frame", [4794.0], ids=["tone-frame"])
def test_driven_open_pair_matches_recorded_dop853(monkeypatch, frame):
    # 1e-7 on every recorded value; the coherence <1,0|rho|0,0> turns from
    # the qubit frame into the tone's by exp(-2 pi i 6 t)
    from transmon_lattice.dynamics import ENVELOPE_SLICES

    values = _driven_open_pair(monkeypatch, frame, ENVELOPE_SLICES)
    times = np.array(DRIVEN_OPEN_TIMES)
    coherence = DRIVEN_OPEN_COHERENCE * np.exp(-2j * np.pi * 6.0 * times)
    recorded = np.concatenate([DRIVEN_OPEN_POPULATIONS, coherence[:, None]], axis=1)
    assert np.max(np.abs(values - recorded)) <= 1e-7
    # halving every slice moves the result by less than the gate
    halved = _driven_open_pair(monkeypatch, frame, 2 * ENVELOPE_SLICES)
    assert np.max(np.abs(halved - values)) <= 1e-7


def test_weak_drive_beside_a_decaying_site_stays_a_state():
    # a 1e-12 MHz tone on A beside a decaying B makes the Liouvillian
    # nearly defective, so that its eig modes no longer rebuild it; the
    # static generator of evolve and the Magnus slices of a Blackman
    # ramp alike must still match the undriven evolution
    dev = _pair(delta=0.0, j=0.0)
    h0 = assemble_hamiltonian(dev, SubsetSelection(("A", "B"), 2))
    noise = NoiseSpec(relaxation={"B": 1.0})
    psi0 = np.array([0.5, 0.5, 0.5j, 0.5])
    rho0 = np.outer(psi0, psi0.conj())
    t = np.linspace(0.0, 0.3, 4)
    undriven = evolve(h0, rho0, t, frame=4800.0, noise=noise)
    driven = evolve(h0, rho0, t, frame=4800.0, amplitudes=[1e-12, 0.0], noise=noise)
    assert np.max(np.abs(driven - undriven)) <= 1e-10
    collapse = _dissipators(h0.sites, h0.levels, noise)
    ramped = _propagate_sliced(
        _frame_static(h0, 4800.0), _drive(h0, 1e-12), lambda t: _blackman_rise(t / 0.05),
        collapse, rho0.reshape(-1), 0.0, 0.05,
    )
    undriven = evolve(h0, rho0, [0.05], frame=4800.0, noise=noise)[0]
    assert np.max(np.abs(ramped.reshape(4, 4) - undriven)) <= 1e-10


def test_evolve_caps_the_density_matrix_side():
    dev = _pair()
    h0 = assemble_hamiltonian(dev, SubsetSelection(("A", "B"), 6))  # side 36
    rho0 = np.zeros((36, 36), dtype=complex)
    rho0[0, 0] = 1.0
    with pytest.raises(ResourceLimitError, match="36"):
        evolve(h0, rho0, [0.0, 1.0], frame=4800.0, noise=NoiseSpec())


def test_stacked_liouvillian_equals_per_matrix_kron_build():
    from transmon_lattice.dynamics import _dissipators, _liouvillian
    from transmon_lattice.operators import _embed, destroy, number

    def per_matrix(h, collapse):
        eye = np.eye(len(h))
        lv = -2j * np.pi * (np.kron(h, eye) - np.kron(eye, h.T))
        for rate, op in collapse:
            opd = op.conj().T
            lv += rate * (
                np.kron(op, op.conj())
                - 0.5 * np.kron(opd @ op, eye)
                - 0.5 * np.kron(eye, (opd @ op).T)
            )
        return lv

    # relaxation through the lowering operator, then dephasing through the
    # number operator at twice its rate, site by site
    noise = NoiseSpec.from_device(_pair())
    collapse = [
        (rate, _embed(op, k, 2, 3))
        for k, label in enumerate(("A", "B"))
        for rate, op in ((noise.relaxation[label], destroy(3)),
                         (2.0 * noise.dephasing[label], number(3)))
    ]
    dissipators = _dissipators(("A", "B"), 3, noise)
    assert len(dissipators) == len(collapse) == 4
    rng = np.random.default_rng(11)
    hs = rng.normal(size=(3, 9, 9)) + 1j * rng.normal(size=(3, 9, 9))
    hs = hs + np.swapaxes(hs.conj(), -1, -2)
    stacked = _liouvillian(hs, dissipators)
    assert stacked.shape == (3, 81, 81)
    for h, lv in zip(hs, stacked):
        assert np.array_equal(lv, per_matrix(h, collapse))
    assert np.array_equal(_liouvillian(hs[0], dissipators), per_matrix(hs[0], collapse))


def test_ramsey_envelope_t2_from_rates():
    # T1 = 71 us with Tphi chosen so 1/T2 = 1/(2 T1) + 1/Tphi = 1/51
    dev = _single(t1=71.0, t2r=51.0, t2e=51.0)
    tphi = 1.0 / (1.0 / 51.0 - 0.5 / 71.0)
    noise = NoiseSpec(relaxation={"A": 1.0 / 71.0}, dephasing={"A": 1.0 / tphi})
    record = protocol_ramsey(
        dev, "A", np.linspace(0.0, 120.0, 241), detuning=0.25, noise=noise
    )
    fit = fit_damped_cos(record.axis("delay"), record.data["p_excited"])
    assert fit.params["T"] == pytest.approx(51.0, rel=0.02)


def test_protocol_t1_recovers_injected_time():
    dev = _single(t1=126.0, t2r=100.0, t2e=120.0)
    noise = NoiseSpec(relaxation={"A": 1.0 / 126.0})
    record = protocol_t1(dev, "A", np.linspace(0.0, 400.0, 60), noise=noise)
    fit = fit_exp_decay(record.axis("delay"), record.data["p_excited"])
    assert fit.params["T"] == pytest.approx(126.0, rel=0.03)


def test_protocol_ramsey_programmed_detuning():
    dev = _single()
    noise = NoiseSpec()
    record = protocol_ramsey(
        dev, "A", np.linspace(0.0, 8.0, 81), detuning=1.0, noise=noise
    )
    fit = fit_damped_cos(record.axis("delay"), record.data["p_excited"])
    assert fit.params["f"] == pytest.approx(1.0, rel=0.01)


def test_protocol_ramsey_per_shot_jitter_envelope():
    dev = _single()
    sigma_khz = 50.0
    noise = NoiseSpec(jitter_khz={"A": sigma_khz})
    delays = np.linspace(0.0, 10.0, 51)
    record = protocol_ramsey(dev, "A", delays, detuning=1.0, noise=noise)
    sigma = sigma_khz * 1e-3
    expected = 0.5 + 0.5 * np.cos(2 * np.pi * 1.0 * delays) * np.exp(
        -0.5 * (2 * np.pi * sigma * delays) ** 2
    )
    assert record.data["p_excited"] == pytest.approx(expected, abs=1e-9)


def test_echo_cancels_quasistatic_jitter():
    dev = _single(t1=80.0, t2r=30.0, t2e=60.0)
    noise = NoiseSpec.from_device(dev, ("A",))
    delays = np.linspace(0.0, 150.0, 40)
    record = protocol_echo(dev, "A", delays, noise=noise)
    fit = fit_exp_decay(record.axis("delay"), record.data["p_excited"])
    assert fit.params["T"] == pytest.approx(60.0, rel=0.02)


def _per_delay_echo(device, qubit, delays, noise, levels):
    """<0|rho|1> of the Hahn echo from two evolve calls per delay,
    with the pi pulse between them and none after."""
    h0 = assemble_hamiltonian(device, SubsetSelection((qubit,), levels))
    frame = device.qubit(qubit).omega
    psi = rotation_gate(math.pi / 2.0, math.pi / 2.0, levels)[:, 0]
    pi = rotation_gate(math.pi, 0.0, levels)
    out = []
    for tau in delays:
        rho = np.outer(psi, psi.conj())
        if tau > 0:
            rho = evolve(h0, rho, [tau / 2.0], frame, noise=noise)[0]
            rho = pi @ rho @ pi.conj().T
            rho = evolve(h0, rho, [tau / 2.0], frame, noise=noise)[0]
        out.append(rho[0, 1])
    return np.array(out)


@pytest.mark.parametrize("levels", [2, 3])
def test_echo_equals_two_evolutions_per_delay(device, levels):
    noise = NoiseSpec.from_device(device, ("Q2",))
    delays = np.linspace(0.0, 150.0, 40)
    record = protocol_echo(device, "Q2", delays, levels=levels)
    expected = 0.5 + np.abs(_per_delay_echo(device, "Q2", delays, noise, levels))
    assert np.max(np.abs(record.data["p_excited"] - expected)) <= 1e-12


def test_echo_decomposes_one_liouvillian(device, monkeypatch):
    # at the command line's 40 default delays, two evolve calls per
    # delay took 78 eig calls of the same Liouvillian
    calls = []
    eig = np.linalg.eig

    def counted(*args, **kwargs):
        calls.append(args)
        return eig(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eig", counted)
    protocol_echo(device, "Q2", np.linspace(0.0, 150.0, 40))
    assert len(calls) == 1


def _traced(call):
    """call()'s result, then the peak of the memory allocated during it and
    the memory still held after it, in bytes above the start, by tracemalloc
    (which traces numpy's arrays)."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = call()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    return out, peak - start, held - start


def _drive_stack(device, levels, sets):
    """Q2,Q7 at ``levels`` and its frame Hamiltonian at 5028.5 MHz plus
    each of ``sets`` two-tone drives, as a stack (sets, dim, dim)."""
    h0 = assemble_hamiltonian(device, SubsetSelection(("Q2", "Q7"), levels))
    amplitudes = np.column_stack([np.linspace(2.0, 20.0, sets), np.linspace(1.0, 10.0, sets)])
    return h0, amplitudes, _frame_static(h0, 5028.5) + _drive_terms(
        amplitudes, np.zeros((sets, 2)), levels)


# The memory guards count in stacks, the size of the (sets, n, n) complex
# array in question, so that they hold at any allocator.  Each held one more
# stack (or more) before the decompositions kept each stack once.

def test_closed_static_run_holds_one_eigenbasis(device):
    _, _, h = _drive_stack(device, 4, 32)
    stack, rows = h.nbytes, np.eye(h.shape[-1], dtype=complex)[:1]
    _, peak, _ = _traced(lambda: _static_run(h, None)(rows, [0.5]))
    assert peak <= 1.5 * stack


def test_open_static_run_holds_three_liouvillian_stacks(device):
    h0, _, h = _drive_stack(device, 3, 8)
    collapse = _dissipators(h0.sites, 3, NoiseSpec.from_device(device))
    stack, rows = len(h) * h0.dim**4 * 16, np.eye(h0.dim**2, dtype=complex)[:1]
    _, peak, _ = _traced(lambda: _static_run(h, collapse)(rows, [0.5]))
    assert peak <= 3.5 * stack


def test_closed_echo_holds_its_flat_tops_and_their_eigenbasis(device):
    h0, amplitudes, h = _drive_stack(device, 4, 32)
    stack, frames = h.nbytes, np.linspace(4950.0, 5100.0, len(h))
    states = np.eye(h0.dim, dtype=complex)[:2]
    _, peak, _ = _traced(lambda: echo_sequence(
        h0, frames, amplitudes, np.zeros_like(amplitudes), 0.0, np.eye(h0.dim))(states, [1.0]))
    assert peak <= 3.0 * stack


def test_open_static_run_keeps_the_liouvillian_of_its_fallback_only(device):
    h0, amplitudes, _ = _drive_stack(device, 3, 8)
    amplitudes[3] = (1e-12, 0.0)
    h = _frame_static(h0, 5028.5) + _drive_terms(amplitudes, np.zeros((8, 2)), 3)
    collapse = _dissipators(h0.sites, 3, NoiseSpec.from_device(device))
    # the weak drive's modes alone miss its Liouvillian by over 1e-12
    assert np.flatnonzero(_modes(h, collapse)[3] > 1e-12).tolist() == [3]
    liouvillian = h0.dim**4 * 16
    run, _, held = _traced(lambda: _static_run(h, collapse))
    # right and left of every generator, and one Liouvillian
    assert held <= 2 * len(h) * liouvillian + 1.5 * liouvillian
    rho = np.zeros((1, h0.dim**2), dtype=complex)
    rho[0, 0] = 1.0
    moved = run(rho, [0.5])[3, 0, 0].reshape(h0.dim, h0.dim)
    assert abs(np.trace(moved) - 1.0) <= 1e-12


def test_echo_sequence_refuses_tones_it_cannot_play(device):
    # one amplitude and one phase per set and site
    h0 = assemble_hamiltonian(device, SubsetSelection(("Q2", "Q7"), 3))
    pulse = np.eye(h0.dim)
    for amplitudes, phases in (([[5.0]], [[0.0]]), ([[5.0, 3.0]], [[0.0, 0.0]] * 2),
                               ([[5.0, 3.0]] * 2, [[0.0, 0.0]] * 2)):
        with pytest.raises(ValueError, match=r"shape \(sets, sites\) = \(1, 2\)"):
            echo_sequence(h0, [5028.5], amplitudes, phases, 0.0, pulse)


def test_frequency_stability_statistics():
    # repeated Ramsey runs with per-run jitter resampling: the std of
    # the fitted frequencies estimates the injected jitter
    dev = _single()
    noise = NoiseSpec(jitter_khz={"A": 0.88})
    delays = np.linspace(0.0, 40.0, 81)
    fitted = []
    for run in range(400):
        record = protocol_ramsey(
            dev, "A", delays, detuning=0.5, noise=noise,
            seed=run, jitter_mode="per_run",
        )
        fit = fit_damped_cos(record.axis("delay"), record.data["p_excited"])
        fitted.append(fit.params["f"])
    scatter_khz = np.std(fitted, ddof=1) * 1e3
    assert scatter_khz == pytest.approx(0.88, rel=0.20)


def test_record_determinism():
    dev = _single()
    noise = NoiseSpec(jitter_khz={"A": 5.0})
    kwargs = dict(detuning=1.0, noise=noise, shots=200, seed=42)
    delays = np.linspace(0.0, 5.0, 21)
    first = protocol_ramsey(dev, "A", delays, **kwargs)
    second = protocol_ramsey(dev, "A", delays, **kwargs)
    assert np.array_equal(first.data["p_excited"], second.data["p_excited"])


def test_sampled_t1_is_seeded_and_on_the_shot_grid():
    dev = _single()
    delays = np.linspace(0.0, 150.0, 16)

    def sampled(seed):
        record = protocol_t1(dev, "A", delays, shots=40, seed=seed)
        assert record.shots == 40
        return record.data["p_excited"]

    first = sampled(3)
    assert np.array_equal(first, sampled(3))
    assert not np.array_equal(first, sampled(4))
    assert np.abs(first * 40 - np.round(first * 40)).max() <= 1e-12
    assert not np.array_equal(first, protocol_t1(dev, "A", delays).data["p_excited"])


def test_sample_binary_assignment_error_mixes_the_outcomes():
    certain = np.array([0.0, 1.0])
    assert sample_binary(certain, 50, _rng_for(7, 0)).tolist() == [0.0, 1.0]
    # a symmetric assignment error e reads 0 as 1 and 1 as 0 with probability e:
    # 1e5 shots put the mean within 5 standard deviations (5e-3) of e and 1 - e
    mixed = sample_binary(certain, 100_000, _rng_for(7, 0), assignment_error=0.1)
    assert mixed == pytest.approx([0.1, 0.9], abs=5e-3)
    assert np.array_equal(mixed, sample_binary(certain, 100_000, _rng_for(7, 0), 0.1))


def test_swap_no_coupling_no_transfer():
    dev = _pair(delta=2.0, j=0.0)
    record = protocol_swap(
        dev, ("A", "B"), [0.0, 5.0], np.linspace(0.0, 2.0, 41), drive_detuning=-60.0,
        levels=3,
    )
    assert record.data["p_partner"].max() < 1e-10


def test_swap_resonant_pair_full_exchange_period():
    # exact two-level oracle: a resonant pair with no drive swaps with
    # period 1/(2J) and fully transfers at half that time
    j = 0.654
    dev = _pair(delta=0.0, j=j)
    durations = np.linspace(0.0, 2.0, 321)
    record = protocol_swap(dev, ("A", "B"), [0.0], durations, levels=3)
    res = swap_resonance(record)
    assert res["swap_period"] == pytest.approx(1.0 / (2 * j), rel=1e-6)
    p_partner = record.data["p_partner"][0]
    quarter = np.argmin(np.abs(durations - 1.0 / (4 * j)))
    assert p_partner[quarter] == pytest.approx(1.0, abs=1e-3)


def test_swap_stark_shifted_through_resonance():
    j = 0.654
    dev = _pair(delta=0.5, j=j)
    amp_res = stark_amplitude_for_shift(dev.qubit("A"), 4800.0 - 60.0, 0.5, levels=3)
    amps = np.linspace(0.8 * amp_res, 1.2 * amp_res, 9)
    durations = np.linspace(0.0, 2.5, 161)
    record = protocol_swap(
        dev, ("A", "B"), amps, durations, drive_detuning=-60.0, levels=3
    )
    res = swap_resonance(record)
    assert res["swap_period"] == pytest.approx(1.0 / (2 * j), rel=0.02)
    assert res["max_transfer"] > 0.98


def test_swap_off_resonance_suppression():
    j = 0.654
    dev = _pair(delta=0.5, j=j)
    drive_freq = 4800.0 - 60.0
    amps = np.array([6.0, 8.0, 10.0, 12.0])
    durations = np.linspace(0.0, 3.0, 201)
    record = protocol_swap(
        dev, ("A", "B"), amps, durations, drive_detuning=-60.0, levels=3
    )
    shifts = np.array([stark_shift(dev.qubit("A"), drive_freq, a, 3) for a in amps])
    delta_eff = (4800.0 + shifts) - 4800.5
    predicted = j**2 / (j**2 + delta_eff**2 / 4.0)
    measured = record.data["p_partner"].max(axis=1)
    assert measured == pytest.approx(predicted, abs=0.02)


def test_acstark_ramsey_recovers_injected_j():
    # the anticrossing extraction carries the method's own systematics
    # (drive leakage through the coupling), so the tolerance is the one
    # the protocol itself achieves on hardware; sweep through resonance
    j = 0.5
    qa = TransmonParams.from_frequency("A", 4804.0, -200.0, 50.0, 40.0, 60.0)
    qb = TransmonParams.from_frequency("B", 4800.0, -200.0, 50.0, 40.0, 60.0)
    dev = DeviceSpec(1, 2, (qa, qb), couplings=CouplingGraph({("A", "B"): j}))
    drive_det = -60.0
    targets = np.linspace(0.3, 7.0, 16)
    amps = [
        stark_amplitude_for_shift(qb, 4800.0 + drive_det, s, levels=3)
        for s in targets
    ]
    record = protocol_acstark_ramsey(
        dev, ("A", "B"), amps, drive_detuning=drive_det, levels=3, seed=1
    )
    extraction = extract_anticrossing(record, guard=1.5)
    assert extraction["j"] == pytest.approx(j, rel=0.10)


def test_acstark_uncoupled_pair_stays_at_jitter_floor(device):
    # Q6-Q10 is a diagonal (uncoupled) pair of the lattice
    drive_det = -60.0
    q10 = device.qubit("Q10")
    targets = np.linspace(0.5, 12.0, 24)
    amps = [
        stark_amplitude_for_shift(q10, q10.omega + drive_det, s, levels=3)
        for s in targets
    ]
    noise = NoiseSpec(jitter_khz={"Q6": 10.0})
    record = protocol_acstark_ramsey(
        device, ("Q6", "Q10"), amps, drive_detuning=drive_det,
        noise=noise, seed=7, levels=3,
    )
    extraction = extract_anticrossing(record, guard=2.0)
    assert extraction["freq_scatter_std"] <= 0.015
    assert extraction["j"] <= 0.15


def test_acstark_zero_amplitude_zero_shift(device):
    amps = [0.0, 10.0]
    record = protocol_acstark_ramsey(
        device, ("Q6", "Q10"), amps, drive_detuning=-60.0, levels=3, seed=2
    )
    assert record.data["freq_shift"][0] == pytest.approx(0.0, abs=1e-9)
    assert record.data["partner_shift"][0] == 0.0


def test_swap_chevron_damps_under_lindblad():
    j = 0.654
    dev = _pair(delta=0.0, j=j, omega=4800.0)
    durations = np.linspace(0.0, 3.0, 121)
    clean = protocol_swap(dev, ("A", "B"), [0.0], durations, levels=2)
    noisy = protocol_swap(
        dev, ("A", "B"), [0.0], durations, levels=2,
        noise=NoiseSpec(relaxation={"A": 1 / 20.0, "B": 1 / 20.0}),
    )
    # oscillation persists but the late-time contrast is damped
    assert clean.data["p_partner"][0, -1] + clean.data["p_shifted"][0, -1] == pytest.approx(1.0, abs=1e-6)
    assert noisy.data["p_partner"][0, -1] + noisy.data["p_shifted"][0, -1] < 0.95
    late_clean = clean.data["p_partner"][0, 60:].max()
    late_noisy = noisy.data["p_partner"][0, 60:].max()
    assert late_noisy < late_clean


@pytest.mark.parametrize("levels", [2, 3])
@pytest.mark.parametrize("noise", [None, NoiseSpec(relaxation={"A": 1 / 20.0, "B": 1 / 30.0})])
def test_swap_populations_equal_the_per_state_site_populations(levels, noise, monkeypatch):
    # the chevron reads both sites' populations from the whole state stack
    # at once; the per-state site_populations loop, clipped to [0, 1] as
    # every record's populations are, is the reference
    from transmon_lattice import protocols

    stacks = []

    def recording(*args, _evolve=protocols.evolve, **kwargs):
        stacks.append(_evolve(*args, **kwargs))
        return stacks[-1]

    monkeypatch.setattr(protocols, "evolve", recording)
    record = protocol_swap(_pair(delta=0.5), ("A", "B"), [0.0, 4.0, 8.0],
                           np.linspace(0.0, 2.0, 33), levels=levels, noise=noise)
    assert len(stacks) == 3
    for key, site in (("p_shifted", 0), ("p_partner", 1)):
        reference = [[site_populations(state, site, 2, levels)[1] for state in states]
                     for states in stacks]
        assert np.array_equal(record.data[key], np.clip(reference, 0.0, 1.0))


def _frame_static_loop(h_abs, labels, frame_freqs):
    """Element-by-element frame transform, the specification of
    _frame_static: None where an element rotates."""
    static = np.zeros_like(h_abs)
    for r, c in zip(*np.nonzero(h_abs)):
        if abs(float(frame_freqs @ (labels[r] - labels[c]))) >= 1e-9:
            return None
        static[r, c] = h_abs[r, c]
    return static - np.diag(labels @ frame_freqs)


@pytest.mark.parametrize(
    "sites, levels, frame",
    [
        # common frame at the Stark drive
        pytest.param(("Q2", "Q3"), 3, "swap", id="sites0-3-swap"),
        # T1, Ramsey and echo: the frame at the qubit frequency
        pytest.param(("Q2",), 2, "qubit", id="sites1-2-qubit"),
        pytest.param(("Q2",), 3, "qubit", id="sites2-3-qubit"),
        pytest.param(("Q2", "Q7"), 4, 5028.5, id="sites3-4-5028.5"),  # sizzle drive frame
        # frame 0 is the lab frame: nothing rotates, the absolute Hamiltonian
        pytest.param(("Q2", "Q3"), 3, 0.0, id="sites6-3-lab"),
        # a sigma_x term rotates in any frame but frame 0
        pytest.param(None, 2, 4806.0, id="sigma-x"),
        pytest.param(None, 2, 0.0, id="sigma-x-lab"),
    ],
)
def test_split_by_frame_matches_elementwise_loop(device, sites, levels, frame):
    # the frame static part is H - diag(f.n) where no element rotates;
    # a frame where one does is refused
    if sites is None:
        h0 = _sigma_x_pair()
    else:
        h0 = assemble_hamiltonian(device, SubsetSelection(sites, levels))
    if frame == "swap":
        frame = device.qubit(sites[0]).omega - 60.0
    elif frame == "qubit":
        frame = device.qubit(sites[0]).omega
    labels = basis_occupations(len(h0.sites), h0.levels).astype(float)
    freqs = np.full(len(h0.sites), frame)
    expected = _frame_static_loop(h0.matrix, labels, freqs)
    assert (expected is None) == (sites is None and frame != 0.0)
    if expected is None:
        with pytest.raises(ValueError, match="changes the excitation number rotates at"):
            _frame_static(h0, frame)
        return
    static = _frame_static(h0, frame)
    assert np.array_equal(static, expected)
    assert np.array_equal(static, h0.matrix - np.diag(labels @ freqs))
