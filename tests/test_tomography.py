import math

import numpy as np
import pytest

from transmon_lattice.errors import ContractViolation
from transmon_lattice.tomography import (
    BELL_TARGET,
    GHZ_TARGET,
    fidelity,
    prepare_state,
    project_to_physical,
    state_tomography,
)


def test_bell_circuit_is_bell():
    psi = prepare_state(2)
    assert abs(abs(psi.conj() @ BELL_TARGET) ** 2 - 1.0) <= 1e-12


def test_bell_circuit_partial_phase_is_not_bell():
    psi = prepare_state(2, conditional_phase=math.pi / 2)
    assert abs(psi.conj() @ BELL_TARGET) ** 2 < 0.9


def test_tomography_exact_on_pure_state():
    psi = prepare_state(2)
    rho = state_tomography(psi, 2, shots=0)
    target = np.outer(psi, psi.conj())
    assert np.max(np.abs(rho - target)) < 1e-6


def test_tomography_three_qubits_exact():
    psi = GHZ_TARGET
    rho = state_tomography(psi, 3, shots=0)
    assert fidelity(rho, psi) == pytest.approx(1.0, abs=1e-9)


def test_tomography_with_shots_deterministic_and_physical():
    psi = prepare_state(2)
    rho1 = state_tomography(psi, 2, shots=2000, seed=5)
    rho2 = state_tomography(psi, 2, shots=2000, seed=5)
    assert np.array_equal(rho1, rho2)
    evals = np.linalg.eigvalsh(rho1)
    assert evals.min() >= -1e-12
    assert np.trace(rho1) == pytest.approx(1.0, abs=1e-12)
    assert fidelity(rho1, psi) > 0.97


def test_tomography_shot_warning():
    psi = prepare_state(2)
    with pytest.warns(RuntimeWarning):
        state_tomography(psi, 2, shots=10, seed=1)


def test_projection_preserves_trace_and_bounds_fidelity_change():
    psi = prepare_state(2)
    rng = np.random.default_rng(2)
    noise = rng.normal(0, 0.02, (4, 4)) + 1j * rng.normal(0, 0.02, (4, 4))
    raw = np.outer(psi, psi.conj()) + 0.5 * (noise + noise.conj().T)
    raw = raw / np.trace(raw).real
    projected, residual = project_to_physical(raw)
    assert np.trace(projected) == pytest.approx(1.0, abs=1e-12)
    f_raw = float(np.real(psi.conj() @ raw @ psi))
    f_proj = fidelity(projected, psi)
    assert f_proj <= f_raw + residual + 1e-12


def test_fidelity_pure_state_is_one():
    psi = GHZ_TARGET
    assert fidelity(np.outer(psi, psi.conj()), psi) == pytest.approx(1.0)


def test_fidelity_maximally_mixed_vs_bell():
    rho = np.eye(4) / 4.0
    assert fidelity(rho, BELL_TARGET) == pytest.approx(0.25)


def test_fidelity_one_qubit_depolarizing_oracle():
    # channel-algebra oracle: rho -> (1-p) rho + p (I/2 x tr_A rho)
    # applied to one qubit of a Bell pair leaves fidelity 1 - 3p/4
    p = 0.12
    rho = np.outer(BELL_TARGET, BELL_TARGET.conj())
    kraus = [
        math.sqrt(1 - 3 * p / 4) * np.eye(2),
        math.sqrt(p / 4) * np.array([[0, 1], [1, 0]]),
        math.sqrt(p / 4) * np.array([[0, -1j], [1j, 0]]),
        math.sqrt(p / 4) * np.array([[1, 0], [0, -1]]),
    ]
    out = np.zeros_like(rho)
    for k in kraus:
        full = np.kron(k, np.eye(2))
        out += full @ rho @ full.conj().T
    expected = float(np.real(BELL_TARGET.conj() @ out @ BELL_TARGET))
    assert expected == pytest.approx(1.0 - 0.75 * p, abs=1e-12)
    assert fidelity(out, BELL_TARGET) == pytest.approx(1.0 - 0.75 * p, abs=1e-12)


def test_fidelity_rejects_non_psd():
    bad = np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex)
    with pytest.raises(ContractViolation):
        fidelity(bad, BELL_TARGET)


def test_noisy_bell_fidelity_decreases_with_duration():
    fids = [
        fidelity(prepare_state(2, tau, 71.0, 51.0), BELL_TARGET)
        for tau in (1.0, 2.5, 5.0)
    ]
    assert 1.0 > fids[0] > fids[1] > fids[2]


def test_noisy_ghz_below_noisy_bell():
    tau, t1, t2 = 3.0, 71.0, 51.0
    bell_fid = fidelity(prepare_state(2, tau, t1, t2), BELL_TARGET)
    ghz_fid = fidelity(prepare_state(3, tau, t1, t2), GHZ_TARGET)
    assert ghz_fid < bell_fid


def test_noisy_state_tomography_pipeline():
    rho = prepare_state(2, 2.0, 71.0, 51.0)
    reconstructed = state_tomography(rho, 2, shots=0)
    assert np.max(np.abs(reconstructed - rho)) < 1e-8


@pytest.mark.parametrize("n_qubits", [2, 3], ids=["bell", "ghz"])
def test_noisy_preparation_rejects_t2_beyond_twice_t1(n_qubits):
    with pytest.raises(ValueError, match="T2"):
        prepare_state(n_qubits, 3.3, 50.0, 100.1)
    # T2 = 2 T1 is the relaxation limit: no pure dephasing, still accepted
    rho = prepare_state(n_qubits, 3.3, 50.0, 100.0)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n_qubits", [2, 3], ids=["bell", "ghz"])
@pytest.mark.parametrize(
    "tau_g, t1, t2, name",
    [(-1.0, 71.0, 51.0, "tau_g"), (math.inf, 71.0, 51.0, "tau_g"), (0.0, -5.0, 51.0, "T1"),
     (0.0, 71.0, 0.0, "T2"), (0.0, 50.0, 200.0, "T2")],
)
def test_preparation_checks_its_inputs_with_ideal_gates_too(n_qubits, tau_g, t1, t2, name):
    with pytest.raises(ValueError, match=name):
        prepare_state(n_qubits, tau_g, t1, t2)


def test_ideal_ghz_is_the_exact_target_and_the_circuit_agrees():
    assert np.array_equal(prepare_state(3), GHZ_TARGET)
    # the circuit itself, at a phase a rounding away from pi
    circuit = prepare_state(3, conditional_phase=np.nextafter(math.pi, 0.0))
    assert np.max(np.abs(circuit - GHZ_TARGET)) <= 1e-15
