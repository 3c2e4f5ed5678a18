"""Pauli-basis state tomography and entangled-state preparation.

Reconstruction is linear inversion over the full Pauli basis followed
by eigenvalue clipping and trace renormalization (the nearest physical
state for small violations).  Preparation circuits use ideal
instantaneous single-qubit gates; the conditional-phase gate can be
ideal or realized as a ZZ generator evolved under Lindblad noise for
its calibrated duration.
"""
from __future__ import annotations

import math
import warnings
from itertools import product
from typing import Optional, Sequence

import numpy as np

from .device import T2_TOLERANCE
from .dynamics import NoiseSpec, evolve
from .errors import ContractViolation
from .operators import LatticeOperator

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)
_SDG = np.diag([1.0, -1j]).astype(complex)
# rotations bringing each Pauli onto Z for measurement
_BASIS_ROTATION = {"X": HADAMARD, "Y": HADAMARD @ _SDG, "Z": np.eye(2, dtype=complex)}

MIN_SHOTS_PER_SETTING = 50


def _as_density(state: np.ndarray) -> np.ndarray:
    state = np.asarray(state, dtype=complex)
    if state.ndim == 1:
        return np.outer(state, state.conj())
    return state


def _kron_all(mats: Sequence[np.ndarray]) -> np.ndarray:
    out = np.array([[1.0 + 0j]])
    for m in mats:
        out = np.kron(out, m)
    return out


def pauli_string(letters: str) -> np.ndarray:
    return _kron_all([PAULI[c] for c in letters])


def measurement_settings(n_qubits: int) -> list[str]:
    return ["".join(s) for s in product("XYZ", repeat=n_qubits)]


def _expectations_from_counts(
    setting: str, probabilities: np.ndarray, n_qubits: int
) -> dict[str, float]:
    """<P> for every Pauli string supported on this setting's axes."""
    out = {}
    bits = np.arange(2**n_qubits)
    for support in product((0, 1), repeat=n_qubits):
        if not any(support):
            continue
        letters = "".join(
            setting[k] if support[k] else "I" for k in range(n_qubits)
        )
        signs = np.ones(2**n_qubits)
        for k in range(n_qubits):
            if support[k]:
                signs *= 1.0 - 2.0 * ((bits >> (n_qubits - 1 - k)) & 1)
        out[letters] = float(signs @ probabilities)
    return out


def state_tomography(
    state: np.ndarray,
    n_qubits: int,
    shots: int = 0,
    seed: Optional[int] = None,
) -> np.ndarray:
    """Reconstruct a density matrix from complete Pauli measurements.

    ``state`` is the prepared state (vector or density matrix); one
    measurement setting is executed per axis combination.  shots=0
    evaluates exact expectation values.  Emits a conditioning warning
    when the per-setting shot budget is too small for a stable
    inversion.
    """
    rho = _as_density(state)
    dim = 2**n_qubits
    if rho.shape != (dim, dim):
        raise ValueError(f"state dimension {rho.shape} does not match {n_qubits} qubits")
    if shots < 0:
        raise ValueError(f"shots must be non-negative (0 = exact), got {shots}")
    if 0 < shots < MIN_SHOTS_PER_SETTING:
        warnings.warn(
            f"{shots} shots per setting is below {MIN_SHOTS_PER_SETTING}; "
            "the linear inversion will be poorly conditioned",
            RuntimeWarning,
            stacklevel=2,
        )
    if shots > 0:
        rng = np.random.default_rng(np.random.SeedSequence([0 if seed is None else seed, 404]))

    sums: dict[str, float] = {}
    counts_per_pauli: dict[str, int] = {}
    for setting in measurement_settings(n_qubits):
        rotation = _kron_all([_BASIS_ROTATION[c] for c in setting])
        rotated = rotation @ rho @ rotation.conj().T
        probabilities = np.clip(np.real(np.diag(rotated)), 0.0, None)
        probabilities = probabilities / probabilities.sum()
        if shots > 0:
            counts = rng.multinomial(shots, probabilities)
            probabilities = counts / shots
        for letters, value in _expectations_from_counts(
            setting, probabilities, n_qubits
        ).items():
            # Pauli strings with identity slots appear in several
            # settings; average every estimate equally
            sums[letters] = sums.get(letters, 0.0) + value
            counts_per_pauli[letters] = counts_per_pauli.get(letters, 0) + 1

    expectations = {k: sums[k] / counts_per_pauli[k] for k in sums}
    expectations["I" * n_qubits] = 1.0
    estimate = np.zeros((dim, dim), dtype=complex)
    for letters, value in expectations.items():
        estimate += value * pauli_string(letters)
    estimate /= dim
    projected, _ = project_to_physical(estimate)
    return projected


def project_to_physical(rho: np.ndarray) -> tuple[np.ndarray, float]:
    """Clip negative eigenvalues and renormalize the trace to 1.

    Returns (physical state, clipped weight)."""
    hermitian = 0.5 * (rho + rho.conj().T)
    evals, evecs = np.linalg.eigh(hermitian)
    clipped = np.clip(evals, 0.0, None)
    residual = float(np.abs(evals - clipped).sum())
    total = clipped.sum()
    if total <= 0:
        raise ContractViolation("state has no positive weight after clipping")
    clipped /= total
    return (evecs * clipped) @ evecs.conj().T, residual


def fidelity(rho: np.ndarray, target: np.ndarray) -> float:
    """<psi|rho|psi> for a pure target state."""
    rho = np.asarray(rho, dtype=complex)
    target = np.asarray(target, dtype=complex)
    if target.ndim != 1:
        raise ValueError("target must be a pure state vector")
    eigmin = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min())
    if eigmin < -1e-9:
        raise ContractViolation(f"rho is not positive semidefinite ({eigmin:.2e})")
    if abs(np.trace(rho) - 1.0) > 1e-6:
        raise ContractViolation("rho must have unit trace")
    return float(np.real(target.conj() @ rho @ target))


# ------------------------------------------------------------ preparation

def _gate_on(psi_or_rho, gate: np.ndarray, site: int, n_qubits: int):
    full = _kron_all(
        [gate if k == site else np.eye(2, dtype=complex) for k in range(n_qubits)]
    )
    if psi_or_rho.ndim == 1:
        return full @ psi_or_rho
    return full @ psi_or_rho @ full.conj().T


def _cz_on(state, phase: float, a: int, b: int, n_qubits: int):
    dim = 2**n_qubits
    diag = np.ones(dim, dtype=complex)
    for basis in range(dim):
        if (basis >> (n_qubits - 1 - a)) & 1 and (basis >> (n_qubits - 1 - b)) & 1:
            diag[basis] = np.exp(1j * phase)
    if state.ndim == 1:
        return diag * state
    return (diag[:, None] * state) * diag.conj()[None, :]


def bell_state(cz_phase: float = math.pi) -> np.ndarray:
    """Bell pair from H x H, conditional phase, H on the target."""
    psi = np.zeros(4, dtype=complex)
    psi[0] = 1.0
    psi = _gate_on(psi, HADAMARD, 0, 2)
    psi = _gate_on(psi, HADAMARD, 1, 2)
    psi = _cz_on(psi, cz_phase, 0, 1, 2)
    psi = _gate_on(psi, HADAMARD, 1, 2)
    return psi


def ghz_state() -> np.ndarray:
    return np.array([1.0, 0, 0, 0, 0, 0, 0, 1.0], dtype=complex) / math.sqrt(2.0)


BELL_TARGET = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2.0)


def _noisy_cz(
    rho: np.ndarray,
    a: int,
    b: int,
    n_qubits: int,
    tau_g: float,
    noise: NoiseSpec,
    labels: Sequence[str],
    conditional_phase: float = math.pi,
) -> np.ndarray:
    """Conditional-phase gate realized as a ZZ generator evolved under
    the Lindblad rates of ``noise`` for its calibrated duration."""
    dim = 2**n_qubits
    nu_mhz = conditional_phase / (2.0 * math.pi * tau_g)
    h = np.zeros((dim, dim), dtype=complex)
    for basis in range(dim):
        if (basis >> (n_qubits - 1 - a)) & 1 and (basis >> (n_qubits - 1 - b)) & 1:
            # sign: exp(-2 pi i H t) must impart +conditional_phase
            h[basis, basis] = -nu_mhz
    # h is already the frame Hamiltonian: a zero common frame keeps it
    h0 = LatticeOperator(h, tuple(labels), 2)
    return evolve(h0, rho, [tau_g], frame=0.0, noise=noise)[0]


def _gate_noise(tau_g: float, t1: float, t2: float, labels: Sequence[str]) -> NoiseSpec:
    """Lindblad relaxation and pure dephasing of T1 and T2 on every label;
    the gate duration, T1 and T2 must be finite and positive, and T2 at
    most 2 T1 (as in device files)."""
    for name, value in (("tau_g", tau_g), ("T1", t1), ("T2", t2)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} = {value} us must be finite and positive")
    if t2 > 2.0 * t1 + T2_TOLERANCE:
        raise ValueError(f"T2 = {t2} us exceeds 2 T1 = {2.0 * t1} us")
    return NoiseSpec(
        relaxation={q: 1.0 / t1 for q in labels},
        dephasing={q: max(1.0 / t2 - 0.5 / t1, 0.0) for q in labels},
    )


def bell_state_noisy(
    tau_g: float,
    t1: float,
    t2: float,
    conditional_phase: float = math.pi,
) -> np.ndarray:
    """Bell preparation where the conditional-phase gate takes ``tau_g``
    (us) under T1/T2 Lindblad noise on both qubits; raises ValueError
    unless ``tau_g``, ``t1`` and ``t2`` are finite and positive and
    ``t2`` is at most 2 ``t1``."""
    labels = ("a", "b")
    noise = _gate_noise(tau_g, t1, t2, labels)
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    rho = _gate_on(rho, HADAMARD, 0, 2)
    rho = _gate_on(rho, HADAMARD, 1, 2)
    rho = _noisy_cz(rho, 0, 1, 2, tau_g, noise, labels, conditional_phase)
    rho = _gate_on(rho, HADAMARD, 1, 2)
    return rho


def ghz_state_noisy(
    tau_g: float,
    t1: float,
    t2: float,
    conditional_phase: float = math.pi,
) -> np.ndarray:
    """GHZ preparation via two noisy conditional-phase gates, with the
    inputs of :func:`bell_state_noisy`."""
    labels = ("a", "b", "c")
    noise = _gate_noise(tau_g, t1, t2, labels)
    rho = np.zeros((8, 8), dtype=complex)
    rho[0, 0] = 1.0
    rho = _gate_on(rho, HADAMARD, 0, 3)
    rho = _gate_on(rho, HADAMARD, 1, 3)
    rho = _noisy_cz(rho, 0, 1, 3, tau_g, noise, labels, conditional_phase)
    rho = _gate_on(rho, HADAMARD, 1, 3)
    rho = _gate_on(rho, HADAMARD, 2, 3)
    rho = _noisy_cz(rho, 1, 2, 3, tau_g, noise, labels, conditional_phase)
    rho = _gate_on(rho, HADAMARD, 2, 3)
    return rho
