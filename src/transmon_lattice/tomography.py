"""Pauli-basis state tomography and entangled-state preparation.

Preparation is one circuit: H on qubit 0, then on each next qubit H, a
conditional phase with the previous qubit, and H again, which makes the
Bell pair on two qubits and the GHZ state on three.  Ideal gates act on
a state vector.  A noisy conditional phase is a ZZ generator evolved by
``dynamics.evolve`` under T1/T2 Lindblad noise for its calibrated
duration, on a density matrix.  The ideal GHZ state is kept as the exact
``GHZ_TARGET`` vector: the circuit leaves ~4e-17 imaginary residues in
it, and those change the sampled counts.

Reconstruction measures every qubit along X, Y or Z, in all 3^n
settings.  A setting with rotation R and outcome distribution p
measures the state R^dag diag(p) R.  Averaged over the settings, that
is the true state with every non-identity Pauli factor scaled by 1/3, a
depolarizing map on each qubit; undoing it site by site,
A -> 3A - tr_k(A) (x) I, is linear inversion over the full Pauli basis
with each Pauli expectation averaged over the settings that measure it.
Eigenvalue clipping and trace renormalization then give the nearest
physical state for small violations.
"""
from __future__ import annotations

import math
import warnings
from typing import Optional, Sequence

import numpy as np

from .device import T2_TOLERANCE
from .dynamics import NoiseSpec, evolve
from .errors import ContractViolation
from .operators import LatticeOperator, _embed, basis_occupations

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)
_SDG = np.diag([1.0, -1j]).astype(complex)
# rotations bringing X, Y and Z onto Z for measurement
_BASIS_ROTATIONS = (HADAMARD, HADAMARD @ _SDG, np.eye(2, dtype=complex))

BELL_TARGET = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2.0)
GHZ_TARGET = np.array([1.0, 0, 0, 0, 0, 0, 0, 1.0], dtype=complex) / math.sqrt(2.0)

MIN_SHOTS_PER_SETTING = 50


def _as_density(state: np.ndarray) -> np.ndarray:
    state = np.asarray(state, dtype=complex)
    if state.ndim == 1:
        return np.outer(state, state.conj())
    return state


def _setting_rotations(n_qubits: int) -> np.ndarray:
    """(3^n, 2^n, 2^n) stack of every setting's rotation, the first
    qubit's axis (X, Y, Z) varying slowest."""
    rotations = [np.eye(2**n_qubits, dtype=complex)]
    for k in range(n_qubits):
        site = [_embed(r, k, n_qubits, 2) for r in _BASIS_ROTATIONS]
        rotations = [s @ r for r in rotations for s in site]
    return np.array(rotations)


def _undo_depolarizing(a: np.ndarray, n_qubits: int) -> np.ndarray:
    """Invert A -> (A + tr_k(A) (x) I) / 3 on every qubit k."""
    t = a.reshape((2,) * (2 * n_qubits))
    for k in range(n_qubits):
        axes = (k, n_qubits + k)
        identity = np.eye(2).reshape([2 if ax in axes else 1 for ax in range(t.ndim)])
        t = 3.0 * t - np.expand_dims(np.trace(t, axis1=k, axis2=n_qubits + k), axes) * identity
    return t.reshape(a.shape)


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
    rotations = _setting_rotations(n_qubits)
    rotated = rotations @ rho @ rotations.conj().transpose(0, 2, 1)
    probabilities = np.clip(np.real(np.diagonal(rotated, axis1=1, axis2=2)), 0.0, None)
    probabilities = probabilities / probabilities.sum(axis=1, keepdims=True)
    if shots > 0:
        rng = np.random.default_rng(np.random.SeedSequence([0 if seed is None else seed, 404]))
        probabilities = rng.multinomial(shots, probabilities) / shots
    measured = np.einsum(
        "sji,sj,sjk->ik", rotations.conj(), probabilities, rotations
    ) / len(rotations)
    projected, _ = project_to_physical(_undo_depolarizing(measured, n_qubits))
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

def _both_excited(a: int, b: int, n_qubits: int) -> np.ndarray:
    """Mask of the basis states with qubits a and b both in |1>."""
    occ = basis_occupations(n_qubits, 2)
    return (occ[:, a] & occ[:, b]).astype(bool)


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
    nu_mhz = conditional_phase / (2.0 * math.pi * tau_g)
    # sign: exp(-2 pi i H t) must impart +conditional_phase
    h = np.diag(np.where(_both_excited(a, b, n_qubits), -nu_mhz, 0.0).astype(complex))
    # h is already the frame Hamiltonian: a zero common frame keeps it
    h0 = LatticeOperator(h, tuple(labels), 2)
    return evolve(h0, rho, [tau_g], frame=0.0, noise=noise)[0]


def prepare_state(
    n_qubits: int,
    tau_g: float = 0.0,
    t1: float = 71.0,
    t2: float = 51.0,
    conditional_phase: float = math.pi,
) -> np.ndarray:
    """The Bell (n_qubits = 2) or GHZ (3) preparation circuit.

    ``tau_g`` = 0 makes every gate ideal and returns a state vector.
    Otherwise each conditional phase takes ``tau_g`` (us) under T1/T2
    Lindblad noise on every qubit, and a density matrix comes back.
    Raises ValueError unless ``tau_g`` is finite and non-negative, T1
    and T2 are finite and positive, and T2 is at most 2 T1 (as in
    device files).
    """
    if not (math.isfinite(tau_g) and tau_g >= 0):
        raise ValueError(f"tau_g = {tau_g} us must be finite and non-negative")
    for name, value in (("T1", t1), ("T2", t2)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} = {value} us must be finite and positive")
    if t2 > 2.0 * t1 + T2_TOLERANCE:
        raise ValueError(f"T2 = {t2} us exceeds 2 T1 = {2.0 * t1} us")
    if tau_g == 0 and n_qubits == 3 and conditional_phase == math.pi:
        # the circuit's ~4e-17 imaginary residues would change sampled counts
        return GHZ_TARGET.copy()

    labels = tuple(chr(ord("a") + k) for k in range(n_qubits))
    noise = None
    state = np.zeros(2**n_qubits, dtype=complex)
    state[0] = 1.0
    if tau_g > 0:
        noise = NoiseSpec(
            relaxation={q: 1.0 / t1 for q in labels},
            dephasing={q: max(1.0 / t2 - 0.5 / t1, 0.0) for q in labels},
        )
        state = np.outer(state, state)
    hadamards = [_embed(HADAMARD, k, n_qubits, 2) for k in range(n_qubits)]

    def gate(u, state):
        return u @ state if state.ndim == 1 else u @ state @ u.conj().T

    phase = np.exp(1j * conditional_phase)
    state = gate(hadamards[0], state)
    for k in range(1, n_qubits):
        state = gate(hadamards[k], state)
        if noise is None:
            state = np.where(_both_excited(k - 1, k, n_qubits), phase, 1.0) * state
        else:
            state = _noisy_cz(state, k - 1, k, n_qubits, tau_g, noise, labels, conditional_phase)
        state = gate(hadamards[k], state)
    return state
