"""Complex references for the Clifford and RB tests: single-qubit gate
unitaries, their products, the conditional-phase unitary and Pauli
transfer matrices computed from unitaries by conjugating Pauli strings.
The package builds the same transfer matrices from real rotations."""
import math
from typing import Sequence

import numpy as np

from transmon_lattice.cliffords import GateSpec, _xy_decompositions

_PAULIS = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def _rx(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -1j * s], [-1j * s, c]])


def _rz(theta: float) -> np.ndarray:
    return np.diag([np.exp(-1j * theta / 2.0), np.exp(1j * theta / 2.0)])


def gate_unitary(spec: GateSpec) -> np.ndarray:
    kind, angle = spec
    if kind == "i":
        return np.eye(2, dtype=complex)
    if kind == "x":
        return _rx(angle)
    if kind == "vz":
        return _rz(angle)
    raise ValueError(f"unknown gate kind {kind!r}")


def compose_gates(gates: Sequence[GateSpec]) -> np.ndarray:
    """Unitary of a time-ordered gate list (first gate acts first)."""
    u = np.eye(2, dtype=complex)
    for spec in gates:
        u = gate_unitary(spec) @ u
    return u


def clifford_unitaries(x_scale: float) -> np.ndarray:
    """(24, 2, 2) unitaries of the table's decompositions with every X
    pulse's angle scaled by ``x_scale`` (1 + over-rotation)."""
    return np.array([
        compose_gates([(kind, angle * x_scale if kind == "x" else angle) for kind, angle in gates])
        for gates in _xy_decompositions()
    ])


def cz_unitary(target_phase: float = math.pi) -> np.ndarray:
    """Ideal conditional-phase unitary on two 2-level qubits."""
    u = np.eye(4, dtype=complex)
    u[3, 3] = np.exp(1j * target_phase)
    return u


def _pauli_strings(n_sites: int) -> np.ndarray:
    """(4**n, 2**n, 2**n) Pauli strings, site 0 the most significant digit."""
    strings = np.ones((1, 1, 1))
    for _ in range(n_sites):
        strings = np.einsum("aij,bkl->abikjl", strings, _PAULIS).reshape(
            4 * len(strings), 2 * len(strings[0]), -1
        )
    return strings


def _transfers(u: np.ndarray) -> np.ndarray:
    """Transfer matrices R[c, a, b] = tr(P_a U_c P_b U_c^dagger) / 2**n
    of a (k, 2**n, 2**n) stack of n-site unitaries."""
    dim = u.shape[-1]
    strings = _pauli_strings(dim.bit_length() - 1)
    return np.einsum("aij,cjk,bkl,cil->cab", strings, u, strings, u.conj()).real / dim
