"""Property tests of state tomography: on random states of one to three
qubits, the reconstruction equals a per-Pauli-string linear inversion,
with and without sampled shots, and recovers a full-rank state exactly."""
import math
from functools import reduce
from itertools import product

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from transmon_lattice.tomography import project_to_physical, state_tomography

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)
_MEASURE_ROTATION = {"X": _H, "Y": _H @ np.diag([1.0, -1j]), "Z": np.eye(2, dtype=complex)}


def _kron_all(mats):
    return reduce(np.kron, mats, np.eye(1, dtype=complex))


def _tomography_by_pauli_strings(state, n_qubits, shots=0, seed=None):
    """Reference reconstruction: every Pauli expectation, averaged over
    the settings that measure it, summed with its Pauli string."""
    rho = np.outer(state, state.conj()) if state.ndim == 1 else state
    if shots > 0:
        rng = np.random.default_rng(np.random.SeedSequence([0 if seed is None else seed, 404]))
    bits = np.arange(2**n_qubits)
    sums, counts = {}, {}
    for setting in product("XYZ", repeat=n_qubits):
        rotation = _kron_all([_MEASURE_ROTATION[c] for c in setting])
        p = np.clip(np.real(np.diag(rotation @ rho @ rotation.conj().T)), 0.0, None)
        p = p / p.sum()
        if shots > 0:
            p = rng.multinomial(shots, p) / shots
        for support in product((0, 1), repeat=n_qubits):
            if not any(support):
                continue
            letters = "".join(c if on else "I" for c, on in zip(setting, support))
            signs = np.ones(2**n_qubits)
            for k in range(n_qubits):
                if support[k]:
                    signs *= 1.0 - 2.0 * ((bits >> (n_qubits - 1 - k)) & 1)
            sums[letters] = sums.get(letters, 0.0) + float(signs @ p)
            counts[letters] = counts.get(letters, 0) + 1
    estimate = _kron_all([PAULI["I"]] * n_qubits).copy()
    for letters, total in sums.items():
        estimate += total / counts[letters] * _kron_all([PAULI[c] for c in letters])
    return project_to_physical(estimate / 2**n_qubits)[0]


def _random_state(n_qubits, rank, seed):
    rng = np.random.default_rng(seed)
    dim = 2**n_qubits
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


# derandomized: the examples are the same on every run
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


@PROPERTY
@given(
    n_qubits=st.integers(1, 3),
    rank=st.integers(1, 8),
    state_seed=st.integers(0, 2**32 - 1),
    shots=st.one_of(st.just(0), st.integers(100, 2000)),
    seed=st.integers(0, 2**16),
)
def test_reconstruction_matches_the_per_pauli_string_reference(
    n_qubits, rank, state_seed, shots, seed
):
    rho = _random_state(n_qubits, min(rank, 2**n_qubits), state_seed)
    reconstructed = state_tomography(rho, n_qubits, shots=shots, seed=seed)
    reference = _tomography_by_pauli_strings(rho, n_qubits, shots=shots, seed=seed)
    assert np.max(np.abs(reconstructed - reference)) <= 1e-12


@PROPERTY
@given(n_qubits=st.integers(1, 3), state_seed=st.integers(0, 2**32 - 1))
def test_exact_reconstruction_returns_a_full_rank_state(n_qubits, state_seed):
    rho = _random_state(n_qubits, 2**n_qubits, state_seed)
    assert np.max(np.abs(state_tomography(rho, n_qubits) - rho)) <= 1e-12
