import math
from functools import lru_cache

import numpy as np
import pytest

from transmon_lattice.cliffords import (
    MEAN_GATES_PER_CLIFFORD,
    MIXER_CZ_COUNTS,
    TWO_QUBIT_GROUP_SIZE,
    _codes,
    _group,
    _mixer_codes,
    clifford_identity,
    clifford_inverses,
    clifford_products,
    clifford_table,
    clifford_transfers,
    mean_physical_gates,
    sequence_inverses,
    split_two_qubit_index,
    two_qubit_inverses,
)
from unitaries import _pauli_strings, _transfers, clifford_unitaries, compose_gates

# ------------------------------------------------------ unitary references
#
# The two-qubit group as 11520 stored unitaries, its mixers written as
# rotation sequences, and Clifford identification by a search over the
# traces of all elements: the references the codes are checked against.

_S1 = ([], [(0.5, "y"), (0.5, "x")], [(-0.5, "x"), (-0.5, "y")])
_S1_X = ([(0.5, "x")], [(0.5, "x"), (0.5, "y"), (0.5, "x")], [(-0.5, "y")])
_S1_Y = ([(0.5, "y")], [(-0.5, "x"), (-0.5, "y"), (0.5, "x")], [(1.0, "y"), (0.5, "x")])
_CZ = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)


def _axis_unitary(exponent: float, axis: str) -> np.ndarray:
    theta = exponent * math.pi
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    if axis == "x":
        return np.array([[c, -1j * s], [-1j * s, c]])
    return np.array([[c, -s], [s, c]])  # R_y(theta)


def _seq_unitary(seq) -> np.ndarray:
    u = np.eye(2, dtype=complex)
    for exponent, axis in seq:
        u = _axis_unitary(exponent, axis) @ u
    return u


@lru_cache(maxsize=1)
def mixer_unitaries() -> np.ndarray:
    """The 20 mixer unitaries: index 0 none, 1 SWAP-like, 2-10
    CNOT-like, 11-19 iSWAP-like."""
    y90 = _axis_unitary(0.5, "y")
    y90m = _axis_unitary(-0.5, "y")
    x90m = _axis_unitary(-0.5, "x")
    eye = np.eye(2, dtype=complex)
    swap_like = (
        np.kron(eye, y90) @ _CZ @ np.kron(y90, y90m) @ _CZ @ np.kron(y90m, y90) @ _CZ
    )
    mixers = [np.eye(4, dtype=complex), swap_like]
    for s1 in _S1:
        for s1y in _S1_Y:
            mixers.append(np.kron(_seq_unitary(s1), _seq_unitary(s1y)) @ _CZ)
    for s1y in _S1_Y:
        for s1x in _S1_X:
            mixers.append(
                np.kron(_seq_unitary(s1y), _seq_unitary(s1x)) @ _CZ @ np.kron(y90, x90m) @ _CZ
            )
    return np.array(mixers)


@lru_cache(maxsize=1)
def two_qubit_unitaries() -> np.ndarray:
    """All 11520 two-qubit Clifford unitaries, indexed by
    (c0 * 480 + c1 * 20 + mixer)."""
    singles = clifford_unitaries(1.0)
    starters = np.array([np.kron(a, b) for a in singles for b in singles])
    return (mixer_unitaries()[None] @ starters[:, None]).reshape(TWO_QUBIT_GROUP_SIZE, 4, 4)


def trace_inverse_index(u: np.ndarray, mats: np.ndarray) -> int:
    """Index of the element of ``mats`` equal to u^dagger up to phase,
    found by maximizing |tr(u @ C_k)|."""
    traces = np.abs(np.einsum("ij,kji->k", u, mats))
    best = int(np.argmax(traces))
    assert traces[best] > len(u) - 1e-6, "matrix does not invert to an element"
    return best


def _codes_by_conjugation(u: np.ndarray) -> np.ndarray:
    """Codes of a stack of unitaries from U P_b U^dagger, one Pauli
    string at a time, for stacks too large for the engine's einsum."""
    strings = _pauli_strings(u.shape[-1].bit_length() - 1)
    conjugated = u[:, None] @ strings @ u.conj().transpose(0, 2, 1)[:, None]
    overlaps = np.einsum("aji,cbij->cab", strings, conjugated).real / u.shape[-1]
    images = np.abs(overlaps).argmax(axis=1)
    negative = np.take_along_axis(overlaps, images[:, None], axis=1)[:, 0] < 0
    return (images + len(strings) * negative).astype(np.uint8)


# -------------------------------------------------------------------- tests

def test_table_has_24_distinct_elements():
    table = clifford_table()
    assert len(table) == 24
    codes = _codes(_transfers(np.array([compose_gates(e.gates) for e in table])))
    assert len(np.unique(codes, axis=0)) == 24
    assert np.array_equal(codes, _group(1)[0])


def test_identity_element_decomposition():
    table = clifford_table()
    identities = [e for e in table if e.gates == (("i", 0.0),)]
    assert len(identities) == 1
    assert np.allclose(compose_gates(identities[0].gates), np.eye(2))
    assert np.allclose(clifford_transfers(1.0)[identities[0].index], np.eye(4))
    assert table[clifford_identity()] is identities[0]


def test_decomposition_unitaries_match_elements():
    # the real rotations' product against the transfer matrix of each
    # element's unitary
    for element in clifford_table():
        rebuilt = _transfers(compose_gates(element.gates)[None])[0]
        assert np.max(np.abs(rebuilt - clifford_transfers(1.0)[element.index])) < 1e-12


def test_group_closure():
    # the tables built from codes against a trace search over the unitaries
    table, mats = clifford_table(), clifford_unitaries(1.0)
    products = clifford_products()
    for a in table:
        for b in table:
            product = mats[b.index] @ mats[a.index]
            assert products[b.index, a.index] == trace_inverse_index(product.conj().T, mats)
        assert clifford_inverses()[a.index] == trace_inverse_index(mats[a.index], mats)


def test_physical_gate_accounting():
    # canonical XY table averages 45/24 pulses; the published EPC->EPG
    # factor 1.825 is the device's empirical average and is kept separate
    assert mean_physical_gates() == pytest.approx(45.0 / 24.0)
    assert MEAN_GATES_PER_CLIFFORD == 1.825
    assert abs(mean_physical_gates() - MEAN_GATES_PER_CLIFFORD) / 1.825 < 0.03
    # virtual Z never counts toward the physical total
    for element in clifford_table():
        counted = sum(1 for kind, _ in element.gates if kind != "vz")
        assert element.physical_gate_count == counted


def test_sequences_invert_to_identity():
    mats = clifford_unitaries(1.0)
    rng = np.random.default_rng(11)
    for trial in range(160):  # 16 sequences x 10 seeds
        ids = rng.integers(0, 24, rng.integers(5, 40))
        u = np.eye(2, dtype=complex)
        for idx in ids:
            u = mats[idx] @ u
        product = mats[sequence_inverses(ids)] @ u
        assert abs(abs(np.trace(product)) - 2.0) < 1e-10


def test_two_qubit_group_complete_and_distinct():
    codes = _group(2)[0]
    assert codes.shape == (TWO_QUBIT_GROUP_SIZE, 16)
    assert len(np.unique(codes, axis=0)) == TWO_QUBIT_GROUP_SIZE


def test_mixer_codes_match_the_mixer_unitaries():
    assert np.array_equal(_mixer_codes(), _codes(_transfers(mixer_unitaries())))


def test_two_qubit_table_is_the_elementwise_product():
    # the codes built by index arithmetic against the codes of each
    # index's unitary, mixer @ (C_c0 (x) C_c1)
    assert np.array_equal(_group(2)[0], _codes_by_conjugation(two_qubit_unitaries()))


def test_two_qubit_index_split():
    assert split_two_qubit_index(0) == (0, 0, 0)
    assert split_two_qubit_index(480 * 3 + 20 * 5 + 7) == (3, 5, 7)
    with pytest.raises(IndexError):
        split_two_qubit_index(TWO_QUBIT_GROUP_SIZE)
    ids = np.array([[0, 480 * 3 + 20 * 5 + 7], [TWO_QUBIT_GROUP_SIZE - 1, 20 * 23 + 19]])
    c0, c1, mixer = split_two_qubit_index(ids)
    assert c0.tolist() == [[0, 3], [23, 0]]
    assert c1.tolist() == [[0, 5], [23, 23]]
    assert mixer.tolist() == [[0, 7], [19, 19]]
    for bad in (-1, TWO_QUBIT_GROUP_SIZE):
        with pytest.raises(IndexError):
            split_two_qubit_index(np.array([5, bad]))


def test_two_qubit_average_cz_count():
    total = sum(
        MIXER_CZ_COUNTS[split_two_qubit_index(i)[2]]
        for i in range(TWO_QUBIT_GROUP_SIZE)
    )
    assert total / TWO_QUBIT_GROUP_SIZE == pytest.approx(1.5)


def test_two_qubit_sequence_inversion():
    mats = two_qubit_unitaries()
    rng = np.random.default_rng(3)
    ids = rng.integers(0, TWO_QUBIT_GROUP_SIZE, (10, 25))
    for row, inverse in zip(ids, two_qubit_inverses(ids, np.full(10, 25))):
        u = np.eye(4, dtype=complex)
        for idx in row:
            u = mats[idx] @ u
        assert abs(abs(np.trace(mats[inverse] @ u)) - 4.0) < 1e-8
