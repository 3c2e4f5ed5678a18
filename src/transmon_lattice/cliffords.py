"""Clifford groups for randomized benchmarking.

Single-qubit Cliffords are decomposed over the hardware gate set
{I, X(+-pi/2), X(pi)} plus virtual Z rotations (zero duration, zero
error); Y rotations appear as virtual-Z-sandwiched X pulses.  The
decomposition follows the standard XY table, which averages 45/24 =
1.875 physical pulses per Clifford.  The published error tables convert
EPC to EPG with the empirical factor 1.825 (their compiled average),
which is kept as a separate constant: no 24-element table with integer
pulse counts can average exactly 1.825.

The 11520-element two-qubit group is generated as (C1 x C1) followed by
one of 20 mixers built from CZ and fixed single-qubit corrections
(identity, 9 CNOT-like, 9 iSWAP-like, 1 SWAP-like).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

#: EPC -> EPG conversion factor from the published error tables.
MEAN_GATES_PER_CLIFFORD = 1.825

GateSpec = tuple[str, float]  # ("i", 0) | ("x", angle) | ("vz", angle)


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


def _x_gates(exponent: float) -> list[GateSpec]:
    if exponent == 0.0:
        return []
    return [("x", exponent * math.pi)]


def _y_gates(exponent: float) -> list[GateSpec]:
    # R_y(theta) = R_z(pi/2) R_x(theta) R_z(-pi/2), virtual Z free
    if exponent == 0.0:
        return []
    return [("vz", -math.pi / 2.0), ("x", exponent * math.pi), ("vz", math.pi / 2.0)]


@dataclass(frozen=True)
class CliffordElement:
    index: int
    gates: tuple[GateSpec, ...]
    unitary: np.ndarray

    @property
    def physical_gate_count(self) -> int:
        """Pulses occupying a gate slot; virtual Z excluded."""
        return sum(1 for kind, _ in self.gates if kind in ("i", "x"))


def _xy_decompositions() -> list[list[GateSpec]]:
    table: list[list[GateSpec]] = []
    for phi0 in (1.0, 0.5, -0.5):
        for phi1 in (0.0, 0.5, -0.5):
            table.append(_x_gates(phi0) + _y_gates(phi1))
            table.append(_y_gates(phi0) + _x_gates(phi1))
    table.append([("i", 0.0)])
    table.append(_y_gates(1.0) + _x_gates(1.0))
    for y0, x, y1 in ((-0.5, 0.5, 0.5), (-0.5, -0.5, 0.5), (0.5, 0.5, 0.5), (-0.5, 0.5, -0.5)):
        table.append(_y_gates(y0) + _x_gates(x) + _y_gates(y1))
    return table


@lru_cache(maxsize=1)
def _decomposition_steps() -> tuple[tuple[GateSpec, ...], np.ndarray]:
    """The distinct gates of the 24 decompositions, and the (24, depth)
    indices of each decomposition's gates into them, padded at the end
    with the idle gate (index 0)."""
    decompositions = _xy_decompositions()
    gates = tuple(dict.fromkeys([("i", 0.0)] + [g for d in decompositions for g in d]))
    position = {g: i for i, g in enumerate(gates)}
    depth = max(len(d) for d in decompositions)
    steps = np.array([[position[g] for g in d] + [0] * (depth - len(d)) for d in decompositions])
    return gates, steps


@lru_cache(maxsize=8)
def clifford_unitaries(x_scale: float) -> np.ndarray:
    """Read-only (24, 2, 2) unitaries of the table's decompositions with
    every X pulse's angle scaled by ``x_scale`` (1 + over-rotation),
    built as one stacked product per gate position."""
    gates, steps = _decomposition_steps()
    played = np.array([
        gate_unitary((kind, angle * x_scale if kind == "x" else angle)) for kind, angle in gates
    ])[steps]
    u = played[:, 0]
    for k in range(1, steps.shape[1]):
        u = played[:, k] @ u
    u.flags.writeable = False
    return u


@lru_cache(maxsize=1)
def clifford_table() -> tuple[CliffordElement, ...]:
    """The 24 single-qubit Cliffords with hardware decompositions."""
    unitaries = clifford_unitaries(1.0)
    elements = [
        CliffordElement(index, tuple(gates), unitaries[index])
        for index, gates in enumerate(_xy_decompositions())
    ]
    # |tr(C_a^dagger C_b)| reaches 2 only when C_a = C_b up to phase
    overlaps = np.abs(np.einsum("aji,bji->ab", unitaries.conj(), unitaries))
    if np.count_nonzero(overlaps > 2.0 - 1e-6) != 24:
        raise AssertionError("single-qubit Clifford table is degenerate")
    return tuple(elements)


def mean_physical_gates() -> float:
    table = clifford_table()
    return sum(e.physical_gate_count for e in table) / len(table)


def canonical_key(u: np.ndarray, decimals: int = 8) -> bytes:
    """Phase-fixed, rounded byte representation of a unitary (global
    phase removed by making the largest-magnitude entry real positive)."""
    flat = u.reshape(-1)
    pivot = int(np.argmax(np.abs(flat)))
    phase = flat[pivot] / abs(flat[pivot])
    fixed = u / phase
    return np.round(fixed, decimals).tobytes()


def clifford_index(u: np.ndarray) -> int:
    """Index of the single-qubit Clifford equal to ``u`` up to phase,
    found by maximizing |tr(u^dagger C_k)|."""
    mats = clifford_unitaries(1.0)
    traces = np.abs(np.einsum("ji,kji->k", u.conj(), mats))
    best = int(np.argmax(traces))
    if traces[best] < 2.0 - 1e-6:
        raise KeyError("matrix is not a single-qubit Clifford")
    return best


def inverse_index(u: np.ndarray) -> int:
    """Index of the Clifford inverting ``u`` (a product of Cliffords)."""
    mats = clifford_unitaries(1.0)
    traces = np.abs(np.einsum("ij,kji->k", u, mats))
    best = int(np.argmax(traces))
    if traces[best] < 2.0 - 1e-6:
        raise KeyError("matrix does not invert to a single-qubit Clifford")
    return best


@lru_cache(maxsize=1)
def clifford_products() -> np.ndarray:
    """Read-only 24x24 multiplication table: entry ``[a, b]`` is the
    index of C_a C_b (C_b acts first), the k maximizing
    |tr(C_k^dagger C_a C_b)|."""
    mats = clifford_unitaries(1.0)
    products = (mats[:, None] @ mats[None, :]).reshape(24 * 24, 4)
    traces = np.abs(products @ mats.reshape(24, 4).conj().T).reshape(24, 24, 24)
    table = np.argmax(traces, axis=2).astype(np.int8)
    if np.take_along_axis(traces, table[..., None], axis=2).min() < 2.0 - 1e-6:
        raise AssertionError("single-qubit Clifford products leave the table")
    table.flags.writeable = False
    return table


@lru_cache(maxsize=1)
def clifford_identity() -> int:
    """Index of the identity Clifford."""
    return clifford_index(np.eye(2))


@lru_cache(maxsize=1)
def clifford_inverses() -> np.ndarray:
    """Read-only table: entry ``[a]`` is the index of the inverse of C_a."""
    table = np.argmax(clifford_products() == clifford_identity(), axis=0).astype(np.int8)
    table.flags.writeable = False
    return table


@lru_cache(maxsize=1)
def _pair_products() -> np.ndarray:
    """Flat 256x256 uint8 product table: entry [256 b + a] is the index
    of C_b C_a, so two neighbouring uint8 ids (a first) read as one
    little-endian uint16 index it."""
    table = np.zeros((256, 256), np.uint8)
    table[:24, :24] = clifford_products()
    return table.reshape(-1)


def sequence_inverses(ids: np.ndarray) -> np.ndarray:
    """Index of the Clifford that inverts each sequence along the last
    axis of ``ids`` (the first id acts first).  The sequences are padded
    with the identity to a power-of-two length, and neighbouring pairs
    are multiplied through the product table, halving them each round,
    so a length-m sequence takes log2(m) table lookups."""
    ids = np.asarray(ids)
    width = 1 << max(ids.shape[-1] - 1, 0).bit_length()
    x = np.full(ids.shape[:-1] + (width,), clifford_identity(), np.uint8)
    x[..., : ids.shape[-1]] = ids
    while x.shape[-1] > 1:
        x = _pair_products().take(x.view("<u2"))
    return clifford_inverses()[x[..., 0]]


# ------------------------------------------------------------ two-qubit group

TWO_QUBIT_GROUP_SIZE = 11520

_S1 = ([], [(0.5, "y"), (0.5, "x")], [(-0.5, "x"), (-0.5, "y")])
_S1_X = ([(0.5, "x")], [(0.5, "x"), (0.5, "y"), (0.5, "x")], [(-0.5, "y")])
_S1_Y = ([(0.5, "y")], [(-0.5, "x"), (-0.5, "y"), (0.5, "x")], [(1.0, "y"), (0.5, "x")])


def _axis_unitary(exponent: float, axis: str) -> np.ndarray:
    theta = exponent * math.pi
    if axis == "x":
        return _rx(theta)
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]])  # R_y(theta)


def _seq_unitary(seq) -> np.ndarray:
    u = np.eye(2, dtype=complex)
    for exponent, axis in seq:
        u = _axis_unitary(exponent, axis) @ u
    return u


_CZ = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)


def cz_unitary(target_phase: float = math.pi) -> np.ndarray:
    """Ideal conditional-phase unitary on two 2-level qubits."""
    u = np.eye(4, dtype=complex)
    u[3, 3] = np.exp(1j * target_phase)
    return u


@lru_cache(maxsize=1)
def _mixers() -> np.ndarray:
    """The 20 mixer unitaries: index 0 none, 1 SWAP-like, 2-10
    CNOT-like, 11-19 iSWAP-like."""
    y90 = _axis_unitary(0.5, "y")
    y90m = _axis_unitary(-0.5, "y")
    x90m = _axis_unitary(-0.5, "x")
    eye = np.eye(2, dtype=complex)

    mixers = [np.eye(4, dtype=complex)]
    swap_like = (
        np.kron(eye, y90)
        @ _CZ
        @ np.kron(y90, y90m)
        @ _CZ
        @ np.kron(y90m, y90)
        @ _CZ
    )
    mixers.append(swap_like)
    for s1 in _S1:
        for s1y in _S1_Y:
            mixers.append(np.kron(_seq_unitary(s1), _seq_unitary(s1y)) @ _CZ)
    for s1y in _S1_Y:
        for s1x in _S1_X:
            mixers.append(
                np.kron(_seq_unitary(s1y), _seq_unitary(s1x))
                @ _CZ
                @ np.kron(y90, x90m)
                @ _CZ
            )
    return np.array(mixers)


#: CZ count per mixer index, for gate accounting
MIXER_CZ_COUNTS = (0, 3) + (1,) * 9 + (2,) * 9


def split_two_qubit_index(idx: int) -> tuple[int, int, int]:
    if not 0 <= idx < TWO_QUBIT_GROUP_SIZE:
        raise IndexError(idx)
    return idx // 480, (idx // 20) % 24, idx % 20


@lru_cache(maxsize=1)
def two_qubit_clifford_matrices() -> np.ndarray:
    """All 11520 two-qubit Clifford unitaries, indexed by
    (c0 * 480 + c1 * 20 + mixer)."""
    singles = clifford_unitaries(1.0)
    starters = np.array([np.kron(a, b) for a in singles for b in singles])
    return (_mixers()[None] @ starters[:, None]).reshape(TWO_QUBIT_GROUP_SIZE, 4, 4)


def two_qubit_inverse_index(u: np.ndarray) -> int:
    """Index of the group element equal to u^dagger up to phase, found
    by maximizing |tr(u @ C_k)|."""
    mats = two_qubit_clifford_matrices()
    traces = np.abs(np.einsum("ij,kji->k", u, mats))
    best = int(np.argmax(traces))
    if traces[best] < 4.0 - 1e-6:
        raise KeyError("matrix does not invert to a two-qubit Clifford")
    return best
