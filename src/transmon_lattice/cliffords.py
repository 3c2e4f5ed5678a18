"""Clifford groups for randomized benchmarking.

Single-qubit Cliffords are decomposed over the hardware gate set
{I, X(+-pi/2), X(pi)} plus virtual Z rotations (zero duration, zero
error); Y rotations appear as virtual-Z-sandwiched X pulses.  The
decomposition follows the standard XY table, which averages 45/24 =
1.875 physical pulses per Clifford.  The published error tables convert
EPC to EPG with the empirical factor 1.825 (their compiled average),
which is kept as a separate constant: no 24-element table with integer
pulse counts can average exactly 1.825.

An n-qubit Clifford U is named by its code, a uint8 array over the 4**n
Pauli strings P_b (site 0 the leading digit, as in the RB engine): entry
b is a + 4**n [s < 0] where U P_b U^dagger = s P_a.  Up to phase, U is
fixed by its images of X and Z on each site, so those entries, 5 bits
each, form its key.  A group is held as its codes in index order and
their sorted keys; a code finds its index by binary search of its key.
No unitary is formed: a gate list is the product of its pulses' real 4x4
rotations on (I, X, Y, Z), a conditional phase a product of Z-string
rotations, and codes are read from these transfer matrices.

The 11520-element two-qubit group is (C1 x C1) followed by one of 20
mixers built from CZ and fixed single-qubit corrections (identity, 9
CNOT-like, 9 iSWAP-like, 1 SWAP-like): element c0 * 480 + c1 * 20 +
mixer plays c0 on site 0 and c1 on site 1, then the mixer.
"""
from __future__ import annotations

import math
from functools import lru_cache, reduce
from typing import Mapping, Sequence

import numpy as np

from .values import FrozenValue

#: EPC -> EPG conversion factor from the published error tables.
MEAN_GATES_PER_CLIFFORD = 1.825

GateSpec = tuple[str, float]  # ("i", 0) | ("x", angle) | ("vz", angle)


def _rotation(kind: str, angle: float) -> np.ndarray:
    """Real 4x4 transfer matrix of one pulse on (I, X, Y, Z): R_x(angle)
    turns Y into Z, the virtual R_z(angle) turns X into Y."""
    r = np.eye(4)
    if kind == "i":
        return r
    turned = {"x": slice(2, 4), "vz": slice(1, 3)}.get(kind)
    if turned is None:
        raise ValueError(f"unknown gate kind {kind!r}")
    c, s = math.cos(angle), math.sin(angle)
    r[turned, turned] = ((c, -s), (s, c))
    return r


def compose_transfers(
    gate_lists: Sequence[Sequence[GateSpec]], x_scale: float = 1.0
) -> np.ndarray:
    """(k, 4, 4) transfer matrices of k time-ordered gate lists (the first
    gate acts first) with every X pulse's angle scaled by ``x_scale``
    (1 + over-rotation): one stacked product of real rotations per gate
    position, the shorter lists padded with the idle gate."""
    gates = list(dict.fromkeys([("i", 0.0)] + [g for gl in gate_lists for g in gl]))
    rotations = np.array([
        _rotation(kind, angle * x_scale if kind == "x" else angle) for kind, angle in gates
    ])
    position = {g: i for i, g in enumerate(gates)}
    depth = max(1, *map(len, gate_lists))
    played = rotations[[[position[g] for g in gl] + [0] * (depth - len(gl)) for gl in gate_lists]]
    r = played[:, 0]
    for k in range(1, depth):
        r = played[:, k] @ r
    return r


def _x_gates(exponent: float) -> list[GateSpec]:
    if exponent == 0.0:
        return []
    return [("x", exponent * math.pi)]


def _y_gates(exponent: float) -> list[GateSpec]:
    # R_y(theta) = R_z(pi/2) R_x(theta) R_z(-pi/2), virtual Z free
    if exponent == 0.0:
        return []
    return [("vz", -math.pi / 2.0), ("x", exponent * math.pi), ("vz", math.pi / 2.0)]


class CliffordElement(FrozenValue):
    __slots__ = ("index", "gates")

    def __init__(self, index: int, gates: tuple[GateSpec, ...]):
        self._assign(index, gates)

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


@lru_cache(maxsize=8)
def clifford_transfers(x_scale: float) -> np.ndarray:
    """Read-only (24, 4, 4) transfer matrices of the table's
    decompositions with every X pulse's angle scaled by ``x_scale``."""
    r = compose_transfers(_xy_decompositions(), x_scale)
    r.flags.writeable = False
    return r


@lru_cache(maxsize=1)
def clifford_table() -> tuple[CliffordElement, ...]:
    """The 24 single-qubit Cliffords with hardware decompositions."""
    return tuple(
        CliffordElement(index, tuple(gates)) for index, gates in enumerate(_xy_decompositions())
    )


def mean_physical_gates() -> float:
    table = clifford_table()
    return sum(e.physical_gate_count for e in table) / len(table)


def phase_transfer(phases: Mapping[tuple[int, int], float], n_sites: int) -> np.ndarray:
    """(4**n, 4**n) transfer matrix R[a, b] = tr(P_a V P_b V^dagger) / 2**n
    of the conditional phases V = prod exp(i phi n_i n_j) over the
    ``phases`` {(i, j): phi} between sites of an n-site register (site 0
    the leading Pauli digit).

    Up to a global phase, exp(i phi n_i n_j) is R_z(phi/2) on sites i and j
    times exp(i phi Z_i Z_j / 4).  Each of these commuting factors,
    exp(-i theta G / 2) with G a Z-string, keeps the Pauli strings that
    commute with G and turns each other string P into cos theta P +
    sin theta i P G.  Its partner i P G is the same string with ``d ^ 3``
    on each digit of G's support, signed -1 where the X or Y digit it
    turns is Y.  The factors are applied to the identity as row operations
    found by index and bit arithmetic alone."""
    size = 4**n_sites
    a = np.arange(size)
    shifts = 2 * np.arange(n_sites - 1, -1, -1)
    digits = (a[:, None] >> shifts) & 3
    turns = np.zeros(n_sites)
    for (i, j), phi in phases.items():
        turns[[i, j]] += phi / 2.0
    factors = [((k,), theta) for k, theta in enumerate(turns) if theta]
    factors += [((i, j), -phi / 2.0) for (i, j), phi in phases.items()]
    r = np.eye(size)
    for support, theta in factors:
        support = list(support)
        on = digits[:, support]
        rows = a[((on ^ (on >> 1)) & 1).sum(axis=1) % 2 == 1]  # odd count of X, Y: anticommute
        partners = rows ^ np.bitwise_or.reduce(3 << shifts[support])
        # row a of the factor: cos theta at a and, at its partner, -sin theta
        # where a's turned digit is X, +sin theta where it is Y
        sine = np.where((on[rows] == 2).any(axis=1), math.sin(theta), -math.sin(theta))
        r[rows] = math.cos(theta) * r[rows] + sine[:, None] * r[partners]
    return r


def _codes(transfers: np.ndarray) -> np.ndarray:
    """(k, 4**n) codes of a (k, 4**n, 4**n) stack of n-site Clifford
    transfer matrices, which hold one entry of magnitude 1 per column."""
    size = transfers.shape[-1]
    images = np.abs(transfers).argmax(axis=1)
    peaks = np.take_along_axis(transfers, images[:, None], axis=1)[:, 0]
    if np.abs(peaks).min() < 1.0 - 1e-6:
        raise ValueError("matrix is not a Clifford")
    return (images + size * (peaks < 0)).astype(np.uint8)


def _compose(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Codes of ``first`` then ``second``, broadcast over leading axes."""
    first, second = np.broadcast_arrays(first, second)
    size = first.shape[-1]
    return np.take_along_axis(second, first % size, axis=-1) ^ (first & size)


def _keys(codes: np.ndarray) -> np.ndarray:
    """Each code's images of X and Z on each site (site 0 first), 5 bits each."""
    images = codes[..., {4: [1, 3], 16: [4, 12, 1, 3]}[codes.shape[-1]]].astype(np.int64)
    return (images << 5 * np.arange(images.shape[-1])).sum(axis=-1)


def _site_pairs(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Codes of C0 (x) C1 from the codes of C0 (site 0) and C1."""
    paulis = 4 * (first[..., :, None] % 4) + second[..., None, :] % 4
    signs = 4 * ((first[..., :, None] ^ second[..., None, :]) & 4)
    return (paulis + signs).reshape(*paulis.shape[:-2], 16)


@lru_cache(maxsize=2)
def _group(n_sites: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only codes of the n-site group in index order, the indices
    in key order, and the sorted keys."""
    if n_sites == 1:
        codes = _codes(clifford_transfers(1.0))
    else:
        c0, c1, mixer = split_two_qubit_index(np.arange(TWO_QUBIT_GROUP_SIZE))
        codes = _compose(_site_pairs(_group(1)[0][c0], _group(1)[0][c1]), _mixer_codes()[mixer])
    order = np.argsort(_keys(codes), kind="stable")  # faults in less sort code than quicksort
    keys = _keys(codes)[order]
    if np.any(keys[1:] == keys[:-1]):
        raise AssertionError(f"the {n_sites}-qubit Clifford group repeats an element")
    for table in (codes, order, keys):
        table.flags.writeable = False
    return codes, order, keys


def _indices(codes: np.ndarray) -> np.ndarray:
    """Group indices of codes (4**n entries on the last axis)."""
    _, order, keys = _group((codes.shape[-1].bit_length() - 1) // 2)
    wanted = _keys(codes)
    found = np.searchsorted(keys, wanted) % len(keys)
    if np.any(keys[found] != wanted):
        raise KeyError("code is not a Clifford of the group")
    return order[found]


@lru_cache(maxsize=1)
def clifford_products() -> np.ndarray:
    """Read-only 24x24 multiplication table: entry ``[a, b]`` is the
    index of C_a C_b (C_b acts first)."""
    codes = _group(1)[0]
    table = _indices(_compose(codes[None, :], codes[:, None])).astype(np.int8)
    table.flags.writeable = False
    return table


@lru_cache(maxsize=1)
def clifford_identity() -> int:
    """Index of the identity Clifford."""
    return int(_indices(np.arange(4, dtype=np.uint8)))


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


@lru_cache(maxsize=1)
def _cz_code() -> np.ndarray:
    """Code of the CZ, the conditional phase pi."""
    return _codes(phase_transfer({(0, 1): math.pi}, 2)[None])[0]


@lru_cache(maxsize=1)
def _mixer_codes() -> np.ndarray:
    """Read-only codes of the 20 mixers (0 none, 1 SWAP-like, 2-10 CNOT-like, 11-19
    iSWAP-like): CZs and site corrections in the single-qubit table's gates."""
    x, y = _x_gates, _y_gates
    cz = _cz_code()

    def sites(gates0, gates1):
        return _site_pairs(*_codes(compose_transfers([gates0, gates1])))

    s1 = ([], y(0.5) + x(0.5), x(-0.5) + y(-0.5))
    s1_x = (x(0.5), x(0.5) + y(0.5) + x(0.5), y(-0.5))
    s1_y = (y(0.5), x(-0.5) + y(-0.5) + x(0.5), y(1.0) + x(0.5))
    swap_like = (cz, sites(y(-0.5), y(0.5)), cz, sites(y(0.5), y(-0.5)), cz, sites([], y(0.5)))
    codes = np.array(
        [np.arange(16), reduce(_compose, swap_like)]
        + [_compose(cz, sites(a, b)) for a in s1 for b in s1_y]
        + [reduce(_compose, (cz, sites(y(0.5), x(-0.5)), cz, sites(a, b)))
           for a in s1_y for b in s1_x],
        np.uint8,
    )
    codes.flags.writeable = False
    return codes


#: CZ count per mixer index, for gate accounting
MIXER_CZ_COUNTS = (0, 3) + (1,) * 9 + (2,) * 9


def split_two_qubit_index(idx):
    """(c0, c1, mixer) of a two-qubit Clifford id, or of an array of ids."""
    if np.any((idx < 0) | (idx >= TWO_QUBIT_GROUP_SIZE)):
        raise IndexError(idx)
    return idx // 480, idx // 20 % 24, idx % 20


def two_qubit_inverses(ids: np.ndarray, lengths: np.ndarray, gate=None) -> np.ndarray:
    """Index of the Clifford that inverts each row j of the (B, m) two-qubit
    ``ids``: its first ``lengths[j]`` Cliffords (the first acts first), each
    followed by the Clifford whose code is ``gate`` when one is given.  Their
    codes are padded with the identity to a power-of-two length and
    composed pairwise, halving them each round."""
    width = 1 << max(ids.shape[-1] - 1, 0).bit_length()
    codes = _group(2)[0][ids]
    if gate is not None:
        codes = _compose(codes, gate)
    x = np.tile(np.arange(16, dtype=np.uint8), (len(ids), width, 1))
    played = np.arange(ids.shape[-1]) < lengths[:, None]
    x[:, : ids.shape[-1]][played] = codes[played]
    while x.shape[1] > 1:
        x = _compose(x[:, 0::2], x[:, 1::2])
    # the inverse sends P_a to s P_b where the product sends P_b to s P_a
    back = np.argsort(x[:, 0] % 16, axis=-1)
    return _indices(np.take_along_axis(np.arange(16, dtype=np.uint8) | (x[:, 0] & 16), back, -1))
