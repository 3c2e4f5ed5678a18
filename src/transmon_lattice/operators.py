"""Truncated-oscillator Hamiltonians on subsets of the lattice.

Operators live on a tensor product of d-level sites.  Basis ordering is
little-endian in the subset list order: the occupation of the *last*
listed qubit varies fastest, i.e. basis index = sum_k n_k d^(m-1-k).
This ordering is frozen; file outputs rely on it.

Operators are dense complex arrays.  The builders write matrix elements
by index arithmetic on the occupation table (``basis_occupations``):
a term that changes the occupation of site k by s moves the basis index
by s * d^(m-1-k), so every term is a handful of O(dim) writes into one
dim x dim array.
"""
from __future__ import annotations

from typing import Mapping, Optional

import numpy as np

from .device import DeviceSpec, TransmonParams, Pair, pair_key
from .errors import (
    DimensionError,
    ResourceLimitError,
    UnknownQubitError,
)
from .values import FrozenValue

DEFAULT_DIMENSION_CAP = 4096


class SubsetSelection(FrozenValue):
    """An ordered subset of qubits with a common truncation d >= 2."""

    __slots__ = ("qubits", "levels", "dimension_cap")

    def __init__(
        self,
        qubits: tuple[str, ...],
        levels: int = 4,
        dimension_cap: int = DEFAULT_DIMENSION_CAP,
    ):
        self._assign(tuple(qubits), levels, dimension_cap)
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"subset has repeated qubits: {self.qubits}")
        if self.levels < 2:
            raise DimensionError(f"need at least 2 levels per site, got {self.levels}")
        if self.dim > self.dimension_cap:
            raise ResourceLimitError(
                f"dimension {self.levels}^{len(self.qubits)} = {self.dim} exceeds "
                f"cap {self.dimension_cap}"
            )

    @property
    def dim(self) -> int:
        return self.levels ** len(self.qubits)

    def index_of(self, label: str) -> int:
        try:
            return self.qubits.index(label)
        except ValueError:
            raise UnknownQubitError(label, self.qubits) from None

    def validate_against(self, device: DeviceSpec) -> None:
        for label in self.qubits:
            device.qubit(label)


class LatticeOperator(FrozenValue):
    """A dense complex operator on a subset's tensor-product space.

    ``matrix`` is held as a read-only view, so writing to it raises; a
    complex ndarray passed in is not copied.
    """

    __slots__ = ("matrix", "sites", "levels")

    def __init__(self, matrix: np.ndarray, sites: tuple[str, ...], levels: int):
        view = np.asarray(matrix, dtype=complex).view()
        view.flags.writeable = False
        self._assign(view, sites, levels)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def to_dense(self) -> np.ndarray:
        """A writable copy of the matrix."""
        return self.matrix.copy()

    def basis_labels(self) -> list[tuple[int, ...]]:
        """Occupation tuple for every basis index, in index order."""
        occupations = basis_occupations(len(self.sites), self.levels)
        return [tuple(row) for row in occupations.tolist()]

    def hermiticity_defect(self) -> float:
        """Max-norm of H - H^dagger; exactly 0.0 for the builders here."""
        return float(np.abs(self.matrix - self.matrix.conj().T).max())


def basis_occupations(n_sites: int, d: int) -> np.ndarray:
    """Occupation table: row b holds the occupation of every site in
    basis state b (int array of shape (d^n_sites, n_sites))."""
    return np.indices((d,) * n_sites).reshape(n_sites, d**n_sites).T


def _stride(site: int, n_sites: int, d: int) -> int:
    """Basis-index step of one quantum on ``site``."""
    return d ** (n_sites - site - 1)


def destroy(d: int) -> np.ndarray:
    """Lowering operator with the standard sqrt(k) ladder factors."""
    if d < 2:
        raise DimensionError(f"need at least 2 levels, got {d}")
    return np.diag(np.sqrt(np.arange(1, d)), k=1).astype(complex)


def number(d: int) -> np.ndarray:
    if d < 2:
        raise DimensionError(f"need at least 2 levels, got {d}")
    return np.diag(np.arange(d, dtype=float)).astype(complex)


def _embed(op: np.ndarray, site: int, n_sites: int, d: int) -> np.ndarray:
    """Embed a single-site d x d operator at position ``site``.

    Element (r, c) is op[n_site(r), n_site(c)] when r and c agree on
    every other site: from column c, the reachable rows are c with the
    site's occupation replaced by 0..d-1.
    """
    dim = d**n_sites
    stride = _stride(site, n_sites, d)
    occ = basis_occupations(n_sites, d)[:, site]
    cols = np.arange(dim)
    rows = (cols - occ * stride)[:, None] + np.arange(d) * stride
    out = np.zeros((dim, dim), dtype=complex)
    out[rows, cols[:, None]] = op[:, occ].T
    return out


def _site_energies(params: TransmonParams, d: int) -> np.ndarray:
    """Duffing ladder (omega + alpha/2 (k-1)) k for k = 0..d-1, in MHz."""
    k = np.arange(d, dtype=float)
    return (params.omega + 0.5 * params.alpha * (k - 1.0)) * k


def _hop_elements(
    i: int, j: int, subset: SubsetSelection
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nonzero elements of a_i^dag a_j: (rows, cols, values).

    From every basis state with a quantum on j and room on i, one
    quantum moves j -> i with amplitude sqrt(n_i + 1) sqrt(n_j).
    """
    d, n = subset.levels, len(subset.qubits)
    occ = basis_occupations(n, d)
    n_i, n_j = occ[:, i], occ[:, j]
    cols = np.flatnonzero((n_i < d - 1) & (n_j > 0))
    rows = cols + _stride(i, n, d) - _stride(j, n, d)
    ladder = np.sqrt(np.arange(d, dtype=float))
    return rows, cols, ladder[n_i[cols] + 1] * ladder[n_j[cols]]


def site_hamiltonian(params: TransmonParams, d: int) -> LatticeOperator:
    """Duffing on-site term: diagonal (omega + alpha/2 (k-1)) k at
    occupation k, in MHz."""
    if d < 2:
        raise DimensionError(f"need at least 2 levels, got {d}")
    return LatticeOperator(
        np.diag(_site_energies(params, d)).astype(complex), (params.label,), d
    )


def total_excitation(subset: SubsetSelection) -> LatticeOperator:
    total = basis_occupations(len(subset.qubits), subset.levels).sum(axis=1)
    return LatticeOperator(np.diag(total.astype(complex)), subset.qubits, subset.levels)


def exchange_operator(i: str, j: str, subset: SubsetSelection) -> LatticeOperator:
    """Hermitian hopping term a_i^dag a_j + a_i a_j^dag on the subset."""
    if i == j:
        raise ValueError("exchange needs two distinct qubits")
    rows, cols, values = _hop_elements(subset.index_of(i), subset.index_of(j), subset)
    mat = np.zeros((subset.dim, subset.dim), dtype=complex)
    mat[rows, cols] = values
    mat[cols, rows] = values
    return LatticeOperator(mat, subset.qubits, subset.levels)


def _site_term_matrix(device: DeviceSpec, subset: SubsetSelection) -> np.ndarray:
    """Sum of the on-site Duffing terms, added site by site in subset
    order."""
    occ = basis_occupations(len(subset.qubits), subset.levels)
    total = np.zeros(subset.dim)
    for k, label in enumerate(subset.qubits):
        total = total + _site_energies(device.qubit(label), subset.levels)[occ[:, k]]
    return np.diag(total.astype(complex))


def assemble_hamiltonian(
    device: DeviceSpec,
    subset: SubsetSelection,
    include_long_range: bool = False,
    j_overrides: Optional[Mapping[Pair, float]] = None,
) -> LatticeOperator:
    """Subset Hamiltonian: on-site Duffing terms plus J exchange for
    every coupled nearest-neighbor pair inside the subset, plus the
    long-range residuals when requested.  ``j_overrides`` replaces the
    device J for specific pairs (canonical-order keys).

    The result is Hermitian by construction and carries frequencies in
    MHz.
    """
    subset.validate_against(device)
    overrides = {pair_key(*p): v for p, v in (j_overrides or {}).items()}

    total = _site_term_matrix(device, subset)
    inside = set(subset.qubits)
    pairs: dict[Pair, float] = {}
    for (a, b), j in device.couplings.nn.items():
        if a in inside and b in inside:
            pairs[(a, b)] = j
    if include_long_range:
        for (a, b), j in device.couplings.lr.items():
            if a in inside and b in inside:
                pairs[(a, b)] = pairs.get((a, b), 0.0) + j
    for pair, j in overrides.items():
        a, b = pair
        if a in inside and b in inside:
            pairs[pair] = j

    for (a, b), j in sorted(pairs.items()):
        if j != 0.0:
            rows, cols, values = _hop_elements(
                subset.index_of(a), subset.index_of(b), subset
            )
            total[rows, cols] += j * values
            total[cols, rows] += j * values
    return LatticeOperator(total, subset.qubits, subset.levels)
