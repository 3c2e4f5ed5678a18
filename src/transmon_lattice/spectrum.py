"""Dressed spectra, dressed-state labeling, and ZZ <-> J conversion.

The exact ZZ shift is the four-energy combination of labeled dressed
eigenstates; the perturbative form, the second-order expression in
J/Delta, is ``device.zz_perturbative``.  zeta values are reported
signed, in kHz; comparisons against published magnitudes should use
abs().
"""
from __future__ import annotations

import math
from itertools import product
from typing import Optional

import numpy as np

from .device import DEFAULT_POLE_GUARD, DeviceSpec, Pair, pair_key, zz_perturbative
from .errors import ContractViolation, InconsistentSignError, LabelingError, NearPoleError
from .operators import LatticeOperator, SubsetSelection, assemble_hamiltonian
from .values import FrozenValue, Value

DEFAULT_LABEL_THRESHOLD = 0.7
HERMITICITY_TOL = 1e-9


class DressedSpectrum(Value):
    """Eigen-decomposition of a subset Hamiltonian with bare-state labels.

    ``labels`` maps occupation tuples to eigenindices once
    :func:`assign_dressed_labels` has run; ``overlaps`` records the
    squared overlap used for each assignment.
    """

    __slots__ = ("energies", "states", "sites", "levels", "labels", "overlaps")

    def __init__(
        self,
        energies: np.ndarray,
        states: np.ndarray,
        sites: tuple[str, ...],
        levels: int,
        labels: Optional[dict[tuple[int, ...], int]] = None,
        overlaps: Optional[dict[tuple[int, ...], float]] = None,
    ):
        self._assign(
            energies, states, sites, levels,
            {} if labels is None else labels, {} if overlaps is None else overlaps,
        )

    def energy_of(self, label: tuple[int, ...]) -> float:
        if label not in self.labels:
            raise KeyError(f"label {label} has not been assigned")
        return float(self.energies[self.labels[label]])


def diagonalize(op: LatticeOperator) -> DressedSpectrum:
    """Full eigen-decomposition (ascending energies) of a Hermitian
    subset operator."""
    defect = op.hermiticity_defect()
    if defect > HERMITICITY_TOL:
        raise ContractViolation(f"operator is not Hermitian (defect {defect:.3e})")
    energies, states = np.linalg.eigh(op.matrix)
    return DressedSpectrum(energies, states, op.sites, op.levels)


def assign_dressed_labels(
    spectrum: DressedSpectrum, threshold: float = DEFAULT_LABEL_THRESHOLD
) -> dict[tuple[int, ...], int]:
    """Label each bare occupation state by its maximum-overlap eigenstate.

    Fails with :class:`LabelingError` if any overlap drops below
    ``threshold`` or two bare labels claim the same eigenstate; both
    signal near-resonant hybridization where the dressed labels (and
    hence the ZZ combination) stop being well defined.
    """
    if not 0.5 < threshold <= 1.0:
        raise ValueError(f"threshold must lie in (0.5, 1], got {threshold}")
    weights = np.abs(spectrum.states) ** 2  # weights[bare, eig]
    labels: dict[tuple[int, ...], int] = {}
    overlaps: dict[tuple[int, ...], float] = {}
    claimed: dict[int, tuple[int, ...]] = {}
    basis = list(product(range(spectrum.levels), repeat=len(spectrum.sites)))
    for bare_index, occupation in enumerate(basis):
        eig = int(np.argmax(weights[bare_index]))
        overlap = float(weights[bare_index, eig])
        if overlap < threshold:
            raise LabelingError(
                f"bare state {occupation} has maximum dressed overlap "
                f"{overlap:.3f} < threshold {threshold}",
                labels=[occupation],
            )
        if eig in claimed:
            raise LabelingError(
                f"bare states {claimed[eig]} and {occupation} both map to "
                f"eigenstate {eig}",
                labels=[claimed[eig], occupation],
            )
        claimed[eig] = occupation
        labels[occupation] = eig
        overlaps[occupation] = overlap
    spectrum.labels = labels
    spectrum.overlaps = overlaps
    return labels


class ZZReport(FrozenValue):
    """Exact and perturbative ZZ for one pair, with the inputs used."""

    __slots__ = (
        "pair", "zeta_exact_khz", "zeta_perturbative_khz", "j_input", "levels", "subset",
    )

    def __init__(
        self,
        pair: Pair,
        zeta_exact_khz: float,
        zeta_perturbative_khz: float,
        j_input: float,
        levels: int,
        subset: tuple[str, ...],
    ):
        self._assign(pair, zeta_exact_khz, zeta_perturbative_khz, j_input, levels, subset)


def zz_exact(
    device: DeviceSpec,
    pair: Pair,
    levels: int = 4,
    j_override: Optional[float] = None,
    threshold: float = DEFAULT_LABEL_THRESHOLD,
) -> float:
    """Exact dressed ZZ shift E11 - E10 - E01 + E00 of a two-transmon
    subsystem, in kHz.

    Uses the device J for the pair unless ``j_override`` is given.
    Requires d >= 3 so the shift picks up the two-excitation levels that
    dominate it.
    """
    a, b = pair
    if levels < 3:
        raise ValueError("zz_exact needs at least 3 levels per site")
    subset = SubsetSelection((a, b), levels)
    overrides = None if j_override is None else {pair_key(a, b): j_override}
    h = assemble_hamiltonian(device, subset, j_overrides=overrides)
    spec = diagonalize(h)
    assign_dressed_labels(spec, threshold)
    zeta_mhz = (
        spec.energy_of((1, 1))
        - spec.energy_of((1, 0))
        - spec.energy_of((0, 1))
        + spec.energy_of((0, 0))
    )
    return zeta_mhz * 1e3


def j_from_zz(
    zeta_khz: float,
    delta: float,
    alpha_i: float,
    alpha_j: float,
    pole_guard: float = DEFAULT_POLE_GUARD,
) -> float:
    """Positive exchange coupling implied by a measured ZZ shift (kHz),
    inverting the perturbative relation.  Round-trips through
    :func:`zz_perturbative` to 1e-9 relative."""
    if delta == 0:
        raise ValueError("detuning must be nonzero")
    den_i = delta + alpha_i
    den_j = alpha_j - delta
    for name, den in (("delta + alpha_i", den_i), ("alpha_j - delta", den_j)):
        if abs(den) < pole_guard:
            raise NearPoleError(
                f"|{name}| = {abs(den):.3f} MHz is inside the {pole_guard} MHz "
                "pole guard"
            )
    radicand = (zeta_khz * 1e-3) * den_i * den_j / (-2.0 * (alpha_i + alpha_j))
    if radicand < 0:
        raise InconsistentSignError(
            "zeta sign is incompatible with the detuning/anharmonicity signs "
            f"(radicand {radicand:.3e})"
        )
    return math.sqrt(radicand)


def zz_report(
    device: DeviceSpec,
    pair: Pair,
    levels: int = 4,
    j_override: Optional[float] = None,
) -> ZZReport:
    """Exact and perturbative zeta for a coupled pair, side by side."""
    a, b = pair
    j = device.couplings.j(a, b) if j_override is None else j_override
    delta = device.qubit(a).omega - device.qubit(b).omega
    pert = zz_perturbative(j, delta, device.qubit(a).alpha, device.qubit(b).alpha)
    exact = zz_exact(device, pair, levels=levels, j_override=j_override)
    return ZZReport(pair_key(a, b), exact, pert, j, levels, (a, b))
