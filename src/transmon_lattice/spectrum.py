"""Dressed spectra of subset Hamiltonians, dressed-state labeling, and
the J implied by a measured ZZ.

A pair's static ZZ, exact and perturbative, is ``device.zz_exact`` and
``device.zz_perturbative``; the labeled dense spectrum here is the
reference they are checked against.  zeta values are reported signed,
in kHz; comparisons against published magnitudes should use abs().
"""
from __future__ import annotations

import math
from itertools import product
from typing import Optional

import numpy as np

from .device import DEFAULT_LABEL_THRESHOLD, POLE_GUARD
from .errors import ContractViolation, InconsistentSignError, LabelingError, NearPoleError
from .operators import LatticeOperator
from .values import Value

HERMITICITY_TOL = 1e-9
# the excitation sectors that the ZZ combination E11 - E10 - E01 + E00
# reads, and so the only ones assign_dressed_labels labels
ZZ_EXCITATIONS = 2


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
    """Label each bare occupation state of at most ``ZZ_EXCITATIONS``
    excitations by its maximum-overlap eigenstate.

    The model conserves excitation number, so the ZZ energies come from
    sectors 0-2, and higher sectors may hybridize (Q3,Q4 mixes its bare
    (1, 2) and (2, 1)) without touching them; those are left unlabeled.
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
        if sum(occupation) > ZZ_EXCITATIONS:
            continue
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


def j_from_zz(
    zeta_khz: float,
    delta: float,
    alpha_i: float,
    alpha_j: float,
) -> float:
    """Positive exchange coupling implied by a measured ZZ shift (kHz),
    inverting the perturbative relation.  Round-trips through
    :func:`zz_perturbative` to 1e-9 relative."""
    if delta == 0:
        raise ValueError("detuning must be nonzero")
    den_i = delta + alpha_i
    den_j = alpha_j - delta
    for name, den in (("delta + alpha_i", den_i), ("alpha_j - delta", den_j)):
        if abs(den) < POLE_GUARD:
            raise NearPoleError(
                f"|{name}| = {abs(den):.3f} MHz is inside the {POLE_GUARD} MHz "
                "pole guard"
            )
    radicand = (zeta_khz * 1e-3) * den_i * den_j / (-2.0 * (alpha_i + alpha_j))
    if radicand < 0:
        raise InconsistentSignError(
            "zeta sign is incompatible with the detuning/anharmonicity signs "
            f"(radicand {radicand:.3e})"
        )
    return math.sqrt(radicand)
