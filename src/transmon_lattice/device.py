"""Device parameters, unit conventions, circuit-energy relations, and the
second-order (perturbative) ZZ formula.

Unit conventions used throughout the package:

* all energies and frequencies are cyclic frequencies in MHz (h = 1,
  i.e. "omega" fields hold omega/2pi),
* times are in microseconds,
* phases are in radians,
* ZZ rates (zeta, nu_tilde) are reported in kHz.

Anharmonicities are stored negative, as measured.
"""
from __future__ import annotations

import math
from typing import Mapping, Optional

from .errors import NearPoleError, SingularCouplingError, UnknownQubitError
from .values import FrozenValue

# Additive slack (us) on the T2 <= 2 T1 physicality checks, to absorb
# rounding in published values.
T2_TOLERANCE = 1e-6

# Closest approach (MHz) of a perturbative-ZZ denominator to its pole.
DEFAULT_POLE_GUARD = 1.0

Pair = tuple[str, str]


def pair_key(a: str, b: str) -> Pair:
    """Canonical unordered key for a qubit pair."""
    if a == b:
        raise ValueError(f"pair must contain two distinct qubits, got {a!r} twice")
    return (a, b) if a < b else (b, a)


def omega_from_ej_ec(ej: float, ec: float) -> float:
    """Transmon 0-1 frequency sqrt(8 EJ EC) for EJ, EC in MHz (h = 1).

    Valid in the weakly anharmonic regime EJ >> EC.
    """
    if ej <= 0 or ec <= 0:
        raise ValueError(f"EJ and EC must be positive, got EJ={ej}, EC={ec}")
    return math.sqrt(8.0 * ej * ec)


def ej_from_omega(omega: float, ec: float) -> float:
    """Josephson energy implied by a qubit frequency and charging energy.

    Inverse of :func:`omega_from_ej_ec`.
    """
    if omega <= 0 or ec <= 0:
        raise ValueError(f"omega and EC must be positive, got omega={omega}, EC={ec}")
    return omega * omega / (8.0 * ec)


def j_from_circuit(
    eci: float,
    ecj: float,
    ecc: float,
    eji: float,
    ejj: float,
    symmetric: bool = False,
) -> float:
    """Exchange coupling of a capacitively coupled transmon pair, in MHz.

    Default evaluates the published closed form exactly as printed,
    where the quartic-root factor divides *both* Josephson energies by
    2*ECj.  ``symmetric=True`` opts into the variant with the first
    ratio divided by 2*ECi instead, which restores i<->j symmetry.
    Neither variant is asserted to be the "correct" one.
    """
    if ecc == 0:
        raise SingularCouplingError("coupling-capacitor charging energy is zero")
    if min(eci, ecj, ecc, eji, ejj) <= 0:
        raise ValueError("all circuit energies must be positive")
    first_divisor = eci if symmetric else ecj
    quartic = (eji / (2.0 * first_divisor)) * (ejj / (2.0 * ecj))
    return 2.0 * eci * ecj / ecc * quartic**0.25


def zz_perturbative(
    j: float,
    delta: float,
    alpha_i: float,
    alpha_j: float,
    pole_guard: float = DEFAULT_POLE_GUARD,
) -> float:
    """Second-order ZZ shift -2 J^2 (a_i + a_j) / ((D + a_i)(a_j - D)),
    returned in kHz for inputs in MHz.

    Raises :class:`NearPoleError` when either denominator is within
    ``pole_guard`` of zero (proximity to a higher-level resonance).
    """
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
    zeta_mhz = -2.0 * j * j * (alpha_i + alpha_j) / (den_i * den_j)
    return zeta_mhz * 1e3


class TransmonParams(FrozenValue):
    """Fixed-frequency transmon parameters.

    omega and alpha are omega/2pi and alpha/2pi in MHz (alpha < 0); ej
    and ec are the Josephson and charging energies in MHz (h = 1);
    t1/t2r/t2e are the relaxation, Ramsey, and echo times in us.
    """

    __slots__ = ("label", "omega", "alpha", "ej", "ec", "t1", "t2r", "t2e")

    def __init__(
        self,
        label: str,
        omega: float,
        alpha: float,
        ej: float,
        ec: float,
        t1: float,
        t2r: float,
        t2e: float,
    ):
        self._assign(label, omega, alpha, ej, ec, t1, t2r, t2e)
        if self.omega <= 0:
            raise ValueError(f"{self.label}: omega must be positive")
        if self.alpha >= 0:
            raise ValueError(f"{self.label}: alpha is stored negative, got {self.alpha}")
        if min(self.t1, self.t2r, self.t2e) <= 0:
            raise ValueError(f"{self.label}: coherence times must be positive")
        for name, t2 in (("t2r", self.t2r), ("t2e", self.t2e)):
            if t2 > 2.0 * self.t1 + T2_TOLERANCE:
                raise ValueError(
                    f"{self.label}: {name}={t2} exceeds 2*t1={2 * self.t1}"
                )

    @classmethod
    def from_frequency(
        cls,
        label: str,
        omega: float,
        alpha: float,
        t1: float,
        t2r: float,
        t2e: float,
    ) -> "TransmonParams":
        """Construct from measured (omega, alpha), seeding EC = -alpha
        and EJ from the transmon frequency relation."""
        ec = -alpha
        return cls(label, omega, alpha, ej_from_omega(omega, ec), ec, t1, t2r, t2e)


class ResonatorParams(FrozenValue):
    """Readout-resonator data: frequency (MHz), internal quality factor,
    external coupling rate (MHz), and dispersive shift (kHz).

    Stored for reporting only; the dynamics engine never consumes these.
    """

    __slots__ = ("label", "freq", "qi", "kappa_ext", "chi")

    def __init__(self, label: str, freq: float, qi: float, kappa_ext: float, chi: float):
        self._assign(label, freq, qi, kappa_ext, chi)
        if self.freq <= 0:
            raise ValueError(f"{self.label}: resonator frequency must be positive")
        if self.qi <= 0:
            raise ValueError(f"{self.label}: internal quality factor must be positive")


class CouplingGraph(FrozenValue):
    """Exchange couplings of the lattice, in MHz.

    ``nn`` maps unordered nearest-neighbor pairs to J, ``lr`` maps
    non-neighbor pairs to the long-range residual, and ``ecc``
    optionally stores coupling-capacitor charging energies.
    """

    __slots__ = ("nn", "lr", "ecc")

    def __init__(
        self,
        nn: Mapping[Pair, float],
        lr: Optional[Mapping[Pair, float]] = None,
        ecc: Optional[Mapping[Pair, float]] = None,
    ):
        self._assign(nn, {} if lr is None else lr, {} if ecc is None else ecc)
        for name, table in (("nn", self.nn), ("lr", self.lr), ("ecc", self.ecc)):
            for (a, b), value in table.items():
                if pair_key(a, b) != (a, b):
                    raise ValueError(f"{name} key {(a, b)} is not in canonical order")
                if not math.isfinite(value):
                    raise ValueError(f"{name}[{a},{b}] is not finite")

    def j(self, a: str, b: str) -> float:
        """Nearest-neighbor J for the pair, 0.0 if absent."""
        return self.nn.get(pair_key(a, b), 0.0)

    def j_long(self, a: str, b: str) -> float:
        """Long-range residual coupling for the pair, 0.0 if absent."""
        return self.lr.get(pair_key(a, b), 0.0)


class DeviceSpec(FrozenValue):
    """A rows x cols lattice of transmons with its coupling graph.

    ``qubits`` is ordered row-major by grid position; labels are free
    (the shipped device uses the serpentine numbering of the measured
    chip, so label order is not position order).
    """

    __slots__ = ("rows", "cols", "qubits", "resonators", "couplings")

    def __init__(
        self,
        rows: int,
        cols: int,
        qubits: tuple[TransmonParams, ...],
        resonators: tuple[ResonatorParams, ...] = (),
        couplings: Optional[CouplingGraph] = None,
    ):
        self._assign(
            rows, cols, qubits, resonators, CouplingGraph({}) if couplings is None else couplings
        )
        if len(self.qubits) != self.rows * self.cols:
            raise ValueError(
                f"expected {self.rows * self.cols} qubits, got {len(self.qubits)}"
            )
        labels = [q.label for q in self.qubits]
        if len(set(labels)) != len(labels):
            raise ValueError("qubit labels must be unique")
        grid_edges = self.grid_edges()
        for pair in self.couplings.nn:
            if pair not in grid_edges:
                raise ValueError(f"nn coupling {pair} is not a grid edge")
        known = set(labels)
        for table in (self.couplings.lr, self.couplings.ecc):
            for a, b in table:
                if a not in known or b not in known:
                    raise ValueError(f"coupling references unknown qubit in ({a},{b})")

    def labels(self) -> tuple[str, ...]:
        return tuple(q.label for q in self.qubits)

    def qubit(self, label: str) -> TransmonParams:
        for q in self.qubits:
            if q.label == label:
                return q
        raise UnknownQubitError(label, self.labels())

    def grid_edges(self) -> set[Pair]:
        """All nearest-neighbor edges of the grid, as canonical pairs."""
        edges: set[Pair] = set()
        for r in range(self.rows):
            for c in range(self.cols):
                here = self.qubits[r * self.cols + c].label
                if c + 1 < self.cols:
                    edges.add(pair_key(here, self.qubits[r * self.cols + c + 1].label))
                if r + 1 < self.rows:
                    edges.add(pair_key(here, self.qubits[(r + 1) * self.cols + c].label))
        return edges

    def nn_pairs(self) -> tuple[Pair, ...]:
        """Coupled nearest-neighbor pairs, sorted for determinism."""
        return tuple(sorted(self.couplings.nn))


def detuning(device: DeviceSpec, i: str, j: str) -> float:
    """Signed qubit-qubit detuning omega_i - omega_j in MHz."""
    if i == j:
        raise ValueError(f"detuning of {i!r} with itself is undefined")
    return device.qubit(i).omega - device.qubit(j).omega


def straddling_check(device: DeviceSpec, i: str, j: str) -> bool:
    """True when |detuning| is below both anharmonicity magnitudes."""
    delta = detuning(device, i, j)
    return abs(delta) < min(abs(device.qubit(i).alpha), abs(device.qubit(j).alpha))
