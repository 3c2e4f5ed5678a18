"""Device parameters, unit conventions, the transmon frequency relation,
and the static ZZ of a coupled pair: the second-order (perturbative)
formula and the exact dressed shift.

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

from .errors import LabelingError, NearPoleError, UnknownQubitError
from .values import FrozenValue

# Additive slack (us) on the T2 <= 2 T1 physicality checks, to absorb
# rounding in published values.
T2_TOLERANCE = 1e-6

# Closest approach (MHz) of a perturbative-ZZ denominator to its pole.
POLE_GUARD = 1.0

# Smallest squared overlap of a bare state with the eigenstate it labels.
DEFAULT_LABEL_THRESHOLD = 0.7

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


def zz_perturbative(
    j: float,
    delta: float,
    alpha_i: float,
    alpha_j: float,
) -> float:
    """Second-order ZZ shift -2 J^2 (a_i + a_j) / ((D + a_i)(a_j - D)),
    returned in kHz for inputs in MHz.

    Raises :class:`NearPoleError` when either denominator is within
    ``POLE_GUARD`` of zero (proximity to a higher-level resonance).
    """
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
    zeta_mhz = -2.0 * j * j * (alpha_i + alpha_j) / (den_i * den_j)
    return zeta_mhz * 1e3


def _jacobi(a: list[list[float]]) -> tuple[list[float], list[list[float]]]:
    """Eigenvalues and eigenvectors of a small real symmetric matrix (a
    list of rows) by cyclic Jacobi rotations, each of which zeroes one
    off-diagonal element, until every one is below 1e-18 of the sum of
    the absolute elements (1-6 sweeps on 3 x 3 blocks).  v[i][k] is the
    amplitude of basis state i in eigenvector k."""
    n = len(a)
    a = [list(row) for row in a]
    v = [[float(i == k) for k in range(n)] for i in range(n)]
    tiny = 1e-18 * sum(abs(x) for row in a for x in row)
    if not math.isfinite(tiny):
        raise ValueError(f"matrix {a} has an element that is not finite")
    off = [(p, q) for p in range(n) for q in range(p + 1, n)]
    while any(abs(a[p][q]) > tiny for p, q in off):
        for p, q in off:
            apq = a[p][q]
            if abs(apq) > tiny:
                theta = (a[q][q] - a[p][p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(1.0, theta))
                c = 1.0 / math.hypot(1.0, t)
                s = t * c
                app, aqq = a[p][p] - t * apq, a[q][q] + t * apq
                for row in a + v:  # A J and V J
                    row[p], row[q] = c * row[p] - s * row[q], s * row[p] + c * row[q]
                for r in range(n):  # J^T A J is symmetric: rows p, q mirror columns p, q
                    a[p][r], a[q][r] = a[r][p], a[r][q]
                a[p][p], a[q][q] = app, aqq
                a[p][q] = a[q][p] = 0.0
    return [a[k][k] for k in range(n)], v


def zz_exact(
    device: DeviceSpec,
    pair: Pair,
    j_override: Optional[float] = None,
    threshold: float = DEFAULT_LABEL_THRESHOLD,
) -> float:
    """Exact dressed ZZ shift E11 - E10 - E01 + E00 of a coupled pair, in kHz.

    Exchange conserves the excitation number, so the four energies lie in
    the pair's sectors |00>; |10>, |01>; |20>, |11>, |02>, whose elements
    are J and sqrt(2) J: the same at any truncation of 3 or more levels.
    Each sector's block is written relative to a bare energy inside it
    (sector 1 to its mean, sector 2 to |11>) from the detuning and the
    anharmonicities, so no element carries the rounding of a 10^4 MHz sum.
    Each bare state is labeled by its largest squared overlap inside its
    sector, and the ZZ sums the dressed shifts E - E_bare, whose bare parts
    cancel.  Runs in ``pair_key`` order, so both orders give the same
    bits.  Uses the device J unless ``j_override`` is given.  Fails with
    :class:`LabelingError` when two bare states of a sector claim one
    eigenstate or an overlap is below ``threshold`` (near-resonant
    hybridization, where the labels stop being well defined).
    """
    if not 0.5 < threshold <= 1.0:
        raise ValueError(f"threshold must lie in (0.5, 1], got {threshold}")
    a, b = pair_key(*pair)
    qa, qb = device.qubit(a), device.qubit(b)
    j = device.couplings.j(a, b) if j_override is None else j_override
    g, d = math.sqrt(2.0) * j, qa.omega - qb.omega
    shifts = {}
    for bare, block in (
        (((1, 0), (0, 1)), [[d / 2, j], [j, -d / 2]]),
        (((2, 0), (1, 1), (0, 2)), [[d + qa.alpha, g, 0.0], [g, 0.0, g], [0.0, g, qb.alpha - d]]),
    ):
        energies, v = _jacobi(block)
        weights = [[x * x for x in row] for row in v]
        claims = [row.index(max(row)) for row in weights]
        for i, k in enumerate(claims):
            first = claims.index(k)
            if first != i:
                raise LabelingError(
                    f"bare states {bare[first]} and {bare[i]} both map to eigenstate {k}",
                    labels=[bare[first], bare[i]],
                )
        for i, k in enumerate(claims):
            if weights[i][k] < threshold:
                raise LabelingError(
                    f"bare state {bare[i]} has maximum dressed overlap "
                    f"{weights[i][k]:.3f} < threshold {threshold}", labels=[bare[i]],
                )
            shifts[bare[i]] = energies[k] - block[i][i]
    return (shifts[1, 1] - shifts[1, 0] - shifts[0, 1]) * 1e3


class ZZReport(FrozenValue):
    """Exact and perturbative ZZ (kHz) of one pair, with the J used."""

    __slots__ = ("pair", "zeta_exact_khz", "zeta_perturbative_khz", "j_input")

    def __init__(
        self, pair: Pair, zeta_exact_khz: float, zeta_perturbative_khz: float, j_input: float
    ):
        self._assign(pair, zeta_exact_khz, zeta_perturbative_khz, j_input)


def zz_report(device: DeviceSpec, pair: Pair, j_override: Optional[float] = None) -> ZZReport:
    """Exact and perturbative zeta for a coupled pair, side by side."""
    a, b = pair_key(*pair)
    qa, qb = device.qubit(a), device.qubit(b)
    j = device.couplings.j(a, b) if j_override is None else j_override
    pert = zz_perturbative(j, qa.omega - qb.omega, qa.alpha, qb.alpha)
    return ZZReport((a, b), zz_exact(device, (a, b), j_override), pert, j)


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

    ``nn`` maps unordered nearest-neighbor pairs to J and ``lr`` maps
    non-neighbor pairs to the long-range residual.
    """

    __slots__ = ("nn", "lr")

    def __init__(self, nn: Mapping[Pair, float], lr: Optional[Mapping[Pair, float]] = None):
        self._assign(nn, {} if lr is None else lr)
        for name, table in (("nn", self.nn), ("lr", self.lr)):
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
        for a, b in self.couplings.lr:
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
