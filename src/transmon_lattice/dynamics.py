"""Time-domain evolution of driven subsets, ideal pulses and site readouts.

Evolution happens in a rotating frame chosen per call: ``"qubit"`` (each
site rotates at its own qubit frequency, the default), ``"lab"`` (no
rotation, no RWA: drives enter as physical cosines), a single number
(one common frame frequency for every site, e.g. the Stark-drive
frequency), or an explicit per-site mapping.  Hamiltonians are given to
the engine at absolute frequencies; the frame transform is applied
internally using the occupation-number structure of the basis.

Conventions: matrices carry cyclic frequencies in MHz, times are us, so
a propagator is exp(-2*pi*i*H*t).  A resonant tone of amplitude Omega
drives ground-state population as cos^2(pi*Omega*t) on a two-level
site.  Decay rates are plain inverse times in 1/us.
"""
from __future__ import annotations

import math
from typing import Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from .device import DeviceSpec
from .errors import ContractViolation, ResourceLimitError, UnknownQubitError
from .operators import LatticeOperator, destroy, number, _embed
from .values import FrozenValue, Value

ENVELOPES = ("rectangular", "blackman")
LINDBLAD_MAX_DIM = 32  # density-matrix side; its Liouvillian is 1024 x 1024


# --------------------------------------------------------------------- tones

class DriveTone(FrozenValue):
    """One off-resonant microwave tone applied to a single qubit.

    ``detuning`` is the drive frequency minus the target qubit's 0-1
    frequency, in MHz (positive = drive above the qubit).  ``rise`` is
    the Blackman ramp length in ns and is ignored for rectangular
    envelopes.  ``start``/``duration`` are in us.
    """

    __slots__ = (
        "target", "amplitude", "detuning", "phase", "envelope", "rise", "start", "duration",
    )

    def __init__(
        self,
        target: str,
        amplitude: float,
        detuning: float,
        phase: float = 0.0,
        envelope: str = "rectangular",
        rise: float = 0.0,
        start: float = 0.0,
        duration: float = 1.0,
    ):
        self._assign(target, amplitude, detuning, phase, envelope, rise, start, duration)
        if self.duration <= 0:
            raise ValueError("drive duration must be positive")
        if self.amplitude < 0:
            raise ValueError("drive amplitude must be non-negative")
        if self.envelope not in ENVELOPES:
            raise ValueError(f"unknown envelope {self.envelope!r}")
        if self.envelope == "blackman":
            if self.rise <= 0:
                raise ValueError("blackman envelope needs a positive rise (ns)")
            if 2 * self.rise * 1e-3 > self.duration:
                raise ValueError("rise and fall do not fit inside the duration")

    @property
    def stop(self) -> float:
        return self.start + self.duration

    def envelope_value(self, t: float) -> float:
        if not (self.start <= t <= self.stop):
            return 0.0
        if self.envelope == "rectangular":
            return 1.0
        rise_us = self.rise * 1e-3
        if t < self.start + rise_us:
            x = (t - self.start) / rise_us
        elif t > self.stop - rise_us:
            x = (self.stop - t) / rise_us
        else:
            return 1.0
        # rising half of a Blackman window, normalized to 1 at the top
        return 0.42 - 0.5 * math.cos(math.pi * x) + 0.08 * math.cos(2 * math.pi * x)


# --------------------------------------------------------------------- noise

class NoiseSpec(FrozenValue):
    """Per-qubit Lindblad rates plus quasi-static frequency jitter.

    ``relaxation`` and ``dephasing`` are 1/T1 and 1/Tphi in 1/us;
    ``jitter_khz`` is the standard deviation of a Gaussian quasi-static
    frequency offset in kHz, redrawn per shot by default (protocols
    expose a per-run mode for slow-drift studies).
    """

    __slots__ = ("relaxation", "dephasing", "jitter_khz")

    def __init__(
        self,
        relaxation: Optional[Mapping[str, float]] = None,
        dephasing: Optional[Mapping[str, float]] = None,
        jitter_khz: Optional[Mapping[str, float]] = None,
    ):
        self._assign(
            {} if relaxation is None else relaxation,
            {} if dephasing is None else dephasing,
            {} if jitter_khz is None else jitter_khz,
        )
        for name, table in (
            ("relaxation", self.relaxation),
            ("dephasing", self.dephasing),
            ("jitter_khz", self.jitter_khz),
        ):
            for label, rate in table.items():
                if rate < 0:
                    raise ContractViolation(f"{name}[{label}] = {rate} is negative")

    @classmethod
    def none(cls) -> "NoiseSpec":
        return cls()

    @classmethod
    def from_device(
        cls,
        device: DeviceSpec,
        qubits: Optional[Iterable[str]] = None,
        dephasing_reference: str = "echo",
    ) -> "NoiseSpec":
        """Rates reproducing a device's coherence table.

        ``dephasing_reference="echo"`` takes the Markovian pure
        dephasing from T2E (which echo cannot remove) and adds the
        quasi-static jitter needed for a Ramsey fit to decay at T2R;
        this reproduces both published times and their ordering.
        ``"ramsey"`` instead derives Tphi from T2R and injects no
        jitter, making echo and Ramsey decay identically.
        """
        if dephasing_reference not in ("echo", "ramsey"):
            raise ValueError("dephasing_reference must be 'echo' or 'ramsey'")
        labels = tuple(qubits) if qubits is not None else device.labels()
        relaxation: dict[str, float] = {}
        dephasing: dict[str, float] = {}
        jitter: dict[str, float] = {}
        for label in labels:
            q = device.qubit(label)
            relaxation[label] = 1.0 / q.t1
            if dephasing_reference == "ramsey":
                dephasing[label] = max(1.0 / q.t2r - 0.5 / q.t1, 0.0)
                jitter[label] = 0.0
            else:
                dephasing[label] = max(1.0 / q.t2e - 0.5 / q.t1, 0.0)
                # choose sigma so the Gaussian-enveloped Ramsey signal
                # reaches 1/e at T2R: T2R/T2E + (2 pi s T2R)^2 / 2 = 1
                gap = max(1.0 - q.t2r / q.t2e, 0.0)
                sigma_mhz = math.sqrt(2.0 * gap) / (2.0 * math.pi * q.t2r)
                jitter[label] = sigma_mhz * 1e3
        return cls(relaxation, dephasing, jitter)

    def rate(self, table: str, label: str) -> float:
        return getattr(self, table).get(label, 0.0)

    def has_lindblad(self, labels: Iterable[str]) -> bool:
        return any(
            self.rate("relaxation", q) > 0 or self.rate("dephasing", q) > 0
            for q in labels
        )


# -------------------------------------------------------- frame + term setup

FrameLike = Union[str, float, Mapping[str, float]]


def resolve_frame(
    sites: Sequence[str], frame: FrameLike, device: Optional[DeviceSpec]
) -> dict[str, float]:
    """Per-site frame frequencies in MHz.  ``"lab"`` means 0 everywhere
    (and implies no RWA in drive terms)."""
    if isinstance(frame, str):
        if frame == "lab":
            return {s: 0.0 for s in sites}
        if frame == "qubit":
            if device is None:
                raise ValueError("frame='qubit' needs the device")
            return {s: device.qubit(s).omega for s in sites}
        raise ValueError(f"unknown frame {frame!r}")
    if isinstance(frame, Mapping):
        missing = [s for s in sites if s not in frame]
        if missing:
            raise UnknownQubitError(missing[0], tuple(frame))
        return {s: float(frame[s]) for s in sites}
    return {s: float(frame) for s in sites}


class _RotatingTerm(Value):
    """env(t) * (M exp(-i(2 pi nu t + phase)) + h.c.), windowed in time."""

    __slots__ = ("matrix", "nu", "phase", "tone")

    def __init__(
        self,
        matrix: np.ndarray,
        nu: float,
        phase: float,
        tone: Optional[DriveTone],  # None = always-on (frame-split coupling)
    ):
        self._assign(matrix, nu, phase, tone)

    def window(self) -> tuple[float, float]:
        if self.tone is None:
            return (-math.inf, math.inf)
        return (self.tone.start, self.tone.stop)

    def breakpoints(self) -> tuple[float, ...]:
        """Times where the term's time dependence changes character."""
        if self.tone is None:
            return ()
        if self.tone.envelope == "rectangular":
            return (self.tone.start, self.tone.stop)
        rise_us = self.tone.rise * 1e-3
        return (
            self.tone.start,
            self.tone.start + rise_us,
            self.tone.stop - rise_us,
            self.tone.stop,
        )

    def envelope(self, t: float) -> float:
        return 1.0 if self.tone is None else self.tone.envelope_value(t)

    def is_static_on(self, left: float, right: float) -> bool:
        """Constant contribution over (left, right)?"""
        if self.nu != 0.0:
            return False
        if self.tone is None or self.tone.envelope == "rectangular":
            return True
        rise_us = self.tone.rise * 1e-3
        flat_left = self.tone.start + rise_us
        flat_right = self.tone.stop - rise_us
        return left >= flat_left - 1e-15 and right <= flat_right + 1e-15

    def add_to(self, h: np.ndarray, t: float) -> None:
        env = self.envelope(t)
        if env == 0.0:
            return
        rot = env * np.exp(-1j * (2 * np.pi * self.nu * t + self.phase))
        block = rot * self.matrix
        h += block
        h += block.conj().T


def _split_by_frame(
    h_abs: np.ndarray,
    labels: np.ndarray,
    frame_freqs: np.ndarray,
    tol: float = 1e-9,
) -> tuple[np.ndarray, list[_RotatingTerm]]:
    """Frame-transform an absolute-frequency Hamiltonian.

    Every matrix element (r, c) acquires the phase
    exp(+2 pi i t f.(n_r - n_c)); elements are bucketed by that
    frequency.  The zero bucket, minus the frame term f.n on the
    diagonal, is the static part.
    """
    static = np.zeros_like(h_abs)
    rows, cols = np.nonzero(h_abs)
    nus = (labels[rows] - labels[cols]) @ frame_freqs
    in_static = np.abs(nus) < tol
    static[rows[in_static], cols[in_static]] = h_abs[rows[in_static], cols[in_static]]
    # nu < 0 entries are the Hermitian partners of the nu > 0 bucket
    rotating = ~in_static & (nus > 0)
    rows, cols = rows[rotating], cols[rotating]
    distinct, which = np.unique(nus[rotating], return_inverse=True)
    keys = np.array([round(float(nu), 9) for nu in distinct])[which]
    static -= np.diag(labels @ frame_freqs)
    terms = []
    for key in sorted(set(keys.tolist())):
        hit = keys == key
        mat = np.zeros_like(h_abs)
        mat[rows[hit], cols[hit]] = h_abs[rows[hit], cols[hit]]
        # element phase is exp(+2 pi i nu t); in the M exp(-i(...)) convention
        # that is nu_term = -nu with M holding the +nu bucket
        terms.append(_RotatingTerm(matrix=mat, nu=-key, phase=0.0, tone=None))
    return static, terms


def _drive_matrix(tone: DriveTone, sites: Sequence[str], levels: int) -> np.ndarray:
    if tone.target not in sites:
        raise UnknownQubitError(tone.target, sites)
    site = list(sites).index(tone.target)
    a = _embed(destroy(levels), site, len(sites), levels)
    return a.conj().T  # raising operator


def _drive_terms(
    drives: Sequence[DriveTone],
    sites: Sequence[str],
    levels: int,
    frames: Mapping[str, float],
    device: Optional[DeviceSpec],
    rwa: bool,
) -> list[_RotatingTerm]:
    terms = []
    for tone in drives:
        if device is None:
            raise ValueError("drives need the device to resolve absolute frequencies")
        omega_d = device.qubit(tone.target).omega + tone.detuning
        adag = _drive_matrix(tone, sites, levels)
        if rwa:
            # (Omega/2)(a^dag e^{-i(2 pi (w_d - f) t + phi)} + h.c.)
            terms.append(
                _RotatingTerm(
                    matrix=0.5 * tone.amplitude * adag,
                    nu=omega_d - frames[tone.target],
                    phase=tone.phase,
                    tone=tone,
                )
            )
        else:
            if any(abs(f) > 1e-12 for f in frames.values()):
                raise ValueError("rwa=False is only supported in the lab frame")
            # full cosine drive: Omega cos(2 pi w_d t + phi)(a + a^dag);
            # with Hermitian M, the term M e^{-i theta} + h.c. equals
            # 2 M cos(theta), so M = (Omega/2)(a + a^dag).
            x = 0.5 * tone.amplitude * (adag + adag.conj().T)
            terms.append(
                _RotatingTerm(matrix=x, nu=omega_d, phase=tone.phase, tone=tone)
            )
    return terms


def _segment_edges(
    t0: float, t1: float, terms: Sequence[_RotatingTerm]
) -> np.ndarray:
    edges = {t0, t1}
    for term in terms:
        for edge in term.breakpoints():
            if t0 < edge < t1:
                edges.add(edge)
    return np.array(sorted(edges))


def _hamiltonian(static, terms, t) -> np.ndarray:
    h = static.copy()
    for term in terms:
        term.add_to(h, t)
    return h


def _collapse_operators(
    sites: Sequence[str], levels: int, noise: NoiseSpec
) -> list[tuple[float, np.ndarray]]:
    ops = []
    n_sites = len(sites)
    for k, label in enumerate(sites):
        g1 = noise.rate("relaxation", label)
        if g1 > 0:
            ops.append((g1, _embed(destroy(levels), k, n_sites, levels)))
        gphi = noise.rate("dephasing", label)
        if gphi > 0:
            ops.append((2.0 * gphi, _embed(number(levels), k, n_sites, levels)))
    return ops


def _liouvillian(h: np.ndarray, collapse: Sequence[tuple[float, np.ndarray]]) -> np.ndarray:
    """Lindblad generator acting on row-major vectorized density matrices,
    of one Hamiltonian or of each in a stack (..., dim, dim)."""
    eye = np.eye(h.shape[-1])
    lv = -2j * np.pi * (np.kron(h, eye) - np.kron(eye, np.swapaxes(h, -1, -2)))
    for rate, op in collapse:
        decay = op.conj().T @ op
        lv += rate * (
            np.kron(op, op.conj())
            - 0.5 * np.kron(decay, eye)
            - 0.5 * np.kron(eye, decay.T)
        )
    return lv


def _modes(h: np.ndarray, collapse) -> tuple:
    """The static generator of ``h`` (or of each in a stack) as
    right diag(rates) left: (rates, right, left, miss).

    With ``collapse`` None the generator is -2 pi i H, from ``eigh``, so
    left = right^dag and ``miss`` is 0.  Otherwise it is the Liouvillian
    of H and the Lindblad terms ``collapse``, from ``eig``, and ``miss``
    is the relative error of rebuilding the Liouvillian from its modes,
    which is large where they nearly coincide (a nearly defective
    Liouvillian, such as a weak drive beside a decaying site)."""
    if collapse is None:
        energies, right = np.linalg.eigh(h)
        return -2j * np.pi * energies, right, np.swapaxes(right.conj(), -1, -2), 0.0
    lv = _liouvillian(h, collapse)
    rates, right = np.linalg.eig(lv)
    left = np.linalg.inv(right)
    scale = np.abs(lv).max()
    miss = np.abs((right * rates[..., None, :]) @ left - lv).max() / scale if scale else 0.0
    return rates, right, left, miss


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) of any square matrix, defective ones included: a degree-18
    Taylor series of a / 2^s with ||a / 2^s||_1 <= 1/2, squared s times."""
    norm = np.linalg.norm(a, 1)
    squarings = math.ceil(math.log2(2.0 * norm)) if norm > 0.5 else 0
    term = result = np.eye(len(a), dtype=complex)
    for k in range(1, 19):
        term = term @ a / (k * 2.0**squarings)
        result = result + term
    for _ in range(squarings):
        result = result @ result
    return result


def _propagate_static(h, collapse, psi, times) -> np.ndarray:
    """``psi`` carried by the static generator of :func:`_modes` to every
    time in ``times``: state vectors when ``collapse`` is None, otherwise
    row-major vectorized density matrices.  Where the modes miss the
    Liouvillian by over 1e-12 relative, :func:`_expm` takes each time
    instead.  ``psi`` is one vector or a matrix whose columns are
    vectors; the result has a leading time axis."""
    rates, right, left, miss = _modes(h, collapse)
    if miss > 1e-12:
        lv = _liouvillian(h, collapse)
        return np.array([_expm(lv * t) @ psi for t in times])
    coeffs = (left @ psi).reshape(len(rates), -1)
    moved = right @ (np.exp(times[:, None, None] * rates[:, None]) * coeffs)
    return moved.reshape(len(times), *psi.shape)


ENVELOPE_SLICES = 24  # midpoint slices of a segment where only envelopes vary
SLICES_PER_PERIOD = 64  # Magnus slices per period of a segment's fastest rate
# 4th-order commutator-free Magnus weights at the Gauss nodes 1/2 -+ sqrt(3)/6
# (Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151 (2009))
_MAGNUS_A, _MAGNUS_B = (3 + 2 * math.sqrt(3)) / 12, (3 - 2 * math.sqrt(3)) / 12
_GAUSS_NODES = (0.5 - math.sqrt(3) / 6, 0.5 + math.sqrt(3) / 6)


def _magnus_edges(static, terms, left, right, t_eval) -> np.ndarray:
    """Slice edges of [left, right], every ``t_eval`` time among them, at
    most 1/(SLICES_PER_PERIOD f) apart.  The rate f is the faster of the
    terms' rotation and the static spectrum's spread, plus twice each
    term's norm, the most the terms can widen that spread."""
    energies = np.linalg.eigvalsh(static)
    rate = max(max(abs(t.nu) for t in terms), energies[-1] - energies[0])
    rate += 2.0 * sum(np.linalg.norm(t.matrix, 2) for t in terms)
    cuts = np.unique(np.clip(np.append(t_eval, (left, right)), left, right))
    return np.concatenate([
        np.linspace(p, q, math.ceil(SLICES_PER_PERIOD * rate * (q - p)) + 1)[:-1]
        for p, q in zip(cuts[:-1], cuts[1:])
    ] + [[right]])


def _propagate_sliced(
    static: np.ndarray,
    terms: Sequence[_RotatingTerm],
    collapse: Optional[Sequence[tuple[float, np.ndarray]]],
    psi: np.ndarray,
    left: float,
    right: float,
    t_eval: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Step through a time-dependent segment in slices of static
    exponentials: ``ENVELOPE_SLICES`` at their midpoint Hamiltonian where
    only envelopes vary, else the slices of :func:`_magnus_edges`, each
    two exponentials of Hamiltonians mixed from its Gauss nodes.

    ``psi`` and ``collapse`` are as in :func:`_propagate_static` (the
    identity as ``psi`` gives the segment's propagator).  Returns (``psi``
    carried to ``right``, its values at the ``t_eval`` points, which must
    lie within [left, right])."""
    states_out = np.empty((len(t_eval), *psi.shape), dtype=complex)
    states_out[np.abs(t_eval - left) <= 1e-15] = psi
    midpoint = all(t.nu == 0.0 for t in terms)
    edges = (
        np.linspace(left, right, ENVELOPE_SLICES + 1) if midpoint
        else _magnus_edges(static, terms, left, right, t_eval)
    )
    for a, b in zip(edges[:-1], edges[1:]):
        inside = (t_eval > a + 1e-15) & (t_eval <= b + 1e-15)
        if midpoint:
            h = _hamiltonian(static, terms, 0.5 * (a + b))
            moved = _propagate_static(h, collapse, psi, np.append(t_eval[inside] - a, b - a))
            states_out[inside] = moved[:-1]
            psi = moved[-1]
            continue
        # the weights sum to 1/2: each factor holds 2 (A h1 + B h2) for half the slice
        h1, h2 = (_hamiltonian(static, terms, a + x * (b - a)) for x in _GAUSS_NODES)
        for h in (_MAGNUS_A * h1 + _MAGNUS_B * h2, _MAGNUS_B * h1 + _MAGNUS_A * h2):
            psi = _propagate_static(2.0 * h, collapse, psi, np.array([0.5 * (b - a)]))[0]
        states_out[inside] = psi
    return psi, states_out


def _checked_grid(t_grid: Sequence[float]) -> np.ndarray:
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or len(t_grid) == 0 or np.any(np.diff(t_grid) < 0):
        raise ValueError("t_grid must be a non-empty ascending sequence")
    if t_grid[0] < 0:
        raise ValueError("t_grid times are measured from 0 and must be >= 0")
    return t_grid


def _frame_terms(h0, drives, device, frame, rwa, extra_static):
    """The static frame Hamiltonian and the rotating coupling and drive
    terms of ``h0`` driven by ``drives``."""
    frames = resolve_frame(h0.sites, frame, device)
    labels = np.array(h0.basis_labels(), dtype=float)
    freqs = np.array([frames[s] for s in h0.sites])
    static, coupling_terms = _split_by_frame(h0.matrix, labels, freqs)
    if extra_static is not None:
        static = static + extra_static
    terms = coupling_terms + _drive_terms(
        drives, h0.sites, h0.levels, frames, device, rwa
    )
    return static, terms


def evolve(
    h0: LatticeOperator,
    drives: Sequence[DriveTone],
    psi0: np.ndarray,
    t_grid: Sequence[float],
    device: Optional[DeviceSpec] = None,
    frame: FrameLike = "qubit",
    rwa: bool = True,
    extra_static: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Closed-system trajectory; returns states of shape (len(t), dim).

    ``h0`` is the absolute-frequency subset Hamiltonian; the frame
    transform and drive terms are applied internally.  ``extra_static``
    (a matrix in the frame, e.g. a jitter term) is added verbatim.
    Piecewise-static configurations propagate by exact diagonalization;
    envelope ramps step through midpoint slices and rotating terms
    through 4th-order commutator-free Magnus slices, both in
    :func:`_propagate_sliced`.
    """
    t_grid = _checked_grid(t_grid)
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (h0.dim,):
        raise ValueError(f"psi0 must have shape ({h0.dim},)")
    static, terms = _frame_terms(h0, drives, device, frame, rwa, extra_static)
    return _evolve(static, terms, None, psi0, t_grid)


def evolve_open(
    h0: LatticeOperator,
    drives: Sequence[DriveTone],
    rho0: np.ndarray,
    noise: NoiseSpec,
    t_grid: Sequence[float],
    device: Optional[DeviceSpec] = None,
    frame: FrameLike = "qubit",
    rwa: bool = True,
    extra_static: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Lindblad trajectory; returns density matrices (len(t), dim, dim).

    Relaxation enters through lowering operators, pure dephasing through
    number operators at twice the dephasing rate.  Quasi-static jitter
    is not sampled here; protocols add it as ``extra_static`` terms.
    Segments propagate as in :func:`evolve`, with an ``eig`` of the
    Liouvillian in place of ``eigh``, so a side above
    ``LINDBLAD_MAX_DIM`` raises :class:`ResourceLimitError`.
    """
    t_grid = _checked_grid(t_grid)
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != (h0.dim, h0.dim):
        raise ValueError(f"rho0 must have shape ({h0.dim}, {h0.dim})")
    if h0.dim > LINDBLAD_MAX_DIM:
        raise ResourceLimitError(f"density matrix side {h0.dim} > {LINDBLAD_MAX_DIM}")
    if abs(np.trace(rho0) - 1.0) > 1e-9:
        raise ContractViolation("rho0 must have unit trace")
    eigmin = float(np.linalg.eigvalsh(0.5 * (rho0 + rho0.conj().T)).min())
    if eigmin < -1e-9:
        raise ContractViolation(f"rho0 is not positive semidefinite ({eigmin:.2e})")
    static, terms = _frame_terms(h0, drives, device, frame, rwa, extra_static)
    collapse = _collapse_operators(h0.sites, h0.levels, noise)
    out = _evolve(static, terms, collapse, rho0.reshape(-1), t_grid)
    return out.reshape(len(t_grid), h0.dim, h0.dim)


def _evolve(static, terms, collapse, y0, t_grid) -> np.ndarray:
    """Propagate ``y0`` from time 0 through ascending grid times: a state
    vector when ``collapse`` is None, otherwise a row-major vectorized
    density matrix under the Lindblad terms ``collapse``.

    A segment on which every term is static propagates exactly with one
    diagonalization; any other steps through :func:`_propagate_sliced`."""
    out = np.empty((len(t_grid), len(y0)), dtype=complex)
    edges = _segment_edges(0.0, float(t_grid[-1]), terms)
    y = y0.copy()
    for left, right in zip(edges[:-1], edges[1:]):
        sel = (t_grid >= left - 1e-15) & (t_grid <= right + 1e-15)
        inside = t_grid[sel]
        active = [
            t for t in terms if t.window()[0] < right and t.window()[1] > left
        ]
        if all(t.is_static_on(left, right) for t in active):
            h_seg = _hamiltonian(static, active, 0.5 * (left + right))
            moved = _propagate_static(
                h_seg, collapse, y, np.append(inside - left, right - left)
            )
            out[sel] = moved[:-1]
            y = moved[-1]
            continue
        y, out[sel] = _propagate_sliced(static, active, collapse, y, left, right, inside)
    if len(edges) == 1:  # grid entirely at t = 0
        out[:] = y0
    return out


# -------------------------------------------------------------- ideal pulses

def rotation_gate(theta: float, axis_phase: float, levels: int) -> np.ndarray:
    """Ideal instantaneous rotation on the 0-1 subspace of a d-level
    site: exp(-i theta/2 (cos(phi) X + sin(phi) Y)); higher levels are
    untouched (no leakage in the measurement model)."""
    u = np.eye(levels, dtype=complex)
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    u[0, 0] = c
    u[1, 1] = c
    u[0, 1] = -1j * s * np.exp(-1j * axis_phase)
    u[1, 0] = -1j * s * np.exp(1j * axis_phase)
    return u


def site_populations(
    state: np.ndarray, site: int, n_sites: int, levels: int
) -> np.ndarray:
    """Occupation-level populations of one site (bare basis)."""
    if state.ndim == 1:
        probs = np.abs(state) ** 2
    else:
        probs = np.real(np.diag(state))
    shaped = probs.reshape((levels,) * n_sites)
    axes = tuple(k for k in range(n_sites) if k != site)
    return shaped.sum(axis=axes)


def reduced_site_state(
    state: np.ndarray, site: int, n_sites: int, levels: int
) -> np.ndarray:
    """Reduced density matrix of one site from a state vector or
    density matrix on the subset space."""
    if state.ndim == 1:
        psi = np.moveaxis(state.reshape((levels,) * n_sites), site, 0)
        psi = psi.reshape(levels, -1)
        return psi @ psi.conj().T
    ket = list("abcdefghijklmnopqrstuvwxyz"[:n_sites])
    bra = ket.copy()
    ket[site] = "y"
    bra[site] = "z"
    sub = "".join(ket) + "".join(bra) + "->yz"
    return np.einsum(sub, state.reshape((levels,) * (2 * n_sites)))


def site_coherence(
    state: np.ndarray, site: int, n_sites: int, levels: int
) -> complex:
    """<0|rho_site|1>, which rotates as exp(+2 pi i (E1 - E0) t)."""
    return complex(reduced_site_state(state, site, n_sites, levels)[0, 1])
