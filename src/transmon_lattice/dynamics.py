"""Time-domain evolution of driven subsets, echo sequences, ideal pulses
and site readouts.

Evolution happens in the frame rotating at one frequency given per call,
common to every site, at which every tone plays (a qubit frequency, or a
Stark-drive frequency).  Hamiltonians are given to the engine at absolute
frequencies; the frame transform is applied internally using the
occupation-number structure of the basis.  In the frame every term of
the Hamiltonian must be static: a term that changes the excitation number
rotates in any nonzero frame and raises ValueError naming the rate.
Drives enter in the rotating-wave approximation.

Conventions: matrices carry cyclic frequencies in MHz, times are us, so
a propagator is exp(-2*pi*i*H*t).  A resonant tone of amplitude Omega
drives ground-state population as cos^2(pi*Omega*t) on a two-level
site.  Decay rates are plain inverse times in 1/us.
"""
from __future__ import annotations

import math
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .device import DeviceSpec
from .errors import ContractViolation, ResourceLimitError, UnknownQubitError
from .operators import LatticeOperator, basis_occupations, destroy, number, _embed
from .values import FrozenValue, Value

ENVELOPES = ("rectangular", "blackman")
LINDBLAD_MAX_DIM = 32  # density-matrix side; its Liouvillian is 1024 x 1024


# --------------------------------------------------------------------- tones

class DriveTone(FrozenValue):
    """One microwave tone applied to a single qubit, playing at the
    frequency of the frame it is evolved in.

    ``rise`` is the Blackman ramp length in ns and is ignored for
    rectangular envelopes.  ``start``/``duration`` are in us.
    """

    __slots__ = ("target", "amplitude", "phase", "envelope", "rise", "start", "duration")

    def __init__(
        self,
        target: str,
        amplitude: float,
        phase: float = 0.0,
        envelope: str = "rectangular",
        rise: float = 0.0,
        start: float = 0.0,
        duration: float = 1.0,
    ):
        self._assign(target, amplitude, phase, envelope, rise, start, duration)
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
    def from_device(
        cls, device: DeviceSpec, qubits: Optional[Iterable[str]] = None
    ) -> "NoiseSpec":
        """Rates reproducing a device's coherence table: the Markovian
        pure dephasing from T2E (which echo cannot remove) and the
        quasi-static jitter needed for a Ramsey fit to decay at T2R,
        which reproduces both published times and their ordering.
        """
        labels = tuple(qubits) if qubits is not None else device.labels()
        relaxation: dict[str, float] = {}
        dephasing: dict[str, float] = {}
        jitter: dict[str, float] = {}
        for label in labels:
            q = device.qubit(label)
            relaxation[label] = 1.0 / q.t1
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

FRAME_TOL = 1e-9  # MHz: a term rotating slower than this in the frame is static


class _DriveTerm(Value):
    """env(t) (M exp(-i phase) + h.c.): a tone's drive in the frame of its
    carrier, where only its envelope varies."""

    __slots__ = ("matrix", "tone")

    def __init__(self, matrix: np.ndarray, tone: DriveTone):
        self._assign(matrix, tone)

    def breakpoints(self) -> tuple[float, ...]:
        """Times where the term's time dependence changes character."""
        if self.tone.envelope == "rectangular":
            return (self.tone.start, self.tone.stop)
        rise_us = self.tone.rise * 1e-3
        return (
            self.tone.start,
            self.tone.start + rise_us,
            self.tone.stop - rise_us,
            self.tone.stop,
        )

    def is_static_on(self, left: float, right: float) -> bool:
        """Constant contribution over (left, right)?"""
        if self.tone.envelope == "rectangular":
            return True
        rise_us = self.tone.rise * 1e-3
        flat_left = self.tone.start + rise_us
        flat_right = self.tone.stop - rise_us
        return left >= flat_left - 1e-15 and right <= flat_right + 1e-15

    def add_to(self, h: np.ndarray, t: float) -> None:
        env = self.tone.envelope_value(t)
        if env == 0.0:
            return
        block = env * np.exp(-1j * self.tone.phase) * self.matrix
        h += block
        h += block.conj().T


def _frame_static(h0: LatticeOperator, frame: float) -> np.ndarray:
    """Transform ``h0`` into the frame rotating at ``frame`` MHz on every
    site: element (r, c) acquires the phase exp(+2 pi i t f (N_r - N_c)),
    which must be static (else ValueError), and the frame term f N leaves
    the diagonal, summed over the sites."""
    occ = basis_occupations(len(h0.sites), h0.levels)
    freqs = np.full(len(h0.sites), float(frame))
    rows, cols = np.nonzero(h0.matrix)
    nus = (occ[rows] - occ[cols]) @ freqs
    if np.any(np.abs(nus) >= FRAME_TOL):
        raise ValueError(
            f"a term that changes the excitation number rotates at "
            f"{np.abs(nus).max():.6g} MHz in this frame; it is static only in frame 0"
        )
    return h0.matrix - np.diag(occ @ freqs)


def _drive_terms(
    drives: Sequence[DriveTone], sites: Sequence[str], levels: int
) -> list[_DriveTerm]:
    """Each tone's (Omega/2)(a^dag e^{-i phi} + h.c.) in its frame."""
    terms = []
    for tone in drives:
        if tone.target not in sites:
            raise UnknownQubitError(tone.target, sites)
        a = _embed(destroy(levels), list(sites).index(tone.target), len(sites), levels)
        terms.append(_DriveTerm(matrix=0.5 * tone.amplitude * a.conj().T, tone=tone))
    return terms


def _segment_edges(
    t0: float, t1: float, terms: Sequence[_DriveTerm]
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


ENVELOPE_SLICES = 48  # Magnus slices of a segment where an envelope varies
# 4th-order commutator-free Magnus weights at the Gauss nodes 1/2 -+ sqrt(3)/6
# (Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151 (2009))
_MAGNUS_A, _MAGNUS_B = (3 + 2 * math.sqrt(3)) / 12, (3 - 2 * math.sqrt(3)) / 12
_GAUSS_NODES = (0.5 - math.sqrt(3) / 6, 0.5 + math.sqrt(3) / 6)


def _magnus_edges(left, right, t_eval) -> np.ndarray:
    """Slice edges of [left, right], every ``t_eval`` time among them and
    at most (right - left) / ENVELOPE_SLICES apart."""
    density = ENVELOPE_SLICES / (right - left)
    cuts = sorted({min(max(float(t), left), right) for t in (*t_eval, left, right)})
    # the guard keeps a whole count whole: n / x * x can round above n
    return np.concatenate([
        np.linspace(p, q, math.ceil(density * (q - p) * (1 - 1e-12)) + 1)[:-1]
        for p, q in zip(cuts[:-1], cuts[1:])
    ] + [[right]])


def _propagate_sliced(
    static: np.ndarray,
    terms: Sequence[_DriveTerm],
    collapse: Optional[Sequence[tuple[float, np.ndarray]]],
    psi: np.ndarray,
    left: float,
    right: float,
    t_eval: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Step through a time-dependent segment in the 4th-order
    commutator-free Magnus slices of :func:`_magnus_edges`, each two
    static exponentials of Hamiltonians mixed from its Gauss nodes.

    ``psi`` and ``collapse`` are as in :func:`_propagate_static` (the
    identity as ``psi`` gives the segment's propagator).  Returns (``psi``
    carried to ``right``, its values at the ``t_eval`` points, which must
    lie within [left, right])."""
    states_out = np.empty((len(t_eval), *psi.shape), dtype=complex)
    states_out[np.abs(t_eval - left) <= 1e-15] = psi
    edges = _magnus_edges(left, right, t_eval)
    for a, b in zip(edges[:-1], edges[1:]):
        # the weights sum to 1/2: each factor holds 2 (A h1 + B h2) for half the slice
        h1, h2 = (_hamiltonian(static, terms, a + x * (b - a)) for x in _GAUSS_NODES)
        for h in (_MAGNUS_A * h1 + _MAGNUS_B * h2, _MAGNUS_B * h1 + _MAGNUS_A * h2):
            psi = _propagate_static(2.0 * h, collapse, psi, np.array([0.5 * (b - a)]))[0]
        states_out[(t_eval > a + 1e-15) & (t_eval <= b + 1e-15)] = psi
    return psi, states_out


def _checked_grid(t_grid: Sequence[float]) -> np.ndarray:
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or len(t_grid) == 0 or np.any(np.diff(t_grid) < 0):
        raise ValueError("t_grid must be a non-empty ascending sequence")
    if t_grid[0] < 0:
        raise ValueError("t_grid times are measured from 0 and must be >= 0")
    return t_grid


def _frame_terms(h0, drives, frame, extra_static):
    """The static Hamiltonian of ``h0`` in the frame rotating at ``frame``
    MHz and the drive terms of ``drives``, whose envelopes alone vary."""
    static = _frame_static(h0, frame)
    if extra_static is not None:
        static = static + extra_static
    return static, _drive_terms(drives, h0.sites, h0.levels)


def evolve(
    h0: LatticeOperator,
    drives: Sequence[DriveTone],
    psi0: np.ndarray,
    t_grid: Sequence[float],
    frame: float,
    extra_static: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Closed-system trajectory; returns states of shape (len(t), dim).

    ``h0`` is the absolute-frequency subset Hamiltonian and ``frame`` the
    frequency (MHz) of the frame, at which every tone in ``drives`` plays;
    the frame transform and drive terms are applied internally, and a
    term of ``h0`` that would rotate in the frame raises ValueError.
    ``extra_static`` (a matrix in the frame, e.g. a jitter term) is added
    verbatim.  Segments where every envelope is flat propagate by exact
    diagonalization; envelope ramps step through 4th-order
    commutator-free Magnus slices in :func:`_propagate_sliced`.
    """
    t_grid = _checked_grid(t_grid)
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (h0.dim,):
        raise ValueError(f"psi0 must have shape ({h0.dim},)")
    static, terms = _frame_terms(h0, drives, frame, extra_static)
    return _evolve(static, terms, None, psi0, t_grid)


def evolve_open(
    h0: LatticeOperator,
    drives: Sequence[DriveTone],
    rho0: np.ndarray,
    noise: NoiseSpec,
    t_grid: Sequence[float],
    frame: float,
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
    static, terms = _frame_terms(h0, drives, frame, extra_static)
    collapse = _collapse_operators(h0.sites, h0.levels, noise)
    out = _evolve(static, terms, collapse, rho0.reshape(-1), t_grid)
    return out.reshape(len(t_grid), h0.dim, h0.dim)


def _evolve(static, terms, collapse, y0, t_grid) -> np.ndarray:
    """Propagate ``y0`` from time 0 through ascending grid times: a state
    vector when ``collapse`` is None, otherwise a row-major vectorized
    density matrix under the Lindblad terms ``collapse``.

    A segment on which every envelope is flat propagates exactly with one
    diagonalization; any other steps through :func:`_propagate_sliced`."""
    out = np.empty((len(t_grid), len(y0)), dtype=complex)
    edges = _segment_edges(0.0, float(t_grid[-1]), terms)
    y = y0.copy()
    for left, right in zip(edges[:-1], edges[1:]):
        sel = (t_grid >= left - 1e-15) & (t_grid <= right + 1e-15)
        inside = t_grid[sel]
        active = [t for t in terms if t.tone.start < right and t.tone.stop > left]
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


# ------------------------------------------------------------- echo sequence

def _checked_widths(widths: Sequence[float], rise: float) -> np.ndarray:
    widths = np.asarray(widths, dtype=float)
    bad = widths[~np.isfinite(widths) | (widths < 0)]
    if bad.size:
        raise ValueError(f"width {bad[0]} us must be finite and non-negative")
    min_width = 4.0 * rise * 1e-3
    too_short = widths[(widths > 0) & (widths < min_width)]
    if too_short.size:
        raise ValueError(
            f"width {too_short[0]:.4f} us cannot fit two ramped half-pulses "
            f"with rise {rise} ns; use widths >= {min_width:.3f} us"
        )
    return widths


def echo_sequence(
    h0: LatticeOperator,
    frames: Sequence[float],
    tone_sets: Sequence[Sequence[DriveTone]],
    pulse: np.ndarray,
    noise: Optional[NoiseSpec] = None,
):
    """The echo [drive(w/2), pulse, drive(w/2), pulse] of every tone set,
    as a function ``run(states, widths)`` that takes a stack of states
    indexed [k, ...] to states indexed [set, width, k, ...]: vectors when
    ``noise`` is None, else density matrices under its Lindblad terms
    (even when it has none).  ``pulse`` is an ideal instantaneous unitary
    on the whole space.

    Tone set s plays in the frame rotating at ``frames[s]`` MHz, at most
    one tone per site; of each tone only its target, amplitude, phase and
    Blackman rise are read, since the sequence times the tones itself,
    and every tone shares one rise (else ValueError).  A drive of width
    w/2 is a ramp up, a flat top and a ramp down; widths shorter than
    four ramps, or negative or not finite, raise ValueError.  All flat
    tops are decomposed in one stacked call of :func:`_modes`, and the
    ramps, stepped in the Magnus slices of :func:`_propagate_sliced`,
    fold into their modes, so every call, at any widths, reuses them.
    On the identity's rows, the vector echo gives the transposed
    unitaries E(w)^T, where E(w) = P U(w/2) P U(w/2).
    """
    n_sites = len(h0.sites)
    # each set's amplitudes and phases by site (a site without a tone adds
    # 0), and the rise of every tone
    amplitudes = np.zeros((len(tone_sets), n_sites))
    phases = np.zeros((len(tone_sets), n_sites))
    rises = set()
    for s, tones in enumerate(tone_sets):
        if len({tone.target for tone in tones}) < len(tones):
            raise ValueError(f"two tones of one set drive one site: {[t.target for t in tones]}")
        for tone in tones:
            if tone.target not in h0.sites:
                raise UnknownQubitError(tone.target, h0.sites)
            site = h0.sites.index(tone.target)
            amplitudes[s, site], phases[s, site] = tone.amplitude, tone.phase
            rises.add(tone.rise if tone.envelope == "blackman" else 0.0)
    rise = rises.pop() if rises else 0.0
    if rises:
        raise ValueError(f"tone rises {sorted({rise, *rises})} ns differ; an echo has one rise")
    rise_us = rise * 1e-3
    # the half-pulse the ramps are taken from: ramps on [0, rise] and
    # [3 rise, 4 rise], flat between
    duration = 4.0 * rise_us if rise_us > 0 else 1.0
    collapse = None if noise is None else _collapse_operators(h0.sites, h0.levels, noise)
    # one frame Hamiltonian per frequency, one raising operator per site,
    # and each flat top adds its drive D + D^dag to its frame's, with
    # D = (Omega/2) e^{-i phi} a^dag per tone as in _DriveTerm
    statics = {frame: _frame_static(h0, frame) for frame in set(frames)}
    raising = [_embed(destroy(h0.levels), k, n_sites, h0.levels).conj().T for k in range(n_sites)]
    halves, turns = 0.5 * amplitudes, np.exp(-1j * phases)
    flat = np.array([statics[frame] for frame in frames])
    for site, adag in enumerate(raising):
        # the static part, each site's drive and its adjoint fill disjoint
        # elements, so every element holds a single term, added exactly
        rows, cols = np.nonzero(adag)
        drive = turns[:, site, None] * (halves[:, site, None] * adag[rows, cols])
        flat[:, rows, cols] += drive
        flat[:, cols, rows] += drive.conj()
    rates, right, left, _ = _modes(flat, collapse)
    if rise_us > 0:
        eye = np.eye(h0.dim if collapse is None else h0.dim**2, dtype=complex)
        ramps = []
        for frame, tones in zip(frames, tone_sets):
            timed = [
                DriveTone(t.target, t.amplitude, t.phase, t.envelope, t.rise, duration=duration)
                for t in tones
            ]
            terms = _drive_terms(timed, h0.sites, h0.levels)
            ramps.append([
                _propagate_sliced(
                    statics[frame], terms, collapse, eye, a, a + rise_us, np.empty(0)
                )[0]
                for a in (0.0, duration - rise_us)
            ])
        ramps = np.array(ramps)
        left, right = left @ ramps[:, 0], ramps[:, 1] @ right
    # on row vectors x: x -> ((x left^T) * exp(rates t)) right^T
    left, right = (np.swapaxes(m, -1, -2)[:, None] for m in (left, right))
    shape = (h0.dim,) if collapse is None else (h0.dim, h0.dim)

    def run(states, widths):
        widths = _checked_widths(widths, rise)
        flat_times = 0.5 * widths - 2.0 * rise_us
        growth = np.exp(rates[:, None, None, :] * flat_times[:, None, None])
        idle = (widths == 0.0).reshape(-1, 1, *(1 for _ in shape))
        for _ in range(2):
            rows = states.reshape(*states.shape[: states.ndim - len(shape)], -1)
            moved = (rows @ left * growth) @ right
            states = np.where(idle, states, moved.reshape(*moved.shape[:-1], *shape))
            if collapse is None:
                states = states @ pulse.T
            else:
                states = pulse @ states @ pulse.conj().T
        return states

    return run


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
