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

:func:`evolve` and the flat tops of :func:`echo_sequence` propagate on
one engine, :func:`_static_run`: a stack of static generators decomposed
once (``eigh``, or ``eig`` of the Liouvillian under Lindblad terms) and
carried to any times.  The only time dependence is the echo's Blackman
ramps, stepped in the 4th-order commutator-free Magnus slices of
:func:`_propagate_sliced`, each slice one run of the whole stack.

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
from .errors import ContractViolation, ResourceLimitError
from .operators import LatticeOperator, basis_occupations, destroy, number, _embed
from .values import FrozenValue

# density-matrix side; its Liouvillian is 1024 x 1024 complex, 16 MiB, and
# its decomposition holds three such (48 MiB) per generator at its peak
LINDBLAD_MAX_DIM = 32


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


def lindblad_noise(sites: Sequence[str], noise: Optional[NoiseSpec]) -> Optional[NoiseSpec]:
    """``noise`` if it has a relaxation or dephasing rate on one of
    ``sites``, else None: protocols evolve a density matrix only there."""
    lindblad = noise is not None and any(
        noise.rate(table, q) > 0 for table in ("relaxation", "dephasing") for q in sites
    )
    return noise if lindblad else None


# ------------------------------------------------------------ static generator

FRAME_TOL = 1e-9  # MHz: a term rotating slower than this in the frame is static


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


def _raising(site: int, n_sites: int, levels: int) -> np.ndarray:
    return _embed(destroy(levels), site, n_sites, levels).conj().T


def _drive_terms(amplitudes: np.ndarray, phases: np.ndarray, levels: int) -> np.ndarray:
    """D + D^dag of each tone set s as a stack (sets, dim, dim), with D
    the sum over sites k of e^{-i phases[s, k]} (amplitudes[s, k] / 2)
    a_k^dag; an amplitude that is negative or not finite raises
    ValueError."""
    bad = amplitudes[~np.isfinite(amplitudes) | (amplitudes < 0)]
    if bad.size:
        raise ValueError(f"drive amplitude {bad[0]} MHz must be finite and non-negative")
    sets, n_sites = amplitudes.shape
    turns = np.exp(-1j * phases)
    terms = np.zeros((sets, levels**n_sites, levels**n_sites), dtype=complex)
    for site in range(n_sites):
        # each site's drive and its adjoint fill disjoint elements
        adag = _raising(site, n_sites, levels)
        rows, cols = np.nonzero(adag)
        drive = turns[:, site, None] * (0.5 * amplitudes[:, site, None] * adag[rows, cols])
        terms[:, rows, cols] = drive
        terms[:, cols, rows] = drive.conj()
    return terms


def _dissipators(sites: Sequence[str], levels: int, noise: NoiseSpec) -> list[np.ndarray]:
    """The Lindblad terms of ``noise`` on ``sites``, site by site a lowering
    operator L at the relaxation rate r, then a number operator at twice
    the dephasing rate, each as its superoperator on row-major vectorized
    density matrices, r (L (x) L* - (L^dag L (x) 1) / 2 - (1 (x) (L^dag L)^T) / 2).
    A density matrix side above ``LINDBLAD_MAX_DIM``, whose Liouvillian
    ``eig`` would be too large, raises :class:`ResourceLimitError`."""
    n_sites = len(sites)
    if levels**n_sites > LINDBLAD_MAX_DIM:
        raise ResourceLimitError(f"density matrix side {levels**n_sites} > {LINDBLAD_MAX_DIM}")
    eye, terms = np.eye(levels**n_sites), []
    for k, label in enumerate(sites):
        for rate, op in ((noise.rate("relaxation", label), destroy(levels)),
                         (2.0 * noise.rate("dephasing", label), number(levels))):
            if rate > 0:
                op = _embed(op, k, n_sites, levels)
                decay = op.conj().T @ op
                terms.append(rate * (np.kron(op, op.conj()) - 0.5 * np.kron(decay, eye)
                                     - 0.5 * np.kron(eye, decay.T)))
    return terms


def _liouvillian(h: np.ndarray, collapse: Sequence[np.ndarray]) -> np.ndarray:
    """Lindblad generator acting on row-major vectorized density matrices,
    of one Hamiltonian or of each in a stack (..., dim, dim), with the
    superoperators ``collapse`` of :func:`_dissipators` added in order."""
    eye = np.eye(h.shape[-1])
    lv = np.kron(h, eye)
    lv -= np.kron(eye, np.swapaxes(h, -1, -2))
    lv *= -2j * np.pi
    for term in collapse:
        lv += term
    return lv


def _modes(h: np.ndarray, collapse) -> tuple:
    """The static generator of ``h`` (or of each in a stack) as
    right diag(rates) left: (rates, right, left, miss).

    With ``collapse`` None the generator is -2 pi i H, from ``eigh``; left
    is right^dag, returned as None so that only ``right`` is held, and
    ``miss`` is 0.  Otherwise it is the Liouvillian of H and ``collapse``,
    from ``eig``, and ``miss`` is, per generator, the relative error of
    rebuilding it from its modes, which is large where they nearly
    coincide (a weak drive beside a decaying site).  At its peak it holds,
    beside ``h``, one stack of eigenvectors (closed), or the Liouvillians,
    right and left: three Liouvillian stacks."""
    if collapse is None:
        energies, right = np.linalg.eigh(h)
        return -2j * np.pi * energies, right, None, np.zeros(h.shape[:-2])
    lv = _liouvillian(h, collapse)
    rates, right = np.linalg.eig(lv)
    left = np.linalg.inv(right)
    miss = np.empty(h.shape[:-2])
    for s in np.ndindex(miss.shape):
        # one generator at a time, so the rebuild adds no stack
        scale = np.abs(lv[s]).max()
        error = np.abs((right[s] * rates[s]) @ left[s] - lv[s]).max()
        miss[s] = error / (scale if scale > 0 else 1.0)
    return rates, right, left, miss


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) of any square matrix, defective ones included: x = exp(a / 2^s) - 1
    from a degree-18 Taylor series, with ||a / 2^s||_1 <= 1/2, squared s
    times as x -> 2x + x^2, so that rounding scales with x, not with 1."""
    norm = np.linalg.norm(a, 1)
    squarings = math.ceil(math.log2(2.0 * norm)) if norm > 0.5 else 0
    a = a / 2.0**squarings
    term = x = a
    for k in range(2, 19):
        term = term @ a / k
        x = x + term
    for _ in range(squarings):
        x = 2.0 * x + x @ x
    return x + np.eye(len(a))


def _static_run(h: np.ndarray, collapse):
    """The generator of ``h``, or of each in a stack (sets, dim, dim), as
    ``run(rows, times)``: row vectors (state vectors, or with ``collapse``
    row-major density matrices) broadcast against (sets, times, k, n), or
    (times, k, n) for one generator, carried to each time from the modes
    of one :func:`_modes`.  A time of 0 gives the rows exactly; a generator
    whose modes miss its Liouvillian by over 1e-12 takes :func:`_expm`.
    Past :func:`_modes` it keeps one stack of eigenvectors (closed), or
    right and left (open) and the Liouvillian of each generator that takes
    :func:`_expm`, no other."""
    rates, right, left, miss = _modes(h, collapse)
    fallback = {tuple(s): _liouvillian(h[tuple(s)], collapse) for s in np.argwhere(miss > 1e-12)}
    # on row vectors x: x -> ((x left^T) * exp(rates t)) right^T, where a
    # closed generator's left^T = conj(right) is applied as conj(conj(x) right)
    basis = right[..., None, :, :]
    right = np.swapaxes(basis, -1, -2)
    if left is not None:
        left = np.swapaxes(left, -1, -2)[..., None, :, :]

    def run(rows, times):
        at = np.asarray(times, dtype=float)[:, None, None]
        if left is None:
            turned = np.conj(rows) @ basis
            np.conjugate(turned, out=turned)
        else:
            turned = rows @ left
        moved = (turned * np.exp(rates[..., None, None, :] * at)) @ right
        for s, lv in fallback.items():
            given = np.broadcast_to(rows, moved.shape)[s]
            for i, t in enumerate(at.flat):
                moved[s + (i,)] = given[i] @ _expm(lv * t).T
        return np.where(at == 0, rows, moved)

    return run


ENVELOPE_SLICES = 48  # Magnus slices of a ramp
# 4th-order commutator-free Magnus weights at the Gauss nodes 1/2 -+ sqrt(3)/6
# (Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151 (2009))
_MAGNUS_A, _MAGNUS_B = (3 + 2 * math.sqrt(3)) / 12, (3 - 2 * math.sqrt(3)) / 12
_GAUSS_NODES = (0.5 - math.sqrt(3) / 6, 0.5 + math.sqrt(3) / 6)


def _blackman_rise(x: float) -> float:
    """The rising half of a Blackman window at x in [0, 1], 1 at the top."""
    return 0.42 - 0.5 * math.cos(math.pi * x) + 0.08 * math.cos(2 * math.pi * x)


def _propagate_sliced(static, drive, envelope, collapse, psi, left, right) -> np.ndarray:
    """The rows ``psi`` carried from ``left`` to ``right`` under static +
    envelope(t) drive, or under each in a stack (sets, dim, dim), with
    ``static`` the frame Hamiltonian, ``drive`` the tones' D + D^dag of
    :func:`_drive_terms` and ``collapse`` as in :func:`_static_run`.  Each of
    ENVELOPE_SLICES 4th-order commutator-free Magnus slices is two runs of
    the stack's Hamiltonians mixed from its Gauss nodes.  ``psi`` is (k, n)
    or one row for one Hamiltonian, (sets, k, n) for a stack, and keeps its
    shape; the identity's rows give the transposed propagator."""
    rows = psi.reshape(*static.shape[:-2], 1, -1, psi.shape[-1])
    edges = np.linspace(left, right, ENVELOPE_SLICES + 1)
    for a, b in zip(edges[:-1], edges[1:]):
        # the weights sum to 1/2: each factor holds 2 (A h1 + B h2) for half the slice
        h1, h2 = (static + envelope(a + x * (b - a)) * drive for x in _GAUSS_NODES)
        for h in (_MAGNUS_A * h1 + _MAGNUS_B * h2, _MAGNUS_B * h1 + _MAGNUS_A * h2):
            rows = _static_run(2.0 * h, collapse)(rows, [0.5 * (b - a)])
    return rows.reshape(psi.shape)


def _checked_grid(t_grid: Sequence[float]) -> np.ndarray:
    t_grid = np.asarray(t_grid, dtype=float)
    if not np.all(np.isfinite(t_grid)):
        raise ValueError(f"t_grid times must be finite, got {t_grid[~np.isfinite(t_grid)][0]}")
    if t_grid.ndim != 1 or len(t_grid) == 0 or np.any(np.diff(t_grid) < 0):
        raise ValueError("t_grid must be a non-empty ascending sequence")
    if t_grid[0] < 0:
        raise ValueError("t_grid times are measured from 0 and must be >= 0")
    return t_grid


def evolve(
    h0: LatticeOperator,
    state: np.ndarray,
    t_grid: Sequence[float],
    frame: float,
    amplitudes: Optional[Sequence[float]] = None,
    noise: Optional[NoiseSpec] = None,
    extra_static: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Trajectory of ``state`` from time 0: a state vector, giving
    (len(t), dim), when ``noise`` is None, else a density matrix under
    the Lindblad terms of ``noise`` (even when it has none), giving
    (len(t), dim, dim).

    ``h0`` is the absolute-frequency subset Hamiltonian and ``frame`` the
    frequency (MHz) of the frame, at which site k is driven at phase 0
    with amplitude ``amplitudes[k]`` MHz (None drives no site); a term of
    ``h0`` that would rotate in the frame raises ValueError.
    ``extra_static`` (a matrix in the frame, e.g. a jitter term) is added
    verbatim.  Relaxation enters through lowering operators, pure
    dephasing through number operators at twice its rate.  The generator
    propagates by :func:`_static_run`: ``eigh``, or ``eig`` of its
    Liouvillian, so that a density matrix side above ``LINDBLAD_MAX_DIM``
    raises :class:`ResourceLimitError`.
    """
    t_grid = _checked_grid(t_grid)
    state = np.asarray(state, dtype=complex)
    shape = (h0.dim,) if noise is None else (h0.dim, h0.dim)
    if state.shape != shape:
        raise ValueError(f"state must have shape {shape}")
    collapse = None
    if noise is not None:
        collapse = _dissipators(h0.sites, h0.levels, noise)
        if abs(np.trace(state) - 1.0) > 1e-9:
            raise ContractViolation("rho must have unit trace")
        eigmin = float(np.linalg.eigvalsh(0.5 * (state + state.conj().T)).min())
        if eigmin < -1e-9:
            raise ContractViolation(f"rho is not positive semidefinite ({eigmin:.2e})")
    h = _frame_static(h0, frame)
    if extra_static is not None:
        h = h + extra_static
    if amplitudes is not None:
        amplitudes = np.asarray(amplitudes, dtype=float)
        if amplitudes.shape != (len(h0.sites),):
            raise ValueError(f"amplitudes {amplitudes.shape} must hold one per site of {h0.sites}")
        h = h + _drive_terms(amplitudes[None], np.zeros((1, len(h0.sites))), h0.levels)[0]
    out = _static_run(h, collapse)(state.reshape(1, -1), t_grid)
    return out.reshape(len(t_grid), *shape)


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
    amplitudes: np.ndarray,
    phases: np.ndarray,
    rise: float,
    pulse: np.ndarray,
    noise: Optional[NoiseSpec] = None,
):
    """The echo [drive(w/2), pulse, drive(w/2), pulse] of every drive set,
    as a function ``run(states, widths)`` that takes a stack of states
    indexed [k, ...] to states indexed [set, width, k, ...]: vectors when
    ``noise`` is None, else density matrices under its Lindblad terms
    (even when it has none).  ``pulse`` is an ideal instantaneous unitary
    on the whole space.

    Set s plays in the frame rotating at ``frames[s]`` MHz and drives
    site k of ``h0`` with the tone of amplitude ``amplitudes[s, k]`` MHz
    and phase ``phases[s, k]`` (arrays of shape (sets, sites), else
    ValueError; an undriven site has amplitude 0, and a negative or
    non-finite amplitude raises ValueError).  A drive of width w/2
    is a Blackman ramp of ``rise`` ns up, a flat top and a ramp down, or
    a rectangle at rise 0; widths shorter than four ramps, or negative or
    not finite, raise ValueError.  All flat tops run on one stacked
    :func:`_static_run`, and each ramp, stepped for all sets at once by
    :func:`_propagate_sliced`, is one propagator applied before or after
    them, so every call, at any widths, reuses both.  On the identity's
    rows, the vector echo gives the transposed unitaries E(w)^T, where
    E(w) = P U(w/2) P U(w/2).  At the flat tops' decomposition it holds
    their stack and what :func:`_modes` holds beside it (the drive stack is
    dropped once added in), and afterwards the modes :func:`_static_run`
    keeps and, with ramps, two (sets, n, n) row propagators.
    """
    n_sites = len(h0.sites)
    amplitudes = np.asarray(amplitudes, dtype=float)
    phases = np.asarray(phases, dtype=float)
    if not amplitudes.shape == phases.shape == (len(frames), n_sites):
        raise ValueError(
            f"amplitudes {amplitudes.shape} and phases {phases.shape} must have the "
            f"shape (sets, sites) = {(len(frames), n_sites)}"
        )
    rise_us = rise * 1e-3
    collapse = None if noise is None else _dissipators(h0.sites, h0.levels, noise)
    # one frame Hamiltonian per frequency; each set's drive D + D^dag
    # joins it under the envelope in the ramps, then in the flat top
    statics = {frame: _frame_static(h0, frame) for frame in set(frames)}
    static = np.array([statics[frame] for frame in frames])
    del statics
    drives = _drive_terms(amplitudes, phases, h0.levels)
    shape = (h0.dim,) if collapse is None else (h0.dim, h0.dim)
    if rise_us > 0:
        # the ramps of the half-pulse [0, stop], up on [0, rise] and down
        # on [stop - rise, stop], as row propagators (sets, 1, n, n)
        stop, n = 4.0 * rise_us, math.prod(shape)
        eye = np.broadcast_to(np.eye(n, dtype=complex), (len(frames), n, n))
        up, down = (
            _propagate_sliced(static, drives, envelope, collapse, eye, a, a + rise_us)[:, None]
            for a, envelope in (
                (0.0, lambda t: _blackman_rise(t / rise_us)),
                (stop - rise_us, lambda t: _blackman_rise((stop - t) / rise_us)),
            )
        )
    static += drives
    del drives  # the flat tops' decomposition holds only their own stack
    flat = _static_run(static, collapse)

    def run(states, widths):
        widths = _checked_widths(widths, rise)
        # a width of 0 plays no drive, ramps included
        idle = widths == 0.0
        flat_times = np.where(idle, 0.0, 0.5 * widths - 2.0 * rise_us)
        idle = idle.reshape(-1, 1, *(1 for _ in shape))
        for _ in range(2):
            rows = states.reshape(*states.shape[: states.ndim - len(shape)], -1)
            rows = flat(rows @ up, flat_times) @ down if rise_us > 0 else flat(rows, flat_times)
            states = np.where(idle, states, rows.reshape(*rows.shape[:-1], *shape))
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
