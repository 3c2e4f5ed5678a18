"""Stark-induced ZZ engineering and CZ gate calibration.

Two off-resonant tones at a shared frequency, one per qubit, modify the
pair's ZZ rate.  The modified rate is measured by pulse-width
Hamiltonian tomography: the target starts in a superposition, the Stark
pulse is applied for a swept width with interleaved and final pi pulses
on both qubits (canceling single-qubit Stark phases), and the target's
phase is read out for both control states.  The differential phase
grows as 2 pi nu_tilde * width.

All ZZ rates (zeta, nu_tilde) are kHz; drive parameters are MHz.

Known hazard: besides the carrier (drive at a qubit frequency) and the
1-2 transition (drive detuning equal to -alpha), the two-photon 0-2
resonance at detuning -alpha/2 destabilizes the interaction; the
landscape sweep flags all three bands.
"""
from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from .device import DeviceSpec
from .dynamics import (
    DriveTone,
    NoiseSpec,
    _collapse_operators,
    _frame_terms,
    _modes,
    _propagate_sliced,
    evolve,
    rotation_gate,
)
from .errors import AliasingError, NearPoleError, UncalibratableError
from .operators import LatticeOperator, SubsetSelection, assemble_hamiltonian
from .records import AxisSpec, ExperimentRecord
from .values import FrozenValue

DRIVE_POLE_GUARD = 5.0  # MHz, validity guard on drive detunings
NU_TILDE_FLOOR_KHZ = 5.0


class SizzleConfig(FrozenValue):
    """Shared-frequency two-tone drive configuration for one pair.

    ``ratio`` sets the control amplitude as ratio * omega_target (the
    published rule: the ratio of the pair's single-qubit X_pi
    amplitudes).  ``dphi`` is phi_control - phi_target.
    """

    __slots__ = ("pair", "freq", "omega_target", "ratio", "dphi", "rise")

    def __init__(
        self,
        pair: tuple[str, str],  # (control, target)
        freq: float,  # shared drive frequency, MHz
        omega_target: float,  # target-tone amplitude, MHz
        ratio: float = 1.0,
        dphi: float = 0.0,
        rise: float = 0.0,  # ns; 0 = rectangular
    ):
        self._assign(pair, freq, omega_target, ratio, dphi, rise)
        if self.ratio <= 0:
            raise ValueError("amplitude ratio must be positive")
        if self.omega_target < 0:
            raise ValueError("target amplitude must be non-negative")
        if not self.rise >= 0:
            raise ValueError(f"rise {self.rise} ns must be non-negative")

    @property
    def control(self) -> str:
        return self.pair[0]

    @property
    def target(self) -> str:
        return self.pair[1]

    @property
    def omega_control(self) -> float:
        return self.ratio * self.omega_target

    def validate_against(self, device: DeviceSpec, guard: float = DRIVE_POLE_GUARD):
        for label in self.pair:
            q = device.qubit(label)
            det = q.omega - self.freq
            if abs(det) < guard:
                raise NearPoleError(
                    f"drive within {guard} MHz of {label}'s transition"
                )
            if abs(det + q.alpha) < guard:
                raise NearPoleError(
                    f"drive within {guard} MHz of {label}'s 1-2 transition"
                )

def _config_tones(
    device: DeviceSpec, config: SizzleConfig, duration: float
) -> list[DriveTone]:
    envelope = "blackman" if config.rise > 0 else "rectangular"
    specs = (
        (config.control, config.omega_control, config.dphi),
        (config.target, config.omega_target, 0.0),
    )
    return [
        DriveTone(
            target=label,
            amplitude=amplitude,
            detuning=config.freq - device.qubit(label).omega,
            phase=phase,
            envelope=envelope,
            rise=config.rise,
            duration=duration,
        )
        for label, amplitude, phase in specs
    ]


def calibrate_x_pi_amplitude(
    device: DeviceSpec,
    qubit: str,
    duration: float = 0.05,
    levels: int = 3,
) -> float:
    """Resonant amplitude driving a full population inversion in
    ``duration`` us, from a simulated Rabi calibration.

    Leakage through the anharmonic ladder makes this differ slightly
    from the two-level value 1/(2 * duration).
    """
    subset = SubsetSelection((qubit,), levels)
    h0 = assemble_hamiltonian(device, subset)
    psi0 = np.zeros(levels, dtype=complex)
    psi0[0] = 1.0
    grid = np.array([duration])

    def ground_population(amplitude: float) -> float:
        tone = DriveTone(
            target=qubit, amplitude=amplitude, detuning=0.0, duration=duration
        )
        state = evolve(h0, [tone], psi0, grid, device=device, frame="qubit")[0]
        return float(abs(state[0]) ** 2)

    # golden-section refinement around the two-level estimate
    lo, hi = 0.6 / (2.0 * duration), 1.4 / (2.0 * duration)
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = ground_population(c), ground_population(d)
    for _ in range(60):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = ground_population(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = ground_population(d)
    return 0.5 * (a + b)


def default_amplitude_ratio(
    device: DeviceSpec,
    pair: tuple[str, str],
    duration: float = 0.05,
    levels: int = 3,
) -> float:
    """Control-to-target ratio of simulated X_pi amplitudes, the default
    rule for balancing the two Stark tones."""
    control, target = pair
    return calibrate_x_pi_amplitude(
        device, control, duration, levels
    ) / calibrate_x_pi_amplitude(device, target, duration, levels)


def sizzle_zz_predicted(
    j: float,
    alpha0: float,
    alpha1: float,
    omega0: float,
    omega1: float,
    delta0d: float,
    delta1d: float,
    phi0: float,
    phi1: float,
    zeta_static_khz: float,
    pole_guard: float = 1.0,
) -> float:
    """Perturbative modified ZZ rate in kHz.

    delta0d/delta1d are qubit-minus-drive detunings in MHz; the drive
    term adds to the static rate and carries cos(phi0 - phi1).
    """
    for name, den in (
        ("delta0d", delta0d),
        ("delta1d", delta1d),
        ("delta0d + alpha0", delta0d + alpha0),
        ("delta1d + alpha1", delta1d + alpha1),
    ):
        if abs(den) < pole_guard:
            raise NearPoleError(
                f"|{name}| = {abs(den):.3f} MHz inside the {pole_guard} MHz guard"
            )
    drive_mhz = (
        2.0
        * j
        * alpha0
        * alpha1
        * omega0
        * omega1
        * math.cos(phi0 - phi1)
        / (delta0d * delta1d * (delta0d + alpha0) * (delta1d + alpha1))
    )
    return zeta_static_khz + drive_mhz * 1e3


def sizzle_zz_predicted_for(
    device: DeviceSpec,
    config: SizzleConfig,
    j: Optional[float] = None,
    zeta_static_khz: Optional[float] = None,
    levels: int = 4,
) -> float:
    """Closed-form rate prediction for a device pair and drive config."""
    control = device.qubit(config.control)
    target = device.qubit(config.target)
    if j is None:
        j = device.couplings.j(config.control, config.target)
    if zeta_static_khz is None:
        # no command reaches this path, so spectrum loads only here
        from .spectrum import zz_exact

        zeta_static_khz = zz_exact(device, config.pair, levels=levels)
    return sizzle_zz_predicted(
        j=j,
        alpha0=control.alpha,
        alpha1=target.alpha,
        omega0=config.omega_control,
        omega1=config.omega_target,
        delta0d=control.omega - config.freq,
        delta1d=target.omega - config.freq,
        phi0=config.dphi,
        phi1=0.0,
        zeta_static_khz=zeta_static_khz,
    )


# ----------------------------------------------------- echoed Stark sequence
#
# The sequence is [Stark(width/2), pi x pi, Stark(width/2), pi x pi] with
# ideal instantaneous pi pulses.  In the shared drive frame the exchange
# coupling and the flat top of both tones are static, so one decomposition
# per drive configuration, of the Hamiltonian or of the Liouvillian,
# serves every width.


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


def default_widths(rise: float) -> np.ndarray:
    """The 25-point 0-3 us tomography grid, less the nonzero widths too
    short for two half-pulses with ``rise`` ns ramps."""
    grid = np.linspace(0.0, 3.0, 25)
    return grid[(grid == 0.0) | (grid >= 4.0 * rise * 1e-3)]


def _pi_pi(levels: int) -> np.ndarray:
    pi = rotation_gate(math.pi, 0.0, levels)
    return np.kron(pi, pi)


def _echo_parts(
    h0: LatticeOperator,
    device: DeviceSpec,
    configs: Sequence[SizzleConfig],
    collapse: Optional[list],
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Stacked flat-top Hamiltonians of the configs (which share the pair,
    drive frequency and rise of the first) and their (up, down) ramp
    propagators, shape (len(configs), 2, n, n), or None without a rise.
    The ramps follow the sliced midpoint rule of :func:`dynamics.evolve`
    on vectors (``collapse`` None) or vectorized density matrices."""
    rise_us = configs[0].rise * 1e-3
    # reference tones: ramps on [0, rise] and [3 rise, 4 rise], flat between
    duration = 4.0 * rise_us if rise_us > 0 else 1.0
    tones = [tone for config in configs for tone in _config_tones(device, config, duration)]
    # in the common drive frame nothing rotates: the terms are the tones'
    # drives, two per config
    static, terms = _frame_terms(h0, tones, device, configs[0].freq, True, None)
    drives = [terms[k : k + 2] for k in range(0, len(terms), 2)]
    flat = np.array([static] * len(configs))
    for h, pair in zip(flat, drives):
        for term in pair:
            term.add_to(h, 0.5 * duration)
    if rise_us == 0:
        return flat, None
    eye = np.eye(h0.dim if collapse is None else h0.dim**2, dtype=complex)
    ramps = [
        [_propagate_sliced(static, pair, collapse, eye, a, a + rise_us, np.empty(0))[0]
         for a in (0.0, duration - rise_us)]
        for pair in drives
    ]
    return flat, np.array(ramps)


def _echo(
    h0: LatticeOperator,
    device: DeviceSpec,
    configs: Sequence[SizzleConfig],
    widths: Sequence[float],
    collapse: Optional[list],
):
    """The echoed sequence for every config and width, as a function that
    takes states indexed [..., state] to states indexed [config, width,
    state]: vectors when ``collapse`` is None, else density matrices
    under the Lindblad terms ``collapse``.  Each config's flat top is
    decomposed once by :func:`dynamics._modes`, the ramps fold into its
    modes, and the modes carry the states of every width.  On the
    identity's rows, the vector echo gives the transposed unitaries
    E(w)^T, where E(w) = PiPi U(w/2) PiPi U(w/2).
    """
    widths = _checked_widths(widths, configs[0].rise)
    flat, ramps = _echo_parts(h0, device, configs, collapse)
    rates, right, left, _ = _modes(flat, collapse)
    if ramps is not None:
        left, right = left @ ramps[:, 0], ramps[:, 1] @ right
    # on row vectors x: x -> ((x left^T) * exp(rates t)) right^T
    left, right = (np.swapaxes(m, -1, -2)[:, None] for m in (left, right))
    flat_times = 0.5 * widths - 2.0 * (configs[0].rise * 1e-3)
    growth = np.exp(rates[:, None, None, :] * flat_times[:, None, None])
    shape = (h0.dim,) if collapse is None else (h0.dim, h0.dim)
    idle = (widths == 0.0).reshape(-1, 1, *(1 for _ in shape))
    pi_pi = _pi_pi(h0.levels)

    def echo(states):
        for _ in range(2):
            rows = states.reshape(*states.shape[: states.ndim - len(shape)], -1)
            moved = (rows @ left * growth) @ right
            states = np.where(idle, states, moved.reshape(*moved.shape[:-1], *shape))
            if collapse is None:
                states = states @ pi_pi.T
            else:
                states = pi_pi @ states @ pi_pi.conj().T
        return states

    return echo


def _lindblad_terms(h0: LatticeOperator, noise: Optional[NoiseSpec]) -> Optional[list]:
    """The Lindblad terms of ``noise`` on the pair; None when it has none."""
    if noise is None or not noise.has_lindblad(h0.sites):
        return None
    return _collapse_operators(h0.sites, h0.levels, noise)


def _prepared_states(levels: int, collapse: Optional[list]) -> np.ndarray:
    """The target on the equator with the control in |0> and in |1>:
    vectors, or density matrices for the Lindblad terms ``collapse``."""
    tgt = rotation_gate(math.pi / 2.0, math.pi / 2.0, levels)[:, 0]
    psis = np.kron(np.eye(levels, dtype=complex)[:2], tgt)
    return psis if collapse is None else np.einsum("ni,nj->nij", psis, psis.conj())


def _readout(states: np.ndarray, levels: int, collapse: Optional[list]) -> tuple:
    """The target's coherence <0|rho|1>, its phase and the control's
    excited population of pair states indexed [..., state]: vectors when
    ``collapse`` is None, else density matrices."""
    if collapse is None:
        # psi indexed [target, control]: the product dynamics.reduced_site_state forms
        psi = np.swapaxes(states.reshape(*states.shape[:-1], levels, levels), -1, -2)
        coh = (psi @ np.swapaxes(psi.conj(), -1, -2))[..., 0, 1]
        probs = np.abs(states) ** 2
    else:
        rho = states.reshape(*states.shape[:-2], *(levels,) * 4)
        coh = np.einsum("...aa->...", rho[..., :, 0, :, 1])
        probs = np.diagonal(states, axis1=-2, axis2=-1).real
    phases = np.array([math.atan2(c.imag, c.real) for c in coh.flat]).reshape(coh.shape)
    excited = probs.reshape(*probs.shape[:-1], levels, levels)[..., 1, :].sum(-1)
    return coh, phases, excited


def _tomography(
    device: DeviceSpec,
    configs: Sequence[SizzleConfig],
    widths: Sequence[float],
    noise: Optional[NoiseSpec],
    levels: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pulse-width tomography of configs that share the pair, drive
    frequency and rise of the first, from one Hamiltonian and one echo:
    nu_tilde (kHz) per config, the target coherences [config, width,
    control state] and the unwrapped differential phases [config, width]
    the rates are fitted to."""
    configs[0].validate_against(device)
    if len(widths) < 3:
        raise ValueError("need at least 3 widths")
    widths = _checked_widths(widths, configs[0].rise)
    h0 = assemble_hamiltonian(device, SubsetSelection(configs[0].pair, levels))
    collapse = _lindblad_terms(h0, noise)
    states = _echo(h0, device, configs, widths, collapse)(_prepared_states(levels, collapse))
    coh, phases, _ = _readout(states, levels, collapse)
    diff = phases[..., 1] - phases[..., 0]
    wrapped = (np.diff(diff) + np.pi) % (2 * np.pi) - np.pi
    if np.any(np.abs(wrapped) > 0.9 * np.pi):
        raise AliasingError(
            "differential phase advances by nearly pi per width step; "
            "densify the width grid"
        )
    unwrapped = np.concatenate([diff[:, :1], diff[:, :1] + np.cumsum(wrapped, axis=-1)], axis=-1)
    slopes = np.array([np.polyfit(widths, phase, 1)[0] for phase in unwrapped])
    return slopes / (2.0 * math.pi) * 1e3, coh, unwrapped


def hamiltonian_tomography_pulsewidth(
    device: DeviceSpec,
    config: SizzleConfig,
    widths: Sequence[float],
    noise: Optional[NoiseSpec] = None,
    seed: Optional[int] = None,
    levels: int = 3,
) -> tuple[float, ExperimentRecord]:
    """Measure the driven ZZ rate from the width dependence of the
    target's differential phase.

    Records target <X>, <Y> versus Stark width for control in |0> and
    |1>; returns (nu_tilde in kHz, record).  Raises
    :class:`AliasingError` when the width step is too coarse to unwrap
    the differential phase.
    """
    (nu_tilde_khz,), (coh,), (unwrapped,) = _tomography(device, [config], widths, noise, levels)
    x, y = 2.0 * coh.real, 2.0 * coh.imag
    record = ExperimentRecord(
        protocol="sizzle_pulsewidth_tomography",
        axes=(AxisSpec("width", tuple(np.asarray(widths, dtype=float)), "us"),),
        data={
            "x_control0": x[:, 0],
            "y_control0": y[:, 0],
            "x_control1": x[:, 1],
            "y_control1": y[:, 1],
            "differential_phase": unwrapped,
        },
        shots=0,
        seed=seed,
        device_ref=",".join(config.pair),
        config={
            "pair": list(config.pair),
            "freq": config.freq,
            "omega_target": config.omega_target,
            "ratio": config.ratio,
            "dphi": config.dphi,
            "rise": config.rise,
            "levels": levels,
        },
        metadata={"nu_tilde_khz": nu_tilde_khz},
    )
    return nu_tilde_khz, record


def sizzle_phase_table(
    device: DeviceSpec,
    config: SizzleConfig,
    width: float,
    levels: int = 3,
) -> dict:
    """Phases of the four computational basis states after one echoed
    Stark pulse, with the single-qubit and conditional components.

    The echo cancels single-qubit Stark phases, so ``control_phase``
    and ``target_phase`` vanish for an ideal pulse while
    ``conditional_phase`` accumulates 2 pi nu_tilde width.
    """
    h0 = assemble_hamiltonian(device, SubsetSelection(config.pair, levels))
    echo = _echo(h0, device, [config], [width], None)(np.eye(h0.dim))[0, 0]
    phases = {}
    leakage = 0.0
    for c in (0, 1):
        for t in (0, 1):
            amp = echo[c * levels + t, c * levels + t]
            leakage = max(leakage, 1.0 - abs(amp) ** 2)
            phases[(c, t)] = math.atan2(amp.imag, amp.real)

    def wrap(x: float) -> float:
        return math.remainder(x, 2 * math.pi)

    # state phases go as exp(-2 pi i E t); negate so the conditional
    # phase is reported as 2 pi nu_tilde * width, matching tomography
    conditional = wrap(
        -(phases[(1, 1)] - phases[(1, 0)] - phases[(0, 1)] + phases[(0, 0)])
    )
    control_phase = wrap(
        0.5 * (phases[(1, 0)] + phases[(1, 1)] - phases[(0, 0)] - phases[(0, 1)])
    )
    target_phase = wrap(
        0.5 * (phases[(0, 1)] + phases[(1, 1)] - phases[(0, 0)] - phases[(1, 0)])
    )
    return {
        "phases": phases,
        "conditional_phase": conditional,
        "control_phase": control_phase,
        "target_phase": target_phase,
        "max_leakage": leakage,
    }


def sweep_relative_phase(
    device: DeviceSpec,
    config: SizzleConfig,
    dphis: Sequence[float],
    widths: Sequence[float],
    noise: Optional[NoiseSpec] = None,
    seed: Optional[int] = None,
    levels: int = 3,
) -> ExperimentRecord:
    """nu_tilde versus the relative drive phase; the modulation should
    be A cos(dphi) + B.  Every phase shares one Hamiltonian and one echo."""
    dphis = np.asarray(dphis, dtype=float)
    if not len(dphis):
        raise ValueError("need at least one relative phase")
    configs = [
        SizzleConfig(
            config.pair, config.freq, config.omega_target, config.ratio, float(dphi), config.rise
        )
        for dphi in dphis
    ]
    rates, _, _ = _tomography(device, configs, widths, noise, levels)
    return ExperimentRecord(
        protocol="sizzle_phase_sweep",
        axes=(AxisSpec("dphi", tuple(dphis), "rad"),),
        data={"nu_tilde_khz": rates},
        shots=0,
        seed=seed,
        device_ref=",".join(config.pair),
        config={
            "pair": list(config.pair),
            "freq": config.freq,
            "omega_target": config.omega_target,
            "ratio": config.ratio,
            "levels": levels,
        },
    )


def fit_phase_modulation(dphis: np.ndarray, rates: np.ndarray) -> dict:
    """Linear fit of rate = A cos(dphi) + A_s sin(dphi) + B; returns the
    cosine amplitude, offset, and R^2."""
    design = np.column_stack([np.cos(dphis), np.sin(dphis), np.ones_like(dphis)])
    coef, *_ = np.linalg.lstsq(design, rates, rcond=None)
    predicted = design @ coef
    ss_res = float(np.sum((rates - predicted) ** 2))
    ss_tot = float(np.sum((rates - rates.mean()) ** 2))
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return {
        "amplitude": float(coef[0]),
        "quadrature": float(coef[1]),
        "offset": float(coef[2]),
        "r_squared": r_squared,
    }


# --------------------------------------------------------------- landscape

def landscape_flags(
    device: DeviceSpec,
    pair: tuple[str, str],
    freq: float,
    guard: float = 10.0,
) -> bool:
    """True when a drive frequency falls inside a known instability band
    of either qubit: the carrier, the 1-2 transition (detuning -alpha),
    or the two-photon 0-2 resonance (detuning -alpha/2)."""
    for label in pair:
        q = device.qubit(label)
        det = q.omega - freq
        if abs(det) < guard:
            return True
        if abs(det + q.alpha) < guard:
            return True
        if abs(det + q.alpha / 2.0) < guard:
            return True
    return False


def sweep_drive_landscape(
    device: DeviceSpec,
    pair: tuple[str, str],
    freqs: Sequence[float],
    amplitudes: Sequence[float],
    width: float = 1.0,
    ratio: float = 1.0,
    noise: Optional[NoiseSpec] = None,
    seed: Optional[int] = None,
    levels: int = 3,
    guard: float = 10.0,
) -> ExperimentRecord:
    """Two-dimensional sweep of shared drive frequency and amplitude.

    Per cell: the target's differential phase (control |0> vs |1>)
    after one echoed Stark pulse of fixed ``width``, and the control's
    worst-case population error as a stability indicator.  Cells inside
    instability bands are flagged and not evaluated.
    """
    freqs = np.asarray(freqs, dtype=float)
    amplitudes = np.asarray(amplitudes, dtype=float)
    shape = (len(freqs), len(amplitudes))
    diff_phase = np.full(shape, np.nan)
    control_response = np.full(shape, np.nan)
    flagged = np.zeros(shape, dtype=bool)
    h0 = assemble_hamiltonian(device, SubsetSelection(pair, levels))
    collapse = _lindblad_terms(h0, noise)
    states = _prepared_states(levels, collapse)

    for i, freq in enumerate(freqs):
        if landscape_flags(device, pair, float(freq), guard):
            flagged[i, :] = True
            continue
        if not len(amplitudes):
            continue
        configs = [
            SizzleConfig(pair=pair, freq=float(freq), omega_target=float(amp), ratio=ratio)
            for amp in amplitudes
        ]
        row = _echo(h0, device, configs, [width], collapse)(states)[:, 0]
        _, phases, excited = _readout(row, levels, collapse)
        diff_phase[i] = [math.remainder(d, 2 * math.pi) for d in phases[:, 1] - phases[:, 0]]
        # the worse of the control's population errors in |0> and |1>
        control_response[i] = np.abs(excited - [0.0, 1.0]).max(axis=-1)
    return ExperimentRecord(
        protocol="sizzle_drive_landscape",
        axes=(
            AxisSpec("freq", tuple(freqs), "MHz"),
            AxisSpec("amplitude", tuple(amplitudes), "MHz"),
        ),
        data={
            "differential_phase": diff_phase,
            "control_response": control_response,
            "flagged": flagged,
        },
        shots=0,
        seed=seed,
        device_ref=",".join(pair),
        config={
            "pair": list(pair),
            "width": width,
            "ratio": ratio,
            "levels": levels,
            "guard": guard,
        },
    )


# ------------------------------------------------------------- calibration

class CzCalibration(FrozenValue):
    """A calibrated conditional-phase gate: measured rate, duration,
    target phase, and the repeated-gate verification residual."""

    __slots__ = (
        "config", "nu_tilde_khz", "tau_g", "target_phase", "per_gate_phase", "residual",
        "gate_counts", "accumulated_phases",
    )

    def __init__(
        self,
        config: SizzleConfig,
        nu_tilde_khz: float,
        tau_g: float,
        target_phase: float,
        per_gate_phase: float,
        residual: float,
        gate_counts: tuple[int, ...] = (),
        accumulated_phases: tuple[float, ...] = (),
    ):
        self._assign(
            config, nu_tilde_khz, tau_g, target_phase, per_gate_phase, residual,
            gate_counts, accumulated_phases,
        )

    def conditional_phase(self) -> float:
        """Signed conditional phase the calibrated pulse imparts."""
        return math.copysign(self.target_phase, self.nu_tilde_khz)

    def to_dict(self) -> dict:
        return {
            "pair": list(self.config.pair),
            "freq": self.config.freq,
            "omega_target": self.config.omega_target,
            "ratio": self.config.ratio,
            "dphi": self.config.dphi,
            "rise": self.config.rise,
            "nu_tilde_khz": self.nu_tilde_khz,
            "tau_g": self.tau_g,
            "target_phase": self.target_phase,
            "per_gate_phase": self.per_gate_phase,
            "residual": self.residual,
            "gate_counts": list(self.gate_counts),
            "accumulated_phases": list(self.accumulated_phases),
        }


def gate_duration(target_phase: float, nu_tilde_khz: float) -> float:
    """tau_g = target_phase / (2 pi |nu_tilde|), in us for kHz input."""
    if nu_tilde_khz == 0:
        raise UncalibratableError("zero interaction rate")
    return target_phase / (2.0 * math.pi * abs(nu_tilde_khz) * 1e-3)


def calibrate_cz(
    device: DeviceSpec,
    config: SizzleConfig,
    target_phase: float = math.pi,
    noise: Optional[NoiseSpec] = None,
    seed: Optional[int] = None,
    levels: int = 3,
    widths: Optional[Sequence[float]] = None,
    nu_tilde_khz: Optional[float] = None,
    verify_counts: Sequence[int] = (1, 2, 3, 4, 6, 8),
    floor_khz: float = NU_TILDE_FLOOR_KHZ,
) -> CzCalibration:
    """Tune a conditional-phase gate from the measured driven ZZ rate.

    Measures nu_tilde by pulse-width tomography (or uses the supplied
    ``nu_tilde_khz``, skipping the measurement), sets the duration so
    the accumulated conditional phase equals ``target_phase``, then
    verifies by repeated-gate tomography that the phase is linear in
    gate count with a per-gate residual below 1% of target.
    """
    if not (math.isfinite(target_phase) and target_phase > 0):
        raise ValueError(f"target phase {target_phase} rad must be finite and positive")
    measured = nu_tilde_khz
    if measured is None:
        if widths is None:
            widths = default_widths(config.rise)
        measured, _ = hamiltonian_tomography_pulsewidth(
            device, config, widths, noise=noise, seed=seed, levels=levels
        )
    if abs(measured) < floor_khz:
        raise UncalibratableError(
            f"driven ZZ rate {measured:.2f} kHz is below the {floor_khz} kHz floor"
        )
    tau_g = gate_duration(target_phase, measured)

    counts = tuple(int(n) for n in verify_counts)
    signed_target = math.copysign(target_phase, measured)
    if nu_tilde_khz is None:
        phases = _repeated_gate_phases(device, config, tau_g, counts, levels, noise)
    else:
        # externally supplied rate: verify against the implied ideal
        # conditional-phase generator
        phases = [math.remainder(signed_target * n, 2 * math.pi) for n in counts]
    # phases are wrapped; unwrap against the expected linear ramp (valid
    # while per-gate deviations stay well below pi)
    unwrapped = np.array(
        [
            signed_target * n + math.remainder(p - signed_target * n, 2 * math.pi)
            for n, p in zip(counts, phases)
        ]
    )
    slope, _ = np.polyfit(counts, unwrapped, 1)
    per_gate = float(slope)
    residual = abs(abs(per_gate) - target_phase) / target_phase
    if residual > 0.01:
        raise UncalibratableError(
            f"repeated-gate phase slope {per_gate:.4f} rad deviates from the "
            f"target {target_phase:.4f} by {residual:.2%}"
        )
    return CzCalibration(
        config=config,
        nu_tilde_khz=float(measured),
        tau_g=float(tau_g),
        target_phase=float(target_phase),
        per_gate_phase=per_gate,
        residual=residual,
        gate_counts=counts,
        accumulated_phases=tuple(float(p) for p in phases),
    )


def _repeated_gate_phases(
    device: DeviceSpec,
    config: SizzleConfig,
    tau_g: float,
    counts: Sequence[int],
    levels: int,
    noise: Optional[NoiseSpec],
) -> list[float]:
    """Differential target phase after n echoed Stark pulses of width
    tau_g, for every n in ``counts``."""
    h0 = assemble_hamiltonian(device, SubsetSelection(config.pair, levels))
    collapse = _lindblad_terms(h0, noise)
    gate = _echo(h0, device, [config], [tau_g], collapse)
    states = [_prepared_states(levels, collapse)]
    for _ in range(max(counts)):
        states.append(gate(states[-1])[0, 0])
    _, phases, _ = _readout(np.array(states), levels, collapse)
    return [math.remainder(phases[n, 1] - phases[n, 0], 2 * math.pi) for n in counts]
