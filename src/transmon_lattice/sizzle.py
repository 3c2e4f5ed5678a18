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

from .device import POLE_GUARD, DeviceSpec, zz_exact
from .dynamics import NoiseSpec, echo_sequence, lindblad_noise, rotation_gate
from .errors import AliasingError, NearPoleError, UncalibratableError
from .linefit import fit_line, solve
from .operators import LatticeOperator, SubsetSelection, assemble_hamiltonian
from .records import AxisSpec, ExperimentRecord
from .values import FrozenValue

DRIVE_POLE_GUARD = 5.0  # MHz, validity guard on drive detunings
NU_TILDE_FLOOR_KHZ = 5.0  # a calibration below this driven ZZ rate is refused
VERIFY_COUNTS = (1, 2, 3, 4, 6, 8)  # gate counts of the repeated-gate check


class SizzleConfig(FrozenValue):
    """Shared-frequency two-tone drive configuration for one pair.

    ``ratio`` sets the control amplitude as ratio * omega_target.  The
    published rule takes it from the ratio of the pair's single-qubit
    X_pi amplitudes, which the package does not compute: the default,
    here and on the command line, is 1.0.  ``dphi`` is
    phi_control - phi_target.
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
        if abs(den) < POLE_GUARD:
            raise NearPoleError(
                f"|{name}| = {abs(den):.3f} MHz inside the {POLE_GUARD} MHz guard"
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
) -> float:
    """Closed-form rate prediction for a device pair and drive config."""
    control = device.qubit(config.control)
    target = device.qubit(config.target)
    if j is None:
        j = device.couplings.j(config.control, config.target)
    if zeta_static_khz is None:
        zeta_static_khz = zz_exact(device, config.pair)
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
# ideal instantaneous pi pulses: dynamics.echo_sequence with one tone set
# per drive configuration, each in its own drive frequency's frame.


def default_widths(rise: float) -> np.ndarray:
    """The 25-point 0-3 us tomography grid, less the nonzero widths too
    short for two half-pulses with ``rise`` ns ramps."""
    grid = np.linspace(0.0, 3.0, 25)
    return grid[(grid == 0.0) | (grid >= 4.0 * rise * 1e-3)]


def _echo(h0: LatticeOperator, configs: Sequence[SizzleConfig], noise: Optional[NoiseSpec]):
    """The :func:`dynamics.echo_sequence` of every config on the pair of
    ``h0`` with the rise of the first (else ValueError), each config's
    control and target tones in the frame of its drive frequency, with
    pi x pi as the pulse: vectors when ``noise`` is None, else density
    matrices."""
    for config in configs:
        if tuple(config.pair) != h0.sites:
            raise ValueError(f"config pair {config.pair} is not the pair {h0.sites} of h0")
        if config.rise != configs[0].rise:
            raise ValueError(f"config rises {configs[0].rise} and {config.rise} ns differ; "
                             f"an echo has one rise")
    pi = rotation_gate(math.pi, 0.0, h0.levels)
    return echo_sequence(
        h0,
        [config.freq for config in configs],
        [(config.omega_control, config.omega_target) for config in configs],
        [(config.dphi, 0.0) for config in configs],
        configs[0].rise,
        np.kron(pi, pi),
        noise,
    )


def _prepared_states(levels: int, noise: Optional[NoiseSpec]) -> np.ndarray:
    """The target on the equator with the control in |0> and in |1>:
    vectors when ``noise`` is None, else density matrices."""
    tgt = rotation_gate(math.pi / 2.0, math.pi / 2.0, levels)[:, 0]
    psis = np.kron(np.eye(levels, dtype=complex)[:2], tgt)
    return psis if noise is None else np.einsum("ni,nj->nij", psis, psis.conj())


def _readout(states: np.ndarray, levels: int, noise: Optional[NoiseSpec]) -> tuple:
    """The target's coherence <0|rho|1>, its phase and the control's
    excited population of pair states indexed [..., state]: vectors when
    ``noise`` is None, else density matrices."""
    if noise is None:
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
    echo,
    levels: int,
    noise: Optional[NoiseSpec],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pulse-width tomography of configs that share the pair and rise of
    the first, through their :func:`_echo` on the pair at ``levels`` with
    the Lindblad terms of ``noise``: nu_tilde (kHz) per config, the
    target coherences [config, width, control state] and the unwrapped
    differential phases [config, width] the rates are fitted to."""
    for config in configs:
        config.validate_against(device)
    # the rate is a fitted slope: one width fixes none, two leave no residual
    if len(set(map(float, widths))) < 3:
        raise ValueError("need at least 3 distinct widths")
    states = echo(_prepared_states(levels, noise), widths)
    coh, phases, _ = _readout(states, levels, noise)
    diff = phases[..., 1] - phases[..., 0]
    wrapped = (np.diff(diff) + np.pi) % (2 * np.pi) - np.pi
    if np.any(np.abs(wrapped) > 0.9 * np.pi):
        raise AliasingError(
            "differential phase advances by nearly pi per width step; "
            "densify the width grid"
        )
    unwrapped = np.concatenate([diff[:, :1], diff[:, :1] + np.cumsum(wrapped, axis=-1)], axis=-1)
    slopes, _ = fit_line(widths, unwrapped)
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
    h0 = assemble_hamiltonian(device, SubsetSelection(config.pair, levels))
    noise = lindblad_noise(h0.sites, noise)
    (nu_tilde_khz,), (coh,), (unwrapped,) = _tomography(
        device, [config], widths, _echo(h0, [config], noise), levels, noise
    )
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
    h0 = assemble_hamiltonian(device, SubsetSelection(config.pair, levels))
    noise = lindblad_noise(h0.sites, noise)
    echo = _echo(h0, configs, noise)
    rates, _, _ = _tomography(device, configs, widths, echo, levels, noise)
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
    """Linear fit of rate = A cos(dphi) + A_s sin(dphi) + B, by its
    normal equations; returns the cosine amplitude, offset, and R^2."""
    design = np.column_stack([np.cos(dphis), np.sin(dphis), np.ones_like(dphis)])
    coef = solve(design.T @ design, design.T @ rates)
    if coef is None:
        raise ValueError("the phases fix no cosine modulation: singular normal equations")
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
    instability bands are flagged and not evaluated; the others share one
    :func:`_echo`, whose stacked decomposition holds every cell (with
    ``noise``, cells x dim^4 complex numbers per Liouvillian stack, of
    which it holds three at the decomposition: the Liouvillians and their
    right and left eigenvectors).
    """
    freqs = np.asarray(freqs, dtype=float)
    amplitudes = np.asarray(amplitudes, dtype=float)
    shape = (len(freqs), len(amplitudes))
    diff_phase = np.full(shape, np.nan)
    control_response = np.full(shape, np.nan)
    h0 = assemble_hamiltonian(device, SubsetSelection(pair, levels))
    noise = lindblad_noise(h0.sites, noise)
    row_flags = np.array([landscape_flags(device, pair, float(f), guard) for f in freqs], bool)
    rows = np.flatnonzero(~row_flags)
    # every unflagged cell in one echo: one stacked decomposition
    configs = [
        SizzleConfig(pair=pair, freq=float(freqs[i]), omega_target=float(amp), ratio=ratio)
        for i in rows
        for amp in amplitudes
    ]
    if configs:
        echo = _echo(h0, configs, noise)
        cells = echo(_prepared_states(levels, noise), [width])[:, 0]
        _, phases, excited = _readout(cells, levels, noise)
        diff = [math.remainder(d, 2 * math.pi) for d in phases[:, 1] - phases[:, 0]]
        diff_phase[rows] = np.reshape(diff, (len(rows), -1))
        # the worse of the control's population errors in |0> and |1>
        response = np.abs(excited - [0.0, 1.0]).max(axis=-1)
        control_response[rows] = response.reshape(len(rows), -1)
    return ExperimentRecord(
        protocol="sizzle_drive_landscape",
        axes=(
            AxisSpec("freq", tuple(freqs), "MHz"),
            AxisSpec("amplitude", tuple(amplitudes), "MHz"),
        ),
        data={
            "differential_phase": diff_phase,
            "control_response": control_response,
            "flagged": np.repeat(row_flags[:, None], len(amplitudes), axis=1),
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
) -> CzCalibration:
    """Tune a conditional-phase gate from the measured driven ZZ rate.

    Measures nu_tilde by pulse-width tomography (or uses the supplied
    ``nu_tilde_khz``, skipping the measurement), sets the duration so
    the accumulated conditional phase equals ``target_phase``, then
    verifies by repeated-gate tomography that the phase is linear in
    gate count with a per-gate residual below 1% of target.  A
    ``target_phase`` that is not finite and positive, or a supplied
    ``nu_tilde_khz`` that is not finite, raises ValueError.
    """
    if not (math.isfinite(target_phase) and target_phase > 0):
        raise ValueError(f"target phase {target_phase} rad must be finite and positive")
    if nu_tilde_khz is not None and not math.isfinite(nu_tilde_khz):
        raise ValueError(f"driven ZZ rate {nu_tilde_khz} kHz must be finite")
    measured = nu_tilde_khz
    if measured is None:
        # one pair Hamiltonian and one echo for the tomography and the
        # repeated-gate check
        h0 = assemble_hamiltonian(device, SubsetSelection(config.pair, levels))
        noise = lindblad_noise(h0.sites, noise)
        echo = _echo(h0, [config], noise)
        if widths is None:
            widths = default_widths(config.rise)
        (measured,), _, _ = _tomography(device, [config], widths, echo, levels, noise)
    if abs(measured) < NU_TILDE_FLOOR_KHZ:
        raise UncalibratableError(
            f"driven ZZ rate {measured:.2f} kHz is below the {NU_TILDE_FLOOR_KHZ} kHz floor"
        )
    tau_g = gate_duration(target_phase, measured)

    counts = VERIFY_COUNTS
    signed_target = math.copysign(target_phase, measured)
    if nu_tilde_khz is None:
        phases = _repeated_gate_phases(echo, tau_g, counts, levels, noise)
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
    slope, _ = fit_line(counts, unwrapped)
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
    echo,
    tau_g: float,
    counts: Sequence[int],
    levels: int,
    noise: Optional[NoiseSpec],
) -> list[float]:
    """Differential target phase after n pulses of width tau_g of the
    one-config :func:`_echo` on the pair at ``levels`` with the Lindblad
    terms of ``noise``, for every n in ``counts``."""
    states = [_prepared_states(levels, noise)]
    for _ in range(max(counts)):
        states.append(echo(states[-1], [tau_g])[0, 0])
    _, phases, _ = _readout(np.array(states), levels, noise)
    return [math.remainder(phases[n, 1] - phases[n, 0], 2 * math.pi) for n in counts]
