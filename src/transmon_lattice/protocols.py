"""Measurement protocols on driven subsets: AC-Stark shift calibration,
T1 / Ramsey / echo, swap chevrons and AC-Stark Ramsey spectroscopy,
with projective sampling and the fits that extract their headline
numbers.  Evolution itself lives in :mod:`dynamics`; the conventions
(MHz, us, little-endian subset order) are the same.
"""
from __future__ import annotations

import math
from typing import Mapping, Optional, Sequence

import numpy as np

from .device import DeviceSpec, TransmonParams, pair_key
from .dynamics import (
    NoiseSpec, echo_sequence, evolve, lindblad_noise, rotation_gate, site_coherence,
)
from .errors import AliasingError, ContractViolation
from .fitting import fit_anticrossing, fit_damped_cos
from .operators import (
    LatticeOperator, SubsetSelection, assemble_hamiltonian, basis_occupations, destroy,
)
from .records import AxisSpec, ExperimentRecord


# --------------------------------------------------- Stark-shift calibration

STARK_MAX_AMPLITUDE = 80.0  # MHz, the upper end of the amplitude bisection


def stark_shift(
    params: TransmonParams, drive_freq: float, amplitude: float, levels: int = 4
) -> float:
    """AC-Stark shift (MHz) of the 0-1 transition under one off-resonant
    tone, from exact diagonalization of the driven transmon in the frame
    rotating at the drive."""
    delta = params.omega - drive_freq
    occ = np.arange(levels, dtype=float)
    h = np.diag((delta + 0.5 * params.alpha * (occ - 1.0)) * occ).astype(complex)
    a = destroy(levels)
    h += 0.5 * amplitude * (a + a.conj().T)
    energies, basis = np.linalg.eigh(h)
    weights = np.abs(basis) ** 2
    idx0 = int(np.argmax(weights[0]))
    idx1 = int(np.argmax(weights[1]))
    if idx0 == idx1:
        raise ContractViolation(
            "drive hybridizes the lowest transmon levels; shift undefined"
        )
    return float(energies[idx1] - energies[idx0]) - delta


def stark_shift_curve(
    params: TransmonParams,
    drive_freq: float,
    amplitudes: Sequence[float],
    levels: int = 4,
) -> np.ndarray:
    return np.array(
        [stark_shift(params, drive_freq, amp, levels) for amp in amplitudes]
    )


def stark_amplitude_for_shift(
    params: TransmonParams,
    drive_freq: float,
    target_shift: float,
    levels: int = 4,
) -> float:
    """Amplitude whose calibrated Stark shift equals ``target_shift``,
    by bisection on the numerically computed curve."""
    lo, hi = 0.0, STARK_MAX_AMPLITUDE
    s_lo = 0.0
    s_hi = stark_shift(params, drive_freq, hi, levels)
    if (target_shift - s_lo) * (target_shift - s_hi) > 0:
        raise ValueError(
            f"target shift {target_shift} MHz not reachable below "
            f"{STARK_MAX_AMPLITUDE} MHz amplitude (range {s_lo}..{s_hi})"
        )
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        s_mid = stark_shift(params, drive_freq, mid, levels)
        if (target_shift - s_lo) * (target_shift - s_mid) <= 0:
            hi, s_hi = mid, s_mid
        else:
            lo, s_lo = mid, s_mid
    return 0.5 * (lo + hi)


# ----------------------------------------------------------------- sampling

def sample_binary(
    p_one: np.ndarray, shots: int, rng: np.random.Generator, assignment_error: float = 0.0
) -> np.ndarray:
    """Projective sampling of a binary observable with optional
    symmetric assignment error."""
    p = np.clip(np.asarray(p_one, dtype=float), 0.0, 1.0)
    if assignment_error:
        p = p * (1 - assignment_error) + (1 - p) * assignment_error
    return rng.binomial(shots, p) / shots


def _check_shots(shots: int) -> None:
    if shots < 0:
        raise ValueError(f"shots must be non-negative (0 = exact), got {shots}")


def checked_delays(delays: Sequence[float]) -> np.ndarray:
    """A T1, Ramsey or echo delay grid (us), once it is finite, >= 0 and strictly ascending."""
    delays = np.asarray(delays, dtype=float)
    bad = delays[~np.isfinite(delays) | (delays < 0)]
    if bad.size:
        raise ValueError(f"delays must be finite and non-negative, got {bad[0]} us")
    if np.any(np.diff(delays) <= 0):
        raise ValueError("delays must be strictly ascending")
    return delays


def _rng_for(seed: Optional[int], *counters: int) -> np.random.Generator:
    """Deterministic per-task generator derived from a master seed."""
    if seed is None:
        seed = 0
    return np.random.default_rng(np.random.SeedSequence([seed, *counters]))


# ---------------------------------------------------------------- protocols

def _single_qubit_h0(device: DeviceSpec, qubit: str, levels: int) -> LatticeOperator:
    subset = SubsetSelection((qubit,), levels)
    return assemble_hamiltonian(device, subset)


def _jitter_term(
    sites: Sequence[str],
    levels: int,
    offsets_mhz: Mapping[str, float],
) -> np.ndarray:
    """Static frequency offsets (MHz) by site: the diagonal sum of
    offset times occupation."""
    occ = basis_occupations(len(sites), levels)
    offsets = np.array([offsets_mhz.get(label, 0.0) for label in sites])
    return np.diag((occ @ offsets).astype(complex))


def protocol_t1(
    device: DeviceSpec,
    qubit: str,
    delays: Sequence[float],
    noise: Optional[NoiseSpec] = None,
    shots: int = 0,
    seed: Optional[int] = None,
    levels: int = 2,
    assignment_error: float = 0.0,
) -> ExperimentRecord:
    """Excite, wait, measure: records excited-state population vs delay."""
    _check_shots(shots)
    noise = noise if noise is not None else NoiseSpec.from_device(device, (qubit,))
    delays = checked_delays(delays)
    h0 = _single_qubit_h0(device, qubit, levels)
    rho0 = np.zeros((levels, levels), dtype=complex)
    rho0[1, 1] = 1.0
    rhos = evolve(h0, rho0, delays, frame=device.qubit(qubit).omega, noise=noise)
    p1 = np.real(rhos[:, 1, 1])
    if shots > 0:
        p1 = sample_binary(p1, shots, _rng_for(seed, 0), assignment_error)
    return ExperimentRecord(
        protocol="t1",
        axes=(AxisSpec("delay", tuple(delays), "us"),),
        data={"p_excited": p1},
        shots=shots,
        seed=seed,
        device_ref=qubit,
        config={"qubit": qubit, "levels": levels},
    )


def _ramsey_coherence(
    device: DeviceSpec,
    qubit: str,
    delays: np.ndarray,
    noise: NoiseSpec,
    jitter_offset: float,
    levels: int,
) -> np.ndarray:
    """<0|rho|1> after (pi/2 - wait) with an extra static frequency
    offset on the qubit, in the qubit frame."""
    h0 = _single_qubit_h0(device, qubit, levels)
    frame = device.qubit(qubit).omega
    extra = _jitter_term((qubit,), levels, {qubit: jitter_offset})
    psi = rotation_gate(math.pi / 2.0, math.pi / 2.0, levels)[:, 0]
    rho0 = np.outer(psi, psi.conj())
    rhos = evolve(h0, rho0, delays, frame=frame, noise=noise, extra_static=extra)
    return rhos[:, 0, 1]


def protocol_ramsey(
    device: DeviceSpec,
    qubit: str,
    delays: Sequence[float],
    detuning: float = 1.0,
    noise: Optional[NoiseSpec] = None,
    shots: int = 0,
    seed: Optional[int] = None,
    levels: int = 2,
    jitter_mode: str = "per_shot",
    assignment_error: float = 0.0,
) -> ExperimentRecord:
    """Ramsey fringe at a programmed software detuning (MHz).

    Quasi-static jitter: ``per_shot`` redraws the frequency offset every
    shot (the analytic shots=0 limit applies the exact Gaussian
    envelope); ``per_run`` freezes one offset for the whole record,
    which is the regime of slow drift between repeated experiments.
    """
    _check_shots(shots)
    noise = noise if noise is not None else NoiseSpec.from_device(device, (qubit,))
    if jitter_mode not in ("per_shot", "per_run"):
        raise ValueError("jitter_mode must be 'per_shot' or 'per_run'")
    delays = checked_delays(delays)
    sigma_mhz = noise.rate("jitter_khz", qubit) * 1e-3

    def signal_for(offset: float) -> np.ndarray:
        coh = _ramsey_coherence(device, qubit, delays, noise, offset, levels)
        return 0.5 + np.real(coh * np.exp(2j * np.pi * detuning * delays))

    if jitter_mode == "per_run":
        rng = _rng_for(seed, 1)
        offset = float(rng.normal(0.0, sigma_mhz)) if sigma_mhz > 0 else 0.0
        p1 = signal_for(offset)
        if shots > 0:
            p1 = sample_binary(p1, shots, rng, assignment_error)
    elif shots == 0:
        # infinite-shot limit of per-shot sampling: exact Gaussian envelope
        coh = _ramsey_coherence(device, qubit, delays, noise, 0.0, levels)
        gauss = np.exp(-0.5 * (2 * np.pi * sigma_mhz * delays) ** 2)
        p1 = 0.5 + np.real(coh * np.exp(2j * np.pi * detuning * delays)) * gauss
    else:
        coh0 = _ramsey_coherence(device, qubit, delays, noise, 0.0, levels)
        rng = _rng_for(seed, 1)
        p1 = np.empty(len(delays))
        for i, t in enumerate(delays):
            offsets = rng.normal(0.0, sigma_mhz, shots) if sigma_mhz > 0 else np.zeros(shots)
            phase = np.exp(2j * np.pi * (detuning + offsets) * t)
            probs = 0.5 + np.real(coh0[i] * phase)
            flips = rng.random(shots) < np.clip(
                probs * (1 - 2 * assignment_error) + assignment_error, 0, 1
            )
            p1[i] = flips.mean()
    return ExperimentRecord(
        protocol="ramsey",
        axes=(AxisSpec("delay", tuple(delays), "us"),),
        data={"p_excited": np.clip(p1, 0, 1)},
        shots=shots,
        seed=seed,
        device_ref=qubit,
        config={
            "qubit": qubit,
            "detuning": detuning,
            "levels": levels,
            "jitter_mode": jitter_mode,
        },
    )


def protocol_echo(
    device: DeviceSpec,
    qubit: str,
    delays: Sequence[float],
    noise: Optional[NoiseSpec] = None,
    shots: int = 0,
    seed: Optional[int] = None,
    levels: int = 2,
    assignment_error: float = 0.0,
) -> ExperimentRecord:
    """Hahn echo: the mid-sequence pi pulse cancels quasi-static jitter,
    so the decay is set by T1 and the Markovian dephasing alone."""
    _check_shots(shots)
    noise = noise if noise is not None else NoiseSpec.from_device(device, (qubit,))
    delays = checked_delays(delays)
    # quasi-static offsets cancel exactly; evolve once without them.  The
    # closing pi pulse conjugates <0|rho|1> and keeps its magnitude
    h0 = _single_qubit_h0(device, qubit, levels)
    psi = rotation_gate(math.pi / 2.0, math.pi / 2.0, levels)[:, 0]
    rho0 = np.outer(psi, psi.conj())
    echo = echo_sequence(
        h0, [device.qubit(qubit).omega], [[0.0]], [[0.0]], 0.0,
        rotation_gate(math.pi, 0.0, levels), noise,
    )
    coh = echo(rho0[None], delays)[0, :, 0, 0, 1]
    p1 = 0.5 + np.abs(coh)
    if shots > 0:
        p1 = sample_binary(p1, shots, _rng_for(seed, 2), assignment_error)
    return ExperimentRecord(
        protocol="echo",
        axes=(AxisSpec("delay", tuple(delays), "us"),),
        data={"p_excited": np.clip(p1, 0, 1)},
        shots=shots,
        seed=seed,
        device_ref=qubit,
        config={"qubit": qubit, "levels": levels},
    )


DEFAULT_STARK_DETUNING = -60.0  # MHz below the shifted qubit
SOFTWARE_DETUNING = 2.0  # MHz added to the Ramsey signal, so that it oscillates at any shift


def protocol_swap(
    device: DeviceSpec,
    pair: tuple[str, str],
    amplitudes: Sequence[float],
    durations: Sequence[float],
    drive_detuning: float = DEFAULT_STARK_DETUNING,
    noise: Optional[NoiseSpec] = None,
    seed: Optional[int] = None,
    levels: int = 3,
    j_override: Optional[float] = None,
) -> ExperimentRecord:
    """Swap chevron: pair[0] starts excited and is Stark-shifted through
    resonance with pair[1]; populations are recorded on a 2D
    (amplitude, duration) grid.

    The Stark tone enters the evolved Hamiltonian; the recorded
    ``stark_shift`` metadata comes from the single-qubit calibration
    curve.  Lindblad rates in ``noise`` damp the chevron; quasi-static
    jitter is not sampled here (it is far below the J scale).
    """
    shifted, partner = pair
    amplitudes = np.asarray(amplitudes, dtype=float)
    durations = np.asarray(durations, dtype=float)
    subset = SubsetSelection((shifted, partner), levels)
    overrides = None
    if j_override is not None:
        overrides = {pair_key(shifted, partner): j_override}
    h0 = assemble_hamiltonian(device, subset, j_overrides=overrides)
    drive_freq = device.qubit(shifted).omega + drive_detuning
    shifts = stark_shift_curve(device.qubit(shifted), drive_freq, amplitudes, levels)
    noise = lindblad_noise(pair, noise)

    psi0 = np.zeros(levels**2, dtype=complex)
    psi0[levels] = 1.0  # |1, 0> in little-endian subset order
    state0 = psi0 if noise is None else np.outer(psi0, psi0.conj())
    p_shift = np.empty((len(amplitudes), len(durations)))
    p_partner = np.empty_like(p_shift)
    for i, amp in enumerate(amplitudes):
        states = evolve(h0, state0, durations, drive_freq, (amp, 0.0), noise)
        if noise is None:
            probs = np.abs(states) ** 2
        else:
            probs = np.real(np.diagonal(states, axis1=1, axis2=2))
        # probs[k, n_shifted, n_partner] at duration k; a site's level-1
        # population sums the other site's levels
        probs = probs.reshape(len(durations), levels, levels)
        p_shift[i] = probs[:, 1, :].sum(axis=1)
        p_partner[i] = probs[:, :, 1].sum(axis=1)
    return ExperimentRecord(
        protocol="swap_chevron",
        axes=(
            AxisSpec("amplitude", tuple(amplitudes), "MHz"),
            AxisSpec("duration", tuple(durations), "us"),
        ),
        data={"p_shifted": p_shift, "p_partner": p_partner},
        shots=0,
        seed=seed,
        device_ref=f"{shifted},{partner}",
        config={
            "pair": list(pair),
            "drive_detuning": drive_detuning,
            "levels": levels,
            "j_override": j_override,
        },
        metadata={"stark_shift": shifts.tolist(), "drive_freq": drive_freq},
    )


def swap_resonance(record: ExperimentRecord) -> dict:
    """Locate the chevron's resonance slice and fit its oscillation.

    Returns the best amplitude index, the fitted population-oscillation
    frequency (MHz), and the full swap period 1/f (us).
    """
    p_partner = record.data["p_partner"]
    durations = record.axis("duration")
    best = int(np.argmax(p_partner.max(axis=1)))
    fit = fit_damped_cos(durations, record.data["p_shifted"][best])
    freq = abs(fit.params["f"])
    return {
        "amplitude_index": best,
        "oscillation_freq": freq,
        "swap_period": 1.0 / freq,
        "max_transfer": float(p_partner[best].max()),
        "fit": fit,
    }


def protocol_acstark_ramsey(
    device: DeviceSpec,
    pair: tuple[str, str],
    amplitudes: Sequence[float],
    drive_detuning: float = DEFAULT_STARK_DETUNING,
    delays: Optional[Sequence[float]] = None,
    noise: Optional[NoiseSpec] = None,
    seed: Optional[int] = None,
    levels: int = 3,
) -> ExperimentRecord:
    """Track pair[0]'s Ramsey frequency while pair[1] is Stark-shifted
    toward it.

    Per amplitude point, the measured qubit runs a Ramsey experiment
    with the Stark tone on during the free evolution; the fitted
    frequency minus the zero-amplitude reference is the level-repulsion
    shift.  ``delta_model`` in the record is the instantaneous detuning
    (measured minus shifted-partner frequency) from the Stark
    calibration curve, ready for the anticrossing fit.  Quasi-static
    jitter on the measured qubit is redrawn per amplitude point,
    matching slow drift between repeated experiments.
    """
    measured, shifted = pair
    noise = noise if noise is not None else NoiseSpec()
    amplitudes = np.asarray(amplitudes, dtype=float)
    if delays is None:
        delays = np.linspace(0.0, 3.0, 61)
    delays = np.asarray(delays, dtype=float)

    subset = SubsetSelection((measured, shifted), levels)
    h0 = assemble_hamiltonian(device, subset)
    drive_freq = device.qubit(shifted).omega + drive_detuning
    omega_meas = device.qubit(measured).omega
    partner_shift = stark_shift_curve(device.qubit(shifted), drive_freq, amplitudes, levels)
    sigma_mhz = noise.rate("jitter_khz", measured) * 1e-3
    rng = _rng_for(seed, 3) if sigma_mhz > 0 else None
    lindblad = lindblad_noise(pair, noise)

    psi_meas = rotation_gate(math.pi / 2.0, math.pi / 2.0, levels)[:, 0]
    ground = np.zeros(levels, dtype=complex)
    ground[0] = 1.0
    psi0 = np.kron(psi_meas, ground)
    state0 = psi0 if lindblad is None else np.outer(psi0, psi0.conj())

    def fitted_frequency(amp: float, offset: float) -> float:
        extra = _jitter_term((measured, shifted), levels, {measured: offset})
        states = evolve(h0, state0, delays, drive_freq, (0.0, amp), lindblad, extra)
        coh = np.array(
            [site_coherence(s, 0, 2, levels) for s in states]
        )
        # demodulate from the drive frame to the measured qubit's own
        # frame, so the fit sees only the repulsion shift plus jitter
        demod = np.exp(-2j * np.pi * (omega_meas - drive_freq) * delays)
        signal = 0.5 + np.real(
            coh * demod * np.exp(2j * np.pi * SOFTWARE_DETUNING * delays)
        )
        fit = fit_damped_cos(delays, signal)
        return float(fit.params["f"]) - SOFTWARE_DETUNING

    reference = fitted_frequency(0.0, 0.0)
    freq_shift = np.empty(len(amplitudes))
    for i, amp in enumerate(amplitudes):
        offset = float(rng.normal(0.0, sigma_mhz)) if rng is not None else 0.0
        try:
            freq_shift[i] = fitted_frequency(float(amp), offset) - reference
        except AliasingError:
            # deep hybridization can defeat the single-tone fit; the
            # point is recorded as unresolved and excluded downstream
            freq_shift[i] = np.nan

    omega_shift = device.qubit(shifted).omega
    delta_model = omega_meas - (omega_shift + partner_shift)
    return ExperimentRecord(
        protocol="acstark_ramsey",
        axes=(AxisSpec("amplitude", tuple(amplitudes), "MHz"),),
        data={
            "freq_shift": freq_shift,
            "partner_shift": partner_shift,
            "delta_model": delta_model,
        },
        shots=0,
        seed=seed,
        device_ref=f"{measured},{shifted}",
        config={
            "pair": list(pair),
            "drive_detuning": drive_detuning,
            "software_detuning": SOFTWARE_DETUNING,
            "levels": levels,
            "jitter_khz": sigma_mhz * 1e3,
        },
        metadata={"drive_freq": drive_freq, "reference_freq": reference},
    )


def extract_anticrossing(record: ExperimentRecord, guard: float = 2.0) -> dict:
    """Exchange coupling and scatter metrics from an AC-Stark Ramsey
    record.

    Returns both quantities separately: ``j`` is the anticrossing-model
    fit, ``freq_scatter_std`` is the standard deviation of the measured
    frequency shifts (the quantity reported for uncoupled pairs, which
    bounds any residual coupling by the measurement's jitter floor).
    They measure different things and are not interchangeable.
    """
    delta = record.data["delta_model"]
    shift = record.data["freq_shift"]
    mask = (np.abs(delta) >= guard) & np.isfinite(shift)
    fit = fit_anticrossing(delta[mask], shift[mask], guard=guard)
    return {
        "j": abs(fit.params["J"]),
        "fit": fit,
        "freq_scatter_std": float(np.std(shift, ddof=1)) if len(shift) > 1 else 0.0,
        "points_used": int(mask.sum()),
    }

