"""Randomized benchmarking: individual, simultaneous, and two-qubit
interleaved, with EPC/EPG extraction and the coherence-limited bound.

The benchmarking simulator is gate-level: Cliffords and the injected
noise channels (depolarizing, coherent over-rotation, always-on ZZ
phases between neighbors) act as Pauli transfer matrices on the Pauli
vectors of one lockstep engine, which runs individual, simultaneous and
interleaved RB.  Survival decays fit A p^m + B; EPC = (1 - p)(d - 1)/d.
"""
from __future__ import annotations

import math
from typing import TYPE_CHECKING, Mapping, Optional, Sequence, Union

import numpy as np

from .cliffords import (
    MEAN_GATES_PER_CLIFFORD,
    _mixers,
    clifford_identity,
    clifford_table,
    clifford_unitaries,
    cz_unitary,
    sequence_inverses,
    two_qubit_clifford_matrices,
    two_qubit_inverse_index,
)
from .device import DeviceSpec, pair_key, zz_perturbative
from .errors import ContractViolation
from .fitting import FitResult, fit_rb_decay
from .values import FrozenValue, Value

if TYPE_CHECKING:
    from .sizzle import CzCalibration

DEFAULT_LENGTHS = (2, 25, 50, 100, 250, 500, 750, 1000)
DEFAULT_LENGTHS_2Q = (2, 4, 8, 16, 32, 64)
DEFAULT_GATE_TIME_NS = 60.0
# how far a given gate transfer matrix's first row may stray from e0
TRACE_TOL = 1e-9


def clg(t_g: float, t1: float, t2e: float) -> float:
    """Coherence-limited error per gate: t_g in ns, T1/T2E in us.

    (3 - exp(-t_g/T1) - 2 exp(-t_g/T2E)) / 6; zero at t_g = 0 and
    monotone in t_g.
    """
    if t_g < 0 or t1 <= 0 or t2e <= 0:
        raise ValueError("gate time must be >= 0 and coherence times positive")
    t_us = t_g * 1e-3
    return (3.0 - math.exp(-t_us / t1) - 2.0 * math.exp(-t_us / t2e)) / 6.0


def epc_to_epg(epc: float) -> float:
    """Error per physical gate from error per Clifford, using the
    published conversion factor 1.825."""
    if epc < 0:
        raise ValueError("EPC must be non-negative")
    return epc / MEAN_GATES_PER_CLIFFORD


class NoiseChannel(FrozenValue):
    """Error injection for benchmarking oracles.

    ``depolarizing`` is the depolarizing probability applied at
    ``granularity`` ("clifford" or "gate"); ``over_rotation`` scales
    every physical X rotation by (1 + value); ``zz_phase_per_clifford``
    holds always-on conditional phases (radians per Clifford slot)
    between qubit pairs during simultaneous runs.
    """

    __slots__ = ("depolarizing", "granularity", "over_rotation", "zz_phase_per_clifford")

    def __init__(
        self,
        depolarizing: float = 0.0,
        granularity: str = "clifford",
        over_rotation: float = 0.0,
        zz_phase_per_clifford: Optional[Mapping[tuple[str, str], float]] = None,
    ):
        self._assign(
            depolarizing,
            granularity,
            over_rotation,
            {} if zz_phase_per_clifford is None else zz_phase_per_clifford,
        )
        if not 0.0 <= self.depolarizing <= 1.0:
            raise ContractViolation(
                f"depolarizing probability {self.depolarizing} outside [0, 1]"
            )
        if self.granularity not in ("clifford", "gate"):
            raise ValueError("granularity must be 'clifford' or 'gate'")

    @classmethod
    def from_epc(cls, epc: float) -> "NoiseChannel":
        """Depolarizing channel whose single-qubit RB EPC equals ``epc``
        exactly (probability 2*epc per Clifford); ``epc`` must lie in
        [0, 0.5]."""
        if not 0.0 <= epc <= 0.5:
            raise ValueError(f"EPC {epc} outside [0, 0.5]")
        return cls(depolarizing=2.0 * epc, granularity="clifford")

    @classmethod
    def from_device(
        cls, device: DeviceSpec, qubit: str, gate_time_ns: float = DEFAULT_GATE_TIME_NS
    ) -> "NoiseChannel":
        """Coherence-limited depolarizing per physical gate, with the
        neighbor ZZ phases implied by the device couplings."""
        q = device.qubit(qubit)
        error = clg(gate_time_ns, q.t1, q.t2e)
        zz = {}
        slot_us = gate_time_ns * 1e-3 * MEAN_GATES_PER_CLIFFORD
        for a, b in device.nn_pairs():
            if qubit not in (a, b):
                continue
            zeta_khz = zz_perturbative(
                device.couplings.j(a, b),
                device.qubit(a).omega - device.qubit(b).omega,
                device.qubit(a).alpha,
                device.qubit(b).alpha,
            )
            zz[pair_key(a, b)] = 2.0 * math.pi * zeta_khz * 1e-3 * slot_us
        return cls(depolarizing=2.0 * error, granularity="gate", zz_phase_per_clifford=zz)


class RbOutcome(Value):
    """Survival data and extracted error rates for one qubit."""

    __slots__ = (
        "qubit", "lengths", "survivals", "per_sequence", "fit", "epc", "epg",
        "epc_uncertainty", "epg_uncertainty",
    )

    def __init__(
        self,
        qubit: str,
        lengths: tuple[int, ...],
        survivals: np.ndarray,  # mean over sequences, per length
        per_sequence: np.ndarray,  # (n_sequences, n_lengths)
        fit: FitResult,
        epc: float,
        epg: float,
        epc_uncertainty: float,
        epg_uncertainty: float,
    ):
        self._assign(
            qubit, lengths, survivals, per_sequence, fit, epc, epg,
            epc_uncertainty, epg_uncertainty,
        )

    def to_dict(self) -> dict:
        return {
            "qubit": self.qubit,
            "lengths": list(self.lengths),
            "survivals": self.survivals.tolist(),
            "per_sequence": self.per_sequence.tolist(),
            "fit": self.fit.to_dict(),
            "epc": self.epc,
            "epg": self.epg,
            "epc_uncertainty": self.epc_uncertainty,
            "epg_uncertainty": self.epg_uncertainty,
        }


def _sample_survival(
    probability: float, shots: int, rng: np.random.Generator
) -> float:
    if shots <= 0:
        return probability
    return rng.binomial(shots, min(max(probability, 0.0), 1.0)) / shots


def _fit_outcome(
    qubit: str,
    lengths: Sequence[int],
    per_sequence: np.ndarray,
    n_qubits: int = 1,
) -> RbOutcome:
    survivals = per_sequence.mean(axis=0)
    dim = 2**n_qubits
    scale = (dim - 1) / dim
    fit = fit_rb_decay(np.asarray(lengths, float), survivals, asymptote=1.0 / dim)
    p = fit.params["p"]
    epc = scale * (1.0 - p)
    sigma_p = fit.uncertainties.get("p", float("nan"))
    return RbOutcome(
        qubit=qubit,
        lengths=tuple(int(m) for m in lengths),
        survivals=survivals,
        per_sequence=per_sequence,
        fit=fit,
        epc=epc,
        epg=epc_to_epg(epc),
        epc_uncertainty=scale * sigma_p,
        epg_uncertainty=epc_to_epg(scale * sigma_p) if np.isfinite(sigma_p) else float("nan"),
    )


def sequence_gate_list(
    seed: int,
    qubit_position: int,
    sequence: int,
    length_position: int,
    length: int,
) -> list[tuple[str, float]]:
    """The physical gate list (including virtual Z and the inverting
    Clifford) of one individual-RB sequence, for external replay.

    Arguments mirror the RNG derivation of :func:`run_rb`: the qubit's
    position in the ``qubits`` argument, the sequence index, and the
    position of ``length`` in the lengths grid.
    """
    table = clifford_table()
    rng = np.random.default_rng(
        np.random.SeedSequence([seed, 101, qubit_position, sequence, length_position])
    )
    slots = _closed_sequences([rng], [length], 1)
    return [gate for idx in slots[0, 0, : length + 1] for gate in table[idx].gates]


def run_rb(
    model: Union[DeviceSpec, NoiseChannel, Mapping[str, NoiseChannel]],
    qubits: Sequence[str],
    n_sequences: int = 16,
    lengths: Sequence[int] = DEFAULT_LENGTHS,
    shots: int = 0,
    seed: int = 0,
    simultaneous: bool = False,
    gate_time_ns: float = DEFAULT_GATE_TIME_NS,
) -> dict[str, RbOutcome]:
    """Single-qubit randomized benchmarking.

    ``model`` is a NoiseChannel applied to every qubit, a per-qubit
    mapping, or a DeviceSpec (coherence-limited depolarizing plus the
    device's neighbor ZZ phases).  ``simultaneous`` runs all qubits at
    once, one Clifford per slot per qubit, with the ZZ phases active
    between slot gates; otherwise qubits run individually.
    Deterministic for a fixed seed.
    """
    lengths = _checked_runs(n_sequences, lengths, shots)
    qubits = tuple(qubits)
    repeated = sorted({q for q in qubits if qubits.count(q) > 1})
    if repeated:
        raise ValueError(f"qubit labels repeat: {', '.join(repeated)}")
    channels = _resolve_channels(model, qubits, gate_time_ns)
    if simultaneous and len(qubits) > 1:
        registers = [(qubits, (seed, 202))]
    else:
        registers = [((q,), (seed, 101, qi)) for qi, q in enumerate(qubits)]
    per_sequence = {}
    for register, entropy in registers:
        per_sequence.update(
            _run_register(channels, register, entropy, n_sequences, lengths, shots)
        )
    return {q: _fit_outcome(q, lengths, per_sequence[q]) for q in qubits}


def _checked_runs(n_sequences: int, lengths: Sequence[int], shots: int) -> tuple[int, ...]:
    """An RB run's lengths as ints, once they, the sequence count and the shots are valid."""
    fractional = [m for m in lengths if not float(m).is_integer()]
    if fractional:
        raise ValueError(f"lengths must be integers, got {fractional[0]}")
    lengths = tuple(int(m) for m in lengths)
    if not lengths or lengths[0] < 0:
        raise ValueError("lengths must be a non-empty list of non-negative integers")
    if any(b <= a for a, b in zip(lengths, lengths[1:])):
        raise ValueError("lengths must be strictly ascending")
    if n_sequences < 1:
        raise ValueError(f"n_sequences must be at least 1, got {n_sequences}")
    if shots < 0:
        raise ValueError(f"shots must be non-negative (0 = exact), got {shots}")
    return lengths


def _resolve_channels(model, qubits, gate_time_ns) -> dict[str, NoiseChannel]:
    if isinstance(model, DeviceSpec):
        return {q: NoiseChannel.from_device(model, q, gate_time_ns) for q in qubits}
    if isinstance(model, NoiseChannel):
        return {q: model for q in qubits}
    missing = [q for q in qubits if q not in model]
    if missing:
        raise KeyError(f"no noise channel for {missing[0]}")
    return dict(model)


def _zz_pairs_for(
    channels: Mapping[str, NoiseChannel], qubits: Sequence[str]
) -> dict[tuple[int, int], float]:
    """Slot ZZ phases between positions in the simultaneous register."""
    position = {q: i for i, q in enumerate(qubits)}
    phases: dict[tuple[int, int], float] = {}
    for channel in channels.values():
        for (a, b), phi in channel.zz_phase_per_clifford.items():
            if a in position and b in position and phi != 0.0:
                key = tuple(sorted((position[a], position[b])))
                phases[key] = phi
    return phases


# ------------------------------------------------------- lockstep engine
#
# Every (sequence, length) job of a register is one real Pauli vector
# x[a_0, ..., a_{n-1}] = tr(rho P_a0 (x) ... (x) P_a(n-1)) over
# P = (I, X, Y, Z), held flat in a (B, 4**n) stack, and every channel is
# a real transfer matrix on it.  Jobs are ordered by length, so the jobs
# still running at slot t are a contiguous suffix of the stack.

_PAULIS = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def _jobs(entropy: tuple[int, ...], n_sequences: int, lengths: Sequence[int]):
    """Each (s, li) job's generator and its length, ordered by length.
    The job draws its Clifford ids, then its shot counts, from
    ``SeedSequence([*entropy, s, li])``."""
    return [
        np.random.default_rng(np.random.SeedSequence([*entropy, s, li]))
        for li in range(len(lengths)) for s in range(n_sequences)
    ], np.repeat(lengths, n_sequences)


def _sampled(survivals, rngs, shots: int, n_sequences: int) -> np.ndarray:
    """(n_sequences, n_lengths) table of the jobs' survivals, each
    sampled at ``shots`` from its generator, after its Clifford ids."""
    sampled = [_sample_survival(p, shots, rng) for p, rng in zip(survivals, rngs)]
    return np.array(sampled).reshape(-1, n_sequences).T.copy()


def _run_register(
    channels: Mapping[str, NoiseChannel], register: Sequence[str], entropy: tuple[int, ...],
    n_sequences: int, lengths: Sequence[int], shots: int,
) -> dict[str, np.ndarray]:
    """Per-sequence survivals of every qubit of one register (one qubit
    for individual RB, all of them for simultaneous RB)."""
    rngs, job_lengths = _jobs(entropy, n_sequences, lengths)
    slots = _closed_sequences(rngs, job_lengths, len(register))
    transfers = np.array([_slot_transfers(channels[q]) for q in register])
    zz = _zz_transfer(_zz_pairs_for(channels, register), len(register))
    depolarizing = np.array([_slot_depolarizing(channels[q]) for q in register])
    x = _lockstep(slots, job_lengths, transfers, zz)
    ground = _site_ground(x, slots, job_lengths, depolarizing)
    return {q: _sampled(ground[:, k], rngs, shots, n_sequences) for k, q in enumerate(register)}


def _closed_sequences(
    rngs: Sequence[np.random.Generator], lengths: Sequence[int], n_sites: int
) -> np.ndarray:
    """Draw job j's (n_sites, lengths[j]) Clifford ids from rngs[j] into
    int8 slots of shape (B, n_sites, max length + 1).  Each sequence is
    followed by the Clifford that inverts it; later slots hold the
    identity."""
    lengths = np.asarray(lengths)
    slots = np.full((len(rngs), n_sites, max(lengths) + 1), clifford_identity(), np.int8)
    for j, (rng, m) in enumerate(zip(rngs, lengths)):
        slots[j, :, :m] = rng.integers(0, 24, (n_sites, m))
    # slots past a sequence hold the identity, so every product runs to the max length
    slots[np.arange(len(rngs)), :, lengths] = sequence_inverses(slots[:, :, :-1])
    return slots


def _slot_depolarizing(channel: NoiseChannel) -> np.ndarray:
    """Depolarizing probability of each of the 24 Clifford slots: the
    channel applied once per Clifford, or once per physical pulse."""
    if channel.granularity == "clifford":
        pulses = np.ones(24)
    else:
        pulses = np.array([e.physical_gate_count for e in clifford_table()])
    return 1.0 - (1.0 - channel.depolarizing) ** pulses


def _pauli_strings(n_sites: int) -> np.ndarray:
    """(4**n, 2**n, 2**n) Pauli strings, site 0 the most significant digit."""
    strings = np.ones((1, 1, 1))
    for _ in range(n_sites):
        strings = np.einsum("aij,bkl->abikjl", strings, _PAULIS).reshape(
            4 * len(strings), 2 * len(strings[0]), -1
        )
    return strings


def _transfers(u: np.ndarray) -> np.ndarray:
    """Transfer matrices R[c, a, b] = tr(P_a U_c P_b U_c^dagger) / 2**n
    of a (k, 2**n, 2**n) stack of n-site unitaries."""
    dim = u.shape[-1]
    strings = _pauli_strings(dim.bit_length() - 1)
    return np.einsum("aij,cjk,bkl,cil->cab", strings, u, strings, u.conj()).real / dim


def _slot_transfers(channel: NoiseChannel) -> np.ndarray:
    """(25, 24, 4, 4) table of one site's slot transfer matrices: entry
    [prev, cur] applies the depolarizing of Clifford ``prev`` (from the
    slot before; prev = 24 on the first slot), then Clifford ``cur`` as
    ``channel`` plays it, every X pulse over-rotated.  A slot's
    depolarizing comes right after its ZZ, so it can ride with the next
    slot's Clifford unchanged."""
    rotations = _transfers(clifford_unitaries(1.0 + channel.over_rotation))
    keep = np.ones((25, 4))
    keep[:24, 1:] = (1.0 - _slot_depolarizing(channel))[:, None]
    return rotations[None] * keep[:, None, None, :]


def _zz_transfer(phases: Mapping[tuple[int, int], float], n_sites: int) -> Optional[np.ndarray]:
    """Transposed (4**n, 4**n) transfer matrix of the slot ZZ evolution
    V on n-site Pauli vectors (site 0 is the most significant bit and
    Pauli digit), or None without ZZ: entry [b, a] is
    tr(P_a V P_b V^dagger) / 2**n.  Built with einsum, which calls no
    BLAS (a threaded GEMM here would wake a second thread)."""
    if not phases:
        return None
    dim = 2**n_sites
    bits = (np.arange(dim)[:, None] >> np.arange(n_sites - 1, -1, -1)) & 1
    v = np.exp(-1j * sum(phi * bits[:, i] * bits[:, j] for (i, j), phi in phases.items()))
    strings = _pauli_strings(n_sites)
    conjugated = v[:, None] * strings * v.conj()  # V P_b V^dagger
    return np.einsum("bij,aji->ba", conjugated, strings).real / dim


def _slot_step(x: np.ndarray, transfers: np.ndarray, register: Optional[np.ndarray]) -> np.ndarray:
    """One Clifford slot on a (b, 4**n) stack of Pauli vectors: site k's
    (b, 4, 4) transfer matrices ``transfers[:, k]``, then a transposed
    register transfer matrix, (4**n, 4**n) or one per job."""
    b, n = transfers.shape[:2]
    for k in range(n):
        # site k is the leading digit; the product moves it to the end,
        # so after all n sites the digits are back in order
        x = x.reshape(b, 4, -1).transpose(0, 2, 1) @ transfers[:, k].transpose(0, 2, 1)
    x = x.reshape(b, -1)
    if register is None:
        return x
    return x @ register if register.ndim == 2 else (x[:, None] @ register)[:, 0]


def _lockstep(
    slots: np.ndarray, lengths: np.ndarray, transfers: np.ndarray,
    register: Optional[np.ndarray], register_ids: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Run closed Clifford sequences from the ground state and return
    the final (B, 4**n) Pauli vectors.

    Job j plays slots[j, :, 0..lengths[j]] (as from :func:`_closed_sequences`),
    and ``lengths`` must be ascending.  Each slot plays the sites'
    Cliffords from their (n, 25, 24, 4, 4) :func:`_slot_transfers`
    tables, then a transposed register matrix: ``register`` itself (the
    :func:`_zz_transfer`, or None), or, given the (B, slots)
    ``register_ids``, entry register[register_ids[j, t]] of a stack.
    """
    n_jobs, n_sites, _ = slots.shape
    sites = np.arange(n_sites)
    ground = np.zeros((4,) * n_sites)
    ground[np.ix_(*[(0, 3)] * n_sites)] = 1.0  # |0><0| = (I + Z) / 2 on every site
    x = np.tile(ground.reshape(-1), (n_jobs, 1))
    previous = np.full((n_jobs, n_sites), 24, np.int8)
    starts = np.searchsorted(lengths, np.arange(lengths[-1] + 1))
    for t, start in enumerate(starts):
        step = register if register_ids is None else register[register_ids[start:, t]]
        x[start:] = _slot_step(
            x[start:], transfers[sites, previous[start:], slots[start:, :, t]], step
        )
        previous = slots[:, :, t]
    return x


def _site_ground(x, slots, lengths, depolarizing) -> np.ndarray:
    """Each site's ground-state population (B, n_sites) from the Pauli
    vectors of :func:`_lockstep`, after the last slot's (n, 24)
    ``depolarizing``, which scales <Z_k>."""
    sites = np.arange(slots.shape[1])
    z = x[:, 3 * 4 ** sites[::-1]]
    last = slots[np.arange(len(x)), :, lengths]
    return 0.5 * (1.0 + (1.0 - depolarizing[sites, last]) * z)


# ------------------------------------------------------- two-qubit RB / CZ

def _checked_gate_transfer(gate_transfer) -> np.ndarray:
    """``gate_transfer`` as a float array, once it is a finite real
    (16, 16) matrix whose first row is e0, as the transfer matrix of a
    trace-preserving channel has: R[0, b] = tr(G(P_b)) / 4 = delta_b0."""
    transfer = np.asarray(gate_transfer)
    if (transfer.shape != (16, 16) or transfer.dtype.kind not in "iuf"
            or not np.isfinite(transfer).all()):
        raise ValueError(
            "gate_transfer must be a finite real (16, 16) Pauli transfer matrix, "
            f"got shape {transfer.shape} of {transfer.dtype}"
        )
    if np.abs(transfer[0] - np.eye(16)[0]).max() > TRACE_TOL:
        raise ValueError(
            f"gate_transfer is not trace preserving: its first row is not e0 within {TRACE_TOL}"
        )
    return transfer.astype(float)


def run_interleaved_rb_cz(
    calibration_or_phase: Union[CzCalibration, float],
    n_sequences: int = 12,
    lengths: Sequence[int] = DEFAULT_LENGTHS_2Q,
    shots: int = 0,
    seed: int = 0,
    background: Optional[NoiseChannel] = None,
    gate_error: float = 0.0,
    gate_transfer: Optional[np.ndarray] = None,
) -> dict:
    """Interleaved two-qubit RB of a calibrated conditional-phase gate.

    The reference run uses random two-qubit Cliffords with the
    ``background`` channel's depolarizing per Clifford (its other fields
    must keep their defaults); the interleaved run inserts the
    calibrated gate (its conditional phase, plus a two-qubit
    depolarizing channel of average infidelity ``gate_error``) after
    every Clifford.  ``gate_transfer``, when given, replaces that model
    with any gate G meant to be the same conditional phase (e.g. a
    Lindblad-noised gate), as its (16, 16) Pauli transfer matrix
    R[a, b] = tr(P_a G(P_b)) / 4, site 0 the leading Pauli digit.  Both
    runs step on the lockstep engine: Clifford (c0, c1, mixer) is the
    sites' transfers of c0 and c1, then one gathered 16x16 matrix: the
    mixer, the background and, on body slots of the interleaved run, the
    gate.  F = 1 - (3/4)(1 - p_int / p_ref).  The inverting Clifford of
    each sequence assumes the ideal CZ, whatever the phase.
    """
    lengths = _checked_runs(n_sequences, lengths, shots)
    background = background or NoiseChannel()
    for name in ("granularity", "over_rotation", "zz_phase_per_clifford"):
        if getattr(background, name) != getattr(NoiseChannel(), name):
            raise ValueError(f"interleaved RB plays only the background depolarizing, not {name}")
    phase = (
        calibration_or_phase.conditional_phase()
        if hasattr(calibration_or_phase, "conditional_phase")
        else float(calibration_or_phase)
    )
    q_gate = gate_error / 0.75  # depolarizing probability for that infidelity
    if not 0.0 <= q_gate <= 1.0:
        raise ContractViolation("gate_error implies a probability outside [0, 1]")

    def depolarized(transfer, q):  # keeps tr(rho), scales every other Pauli by 1 - q
        return np.r_[1.0, np.full(15, 1.0 - q)][:, None] * transfer

    if gate_transfer is None:
        gate_transfer = depolarized(_transfers(cz_unitary(phase)[None])[0], q_gate)
    else:
        gate_transfer = _checked_gate_transfer(gate_transfer)
    mixers = depolarized(_transfers(_mixers()), background.depolarizing)
    # entries 0-19: mixer, then background; 20-39: then the gate
    register = np.concatenate([mixers, gate_transfer @ mixers]).transpose(0, 2, 1)
    site_transfers = np.array([_slot_transfers(NoiseChannel())] * 2)
    mats = two_qubit_clifford_matrices()

    def run(interleave: bool) -> np.ndarray:
        step = cz_unitary(math.pi) if interleave else np.eye(4)  # the ideal product
        rngs, job_lengths = _jobs((seed, 303), n_sequences, lengths)
        ids = np.zeros((len(rngs), lengths[-1] + 1), int)
        for j, (rng, m) in enumerate(zip(rngs, job_lengths)):
            ids[j, :m] = rng.integers(0, len(mats), m)
            u_total = np.eye(4)
            for u in step @ mats[ids[j, :m]]:
                u_total = u @ u_total
            ids[j, m] = two_qubit_inverse_index(u_total)
        body = np.arange(ids.shape[1]) < job_lengths[:, None]
        slots = np.stack([ids // 480, ids // 20 % 24], axis=1).astype(np.int8)
        mixer_ids = ids % 20 + 20 * (interleave & body)
        x = _lockstep(slots, job_lengths, site_transfers, register, mixer_ids)
        survival = x[:, [0, 3, 12, 15]].sum(axis=1) / 4.0  # <00|rho|00> = (II + IZ + ZI + ZZ) / 4
        return _sampled(survival, rngs, shots, n_sequences)

    reference = _fit_outcome("pair:ref", lengths, run(False), n_qubits=2)
    interleaved = _fit_outcome("pair:int", lengths, run(True), n_qubits=2)
    (p_ref, s_ref), (p_int, s_int) = (
        (arm.fit.params["p"], arm.fit.uncertainties.get("p", 0.0))
        for arm in (reference, interleaved)
    )
    ratio = p_int / p_ref
    sigma = 0.75 * abs(ratio) * math.sqrt(
        (s_int / p_int) ** 2 + (s_ref / p_ref) ** 2
    ) if p_int > 0 and p_ref > 0 else float("nan")
    return {"fidelity": 1.0 - 0.75 * (1.0 - ratio), "uncertainty": sigma,
            "reference": reference, "interleaved": interleaved}
