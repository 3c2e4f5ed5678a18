import math

import numpy as np
import pytest

from transmon_lattice.cliffords import (
    _mixers,
    clifford_table,
    compose_gates,
    cz_unitary,
    inverse_index,
    two_qubit_clifford_matrices,
    two_qubit_inverse_index,
)
from transmon_lattice.errors import ContractViolation
from transmon_lattice.rb import (
    DEFAULT_LENGTHS,
    NoiseChannel,
    _PAULIS,
    _sample_survival,
    _slot_transfers,
    _transfers,
    clg,
    epc_to_epg,
    run_interleaved_rb_cz,
    run_rb,
)
from transmon_lattice.tomography import _noisy_cz


def test_clg_zero_and_monotone():
    assert clg(0.0, 126.0, 124.0) == 0.0
    values = [clg(t, 126.0, 124.0) for t in (20.0, 60.0, 120.0, 300.0)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_clg_printed_formula_value():
    # direct evaluation; the published table's 1.111e-4 does not follow
    # from the formula with these inputs (documented discrepancy)
    assert clg(60.0, 126.0, 124.0) == pytest.approx(2.406e-4, rel=2e-3)


def test_clg_first_order_doubling():
    assert clg(10.0, 126.0, 124.0) * 2 == pytest.approx(
        clg(20.0, 126.0, 124.0), rel=1e-3
    )


def test_epc_to_epg_table_rows():
    assert epc_to_epg(1.212e-4) == pytest.approx(6.641e-5, abs=5e-9)
    assert epc_to_epg(2.531e-3) == pytest.approx(1.387e-3, abs=5e-7)
    assert epc_to_epg(0.0) == 0.0


def test_noise_channel_validation():
    with pytest.raises(ContractViolation):
        NoiseChannel(depolarizing=1.5)
    with pytest.raises(ValueError):
        NoiseChannel(depolarizing=0.1, granularity="pulse")


def test_noiseless_rb_epc_floor():
    out = run_rb(NoiseChannel(), ["Q1"], n_sequences=4,
                 lengths=(2, 100, 500, 1000), shots=0, seed=1)
    assert abs(out["Q1"].epc) < 1e-12


def test_noiseless_rb_with_shots_floor():
    out = run_rb(NoiseChannel(), ["Q1"], n_sequences=4,
                 lengths=(2, 100, 500, 1000), shots=10000, seed=1)
    assert abs(out["Q1"].epc) <= 1e-4


def test_injected_epc_recovered():
    out = run_rb(NoiseChannel.from_epc(1e-3), ["Q1"], n_sequences=16,
                 lengths=DEFAULT_LENGTHS, shots=1000, seed=2)
    assert out["Q1"].epc == pytest.approx(1e-3, rel=0.05)
    assert out["Q1"].epg == pytest.approx(1e-3 / 1.825, rel=0.05)


def test_rb_estimator_unbiased_over_seeds():
    recovered = []
    for seed in range(50):
        out = run_rb(NoiseChannel.from_epc(1e-3), ["Q1"], n_sequences=4,
                     lengths=(2, 50, 200, 500, 1000), shots=400, seed=seed)
        recovered.append(out["Q1"].epc)
    assert np.mean(recovered) == pytest.approx(1e-3, rel=0.02)


def test_rb_deterministic():
    kwargs = dict(n_sequences=4, lengths=(2, 100, 500), shots=500, seed=9)
    first = run_rb(NoiseChannel.from_epc(2e-3), ["Q1"], **kwargs)
    second = run_rb(NoiseChannel.from_epc(2e-3), ["Q1"], **kwargs)
    assert np.array_equal(first["Q1"].per_sequence, second["Q1"].per_sequence)


def test_rb_gate_granularity_scales_with_pulse_count():
    # per-gate injection: EPC ~ (mean pulses per Clifford) * EPG; the
    # per-sequence pulse-count variance leaves a few-percent wobble
    q = 2e-4
    multipliers = []
    for seed in (3, 13, 23):
        out = run_rb(NoiseChannel(depolarizing=q, granularity="gate"), ["Q1"],
                     n_sequences=16, lengths=(2, 100, 250, 500, 750, 1000),
                     shots=0, seed=seed)
        multipliers.append(out["Q1"].epc / (q / 2.0))
    assert np.mean(multipliers) == pytest.approx(45.0 / 24.0, rel=0.03)


def test_simultaneous_rb_matches_individual_without_zz():
    lengths = (2, 50, 200, 500)
    # (channel, sequences, relative tolerance): a coherent over-rotation
    # makes the survival depend on the sequence, so its EPG estimate
    # spreads more between sequence sets
    cases = (
        (NoiseChannel.from_epc(1e-3), 4, 0.05),
        (NoiseChannel(depolarizing=2e-3, over_rotation=0.03), 16, 0.15),
    )
    for chan, n_sequences, rel in cases:
        sim = run_rb(chan, ["A", "B", "C", "D"], n_sequences=n_sequences,
                     lengths=lengths, shots=0, seed=4, simultaneous=True)
        ind = run_rb(chan, ["A"], n_sequences=n_sequences, lengths=lengths,
                     shots=0, seed=4)
        for q in "ABCD":
            assert sim[q].epg == pytest.approx(ind["A"].epg, rel=rel)


def test_simultaneous_rb_zz_gap_grows_with_coupling():
    lengths = (2, 25, 75, 150)
    base = NoiseChannel.from_epc(1e-3)
    ind = run_rb(base, ["A"], n_sequences=4, lengths=lengths, shots=0, seed=5)
    epgs = []
    for phi in (0.0, 0.02, 0.04):
        channels = {
            q: NoiseChannel(
                depolarizing=2e-3,
                zz_phase_per_clifford={("A", "B"): phi, ("C", "D"): phi},
            )
            for q in "ABCD"
        }
        sim = run_rb(channels, ["A", "B", "C", "D"], n_sequences=4,
                     lengths=lengths, shots=0, seed=5, simultaneous=True)
        epgs.append(np.mean([sim[q].epg for q in "ABCD"]))
    assert epgs[0] == pytest.approx(ind["A"].epg, rel=0.05)
    assert epgs[1] > epgs[0]
    assert epgs[2] > epgs[1]


def test_interleaved_ideal_cz_unit_fidelity():
    result = run_interleaved_rb_cz(math.pi, n_sequences=6,
                                   lengths=(2, 4, 8, 16, 32), shots=0, seed=6)
    assert result["fidelity"] == pytest.approx(1.0, abs=1e-6)


def test_interleaved_injected_error_recovered():
    result = run_interleaved_rb_cz(
        math.pi, n_sequences=8, lengths=(2, 4, 8, 16, 32, 64), shots=0, seed=7,
        background=NoiseChannel(depolarizing=0.01), gate_error=0.05,
    )
    assert result["fidelity"] == pytest.approx(0.95, abs=0.02)


def test_interleaved_rb_reads_the_phase_of_a_calibration():
    from transmon_lattice.sizzle import CzCalibration, SizzleConfig

    calibration = CzCalibration(
        SizzleConfig(("Q2", "Q7"), 5028.5, 10.0), nu_tilde_khz=-50.0, tau_g=5.0,
        target_phase=math.pi, per_gate_phase=math.pi, residual=0.0,
    )
    kwargs = dict(n_sequences=2, lengths=(2, 4, 8), shots=0, seed=9)
    direct = run_interleaved_rb_cz(calibration.conditional_phase(), **kwargs)
    calibrated = run_interleaved_rb_cz(calibration, **kwargs)
    assert np.array_equal(
        calibrated["interleaved"].survivals, direct["interleaved"].survivals
    )


@pytest.mark.parametrize("phase", [3.0, 2.8])
def test_interleaved_rb_of_a_conditional_phase_short_of_pi(phase):
    # the sequences invert with the ideal CZ, so a phase error shows as
    # infidelity: F = (d |tr(CZ^dag U)|^2 / d^2 + 1) / (d + 1), d = 4
    result = run_interleaved_rb_cz(phase, seed=3)
    overlap = abs(np.trace(cz_unitary(math.pi).conj().T @ cz_unitary(phase)))
    direct = (4 * overlap**2 / 16 + 1) / 5
    assert result["fidelity"] < 1.0
    assert abs(result["fidelity"] - direct) <= result["uncertainty"]


_PAULI_PAIRS = np.array([np.kron(a, b) for a in _PAULIS for b in _PAULIS])


def _transfer_by_linear_inversion(channel):
    """(16, 16) Pauli transfer matrix R[a, b] = tr(P_a G(P_b)) / 4 of a
    two-qubit channel rho -> G(rho), from its outputs on the 16 product
    states of |0>, |1>, |+>, |+i>."""
    kets = [np.array([1, 0]), np.array([0, 1]), np.array([1, 1]), np.array([1, 1j])]
    singles = [np.outer(k, k.conj()) / np.vdot(k, k) for k in kets]
    inputs = [np.kron(a, b) for a in singles for b in singles]

    def pauli_columns(rhos):  # column k holds tr(rho_k P_a)
        return np.einsum("kij,aji->ak", np.array(rhos), _PAULI_PAIRS).real

    return pauli_columns([channel(rho) for rho in inputs]) @ np.linalg.inv(pauli_columns(inputs))


def test_interleaved_fidelity_decreases_with_gate_duration():
    kwargs = dict(n_sequences=6, lengths=(2, 4, 8, 16), shots=0, seed=8)
    # the ideal CZ as a transfer matrix plays as the built-in gate model does
    cz = cz_unitary(math.pi)
    ideal = run_interleaved_rb_cz(
        math.pi, gate_transfer=_transfer_by_linear_inversion(lambda rho: cz @ rho @ cz.conj().T),
        **kwargs,
    )
    np.testing.assert_allclose(ideal["interleaved"].per_sequence,
                               run_interleaved_rb_cz(math.pi, **kwargs)["interleaved"].per_sequence,
                               rtol=0, atol=1e-12)
    fidelities = []
    for tau in (0.5, 1.5, 3.0):
        def channel(rho, tau=tau):
            return _noisy_cz(rho, 0, 1, 2, tau,
                             {"relaxation": {"a": 1 / 71.0, "b": 1 / 71.0},
                              "dephasing": {"a": 1 / 80.0, "b": 1 / 80.0}},
                             ("a", "b"))
        result = run_interleaved_rb_cz(
            math.pi, gate_transfer=_transfer_by_linear_inversion(channel), **kwargs,
        )
        fidelities.append(result["fidelity"])
    assert fidelities[0] > fidelities[1] > fidelities[2]


def _depolarize_two(rho: np.ndarray, p: float) -> np.ndarray:
    return (1.0 - p) * rho + p * 0.25 * np.trace(rho) * np.eye(4)


def _density_matrix_arm(phase, interleave, n_sequences, lengths, shots, seed,
                        background, gate_error):
    """Per-sequence survivals of one interleaved-RB arm, stepping one 4x4
    density matrix per (sequence, length) through every Clifford, the
    background depolarizing and the gate."""
    gate, ideal = cz_unitary(phase), cz_unitary(math.pi)
    q_gate = gate_error / 0.75
    mats = two_qubit_clifford_matrices()

    def apply_gate(rho: np.ndarray) -> np.ndarray:
        rho = gate @ rho @ gate.conj().T
        if q_gate:
            rho = _depolarize_two(rho, q_gate)
        return rho

    per_sequence = np.empty((n_sequences, len(lengths)))
    for s in range(n_sequences):
        for li, m in enumerate(lengths):
            rng = np.random.default_rng(
                np.random.SeedSequence([seed, 303, s, li])
            )
            ids = rng.integers(0, len(mats), m)
            rho = np.zeros((4, 4), dtype=complex)
            rho[0, 0] = 1.0
            u_total = np.eye(4, dtype=complex)
            for idx in ids:
                u = mats[idx]
                rho = u @ rho @ u.conj().T
                u_total = u @ u_total
                if background.depolarizing:
                    rho = _depolarize_two(rho, background.depolarizing)
                if interleave:
                    rho = apply_gate(rho)
                    u_total = ideal @ u_total
            inv = mats[two_qubit_inverse_index(u_total)]
            rho = inv @ rho @ inv.conj().T
            if background.depolarizing:
                rho = _depolarize_two(rho, background.depolarizing)
            survival = float(np.real(rho[0, 0]))
            per_sequence[s, li] = _sample_survival(survival, shots, rng)
    return per_sequence


@pytest.mark.parametrize("phase", [math.pi, 3.0, 2.8])
@pytest.mark.parametrize("depolarizing, gate_error", [(0.0, 0.0), (0.01, 0.03)])
def test_interleaved_rb_matches_density_matrix_reference(phase, depolarizing, gate_error):
    kwargs = dict(n_sequences=3, lengths=(0, 2, 5, 9), seed=11,
                  background=NoiseChannel(depolarizing=depolarizing), gate_error=gate_error)
    for shots in (0, 100):
        result = run_interleaved_rb_cz(phase, shots=shots, **kwargs)
        for arm, interleave in (("reference", False), ("interleaved", True)):
            expected = _density_matrix_arm(phase, interleave, shots=shots, **kwargs)
            if shots:
                assert np.array_equal(result[arm].per_sequence, expected)
            else:
                np.testing.assert_allclose(result[arm].per_sequence, expected,
                                           rtol=0, atol=1e-12)


def test_two_qubit_cliffords_factor_into_site_and_mixer_transfers():
    # Clifford k = (c0, c1, mixer) plays c0 and c1 on the sites, then the
    # mixer: its transfer matrix is R(mixer) (R(c0) (x) R(c1))
    sites = _slot_transfers(NoiseChannel())[24]
    mixers = _transfers(_mixers())
    mats = two_qubit_clifford_matrices()
    for start in range(0, len(mats), 1440):
        k = np.arange(start, start + 1440)
        u = mats[k]
        conjugated = u[:, None] @ _PAULI_PAIRS @ u.conj().transpose(0, 2, 1)[:, None]
        direct = np.einsum("aji,cbij->cab", _PAULI_PAIRS, conjugated).real / 4.0
        pair = np.einsum("cab,cde->cadbe", sites[k // 480], sites[k // 20 % 24])
        factored = mixers[k % 20] @ pair.reshape(-1, 16, 16)
        assert np.max(np.abs(factored - direct)) < 1e-12


@pytest.mark.parametrize("run", ["run_rb", "run_interleaved_rb_cz"])
@pytest.mark.parametrize(
    "overrides, message",
    [
        (dict(shots=-5), "shots"),
        (dict(n_sequences=0), "n_sequences"),
        (dict(lengths=(8, 4, 2)), "ascending"),
        (dict(lengths=(2, 2, 4)), "ascending"),
        (dict(lengths=(2, 4.5, 8)), "integers"),
        (dict(lengths=()), "non-empty"),
        (dict(lengths=(-1, 2, 4)), "non-negative"),
    ],
)
def test_rb_runs_reject_invalid_inputs(run, overrides, message):
    kwargs = {**dict(n_sequences=2, lengths=(2, 4, 8), shots=0, seed=1), **overrides}
    with pytest.raises(ValueError, match=message):
        if run == "run_rb":
            run_rb(NoiseChannel(), ["Q1"], **kwargs)
        else:
            run_interleaved_rb_cz(math.pi, **kwargs)


@pytest.mark.parametrize(
    "background, field",
    [
        (NoiseChannel(over_rotation=0.2), "over_rotation"),
        (NoiseChannel(depolarizing=0.01, granularity="gate"), "granularity"),
        (NoiseChannel(zz_phase_per_clifford={("Q1", "Q2"): 0.1}), "zz_phase_per_clifford"),
    ],
)
def test_interleaved_rb_rejects_background_it_cannot_play(background, field):
    with pytest.raises(ValueError, match=field):
        run_interleaved_rb_cz(math.pi, n_sequences=2, lengths=(2, 4, 8), background=background)


def test_device_derived_channel(device):
    chan = NoiseChannel.from_device(device, "Q1")
    assert chan.granularity == "gate"
    assert chan.depolarizing == pytest.approx(2 * clg(60.0, 126.0, 124.0))
    assert any("Q1" in pair for pair in chan.zz_phase_per_clifford)


def test_sequence_gate_list_replays_to_identity():
    from transmon_lattice.cliffords import compose_gates
    from transmon_lattice.rb import sequence_gate_list

    gates = sequence_gate_list(seed=2, qubit_position=0, sequence=3,
                               length_position=2, length=50)
    u = compose_gates(gates)
    assert abs(abs(np.trace(u)) - 2.0) < 1e-9
    kinds = {kind for kind, _ in gates}
    assert kinds <= {"i", "x", "vz"}


def test_rb_on_device_noise_is_coherence_limited(device):
    out = run_rb(device, ["Q1"], n_sequences=6, lengths=(2, 100, 400, 1000),
                 shots=0, seed=12)
    # per-gate depolarizing at the coherence-limited rate, ~1.875
    # pulses per Clifford, plus a small always-on ZZ contribution
    floor = clg(60.0, 126.0, 124.0) * 45.0 / 24.0
    assert out["Q1"].epc >= 0.9 * floor
    assert out["Q1"].epc <= 3.0 * floor


# per_sequence of run_rb(device, ["Q1", "Q2", "Q3"], n_sequences=2,
# lengths=(2, 25, 50), seed=3, simultaneous=True), recorded from the
# one-matrix-at-a-time stepping that the lockstep engine replaced
FROZEN_SIMULTANEOUS = {
    "Q1": [[0.9983119031541627, 0.9873148700752596, 0.9761629794246599],
           [0.998318233746207, 0.9882910964292293, 0.9782213426102797]],
    "Q2": [[0.9982631711752961, 0.9829368565080462, 0.9644380851568495],
           [0.9972482587022522, 0.9822868428136393, 0.9682210905597973]],
    "Q3": [[0.9981915575550062, 0.9843701984718592, 0.9643959346459424],
           [0.9985620469039891, 0.9815990790507796, 0.9681638829339317]],
}


def test_rb_streams_frozen(device, monkeypatch):
    from transmon_lattice import rb
    from transmon_lattice.rb import sequence_gate_list

    sim = run_rb(device, ["Q1", "Q2", "Q3"], n_sequences=2, lengths=(2, 25, 50),
                 seed=3, simultaneous=True)
    for q, expected in FROZEN_SIMULTANEOUS.items():
        np.testing.assert_allclose(sim[q].per_sequence, expected, rtol=0, atol=1e-12)

    consumed = []
    engine = rb._lockstep

    def recording_lockstep(slots, lengths, *args):
        consumed.append((slots.copy(), lengths.copy()))
        return engine(slots, lengths, *args)

    monkeypatch.setattr(rb, "_lockstep", recording_lockstep)
    lengths = (2, 30, 100)
    ind = run_rb(NoiseChannel(depolarizing=2e-3, over_rotation=0.03), ["Q1"],
                 n_sequences=3, lengths=lengths, shots=200, seed=9)
    assert ind["Q1"].per_sequence.tolist() == [
        [0.995, 0.95, 0.73], [0.995, 0.985, 0.775], [1.0, 0.885, 0.71],
    ]
    (slots, played), = consumed
    table = clifford_table()
    for s in range(3):
        for li, m in enumerate(lengths):
            j = li * 3 + s
            assert played[j] == m
            gates = [g for idx in slots[j, 0, : m + 1] for g in table[idx].gates]
            assert gates == sequence_gate_list(9, 0, s, li, m)


def _played_unitary(element, channel):
    return compose_gates([
        (kind, angle * (1.0 + channel.over_rotation) if kind == "x" else angle)
        for kind, angle in element.gates
    ])


def _reference_ground(ids, channels, zz_phases):
    """Ground population of each site after the Clifford columns of ids
    (n_sites, m) and their inverse, stepping one density matrix with
    np.kron and an explicit partial trace."""
    table = clifford_table()
    n, m = ids.shape
    dim = 2**n
    totals = [np.eye(2, dtype=complex) for _ in range(n)]
    for k in range(n):
        for idx in ids[k]:
            totals[k] = table[idx].unitary @ totals[k]
    inverse = np.array([[inverse_index(u)] for u in totals])
    bits = [[(basis >> (n - 1 - k)) & 1 for k in range(n)] for basis in range(dim)]
    zz = np.array([
        np.prod([np.exp(-1j * phi) for (i, j), phi in zz_phases.items()
                 if row[i] and row[j]])
        for row in bits
    ])
    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = 1.0
    for column in np.hstack([ids, inverse]).T:
        u = np.ones((1, 1))
        for idx, channel in zip(column, channels):
            u = np.kron(u, _played_unitary(table[idx], channel))
        rho = u @ rho @ u.conj().T
        rho = zz[:, None] * rho * zz.conj()[None, :]
        for k, (idx, channel) in enumerate(zip(column, channels)):
            pulses = 1 if channel.granularity == "clifford" else table[idx].physical_gate_count
            shape = (2**k, 2, 2 ** (n - 1 - k))
            for _ in range(pulses):
                traced = np.einsum("aibcid->abcd", rho.reshape(shape + shape))
                mixed = np.einsum("abcd,ij->aibcjd", traced, np.eye(2) / 2.0)
                p = channel.depolarizing
                rho = (1.0 - p) * rho + p * mixed.reshape(dim, dim)
    probs = np.real(np.diag(rho))
    return [sum(probs[b] for b in range(dim) if not bits[b][k]) for k in range(n)]


def test_lockstep_engine_matches_single_matrix_reference():
    channels = {
        "A": NoiseChannel(depolarizing=3e-3, over_rotation=0.04,
                          zz_phase_per_clifford={("A", "B"): 0.05}),
        "B": NoiseChannel(depolarizing=1e-3, granularity="gate",
                          zz_phase_per_clifford={("B", "C"): -0.03}),
        "C": NoiseChannel(depolarizing=5e-3, over_rotation=-0.02),
    }
    lengths = (0, 3, 17)
    seed = 21
    sim = run_rb(channels, ["A", "B", "C"], n_sequences=2, lengths=lengths,
                 seed=seed, simultaneous=True)
    phases = {(0, 1): 0.05, (1, 2): -0.03}
    for s in range(2):
        for li, m in enumerate(lengths):
            rng = np.random.default_rng(np.random.SeedSequence([seed, 202, s, li]))
            expected = _reference_ground(rng.integers(0, 24, (3, m)),
                                         list(channels.values()), phases)
            for k, q in enumerate("ABC"):
                assert sim[q].per_sequence[s, li] == pytest.approx(expected[k], abs=1e-12)
    ind = run_rb(channels, ["B", "A"], n_sequences=2, lengths=lengths, seed=seed)
    for qi, q in enumerate("BA"):
        for s in range(2):
            for li, m in enumerate(lengths):
                rng = np.random.default_rng(np.random.SeedSequence([seed, 101, qi, s, li]))
                (expected,) = _reference_ground(rng.integers(0, 24, (1, m)), [channels[q]], {})
                assert ind[q].per_sequence[s, li] == pytest.approx(expected, abs=1e-12)
