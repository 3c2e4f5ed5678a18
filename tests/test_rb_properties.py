"""Property tests of the randomized-benchmarking engine: every slot
transfer matrix is a CPTP map for any ids, depolarizing probabilities,
over-rotations and ZZ phases, the lockstep engine agrees with a
one-density-matrix reference stepper, and simultaneous RB is a function
of its seed."""
from functools import reduce

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from test_rb import _reference_ground
from transmon_lattice.rb import (
    NoiseChannel,
    _PAULIS,
    _closed_sequences,
    _lockstep,
    _site_ground,
    _slot_depolarizing,
    _slot_step,
    _slot_transfers,
    _zz_transfer,
    run_rb,
)

# derandomized: the examples are the same on every run
PROPERTY = settings(max_examples=80, deadline=None, derandomize=True)


def _pauli_strings(n_sites: int) -> np.ndarray:
    """(4**n, 2**n, 2**n) Pauli strings, site 0 the most significant digit."""
    return np.array([
        reduce(np.kron, [_PAULIS[a] for a in digits], np.eye(1))
        for digits in np.ndindex(*(4,) * n_sites)
    ])


def _choi(transfer: np.ndarray) -> np.ndarray:
    """Choi matrices sum_ab R_ab P_b^T (x) P_a / 2 of single-site
    transfer matrices R (..., 4, 4)."""
    choi = 0.5 * np.einsum("...ab,bji,akl->...ikjl", transfer, _PAULIS, _PAULIS)
    return choi.reshape(transfer.shape[:-2] + (4, 4))


@st.composite
def channel_params(draw):
    return dict(
        depolarizing=draw(st.floats(0.0, 1.0)),
        granularity=draw(st.sampled_from(["clifford", "gate"])),
        over_rotation=draw(st.floats(-0.2, 0.2)),
    )


@st.composite
def zz_phases(draw, n_sites):
    return {
        (i, j): draw(st.floats(-np.pi, np.pi))
        for i in range(n_sites)
        for j in range(i + 1, n_sites)
        if draw(st.booleans())
    }


@st.composite
def slot_inputs(draw):
    n_sites = draw(st.integers(1, 3))
    batch = draw(st.integers(1, 4))
    cells = batch * n_sites
    previous = draw(st.lists(st.integers(0, 24), min_size=cells, max_size=cells))
    ids = draw(st.lists(st.integers(0, 23), min_size=cells, max_size=cells))
    channels = [NoiseChannel(**draw(channel_params())) for _ in range(n_sites)]
    state_seed = draw(st.integers(0, 2**32 - 1))
    return (
        np.array(previous).reshape(batch, n_sites),
        np.array(ids).reshape(batch, n_sites),
        channels,
        draw(zz_phases(n_sites)),
        state_seed,
    )


def _random_states(batch: int, dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(batch, dim, dim)) + 1j * rng.normal(size=(batch, dim, dim))
    rho = a @ a.conj().transpose(0, 2, 1)
    return rho / np.trace(rho, axis1=1, axis2=2)[:, None, None]


@PROPERTY
@given(slot_inputs())
def test_slot_transfer_is_cptp(inputs):
    previous, ids, channels, phases, state_seed = inputs
    batch, n_sites = ids.shape
    tables = np.array([_slot_transfers(c) for c in channels])
    # every table entry: completely positive, and trace preserving (first row e0)
    assert np.min(np.linalg.eigvalsh(_choi(tables))) > -1e-12
    assert np.max(np.abs(tables[..., 0, :] - np.eye(4)[0])) < 1e-12

    strings = _pauli_strings(n_sites)
    dim = 2**n_sites
    zz = _zz_transfer(phases, n_sites)
    if zz is not None:
        # the transposed transfer matrix tr(P_a V P_b V^dagger) / d, orthogonal
        bits = (np.arange(dim)[:, None] >> np.arange(n_sites - 1, -1, -1)) & 1
        v = np.exp(-1j * sum(phi * bits[:, i] * bits[:, j] for (i, j), phi in phases.items()))
        conjugated = v[:, None] * strings * v.conj()[None, :]
        direct = np.einsum("aij,bji->ab", strings, conjugated).real / dim
        assert np.max(np.abs(zz.T - direct)) < 1e-12
        assert np.max(np.abs(zz @ zz.T - np.eye(4**n_sites))) < 1e-12

    # one slot on random states keeps a unit-trace, positive density matrix
    rho = _random_states(batch, dim, state_seed)
    x = np.einsum("bij,aji->ba", rho, strings).real
    step = tables[np.arange(n_sites), previous, ids]
    out = np.einsum("ba,aij->bij", _slot_step(x, step, zz), strings) / dim
    assert out.shape == rho.shape
    assert np.max(np.abs(np.trace(out, axis1=1, axis2=2) - 1.0)) < 1e-12
    assert np.max(np.abs(out - out.conj().transpose(0, 2, 1))) < 1e-12
    assert np.min(np.linalg.eigvalsh(out)) > -1e-12


@st.composite
def engine_inputs(draw):
    n_sites = draw(st.integers(1, 3))
    channels = [NoiseChannel(**draw(channel_params())) for _ in range(n_sites)]
    lengths = sorted(draw(st.lists(st.integers(0, 20), min_size=1, max_size=3)))
    return channels, draw(zz_phases(n_sites)), lengths, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(engine_inputs())
def test_lockstep_matches_reference_stepper(inputs):
    channels, phases, lengths, seed = inputs
    n_sites = len(channels)
    rngs = [np.random.default_rng([seed, j]) for j in range(len(lengths))]
    lengths = np.array(lengths)
    slots = _closed_sequences(rngs, lengths, n_sites)
    x = _lockstep(
        slots,
        lengths,
        np.array([_slot_transfers(c) for c in channels]),
        _zz_transfer(phases, n_sites),
    )
    ground = _site_ground(
        x, slots, lengths, np.array([_slot_depolarizing(c) for c in channels])
    )
    for j, m in enumerate(lengths):
        expected = _reference_ground(slots[j, :, :m], channels, phases)
        assert np.max(np.abs(ground[j] - expected)) < 1e-12


@settings(max_examples=15, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), shots=st.sampled_from([0, 100]))
def test_simultaneous_rb_is_seed_deterministic(seed, shots):
    channel = NoiseChannel(
        depolarizing=2e-3, over_rotation=0.02, zz_phase_per_clifford={("A", "B"): 0.03}
    )
    kwargs = dict(n_sequences=2, lengths=(0, 4, 20), shots=shots, seed=seed,
                  simultaneous=True)
    first = run_rb(channel, ["A", "B", "C"], **kwargs)
    second = run_rb(channel, ["A", "B", "C"], **kwargs)
    for q in "ABC":
        assert np.array_equal(first[q].per_sequence, second[q].per_sequence)
