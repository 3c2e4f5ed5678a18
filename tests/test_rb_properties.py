"""Property tests of the randomized-benchmarking engine: one Clifford
slot is a CPTP map for any ids, depolarizing probabilities and ZZ
phases, and simultaneous RB is a function of its seed."""
import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from transmon_lattice.rb import (
    NoiseChannel,
    _engine_step,
    _slot_unitaries,
    _zz_phase_factor,
    run_rb,
)

# derandomized: the examples are the same on every run
PROPERTY = settings(max_examples=80, deadline=None, derandomize=True)


@st.composite
def slot_inputs(draw):
    n_sites = draw(st.integers(1, 3))
    batch = draw(st.integers(1, 4))
    cells = batch * n_sites
    ids = draw(st.lists(st.integers(0, 23), min_size=cells, max_size=cells))
    probabilities = draw(st.lists(st.floats(0.0, 1.0), min_size=cells, max_size=cells))
    phases = {
        (i, j): draw(st.floats(-np.pi, np.pi))
        for i in range(n_sites)
        for j in range(i + 1, n_sites)
        if draw(st.booleans())
    }
    over_rotation = draw(st.floats(-0.2, 0.2))
    state_seed = draw(st.integers(0, 2**32 - 1))
    return (
        np.array(ids).reshape(batch, n_sites),
        np.array(probabilities).reshape(batch, n_sites),
        phases,
        over_rotation,
        state_seed,
    )


def _random_states(batch: int, dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(batch, dim, dim)) + 1j * rng.normal(size=(batch, dim, dim))
    rho = a @ a.conj().transpose(0, 2, 1)
    return rho / np.trace(rho, axis1=1, axis2=2)[:, None, None]


@PROPERTY
@given(slot_inputs())
def test_engine_step_is_cptp(inputs):
    ids, probabilities, phases, over_rotation, state_seed = inputs
    batch, n_sites = ids.shape
    rho = _random_states(batch, 2**n_sites, state_seed)
    unitaries = _slot_unitaries(NoiseChannel(over_rotation=over_rotation))[ids]
    out = _engine_step(rho, unitaries, _zz_phase_factor(phases, n_sites), probabilities)
    assert out.shape == rho.shape
    assert np.max(np.abs(np.trace(out, axis1=1, axis2=2) - 1.0)) < 1e-12
    assert np.max(np.abs(out - out.conj().transpose(0, 2, 1))) < 1e-12
    assert np.min(np.linalg.eigvalsh(out)) > -1e-12


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
