"""Property tests of the evolution engine: for random coupled pairs
driven by a detuned tone, the echo's half-pulses (Magnus slices on their
ramps, one diagonalization of the flat top) keep unit norm in closed
evolution and map density matrices to density matrices under Lindblad
terms at random rates."""
import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from transmon_lattice.device import CouplingGraph, DeviceSpec, TransmonParams
from transmon_lattice.dynamics import NoiseSpec, echo_sequence
from transmon_lattice.operators import SubsetSelection, assemble_hamiltonian

# derandomized: the examples are the same on every run
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)

RATES = st.floats(0.0, 5.0)


@PROPERTY
@given(
    delta=st.floats(-5.0, 5.0),
    j=st.floats(0.0, 1.0),
    amplitude=st.floats(0.0, 3.0),
    detuning=st.one_of(st.floats(-8.0, -1.0), st.floats(1.0, 8.0)),
    rise=st.one_of(st.just(0.0), st.floats(5.0, 25.0)),
    extra=st.floats(0.0, 0.1),
    relaxation=st.tuples(RATES, RATES),
    dephasing=st.tuples(RATES, RATES),
    rank=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_magnus_slices_keep_norm_and_map_states_to_states(
    delta, j, amplitude, detuning, rise, extra, relaxation, dephasing, rank, seed
):
    qa = TransmonParams.from_frequency("A", 4800.0, -200.0, 50.0, 40.0, 60.0)
    qb = TransmonParams.from_frequency("B", 4800.0 + delta, -200.0, 50.0, 40.0, 60.0)
    dev = DeviceSpec(1, 2, (qa, qb), couplings=CouplingGraph({("A", "B"): j}))
    h0 = assemble_hamiltonian(dev, SubsetSelection(("A", "B"), 2))
    # the tone on A at the frame frequency, detuned from A; with the
    # identity as the pulse, the echo is two half-pulses back to back
    frame = 4800.0 + detuning
    shortest = max(4.0 * rise * 1e-3, 0.05)
    widths = [shortest, shortest + extra, 0.3]
    args = ([frame], [[amplitude, 0.0]], [[0.0, 0.0]], rise, np.eye(4))
    rng = np.random.default_rng(seed)

    psi0 = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi0 /= np.linalg.norm(psi0)
    states = echo_sequence(h0, *args)(psi0[None], widths)[0, :, 0]
    assert np.max(np.abs(np.linalg.norm(states, axis=1) - 1.0)) <= 1e-12

    noise = NoiseSpec(
        relaxation=dict(zip("AB", relaxation)), dephasing=dict(zip("AB", dephasing))
    )
    vecs = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
    rho0 = vecs @ vecs.conj().T
    rho0 /= np.trace(rho0)
    for out in echo_sequence(h0, *args, noise)(rho0[None], widths)[0, :, 0]:
        assert np.max(np.abs(out - out.conj().T)) <= 1e-10
        assert abs(np.trace(out) - 1.0) <= 1e-10
        assert np.linalg.eigvalsh(0.5 * (out + out.conj().T)).min() >= -1e-10
