"""Property tests of the evolution engine: for random coupled pairs
driven by a detuned tone, stepped in the tone's frame (Magnus slices on
its ramps, one diagonalization per flat segment), closed evolution keeps
unit norm and Lindblad evolution at random rates maps density matrices
to density matrices."""
import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from transmon_lattice.device import CouplingGraph, DeviceSpec, TransmonParams
from transmon_lattice.dynamics import DriveTone, NoiseSpec, evolve, evolve_open
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
    duration=st.floats(0.05, 0.2),
    relaxation=st.tuples(RATES, RATES),
    dephasing=st.tuples(RATES, RATES),
    rank=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_magnus_slices_keep_norm_and_map_states_to_states(
    delta, j, amplitude, detuning, rise, duration, relaxation, dephasing, rank, seed
):
    qa = TransmonParams.from_frequency("A", 4800.0, -200.0, 50.0, 40.0, 60.0)
    qb = TransmonParams.from_frequency("B", 4800.0 + delta, -200.0, 50.0, 40.0, 60.0)
    dev = DeviceSpec(1, 2, (qa, qb), couplings=CouplingGraph({("A", "B"): j}))
    h0 = assemble_hamiltonian(dev, SubsetSelection(("A", "B"), 2))
    tone = DriveTone(
        target="A", amplitude=amplitude,
        envelope="blackman" if rise else "rectangular", rise=rise,
        start=0.05, duration=duration,
    )
    t = np.linspace(0.0, duration + 0.1, 4)
    frame = 4800.0 + detuning  # the tone's frequency, detuned from A
    rng = np.random.default_rng(seed)

    psi0 = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi0 /= np.linalg.norm(psi0)
    states = evolve(h0, [tone], psi0, t, frame=frame)
    assert np.max(np.abs(np.linalg.norm(states, axis=1) - 1.0)) <= 1e-12

    noise = NoiseSpec(
        relaxation=dict(zip("AB", relaxation)), dephasing=dict(zip("AB", dephasing))
    )
    vecs = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
    rho0 = vecs @ vecs.conj().T
    rho0 /= np.trace(rho0)
    for out in evolve_open(h0, [tone], rho0, noise, t, frame=frame):
        assert np.max(np.abs(out - out.conj().T)) <= 1e-10
        assert abs(np.trace(out) - 1.0) <= 1e-10
        assert np.linalg.eigvalsh(0.5 * (out + out.conj().T)).min() >= -1e-10
