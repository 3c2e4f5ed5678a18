"""Property test of Hamiltonian assembly: every subset Hamiltonian is
exactly Hermitian, whatever the sites, truncation, long-range residuals
and overridden couplings."""
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from transmon_lattice.fileio import load_bundled_device
from transmon_lattice.operators import SubsetSelection, assemble_hamiltonian

DEVICE = load_bundled_device()
LABELS = DEVICE.labels()


# derandomized: the examples are the same on every run
@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    qubits=st.lists(st.sampled_from(LABELS), min_size=1, max_size=4, unique=True),
    levels=st.integers(2, 4),
    include_long_range=st.booleans(),
    data=st.data(),
)
def test_assembled_hamiltonian_is_exactly_hermitian(qubits, levels, include_long_range, data):
    assume(levels ** len(qubits) <= 256)
    pairs = [(a, b) for a in qubits for b in qubits if a != b]
    overrides = data.draw(
        st.dictionaries(st.sampled_from(pairs), st.floats(-2.0, 2.0), max_size=3)
        if pairs else st.just({})
    )
    h = assemble_hamiltonian(
        DEVICE,
        SubsetSelection(tuple(qubits), levels),
        include_long_range=include_long_range,
        j_overrides=overrides,
    )
    assert h.dim == levels ** len(qubits)
    assert h.hermiticity_defect() == 0.0
