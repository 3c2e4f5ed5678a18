"""Property tests of the Clifford codes: over ragged random sequences of
one- and two-qubit Cliffords, with and without a CZ after each element,
composing codes gives the code of the unitary product, the inverses
equal a trace search over every element's unitary, and each inverse
undoes its sequence."""
import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from test_cliffords import trace_inverse_index, two_qubit_unitaries
from transmon_lattice.cliffords import (
    TWO_QUBIT_GROUP_SIZE,
    _codes,
    _compose,
    _group,
    clifford_identity,
    clifford_unitaries,
    cz_unitary,
    sequence_inverses,
    two_qubit_inverses,
)

# derandomized: the examples are the same on every run
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)


@st.composite
def sequences(draw):
    """(n_sites, ragged id rows, whether a CZ follows each element)."""
    n_sites = draw(st.sampled_from([1, 2]))
    size = 24 if n_sites == 1 else TWO_QUBIT_GROUP_SIZE
    lengths = draw(st.lists(st.integers(0, 64), min_size=1, max_size=4))
    rows = [draw(st.lists(st.integers(0, size - 1), min_size=m, max_size=m)) for m in lengths]
    return n_sites, rows, n_sites == 2 and draw(st.booleans())


@PROPERTY
@given(sequences())
def test_codes_compose_and_invert_like_the_unitaries(case):
    n_sites, rows, with_cz = case
    mats = clifford_unitaries(1.0) if n_sites == 1 else two_qubit_unitaries()
    codes, cz = _group(n_sites)[0], _codes(cz_unitary()[None])[0]
    lengths = np.array([len(row) for row in rows])
    ids = np.zeros((len(rows), max(lengths)), int)
    for j, row in enumerate(rows):
        ids[j, : len(row)] = row
    if n_sites == 1:
        # one-qubit rows are padded with the identity
        ids[np.arange(ids.shape[1]) >= lengths[:, None]] = clifford_identity()
        inverses = sequence_inverses(ids)
    else:
        inverses = two_qubit_inverses(ids, lengths, cz_unitary() if with_cz else None)
    for row, inverse in zip(rows, inverses):
        played = [(mats[idx], codes[idx]) for idx in row]
        if with_cz:
            played = [step for element in played for step in (element, (cz_unitary(), cz))]
        u = np.eye(2**n_sites, dtype=complex)
        composed = np.arange(4**n_sites, dtype=np.uint8)
        for unitary, code in played:
            u, composed = unitary @ u, _compose(composed, code)
        assert np.array_equal(composed, _codes(u[None])[0])
        assert inverse == trace_inverse_index(u, mats)
        assert abs(abs(np.trace(mats[inverse] @ u)) - 2**n_sites) < 1e-9
