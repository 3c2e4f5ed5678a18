"""Property tests of the Clifford codes: over ragged random sequences of
one- and two-qubit Cliffords, with and without a CZ after each element,
composing codes gives the code of the unitary product, the inverses
equal a trace search over every element's unitary, and each inverse
undoes its sequence.  The transfer matrices built from real rotations
equal those of the complex unitaries at any over-rotation and
conditional phase, and the group tables are those the unitaries gave."""
import hashlib
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from test_cliffords import trace_inverse_index, two_qubit_unitaries
from transmon_lattice.cliffords import (
    TWO_QUBIT_GROUP_SIZE,
    _codes,
    _compose,
    _cz_code,
    _group,
    _mixer_codes,
    clifford_identity,
    clifford_inverses,
    clifford_products,
    clifford_transfers,
    phase_transfer,
    sequence_inverses,
    two_qubit_inverses,
)
from unitaries import _transfers, clifford_unitaries, cz_unitary

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
    codes, cz = _group(n_sites)[0], _codes(_transfers(cz_unitary()[None]))[0]
    assert np.array_equal(cz, _cz_code())
    lengths = np.array([len(row) for row in rows])
    ids = np.zeros((len(rows), max(lengths)), int)
    for j, row in enumerate(rows):
        ids[j, : len(row)] = row
    if n_sites == 1:
        # one-qubit rows are padded with the identity
        ids[np.arange(ids.shape[1]) >= lengths[:, None]] = clifford_identity()
        inverses = sequence_inverses(ids)
    else:
        inverses = two_qubit_inverses(ids, lengths, cz if with_cz else None)
    for row, inverse in zip(rows, inverses):
        played = [(mats[idx], codes[idx]) for idx in row]
        if with_cz:
            played = [step for element in played for step in (element, (cz_unitary(), cz))]
        u = np.eye(2**n_sites, dtype=complex)
        composed = np.arange(4**n_sites, dtype=np.uint8)
        for unitary, code in played:
            u, composed = unitary @ u, _compose(composed, code)
        assert np.array_equal(composed, _codes(_transfers(u[None]))[0])
        assert inverse == trace_inverse_index(u, mats)
        assert abs(abs(np.trace(mats[inverse] @ u)) - 2**n_sites) < 1e-9


@PROPERTY
@given(st.floats(-0.5, 0.5))
def test_composed_transfers_match_the_unitaries_at_any_over_rotation(over_rotation):
    reference = _transfers(clifford_unitaries(1.0 + over_rotation))
    assert np.max(np.abs(clifford_transfers(1.0 + over_rotation) - reference)) < 1e-12


@PROPERTY
@given(st.floats(-2.0 * math.pi, 2.0 * math.pi))
def test_conditional_phase_transfer_matches_the_unitary(phase):
    # the interleaved-RB gate: the transfer matrix of diag(1, 1, 1, e^(i phase))
    reference = _transfers(cz_unitary(phase)[None])[0]
    assert np.max(np.abs(phase_transfer({(0, 1): phase}, 2) - reference)) < 1e-12


# sha256 of the tables as the complex-unitary construction built them
TABLE_DIGESTS = {
    "one_qubit_codes": "9abd73ec5ad646ddd394afc528b081b83bbb88783b6b5d0f16e05bc40e261035",
    "two_qubit_codes": "2fa8aaddf86cf1b284a300a1e70a5d5901ec9d1ce636a2ceda9dbf283334125f",
    "mixer_codes": "bc4ea4ac1c4859c0e45e5eee0f3660c67034f49dd03032f3de4ea66cb157db85",
    "products": "e43cb4ae9cb3343a72db839b43cdbcf17e8526cce56b635d091a063d90b2abbb",
    "inverses": "4832d3f9bb9c9558281e89e3ae8c3386d13e1f206bad9f5d17adda61441d81a4",
}


def test_group_tables_are_those_of_the_unitaries():
    tables = {
        "one_qubit_codes": _group(1)[0],
        "two_qubit_codes": _group(2)[0],
        "mixer_codes": _mixer_codes(),
        "products": clifford_products(),
        "inverses": clifford_inverses(),
    }
    assert np.array_equal(_group(1)[0], _codes(_transfers(clifford_unitaries(1.0))))
    digests = {name: hashlib.sha256(table.tobytes()).hexdigest() for name, table in tables.items()}
    assert digests == TABLE_DIGESTS
