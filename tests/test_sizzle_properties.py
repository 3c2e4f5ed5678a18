"""Property test of the siZZle echo maps: every echo unitary
E(w) = PiPi U(w/2) PiPi U(w/2) is unitary for any off-pole drive
frequency, amplitude, relative phase and Blackman rise."""
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from transmon_lattice.fileio import load_bundled_device
from transmon_lattice.operators import SubsetSelection, assemble_hamiltonian
from transmon_lattice.sizzle import SizzleConfig, _echo_maps, landscape_flags

PAIR = ("Q2", "Q7")
DEVICE = load_bundled_device()
H0 = assemble_hamiltonian(DEVICE, SubsetSelection(PAIR, 3))

# derandomized: the examples are the same on every run
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)


@PROPERTY
@given(
    freq=st.floats(4500.0, 5400.0),
    amplitude=st.floats(0.0, 30.0),
    ratio=st.floats(0.5, 2.0),
    dphi=st.floats(-math.pi, math.pi),
    rise=st.one_of(st.just(0.0), st.floats(5.0, 80.0)),
    extra=st.floats(0.0, 2.0),
)
def test_echo_maps_are_unitary(freq, amplitude, ratio, dphi, rise, extra):
    assume(not landscape_flags(DEVICE, PAIR, freq))
    config = SizzleConfig(
        pair=PAIR, freq=freq, omega_target=amplitude, ratio=ratio, dphi=dphi, rise=rise
    )
    shortest = 4.0 * rise * 1e-3
    widths = [0.0, shortest, shortest + extra] if rise else [0.0, extra, 3.0]
    maps = _echo_maps(H0, DEVICE, [config], widths)[0]
    eye = np.eye(H0.dim)
    for echo in maps:
        assert np.max(np.abs(echo.conj().T @ echo - eye)) <= 1e-12
