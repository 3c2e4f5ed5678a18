"""Property tests of the siZZle echo: every echo unitary
E(w) = PiPi U(w/2) PiPi U(w/2) is unitary for any off-pole drive
frequency, amplitude, relative phase and Blackman rise, and the Lindblad
echo maps density matrices to density matrices."""
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from transmon_lattice.dynamics import NoiseSpec, _collapse_operators
from transmon_lattice.fileio import load_bundled_device
from transmon_lattice.operators import SubsetSelection, assemble_hamiltonian
from transmon_lattice.sizzle import SizzleConfig, _echo, landscape_flags

PAIR = ("Q2", "Q7")
DEVICE = load_bundled_device()
H0 = assemble_hamiltonian(DEVICE, SubsetSelection(PAIR, 3))


def _echo_maps(h0, device, configs, widths):
    """Echo unitaries E(w), shape (configs, widths, dim, dim): the vector
    echo carries the identity's rows to the rows of E(w)^T."""
    return np.swapaxes(_echo(h0, device, configs, None)(np.eye(h0.dim), widths), -1, -2)


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


DEVICE_NOISE = _collapse_operators(H0.sites, H0.levels, NoiseSpec.from_device(DEVICE))


@PROPERTY
@given(
    freq=st.floats(4500.0, 5400.0),
    amplitude=st.floats(0.0, 30.0),
    ratio=st.floats(0.5, 2.0),
    dphi=st.floats(-math.pi, math.pi),
    width=st.floats(0.0, 1.5),
    rank=st.integers(1, 9),
    seed=st.integers(0, 2**32 - 1),
)
def test_open_echo_maps_states_to_states(freq, amplitude, ratio, dphi, width, rank, seed):
    # widths span the 0-1.5 us grid of the Lindblad tomography tests
    assume(not landscape_flags(DEVICE, PAIR, freq))
    config = SizzleConfig(
        pair=PAIR, freq=freq, omega_target=amplitude, ratio=ratio, dphi=dphi
    )
    widths = [0.0, width, 1.5]
    rng = np.random.default_rng(seed)
    vecs = rng.normal(size=(H0.dim, rank)) + 1j * rng.normal(size=(H0.dim, rank))
    rho = vecs @ vecs.conj().T
    rho /= np.trace(rho)
    for out in _echo(H0, DEVICE, [config], DEVICE_NOISE)(rho[None], widths)[0, :, 0]:
        assert np.max(np.abs(out - out.conj().T)) <= 1e-10
        assert abs(np.trace(out) - 1.0) <= 1e-10
        assert np.linalg.eigvalsh(0.5 * (out + out.conj().T)).min() >= -1e-10
    # at zero rates the Lindblad echo is the unitary one
    maps = _echo_maps(H0, DEVICE, [config], widths)[0]
    for out, echo in zip(_echo(H0, DEVICE, [config], [])(rho[None], widths)[0, :, 0], maps):
        assert np.max(np.abs(out - echo @ rho @ echo.conj().T)) <= 1e-11
