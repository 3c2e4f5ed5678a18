"""Property tests of the siZZle echo: every echo unitary
E(w) = PiPi U(w/2) PiPi U(w/2) is unitary for any off-pole drive
frequency, amplitude, relative phase and Blackman rise, the Lindblad
echo maps density matrices to density matrices and is completely
positive and trace preserving at any rates, and the drive landscape,
which evaluates every cell in one echo, equals its rows evaluated one by
one."""
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from transmon_lattice.dynamics import NoiseSpec, lindblad_noise
from transmon_lattice.fileio import load_bundled_device
from transmon_lattice.operators import SubsetSelection, assemble_hamiltonian
from transmon_lattice.sizzle import (
    SizzleConfig,
    _echo,
    _prepared_states,
    _readout,
    landscape_flags,
    sweep_drive_landscape,
)

PAIR = ("Q2", "Q7")
DEVICE = load_bundled_device()
H0 = assemble_hamiltonian(DEVICE, SubsetSelection(PAIR, 3))


def _echo_maps(h0, configs, widths):
    """Echo unitaries E(w), shape (configs, widths, dim, dim): the vector
    echo carries the identity's rows to the rows of E(w)^T."""
    return np.swapaxes(_echo(h0, configs, None)(np.eye(h0.dim), widths), -1, -2)


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
    maps = _echo_maps(H0, [config], widths)[0]
    eye = np.eye(H0.dim)
    for echo in maps:
        assert np.max(np.abs(echo.conj().T @ echo - eye)) <= 1e-12


DEVICE_NOISE = NoiseSpec.from_device(DEVICE)


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
    for out in _echo(H0, [config], DEVICE_NOISE)(rho[None], widths)[0, :, 0]:
        assert np.max(np.abs(out - out.conj().T)) <= 1e-10
        assert abs(np.trace(out) - 1.0) <= 1e-10
        assert np.linalg.eigvalsh(0.5 * (out + out.conj().T)).min() >= -1e-10
    # at zero rates the Lindblad echo is the unitary one
    maps = _echo_maps(H0, [config], widths)[0]
    for out, echo in zip(_echo(H0, [config], NoiseSpec())(rho[None], widths)[0, :, 0], maps):
        assert np.max(np.abs(out - echo @ rho @ echo.conj().T)) <= 1e-11


RATES = st.floats(0.0, 2.0)


# a ramped example takes ~2 s: 192 Liouvillian eig calls on its ramps
@settings(max_examples=8, deadline=None, derandomize=True)
@given(
    freq=st.floats(4500.0, 5400.0),
    amplitude=st.floats(0.0, 30.0),
    dphi=st.floats(-math.pi, math.pi),
    rise=st.one_of(st.just(0.0), st.floats(5.0, 80.0)),
    extra=st.floats(0.0, 1.5),
    relaxation=st.tuples(RATES, RATES),
    dephasing=st.tuples(RATES, RATES),
)
def test_open_echo_is_completely_positive_and_trace_preserving(
    freq, amplitude, dphi, rise, extra, relaxation, dephasing
):
    # the echo's channel on the levels-3 pair, from the 81 matrix units
    # |i><j| it maps; 1e-9 leaves room for the 7.5e-11 that the eig route
    # moves states by under device noise
    assume(not landscape_flags(DEVICE, PAIR, freq))
    config = SizzleConfig(pair=PAIR, freq=freq, omega_target=amplitude, dphi=dphi, rise=rise)
    noise = NoiseSpec(
        relaxation=dict(zip(PAIR, relaxation)), dephasing=dict(zip(PAIR, dephasing))
    )
    dim = H0.dim
    units = np.eye(dim**2).reshape(dim**2, dim, dim)  # |i><j| at index dim i + j
    width = 4.0 * rise * 1e-3 + extra
    mapped = _echo(H0, [config], noise)(units, [width])[0, 0].reshape((dim,) * 4)
    # the Choi matrix sum_ij |i><j| (x) E(|i><j|), indexed [(i, a), (j, b)]
    choi = mapped.transpose(0, 2, 1, 3).reshape(dim**2, dim**2)
    assert np.max(np.abs(choi - choi.conj().T)) <= 1e-9
    assert np.linalg.eigvalsh(0.5 * (choi + choi.conj().T)).min() >= -1e-9
    # tracing the output out leaves the identity: Tr E(|i><j|) = delta_ij
    assert np.max(np.abs(np.einsum("iaja->ij", mapped.transpose(0, 2, 1, 3)) - np.eye(dim))) <= 1e-9


def _landscape_by_rows(device, pair, freqs, amplitudes, width, ratio, noise, levels):
    """(differential phase, control response, flagged) of the landscape,
    one :func:`_echo` per unflagged frequency row."""
    shape = (len(freqs), len(amplitudes))
    diff_phase, response = np.full(shape, np.nan), np.full(shape, np.nan)
    flagged = np.zeros(shape, dtype=bool)
    h0 = assemble_hamiltonian(device, SubsetSelection(pair, levels))
    noise = lindblad_noise(h0.sites, noise)
    for i, freq in enumerate(freqs):
        if landscape_flags(device, pair, freq):
            flagged[i] = True
            continue
        configs = [SizzleConfig(pair, freq, amp, ratio) for amp in amplitudes]
        row = _echo(h0, configs, noise)(_prepared_states(levels, noise), [width])
        _, phases, excited = _readout(row[:, 0], levels, noise)
        diff_phase[i] = [math.remainder(d, 2 * math.pi) for d in phases[:, 1] - phases[:, 0]]
        response[i] = np.abs(excited - [0.0, 1.0]).max(axis=-1)
    return diff_phase, response, flagged


def _assert_landscape_matches_rows(record, rows, atol=0.0):
    phase, response, flagged = rows
    assert np.array_equal(record.data["flagged"], flagged)
    for key, expected in (("differential_phase", phase), ("control_response", response)):
        got = record.data[key]
        if atol:
            assert np.array_equal(np.isnan(got), np.isnan(expected)), key
            assert np.nanmax(np.abs(got - expected), initial=0.0) <= atol, key
        else:
            assert np.array_equal(got, expected, equal_nan=True), key


Q2, Q7 = (DEVICE.qubit(q) for q in PAIR)
# frequencies inside the carrier, 1-2 and two-photon bands of either qubit
FLAGGED_FREQS = [q.omega + shift for q in (Q2, Q7) for shift in (3.0, q.alpha, q.alpha / 2)]


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    freqs=st.lists(
        st.one_of(st.floats(4500.0, 5400.0), st.sampled_from(FLAGGED_FREQS)),
        min_size=1, max_size=5,
    ),
    amplitudes=st.lists(
        st.one_of(st.just(0.0), st.floats(0.0, 30.0)), min_size=1, max_size=4
    ),
    width=st.floats(0.0, 3.0),
    ratio=st.floats(0.5, 2.0),
    levels=st.sampled_from([2, 3, 4]),
    reverse=st.booleans(),
)
def test_landscape_equals_its_rows(freqs, amplitudes, width, ratio, levels, reverse):
    pair = PAIR[::-1] if reverse else PAIR
    record = sweep_drive_landscape(
        DEVICE, pair, freqs, amplitudes, width=width, ratio=ratio, levels=levels
    )
    rows = _landscape_by_rows(DEVICE, pair, freqs, amplitudes, width, ratio, None, levels)
    _assert_landscape_matches_rows(record, rows)


def test_single_cell_landscape_equals_its_row():
    record = sweep_drive_landscape(DEVICE, PAIR, [5028.5], [10.0], levels=3)
    rows = _landscape_by_rows(DEVICE, PAIR, [5028.5], [10.0], 1.0, 1.0, None, 3)
    _assert_landscape_matches_rows(record, rows)
    assert record.data["differential_phase"].shape == (1, 1)


def test_open_landscape_equals_its_rows():
    # one stacked Liouvillian eig per cell, against one per row
    freqs, amplitudes = [4950.0, FLAGGED_FREQS[0], 5028.5], [0.0, 6.0]
    noise = NoiseSpec.from_device(DEVICE)
    record = sweep_drive_landscape(DEVICE, PAIR, freqs, amplitudes, noise=noise, levels=2)
    rows = _landscape_by_rows(DEVICE, PAIR, freqs, amplitudes, 1.0, 1.0, noise, 2)
    _assert_landscape_matches_rows(record, rows, atol=1e-12)
    assert np.isnan(record.data["differential_phase"][1]).all()
