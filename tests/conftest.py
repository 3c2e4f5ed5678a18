import pytest

from transmon_lattice.fileio import load_bundled_device
from transmon_lattice.operators import SubsetSelection, assemble_hamiltonian
from transmon_lattice.spectrum import assign_dressed_labels, diagonalize


@pytest.fixture(scope="session")
def device():
    return load_bundled_device()


def _dense_zz(device, pair, levels, j_override=None):
    overrides = None if j_override is None else {pair: j_override}
    h = assemble_hamiltonian(device, SubsetSelection(pair, levels), j_overrides=overrides)
    spec = diagonalize(h)
    assign_dressed_labels(spec)
    energy = spec.energy_of
    return (energy((1, 1)) - energy((1, 0)) - energy((0, 1)) + energy((0, 0))) * 1e3


@pytest.fixture(scope="session")
def dense_zz():
    """dense_zz(device, pair, levels, j_override=None): the pair's ZZ (kHz)
    from the labeled spectrum of its full dense Hamiltonian at ``levels``,
    the reference route that device.zz_exact is checked against."""
    return _dense_zz
