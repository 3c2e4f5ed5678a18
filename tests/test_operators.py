import numpy as np
import pytest

from transmon_lattice.device import CouplingGraph, DeviceSpec, TransmonParams, pair_key
from transmon_lattice.errors import (
    DimensionError,
    ResourceLimitError,
    UnknownQubitError,
)
from transmon_lattice.operators import (
    SubsetSelection,
    _embed,
    assemble_hamiltonian,
    total_excitation,
)


def _params(label="Q", omega=4795.6, alpha=-197.2):
    return TransmonParams.from_frequency(label, omega, alpha, 50.0, 40.0, 60.0)


def _pair_device(delta=0.0, j=0.5, omega=4800.0, alpha=-200.0):
    qubits = (
        TransmonParams.from_frequency("A", omega, alpha, 50.0, 40.0, 60.0),
        TransmonParams.from_frequency("B", omega - delta, alpha, 50.0, 40.0, 60.0),
    )
    return DeviceSpec(1, 2, qubits, couplings=CouplingGraph({("A", "B"): j}))


def _site_diagonal(levels, alpha=-197.2):
    """The diagonal of the assembled Hamiltonian of a one-site device."""
    device = DeviceSpec(1, 1, (_params(alpha=alpha),))
    h = assemble_hamiltonian(device, SubsetSelection(("Q",), levels)).to_dense()
    assert np.count_nonzero(h - np.diag(np.diag(h))) == 0
    return np.real(np.diag(h))


def _pair_exchange(levels, j=0.5):
    """The exchange part a_A^dag a_B + a_A a_B^dag of an assembled pair
    Hamiltonian: its off-diagonal elements over J."""
    h = assemble_hamiltonian(_pair_device(j=j), SubsetSelection(("A", "B"), levels)).to_dense()
    return (h - np.diag(np.diag(h))) / j


def test_site_hamiltonian_vacuum_is_zero():
    assert _site_diagonal(4)[0] == 0.0


def test_site_hamiltonian_table_values():
    # omega=4795.6, alpha=-197.2, d=3: {0, 4795.6, 2*4795.6 - 197.2}
    assert _site_diagonal(3) == pytest.approx([0.0, 4795.6, 9394.0], abs=1e-9)


def test_site_hamiltonian_harmonic_limit():
    diag = _site_diagonal(5, alpha=-1e-9)
    assert diag == pytest.approx([k * 4795.6 for k in range(5)], abs=1e-5)


def test_site_hamiltonian_rejects_single_level():
    with pytest.raises(DimensionError):
        _site_diagonal(1)


def test_exchange_two_level_elements():
    m = _pair_exchange(2)
    # |10> = index 2, |01> = index 1
    assert m[2, 1] == pytest.approx(1.0)
    assert m[1, 2] == pytest.approx(1.0)
    assert np.count_nonzero(m) == 2


def test_exchange_ladder_factor():
    m = _pair_exchange(3)
    # |20> = 2*3+0 = 6, |11> = 1*3+1 = 4: amplitude sqrt(2)*1
    assert m[6, 4] == pytest.approx(np.sqrt(2.0))
    assert m[4, 6] == pytest.approx(np.sqrt(2.0))


def test_exchange_conserves_excitation_number():
    ex = _pair_exchange(3)
    n = total_excitation(SubsetSelection(("A", "B"), 3)).to_dense()
    assert np.max(np.abs(ex)) > 0.0
    assert np.max(np.abs(ex @ n - n @ ex)) == 0.0


def test_exchange_unknown_qubit():
    with pytest.raises(UnknownQubitError):
        assemble_hamiltonian(_pair_device(), SubsetSelection(("A", "C"), 2))


def test_assemble_no_coupling_gives_ladder_sums():
    dev = _pair_device(delta=30.0, j=0.0)
    subset = SubsetSelection(("A", "B"), 3)
    h = assemble_hamiltonian(dev, subset)
    evals = np.linalg.eigvalsh(h.to_dense())
    ladders = []
    for qa in range(3):
        for qb in range(3):
            ea = (4800.0 + 0.5 * -200.0 * (qa - 1)) * qa
            eb = (4770.0 + 0.5 * -200.0 * (qb - 1)) * qb
            ladders.append(ea + eb)
    assert np.sort(evals) == pytest.approx(np.sort(ladders), abs=1e-8)


def test_assemble_resonant_splitting_is_2j():
    dev = _pair_device(delta=0.0, j=0.5)
    subset = SubsetSelection(("A", "B"), 2)
    h = assemble_hamiltonian(dev, subset).to_dense()
    evals = np.linalg.eigvalsh(h)
    # single-excitation doublet sits around omega with gap 2J
    gap = evals[2] - evals[1]
    assert gap == pytest.approx(1.0, rel=1e-12)


def test_assemble_long_range_flag():
    qubits = tuple(
        TransmonParams.from_frequency(f"Q{i}", 4800.0 + 10 * i, -200.0, 50, 40, 60)
        for i in range(4)
    )
    couplings = CouplingGraph(
        nn={("Q0", "Q1"): 0.5, ("Q2", "Q3"): 0.4},
        lr={("Q0", "Q2"): 0.05},
    )
    dev = DeviceSpec(2, 2, qubits, couplings=couplings)
    subset = SubsetSelection(("Q0", "Q1", "Q2"), 2)
    h_nn = assemble_hamiltonian(dev, subset, include_long_range=False)
    h_lr = assemble_hamiltonian(dev, subset, include_long_range=True)
    diff = (h_lr.to_dense() - h_nn.to_dense())
    assert np.max(np.abs(diff)) == pytest.approx(0.05)
    # nn-only assembly has no Q0-Q2 matrix element
    assert h_nn.to_dense()[subset.levels**2, 1] == 0.0


def test_hermiticity_defect_is_exactly_zero(device):
    subset = SubsetSelection(("Q2", "Q3", "Q6"), 3)
    h = assemble_hamiltonian(device, subset)
    assert h.hermiticity_defect() == 0.0


def test_hamiltonian_commutes_with_total_number(device):
    subset = SubsetSelection(("Q2", "Q3", "Q6"), 3)
    h = assemble_hamiltonian(device, subset).to_dense()
    n = total_excitation(subset).to_dense()
    assert np.max(np.abs(h @ n - n @ h)) == 0.0


def test_block_diagonalization_matches_full_spectrum(device):
    subset = SubsetSelection(("Q2", "Q3"), 3)
    h = assemble_hamiltonian(device, subset).to_dense()
    full = np.sort(np.linalg.eigvalsh(h))
    labels = np.array(
        [(a, b) for a in range(3) for b in range(3)], dtype=int
    )
    totals = labels.sum(axis=1)
    block_evals = []
    for n in np.unique(totals):
        idx = np.where(totals == n)[0]
        block = h[np.ix_(idx, idx)]
        block_evals.extend(np.linalg.eigvalsh(block))
    block_evals = np.sort(block_evals)
    assert block_evals == pytest.approx(full, rel=1e-10)


def test_dimension_cap_enforced():
    with pytest.raises(ResourceLimitError):
        SubsetSelection(("A", "B", "C", "D"), 9)  # 9^4 = 6561 > 4096


def test_subset_rejects_duplicates_and_single_level():
    with pytest.raises(ValueError):
        SubsetSelection(("A", "A"), 3)
    with pytest.raises(DimensionError):
        SubsetSelection(("A",), 1)


# ------------------------------------------- kron reference for assembly

def _square_device():
    """2x2 grid (Q0 Q1 / Q2 Q3): four nearest-neighbor edges plus
    long-range residuals on both diagonals."""
    qubits = tuple(
        TransmonParams.from_frequency(f"Q{i}", 4800.0 + 37.0 * i, -200.0 + 3.0 * i, 50, 40, 60)
        for i in range(4)
    )
    couplings = CouplingGraph(
        nn={("Q0", "Q1"): 0.5, ("Q0", "Q2"): 0.61, ("Q1", "Q3"): 0.45, ("Q2", "Q3"): 0.4},
        lr={("Q0", "Q3"): 0.05, ("Q1", "Q2"): 0.03},
    )
    return DeviceSpec(2, 2, qubits, couplings=couplings)


def _kron_site(op, site, n_sites, d):
    full = np.eye(1)
    for k in range(n_sites):
        full = np.kron(full, op if k == site else np.eye(d))
    return full


def _kron_reference(device, qubits, d, couplings):
    """Duffing sites plus J (a_p^dag a_q + h.c.), built from np.kron of
    ladder matrices."""
    n = len(qubits)
    lower = [_kron_site(np.diag(np.sqrt(np.arange(1.0, d)), k=1), k, n, d) for k in range(n)]
    h = np.zeros((d**n, d**n))
    for k, label in enumerate(qubits):
        q = device.qubit(label)
        occ = lower[k].T @ lower[k]
        h += q.omega * occ + 0.5 * q.alpha * occ @ (occ - np.eye(d**n))
    for (p, q), j in couplings.items():
        hop = lower[qubits.index(p)].T @ lower[qubits.index(q)]
        h += j * (hop + hop.T)
    return h


@pytest.mark.parametrize("mode", ["nearest", "long_range", "override"])
@pytest.mark.parametrize("levels", [2, 3, 4])
@pytest.mark.parametrize("n_sites", [1, 2, 3])
def test_assembly_matches_kron_reference(n_sites, levels, mode):
    dev = _square_device()
    qubits = ("Q1", "Q2", "Q0")[:n_sites]  # not in label order
    overrides = {("Q0", "Q1"): 0.77, ("Q1", "Q2"): 0.2} if mode == "override" else None
    h = assemble_hamiltonian(
        dev,
        SubsetSelection(qubits, levels),
        include_long_range=mode != "nearest",
        j_overrides=overrides,
    )
    couplings = {}
    for a, b in {pair_key(a, b) for a in qubits for b in qubits if a != b}:
        j = dev.couplings.j(a, b)
        if mode != "nearest":
            j += dev.couplings.j_long(a, b)
        couplings[(a, b)] = (overrides or {}).get((a, b), j)
    ref = _kron_reference(dev, qubits, levels, couplings)
    assert h.matrix.dtype == complex
    assert np.max(np.abs(h.matrix - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert h.hermiticity_defect() == 0.0
    with pytest.raises(ValueError):
        h.matrix[0, 0] = 1.0


@pytest.mark.parametrize("n_sites, levels", [(1, 3), (2, 2), (3, 3), (3, 4)])
def test_embed_matches_kron(n_sites, levels):
    rng = np.random.default_rng(n_sites * 10 + levels)
    op = rng.normal(size=(levels, levels)) + 1j * rng.normal(size=(levels, levels))
    for site in range(n_sites):
        ref = _kron_site(op, site, n_sites, levels)
        assert np.array_equal(_embed(op, site, n_sites, levels), ref)
