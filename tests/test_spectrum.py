import numpy as np
import pytest

from transmon_lattice.device import CouplingGraph, DeviceSpec, TransmonParams, zz_perturbative
from transmon_lattice.errors import (
    ContractViolation,
    InconsistentSignError,
    LabelingError,
    NearPoleError,
)
from transmon_lattice.operators import LatticeOperator, SubsetSelection, assemble_hamiltonian
from transmon_lattice.spectrum import (
    assign_dressed_labels,
    diagonalize,
    j_from_zz,
    zz_exact,
    zz_report,
)

# Published two-qubit characterization rows: pair, detuning (MHz),
# static ZZ (MHz), J from ZZ (MHz), plus per-qubit anharmonicities.
TABLE_ROWS = [
    ("Q2", "Q3", 12.0, 0.0081, 0.631, -197.2, -196.2),
    ("Q3", "Q6", 17.2, 0.0033, 0.401, -196.2, -194.0),
    ("Q6", "Q11", 10.7, 0.0053, 0.511, -194.0, -196.1),
    ("Q10", "Q11", 18.2, 0.0036, 0.418, -196.9, -196.1),
    ("Q11", "Q14", 19.8, 0.0057, 0.528, -196.1, -197.0),
]


def _pair_device(delta, j, alpha=-200.0, omega=4800.0):
    qubits = (
        TransmonParams.from_frequency("A", omega, alpha, 50.0, 40.0, 60.0),
        TransmonParams.from_frequency("B", omega - delta, alpha, 50.0, 40.0, 60.0),
    )
    return DeviceSpec(1, 2, qubits, couplings=CouplingGraph({("A", "B"): j}))


def _operator(matrix, sites=("A",), levels=None):
    matrix = np.asarray(matrix, dtype=complex)
    if levels is None:
        levels = matrix.shape[0]
    return LatticeOperator(matrix, tuple(sites), levels)


def test_diagonalize_diagonal_input():
    diag = [0.0, 1.5, 3.7, 9.0]
    spec = diagonalize(_operator(np.diag(diag)))
    assert spec.energies == pytest.approx(diag)


def test_diagonalize_two_by_two_closed_form():
    j, delta = 0.7, 3.1
    spec = diagonalize(_operator([[0.0, j], [j, delta]], sites=("A",), levels=2))
    expected = [
        (delta - np.sqrt(delta**2 + 4 * j**2)) / 2,
        (delta + np.sqrt(delta**2 + 4 * j**2)) / 2,
    ]
    assert spec.energies == pytest.approx(expected, rel=1e-12)


def test_diagonalize_residual_and_unitarity(device):
    subset = SubsetSelection(("Q2", "Q3"), 4)
    op = assemble_hamiltonian(device, subset)
    spec = diagonalize(op)
    h = op.to_dense()
    norm = np.linalg.norm(h, ord=2)
    for k in range(op.dim):
        residual = np.linalg.norm(h @ spec.states[:, k] - spec.energies[k] * spec.states[:, k])
        assert residual <= 1e-8 * norm
    identity = spec.states.conj().T @ spec.states
    assert np.max(np.abs(identity - np.eye(op.dim))) < 1e-10


def test_diagonalize_rejects_non_hermitian():
    with pytest.raises(ContractViolation):
        diagonalize(_operator([[0.0, 1.0], [0.0, 0.0]]))


def test_labels_identity_at_zero_coupling():
    dev = _pair_device(delta=25.0, j=0.0)
    spec = diagonalize(assemble_hamiltonian(dev, SubsetSelection(("A", "B"), 3)))
    labels = assign_dressed_labels(spec)
    for occupation, eig in labels.items():
        assert spec.overlaps[occupation] == pytest.approx(1.0)


def test_labels_weak_coupling_overlaps():
    # J/|Delta| = 0.05: perturbation theory gives overlaps ~ 1 - (J/D)^2
    dev = _pair_device(delta=20.0, j=1.0)
    spec = diagonalize(assemble_hamiltonian(dev, SubsetSelection(("A", "B"), 3)))
    assign_dressed_labels(spec)
    for occupation, overlap in spec.overlaps.items():
        if sum(occupation) in (1, 2):
            assert overlap >= 0.99


def test_labels_fail_on_resonance():
    dev = _pair_device(delta=0.0, j=0.5)
    spec = diagonalize(assemble_hamiltonian(dev, SubsetSelection(("A", "B"), 3)))
    with pytest.raises(LabelingError):
        assign_dressed_labels(spec, threshold=0.9)


def test_zz_exact_labels_only_the_sectors_it_reads(device):
    # Q3 and Q4 differ by 2.3 MHz in frequency and 2.4 MHz in anharmonicity,
    # so their bare (1, 2) and (2, 1) mix fully; ZZ reads sectors 0-2 only
    spec = diagonalize(assemble_hamiltonian(device, SubsetSelection(("Q3", "Q4"), 3)))
    labels = assign_dressed_labels(spec)
    assert sorted(labels) == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]
    assert (1, 2) not in labels and (2, 1) not in labels
    assert min(spec.overlaps.values()) > 0.96
    for levels in (3, 4):
        zeta = zz_exact(device, ("Q3", "Q4"), levels=levels)
        assert zeta == pytest.approx(4.158278607064858, rel=1e-9), levels


def test_zz_exact_zero_coupling():
    dev = _pair_device(delta=12.0, j=0.0)
    assert zz_exact(dev, ("A", "B"), levels=4) == pytest.approx(0.0, abs=1e-9)


def test_zz_exact_table_pair(device):
    zeta = zz_exact(device, ("Q2", "Q3"), levels=4)
    assert abs(zeta) == pytest.approx(8.1, rel=0.10)


def test_zz_exact_pair_order_symmetry(device):
    forward = zz_exact(device, ("Q2", "Q3"), levels=4)
    backward = zz_exact(device, ("Q3", "Q2"), levels=4)
    assert forward == pytest.approx(backward, rel=1e-9)


def test_zz_perturbative_table_rows():
    for qa, qb, delta, zz_static, j_zz, alpha_i, alpha_j in TABLE_ROWS:
        zeta = zz_perturbative(j_zz, delta, alpha_i, alpha_j)
        assert abs(zeta) == pytest.approx(zz_static * 1e3, rel=0.05), (qa, qb)


def test_zz_perturbative_spot_values():
    assert zz_perturbative(0.631, 12.0, -197.2, -196.2) == pytest.approx(8.124, abs=0.01)
    assert zz_perturbative(0.401, 17.2, -196.2, -194.0) == pytest.approx(3.32, abs=0.01)
    assert zz_perturbative(0.0, 12.0, -197.2, -196.2) == 0.0


def test_zz_perturbative_pole_guard():
    with pytest.raises(NearPoleError):
        zz_perturbative(0.5, 196.5, -196.2, -194.0)  # delta + alpha_i ~ 0.3
    with pytest.raises(ValueError):
        zz_perturbative(0.5, 0.0, -196.2, -194.0)


def test_j_from_zz_table_values():
    assert j_from_zz(8.1, 12.0, -197.2, -196.2) == pytest.approx(0.631, rel=0.02)
    assert j_from_zz(3.6, 18.2, -196.9, -196.1) == pytest.approx(0.418, rel=0.02)


def test_j_from_zz_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(40):
        j = rng.uniform(0.1, 1.2)
        delta = rng.uniform(5.0, 40.0) * rng.choice([-1.0, 1.0])
        alpha_i = -rng.uniform(190.0, 205.0)
        alpha_j = -rng.uniform(190.0, 205.0)
        zeta = zz_perturbative(j, delta, alpha_i, alpha_j)
        assert j_from_zz(zeta, delta, alpha_i, alpha_j) == pytest.approx(j, rel=1e-9)
        assert zz_perturbative(
            j_from_zz(zeta, delta, alpha_i, alpha_j), delta, alpha_i, alpha_j
        ) == pytest.approx(zeta, rel=1e-9)


def test_j_from_zz_rejects_wrong_sign():
    with pytest.raises(InconsistentSignError):
        j_from_zz(-8.1, 12.0, -197.2, -196.2)


def test_exact_vs_perturbative_within_ten_percent(device):
    # every nearest-neighbour pair, the table rows among them; the largest
    # gap is 1.8%, at Q14,Q15
    assert len(device.couplings.nn) == 24
    for levels in (3, 4):
        for pair in device.couplings.nn:
            report = zz_report(device, pair, levels=levels)
            rel = abs(report.zeta_exact_khz - report.zeta_perturbative_khz) / abs(
                report.zeta_perturbative_khz
            )
            assert rel <= 0.10, (pair, levels, rel)


def test_zz_exact_truncation_converged(device):
    for qa, qb, *_ in TABLE_ROWS:
        z4 = zz_exact(device, (qa, qb), levels=4)
        z5 = zz_exact(device, (qa, qb), levels=5)
        assert abs(z5 - z4) / abs(z4) <= 0.005, (qa, qb)
