import numpy as np
import pytest

from transmon_lattice.device import (
    CouplingGraph,
    DeviceSpec,
    TransmonParams,
    zz_exact,
    zz_perturbative,
    zz_report,
)
from transmon_lattice.errors import (
    ContractViolation,
    InconsistentSignError,
    LabelingError,
    NearPoleError,
)
from transmon_lattice.operators import (
    LatticeOperator,
    SubsetSelection,
    assemble_hamiltonian,
    basis_occupations,
)
from transmon_lattice.spectrum import (
    assign_dressed_labels,
    diagonalize,
    j_from_zz,
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


def test_zz_exact_labels_only_the_sectors_it_reads(device, dense_zz):
    # Q3 and Q4 differ by 2.3 MHz in frequency and 2.4 MHz in anharmonicity,
    # so their bare (1, 2) and (2, 1) mix fully; ZZ reads sectors 0-2 only
    spec = diagonalize(assemble_hamiltonian(device, SubsetSelection(("Q3", "Q4"), 3)))
    labels = assign_dressed_labels(spec)
    assert sorted(labels) == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]
    assert (1, 2) not in labels and (2, 1) not in labels
    assert min(spec.overlaps.values()) > 0.96
    assert zz_exact(device, ("Q3", "Q4")) == pytest.approx(4.158278607064858, rel=1e-9)
    for levels in (3, 4):
        zeta = dense_zz(device, ("Q3", "Q4"), levels)
        assert zeta == pytest.approx(4.158278607064858, rel=1e-9), levels


def test_zz_exact_zero_coupling():
    # no rotation, so every dressed shift is exactly zero
    dev = _pair_device(delta=12.0, j=0.0)
    assert zz_exact(dev, ("A", "B")) == 0.0


def test_zz_exact_table_pair(device):
    zeta = zz_exact(device, ("Q2", "Q3"))
    assert abs(zeta) == pytest.approx(8.1, rel=0.10)


def test_zz_exact_pair_order_symmetry(device):
    for pair in device.couplings.nn:
        assert zz_exact(device, pair) == zz_exact(device, pair[::-1]), pair


# Each pair's ZZ to 40 significant digits: mpmath.eigsy at 40 digits of
# its sector 1 and 2 blocks, built exactly from the bundled device's float
# parameters, each bare state labeled by its largest overlap.  zz_exact
# meets them to 1.5e-15; the dense 16-state eigh at levels 4 missed them by
# up to 6.6e-10.
MPMATH_ZZ_KHZ = {
    ("Q2", "Q3"): 8.128784519676686402183975397984194208008,
    ("Q3", "Q4"): 4.158278607517335813380193739620660735255,
    ("Q4", "Q5"): 6.300182907941190348479950538847032589375,
    ("Q14", "Q15"): 206.1853616565527310981336966037021694596,
}


def test_zz_exact_matches_high_precision_reference(device):
    for pair, reference in MPMATH_ZZ_KHZ.items():
        assert zz_exact(device, pair) == pytest.approx(reference, rel=1e-12), pair


def _sector_zz(device, pair):
    """The pair's ZZ (kHz) from numpy eigh of the sector 0-2 blocks of its
    dense levels-3 Hamiltonian, each shifted by its mean diagonal and
    labeled by the largest overlap."""
    h = assemble_hamiltonian(device, SubsetSelection(pair, 3)).to_dense().real
    occupations = basis_occupations(2, 3)
    shifts = {}
    for sector in (1, 2):
        index = np.flatnonzero(occupations.sum(axis=1) == sector)
        block = h[np.ix_(index, index)]
        block = block - np.trace(block) / len(index) * np.eye(len(index))
        bare = np.diag(block)
        energies, vectors = np.linalg.eigh(block)
        for i, k in enumerate(np.argmax(vectors**2, axis=1)):
            shifts[tuple(occupations[index[i]])] = energies[k] - bare[i]
    return (shifts[1, 1] - shifts[1, 0] - shifts[0, 1]) * 1e3


def test_zz_exact_matches_dense_sector_blocks():
    rng = np.random.default_rng(23)
    for _ in range(40):
        omega = rng.uniform(4500.0, 5500.0)
        omegas = (omega, omega - rng.uniform(5.0, 150.0) * rng.choice([-1.0, 1.0]))
        qubits = tuple(
            TransmonParams.from_frequency(label, w, -rng.uniform(150.0, 250.0), 50.0, 40.0, 60.0)
            for label, w in zip("AB", omegas)
        )
        j = rng.uniform(0.1, 3.0)
        dev = DeviceSpec(1, 2, qubits, couplings=CouplingGraph({("A", "B"): j}))
        zeta = zz_exact(dev, ("A", "B"))
        assert zeta == pytest.approx(_sector_zz(dev, ("A", "B")), rel=1e-9), dev


def test_zz_exact_refuses_two_labels_on_one_state():
    # at resonance both single-excitation bare states overlap each
    # eigenstate by exactly 1/2, so both claim the first
    with pytest.raises(LabelingError, match="both map to eigenstate") as failure:
        zz_exact(_pair_device(delta=0.0, j=0.5), ("A", "B"))
    assert failure.value.labels == ((1, 0), (0, 1))


def test_zz_exact_refuses_an_overlap_below_threshold():
    # J/Delta = 0.25 mixes |10> and |01> to an overlap of about 0.95
    dev = _pair_device(delta=2.0, j=0.5)
    assert zz_exact(dev, ("A", "B"), threshold=0.9) != 0.0
    with pytest.raises(LabelingError, match="threshold 0.99"):
        zz_exact(dev, ("A", "B"), threshold=0.99)
    with pytest.raises(ValueError):
        zz_exact(dev, ("A", "B"), threshold=0.5)


@pytest.mark.parametrize("j", [float("nan"), float("inf")])
def test_zz_exact_refuses_a_coupling_that_is_not_finite(j):
    with pytest.raises(ValueError, match="not finite"):
        zz_exact(_pair_device(delta=12.0, j=0.5), ("A", "B"), j_override=j)


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
    for pair in device.couplings.nn:
        report = zz_report(device, pair)
        rel = abs(report.zeta_exact_khz - report.zeta_perturbative_khz) / abs(
            report.zeta_perturbative_khz
        )
        assert rel <= 0.10, (pair, rel)


def test_zz_exact_truncation_converged(device, dense_zz):
    # sectors 0-2 are the same at every truncation of 3 or more levels, so
    # the dense spectra agree with the sector ZZ up to their own rounding:
    # eigenvalues near 1e4 MHz miss by ~1e-12 MHz, at most 2.0e-9 of the ZZ
    for levels in (3, 4, 5):
        for pair in device.couplings.nn:
            zeta = zz_exact(device, pair)
            assert dense_zz(device, pair, levels) == pytest.approx(zeta, rel=5e-9), pair
