
import numpy as np
import pytest

from transmon_lattice.device import (
    CouplingGraph,
    DeviceSpec,
    TransmonParams,
    detuning,
    ej_from_omega,
    omega_from_ej_ec,
    straddling_check,
)
from transmon_lattice.errors import UnknownQubitError


def test_omega_from_ej_ec_unit_case():
    assert omega_from_ej_ec(2.0, 0.0625) == pytest.approx(1.0, rel=1e-12)


def test_omega_from_ej_ec_typical_values():
    # sqrt(8 * 12000 * 250) evaluated directly
    assert omega_from_ej_ec(12000.0, 250.0) == pytest.approx(4898.979485566356, rel=1e-12)


def test_omega_scaling_square_root_homogeneity():
    rng = np.random.default_rng(1)
    for _ in range(20):
        ej, ec = rng.uniform(0.1, 1e4, 2)
        assert omega_from_ej_ec(4 * ej, ec) == pytest.approx(
            2 * omega_from_ej_ec(ej, ec), rel=1e-12
        )


@pytest.mark.parametrize("ej,ec", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0)])
def test_omega_from_ej_ec_domain(ej, ec):
    with pytest.raises(ValueError):
        omega_from_ej_ec(ej, ec)


def test_ej_from_omega_inverts():
    assert ej_from_omega(4898.979485566356, 250.0) == pytest.approx(12000.0, rel=1e-9)
    assert ej_from_omega(1.0, 0.0625) == pytest.approx(2.0, rel=1e-12)


def test_ej_omega_round_trip():
    rng = np.random.default_rng(2)
    for _ in range(50):
        ej, ec = rng.uniform(0.01, 2e4, 2)
        omega = omega_from_ej_ec(ej, ec)
        assert omega_from_ej_ec(ej_from_omega(omega, ec), ec) == pytest.approx(
            omega, rel=1e-9
        )


def test_detuning_table_pair(device):
    assert detuning(device, "Q2", "Q3") == pytest.approx(-11.9, abs=1e-9)
    assert abs(detuning(device, "Q2", "Q3")) == pytest.approx(11.9, abs=1e-9)


def test_detuning_errors(device):
    with pytest.raises(ValueError):
        detuning(device, "Q2", "Q2")
    with pytest.raises(UnknownQubitError):
        detuning(device, "Q2", "Q99")


def test_detuning_antisymmetric(device):
    for a, b in device.nn_pairs():
        assert detuning(device, a, b) == -detuning(device, b, a)


def test_straddling_examples(device):
    assert straddling_check(device, "Q2", "Q3")
    assert not straddling_check(device, "Q15", "Q10")
    assert not straddling_check(device, "Q15", "Q16")


def test_straddling_exhaustive_matches_named_failures(device):
    failing = {
        pair
        for pair in device.nn_pairs()
        if not straddling_check(device, pair[0], pair[1])
    }
    assert failing == {("Q10", "Q15"), ("Q15", "Q16")}


def test_straddling_zero_detuning_true():
    qubits = (
        TransmonParams.from_frequency("A", 4800.0, -200.0, 50.0, 40.0, 60.0),
        TransmonParams.from_frequency("B", 4800.0, -200.0, 50.0, 40.0, 60.0),
    )
    dev = DeviceSpec(1, 2, qubits, couplings=CouplingGraph({("A", "B"): 0.5}))
    assert straddling_check(dev, "A", "B")


def test_transmon_params_invariants():
    with pytest.raises(ValueError):
        TransmonParams("X", 4800.0, 196.0, 100.0, 196.0, 50.0, 40.0, 60.0)
    with pytest.raises(ValueError):
        TransmonParams("X", 4800.0, -196.0, 100.0, 196.0, 50.0, 120.0, 60.0)
    with pytest.raises(ValueError):
        TransmonParams("X", -4800.0, -196.0, 100.0, 196.0, 50.0, 40.0, 60.0)


def test_device_rejects_duplicate_labels():
    q = TransmonParams.from_frequency("A", 4800.0, -200.0, 50.0, 40.0, 60.0)
    with pytest.raises(ValueError):
        DeviceSpec(1, 2, (q, q), couplings=CouplingGraph({}))


def test_device_rejects_non_grid_edge():
    qubits = tuple(
        TransmonParams.from_frequency(f"Q{i}", 4800.0 + i, -200.0, 50.0, 40.0, 60.0)
        for i in range(4)
    )
    with pytest.raises(ValueError):
        DeviceSpec(2, 2, qubits, couplings=CouplingGraph({("Q0", "Q3"): 0.5}))


def test_circuit_energy_seed_round_trip(device):
    # EC was seeded as -alpha; the frequency relation must round-trip
    for q in device.qubits:
        assert omega_from_ej_ec(ej_from_omega(q.omega, q.ec), q.ec) == pytest.approx(
            q.omega, rel=1e-9
        )
        assert q.ec == pytest.approx(-q.alpha)
