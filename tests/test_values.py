"""The value types are plain ``__slots__`` classes that behave as the
dataclasses they replaced: equality, hashing and repr by field value,
frozen types refuse assignment, and each ``__init__`` validates."""
import dataclasses
import functools
import importlib
import math
import pkgutil

import numpy as np
import pytest

import transmon_lattice
from transmon_lattice.cliffords import CliffordElement
from transmon_lattice.device import (
    CouplingGraph, DeviceSpec, ResonatorParams, TransmonParams, ZZReport,
)
from transmon_lattice.dynamics import NoiseSpec
from transmon_lattice.errors import ContractViolation, DimensionError, ResourceLimitError
from transmon_lattice.fileio import StatsReport
from transmon_lattice.fitting import FitResult
from transmon_lattice.operators import LatticeOperator, SubsetSelection
from transmon_lattice.rb import NoiseChannel, RbOutcome
from transmon_lattice.records import AxisSpec, ExperimentRecord
from transmon_lattice.sizzle import CzCalibration, SizzleConfig
from transmon_lattice.spectrum import DressedSpectrum
from transmon_lattice.values import FrozenValue, Value

ARRAY = np.array([0.25, 0.5])
UNITARY = np.eye(2, dtype=complex)
QUBIT_A = dict(
    label="A", omega=5000.0, alpha=-200.0, ej=15625.0, ec=200.0, t1=100.0, t2r=80.0, t2e=120.0
)
QUBIT_B = {**QUBIT_A, "label": "B", "omega": 5100.0}
RESONATOR = dict(label="R", freq=7000.0, qi=10.0, kappa_ext=1.5, chi=-200.0)
AXIS = dict(name="width", values=(0.5, 1.0), units="us")
GRAPH = dict(nn={("A", "B"): 0.6}, lr={})
DEVICE = dict(
    rows=1, cols=2, qubits=(TransmonParams(**QUBIT_A), TransmonParams(**QUBIT_B)),
    resonators=(), couplings=CouplingGraph(**GRAPH),
)
FIT = dict(
    model="exp_decay", params={"T": 70.0}, uncertainties={"T": 1.5}, rss=0.01,
    converged=True, iterations=5, flags=(),
)
SIZZLE = dict(pair=("A", "B"), freq=5028.5, omega_target=10.0, ratio=1.2, dphi=0.3, rise=50.0)
RECORD = dict(
    protocol="t1", axes=(AxisSpec(**AXIS),), data={"signal": ARRAY}, shots=10, seed=1,
    device_ref="A", config={"qubit": "A"}, metadata={},
)

# class, field values in field order, and one field with a different value
SAMPLES = [
    (AxisSpec, AXIS, ("units", "ns")),
    (ExperimentRecord, RECORD, ("shots", 20)),
    (TransmonParams, QUBIT_A, ("omega", 5200.0)),
    (ResonatorParams, RESONATOR, ("chi", -180.0)),
    (CouplingGraph, GRAPH, ("nn", {("A", "B"): 0.7})),
    (DeviceSpec, DEVICE, ("resonators", (ResonatorParams(**RESONATOR),))),
    (SubsetSelection, dict(qubits=("A", "B"), levels=3, dimension_cap=64), ("levels", 2)),
    (LatticeOperator, dict(matrix=np.eye(4, dtype=complex), sites=("A", "B"), levels=2),
     ("levels", 3)),
    (NoiseSpec, dict(relaxation={"A": 0.01}, dephasing={"A": 0.02}, jitter_khz={}),
     ("jitter_khz", {"A": 5.0})),
    (NoiseChannel, dict(depolarizing=0.01, granularity="gate", over_rotation=0.001,
                        zz_phase_per_clifford={("A", "B"): 0.02}), ("over_rotation", 0.0)),
    (RbOutcome, dict(qubit="A", lengths=(1, 2), survivals=ARRAY, per_sequence=ARRAY,
                     fit=FitResult(**FIT), epc=1e-3, epg=5e-4, epc_uncertainty=1e-5,
                     epg_uncertainty=5e-6), ("epc", 2e-3)),
    (FitResult, FIT, ("iterations", 6)),
    (DressedSpectrum, dict(energies=ARRAY, states=UNITARY, sites=("A",), levels=2,
                           labels={(0,): 0}, overlaps={(0,): 1.0}), ("levels", 3)),
    (ZZReport, dict(pair=("A", "B"), zeta_exact_khz=8.0, zeta_perturbative_khz=8.1,
                    j_input=0.6), ("j_input", 0.5)),
    (SizzleConfig, SIZZLE, ("dphi", 0.0)),
    (CzCalibration, dict(config=SizzleConfig(**SIZZLE), nu_tilde_khz=150.0, tau_g=3.3,
                         target_phase=math.pi, per_gate_phase=math.pi, residual=0.001,
                         gate_counts=(1, 3), accumulated_phases=(math.pi, 3 * math.pi)),
     ("residual", 0.002)),
    (StatsReport, dict(column="alpha", n=16, minimum=-210.0, maximum=-180.0, mean=-196.4,
                       std=7.0, stderr=1.75, spread=30.0), ("n", 15)),
    (CliffordElement, dict(index=3, gates=(("x", math.pi),)), ("index", 4)),
]
IDS = [cls.__qualname__ for cls, _, _ in SAMPLES]


@functools.cache
def _reference_class(cls):
    """The dataclass the value type replaced."""
    return dataclasses.make_dataclass(
        cls.__qualname__, cls.__slots__, frozen=issubclass(cls, FrozenValue)
    )


def _reference(value):
    """The replaced dataclass, holding the same field values."""
    return _reference_class(type(value))(*value._values())


def _outcome(operation):
    try:
        return operation()
    except (TypeError, ValueError) as exc:
        return type(exc)


def test_every_value_type_is_sampled():
    for module in pkgutil.iter_modules(transmon_lattice.__path__):
        importlib.import_module(f"transmon_lattice.{module.name}")
    pending, found = [Value], set()
    while pending:
        for sub in pending.pop().__subclasses__():
            pending.append(sub)
            found.add(sub)
    assert found - {FrozenValue} == {cls for cls, _, _ in SAMPLES}


@pytest.mark.parametrize("cls, fields, change", SAMPLES, ids=IDS)
def test_fields_are_slots_set_in_order(cls, fields, change):
    assert cls.__slots__ == tuple(fields)
    positional, keyword = cls(*fields.values()), cls(**fields)
    for value in (positional, keyword):
        assert not hasattr(value, "__dict__")
        for name, given in fields.items():
            held = getattr(value, name)
            assert held is given or (isinstance(held, np.ndarray) and np.array_equal(held, given))
    assert repr(positional) == repr(keyword)


@pytest.mark.parametrize("cls, fields, change", SAMPLES, ids=IDS)
def test_equality_and_hash_are_by_value(cls, fields, change):
    a, b = cls(**fields), cls(**fields)
    other = cls(**{**fields, change[0]: change[1]})
    # fields compare as one tuple, so a shared array compares by identity; an
    # operator holds a fresh read-only view, and numpy's == on two views is
    # elementwise, as it was for the dataclass on Python 3.10-3.12
    expected = ValueError if cls is LatticeOperator else True
    assert _outcome(lambda: a == b) is expected and _outcome(lambda: a != other) is expected
    assert a == a and not a != a
    assert a != _reference(a) and a != "A"
    assert _outcome(lambda: hash(a)) == _outcome(lambda: hash(_reference(a)))
    if isinstance(a, FrozenValue) and _outcome(lambda: hash(a)) is not TypeError:
        assert hash(a) == hash(b)


@pytest.mark.parametrize("cls, fields, change", SAMPLES, ids=IDS)
def test_repr_names_every_field(cls, fields, change):
    value = cls(**fields)
    assert repr(value) == repr(_reference(value))
    assert all(f"{name}=" in repr(value) for name in fields)


@pytest.mark.parametrize("cls, fields, change", SAMPLES, ids=IDS)
def test_frozen_types_refuse_assignment(cls, fields, change):
    value = cls(**fields)
    name, new = change
    if issubclass(cls, FrozenValue):
        with pytest.raises(AttributeError, match=name):
            setattr(value, name, new)
        with pytest.raises(AttributeError, match=name):
            delattr(value, name)
        assert getattr(value, name) is fields[name]
    else:
        assert cls in (ExperimentRecord, DressedSpectrum, RbOutcome)
        setattr(value, name, new)
        assert getattr(value, name) is new
    with pytest.raises(AttributeError):
        value.no_such_field = 1


@pytest.mark.parametrize(
    "build, fields",
    [
        (lambda: CouplingGraph({}), ("lr",)),
        (lambda: NoiseSpec(), ("relaxation", "dephasing", "jitter_khz")),
        (lambda: NoiseChannel(), ("zz_phase_per_clifford",)),
        (lambda: ExperimentRecord("t1", (), {}, 0, None, "A"), ("config", "metadata")),
        (lambda: DressedSpectrum(ARRAY, UNITARY, ("A",), 2), ("labels", "overlaps")),
    ],
)
def test_default_containers_are_built_per_instance(build, fields):
    a, b = build(), build()
    for name in fields:
        assert getattr(a, name) == {} and getattr(a, name) is not getattr(b, name)


def test_default_device_couplings_are_empty():
    device = DeviceSpec(1, 2, DEVICE["qubits"])
    assert device.couplings == CouplingGraph({}) and device.resonators == ()


@pytest.mark.parametrize(
    "cls, fields, change, error, match",
    [
        (TransmonParams, QUBIT_A, {"omega": 0.0}, ValueError, "omega must be positive"),
        (TransmonParams, QUBIT_A, {"alpha": 10.0}, ValueError, "alpha is stored negative"),
        (TransmonParams, QUBIT_A, {"t1": 0.0}, ValueError, "coherence times must be positive"),
        (TransmonParams, QUBIT_A, {"t2e": 250.0}, ValueError, r"t2e=250.0 exceeds 2\*t1"),
        (ResonatorParams, RESONATOR, {"freq": 0.0}, ValueError, "frequency must be positive"),
        (ResonatorParams, RESONATOR, {"qi": -1.0}, ValueError, "quality factor must be positive"),
        (CouplingGraph, GRAPH, {"nn": {("B", "A"): 0.6}}, ValueError, "canonical order"),
        (CouplingGraph, GRAPH, {"lr": {("A", "B"): math.nan}}, ValueError, "not finite"),
        (DeviceSpec, DEVICE, {"qubits": DEVICE["qubits"][:1]}, ValueError, "expected 2 qubits"),
        (DeviceSpec, DEVICE, {"qubits": DEVICE["qubits"][:1] * 2}, ValueError, "unique"),
        (DeviceSpec, DEVICE, {"couplings": CouplingGraph({("A", "C"): 1.0})}, ValueError,
         "not a grid edge"),
        (DeviceSpec, DEVICE, {"couplings": CouplingGraph({}, lr={("A", "Z"): 0.1})},
         ValueError, "unknown qubit"),
        (SubsetSelection, dict(qubits=("A", "B")), {"qubits": ("A", "A")}, ValueError,
         "repeated qubits"),
        (SubsetSelection, dict(qubits=("A", "B")), {"levels": 1}, DimensionError, "2 levels"),
        (SubsetSelection, dict(qubits=("A", "B"), levels=3), {"dimension_cap": 8},
         ResourceLimitError, "exceeds cap 8"),
        (NoiseSpec, {}, {"relaxation": {"A": -0.1}}, ContractViolation, r"relaxation\[A\]"),
        (SizzleConfig, SIZZLE, {"ratio": -1.0}, ValueError, "ratio must be positive"),
        (NoiseSpec, {}, {"jitter_khz": {"A": -1.0}}, ContractViolation, r"jitter_khz\[A\]"),
        (SizzleConfig, SIZZLE, {"rise": -1.0}, ValueError, "rise -1.0 ns"),
        (NoiseChannel, {}, {"depolarizing": -0.1}, ContractViolation, "outside"),
        (NoiseSpec, {}, {"dephasing": {"A": -0.1}}, ContractViolation, "negative"),
        (NoiseChannel, {}, {"depolarizing": 1.5}, ContractViolation, "outside"),
        (NoiseChannel, {}, {"granularity": "shot"}, ValueError, "granularity"),
        (SizzleConfig, SIZZLE, {"ratio": 0.0}, ValueError, "ratio must be positive"),
        (SizzleConfig, SIZZLE, {"omega_target": -1.0}, ValueError, "must be non-negative"),
        (SizzleConfig, SIZZLE, {"rise": math.nan}, ValueError, "rise nan ns"),
        (ExperimentRecord, RECORD, {"data": {"signal": np.zeros(3)}}, ValueError, "axes imply"),
        (ExperimentRecord, RECORD, {"data": {"p_excited": np.array([0.5, 1.5])}},
         ContractViolation, "outside"),
    ],
)
def test_init_validation_raises_its_error(cls, fields, change, error, match):
    with pytest.raises(error, match=match):
        cls(**{**fields, **change})


def test_record_keeps_populations_clipped_within_tolerance():
    record = ExperimentRecord(**{**RECORD, "data": {"p_excited": np.array([-1e-12, 1 + 1e-12])}})
    assert record.data["p_excited"].tolist() == [0.0, 1.0]


def test_operator_matrix_is_read_only():
    op = LatticeOperator(UNITARY, ("A",), 2)
    assert np.shares_memory(op.matrix, UNITARY)
    with pytest.raises(ValueError, match="read-only"):
        op.matrix[0, 0] = 2.0
