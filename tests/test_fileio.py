import json
import math

import numpy as np
import pytest

from transmon_lattice.errors import SchemaError
from transmon_lattice.fileio import (
    bundled_device_path,
    device_from_dict,
    device_to_dict,
    load_bundled_device,
    load_device,
    record_to_dict,
    save_device,
    stats,
    summary_discrepancies,
    table_csv,
    write_svg_plot,
)
from transmon_lattice.records import AxisSpec, ExperimentRecord


def test_bundled_device_shape(device):
    assert device.rows == 4 and device.cols == 4
    assert len(device.qubits) == 16
    assert len(device.couplings.nn) == 24
    assert len(device.resonators) == 16
    assert device.couplings.nn == {p: device.couplings.nn[p] for p in device.nn_pairs()}


def test_bundled_grid_is_serpentine(device):
    assert [q.label for q in device.qubits[:4]] == ["Q1", "Q2", "Q3", "Q4"]
    assert [q.label for q in device.qubits[4:8]] == ["Q8", "Q7", "Q6", "Q5"]
    # the characterized pairs are nearest neighbors, the crosstalk pairs are not
    edges = device.grid_edges()
    for a, b in [("Q2", "Q3"), ("Q3", "Q6"), ("Q6", "Q11"), ("Q10", "Q11"),
                 ("Q11", "Q14"), ("Q14", "Q15"), ("Q9", "Q16"), ("Q2", "Q7"),
                 ("Q1", "Q8")]:
        assert tuple(sorted((a, b))) in edges, (a, b)
    for a, b in [("Q2", "Q6"), ("Q6", "Q10"), ("Q5", "Q11"), ("Q8", "Q10"),
                 ("Q10", "Q16")]:
        assert tuple(sorted((a, b))) not in edges, (a, b)


def test_device_round_trip(tmp_path, device):
    path = tmp_path / "device.json"
    save_device(device, path, provenance="round trip")
    loaded = load_device(path)
    assert loaded == device


def test_duplicate_label_rejected(device):
    payload = device_to_dict(device)
    payload["device"]["qubits"][1]["label"] = "Q1"
    with pytest.raises(SchemaError):
        device_from_dict(payload)


def test_missing_field_rejected_with_path(device):
    payload = device_to_dict(device)
    del payload["device"]["qubits"][2]["t2e"]
    with pytest.raises(SchemaError) as err:
        device_from_dict(payload)
    assert "qubits[2]" in str(err.value)
    assert "t2e" in str(err.value)


def test_unknown_field_rejected_with_path(device):
    # couplings holds nn and lr only: a file that still has the ecc table
    # of coupling-capacitor energies is refused at its path
    for parent, key, path in [
        (("qubits", 0), "t2x", "$.device.qubits[0].t2x"),
        (("couplings",), "ecc", "$.device.couplings.ecc"),
    ]:
        payload = device_to_dict(device)
        obj = payload["device"]
        for step in parent:
            obj = obj[step]
        obj[key] = []
        with pytest.raises(SchemaError) as err:
            device_from_dict(payload)
        assert err.value.path == path
        assert key in str(err.value)


def test_unsupported_schema_version(device):
    payload = device_to_dict(device)
    payload["schema_version"] = 99
    with pytest.raises(SchemaError):
        device_from_dict(payload)


def test_stats_alpha_matches_published(device):
    report = stats(device, "alpha")
    assert abs(report.mean) == pytest.approx(196.4, abs=0.05)
    assert report.n == 16


def test_stats_j_matches_published(device):
    report = stats(device, "j")
    assert round(report.mean, 3) == 0.623
    assert round(report.std, 3) == 0.173
    assert report.minimum == 0.401
    assert report.maximum == 1.064
    # the published spread 0.269 is inconsistent with its own mean and
    # std (0.173/0.623 = 0.278); the computed value is reported as-is
    assert report.spread == pytest.approx(0.278, abs=0.001)


def test_stats_t1_discrepancies_reported(device):
    report = stats(device, "t1")
    # per-qubit rows actually average to ~69.7 and have a minimum of 24
    assert report.mean == pytest.approx(69.7, abs=0.05)
    assert report.minimum == 24.0
    notes = summary_discrepancies(device)
    assert any(note.startswith("t1.mean") for note in notes)
    assert any(note.startswith("t1.min") for note in notes)
    assert any(note.startswith("j.spread") for note in notes)
    # alpha's summary row is self-consistent
    assert not any(note.startswith("alpha.") for note in notes)


def test_stats_propagate_nan_like_numpy(device):
    # a device file may hold NaN (JSON readers accept it); numpy's min and
    # max return NaN wherever it sits, Python's depend on its position
    payload = device_to_dict(device)
    payload["device"]["resonators"][3]["chi"] = float("nan")
    report = stats(device_from_dict(payload), "chi")
    assert all(math.isnan(v) for v in (report.minimum, report.maximum, report.mean, report.std))


def test_stats_unknown_column(device):
    with pytest.raises(KeyError):
        stats(device, "bogus")


def test_record_round_trip():
    record = ExperimentRecord(
        protocol="demo",
        axes=(AxisSpec("delay", (0.0, 0.1, 0.2), "us"),),
        data={"p_excited": np.array([1.0, 0.5, 0.25])},
        shots=100,
        seed=7,
        device_ref="Q1",
        config={"qubit": "Q1"},
    )
    # the path of the CLI's output: record_to_dict, then json
    text = json.dumps(record_to_dict(record), indent=2, sort_keys=True)
    loaded = json.loads(text)
    assert loaded["schema_version"] == 1
    assert loaded["protocol"] == record.protocol
    assert [AxisSpec(a["name"], tuple(a["values"]), a["units"]) for a in loaded["axes"]] == list(
        record.axes
    )
    assert np.array_equal(loaded["data"]["p_excited"], record.data["p_excited"])
    assert loaded["seed"] == record.seed
    # byte-exact re-serialization
    assert json.dumps(loaded, indent=2, sort_keys=True) == text


def test_float_round_trip_is_exact(tmp_path, device):
    path = tmp_path / "device.json"
    save_device(device, path)
    loaded = load_device(path)
    for original, reloaded in zip(device.qubits, loaded.qubits):
        assert original.omega == reloaded.omega
        assert original.ej == reloaded.ej  # 17-significant-digit value


def test_write_table():
    text = table_csv("delay", "us", [0.0, 0.5], {"p": [1.0, 0.3], "q": [0.0, 0.7]})
    lines = text.strip().splitlines()
    assert lines[0] == "delay[us],p,q"
    assert lines[1].startswith("0.0,")
    assert len(lines) == 3


def test_write_svg_plot(tmp_path):
    path = tmp_path / "plot.svg"
    write_svg_plot(path, [0, 1, 2], {"trace": [0.0, 1.0, 0.5]}, title="demo")
    text = path.read_text()
    assert text.startswith("<svg")
    assert "polyline" in text
    assert "demo" in text


def test_bundled_file_parses_as_json():
    payload = json.loads(bundled_device_path().read_text())
    assert payload["schema_version"] == 1
    assert "provenance" in payload


def test_record_replays_from_embedded_config(device):
    # a result file is self-describing: re-running the embedded config
    # reproduces the embedded data bit-for-bit
    from transmon_lattice.dynamics import NoiseSpec
    from transmon_lattice.protocols import protocol_ramsey

    delays = np.linspace(0.0, 8.0, 33)
    noise = NoiseSpec(jitter_khz={"Q2": 5.0})
    record = protocol_ramsey(
        device, "Q2", delays, detuning=1.0, noise=noise, shots=400, seed=21
    )
    loaded = json.loads(json.dumps(record_to_dict(record), indent=2, sort_keys=True))
    (axis,) = loaded["axes"]
    assert axis["name"] == "delay"
    config = loaded["config"]
    replay = protocol_ramsey(
        device,
        config["qubit"],
        np.array(axis["values"]),
        detuning=config["detuning"],
        noise=noise,
        shots=loaded["shots"],
        seed=loaded["seed"],
        jitter_mode=config["jitter_mode"],
        levels=config["levels"],
    )
    assert np.array_equal(replay.data["p_excited"], loaded["data"]["p_excited"])
