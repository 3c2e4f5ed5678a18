import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import transmon_lattice
from transmon_lattice.cli import main


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _src_env() -> dict:
    """The environment of a subprocess that imports this checkout's package."""
    src = str(Path(transmon_lattice.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    # a warning fails the subprocess, as filterwarnings = ["error"] fails an in-process test
    return dict(os.environ, PYTHONPATH=src if not path else os.pathsep.join([src, path]),
                PYTHONWARNINGS="error")


def test_zz_command(capsys):
    code, out, _ = run_cli(["zz", "--pair", "Q2,Q3"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["zeta_perturbative_khz"] == pytest.approx(8.12, abs=0.05)
    assert abs(payload["zeta_exact_khz"]) == pytest.approx(8.1, rel=0.1)


def test_stats_command(capsys):
    code, out, _ = run_cli(["stats", "--column", "alpha"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["mean"]) == pytest.approx(196.4, abs=0.05)
    assert "published" in payload


def test_spectrum_command(capsys):
    code, out, _ = run_cli(
        ["spectrum", "--qubits", "Q2,Q3", "--levels", "3"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["energies_mhz"]) == 9


def test_report_command(capsys):
    code, out, _ = run_cli(["report"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert any(note.startswith("t1.") for note in payload["discrepancies"])
    assert sorted(map(tuple, payload["straddling_failures"])) == [
        ("Q10", "Q15"), ("Q15", "Q16"),
    ]


def test_replay_determinism(tmp_path, capsys):
    args = [
        "dynamics", "--protocol", "ramsey", "--qubit", "Q2",
        "--delays", "0:10:81", "--seed", "11", "--shots", "300",
    ]
    code1, _, _ = run_cli(args + ["--out", str(tmp_path / "a.json")], capsys)
    code2, _, _ = run_cli(args + ["--out", str(tmp_path / "b.json")], capsys)
    assert code1 == 0 and code2 == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_dynamics_emits_plot(tmp_path, capsys):
    code, _, _ = run_cli(
        [
            "dynamics", "--protocol", "t1", "--qubit", "Q1",
            "--delays", "0:200:21", "--seed", "1",
            "--out", str(tmp_path / "t1.json"),
            "--plot", str(tmp_path / "t1.svg"),
        ],
        capsys,
    )
    assert code == 0
    assert (tmp_path / "t1.svg").read_text().startswith("<svg")
    payload = json.loads((tmp_path / "t1.json").read_text())
    assert payload["fit"]["params"]["T"] == pytest.approx(126.0, rel=0.05)


def test_config_error_category(tmp_path, capsys):
    code, _, err = run_cli(["zz", "--pair", "Q2,Q99"], capsys)
    assert code == 2
    assert json.loads(err)["error"]["category"] == "config"

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(["stats", "--column", "alpha", "--device", str(bad)], capsys)
    assert code == 2
    assert json.loads(err)["error"]["category"] == "config"

    code, _, err = run_cli(
        ["dynamics", "--protocol", "t1", "--qubit", "Q2", "--delays=", "--seed", "7"], capsys
    )
    assert code == 2
    assert json.loads(err)["error"]["category"] == "config"


def test_physics_error_category(capsys):
    # drive parked on the Q2 carrier violates the pole guard
    code, _, err = run_cli(
        [
            "sizzle", "--mode", "tomography", "--pair", "Q2,Q7",
            "--freq", "4795.6", "--seed", "1",
        ],
        capsys,
    )
    assert code == 3
    assert json.loads(err)["error"]["category"] == "physics"


def test_resource_error_category(capsys):
    code, _, err = run_cli(
        ["spectrum", "--qubits", "Q1,Q2,Q3,Q4", "--levels", "9"], capsys
    )
    assert code == 4
    assert json.loads(err)["error"]["category"] == "resource"


@pytest.mark.parametrize("levels", ["1", "0"])
def test_spectrum_with_fewer_than_two_levels_is_a_config_error(levels, capsys):
    code, out, err = run_cli(["spectrum", "--qubits", "Q2,Q3", "--levels", levels], capsys)
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["category"] == "config"


def test_fit_command(tmp_path, capsys):
    t = np.linspace(0.5, 200.0, 40)
    y = 0.1 + 0.9 * np.exp(-t / 71.0)
    csv = tmp_path / "data.csv"
    csv.write_text(
        "delay[us],signal\n"
        + "\n".join(f"{float(a)!r},{float(b)!r}" for a, b in zip(t, y))
        + "\n"
    )
    code, out, _ = run_cli(
        ["fit", "--model", "exp_decay", "--input", str(csv)], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["params"]["T"] == pytest.approx(71.0, rel=1e-4)


@pytest.mark.parametrize("text", ["delay_us,p_excited\n", "delay_us\n1\n2\n3\n4\n5\n"])
def test_fit_input_without_two_columns_is_a_config_error(text, tmp_path, capsys):
    csv = tmp_path / "short.csv"
    csv.write_text(text)
    code, out, err = run_cli(["fit", "--model", "exp_decay", "--input", str(csv)], capsys)
    assert code == 2
    assert out == ""
    error = json.loads(err)["error"]
    assert error["category"] == "config"
    assert str(csv) in error["message"]


@pytest.mark.parametrize(
    "text, message",
    [
        ("a,b\n1,2\n3\n", "line 3: '3' is a ragged row"),
        ("a,b\n1,x\n", "line 2: '1,x' is not numbers"),
    ],
)
def test_fit_input_row_that_is_not_numbers_is_a_config_error_naming_the_line(
    text, message, tmp_path, capsys
):
    csv = tmp_path / "rows.csv"
    csv.write_text(text)
    code, out, err = run_cli(["fit", "--model", "exp_decay", "--input", str(csv)], capsys)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == {"category": "config", "message": f"{csv} {message}"}


def test_table_format_output(tmp_path, capsys):
    code, _, _ = run_cli(
        [
            "dynamics", "--protocol", "t1", "--qubit", "Q1",
            "--delays", "0:100:11", "--seed", "2",
            "--format", "table", "--out", str(tmp_path / "t1.csv"),
        ],
        capsys,
    )
    assert code == 0
    lines = (tmp_path / "t1.csv").read_text().strip().splitlines()
    assert lines[0].startswith("delay[us]")
    assert len(lines) == 12
    # without --out the same table goes to stdout
    code, out, _ = run_cli(
        [
            "dynamics", "--protocol", "t1", "--qubit", "Q1",
            "--delays", "0:100:11", "--seed", "2", "--format", "table",
        ],
        capsys,
    )
    assert code == 0
    assert out == (tmp_path / "t1.csv").read_text()


def test_table_format_on_a_result_without_a_table_is_a_config_error(tmp_path, capsys):
    for line, name in (("zz --pair Q2,Q3", "z.csv"), ("stats --column alpha", "s.csv")):
        out_path = tmp_path / name
        code, out, err = run_cli(
            line.split() + ["--format", "table", "--out", str(out_path)], capsys
        )
        assert code == 2, line
        assert json.loads(err)["error"]["category"] == "config"
        assert out == "" and not out_path.exists()


@pytest.mark.parametrize(
    "line, module, function",
    [
        ("sweep --kind swap --pair Q2,Q3 --amplitudes 25 --seed 1", "protocols", "protocol_swap"),
        (
            "sizzle --mode landscape --pair Q2,Q7 --freqs 5020:5040:2 --amplitudes 0:6:2 --seed 1",
            "sizzle",
            "sweep_drive_landscape",
        ),
    ],
)
def test_table_format_without_a_table_is_refused_before_the_run(
    line, module, function, tmp_path, capsys, monkeypatch
):
    import importlib

    def no_work(*args, **kwargs):
        raise AssertionError("the protocol ran")

    monkeypatch.setattr(importlib.import_module(f"transmon_lattice.{module}"), function, no_work)
    out_path = tmp_path / "t.csv"
    code, out, err = run_cli(line.split() + ["--format", "table", "--out", str(out_path)], capsys)
    assert code == 2 and out == "" and not out_path.exists()
    error = json.loads(err)["error"]
    assert error["category"] == "config"
    assert "has no table" in error["message"]


def test_plot_on_a_command_that_writes_no_plot_is_a_config_error(
    tmp_path, capsys, monkeypatch
):
    from transmon_lattice import cli

    def no_work(args):
        raise AssertionError("the handler ran")

    for line in (
        "zz --pair Q2,Q3",
        "sizzle --mode tomography --pair Q2,Q7 --seed 1",
        "sweep --kind swap --pair Q2,Q3 --amplitudes 25 --seed 1",
        "calibrate-cz --pair Q2,Q7 --freq 5028.5 --seed 1",
    ):
        monkeypatch.setitem(cli._HANDLERS, line.split()[0], no_work)
        svg = tmp_path / "plot.svg"
        code, out, err = run_cli(line.split() + ["--plot", str(svg)], capsys)
        assert code == 2, line
        error = json.loads(err)["error"]
        assert error["category"] == "config"
        if line.startswith("sweep"):
            assert "dynamics, sweep --kind acstark and rb" in error["message"]
        else:
            assert "--plot" in error["message"]
        assert out == "" and not svg.exists()


class _RecordingNamespace(argparse.Namespace):
    """Records the name of every attribute read once ``_reads`` is set."""

    def __getattribute__(self, name):
        state = object.__getattribute__(self, "__dict__")
        if "_reads" in state:
            state["_reads"].add(name)
        return object.__getattribute__(self, name)


@pytest.mark.parametrize(
    "lines",
    [
        ["spectrum --qubits Q2,Q3 --levels 2"],
        ["zz --pair Q2,Q3 --levels 3"],
        [
            f"dynamics --protocol {protocol} --qubit Q2 --delays 0:20:9 --seed 1 --shots 10"
            for protocol in ("t1", "ramsey", "echo")
        ],
        [
            "sweep --kind swap --pair Q2,Q3 --amplitudes 30:36:2 --durations 0:2:9 --seed 1",
            "sweep --kind acstark --pair Q6,Q10 --amplitudes 5:25:6 --seed 1",
        ],
        [
            "sizzle --mode tomography --pair Q2,Q7 --widths 0.5,1,1.5 --levels 3 --seed 1",
            "sizzle --mode phase --pair Q2,Q7 --widths 0.5,1,1.5 --levels 2 --seed 1",
            "sizzle --mode landscape --pair Q2,Q7 --freqs 5020:5040:2 --amplitudes 0:6:2 "
            "--levels 2 --seed 1",
        ],
        ["calibrate-cz --pair Q2,Q7 --freq 5028.5 --nu-tilde-khz 100 --seed 1"],
        ["rb --qubits Q1 --epc 1e-3 --sequences 2 --lengths 2,10,20 --shots 10 --seed 1"],
        ["tomography --state bell --tau-g 3.3 --shots 100 --seed 1"],
        ["fit --model exp_decay --input trace.csv"],
        ["stats --column alpha"],
        ["report"],
    ],
    ids=lambda lines: lines[0].split()[0],
)
def test_every_declared_option_is_read(lines, tmp_path, capsys, monkeypatch):
    # each line runs main on a namespace that records what main and the
    # handler read from it; over one line per mode or kind, a subcommand
    # reads every option it declares
    from types import SimpleNamespace

    from transmon_lattice import cli

    t = np.linspace(0.0, 300.0, 41)
    (tmp_path / "trace.csv").write_text(
        "delay_us,p_excited\n" + "".join(f"{a},{0.05 + 0.9 * np.exp(-a / 71.0)}\n" for a in t)
    )
    monkeypatch.chdir(tmp_path)
    parser = cli.build_parser()
    declared, reads = set(), set()
    for line in lines:
        args = parser.parse_args(line.split(), namespace=_RecordingNamespace())
        declared |= set(vars(args))
        args._reads = reads
        parsed = SimpleNamespace(parse_args=lambda _: args)
        monkeypatch.setattr(cli, "build_parser", lambda *_: parsed)
        code, _, err = run_cli(line.split(), capsys)
        assert code == 0, (line, err)
    assert declared - reads == set()


@pytest.mark.parametrize(
    "line, option",
    [
        ("zz --pair Q2,Q3 --seed 1", "--seed"),
        ("fit --model exp_decay --input trace.csv --device d.json", "--device"),
        ("tomography --state bell --seed 1 --device d.json", "--device"),
        ("dynamics --protocol t1 --qubit Q2 --seed 1 --levels 6", "--levels"),
        ("sizzle --mode tomography --pair Q2,Q7 --seed 1 --levels 5", "--levels"),
        (
            "sweep --kind swap --pair Q2,Q3 --amplitudes 30:36:2 --durations 0:2:9 --seed 1 "
            "--format table --out s.csv",
            "--format",
        ),
        (
            "sizzle --mode landscape --pair Q2,Q7 --freqs 5020:5040:2 --amplitudes 0:6:2 "
            "--levels 2 --seed 1 --format table --out l.csv",
            "--format",
        ),
        ("zz", "--pair"),
    ],
)
def test_option_a_command_cannot_take_is_a_config_error_naming_it(
    line, option, tmp_path, capsys, monkeypatch
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "trace.csv").write_text("delay_us,p_excited\n0,1\n1,0.5\n2,0.25\n3,0.1\n")
    (tmp_path / "d.json").write_text("{}")
    code, out, err = run_cli(line.split(), capsys)
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["category"] == "config"
    assert option in error["message"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.json", "trace.csv"]


def test_rb_command_with_injected_epc(capsys):
    code, out, _ = run_cli(
        [
            "rb", "--qubits", "Q1", "--epc", "1e-3", "--seed", "3",
            "--sequences", "8", "--lengths", "2,100,400,1000",
        ],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["outcomes"]["Q1"]["epc"] == pytest.approx(1e-3, rel=0.05)


def test_rb_emits_plot(tmp_path, capsys):
    code, out, _ = run_cli(
        [
            "rb", "--qubits", "Q1,Q2", "--epc", "1e-3", "--seed", "7",
            "--sequences", "2", "--lengths", "2,10,50",
            "--plot", str(tmp_path / "rb.svg"),
        ],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["command"] == "rb"
    svg = (tmp_path / "rb.svg").read_text()
    assert svg.startswith("<svg")
    assert svg.count("<polyline") == 2
    assert ">Q1</text>" in svg and ">Q2</text>" in svg


def test_rb_table_format_output(tmp_path, capsys):
    args = [
        "rb", "--qubits", "Q1,Q2", "--epc", "1e-3", "--seed", "7",
        "--sequences", "2", "--lengths", "2,10,50",
    ]
    code, out, _ = run_cli(
        args + ["--format", "table", "--out", str(tmp_path / "rb.csv")], capsys
    )
    assert code == 0
    assert out == ""
    lines = (tmp_path / "rb.csv").read_text().strip().splitlines()
    assert lines[0] == "length[cliffords],survival_Q1,survival_Q2"
    _, structured, _ = run_cli(args, capsys)
    outcomes = json.loads(structured)["outcomes"]
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    assert [row[0] for row in rows] == [2.0, 10.0, 50.0]
    for column, q in ((1, "Q1"), (2, "Q2")):
        assert [row[column] for row in rows] == outcomes[q]["survivals"]


def _rb_config_error(args, capsys) -> str:
    code, out, err = run_cli(["rb", "--seed", "1", *args], capsys)
    assert code == 2
    assert out == ""
    error = json.loads(err)["error"]
    assert error["category"] == "config"
    return error["message"]


def test_rb_rejects_zero_sequences(capsys):
    message = _rb_config_error(
        ["--qubits", "Q1", "--sequences", "0", "--lengths", "2,4,8"], capsys
    )
    assert "n_sequences" in message


def test_rb_rejects_negative_lengths(capsys):
    message = _rb_config_error(["--qubits", "Q1", "--lengths=-5,2,10"], capsys)
    assert "non-negative" in message


def test_rb_rejects_duplicate_labels(capsys):
    message = _rb_config_error(
        ["--qubits", "Q1,Q1", "--simultaneous", "--lengths", "2,4,8"], capsys
    )
    assert "Q1" in message


def test_rb_rejects_label_off_device_with_injected_epc(capsys):
    message = _rb_config_error(
        ["--qubits", "Q1,Q99", "--epc", "1e-3", "--lengths", "2,4,8"], capsys
    )
    assert message.startswith("unknown qubit 'Q99'; known qubits: Q1, Q2")


def test_rb_rejects_negative_shots(capsys):
    message = _rb_config_error(
        ["--qubits", "Q1", "--epc", "1e-3", "--shots", "-5", "--lengths", "2,4,8"],
        capsys,
    )
    assert "-5" in message


def test_rb_rejects_fractional_lengths(capsys):
    message = _rb_config_error(
        ["--qubits", "Q1", "--epc", "1e-3", "--lengths", "2.7,10,20"], capsys
    )
    assert "2.7" in message


@pytest.mark.parametrize("epc", ["2", "-1", "0.6"])
def test_rb_rejects_epc_outside_its_range(epc, capsys):
    message = _rb_config_error(["--qubits", "Q1", f"--epc={epc}"], capsys)
    assert message == f"EPC {float(epc)} outside [0, 0.5]"


@pytest.mark.parametrize(
    "line, flag",
    [
        ("sweep --kind acstark --pair Q2,Q3 --amplitudes 1:2:0", "amplitudes"),
        ("sweep --kind swap --pair Q2,Q3 --amplitudes 25:35:0", "amplitudes"),
        ("sweep --kind swap --pair Q2,Q3 --amplitudes 25 --durations=", "durations"),
        (
            "sizzle --mode landscape --pair Q2,Q7 --freqs 4900:5300:0 --amplitudes 2:20:4",
            "freqs",
        ),
        ("sizzle --mode tomography --pair Q2,Q7 --widths=", "widths"),
        ("dynamics --protocol t1 --qubit Q2 --delays 0:10:0", "delays"),
        ("rb --qubits Q1 --epc 1e-3 --lengths=", "lengths"),
    ],
)
def test_empty_grid_is_a_config_error_naming_the_flag(line, flag, capsys, monkeypatch):
    from transmon_lattice import cli

    def no_work(args):
        raise AssertionError("the handler ran")

    monkeypatch.setitem(cli._HANDLERS, line.split()[0], no_work)
    code, out, err = run_cli(line.split() + ["--seed", "7"], capsys)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == {
        "category": "config", "message": f"--{flag} is an empty grid",
    }


@pytest.mark.parametrize(
    "line, flag, spec",
    [
        ("sweep --kind swap --pair Q2,Q3 --amplitudes 1:2:-1", "amplitudes", "1:2:-1"),
        ("sweep --kind swap --pair Q2,Q3 --amplitudes 1:2", "amplitudes", "1:2"),
        ("sweep --kind swap --pair Q2,Q3 --amplitudes 25 --durations 0:2:x", "durations", "0:2:x"),
        ("dynamics --protocol t1 --qubit Q2 --delays 1,a", "delays", "1,a"),
        ("rb --qubits Q1 --epc 1e-3 --lengths 2:20:2.5", "lengths", "2:20:2.5"),
    ],
)
def test_malformed_grid_is_a_config_error_naming_the_flag(
    line, flag, spec, capsys, monkeypatch
):
    from transmon_lattice import cli

    def no_work(args):
        raise AssertionError("the handler ran")

    monkeypatch.setitem(cli._HANDLERS, line.split()[0], no_work)
    code, out, err = run_cli(line.split() + ["--seed", "7"], capsys)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == {
        "category": "config",
        "message": f"--{flag} {spec!r} is not start:stop:count or comma-separated values",
    }


def _device_without_resonators(tmp_path) -> str:
    from transmon_lattice.fileio import device_to_dict, load_bundled_device

    payload = device_to_dict(load_bundled_device())
    payload["device"]["resonators"] = []
    path = tmp_path / "no_resonators.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_report_on_a_device_without_resonators(tmp_path, capsys):
    code, out, err = run_cli(["report", "--device", _device_without_resonators(tmp_path)], capsys)
    assert code == 0, err
    payload = json.loads(out)
    assert sorted(payload["columns"]) == ["alpha", "j", "omega", "t1", "t2e", "t2r"]
    assert payload["columns"]["alpha"]["mean"] == pytest.approx(-196.4, abs=0.05)


def test_stats_resonator_column_without_resonators_is_a_config_error(tmp_path, capsys):
    device = _device_without_resonators(tmp_path)
    code, out, err = run_cli(["stats", "--column", "freq", "--device", device], capsys)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == {
        "category": "config", "message": "device has no resonator data for column 'freq'",
    }


def test_stats_unknown_column_lists_the_columns(capsys):
    code, out, err = run_cli(["stats", "--column", "bogus"], capsys)
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["category"] == "config"
    assert error["message"] == (
        "unknown column 'bogus'; known columns: "
        "omega, alpha, ej, ec, t1, t2r, t2e, freq, qi, kappa_ext, chi, j"
    )


def test_unknown_qubit_message_names_label_and_device(capsys):
    code, out, err = run_cli(["zz", "--pair", "Q2,Q99"], capsys)
    assert code == 2
    assert out == ""
    message = json.loads(err)["error"]["message"]
    assert message.startswith("unknown qubit 'Q99'; known qubits: Q1, Q2")
    assert "Q16" in message


def test_sizzle_rejects_negative_widths(capsys):
    code, out, err = run_cli(
        [
            "sizzle", "--mode", "tomography", "--pair", "Q2,Q7",
            "--widths=-1:1:5", "--seed", "1",
        ],
        capsys,
    )
    assert code == 2
    assert out == ""
    error = json.loads(err)["error"]
    assert error["category"] == "config"
    assert "-1.0" in error["message"]


def test_sizzle_rise_drops_widths_too_short_for_the_ramps(capsys):
    code, out, _ = run_cli(
        [
            "sizzle", "--mode", "tomography", "--pair", "Q2,Q7", "--rise", "50",
            "--levels", "3", "--seed", "1",
        ],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["rise"] == 50.0
    widths = payload["axes"][0]["values"]
    assert widths[0] == 0.0 and min(widths[1:]) >= 0.2 and len(widths) == 24


def test_calibrate_cz_readme_example_with_rise(capsys):
    # the README example at the default --levels 4 misses the 1% gate with
    # rectangular edges; a 50 ns Blackman ramp brings it inside
    code, out, _ = run_cli(
        [
            "calibrate-cz", "--pair", "Q2,Q7", "--freq", "5028.5",
            "--amplitude", "10", "--seed", "7", "--rise", "50",
        ],
        capsys,
    )
    assert code == 0
    calibration = json.loads(out)["calibration"]
    assert calibration["rise"] == 50.0
    assert calibration["residual"] <= 0.01


def test_tomography_command(capsys):
    code, out, _ = run_cli(
        ["tomography", "--state", "bell", "--seed", "4"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["fidelity"] == pytest.approx(1.0, abs=1e-6)


def test_tomography_rejects_unphysical_noise_inputs(capsys):
    for line, name in (
        ("tomography --state bell --tau-g -1 --seed 7", "tau_g"),
        ("tomography --state bell --tau-g 3.3 --t1 0 --seed 7", "T1"),
        ("tomography --state ghz --tau-g 3.3 --t2 -5 --seed 7", "T2"),
        ("tomography --state bell --tau-g 3.3 --seed 7 --t1 50 --t2 200", "T2"),
    ):
        code, out, err = run_cli(line.split(), capsys)
        assert code == 2, line
        error = json.loads(err)["error"]
        assert error["category"] == "config"
        assert name in error["message"], line
        assert out == ""


@pytest.mark.parametrize(
    "line",
    [
        "tomography --state bell --seed 7 --shots -5",
        "dynamics --protocol t1 --qubit Q2 --seed 7 --shots -5",
        "dynamics --protocol ramsey --qubit Q2 --seed 7 --shots -5",
        "dynamics --protocol echo --qubit Q2 --seed 7 --shots -5",
    ],
)
def test_negative_shots_is_a_config_error_naming_shots(line, capsys):
    code, out, err = run_cli(line.split(), capsys)
    assert code == 2, line
    assert out == ""
    error = json.loads(err)["error"]
    assert error["category"] == "config"
    assert "shots" in error["message"]


def test_sweep_swap_command(tmp_path, capsys):
    code, _, _ = run_cli(
        [
            "sweep", "--kind", "swap", "--pair", "Q2,Q3",
            "--amplitudes", "30:36:4", "--durations", "0:2:81",
            "--seed", "5", "--levels", "3",
            "--out", str(tmp_path / "chevron.json"),
        ],
        capsys,
    )
    assert code == 0
    payload = json.loads((tmp_path / "chevron.json").read_text())
    assert "resonance" in payload
    assert payload["resonance"]["swap_period"] > 0


def test_sweep_acstark_command(tmp_path, capsys):
    code, _, _ = run_cli(
        [
            "sweep", "--kind", "acstark", "--pair", "Q6,Q10",
            "--amplitudes", "5:25:6", "--seed", "6", "--levels", "3",
            "--jitter-khz", "10",
            "--out", str(tmp_path / "acstark.json"),
        ],
        capsys,
    )
    assert code == 0
    payload = json.loads((tmp_path / "acstark.json").read_text())
    assert "extraction" in payload


def test_sizzle_landscape_command(tmp_path, capsys):
    code, _, _ = run_cli(
        [
            "sizzle", "--mode", "landscape", "--pair", "Q2,Q7",
            "--freqs", "5020:5040:2", "--amplitudes", "0:6:3",
            "--seed", "8", "--levels", "3",
            "--out", str(tmp_path / "landscape.json"),
        ],
        capsys,
    )
    assert code == 0
    payload = json.loads((tmp_path / "landscape.json").read_text())
    assert "differential_phase" in payload["data"]


def test_sizzle_landscape_reads_the_ratio(capsys):
    line = "sizzle --mode landscape --pair Q2,Q7 --freqs 5028.5 --amplitudes 4,8 --levels 3 --seed 8"
    payloads = {}
    for ratio in ("1", "2"):
        code, out, _ = run_cli(line.split() + ["--ratio", ratio], capsys)
        assert code == 0
        payloads[ratio] = json.loads(out)
    assert payloads["2"]["config"]["ratio"] == 2.0
    one, two = (np.array(payloads[r]["data"]["differential_phase"]) for r in ("1", "2"))
    assert np.all(np.isfinite(two)) and not np.allclose(one, two)


def test_calibrate_cz_command(capsys):
    code, out, _ = run_cli(
        [
            "calibrate-cz", "--pair", "Q2,Q7", "--freq", "5028.5",
            "--nu-tilde-khz", "100", "--seed", "9",
        ],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["calibration"]["tau_g"] == pytest.approx(5.0, rel=0.01)


@pytest.mark.parametrize("phase", ["0", "-3.14", "nan", "inf"])
def test_calibrate_cz_rejects_a_target_phase_that_is_not_positive(phase, capsys):
    code, out, err = run_cli(
        [
            "calibrate-cz", "--pair", "Q2,Q7", "--freq", "5028.5", "--seed", "7",
            "--target-phase", phase,
        ],
        capsys,
    )
    assert code == 2
    assert out == ""
    error = json.loads(err)["error"]
    assert error["category"] == "config"
    assert "target phase" in error["message"]


def test_cli_import_loads_no_scipy():
    # nothing imports scipy: CLI startup loads none of it, and qubit-frame
    # evolution, whose exchange term and detuned tone rotate, runs closed
    # and open with scipy unimportable
    code = (
        "import sys, transmon_lattice.cli\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
        "sys.modules['scipy'] = None\n"
        "import numpy as np\n"
        "from transmon_lattice.dynamics import DriveTone, NoiseSpec, evolve, evolve_open\n"
        "from transmon_lattice.fileio import load_bundled_device\n"
        "from transmon_lattice.operators import SubsetSelection, assemble_hamiltonian\n"
        "device = load_bundled_device()\n"
        "h0 = assemble_hamiltonian(device, SubsetSelection(('Q2', 'Q3'), 2))\n"
        "tone = DriveTone(target='Q2', amplitude=2.0, detuning=-3.0, duration=0.05)\n"
        "psi0 = np.array([0.6, 0.0, 0.8, 0.0], dtype=complex)\n"
        "t = [0.0, 0.02, 0.05]\n"
        "states = evolve(h0, [tone], psi0, t, device=device)\n"
        "noise = NoiseSpec.from_device(device, ('Q2', 'Q3'))\n"
        "rhos = evolve_open(h0, [tone], np.outer(psi0, psi0), noise, t, device=device)\n"
        "print(states.shape, rhos.shape)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_src_env(),
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["[]", "(3, 4) (3, 4, 4)"]


def test_cli_import_and_device_load_need_no_numpy():
    # stats and report compute in pure Python, so the CLI core and the
    # device loader must not import numpy
    code = (
        "import sys, transmon_lattice.cli\n"
        "from transmon_lattice.fileio import load_bundled_device\n"
        "load_bundled_device()\n"
        "print(sorted(m for m in sys.modules if m.startswith('numpy')))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_src_env(),
        timeout=120, check=True,
    )
    assert result.stdout.strip() == "[]"


_HEAVY_MODULES = ("dynamics", "protocols", "sizzle", "rb", "cliffords", "tomography")
_LOADED_MODULES = (
    "import json, sys\n"
    "from transmon_lattice.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "loaded = sorted(\n"
    "    m for m in sys.modules\n"
    "    if m.startswith(('transmon_lattice.', 'scipy', 'numpy', 'dataclasses'))\n"
    ")\n"
    "print(json.dumps([code, loaded]))\n"
)


@pytest.mark.parametrize(
    "line, absent",
    [
        ("zz --pair Q2,Q3", _HEAVY_MODULES),
        # statistics are pure Python
        ("stats --column alpha", (*_HEAVY_MODULES, "numpy")),
        ("report", (*_HEAVY_MODULES, "numpy")),
        ("spectrum --qubits Q2,Q3 --levels 2", _HEAVY_MODULES),
        ("fit --model exp_decay --input trace.csv", _HEAVY_MODULES),
        # rb loads neither spectrum nor operators
        (
            "rb --qubits Q1 --epc 1e-3 --sequences 2 --lengths 2,25,50 --seed 1",
            ("dynamics", "sizzle", "tomography", "spectrum", "operators"),
        ),
        # spectrum loads only for the closed-form rate prediction
        (
            "sizzle --mode tomography --pair Q2,Q7 --widths 0.5,1,1.5 --seed 1",
            ("protocols", "rb", "cliffords", "tomography", "spectrum"),
        ),
        (
            "dynamics --protocol t1 --qubit Q2 --seed 1",
            ("sizzle", "rb", "cliffords", "tomography"),
        ),
        (
            "tomography --state bell --tau-g 3.3 --seed 1",
            ("protocols", "sizzle", "rb", "cliffords"),
        ),
        ("--version", (*_HEAVY_MODULES, "numpy")),
        # nor with device noise, whose ZZ is device.zz_perturbative
        (
            "rb --qubits Q1,Q2 --simultaneous --sequences 2 --lengths 2,25,50 --seed 1",
            ("dynamics", "protocols", "sizzle", "tomography", "spectrum", "operators"),
        ),
    ],
)
def test_command_loads_only_the_modules_it_runs(tmp_path, line, absent):
    # every process compiles the modules it imports, so a light command
    # must not import the heavy ones
    t = np.linspace(0.0, 300.0, 41)
    (tmp_path / "trace.csv").write_text(
        "delay_us,p_excited\n" + "".join(f"{a},{0.05 + 0.9 * np.exp(-a / 71.0)}\n" for a in t)
    )
    result = subprocess.run(
        [sys.executable, "-c", _LOADED_MODULES, *line.split()], capture_output=True,
        text=True, env=_src_env(), cwd=tmp_path, timeout=120, check=True,
    )
    code, loaded = json.loads(result.stdout.splitlines()[-1])
    assert code == 0, result.stderr
    names = {m.removeprefix("transmon_lattice.").split(".")[0] for m in loaded}
    # no command loads scipy, nor dataclasses, whose code generation costs
    # ~1.2 ms a class in every process
    assert names.isdisjoint((*absent, "scipy", "dataclasses")), loaded


def test_package_import_loads_no_submodule():
    code = (
        "import sys, transmon_lattice\n"
        "print(sorted(m for m in sys.modules if m.startswith('transmon_lattice.')))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_src_env(),
        timeout=120, check=True,
    )
    assert result.stdout.strip() == "[]"


def test_package_exports_resolve():
    from transmon_lattice.records import ExperimentRecord

    for name in transmon_lattice.__all__:
        assert getattr(transmon_lattice, name) is not None, name
    assert transmon_lattice.ExperimentRecord is ExperimentRecord
    with pytest.raises(AttributeError):
        transmon_lattice.no_such_name


def test_fit_model_choices_are_the_fit_functions():
    from transmon_lattice.cli import build_parser
    from transmon_lattice.fitting import FIT_FUNCTIONS

    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    model = next(a for a in commands.choices["fit"]._actions if a.dest == "model")
    assert list(model.choices) == sorted(FIT_FUNCTIONS)


def _subparsers(parser: argparse.ArgumentParser) -> dict:
    return next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ).choices


def _declared(parser: argparse.ArgumentParser) -> list[tuple]:
    return [
        (a.option_strings, a.dest, a.default, a.choices, a.required, a.type, a.help)
        for a in parser._actions
    ]


def test_parser_built_for_one_command_declares_what_the_full_build_does():
    from transmon_lattice.cli import build_parser

    full = _subparsers(build_parser())
    for argv in ([], ["--help"], ["--version"], ["bogus", "--pair", "Q2,Q3"]):
        assert list(_subparsers(build_parser(argv))) == list(full), argv
    for name, subparser in full.items():
        alone = _subparsers(build_parser([name, "--seed", "1"]))
        assert list(alone) == [name]
        assert _declared(alone[name]) == _declared(subparser), name


def test_failed_flush_at_process_exit_is_exit_120(monkeypatch):
    # a closed pipe surfaces when run() flushes stdout; CPython's own exit
    # reports a failed flush as 120
    from transmon_lattice import cli

    class ClosedPipe:
        def flush(self):
            raise BrokenPipeError(32, "Broken pipe")

    def exit_now(code):
        raise SystemExit(code)

    monkeypatch.setattr(cli, "main", lambda: 0)
    monkeypatch.setattr(cli.sys, "stdout", ClosedPipe())
    monkeypatch.setattr(cli.os, "_exit", exit_now)
    with pytest.raises(SystemExit) as exited:
        cli.run()
    assert exited.value.code == 120


def _readme_commands() -> list[str]:
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text().split("## Command line", 1)[1].split("```")[1]
    return [line.strip() for line in block.splitlines() if line.startswith("tlattice ")]


def test_readme_commands_run_as_documented(tmp_path):
    # every README command, verbatim, as a real process; the README says
    # that its calibrate-cz example exits 3 (physics)
    commands = _readme_commands()
    assert len(commands) == 11
    t = np.linspace(0.0, 300.0, 41)
    (tmp_path / "trace.csv").write_text(
        "delay_us,p_excited\n"
        + "".join(f"{a},{0.05 + 0.9 * np.exp(-a / 71.0)}\n" for a in t)
    )
    env = _src_env()
    for line in commands:
        result = subprocess.run(
            [sys.executable, "-m", "transmon_lattice.cli", *line.split()[1:]],
            capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300,
        )
        if line.startswith("tlattice calibrate-cz"):
            assert result.returncode == 3, line
            assert json.loads(result.stderr)["error"]["category"] == "physics"
        else:
            assert result.returncode == 0, (line, result.stderr)
            assert isinstance(json.loads(result.stdout), dict), line


_README_CALIBRATE_CZ = next(
    line.removeprefix("tlattice ") for line in _readme_commands() if "calibrate-cz" in line
)


@pytest.mark.parametrize(
    "line, code, files",
    [
        ("zz --pair Q2,Q3", 0, ()),
        ("dynamics --protocol t1 --qubit Q2 --delays 0:20:9 --seed 1 --out t1.json", 0,
         ("t1.json",)),
        ("dynamics --protocol t1 --qubit Q2 --delays 0:20:9 --seed 1 --format table "
         "--out t1.csv", 0, ("t1.csv",)),
        ("zz --pair Q2,Q99", 2, ()),
        (_README_CALIBRATE_CZ, 3, ()),
    ],
)
def test_process_prints_writes_and_exits_as_main_returns(
    line, code, files, tmp_path, capsys, monkeypatch
):
    # a tlattice process skips interpreter teardown once run() has flushed
    # its output; block-buffered stdout (no PYTHONUNBUFFERED) shows a flush
    # that is missing
    in_process, process = tmp_path / "main", tmp_path / "process"
    in_process.mkdir()
    process.mkdir()
    monkeypatch.chdir(in_process)
    main_code, out, err = run_cli(line.split(), capsys)
    assert main_code == code
    env = {k: v for k, v in _src_env().items() if k != "PYTHONUNBUFFERED"}
    result = subprocess.run(
        [sys.executable, "-m", "transmon_lattice.cli", *line.split()],
        capture_output=True, text=True, env=env, cwd=process, timeout=300,
    )
    assert (result.returncode, result.stdout, result.stderr) == (code, out, err)
    for name in files:
        assert (process / name).read_bytes() == (in_process / name).read_bytes() != b""
