"""Command-line interface.

Every stochastic subcommand requires --seed; results are written as
self-describing JSON records (config + seed + schema version embedded)
so that re-running the embedded config reproduces the payload exactly.
Each handler imports the modules it runs, so a command loads only those;
numpy too is imported only where arrays are built, so stats, report,
--help, --version and the config errors found before a handler runs
start without it.
Each subcommand declares only the options its handler reads.  --plot
writes an SVG for dynamics, sweep --kind acstark and rb, and --format
table emits the CSV table of a sweep or an RB run (to --out or stdout);
either option on a command without that output is a config error, as
is every parse error.  Exit codes:
0 on success, otherwise a machine-readable error category is printed to
stderr as JSON ("config" = 2, "physics" = 3, "resource" = 4).
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from . import __version__
from .device import DeviceSpec, straddling_check
from .errors import (
    AliasingError,
    ContractViolation,
    InconsistentSignError,
    LabelingError,
    NearPoleError,
    NearResonanceError,
    ResourceLimitError,
    SchemaError,
    SingularCouplingError,
    UncalibratableError,
    UnknownQubitError,
)
from .fileio import (
    PUBLISHED_SUMMARY,
    device_columns,
    load_bundled_device,
    load_device,
    record_to_dict,
    stats,
    summary_discrepancies,
    table_csv,
    write_svg_plot,
)

if TYPE_CHECKING:
    import numpy as np

_CONFIG_ERRORS = (SchemaError, UnknownQubitError, ValueError, KeyError, OSError)
_PHYSICS_ERRORS = (
    AliasingError,
    ContractViolation,
    InconsistentSignError,
    LabelingError,
    NearPoleError,
    NearResonanceError,
    SingularCouplingError,
    UncalibratableError,
)
_RESOURCE_ERRORS = (ResourceLimitError,)


def _fail(category: str, message: str, code: int) -> int:
    sys.stderr.write(json.dumps({"error": {"category": category, "message": message}}) + "\n")
    return code


def _device_from(args) -> DeviceSpec:
    if args.device:
        return load_device(args.device)
    return load_bundled_device()


def _emit(args, text: str) -> None:
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _pair(text: str) -> tuple[str, str]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2 or not all(parts):
        raise argparse.ArgumentTypeError("expected a pair like Q2,Q3")
    return parts[0], parts[1]


def _grid(name: str, spec: str) -> np.ndarray:
    """The values of the grid option ``--name``: start:stop:count or
    comma-separated values; a malformed or empty grid is a ValueError."""
    import numpy as np

    try:
        if ":" in spec:
            start, stop, count = spec.split(":")
            grid = np.linspace(float(start), float(stop), int(count))
        else:
            grid = np.array([float(x) for x in spec.split(",") if x.strip()])
    except ValueError:
        raise ValueError(
            f"--{name} {spec!r} is not start:stop:count or comma-separated values"
        ) from None
    if not len(grid):
        raise ValueError(f"--{name} is an empty grid")
    return grid


# the options that main parses with _grid, defaults included
_GRID_OPTIONS = ("amplitudes", "freqs", "widths", "durations", "delays", "lengths")

# sorted(fitting.FIT_FUNCTIONS), spelled out so that the parser does not
# import the fitting module
_FIT_MODELS = ("anticrossing", "damped_cos", "exp_decay", "rb_decay")


class _Parser(argparse.ArgumentParser):
    """Sends every parse error, a subcommand's too, out as a config error."""

    def error(self, message: str):
        sys.exit(_fail("config", message, 2))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tlattice",
        description="Transmon-lattice simulator and calibration toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    shared = {
        "device": dict(help="device file (default: bundled 4x4 lattice)"),
        "out": dict(help="write the result here instead of stdout"),
        "plot": dict(help="also write an SVG plot to this path"),
        "format": dict(choices=("structured", "table"), default="structured",
                       help="result format: JSON record or CSV table"),
        "seed": dict(type=int, required=True),
        "shots": dict(type=int, default=0),
    }

    def command(name, summary, options):
        """A subparser with the shared options (space-separated) its handler reads."""
        p = sub.add_parser(name, help=summary)
        for option in options.split():
            p.add_argument(f"--{option}", **shared[option])
        return p

    p = command("spectrum", "dressed spectrum of a qubit subset", "device out")
    p.add_argument("--levels", type=int, default=4)
    p.add_argument("--qubits", required=True, help="comma-separated labels")
    p.add_argument("--long-range", action="store_true")

    p = command("zz", "exact and perturbative ZZ for a coupled pair", "device out")
    p.add_argument("--levels", type=int, default=4)
    p.add_argument("--pair", type=_pair, required=True)

    p = command("dynamics", "T1 / Ramsey / echo protocols", "device out plot format seed shots")
    p.add_argument("--levels", type=int, choices=(2, 3), default=3)
    p.add_argument("--protocol", choices=("t1", "ramsey", "echo"), required=True)
    p.add_argument("--qubit", required=True)
    p.add_argument("--delays", default="0:150:40")
    p.add_argument("--detuning", type=float, default=1.0)

    p = command("sweep", "swap chevron or AC-Stark Ramsey sweep", "device out plot format seed")
    p.add_argument("--levels", type=int, choices=(2, 3), default=3)
    p.add_argument("--kind", choices=("swap", "acstark"), required=True)
    p.add_argument("--pair", type=_pair, required=True)
    p.add_argument("--amplitudes", required=True)
    p.add_argument("--durations", default="0:2:81")
    p.add_argument("--drive-detuning", type=float, default=-60.0)
    p.add_argument("--jitter-khz", type=float, default=0.0)

    p = command("sizzle", "driven-ZZ tomography, phase sweep, landscape", "device out format seed")
    p.add_argument("--levels", type=int, choices=(2, 3, 4), default=4)
    p.add_argument("--mode", choices=("tomography", "phase", "landscape"), required=True)
    p.add_argument("--pair", type=_pair, required=True, help="control,target")
    p.add_argument("--freq", type=float, help="shared drive frequency (MHz)")
    p.add_argument("--amplitude", type=float, default=10.0)
    p.add_argument("--ratio", type=float, default=1.0)
    p.add_argument("--dphi", type=float, default=0.0)
    p.add_argument("--widths", default=None,
                   help="Stark widths (us); default 0:3:25 less widths too short for --rise")
    p.add_argument("--rise", type=float, default=0.0,
                   help="Blackman ramp of each Stark half-pulse (ns); 0 = rectangular")
    p.add_argument("--freqs", help="landscape frequency grid")
    p.add_argument("--amplitudes", help="landscape amplitude grid")

    p = command("calibrate-cz", "tune a conditional-phase gate", "device out seed")
    p.add_argument("--levels", type=int, choices=(2, 3, 4), default=4)
    p.add_argument("--pair", type=_pair, required=True, help="control,target")
    p.add_argument("--freq", type=float, required=True)
    p.add_argument("--amplitude", type=float, default=10.0)
    p.add_argument("--ratio", type=float, default=1.0)
    p.add_argument("--target-phase", type=float, default=math.pi)
    p.add_argument("--rise", type=float, default=0.0,
                   help="Blackman ramp of each Stark half-pulse (ns); 0 = rectangular")
    p.add_argument("--nu-tilde-khz", type=float, default=None,
                   help="skip measurement and calibrate from this rate")

    p = command("rb", "randomized benchmarking", "device out plot format seed shots")
    p.add_argument("--qubits", required=True)
    p.add_argument("--simultaneous", action="store_true")
    p.add_argument("--sequences", type=int, default=16)
    p.add_argument("--lengths", default="2,25,50,100,250,500,750,1000")
    p.add_argument("--epc", type=float, default=None,
                   help="inject a depolarizing channel with this EPC instead of "
                        "deriving coherence-limited noise from the device")

    p = command("tomography", "Bell/GHZ preparation and reconstruction", "out seed shots")
    p.add_argument("--state", choices=("bell", "ghz"), required=True)
    p.add_argument("--tau-g", type=float, default=0.0,
                   help="gate duration (us); 0 = ideal gates")
    p.add_argument("--t1", type=float, default=71.0)
    p.add_argument("--t2", type=float, default=51.0)

    p = command("fit", "fit a CSV table (axis,value columns)", "out")
    p.add_argument("--model", choices=_FIT_MODELS, required=True)
    p.add_argument("--input", required=True)

    p = command("stats", "column statistics of a device file", "device out")
    p.add_argument("--column", required=True)

    command("report", "all published-summary comparisons", "device out")
    return parser


def _cmd_spectrum(args) -> dict:
    from .operators import SubsetSelection, assemble_hamiltonian
    from .spectrum import diagonalize

    device = _device_from(args)
    labels = tuple(x.strip() for x in args.qubits.split(","))
    subset = SubsetSelection(labels, args.levels)
    h = assemble_hamiltonian(device, subset, include_long_range=args.long_range)
    spec = diagonalize(h)
    return {
        "command": "spectrum",
        "qubits": list(labels),
        "levels": args.levels,
        "energies_mhz": spec.energies.tolist(),
    }


def _cmd_zz(args) -> dict:
    from .spectrum import zz_report

    device = _device_from(args)
    report = zz_report(device, args.pair, levels=args.levels)
    return {
        "command": "zz",
        "pair": list(report.pair),
        "j_mhz": report.j_input,
        "zeta_exact_khz": report.zeta_exact_khz,
        "zeta_perturbative_khz": report.zeta_perturbative_khz,
        "levels": report.levels,
    }


def _cmd_dynamics(args) -> dict:
    from .fitting import FIT_FUNCTIONS
    from .protocols import protocol_echo, protocol_ramsey, protocol_t1

    device = _device_from(args)
    kwargs = dict(shots=args.shots, seed=args.seed, levels=args.levels)
    if args.protocol == "t1":
        record = protocol_t1(device, args.qubit, args.delays, **kwargs)
        fit = FIT_FUNCTIONS["exp_decay"](record.axis("delay"), record.data["p_excited"])
    elif args.protocol == "ramsey":
        record = protocol_ramsey(
            device, args.qubit, args.delays, detuning=args.detuning, **kwargs
        )
        fit = FIT_FUNCTIONS["damped_cos"](record.axis("delay"), record.data["p_excited"])
    else:
        record = protocol_echo(device, args.qubit, args.delays, **kwargs)
        fit = FIT_FUNCTIONS["exp_decay"](record.axis("delay"), record.data["p_excited"])
    payload = record_to_dict(record)
    payload["fit"] = fit.to_dict()
    if args.plot:
        write_svg_plot(
            args.plot,
            record.axis("delay"),
            {"p_excited": record.data["p_excited"]},
            title=args.protocol,
            xlabel="delay (us)",
            ylabel="P(1)",
        )
    return payload


def _cmd_sweep(args) -> dict:
    from .dynamics import NoiseSpec
    from .protocols import (
        extract_anticrossing, protocol_acstark_ramsey, protocol_swap, swap_resonance,
    )

    device = _device_from(args)
    if args.kind == "swap":
        record = protocol_swap(
            device,
            args.pair,
            args.amplitudes,
            args.durations,
            drive_detuning=args.drive_detuning,
            seed=args.seed,
            levels=args.levels,
        )
        payload = record_to_dict(record)
        payload["resonance"] = {
            k: (v if not hasattr(v, "to_dict") else v.to_dict())
            for k, v in swap_resonance(record).items()
        }
        return payload
    noise = NoiseSpec(jitter_khz={args.pair[0]: args.jitter_khz})
    record = protocol_acstark_ramsey(
        device,
        args.pair,
        args.amplitudes,
        drive_detuning=args.drive_detuning,
        noise=noise,
        seed=args.seed,
        levels=args.levels,
    )
    payload = record_to_dict(record)
    extraction = extract_anticrossing(record)
    payload["extraction"] = {
        "j_mhz": extraction["j"],
        "freq_scatter_std_mhz": extraction["freq_scatter_std"],
        "points_used": extraction["points_used"],
        "fit": extraction["fit"].to_dict(),
    }
    if args.plot:
        write_svg_plot(
            args.plot,
            record.data["delta_model"],
            {"freq_shift": record.data["freq_shift"]},
            title="AC-Stark Ramsey",
            xlabel="detuning (MHz)",
            ylabel="shift (MHz)",
        )
    return payload


def _cmd_sizzle(args) -> dict:
    import numpy as np

    from .sizzle import (
        SizzleConfig, default_widths, fit_phase_modulation, hamiltonian_tomography_pulsewidth,
        sweep_drive_landscape, sweep_relative_phase,
    )

    device = _device_from(args)
    if args.mode in ("tomography", "phase"):
        freq = args.freq
        if freq is None:
            freq = max(device.qubit(q).omega for q in args.pair) + 100.0
        config = SizzleConfig(
            pair=args.pair,
            freq=freq,
            omega_target=args.amplitude,
            ratio=args.ratio,
            dphi=args.dphi,
            rise=args.rise,
        )
        widths = default_widths(args.rise) if args.widths is None else args.widths
    if args.mode == "tomography":
        nu, record = hamiltonian_tomography_pulsewidth(
            device, config, widths, seed=args.seed, levels=args.levels
        )
        payload = record_to_dict(record)
        payload["nu_tilde_khz"] = nu
        return payload
    if args.mode == "phase":
        dphis = np.linspace(0.0, 2 * math.pi, 16, endpoint=False)
        record = sweep_relative_phase(
            device, config, dphis, widths, seed=args.seed, levels=args.levels
        )
        payload = record_to_dict(record)
        payload["modulation"] = fit_phase_modulation(
            record.axis("dphi"), record.data["nu_tilde_khz"]
        )
        return payload
    if args.freqs is None or args.amplitudes is None:
        raise ValueError("landscape mode needs --freqs and --amplitudes")
    if args.rise:
        raise ValueError("landscape mode drives rectangular pulses; drop --rise")
    record = sweep_drive_landscape(
        device, args.pair, args.freqs, args.amplitudes, ratio=args.ratio, seed=args.seed,
        levels=args.levels,
    )
    return record_to_dict(record)


def _cmd_calibrate_cz(args) -> dict:
    from .sizzle import SizzleConfig, calibrate_cz

    device = _device_from(args)
    config = SizzleConfig(
        pair=args.pair,
        freq=args.freq,
        omega_target=args.amplitude,
        ratio=args.ratio,
        rise=args.rise,
    )
    calibration = calibrate_cz(
        device,
        config,
        target_phase=args.target_phase,
        seed=args.seed,
        levels=args.levels,
        nu_tilde_khz=args.nu_tilde_khz,
    )
    return {"command": "calibrate-cz", "calibration": calibration.to_dict()}


def _cmd_rb(args) -> dict:
    from .rb import NoiseChannel, run_rb

    device = _device_from(args)
    qubits = tuple(x.strip() for x in args.qubits.split(","))
    for label in qubits:  # on the device even when --epc replaces its noise model
        device.qubit(label)
    model = NoiseChannel.from_epc(args.epc) if args.epc is not None else device
    outcomes = run_rb(
        model,
        qubits,
        n_sequences=args.sequences,
        lengths=args.lengths,
        shots=args.shots,
        seed=args.seed,
        simultaneous=args.simultaneous,
    )
    if args.plot:
        write_svg_plot(
            args.plot,
            outcomes[qubits[0]].lengths,
            {q: outcome.survivals for q, outcome in outcomes.items()},
            title="randomized benchmarking",
            xlabel="sequence length (Cliffords)",
            ylabel="mean survival",
        )
    return {
        "command": "rb",
        "simultaneous": args.simultaneous,
        "outcomes": {q: outcome.to_dict() for q, outcome in outcomes.items()},
        "table": (
            "length",
            "cliffords",
            outcomes[qubits[0]].lengths,
            {f"survival_{q}": outcome.survivals for q, outcome in outcomes.items()},
        ),
    }


def _cmd_tomography(args) -> dict:
    import numpy as np

    from .tomography import (
        BELL_TARGET, bell_state, bell_state_noisy, fidelity, ghz_state, ghz_state_noisy,
        state_tomography,
    )

    if args.state == "bell":
        target = BELL_TARGET
        n = 2
        state = (
            bell_state()
            if args.tau_g == 0
            else bell_state_noisy(args.tau_g, args.t1, args.t2)
        )
    else:
        target = ghz_state()
        n = 3
        state = (
            ghz_state()
            if args.tau_g == 0
            else ghz_state_noisy(args.tau_g, args.t1, args.t2)
        )
    rho = state_tomography(state, n, shots=args.shots, seed=args.seed)
    return {
        "command": "tomography",
        "state": args.state,
        "tau_g": args.tau_g,
        "shots": args.shots,
        "seed": args.seed,
        "fidelity": fidelity(rho, target),
        "rho_real": np.real(rho).tolist(),
        "rho_imag": np.imag(rho).tolist(),
    }


def _cmd_fit(args) -> dict:
    import numpy as np

    from .fitting import FIT_FUNCTIONS

    rows = []
    for number, line in enumerate(Path(args.input).read_text().rstrip().splitlines()[1:], 2):
        try:
            rows.append([float(x) for x in line.split(",")])
        except ValueError:
            raise ValueError(f"{args.input} line {number}: {line!r} is not numbers") from None
        if len(rows[-1]) != len(rows[0]):
            raise ValueError(f"{args.input} line {number}: {line!r} is a ragged row")
    data = np.array(rows)
    if data.ndim != 2 or data.shape[1] < 2:
        raise ValueError(f"{args.input} needs a header and rows of two or more columns")
    fit = FIT_FUNCTIONS[args.model](data[:, 0], data[:, 1])
    return {"command": "fit", "model": args.model, "result": fit.to_dict()}


def _cmd_stats(args) -> dict:
    device = _device_from(args)
    report = stats(device, args.column)
    payload = {"command": "stats", **report.to_dict()}
    if args.column in PUBLISHED_SUMMARY:
        payload["published"] = PUBLISHED_SUMMARY[args.column]
    return payload


def _cmd_report(args) -> dict:
    device = _device_from(args)
    columns = ("omega", "alpha", "t1", "t2r", "t2e", "j", "freq", "qi", "kappa_ext", "chi")
    columns = [c for c in columns if c in device_columns(device)]
    payload = {
        "command": "report",
        "columns": {c: stats(device, c).to_dict() for c in columns},
        "published_summary": PUBLISHED_SUMMARY,
        "discrepancies": summary_discrepancies(device),
        "straddling_failures": [
            list(p)
            for p in device.nn_pairs()
            if not straddling_check(device, p[0], p[1])
        ],
    }
    return payload


def _table(payload: dict) -> tuple:
    """(axis name, axis units, axis values, columns) of the CSV table of a
    result: a record's first axis and its one-axis data columns, or the
    ``table`` a handler gives a result that is not a record."""
    if "axes" not in payload:
        return payload["table"]
    import numpy as np

    axis = payload["axes"][0]
    columns = {k: v for k, v in payload["data"].items() if np.ndim(v) == 1}
    return axis["name"], axis["units"], axis["values"], columns


_HANDLERS = {
    "spectrum": _cmd_spectrum,
    "zz": _cmd_zz,
    "dynamics": _cmd_dynamics,
    "sweep": _cmd_sweep,
    "sizzle": _cmd_sizzle,
    "calibrate-cz": _cmd_calibrate_cz,
    "rb": _cmd_rb,
    "tomography": _cmd_tomography,
    "fit": _cmd_fit,
    "stats": _cmd_stats,
    "report": _cmd_report,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command == "sweep" and args.kind == "swap" and args.plot:
        return _fail("config", "sweep --kind swap writes no plot; --plot works with dynamics, "
                     "sweep --kind acstark and rb", 2)
    as_table = getattr(args, "format", None) == "table"
    # the swap chevron and the landscape have two axes and no one-axis column
    if as_table and (getattr(args, "kind", None) == "swap"
                     or getattr(args, "mode", None) == "landscape"):
        return _fail("config", f"{args.command} has no table; drop --format table", 2)
    options = vars(args)
    try:
        for name in _GRID_OPTIONS:
            if options.get(name) is not None:
                options[name] = _grid(name, options[name])
        payload = _HANDLERS[args.command](args)
    except _PHYSICS_ERRORS as exc:
        return _fail("physics", str(exc), 3)
    except _RESOURCE_ERRORS as exc:
        return _fail("resource", str(exc), 4)
    except _CONFIG_ERRORS as exc:
        return _fail("config", str(exc), 2)
    if as_table:
        _emit(args, table_csv(*_table(payload)))
    else:
        payload.pop("table", None)
        _emit(args, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
