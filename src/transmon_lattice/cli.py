"""Command-line interface.

Every stochastic subcommand requires --seed, a non-negative integer;
results are written as self-describing JSON records (config + seed +
schema version embedded) so that re-running the embedded config
reproduces the payload exactly.
Each handler imports the modules it runs, so a command loads only those;
numpy too is imported only where arrays are built, so zz, stats, report,
--help, --version and the config errors found before a handler runs
start without it.
Results are strict JSON: a float that is not finite (a flagged
landscape cell, an undetermined fit uncertainty) is written as null.
Each subcommand declares only the options its handler reads, in one
table from which the parser builds just the subcommand it parses.  --plot
writes an SVG for dynamics, sweep --kind acstark and rb, and --format
table emits the CSV table of a sweep or an RB run (to --out or stdout);
either option on a command without that output is a config error, as
is every parse error and a nan or infinite number.  Exit codes:
0 on success, otherwise a machine-readable error category is printed to
stderr as JSON ("config" = 2, "physics" = 3, "resource" = 4).  A process
runs :func:`run`, which lets OpenBLAS's idle threads sleep, keeps
OpenSSL unloaded, turns the cyclic garbage collector off and ends the
process without interpreter teardown once the output is flushed;
:func:`main` is the in-process entry.
"""
from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import math
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, NoReturn, Optional, Sequence

from . import __version__
from .device import DeviceSpec, straddling_check, zz_report
from .errors import (
    AliasingError,
    ContractViolation,
    InconsistentSignError,
    LabelingError,
    NearPoleError,
    NearResonanceError,
    ResourceLimitError,
    SchemaError,
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
    UncalibratableError,
)
_RESOURCE_ERRORS = (ResourceLimitError,)
# numpy's bundled OpenBLAS starts a worker thread per extra core when it
# loads, and by default a worker spins 2^28 cycles (~0.13 s at 2.1 GHz)
# before it sleeps, even when no BLAS call ever needs it: a third of the CPU
# time of a typical command.  At 2^21 cycles (~1 ms) it sleeps almost at
# once.  At 2^18 and below, waking it slows the 729x729 eigh of a 6-site
# spectrum by ~5%; 2^20 and 2^21 read within the noise of the default, and
# 21 keeps one step of margin.
OPENBLAS_THREAD_TIMEOUT = 21


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


def _finite(text: str) -> float:
    """The value of a number option; nan and the infinities are parse errors."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _seed(text: str) -> int:
    """The value of --seed: a non-negative integer, as every random
    stream takes, so a negative seed is a parse error naming --seed."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"{text!r} is negative; a seed is a non-negative integer")
    return value


def _grid(name: str, spec: str) -> np.ndarray:
    """The values of the grid option ``--name``: start:stop:count or
    comma-separated values; a malformed, empty or non-finite grid is a
    ValueError."""
    import numpy as np

    try:
        if ":" in spec:
            start, stop, count = spec.split(":")
            # a bound that is not finite is refused below, not warned of here
            with np.errstate(all="ignore"):
                grid = np.linspace(float(start), float(stop), int(count))
        else:
            grid = np.array([float(x) for x in spec.split(",") if x.strip()])
    except ValueError:
        raise ValueError(
            f"--{name} {spec!r} is not start:stop:count or comma-separated values"
        ) from None
    if not len(grid):
        raise ValueError(f"--{name} is an empty grid")
    if not np.all(np.isfinite(grid)):
        raise ValueError(f"--{name} {spec!r} holds a value that is not a finite number")
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


# the options several subcommands share, by name
_SHARED = {
    "device": dict(help="device file (default: bundled 4x4 lattice)"),
    "out": dict(help="write the result here instead of stdout"),
    "plot": dict(help="also write an SVG plot to this path"),
    "format": dict(choices=("structured", "table"), default="structured",
                   help="result format: JSON record or CSV table"),
    "seed": dict(type=_seed, required=True),
    "shots": dict(type=int, default=0),
}

_RISE = dict(type=_finite, default=0.0,
             help="Blackman ramp of each Stark half-pulse (ns); 0 = rectangular")

# Each subcommand: its summary, the shared options (space-separated) its
# handler reads, and its own options.
_COMMANDS = {
    "spectrum": ("dressed spectrum of a qubit subset", "device out", {
        "--levels": dict(type=int, default=4),
        "--qubits": dict(required=True, help="comma-separated labels"),
        "--long-range": dict(action="store_true"),
    }),
    "zz": ("exact and perturbative ZZ for a coupled pair", "device out", {
        "--pair": dict(type=_pair, required=True),
    }),
    "dynamics": ("T1 / Ramsey / echo protocols", "device out plot format seed shots", {
        "--levels": dict(type=int, choices=(2, 3), default=3),
        "--protocol": dict(choices=("t1", "ramsey", "echo"), required=True),
        "--qubit": dict(required=True),
        "--delays": dict(default="0:150:40"),
        "--detuning": dict(type=_finite, default=1.0),
    }),
    "sweep": ("swap chevron or AC-Stark Ramsey sweep", "device out plot format seed", {
        "--levels": dict(type=int, choices=(2, 3), default=3),
        "--kind": dict(choices=("swap", "acstark"), required=True),
        "--pair": dict(type=_pair, required=True),
        "--amplitudes": dict(required=True),
        "--durations": dict(default="0:2:81"),
        "--drive-detuning": dict(type=_finite, default=-60.0),
        "--jitter-khz": dict(type=_finite, default=0.0),
    }),
    "sizzle": ("driven-ZZ tomography, phase sweep, landscape", "device out format seed", {
        "--levels": dict(type=int, choices=(2, 3, 4), default=4),
        "--mode": dict(choices=("tomography", "phase", "landscape"), required=True),
        "--pair": dict(type=_pair, required=True, help="control,target"),
        "--freq": dict(type=_finite, help="shared drive frequency (MHz)"),
        "--amplitude": dict(type=_finite, default=10.0),
        "--ratio": dict(type=_finite, default=1.0),
        "--dphi": dict(type=_finite, default=0.0),
        "--widths": dict(default=None, help="Stark widths (us); default 0:3:25 less widths "
                                            "too short for --rise"),
        "--rise": _RISE,
        "--freqs": dict(help="landscape frequency grid"),
        "--amplitudes": dict(help="landscape amplitude grid"),
    }),
    "calibrate-cz": ("tune a conditional-phase gate", "device out seed", {
        "--levels": dict(type=int, choices=(2, 3, 4), default=4),
        "--pair": dict(type=_pair, required=True, help="control,target"),
        "--freq": dict(type=_finite, required=True),
        "--amplitude": dict(type=_finite, default=10.0),
        "--ratio": dict(type=_finite, default=1.0),
        "--target-phase": dict(type=_finite, default=math.pi),
        "--rise": _RISE,
        "--nu-tilde-khz": dict(type=_finite, default=None,
                               help="skip measurement and calibrate from this rate"),
    }),
    "rb": ("randomized benchmarking", "device out plot format seed shots", {
        "--qubits": dict(required=True),
        "--simultaneous": dict(action="store_true"),
        "--sequences": dict(type=int, default=16),
        "--lengths": dict(default="2,25,50,100,250,500,750,1000"),
        "--epc": dict(type=_finite, default=None,
                      help="inject a depolarizing channel with this EPC instead of "
                           "deriving coherence-limited noise from the device"),
    }),
    "tomography": ("Bell/GHZ preparation and reconstruction", "out seed shots", {
        "--state": dict(choices=("bell", "ghz"), required=True),
        "--tau-g": dict(type=_finite, default=0.0, help="gate duration (us); 0 = ideal gates"),
        "--t1": dict(type=_finite, default=71.0),
        "--t2": dict(type=_finite, default=51.0),
    }),
    "fit": ("fit a CSV table (axis,value columns)", "out", {
        "--model": dict(choices=_FIT_MODELS, required=True),
        "--input": dict(required=True),
    }),
    "stats": ("column statistics of a device file", "device out", {
        "--column": dict(required=True),
    }),
    "report": ("all published-summary comparisons", "device out", {}),
}


def build_parser(argv: Optional[Sequence[str]] = None) -> argparse.ArgumentParser:
    """The ``tlattice`` parser.  When ``argv`` starts with a command name
    only that command's subparser is built, since a process parses one
    command; otherwise (``--help``, ``--version``, an unknown word or no
    argument) every subparser is."""
    parser = _Parser(
        prog="tlattice",
        description="Transmon-lattice simulator and calibration toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    names = argv[:1] if argv and argv[0] in _COMMANDS else _COMMANDS
    for name in names:
        summary, shared, options = _COMMANDS[name]
        p = sub.add_parser(name, help=summary)
        for option in shared.split():
            p.add_argument(f"--{option}", **_SHARED[option])
        for flag, spec in options.items():
            p.add_argument(flag, **spec)
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
    report = zz_report(_device_from(args), args.pair)
    return {
        "command": "zz",
        "pair": list(report.pair),
        "j_mhz": report.j_input,
        "zeta_exact_khz": report.zeta_exact_khz,
        "zeta_perturbative_khz": report.zeta_perturbative_khz,
    }


# each dynamics protocol's fit: its model and its name in messages
_DYNAMICS_FITS = {"t1": ("exp_decay", "T1"), "ramsey": ("damped_cos", "Ramsey"),
                  "echo": ("exp_decay", "echo")}


def _cmd_dynamics(args) -> dict:
    from .fitting import FEWEST_POINTS, FIT_FUNCTIONS
    from .protocols import checked_delays, protocol_echo, protocol_ramsey, protocol_t1

    device = _device_from(args)
    model, name = _DYNAMICS_FITS[args.protocol]
    # the grid's own checks, then the points its fit needs, before evolving
    delays = checked_delays(args.delays)
    if len(delays) < FEWEST_POINTS[model]:
        raise ValueError(f"delays must hold at least {FEWEST_POINTS[model]} points for the "
                         f"{name} fit, got {len(delays)}")
    kwargs = dict(shots=args.shots, seed=args.seed, levels=args.levels)
    if args.protocol == "t1":
        record = protocol_t1(device, args.qubit, delays, **kwargs)
    elif args.protocol == "ramsey":
        record = protocol_ramsey(device, args.qubit, delays, detuning=args.detuning, **kwargs)
    else:
        record = protocol_echo(device, args.qubit, delays, **kwargs)
    fit = FIT_FUNCTIONS[model](record.axis("delay"), record.data["p_excited"])
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

    from .tomography import BELL_TARGET, GHZ_TARGET, fidelity, prepare_state, state_tomography

    n, target = {"bell": (2, BELL_TARGET), "ghz": (3, GHZ_TARGET)}[args.state]
    state = prepare_state(n, args.tau_g, args.t1, args.t2)
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


def _finite_or_null(value):
    """``value`` with every float that is not finite replaced by None, so
    that ``json.dumps`` writes ``null`` where it would write a bare
    ``NaN`` or ``Infinity``, which JSON does not allow."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite_or_null(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(item) for item in value]
    return value


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
    """Runs one ``tlattice`` command in this process and returns its exit code."""
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv)
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
        _emit(args, json.dumps(_finite_or_null(payload), indent=2, sort_keys=True) + "\n")
    return 0


def _has_builtin_hashes() -> bool:
    """Whether the builtin hash modules that ``hashlib`` falls back to
    without ``_hashlib`` would import.  A build without them logs one
    ValueError traceback to stderr per missing hash when ``hashlib``
    loads without ``_hashlib``.  The modules are looked up, not loaded."""
    names = ["_md5", "_sha1", "_sha3", "_blake2"]
    names += ["_sha2"] if sys.version_info >= (3, 12) else ["_sha256", "_sha512"]
    return all(importlib.util.find_spec(name) is not None for name in names)


def run() -> NoReturn:
    """The process entry of ``tlattice``: runs :func:`main`, flushes stdout
    and stderr, then ends the process with ``os._exit``.

    Before numpy loads, it sets ``OPENBLAS_THREAD_TIMEOUT`` to
    :data:`OPENBLAS_THREAD_TIMEOUT` unless the environment already sets it,
    so that OpenBLAS's idle worker threads sleep almost at once instead of
    spinning a core; the thread count, and so every number, stays the same.
    It then disables the cyclic garbage collector for the rest of the
    process: a command leaves well under 1 MiB of reference cycles, mostly
    from importing numpy and building the parser, yet pays several ms of
    collector passes over the objects that import creates.  Reference
    counting still frees everything else.  Skipping interpreter teardown
    saves the tens of ms that finalizing numpy and the package takes after
    the output is complete; nothing the package opens is left unclosed.  A
    failed flush (a closed pipe) exits 120, as CPython's own exit does.

    It also blocks ``_hashlib``, unless something imported it already or
    CPython's builtin hash modules are missing (:func:`_has_builtin_hashes`).
    ``numpy.random`` imports ``secrets``, which imports ``hmac`` and so
    ``_hashlib``, and that maps OpenSSL's libcrypto: 3.4 MiB resident in
    every command that loads it, though nothing here hashes.  A command
    loads it only to draw with ``--shots`` above 0 or AC-Stark jitter; RB
    draws its Clifford ids from the package's PCG64 stream
    (:class:`~transmon_lattice.pcg64.Stream`), which loads neither.
    Without it, ``hmac`` and ``hashlib`` fall back to the builtin code,
    which imports in about half the ~4 ms that ``_hashlib`` takes, and
    ``SeedSequence`` mixes its entropy in its own code, so every random
    stream stays the same.  Library imports and :func:`main` leave
    ``sys.modules`` as they find it."""
    os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", str(OPENBLAS_THREAD_TIMEOUT))
    if _has_builtin_hashes():
        sys.modules.setdefault("_hashlib", None)
    gc.disable()
    code = main()
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except OSError:
            code = 120
    os._exit(code)


if __name__ == "__main__":
    run()
