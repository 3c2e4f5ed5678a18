"""Per-layer metrics of one traced pass over a workload.

Every value is a total over the pass's commands.  Times are inclusive
(``.ms``) or self time (``.self_ms``: the span minus its traced children);
``.calls`` and the counts read from outputs repeat exactly between runs.
``.unique_ratio`` is distinct inputs over calls, counted per process (1.0
when there are no calls).
"""
from __future__ import annotations

import statistics

from tracer import MODULES

# (span name, statistics reported for it)
SPAN_METRICS = (
    ("cli.main", ("self_ms",)),
    ("fileio.load_bundled_device", ("ms",)),
    ("fileio.record_to_dict", ("ms",)),
    ("operators.assemble_hamiltonian", ("calls", "self_ms", "unique_ratio")),
    ("operators.LatticeOperator.to_dense", ("calls",)),
    ("scipy.sparse.kron", ("calls", "ms")),
    ("dynamics.evolve", ("calls", "self_ms")),
    ("dynamics.evolve_open", ("calls", "self_ms")),
    ("numpy.linalg.eigh", ("calls", "ms", "unique_ratio")),
    ("numpy.linalg.eig", ("calls", "ms")),
    ("scipy.integrate.solve_ivp", ("calls",)),
    ("spectrum.diagonalize", ("calls", "ms")),
    ("spectrum.zz_exact", ("ms",)),
    ("sizzle.hamiltonian_tomography_pulsewidth", ("calls", "self_ms")),
    ("sizzle.sweep_relative_phase", ("ms",)),
    ("sizzle.sweep_drive_landscape", ("ms",)),
    ("sizzle.calibrate_cz", ("ms",)),
    ("rb.run_rb", ("calls", "self_ms")),
    ("numpy.kron", ("calls", "ms")),
    ("cliffords.inverse_index", ("calls", "ms")),
    ("tomography.state_tomography", ("calls", "ms")),
    ("fitting.levenberg_marquardt", ("calls", "ms")),
)
UNITS = {"calls": "count", "ms": "ms", "self_ms": "ms", "unique_ratio": "ratio"}

OTHER_METRICS = (
    ("cli.import_ms", "ms"),
    ("cli.import.scipy_integrate_ms", "ms"),
    ("cli.import.scipy_sparse_ms", "ms"),
    ("fileio.output_bytes", "bytes"),
    ("rb.clifford_steps", "count"),
    ("fitting.iterations", "count"),
    ("fitting.flagged", "count"),
    ("trace_overhead_ratio", "ratio"),
)

METRICS = (
    tuple((f"{name}.{stat}", UNITS[stat]) for name, stats in SPAN_METRICS for stat in stats)
    + OTHER_METRICS
    + tuple((f"{module}.self_ms", "ms") for module in MODULES)
)


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative import time in ms per module from ``-X importtime`` output."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            out[parts[2].strip()] = int(parts[1]) / 1e3
    return out


def _fit_records(value):
    """Every serialized FitResult inside a command's output."""
    if isinstance(value, dict):
        if {"converged", "iterations", "flags"} <= value.keys():
            yield value
        else:
            for v in value.values():
                yield from _fit_records(v)
    elif isinstance(value, list):
        for v in value:
            yield from _fit_records(v)


def _clifford_steps(payload: dict) -> int:
    """Sum over qubits, sequences and lengths m of the m + 1 Cliffords applied."""
    if payload.get("command") != "rb":
        return 0
    return sum(
        len(outcome["per_sequence"]) * sum(m + 1 for m in outcome["lengths"])
        for outcome in payload["outcomes"].values()
    )


def pass_metrics(commands: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    Each entry of ``commands`` holds the tracer ``summary`` and ``import_ms``,
    the parsed ``importtime`` table, the ``stdout_bytes`` count and the parsed
    ``payload`` (None when the command failed)."""
    empty = {"calls": 0, "ms": 0.0, "self_ms": 0.0, "distinct": 0}
    totals: dict[str, dict[str, float]] = {}
    for command in commands:
        for name, row in command["summary"].items():
            acc = totals.setdefault(name, dict(empty))
            for key, value in row.items():
                acc[key] += value
    metrics: dict[str, float] = {}
    for name, stats in SPAN_METRICS:
        row = totals.get(name, empty)
        for stat in stats:
            if stat == "unique_ratio":
                metrics[f"{name}.{stat}"] = row["distinct"] / row["calls"] if row["calls"] else 1.0
            else:
                metrics[f"{name}.{stat}"] = row[stat]
    for module in MODULES:
        metrics[f"{module}.self_ms"] = sum(
            (row["self_ms"] for name, row in totals.items() if name.startswith(module + ".")),
            0.0,
        )
    fits = [fit for c in commands if c["payload"] for fit in _fit_records(c["payload"])]
    metrics.update({
        "cli.import_ms": sum(c["import_ms"] for c in commands),
        "cli.import.scipy_integrate_ms": sum(
            c["importtime"].get("scipy.integrate", 0.0) for c in commands
        ),
        "cli.import.scipy_sparse_ms": sum(
            c["importtime"].get("scipy.sparse", 0.0) for c in commands
        ),
        "fileio.output_bytes": sum(c["stdout_bytes"] for c in commands),
        "rb.clifford_steps": sum(_clifford_steps(c["payload"]) for c in commands if c["payload"]),
        "fitting.iterations": sum(fit["iterations"] for fit in fits),
        "fitting.flagged": sum(1 for fit in fits if fit["flags"] or not fit["converged"]),
    })
    return metrics


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(p[name] for p in passes) for name in passes[0]}
