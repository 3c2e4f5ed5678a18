"""File formats, the bundled reference device, statistics, and plots.

Devices and results are human-readable JSON with a schema version;
floats serialize via Python's shortest round-trip representation, so a
load/save cycle is bit-exact.  Sweep tables are CSV with the axis
first, then one column per observable.  Plots are self-contained SVG.
Statistics are computed in pure Python, summed in numpy's order, and
numpy is imported only by the functions that build or read arrays, so
loading a device and computing its statistics run without numpy.
"""
from __future__ import annotations

import json
import math
from importlib import resources
from pathlib import Path
from typing import Mapping, Sequence, Union

from .device import (
    CouplingGraph,
    DeviceSpec,
    Pair,
    ResonatorParams,
    TransmonParams,
    pair_key,
)
from .errors import SchemaError, UnknownColumnError
from .records import AxisSpec, ExperimentRecord
from .values import FrozenValue

SCHEMA_VERSION = 1
BUNDLED_DEVICE = "device_4x4.json"

_QUBIT_FIELDS = {"label", "omega", "alpha", "ej", "ec", "t1", "t2r", "t2e"}
_RESONATOR_FIELDS = {"label", "freq", "qi", "kappa_ext", "chi"}
_COUPLING_FIELDS = {"nn", "lr", "ecc"}
_DEVICE_FIELDS = {"rows", "cols", "qubits", "resonators", "couplings"}
_TOP_FIELDS = {"schema_version", "provenance", "device"}


def _require(obj: dict, allowed: set, required: set, path: str) -> None:
    if not isinstance(obj, dict):
        raise SchemaError(f"expected an object, got {type(obj).__name__}", path)
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise SchemaError(f"unknown field {unknown[0]!r}", f"{path}.{unknown[0]}")
    missing = sorted(required - set(obj))
    if missing:
        raise SchemaError(f"missing field {missing[0]!r}", f"{path}.{missing[0]}")


def _number(obj: dict, key: str, path: str) -> float:
    value = obj[key]
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise SchemaError("expected a number", f"{path}.{key}")
    return float(value)


def _pair_table(entries, path: str) -> dict[Pair, float]:
    if not isinstance(entries, list):
        raise SchemaError("expected a list of pair entries", path)
    table: dict[Pair, float] = {}
    for i, entry in enumerate(entries):
        epath = f"{path}[{i}]"
        _require(entry, {"pair", "value"}, {"pair", "value"}, epath)
        pair = entry["pair"]
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(isinstance(x, str) for x in pair)
        ):
            raise SchemaError("pair must be a list of two labels", f"{epath}.pair")
        key = pair_key(pair[0], pair[1])
        if key in table:
            raise SchemaError(f"duplicate pair {key}", f"{epath}.pair")
        table[key] = _number(entry, "value", epath)
    return table


def device_to_dict(spec: DeviceSpec, provenance: str = "") -> dict:
    def pairs(table: Mapping[Pair, float]) -> list:
        return [
            {"pair": list(pair), "value": value} for pair, value in sorted(table.items())
        ]

    return {
        "schema_version": SCHEMA_VERSION,
        "provenance": provenance,
        "device": {
            "rows": spec.rows,
            "cols": spec.cols,
            "qubits": [
                {
                    "label": q.label,
                    "omega": q.omega,
                    "alpha": q.alpha,
                    "ej": q.ej,
                    "ec": q.ec,
                    "t1": q.t1,
                    "t2r": q.t2r,
                    "t2e": q.t2e,
                }
                for q in spec.qubits
            ],
            "resonators": [
                {
                    "label": r.label,
                    "freq": r.freq,
                    "qi": r.qi,
                    "kappa_ext": r.kappa_ext,
                    "chi": r.chi,
                }
                for r in spec.resonators
            ],
            "couplings": {
                "nn": pairs(spec.couplings.nn),
                "lr": pairs(spec.couplings.lr),
                "ecc": pairs(spec.couplings.ecc),
            },
        },
    }


def device_from_dict(payload: dict) -> DeviceSpec:
    _require(payload, _TOP_FIELDS, {"schema_version", "device"}, "$")
    version = payload["schema_version"]
    if version != SCHEMA_VERSION:
        raise SchemaError(f"unsupported schema version {version}", "$.schema_version")
    dev = payload["device"]
    _require(dev, _DEVICE_FIELDS, {"rows", "cols", "qubits", "couplings"}, "$.device")

    qubits = []
    if not isinstance(dev["qubits"], list):
        raise SchemaError("expected a list", "$.device.qubits")
    for i, q in enumerate(dev["qubits"]):
        path = f"$.device.qubits[{i}]"
        _require(q, _QUBIT_FIELDS, _QUBIT_FIELDS, path)
        if not isinstance(q["label"], str):
            raise SchemaError("label must be a string", f"{path}.label")
        try:
            qubits.append(
                TransmonParams(
                    label=q["label"],
                    omega=_number(q, "omega", path),
                    alpha=_number(q, "alpha", path),
                    ej=_number(q, "ej", path),
                    ec=_number(q, "ec", path),
                    t1=_number(q, "t1", path),
                    t2r=_number(q, "t2r", path),
                    t2e=_number(q, "t2e", path),
                )
            )
        except ValueError as exc:
            raise SchemaError(str(exc), path) from exc

    resonators = []
    for i, r in enumerate(dev.get("resonators", [])):
        path = f"$.device.resonators[{i}]"
        _require(r, _RESONATOR_FIELDS, _RESONATOR_FIELDS, path)
        try:
            resonators.append(
                ResonatorParams(
                    label=r["label"],
                    freq=_number(r, "freq", path),
                    qi=_number(r, "qi", path),
                    kappa_ext=_number(r, "kappa_ext", path),
                    chi=_number(r, "chi", path),
                )
            )
        except ValueError as exc:
            raise SchemaError(str(exc), path) from exc

    cpath = "$.device.couplings"
    _require(dev["couplings"], _COUPLING_FIELDS, {"nn"}, cpath)
    couplings = CouplingGraph(
        nn=_pair_table(dev["couplings"]["nn"], f"{cpath}.nn"),
        lr=_pair_table(dev["couplings"].get("lr", []), f"{cpath}.lr"),
        ecc=_pair_table(dev["couplings"].get("ecc", []), f"{cpath}.ecc"),
    )
    try:
        return DeviceSpec(
            rows=int(dev["rows"]),
            cols=int(dev["cols"]),
            qubits=tuple(qubits),
            resonators=tuple(resonators),
            couplings=couplings,
        )
    except ValueError as exc:
        raise SchemaError(str(exc), "$.device") from exc


def save_device(spec: DeviceSpec, path: Union[str, Path], provenance: str = "") -> None:
    Path(path).write_text(
        json.dumps(device_to_dict(spec, provenance), indent=2) + "\n"
    )


def load_device(path: Union[str, Path]) -> DeviceSpec:
    path = Path(path)
    if not path.exists():
        raise SchemaError(f"device file not found: {path}", "$")
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}", "$") from exc
    return device_from_dict(payload)


def bundled_device_path() -> Path:
    return Path(resources.files("transmon_lattice.data") / BUNDLED_DEVICE)


def load_bundled_device() -> DeviceSpec:
    return load_device(bundled_device_path())


# ------------------------------------------------------------------- stats

#: published lattice-wide summary values; computed statistics that
#: disagree with these are reported, never patched.
PUBLISHED_SUMMARY = {
    "alpha": {"mean": -196.4, "std": 1.1, "stderr": 0.3},
    "t1": {"mean": 71.0, "std": 21.0, "stderr": 5.0, "min": 41.0, "max": 126.0},
    "t2r": {"mean": 51.0, "std": 17.0, "stderr": 4.0, "min": 32.0, "max": 107.0},
    "t2e": {"mean": 78.0, "std": 20.0, "stderr": 5.0, "min": 45.0, "max": 124.0},
    "j": {"mean": 0.623, "std": 0.173, "min": 0.401, "max": 1.064, "spread": 0.269},
    "omega": {"mean": 4856.5, "min": 4777.3, "max": 5040.2},
    "freq": {"mean": 9333.5, "std": 407.12, "stderr": 101.8},
    "qi": {"mean": 10.1, "std": 5.3},
    "kappa_ext": {"mean": 1.9, "std": 0.96},
    "chi": {"mean": -203.1, "std": 26.3},
}

_QUBIT_COLUMNS = ("omega", "alpha", "ej", "ec", "t1", "t2r", "t2e")
_RESONATOR_COLUMNS = ("freq", "qi", "kappa_ext", "chi")


class StatsReport(FrozenValue):
    """Sample statistics of one device column (std uses ddof=1)."""

    __slots__ = ("column", "n", "minimum", "maximum", "mean", "std", "stderr", "spread")

    def __init__(
        self,
        column: str,
        n: int,
        minimum: float,
        maximum: float,
        mean: float,
        std: float,
        stderr: float,
        spread: float,
    ):
        self._assign(column, n, minimum, maximum, mean, std, stderr, spread)

    def to_dict(self) -> dict:
        return {
            "column": self.column,
            "n": self.n,
            "min": self.minimum,
            "max": self.maximum,
            "mean": self.mean,
            "std": self.std,
            "stderr": self.stderr,
            "spread": self.spread,
        }


def device_columns(device: DeviceSpec) -> tuple[str, ...]:
    """The statistics columns a device has data for: the resonator
    columns only when it lists resonators."""
    return _QUBIT_COLUMNS + (_RESONATOR_COLUMNS if device.resonators else ()) + ("j",)


def column_values(device: DeviceSpec, column: str) -> list[float]:
    if column in _QUBIT_COLUMNS:
        return [float(getattr(q, column)) for q in device.qubits]
    if column in _RESONATOR_COLUMNS:
        if not device.resonators:
            raise ValueError(f"device has no resonator data for column {column!r}")
        return [float(getattr(r, column)) for r in device.resonators]
    if column == "j":
        return [float(device.couplings.nn[p]) for p in device.nn_pairs()]
    raise UnknownColumnError(column, _QUBIT_COLUMNS + _RESONATOR_COLUMNS + ("j",))


def _pairwise_sum(values: Sequence[float]) -> float:
    """Sum in the order of numpy's pairwise float reduction: up to 128
    values go into 8 running partial sums combined as a tree and the
    remainder is added one by one (fewer than 8 are summed in a plain
    loop); longer inputs split at half the length rounded down to a
    multiple of 8."""
    n = len(values)
    if n > 128:
        half = n // 2 - (n // 2) % 8
        return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])
    total = 0.0
    stop = 0 if n < 8 else n - n % 8
    if stop:
        r = values[:8]
        for i in range(8, stop, 8):
            r = [a + b for a, b in zip(r, values[i:i + 8])]
        total += ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for value in values[stop:]:
        total += value
    return total


def _mean_std(values: Sequence[float]) -> tuple[float, float]:
    """Mean and sample standard deviation (ddof=1, 0 for one value),
    equal bit for bit to numpy's ``mean()`` and ``std(ddof=1)`` without
    importing numpy."""
    n = len(values)
    mean = _pairwise_sum(values) / n
    if n == 1:
        return mean, 0.0
    return mean, math.sqrt(_pairwise_sum([(v - mean) * (v - mean) for v in values]) / (n - 1))


def stats(device: DeviceSpec, column: str) -> StatsReport:
    values = column_values(device, column)
    n = len(values)
    if not n:
        raise ValueError(f"device has no values in column {column!r}")
    mean, std = _mean_std(values)
    nan = any(math.isnan(v) for v in values)  # numpy's min and max propagate NaN
    return StatsReport(
        column=column,
        n=n,
        minimum=math.nan if nan else min(values),
        maximum=math.nan if nan else max(values),
        mean=mean,
        std=std,
        stderr=std / math.sqrt(n),
        spread=std / abs(mean) if mean else math.inf,
    )


def summary_discrepancies(device: DeviceSpec) -> list[str]:
    """Computed stats vs the published summary rows, one line per
    mismatch beyond printed rounding."""
    notes = []
    columns = device_columns(device)
    for column, published in PUBLISHED_SUMMARY.items():
        if column not in columns:
            continue
        report = stats(device, column)
        computed = {
            "mean": report.mean,
            "std": report.std,
            "stderr": report.stderr,
            "min": report.minimum,
            "max": report.maximum,
            "spread": report.spread,
        }
        for key, target in published.items():
            value = computed[key]
            # compare at the precision the summary was printed with
            printed_step = 10.0 ** -_printed_decimals(target)
            if abs(value - target) > 0.5 * printed_step + 1e-12:
                notes.append(
                    f"{column}.{key}: computed {value:.6g} vs published {target:g}"
                )
    return notes


def _printed_decimals(value: float) -> int:
    text = f"{value:g}"
    return len(text.split(".")[1]) if "." in text else 0


# ------------------------------------------------------------------ records

def record_to_dict(record: ExperimentRecord) -> dict:
    import numpy as np

    return {
        "schema_version": record.schema_version,
        "protocol": record.protocol,
        "axes": [
            {"name": ax.name, "values": list(ax.values), "units": ax.units}
            for ax in record.axes
        ],
        "data": {key: np.asarray(val).tolist() for key, val in record.data.items()},
        "shots": record.shots,
        "seed": record.seed,
        "device_ref": record.device_ref,
        "config": record.config,
        "metadata": record.metadata,
    }


def record_from_dict(payload: dict) -> ExperimentRecord:
    import numpy as np

    axes = tuple(
        AxisSpec(ax["name"], tuple(ax["values"]), ax["units"])
        for ax in payload["axes"]
    )
    return ExperimentRecord(
        protocol=payload["protocol"],
        axes=axes,
        data={key: np.asarray(val) for key, val in payload["data"].items()},
        shots=payload["shots"],
        seed=payload["seed"],
        device_ref=payload["device_ref"],
        config=payload.get("config", {}),
        metadata=payload.get("metadata", {}),
        schema_version=payload.get("schema_version", SCHEMA_VERSION),
    )


def save_record(record: ExperimentRecord, path: Union[str, Path]) -> None:
    Path(path).write_text(json.dumps(record_to_dict(record), indent=2) + "\n")


def load_record(path: Union[str, Path]) -> ExperimentRecord:
    return record_from_dict(json.loads(Path(path).read_text()))


# ------------------------------------------------------------------- tables

def table_csv(
    axis_name: str,
    axis_units: str,
    axis: Sequence[float],
    columns: Mapping[str, Sequence[float]],
) -> str:
    """CSV with the axis first (name and units in the header), then one
    column per observable."""
    header = [f"{axis_name}[{axis_units}]"] + list(columns)
    lines = [",".join(header)]
    for row in zip(axis, *columns.values()):
        lines.append(",".join(repr(float(x)) for x in row))
    return "\n".join(lines) + "\n"


def write_table(path: Union[str, Path], axis_name: str, axis_units: str, axis, columns) -> None:
    """Write :func:`table_csv` to ``path``."""
    Path(path).write_text(table_csv(axis_name, axis_units, axis, columns))


# -------------------------------------------------------------------- plots

_SVG_COLORS = ("#1f62a8", "#c23b22", "#3a7d44", "#8460a8", "#b0791a", "#4a9a9e")


def write_svg_plot(
    path: Union[str, Path],
    x: Sequence[float],
    curves: Mapping[str, Sequence[float]],
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    width: int = 640,
    height: int = 420,
) -> None:
    """Minimal deterministic line plot as a standalone SVG file."""
    import numpy as np

    x = np.asarray(x, dtype=float)
    ys = {k: np.asarray(v, dtype=float) for k, v in curves.items()}
    margin = 58
    x0, x1 = float(x.min()), float(x.max())
    all_y = np.concatenate(list(ys.values())) if ys else np.array([0.0, 1.0])
    y0, y1 = float(all_y.min()), float(all_y.max())
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    pad = 0.05 * (y1 - y0)
    y0, y1 = y0 - pad, y1 + pad

    def sx(v: float) -> float:
        return margin + (v - x0) / (x1 - x0) * (width - 2 * margin)

    def sy(v: float) -> float:
        return height - margin - (v - y0) / (y1 - y0) * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{margin}" y="{margin}" width="{width - 2 * margin}" '
        f'height="{height - 2 * margin}" fill="none" stroke="black"/>',
    ]
    for i, (label, y) in enumerate(ys.items()):
        color = _SVG_COLORS[i % len(_SVG_COLORS)]
        points = " ".join(f"{sx(xi):.2f},{sy(yi):.2f}" for xi, yi in zip(x, y))
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{width - margin + 4}" y="{margin + 16 * (i + 1)}" '
            f'font-size="11" fill="{color}">{label}</text>'
        )
    for frac in (0.0, 0.5, 1.0):
        xv = x0 + frac * (x1 - x0)
        yv = y0 + frac * (y1 - y0)
        parts.append(
            f'<text x="{sx(xv):.1f}" y="{height - margin + 16}" font-size="11" '
            f'text-anchor="middle">{xv:.4g}</text>'
        )
        parts.append(
            f'<text x="{margin - 6}" y="{sy(yv):.1f}" font-size="11" '
            f'text-anchor="end">{yv:.4g}</text>'
        )
    if title:
        parts.append(
            f'<text x="{width / 2:.0f}" y="24" font-size="14" text-anchor="middle">{title}</text>'
        )
    if xlabel:
        parts.append(
            f'<text x="{width / 2:.0f}" y="{height - 12}" font-size="12" '
            f'text-anchor="middle">{xlabel}</text>'
        )
    if ylabel:
        parts.append(
            f'<text x="16" y="{height / 2:.0f}" font-size="12" text-anchor="middle" '
            f'transform="rotate(-90 16 {height / 2:.0f})">{ylabel}</text>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")
