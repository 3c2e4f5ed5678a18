"""Result records: the swept axes, per-point data and replay metadata of
one protocol run, shared by the protocols, siZZle and the file formats.

numpy is imported where a record is built or read, not at module top, so
that the file formats load without it."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from .errors import ContractViolation

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class AxisSpec:
    name: str
    values: tuple[float, ...]
    units: str


@dataclass
class ExperimentRecord:
    """One named protocol run: swept axes, per-point data, and replay
    metadata (config, seed, device reference)."""

    protocol: str
    axes: tuple[AxisSpec, ...]
    data: dict[str, np.ndarray]
    shots: int
    seed: Optional[int]
    device_ref: str
    config: dict = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)
    schema_version: int = 1

    def __post_init__(self):
        import numpy as np

        shape = tuple(len(axis.values) for axis in self.axes)
        for key, values in self.data.items():
            arr = np.asarray(values)
            if arr.shape != shape:
                raise ValueError(
                    f"data[{key!r}] has shape {arr.shape}, axes imply {shape}"
                )
            self.data[key] = arr
            if key.startswith("p_"):
                if arr.size and (arr.min() < -1e-9 or arr.max() > 1 + 1e-9):
                    raise ContractViolation(
                        f"population data[{key!r}] outside [0, 1] beyond tolerance"
                    )
                self.data[key] = np.clip(arr, 0.0, 1.0)

    def axis(self, name: str) -> np.ndarray:
        import numpy as np

        for ax in self.axes:
            if ax.name == name:
                return np.asarray(ax.values)
        raise KeyError(name)
