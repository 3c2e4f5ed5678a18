"""Result records: the swept axes, per-point data and replay metadata of
one protocol run, shared by the protocols, siZZle and the file formats.

numpy is imported where a record is built or read, not at module top, so
that the file formats load without it."""
from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from .errors import ContractViolation
from .values import FrozenValue, Value

if TYPE_CHECKING:
    import numpy as np


class AxisSpec(FrozenValue):
    __slots__ = ("name", "values", "units")

    def __init__(self, name: str, values: tuple[float, ...], units: str):
        self._assign(name, values, units)


class ExperimentRecord(Value):
    """One named protocol run: swept axes, per-point data, and replay
    metadata (config, seed, device reference)."""

    __slots__ = (
        "protocol", "axes", "data", "shots", "seed", "device_ref", "config", "metadata",
    )

    def __init__(
        self,
        protocol: str,
        axes: tuple[AxisSpec, ...],
        data: dict[str, np.ndarray],
        shots: int,
        seed: Optional[int],
        device_ref: str,
        config: Optional[dict] = None,
        metadata: Optional[dict] = None,
    ):
        import numpy as np

        self._assign(
            protocol, axes, data, shots, seed, device_ref,
            {} if config is None else config, {} if metadata is None else metadata,
        )
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
