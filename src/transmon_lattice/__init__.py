"""Desk-scale simulator and calibration toolkit for a 4x4 lattice of
fixed-frequency transmon qubits.

Subpackages by role: ``device`` (parameters, circuit relations and a
pair's static ZZ), ``operators`` (subset Hamiltonians), ``spectrum``
(dressed spectra), ``dynamics`` (driven evolution), ``protocols`` (T1,
Ramsey, echo, swap and AC-Stark measurements), ``records`` (result records),
``sizzle`` (Stark-boosted ZZ and CZ calibration), ``cliffords``/``rb``
(randomized benchmarking), ``tomography`` (state reconstruction),
``fitting`` (least-squares models), ``fileio``/``cli`` (formats and the
command line).

The names below load their module on first access (PEP 562), so
importing the package alone loads no submodule.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "device": (
        "CouplingGraph", "DeviceSpec", "ResonatorParams", "TransmonParams", "ZZReport",
        "detuning", "ej_from_omega", "omega_from_ej_ec", "straddling_check", "zz_exact",
        "zz_perturbative",
    ),
    "dynamics": ("NoiseSpec",),
    "records": ("ExperimentRecord",),
    "fitting": ("FitResult",),
    "fileio": ("load_bundled_device", "load_device", "save_device", "stats"),
    "operators": ("LatticeOperator", "SubsetSelection", "assemble_hamiltonian"),
    "spectrum": ("j_from_zz",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value
