"""Run one tlattice command in this interpreter with its layer boundaries traced.

Usage::

    python -X importtime perfbench/tracer.py SPANS.json CLI_ARG...

The tracer imports ``transmon_lattice.cli``, then wraps every public function
and public method of the layer modules, plus the dependency entry points in
``DEPENDENCIES``, in every module namespace (and module-level dict) that binds
them.  Each call records a span (name, start, end, parent) in memory.  After
``cli.main`` returns, the spans and a per-name summary (calls, inclusive ms,
self ms, distinct inputs) are written to SPANS.json and the process exits
with the CLI's exit code.  The program itself is not modified.
"""
from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import sys
import time
from dataclasses import fields, is_dataclass

PACKAGE = "transmon_lattice"
MODULES = (
    "cli", "fileio", "device", "operators", "spectrum", "dynamics",
    "sizzle", "cliffords", "rb", "tomography", "fitting",
)
DEPENDENCIES = (
    ("numpy", "kron"),
    ("numpy.linalg", "eigh"),
    ("numpy.linalg", "eig"),
    ("scipy.sparse", "kron"),
    ("scipy.integrate", "solve_ivp"),
)
# Spans whose distinct inputs are counted, for the unique_ratio metrics.
KEYED = frozenset({"operators.assemble_hamiltonian", "numpy.linalg.eigh"})


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.stack = [-1]
        self.distinct: dict[int, set] = {}

    def wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self.stack
        clock = time.perf_counter_ns
        seen = self.distinct.setdefault(name_id, set()) if name in KEYED else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if seen is not None:
                seen.add(_key((args, kwargs)))
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index] = (name_id, start, clock(), parent)
                stack.pop()

        return traced

    def install(self) -> None:
        wrapped: dict[int, object] = {}
        for short in MODULES:
            module = importlib.import_module(f"{PACKAGE}.{short}")
            for attr, value in vars(module).items():
                if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(value):
                    self._wrap_methods(f"{short}.{attr}", value)
                elif inspect.isfunction(value) or hasattr(value, "cache_info"):
                    wrapped[id(value)] = self.wrap(f"{short}.{attr}", value)
        for module_name, attr in DEPENDENCIES:
            original = getattr(importlib.import_module(module_name), attr)
            wrapped[id(original)] = self.wrap(f"{module_name}.{attr}", original)
        for module_name, module in list(sys.modules.items()):
            if module_name == PACKAGE or module_name.startswith(PACKAGE + ".") or any(
                module_name == dep for dep, _ in DEPENDENCIES
            ):
                _rebind(vars(module), wrapped)
                if module_name.startswith(PACKAGE):
                    for attr, table in list(vars(module).items()):
                        if isinstance(table, dict) and not attr.startswith("__"):
                            _rebind(table, wrapped)

    def _wrap_methods(self, prefix: str, cls) -> None:
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{prefix}.{attr}"
            if isinstance(value, (staticmethod, classmethod)):
                setattr(cls, attr, type(value)(self.wrap(name, value.__func__)))
            elif inspect.isfunction(value):
                setattr(cls, attr, self.wrap(name, value))

    def summary(self) -> dict:
        child_ns = [0] * len(self.spans)
        for name_id, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict] = {}
        for index, (name_id, start, end, parent) in enumerate(self.spans):
            row = out.setdefault(self.names[name_id], {"calls": 0, "ms": 0.0, "self_ms": 0.0})
            row["calls"] += 1
            row["ms"] += (end - start) / 1e6
            row["self_ms"] += (end - start - child_ns[index]) / 1e6
        for name_id, seen in self.distinct.items():
            if self.names[name_id] in out:
                out[self.names[name_id]]["distinct"] = len(seen)
        return out


def _rebind(namespace: dict, wrapped: dict) -> None:
    for attr, value in list(namespace.items()):
        replacement = wrapped.get(id(value))
        if replacement is not None:
            namespace[attr] = replacement


def _key(value):
    """A hashable stand-in for a call's inputs; arrays are keyed by their bytes."""
    if isinstance(value, (str, int, float, complex, bool, type(None))):
        return value
    if isinstance(value, (tuple, list)):
        return tuple(_key(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((repr(k), _key(v)) for k, v in value.items()))
    if hasattr(value, "tobytes") and hasattr(value, "shape"):
        digest = hashlib.sha1(value.tobytes()).hexdigest()
        return ("array", value.shape, str(value.dtype), digest)
    if is_dataclass(value):
        return (type(value).__name__,) + tuple(_key(getattr(value, f.name)) for f in fields(value))
    return ("object", id(value))


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    start = time.perf_counter_ns()
    cli = importlib.import_module(f"{PACKAGE}.cli")
    import_ms = (time.perf_counter_ns() - start) / 1e6
    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(cli_args)
    finally:
        sys.stdout.flush()
        with open(spans_path, "w") as fh:
            json.dump(
                {
                    "argv": cli_args,
                    "import_ms": import_ms,
                    "summary": tracer.summary(),
                    "names": tracer.names,
                    "spans": tracer.spans,
                },
                fh,
                separators=(",", ":"),
            )


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
