"""Base classes of the package's value types.

A value type is a plain class whose fields are its ``__slots__``, in
order, set by an explicit ``__init__`` that also validates them.  The
bases give it equality and ``repr`` by field value; :class:`FrozenValue`
adds hashing by value and refuses assignment after ``__init__``.

These classes are not dataclasses: every process compiles the package
from source, and ``@dataclass`` generates and compiles several functions
per class at import (about 1.2 ms a class on CPython 3.11), where a plain
class body costs a tenth of that.
"""
from __future__ import annotations

_set = object.__setattr__


class Value:
    """Equality and ``repr`` by field value; mutable, hence unhashable."""

    __slots__ = ()

    def _assign(self, *values) -> None:
        """Set the fields, in ``__slots__`` order (also on a frozen value)."""
        for name, value in zip(self.__slots__, values):
            _set(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__slots__])
        return f"{self.__class__.__qualname__}({fields})"


class FrozenValue(Value):
    """A :class:`Value` that hashes by value and refuses assignment."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen value")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen value")
