"""Exception types shared across the package.

The CLI maps these onto machine-readable error categories: ``config``
(bad inputs or files), ``physics`` (a computation was requested in a
regime where its result would be meaningless), and ``resource``
(deliberate limits such as the Hilbert-space cap).
"""


class SchemaError(ValueError):
    """A config or device file violates its schema.

    Carries the JSON-ish path of the offending field in ``path``.
    """

    def __init__(self, message: str, path: str = ""):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


class UnknownNameError(KeyError):
    """A name is not among the ``known`` ones of its ``kind``.

    A plain ``KeyError`` prints only the quoted name; this one says what
    went wrong and lists the names that are present.
    """

    kind = "name"

    def __init__(self, label: str, known=()):
        self.label = label
        self.known = tuple(known)
        super().__init__(label)

    def __str__(self) -> str:
        message = f"unknown {self.kind} {self.label!r}"
        if self.known:
            message += f"; known {self.kind}s: {', '.join(self.known)}"
        return message


class UnknownQubitError(UnknownNameError):
    """A qubit label is not present in the device or subset."""

    kind = "qubit"


class UnknownColumnError(UnknownNameError):
    """A statistics column is not one of the device's columns."""

    kind = "column"


class DimensionError(ValueError):
    """Requested truncation has fewer than two levels."""


class ResourceLimitError(ValueError):
    """Hilbert-space dimension exceeds the configured cap."""


class ContractViolation(ValueError):
    """An input breaks a documented precondition (non-Hermitian
    Hamiltonian, negative rates, non-PSD density matrix, ...)."""


class NearPoleError(ValueError):
    """A perturbative denominator is inside the pole guard; the formula
    would return a divergent, physically meaningless number."""


class NearResonanceError(ValueError):
    """Anticrossing fit fed detunings inside the guard window around
    zero, where the dispersive model breaks down."""


class InconsistentSignError(ValueError):
    """ZZ value and detuning/anharmonicity signs are incompatible: the
    inverted coupling would be imaginary."""


class LabelingError(RuntimeError):
    """Dressed-state labeling is ambiguous (near-resonant hybridization);
    lists the colliding bare labels."""

    def __init__(self, message: str, labels=()):
        self.labels = tuple(labels)
        super().__init__(message)


class AliasingError(RuntimeError):
    """Sampling grid too coarse to resolve the oscillation being fit or
    the phase being tracked."""


class UncalibratableError(RuntimeError):
    """Measured interaction rate is below the calibration floor."""
