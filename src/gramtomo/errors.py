"""Exception types shared across the package.

The CLI maps these onto exit codes: invalid input -> 1, numerical
consistency -> 2, IO errors (plain OSError) -> 3.
"""


class InvalidInputError(ValueError):
    """Malformed or inconsistent user input (dimensions, configs, ranges)."""


class DegenerateStateError(InvalidInputError):
    """A state constructor produced the zero vector (e.g. odd cat at alpha=0)."""


class EmptyMeasurementError(InvalidInputError):
    """A POVM with zero support where support is required."""


class EmptyDataError(InvalidInputError):
    """A dataset carrying no usable counts or probabilities."""


class NumericalConsistencyError(ArithmeticError):
    """An internal cross-check exceeded its tolerance; the CLI writes the
    command outputs it carries (frames-check's report) before it exits 2."""

    def __init__(self, message: str, outputs: dict | None = None):
        super().__init__(message)
        self.outputs = outputs or {}
