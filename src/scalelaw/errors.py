"""Exception taxonomy.

Two families matter to callers: InputError means the inputs were malformed
or inconsistent before any computation started, NumericalError means a
computation ran and could not produce a usable result.  The command-line
front end maps them to exit codes 1 and 2.
"""

from __future__ import annotations

import math


class ScaleLawError(Exception):
    """Base class for every error raised by this package."""


class InputError(ScaleLawError):
    """Bad or inconsistent input (exit code 1 at the CLI)."""


class NumericalError(ScaleLawError):
    """A computation failed to produce a usable result (exit code 2 at the CLI)."""


class ParseError(InputError):
    def __init__(self, message: str, line_no: int | None = None, field: str | None = None):
        self.line_no = line_no
        self.field = field
        prefix = f"line {line_no}: " if line_no is not None else ""
        suffix = f" (field: {field})" if field else ""
        super().__init__(f"{prefix}{message}{suffix}")


class ConflictError(InputError):
    """Duplicate identifiers within one data set."""


class ValidationError(InputError):
    """A structural invariant of a record or argument does not hold."""


def check_positive(name: str, value: float) -> None:
    """Refuse a value that is not positive and finite, NaN included (it
    fails every comparison), with a ValidationError naming it."""
    if not 0 < value < math.inf:
        raise ValidationError(f"{name} must be positive and finite, got {value}")


def check_non_negative(name: str, value: float) -> None:
    """Refuse a value that is negative, NaN or infinite."""
    if not 0 <= value < math.inf:
        raise ValidationError(f"{name} must be non-negative and finite, got {value}")


class InsufficientDataError(InputError):
    """Too few points or runs for the requested operation."""


class DegenerateVarianceError(InputError):
    """Observed values are all equal, so a goodness-of-fit ratio is undefined."""


class PreRangeLossError(NumericalError):
    """Requested loss lies above the start of the curve."""


class UnreachableLossError(NumericalError):
    """Requested loss lies below the best loss the curve attains."""


class InfeasibleTargetError(NumericalError):
    """Target loss below the asymptotic floor of a law; carries the floor."""

    def __init__(self, message: str, floor: float):
        self.floor = floor
        super().__init__(message)


class FitFailureError(NumericalError):
    """No initialization of a fit converged; carries the best partial result."""

    def __init__(self, message: str, best_partial: object = None):
        self.best_partial = best_partial
        super().__init__(message)


class EmptyEnvelopeError(NumericalError):
    """No run covers any requested compute grid point."""


class InsufficientFrontierError(NumericalError):
    """Fewer frontier points than a regression needs."""


class EmptyContourError(NumericalError):
    """A requested loss level is unreachable at every batch size."""

    def __init__(self, message: str, level: float | None = None):
        self.level = level
        super().__init__(message)


class NoMinimumError(NumericalError):
    """A contour has no interior minimum (flat or concave in log-log space)."""


class InsufficientGridError(InputError):
    """A loss surface is too sparse to interpolate."""


class GammaUndefinedError(NumericalError):
    """Every batch-size sample sits in the LR plateau; carries the ceiling."""

    def __init__(self, message: str, lr_ceiling: float):
        self.lr_ceiling = lr_ceiling
        super().__init__(message)
