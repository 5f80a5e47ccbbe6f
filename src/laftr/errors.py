"""Exception types shared across the package."""

__all__ = ["LaftrError", "ParseError", "NumericalError", "UndefinedMetricError"]


class LaftrError(Exception):
    """Base class for all package-specific errors."""


class ParseError(LaftrError):
    """A data file could not be parsed. Carries the offending line number."""

    def __init__(self, message, line_number=None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class NumericalError(LaftrError):
    """The optimizer hit a non-finite objective. ``state`` holds a diagnostic snapshot."""

    def __init__(self, message, state=None):
        super().__init__(message)
        self.state = state


class UndefinedMetricError(LaftrError):
    """A metric was requested on inputs where it is undefined (e.g. single-class AUC)."""
