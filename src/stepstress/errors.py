"""Exception and warning types shared across the package."""


class StepStressError(Exception):
    """Base class for package-specific failures."""


class DataError(StepStressError, ValueError):
    """Raised when input data or a data file is malformed or inconsistent.

    Subclasses ValueError so generic callers that guard against bad values
    keep working.
    """


class ConvergenceError(StepStressError):
    """Raised when an iterative procedure fails to reach its target."""


class NumericError(StepStressError):
    """Raised when a numerical kernel cannot produce a trustworthy result."""


class CensoringWarning(UserWarning):
    """Emitted when observations are silently converted to survivors."""


class ExtrapolationWarning(UserWarning):
    """Emitted when a quantity is evaluated outside the tested stress range."""


class WeakIdentificationWarning(UserWarning):
    """Emitted when intervals are built from a weakly identified fit."""
