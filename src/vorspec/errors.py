"""Exception types shared across the package."""

__all__ = [
    "VorspecError",
    "GridMismatchError",
    "MeanViolationError",
    "NotDivergenceFreeError",
    "BlowUpError",
    "ConfigError",
]


class VorspecError(Exception):
    """Base class for all package-specific errors."""


class GridMismatchError(VorspecError, ValueError):
    """Operands live on different grids."""


class MeanViolationError(VorspecError, ValueError):
    """A field that must be mean-free carries a mean beyond tolerance."""


class NotDivergenceFreeError(VorspecError, ValueError):
    """A velocity field violates the discrete divergence-free precondition."""


class BlowUpError(VorspecError, RuntimeError):
    """The solution became non-finite or grew beyond the blow-up threshold.

    Attributes
    ----------
    step : int
        Index of the failed step.
    last_record : object or None
        Most recent diagnostics record before the failure, if any.
    """

    def __init__(self, message, step, last_record=None):
        super().__init__(message)
        self.step = step
        self.last_record = last_record


class ConfigError(VorspecError, ValueError):
    """A run configuration violates its invariants."""
