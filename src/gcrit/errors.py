"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ConfigurationError(ValueError):
    """A potential or run configuration is structurally invalid."""


class TruncationError(RuntimeError):
    """A tail never drops below the requested tolerance within the radius cap."""


class AccuracyError(RuntimeError):
    """A numerical budget was exhausted before the target accuracy was met,
    or a defining integral of a valid shape, or a bound formed from one,
    under- or overflowed.

    Carries the best estimate produced so far, when one exists.
    """

    def __init__(self, message, best_estimate=None, error_estimate=None):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.error_estimate = error_estimate


class SearchRangeError(RuntimeError):
    """A root or threshold search exhausted its admissible range."""


class IntegrationError(RuntimeError):
    """The ODE integrator, a quadrature integrand or a frozen quadrature rule
    produced a non-finite value."""


class NoBoundStateError(RuntimeError):
    """The shooting scan found no zero-energy threshold below its strength cap."""


class InvariantViolation(RuntimeError):
    """A mathematical ordering that must hold was violated numerically."""
