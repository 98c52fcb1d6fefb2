"""Exception types shared across the package.

The CLI maps every HelmgreenError, and every float-range error (numpy's
FloatingPointError, OverflowError, ZeroDivisionError, LinAlgError), to exit
code 2; other exceptions propagate.
"""


class HelmgreenError(Exception):
    """Base class for all package errors."""


class DomainError(HelmgreenError):
    """Input outside the mathematical domain of an operation (e.g. Im z <= 0)."""


class PoleProximityError(DomainError):
    """Evaluation point closer to a pole than the configured floor."""


class GapViolationError(DomainError):
    """Oscillator density on the grid has support at or below the frequency
    omega0 of the non-dispersive kind."""


class PeriodicityError(DomainError):
    """Bloch boundary requested for a medium that is not L-periodic."""


class SingularMatrixError(HelmgreenError):
    """Banded factorization broke down (operator outside its invertibility domain)."""


class QuadratureError(HelmgreenError):
    """Quadrature failed to reach the requested tolerance."""

    def __init__(self, message, estimate=None):
        super().__init__(message)
        self.estimate = estimate


class NonDecayingIntegrandError(HelmgreenError):
    """Contour integrand does not decay at the window edge; the window is too small."""


class ConfigError(HelmgreenError):
    """Malformed run configuration or medium description file."""
