"""Exception types shared across the package.

The CLI maps every HelmgreenError, every float-range error (numpy's
FloatingPointError, OverflowError, ZeroDivisionError, LinAlgError) and a
MemoryError to exit code 2; other exceptions propagate.
"""


class HelmgreenError(Exception):
    """Base class for all package errors: the one class the CLI catches."""


class ConfigError(HelmgreenError):
    """Malformed input: a run configuration or medium file that cannot be read
    or parsed, or a key, type, count or range that the file format refuses."""


class DomainError(HelmgreenError):
    """Well-formed input that the mathematics, or the method computing it,
    refuses: Im z outside the half-plane, a pole or the oscillator gap, a
    medium that leaves the Bloch unit cell, a zero pivot, a quadrature or a
    contour window that cannot reach its tolerance."""
