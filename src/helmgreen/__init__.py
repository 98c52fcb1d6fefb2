"""helmgreen: certified numerics for dispersive Helmholtz resolvents.

Permittivity models with Kramers-Kronig structure, discretized 1D Helmholtz
operators at complex frequency, cavity-mode spectral densities, causal
time-domain transforms and the 3D free-space symbol — each shipped with the
checks (passivity, norm bounds, analyticity loops, causality, asymptotics)
that certify the computed quantities.
"""

from ._kernels import BACKEND
from .errors import (
    ConfigError,
    DomainError,
    GapViolationError,
    HelmgreenError,
    NonDecayingIntegrandError,
    PeriodicityError,
    PoleProximityError,
    QuadratureError,
    SingularMatrixError,
)

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "__version__",
    "ConfigError",
    "DomainError",
    "GapViolationError",
    "HelmgreenError",
    "NonDecayingIntegrandError",
    "PeriodicityError",
    "PoleProximityError",
    "QuadratureError",
    "SingularMatrixError",
]
