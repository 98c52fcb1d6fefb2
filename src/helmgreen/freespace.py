"""3D free-space Helmholtz inverse in Fourier space and its |z| -> infinity law.

In normalized units (eps0 = mu0 = c = 1) the inverse symbol splits into
longitudinal and transverse projectors:

    symbol(k, z) = (kk/k^2) / z^2 + (1 - kk/k^2) / (z^2 - k^2)

so z^2 symbol = I + k^2 / (z^2 - k^2) (1 - kk/k^2). Test fields are
Gaussian envelopes in k-space with constant polarization, so inner products
and norms have closed forms, and the sphere integral of the transverse
remainder is closed-form too (Funk-Hecke): the coefficient and its
|z| -> infinity defect share one Gauss-Legendre radial rule.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class TestField3D:
    """k-space Gaussian: field_hat(k) = polarization * exp(-|k - center|^2 / (2 width^2))."""

    polarization: tuple
    center: tuple = (0.0, 0.0, 0.0)
    width: float = 1.0

    def __post_init__(self):
        if self.width <= 0:
            raise DomainError("field width must be > 0")


def inner_product(phi, psi):
    """Closed-form <phi, psi> = int conj(phi_hat) . psi_hat dk for Gaussian fields."""
    a = np.asarray(phi.center, dtype=float)
    b = np.asarray(psi.center, dtype=float)
    alpha = 1.0 / (2.0 * phi.width**2)
    beta = 1.0 / (2.0 * psi.width**2)
    pol = np.vdot(np.asarray(phi.polarization), np.asarray(psi.polarization))
    gauss = (math.pi / (alpha + beta)) ** 1.5 * math.exp(
        -alpha * beta / (alpha + beta) * float(np.sum((a - b) ** 2))
    )
    return complex(pol * gauss)


def norm_sq(phi):
    return inner_product(phi, phi).real


@dataclass(frozen=True)
class SphericalQuadrature:
    """`n_radial` Gauss-Legendre radial nodes (and 2 n_radial for the
    estimate); `n_polar` and `n_azimuth` shape only the tensor-rule oracle
    (`tests/oracles.py`), and stay because `perfbench/trace_child.py` reads them."""

    n_radial: int = 80
    n_polar: int = 40
    n_azimuth: int = 80


def _cutoff(phi, psi):
    """The radius beyond which both Gaussian envelopes are below e^-72."""
    return max(
        float(np.linalg.norm(phi.center)) + 12.0 * phi.width,
        float(np.linalg.norm(psi.center)) + 12.0 * psi.width,
    )


def free_coefficient(phi, psi, z, quad=None):
    """<phi, H_0(z)^-1 psi> = (<phi, psi> + T(z)) / z^2, with the closed-form
    `inner_product` and the transverse remainder T of `_transverse_remainder`.

    Returns (value, error_estimate): T's estimate plus the rounding of
    <phi, psi> + T, over |z|^2.
    """
    z = complex(z)
    if z.imag <= 0:
        raise DomainError("free coefficient requires Im z > 0")
    (remainder,), (estimate,) = _transverse_remainder(
        phi, psi, np.array([z]), quad or SphericalQuadrature())
    inner = inner_product(phi, psi)
    rounding = np.finfo(float).eps * (abs(inner) + abs(remainder))
    return complex((inner + remainder) / (z * z)), float(estimate + rounding) / abs(z) ** 2


# Below this a = r|c|/sigma^2 the scaled moments are summed as a series of
# _SERIES_TERMS even powers (the first one left out is below 1e-18). The
# closed form of I2 cancels at small a: against a 40-digit reference it is
# off by 3.8e-13 at a = 0.01, 2.7e-14 at 0.1 and 8e-16 at 1.
_SERIES_A, _SERIES_TERMS = 1.0, 10


def _angular_moments(a):
    """e^-a I0 and e^-a I2 at each a >= 0, with I0 = int_-1^1 e^(a mu) dmu
    and I2 = int_-1^1 mu^2 e^(a mu) dmu."""
    small = a < _SERIES_A
    big = np.where(small, 1.0, a)
    i0 = -np.expm1(-2.0 * big) / big
    i2 = i0 - 2.0 * (1.0 + np.exp(-2.0 * big) - i0) / big**2
    a2 = np.where(small, a * a, 0.0)
    term, s0, s2 = np.ones_like(a), np.zeros_like(a), np.zeros_like(a)
    for j in range(_SERIES_TERMS):
        s0 += term * (2.0 / (2 * j + 1))
        s2 += term * (2.0 / (2 * j + 3))
        term *= a2 / ((2 * j + 1) * (2 * j + 2))
    scale = np.exp(-np.where(small, a, 0.0))
    return np.where(small, scale * s0, i0), np.where(small, scale * s2, i2)


def _radial_rule(phi, psi, k_max, n):
    """The n-node Gauss-Legendre rule on [0, k_max] for the defect: weights
    times r^4 times the sphere integral of conj(phi_hat) . (I - k k / k^2)
    psi_hat at |k| = r, and the nodes' r^2.

    The product of the two Gaussians is one Gaussian with center c and
    width sigma; on the sphere |k| = r its angular factor is e^(a (mu - 1))
    with a = r |c| / sigma^2 and mu = k.c / (r |c|), so by Funk-Hecke
    (Mueller, Spherical Harmonics, LNM 17, 1966) the transverse sandwich is
    pi (pbar.q)(I0 + I2) - pi (3 I2 - I0)(c^.pbar)(c^.q), with e^-a I0 and
    e^-a I2 from `_angular_moments`.
    """
    alpha, beta = 0.5 / phi.width**2, 0.5 / psi.width**2
    a_c, b_c = np.asarray(phi.center, dtype=float), np.asarray(psi.center, dtype=float)
    c = (alpha * a_c + beta * b_c) / (alpha + beta)
    c_norm = float(np.linalg.norm(c))
    c_hat = c / c_norm if c_norm > 0 else c
    sigma2 = 0.5 / (alpha + beta)
    g0 = math.exp(-alpha * beta / (alpha + beta) * float(np.sum((a_c - b_c) ** 2)))
    p_bar = np.conj(np.asarray(phi.polarization))
    q = np.asarray(psi.polarization)
    pq, cp, cq = np.sum(p_bar * q), c_hat @ p_bar, c_hat @ q

    x, w = np.polynomial.legendre.leggauss(n)
    r = 0.5 * k_max * (x + 1.0)
    i0, i2 = _angular_moments(r * c_norm / sigma2)
    sphere = math.pi * (pq * (i0 + i2) - (3.0 * i2 - i0) * (cp * cq))
    radial = g0 * np.exp(-((r - c_norm) ** 2) / (2.0 * sigma2))
    r2 = r * r
    return 0.5 * k_max * w * r2 * r2 * radial * sphere, r2


def _transverse_remainder(phi, psi, z, quad):
    """T(z) = z^2 <phi, H_0(z)^-1 psi> - <phi, psi> at each z of a 1-D
    array: the transverse remainder k^2 / (z^2 - k^2) of the symbol summed
    on the quad.n_radial-node `_radial_rule` (no large-z cancellation), and
    each value's error estimate.

    The estimate is twice the nested difference to the rule on twice the
    nodes (a truncation bound whenever doubling the nodes at least halves
    the error, as in `transforms.cauchy_loop`) plus a node-sum rounding
    bound. Returns (remainders, estimates), two arrays.
    """
    k_max = _cutoff(phi, psi)
    sums = []
    for n in (quad.n_radial, 2 * quad.n_radial):
        weights, r2 = _radial_rule(phi, psi, k_max, n)
        terms = weights / (z[:, None] ** 2 - r2)
        sums.append(np.sum(terms, axis=1))
    # the node-sum rounding (2n) u sum |w f| of the larger rule
    rounding = quad.n_radial * np.finfo(float).eps * np.sum(np.abs(terms), axis=1)
    return sums[0], 2.0 * np.abs(sums[0] - sums[1]) + rounding


def asymptotic_defect(phi, psi, z_moduli, theta, quad=None):
    """|z^2 <phi, H_0^-1 psi> - <phi, psi>| along the ray arg z = theta, and
    each value's error estimate: the modulus of `_transverse_remainder` on
    quad.n_radial radial nodes. theta must stay away from the real axis.

    Returns (defects, estimates), two lists in the order of z_moduli.
    """
    if not 0.05 < theta < math.pi - 0.05:
        raise DomainError("ray angle must be bounded away from the real axis")
    z = np.asarray(z_moduli, dtype=float) * complex(math.cos(theta), math.sin(theta))
    if np.any(z.imag <= 0):
        raise DomainError("ray must lie in the upper half-plane")
    remainders, estimates = _transverse_remainder(phi, psi, z, quad or SphericalQuadrature())
    return np.abs(remainders).tolist(), estimates.tolist()
