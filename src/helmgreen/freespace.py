"""3D free-space Helmholtz inverse in Fourier space and its |z| -> infinity law.

In normalized units (eps0 = mu0 = c = 1) the inverse symbol splits into
longitudinal and transverse projectors:

    symbol(k, z) = (kk/k^2) / z^2 + (1 - kk/k^2) / (z^2 - k^2)

Test fields are Gaussian envelopes in k-space with constant polarization,
so inner products and norms have closed forms and the coefficient needs a
single spherical quadrature layer.
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

    def envelope(self, k):
        """Scalar envelope at k, shape (..., 3) -> (...)."""
        d = np.asarray(k, dtype=float) - np.asarray(self.center)
        return np.exp(-np.sum(d * d, axis=-1) / (2.0 * self.width**2))

    def amplitude(self, k):
        return self.envelope(k)[..., None] * np.asarray(self.polarization)


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
    """Tensor-product rule: Gauss-Legendre radial x Gauss-Legendre in cos(theta)
    x trapezoid in azimuth, truncated at k_max."""

    n_radial: int = 80
    n_polar: int = 40
    n_azimuth: int = 80

    def nodes_weights(self, k_max):
        xr, wr = np.polynomial.legendre.leggauss(self.n_radial)
        r = 0.5 * k_max * (xr + 1.0)
        wr = 0.5 * k_max * wr
        xm, wm = np.polynomial.legendre.leggauss(self.n_polar)
        phi = 2.0 * math.pi * np.arange(self.n_azimuth) / self.n_azimuth
        wphi = 2.0 * math.pi / self.n_azimuth
        sin_t = np.sqrt(1.0 - xm**2)
        kx = r[:, None, None] * sin_t[None, :, None] * np.cos(phi)[None, None, :]
        ky = r[:, None, None] * sin_t[None, :, None] * np.sin(phi)[None, None, :]
        kz = r[:, None, None] * xm[None, :, None] * np.ones_like(phi)[None, None, :]
        k = np.stack([kx, ky, kz], axis=-1).reshape(-1, 3)
        w = (r**2 * wr)[:, None, None] * wm[None, :, None] * np.full(self.n_azimuth, wphi)
        return k, w.reshape(-1)


def free_symbol(k, z):
    """3x3 inverse symbol at one real wavevector: `_symbol_apply_batch` on
    the unit vectors, one per column; removable limit at k = 0."""
    z = complex(z)
    if z.imag <= 0:
        raise DomainError("free symbol requires Im z > 0")
    k = np.broadcast_to(np.asarray(k, dtype=float), (3, 3))
    return _symbol_apply_batch(k, z, np.eye(3)).T


def _projections(k, vec):
    """(k^2, longitudinal, transverse) parts of vec along each wavevector k."""
    k2 = np.sum(k * k, axis=-1)
    safe_k2 = np.where(k2 > 0, k2, 1.0)
    longi = (np.sum(k * vec, axis=-1) / safe_k2)[:, None] * k
    return k2, longi, vec - longi


def _symbol_apply_batch(k, z, vec):
    """symbol(k, z) . vec for a batch of wavevectors; vec shape (B, 3)."""
    z2 = z * z
    k2, longi, trans = _projections(k, vec)
    out = longi / z2 + trans / (z2 - k2)[:, None]
    return np.where(k2[:, None] > 0, out, vec / z2)


def _sandwich_nodes(phi, psi, quad):
    """(k_max, k, w, env_phi, amp_psi): the Gaussian cut-off radius, the
    quadrature nodes and weights inside it, and phi's envelope and psi's
    amplitude at the nodes."""
    quad = quad or SphericalQuadrature()
    k_max = max(
        float(np.linalg.norm(phi.center)) + 12.0 * phi.width,
        float(np.linalg.norm(psi.center)) + 12.0 * psi.width,
    )
    k, w = quad.nodes_weights(k_max)
    return k_max, k, w, phi.envelope(k), psi.amplitude(k)


def free_coefficient(phi, psi, z, quad=None):
    """<phi, H_0(z)^-1 psi> by spherical quadrature of the symbol sandwich.

    Returns (value, tail_estimate); the tail estimate reflects the Gaussian
    decay beyond the radial truncation.
    """
    z = complex(z)
    if z.imag <= 0:
        raise DomainError("free coefficient requires Im z > 0")
    k_max, k, w, env_phi, amp_psi = _sandwich_nodes(phi, psi, quad)
    applied = _symbol_apply_batch(k, z, amp_psi)
    integrand = env_phi * (applied @ np.conj(np.asarray(phi.polarization)))
    value = complex(np.sum(w * integrand))
    edge = math.exp(-((k_max - float(np.linalg.norm(phi.center))) ** 2) / (2.0 * phi.width**2))
    tail = edge * max(abs(value), norm_sq(phi) ** 0.5 * norm_sq(psi) ** 0.5)
    return value, tail


def asymptotic_defect(phi, psi, z_moduli, theta, quad=None):
    """|z^2 <phi, H_0^-1 psi> - <phi, psi>| along the ray arg z = theta.

    Summed directly from the transverse remainder k^2 / (z^2 - k^2) of the
    symbol (no large-z cancellation). theta must stay away from the real axis.
    """
    if not 0.05 < theta < math.pi - 0.05:
        raise DomainError("ray angle must be bounded away from the real axis")
    _, k, w, env_phi, amp_psi = _sandwich_nodes(phi, psi, quad)
    k2, _, trans = _projections(k, amp_psi)
    sandwich = w * env_phi * (trans @ np.conj(np.asarray(phi.polarization))) * k2
    defects = []
    for mod in z_moduli:
        z = mod * complex(math.cos(theta), math.sin(theta))
        if z.imag <= 0:
            raise DomainError("ray must lie in the upper half-plane")
        defects.append(abs(complex(np.sum(sandwich / (z * z - k2)))))
    return defects
