"""Closed-cavity eigenmodes, spectral densities, Kramers-Kronig
reconstruction of Green's coefficients, and causal time-domain quantities.

The mode-expansion scaling is pinned by the M = N identity: the full
partial sum reproduces the discrete inverse-operator kernel exactly, which
fixes the (eps mu0) weight bookkeeping left implicit in operator form.
"""

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from . import helmholtz, transforms
from .dispersion import PermittivityModel, vacuum_model
from .errors import ConfigError, DomainError

RESONANCE_FLOOR = 1e-10


@dataclass(frozen=True)
class ModeSet:
    """Cavity modes, eps-weighted orthonormal: h sum eps mu0 phi_n phi_m = delta_nm."""

    grid: helmholtz.Grid1D
    eps_const: float
    mu0: float
    omegas: np.ndarray = field(repr=False, default=None)  # strictly increasing
    modes: np.ndarray = field(repr=False, default=None)  # column n = phi_n on the grid


@dataclass(frozen=True)
class SpectralDensity:
    """Broadened density samples D(nu + i zeta) for one probe pair."""

    nu_grid: np.ndarray = field(repr=False, default=None)
    zeta: float = 0.0
    samples: np.ndarray = field(repr=False, default=None)
    reference: str = "vacuum"  # vacuum | none


def cavity_modes(grid, eps_const, mu0=1.0):
    """All N modes of L = -(eps mu0)^-1 d^2/dx^2 on a Dirichlet grid."""
    if grid.boundary != "dirichlet":
        raise ConfigError("cavity modes require a Dirichlet grid")
    if eps_const <= 0:
        raise DomainError("cavity permittivity must be a positive constant")
    h = grid.h
    scale = 1.0 / (eps_const * mu0)
    d = np.full(grid.N, 2.0 / h**2 * scale)
    e = np.full(grid.N - 1, -1.0 / h**2 * scale)
    eigvals, eigvecs = scipy.linalg.eigh_tridiagonal(d, e)
    omegas = np.sqrt(eigvals)
    modes = eigvecs / math.sqrt(h * eps_const * mu0)
    return ModeSet(grid=grid, eps_const=eps_const, mu0=mu0, omegas=omegas, modes=modes)


def discrete_mode_frequency(grid, n, eps_const, mu0=1.0):
    """Analytic discrete dispersion (2/h) sin(n pi h / 2L) / sqrt(eps mu0)."""
    h = grid.h
    return 2.0 / h * math.sin(n * math.pi * h / (2.0 * grid.L)) / math.sqrt(eps_const * mu0)


def mode_expansion_green(modes, z, truncation=None):
    """Partial mode sum of the Green's kernel; equals the direct discrete
    inverse exactly at full truncation.

    Returns (GreenSamples, tail_bound) where tail_bound caps the entrywise
    error of the omitted modes.
    """
    z = complex(z)
    m = modes.omegas.size if truncation is None else int(truncation)
    if not 1 <= m <= modes.omegas.size:
        raise ConfigError("truncation must be between 1 and the mode count")
    denom = z * z - modes.omegas[:m] ** 2
    if np.min(np.abs(denom)) < RESONANCE_FLOOR:
        raise DomainError("z too close to a cavity resonance")
    phi = modes.modes[:, :m]
    values = (phi / denom[None, :]) @ phi.T
    tail = modes.omegas[m:]
    if tail.size:
        tail_denom = np.abs(z * z - tail**2)
        if np.min(tail_denom) < RESONANCE_FLOOR:
            raise DomainError("z too close to a truncated cavity resonance")
        peaks = np.max(np.abs(modes.modes[:, m:]), axis=0) ** 2
        tail_bound = float(np.sum(peaks / tail_denom))
    else:
        tail_bound = 0.0
    return helmholtz.GreenSamples(grid=modes.grid, z=z, values=values), tail_bound


def mode_coefficient(modes, phi, psi, z, truncation=None):
    """Probe coefficient of the mode expansion: h^2 sum overlaps / (z^2 - w_n^2)."""
    samples, _ = mode_expansion_green(modes, z, truncation)
    return complex(modes.grid.h**2 * np.conj(phi) @ samples.values @ psi)


# ---------------------------------------------------------------------------
# probes


def point_probe(grid, index):
    """Discrete delta e_i / h."""
    v = np.zeros(grid.N)
    v[index] = 1.0 / grid.h
    return v


def gaussian_probe(grid, center, width):
    x = grid.points
    return np.exp(-((x - center) ** 2) / (2.0 * width**2))


# ---------------------------------------------------------------------------
# spectral density and KK reconstruction


def _coefficient_sweep(model, grid, phi, psi, z_array, reference, xi=None):
    """<phi, R(z) psi> over an array of z (Dirichlet batch path); with `xi`,
    the two-frequency R(z, xi), z and xi broadcast against each other."""
    if reference not in ("vacuum", "none"):
        raise ConfigError(f"unknown reference {reference!r}")
    kind = "dispersive" if xi is None else "two_freq"
    z = np.asarray(z_array, dtype=np.complex128)
    if xi is not None:
        z, xi = np.broadcast_arrays(z, np.asarray(xi, dtype=np.complex128))
    rhs = np.broadcast_to(
        np.asarray(psi, dtype=np.complex128)[None, :], (z.size, grid.N)
    )
    diag = helmholtz.diagonal_batch(grid, model, kind, z, xi)
    fields = helmholtz.solve_batch(grid, diag, rhs)
    del diag  # peak memory: the vacuum solve allocates its own (B, N) arrays
    if reference == "vacuum":
        diag0 = helmholtz.diagonal_batch(grid, vacuum_model(model.units), kind, z, xi)
        np.subtract(fields, helmholtz.solve_batch(grid, diag0, rhs), out=fields)
    return grid.h * (fields @ np.conj(np.asarray(phi, dtype=np.complex128)))


def d_density(model, grid, phi, psi, nu_grid, zeta, reference="vacuum"):
    """Broadened density D(nu + i zeta) = [xi R(xi) - conj(xi) R(-conj xi)] / (2 i pi)
    evaluated on the probe pair.

    The nu grid must be symmetric about 0; the second term then reuses the
    sweep at -nu. Real probes with phi = psi give real samples.
    """
    if zeta <= 0:
        raise DomainError("broadening zeta must be > 0")
    nu = np.asarray(nu_grid, dtype=float)
    if not np.allclose(nu, -nu[::-1], atol=1e-12 * max(1.0, float(np.max(np.abs(nu))))):
        raise ValueError("nu grid must be symmetric about 0")
    xi = nu + 1j * zeta
    coeff = _coefficient_sweep(model, grid, phi, psi, xi, reference)
    # coefficient at -conj(xi(nu)) = xi(-nu): mirror the sweep
    coeff_mirror = coeff[::-1]
    samples = (xi * coeff - np.conj(xi) * coeff_mirror) / (2j * math.pi)
    return SpectralDensity(nu_grid=nu, zeta=zeta, samples=samples, reference=reference)


def kk_reconstruct_green(sd, model, grid, phi, psi, z):
    """Coefficient at z from the broadened density: reference part plus
    -int samples / (z^2 - nu^2) dnu."""
    z = complex(z)
    if z.imag <= 10.0 * sd.zeta:
        raise DomainError("reconstruction needs Im z well above the broadening zeta")
    value = transforms.kk_kernel_integral(sd.nu_grid, sd.samples, z)
    if sd.reference == "vacuum":
        op0 = helmholtz.assemble(grid, vacuum_model(model.units), "dispersive", z)
        value += helmholtz.coefficient(op0, phi, psi)
    return value


def direct_coefficient(model, grid, phi, psi, z):
    """Directly solved <phi, H_e(z)^-1 psi> (oracle side of the KK round trip)."""
    op = helmholtz.assemble(grid, model, "dispersive", complex(z))
    return helmholtz.coefficient(op, phi, psi)


# ---------------------------------------------------------------------------
# causal time-domain quantities


def x_operator_coefficient(model, grid, phi, psi, t_grid, contour, reference="vacuum"):
    """Contour inversion of the relative-resolvent coefficient.

    Vanishes for t < 0; real for real probes with phi = psi (selfadjoint).
    Returns (values, truncation_estimate).
    """

    def sampler(z):
        return _coefficient_sweep(model, grid, phi, psi, z, reference)

    return transforms.laplace_invert(sampler, contour, t_grid)


def time_domain_field(model, grid, source_space, omega_s, x_index, t_grid, contour,
                      kind="dispersive", omega0=None, taper=0.0):
    """E(x_i, t) radiated by a source switched on at t = 0.

    Time profile exp(-i omega_s t) step(t) with transform i / (z - omega_s);
    E = inverse transform of H(z)^-1 (i z mu0) J_hat(z) s(x).
    Returns (complex field values, truncation_estimate).
    """
    src = np.asarray(source_space, dtype=np.complex128)
    mu0 = model.units.mu0

    def sampler(z):
        z = np.asarray(z, dtype=np.complex128)
        jhat = 1j / (z - omega_s)
        diag = helmholtz.diagonal_batch(grid, model, kind, z, omega0=omega0)
        # Fortran-ordered (B, N), like the diagonals: the kernel copies rhs.T
        rhs = np.empty((grid.N, z.size), dtype=np.complex128).T
        np.multiply((1j * z * mu0 * jhat)[:, None], src[None, :], out=rhs)
        fields = helmholtz.solve_batch(grid, diag, rhs)
        return fields[:, x_index]

    return transforms.laplace_invert(sampler, contour, t_grid, taper=taper)
