"""Closed-cavity eigenmodes, spectral densities, Kramers-Kronig
reconstruction of Green's coefficients, and causal time-domain quantities.

The mode-expansion scaling is pinned by the M = N identity: the full
partial sum reproduces the discrete inverse-operator kernel exactly, which
fixes the eps weight bookkeeping left implicit in operator form.

Constant-eps resolvents (the vacuum reference, and media none of whose
dispersive layers holds a grid point) are mode sums over the closed-form
sine basis `helmholtz.sine_modes`; only dispersive media are solved.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels, helmholtz, transforms
from .errors import ConfigError, DomainError

RESONANCE_FLOOR = 1e-10


@dataclass(frozen=True)
class ModeSet:
    """Cavity modes, eps-weighted orthonormal: h sum eps phi_n phi_m = delta_nm."""

    grid: helmholtz.Grid1D
    omegas: np.ndarray = field(repr=False, default=None)  # strictly increasing
    modes: np.ndarray = field(repr=False, default=None)  # column n = phi_n on the grid


@dataclass(frozen=True)
class SpectralDensity:
    """Broadened density samples D(nu + i zeta) for one probe pair."""

    nu_grid: np.ndarray = field(repr=False, default=None)
    zeta: float = 0.0
    samples: np.ndarray = field(repr=False, default=None)
    reference: str = "vacuum"  # vacuum | none


def cavity_modes(grid, eps_const):
    """All N modes of L = -eps^-1 d^2/dx^2 on a Dirichlet grid, from the
    closed-form sine basis."""
    if eps_const <= 0:
        raise DomainError("cavity permittivity must be a positive constant")
    lam, basis = helmholtz.sine_modes(grid)
    omegas = np.sqrt(lam / eps_const)
    modes = basis / math.sqrt(grid.h * eps_const)
    return ModeSet(grid=grid, omegas=omegas, modes=modes)


def mode_expansion_green(modes, z, truncation=None):
    """Partial mode sum of the Green's kernel; equals the direct discrete
    inverse exactly at full truncation.

    Returns (G, tail_bound): the (N, N) kernel matrix, and a cap on the
    entrywise error of the omitted modes.
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
    return values, tail_bound


def mode_coefficient(modes, phi, psi, z):
    """Probe coefficient of the full mode expansion,
    h^2 sum_n <phi, phi_n> <phi_n, psi> / (z^2 - w_n^2), at a scalar z (a
    complex is returned) or over an array of z (an array of its shape),
    accumulated mode by mode."""
    z = np.asarray(z, dtype=np.complex128)
    z2 = z * z
    h = modes.grid.h
    weights = h * h * (np.conj(phi) @ modes.modes) * (np.asarray(psi) @ modes.modes)
    out = np.zeros(z.shape, dtype=np.complex128)
    denom = np.empty(z.shape, dtype=np.complex128)
    for weight, omega in zip(weights, modes.omegas):
        np.subtract(z2, omega * omega, out=denom)
        if np.min(np.abs(denom), initial=np.inf) < RESONANCE_FLOOR:
            raise DomainError("z too close to a cavity resonance")
        out += weight / denom
    return complex(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# probes


def point_probe(grid, index):
    """Discrete delta e_i / h."""
    v = np.zeros(grid.N)
    v[index] = 1.0 / grid.h
    return v


def gaussian_probe(grid, center, width):
    if width <= 0:
        raise DomainError("probe width must be > 0")
    x = grid.points
    return np.exp(-((x - center) ** 2) / (2.0 * width**2))


# ---------------------------------------------------------------------------
# spectral density and KK reconstruction


def _vacuum_coefficient(grid, phi, psi, z):
    """<phi, H_0(z)^-1 psi> of the vacuum operator, the reference subtracted
    from a medium's coefficient."""
    return mode_coefficient(cavity_modes(grid, 1.0), phi, psi, z)


def _coefficient_sweep(model, grid, phi, psi, z_array, reference, xi=None):
    """<phi, R(z) psi> over an array of z (Dirichlet batch path); with `xi`,
    the two-frequency R(z, xi), z and xi broadcast against each other.

    Every Dirichlet operator is complex-symmetric, so the coefficient is
    the bilinear form h conj(phi)^T H^-1 psi of one forward LDL^T sweep per
    node. A medium of constant eps on the grid takes the closed-form mode
    sum instead (single-frequency sweeps only).
    """
    if reference not in ("vacuum", "none"):
        raise ConfigError(f"unknown reference {reference!r}")
    kind = "dispersive" if xi is None else "two_freq"
    z = np.asarray(z_array, dtype=np.complex128)
    if xi is not None:
        z, xi = np.broadcast_arrays(z, np.asarray(xi, dtype=np.complex128))
    eps_const = None if xi is not None else helmholtz.uniform_permittivity(model, grid)
    if eps_const is not None:
        helmholtz.check_kind_domain(kind, z, xi, model, grid)
        modes = cavity_modes(grid, eps_const)
        coeff = mode_coefficient(modes, phi, psi, z)
    else:
        rows, index = helmholtz.diagonal_rows(grid, model, kind, z, xi)
        coeff = grid.h * _kernels.tridiag_bilinear_batch(
            1.0 / grid.h**2, rows, index, np.conj(phi), psi)
    if reference == "vacuum":
        coeff -= _vacuum_coefficient(grid, phi, psi, z)
    return coeff


def _bloch_sampler(model, bgrid, bprobe):
    """<bprobe, H(z)^-1 bprobe> of the Bloch operator on `bgrid` over an
    array of z, one cyclic solve per call. The wrap entries, and the
    periodicity check, are taken when the sampler is built."""
    wrap_lo, wrap_hi = helmholtz._bloch_corners(model, bgrid)
    off = np.full(bgrid.N - 1, 1.0 / bgrid.h**2, dtype=np.complex128)

    def sampler(z_nodes):
        diags = helmholtz.diagonal_batch(bgrid, model, "bloch", z_nodes).T
        rhs = np.broadcast_to(bprobe[:, None], diags.shape)
        x = _kernels.cyclic_tridiag_solve(off, diags, off, wrap_lo, wrap_hi, rhs)
        return bgrid.h * (np.conj(bprobe) @ x)
    return sampler


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


def kk_reconstruct_green(sd, grid, phi, psi, z):
    """Coefficient at z from the broadened density: reference part plus
    -int samples / (z^2 - nu^2) dnu."""
    z = complex(z)
    if z.imag <= 10.0 * sd.zeta:
        raise DomainError("reconstruction needs Im z well above the broadening zeta")
    value = transforms.kk_kernel_integral(sd.nu_grid, sd.samples, z)
    if sd.reference == "vacuum":
        value += _vacuum_coefficient(grid, phi, psi, z)
    return value


def direct_coefficient(model, grid, phi, psi, z):
    """Directly solved <phi, H_e(z)^-1 psi> (oracle side of the KK round trip)."""
    return helmholtz.coefficient(grid, helmholtz.assemble(grid, model, z), phi, psi)


# ---------------------------------------------------------------------------
# causal time-domain quantities


def x_operator_coefficient(model, grid, phi, psi, t_grid, contour):
    """Contour inversion of the vacuum-relative resolvent coefficient.

    Vanishes for t < 0; real for real probes with phi = psi (selfadjoint).
    Returns (values, truncation_estimate).
    """

    def sampler(z):
        # z is one block of contour nodes; the sweep is pointwise in z
        return _coefficient_sweep(model, grid, phi, psi, z, "vacuum")

    return transforms.laplace_invert(sampler, contour, t_grid)


def time_domain_field(model, grid, source_space, omega_s, x_index, t_grid, contour,
                      kind="dispersive", omega0=None, taper=0.0):
    """E(x_i, t) radiated by a source switched on at t = 0.

    Time profile exp(-i omega_s t) step(t) with transform i / (z - omega_s);
    E = inverse transform of H(z)^-1 (i z) J_hat(z) s(x), whose entry
    at x_i is the bilinear form e_i^T H^-1 s of the complex-symmetric H.
    Returns (complex field values, truncation_estimate).
    """
    src = np.asarray(source_space, dtype=np.complex128)
    unit = np.zeros(grid.N)
    unit[x_index] = 1.0

    def sampler(z):
        z = np.asarray(z, dtype=np.complex128)
        jhat = 1j / (z - omega_s)
        rows, index = helmholtz.diagonal_rows(grid, model, kind, z, omega0=omega0)
        entry = _kernels.tridiag_bilinear_batch(1.0 / grid.h**2, rows, index, unit, src)
        return 1j * z * jhat * entry

    return transforms.laplace_invert(sampler, contour, t_grid, taper=taper)
