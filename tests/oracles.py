"""Closed forms, dense operators and reference sums that only tests read.

Each is an independent check of a program result, kept out of the package
so that `src/` holds only what a command runs.
"""

import math

import mpmath
import numpy as np

from helmgreen import freespace as fs
from helmgreen import helmholtz as hh
from helmgreen import spectral as sp
from helmgreen import transforms as tr
from helmgreen.errors import DomainError


def min_gamma(model):
    """The smallest Lorentz damping of any layer of `model`; inf without one."""
    return min((g for _, _, density in model.layers for _, _, g in density.lorentz),
               default=math.inf)


def dense_operator(grid, diag, corners=(0.0, 0.0)):
    """The dense (N, N) operator with diagonal `diag`, the constant
    off-diagonal 1/h^2 and, on a Bloch grid, the wrap entries
    corners = (A[N-1, 0], A[0, N-1])."""
    n = grid.N
    off = np.full(n - 1, 1.0 / grid.h**2, dtype=np.complex128)
    m = np.diag(np.asarray(diag, dtype=np.complex128)) + np.diag(off, 1) + np.diag(off, -1)
    m[n - 1, 0] += corners[0]
    m[0, n - 1] += corners[1]
    return m


def residual(matrix, x, source):
    """Relative residual ||A x - source|| / ||source||; 0 for a zero source."""
    denom = np.linalg.norm(source)
    return float(np.linalg.norm(matrix @ x - source) / denom) if denom else 0.0


def bloch_coefficient(model, bgrid, bprobe, z):
    """<bprobe, H(z)^-1 bprobe> of the Bloch operator at one z, by a dense
    numpy solve of `dense_operator` with the wrap entries of the grid."""
    a = dense_operator(bgrid, hh.diagonal_batch(bgrid, model, "bloch", [z])[0],
                       hh._bloch_corners(model, bgrid))
    return complex(bgrid.h * np.vdot(bprobe, np.linalg.solve(a, bprobe)))


def mode_coefficient_loop(modes, phi, psi, z):
    """`spectral.mode_coefficient` by complex division, mode by mode:
    h^2 sum_n <phi, phi_n> <phi_n, psi> / (z^2 - w_n^2) at each z of an array."""
    z2 = np.asarray(z, dtype=np.complex128) ** 2
    h = modes.grid.h
    weights = h * h * (np.conj(phi) @ modes.modes) * (np.asarray(psi) @ modes.modes)
    out = np.zeros(z2.shape, dtype=np.complex128)
    for weight, omega in zip(weights, modes.omegas):
        out += weight / (z2 - omega * omega)
    return out


def two_sided_density(model, grid, phi, psi, nu_max, count, zeta, reference="vacuum"):
    """D(nu + i zeta) = [xi R(xi) - conj(xi) R(-conj xi)] / (2 i pi) of
    `spectral.d_density` on linspace(-nu_max, nu_max, count), each term from
    its own coefficient sweep: at xi and at -conj(xi)."""
    xi = np.linspace(-nu_max, nu_max, count) + 1j * zeta
    coeff = sp._coefficient_sweep(model, grid, phi, psi, xi, reference)
    mirror = sp._coefficient_sweep(model, grid, phi, psi, -np.conj(xi), reference)
    return (xi * coeff - np.conj(xi) * mirror) / (2j * math.pi)


def envelope(field, k):
    """Scalar envelope of a `freespace.TestField3D` at k, shape (..., 3) -> (...)."""
    d = np.asarray(k, dtype=float) - np.asarray(field.center)
    return np.exp(-np.sum(d * d, axis=-1) / (2.0 * field.width**2))


def amplitude(field, k):
    """field_hat(k) = polarization * envelope, shape (..., 3) -> (..., 3)."""
    return envelope(field, k)[..., None] * np.asarray(field.polarization)


def tensor_nodes_weights(quad, k_max):
    """Tensor-product rule of a `freespace.SphericalQuadrature`: Gauss-Legendre
    radial (n_radial) x Gauss-Legendre in cos(theta) (n_polar) x trapezoid in
    azimuth (n_azimuth), truncated at k_max. Returns nodes (M, 3) and weights."""
    xr, wr = np.polynomial.legendre.leggauss(quad.n_radial)
    r = 0.5 * k_max * (xr + 1.0)
    wr = 0.5 * k_max * wr
    xm, wm = np.polynomial.legendre.leggauss(quad.n_polar)
    phi = 2.0 * math.pi * np.arange(quad.n_azimuth) / quad.n_azimuth
    wphi = 2.0 * math.pi / quad.n_azimuth
    sin_t = np.sqrt(1.0 - xm**2)
    kx = r[:, None, None] * sin_t[None, :, None] * np.cos(phi)[None, None, :]
    ky = r[:, None, None] * sin_t[None, :, None] * np.sin(phi)[None, None, :]
    kz = r[:, None, None] * xm[None, :, None] * np.ones_like(phi)[None, None, :]
    k = np.stack([kx, ky, kz], axis=-1).reshape(-1, 3)
    w = (r**2 * wr)[:, None, None] * wm[None, :, None] * np.full(quad.n_azimuth, wphi)
    return k, w.reshape(-1)


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
    tensor-rule nodes and weights inside it, and phi's envelope and psi's
    amplitude at the nodes."""
    quad = quad or fs.SphericalQuadrature()
    k_max = fs._cutoff(phi, psi)
    k, w = tensor_nodes_weights(quad, k_max)
    return k_max, k, w, envelope(phi, k), amplitude(psi, k)


def free_symbol(k, z):
    """3x3 inverse symbol at one real wavevector: `_symbol_apply_batch` on
    the unit vectors, one per column; removable limit at k = 0."""
    z = complex(z)
    if z.imag <= 0:
        raise DomainError("free symbol requires Im z > 0")
    k = np.broadcast_to(np.asarray(k, dtype=float), (3, 3))
    return _symbol_apply_batch(k, z, np.eye(3)).T


def tensor_coefficient(phi, psi, z, quad=None):
    """<phi, H_0(z)^-1 psi> by the spherical tensor rule of the full symbol
    sandwich. Returns (value, tail_estimate); the tail estimate reflects the
    Gaussian decay beyond the radial truncation."""
    z = complex(z)
    if z.imag <= 0:
        raise DomainError("free coefficient requires Im z > 0")
    k_max, k, w, env_phi, amp_psi = _sandwich_nodes(phi, psi, quad)
    applied = _symbol_apply_batch(k, z, amp_psi)
    integrand = env_phi * (applied @ np.conj(np.asarray(phi.polarization)))
    value = complex(np.sum(w * integrand))
    edge = math.exp(-((k_max - float(np.linalg.norm(phi.center))) ** 2) / (2.0 * phi.width**2))
    tail = edge * max(abs(value), fs.norm_sq(phi) ** 0.5 * fs.norm_sq(psi) ** 0.5)
    return value, tail


def trapezoid(omega_max, n):
    """The fixed rule's nodes and weights on [-omega_max, omega_max]:
    spacing h = 2 omega_max / (n - 1), halved at both ends of the window."""
    omega = np.linspace(-omega_max, omega_max, n)
    w = np.full(n, 2.0 * omega_max / (n - 1))
    w[[0, -1]] *= 0.5
    return omega, w


def laplace_invert(sampler, contour, t_grid, taper=0.0, levels=None):
    """`transforms.laplace_invert` less its window check, with one sampler
    call on all new nodes of a level: the same taper, weights, sums over
    chunks of `tr._BLOCK` nodes, stopping rule and estimate.

    `levels` defaults to [contour.n_points], the fixed trapezoid rule on
    n_points nodes (its estimate has no nested difference);
    `tr._levels(contour)` gives the nested rule, which then matches
    `laplace_invert` bit for bit.
    """
    t = np.atleast_1d(np.asarray(t_grid, dtype=float))
    big = contour.omega_max
    acc, abs_sum, diff, values = 0.0, 0.0, 0.0, None
    for j, n in enumerate(levels or [contour.n_points]):
        omega, w = trapezoid(big, n)
        if j > 0:
            omega, w = omega[1::2], np.full(n // 2, w[1])
        f = np.asarray(sampler(omega + 1j * contour.eta), dtype=np.complex128)
        if j == 0:
            edge = max(abs(f[0]), abs(f[-1]))
        if taper > 0:
            f = f * np.exp(-taper * (omega / big) ** 2)
        part, wf = np.zeros(t.shape, dtype=np.complex128), 0.0
        for lo in range(0, omega.size, tr._BLOCK):
            hi = lo + tr._BLOCK
            wfi = w[lo:hi] * f[lo:hi]
            wf += float(np.sum(np.abs(wfi)))
            part += np.exp(-1j * np.outer(t, omega[lo:hi])) @ wfi
        acc = 0.5 * acc + part
        abs_sum = 0.5 * abs_sum + wf
        previous, values = values, np.exp(contour.eta * t) * acc / (2.0 * math.pi)
        if j > 0:
            diff = float(np.max(np.abs(values - previous)))
            if diff <= contour.rtol * max(contour.scale, float(np.max(np.abs(values)))):
                break
    tail = edge * big / (2.0 * math.pi)
    if taper > 0:
        tail *= math.exp(-taper)
    grow = float(np.exp(contour.eta * np.max(t)))
    return values, tail * grow + (diff + n * tr._UNIT_ROUNDOFF * abs_sum * grow / (2.0 * math.pi))


def lorentz_susceptibility_exact(wp, w1, gamma, t):
    """Closed-form damped-sinusoid susceptibility of one Lorentz oscillator."""
    t = np.asarray(t, dtype=float)
    wt = math.sqrt(w1 * w1 - gamma * gamma / 4.0)
    out = wp * wp * np.exp(-gamma * t / 2.0) * np.sin(wt * t) / wt
    return np.where(t >= 0, out, 0.0)


def broadened_delta(nu, omega_n, zeta):
    """Pair of Lorentzians of half weight at +-omega_n, width zeta."""
    if zeta <= 0:
        raise DomainError("broadening zeta must be > 0")
    nu = np.asarray(nu, dtype=float)
    out = (
        zeta / ((nu - omega_n) ** 2 + zeta**2) + zeta / ((nu + omega_n) ** 2 + zeta**2)
    ) / (2.0 * math.pi)
    return out if out.ndim else float(out)


def tensor_defects(phi, psi, z_moduli, theta, quad=None):
    """|z^2 <phi, H_0^-1 psi> - <phi, psi>| along arg z = theta, summed on
    the full spherical tensor rule (radial x polar x azimuth) of the
    transverse remainder conj(phi_hat) . (I - k k / k^2) psi_hat
    k^2 / (z^2 - k^2)."""
    _, k, w, env_phi, amp_psi = _sandwich_nodes(phi, psi, quad)
    k2 = np.sum(k * k, axis=1)
    k_hat = k / np.sqrt(np.where(k2 > 0, k2, 1.0))[:, None]
    p_bar = np.conj(np.asarray(phi.polarization))
    trans = amp_psi @ p_bar - (k_hat @ p_bar) * (np.sum(k_hat * amp_psi, axis=1))
    sandwich = w * env_phi * trans * k2
    out = []
    for mod in z_moduli:
        z = mod * complex(math.cos(theta), math.sin(theta))
        out.append(abs(complex(np.sum(sandwich / (z * z - k2)))))
    return out


def radial_remainder_mp(phi, psi, modulus, theta, dps=30):
    """The transverse remainder T(z) = z^2 <phi, H_0^-1 psi> - <phi, psi>
    at z = modulus e^(i theta), a complex, by mpmath quadrature of its
    radial integral over [0, k_max], at dps digits. The sphere integral is
    Funk-Hecke's closed form, with the series I0 = 2 0F1(;3/2;a^2/4) and
    I2 = (2/3) 1F2(3/2;1/2,5/2;a^2/4), which do not cancel at small a."""
    mp = mpmath.mp
    with mpmath.workdps(dps):
        alpha = 1 / (2 * mp.mpf(phi.width) ** 2)
        beta = 1 / (2 * mp.mpf(psi.width) ** 2)
        a_c = mpmath.matrix([mp.mpf(x) for x in phi.center])
        b_c = mpmath.matrix([mp.mpf(x) for x in psi.center])
        c = (alpha * a_c + beta * b_c) / (alpha + beta)
        c_norm = mpmath.norm(c)
        c_hat = c / c_norm if c_norm > 0 else c
        sigma2 = 1 / (2 * (alpha + beta))
        g0 = mp.exp(-alpha * beta / (alpha + beta) * mpmath.norm(a_c - b_c) ** 2)
        p_bar = [mpmath.conj(mp.mpc(x)) for x in phi.polarization]
        q = [mp.mpc(x) for x in psi.polarization]
        pq = sum(x * y for x, y in zip(p_bar, q))
        cp = sum(x * y for x, y in zip(c_hat, p_bar))
        cq = sum(x * y for x, y in zip(c_hat, q))
        z2 = (mp.mpf(modulus) * mp.expj(mp.mpf(theta))) ** 2

        def integrand(r):
            a = r * c_norm / sigma2
            i0 = 2 * mp.hyp0f1(mp.mpf(3) / 2, a * a / 4)
            i2 = 2 * mp.hyper([mp.mpf(3) / 2], [mp.mpf(1) / 2, mp.mpf(5) / 2], a * a / 4) / 3
            sphere = mp.pi * (pq * (i0 + i2) - (3 * i2 - i0) * cp * cq)
            gauss = g0 * mp.exp(-(r - c_norm) ** 2 / (2 * sigma2) - a)
            return r**4 * gauss * sphere / (z2 - r * r)

        k_max = fs._cutoff(phi, psi)
        cuts = sorted({0.0, float(c_norm), k_max} | ({modulus} if modulus < k_max else set()))
        return complex(mp.quad(integrand, cuts))


def radial_defect_mp(phi, psi, modulus, theta, dps=30):
    """The defect of `freespace.asymptotic_defect` at one z: the modulus of
    `radial_remainder_mp`."""
    return abs(radial_remainder_mp(phi, psi, modulus, theta, dps))


def coefficient_mp(phi, psi, modulus, theta, dps=30):
    """<phi, H_0(z)^-1 psi> = (<phi, psi> + T(z)) / z^2 at z = modulus
    e^(i theta), with T from `radial_remainder_mp` and the closed-form
    inner product."""
    with mpmath.workdps(dps):
        z2 = (mpmath.mpf(modulus) * mpmath.expj(mpmath.mpf(theta))) ** 2
        remainder = mpmath.mpc(radial_remainder_mp(phi, psi, modulus, theta, dps))
        return complex((mpmath.mpc(fs.inner_product(phi, psi)) + remainder) / z2)


def mp_inverse_norm(diag, off, dps=40):
    """||H^-1|| of the complex-symmetric tridiagonal H with the float64
    diagonal `diag` and off-diagonal `off`, both taken as exact: inverse
    iteration on H^H H in mpmath, from float64's last right singular vector."""
    n = len(diag)
    dense = np.diag(diag) + off * (np.eye(n, k=1) + np.eye(n, k=-1))
    start = np.conj(np.linalg.svd(dense)[2][-1])
    with mpmath.workdps(dps):
        d = [mpmath.mpc(complex(v)) for v in diag]
        o = mpmath.mpf(off)

        def solve(b):  # Thomas on H x = b
            x, cp = list(b), [mpmath.mpf(0)] * n
            piv = d[0]
            cp[0], x[0] = o / piv, x[0] / piv
            for i in range(1, n):
                piv = d[i] - o * cp[i - 1]
                cp[i] = o / piv
                x[i] = (x[i] - o * x[i - 1]) / piv
            for i in range(n - 2, -1, -1):
                x[i] -= cp[i] * x[i + 1]
            return x

        def norm(v):
            return mpmath.sqrt(mpmath.fsum(abs(a) ** 2 for a in v))

        x = [mpmath.mpc(complex(v)) for v in start]
        rho = 0
        for _ in range(40):
            # H^-H x = conj(H^-1 conj(x)), since H^T = H
            y = [mpmath.conj(a) for a in solve([mpmath.conj(a) for a in x])]
            new_rho = norm(y) / norm(x)
            x = solve(y)
            scale = norm(x)
            x = [a / scale for a in x]
            if abs(new_rho - rho) <= mpmath.mpf(10) ** (8 - dps) * new_rho:
                return float(new_rho)
            rho = new_rho
    raise AssertionError("inverse iteration did not converge")
