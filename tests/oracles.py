"""Closed forms and reference sums that only tests read.

Each is an independent check of a program result, kept out of the package
so that `src/` holds only what a command runs.
"""

import math

import mpmath
import numpy as np

from helmgreen import freespace as fs
from helmgreen.errors import DomainError


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
    _, k, w, env_phi, amp_psi = fs._sandwich_nodes(phi, psi, quad)
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


def radial_defect_mp(phi, psi, modulus, theta, dps=30):
    """The defect of `freespace.asymptotic_defect` at one z by mpmath
    quadrature of its radial integral over [0, k_max], at dps digits. The
    sphere integral is Funk-Hecke's closed form, with the series
    I0 = 2 0F1(;3/2;a^2/4) and I2 = (2/3) 1F2(3/2;1/2,5/2;a^2/4), which do
    not cancel at small a."""
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
        return float(abs(mp.quad(integrand, cuts)))
