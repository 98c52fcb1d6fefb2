"""Dispersive permittivity models built from oscillator densities.

A medium is described by a nonnegative oscillator density sigma(nu):
discrete lines (undamped resonances, mirrored over +-nu) plus closed-form
Lorentz continuous parts. The permittivity is the superposition

    eps(z) = eps_b - integral sigma(nu) / (z^2 - nu^2) dnu ,

evaluable at any complex frequency z in the closed upper half-plane.
This module also provides the passivity margin, the time-domain
susceptibility (contour inversion), the sum rule weight and the
non-dispersive (gapped) construction. scipy is imported inside the two
quadratures that use it, so evaluating a permittivity never pays its import.

Convention: a stored line (nu_j, w_j) carries weight w_j at +nu_j *and*
at -nu_j, so its permittivity contribution is -2 w_j / (z^2 - nu_j^2)
and its contribution to the total weight integral is 2 w_j.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import config
from .errors import (
    ConfigError,
    DomainError,
    GapViolationError,
    PoleProximityError,
    QuadratureError,
)

POLE_FLOOR = 1e-12


@dataclass(frozen=True)
class OscillatorDensity:
    """Nonnegative density sigma(nu): discrete lines + Lorentz continuous parts.

    lines   : tuple of (nu_j, w_j), nu_j > 0, w_j > 0 (mirrored on access)
    lorentz : tuple of (wp, w1, gamma), all > 0
    gap_nu0 : lowest support frequency (0 if none)
    """

    lines: tuple = ()
    lorentz: tuple = ()
    gap_nu0: float = 0.0

    def __post_init__(self):
        for nu, w in self.lines:
            if nu <= 0 or w <= 0:
                raise ConfigError(f"line (nu={nu}, w={w}) must be strictly positive")
        for wp, w1, gamma in self.lorentz:
            if wp <= 0 or w1 <= 0 or gamma <= 0:
                raise ConfigError(
                    f"lorentz part (wp={wp}, w1={w1}, gamma={gamma}) must be strictly positive"
                )
        if self.gap_nu0 < 0:
            raise ConfigError("gap_nu0 must be >= 0")

    @property
    def is_vacuum(self):
        return not self.lines and not self.lorentz

    @property
    def min_gamma(self):
        return min((g for _, _, g in self.lorentz), default=math.inf)


VACUUM_DENSITY = OscillatorDensity()


@dataclass(frozen=True)
class PermittivityModel:
    """Layered 1D medium: background constant + per-interval oscillator densities."""

    background: float = 1.0
    layers: tuple = ()  # tuple of (x0, x1, OscillatorDensity)

    def __post_init__(self):
        if self.background < 1.0:
            raise ConfigError("background permittivity below the vacuum value")
        for x0, x1, density in self.layers:
            if not x1 > x0:
                raise ConfigError(f"empty layer interval [{x0}, {x1}]")
            if not isinstance(density, OscillatorDensity):
                raise ConfigError("layer density must be an OscillatorDensity")

    def density_at(self, x):
        for x0, x1, density in self.layers:
            if x0 <= x <= x1:
                return density
        return VACUUM_DENSITY

    @property
    def damped(self):
        """True when every resonance has damping (real-axis evaluation allowed)."""
        return all(not d.lines for _, _, d in self.layers)

    @property
    def min_gamma(self):
        return min((d.min_gamma for _, _, d in self.layers), default=math.inf)


# tolerances of the two scipy quadratures (KK reconstruction, sum rule)
QUAD_REL_TOL = 1e-9
QUAD_ABS_TOL = 1e-12


# ---------------------------------------------------------------------------
# point evaluation


def _check_domain(density, z):
    """Domain and pole guard of `density_eval_array` over an ndarray of frequencies."""
    if np.any(z.imag < 0):
        raise DomainError(f"Im z = {np.min(z.imag)} < 0: outside the upper half-plane")
    if density.lines and np.any(z.imag == 0):
        raise DomainError("undamped lines cannot be evaluated on the real axis")
    z2 = z * z
    for nu, w in density.lines:
        den = np.min(np.abs(z2 - nu * nu), initial=math.inf)
        if den < POLE_FLOOR:
            raise PoleProximityError(f"|z^2 - nu^2| = {den} below floor at nu = {nu}")
    for wp, w1, gamma in density.lorentz:
        if np.min(np.abs(w1 * w1 - z2 - 1j * gamma * z), initial=math.inf) < POLE_FLOOR:
            raise PoleProximityError("Lorentz denominator below pole floor")


def density_eval_array(density, z):
    """Permittivity contribution of one density (background excluded) over
    an ndarray of frequencies; no domain or pole checks."""
    z = np.asarray(z, dtype=np.complex128)
    out = np.zeros(z.shape, dtype=np.complex128)
    z2 = z * z
    for nu, w in density.lines:
        out += -2.0 * w / (z2 - nu * nu)
    for wp, w1, gamma in density.lorentz:
        out += wp * wp / (w1 * w1 - z2 - 1j * gamma * z)
    return out


def eval_permittivity(model, x, z):
    """Closed-form permittivity eps(x, z), Im z >= 0.

    `z` is a scalar (a complex is returned) or an array (an array of the
    same shape is returned). Real-axis points need a damped density, and no
    point may lie within the pole floor.
    """
    z = np.asarray(z, dtype=np.complex128)
    density = model.density_at(x)
    _check_domain(density, z)
    eps = model.background + density_eval_array(density, z)
    return complex(eps) if eps.ndim == 0 else eps


def passivity_margin(model, x, z):
    """Im{ z [eps(x,z) - 1] }; nonnegative in the upper half-plane.

    `z` is a scalar (a float is returned) or an array (an array of the
    same shape is returned); every Im z must be > 0.
    """
    z = np.asarray(z, dtype=np.complex128)
    if not np.all(z.imag > 0):
        raise DomainError("passivity margin requires Im z > 0")
    margin = (z * (eval_permittivity(model, x, z) - 1.0)).imag
    return float(margin) if margin.ndim == 0 else margin


def sigma_eval(density, nu):
    """Continuous part of sigma at real frequency nu (even, >= 0); discrete
    lines are distributions and are not included."""
    nu = np.asarray(nu, dtype=float)
    nu2 = nu * nu
    out = np.zeros_like(nu2)
    for wp, w1, gamma in density.lorentz:
        out += wp**2 * gamma * nu2 / (math.pi * ((w1 * w1 - nu2) ** 2 + gamma * gamma * nu2))
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# quadratures


def kk_reconstruct_permittivity(density, z):
    """Permittivity 1 - int sigma(nu)/(z^2-nu^2) dnu of one density on a
    unit background, by quadrature.

    `z` is a scalar (a complex is returned) or an array of frequencies, all
    with Im z > 0 (an array of the same shape is returned). Discrete lines
    enter exactly. The Lorentz continuous parts are integrated numerically
    (even symmetry halves the range) by one adaptive Gauss-Kronrod vector
    quadrature over the whole array on [0, cut], with breakpoints at the
    resonances and at the distinct |Re z|, and one on [cut, inf).

    Each z's integrand is divided by its own scale max(|val|, 1), where val
    is 1 plus the line terms, so the max-norm error estimate bounds the
    error of every z relative to that z's scale. QuadratureError (carrying
    the estimate) is raised when either quadrature reports failure or when
    the scaled estimate of the result exceeds QUAD_REL_TOL.

    Returns (values, bound), where bound is each z's absolute error bound,
    the scaled estimate times max(|val|, 1) (0 when no quadrature runs).
    """
    from scipy import integrate

    z = np.asarray(z, dtype=np.complex128)
    zs = z.reshape(-1)
    if not np.all(zs.imag > 0):
        raise DomainError("Kramers-Kronig reconstruction requires Im z > 0")
    z2 = zs * zs
    val = np.full(zs.shape, 1.0, dtype=np.complex128)
    bound = np.zeros(zs.shape)
    for nu, w in density.lines:
        val += -2.0 * w / (z2 - nu * nu)
    if density.lorentz and zs.size:
        resonances = [w1 for _, w1, _ in density.lorentz]
        cut = 10.0 * max(max(resonances), float(np.max(np.abs(zs)))) + 10.0
        points = sorted(set(resonances) | set(np.abs(zs.real).tolist()))
        scale = np.maximum(np.abs(val), 1.0)

        def integrand(nu):
            return sigma_eval(density, nu) / (scale * (z2 - nu * nu))

        parts = [
            integrate.quad_vec(integrand, a, b, epsabs=QUAD_ABS_TOL, epsrel=QUAD_REL_TOL,
                               norm="max", points=pts, full_output=True)
            for a, b, pts in ((0.0, cut, points), (cut, math.inf, None))
        ]
        est = 2.0 * sum(err for _, err, _ in parts)
        failed = [info.message for _, _, info in parts if not info.success]
        if failed or est > QUAD_REL_TOL:
            raise QuadratureError(
                f"KK quadrature scaled error estimate {est:.3e} against rel_tol "
                f"{QUAD_REL_TOL:.3e}" + "".join(f"; {msg}" for msg in failed),
                estimate=est,
            )
        val -= 2.0 * scale * (parts[0][0] + parts[1][0])
        bound = est * scale
    if z.ndim == 0:
        return complex(val[0]), float(bound[0])
    return val.reshape(z.shape), bound.reshape(z.shape)


def chi_dot_at_zero(density):
    """Total weight int sigma dnu = dchi/dt(0+): 2 w_j per line + wp^2 per Lorentz part."""
    return 2.0 * sum(w for _, w in density.lines) + sum(wp * wp for wp, _, _ in density.lorentz)


def sigma_total_weight(density):
    """Quadrature of int sigma dnu (continuous part) plus exact line weights."""
    from scipy import integrate

    total = 2.0 * sum(w for _, w in density.lines)
    err = 0.0
    if density.lorentz:
        resonances = sorted(w1 for _, w1, _ in density.lorentz)
        cut = 50.0 * resonances[-1] + 50.0
        core, e1 = integrate.quad(
            lambda nu: sigma_eval(density, nu), 0.0, cut,
            points=resonances, epsabs=QUAD_ABS_TOL, epsrel=QUAD_REL_TOL, limit=400,
        )
        tail, e2 = integrate.quad(
            lambda nu: sigma_eval(density, nu), cut, math.inf,
            epsabs=QUAD_ABS_TOL, epsrel=QUAD_REL_TOL, limit=400,
        )
        total += 2.0 * (core + tail)
        err = 2.0 * (e1 + e2)
    return total, err


# ---------------------------------------------------------------------------
# time domain


def susceptibility(model, x, t_grid, contour):
    """Time-domain susceptibility chi(x, t) by contour inversion.

    Inverts eps(x, z) - eps_b along the horizontal line Im z = eta of the
    `transforms.ContourSpec` `contour` (unused where x is in vacuum).
    Returns (values, error_estimate); values are real up to the estimate
    and vanish for t < 0 (causality).
    """
    from . import transforms

    density = model.density_at(x)
    if density.is_vacuum:
        t = np.atleast_1d(np.asarray(t_grid, dtype=float))
        return np.zeros_like(t), 0.0

    values, est = transforms.laplace_invert(
        lambda z: density_eval_array(density, z), contour, t_grid)
    return values.real, est + float(np.max(np.abs(values.imag)))


def lorentz_susceptibility_exact(wp, w1, gamma, t):
    """Closed-form damped-sinusoid susceptibility of one Lorentz oscillator."""
    t = np.asarray(t, dtype=float)
    wt = math.sqrt(w1 * w1 - gamma * gamma / 4.0)
    out = wp * wp * np.exp(-gamma * t / 2.0) * np.sin(wt * t) / wt
    return np.where(t >= 0, out, 0.0)


# ---------------------------------------------------------------------------
# non-dispersive construction


def build_nondispersive(density, omega0):
    """Real dielectric constant 1 + int_{|nu|>=nu0} sigma/(nu^2 - omega0^2) dnu.

    Requires a spectral gap nu0 > omega0 > 0 with all support above it,
    which in this representation restricts the density to discrete lines.
    """
    if density.is_vacuum:
        return 1.0
    nu0 = density.gap_nu0
    if not (nu0 > omega0 > 0):
        raise DomainError(f"need nu0 > omega0 > 0, got nu0 = {nu0}, omega0 = {omega0}")
    if density.lorentz:
        raise GapViolationError(
            "Lorentz continuous parts have support at all frequencies and violate the gap"
        )
    for nu, _ in density.lines:
        if nu < nu0:
            raise GapViolationError(f"line at nu = {nu} lies inside the gap |nu| < {nu0}")
    value = 1.0
    for nu, w in density.lines:
        value += 2.0 * w / (nu * nu - omega0 * omega0)
    return value


# ---------------------------------------------------------------------------
# medium description files


def load_medium(path):
    """Parse a medium description file (JSON) into a PermittivityModel.

    Layers may touch but not overlap (a model built in code lets its first
    layer win). Units are normalized (eps0 = mu0 = c = 1), the only value
    the optional `unit_system` key accepts.
    """
    unit_system, background, layers = config.fields(
        config.load(path, "medium file"), "medium file", (),
        {"unit_system": "normalized", "background_epsilon": 1.0, "layers": []})
    config.choice(unit_system, "unit_system", ("normalized",))
    background = config.number(background, "background_epsilon")
    parsed = []
    for i, layer in enumerate(config.items(layers, "layers")):
        where = f"layers[{i}]"
        interval, lorentz, lines, gap_nu0 = config.fields(
            layer, where, ("interval",), {"lorentz": [], "lines": [], "gap_nu0": 0.0})
        x0, x1 = config.numbers(interval, f"{where}.interval", 2)
        for j, (y0, y1, _) in enumerate(parsed):
            if x0 < y1 and y0 < x1:
                raise ConfigError(f"layers[{j}] [{y0}, {y1}] and {where} [{x0}, {x1}] overlap")
        density = OscillatorDensity(
            lines=tuple(config.record(part, f"{where}.lines[{j}]", ("nu", "weight"))
                        for j, part in enumerate(config.items(lines, f"{where}.lines"))),
            lorentz=tuple(config.record(part, f"{where}.lorentz[{j}]", ("wp", "w1", "gamma"))
                          for j, part in enumerate(config.items(lorentz, f"{where}.lorentz"))),
            gap_nu0=config.number(gap_nu0, f"{where}.gap_nu0"),
        )
        parsed.append((x0, x1, density))
    return PermittivityModel(background=background, layers=tuple(parsed))
