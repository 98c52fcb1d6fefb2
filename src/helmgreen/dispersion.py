"""Dispersive permittivity models built from oscillator densities.

A medium is described by a nonnegative oscillator density sigma(nu):
discrete lines (undamped resonances, mirrored over +-nu) plus closed-form
Lorentz continuous parts. The permittivity is the superposition

    eps(z) = eps_b - integral sigma(nu) / (z^2 - nu^2) dnu ,

evaluable at any complex frequency z in the closed upper half-plane.
This module also provides the passivity margin, the time-domain
susceptibility (contour inversion) and the sum rule weight. Both
quadratures (KK round trip, sum rule) run one numpy adaptive Gauss-Kronrod
rule; nothing here imports scipy.

Convention: a stored line (nu_j, w_j) carries weight w_j at +nu_j *and*
at -nu_j, so its permittivity contribution is -2 w_j / (z^2 - nu_j^2)
and its contribution to the total weight integral is 2 w_j.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import config, transforms
from .errors import ConfigError, DomainError, PoleProximityError, QuadratureError

POLE_FLOOR = 1e-12


@dataclass(frozen=True)
class OscillatorDensity:
    """Nonnegative density sigma(nu): discrete lines + Lorentz continuous parts.

    lines   : tuple of (nu_j, w_j), nu_j > 0, w_j > 0 (mirrored on access)
    lorentz : tuple of (wp, w1, gamma), all > 0
    """

    lines: tuple = ()
    lorentz: tuple = ()

    def __post_init__(self):
        for nu, w in self.lines:
            if nu <= 0 or w <= 0:
                raise ConfigError(f"line (nu={nu}, w={w}) must be strictly positive")
        for wp, w1, gamma in self.lorentz:
            if wp <= 0 or w1 <= 0 or gamma <= 0:
                raise ConfigError(
                    f"lorentz part (wp={wp}, w1={w1}, gamma={gamma}) must be strictly positive"
                )

    @property
    def is_vacuum(self):
        return not self.lines and not self.lorentz


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


# tolerances of the two quadratures: the KK reconstruction's scaled estimate
# and the sum rule's estimate relative to its weight (QUAD_ABS_TOL its floor)
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


def passivity_rounding(model, x, z):
    """Rounding bound of `passivity_margin` at one frequency z:
    gamma_n |z| (|eps_b| + 1 + sum_k |t_k| (1 + s_k / |d_k|)), where t_k =
    a_k / d_k is the term of the k-th line or Lorentz part, s_k the sum of the
    magnitudes that make up its denominator d_k (their cancellation near a
    pole) and n = 8 + the number of terms."""
    z = complex(z)
    density = model.density_at(x)
    az = abs(z)
    parts = [(2.0 * w, z * z - nu * nu, az * az + nu * nu) for nu, w in density.lines]
    parts += [(wp * wp, w1 * w1 - z * z - 1j * gamma * z, w1 * w1 + az * az + gamma * az)
              for wp, w1, gamma in density.lorentz]
    terms = sum(a / abs(d) * (1.0 + s / abs(d)) for a, d, s in parts)
    n_u = (8 + len(parts)) * np.finfo(float).eps / 2
    gamma_n = n_u / (1.0 - n_u)
    return gamma_n * az * (abs(model.background) + 1.0 + terms)


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

# QUADPACK's qk15 pair on [-1, 1] (Piessens et al., QUADPACK, 1983): the 15
# Kronrod nodes, whose odd-indexed ones are the 7 Gauss nodes, the Kronrod
# weights and the Gauss weights (0 at the Kronrod-only nodes).
_XK = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
       0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
       0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
       0.207784955007898467600689403773245, 0.0)
_WK = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
       0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
       0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
       0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
_WG = (0.0, 0.129484966168869693270611432679082, 0.0, 0.279705391489276667901467771423780,
       0.0, 0.381830050505118944950369775488975, 0.0, 0.417959183673469387755102040816327)
_GK_NODES = np.array([-x for x in _XK] + list(_XK[-2::-1]))
_GK_KRONROD = np.array(_WK + _WK[-2::-1])
_GK_GAUSS = np.array(_WG + _WG[-2::-1])
# caps of one adaptive run: refinement rounds, and intervals in the partition
# (scipy quad_vec's default limit); f receives at most _GK_BLOCK node-column
# values per call, so memory does not grow with the number of live intervals
_GK_ROUNDS = 40
_GK_LIMIT = 10000
_GK_BLOCK = 2**20


def _gauss_kronrod(f, breakpoints, tol, columns=1):
    """Globally adaptive G7K15 integral of f over [breakpoints[0], breakpoints[-1]].

    f maps a (k,) array of nodes to a (k, columns) array. Each round evaluates
    f on the 15 nodes of every live interval, in as few calls as _GK_BLOCK
    allows (one on the shipped configs). An interval's estimate is the max
    over the columns of |K15 - G7|, floored at qk15's rounding bound
    50 eps h sum w|f|. The run stops when the estimates of all intervals sum
    to at most `tol`; otherwise it retires the live intervals whose estimate
    is within their share of the tolerance left (tol minus the retired
    estimates, split by width over the live intervals) and bisects the rest.
    Returns (integral (columns,), estimate); QuadratureError (with the
    estimate) when the rounds run out or the partition exceeds _GK_LIMIT.
    """
    a, b = np.asarray(breakpoints[:-1], float), np.asarray(breakpoints[1:], float)
    done, done_err, n_done, err = 0.0, 0.0, 0, math.inf
    step = max(1, _GK_BLOCK // (_GK_NODES.size * columns))
    for _ in range(_GK_ROUNDS):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        share = (tol - done_err) * half / np.sum(half)
        err_i, every, kept = np.empty(a.size), 0.0, 0.0
        for block in (slice(i, i + step) for i in range(0, a.size, step)):
            h = half[block, None]
            fx = f((mid[block, None] + h * _GK_NODES).ravel()).reshape(-1, _GK_NODES.size, columns)
            kronrod = h * (_GK_KRONROD @ fx)
            gauss = h * (_GK_GAUSS @ fx)
            floor = (50.0 * np.finfo(float).eps) * h * (_GK_KRONROD @ np.abs(fx))
            err_i[block] = np.max(np.maximum(np.abs(kronrod - gauss), floor), axis=1)
            every = every + np.sum(kronrod, axis=0)
            kept = kept + np.sum(kronrod[err_i[block] <= share[block]], axis=0)
        err = done_err + float(np.sum(err_i))
        if err <= tol:
            return done + every, err
        keep = err_i <= share
        done = done + kept
        done_err += float(np.sum(err_i[keep]))
        n_done += int(np.count_nonzero(keep))
        split = ~keep
        a, b = np.concatenate([a[split], mid[split]]), np.concatenate([mid[split], b[split]])
        if n_done + a.size > _GK_LIMIT:
            break
    raise QuadratureError(
        f"Gauss-Kronrod estimate {err:.3e} above tolerance {tol:.3e} at the cap of "
        f"{_GK_ROUNDS} rounds or {_GK_LIMIT} intervals", estimate=err)


def _gauss_kronrod_tail(f, cut, tol, columns=1):
    """`_gauss_kronrod` of f over [cut, inf), mapped onto (0, 1] by nu = cut / t."""
    return _gauss_kronrod(lambda t: f(cut / t) * (cut / (t * t))[:, None], (0.0, 1.0), tol,
                          columns)


def kk_reconstruct_permittivity(density, z):
    """Permittivity 1 - int sigma(nu)/(z^2-nu^2) dnu of one density on a
    unit background, by quadrature.

    `z` is a scalar (a complex is returned) or an array of frequencies, all
    with Im z > 0 (an array of the same shape is returned). Discrete lines
    enter exactly. The Lorentz continuous parts are integrated numerically
    (even symmetry halves the range) by the globally adaptive G7K15 rule
    `_gauss_kronrod`, run over the whole array at once: on [0, cut], with
    breakpoints at the resonances and at the distinct |Re z|, and on
    [cut, inf) mapped onto (0, 1].

    Each z's integrand is divided by its own scale max(|val|, 1), where val
    is 1 plus the line terms, so the rule's max-norm estimate (the summed
    |K15 - G7| of its intervals, floored at their rounding bound) bounds the
    error of every z relative to that z's scale. Each part refines until its
    estimate is at most QUAD_REL_TOL / 4, so the scaled estimate of the
    result, twice their sum, is at most QUAD_REL_TOL / 2. QuadratureError
    (carrying the estimate) is raised when a part hits the rule's caps.

    Returns (values, bound), where bound is each z's absolute error bound,
    the scaled estimate times max(|val|, 1) (0 when no quadrature runs).
    """
    z = np.asarray(z, dtype=np.complex128)
    zs = z.reshape(-1)
    if not np.all(zs.imag > 0):
        raise DomainError("Kramers-Kronig reconstruction requires Im z > 0")
    val = 1.0 + density_eval_array(OscillatorDensity(lines=density.lines), zs)
    bound = np.zeros(zs.shape)
    if density.lorentz and zs.size:
        z2 = zs * zs
        resonances = [w1 for _, w1, _ in density.lorentz]
        cut = 10.0 * max(max(resonances), float(np.max(np.abs(zs)))) + 10.0
        points = sorted({0.0, cut} | set(resonances) | set(np.abs(zs.real).tolist()))
        scale = np.maximum(np.abs(val), 1.0)

        def integrand(nu):
            den = z2 - (nu * nu)[:, None]
            den *= scale
            return np.divide(sigma_eval(density, nu)[:, None], den, out=den)

        core, e1 = _gauss_kronrod(integrand, points, QUAD_REL_TOL / 4, zs.size)
        tail, e2 = _gauss_kronrod_tail(integrand, cut, QUAD_REL_TOL / 4, zs.size)
        est = 2.0 * (e1 + e2)
        val -= 2.0 * scale * (core + tail)
        bound = est * scale
    if z.ndim == 0:
        return complex(val[0]), float(bound[0])
    return val.reshape(z.shape), bound.reshape(z.shape)


def chi_dot_at_zero(density):
    """Total weight int sigma dnu = dchi/dt(0+): 2 w_j per line + wp^2 per Lorentz part."""
    return 2.0 * sum(w for _, w in density.lines) + sum(wp * wp for wp, _, _ in density.lorentz)


def sigma_total_weight(density):
    """Quadrature of int sigma dnu (continuous part) plus exact line weights.

    Returns (total, estimate): the continuous part runs `_gauss_kronrod` on
    [0, cut] (breakpoints at the resonances) and on [cut, inf), each part
    to max(QUAD_ABS_TOL, QUAD_REL_TOL * sum wp^2) / 4; the estimate is the
    absolute error bound of the total.
    """
    total = 2.0 * sum(w for _, w in density.lines)
    err = 0.0
    if density.lorentz:
        resonances = sorted({w1 for _, w1, _ in density.lorentz})
        cut = 50.0 * resonances[-1] + 50.0
        tol = max(QUAD_ABS_TOL, QUAD_REL_TOL * sum(wp * wp for wp, _, _ in density.lorentz)) / 4

        def integrand(nu):
            return sigma_eval(density, nu)[:, None]

        core, e1 = _gauss_kronrod(integrand, [0.0, *resonances, cut], tol)
        tail, e2 = _gauss_kronrod_tail(integrand, cut, tol)
        total += 2.0 * float(core[0] + tail[0])
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
    density = model.density_at(x)
    if density.is_vacuum:
        t = np.atleast_1d(np.asarray(t_grid, dtype=float))
        return np.zeros_like(t), 0.0

    values, est = transforms.laplace_invert(
        lambda z: density_eval_array(density, z), contour, t_grid)
    return values.real, est + float(np.max(np.abs(values.imag)))


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
        interval, lorentz, lines = config.fields(
            layer, where, ("interval",), {"lorentz": [], "lines": []})
        x0, x1 = config.numbers(interval, f"{where}.interval", 2)
        for j, (y0, y1, _) in enumerate(parsed):
            if x0 < y1 and y0 < x1:
                raise ConfigError(f"layers[{j}] [{y0}, {y1}] and {where} [{x0}, {x1}] overlap")
        density = OscillatorDensity(
            lines=tuple(config.record(part, f"{where}.lines[{j}]", ("nu", "weight"))
                        for j, part in enumerate(config.items(lines, f"{where}.lines"))),
            lorentz=tuple(config.record(part, f"{where}.lorentz[{j}]", ("wp", "w1", "gamma"))
                          for j, part in enumerate(config.items(lorentz, f"{where}.lorentz"))),
        )
        parsed.append((x0, x1, density))
    return PermittivityModel(background=background, layers=tuple(parsed))
