"""Contour machinery: Laplace inversion, Cauchy-loop analyticity defects
and the Kramers-Kronig kernel integral on a uniform symmetric nu grid.

All quadratures return (value, error_estimate); callers decide pass/fail.
The module imports no scipy: its uniform composite Simpson rule is
written out.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, NonDecayingIntegrandError

_BLOCK = 1 << 14
# the first nested level has _FIRST + 1 nodes: coarser levels can agree by
# accident when their alias period 2 pi (n - 1) / (2 omega_max) is
# commensurate with an integer-spaced time grid (periods 1 and 2 at 129 and
# 257 nodes on the shipped window, 400)
_FIRST = 1 << 10
_UNIT_ROUNDOFF = 2.0**-53


@dataclass(frozen=True)
class ContourSpec:
    """Horizontal contour Im z = eta, window |Re z| <= omega_max.

    Without `rtol` the trapezoid rule takes `n_points` nodes. With it,
    `n_points` is a cap: `laplace_invert` doubles a nested rule until two
    levels agree to rtol * max(scale, largest value).
    """

    eta: float
    omega_max: float
    n_points: int
    rtol: float | None = None
    scale: float = 0.0

    def __post_init__(self):
        if self.eta <= 0:
            raise ConfigError("contour height eta must be > 0")
        if self.omega_max <= 0:
            raise ConfigError("contour half-width must be > 0")
        if self.n_points < 16:
            raise ConfigError("contour needs at least 16 points")
        if self.rtol is not None and not self.rtol > 0:
            raise ConfigError("contour tolerance rtol must be > 0")
        if not self.scale >= 0:
            raise ConfigError("contour scale must be >= 0")


def _levels(contour):
    """Node counts 2^j * _FIRST + 1 up to the cap, or [n_points] alone
    without a tolerance or when fewer than two levels fit under the cap."""
    levels = []
    n = _FIRST + 1
    while contour.rtol is not None and n <= contour.n_points:
        levels.append(n)
        n = 2 * n - 1
    return levels if len(levels) > 1 else [contour.n_points]


@dataclass(frozen=True)
class RectangleLoop:
    """Axis-aligned rectangle in the upper half-plane, z_lo to z_hi."""

    z_lo: complex
    z_hi: complex
    n_points: int = 48

    def __post_init__(self):
        if self.z_lo.imag <= 0:
            raise DomainError("rectangle loop must lie in the open upper half-plane")
        if not (self.z_hi.real > self.z_lo.real and self.z_hi.imag > self.z_lo.imag):
            raise ConfigError("degenerate rectangle loop")


def laplace_invert(sampler, contour, t_grid, taper=0.0):
    """(1/2pi) int_{Gamma_eta} exp(-izt) sampler(z) dz on a grid of times.

    sampler must accept a complex ndarray, be analytic on the contour and
    be pointwise in z: it is called on consecutive blocks of at most
    `_BLOCK` nodes, and a node's value must not depend on the rest of its
    block. Each block is sampled, tapered, weighted and summed once, so
    the working arrays here and in the sampler scale with the block, not
    with `contour.n_points`; only a level's nodes span the level.

    Without `contour.rtol` the trapezoid rule runs on `contour.n_points`
    nodes. With it, the rule runs on nested levels of 2^j * 1024 + 1 nodes
    (Trefethen & Weideman, SIAM Review 56, 2014: the rule converges
    geometrically in a strip of analyticity). Each level samples only the
    midpoints of the last, S_{j+1} = S_j / 2 + h_{j+1} sum_new f e^{-i omega t},
    so no node is sampled twice. The doubling stops once two levels agree
    to rtol * max(contour.scale, max_t |value|), or when the next level
    would exceed n_points.

    `taper` > 0 applies a Gaussian window exp(-taper (omega/Omega)^2),
    trading a small time smearing (~ sqrt(taper)/Omega) for exponentially
    suppressed truncation ringing.

    Returns (values, error_estimate). The estimate combines the window
    tail (assuming ~1/omega^2 decay of the sampler) with the exp(eta t)
    amplification at the latest requested time. On nested levels it adds
    the last nested difference and the rounding bound
    gamma_n sum |w f| exp(eta t) / (2 pi) of the n sampled nodes, with
    gamma_n = n u (Higham, Accuracy and Stability, section 3.1).
    """
    t = np.atleast_1d(np.asarray(t_grid, dtype=float))
    levels = _levels(contour)
    nested = len(levels) > 1
    big = contour.omega_max
    peak, values, acc, abs_sum = 0.0, None, 0.0, 0.0
    for j, n in enumerate(levels):
        h = 2.0 * big / (n - 1)
        omega = np.linspace(-big, big, n)
        if j > 0:
            omega = omega[1::2]  # the midpoints of the last level
        part, wf = np.zeros(t.shape, dtype=np.complex128), 0.0
        for lo in range(0, omega.size, _BLOCK):
            block = omega[lo:lo + _BLOCK]
            f = np.asarray(sampler(block + 1j * contour.eta), dtype=np.complex128)
            if f.shape != block.shape:
                raise ValueError("sampler must return one value per contour node")
            peak = max(peak, float(np.max(np.abs(f))))
            w = np.full(block.size, h)
            if j == 0:
                # the window ends: their samples before the taper, half weights
                if lo == 0:
                    edge, w[0] = abs(f[0]), 0.5 * h
                if lo + _BLOCK >= n:
                    edge, w[-1] = max(edge, abs(f[-1])), 0.5 * h
            if taper > 0:
                f = f * np.exp(-taper * (block / big) ** 2)
            f = w * f
            wf += float(np.sum(np.abs(f)))
            part += np.exp(-1j * np.outer(t, block)) @ f
        acc = 0.5 * acc + part
        abs_sum = 0.5 * abs_sum + wf
        previous, values = values, np.exp(contour.eta * t) * acc / (2.0 * math.pi)
        if j > 0:
            diff = float(np.max(np.abs(values - previous)))
            if diff <= contour.rtol * max(contour.scale, float(np.max(np.abs(values)))):
                break
    if peak > 0 and edge > 0.5 * peak:
        raise NonDecayingIntegrandError(
            f"sampler magnitude at the window edge ({edge:.3e}) is not small "
            f"against its peak ({peak:.3e}); enlarge omega_max"
        )
    tail = edge * big / (2.0 * math.pi)
    if taper > 0:
        tail *= math.exp(-taper)
    grow = float(np.exp(contour.eta * np.max(t)))
    estimate = tail * grow
    if nested:
        estimate += diff + n * _UNIT_ROUNDOFF * abs_sum * grow / (2.0 * math.pi)
    return values, estimate


def cauchy_loop(sampler, loop):
    """Scale-free analyticity defect |loop integral| / (perimeter * max |f|).

    n Gauss-Legendre nodes per edge; exact for polynomials, exponentially
    accurate for functions analytic in a neighborhood of the rectangle.
    Returns (defect, error_estimate). The estimate adds twice the
    difference |S_n - S_2n| of the loop sums on n and 2n nodes per edge
    (a truncation bound whenever doubling the nodes at least halves the
    error) to the rounding bound gamma_n sum_edges |half| sum w |f| of the
    n nodes, gamma_n = n u, both over perimeter * max |f| of the n nodes;
    the sampler's own error is not included. A sample that is not finite
    raises DomainError, with no floating-point warning: no defect is read.
    """
    total, abs_sum, maxabs, perimeter = _loop_sum(sampler, loop, loop.n_points)
    if maxabs == 0.0:
        return 0.0, 0.0
    scale = perimeter * maxabs
    rounding = 4 * loop.n_points * _UNIT_ROUNDOFF * abs_sum
    truncation = 2.0 * abs(total - _loop_sum(sampler, loop, 2 * loop.n_points)[0])
    return abs(total) / scale, (rounding + truncation) / scale


def _loop_sum(sampler, loop, n):
    """The loop sum on n Gauss-Legendre nodes per edge, sum_edges half sum
    w f, with sum_edges |half| sum w |f|, max |f| and the perimeter."""
    a, b = loop.z_lo, loop.z_hi
    corners = [a, complex(b.real, a.imag), b, complex(a.real, b.imag), a]
    x, wx = np.polynomial.legendre.leggauss(n)
    total = 0.0 + 0.0j
    abs_sum = 0.0
    maxabs = 0.0
    perimeter = 0.0
    for z0, z1 in zip(corners[:-1], corners[1:]):
        mid = 0.5 * (z0 + z1)
        half = 0.5 * (z1 - z0)
        nodes = mid + half * x
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            vals = np.asarray(sampler(nodes), dtype=np.complex128)
        if not np.all(np.isfinite(vals)):
            raise DomainError("the loop sampler is not finite at every node")
        total += half * np.sum(wx * vals)
        abs_sum += abs(half) * float(np.sum(wx * np.abs(vals)))
        maxabs = max(maxabs, float(np.max(np.abs(vals))))
        perimeter += abs(z1 - z0)
    return total, abs_sum, maxabs, perimeter


def kk_kernel_integral(nu_max, samples, z):
    """-int samples(nu) / (z^2 - nu^2) dnu by the composite Simpson rule, the
    samples taken on the uniform grid of len(samples) points over [-nu_max, nu_max]."""
    z = complex(z)
    if z.imag <= 0:
        raise DomainError("KK kernel integral requires Im z > 0")
    s = np.asarray(samples)
    nu = np.linspace(-nu_max, nu_max, s.size)
    integrand = -s / (z * z - nu * nu)
    return complex(_simpson(integrand, 2.0 * nu_max / (s.size - 1)))


def _simpson(y, h):
    """Composite Simpson rule of the samples y at spacing h.

    An even number of samples takes Simpson panels over all but the last
    interval and Cartwright's correction h/12 (5 y[-1] + 8 y[-2] - y[-3])
    for it, as `scipy.integrate.simpson` does; two samples take the
    trapezoid rule.
    """
    n = len(y)
    if n == 2:
        return 0.5 * h * (y[0] + y[1])
    odd = n if n % 2 else n - 1
    result = h / 3.0 * np.sum(y[0:odd - 2:2] + 4.0 * y[1:odd - 1:2] + y[2:odd:2])
    if n % 2 == 0:
        result += h / 12.0 * (5.0 * y[-1] + 8.0 * y[-2] - y[-3])
    return result
