"""Discretized 1D Helmholtz operators at complex frequency.

The scalar reduction of -curl curl for transverse fields is +d^2/dx^2,
discretized with 2nd-order central differences. Dirichlet walls model the
closed cavity (tridiagonal, complex-symmetric); Bloch boundaries wrap the
stencil with quasi-periodic phases (cyclic tridiagonal).

Units are normalized (eps0 = mu0 = c = 1). Operator kinds:
  dispersive(z)        diag  z^2 eps(x, z)                   - 2/h^2
  two_freq(z, xi)      diag  z^2 + z xi [eps(x, xi) - 1]     - 2/h^2
  nondispersive(z, w0) diag  z^2 eps(x, w0)                  - 2/h^2
  bloch(z, k)          dispersive diagonal, cyclic wrap entries exp(-+ikL)/h^2

The bloch kind runs on Bloch grids, every other kind on Dirichlet grids.
The nondispersive kind freezes the dispersion at a real w0 > 0 below every
line on the grid, where eps(x, w0) is real and >= 1.
An operator is its length-N diagonal (`assemble`; `diagonal_rows` and
`diagonal_batch` for many): the off-diagonal is the constant 1/h^2, and
the Bloch wrap entries are `_bloch_corners`. `inverse_norm` needs no dense
matrix either: it bisects sigma_min on a Sturm count in 2x2 blocks. With
constant eps the Dirichlet operator is diagonal in the sine basis `sine_modes`.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels, dispersion
from .errors import ConfigError, DomainError, GapViolationError, PeriodicityError
from .dispersion import density_eval_array


@dataclass(frozen=True)
class Grid1D:
    L: float
    N: int
    boundary: str = "dirichlet"
    bloch_k: complex = 0.0

    def __post_init__(self):
        if self.N < 8:
            raise ConfigError("grid needs at least 8 points")
        if self.L <= 0:
            raise ConfigError("domain length must be > 0")
        if self.boundary not in ("dirichlet", "bloch"):
            raise ConfigError(f"unknown boundary {self.boundary!r}")
        # every operator's off-diagonal is 1/h^2
        h2 = self.h * self.h
        if not (h2 > 0.0 and 0.0 < 1.0 / h2 < math.inf):
            raise ConfigError(f"grid spacing h = {self.h:.3e}: 1/h^2 is not a finite "
                              "positive float")

    @property
    def h(self):
        if self.boundary == "dirichlet":
            return self.L / (self.N + 1)
        return self.L / self.N

    @property
    def points(self):
        if self.boundary == "dirichlet":
            return self.h * np.arange(1, self.N + 1)
        return self.h * np.arange(self.N)


def permittivity_profile(model, x_points, z):
    """eps(x_i, z) over the grid points, grouped by layer density."""
    z = np.asarray(z, dtype=np.complex128).reshape(1)
    table, index = _permittivity_table(model, x_points, z)
    return table[index, 0]


def _layer_index(model, x_points):
    """The non-vacuum layer densities that hold points, and each point's
    table row: 0 for vacuum, k for the k-th density. As in `density_at`,
    the first layer containing a point wins."""
    x = np.asarray(x_points, dtype=float)
    index = np.zeros(x.size, dtype=np.intp)
    free = np.ones(x.size, dtype=bool)
    densities = []
    for x0, x1, density in model.layers:
        inside = free & (x0 <= x) & (x <= x1)
        free &= ~inside
        if inside.any() and not density.is_vacuum:
            densities.append(density)
            index[inside] = len(densities)
    return densities, index


def _permittivity_table(model, x_points, z):
    """eps at the 1-D array z for each `_layer_index` table row, as a
    (K+1, B) array (row 0 the background), and each point's table row: one
    density evaluation per layer that holds points."""
    densities, index = _layer_index(model, x_points)
    table = np.zeros((len(densities) + 1, z.size), dtype=np.complex128)
    for k, density in enumerate(densities, 1):
        table[k] = density_eval_array(density, z)
    table += complex(model.background)
    return table, index


def sine_modes(grid):
    """Closed-form eigenpairs of the Dirichlet second difference (the DST-I
    basis): -D2 s_n = lam_n s_n with s_n(j) = sqrt(2/(N+1)) sin(n j pi/(N+1))
    and lam_n = (4/h^2) sin^2(n pi / (2(N+1))), n = 1..N.

    Returns (lam, S): lam increasing, S orthogonal with column n-1 = s_n.
    """
    if grid.boundary != "dirichlet":
        raise ConfigError("the sine basis requires a Dirichlet grid")
    m = grid.N + 1
    n = np.arange(1, m)
    lam = (2.0 / grid.h * np.sin(0.5 * math.pi / m * n)) ** 2
    # n j reduced modulo the period 2m keeps the sine argument below 2 pi
    S = math.sqrt(2.0 / m) * np.sin(math.pi / m * (np.outer(n, n) % (2 * m)))
    return lam, S


def uniform_permittivity(model, grid):
    """The constant eps (model.background) of a medium none of whose
    dispersive layers holds a grid point; None otherwise."""
    densities, _ = _layer_index(model, grid.points)
    return None if densities else float(model.background)


def check_kind_domain(kind, z, xi, model, grid, omega0=None):
    """Domain of each operator kind over arrays of z (and xi, or omega0),
    and the grid each kind runs on."""
    if kind in ("dispersive", "nondispersive"):
        if np.any(z.imag < 0):
            raise DomainError(f"{kind} operator requires Im z >= 0")
        if kind == "dispersive":
            if not model.damped and np.any(z.imag == 0):
                raise DomainError("real-axis assembly requires a damped medium")
        elif omega0 is None:
            raise ConfigError("nondispersive kind requires omega0")
        elif not omega0 > 0:
            raise DomainError(f"nondispersive kind requires omega0 > 0, got {omega0}")
        elif any(density.lorentz or min(density.lines)[0] <= omega0
                 for density in _layer_index(model, grid.points)[0]):
            raise GapViolationError(f"the nondispersive kind needs lines only, all above "
                                    f"omega0 = {omega0}, in every density on the grid")
    elif kind == "two_freq":
        if np.any(z.imag <= 0) or np.any(xi.imag <= 0):
            raise DomainError("two-frequency operator requires Im z > 0 and Im xi > 0")
    elif kind == "bloch":
        k = complex(grid.bloch_k)
        if np.any(z.imag <= abs(k.imag)):
            raise DomainError(f"Bloch operator requires Im z > |Im k| = {abs(k.imag)}")
    else:
        raise ConfigError(f"unknown operator kind {kind!r}")
    boundary = "bloch" if kind == "bloch" else "dirichlet"
    if grid.boundary != boundary:
        raise ConfigError(f"{kind} kind requires a {boundary} grid")


def assemble(grid, model, z):
    """The length-N diagonal of the dispersive operator at one z: the B = 1
    case of `diagonal_batch`, which also checks the domain. Every operator
    shares the constant off-diagonal 1/h^2."""
    return diagonal_batch(grid, model, "dispersive", [complex(z)])[0]


def _bloch_corners(model, grid):
    """The Bloch wrap entries (A[N-1, 0], A[0, N-1]) = exp(+-ikL) / h^2 on
    `grid`; raises when a layer of `model` leaves the unit cell [0, L]."""
    for x0, x1, _ in model.layers:
        if x0 < 0 or x1 > grid.L:
            raise PeriodicityError(
                f"layer [{x0}, {x1}] extends outside the unit cell [0, {grid.L}]"
            )
    k = complex(grid.bloch_k)
    return np.exp(1j * k * grid.L) / grid.h**2, np.exp(-1j * k * grid.L) / grid.h**2


def _solve(grid, diag, rhs):
    """H^-1 rhs for the Dirichlet operator with diagonal `diag`: one Thomas
    solve with the constant off-diagonal 1/h^2."""
    off = np.full(grid.N - 1, 1.0 / grid.h**2, dtype=np.complex128)
    return _kernels.tridiag_solve(off, diag, off, rhs)


def green_matrix(grid, diag):
    """The (N, N) matrix G[i, j] ~= G(x_i, x_j; z) of the operator with
    diagonal `diag`, via discrete deltas e_j / h."""
    return _solve(grid, diag, np.eye(grid.N, dtype=np.complex128) / grid.h)


def coefficient(grid, diag, phi, psi):
    """Discrete coefficient h * sum conj(phi_i) (H^-1 psi)_i."""
    phi = np.asarray(phi, dtype=np.complex128)
    field_ = _solve(grid, diag, np.asarray(psi, dtype=np.complex128))
    return complex(grid.h * np.vdot(phi, field_))


def norm_bound(z):
    """Proven bound 1 / (|z| Im z) on the inverse operator norm at each z
    of an array; inf where Im z <= 0."""
    z = np.asarray(z, dtype=np.complex128)
    with np.errstate(divide="ignore"):
        return np.where(z.imag > 0, 1.0 / (np.hypot(z.real, z.imag) * z.imag), math.inf)


def inverse_norm(grid, rows, index):
    """||H_b^-1|| = 1 / sigma_min for each Dirichlet operator whose diagonal
    is rows[index, b] (the form of `diagonal_rows`), and its error estimate:
    sigma_min bisected geometrically on `_count_below`, from the column-norm
    bound sqrt(min|d|^2 + 2/h^4) and a lower end stepped down to count 0, until
    the bracket's half-width is within the count's rounding gamma_2N (max|d| +
    2/h^2) (sigma_max u by Gershgorin) or its midpoint equals an endpoint. The
    estimate is that half-width plus the rounding, both times ||H^-1||^2.
    """
    used = np.abs(rows[np.unique(index)])
    off = 1.0 / grid.h**2
    hi = np.hypot(np.min(used, axis=0), math.sqrt(2.0) * off)
    lo = 0.5 * hi
    # each step squares the ratio hi / lo, until lo is 0 at the latest
    while (below := (_count_below(off, rows, index, lo) > 0) & (lo > 0)).any():
        lo, hi = np.where(below, lo * (lo / hi) ** 2, lo), np.where(below, lo, hi)
    rounding = grid.N * np.finfo(float).eps * (np.max(used, axis=0) + 2.0 * off)
    mid = np.sqrt(lo) * np.sqrt(hi)
    while (wide := (lo < mid) & (mid < hi) & (hi - lo > 2.0 * rounding)).any():
        below = _count_below(off, rows, index, mid) > 0
        lo, hi = np.where(wide & ~below, mid, lo), np.where(wide & below, mid, hi)
        mid = np.sqrt(lo) * np.sqrt(hi)
    norms = 2.0 / (lo + hi)
    return norms, (0.5 * (hi - lo) + rounding) * norms * norms


def _count_below(off, rows, index, s):
    """The number of singular values below s[b] of the Dirichlet operator
    with diagonal rows[index, b] and off-diagonal `off`: the eigenvalues of
    J = [[0, H], [H^H, 0]] in (0, s) (Golub & Kahan 1965), counted by a Sturm
    count in 2x2 blocks (Barth, Martin & Wilkinson 1967). J - s has block LDL^H
    pivots [[a, b], [conj(b), a]] with eigenvalues a -+ |b|, a_i = -s - q a_{i-1},
    b_i = d_i + q conj(b_{i-1}) and q = off^2 / (a_{i-1}^2 - |b_{i-1}|^2); it runs in
    place in units of off on the real and imaginary parts of the distinct rows,
    a determinant below pivmin set to -pivmin as in LAPACK dstebz."""
    re, im, neg_s, used = rows.real / off, rows.imag / off, -s / off, rows[np.unique(index)]
    neg_pivmin = -np.finfo(float).tiny * (2.0 + np.max(np.abs(used), axis=0) / off) ** 2
    a, b_re, b_im, abs_b, low, high, q = np.zeros((7, *s.shape))
    count = np.full(s.shape, -len(index))
    for k in index:
        np.subtract(neg_s, np.multiply(q, a, out=a), out=a)
        np.add(re[k], np.multiply(q, b_re, out=b_re), out=b_re)
        np.subtract(im[k], np.multiply(q, b_im, out=b_im), out=b_im)
        np.hypot(b_re, b_im, out=abs_b)
        count += np.subtract(a, abs_b, out=low) < 0.0
        count += np.add(a, abs_b, out=high) < 0.0
        np.multiply(low, high, out=q)
        np.copyto(q, neg_pivmin, where=np.abs(q, out=abs_b) < -neg_pivmin)
        np.divide(1.0, q, out=q)
    return count


def resolvent_difference_ray(model, grid, eta, omega_ladder):
    """||z^2 (H_e(z)^-1 - H_0(z)^-1)|| along z = omega + i eta.

    Asymptotically capped by dchi/dt(0+) / (Im z)^2.
    """
    if eta <= 0:
        raise DomainError("ray requires eta > 0")
    # Two Thomas solves rather than the closed-form vacuum inverse: their
    # shared rounding cancels in the difference, which is orders of
    # magnitude smaller than either inverse at large omega.
    vacuum = dispersion.PermittivityModel()
    rhs = np.eye(grid.N, dtype=np.complex128)
    out = []
    for omega in omega_ladder:
        z = complex(omega, eta)
        inv_e = _solve(grid, assemble(grid, model, z), rhs)
        inv_0 = _solve(grid, assemble(grid, vacuum, z), rhs)
        sv = np.linalg.svd(z * z * (inv_e - inv_0), compute_uv=False)
        out.append(float(sv[0]))
    return out


def diagonal_rows(grid, model, kind, z_array, xi=None, omega0=None):
    """Operator diagonals of any kind, one per z in the 1-D `z_array`, as
    the distinct rows of the `_layer_index` table; for two_freq, `xi` is
    broadcast against `z_array`. Raises for z (and xi) outside the kind's
    domain.

    Returns (rows, index): rows of shape (K+1, B) and the length-N table
    row of each grid point, so the diagonal at point i is rows[index[i]].
    Built in place, with the operands in the order of the formulas in the
    module docstring.
    """
    z = np.asarray(z_array, dtype=np.complex128)
    if kind == "two_freq":
        if xi is None:
            raise ConfigError("two_freq kind requires xi")
        z, xi = np.broadcast_arrays(z, np.asarray(xi, dtype=np.complex128))
    check_kind_domain(kind, z, xi, model, grid, omega0)
    if kind in ("dispersive", "bloch"):
        rows, index = _permittivity_table(model, grid.points, z)
        np.multiply(z * z, rows, out=rows)
    elif kind == "two_freq":
        rows, index = _permittivity_table(model, grid.points, xi)
        np.subtract(rows, 1.0, out=rows)
        np.multiply(z * xi, rows, out=rows)
        np.add(z * z, rows, out=rows)
    else:  # nondispersive: eps at the real omega0, real below every line
        table, index = _permittivity_table(model, grid.points, np.array([omega0], complex))
        rows = np.multiply(z * z, table.real)
    np.subtract(rows, 2.0 / grid.h**2, out=rows)
    return rows, index


def diagonal_batch(grid, model, kind, z_array, xi=None, omega0=None):
    """The diagonals of `diagonal_rows` gathered per grid point: shape
    (B, N), Fortran-ordered, so the transpose is the C-ordered (N, B) array
    the batched Thomas kernel runs on."""
    rows, index = diagonal_rows(grid, model, kind, z_array, xi, omega0)
    return rows[index].T
