"""Tridiagonal solvers in numpy: the Thomas algorithm, and a forward-only
LDL^T sweep for bilinear forms of complex-symmetric systems.

One Thomas recurrence serves one system and B systems: the batched solve
keeps the public (B, N) shapes but runs it on the (N, B) transposes, so
each of its N steps reads and writes contiguous rows of B values;
``diags`` built Fortran-ordered make ``diags.T`` that (N, B) array without
a copy. The bilinear sweep, which the contour and sweep paths use, keeps
only (B,) vectors between its steps.
"""

import numpy as np

from .errors import DomainError

# Recorded in benchmark provenance; numpy is the only backend.
BACKEND = "pure"

_PIVOT_FLOOR = 1e-300


def tridiag_solve(dl, d, du, b):
    """Solve (complex) tridiagonal systems by the Thomas algorithm.

    dl, du : sub/super-diagonals, length N-1
    d      : diagonal, shape (N,); or (N, B) for B systems, one per column
    b      : right-hand side, shape (N,) or (N, nrhs); (N, B) with an (N, B) d

    A pivot below the floor raises DomainError after the forward sweep,
    which runs under ``np.errstate``: no floating-point warning escapes.
    """
    d = np.ascontiguousarray(d, dtype=np.complex128)
    dl = np.asarray(dl, dtype=np.complex128)
    du = np.asarray(du, dtype=np.complex128)
    x = np.array(b, dtype=np.complex128, order="C")
    n = d.shape[0]
    cp = np.empty((n - 1,) + d.shape[1:], dtype=np.complex128)
    piv = np.empty(d.shape, dtype=np.complex128)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        p = piv[0] = d[0]
        cp[0] = du[0] / p
        x[0] = x[0] / p
        for i in range(1, n):
            p = piv[i] = d[i] - dl[i - 1] * cp[i - 1]
            if i < n - 1:
                cp[i] = du[i] / p
            x[i] = (x[i] - dl[i - 1] * x[i - 1]) / p
    # fmin skips the NaNs that follow a zero pivot
    if np.fmin.reduce(np.abs(piv), axis=None) < _PIVOT_FLOOR:
        raise DomainError("zero pivot in tridiagonal factorization")
    for i in range(n - 2, -1, -1):
        x[i] = x[i] - cp[i] * x[i + 1]
    return x


def tridiag_solve_batch(dl, du, diags, rhs):
    """Solve B tridiagonal systems sharing off-diagonals: `tridiag_solve`
    on the (N, B) transposes.

    dl, du : shared sub/super-diagonals, length N-1
    diags  : per-system diagonals, shape (B, N); Fortran order saves a copy
    rhs    : per-system right-hand sides, shape (B, N); may be a broadcast view

    Returns the solutions as a Fortran-ordered (B, N) array; the result
    does not depend on the input layout.
    """
    return tridiag_solve(dl, np.asarray(diags).T, du, np.asarray(rhs).T).T


def tridiag_bilinear_batch(off, rows, index, phi, psi):
    """phi^T A_b^-1 psi for B complex-symmetric tridiagonal systems A_b.

    off   : the constant off-diagonal shared by every system
    rows  : (K+1, B) distinct diagonal rows; row i of the diagonal of the
            B systems is ``rows[index[i]]``
    index : length-N table row of each diagonal row
    phi, psi : length-N vectors shared by every system

    One forward sweep of A = L D L^T (Golub & Van Loan, Matrix Computations,
    sec. 4.3), keeping only (B,) vectors: p_0 = d_0, l_i = off / p_{i-1},
    p_i = d_i - off l_i, as in the Thomas elimination. With y = D^-1 L^-1 psi
    (its forward sweep, y_i = (psi_i - off y_{i-1}) / p_i) and u = L^-1 phi
    (u_i = phi_i - l_i u_{i-1}), the form is sum_i u_i y_i. Each step takes
    one reciprocal 1 / p_i and multiplies by it. When phi equals psi,
    u_i = p_i y_i and the y recurrence serves both; rows before the first
    nonzero entry of phi add nothing and only advance p and y.

    Returns a length-B complex array. Raises DomainError when the
    running minimum of |p_i| falls below the pivot floor; no floating-point
    warning escapes.
    """
    phi = np.asarray(phi, dtype=np.complex128)
    psi = np.asarray(psi, dtype=np.complex128)
    same = np.array_equal(phi, psi)
    nonzero = np.flatnonzero(phi)
    first = nonzero[0] if nonzero.size else len(index)
    nb = rows.shape[1]
    piv = np.array(rows[index[0]], dtype=np.complex128)
    inv = np.empty(nb, dtype=np.complex128)
    mult = np.zeros(nb, dtype=np.complex128)
    tmp = np.empty(nb, dtype=np.complex128)
    mag = np.abs(piv)
    smallest = mag.copy()
    y = np.full(nb, psi[0])
    u = np.zeros(nb, dtype=np.complex128)
    acc = np.zeros(nb, dtype=np.complex128)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i in range(len(index)):
            if i:
                np.multiply(off, inv, out=mult)  # l_i
                np.multiply(off, mult, out=tmp)
                np.subtract(rows[index[i]], tmp, out=piv)
                np.abs(piv, out=mag)
                np.fmin(smallest, mag, out=smallest)
                np.multiply(off, y, out=tmp)
                np.subtract(psi[i], tmp, out=y)
            np.divide(1.0, piv, out=inv)
            np.multiply(y, inv, out=y)
            if i < first:
                continue
            if same:
                np.multiply(piv, y, out=u)
            else:  # l_0 = 0
                np.multiply(mult, u, out=tmp)
                np.subtract(phi[i], tmp, out=u)
            np.multiply(u, y, out=tmp)
            np.add(acc, tmp, out=acc)
    if np.fmin.reduce(smallest) < _PIVOT_FLOOR:
        raise DomainError("zero pivot in batched tridiagonal factorization")
    return acc


def cyclic_tridiag_solve(dl, d, du, wrap_lo, wrap_hi, b):
    """`tridiag_solve` with wrap entries A[N-1, 0] = wrap_lo, A[0, N-1] =
    wrap_hi, and its shapes: d (N,) with b (N,) or (N, nrhs), or d and b
    (N, B). Sherman-Morrison (Numerical Recipes, sec. 2.7) with gamma = -d[0]
    per system (1 where d[0] vanishes): Thomas solves for b and the wrap u."""
    d = np.asarray(d, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    gamma = np.where(np.abs(d[0]) > _PIVOT_FLOOR, -d[0], 1.0)
    dmod = d.copy()
    dmod[0] -= gamma
    dmod[-1] -= wrap_lo * wrap_hi / gamma
    u = np.zeros(d.shape + (1,) * (b.ndim - d.ndim), dtype=np.complex128)
    u[0] = gamma
    u[-1] = wrap_lo
    y = tridiag_solve(dl, dmod, du, b)
    q = tridiag_solve(dl, dmod, du, u)
    vy = y[0] + wrap_hi / gamma * y[-1]
    vq = q[0] + wrap_hi / gamma * q[-1]
    return y - q * (vy / (1.0 + vq))
