"""Tridiagonal solvers: the Thomas algorithm in numpy.

The batched solve keeps the public (B, N) shapes but runs its recurrence on
the (N, B) transposes, so each of its N steps reads and writes contiguous
rows of B values. Callers on the contour path build their diagonals
Fortran-ordered, which makes ``diags.T`` that (N, B) array without a copy.
"""

import numpy as np

from .errors import SingularMatrixError

# Recorded in benchmark provenance; numpy is the only backend.
BACKEND = "pure"

_PIVOT_FLOOR = 1e-300


def tridiag_solve(dl, d, du, b):
    """Solve a (complex) tridiagonal system by the Thomas algorithm.

    dl, du : sub/super-diagonals, length N-1
    d      : diagonal, length N
    b      : right-hand side, shape (N,) or (N, nrhs)
    """
    d = np.asarray(d, dtype=np.complex128)
    dl = np.asarray(dl, dtype=np.complex128)
    du = np.asarray(du, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    n = d.shape[0]
    cp = np.empty(n - 1, dtype=np.complex128)
    x = b.copy()
    piv = d[0]
    if abs(piv) < _PIVOT_FLOOR:
        raise SingularMatrixError("zero pivot in tridiagonal factorization")
    cp[0] = du[0] / piv
    x[0] = x[0] / piv
    for i in range(1, n):
        piv = d[i] - dl[i - 1] * cp[i - 1]
        if abs(piv) < _PIVOT_FLOOR:
            raise SingularMatrixError("zero pivot in tridiagonal factorization")
        if i < n - 1:
            cp[i] = du[i] / piv
        x[i] = (x[i] - dl[i - 1] * x[i - 1]) / piv
    for i in range(n - 2, -1, -1):
        x[i] = x[i] - cp[i] * x[i + 1]
    return x


def tridiag_solve_batch(dl, du, diags, rhs):
    """Solve B independent tridiagonal systems sharing off-diagonals.

    dl, du : shared sub/super-diagonals, length N-1
    diags  : per-system diagonals, shape (B, N); Fortran order is fastest
    rhs    : per-system right-hand sides, shape (B, N); may be a broadcast view

    Returns the solutions as a Fortran-ordered (B, N) array. Every step
    writes through ``out=`` buffers, with the operands in the order of the
    textbook recurrence, so the result does not depend on the input layout.
    """
    dl = np.asarray(dl, dtype=np.complex128)
    du = np.asarray(du, dtype=np.complex128)
    d = np.asarray(diags, dtype=np.complex128).T
    x = np.array(np.asarray(rhs).T, dtype=np.complex128, order="C")
    n, nb = d.shape
    cp = np.empty((n - 1, nb), dtype=np.complex128)
    piv = np.empty(nb, dtype=np.complex128)
    tmp = np.empty(nb, dtype=np.complex128)
    mag = np.empty(nb)
    _check_batch_pivots(d[0], mag)
    np.divide(du[0], d[0], out=cp[0])
    np.divide(x[0], d[0], out=x[0])
    for i in range(1, n):
        np.multiply(dl[i - 1], cp[i - 1], out=tmp)
        np.subtract(d[i], tmp, out=piv)
        _check_batch_pivots(piv, mag)
        if i < n - 1:
            np.divide(du[i], piv, out=cp[i])
        np.multiply(dl[i - 1], x[i - 1], out=tmp)
        np.subtract(x[i], tmp, out=x[i])
        np.divide(x[i], piv, out=x[i])
    for i in range(n - 2, -1, -1):
        np.multiply(cp[i], x[i + 1], out=tmp)
        np.subtract(x[i], tmp, out=x[i])
    return x.T


def _check_batch_pivots(piv, mag):
    np.abs(piv, out=mag)
    if np.any(mag < _PIVOT_FLOOR):
        raise SingularMatrixError("zero pivot in batched tridiagonal factorization")


def cyclic_tridiag_solve(dl, d, du, corner_lo, corner_hi, b):
    """Cyclic tridiagonal solve (Sherman-Morrison on the wrap entries)."""
    d = np.asarray(d, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    n = d.shape[0]
    gamma = -d[0] if abs(d[0]) > 1e-300 else 1.0 + 0.0j
    dmod = d.copy()
    dmod[0] -= gamma
    dmod[-1] -= corner_lo * corner_hi / gamma
    u = np.zeros(n, dtype=np.complex128)
    u[0] = gamma
    u[-1] = corner_lo
    if b.ndim == 1:
        rhs = np.stack([b, u], axis=-1)
        sol = tridiag_solve(dl, dmod, du, rhs)
        y, q = sol[:, 0], sol[:, 1]
        vy = y[0] + corner_hi / gamma * y[-1]
        vq = q[0] + corner_hi / gamma * q[-1]
        return y - q * (vy / (1.0 + vq))
    rhs = np.concatenate([b, u[:, None]], axis=1)
    sol = tridiag_solve(dl, dmod, du, rhs)
    y, q = sol[:, :-1], sol[:, -1]
    vy = y[0] + corner_hi / gamma * y[-1]
    vq = q[0] + corner_hi / gamma * q[-1]
    return y - q[:, None] * (vy / (1.0 + vq))[None, :]
