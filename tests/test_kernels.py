import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import helmgreen
from helmgreen import _kernels
from helmgreen.errors import SingularMatrixError


def _random_system(rng, n, batch=None):
    dl = rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)
    du = rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)
    shape = (n,) if batch is None else (batch, n)
    # diagonally dominant imaginary part keeps the systems well conditioned
    d = rng.standard_normal(shape) + 1j * (4.0 + rng.random(shape))
    b = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return dl, du, d, b


def _dense(dl, du, d):
    return np.diag(d) + np.diag(dl, -1) + np.diag(du, 1)


def test_tridiag_solve_matches_dense_oracle():
    rng = np.random.default_rng(7)
    for n in (8, 37, 128):
        dl, du, d, b = _random_system(rng, n)
        x = _kernels.tridiag_solve(dl, d, du, b)
        oracle = np.linalg.solve(_dense(dl, du, d), b)
        assert np.max(np.abs(x - oracle)) < 1e-11


def test_tridiag_solve_multiple_rhs():
    rng = np.random.default_rng(11)
    dl, du, d, _ = _random_system(rng, 24)
    b = rng.standard_normal((24, 5)) + 1j * rng.standard_normal((24, 5))
    x = _kernels.tridiag_solve(dl, d, du, b)
    oracle = np.linalg.solve(_dense(dl, du, d), b)
    assert np.max(np.abs(x - oracle)) < 1e-11


def test_tridiag_solve_batch_matches_loop():
    rng = np.random.default_rng(13)
    n, batch = 40, 17
    dl, du, d, b = _random_system(rng, n, batch=batch)
    x = _kernels.tridiag_solve_batch(dl, du, d, b)
    for i in range(batch):
        xi = _kernels.tridiag_solve(dl, d[i], du, b[i])
        assert np.max(np.abs(x[i] - xi)) < 1e-12


@given(n=st.integers(2, 32), batch=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_property_batch_matches_dense_solve(n, batch, seed):
    # strictly diagonally dominant rows: |d| exceeds |dl| + |du| by at least 1
    rng = np.random.default_rng(seed)
    dl, du, _, b = _random_system(rng, n, batch=batch)
    off = np.zeros(n)
    off[1:] += np.abs(dl)
    off[:-1] += np.abs(du)
    phase = np.exp(2j * np.pi * rng.random((batch, n)))
    d = (off + 1.0 + rng.random((batch, n))) * phase
    x = _kernels.tridiag_solve_batch(dl, du, d, b)
    for i in range(batch):
        oracle = np.linalg.solve(_dense(dl, du, d[i]), b[i])
        assert np.linalg.norm(x[i] - oracle) <= 1e-12 * np.linalg.norm(oracle)


def test_cyclic_solve_matches_dense_oracle():
    rng = np.random.default_rng(17)
    n = 32
    dl, du, d, b = _random_system(rng, n)
    lo = 0.3 + 0.8j
    hi = 0.3 - 0.8j
    x = _kernels.cyclic_tridiag_solve(dl, d, du, lo, hi, b)
    m = _dense(dl, du, d)
    m[n - 1, 0] += lo
    m[0, n - 1] += hi
    oracle = np.linalg.solve(m, b)
    assert np.max(np.abs(x - oracle)) < 1e-11


@given(n=st.integers(3, 24), batch=st.integers(1, 8),
       case=st.sampled_from(["one", "one_many_rhs", "batch"]), zero=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_property_cyclic_solve_matches_dense_solve(n, batch, case, zero, seed):
    # |d| >= 6 dominates the off-diagonals (<= 1) and corners (<= 0.1); with
    # d[0] = 0 the wrap falls back to gamma = 1 and the matrix stays regular
    rng = np.random.default_rng(seed)

    def phases(shape):
        return np.exp(2j * np.pi * rng.random(shape))

    dl, du = rng.uniform(0.5, 1.0, (2, n - 1)) * phases((2, n - 1))
    lo, hi = rng.uniform(0.0, 0.1, 2) * phases(2)
    d = rng.uniform(6.0, 8.0, (n, batch)) * phases((n, batch))
    if zero:
        d[0, 0] = 0.0
    b = rng.standard_normal((n, batch)) + 1j * rng.standard_normal((n, batch))
    if case == "one":
        d, b = d[:, 0], b[:, 0]
    elif case == "one_many_rhs":
        d = d[:, 0]
    x = _kernels.cyclic_tridiag_solve(dl, d, du, lo, hi, b)

    def dense(diag):
        m = _dense(dl, du, diag)
        m[n - 1, 0] += lo
        m[0, n - 1] += hi
        return m

    if case == "batch":
        oracle = np.stack([np.linalg.solve(dense(d[:, i]), b[:, i]) for i in range(batch)],
                          axis=1)
    else:
        oracle = np.linalg.solve(dense(d), b)
    assert x.shape == b.shape
    assert np.linalg.norm(x - oracle) <= 1e-12 * np.linalg.norm(oracle)


def test_singular_pivot_raises():
    n = 8
    dl = np.zeros(n - 1, dtype=complex)
    du = np.zeros(n - 1, dtype=complex)
    d = np.ones(n, dtype=complex)
    d[3] = 0.0
    b = np.ones(n, dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularMatrixError):
            _kernels.tridiag_solve(dl, d, du, b)


def _row_major_batch_solve(dl, du, diags, rhs):
    """The Thomas recurrence on C-ordered (B, N) arrays, stepping along
    strided columns: the layout the batched kernel used before it moved
    to (N, B) rows. Kept as the exactness oracle."""
    x = np.array(rhs, dtype=np.complex128, copy=True)
    nb, n = diags.shape
    cp = np.empty((nb, n - 1), dtype=np.complex128)
    piv = diags[:, 0].copy()
    cp[:, 0] = du[0] / piv
    x[:, 0] /= piv
    for i in range(1, n):
        piv = diags[:, i] - dl[i - 1] * cp[:, i - 1]
        if i < n - 1:
            cp[:, i] = du[i] / piv
        x[:, i] = (x[:, i] - dl[i - 1] * x[:, i - 1]) / piv
    for i in range(n - 2, -1, -1):
        x[:, i] -= cp[:, i] * x[:, i + 1]
    return x


@pytest.mark.parametrize("n", [8, 64])
@pytest.mark.parametrize("order", ["C", "F"])
def test_tridiag_solve_batch_bit_identical_to_row_major_recurrence(n, order):
    rng = np.random.default_rng(19 + n)
    dl, du, d, b = _random_system(rng, n, batch=1000)
    expect = _row_major_batch_solve(dl, du, d, b)
    x = _kernels.tridiag_solve_batch(dl, du, np.asarray(d, order=order),
                                     np.asarray(b, order=order))
    assert x.shape == (1000, n)
    assert x.flags.f_contiguous
    assert np.array_equal(x, expect)
    # a broadcast right-hand side, as the coefficient sweeps pass it
    rhs = np.broadcast_to(b[0], d.shape)
    x = _kernels.tridiag_solve_batch(dl, du, np.asarray(d, order=order), rhs)
    assert np.array_equal(x, _row_major_batch_solve(dl, du, d, rhs))


def test_batch_zero_pivot_inside_batch_raises():
    rng = np.random.default_rng(23)
    n, batch = 16, 50
    _, _, d, b = _random_system(rng, n, batch=batch)
    ones = np.ones(n - 1, dtype=complex)
    # unit off-diagonals: system 31 has pivots 2, 2, 2, 2, 2 (all exact),
    # then 0.5 - 1 * 0.5 = 0 at step 5
    d[31] = 2.5
    d[31, 0] = 2.0
    d[31, 5] = 0.5
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularMatrixError):
            _kernels.tridiag_solve_batch(ones, ones, np.asfortranarray(d), b)
    d[31, 5] = 1.5
    x = _kernels.tridiag_solve_batch(ones, ones, d, b)
    assert np.all(np.isfinite(x))


def test_backend_selected():
    # numpy is the only backend; benchmark provenance reads helmgreen.BACKEND
    assert helmgreen.BACKEND == _kernels.BACKEND == "pure"


def _symmetric_system(rng, n, batch, distinct):
    """A constant complex off-diagonal and `distinct` diagonal rows of
    length `batch`, each entry exceeding 2 |off| by at least 1 in modulus
    (strictly diagonally dominant), with a random table row per point."""
    off = complex(rng.standard_normal(), rng.standard_normal())
    phase = np.exp(2j * np.pi * rng.random((distinct, batch)))
    rows = (2.0 * abs(off) + 1.0 + rng.random((distinct, batch))) * phase
    index = rng.integers(0, distinct, n)
    return off, rows, index


def _dense_symmetric(off, diag):
    n = diag.size
    return np.diag(diag) + off * (np.eye(n, k=1) + np.eye(n, k=-1))


@given(n=st.integers(1, 32), batch=st.integers(1, 40), distinct=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1))
def test_property_bilinear_matches_dense_solve(n, batch, distinct, seed):
    rng = np.random.default_rng(seed)
    off, rows, index = _symmetric_system(rng, n, batch, distinct)
    phi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    unit = np.zeros(n)
    unit[rng.integers(0, n)] = 1.0
    cases = [(phi, psi), (psi, psi), (unit, psi), (phi, unit)]
    got = [_kernels.tridiag_bilinear_batch(off, rows, index, a, b) for a, b in cases]
    for k in range(batch):
        a_mat = _dense_symmetric(off, rows[index, k])
        for (a, b), values in zip(cases, got):
            x = np.linalg.solve(a_mat, b)
            bound = 1e-12 * np.linalg.norm(a) * np.linalg.norm(x)
            assert abs(values[k] - a @ x) <= bound


def test_bilinear_zero_pivot_inside_batch_raises():
    rng = np.random.default_rng(29)
    n, batch = 12, 50
    # unit off-diagonal; every row exceeds 2 in modulus, so the systems are
    # diagonally dominant, except system 31: pivots 2, then 0.5 - 1 / 2 = 0
    rows = (3.0 + rng.random((3, batch))) * np.exp(2j * np.pi * rng.random((3, batch)))
    index = np.array([0, 1] + [2] * (n - 2))
    phi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    rows[0, 31], rows[1, 31] = 2.0, 0.5
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularMatrixError):
            _kernels.tridiag_bilinear_batch(1.0, rows, index, phi, phi)
        with pytest.raises(SingularMatrixError):
            _kernels.tridiag_bilinear_batch(1.0, rows, index, phi, phi[::-1])
        rows[0, 31] = 0.0  # a zero first pivot
        with pytest.raises(SingularMatrixError):
            _kernels.tridiag_bilinear_batch(1.0, rows, index, phi, phi)
        rows[0, 31], rows[1, 31] = 2.0, 1.5
        assert np.all(np.isfinite(_kernels.tridiag_bilinear_batch(1.0, rows, index, phi, phi)))

