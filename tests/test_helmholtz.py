import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helmgreen import _kernels
from helmgreen import dispersion as dsp
from helmgreen import helmholtz as hh
from helmgreen.errors import (
    ConfigError,
    DomainError,
    PeriodicityError,
)

import oracles

KINDS = ("dispersive", "two_freq", "nondispersive", "bloch")


def slab_model():
    density = dsp.OscillatorDensity(lorentz=((1.0, 2.0, 0.2),))
    return dsp.PermittivityModel(layers=((0.25, 0.75, density),))


def line_slab_model():
    density = dsp.OscillatorDensity(lines=((4.0, 1.0),))
    return dsp.PermittivityModel(layers=((0.25, 0.75, density),))


def vacuum_gap_double_model():
    """The two layers of media/lorentz_double.json: vacuum at x = 0.5."""
    left = dsp.OscillatorDensity(lorentz=((0.8, 1.5, 0.15), (0.5, 3.0, 0.4)))
    right = dsp.OscillatorDensity(lorentz=((1.2, 2.5, 0.25),))
    return dsp.PermittivityModel(layers=((0.1, 0.45, left), (0.55, 0.9, right)))


def overlapping_model():
    """Layers [0, 0.6] and [0.4, 1]: the first one wins on the overlap."""
    left = dsp.OscillatorDensity(lorentz=((1.0, 2.0, 0.2),))
    right = dsp.OscillatorDensity(lorentz=((0.7, 1.5, 0.3),))
    return dsp.PermittivityModel(layers=((0.0, 0.6, left), (0.4, 1.0, right)))


# ---------------------------------------------------------------------------
# grid


def test_grid_spacing_dirichlet():
    g = hh.Grid1D(L=1.0, N=9)
    assert g.h == pytest.approx(0.1)
    assert g.points[0] == pytest.approx(0.1)
    assert g.points[-1] == pytest.approx(0.9)


def test_grid_spacing_bloch():
    g = hh.Grid1D(L=1.0, N=10, boundary="bloch")
    assert g.h == pytest.approx(0.1)
    assert g.points[0] == 0.0


def test_grid_validation():
    with pytest.raises(ConfigError):
        hh.Grid1D(L=1.0, N=4)
    with pytest.raises(ConfigError):
        hh.Grid1D(L=-1.0, N=16)
    with pytest.raises(ConfigError):
        hh.Grid1D(L=1.0, N=16, boundary="open")


# ---------------------------------------------------------------------------
# assembly and solves (an operator is its diagonal; the off-diagonal is 1/h^2)


def test_dispersive_diagonal_values():
    m = slab_model()
    g = hh.Grid1D(L=1.0, N=16)
    z = 1j
    diag = hh.assemble(g, m, z)
    assert isinstance(diag, np.ndarray) and diag.shape == (g.N,)
    eps = hh.permittivity_profile(m, g.points, z)
    expect = z * z * eps - 2.0 / g.h**2
    assert np.allclose(diag, expect)
    # the solves use the off-diagonal 1/h^2 of the dense oracle
    dense = oracles.dense_operator(g, diag)
    assert np.allclose(np.diag(dense, 1), 1.0 / g.h**2)
    assert np.allclose(hh.green_matrix(g, diag), np.linalg.inv(dense) / g.h)


def test_solve_matches_dense_oracle():
    m = slab_model()
    g = hh.Grid1D(L=1.0, N=48)
    diag = hh.assemble(g, m, 0.8 + 0.6j)
    rng = np.random.default_rng(5)
    rhs = rng.standard_normal(48) + 1j * rng.standard_normal(48)
    x = hh._solve(g, diag, rhs)
    dense = oracles.dense_operator(g, diag)
    oracle = np.linalg.solve(dense, rhs)
    assert np.max(np.abs(x - oracle)) < 1e-10
    assert oracles.residual(dense, x, rhs) < 1e-12


def test_bloch_solve_matches_dense_oracle():
    # the cyclic solve of the zk sampler, with the wrap entries of the grid
    m = slab_model()
    k = 1.0 + 0.2j
    g = hh.Grid1D(L=1.0, N=32, boundary="bloch", bloch_k=k)
    diag = hh.diagonal_batch(g, m, "bloch", [2.0j])[0]
    wrap_lo, wrap_hi = hh._bloch_corners(m, g)
    assert wrap_lo == pytest.approx(np.exp(1j * k * 1.0) / g.h**2)
    rng = np.random.default_rng(6)
    rhs = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    off = np.full(g.N - 1, 1.0 / g.h**2, dtype=complex)
    x = _kernels.cyclic_tridiag_solve(off, diag, off, wrap_lo, wrap_hi, rhs)
    oracle = np.linalg.solve(oracles.dense_operator(g, diag, (wrap_lo, wrap_hi)), rhs)
    assert np.max(np.abs(x - oracle)) < 1e-10


def test_two_freq_diagonal():
    m = slab_model()
    g = hh.Grid1D(L=1.0, N=16)
    z, xi = 1.0 + 1.0j, 0.5 + 0.3j
    diag = hh.diagonal_batch(g, m, "two_freq", [z], xi=xi)[0]
    eps_xi = hh.permittivity_profile(m, g.points, xi)
    expect = z * z + z * xi * (eps_xi - 1.0) - 2.0 / g.h**2
    assert np.allclose(diag, expect)


def test_nondispersive_diagonal_real_constant():
    m = line_slab_model()
    g = hh.Grid1D(L=1.0, N=16)
    diag = hh.diagonal_batch(g, m, "nondispersive", [1.0 + 0.5j], omega0=1.0)[0]
    inside = (g.points >= 0.25) & (g.points <= 0.75)
    eps_in = 1.0 + 2.0 / (16.0 - 1.0)
    z2 = (1.0 + 0.5j) ** 2
    assert np.allclose(diag[inside], z2 * eps_in - 2.0 / g.h**2)
    assert np.allclose(diag[~inside], z2 * 1.0 - 2.0 / g.h**2)


# ---------------------------------------------------------------------------
# domain guards


def test_real_axis_undamped_rejected():
    g = hh.Grid1D(L=1.0, N=16)
    with pytest.raises(DomainError):
        hh.assemble(g, line_slab_model(), 2.0 + 0.0j)


def test_real_axis_damped_allowed():
    g = hh.Grid1D(L=1.0, N=16)
    z = 2.0 + 0.0j
    diag = hh.assemble(g, slab_model(), z)
    expect = z * z * hh.permittivity_profile(slab_model(), g.points, z) - 2.0 / g.h**2
    assert np.array_equal(diag, expect)


def test_two_freq_requires_upper_half():
    g = hh.Grid1D(L=1.0, N=16)
    with pytest.raises(DomainError):
        hh.diagonal_batch(g, slab_model(), "two_freq", [1j], xi=1.0 + 0.0j)


def test_bloch_margin_enforced():
    g = hh.Grid1D(L=1.0, N=16, boundary="bloch", bloch_k=1.0 + 2.0j)
    with pytest.raises(DomainError):
        hh.diagonal_batch(g, slab_model(), "bloch", [1.0j])


def test_layer_outside_cell_rejected():
    density = dsp.OscillatorDensity(lorentz=((1.0, 2.0, 0.2),))
    m = dsp.PermittivityModel(layers=((0.5, 1.5, density),))
    g = hh.Grid1D(L=1.0, N=16, boundary="bloch", bloch_k=0.1)
    with pytest.raises(PeriodicityError):
        hh._bloch_corners(m, g)


def test_unknown_kind_rejected():
    g = hh.Grid1D(L=1.0, N=16)
    with pytest.raises(ConfigError):
        hh.diagonal_batch(g, slab_model(), "static", [1j])


def test_missing_kind_parameter_rejected():
    g = hh.Grid1D(L=1.0, N=16)
    with pytest.raises(ConfigError):
        hh.diagonal_batch(g, slab_model(), "two_freq", [1j])
    with pytest.raises(ConfigError):
        hh.diagonal_batch(g, line_slab_model(), "nondispersive", [1j])


def test_diagonal_batch_checks_every_node():
    g = hh.Grid1D(L=1.0, N=16)
    z = np.array([1j, 2.0 + 0.5j, 1.0 + 1.0j])
    with pytest.raises(DomainError):
        hh.diagonal_batch(g, line_slab_model(), "dispersive", z - 0.5j)
    with pytest.raises(DomainError):
        hh.diagonal_batch(g, line_slab_model(), "nondispersive", z - 0.6j, omega0=1.0)
    with pytest.raises(DomainError):
        hh.diagonal_batch(g, slab_model(), "two_freq", z - 1.0j, xi=0.5j)
    with pytest.raises(DomainError):
        hh.diagonal_batch(g, slab_model(), "two_freq", 1j, xi=z - 0.5j)
    gb = hh.Grid1D(L=1.0, N=16, boundary="bloch", bloch_k=1.0 + 0.6j)
    with pytest.raises(DomainError):
        hh.diagonal_batch(gb, slab_model(), "bloch", z)


# ---------------------------------------------------------------------------
# Green matrix and coefficients


def test_green_matrix_reciprocity():
    g = hh.Grid1D(L=1.0, N=40)
    G = hh.green_matrix(g, hh.assemble(g, slab_model(), 1j))
    assert np.max(np.abs(G - G.T)) / np.max(np.abs(G)) < 1e-13


def test_green_matrix_schwarz():
    g = hh.Grid1D(L=1.0, N=40)
    m = slab_model()
    z = 0.7 + 0.9j
    G = hh.green_matrix(g, hh.assemble(g, m, z))
    Gm = hh.green_matrix(g, hh.assemble(g, m, -np.conj(z)))
    assert np.max(np.abs(Gm - np.conj(G))) / np.max(np.abs(G)) < 1e-13


def test_coefficient_consistent_with_green_matrix():
    g = hh.Grid1D(L=1.0, N=32)
    diag = hh.assemble(g, slab_model(), 1j)
    rng = np.random.default_rng(9)
    phi = rng.standard_normal(32)
    psi = rng.standard_normal(32)
    got = hh.coefficient(g, diag, phi, psi)
    G = hh.green_matrix(g, diag)
    expect = g.h**2 * phi @ G @ psi
    assert got == pytest.approx(expect, rel=1e-12)


def _norms(grid, model, kind, z, xi=None):
    return hh.inverse_norm(grid, *hh.diagonal_rows(grid, model, kind, z, xi=xi))


def test_norm_bound_holds():
    g = hh.Grid1D(L=1.0, N=48)
    z = np.array([1j, 2.0 + 0.5j, -1.0 + 0.2j, 5.0 + 3.0j])
    norms, _ = _norms(g, slab_model(), "dispersive", z)
    assert np.all(norms <= hh.norm_bound(z) * (1.0 + 1e-10))


def test_norm_bound_two_freq_holds():
    g = hh.Grid1D(L=1.0, N=48)
    (norm,), _ = _norms(g, slab_model(), "two_freq", [1.0 + 0.8j], xi=[0.5 + 0.4j])
    assert norm <= hh.norm_bound(1.0 + 0.8j) * (1.0 + 1e-10)


def test_norm_bound_is_infinite_off_the_upper_half_plane():
    bound = hh.norm_bound(np.array([1.0 + 2.0j, 1.0, -1.0 - 1.0j]))
    assert bound[0] == 1.0 / (abs(1.0 + 2.0j) * 2.0)
    assert np.all(np.isinf(bound[1:]))


def test_batched_inverse_norm_equals_per_operator_svd():
    # the bisected norm of each operator of a batch is the SVD norm of that
    # dense operator built on its own, to within its estimate, which stays
    # far below the norm
    g = hh.Grid1D(L=1.0, N=48)
    rng = np.random.default_rng(3)
    z = rng.uniform(-3, 3, 6) + 1j * rng.uniform(0.1, 3, 6)
    xi = rng.uniform(-3, 3, 6) + 1j * rng.uniform(0.1, 3, 6)
    for kind, x in (("dispersive", None), ("two_freq", xi)):
        rows, index = hh.diagonal_rows(g, slab_model(), kind, z, xi=x)
        norms, estimates = hh.inverse_norm(g, rows, index)
        for b in range(z.size):
            sv = np.linalg.svd(oracles.dense_operator(g, rows[index, b]), compute_uv=False)
            assert abs(norms[b] - 1.0 / sv[-1]) <= estimates[b] <= 1e-9 * norms[b]


tridiagonals = st.tuples(
    st.lists(st.complex_numbers(max_magnitude=10.0, allow_nan=False), min_size=1, max_size=24)
    .map(np.array),
    st.floats(0.1, 10.0),
)


@given(operator=tridiagonals)
def test_count_below_equals_the_svd_count(operator):
    # at s = sigma_k (1 -+ 1e-8) the block Sturm count reads the number of
    # SVD singular values below s; an s within the SVD's own rounding of a
    # singular value is left out, since there neither count is decided
    diag, off = operator
    n = diag.size
    dense = np.diag(diag) + off * (np.eye(n, k=1) + np.eye(n, k=-1))
    sv = np.linalg.svd(dense, compute_uv=False)
    s = np.concatenate([sv * (1.0 - 1e-8), sv * (1.0 + 1e-8)])
    s = s[np.min(np.abs(s[:, None] - sv[None, :]), axis=1) > 1e-12 * sv[0]]
    counts = hh._count_below(off, np.repeat(diag[:, None], s.size, axis=1), np.arange(n), s)
    assert np.array_equal(counts, np.sum(sv[None, :] < s[:, None], axis=1))


def test_inverse_norm_covers_an_mpmath_norm_at_n_1024():
    # at N = 1024 the count's rounding term dominates the estimate; it
    # covers the distance to a 40-digit norm of the float64 operator
    g = hh.Grid1D(L=1.0, N=1024)
    rows, index = hh.diagonal_rows(g, slab_model(), "dispersive", [3.0 + 0.1j])
    (norm,), (estimate,) = hh.inverse_norm(g, rows, index)
    reference = oracles.mp_inverse_norm(rows[index, 0], 1.0 / g.h**2)
    assert abs(norm - reference) <= estimate <= 1e-6 * norm


def test_resolvent_difference_ray_decreasing_cap():
    g = hh.Grid1D(L=1.0, N=32)
    m = slab_model()
    norms = hh.resolvent_difference_ray(m, g, 1.0, [100.0, 1000.0])
    w = dsp.chi_dot_at_zero(m.density_at(0.5))
    assert all(n <= 1.5 * w for n in norms)


# ---------------------------------------------------------------------------
# batched paths


def test_diagonal_batch_matches_assemble():
    g = hh.Grid1D(L=1.0, N=24)
    m = slab_model()
    zs = np.array([1j, 0.5 + 0.5j, 2.0 + 1.0j])
    diag = hh.diagonal_batch(g, m, "dispersive", zs)
    for i, z in enumerate(zs):
        assert np.allclose(diag[i], hh.assemble(g, m, complex(z)))


def test_solve_batch_matches_individual():
    g = hh.Grid1D(L=1.0, N=24)
    m = slab_model()
    zs = np.array([1j, 0.5 + 0.5j, 2.0 + 1.0j])
    diag = hh.diagonal_batch(g, m, "dispersive", zs)
    rng = np.random.default_rng(10)
    rhs = rng.standard_normal((3, 24)) + 0j
    off = np.full(g.N - 1, 1.0 / g.h**2, dtype=complex)
    x = _kernels.tridiag_solve_batch(off, off, diag, rhs)
    for i, z in enumerate(zs):
        one = hh._solve(g, hh.assemble(g, m, complex(z)), rhs[i])
        assert np.max(np.abs(x[i] - one)) < 1e-12


@pytest.mark.parametrize("kind, model, distinct", [
    ("dispersive", dsp.PermittivityModel(), 1),
    ("dispersive", slab_model(), 2),
    ("dispersive", vacuum_gap_double_model(), 3),
    ("two_freq", vacuum_gap_double_model(), 3),
    ("nondispersive", line_slab_model(), 2),
], ids=["dispersive-vacuum", "dispersive-slab", "dispersive-double", "two_freq-double",
        "nondispersive-lines"])
def test_diagonal_rows_one_row_per_layer_table_row(kind, model, distinct):
    g = hh.Grid1D(L=1.0, N=32)
    z = np.array([1j, 0.5 + 0.5j, 2.0 + 1.0j, -1.0 + 0.2j])
    args = {"xi": 0.3 + 0.7j, "omega0": 1.0}
    rows, index = hh.diagonal_rows(g, model, kind, z, **args)
    assert rows.shape == (distinct, z.size)
    assert index.shape == (g.N,) and set(index) == set(range(distinct))


def _per_point_permittivity(grid, model, z):
    """The per-point loop the dispersive diagonal builder used before it
    gathered a per-density table; kept as the exactness oracle. (B, N)."""
    eps = np.full((z.size, grid.N), complex(model.background))
    cache = {}
    for i, xv in enumerate(grid.points):
        density = model.density_at(xv)
        if density.is_vacuum:
            continue
        if id(density) not in cache:
            cache[id(density)] = dsp.density_eval_array(density, z)
        eps[:, i] += cache[id(density)]
    return eps


@pytest.mark.parametrize(
    "model", [slab_model(), vacuum_gap_double_model(), overlapping_model()],
    ids=["slab", "vacuum_gap_double", "overlapping"],
)
def test_diagonal_batch_bit_identical_to_per_point_loop(model):
    g = hh.Grid1D(L=1.0, N=64)
    z = np.linspace(-400.0, 400.0, 4001) + 0.1j
    eps = _per_point_permittivity(g, model, z)
    diag = hh.diagonal_batch(g, model, "dispersive", z)
    assert diag.shape == (z.size, g.N)
    assert diag.flags.f_contiguous
    assert np.array_equal(diag, (z * z)[:, None] * eps - 2.0 / g.h**2)
    for i in range(0, z.size, 500):
        assert np.array_equal(hh.permittivity_profile(model, g.points, z[i]), eps[i])


def test_nondispersive_diagonal_batch_bit_identical_to_per_point_loop():
    # eps(x, omega0) at the real omega0 = 1, point by point
    m = line_slab_model()
    g = hh.Grid1D(L=1.0, N=32)
    z = np.array([1.0 + 0.5j, -3.0 + 2.0j, 7.5 + 0.1j])
    omega0 = np.array([1.0 + 0.0j])
    eps_d = np.array([
        (dsp.density_eval_array(m.density_at(x), omega0)[0] + complex(m.background)).real
        for x in g.points
    ])
    diag = hh.diagonal_batch(g, m, "nondispersive", z, omega0=1.0)
    assert diag.flags.f_contiguous
    assert np.array_equal(diag, (z * z)[:, None] * eps_d[None, :] - 2.0 / g.h**2)


@given(lines=st.lists(st.tuples(st.floats(0.5, 50.0), st.floats(1e-3, 10.0)),
                      min_size=1, max_size=5),
       fraction=st.floats(0.01, 0.999),
       z=st.complex_numbers(max_magnitude=20.0).filter(lambda z: z.imag >= 0))
def test_nondispersive_row_is_the_line_sum_below_the_lowest_line(lines, fraction, z):
    # lines only, omega0 below the lowest: eps_d = 1 + sum 2 w / (nu^2 - omega0^2)
    omega0 = fraction * min(nu for nu, _ in lines)
    g = hh.Grid1D(L=1e3, N=8)
    m = dsp.PermittivityModel(layers=((0.0, g.L, dsp.OscillatorDensity(lines=tuple(lines))),))
    rows, index = hh.diagonal_rows(g, m, "nondispersive", [z, 1.0], omega0=omega0)
    assert rows.shape == (2, 2) and np.all(index == 1)
    eps_d = 1.0 + sum(2.0 * w / (nu * nu - omega0 * omega0) for nu, w in lines)
    u = np.finfo(float).eps
    tol = (len(lines) + 4) * u * (abs(z) ** 2 * eps_d + 2.0 / g.h**2)
    assert abs(rows[1, 0] - (z * z * eps_d - 2.0 / g.h**2)) <= tol
    # at z = 1 the row is eps_d - 2/h^2, with 2/h^2 = 1.6e-4
    assert rows[1, 1].imag == 0.0 and rows[1, 1].real + 2.0 / g.h**2 >= 1.0


def _slab_eps(x, z):
    """eps of `slab_model` in closed form: 1 + 1 / (4 - z^2 - 0.2 i z) on [0.25, 0.75]."""
    return 1.0 + np.where((x >= 0.25) & (x <= 0.75), 1.0 / (4.0 - z * z - 0.2j * z), 0.0)


@pytest.mark.parametrize("kind", KINDS)
def test_diagonal_batch_matches_closed_form(kind):
    bloch = kind == "bloch"
    g = hh.Grid1D(L=1.0, N=24, boundary="bloch" if bloch else "dirichlet", bloch_k=0.5 + 0.2j)
    x = g.points[None, :]
    z = np.array([1j, 0.5 + 0.5j, -2.0 + 1.0j])[:, None]
    xi = np.array([0.7 + 0.3j, -1.5 + 0.05j, 3.0 + 2.0j])[:, None]
    if kind == "nondispersive":
        diag = hh.diagonal_batch(g, line_slab_model(), kind, z[:, 0], omega0=1.0)
        # one line nu = 4, w = 1: eps_d = 1 + 2 w / (nu^2 - omega0^2) on the slab
        eps_d = 1.0 + np.where((x >= 0.25) & (x <= 0.75), 2.0 / 15.0, 0.0)
        expect = z * z * eps_d
    elif kind == "two_freq":
        diag = hh.diagonal_batch(g, slab_model(), kind, z[:, 0], xi=xi[:, 0])
        expect = z * z + z * xi * (_slab_eps(x, xi) - 1.0)
    else:
        diag = hh.diagonal_batch(g, slab_model(), kind, z[:, 0])
        expect = z * z * _slab_eps(x, z)
    assert diag.shape == (3, g.N) and diag.flags.f_contiguous
    np.testing.assert_allclose(diag, expect - 2.0 / g.h**2, rtol=1e-14)
    for b in range(3):
        model = line_slab_model() if kind == "nondispersive" else slab_model()
        one = hh.diagonal_batch(g, model, kind, [z[b, 0]], xi=xi[b, 0], omega0=1.0)[0]
        assert np.array_equal(one, diag[b])


# ---------------------------------------------------------------------------
# properties over random passive media (workload ranges of the benchmark)

lorentz_parts = st.lists(
    st.tuples(st.floats(0.5, 1.2), st.floats(1.5, 3.0), st.floats(0.15, 0.4)),
    min_size=1, max_size=3,
)
slab_media = st.builds(
    lambda parts, x0, x1: dsp.PermittivityModel(
        layers=((x0, x1, dsp.OscillatorDensity(lorentz=tuple(parts))),)),
    lorentz_parts, st.floats(0.05, 0.45), st.floats(0.55, 0.95),
)
upper_half_plane = st.builds(complex, st.floats(-5.0, 5.0), st.floats(0.05, 5.0))


@given(model=slab_media, z=upper_half_plane)
def test_property_green_reciprocity(model, z):
    g = hh.Grid1D(L=1.0, N=24)
    G = hh.green_matrix(g, hh.assemble(g, model, z))
    assert np.max(np.abs(G - G.T)) <= 1e-12 * np.max(np.abs(G))


@given(model=slab_media, z=upper_half_plane)
def test_property_green_schwarz_reflection(model, z):
    g = hh.Grid1D(L=1.0, N=24)
    G = hh.green_matrix(g, hh.assemble(g, model, z))
    mirror = hh.green_matrix(g, hh.assemble(g, model, -z.conjugate()))
    assert np.max(np.abs(mirror - np.conj(G))) <= 1e-12 * np.max(np.abs(G))
