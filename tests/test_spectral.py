import functools
import math
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helmgreen import _kernels
from helmgreen import dispersion as dsp
from helmgreen import helmholtz as hh
from helmgreen import spectral as sp
from helmgreen import transforms as tr
from helmgreen.errors import ConfigError, DomainError

import oracles


@pytest.fixture(scope="module")
def cavity():
    grid = hh.Grid1D(L=1.0, N=96)
    return grid, sp.cavity_modes(grid, 2.0)


def test_mode_frequencies_match_closed_form(cavity):
    # oracle: dense eigenvalues of L = -eps^-1 d^2/dx^2 with eps = 2
    grid, modes = cavity
    lap = (np.diag(np.full(grid.N, -2.0)) + np.diag(np.ones(grid.N - 1), 1)
           + np.diag(np.ones(grid.N - 1), -1)) / grid.h**2
    expect = np.sqrt(np.linalg.eigvalsh(-lap / 2.0))
    np.testing.assert_allclose(modes.omegas, expect, rtol=1e-10)


def test_modes_orthonormal(cavity):
    grid, modes = cavity
    gram = grid.h * 2.0 * modes.modes.T @ modes.modes
    assert np.max(np.abs(gram - np.eye(grid.N))) < 1e-10


def test_cavity_modes_require_dirichlet():
    g = hh.Grid1D(L=1.0, N=16, boundary="bloch")
    with pytest.raises(ConfigError):
        sp.cavity_modes(g, 2.0)


def test_expansion_identity(cavity):
    grid, modes = cavity
    model = dsp.PermittivityModel(background=2.0)
    z = 0.4 + 0.5j
    expansion, tail = sp.mode_expansion_green(modes, z)
    direct = hh.green_matrix(grid, hh.assemble(grid, model, z))
    assert tail == 0.0
    assert np.max(np.abs(expansion - direct) / np.abs(direct)) < 1e-10


def test_truncation_tail_bound(cavity):
    grid, modes = cavity
    model = dsp.PermittivityModel(background=2.0)
    z = 0.5j
    partial, bound = sp.mode_expansion_green(modes, z, grid.N // 2)
    direct = hh.green_matrix(grid, hh.assemble(grid, model, z))
    assert np.max(np.abs(partial - direct)) <= bound


def test_single_mode_coefficient(cavity):
    grid, modes = cavity
    z = 0.4 + 0.5j
    phi1 = modes.modes[:, 0]
    got = sp.mode_coefficient(modes, phi1, phi1, z)
    # eps-weighted orthonormality collapses the sum to the n = 1 term; the
    # plain-L2 overlap h <phi1, phi1> equals 1/eps, squared here
    expect = 1.0 / (2.0**2 * (z * z - modes.omegas[0] ** 2))
    assert got == pytest.approx(expect, rel=1e-10)


def test_mode_coefficient_batch_matches_scalar(cavity):
    grid, modes = cavity
    p = sp.gaussian_probe(grid, 0.4, 0.1)
    z = np.array([[0.4 + 0.5j, 3.0 + 0.05j], [-7.0 + 2.0j, 20.0 + 0.1j]])
    got = sp.mode_coefficient(modes, p, p, z)
    assert got.shape == z.shape
    for zi, g in zip(z.ravel(), got.ravel()):
        assert g == sp.mode_coefficient(modes, p, p, zi)


@pytest.mark.parametrize("weights", ["real", "complex"])
def test_mode_coefficient_matches_the_complex_division_loop(cavity, weights):
    # the real-arithmetic mode sum against complex division mode by mode,
    # over the kk_green sweep's nu range and a spread of the upper half-plane;
    # a complex phi makes the weights complex
    grid, modes = cavity
    rng = np.random.default_rng(5)
    p = sp.gaussian_probe(grid, 0.4, 0.1)
    phi = p + 1j * rng.standard_normal(grid.N) if weights == "complex" else p
    z = np.concatenate([np.linspace(0.0, 40.0, 4001) + 0.01j,
                        rng.uniform(-60, 60, 400) + 1j * rng.uniform(0.01, 30, 400)])
    got = sp.mode_coefficient(modes, phi, p, z)
    want = oracles.mode_coefficient_loop(modes, phi, p, z)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_mode_coefficient_rejects_a_z_whose_sum_overflows(cavity):
    # at |z| ~ 1e100, r^2 + y^2 overflows: one error, not terms dropped to 0
    grid, modes = cavity
    p = sp.gaussian_probe(grid, 0.4, 0.1)
    with pytest.raises(DomainError, match="overflows"):
        sp.mode_coefficient(modes, p, p, 1e100 + 1j)


def test_mode_coefficient_resonance_guard(cavity):
    grid, modes = cavity
    p = sp.gaussian_probe(grid, 0.4, 0.1)
    z = np.array([1j, complex(modes.omegas[3]), 2.0 + 1j])
    with pytest.raises(DomainError):
        sp.mode_coefficient(modes, p, p, z)


def test_resonance_floor(cavity):
    grid, modes = cavity
    with pytest.raises(DomainError):
        sp.mode_expansion_green(modes, complex(modes.omegas[0]) + 1e-13j)


def test_truncation_bounds_checked(cavity):
    grid, modes = cavity
    with pytest.raises(ConfigError):
        sp.mode_expansion_green(modes, 1j, 0)


def test_point_probe_normalization():
    g = hh.Grid1D(L=1.0, N=16)
    p = sp.point_probe(g, 3)
    assert g.h * np.sum(p) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# spectral density


def test_d_density_real_for_real_probes():
    g = hh.Grid1D(L=1.0, N=64)
    model = dsp.PermittivityModel(background=2.0)
    p = sp.gaussian_probe(g, 0.5, 0.1)
    sd = sp.d_density(model, g, p, p, 20.0, 4001, 0.05)
    assert np.max(np.abs(sd.samples.imag)) < 1e-12 * np.max(np.abs(sd.samples.real))


def test_d_density_even():
    # exactly: the nu >= 0 half is mirrored, at odd and at even counts
    g = hh.Grid1D(L=1.0, N=64)
    model = dsp.PermittivityModel(background=2.0)
    p = sp.gaussian_probe(g, 0.5, 0.1)
    for count in (4001, 4000):
        sd = sp.d_density(model, g, p, p, 20.0, count, 0.05)
        assert sd.samples.size == count
        assert np.array_equal(sd.samples, sd.samples[::-1])


@pytest.mark.parametrize("medium", ["cavity", "lorentz"])
def test_d_density_matches_the_two_sided_sweep(medium):
    # the nu >= 0 sweep, mirrored, against both terms of D swept apart; on
    # the nu <= 0 half the two share their nodes exactly (the mirrored half
    # sits at the exact negatives of those nodes, linspace's own upper half
    # up to rounding)
    grid = hh.Grid1D(L=1.0, N=256)
    if medium == "cavity":
        model = dsp.PermittivityModel(background=2.0)
        probe = sp.cavity_modes(grid, 2.0).modes[:, 0]
    else:
        model = dsp.load_medium(str(Path(__file__).resolve().parent.parent
                                    / "media" / "lorentz_slab.json"))
        probe = sp.gaussian_probe(grid, 0.5, 0.1)
    got = sp.d_density(model, grid, probe, probe, 40.0, 16001, 0.01).samples
    want = oracles.two_sided_density(model, grid, probe, probe, 40.0, 16001, 0.01)
    assert np.max(np.abs(got[:8001] - want[:8001])) <= 1e-12 * np.max(np.abs(want))


def test_d_density_rejects_complex_probes():
    g = hh.Grid1D(L=1.0, N=64)
    model = dsp.PermittivityModel(background=2.0)
    p = sp.gaussian_probe(g, 0.5, 0.1)
    with pytest.raises(ConfigError):
        sp.d_density(model, g, p * (1.0 + 1e-3j), p, 20.0, 101, 0.05)
    with pytest.raises(ConfigError):
        sp.d_density(model, g, p, 1j * p, 20.0, 101, 0.05)


def test_d_density_vacuum_reference_is_zero_for_vacuum():
    g = hh.Grid1D(L=1.0, N=64)
    model = dsp.PermittivityModel()
    p = sp.gaussian_probe(g, 0.5, 0.1)
    sd = sp.d_density(model, g, p, p, 10.0, 2001, 0.05)
    assert np.max(np.abs(sd.samples)) < 1e-14


def test_d_density_guards():
    g = hh.Grid1D(L=1.0, N=64)
    model = dsp.PermittivityModel()
    p = sp.gaussian_probe(g, 0.5, 0.1)
    with pytest.raises(DomainError):
        sp.d_density(model, g, p, p, 1.0, 11, 0.0)


def test_kk_reconstruct_green_cavity():
    g = hh.Grid1D(L=1.0, N=96)
    model = dsp.PermittivityModel(background=2.0)
    p = sp.gaussian_probe(g, 0.5, 0.1)
    sd = sp.d_density(model, g, p, p, 40.0, 32001, 0.02)
    z = 5j
    recon, grid_term = sp.kk_reconstruct_green(sd, g, p, p, z)
    direct = hh.coefficient(g, hh.assemble(g, model, z), p, p)
    assert abs(recon - direct) / abs(direct) < 5e-3
    assert 0.0 < grid_term < 5e-3 * abs(direct)


def test_kk_reconstruct_needs_margin():
    g = hh.Grid1D(L=1.0, N=64)
    model = dsp.PermittivityModel(background=2.0)
    p = sp.gaussian_probe(g, 0.5, 0.1)
    sd = sp.d_density(model, g, p, p, 10.0, 2001, 0.05)
    with pytest.raises(DomainError):
        sp.kk_reconstruct_green(sd, g, p, p, 0.2j)


# ---------------------------------------------------------------------------
# time domain


def test_x_operator_causal_and_real():
    g = hh.Grid1D(L=1.0, N=48)
    density = dsp.OscillatorDensity(lorentz=((1.0, 2.0, 0.2),))
    model = dsp.PermittivityModel(layers=((0.25, 0.75, density),))
    p = sp.gaussian_probe(g, 0.5, 0.08)
    pos = tr.ContourSpec(eta=0.1, omega_max=300.0, n_points=120000, rtol=1e-9)
    neg = tr.ContourSpec(eta=10.0, omega_max=300.0, n_points=120000, rtol=1e-9)
    xp, _ = sp.x_operator_coefficient(model, g, p, p, [0.5, 1.0, 2.0], pos)
    xn, _ = sp.x_operator_coefficient(model, g, p, p, [-2.0, -1.0], neg)
    peak = np.max(np.abs(xp))
    assert np.max(np.abs(xn)) / peak < 1e-6
    assert np.max(np.abs(xp.imag)) / peak < 1e-10


def _shipped_causality_inversion(quantity, contour):
    """chi, the x-operator coefficient or the field of the shipped
    causality config at its positive times, on `contour`."""
    model = dsp.load_medium(str(MEDIA / "lorentz_slab.json"))
    grid = hh.Grid1D(L=1.0, N=64)
    t = [0.5, 1.0, 2.0, 4.0]
    if quantity == "chi":
        return dsp.susceptibility(model, 0.5, t, contour)
    if quantity == "x_operator":
        probe = sp.gaussian_probe(grid, 0.5, 1.0 / 16.0)
        return sp.x_operator_coefficient(model, grid, probe, probe, t, contour)
    src = sp.gaussian_probe(grid, 0.3, 0.05)
    return sp.time_domain_field(model, grid, src, 1.0, 47, t, contour, taper=16.0)


@functools.cache
def _resolved_causality_inversion(quantity):
    return _shipped_causality_inversion(quantity, tr.ContourSpec(0.1, 400.0, 131073, rtol=1e-12))[0]


@pytest.mark.parametrize("quantity", ["chi", "x_operator", "field"])
@pytest.mark.parametrize("cap", [2049, 4097, 8193])
def test_under_resolved_contour_estimate_covers_its_error(cap, quantity):
    # these caps cannot resolve the shipped slab at eta = 0.1: the nested
    # rule hits its cap unconverged, and its estimate must then be at least
    # the error against a resolved rule
    got, est = _shipped_causality_inversion(quantity, tr.ContourSpec(0.1, 400.0, cap, rtol=1e-9))
    ref = _resolved_causality_inversion(quantity)
    error = float(np.max(np.abs(got - ref)))
    assert error > 1e-6 * np.max(np.abs(ref))
    assert est >= error


def test_time_domain_field_zero_source():
    g = hh.Grid1D(L=1.0, N=48)
    model = dsp.PermittivityModel()
    c = tr.ContourSpec(eta=1.0, omega_max=200.0, n_points=50000, rtol=1e-9)
    vals, _ = sp.time_domain_field(model, g, np.zeros(48), 1.0, 10, [0.5, 1.0], c)
    assert np.all(vals == 0.0)


@pytest.mark.parametrize("reference", ["none", "vacuum"])
def test_xi_sweep_matches_per_node_two_freq_solves(reference):
    left = dsp.OscillatorDensity(lorentz=((0.8, 1.5, 0.15), (0.5, 3.0, 0.4)))
    right = dsp.OscillatorDensity(lorentz=((1.2, 2.5, 0.25),))
    model = dsp.PermittivityModel(layers=((0.1, 0.45, left), (0.55, 0.9, right)))
    grid = hh.Grid1D(L=1.0, N=64)
    probe = sp.gaussian_probe(grid, 0.5, 0.1)
    z = 0.3 + 1.0j
    xi = np.linspace(-2.0, 3.0, 11) + 1j * np.geomspace(0.05, 2.0, 11)
    got = sp._coefficient_sweep(model, grid, probe, probe, z, reference, xi)
    # the program's vacuum reference, whose accuracy is checked against
    # mpmath in test_vacuum_reference_matches_mpmath
    vacuum = sp.mode_coefficient(sp.cavity_modes(grid, 1.0), probe, probe, z)
    for x, g in zip(xi, got):
        diag = hh.diagonal_batch(grid, model, "two_freq", [z], xi=x)[0]
        expect = hh.coefficient(grid, diag, probe, probe)
        if reference == "vacuum":
            expect -= vacuum
        assert abs(g - expect) <= 1e-13 * abs(expect)


def _mp_coefficient(grid, probe, z, eps, diag=None):
    """40-digit <probe, H(z)^-1 probe> of the constant-eps operator
    z^2 eps + d^2/dx^2, by the Thomas algorithm in mpmath; given
    a per-point float64 `diag`, of the float64 operator with that diagonal
    and off-diagonal 1.0 / h**2, both taken as exact (z and eps unused)."""
    with mpmath.workdps(40):
        h = mpmath.mpf(grid.h)
        if diag is None:
            off = 1 / h**2
            diag = [mpmath.mpc(z) ** 2 * mpmath.mpf(eps) - 2 / h**2] * grid.N
        else:
            off = mpmath.mpf(1.0 / grid.h**2)
            diag = [mpmath.mpc(complex(v)) for v in diag]
        p = [mpmath.mpf(float(v)) for v in probe]
        x, cp = list(p), [mpmath.mpf(0)] * grid.N
        piv = diag[0]
        cp[0], x[0] = off / piv, x[0] / piv
        for i in range(1, grid.N):
            piv = diag[i] - off * cp[i - 1]
            cp[i] = off / piv
            x[i] = (x[i] - off * x[i - 1]) / piv
        for i in range(grid.N - 2, -1, -1):
            x[i] -= cp[i] * x[i + 1]
        return complex(h * mpmath.fsum(a * b for a, b in zip(p, x)))


@pytest.mark.parametrize("z", [0.3 + 1j, 3 + 0.05j, 10 + 0.05j])
def test_vacuum_reference_matches_mpmath(z):
    grid = hh.Grid1D(L=1.0, N=64)
    probe = sp.gaussian_probe(grid, 0.5, 0.1)
    expect = _mp_coefficient(grid, probe, z, 1.0)
    got = sp.mode_coefficient(sp.cavity_modes(grid, 1.0), probe, probe, z)
    assert abs(got - expect) <= 1e-14 * abs(expect)


@pytest.mark.parametrize("reference", ["none", "vacuum"])
@pytest.mark.parametrize("z", [0.3 + 1.0j, 4.0 + 0.1j])
def test_xi_sweep_accuracy_against_mpmath(z, reference):
    # the float64 two-frequency diagonals are the exact inputs of a 40-digit
    # Thomas solve, so the error is that of the sweep alone (the vacuum
    # reference is checked in test_vacuum_reference_matches_mpmath). Bounded
    # relative to the coefficient before the vacuum subtraction, which can
    # cancel most of it: measured at most 4.1e-14 over 208 nodes at four z
    left = dsp.OscillatorDensity(lorentz=((0.8, 1.5, 0.15), (0.5, 3.0, 0.4)))
    right = dsp.OscillatorDensity(lorentz=((1.2, 2.5, 0.25),))
    model = dsp.PermittivityModel(layers=((0.1, 0.45, left), (0.55, 0.9, right)))
    grid = hh.Grid1D(L=1.0, N=64)
    probe = sp.gaussian_probe(grid, 0.5, 0.1)
    xi = np.linspace(-2.0, 3.0, 11) + 1j * np.geomspace(0.05, 2.0, 11)
    got = sp._coefficient_sweep(model, grid, probe, probe, z, reference, xi)
    rows, index = hh.diagonal_rows(grid, model, "two_freq", np.full(xi.shape, z), xi)
    vacuum = _mp_coefficient(grid, probe, z, 1.0) if reference == "vacuum" else 0.0
    for b, g in enumerate(got):
        full = _mp_coefficient(grid, probe, None, None, diag=rows[index, b])
        assert abs(g - (full - vacuum)) <= 1e-13 * abs(full)


@given(
    eps=st.floats(1.0, 12.0),
    center=st.floats(0.2, 0.8),
    width=st.floats(0.03, 0.3),
    re=st.floats(-20.0, 20.0),
    im=st.floats(0.05, 5.0),
)
def test_property_constant_eps_sweep_matches_solves(eps, center, width, re, im):
    model = dsp.PermittivityModel(background=eps)
    grid = hh.Grid1D(L=1.0, N=32)
    probe = sp.gaussian_probe(grid, center, width)
    z = np.array([complex(re, im), complex(-re, 2.0 * im), complex(0.5 * re, im)])
    got = sp._coefficient_sweep(model, grid, probe, probe, z, "none")
    for zi, g in zip(z, got):
        diag = hh.assemble(grid, model, zi)
        expect = hh.coefficient(grid, diag, probe, probe)
        assert abs(g - expect) <= 1e-10 * abs(expect)


def test_constant_eps_sweep_makes_no_batched_solve(monkeypatch):
    # a dispersive layer that holds no grid point leaves eps constant on the grid
    density = dsp.OscillatorDensity(lorentz=((1.0, 2.0, 0.2),))
    model = dsp.PermittivityModel(background=2.0, layers=((0.0, 0.01, density),))
    grid = hh.Grid1D(L=1.0, N=32)
    probe = sp.gaussian_probe(grid, 0.5, 0.1)
    z = np.array([0.5 + 1j, 4.0 + 0.2j])
    expect = [hh.coefficient(grid, hh.assemble(grid, model, zi), probe, probe)
              for zi in z]

    def no_solve(*args):
        raise AssertionError("batched solve on a constant-eps medium")

    monkeypatch.setattr(_kernels, "tridiag_bilinear_batch", no_solve)
    monkeypatch.setattr(_kernels, "tridiag_solve_batch", no_solve)
    got = sp._coefficient_sweep(model, grid, probe, probe, z, "none")
    np.testing.assert_allclose(got, expect, rtol=1e-12)
    # the patched kernel is the one a dispersive medium sweeps with
    slab = dsp.PermittivityModel(layers=((0.25, 0.75, density),))
    with pytest.raises(AssertionError, match="batched solve"):
        sp._coefficient_sweep(slab, grid, probe, probe, z, "none")
    with pytest.raises(DomainError):
        sp._coefficient_sweep(model, grid, probe, probe, np.array([1j, 1.0 - 0.1j]), "none")


@pytest.mark.parametrize("model", [dsp.PermittivityModel(), dsp.PermittivityModel(
    layers=((0.25, 0.75, dsp.OscillatorDensity(lorentz=((1.0, 2.0, 0.2),))),))])
def test_coefficient_sweep_rejects_bloch_grid(model):
    grid = hh.Grid1D(L=1.0, N=32, boundary="bloch", bloch_k=1.0)
    probe = sp.gaussian_probe(grid, 0.5, 0.1)
    with pytest.raises(ConfigError):
        sp._coefficient_sweep(model, grid, probe, probe, np.array([1.0 + 1j]), "none")


def test_time_domain_field_memory_does_not_scale_with_contour():
    # the shipped causality size: N=64 under a cap of 200k contour nodes.
    # The sampler sees one block of nodes at a time and builds no (block, N)
    # array, and laplace_invert keeps no array of a level's length but its
    # nodes, so the peak is those nodes plus a few (block,) vectors (3.9 MiB
    # measured), not four (200k, N) arrays (about 800 MiB), the (block, N) arrays of a full
    # batched solve (90 MiB) or level-length samples and weights (15 MiB)
    model = dsp.load_medium(str(Path(__file__).resolve().parents[1] / "media"
                                / "lorentz_slab.json"))
    grid = hh.Grid1D(L=1.0, N=64)
    src = sp.gaussian_probe(grid, 0.3, 0.05)
    contour = tr.ContourSpec(eta=0.1, omega_max=400.0, n_points=200000, rtol=1e-9)
    tracemalloc.start()
    try:
        sp.time_domain_field(model, grid, src, 1.0, 47, [0.5, 1.0], contour, taper=16.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


# ---------------------------------------------------------------------------
# the bilinear sweeps against the batched Thomas solve


MEDIA = Path(__file__).resolve().parents[1] / "media"


def _thomas_fields(grid, diag, rhs):
    off = np.full(grid.N - 1, 1.0 / grid.h**2, dtype=complex)
    return _kernels.tridiag_solve_batch(off, off, diag, rhs)


def _probe_pairs(grid):
    gauss = sp.gaussian_probe(grid, 0.5, 0.1)
    chirp = sp.gaussian_probe(grid, 0.4, 0.05) * np.exp(3j * grid.points)
    return {"same": (gauss, gauss), "complex": (chirp, gauss)}


@pytest.mark.parametrize("pair", ["same", "complex"])
@pytest.mark.parametrize("eta", [0.1, 12.0])
def test_dispersive_sweep_matches_thomas_oracle(eta, pair):
    model = dsp.load_medium(str(MEDIA / "lorentz_double.json"))
    grid = hh.Grid1D(L=1.0, N=64)
    phi, psi = _probe_pairs(grid)[pair]
    z = np.linspace(-400.0, 400.0, 2001) + 1j * eta
    got = sp._coefficient_sweep(model, grid, phi, psi, z, "none")
    diag = hh.diagonal_batch(grid, model, "dispersive", z)
    fields = _thomas_fields(grid, diag, np.broadcast_to(psi, diag.shape))
    expect = grid.h * (fields @ np.conj(phi))
    assert np.all(np.abs(got - expect) <= 1e-12 * np.abs(expect))


@pytest.mark.parametrize("pair", ["same", "complex"])
def test_two_freq_sweep_matches_thomas_oracle(pair):
    model = dsp.load_medium(str(MEDIA / "lorentz_double.json"))
    grid = hh.Grid1D(L=1.0, N=64)
    phi, psi = _probe_pairs(grid)[pair]
    z = 0.3 + 1.0j
    xi = np.linspace(-20.0, 20.0, 2001) + 0.05j
    got = sp._coefficient_sweep(model, grid, phi, psi, z, "none", xi)
    diag = hh.diagonal_batch(grid, model, "two_freq", z, xi)
    fields = _thomas_fields(grid, diag, np.broadcast_to(psi, diag.shape))
    expect = grid.h * (fields @ np.conj(phi))
    assert np.all(np.abs(got - expect) <= 1e-12 * np.abs(expect))


@pytest.mark.parametrize("kind, medium", [("dispersive", "lorentz_slab.json"),
                                          ("nondispersive", "gapped_lines.json")])
def test_field_sampler_matches_thomas_oracle(kind, medium, monkeypatch):
    model = dsp.load_medium(str(MEDIA / medium))
    grid = hh.Grid1D(L=1.0, N=64)
    src = sp.gaussian_probe(grid, 0.3, 0.05)
    omega_s, x_index, omega0 = 1.0, 47, 1.0
    samplers = []

    def keep_sampler(sampler, contour, t_grid, taper=0.0):
        samplers.append(sampler)
        return np.zeros(len(t_grid), dtype=complex), 0.0

    monkeypatch.setattr(tr, "laplace_invert", keep_sampler)
    contour = tr.ContourSpec(eta=0.1, omega_max=400.0, n_points=2049, rtol=1e-9)
    sp.time_domain_field(model, grid, src, omega_s, x_index, [1.0], contour,
                         kind=kind, omega0=omega0)
    for eta in (0.1, 12.0):
        z = np.linspace(-400.0, 400.0, 2001) + 1j * eta
        got = samplers[0](z)
        diag = hh.diagonal_batch(grid, model, kind, z, omega0=omega0)
        rhs = (1j * z * (1j / (z - omega_s)))[:, None] * src[None, :]
        fields = _thomas_fields(grid, diag, rhs)
        # the entry is exponentially small against the field near |Re z| = 140,
        # where both solvers carry an error of order eps |field|
        bound = 1e-12 * np.linalg.norm(fields, axis=1)
        assert np.all(np.abs(got - fields[:, x_index]) <= bound)
