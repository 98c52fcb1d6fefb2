import math

import numpy as np
import pytest

from helmgreen import dispersion as dsp
from helmgreen import helmholtz as hh
from helmgreen import spectral as sp
from helmgreen import transforms as tr
from helmgreen.errors import ConfigError, DomainError


@pytest.fixture(scope="module")
def cavity():
    grid = hh.Grid1D(L=1.0, N=96)
    return grid, sp.cavity_modes(grid, 2.0)


def test_mode_frequencies_match_closed_form(cavity):
    grid, modes = cavity
    for n in (1, 2, 10, 96):
        expect = sp.discrete_mode_frequency(grid, n, 2.0)
        assert modes.omegas[n - 1] == pytest.approx(expect, rel=1e-10)


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
    direct = hh.green_matrix(hh.assemble(grid, model, "dispersive", z)).values
    assert tail == 0.0
    assert np.max(np.abs(expansion.values - direct) / np.abs(direct)) < 1e-10


def test_truncation_tail_bound(cavity):
    grid, modes = cavity
    model = dsp.PermittivityModel(background=2.0)
    z = 0.5j
    partial, bound = sp.mode_expansion_green(modes, z, grid.N // 2)
    direct = hh.green_matrix(hh.assemble(grid, model, "dispersive", z)).values
    assert np.max(np.abs(partial.values - direct)) <= bound


def test_single_mode_coefficient(cavity):
    grid, modes = cavity
    z = 0.4 + 0.5j
    phi1 = modes.modes[:, 0]
    got = sp.mode_coefficient(modes, phi1, phi1, z)
    # eps-weighted orthonormality collapses the sum to the n = 1 term; the
    # plain-L2 overlap h <phi1, phi1> equals 1/(eps mu0), squared here
    expect = 1.0 / (2.0**2 * (z * z - modes.omegas[0] ** 2))
    assert got == pytest.approx(expect, rel=1e-10)


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
    nu = np.linspace(-20, 20, 4001)
    sd = sp.d_density(model, g, p, p, nu, 0.05)
    assert np.max(np.abs(sd.samples.imag)) < 1e-12 * np.max(np.abs(sd.samples.real))


def test_d_density_even():
    g = hh.Grid1D(L=1.0, N=64)
    model = dsp.PermittivityModel(background=2.0)
    p = sp.gaussian_probe(g, 0.5, 0.1)
    nu = np.linspace(-20, 20, 4001)
    sd = sp.d_density(model, g, p, p, nu, 0.05)
    assert np.allclose(sd.samples, sd.samples[::-1], atol=1e-12)


def test_d_density_vacuum_reference_is_zero_for_vacuum():
    g = hh.Grid1D(L=1.0, N=64)
    model = dsp.vacuum_model()
    p = sp.gaussian_probe(g, 0.5, 0.1)
    nu = np.linspace(-10, 10, 2001)
    sd = sp.d_density(model, g, p, p, nu, 0.05)
    assert np.max(np.abs(sd.samples)) < 1e-14


def test_d_density_guards():
    g = hh.Grid1D(L=1.0, N=64)
    model = dsp.vacuum_model()
    p = sp.gaussian_probe(g, 0.5, 0.1)
    with pytest.raises(DomainError):
        sp.d_density(model, g, p, p, np.linspace(-1, 1, 11), 0.0)
    with pytest.raises(ValueError):
        sp.d_density(model, g, p, p, np.linspace(-1, 2, 11), 0.05)


def test_kk_reconstruct_green_cavity():
    g = hh.Grid1D(L=1.0, N=96)
    model = dsp.PermittivityModel(background=2.0)
    p = sp.gaussian_probe(g, 0.5, 0.1)
    nu = np.linspace(-40, 40, 32001)
    sd = sp.d_density(model, g, p, p, nu, 0.02)
    z = 5j
    recon = sp.kk_reconstruct_green(sd, model, g, p, p, z)
    direct = sp.direct_coefficient(model, g, p, p, z)
    assert abs(recon - direct) / abs(direct) < 5e-3


def test_kk_reconstruct_needs_margin():
    g = hh.Grid1D(L=1.0, N=64)
    model = dsp.PermittivityModel(background=2.0)
    p = sp.gaussian_probe(g, 0.5, 0.1)
    nu = np.linspace(-10, 10, 2001)
    sd = sp.d_density(model, g, p, p, nu, 0.05)
    with pytest.raises(DomainError):
        sp.kk_reconstruct_green(sd, model, g, p, p, 0.2j)


# ---------------------------------------------------------------------------
# time domain


def test_x_operator_causal_and_real():
    g = hh.Grid1D(L=1.0, N=48)
    density = dsp.OscillatorDensity(lorentz=((1.0, 2.0, 0.2),))
    model = dsp.PermittivityModel(layers=((0.25, 0.75, density),))
    p = sp.gaussian_probe(g, 0.5, 0.08)
    pos = tr.ContourSpec(eta=0.1, omega_max=300.0, n_points=120000)
    neg = tr.ContourSpec(eta=10.0, omega_max=300.0, n_points=120000)
    xp, _ = sp.x_operator_coefficient(model, g, p, p, [0.5, 1.0, 2.0], pos)
    xn, _ = sp.x_operator_coefficient(model, g, p, p, [-2.0, -1.0], neg)
    peak = np.max(np.abs(xp))
    assert np.max(np.abs(xn)) / peak < 1e-6
    assert np.max(np.abs(xp.imag)) / peak < 1e-10


def test_time_domain_field_zero_source():
    g = hh.Grid1D(L=1.0, N=48)
    model = dsp.vacuum_model()
    c = tr.ContourSpec(eta=1.0, omega_max=200.0, n_points=50000)
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
    vacuum = dsp.vacuum_model()
    for x, g in zip(xi, got):
        expect = hh.coefficient(hh.assemble(grid, model, "two_freq", z, xi=x), probe, probe)
        if reference == "vacuum":
            expect -= hh.coefficient(hh.assemble(grid, vacuum, "two_freq", z, xi=x), probe, probe)
        assert abs(g - expect) <= 1e-13 * abs(expect)
