import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helmgreen import dispersion as dsp
from helmgreen import helmholtz as hh
from helmgreen import transforms as tr
from helmgreen.errors import (
    ConfigError,
    DomainError,
    GapViolationError,
    PoleProximityError,
    QuadratureError,
)

import oracles

MEDIA = Path(__file__).resolve().parents[1] / "media"


def lorentz_model(wp=1.0, w1=2.0, gamma=0.1):
    density = dsp.OscillatorDensity(lorentz=((wp, w1, gamma),))
    return dsp.PermittivityModel(layers=((0.0, 1.0, density),))


def line_model(nu=3.0, w=1.0):
    density = dsp.OscillatorDensity(lines=(((nu, w)),))
    return dsp.PermittivityModel(layers=((0.0, 1.0, density),))


# ---------------------------------------------------------------------------
# point evaluation


def test_vacuum_permittivity_is_background():
    m = dsp.PermittivityModel()
    for z in (1j, 2.0 + 0.5j, -3.0 + 1e-3j):
        assert dsp.eval_permittivity(m, 0.3, z) == 1.0


def test_lorentz_closed_form_values():
    m = lorentz_model()
    # denominator at z = i: 4 - (-1) - i*0.1*i = 5.1
    got = dsp.eval_permittivity(m, 0.5, 1j)
    assert got == pytest.approx(1.0 + 1.0 / 5.1, rel=1e-14)
    # on resonance, z = 2: denominator = -i*0.2, value 1 + 5i
    got = dsp.eval_permittivity(m, 0.5, 2.0 + 0.0j)
    assert got == pytest.approx(1.0 + 5.0j, rel=1e-14)


def test_line_contribution_is_mirrored():
    # one line at nu = 3 with weight 1 carries weight at +3 and -3, so the
    # closed form is -2w/(z^2 - nu^2) = 2/10 at z = i
    m = line_model()
    got = dsp.eval_permittivity(m, 0.5, 1j)
    assert got == pytest.approx(1.2, rel=1e-14)


def test_outside_layers_is_background():
    m = lorentz_model()
    assert dsp.eval_permittivity(m, 2.0, 1j) == 1.0


def test_lower_half_plane_rejected():
    with pytest.raises(DomainError):
        dsp.eval_permittivity(lorentz_model(), 0.5, 1.0 - 0.1j)


def test_real_axis_with_lines_rejected():
    with pytest.raises(DomainError):
        dsp.eval_permittivity(line_model(), 0.5, 2.0 + 0.0j)


def test_pole_proximity_raises():
    with pytest.raises(PoleProximityError):
        dsp.eval_permittivity(line_model(nu=3.0), 0.5, 3.0 + 1e-15j)
    with pytest.raises(PoleProximityError):
        dsp.passivity_margin(line_model(nu=3.0), 0.5, np.array([1j, 3.0 + 1e-15j]))
    # w1^2 - z^2 - i gamma z is about -1.2e-13 i at z = 1 + 1e-14 i when gamma = 1e-13
    with pytest.raises(PoleProximityError):
        dsp.passivity_margin(lorentz_model(w1=1.0, gamma=1e-13), 0.5,
                             np.array([2j, 1.0 + 1e-14j]))


def _scalar_density_eval(density, z):
    """The per-point loop that `density_eval_array` replaced, in Python
    complex arithmetic: the reference for the vectorized formula."""
    val = 0.0 + 0.0j
    for nu, w in density.lines:
        val += -2.0 * w / (z * z - nu * nu)
    for wp, w1, gamma in density.lorentz:
        val += wp * wp / (w1 * w1 - z * z - 1j * gamma * z)
    return val


def test_density_eval_array_matches_scalar():
    density = dsp.OscillatorDensity(lines=((3.0, 0.5),), lorentz=((1.0, 2.0, 0.1),))
    zs = np.array([1j, 2.0 + 0.5j, -1.0 + 2.0j])
    arr = dsp.density_eval_array(density, zs)
    for z, v in zip(zs, arr):
        assert v == pytest.approx(_scalar_density_eval(density, complex(z)), rel=1e-14)


def test_eval_permittivity_array_equals_scalar_calls():
    density = dsp.OscillatorDensity(lines=((3.0, 0.5),), lorentz=((1.0, 2.0, 0.1),))
    m = dsp.PermittivityModel(background=1.5, layers=((0.0, 1.0, density),))
    zs = np.array([[1j, 2.0 + 0.5j, -1.0 + 2.0j], [0.3 + 1e-3j, 5.0 + 3.0j, -4.0 + 0.1j]])
    eps = dsp.eval_permittivity(m, 0.5, zs)
    assert eps.shape == zs.shape
    for z, v in zip(zs.ravel(), eps.ravel()):
        scalar = dsp.eval_permittivity(m, 0.5, z)
        assert isinstance(scalar, complex)
        assert scalar == v


def test_eval_permittivity_array_rejects_any_bad_point():
    with pytest.raises(DomainError):
        dsp.eval_permittivity(lorentz_model(), 0.5, np.array([1j, 1.0 - 0.1j]))
    with pytest.raises(DomainError):
        dsp.eval_permittivity(line_model(), 0.5, np.array([1j, 2.0 + 0.5j, 2.0 + 0.0j]))
    with pytest.raises(PoleProximityError):
        dsp.eval_permittivity(line_model(nu=3.0), 0.5, np.array([1j, 3.0 + 1e-15j]))
    with pytest.raises(PoleProximityError):
        dsp.eval_permittivity(lorentz_model(w1=1.0, gamma=1e-13), 0.5,
                              np.array([2j, 1.0 + 1e-14j]))
    # a damped medium may be evaluated on the real axis
    eps = dsp.eval_permittivity(lorentz_model(), 0.5, np.array([1j, 2.0 + 0.0j]))
    assert eps[1] == pytest.approx(1.0 + 5.0j, rel=1e-14)


def test_schwarz_reflection():
    m = lorentz_model()
    for z in (0.3 + 0.8j, -1.2 + 0.4j, 2.0 + 2.0j):
        a = dsp.eval_permittivity(m, 0.5, z)
        b = dsp.eval_permittivity(m, 0.5, -np.conj(z))
        assert b == pytest.approx(np.conj(a), rel=1e-14)


# ---------------------------------------------------------------------------
# passivity and sigma


def test_passivity_margin_example():
    m = lorentz_model()
    assert dsp.passivity_margin(m, 0.5, 1j) == pytest.approx(1.0 / 5.1, rel=1e-12)


def test_passivity_margin_vacuum_zero():
    assert dsp.passivity_margin(dsp.PermittivityModel(), 0.1, 0.5 + 0.5j) == 0.0


def test_passivity_sweep_small():
    rng = np.random.default_rng(3)
    m = lorentz_model()
    z = rng.uniform(-10, 10, 200) + 1j * 10.0 ** rng.uniform(-2, 1, 200)
    margins = dsp.passivity_margin(m, 0.5, z)
    assert margins.shape == (200,)
    assert np.all(margins >= -1e-12)
    # reference: the scalar closed form, one point at a time
    ref = [(zi * (dsp.eval_permittivity(m, 0.5, zi) - 1.0)).imag for zi in z]
    np.testing.assert_allclose(margins, ref, rtol=1e-13, atol=1e-300)
    assert dsp.passivity_margin(m, 0.5, z[7]) == margins[7]


def _exact_margin(model, x, z):
    """Im{z (eps - 1)} in exact rational arithmetic on the float inputs."""
    def mul(a, b):
        return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]

    def div(a, b):
        d = b[0] ** 2 + b[1] ** 2
        return (a[0] * b[0] + a[1] * b[1]) / d, (a[1] * b[0] - a[0] * b[1]) / d

    z = (Fraction(z.real), Fraction(z.imag))
    z2 = mul(z, z)
    re, im = Fraction(model.background) - 1, Fraction(0)
    density = model.density_at(x)
    for nu, w in density.lines:
        t = div((-2 * Fraction(w), Fraction(0)), (z2[0] - Fraction(nu) ** 2, z2[1]))
        re, im = re + t[0], im + t[1]
    for wp, w1, gamma in density.lorentz:
        g = Fraction(gamma)
        t = div((Fraction(wp) ** 2, Fraction(0)),
                (Fraction(w1) ** 2 - z2[0] + g * z[1], -z2[1] - g * z[0]))
        re, im = re + t[0], im + t[1]
    return mul(z, (re, im))[1]


@pytest.mark.parametrize("background", [1.0, 2.5])
def test_passivity_rounding_bounds_margin_error(background):
    # the kk_eps sample distribution: |z| over 1e-2..1e2, every direction
    density = dsp.OscillatorDensity(lines=((3.0, 0.25),),
                                    lorentz=((1.0, 2.0, 0.1), (0.7, 4.0, 0.5)))
    m = dsp.PermittivityModel(background=background, layers=((0.0, 1.0, density),))
    rng = np.random.default_rng(11)
    zs = 10.0 ** rng.uniform(-2, 2, 300) * np.exp(1j * rng.uniform(0.01, math.pi - 0.01, 300))
    # and beside the line and the resonances, where the denominators cancel
    zs = np.concatenate([zs, [c + d + 1j * e for c in (3.0, -3.0, 2.0, -2.0, 4.0, -4.0)
                              for d in (1e-7, -1e-7, 1e-5, -1e-5) for e in (1e-9, 1e-7)]])
    for z in zs:
        error = abs(Fraction(dsp.passivity_margin(m, 0.5, z)) - _exact_margin(m, 0.5, z))
        assert error <= dsp.passivity_rounding(m, 0.5, z), z


def test_passivity_margin_rejects_real_point_in_array():
    with pytest.raises(DomainError):
        dsp.passivity_margin(lorentz_model(), 0.5, np.array([1j, 2.0 + 0.0j]))


def test_sigma_eval_nonnegative_even():
    density = lorentz_model().density_at(0.5)
    nu = np.linspace(-20, 20, 401)
    s = dsp.sigma_eval(density, nu)
    assert np.all(s >= 0)
    assert np.allclose(s, s[::-1])


def test_sigma_eval_closed_form():
    # sigma_L(nu) = wp^2 gamma nu^2 / (pi [(w1^2-nu^2)^2 + gamma^2 nu^2])
    density = dsp.OscillatorDensity(lorentz=((1.0, 2.0, 0.1),))
    nu = 1.7
    expect = 0.1 * nu**2 / (math.pi * ((4.0 - nu**2) ** 2 + 0.01 * nu**2))
    assert dsp.sigma_eval(density, nu) == pytest.approx(expect, rel=1e-13)


# ---------------------------------------------------------------------------
# Kramers-Kronig round trip and sum rule


def _media_point(name):
    model = dsp.load_medium(str(MEDIA / name))
    x0, x1, _ = model.layers[0]
    return model, 0.5 * (x0 + x1)


def test_kk_reconstruction_matches_closed_form():
    m = lorentz_model()
    density = m.density_at(0.5)
    zs = np.array([1.0 + 0.5j, 0.1 + 0.05j, -2.0 + 1.0j, 5.0 + 3.0j])
    recon, bound = dsp.kk_reconstruct_permittivity(density, zs)
    assert recon.shape == bound.shape == zs.shape
    for z, r in zip(zs, recon):
        exact = dsp.eval_permittivity(m, 0.5, z)
        assert abs(r - exact) / abs(exact) < 1e-8


@pytest.mark.parametrize("name", ["lorentz_slab.json", "lorentz_double.json"])
def test_kk_batched_matches_closed_form_per_z(name):
    model, x = _media_point(name)
    zs = np.array([complex(re, im) for im in np.geomspace(0.1 * oracles.min_gamma(model), 5.0, 8)
                   for re in np.linspace(-1.0, 5.0, 9)])
    recon = model.background - 1.0 + dsp.kk_reconstruct_permittivity(model.density_at(x), zs)[0]
    exact = np.array([dsp.eval_permittivity(model, x, z) for z in zs])
    assert np.max(np.abs(recon - exact) / np.abs(exact)) < 1e-8


def test_kk_scalar_call_equals_array_element():
    density = lorentz_model().density_at(0.5)
    zs = np.array([0.3 + 0.02j, 2.0 + 0.1j, 4.0 + 2.0j])
    recon, bound = dsp.kk_reconstruct_permittivity(density, zs)
    for z, r, b in zip(zs, recon, bound):
        scalar, scalar_bound = dsp.kk_reconstruct_permittivity(density, z)
        assert isinstance(scalar, complex) and isinstance(scalar_bound, float)
        assert abs(scalar - r) <= 1e-13 * abs(r)
        assert 0.0 < scalar_bound <= 1e-9 * max(abs(r), 1.0) and 0.0 < b


def test_kk_empty_array_gives_empty_result():
    recon, bound = dsp.kk_reconstruct_permittivity(lorentz_model().density_at(0.5), np.array([]))
    assert recon.shape == bound.shape == (0,)


def test_kk_reconstruction_lines_exact():
    m = line_model()
    recon, bound = dsp.kk_reconstruct_permittivity(m.density_at(0.5), 1j)
    assert recon == pytest.approx(1.2, rel=1e-14)
    assert bound == 0.0


def test_kk_requires_upper_half_plane():
    density = lorentz_model().density_at(0.5)
    with pytest.raises(DomainError):
        dsp.kk_reconstruct_permittivity(density, 2.0 + 0.0j)
    with pytest.raises(DomainError):
        dsp.kk_reconstruct_permittivity(density, np.array([1j, 2.0 + 0.5j, 3.0 + 0.0j]))


def test_kk_unreachable_tolerance_raises_with_estimate(monkeypatch):
    monkeypatch.setattr(dsp, "QUAD_REL_TOL", 1e-15)
    monkeypatch.setattr(dsp, "QUAD_ABS_TOL", 1e-300)
    with pytest.raises(QuadratureError) as info:
        dsp.kk_reconstruct_permittivity(lorentz_model().density_at(0.5), 1.0 + 0.5j)
    assert info.value.estimate is not None and math.isfinite(info.value.estimate)


def test_gauss_kronrod_gauss_nodes_match_leggauss():
    x, w = np.polynomial.legendre.leggauss(7)
    gauss = dsp._GK_GAUSS != 0
    assert np.count_nonzero(gauss) == 7
    np.testing.assert_allclose(dsp._GK_NODES[gauss], x, rtol=0, atol=1e-15)
    np.testing.assert_allclose(dsp._GK_GAUSS[gauss], w, rtol=0, atol=1e-15)


@pytest.mark.parametrize("weights, exact_degree", [("_GK_KRONROD", 22), ("_GK_GAUSS", 13)])
def test_gauss_kronrod_polynomial_exactness(weights, exact_degree):
    w, x = getattr(dsp, weights), dsp._GK_NODES
    rng = np.random.default_rng(5)
    for degree in range(exact_degree + 1):
        p = np.polynomial.Polynomial(rng.uniform(-1.0, 1.0, degree + 1))
        exact = p.integ()(1.0) - p.integ()(-1.0)
        assert abs(w @ p(x) - exact) <= 1e-14 * max(1.0, abs(exact))
    # and not beyond: the next even power (odd ones integrate to 0 by symmetry)
    d = exact_degree + 2 - exact_degree % 2
    assert abs(w @ x**d - 2.0 / (d + 1)) > 1e-10


@pytest.mark.parametrize("f, tol", [
    (np.exp, 1e-30),                       # every interval bisects: the interval cap
    (lambda x: 1.0 / np.sqrt(x), 1e-12),   # one shrinking interval at 0: the round cap
])
def test_gauss_kronrod_unreachable_tolerance_raises_in_bounded_work(f, tol):
    sizes = []

    def counted(x):
        sizes.append(x.size)
        return f(x)[:, None]

    with pytest.raises(QuadratureError) as info:
        dsp._gauss_kronrod(counted, (0.0, 1.0), tol)
    assert math.isfinite(info.value.estimate) and info.value.estimate > tol
    # one call per round; each bisection evaluates two intervals, so a
    # partition of at most _GK_LIMIT intervals evaluates fewer than twice that
    assert len(sizes) <= dsp._GK_ROUNDS
    assert max(sizes) <= dsp._GK_BLOCK
    assert sum(sizes) < 2 * dsp._GK_NODES.size * dsp._GK_LIMIT


def test_gauss_kronrod_blocks_bound_each_call(monkeypatch):
    # near-poles at 0.3 and 0.7 refine many intervals; with a block of two
    # intervals the run makes more calls, none larger, and the same partition
    def f(x):
        return np.stack([1.0 / ((x - 0.3) ** 2 + 1e-4), 1.0 / ((x - 0.7) ** 2 + 1e-6)], axis=1)

    def run():
        sizes = []
        value, est = dsp._gauss_kronrod(lambda x: sizes.append(x.size) or f(x),
                                        (0.0, 0.5, 1.0), 1e-10, columns=2)
        return value, est, sizes

    whole = run()
    monkeypatch.setattr(dsp, "_GK_BLOCK", 2 * dsp._GK_NODES.size * 2)
    blocked = run()
    assert max(blocked[2]) <= 2 * dsp._GK_NODES.size < max(whole[2])
    assert sum(blocked[2]) == sum(whole[2])
    np.testing.assert_allclose(blocked[0], whole[0], rtol=1e-14, atol=0)
    assert blocked[1] == pytest.approx(whole[1], rel=1e-12)
    exact = [100.0 * (np.arctan(70.0) + np.arctan(30.0)),
             1000.0 * (np.arctan(300.0) + np.arctan(700.0))]
    np.testing.assert_allclose(whole[0], exact, rtol=1e-12, atol=0)


def test_gauss_kronrod_infinite_tail():
    # int_2^inf dnu / nu^2 = 1/2, on (k, 2) columns at once
    value, est = dsp._gauss_kronrod_tail(
        lambda nu: np.stack([1.0 / nu**2, 2.0 / nu**2], axis=1), 2.0, 1e-12, columns=2)
    np.testing.assert_allclose(value, [0.5, 1.0], rtol=0, atol=1e-12)
    assert est <= 1e-12


def test_sum_rule():
    density = dsp.OscillatorDensity(
        lines=((3.0, 0.25),), lorentz=((1.0, 2.0, 0.1), (0.7, 4.0, 0.5))
    )
    total, err = dsp.sigma_total_weight(density)
    expect = dsp.chi_dot_at_zero(density)
    assert expect == pytest.approx(2.0 * 0.25 + 1.0 + 0.49, rel=1e-14)
    assert abs(total - expect) / expect < 1e-8
    assert abs(total - expect) <= err <= dsp.QUAD_REL_TOL * expect


# ---------------------------------------------------------------------------
# time domain


def test_susceptibility_matches_exact_lorentz():
    m = lorentz_model(wp=1.0, w1=2.0, gamma=0.2)
    t = np.array([0.3, 1.0, 2.5, 5.0])
    chi, est = dsp.susceptibility(m, 0.5, t, tr.ContourSpec(0.1, 800.0, 40000, rtol=1e-9))
    exact = oracles.lorentz_susceptibility_exact(1.0, 2.0, 0.2, t)
    assert np.max(np.abs(chi - exact)) < 1e-5


def test_susceptibility_causal():
    m = lorentz_model(wp=1.0, w1=2.0, gamma=0.2)
    contour = tr.ContourSpec(eta=10.0, omega_max=400.0, n_points=100000, rtol=1e-9)
    chi, _ = dsp.susceptibility(m, 0.5, [-2.0, -1.0], contour)
    assert np.max(np.abs(chi)) < 1e-8


def test_susceptibility_vacuum_zero():
    # a zero sampler stops at the second level, its values and estimate 0
    for contour in (tr.ContourSpec(0.1, 400.0, 200000, rtol=1e-9),
                    tr.ContourSpec(12.0, 400.0, 200000, rtol=1e-9, scale=1e-300)):
        chi, est = dsp.susceptibility(dsp.PermittivityModel(), 0.5, [-1.0, 1.0, 2.0], contour)
        assert np.all(chi == 0.0) and est == 0.0


# ---------------------------------------------------------------------------
# non-dispersive construction: eps(x, omega0) of the nondispersive operator kind

# a cavity this long has 2/h^2 = 1.6e-4, so the diagonal z^2 eps - 2/h^2 at
# z = 1 gives back eps to rounding
_ND_GRID = hh.Grid1D(L=1e3, N=8)


def _nondispersive_rows(density, omega0):
    """The distinct diagonal rows of the nondispersive kind at z = 1 on a
    cavity that `density` fills."""
    model = dsp.PermittivityModel(layers=((0.0, _ND_GRID.L, density),))
    rows, _ = hh.diagonal_rows(_ND_GRID, model, "nondispersive", [1.0], omega0=omega0)
    return rows[:, 0]


def test_build_nondispersive_value():
    # one mirrored line at nu = 3, weight 1, omega0 = 1: 1 + 2/(9-1) = 1.25
    _, row = _nondispersive_rows(dsp.OscillatorDensity(lines=((3.0, 1.0),)), 1.0)
    assert row.imag == 0.0
    assert row.real + 2.0 / _ND_GRID.h**2 == pytest.approx(1.25, rel=1e-14)


def test_build_nondispersive_vacuum():
    rows = _nondispersive_rows(dsp.OscillatorDensity(), 1.0)
    assert np.array_equal(rows, [1.0 - 2.0 / _ND_GRID.h**2])


def test_build_nondispersive_requires_gap():
    # omega0 must be > 0, and the lowest line lies above it
    density = dsp.OscillatorDensity(lines=((3.0, 1.0), (5.0, 1.0)))
    for omega0 in (0.0, -1.0, math.nan):
        with pytest.raises(DomainError) as info:
            _nondispersive_rows(density, omega0)
        assert info.type is DomainError
    with pytest.raises(GapViolationError):
        _nondispersive_rows(density, 3.0)


def test_build_nondispersive_rejects_lorentz():
    density = dsp.OscillatorDensity(lorentz=((1.0, 2.0, 0.1),))
    with pytest.raises(GapViolationError):
        _nondispersive_rows(density, 1.0)


def test_build_nondispersive_rejects_line_in_gap():
    density = dsp.OscillatorDensity(lines=((1.2, 1.0), (4.0, 1.0)))
    with pytest.raises(GapViolationError):
        _nondispersive_rows(density, 1.5)


# ---------------------------------------------------------------------------
# medium files


def test_load_medium_round_trip(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({
        "background_epsilon": 1.5,
        "layers": [{
            "interval": [0.2, 0.8],
            "lorentz": [{"wp": 1.0, "w1": 2.0, "gamma": 0.1}],
            "lines": [{"nu": 5.0, "weight": 0.5}],
        }],
    }))
    m = dsp.load_medium(str(path))
    assert m.background == 1.5
    density = m.density_at(0.5)
    assert density.lorentz == ((1.0, 2.0, 0.1),)
    assert density.lines == ((5.0, 0.5),)


def test_load_medium_unknown_key_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"background_epsilon": 1.0, "layres": []}))
    with pytest.raises(ConfigError):
        dsp.load_medium(str(path))


@pytest.mark.parametrize("part", [
    {"wp": "x", "w1": 2.0, "gamma": 0.1},
    {"wp": None, "w1": 2.0, "gamma": 0.1},
    {"wp": 1.0, "w1": 2.0},
    {"wp": float("nan"), "w1": 2.0, "gamma": 0.1},
])
def test_load_medium_bad_number_is_config_error(tmp_path, part):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"layers": [{"interval": [0.2, 0.8], "lorentz": [part]}]}))
    with pytest.raises(ConfigError):
        dsp.load_medium(str(path))


@pytest.mark.parametrize("name", sorted(p.name for p in MEDIA.glob("*.json")))
def test_load_medium_accepts_shipped_media(name):
    assert dsp.load_medium(str(MEDIA / name)).background >= 1.0


def test_load_medium_missing_file():
    with pytest.raises(ConfigError):
        dsp.load_medium("/nonexistent/medium.json")


def test_negative_weights_rejected():
    with pytest.raises(ConfigError):
        dsp.OscillatorDensity(lines=((3.0, -1.0),))
    with pytest.raises(ConfigError):
        dsp.OscillatorDensity(lorentz=((1.0, -2.0, 0.1),))


# ---------------------------------------------------------------------------
# properties over random passive media (workload ranges of the benchmark)

lorentz_parts = st.lists(
    st.tuples(st.floats(0.5, 1.2), st.floats(1.5, 3.0), st.floats(0.15, 0.4)),
    min_size=1, max_size=3,
)
upper_half_plane = st.builds(
    complex, st.floats(-5.0, 5.0), st.floats(-2.0, 0.7).map(lambda e: 10.0 ** e)
)


@given(parts=lorentz_parts, zs=st.lists(upper_half_plane, min_size=1, max_size=6))
def test_property_batched_kk_matches_closed_form(parts, zs):
    model = dsp.PermittivityModel(
        layers=((0.0, 1.0, dsp.OscillatorDensity(lorentz=tuple(parts))),))
    recon, bound = dsp.kk_reconstruct_permittivity(model.density_at(0.5), np.array(zs))
    for z, r, b in zip(zs, recon, bound):
        exact = dsp.eval_permittivity(model, 0.5, z)
        assert abs(r - exact) / abs(exact) <= 1e-8
        assert abs(r - exact) <= b


@given(parts=lorentz_parts, zs=st.lists(upper_half_plane, min_size=1, max_size=50))
def test_property_passivity_margin_nonnegative(parts, zs):
    model = dsp.PermittivityModel(
        layers=((0.0, 1.0, dsp.OscillatorDensity(lorentz=tuple(parts))),))
    assert np.min(dsp.passivity_margin(model, 0.5, np.array(zs))) >= -1e-12
