import math

import numpy as np
import pytest

from helmgreen import transforms as tr
from helmgreen.errors import ConfigError, DomainError

import oracles


def test_contour_nodes_trapezoid():
    # the oracle's fixed rule, which the nested levels refine
    omega, w = oracles.trapezoid(10.0, 21)
    assert omega[0] == -10.0 and omega[-1] == 10.0
    assert np.sum(w) == pytest.approx(20.0, rel=1e-13)


def test_contour_validation():
    with pytest.raises(ConfigError):
        tr.ContourSpec(eta=0.0, omega_max=1.0, n_points=4097, rtol=1e-9)
    with pytest.raises(ConfigError):
        tr.ContourSpec(eta=1.0, omega_max=1.0, n_points=4, rtol=1e-9)


def test_contour_tolerance_validation():
    for bad in (0.0, -1e-9, math.nan):
        with pytest.raises(ConfigError):
            tr.ContourSpec(eta=1.0, omega_max=1.0, n_points=2049, rtol=bad)
    for bad in (-1.0, math.nan):
        with pytest.raises(ConfigError):
            tr.ContourSpec(eta=1.0, omega_max=1.0, n_points=2049, rtol=1e-9, scale=bad)


def test_nested_levels_double_up_to_the_cap():
    assert tr._levels(tr.ContourSpec(0.1, 400.0, 200000, rtol=1e-9)) == [
        2**j * tr._FIRST + 1 for j in range(8)]
    assert tr._levels(tr.ContourSpec(0.1, 400.0, 2049, rtol=1e-9)) == [1025, 2049]


def test_a_cap_under_two_levels_is_a_config_error():
    with pytest.raises(ConfigError, match="2049"):
        tr.ContourSpec(eta=0.1, omega_max=400.0, n_points=2048, rtol=1e-9)
    assert tr.ContourSpec(eta=0.1, omega_max=400.0, n_points=2049, rtol=1e-9).n_points == 2049


@pytest.mark.parametrize("taper", [0.0, 16.0])
def test_nested_rule_samples_new_midpoints_only(taper):
    nodes = []

    def sampler(z):
        nodes.append(z.copy())
        return _oscillator(z)

    t = np.array([0.5, 1.0, 2.0, 4.0])
    contour = tr.ContourSpec(eta=0.1, omega_max=400.0, n_points=200000, rtol=1e-9)
    vals, est = tr.laplace_invert(sampler, contour, t, taper=taper)
    z = np.concatenate(nodes)
    assert max(b.size for b in nodes) <= tr._BLOCK
    # the nodes of the last level, each sampled once
    n = z.size
    assert n in tr._levels(contour) and n < contour.n_points
    expect = np.linspace(-400.0, 400.0, n) + 0.1j
    assert np.array_equal(np.sort_complex(z), np.sort_complex(expect))
    # against the fixed rule on those n nodes
    fixed, _ = oracles.laplace_invert(_oscillator, tr.ContourSpec(0.1, 400.0, n, rtol=1e-9),
                                      t, taper=taper)
    assert np.max(np.abs(vals - fixed)) <= 1e-12 * np.max(np.abs(fixed))
    assert np.max(np.abs(vals - fixed)) <= est


def test_laplace_invert_damped_oscillator():
    # sampler 1/(w1^2 - z^2 - i gamma z) inverts to exp(-gamma t/2) sin(wt t)/wt
    w1, gamma = 2.0, 0.2
    wt = math.sqrt(w1**2 - gamma**2 / 4.0)

    def sampler(z):
        return 1.0 / (w1 * w1 - z * z - 1j * gamma * z)

    c = tr.ContourSpec(eta=0.1, omega_max=400.0, n_points=200000, rtol=1e-9)
    t = np.array([0.5, 1.0, 3.0])
    vals, est = tr.laplace_invert(sampler, c, t)
    exact = np.exp(-gamma * t / 2.0) * np.sin(wt * t) / wt
    assert np.max(np.abs(vals - exact)) < 1e-5


def test_laplace_invert_causal():
    def sampler(z):
        return 1.0 / (4.0 - z * z - 0.2j * z)

    c = tr.ContourSpec(eta=10.0, omega_max=400.0, n_points=100000, rtol=1e-9)
    vals, _ = tr.laplace_invert(sampler, c, [-2.0, -1.0])
    assert np.max(np.abs(vals)) < 1e-8


def test_laplace_invert_eta_independent():
    def sampler(z):
        return 1.0 / (4.0 - z * z - 0.2j * z)

    t = np.array([1.0, 2.0])
    a, _ = tr.laplace_invert(sampler, tr.ContourSpec(0.05, 400.0, 200000, rtol=1e-9), t)
    b, _ = tr.laplace_invert(sampler, tr.ContourSpec(0.3, 400.0, 200000, rtol=1e-9), t)
    assert np.max(np.abs(a - b)) < 1e-5


def test_laplace_invert_taper_suppresses_ringing():
    def sampler(z):
        return 1.0 / (4.0 - z * z - 0.2j * z)

    c = tr.ContourSpec(eta=5.0, omega_max=100.0, n_points=50000, rtol=1e-9)
    bare, _ = tr.laplace_invert(sampler, c, [-1.0])
    tapered, _ = tr.laplace_invert(sampler, c, [-1.0], taper=16.0)
    assert abs(tapered[0]) < abs(bare[0])


def test_laplace_invert_rejects_nondecaying():
    c = tr.ContourSpec(eta=1.0, omega_max=10.0, n_points=2049, rtol=1e-9)
    with pytest.raises(DomainError, match="enlarge omega_max"):
        tr.laplace_invert(lambda z: np.ones_like(z), c, [1.0])


def _oscillator(z):
    return 1.0 / (4.0 - z * z - 0.2j * z)


# a tolerance no level meets: the rule runs to the cap, whose last level
# samples its 32768 midpoints in two full blocks
_BLOCKED = tr.ContourSpec(eta=0.1, omega_max=400.0, n_points=4 * tr._BLOCK + 1, rtol=1e-12)


@pytest.mark.parametrize("taper", [0.0, 16.0])
def test_laplace_invert_blocks_match_one_shot(taper):
    sizes = []

    def sampler(z):
        sizes.append(z.size)
        return _oscillator(z)

    t = np.array([-1.0, 0.5, 2.0])
    vals, est = tr.laplace_invert(sampler, _BLOCKED, t, taper=taper)
    assert max(sizes) <= tr._BLOCK and sizes[-2:] == [tr._BLOCK, tr._BLOCK]
    assert sum(sizes) == _BLOCKED.n_points
    expect, expect_est = oracles.laplace_invert(_oscillator, _BLOCKED, t, taper=taper,
                                                levels=tr._levels(_BLOCKED))
    assert np.array_equal(vals, expect)
    assert est == expect_est


def test_laplace_invert_rejects_wrong_shape_on_last_block():
    def sampler(z):
        f = _oscillator(z)
        return f[:-1] if z.size == tr._BLOCK and z.real[0] > 0 else f

    with pytest.raises(ValueError):
        tr.laplace_invert(sampler, _BLOCKED, [1.0])


def test_laplace_invert_rejects_nondecaying_across_blocks():
    with pytest.raises(DomainError, match="enlarge omega_max"):
        tr.laplace_invert(lambda z: np.ones_like(z), _BLOCKED, [1.0])

    # decays everywhere but next to the upper window end, which the first
    # level samples
    def sampler(z):
        return _oscillator(z) + 10.0 * (z.real > 399.0)

    with pytest.raises(DomainError, match="enlarge omega_max"):
        tr.laplace_invert(sampler, _BLOCKED, [1.0])


def test_cauchy_loop_polynomial_defect_zero():
    loop = tr.RectangleLoop(z_lo=0.5 + 0.5j, z_hi=2.0 + 1.5j)
    defect, _ = tr.cauchy_loop(lambda z: z**3 - 2.0 * z + 1.0, loop)
    assert defect < 1e-14


def test_cauchy_loop_estimate_bounds_rounding():
    # the polynomial's loop integral is 0 up to rounding, which the
    # estimate must cover; it scales with the node count
    loop = tr.RectangleLoop(z_lo=0.5 + 0.5j, z_hi=2.0 + 1.5j)
    fine = tr.RectangleLoop(z_lo=0.5 + 0.5j, z_hi=2.0 + 1.5j, n_points=96)
    defect, est = tr.cauchy_loop(lambda z: z**3 - 2.0 * z + 1.0, loop)
    _, fine_est = tr.cauchy_loop(lambda z: z**3 - 2.0 * z + 1.0, fine)
    assert defect <= est < 1e-13 and est > 0.0
    assert fine_est == pytest.approx(2.0 * est, rel=1e-2)
    assert tr.cauchy_loop(np.zeros_like, loop) == (0.0, 0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_cauchy_loop_rejects_non_finite_samples(bad):
    # max(0.0, nan) is 0.0, so unchecked an all-NaN loop reads as a zero defect
    loop = tr.RectangleLoop(z_lo=0.5 + 0.5j, z_hi=2.0 + 1.5j)
    with pytest.raises(DomainError):
        tr.cauchy_loop(lambda z: np.full(z.shape, bad, dtype=complex), loop)

    def one_bad_node(z):
        f = z**2
        f[len(f) // 2] = bad
        return f

    with pytest.raises(DomainError):
        tr.cauchy_loop(one_bad_node, loop)


def test_cauchy_loop_meromorphic_defect_small():
    loop = tr.RectangleLoop(z_lo=0.5 + 0.5j, z_hi=2.0 + 1.5j)
    defect, _ = tr.cauchy_loop(lambda z: 1.0 / (z + 1j), loop)  # pole outside
    assert defect < 1e-10


def test_cauchy_loop_conjugate_witness():
    loop = tr.RectangleLoop(z_lo=0.5 + 0.5j, z_hi=2.0 + 1.5j)
    # non-analytic witness: defect = 2 Area / (perimeter max|conj z|)
    defect, _ = tr.cauchy_loop(np.conj, loop)
    area, perim = 1.5, 5.0
    expect = 2.0 * area / (perim * abs(2.0 + 1.5j))
    # max|f| is taken over the quadrature nodes, which miss the corners,
    # so the normalization is only approximately the corner modulus
    assert defect == pytest.approx(expect, rel=1e-2)
    assert defect > 1e-2


def test_cauchy_loop_enclosed_pole_detected():
    loop = tr.RectangleLoop(z_lo=0.5 + 0.5j, z_hi=2.0 + 1.5j)
    defect, _ = tr.cauchy_loop(lambda z: 1.0 / (z - (1.0 + 1.0j)), loop)
    assert defect > 1e-2


def test_rectangle_loop_validation():
    with pytest.raises(DomainError):
        tr.RectangleLoop(z_lo=0.5 - 0.1j, z_hi=2.0 + 1.5j)
    with pytest.raises(ConfigError):
        tr.RectangleLoop(z_lo=2.0 + 1.5j, z_hi=0.5 + 0.5j)


def test_broadened_delta_mass():
    nu = np.linspace(-200, 200, 400001)
    rho = oracles.broadened_delta(nu, 3.0, 0.05)
    assert np.trapezoid(rho, nu) == pytest.approx(1.0, abs=2e-3)
    assert np.allclose(rho, rho[::-1])


def test_kk_kernel_integral_single_pair():
    # samples = c * broadened pair reconstructs -c/(z^2 - omega^2) up to O(zeta)
    omega, zeta, c = 3.0, 0.005, 0.7
    nu = np.linspace(-60, 60, 120001)
    samples = c * oracles.broadened_delta(nu, omega, zeta)
    for z in (4j, 1.0 + 5j):
        val = tr.kk_kernel_integral(60.0, samples, z)
        exact = -c / (z * z - omega * omega)
        assert abs(val - exact) / abs(exact) < 5.0 * zeta / abs(z.imag)


def test_kk_kernel_integral_zero_samples():
    assert tr.kk_kernel_integral(5.0, np.zeros(1001), 1j) == 0.0


# The test keeps the name of the scipy replica the uniform rule replaced;
# the two now agree to rounding, not bit for bit.
@pytest.mark.parametrize("n", [2, 3, 4, 5, 64000, 64001])
@pytest.mark.parametrize("grid", ["symmetric", "positive"])
def test_simpson_bit_identical_to_scipy(n, grid):
    # the uniform rule against scipy's on an np.linspace grid, within
    # 8 u h sum |y|: random samples against scipy's uniform-spacing path
    # (at most 0.55 u h sum |y| for n = 2..59), and smooth samples against
    # scipy on the grid points, whose rounded spacings it reads (at most
    # 4 u h sum |y|; random samples there reach 77 u h sum |y| at n = 64000)
    from scipy import integrate

    rng = np.random.default_rng(n)
    lo, hi = (-40.0, 40.0) if grid == "symmetric" else (0.5, 3.0)
    x = np.linspace(lo, hi, n)
    h = (hi - lo) / (n - 1)
    noise = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    smooth = np.exp(-x**2 / 50.0) * (1.0 + 1j * x)
    for y, want in [(noise, integrate.simpson(noise, dx=h)),
                    (smooth, integrate.simpson(smooth, x=x))]:
        bound = 8.0 * tr._UNIT_ROUNDOFF * h * np.sum(np.abs(y))
        assert abs(tr._simpson(y, h) - want) <= bound
