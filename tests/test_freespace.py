import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helmgreen import freespace as fs
from helmgreen.errors import DomainError

import oracles


def test_norm_sq_closed_form():
    # int exp(-k^2/s^2) d^3k = (pi s^2)^{3/2} for unit polarization
    phi = fs.TestField3D(polarization=(1.0, 0.0, 0.0), width=1.0)
    assert fs.norm_sq(phi) == pytest.approx(math.pi**1.5, rel=1e-13)
    phi2 = fs.TestField3D(polarization=(0.0, 2.0, 0.0), width=0.5)
    assert fs.norm_sq(phi2) == pytest.approx(4.0 * (math.pi * 0.25) ** 1.5, rel=1e-13)


def test_inner_product_matches_quadrature():
    phi = fs.TestField3D(polarization=(1.0, 0.0, 0.0), center=(0.5, 0.0, 0.0), width=1.0)
    psi = fs.TestField3D(polarization=(1.0, 1.0, 0.0), center=(0.0, 0.3, 0.0), width=0.8)
    closed = fs.inner_product(phi, psi)
    k, w = oracles.tensor_nodes_weights(fs.SphericalQuadrature(120, 60, 90), 14.0)
    amps = oracles.amplitude(phi, k).conj() * oracles.amplitude(psi, k)
    quad = np.sum(w * np.sum(amps, axis=-1))
    assert closed == pytest.approx(quad, rel=1e-6)


def test_field_width_validated():
    with pytest.raises(DomainError):
        fs.TestField3D(polarization=(1, 0, 0), width=0.0)


def test_symbol_removable_limit():
    s = oracles.free_symbol((0.0, 0.0, 0.0), 1j)
    assert np.allclose(s, -np.eye(3))


def test_symbol_eigenvalues():
    s = oracles.free_symbol((1.0, 0.0, 0.0), 1j)
    assert s[0, 0] == pytest.approx(-1.0)
    assert s[1, 1] == pytest.approx(-0.5)
    assert s[2, 2] == pytest.approx(-0.5)
    assert np.allclose(s - np.diag(np.diag(s)), 0.0)


def test_symbol_even_in_k():
    rng = np.random.default_rng(2)
    for _ in range(5):
        k = rng.standard_normal(3)
        z = complex(rng.standard_normal(), 0.5 + rng.random())
        assert np.allclose(oracles.free_symbol(k, z), oracles.free_symbol(-k, z))


def test_symbol_projector_identity():
    # z^2 symbol = I + k^2/(z^2 - k^2) (I - kk/k^2) entry-wise
    rng = np.random.default_rng(4)
    for _ in range(10):
        k = rng.standard_normal(3)
        z = complex(rng.standard_normal(), 0.5 + rng.random())
        k2 = k @ k
        proj_t = np.eye(3) - np.outer(k, k) / k2
        expect = np.eye(3) + k2 / (z * z - k2) * proj_t
        assert np.allclose(z * z * oracles.free_symbol(k, z), expect)


def test_symbol_longitudinal_action():
    k = np.array([0.3, -0.7, 1.1])
    z = 0.4 + 0.9j
    khat = k / np.linalg.norm(k)
    assert np.allclose(oracles.free_symbol(k, z) @ khat, khat / (z * z))


def test_symbol_requires_upper_half():
    with pytest.raises(DomainError):
        oracles.free_symbol((1.0, 0.0, 0.0), 1.0 - 0.1j)


def test_cross_polarization_vanishes_by_parity():
    phi = fs.TestField3D(polarization=(1.0, 0.0, 0.0), width=1.0)
    psi = fs.TestField3D(polarization=(0.0, 1.0, 0.0), width=1.0)
    val, _ = fs.free_coefficient(phi, psi, 1j)
    norm = fs.norm_sq(phi)
    assert abs(val) < 1e-12 * norm


def test_coefficient_asymptotic_regime():
    phi = fs.TestField3D(polarization=(1.0, 0.0, 0.0), width=1.0)
    val, tail = fs.free_coefficient(phi, phi, 10j)
    expect = fs.norm_sq(phi) / (10j) ** 2
    assert abs(val - expect) / abs(expect) < 0.02
    assert tail < 1e-12 * abs(val)


def test_coefficient_schwarz_reflection():
    phi = fs.TestField3D(polarization=(1.0, 0.0, 0.0), width=1.0)
    z = 0.8 + 1.1j
    a, _ = fs.free_coefficient(phi, phi, z)
    b, _ = fs.free_coefficient(phi, phi, -np.conj(z))
    assert abs(b - np.conj(a)) / abs(a) < 1e-10


def test_asymptotic_defect_monotone():
    phi = fs.TestField3D(polarization=(1.0, 0.0, 0.0), width=1.0)
    defects, _ = fs.asymptotic_defect(phi, phi, [10.0, 100.0, 1000.0], math.pi / 2)
    assert defects[0] > defects[1] > defects[2]
    assert defects[2] <= 1e-3 * fs.norm_sq(phi)


def test_asymptotic_defect_angle_dependence():
    phi = fs.TestField3D(polarization=(1.0, 0.0, 0.0), width=1.0)
    d45, _ = fs.asymptotic_defect(phi, phi, [10.0], math.pi / 4)
    d90, _ = fs.asymptotic_defect(phi, phi, [10.0], math.pi / 2)
    assert d45[0] > d90[0]


def test_asymptotic_defect_separated_fields():
    phi = fs.TestField3D(polarization=(1.0, 0.0, 0.0), center=(8.0, 0.0, 0.0), width=0.5)
    psi = fs.TestField3D(polarization=(1.0, 0.0, 0.0), center=(-8.0, 0.0, 0.0), width=0.5)
    assert abs(fs.inner_product(phi, psi)) < 1e-12
    defects, _ = fs.asymptotic_defect(phi, psi, [10.0, 100.0], math.pi / 2)
    assert defects[-1] < 1e-6 * fs.norm_sq(phi)


_PHI = fs.TestField3D(polarization=(1.0, 0.5, 0.0), center=(0.3, -0.2, 0.4), width=1.0)
_PSI = fs.TestField3D(polarization=(0.2, 1.0, -0.4), center=(-0.1, 0.25, 0.0), width=0.8)


@pytest.mark.parametrize("psi", [_PHI, _PSI], ids=["phi=psi", "phi!=psi"])
@pytest.mark.parametrize("theta", [math.pi / 4, math.pi / 2])
def test_asymptotic_defect_matches_its_definition(psi, theta):
    # |z^2 <phi, H_0^-1 psi> - <phi, psi>| from the full symbol and the
    # closed-form inner product, against the transverse-remainder sum
    moduli = [10.0, 100.0]
    defects, _ = fs.asymptotic_defect(_PHI, psi, moduli, theta)
    for mod, defect in zip(moduli, defects):
        z = mod * complex(math.cos(theta), math.sin(theta))
        value, _ = oracles.tensor_coefficient(_PHI, psi, z)
        expect = abs(z * z * value - fs.inner_product(_PHI, psi))
        assert defect == pytest.approx(expect, rel=1e-9)


def test_angular_moments_match_mpmath():
    # e^-a I0 and e^-a I2 on both sides of the series/closed-form switch,
    # against 40-digit hypergeometric series that do not cancel
    a = np.array([0.0, 1e-8, 1e-3, 1e-2, 0.1, 0.5, 0.999, 1.0, 1.001, 2.0, 30.0, 700.0])
    i0, i2 = fs._angular_moments(a)
    with mpmath.workdps(40):
        for x, got0, got2 in zip(a, i0, i2):
            x = mpmath.mpf(x)
            scale = mpmath.exp(-x)
            want0 = 2 * mpmath.hyp0f1(1.5, x * x / 4) * scale
            want2 = 2 * mpmath.hyper([1.5], [0.5, 2.5], x * x / 4) * scale / 3
            assert abs(got0 - want0) <= 1e-15 * want0
            assert abs(got2 - want2) <= 1e-15 * want2


_COMPLEX = st.builds(complex, st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
# centers at 0 and at |c| ~ 1e-3 run the small-a series of the angular moments
_CENTER = st.one_of(
    st.just((0.0, 0.0, 0.0)),
    st.tuples(*[st.floats(-6e-4, 6e-4)] * 3),
    st.tuples(*[st.floats(-0.5, 0.5)] * 3),
)
_FIELD = st.builds(fs.TestField3D, st.tuples(_COMPLEX, _COMPLEX, _COMPLEX), _CENTER,
                   st.floats(0.7, 1.5))


@settings(max_examples=20)
@given(phi=_FIELD, psi=st.one_of(st.none(), _FIELD), theta=st.floats(0.3, math.pi - 0.3))
def test_radial_rule_matches_the_tensor_rule(phi, psi, theta):
    # the closed-form angular integral on the radial nodes of a spherical
    # tensor rule, against that tensor rule's full sum (psi None: phi = psi)
    psi = phi if psi is None else psi
    p, q = np.asarray(phi.polarization), np.asarray(psi.polarization)
    assume(abs(np.vdot(p, q)) >= 0.2 * np.linalg.norm(p) * np.linalg.norm(q))
    quad = fs.SphericalQuadrature(n_radial=40, n_polar=40, n_azimuth=64)
    moduli = [3.0, 10.0, 100.0]
    defects, _ = fs.asymptotic_defect(phi, psi, moduli, theta, quad)
    expect = oracles.tensor_defects(phi, psi, moduli, theta, quad)
    for got, want in zip(defects, expect):
        assert abs(got - want) <= 1e-12 * want


# a field whose nested 80/160-node difference alone is short of the true
# error at |z| = 2 near the real axis (6.74 against 6.91)
_NEAR = fs.TestField3D(polarization=(-0.8134 - 0.549j, 1.489 + 0.2041j, 0.5353 - 1.5345j),
                       center=(0.0456, -0.2707, -0.3129), width=1.4948)
# the pole r = |z| near the real axis: the 80-node rule is short of
# converged at small |z|, and the estimate shows it
_NEAR_AXIS = [(_PHI, _PHI, 0.06, [2.0, 5.0, 10.0]), (_NEAR, _NEAR, 0.06, [2.0])]


@settings(max_examples=20)
@given(phi=_FIELD, psi=st.one_of(st.none(), _FIELD),
       z=st.builds(complex, st.floats(-20.0, 20.0), st.floats(0.3, 20.0)))
def test_free_coefficient_matches_the_tensor_rule(phi, psi, z):
    # the closed-form inner product plus the radial transverse remainder,
    # against the full symbol sandwich summed on a spherical tensor rule
    # with the same radial nodes (psi None: phi = psi)
    psi = phi if psi is None else psi
    p, q = np.asarray(phi.polarization), np.asarray(psi.polarization)
    assume(abs(np.vdot(p, q)) >= 0.2 * np.linalg.norm(p) * np.linalg.norm(q))
    # 80 radial nodes: the tensor rule also sums <phi, psi> on them, which
    # 40 nodes leave 1e-12 short for the narrowest products of the strategy
    quad = fs.SphericalQuadrature(n_radial=80, n_polar=40, n_azimuth=64)
    got, _ = fs.free_coefficient(phi, psi, z, quad)
    want, _ = oracles.tensor_coefficient(phi, psi, z, quad)
    assert abs(got - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("phi, psi, theta, moduli", [
    (_PHI, _PSI, math.pi / 4, [10.0, 100.0]),
    (_PHI, _PHI, math.pi / 2, [10.0, 1000.0]),
    *_NEAR_AXIS,
], ids=["phi!=psi", "phi=psi", "near-real-pole", "near-real-pole-short-difference"])
def test_asymptotic_estimates_cover_an_mpmath_reference(phi, psi, theta, moduli):
    defects, estimates = fs.asymptotic_defect(phi, psi, moduli, theta)
    for mod, defect, estimate in zip(moduli, defects, estimates):
        reference = oracles.radial_defect_mp(phi, psi, mod, theta)
        assert 0.0 < estimate
        assert abs(defect - reference) <= estimate
    if theta < 0.1:
        assert estimates[0] > 1e-6 * defects[0]
        if len(moduli) > 1:
            assert estimates[-1] < 1e-13 * defects[-1]


@pytest.mark.parametrize("phi, psi, theta, moduli", _NEAR_AXIS,
                         ids=["near-real-pole", "near-real-pole-short-difference"])
def test_coefficient_estimate_covers_an_mpmath_reference(phi, psi, theta, moduli):
    for mod in moduli:
        z = mod * complex(math.cos(theta), math.sin(theta))
        value, estimate = fs.free_coefficient(phi, psi, z)
        reference = oracles.coefficient_mp(phi, psi, mod, theta)
        assert 0.0 < estimate
        assert abs(value - reference) <= estimate


def test_asymptotic_defect_rejects_shallow_ray():
    phi = fs.TestField3D(polarization=(1.0, 0.0, 0.0), width=1.0)
    with pytest.raises(DomainError):
        fs.asymptotic_defect(phi, phi, [10.0], 0.01)
