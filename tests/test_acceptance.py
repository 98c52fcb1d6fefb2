"""Acceptance suite: one test per shipped certificate, one summary line each.

Each test prints a single `ACCEPTANCE <n> [...] PASS/FAIL` line with the
measured figure before asserting, so a plain `pytest -v tests/test_acceptance.py`
run doubles as the certificate summary.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helmgreen import _kernels, cli
from helmgreen import dispersion as dsp
from helmgreen import freespace as fs
from helmgreen import helmholtz as hh
from helmgreen import spectral as sp
from helmgreen import transforms as tr
from helmgreen.errors import DomainError, GapViolationError

import oracles

ROOT = Path(__file__).resolve().parents[1]
MEDIA = ROOT / "media"

LORENTZ_MEDIA = ["lorentz_slab.json", "lorentz_double.json"]
ALL_MEDIA = LORENTZ_MEDIA + ["vacuum.json", "gapped_lines.json"]


def _verdict(n, label, measured, ok):
    state = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {n} [{label}] measured={measured:.3e} -> {state}")
    assert ok, f"acceptance criterion {n} failed: {label} measured {measured:.3e}"


def _layer_x(model):
    x0, x1, _ = model.layers[0]
    return 0.5 * (x0 + x1)


def test_acceptance_01_kk_permittivity_round_trip():
    worst = 0.0
    for name in LORENTZ_MEDIA:
        model = dsp.load_medium(str(MEDIA / name))
        x = _layer_x(model)
        density = model.density_at(x)
        im_min = 0.1 * oracles.min_gamma(model)
        zs = [complex(re, im) for im in np.geomspace(im_min, 5.0, 20)
              for re in np.linspace(0.0, 5.0, 20)]
        recon = (model.background - 1.0
                 + dsp.kk_reconstruct_permittivity(density, np.array(zs))[0])
        for z, r in zip(zs, recon):
            exact = dsp.eval_permittivity(model, x, z)
            worst = max(worst, abs(r - exact) / abs(exact))
    _verdict(1, "kk permittivity round trip", worst, worst <= 1e-6)


def test_acceptance_02_passivity_sweep():
    rng = np.random.default_rng(12345)
    worst = math.inf
    for name in ALL_MEDIA:
        model = dsp.load_medium(str(MEDIA / name))
        x = _layer_x(model) if model.layers else 0.5
        density = model.density_at(x)
        n = 10_000
        z = 10.0 ** rng.uniform(-2, 2, n) * np.exp(
            1j * rng.uniform(1e-2, math.pi - 1e-2, n)
        )
        chi = dsp.density_eval_array(density, z)
        chi += model.background - 1.0
        worst = min(worst, float(np.min((z * chi).imag)))
    _verdict(2, "passivity margin >= -1e-12 at 1e4 points/medium", worst,
             worst >= -1e-12)


def test_acceptance_03_sum_rule():
    worst = 0.0
    for name in ALL_MEDIA:
        model = dsp.load_medium(str(MEDIA / name))
        for _, _, density in model.layers:
            total, _ = dsp.sigma_total_weight(density)
            target = dsp.chi_dot_at_zero(density)
            worst = max(worst, abs(total - target) / target)
    _verdict(3, "sum rule vs dchi/dt(0+)", worst, worst <= 1e-8)


def test_acceptance_04_norm_bound():
    model = dsp.load_medium(str(MEDIA / "lorentz_slab.json"))
    grid = hh.Grid1D(L=1.0, N=64)
    rng = np.random.default_rng(7)
    zs = [complex(re, im) for im in np.geomspace(0.1, 5.0, 20)
          for re in np.linspace(0.1, 5.0, 20)]
    xis = [complex(rng.uniform(-5, 5), 10.0 ** rng.uniform(-1, 1))
           for _ in zs for _ in range(5)]
    worst = 0.0
    for kind, z, xi in (("dispersive", zs, None), ("two_freq", np.repeat(zs, 5), xis)):
        rows, index = hh.diagonal_rows(grid, model, kind, z, xi=xi)
        norms, _ = hh.inverse_norm(grid, rows, index)
        worst = max(worst, float(np.max(norms / hh.norm_bound(z))))
    _verdict(4, "resolvent norm within proven bound", worst, worst <= 1.0 + 1e-8)


def test_acceptance_05_analyticity_loops():
    model = dsp.load_medium(str(MEDIA / "lorentz_slab.json"))
    grid = hh.Grid1D(L=1.0, N=64)
    probe = sp.gaussian_probe(grid, 0.5, 0.1).astype(np.complex128)

    def z_sampler(z_nodes):
        rows, index = hh.diagonal_rows(grid, model, "dispersive", z_nodes)
        return grid.h * _kernels.tridiag_bilinear_batch(
            1.0 / grid.h**2, rows, index, probe.conj(), probe)

    def xi_sampler(xi_nodes):
        out = np.empty(len(xi_nodes), dtype=complex)
        for i, xi in enumerate(xi_nodes):
            diag = hh.diagonal_batch(grid, model, "two_freq", [1j], xi=xi)[0]
            out[i] = hh.coefficient(grid, diag, probe, probe)
        return out

    k = 1.0 + 0.3j
    bgrid = hh.Grid1D(L=1.0, N=64, boundary="bloch", bloch_k=k)
    bprobe = sp.gaussian_probe(bgrid, 0.5, 0.1).astype(np.complex128)

    def bloch_sampler(z_nodes):
        return np.array([oracles.bloch_coefficient(model, bgrid, bprobe, z) for z in z_nodes])

    loop = tr.RectangleLoop(z_lo=0.5 + 0.5j, z_hi=2.0 + 1.5j)
    xi_loop = tr.RectangleLoop(z_lo=0.3 + 0.4j, z_hi=1.5 + 1.2j)
    # joint-domain margin: Im z - |Im k| = 0.5 - 0.3 = 0.2 >= 0.1
    defects = {
        "z": tr.cauchy_loop(z_sampler, loop)[0],
        "xi": tr.cauchy_loop(xi_sampler, xi_loop)[0],
        "zk": tr.cauchy_loop(bloch_sampler, loop)[0],
    }
    witness, _ = tr.cauchy_loop(np.conj, loop)
    worst = max(defects.values())
    _verdict(5, f"analyticity defects (witness {witness:.2e})", worst,
             worst <= 1e-8 and witness >= 1e-2)


def test_acceptance_06_mode_expansion_identity():
    grid = hh.Grid1D(L=1.0, N=256)
    modes = sp.cavity_modes(grid, 2.0)
    model = dsp.PermittivityModel(background=2.0)
    z = 0.4 + 0.5j
    expansion, _ = sp.mode_expansion_green(modes, z)
    direct = hh.green_matrix(grid, hh.assemble(grid, model, z))
    worst = float(np.max(np.abs(expansion - direct) / np.abs(direct)))
    _verdict(6, "M = N expansion identity, N = 256", worst, worst <= 1e-10)


def test_acceptance_07_kk_for_green():
    grid = hh.Grid1D(L=1.0, N=256)
    z = 5j
    # non-dispersive (constant) cavity
    model = dsp.PermittivityModel(background=2.0)
    probe = sp.cavity_modes(grid, 2.0).modes[:, 0]
    direct = hh.coefficient(grid, hh.assemble(grid, model, z), probe, probe)
    sd = sp.d_density(model, grid, probe, probe, 40.0, 64001, 0.01)
    err = abs(sp.kk_reconstruct_green(sd, grid, probe, probe, z)[0] - direct) / abs(direct)
    sd4 = sp.d_density(model, grid, probe, probe, 40.0, 256001, 0.0025)
    err4 = abs(sp.kk_reconstruct_green(sd4, grid, probe, probe, z)[0] - direct) / abs(direct)
    # absorptive cavity
    lorentz = dsp.load_medium(str(MEDIA / "lorentz_slab.json"))
    gauss = sp.gaussian_probe(grid, 0.5, 0.1)
    direct_a = hh.coefficient(grid, hh.assemble(grid, lorentz, z), gauss, gauss)
    sd_a = sp.d_density(lorentz, grid, gauss, gauss, 40.0, 64001, 0.01)
    err_a = abs(sp.kk_reconstruct_green(sd_a, grid, gauss, gauss, z)[0]
                - direct_a) / abs(direct_a)
    ok = err <= 1e-3 and err4 <= err / 3.0 and err_a <= 1e-2
    _verdict(7, f"kk green reconstruction (zeta/4 -> {err4:.1e}, absorptive {err_a:.1e})",
             err, ok)


def test_acceptance_08_mode_weights():
    grid = hh.Grid1D(L=1.0, N=256)
    modes = sp.cavity_modes(grid, 2.0)
    model = dsp.PermittivityModel(background=2.0)
    probe = sp.gaussian_probe(grid, 0.5, 0.1)
    zeta = 0.01
    nu = np.linspace(-40, 40, 64001)
    sd = sp.d_density(model, grid, probe, probe, 40.0, nu.size, zeta, reference="none")
    worst = 0.0
    checked = 0
    for n in range(4):
        wn = modes.omegas[n]
        overlap_sq = (grid.h * np.sum(probe * modes.modes[:, n])) ** 2
        if overlap_sq < 1e-8:
            continue
        for sign in (1.0, -1.0):
            mask = np.abs(nu - sign * wn) < 1.0
            peak = abs(np.trapezoid(sd.samples[mask].real, nu[mask]))
            worst = max(worst, abs(peak - 0.5 * overlap_sq) / (0.5 * overlap_sq))
            checked += 1
    assert checked >= 4
    tol = 5.0 * zeta / modes.omegas[0]
    _verdict(8, "integrated mode-peak weights = overlap^2 / 2", worst, worst <= tol)


def test_acceptance_09_causality():
    t_neg = [-3.0, -2.0, -1.0]
    t_pos = [0.5, 1.0, 2.0, 4.0]
    pos = tr.ContourSpec(eta=0.1, omega_max=400.0, n_points=200000, rtol=1e-9)
    neg = tr.ContourSpec(eta=12.0, omega_max=400.0, n_points=200000, rtol=1e-9)
    grid = hh.Grid1D(L=1.0, N=64)
    ratios = {}

    lorentz = dsp.load_medium(str(MEDIA / "lorentz_slab.json"))
    chi_p, _ = dsp.susceptibility(lorentz, 0.5, t_pos, pos)
    chi_n, _ = dsp.susceptibility(lorentz, 0.5, t_neg, neg)
    ratios["chi"] = np.max(np.abs(chi_n)) / np.max(np.abs(chi_p))

    lines = dsp.load_medium(str(MEDIA / "gapped_lines.json"))
    chi_p, _ = dsp.susceptibility(lines, 0.5, t_pos, tr.ContourSpec(0.5, 400.0, 200000, rtol=1e-9))
    chi_n, _ = dsp.susceptibility(lines, 0.5, t_neg, neg)
    ratios["chi_lines"] = np.max(np.abs(chi_n)) / np.max(np.abs(chi_p))

    probe = sp.gaussian_probe(grid, 0.5, 1.0 / 16.0)
    x_p, _ = sp.x_operator_coefficient(lorentz, grid, probe, probe, t_pos, pos)
    x_n, _ = sp.x_operator_coefficient(lorentz, grid, probe, probe, t_neg, neg)
    ratios["x_operator"] = np.max(np.abs(x_n)) / np.max(np.abs(x_p))

    src = sp.gaussian_probe(grid, 0.3, 0.05)
    f_p, _ = sp.time_domain_field(lorentz, grid, src, 1.0, 47, t_pos, pos, taper=16.0)
    f_n, _ = sp.time_domain_field(lorentz, grid, src, 1.0, 47, t_neg, neg, taper=16.0)
    ratios["field"] = np.max(np.abs(f_n)) / np.max(np.abs(f_p))

    # non-dispersive medium built from the gapped line density
    nd_pos = tr.ContourSpec(eta=0.5, omega_max=400.0, n_points=200000, rtol=1e-9)
    f_p, _ = sp.time_domain_field(lines, grid, src, 1.0, 47, t_pos, nd_pos,
                                  kind="nondispersive", omega0=1.0, taper=16.0)
    f_n, _ = sp.time_domain_field(lines, grid, src, 1.0, 47, t_neg, neg,
                                  kind="nondispersive", omega0=1.0, taper=16.0)
    ratios["field_nondispersive"] = np.max(np.abs(f_n)) / np.max(np.abs(f_p))

    # vacuum front speed (c = 1): quiet before t = d - 3 * source FWHM
    vacuum = dsp.load_medium(str(MEDIA / "vacuum.json"))
    sigma = 0.05
    fwhm = 2.0 * math.sqrt(2.0 * math.log(2.0)) * sigma
    src = sp.gaussian_probe(grid, 0.3, sigma)
    x_index = 47
    dist = grid.points[x_index] - 0.3
    t_cut = dist - 3.0 * fwhm
    assert t_cut > 0
    t_early = np.linspace(0.02, t_cut, 8)
    t_late = np.linspace(dist, 6.0, 200)
    cvac = tr.ContourSpec(eta=0.5, omega_max=600.0, n_points=300000, rtol=1e-9)
    f_e, _ = sp.time_domain_field(vacuum, grid, src, 1.0, x_index, t_early, cvac,
                                  taper=16.0)
    f_l, _ = sp.time_domain_field(vacuum, grid, src, 1.0, x_index, t_late, cvac,
                                  taper=16.0)
    front_ratio = np.max(np.abs(f_e)) / np.max(np.abs(f_l))

    worst = max(ratios.values())
    ok = worst <= 1e-6 and front_ratio <= 1e-4
    _verdict(9, f"causality (front-speed ratio {front_ratio:.1e})", worst, ok)


def test_acceptance_10_nondispersive_construction():
    # eps_d = eps(x, omega0) read off the nondispersive diagonal z^2 eps_d - 2/h^2
    # at z = 1, on a cavity long enough that 2/h^2 = 1.6e-4
    grid = hh.Grid1D(L=1e3, N=8)

    def eps_d(lines, omega0):
        model = dsp.PermittivityModel(layers=((0.0, grid.L, dsp.OscillatorDensity(lines)),))
        rows, _ = hh.diagonal_rows(grid, model, "nondispersive", [1.0], omega0=omega0)
        assert rows[1, 0].imag == 0.0
        return rows[1, 0].real + 2.0 / grid.h**2

    rng = np.random.default_rng(99)
    worst_speed = 0.0
    for _ in range(200):
        nu0 = rng.uniform(1.0, 5.0)
        omega0 = rng.uniform(0.1, 0.95) * nu0
        lines = tuple(
            (nu0 + rng.uniform(0.0, 10.0), rng.uniform(0.01, 2.0))
            for _ in range(rng.integers(1, 5))
        )
        eps = eps_d(lines, omega0)
        assert eps >= 1.0
        # the phase speed in units of c
        worst_speed = max(worst_speed, 1.0 / math.sqrt(eps))
    with pytest.raises(GapViolationError):
        eps_d(((0.5, 1.0),), 1.0)
    with pytest.raises(DomainError):
        eps_d(((3.0, 1.0),), 0.0)
    _verdict(10, "non-dispersive: real, >= 1, v <= c, gap enforced",
             worst_speed, worst_speed <= 1.0)


def test_acceptance_11_free_space_asymptotics():
    phi = fs.TestField3D(polarization=(1.0, 0.0, 0.0), width=1.0)
    norm = fs.norm_sq(phi)
    ok = True
    final = 0.0
    for theta in (math.pi / 4, math.pi / 2):
        defects, _ = fs.asymptotic_defect(phi, phi, [10.0, 100.0, 1000.0], theta)
        ok = ok and all(b < a for a, b in zip(defects, defects[1:]))
        final = max(final, defects[-1] / norm)
    _verdict(11, "free-space asymptotic defect ladder", final,
             ok and final <= 1e-3)


def test_acceptance_12_resolvent_difference_cap():
    model = dsp.load_medium(str(MEDIA / "lorentz_slab.json"))
    grid = hh.Grid1D(L=1.0, N=64)
    weight = dsp.chi_dot_at_zero(model.density_at(0.5))
    worst = 0.0
    for eta in (1.0, 2.0):
        cap = 1.5 * weight / eta**2
        norms = hh.resolvent_difference_ray(model, grid, eta, [100.0, 1000.0])
        worst = max(worst, max(n / cap for n in norms))
    _verdict(12, "resolvent-difference cap, 1/eta^2 scaling", worst, worst <= 1.0)


def test_acceptance_13_cli_determinism(tmp_path):
    medium = {
        "background_epsilon": 1.0,
        "layers": [{"interval": [0.25, 0.75],
                    "lorentz": [{"wp": 1.0, "w1": 2.0, "gamma": 0.2}]}],
    }
    mpath = tmp_path / "medium.json"
    mpath.write_text(json.dumps(medium))
    m = str(mpath)
    configs = {
        "kk_eps": {
            "medium": m, "x": 0.5,
            "z_grid": {"re_min": 0.0, "re_max": 4.0, "im_min": 0.05,
                       "im_max": 4.0, "n_re": 3, "n_im": 3},
            "passivity_samples": 100,
        },
        "green": {
            "medium": m, "grid": {"L": 1.0, "N": 32}, "z": {"im": 1.0},
            "norm_grid": {"re_min": 0.5, "re_max": 3.0, "im_min": 0.2,
                          "im_max": 2.0, "n_re": 2, "n_im": 2},
            "xi_samples": 2,
        },
        "modes": {
            "grid": {"L": 1.0, "N": 64}, "eps_const": 2.0, "z": {"im": 5.0},
            "truncation_M": 32,
            "kk": {"zeta": 0.02, "nu_grid": {"max": 40.0, "count": 16001},
                   "reference": "vacuum", "probe": {"mode_index": 0}},
            "tolerances": {"kk_rel": 2e-3},
        },
        "causality": {
            "medium": m, "grid": {"L": 1.0, "N": 32}, "x": 0.5,
            "contour": {"eta": 0.1, "omega_max": 300.0, "n_points": 100000},
            "contour_negative": {"eta": 12.0, "omega_max": 300.0,
                                 "n_points": 100000},
            "source": {"omega_s": 1.0, "center": 0.3, "width": 0.06},
            "x_index": 23, "taper": 16.0,
            "t_negative": [-3.0, -1.0], "t_positive": [0.5, 1.0, 2.0],
        },
        "analyticity": {
            "medium": m, "grid": {"L": 1.0, "N": 32},
            "probe": {"gaussian": {"center": 0.5, "width": 0.1}},
            "loops": [
                {"kind": "z", "z_lo": {"re": 0.5, "im": 0.5},
                 "z_hi": {"re": 2.0, "im": 1.5}},
                {"kind": "conj_witness", "z_lo": {"re": 0.5, "im": 0.5},
                 "z_hi": {"re": 2.0, "im": 1.5}, "expect": "fail"},
            ],
        },
        "asymptotic": {
            "field": {"polarization": [1.0, 0.0, 0.0], "s": 1.0},
            "ladder": {"moduli": [10.0, 100.0], "theta": 1.5707963267948966},
            "resolvent_ray": {"medium": m, "grid": {"L": 1.0, "N": 32},
                              "eta": 1.0, "omegas": [100.0]},
        },
    }
    reproducible = True
    for command, cfg in configs.items():
        cpath = tmp_path / f"{command}.json"
        cpath.write_text(json.dumps(cfg))
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{command}_{tag}.csv"
            code = cli.main([command, "--config", str(cpath),
                             "--out", str(out), "--seed", "7"])
            assert code == 0, f"{command} exited {code}"
            outs.append(out.read_bytes())
        reproducible = reproducible and outs[0] == outs[1]
    _verdict(13, "CLI byte-reproducibility, all six commands",
             float(reproducible), reproducible)
