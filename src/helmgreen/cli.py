"""Batch driver: run-config files in, CSV certificate reports out.

Invocation:  helmgreen <command> --config <path> [--out <path>] [--seed <u64>]

Exit codes: 0 all checks pass, 1 at least one check failed, 2 on
input/domain errors. Rows marked expect = "fail" in the config are
negative controls and count as passing when the underlying check fails.

HG_THREADS caps row-level parallelism; rows are currently evaluated
sequentially (which respects any cap), in config order.
"""

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import dispersion, freespace, helmholtz, spectral, transforms
from .errors import ConfigError, DomainError, HelmgreenError

CSV_HEADER = "check_id,param_json,measured,bound,tolerance,pass,error_estimate"


def _fmt(value):
    if isinstance(value, complex):
        return f"{value.real:.12g}{value.imag:+.12g}j"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


class Report:
    def __init__(self):
        self.rows = []

    def add(self, check_id, params, measured, bound, tolerance, passed, estimate=0.0):
        self.rows.append(
            {
                "check_id": check_id,
                "param_json": json.dumps(params, sort_keys=True, separators=(",", ":")),
                "measured": measured,
                "bound": bound,
                "tolerance": tolerance,
                "pass": bool(passed),
                "error_estimate": estimate,
            }
        )

    @property
    def all_pass(self):
        return all(r["pass"] for r in self.rows)

    def write_csv(self, path):
        lines = [CSV_HEADER]
        for r in self.rows:
            lines.append(
                ",".join(
                    [
                        r["check_id"],
                        '"' + r["param_json"].replace('"', '""') + '"',
                        _fmt(r["measured"]),
                        _fmt(r["bound"]),
                        _fmt(r["tolerance"]),
                        "true" if r["pass"] else "false",
                        _fmt(r["error_estimate"]),
                    ]
                )
            )
        text = "\n".join(lines) + "\n"
        if path is None:
            sys.stdout.write(text)
        else:
            with open(path, "w", newline="") as fh:
                fh.write(text)

    def print_summary(self):
        n_pass = sum(1 for r in self.rows if r["pass"])
        for r in self.rows:
            status = "PASS" if r["pass"] else "FAIL"
            print(f"[{status}] {r['check_id']}: measured {_fmt(r['measured'])} "
                  f"vs tolerance {_fmt(r['tolerance'])}", file=sys.stderr)
        print(f"{n_pass}/{len(self.rows)} checks passed", file=sys.stderr)


# ---------------------------------------------------------------------------
# strict config parsing


def _require(cfg, key, where="config"):
    if key not in cfg:
        raise ConfigError(f"missing key {key!r} in {where}")
    return cfg[key]


def _check_keys(cfg, allowed, where="config"):
    unknown = set(cfg) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")


def _load_config(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}")


def _complex_of(cfg, where):
    _check_keys(cfg, {"re", "im"}, where)
    return complex(float(cfg.get("re", 0.0)), float(cfg.get("im", 0.0)))


def _grid_of(cfg, where="grid"):
    _check_keys(cfg, {"L", "N", "boundary", "bloch_k"}, where)
    boundary = cfg.get("boundary", "dirichlet")
    k = _complex_of(cfg["bloch_k"], where + ".bloch_k") if "bloch_k" in cfg else 0.0
    return helmholtz.Grid1D(
        L=float(_require(cfg, "L", where)), N=int(_require(cfg, "N", where)),
        boundary=boundary, bloch_k=k,
    )


def _count_of(val, name):
    if (isinstance(val, bool) or not isinstance(val, (int, float))
            or not float(val).is_integer() or val < 1):
        raise ConfigError(f"{name} must be an integer >= 1, got {val!r}")
    return int(val)


def _z_grid_of(cfg, where="z_grid"):
    _check_keys(cfg, {"re_min", "re_max", "im_min", "im_max", "n_re", "n_im"}, where)
    re_min, re_max, im_min, im_max = (
        dispersion.parse_number(_require(cfg, key, where), f"{where}.{key}")
        for key in ("re_min", "re_max", "im_min", "im_max")
    )
    if not (im_min > 0 and im_max > 0):
        raise ConfigError(f"{where}.im_min and {where}.im_max must be > 0")
    n_re, n_im = (_count_of(_require(cfg, key, where), f"{where}.{key}")
                  for key in ("n_re", "n_im"))
    re = np.linspace(re_min, re_max, n_re)
    im = np.geomspace(im_min, im_max, n_im)
    return [complex(r, i) for i in im for r in re]


def _tolerances_of(cfg, defaults, where="tolerances"):
    _check_keys(cfg, set(defaults), where)
    out = dict(defaults)
    for key, val in cfg.items():
        val = dispersion.parse_number(val, f"{where}.{key}")
        if val <= 0:
            raise ConfigError(f"tolerance {key} must be > 0")
        out[key] = val
    return out


# ---------------------------------------------------------------------------
# commands


def cmd_kk_eps(cfg, seed):
    _check_keys(cfg, {"medium", "x", "z_grid", "passivity_samples", "tolerances"})
    model = dispersion.load_medium(_require(cfg, "medium"))
    x = dispersion.parse_number(cfg.get("x", 0.0), "x")
    tol = _tolerances_of(cfg.get("tolerances", {}), {
        "kk_rel": 1e-6, "passivity_floor": 1e-12, "sum_rule_rel": 1e-8,
    })
    report = Report()
    density = model.density_at(x)
    eps0 = model.units.eps0

    z_grid = _z_grid_of(_require(cfg, "z_grid"))
    n_samples = _count_of(cfg.get("passivity_samples", 10_000), "passivity_samples")
    recon = model.background - eps0 + dispersion.kk_reconstruct_permittivity(
        density, np.array(z_grid), eps0=eps0)
    for z, r in zip(z_grid, recon):
        exact = dispersion.eval_permittivity(model, x, z)
        rel = float(abs(r - exact) / abs(exact))
        report.add("kk_round_trip", {"z": [z.real, z.imag]}, rel, 0.0,
                   tol["kk_rel"], rel <= tol["kk_rel"])

    rng = np.random.default_rng(seed)
    zs = 10.0 ** rng.uniform(-2, 2, n_samples) * np.exp(
        1j * rng.uniform(0.01, math.pi - 0.01, n_samples)
    )
    worst = float(np.min(dispersion.passivity_margin(model, x, zs)))
    report.add("passivity_sweep", {"n": n_samples, "seed": seed}, worst,
               -tol["passivity_floor"], tol["passivity_floor"],
               worst >= -tol["passivity_floor"])

    total, est = dispersion.sigma_total_weight(density, eps0)
    target = dispersion.chi_dot_at_zero(density, eps0)
    rel = abs(total - target) / target if target else 0.0
    report.add("sum_rule", {}, rel, 0.0, tol["sum_rule_rel"],
               rel <= tol["sum_rule_rel"], est)
    return report, None


def cmd_green(cfg, seed):
    _check_keys(cfg, {"medium", "grid", "z", "norm_grid", "xi_samples", "tolerances"})
    model = dispersion.load_medium(_require(cfg, "medium"))
    grid = _grid_of(_require(cfg, "grid"))
    z = _complex_of(_require(cfg, "z"), "z")
    tol = _tolerances_of(cfg.get("tolerances", {}), {
        "reciprocity": 1e-12, "schwarz": 1e-12, "norm_slack": 1e-8,
    })
    report = Report()
    op = helmholtz.assemble(grid, model, "dispersive", z)
    samples = helmholtz.green_matrix(op)
    g = samples.values
    recip = float(np.max(np.abs(g - g.T)) / np.max(np.abs(g)))
    report.add("reciprocity", {"z": [z.real, z.imag]}, recip, 0.0,
               tol["reciprocity"], recip <= tol["reciprocity"])

    mirror = helmholtz.green_matrix(
        helmholtz.assemble(grid, model, "dispersive", -z.conjugate())
    ).values
    schwarz = float(np.max(np.abs(mirror - np.conj(g))) / np.max(np.abs(g)))
    report.add("schwarz", {"z": [z.real, z.imag]}, schwarz, 0.0,
               tol["schwarz"], schwarz <= tol["schwarz"])

    rng = np.random.default_rng(seed)
    for zg in _z_grid_of(_require(cfg, "norm_grid"), "norm_grid"):
        opg = helmholtz.assemble(grid, model, "dispersive", zg)
        measured = helmholtz.inverse_norm(opg)
        bound = helmholtz.norm_bound(opg) * (1.0 + tol["norm_slack"])
        report.add("norm_bound_dispersive", {"z": [zg.real, zg.imag]},
                   measured, bound, tol["norm_slack"], measured <= bound)
        for _ in range(int(cfg.get("xi_samples", 0))):
            xi = complex(rng.uniform(-5, 5), 10.0 ** rng.uniform(-1, 1))
            op2 = helmholtz.assemble(grid, model, "two_freq", zg, xi=xi)
            measured = helmholtz.inverse_norm(op2)
            bound = helmholtz.norm_bound(op2) * (1.0 + tol["norm_slack"])
            report.add("norm_bound_two_freq",
                       {"z": [zg.real, zg.imag], "xi": [xi.real, xi.imag]},
                       measured, bound, tol["norm_slack"], measured <= bound)
    return report, ("green", samples)


def cmd_modes(cfg, seed):
    _check_keys(cfg, {"grid", "eps_const", "z", "truncation_M", "kk", "tolerances"})
    grid = _grid_of(_require(cfg, "grid"))
    eps_const = float(_require(cfg, "eps_const"))
    z = _complex_of(_require(cfg, "z"), "z")
    tol = _tolerances_of(cfg.get("tolerances", {}), {
        "identity": 1e-10, "kk_rel": 1e-3,
    })
    report = Report()
    modes = spectral.cavity_modes(grid, eps_const)
    model = dispersion.PermittivityModel(background=eps_const)

    expansion, _ = spectral.mode_expansion_green(modes, z)
    direct = helmholtz.green_matrix(
        helmholtz.assemble(grid, model, "dispersive", z)
    ).values
    identity_err = float(np.max(np.abs(expansion.values - direct)) / np.max(np.abs(direct)))
    report.add("expansion_identity", {"M": grid.N, "z": [z.real, z.imag]},
               identity_err, 0.0, tol["identity"], identity_err <= tol["identity"])

    m = int(cfg.get("truncation_M", grid.N // 2))
    partial, tail_bound = spectral.mode_expansion_green(modes, z, m)
    diff = float(np.max(np.abs(partial.values - direct)))
    report.add("truncation_tail", {"M": m}, diff, tail_bound, tail_bound,
               diff <= tail_bound, tail_bound)

    kk = cfg.get("kk")
    if kk is not None:
        _check_keys(kk, {"zeta", "nu_grid", "reference", "probe"}, "kk")
        zeta = float(_require(kk, "zeta", "kk"))
        nu_cfg = _require(kk, "nu_grid", "kk")
        _check_keys(nu_cfg, {"max", "count"}, "kk.nu_grid")
        nu = np.linspace(-float(nu_cfg["max"]), float(nu_cfg["max"]), int(nu_cfg["count"]))
        reference = kk.get("reference", "vacuum")
        probe = _probe_of(kk.get("probe", {"mode_index": 0}), grid, modes)
        sd = spectral.d_density(model, grid, probe, probe, nu, zeta, reference)
        recon = spectral.kk_reconstruct_green(sd, model, grid, probe, probe, z)
        direct_c = spectral.direct_coefficient(model, grid, probe, probe, z)
        rel = abs(recon - direct_c) / abs(direct_c)
        report.add("kk_green", {"zeta": zeta, "reference": reference}, rel, 0.0,
                   tol["kk_rel"], rel <= tol["kk_rel"])
    return report, None


def _probe_of(cfg, grid, modes=None):
    _check_keys(cfg, {"mode_index", "point_index", "gaussian"}, "probe")
    if len(cfg) != 1:
        raise ConfigError("probe needs exactly one of mode_index/point_index/gaussian")
    if "mode_index" in cfg:
        if modes is None:
            raise ConfigError("mode_index probe needs cavity modes")
        return modes.modes[:, int(cfg["mode_index"])]
    if "point_index" in cfg:
        return spectral.point_probe(grid, int(cfg["point_index"]))
    g = cfg["gaussian"]
    _check_keys(g, {"center", "width"}, "probe.gaussian")
    return spectral.gaussian_probe(grid, float(g["center"]), float(g["width"]))


def _contour_of(ccfg, where="contour"):
    _check_keys(ccfg, {"eta", "omega_max", "n_points", "rule"}, where)
    return transforms.ContourSpec(
        eta=float(_require(ccfg, "eta", where)),
        omega_max=float(_require(ccfg, "omega_max", where)),
        n_points=int(_require(ccfg, "n_points", where)),
        rule=ccfg.get("rule", "trapezoid"),
    )


def cmd_causality(cfg, seed):
    _check_keys(cfg, {"medium", "grid", "x", "contour", "contour_negative",
                      "source", "x_index", "taper", "t_negative", "t_positive",
                      "tolerances"})
    model = dispersion.load_medium(_require(cfg, "medium"))
    grid = _grid_of(_require(cfg, "grid"))
    contour = _contour_of(_require(cfg, "contour"))
    # negative times are contour-height independent, so a taller contour may
    # be supplied there purely to suppress window-truncation noise
    contour_neg = (_contour_of(cfg["contour_negative"], "contour_negative")
                   if "contour_negative" in cfg else contour)
    taper = float(cfg.get("taper", 0.0))
    tol = _tolerances_of(cfg.get("tolerances", {}), {"suppression": 1e-6})
    t_neg = [float(t) for t in cfg.get("t_negative", [-3.0, -2.0, -1.0])]
    t_pos = [float(t) for t in cfg.get("t_positive", [0.5, 1.0, 2.0, 4.0])]
    if any(t >= 0 for t in t_neg):
        raise ConfigError("t_negative must contain negative times only")
    report = Report()

    x = float(cfg.get("x", grid.L / 2))
    chi_pos, est_p = dispersion.susceptibility(model, x, t_pos, contour)
    chi_neg, est_n = dispersion.susceptibility(model, x, t_neg, contour_neg)
    peak = max(float(np.max(np.abs(chi_pos))), 1e-300)
    worst = float(np.max(np.abs(chi_neg))) / peak
    report.add("chi_causality", {"t_negative": t_neg}, worst, 0.0,
               tol["suppression"], worst <= tol["suppression"], est_n / peak)

    probe = spectral.gaussian_probe(grid, x, grid.L / 16)
    xt_pos, est_p = spectral.x_operator_coefficient(model, grid, probe, probe,
                                                    t_pos, contour)
    xt_neg, est_n = spectral.x_operator_coefficient(model, grid, probe, probe,
                                                    t_neg, contour_neg)
    peak = max(float(np.max(np.abs(xt_pos))), 1e-300)
    worst = float(np.max(np.abs(xt_neg))) / peak
    report.add("x_operator_causality", {"t_negative": t_neg}, worst, 0.0,
               tol["suppression"], worst <= tol["suppression"], est_n / peak)
    reality = float(np.max(np.abs(xt_pos.imag)) / peak)
    report.add("x_operator_reality", {}, reality, 0.0, 1e-6, reality <= 1e-6,
               est_p / peak)

    scfg = _require(cfg, "source")
    _check_keys(scfg, {"omega_s", "center", "width"}, "source")
    src = spectral.gaussian_probe(grid, float(scfg["center"]), float(scfg["width"]))
    omega_s = float(scfg["omega_s"])
    x_index = int(cfg.get("x_index", grid.N // 4))
    field_pos, _ = spectral.time_domain_field(
        model, grid, src, omega_s, x_index, t_pos, contour, taper=taper,
    )
    field_neg, est_n = spectral.time_domain_field(
        model, grid, src, omega_s, x_index, t_neg, contour_neg, taper=taper,
    )
    peak = max(float(np.max(np.abs(field_pos))), 1e-300)
    worst = float(np.max(np.abs(field_neg))) / peak
    report.add("field_causality", {"t_negative": t_neg}, worst, 0.0,
               tol["suppression"], worst <= tol["suppression"], est_n / peak)
    return report, None


def cmd_analyticity(cfg, seed):
    _check_keys(cfg, {"medium", "grid", "probe", "loops", "tolerances"})
    model = dispersion.load_medium(_require(cfg, "medium"))
    grid = _grid_of(_require(cfg, "grid"))
    probe = _probe_of(cfg.get("probe", {"gaussian": {"center": 0.5, "width": 0.1}}), grid)
    tol = _tolerances_of(cfg.get("tolerances", {}), {
        "defect": 1e-8, "witness_min": 1e-2,
    })
    report = Report()
    for i, lcfg in enumerate(_require(cfg, "loops")):
        _check_keys(lcfg, {"kind", "z_lo", "z_hi", "fixed_z", "bloch_k", "n_points",
                           "expect"}, f"loops[{i}]")
        kind = lcfg.get("kind", "z")
        loop = transforms.RectangleLoop(
            z_lo=_complex_of(_require(lcfg, "z_lo", f"loops[{i}]"), "z_lo"),
            z_hi=_complex_of(_require(lcfg, "z_hi", f"loops[{i}]"), "z_hi"),
            n_points=int(lcfg.get("n_points", 48)),
        )
        expect = lcfg.get("expect", "pass")
        if kind == "z":
            sampler = functools.partial(spectral._coefficient_sweep, model, grid,
                                        probe, probe, reference="none")
        elif kind == "xi":
            fixed = _complex_of(_require(lcfg, "fixed_z", f"loops[{i}]"), "fixed_z")
            sampler = _xi_sampler(model, grid, probe, fixed)
        elif kind == "zk":
            k = _complex_of(_require(lcfg, "bloch_k", f"loops[{i}]"), "bloch_k")
            margin = loop.z_lo.imag - model.units.c * abs(k.imag)
            if margin < 0.1:
                raise DomainError("joint-domain loop must keep Im z - c|k''| >= 0.1")
            sampler = _bloch_sampler(model, grid, probe, k)
        elif kind == "conj_witness":
            sampler = np.conj
        else:
            raise ConfigError(f"unknown loop kind {kind!r}")
        defect = transforms.cauchy_loop(sampler, loop)
        if expect == "fail":
            passed = defect >= tol["witness_min"]
            report.add(f"analyticity_{kind}", {"loop": i, "expect": "fail"},
                       defect, tol["witness_min"], tol["witness_min"], passed)
        else:
            report.add(f"analyticity_{kind}", {"loop": i}, defect, 0.0,
                       tol["defect"], defect <= tol["defect"])
    return report, None


def _xi_sampler(model, grid, probe, z_fixed):
    def sampler(xi_nodes):
        out = np.empty(len(xi_nodes), dtype=np.complex128)
        for i, xi in enumerate(xi_nodes):
            op = helmholtz.assemble(grid, model, "two_freq", z_fixed, xi=xi)
            out[i] = helmholtz.coefficient(op, probe, probe)
        return out
    return sampler


def _bloch_sampler(model, grid, probe, k):
    bgrid = helmholtz.Grid1D(L=grid.L, N=grid.N, boundary="bloch", bloch_k=k)
    bprobe = spectral.gaussian_probe(bgrid, grid.L / 2, grid.L / 10)

    def sampler(z_nodes):
        out = np.empty(len(z_nodes), dtype=np.complex128)
        for i, z in enumerate(z_nodes):
            op = helmholtz.assemble(bgrid, model, "bloch", z)
            out[i] = helmholtz.coefficient(op, bprobe, bprobe)
        return out
    return sampler


def cmd_asymptotic(cfg, seed):
    _check_keys(cfg, {"field", "ladder", "resolvent_ray", "tolerances"})
    tol = _tolerances_of(cfg.get("tolerances", {}), {
        "final_defect_rel": 1e-3, "cap_factor": 1.5,
    })
    report = Report()
    fcfg = _require(cfg, "field")
    _check_keys(fcfg, {"k_c", "s", "polarization"}, "field")
    phi = freespace.TestField3D(
        polarization=tuple(float(v) for v in _require(fcfg, "polarization", "field")),
        center=tuple(float(v) for v in fcfg.get("k_c", (0, 0, 0))),
        width=float(fcfg.get("s", 1.0)),
    )
    lcfg = _require(cfg, "ladder")
    _check_keys(lcfg, {"moduli", "theta"}, "ladder")
    moduli = [float(v) for v in _require(lcfg, "moduli", "ladder")]
    for theta in ([float(t) for t in np.atleast_1d(lcfg.get("theta", math.pi / 2))]):
        if not 0.05 < theta < math.pi - 0.05:
            raise DomainError("ladder angle too close to the real axis")
        defects = freespace.asymptotic_defect(phi, phi, moduli, theta)
        monotone = all(b < a for a, b in zip(defects, defects[1:]))
        report.add("asymptotic_monotone", {"theta": theta}, int(monotone), 1, 1,
                   monotone)
        final_rel = defects[-1] / freespace.norm_sq(phi)
        report.add("asymptotic_final", {"theta": theta}, final_rel, 0.0,
                   tol["final_defect_rel"], final_rel <= tol["final_defect_rel"])

    rcfg = cfg.get("resolvent_ray")
    if rcfg is not None:
        _check_keys(rcfg, {"medium", "grid", "eta", "omegas"}, "resolvent_ray")
        model = dispersion.load_medium(_require(rcfg, "medium", "resolvent_ray"))
        rgrid = _grid_of(_require(rcfg, "grid", "resolvent_ray"), "resolvent_ray.grid")
        eta = float(rcfg.get("eta", 1.0))
        omegas = [float(v) for v in _require(rcfg, "omegas", "resolvent_ray")]
        norms = helmholtz.resolvent_difference_ray(model, rgrid, eta, omegas)
        # dchi/dt(0+) of the strongest layer: the cap holds for every point
        weight = max((dispersion.chi_dot_at_zero(density, model.units.eps0)
                      for _, _, density in model.layers), default=0.0)
        cap = tol["cap_factor"] * weight / (model.units.eps0 * model.units.mu0 * eta) ** 2
        for omega, norm in zip(omegas, norms):
            passed = norm <= cap if omega >= 100 else True
            report.add("resolvent_cap", {"omega": omega, "eta": eta}, norm, cap,
                       tol["cap_factor"], passed)
    return report, None


# ---------------------------------------------------------------------------

COMMANDS = {
    "kk_eps": cmd_kk_eps,
    "green": cmd_green,
    "modes": cmd_modes,
    "causality": cmd_causality,
    "analyticity": cmd_analyticity,
    "asymptotic": cmd_asymptotic,
}


def main(argv=None):
    parser = argparse.ArgumentParser(prog="helmgreen", description=__doc__)
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default=None)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    threads = os.environ.get("HG_THREADS")
    if threads is not None:
        try:
            if int(threads) < 1:
                raise ValueError
        except ValueError:
            print(f"error: HG_THREADS must be a positive integer, got {threads!r}",
                  file=sys.stderr)
            return 2

    try:
        cfg = _load_config(args.config)
        if not isinstance(cfg, dict):
            raise ConfigError("run config must be a JSON object")
        report, extra = COMMANDS[args.command](cfg, args.seed)
    except (ConfigError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HelmgreenError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    report.write_csv(args.out)
    if extra is not None and args.out is not None:
        tag, samples = extra
        side = args.out + f".{tag}.csv"
        with open(side, "w", newline="") as fh:
            for row in samples.values:
                fh.write(",".join(_fmt(complex(v)) for v in row) + "\n")
    report.print_summary()
    return 0 if report.all_pass else 1


if __name__ == "__main__":
    sys.exit(main())
