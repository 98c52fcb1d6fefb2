"""Batch driver: run-config files in, CSV certificate reports out.

Invocation:  helmgreen <command> --config <path> [--out <path>] [--seed <u64>]

Exit codes: 0 all checks pass, 1 at least one check failed, 2 on
input/domain errors. Rows marked expect = "fail" in the config are
negative controls and count as passing when the underlying check fails.
"""

import argparse
import dataclasses
import functools
import json
import math
import os
import sys

import numpy as np

from . import config, dispersion, freespace, helmholtz, spectral, transforms
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

    def zero(self, check_id, params, measured, tolerance, estimate=0.0):
        """A row whose true value is 0: bound 0, pass iff measured <= tolerance."""
        self.add(check_id, params, measured, 0.0, tolerance, measured <= tolerance, estimate)

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
# config sections (every value is read through `config`)


def _grid_of(cfg, where="grid"):
    L, N = config.fields(cfg, where, ("L", "N"))
    return helmholtz.Grid1D(L=config.number(L, f"{where}.L"), N=config.count(N, f"{where}.N"))


def _z_grid_of(cfg, where="z_grid"):
    re_min, re_max, im_min, im_max, n_re, n_im = config.record(
        cfg, where, ("re_min", "re_max", "im_min", "im_max", "n_re", "n_im"))
    if not (im_min > 0 and im_max > 0):
        raise ConfigError(f"{where}.im_min and {where}.im_max must be > 0")
    re = np.linspace(re_min, re_max, config.count(n_re, f"{where}.n_re"))
    im = np.geomspace(im_min, im_max, config.count(n_im, f"{where}.n_im"))
    return [complex(r, i) for i in im for r in re]


def _tolerances_of(cfg, defaults):
    out = dict(zip(defaults, config.record(cfg, "tolerances", (), defaults)))
    for key, val in out.items():
        if val <= 0:
            raise ConfigError(f"tolerance {key} must be > 0")
    return out


def _probe_of(cfg, grid, modes=None):
    """The probe vector on `grid`; a mode_index probe is a column of the
    `spectral.cavity_modes` `modes`."""
    mode, point, gaussian = config.fields(
        cfg, "probe", (), dict.fromkeys(("mode_index", "point_index", "gaussian")))
    if len(cfg) != 1:
        raise ConfigError("probe needs exactly one of mode_index/point_index/gaussian")
    if gaussian is not None:
        center, width = config.record(gaussian, "probe.gaussian", ("center", "width"))
        return spectral.gaussian_probe(grid, center, width)
    if point is not None:
        return spectral.point_probe(grid, config.index(point, "probe.point_index", grid.N))
    if modes is None:
        raise ConfigError("mode_index probe needs cavity modes")
    return modes.modes[:, config.index(mode, "probe.mode_index", grid.N)]


def _contour_of(cfg, where="contour"):
    eta, omega_max, n_points = config.fields(cfg, where, ("eta", "omega_max", "n_points"))
    return transforms.ContourSpec(
        eta=config.number(eta, f"{where}.eta"),
        omega_max=config.number(omega_max, f"{where}.omega_max"),
        n_points=config.count(n_points, f"{where}.n_points"))


# ---------------------------------------------------------------------------
# commands (each reads its whole config before its first solve)


def cmd_kk_eps(cfg, seed):
    medium, z_grid, x, n_samples, tol = config.fields(cfg, "config", ("medium", "z_grid"), {
        "x": 0.0, "passivity_samples": 10_000, "tolerances": {}})
    model = dispersion.load_medium(medium)
    x = config.number(x, "x")
    tol = _tolerances_of(tol, {"kk_rel": 1e-6, "passivity_floor": 1e-12, "sum_rule_rel": 1e-8})
    z_grid = _z_grid_of(z_grid)
    n_samples = config.count(n_samples, "passivity_samples")
    report = Report()
    density = model.density_at(x)

    recon, bound = dispersion.kk_reconstruct_permittivity(density, z_grid)
    recon = model.background - 1.0 + recon
    exact = dispersion.eval_permittivity(model, x, z_grid)
    for z, r, e, b in zip(z_grid, recon, exact, bound):
        rel = float(abs(r - e) / abs(e))
        report.zero("kk_round_trip", {"z": [z.real, z.imag]}, rel, tol["kk_rel"],
                    float(b / abs(e)))

    rng = np.random.default_rng(seed)
    zs = 10.0 ** rng.uniform(-2, 2, n_samples) * np.exp(
        1j * rng.uniform(0.01, math.pi - 0.01, n_samples)
    )
    margins = dispersion.passivity_margin(model, x, zs)
    at = int(np.argmin(margins))
    worst = float(margins[at])
    report.add("passivity_sweep", {"n": n_samples, "seed": seed}, worst,
               -tol["passivity_floor"], tol["passivity_floor"],
               worst >= -tol["passivity_floor"],
               dispersion.passivity_rounding(model, x, zs[at]))

    total, est = dispersion.sigma_total_weight(density)
    target = dispersion.chi_dot_at_zero(density)
    rel, est = (abs(total - target) / target, est / target) if target else (0.0, 0.0)
    report.zero("sum_rule", {}, rel, tol["sum_rule_rel"], est)
    return report, None


def cmd_green(cfg, seed):
    medium, grid, z, norm_grid, xi_samples, tol = config.fields(
        cfg, "config", ("medium", "grid", "z", "norm_grid"),
        {"xi_samples": 0, "tolerances": {}})
    model = dispersion.load_medium(medium)
    grid = _grid_of(grid)
    z = config.complex_of(z, "z")
    norm_grid = _z_grid_of(norm_grid, "norm_grid")
    xi_samples = config.count(xi_samples, "xi_samples", 0)
    tol = _tolerances_of(tol, {"reciprocity": 1e-12, "schwarz": 1e-12, "norm_slack": 1e-8})
    report = Report()
    g = helmholtz.green_matrix(grid, helmholtz.assemble(grid, model, z))
    recip = float(np.max(np.abs(g - g.T)) / np.max(np.abs(g)))
    report.zero("reciprocity", {"z": [z.real, z.imag]}, recip, tol["reciprocity"])

    mirror = helmholtz.green_matrix(grid, helmholtz.assemble(grid, model, -z.conjugate()))
    schwarz = float(np.max(np.abs(mirror - np.conj(g))) / np.max(np.abs(g)))
    report.zero("schwarz", {"z": [z.real, z.imag]}, schwarz, tol["schwarz"])

    rng = np.random.default_rng(seed)
    rows, pair_z, pair_xi = [], [], []
    for zg in norm_grid:
        z_params = {"z": [zg.real, zg.imag]}
        rows.append(("dispersive", z_params))
        for _ in range(xi_samples):
            xi = complex(rng.uniform(-5, 5), 10.0 ** rng.uniform(-1, 1))
            rows.append(("two_freq", {**z_params, "xi": [xi.real, xi.imag]}))
            pair_z.append(zg)
            pair_xi.append(xi)
    # every diagonal of a kind from one diagonal_rows call; each kind's
    # (norm, estimate, bound) triples are read in row order
    results = {}
    for kind, zs, xis in (("dispersive", norm_grid, None), ("two_freq", pair_z, pair_xi)):
        norms, estimates = helmholtz.inverse_norm(
            grid, *helmholtz.diagonal_rows(grid, model, kind, zs, xi=xis))
        bounds = helmholtz.norm_bound(zs) * (1.0 + tol["norm_slack"])
        results[kind] = zip(norms.tolist(), estimates.tolist(), bounds.tolist())
    for kind, params in rows:
        measured, estimate, bound = next(results[kind])
        report.add(f"norm_bound_{kind}", params, measured, bound, tol["norm_slack"],
                   measured <= bound, estimate)
    return report, ("green", g)


def cmd_modes(cfg, seed):
    grid, eps_const, z, m, kk, tol = config.fields(
        cfg, "config", ("grid", "eps_const", "z"),
        {"truncation_M": None, "kk": None, "tolerances": {}})
    grid = _grid_of(grid)
    eps_const = config.number(eps_const, "eps_const")
    z = config.complex_of(z, "z")
    m = grid.N // 2 if m is None else config.count(m, "truncation_M", 1, grid.N)
    tol = _tolerances_of(tol, {"identity": 1e-10, "kk_rel": 1e-3})
    modes = spectral.cavity_modes(grid, eps_const)
    if kk is not None:
        zeta, nu_grid, reference, probe = config.fields(
            kk, "kk", ("zeta", "nu_grid"), {"reference": "vacuum", "probe": {"mode_index": 0}})
        zeta = config.number(zeta, "kk.zeta")
        nu_max, nu_count = config.record(nu_grid, "kk.nu_grid", ("max", "count"))
        if nu_max <= 0:
            raise ConfigError("kk.nu_grid.max must be > 0")
        nu = np.linspace(-nu_max, nu_max, config.count(nu_count, "kk.nu_grid.count", 2))
        reference = config.choice(reference, "kk.reference", ("vacuum", "none"))
        probe = _probe_of(probe, grid, modes)
    report = Report()
    model = dispersion.PermittivityModel(background=eps_const)

    expansion, _ = spectral.mode_expansion_green(modes, z)
    direct = helmholtz.green_matrix(grid, helmholtz.assemble(grid, model, z))
    identity_err = float(np.max(np.abs(expansion - direct)) / np.max(np.abs(direct)))
    report.zero("expansion_identity", {"M": grid.N, "z": [z.real, z.imag]}, identity_err,
                tol["identity"])

    partial, tail_bound = spectral.mode_expansion_green(modes, z, m)
    diff = float(np.max(np.abs(partial - direct)))
    report.add("truncation_tail", {"M": m}, diff, tail_bound, tail_bound,
               diff <= tail_bound, tail_bound)

    if kk is not None:
        sd = spectral.d_density(model, grid, probe, probe, nu, zeta, reference)
        recon = spectral.kk_reconstruct_green(sd, grid, probe, probe, z)
        direct_c = spectral.direct_coefficient(model, grid, probe, probe, z)
        rel = abs(recon - direct_c) / abs(direct_c)
        report.zero("kk_green", {"zeta": zeta, "reference": reference}, rel, tol["kk_rel"])
    return report, None


def cmd_causality(cfg, seed):
    (medium, grid, contour, source, contour_neg, x, x_index, taper, tol, t_neg,
     t_pos) = config.fields(cfg, "config", ("medium", "grid", "contour", "source"), {
        "contour_negative": None, "x": None, "x_index": None, "taper": 0.0, "tolerances": {},
        "t_negative": [-3.0, -2.0, -1.0], "t_positive": [0.5, 1.0, 2.0, 4.0]})
    model = dispersion.load_medium(medium)
    grid = _grid_of(grid)
    contour = _contour_of(contour)
    # negative times are contour-height independent, so a taller contour may
    # be supplied there purely to suppress window-truncation noise
    contour_neg = contour if contour_neg is None else _contour_of(contour_neg, "contour_negative")
    x = grid.L / 2 if x is None else config.number(x, "x")
    x_index = grid.N // 4 if x_index is None else config.index(x_index, "x_index", grid.N)
    taper = config.number(taper, "taper")
    if taper < 0:
        raise ConfigError("taper must be >= 0")
    omega_s, center, width = config.record(source, "source", ("omega_s", "center", "width"))
    src = spectral.gaussian_probe(grid, center, width)
    t_neg = config.numbers(t_neg, "t_negative")
    t_pos = config.numbers(t_pos, "t_positive")
    if any(t >= 0 for t in t_neg):
        raise ConfigError("t_negative must contain negative times only")
    tol = _tolerances_of(tol, {"suppression": 1e-6})
    # n_points is a cap: each inversion doubles its nested trapezoid rule
    # until it is converged far below the suppression gate and below the
    # 1e-6 reality gate that the positive times feed; a negative-time
    # inversion measures its convergence against the positive peak
    rtol = 1e-3 * min(tol["suppression"], 1e-6)
    contour = dataclasses.replace(contour, rtol=rtol)

    report = Report()

    def causal(check_id, invert):
        """Invert at t > 0, then at t < 0 against the positive peak; the row
        is the negative-time maximum relative to that peak."""
        pos, est_p = invert(t_pos, contour)
        peak = max(float(np.max(np.abs(pos))), 1e-300)
        neg, est_n = invert(t_neg, dataclasses.replace(contour_neg, rtol=rtol, scale=peak))
        report.zero(check_id, {"t_negative": t_neg}, float(np.max(np.abs(neg))) / peak,
                    tol["suppression"], est_n / peak)
        return pos, est_p, peak

    causal("chi_causality", functools.partial(dispersion.susceptibility, model, x))
    probe = spectral.gaussian_probe(grid, x, grid.L / 16)
    xt_pos, est_p, peak = causal("x_operator_causality", functools.partial(
        spectral.x_operator_coefficient, model, grid, probe, probe))
    reality = float(np.max(np.abs(xt_pos.imag)) / peak)
    report.zero("x_operator_reality", {}, reality, 1e-6, est_p / peak)
    causal("field_causality", functools.partial(
        spectral.time_domain_field, model, grid, src, omega_s, x_index, taper=taper))
    return report, None


def cmd_analyticity(cfg, seed):
    medium, grid, loop_cfgs, probe, tol = config.fields(
        cfg, "config", ("medium", "grid", "loops"),
        {"probe": {"gaussian": {"center": 0.5, "width": 0.1}}, "tolerances": {}})
    model = dispersion.load_medium(medium)
    grid = _grid_of(grid)
    probe_cfg, probe = probe, _probe_of(probe, grid)
    tol = _tolerances_of(tol, {"defect": 1e-8, "witness_min": 1e-2})
    loops = []
    for i, lcfg in enumerate(config.items(loop_cfgs, "loops")):
        where = f"loops[{i}]"
        z_lo, z_hi, kind, fixed_z, bloch_k, n_points, expect = config.fields(
            lcfg, where, ("z_lo", "z_hi"), {"kind": "z", "fixed_z": None, "bloch_k": None,
                                            "n_points": 48, "expect": "pass"})
        kind = config.choice(kind, f"{where}.kind", ("z", "xi", "zk", "conj_witness"))
        expect = config.choice(expect, f"{where}.expect", ("pass", "fail"))
        loop = transforms.RectangleLoop(
            z_lo=config.complex_of(z_lo, f"{where}.z_lo"),
            z_hi=config.complex_of(z_hi, f"{where}.z_hi"),
            n_points=config.count(n_points, f"{where}.n_points"),
        )
        if kind == "z":
            sampler = functools.partial(spectral._coefficient_sweep, model, grid,
                                        probe, probe, reference="none")
        elif kind == "xi":
            fixed = config.complex_of(fixed_z, f"{where}.fixed_z")
            sampler = functools.partial(spectral._coefficient_sweep, model, grid,
                                        probe, probe, fixed, "none")
        elif kind == "zk":
            k = config.complex_of(bloch_k, f"{where}.bloch_k")
            if loop.z_lo.imag - abs(k.imag) < 0.1:
                raise DomainError("joint-domain loop must keep Im z - |k''| >= 0.1")
            bgrid = helmholtz.Grid1D(L=grid.L, N=grid.N, boundary="bloch", bloch_k=k)
            sampler = spectral._bloch_sampler(model, bgrid, _probe_of(probe_cfg, bgrid))
        else:
            sampler = np.conj
        loops.append((kind, loop, sampler, expect))
    report = Report()
    for i, (kind, loop, sampler, expect) in enumerate(loops):
        defect, estimate = transforms.cauchy_loop(sampler, loop)
        if expect == "fail":
            report.add(f"analyticity_{kind}", {"loop": i, "expect": "fail"}, defect,
                       tol["witness_min"], tol["witness_min"], defect >= tol["witness_min"],
                       estimate)
        else:
            report.zero(f"analyticity_{kind}", {"loop": i}, defect, tol["defect"], estimate)
    return report, None


def cmd_asymptotic(cfg, seed):
    fcfg, lcfg, rcfg, tol = config.fields(cfg, "config", ("field", "ladder"),
                                          {"resolvent_ray": None, "tolerances": {}})
    tol = _tolerances_of(tol, {"final_defect_rel": 1e-3, "cap_factor": 1.5})
    polarization, k_c, s = config.fields(fcfg, "field", ("polarization",),
                                         {"k_c": [0.0, 0.0, 0.0], "s": 1.0})
    phi = freespace.TestField3D(
        polarization=tuple(config.numbers(polarization, "field.polarization", 3)),
        center=tuple(config.numbers(k_c, "field.k_c", 3)),
        width=config.number(s, "field.s"))
    moduli, thetas = config.fields(lcfg, "ladder", ("moduli",), {"theta": math.pi / 2})
    moduli = config.numbers(moduli, "ladder.moduli")
    thetas = config.numbers(thetas if isinstance(thetas, list) else [thetas], "ladder.theta")
    if not all(0.05 < theta < math.pi - 0.05 for theta in thetas):
        raise DomainError("ladder angle too close to the real axis")
    if rcfg is not None:
        medium, rgrid, omegas, eta = config.fields(
            rcfg, "resolvent_ray", ("medium", "grid", "omegas"), {"eta": 1.0})
        model = dispersion.load_medium(medium)
        rgrid = _grid_of(rgrid, "resolvent_ray.grid")
        omegas = config.numbers(omegas, "resolvent_ray.omegas")
        eta = config.number(eta, "resolvent_ray.eta")
    report = Report()
    norm = freespace.norm_sq(phi)
    for theta in thetas:
        defects, estimates = freespace.asymptotic_defect(phi, phi, moduli, theta)
        monotone = all(b < a for a, b in zip(defects, defects[1:]))
        report.add("asymptotic_monotone", {"theta": theta}, int(monotone), 1, 1,
                   monotone, max(estimates) / norm)
        report.zero("asymptotic_final", {"theta": theta}, defects[-1] / norm,
                    tol["final_defect_rel"], estimates[-1] / norm)

    if rcfg is not None:
        norms = helmholtz.resolvent_difference_ray(model, rgrid, eta, omegas)
        # dchi/dt(0+) of the strongest layer: the cap holds for every point
        weight = max((dispersion.chi_dot_at_zero(density) for _, _, density in model.layers),
                     default=0.0)
        cap = tol["cap_factor"] * weight / eta**2
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


def _seed(text):
    """A --seed value: an unsigned 64-bit integer."""
    try:
        seed = int(text)
        if 0 <= seed < 2**64:
            return seed
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be an integer in [0, 2^64 - 1], got {text!r}")


def _out_path(path):
    """An --out path: a file in an existing directory, checked before any work."""
    if os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or "."):
        raise argparse.ArgumentTypeError(f"{path!r} is not a file in an existing directory")
    return path


def main(argv=None):
    parser = argparse.ArgumentParser(prog="helmgreen", description=__doc__)
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", type=_out_path, default=None)
    parser.add_argument("--seed", type=_seed, default=0)
    args = parser.parse_args(argv)

    try:
        cfg = config.load(args.config, "config file")
        report, extra = COMMANDS[args.command](cfg, args.seed)
    except HelmgreenError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        report.write_csv(args.out)
        if extra is not None and args.out is not None:
            tag, matrix = extra
            side = args.out + f".{tag}.csv"
            with open(side, "w", newline="") as fh:
                for row in matrix:
                    fh.write(",".join(_fmt(complex(v)) for v in row) + "\n")
    except OSError as exc:
        print(f"error: cannot write the report: {exc}", file=sys.stderr)
        return 2
    report.print_summary()
    return 0 if report.all_pass else 1


if __name__ == "__main__":
    sys.exit(main())
