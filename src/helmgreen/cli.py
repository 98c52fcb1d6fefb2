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
            print(f"[{status}] {r['check_id']}: measured {_fmt(r['measured'])}, "
                  f"bound {_fmt(r['bound'])}, tolerance {_fmt(r['tolerance'])}, "
                  f"estimate {_fmt(r['error_estimate'])}", file=sys.stderr)
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


def _contour_of(cfg, rtol, where="contour"):
    eta, omega_max, n_points = config.fields(cfg, where, ("eta", "omega_max", "n_points"))
    return transforms.ContourSpec(
        eta=config.number(eta, f"{where}.eta"),
        omega_max=config.number(omega_max, f"{where}.omega_max"),
        n_points=config.count(n_points, f"{where}.n_points"), rtol=rtol)


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
    for b, zg in enumerate(norm_grid):
        z_params = {"z": [zg.real, zg.imag]}
        rows.append(("dispersive", z_params, b))
        for _ in range(xi_samples):
            xi = complex(rng.uniform(-5, 5), 10.0 ** rng.uniform(-1, 1))
            rows.append(("two_freq", {**z_params, "xi": [xi.real, xi.imag]},
                         len(norm_grid) + len(pair_z)))
            pair_z.append(zg)
            pair_xi.append(xi)
    # both kinds share the table index, so one inverse_norm call takes every
    # operator: the dispersive ones first, then the two-frequency ones
    parts = [helmholtz.diagonal_rows(grid, model, kind, zs, xi=xis)
             for kind, zs, xis in (("dispersive", norm_grid, None), ("two_freq", pair_z, pair_xi))]
    norms, estimates = helmholtz.inverse_norm(grid, np.hstack([p for p, _ in parts]), parts[0][1])
    bounds = helmholtz.norm_bound(norm_grid + pair_z) * (1.0 + tol["norm_slack"])
    norms, estimates, bounds = norms.tolist(), estimates.tolist(), bounds.tolist()
    for kind, params, b in rows:
        report.add(f"norm_bound_{kind}", params, norms[b], bounds[b], tol["norm_slack"],
                   norms[b] <= bounds[b], estimates[b])
    return report, ("green", g)


def cmd_modes(cfg, seed):
    grid, eps_const, z, m, kk, tol = config.fields(
        cfg, "config", ("grid", "eps_const", "z"),
        {"truncation_M": None, "kk": None, "tolerances": {}})
    grid = _grid_of(grid)
    eps_const = config.number(eps_const, "eps_const")
    z = config.complex_of(z, "z")
    # M = N is the expansion_identity row: the whole sum, whose tail bound is 0
    m = grid.N // 2 if m is None else config.count(m, "truncation_M", 1, grid.N - 1)
    tol = _tolerances_of(tol, {"identity": 1e-10, "kk_rel": 1e-3})
    modes = spectral.cavity_modes(grid, eps_const)
    if kk is not None:
        zeta, nu_grid, reference, probe = config.fields(
            kk, "kk", ("zeta", "nu_grid"), {"reference": "vacuum", "probe": {"mode_index": 0}})
        zeta = config.number(zeta, "kk.zeta")
        nu_max, nu_count = config.record(nu_grid, "kk.nu_grid", ("max", "count"))
        if nu_max <= 0:
            raise ConfigError("kk.nu_grid.max must be > 0")
        # odd: the kk_green estimate's halved grid samples[::2] spans the same nu
        nu_count = config.count(nu_count, "kk.nu_grid.count", 3)
        if nu_count % 2 == 0:
            raise ConfigError(f"kk.nu_grid.count must be odd, got {nu_count}")
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
    # diff's rounding: M u times the partial sum's mode terms at their peaks, plus
    # N u kappa ||G|| for the direct solve, whose eigenvalues are eps (z^2 - w_n^2)
    gap = np.abs(z * z - modes.omegas**2)
    terms = np.max(np.abs(modes.modes[:, :m]), axis=0) ** 2 / gap[:m]
    kappa_g = np.max(gap) / (grid.h * eps_const * np.min(gap) ** 2)
    rounding = np.finfo(float).eps / 2 * (m * np.sum(terms) + grid.N * kappa_g)
    report.add("truncation_tail", {"M": m}, diff, tail_bound, tail_bound,
               diff <= tail_bound, float(rounding))

    if kk is not None:
        direct_c = helmholtz.coefficient(grid, helmholtz.assemble(grid, model, z), probe, probe)
        if not 0.0 < abs(direct_c) < math.inf:
            raise DomainError(f"the direct coefficient at z is {direct_c}: the kk_green "
                              "relative error needs a finite nonzero one")
        sd = spectral.d_density(model, grid, probe, probe, nu_max, nu_count, zeta, reference)
        recon, grid_term = spectral.kk_reconstruct_green(sd, grid, probe, probe, z)
        rel = abs(recon - direct_c) / abs(direct_c)
        report.zero("kk_green", {"zeta": zeta, "reference": reference}, rel, tol["kk_rel"],
                    grid_term / abs(direct_c))
    return report, None


def cmd_causality(cfg, seed):
    (medium, grid, contour, source, contour_neg, x, x_index, taper, tol, t_neg,
     t_pos) = config.fields(cfg, "config", ("medium", "grid", "contour", "source"), {
        "contour_negative": None, "x": None, "x_index": None, "taper": 0.0, "tolerances": {},
        "t_negative": [-3.0, -2.0, -1.0], "t_positive": [0.5, 1.0, 2.0, 4.0]})
    model = dispersion.load_medium(medium)
    grid = _grid_of(grid)
    tol = _tolerances_of(tol, {"suppression": 1e-6})
    # n_points is a cap: each inversion doubles its nested trapezoid rule
    # until it is converged far below the suppression gate and below the
    # 1e-6 reality gate that the positive times feed; a negative-time
    # inversion measures its convergence against the positive peak
    rtol = 1e-3 * min(tol["suppression"], 1e-6)
    contour = _contour_of(contour, rtol)
    # negative times are contour-height independent, so a taller contour may
    # be supplied there purely to suppress window-truncation noise
    contour_neg = (contour if contour_neg is None
                   else _contour_of(contour_neg, rtol, "contour_negative"))
    x = grid.L / 2 if x is None else config.number(x, "x")
    if not 0.0 <= x <= grid.L:
        raise ConfigError(f"x must lie in [0, {grid.L}]")
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

    report = Report()

    def causal(check_id, invert):
        """Invert at t > 0, then at t < 0 against the positive peak; the row
        is the negative-time maximum relative to that peak."""
        pos, est_p = invert(t_pos, contour)
        peak = max(float(np.max(np.abs(pos))), 1e-300)
        neg, est_n = invert(t_neg, dataclasses.replace(contour_neg, scale=peak))
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
    polarization = np.array(config.numbers(polarization, "field.polarization", 3))
    k_c = config.numbers(k_c, "field.k_c", 3)
    s = config.number(s, "field.s")
    if not np.any(polarization):
        raise ConfigError("field.polarization must not be zero")
    if s <= 0:
        raise ConfigError("field.s must be > 0")
    moduli, thetas = config.fields(lcfg, "ladder", ("moduli",), {"theta": math.pi / 2})
    moduli = config.numbers(moduli, "ladder.moduli")
    thetas = config.numbers(thetas if isinstance(thetas, list) else [thetas], "ladder.theta")
    if not all(0.05 < theta < math.pi - 0.05 for theta in thetas):
        raise DomainError("ladder angle too close to the real axis")
    # T(z) / ||phi||^2 is invariant under p -> lambda p and (k, c, s, z) -> (k, c, s, z) / s:
    # the ladder runs on p / |p| (|p| after scaling by max |p_i|), c / s, s = 1 at |z| / s.
    # It squares each |z| / s and takes r^4 up to its cutoff |c| / s + 12
    moduli = [m / s for m in moduli]
    center = [c / s for c in k_c]
    cutoff = math.hypot(*center) + 12.0
    if not all(math.isfinite(x * x) for x in [*moduli, cutoff * cutoff]):
        raise DomainError(f"at s = {s:g} the unit ladder overflows: (|z|/s)^2 and "
                          "(|k_c|/s + 12)^4 must be finite")
    p = polarization / np.max(np.abs(polarization))
    unit = freespace.TestField3D(tuple(p / np.linalg.norm(p)), tuple(center))
    norm = freespace.norm_sq(unit)
    if rcfg is not None:
        medium, rgrid, omegas, eta = config.fields(
            rcfg, "resolvent_ray", ("medium", "grid", "omegas"), {"eta": 1.0})
        model = dispersion.load_medium(medium)
        rgrid = _grid_of(rgrid, "resolvent_ray.grid")
        omegas = config.numbers(omegas, "resolvent_ray.omegas")
        eta = config.number(eta, "resolvent_ray.eta")
    report = Report()
    for theta in thetas:
        defects, estimates = freespace.asymptotic_defect(unit, unit, moduli, theta)
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
