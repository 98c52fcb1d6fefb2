"""Seeded generator of the media and run configs each workload feeds the CLI.

Every work-size field (grid N, contour nodes, z-grids, passivity samples,
nu-grid count, quadrature nodes, loop node counts) equals the shipped
``configs/``; only physical parameters are drawn, from the ranges the
shipped ``media/`` and ``configs/`` span. The program sees nothing but the
files written here.

Media come in the two shipped Lorentz families: a single slab with one
part (``lorentz_slab.json``) and two layers around a vacuum gap with two
and one parts (``lorentz_double.json``). The gap is placed without regard
to x = L/2, so some seeds put vacuum at the midpoint, where the
``resolvent_cap`` check of ``asymptotic`` is known to fail.

``kk_eps`` and ``causality`` cost time in proportion to the number of
Lorentz parts they evaluate, so they keep the slab family of their shipped
config; their time then depends little on the seed. The adaptive KK
quadrature of ``kk_eps`` also does more work for narrower and higher lines
(about 15% more integrand calls from gamma = 0.4 to 0.15), so ``kk_eps``
keeps the shipped slab's line shape (w1, gamma) and draws only its
strength wp and the geometry. ``green``, ``analyticity`` and the resolvent
ray of ``asymptotic`` draw from both families, since their cost is set by
the grid, not by the medium.
"""

import json
import math
import random
from dataclasses import dataclass

WP = (0.5, 1.2)
W1 = (1.5, 3.0)
GAMMA = (0.15, 0.4)
# The line shape of the shipped lorentz_slab.json.
SLAB_LINE = {"w1": 2.0, "gamma": 0.2}


@dataclass(frozen=True)
class Job:
    """One CLI child: command, config path (relative to the work dir) and
    the number of CSV rows the config asks for."""

    command: str
    config: str
    expected_rows: int


def _u(rng, lo, hi):
    return round(rng.uniform(lo, hi), 4)


def _lorentz(rng):
    return {"wp": _u(rng, *WP), "w1": _u(rng, *W1), "gamma": _u(rng, *GAMMA)}


def _slab(rng, line=None):
    x0, x1 = _u(rng, 0.1, 0.3), _u(rng, 0.7, 0.9)
    part = _lorentz(rng) if line is None else {"wp": _u(rng, *WP), **line}
    return [{"interval": [x0, x1], "lorentz": [part]}]


def _shipped_line_slab(rng):
    return _slab(rng, SLAB_LINE)


def _double(rng):
    centre, half = rng.uniform(0.4, 0.6), rng.uniform(0.025, 0.075)
    g0, g1 = round(centre - half, 4), round(centre + half, 4)
    return [
        {"interval": [_u(rng, 0.1, 0.2), g0], "lorentz": [_lorentz(rng), _lorentz(rng)]},
        {"interval": [g1, _u(rng, 0.8, 0.9)], "lorentz": [_lorentz(rng)]},
    ]


def _medium(rng, families):
    layers = rng.choice(families)(rng)
    return {"unit_system": "normalized", "background_epsilon": 1.0, "layers": layers}


def _inside(rng, medium):
    """A point well inside a dispersive layer (the KK check integrates there)."""
    x0, x1 = rng.choice(medium["layers"])["interval"]
    pad = 0.2 * (x1 - x0)
    return _u(rng, x0 + pad, x1 - pad)


def _kk_eps(rng, write):
    medium = _medium(rng, [_shipped_line_slab])
    z_grid = {"re_min": 0.0, "re_max": 5.0, "im_min": 0.02, "im_max": 5.0,
              "n_re": 20, "n_im": 20}
    cfg = {
        "medium": write("kk_eps.medium", medium),
        "x": _inside(rng, medium),
        "z_grid": z_grid,
        "passivity_samples": 10000,
        "tolerances": {"kk_rel": 1e-6, "passivity_floor": 1e-12, "sum_rule_rel": 1e-8},
    }
    return cfg, z_grid["n_re"] * z_grid["n_im"] + 2


def _causality(rng, write):
    medium = _medium(rng, [_slab])
    cfg = {
        "medium": write("causality.medium", medium),
        "grid": {"L": 1.0, "N": 64},
        "x": _inside(rng, medium),
        "contour": {"eta": 0.1, "omega_max": 400.0, "n_points": 200000},
        "contour_negative": {"eta": 12.0, "omega_max": 400.0, "n_points": 200000},
        "source": {"omega_s": _u(rng, 0.5, 1.5), "center": _u(rng, 0.2, 0.4),
                   "width": _u(rng, 0.03, 0.07)},
        "x_index": rng.randint(40, 55),
        "taper": 16.0,
        "t_negative": [-3.0, -2.0, -1.0],
        "t_positive": [0.5, 1.0, 2.0, 4.0],
        "tolerances": {"suppression": 1e-6},
    }
    return cfg, 4


def _green(rng, write):
    norm_grid = {"re_min": 0.1, "re_max": 5.0, "im_min": 0.1, "im_max": 5.0,
                 "n_re": 20, "n_im": 20}
    xi_samples = 5
    cfg = {
        "medium": write("green.medium", _medium(rng, [_slab, _double])),
        "grid": {"L": 1.0, "N": 64},
        "z": {"re": 0.0, "im": 1.0},
        "norm_grid": norm_grid,
        "xi_samples": xi_samples,
        "tolerances": {"reciprocity": 1e-12, "schwarz": 1e-12, "norm_slack": 1e-8},
    }
    return cfg, 2 + norm_grid["n_re"] * norm_grid["n_im"] * (1 + xi_samples)


def _modes(rng, write):
    cfg = {
        "grid": {"L": 1.0, "N": 256},
        "eps_const": _u(rng, 1.5, 3.0),
        "z": {"re": 0.0, "im": 5.0},
        "truncation_M": 128,
        "kk": {"zeta": 0.01, "nu_grid": {"max": 40.0, "count": 64001},
               "reference": "vacuum", "probe": {"mode_index": 0}},
        "tolerances": {"identity": 1e-10, "kk_rel": 1e-3},
    }
    return cfg, 3


def _analyticity(rng, write):
    loops = [
        {"kind": "z", "z_lo": {"re": 0.5, "im": 0.5}, "z_hi": {"re": 2.0, "im": 1.5}},
        {"kind": "xi", "fixed_z": {"re": 0.0, "im": 1.0},
         "z_lo": {"re": 0.3, "im": 0.4}, "z_hi": {"re": 1.5, "im": 1.2}},
        {"kind": "zk", "bloch_k": {"re": 1.0, "im": 0.3},
         "z_lo": {"re": 0.5, "im": 0.5}, "z_hi": {"re": 2.0, "im": 1.5}},
        {"kind": "conj_witness", "z_lo": {"re": 0.5, "im": 0.5},
         "z_hi": {"re": 2.0, "im": 1.5}, "expect": "fail"},
    ]
    cfg = {
        "medium": write("analyticity.medium", _medium(rng, [_slab, _double])),
        "grid": {"L": 1.0, "N": 64},
        "probe": {"gaussian": {"center": _u(rng, 0.3, 0.7), "width": _u(rng, 0.05, 0.15)}},
        "loops": loops,
        "tolerances": {"defect": 1e-8, "witness_min": 1e-2},
    }
    return cfg, len(loops)


def _asymptotic(rng, write):
    pol = [rng.gauss(0.0, 1.0) for _ in range(3)]
    norm = math.sqrt(sum(p * p for p in pol))
    ladder = {"moduli": [10.0, 100.0, 1000.0], "theta": [math.pi / 4, math.pi / 2]}
    omegas = [10.0, 100.0, 1000.0]
    cfg = {
        "field": {"polarization": [round(p / norm, 6) for p in pol],
                  "k_c": [_u(rng, -0.5, 0.5) for _ in range(3)], "s": _u(rng, 0.7, 1.5)},
        "ladder": ladder,
        "resolvent_ray": {
            "medium": write("asymptotic.medium", _medium(rng, [_slab, _double])),
            "grid": {"L": 1.0, "N": 64},
            "eta": 1.0,
            "omegas": omegas,
        },
        "tolerances": {"final_defect_rel": 1e-3, "cap_factor": 1.5},
    }
    return cfg, 2 * len(ladder["theta"]) + len(omegas)


_MAKERS = {
    "kk_eps": _kk_eps,
    "causality": _causality,
    "green": _green,
    "modes": _modes,
    "analyticity": _analyticity,
    "asymptotic": _asymptotic,
}

# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "causal_contour": ("causality",),
    "kk_sweep": ("kk_eps",),
    "operator_sweep": ("green", "modes", "analyticity", "asymptotic"),
}


def generate(workload, seed, work_dir):
    """Write the workload's media and configs under work_dir; return its Jobs."""

    def write(stem, obj):
        name = f"{stem}.json"
        (work_dir / name).write_text(json.dumps(obj, indent=1) + "\n")
        return name

    jobs = []
    for command in WORKLOADS[workload]:
        # One stream per command, so one command's draws never shift another's.
        rng = random.Random(f"{seed}:{command}")
        cfg, rows = _MAKERS[command](rng, write)
        jobs.append(Job(command, write(f"{command}.config", cfg), rows))
    return jobs
