import contextlib
import copy
import csv
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helmgreen
from helmgreen import _kernels, cli, dispersion
from helmgreen import helmholtz as hh
from helmgreen import spectral as sp
from helmgreen import transforms as tr
from helmgreen.errors import DomainError

import oracles


MEDIUM = {
    "unit_system": "normalized",
    "background_epsilon": 1.0,
    "layers": [
        {"interval": [0.25, 0.75], "lorentz": [{"wp": 1.0, "w1": 2.0, "gamma": 0.2}]}
    ],
}

LINE_MEDIUM = {
    "background_epsilon": 1.0,
    "layers": [
        {"interval": [0.25, 0.75], "lines": [{"nu": 4.0, "weight": 1.0}]}
    ],
}


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def medium(tmp_path):
    return _write(tmp_path, "medium.json", MEDIUM)


def _kk_config(tmp_path, medium, **overrides):
    cfg = {
        "medium": medium,
        "x": 0.5,
        "z_grid": {"re_min": 0.0, "re_max": 4.0, "im_min": 0.05, "im_max": 4.0,
                   "n_re": 4, "n_im": 4},
        "passivity_samples": 200,
        "tolerances": {"kk_rel": 1e-6},
    }
    cfg.update(overrides)
    return _write(tmp_path, "kk.json", cfg)


def test_kk_eps_passes(tmp_path, medium, capsys):
    cfg = _kk_config(tmp_path, medium)
    out = tmp_path / "report.csv"
    assert cli.main(["kk_eps", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == cli.CSV_HEADER
    assert all(",true," in line for line in lines[1:])


def test_kk_eps_vacuum_trivial(tmp_path, capsys):
    vac = _write(tmp_path, "vac.json", {"background_epsilon": 1.0, "layers": []})
    cfg = _kk_config(tmp_path, vac)
    assert cli.main(["kk_eps", "--config", cfg]) == 0


def test_malformed_config_exits_2(tmp_path, medium, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["kk_eps", "--config", str(bad)]) == 2


# deeper than the JSON decoder's recursion limit; json.dump of such a list
# fails on its own, so the text is written directly
_NESTED = "[" * 100000 + "]" * 100000


@pytest.mark.parametrize("what", ["config file", "medium file"])
def test_deeply_nested_file_exits_2(tmp_path, capsys, what):
    nested = tmp_path / "nested.json"
    nested.write_text(_NESTED)
    cfg = str(nested) if what == "config file" else _kk_config(tmp_path, str(nested))
    assert cli.main(["kk_eps", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {what} {nested} is not valid JSON: nested too deeply\n"


def test_unknown_key_exits_2(tmp_path, medium, capsys):
    cfg = _kk_config(tmp_path, medium, typo_key=1)
    assert cli.main(["kk_eps", "--config", cfg]) == 2


def test_missing_medium_exits_2(tmp_path, capsys):
    cfg = _kk_config(tmp_path, str(tmp_path / "missing.json"))
    assert cli.main(["kk_eps", "--config", cfg]) == 2


def test_nonpositive_tolerance_exits_2(tmp_path, medium, capsys):
    cfg = _kk_config(tmp_path, medium, tolerances={"kk_rel": 0.0})
    assert cli.main(["kk_eps", "--config", cfg]) == 2


def _without(d, key):
    return {k: v for k, v in d.items() if k != key}


_GRID = {"re_min": 0.0, "re_max": 4.0, "im_min": 0.05, "im_max": 4.0, "n_re": 4, "n_im": 4}


@pytest.mark.parametrize("overrides", [
    {"z_grid": _without(_GRID, "im_min")},
    {"z_grid": {**_GRID, "im_min": 0}},
    {"z_grid": {**_GRID, "n_re": 0}, "passivity_samples": 0},
    {"z_grid": {**_GRID, "n_im": 2.5}},
    {"passivity_samples": 0},
    {"x": "middle"},
], ids=["missing_im_min", "zero_im_min", "zero_counts", "fractional_n_im",
        "zero_passivity_samples", "non_numeric_x"])
def test_kk_eps_bad_config_exits_2(tmp_path, medium, capsys, overrides):
    cfg = _kk_config(tmp_path, medium, **overrides)
    assert cli.main(["kk_eps", "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("part", [
    {"wp": "x", "w1": 2.0, "gamma": 0.2},
    {"wp": 1.0, "w1": 2.0},
], ids=["non_numeric_wp", "missing_gamma"])
def test_kk_eps_bad_medium_exits_2(tmp_path, capsys, part):
    medium = _write(tmp_path, "bad_medium.json", {
        "layers": [{"interval": [0.25, 0.75], "lorentz": [part]}],
    })
    cfg = _kk_config(tmp_path, medium)
    assert cli.main(["kk_eps", "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_determinism_byte_identical(tmp_path, medium, capsys):
    cfg = _kk_config(tmp_path, medium)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(["kk_eps", "--config", cfg, "--out", str(a), "--seed", "42"]) == 0
    assert cli.main(["kk_eps", "--config", cfg, "--out", str(b), "--seed", "42"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_kk_round_trip_estimate_covers_measured_error(tmp_path, capsys):
    # the shipped kk_eps config: the slab medium on its 20 x 20 z-grid
    root = Path(__file__).resolve().parents[1]
    cfg = json.loads((root / "configs" / "kk_eps.json").read_text())
    cfg["medium"] = str(root / cfg["medium"])
    out = tmp_path / "report.csv"
    assert cli.main(["kk_eps", "--config", _write(tmp_path, "kk.json", cfg),
                     "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = [r for r in csv.DictReader(fh) if r["check_id"] == "kk_round_trip"]
    assert len(rows) == 400
    for row in rows:
        estimate = float(row["error_estimate"])
        assert estimate > 0.0 and estimate >= float(row["measured"])


def test_green_command(tmp_path, medium, capsys):
    cfg = _write(tmp_path, "green.json", {
        "medium": medium,
        "grid": {"L": 1.0, "N": 32},
        "z": {"im": 1.0},
        "norm_grid": {"re_min": 0.5, "re_max": 3.0, "im_min": 0.2, "im_max": 2.0,
                      "n_re": 3, "n_im": 3},
        "xi_samples": 2,
    })
    out = tmp_path / "g.csv"
    assert cli.main(["green", "--config", cfg, "--out", str(out)]) == 0
    # side file with the Green samples
    assert (tmp_path / "g.csv.green.csv").exists()


def test_green_real_axis_undamped_exits_2(tmp_path, capsys):
    lines_medium = _write(tmp_path, "lines.json", LINE_MEDIUM)
    cfg = _write(tmp_path, "green.json", {
        "medium": lines_medium,
        "grid": {"L": 1.0, "N": 32},
        "z": {"re": 2.0, "im": 0.0},
        "norm_grid": {"re_min": 0.5, "re_max": 3.0, "im_min": 0.2, "im_max": 2.0,
                      "n_re": 2, "n_im": 2},
        "xi_samples": 0,
    })
    assert cli.main(["green", "--config", cfg]) == 2


def test_modes_command(tmp_path, capsys):
    cfg = _write(tmp_path, "modes.json", {
        "grid": {"L": 1.0, "N": 64},
        "eps_const": 2.0,
        "z": {"im": 5.0},
        "truncation_M": 32,
        "kk": {"zeta": 0.02, "nu_grid": {"max": 40.0, "count": 16001},
               "reference": "vacuum", "probe": {"mode_index": 0}},
        "tolerances": {"identity": 1e-10, "kk_rel": 2e-3},
    })
    assert cli.main(["modes", "--config", cfg]) == 0


def test_kk_green_estimate_flags_a_coarse_nu_grid(tmp_path, capsys):
    # the shipped modes config at 41 nu nodes: the reconstruction is off by
    # 87%, and the grid-halving term reads 0.19 of |direct| (1.1e-6 at the
    # shipped 64,001 nodes), with no warning
    cfg = json.loads((ROOT / "configs" / "modes.json").read_text())
    cfg["kk"]["nu_grid"]["count"] = 41
    out = tmp_path / "report.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["modes", "--config", _write(tmp_path, "modes.json", cfg),
                         "--out", str(out)]) == 1
    (row,) = [r for r in _rows(out) if r["check_id"] == "kk_green"]
    assert row["pass"] == "false" and float(row["measured"]) > 0.5
    assert float(row["error_estimate"]) > 0.1


def test_summary_states_bound_and_estimate(capsys):
    # a norm bound is compared with its bound, not with its tolerance
    report = cli.Report()
    report.add("norm_bound_dispersive", {}, 2.5, 3.0, 1e-8, True, 1e-12)
    report.zero("reciprocity", {}, 2e-13, 1e-12)
    report.print_summary()
    assert capsys.readouterr().err.splitlines() == [
        "[PASS] norm_bound_dispersive: measured 2.5, bound 3, tolerance 1e-08, estimate 1e-12",
        "[PASS] reciprocity: measured 2e-13, bound 0, tolerance 1e-12, estimate 0",
        "2/2 checks passed",
    ]


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("field", ["measured", "bound", "estimate"])
def test_report_refuses_a_row_that_is_not_finite(field, value):
    # a row built on an overflowed value certifies nothing: DomainError, no row
    report = cli.Report()
    row = {"measured": 2.5, "bound": 3.0, "estimate": 1e-12, field: value}
    with pytest.raises(DomainError, match="not finite"):
        report.add("norm_bound_dispersive", {}, row["measured"], row["bound"], 1e-8, True,
                   row["estimate"])
    if field != "bound":  # a zero row's bound is 0
        with pytest.raises(DomainError, match="not finite"):
            report.zero("reciprocity", {}, row["measured"], 1e-12, row["estimate"])
    assert report.rows == []


@pytest.mark.parametrize("z", [{"im": 5.0}, {"re": 3.0, "im": 0.5}], ids=["axis", "near_mode"])
def test_truncation_tail_estimate_bounds_its_rounding(tmp_path, capsys, z):
    # the estimate covers the distance of |partial - direct| to both mode
    # sums in extended precision, and is far below the tail bound it gates on
    cfg = _write(tmp_path, "modes.json", {"grid": {"L": 1.0, "N": 64}, "eps_const": 2.0,
                                          "z": z, "truncation_M": 32})
    out = tmp_path / "report.csv"
    assert cli.main(["modes", "--config", cfg, "--out", str(out)]) == 0
    (row,) = [r for r in _rows(out) if r["check_id"] == "truncation_tail"]
    modes = sp.cavity_modes(hh.Grid1D(L=1.0, N=64), 2.0)
    phi = modes.modes.astype(np.longdouble)
    terms = phi / (np.clongdouble(complex(z.get("re", 0.0), z["im"])) ** 2
                   - modes.omegas.astype(np.longdouble) ** 2)
    reference = np.max(np.abs(terms[:, 32:] @ phi[:, 32:].T))
    estimate = float(row["error_estimate"])
    assert abs(float(row["measured"]) - float(reference)) <= estimate
    assert estimate <= 1e-6 * float(row["bound"])


def test_causality_command(tmp_path, medium, capsys):
    cfg = _write(tmp_path, "caus.json", {
        "medium": medium,
        "grid": {"L": 1.0, "N": 32},
        "x": 0.5,
        "contour": {"eta": 0.1, "omega_max": 300.0, "n_points": 100000},
        "contour_negative": {"eta": 12.0, "omega_max": 300.0, "n_points": 100000},
        "source": {"omega_s": 1.0, "center": 0.3, "width": 0.06},
        "x_index": 23,
        "taper": 16.0,
        "t_negative": [-3.0, -1.0],
        "t_positive": [0.5, 1.0, 2.0],
    })
    assert cli.main(["causality", "--config", cfg]) == 0


def test_causality_rejects_nonnegative_t(tmp_path, medium, capsys):
    cfg = _write(tmp_path, "caus.json", {
        "medium": medium,
        "grid": {"L": 1.0, "N": 32},
        "contour": {"eta": 0.1, "omega_max": 300.0, "n_points": 100000},
        "source": {"omega_s": 1.0, "center": 0.3, "width": 0.06},
        "t_negative": [0.5],
    })
    assert cli.main(["causality", "--config", cfg]) == 2


def test_analyticity_command_with_negative_control(tmp_path, medium, capsys):
    cfg = _write(tmp_path, "ana.json", {
        "medium": medium,
        "grid": {"L": 1.0, "N": 32},
        "probe": {"gaussian": {"center": 0.5, "width": 0.1}},
        "loops": [
            {"kind": "z", "z_lo": {"re": 0.5, "im": 0.5}, "z_hi": {"re": 2.0, "im": 1.5}},
            {"kind": "conj_witness", "z_lo": {"re": 0.5, "im": 0.5},
             "z_hi": {"re": 2.0, "im": 1.5}, "expect": "fail"},
        ],
    })
    out = tmp_path / "ana.csv"
    assert cli.main(["analyticity", "--config", cfg, "--out", str(out)]) == 0
    rows = out.read_text().splitlines()[1:]
    # the negative control row is reported as passing because it failed
    assert any("expect" in row and ",true," in row for row in rows)


def test_analyticity_loop_touching_real_axis_exits_2(tmp_path, medium, capsys):
    cfg = _write(tmp_path, "ana.json", {
        "medium": medium,
        "grid": {"L": 1.0, "N": 32},
        "loops": [{"kind": "z", "z_lo": {"re": 0.5, "im": -0.1},
                   "z_hi": {"re": 2.0, "im": 1.5}}],
    })
    assert cli.main(["analyticity", "--config", cfg]) == 2


ROOT = Path(__file__).resolve().parents[1]


def _workloads():
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["causal_contour", "kk_sweep", "operator_sweep"])
def test_benchmark_media_load(tmp_path, workload):
    # the benchmark's generator writes "unit_system": "normalized" into every medium
    _workloads().generate(workload, 1, tmp_path)
    media = sorted(tmp_path.glob("*.medium.json"))
    assert media
    for path in media:
        assert json.loads(path.read_text())["unit_system"] == "normalized"
        assert dispersion.load_medium(str(path)).layers


def _bench_config(tmp_path, workload, seed, command=None):
    """The shipped config of `command`, by default the one command of
    `workload` (seed None), or the benchmark's generated one for `seed`,
    with its medium path made absolute."""
    if command is None:
        (command,) = _workloads().WORKLOADS[workload]
    if seed is None:
        base = ROOT
        cfg = json.loads((base / "configs" / f"{command}.json").read_text())
    else:
        base = tmp_path
        jobs = _workloads().generate(workload, seed, tmp_path)
        job = next(job for job in jobs if job.command == command)
        cfg = json.loads((tmp_path / job.config).read_text())
    cfg["medium"] = str(base / cfg["medium"])
    return _write(tmp_path, f"{command}.json", cfg)


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.mark.parametrize("seed", [None, 1, 2, 3])
def test_causality_estimates_cover_measured_errors(tmp_path, capsys, seed):
    # every row measures an error: the negative-time values and the
    # imaginary part of the x-operator coefficient are 0 in exact arithmetic
    out = tmp_path / "report.csv"
    assert cli.main(["causality", "--config", _bench_config(tmp_path, "causal_contour", seed),
                     "--out", str(out)]) == 0
    rows = _rows(out)
    assert len(rows) == 4
    for row in rows:
        assert row["pass"] == "true"
        assert float(row["error_estimate"]) >= float(row["measured"])


@pytest.mark.parametrize("seed", [None, 1, 2, 3])
def test_kk_eps_estimates_cover_closed_form_errors(tmp_path, capsys, seed):
    # kk_round_trip measures the error against the closed-form eps, and
    # sum_rule the error against chi_dot_at_zero, both relative
    out = tmp_path / "report.csv"
    assert cli.main(["kk_eps", "--config", _bench_config(tmp_path, "kk_sweep", seed),
                     "--out", str(out)]) == 0
    rows = _rows(out)
    assert len(rows) == 402
    for row in rows:
        assert row["pass"] == "true"
        if row["check_id"] == "passivity_sweep":
            assert float(row["error_estimate"]) > 0.0
        else:
            assert float(row["error_estimate"]) >= float(row["measured"])


def test_kk_eps_wide_grid_many_breakpoints(tmp_path, capsys):
    # 200 distinct Re z, each a breakpoint beside a near-pole 0.02 off the
    # axis: about 800 live intervals in the KK rule's third round
    cfg = dict(json.loads((ROOT / "configs" / "kk_eps.json").read_text()),
               medium=str(SLAB_PATH), passivity_samples=100)
    cfg["z_grid"] = dict(cfg["z_grid"], re_max=20.0, n_re=200, n_im=2)
    out = tmp_path / "report.csv"
    assert cli.main(["kk_eps", "--config", _write(tmp_path, "kk_eps.json", cfg),
                     "--out", str(out)]) == 0
    rows = _rows(out)
    assert len(rows) == 402
    for row in rows:
        assert row["pass"] == "true"
        if row["check_id"] != "passivity_sweep":
            assert float(row["error_estimate"]) >= float(row["measured"])


def test_causality_contours_sample_each_node_once_and_stop_early(tmp_path, capsys,
                                                                monkeypatch):
    invert = tr.laplace_invert
    runs = []

    def counted(sampler, contour, t_grid, taper=0.0):
        blocks = []

        def sampled(z):
            blocks.append(z.copy())
            return sampler(z)

        values, est = invert(sampled, contour, t_grid, taper)
        fixed, _ = oracles.laplace_invert(sampler, contour, t_grid, taper)
        runs.append((contour, blocks, values, est, fixed))
        return values, est

    monkeypatch.setattr(tr, "laplace_invert", counted)
    cfg = _bench_config(tmp_path, "causal_contour", None)
    assert cli.main(["causality", "--config", cfg]) == 0
    assert len(runs) == 6
    for contour, blocks, values, est, fixed in runs:
        z = np.concatenate(blocks)
        assert max(b.size for b in blocks) <= tr._BLOCK
        assert np.unique(z).size == z.size
        assert z.size <= (2049 if contour.eta == 12.0 else 65537)
        # the adaptive result lies within its own estimate of the fixed
        # 200k-node rule
        assert contour.n_points == 200000
        assert np.max(np.abs(values - fixed)) <= est


def _analyticity_rows(tmp_path, seed, n_points=None, code=0):
    """The non-witness rows of the shipped or generated `analyticity` run,
    with `n_points` Gauss-Legendre nodes per loop edge if given."""
    cfg = _bench_config(tmp_path, "operator_sweep", seed, "analyticity")
    if n_points is not None:
        obj = json.loads(Path(cfg).read_text())
        for loop in obj["loops"]:
            loop["n_points"] = n_points
        cfg = _write(tmp_path, "analyticity.json", obj)
    out = tmp_path / "report.csv"
    assert cli.main(["analyticity", "--config", cfg, "--out", str(out)]) == code
    rows = [r for r in _rows(out) if "expect" not in r["param_json"]]
    assert {r["check_id"] for r in rows} == {"analyticity_z", "analyticity_xi",
                                              "analyticity_zk"}
    return rows


# on seeds 2, 7 and 11 the zk loop's 48-node defect is Gauss-Legendre
# truncation (it falls geometrically with the nodes per edge), above the
# rounding bound alone
def test_analyticity_estimates_cover_shipped_defects(tmp_path, capsys):
    for seed in (None, 1, 2, 3, 7, 11, 23):
        work = tmp_path / str(seed)
        work.mkdir()
        for row in _analyticity_rows(work, seed):
            estimate = float(row["error_estimate"])
            assert estimate > 0.0 and estimate >= float(row["measured"]), (seed, row)


@pytest.mark.parametrize("seed", [None, 11])
def test_under_resolved_loop_estimate_covers_its_defect(tmp_path, capsys, seed):
    # at 24 nodes per edge the zk defect is truncation, above the 1e-8 gate
    for row in _analyticity_rows(tmp_path, seed, n_points=24, code=1):
        assert float(row["error_estimate"]) >= float(row["measured"])
        assert (row["pass"] == "false") == (row["check_id"] == "analyticity_zk")


def test_norm_bound_estimates_cover_an_mpmath_norm(tmp_path, capsys):
    # the estimate of every norm_bound row is > 0, and at the operator of
    # the shipped config with the largest one relative to its norm it covers
    # the distance to a 40-digit norm
    cfg = json.loads((ROOT / "configs" / "green.json").read_text())
    cfg["medium"] = str(ROOT / cfg["medium"])
    out = tmp_path / "report.csv"
    assert cli.main(["green", "--config", _write(tmp_path, "green.json", cfg),
                     "--out", str(out)]) == 0
    rows = [r for r in _rows(out) if r["check_id"].startswith("norm_bound_")]
    assert len(rows) == 2400
    assert all(float(r["error_estimate"]) > 0.0 for r in rows)
    worst = max(rows, key=lambda r: float(r["error_estimate"]) / float(r["measured"]))
    params = json.loads(worst["param_json"])
    kind = worst["check_id"].removeprefix("norm_bound_")
    xi = [complex(*params["xi"])] if "xi" in params else None
    grid = hh.Grid1D(L=1.0, N=64)
    model = dispersion.load_medium(cfg["medium"])
    rows_, index = hh.diagonal_rows(grid, model, kind, [complex(*params["z"])], xi=xi)
    (measured,), (estimate,) = hh.inverse_norm(grid, rows_, index)
    assert f"{measured:.12g}" == worst["measured"]
    reference = oracles.mp_inverse_norm(rows_[index, 0], 1.0 / grid.h**2)
    assert abs(measured - reference) <= estimate


def test_green_bisects_every_operator_in_one_batch(tmp_path, capsys, monkeypatch):
    # the 2,400 norm-grid operators of the shipped config go to one
    # inverse_norm call, whose every count runs on all of them; each bracket
    # stops once its half-width is within the count's rounding term
    # N eps (max|d| + 2/h^2), so each estimate is at most twice that term
    counts, calls = [], []
    count_below, inverse_norm = hh._count_below, hh.inverse_norm

    def counted(off, rows, index, s):
        counts.append(s.size)
        return count_below(off, rows, index, s)

    def recorded(grid, rows, index):
        calls.append((grid, rows, index, *inverse_norm(grid, rows, index)))
        return calls[-1][3:]

    monkeypatch.setattr(hh, "_count_below", counted)
    monkeypatch.setattr(hh, "inverse_norm", recorded)
    cfg = json.loads((ROOT / "configs" / "green.json").read_text())
    cfg["medium"] = str(ROOT / cfg["medium"])
    assert cli.main(["green", "--config", _write(tmp_path, "green.json", cfg)]) == 0
    assert len(calls) == 1
    assert 0 < len(counts) <= 44 and set(counts) == {2400}
    grid, rows, index, norms, estimates = calls[0]
    rounding = grid.N * np.finfo(float).eps * (
        np.max(np.abs(rows[np.unique(index)]), axis=0) + 2.0 / grid.h**2)
    assert np.all(estimates <= 2.0 * rounding * norms**2 * (1.0 + 1e-12))


def test_asymptotic_command(tmp_path, medium, capsys):
    cfg = _write(tmp_path, "asy.json", {
        "field": {"polarization": [1.0, 0.0, 0.0], "s": 1.0},
        "ladder": {"moduli": [10.0, 100.0, 1000.0], "theta": 1.5707963267948966},
        "resolvent_ray": {"medium": medium, "grid": {"L": 1.0, "N": 32},
                          "eta": 1.0, "omegas": [100.0]},
    })
    assert cli.main(["asymptotic", "--config", cfg]) == 0


def test_asymptotic_cap_uses_strongest_layer_across_vacuum_gap(tmp_path, capsys):
    # lorentz_double.json has vacuum at x = L/2; the cap must still come from
    # the layers: 1.5 * max(0.8^2 + 0.5^2, 1.2^2) = 2.16
    medium = str(Path(__file__).resolve().parents[1] / "media" / "lorentz_double.json")
    cfg = _write(tmp_path, "asy.json", {
        "field": {"polarization": [1.0, 0.0, 0.0], "s": 1.0},
        "ladder": {"moduli": [10.0, 100.0, 1000.0], "theta": 1.5707963267948966},
        "resolvent_ray": {"medium": medium, "grid": {"L": 1.0, "N": 64},
                          "eta": 1.0, "omegas": [10.0, 100.0, 1000.0]},
    })
    out = tmp_path / "report.csv"
    assert cli.main(["asymptotic", "--config", cfg, "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = [r for r in csv.DictReader(fh) if r["check_id"] == "resolvent_cap"]
    assert len(rows) == 3
    for row in rows:
        assert float(row["bound"]) == pytest.approx(2.16, rel=1e-12)
        assert row["pass"] == "true"


def _shipped_asymptotic(tmp_path, field, code):
    """The rows of the shipped asymptotic config with `field` merged into
    its field section, and the exit code checked."""
    cfg = json.loads((ROOT / "configs" / "asymptotic.json").read_text())
    cfg["field"].update(field)
    cfg["resolvent_ray"]["medium"] = str(ROOT / cfg["resolvent_ray"]["medium"])
    out = tmp_path / "report.csv"
    assert cli.main(["asymptotic", "--config", _write(tmp_path, "asy.json", cfg),
                     "--out", str(out)]) == code
    return out.read_text()


def test_asymptotic_subnormal_polarization_keeps_the_unit_verdict(tmp_path, capsys):
    # T(z) / ||phi||^2 does not depend on |p|: p = (1e-160, 0, 0), whose
    # ||phi||^2 is subnormal, writes the rows of p = (1, 0, 0), not defects of 0
    tiny = _shipped_asymptotic(tmp_path, {"polarization": [1e-160, 0.0, 0.0]}, 0)
    assert tiny == _shipped_asymptotic(tmp_path, {"polarization": [1.0, 0.0, 0.0]}, 0)


def test_asymptotic_overflowing_polarization_keeps_the_unit_verdict(tmp_path, capsys):
    # ||phi||^2 of p = (1e200, -3e200, 1e199) overflows; the ladder never
    # forms it and writes the rows of p = (1, -3, 0.1)
    huge = _shipped_asymptotic(tmp_path, {"polarization": [1e200, -3e200, 1e199]}, 0)
    assert huge == _shipped_asymptotic(tmp_path, {"polarization": [1.0, -3.0, 0.1]}, 0)


def _assert_finite_failing_verdict(csv_text):
    # the relative defect is the transverse share 2/3 of a centred field
    rows = [r for r in csv.DictReader(io.StringIO(csv_text))
            if r["check_id"].startswith("asymptotic_")]
    assert len(rows) == 4
    for row in rows:
        assert row["pass"] == "false"
        assert 0.0 < float(row["error_estimate"]) < 1e-12
        if row["check_id"] == "asymptotic_final":
            assert float(row["measured"]) == pytest.approx(2.0 / 3.0, rel=1e-10)


def test_asymptotic_large_width_gives_a_finite_failing_verdict(tmp_path, capsys):
    # at s = 1e100 the ladder's moduli are 1e-99 s to 1e-97 s
    _assert_finite_failing_verdict(_shipped_asymptotic(tmp_path, {"s": 1e100}, 1))


def test_asymptotic_overflowing_width_keeps_the_unit_verdict(tmp_path, capsys):
    # at s = 1e300 ||phi||^2 overflows; the unit ladder never forms it and
    # writes the same rows as at s = 1e100
    huge = _shipped_asymptotic(tmp_path, {"s": 1e300}, 1)
    _assert_finite_failing_verdict(huge)
    assert huge == _shipped_asymptotic(tmp_path, {"s": 1e100}, 1)


def test_asymptotic_far_centred_field_fails(tmp_path, capsys):
    # a transverse field centred at k_c = (1e8, 0, 0): its relative defect
    # is about 1 on the whole ladder, a failing final row, not a defect of 0
    text = _shipped_asymptotic(tmp_path, {"polarization": [0.0, 1.0, 0.0],
                                          "k_c": [1e8, 0.0, 0.0]}, 1)
    rows = [r for r in csv.DictReader(io.StringIO(text)) if r["check_id"] == "asymptotic_final"]
    assert len(rows) == 2
    for row in rows:
        assert row["pass"] == "false"
        assert float(row["measured"]) == pytest.approx(1.0, abs=1e-9)
        assert 0.0 < float(row["error_estimate"]) < 1e-12


def test_asymptotic_shallow_theta_exits_2(tmp_path, capsys):
    cfg = _write(tmp_path, "asy.json", {
        "field": {"polarization": [1.0, 0.0, 0.0]},
        "ladder": {"moduli": [10.0], "theta": 0.001},
    })
    assert cli.main(["asymptotic", "--config", cfg]) == 2


# ---------------------------------------------------------------------------
# malformed input: every probed value exits 2 with "error: ", never a traceback

SLAB_PATH = Path(__file__).resolve().parents[1] / "media" / "lorentz_slab.json"
SLAB = json.loads(SLAB_PATH.read_text())
_LOOP = {"z_lo": {"re": 0.5, "im": 0.5}, "z_hi": {"re": 2.0, "im": 1.5}, "n_points": 8}

# Small-size copies of the shipped configs/: the same keys, smaller grids and node counts.
SMALL = {
    "kk_eps": {
        "medium": str(SLAB_PATH), "x": 0.5,
        "z_grid": {"re_min": 0.0, "re_max": 5.0, "im_min": 0.02, "im_max": 5.0,
                   "n_re": 2, "n_im": 2},
        "passivity_samples": 100,
        "tolerances": {"kk_rel": 1e-6, "passivity_floor": 1e-12, "sum_rule_rel": 1e-8},
    },
    "green": {
        "medium": str(SLAB_PATH), "grid": {"L": 1.0, "N": 16}, "z": {"re": 0.0, "im": 1.0},
        "norm_grid": {"re_min": 0.1, "re_max": 5.0, "im_min": 0.1, "im_max": 5.0,
                      "n_re": 2, "n_im": 1},
        "xi_samples": 1,
        "tolerances": {"reciprocity": 1e-12, "schwarz": 1e-12, "norm_slack": 1e-8},
    },
    "modes": {
        "grid": {"L": 1.0, "N": 16}, "eps_const": 2.0, "z": {"re": 0.0, "im": 5.0},
        "truncation_M": 8,
        "kk": {"zeta": 0.01, "nu_grid": {"max": 40.0, "count": 401},
               "reference": "vacuum", "probe": {"mode_index": 0}},
        "tolerances": {"identity": 1e-10, "kk_rel": 1e-3},
    },
    "causality": {
        "medium": str(SLAB_PATH), "grid": {"L": 1.0, "N": 16}, "x": 0.5,
        "contour": {"eta": 0.1, "omega_max": 400.0, "n_points": 2049},
        "contour_negative": {"eta": 12.0, "omega_max": 400.0, "n_points": 2049},
        "source": {"omega_s": 1.0, "center": 0.3, "width": 0.05},
        "x_index": 11, "taper": 16.0, "t_negative": [-3.0, -1.0], "t_positive": [0.5, 2.0],
        "tolerances": {"suppression": 1e-6},
    },
    "analyticity": {
        "medium": str(SLAB_PATH), "grid": {"L": 1.0, "N": 16},
        "probe": {"gaussian": {"center": 0.5, "width": 0.1}},
        "loops": [
            {"kind": "z", **_LOOP},
            {"kind": "xi", "fixed_z": {"re": 0.0, "im": 1.0}, **_LOOP},
            {"kind": "zk", "bloch_k": {"re": 1.0, "im": 0.3}, **_LOOP},
            {"kind": "conj_witness", "expect": "fail", **_LOOP},
        ],
        "tolerances": {"defect": 1e-8, "witness_min": 1e-2},
    },
    "asymptotic": {
        "field": {"polarization": [1.0, 0.0, 0.0], "k_c": [0.0, 0.0, 0.0], "s": 1.0},
        "ladder": {"moduli": [10.0, 100.0], "theta": [1.5707963267948966]},
        "resolvent_ray": {"medium": str(SLAB_PATH), "grid": {"L": 1.0, "N": 16},
                          "eta": 1.0, "omegas": [100.0]},
        "tolerances": {"final_defect_rel": 1e-3, "cap_factor": 1.5},
    },
}
DROP = object()


def _replaced(obj, path, value):
    """A deep copy of `obj` with the value at `path`, if any, replaced
    (removed for DROP)."""
    out = copy.deepcopy(obj)
    if path:
        parent = out
        for key in path[:-1]:
            parent = parent[key]
        if value is DROP:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    return out


# where a medium target's slab medium sits: the command it runs, and the path
MEDIUM_TARGETS = {"medium": ("kk_eps", ("medium",)),
                  "ray_medium": ("asymptotic", ("resolvent_ray", "medium"))}


def _with_slab(obj):
    """A deep copy of `obj` with every path to the slab medium replaced by
    the medium's own tree, so a change can reach into it."""
    if isinstance(obj, dict):
        return {k: copy.deepcopy(SLAB) if v == str(SLAB_PATH) else _with_slab(v)
                for k, v in obj.items()}
    return copy.deepcopy(obj)


def _run_changes(tmp, command, changes):
    """Run `command` on SMALL[command], with the slab medium inline, after
    each (path, value) of `changes`; each inline medium is written to its
    own file first. Return the exit code."""
    cfg = _with_slab(SMALL[command])
    for path, value in changes:
        cfg = _replaced(cfg, path, value)
    for i, parent in enumerate([cfg, cfg.get("resolvent_ray")]):
        if isinstance(parent, dict) and isinstance(parent.get("medium"), dict):
            parent["medium"] = _write(tmp, f"medium{i}.json", parent["medium"])
    return cli.main([command, "--config", _write(tmp, "run.json", cfg),
                     "--out", str(tmp / "out.csv")])


def _run_case(tmp, target, path=(), value=DROP):
    """Run `target` (a command, or a `MEDIUM_TARGETS` key for a run on a
    changed slab medium) with the value at `path` replaced; return the exit
    code."""
    command, where = MEDIUM_TARGETS.get(target, (target, ()))
    return _run_changes(tmp, command, [(where + path, value)] if path else [])


_TWO_LAYERS = [{"interval": [0.0, 0.6]}, {"interval": [0.4, 1.0]}]


def _norm_grid(im_max):
    """SMALL["green"]'s norm grid with two imaginary parts, the top one im_max."""
    return {**SMALL["green"]["norm_grid"], "im_max": im_max, "n_im": 2}


MALFORMED = [
    ("green", ("grid", "N"), "x"),
    ("green", ("grid", "L"), "x"),
    ("green", ("z", "re"), "x"),
    ("green", ("z",), 5),
    ("green", ("xi_samples",), "x"),
    ("green", ("grid",), [1, 2]),
    ("green", ("grid", "bloch_k"), {"re": 3.0, "im": 1.0}),
    ("green", ("norm_grid",), "x"),
    ("green", ("grid", "L"), 1e-300),
    ("green", ("grid", "L"), 1e300),
    ("green", ("norm_grid",), _norm_grid(1e200)),
    ("green", ("norm_grid",), _norm_grid(1e160)),
    ("green", ("norm_grid",), _norm_grid(1e100)),
    ("green", ("z", "im"), 1e200),
    ("green", ("norm_grid", "im_min"), 5e-324),
    ("modes", ("eps_const",), "x"),
    ("modes", ("truncation_M",), "x"),
    ("modes", ("truncation_M",), 16),
    ("modes", ("kk", "zeta"), [0.01]),
    ("modes", ("kk", "nu_grid", "count"), DROP),
    ("modes", ("kk", "nu_grid", "count"), 1),
    ("modes", ("kk", "nu_grid", "count"), 400),
    ("modes", ("kk", "probe"), {"mode_index": 99}),
    ("modes", ("kk", "nu_grid", "max"), -40.0),
    ("modes", ("kk", "nu_grid", "max"), 0.0),
    ("modes", ("eps_const",), 1e300),
    ("modes", ("z", "re"), 1e200),
    ("modes", ("kk", "nu_grid", "max"), 1e300),
    ("modes", ("kk", "zeta"), 1e300),
    ("modes", ("z", "im"), 1.3e77),
    ("modes", ("eps_const",), 5e-324),
    ("causality", ("source", "center"), DROP),
    ("causality", ("x_index",), 99),
    ("causality", ("contour", "n_points"), "x"),
    ("causality", ("contour", "n_points"), 2048),
    ("causality", ("contour_negative", "n_points"), 2048),
    ("causality", ("source", "center"), 5.0),
    ("causality", ("x",), 5.0),
    ("causality", ("x",), -0.5),
    ("causality", ("taper",), "x"),
    ("causality", ("taper",), -16),
    ("causality", ("t_negative", 1), "y"),
    ("causality", ("t_positive",), []),
    ("causality", ("contour", "rule"), "trapezoid"),
    ("causality", ("grid", "boundary"), "bloch"),
    ("causality", ("source", "width"), 1e300),
    ("causality", ("source", "width"), 1e-300),
    ("causality", ("t_positive",), [0.5, 10000.0]),
    ("causality", ("t_positive",), [1e300]),
    ("causality", ("contour", "omega_max"), 1e300),
    ("analyticity", ("loops",), 3),
    ("analyticity", ("loops", 0, "n_points"), "x"),
    ("analyticity", ("loops", 0, "z_lo", "re"), "x"),
    ("analyticity", ("loops", 2, "bloch_k", "im"), "x"),
    ("analyticity", ("probe",), {"point_index": 99}),
    ("analyticity", ("probe", "gaussian", "center"), 5.0),
    ("analyticity", ("loops", 1, "fixed_z", "im"), -1.0),
    ("analyticity", ("loops", 1, "fixed_z", "im"), 0.0),
    ("analyticity", ("grid", "boundary"), "bloch"),
    ("analyticity", ("loops", 0, "z_hi"), {"re": 1e300, "im": 1e300}),
    ("analyticity", ("probe", "gaussian", "width"), 1e300),
    ("analyticity", ("probe", "gaussian", "width"), 1e-300),
    ("asymptotic", ("field", "polarization", 2), "y"),
    ("asymptotic", ("field", "k_c"), [0.0, 0.0]),
    ("asymptotic", ("field", "s"), "x"),
    ("asymptotic", ("field", "polarization"), [0.0, 0.0, 0.0]),
    ("asymptotic", ("field", "s"), -1.0),
    ("asymptotic", ("field", "s"), 1e-300),
    ("asymptotic", ("field", "k_c"), [1e200, 0.0, 0.0]),
    ("asymptotic", ("ladder", "moduli"), []),
    ("asymptotic", ("ladder", "theta"), "x"),
    ("asymptotic", ("resolvent_ray", "omegas"), 5),
    ("asymptotic", ("resolvent_ray", "eta"), "x"),
    ("asymptotic", ("resolvent_ray", "eta"), 1e200),
    ("asymptotic", ("resolvent_ray", "eta"), 1e-300),
    ("asymptotic", ("resolvent_ray", "eta"), 1e-160),
    ("asymptotic", ("resolvent_ray", "omegas"), [1e200]),
    ("kk_eps", ("z_grid", "re_max"), 1e200),
    ("kk_eps", ("z_grid", "re_min"), 1e150),
    # an array larger than any address space: the allocation fails at once
    ("kk_eps", ("passivity_samples",), 10**17),
    ("medium", ("layers",), 5),
    ("medium", ("layers",), [5]),
    ("medium", ("layers", 0, "lorentz"), [5]),
    ("medium", ("layers", 0, "lorentz"), {"wp": 1.0}),
    ("medium", ("unit_system",), ["si"]),
    ("medium", ("unit_system",), "si"),
    ("medium", ("layers",), _TWO_LAYERS),
    ("medium", ("layers", 0, "gap_nu0"), 3.5),
    ("medium", ("layers", 0, "lorentz", 0, "wp"), 1e160),
    ("ray_medium", ("layers", 0, "lorentz", 0, "wp"), 1.07e301),
]


def _case_id(case):
    target, path, value = case
    shown = "drop" if value is DROP else json.dumps(value)
    return f"{target}:{'.'.join(map(str, path))}={shown}"


@pytest.mark.parametrize("case", MALFORMED, ids=[_case_id(c) for c in MALFORMED])
def test_malformed_input_exits_2(tmp_path, capsys, case):
    # with warnings as errors: a numpy warning would be a second stderr line
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _run_case(tmp_path, *case) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_z_squared_times_eps_past_the_float_range_exits_2(tmp_path, capsys):
    # z^2 = -1e10 and eps = 1e300 are finite, their product in the operator
    # diagonal is not: one error line, and no warning first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _run_changes(tmp_path, "green", [(("medium", "background_epsilon"), 1e300),
                                                (("z", "im"), 1e5)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_contour_growth_past_the_float_range_exits_2(tmp_path, capsys):
    # exp(eta t) at eta = 12, t = 100 overflows: one error line before any inversion
    cfg = _replaced(SMALL["causality"], ("contour", "eta"), 12.0)
    cfg["t_positive"] = [0.5, 100.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["causality", "--config", _write(tmp_path, "run.json", cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("im_max", [1e60, 1.9e78, 2e78, 1e200])
def test_green_writes_no_row_with_a_non_finite_estimate(tmp_path, capsys, im_max):
    # up to |z| ~ 1.9e78 (N = 16) the norm grid gets finite rows; past it the
    # Sturm count's pivot floor, and past ~1.3e154 z^2, overflows: exit 2, no CSV
    out = tmp_path / "out.csv"
    cfg = _write(tmp_path, "run.json", {**SMALL["green"], "norm_grid": _norm_grid(im_max)})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["green", "--config", cfg, "--out", str(out)])
    if im_max < 2e78:
        assert code == 0
        rows = _rows(out)
        assert len(rows) == 2 + 4 * 2
        for row in rows:
            assert all(np.isfinite(float(row[key]))
                       for key in ("measured", "bound", "error_estimate"))
    else:
        assert code == 2 and not out.exists()
        assert capsys.readouterr().err.count("\n") == 1


def _fresh_env():
    """The environment of a fresh interpreter that imports this helmgreen."""
    env = dict(os.environ)
    src = str(Path(helmgreen.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_overflowing_loop_corner_prints_one_line_in_a_fresh_interpreter(tmp_path):
    # z^2 overflows at the corner 1e300 + 1e300i; outside pytest's warning
    # capture, stderr holds the error line alone
    cfg = _replaced(SMALL["analyticity"], ("loops", 0, "z_hi"), {"re": 1e300, "im": 1e300})
    run = subprocess.run([sys.executable, "-m", "helmgreen.cli", "analyticity", "--config",
                          _write(tmp_path, "run.json", cfg)], env=_fresh_env(),
                         capture_output=True, text=True)
    assert run.returncode == 2
    assert run.stderr.startswith("error: ") and run.stderr.count("\n") == 1


def test_asymptotic_field_centred_at_the_range_top_warns_nothing(tmp_path):
    # k_c = (1e77, 0, 0) squares a = r|c|/sigma^2 ~ 2e154 past the float range;
    # in a fresh interpreter with warnings as errors the run writes its failing
    # verdict, and stderr holds the summary alone
    cfg = json.loads((ROOT / "configs" / "asymptotic.json").read_text())
    cfg["field"].update({"polarization": [0.0, 1.0, 0.0], "k_c": [1e77, 0.0, 0.0]})
    cfg["resolvent_ray"]["medium"] = str(ROOT / cfg["resolvent_ray"]["medium"])
    out = tmp_path / "report.csv"
    run = subprocess.run([sys.executable, "-W", "error", "-m", "helmgreen.cli", "asymptotic",
                          "--config", _write(tmp_path, "asy.json", cfg), "--out", str(out)],
                         env=_fresh_env(), capture_output=True, text=True)
    assert run.returncode == 1
    *rows, summary = run.stderr.splitlines()
    assert all(line.startswith(("[PASS] ", "[FAIL] ")) for line in rows)
    assert summary == "3/7 checks passed"
    finals = [r for r in _rows(out) if r["check_id"] == "asymptotic_final"]
    assert len(finals) == 2
    for row in finals:
        assert row["pass"] == "false"
        assert float(row["measured"]) == pytest.approx(1.0, abs=1e-9)


# A Gaussian of width 0 is 0 at every grid point, after a divide-by-zero
# warning, and a negative width is no width: both stop the run at config
# reading, before any numerical work and with no warning.
NONPOSITIVE_WIDTHS = [
    ("causality", ("source", "width"), 0.0),
    ("causality", ("source", "width"), -0.05),
    ("analyticity", ("probe", "gaussian", "width"), 0.0),
]


@pytest.mark.parametrize("case", NONPOSITIVE_WIDTHS,
                         ids=[_case_id(c) for c in NONPOSITIVE_WIDTHS])
def test_nonpositive_width_exits_2_with_one_error_line(tmp_path, capsys, case):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _run_case(tmp_path, *case) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["kk_eps", "green"])
@pytest.mark.parametrize("seed", ["-1", str(2**64), "x"])
def test_seed_outside_u64_exits_2(tmp_path, capsys, command, seed):
    cfg = _write(tmp_path, "run.json", SMALL[command])
    with pytest.raises(SystemExit) as info:
        cli.main([command, "--config", cfg, "--seed", seed])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "error: argument --seed" in err and "Traceback" not in err


def test_largest_u64_seed_runs(tmp_path, capsys):
    cfg = _write(tmp_path, "run.json", SMALL["kk_eps"])
    assert cli.main(["kk_eps", "--config", cfg, "--seed", str(2**64 - 1)]) in (0, 1)


@pytest.mark.parametrize("out", ["missing/out.csv", "."], ids=["missing_dir", "a_directory"])
def test_unwritable_out_exits_2_before_any_work(tmp_path, capsys, monkeypatch, out):
    cfg = _write(tmp_path, "run.json", SMALL["kk_eps"])

    def no_work(*args):
        raise AssertionError("config read before the --out check")

    monkeypatch.setattr(cli.config, "load", no_work)
    with pytest.raises(SystemExit) as info:
        cli.main(["kk_eps", "--config", cfg, "--out", str(tmp_path / out)])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "error: argument --out" in err and "Traceback" not in err


def test_failed_sidecar_write_exits_2(tmp_path, capsys):
    cfg = _write(tmp_path, "run.json", SMALL["green"])
    out = tmp_path / "green.csv"
    (tmp_path / "green.csv.green.csv").mkdir()
    assert cli.main(["green", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot write")


@pytest.mark.parametrize("probe, expect", [
    ({"gaussian": {"center": 0.3, "width": 0.05}}, lambda g: sp.gaussian_probe(g, 0.3, 0.05)),
    ({"point_index": 5}, lambda g: sp.point_probe(g, 5)),
], ids=["gaussian", "point"])
def test_zk_loop_uses_configured_probe_on_bloch_grid(tmp_path, capsys, monkeypatch,
                                                     probe, expect):
    k = 1.0 + 0.3j
    cfg = {**SMALL["analyticity"], "probe": probe,
           "loops": [{"kind": "zk", "bloch_k": {"re": k.real, "im": k.imag},
                      "z_lo": _LOOP["z_lo"], "z_hi": _LOOP["z_hi"], "n_points": 48}]}
    seen = []
    solve = _kernels.cyclic_tridiag_solve

    def keep_systems(dl, d, du, wrap_lo, wrap_hi, b):
        seen.append((d.shape, wrap_lo, wrap_hi, np.array(b)))
        return solve(dl, d, du, wrap_lo, wrap_hi, b)

    monkeypatch.setattr(_kernels, "cyclic_tridiag_solve", keep_systems)
    assert cli.main(["analyticity", "--config", _write(tmp_path, "run.json", cfg)]) == 0
    # one solve per loop edge, each over the edge's 48 nodes, then one per
    # edge of the 96-node pass of the truncation estimate
    bgrid = hh.Grid1D(L=1.0, N=16, boundary="bloch", bloch_k=k)
    assert [shape for shape, *_ in seen] == [(bgrid.N, 48)] * 4 + [(bgrid.N, 96)] * 4
    for (_, nodes), wrap_lo, wrap_hi, b in seen:
        # the wrap entries and the probe of the Bloch grid, whose h is L/N
        assert wrap_lo == pytest.approx(np.exp(1j * k * bgrid.L) / bgrid.h**2, rel=1e-15)
        assert wrap_hi == pytest.approx(np.exp(-1j * k * bgrid.L) / bgrid.h**2, rel=1e-15)
        assert np.array_equal(b, np.repeat(expect(bgrid)[:, None], nodes, axis=1))


def test_batched_zk_sampler_matches_per_node_reference(tmp_path, capsys, monkeypatch):
    """The shipped zk loop's one-solve-per-edge sampler against a cyclic
    solve of each node on its own and a dense numpy solve, node by node."""
    worst = []
    build = sp._bloch_sampler

    def compared(model, bgrid, bprobe):
        batched = build(model, bgrid, bprobe)
        corners = hh._bloch_corners(model, bgrid)
        off = np.full(bgrid.N - 1, 1.0 / bgrid.h**2, dtype=complex)

        def coefficient(x):
            return bgrid.h * np.vdot(bprobe, x)

        def sampler(z_nodes):
            got = batched(z_nodes)
            ref = np.empty_like(got)
            for i, z in enumerate(z_nodes):
                diag = hh.diagonal_batch(bgrid, model, "bloch", [z])[0]
                ref[i] = coefficient(_kernels.cyclic_tridiag_solve(
                    off, diag, off, *corners, bprobe))
                # the dense solve is as accurate as the conditioning allows:
                # the two agree to cond(A) u, not to the 1e-13 of the same
                # arithmetic
                dense = oracles.dense_operator(bgrid, diag, corners)
                oracle = coefficient(np.linalg.solve(dense, bprobe))
                cond = np.linalg.cond(dense)
                assert abs(got[i] - oracle) <= cond * np.finfo(float).eps * abs(oracle)
            worst.append(float(np.max(np.abs(got - ref) / np.abs(ref))))
            return got
        return sampler

    monkeypatch.setattr(sp, "_bloch_sampler", compared)
    monkeypatch.chdir(ROOT)
    out = tmp_path / "analyticity.csv"
    assert cli.main(["analyticity", "--config", "configs/analyticity.json",
                     "--out", str(out)]) == 0
    # four edges of the 48-node pass and four of the 96-node one
    assert len(worst) == 8 and max(worst) <= 1e-13


def test_zk_periodicity_checked_before_any_loop_samples(tmp_path, capsys, monkeypatch):
    medium = {**SLAB, "layers": [{**SLAB["layers"][0], "interval": [0.2, 1.2]}]}
    cfg = {**SMALL["analyticity"], "medium": _write(tmp_path, "medium.json", medium),
           "loops": [{"kind": "z", **_LOOP},
                     {"kind": "zk", "bloch_k": {"re": 1.0, "im": 0.3}, **_LOOP}]}
    sweeps = []
    sweep = _kernels.tridiag_bilinear_batch
    monkeypatch.setattr(_kernels, "tridiag_bilinear_batch",
                        lambda *args: sweeps.append(1) or sweep(*args))
    assert cli.main(["analyticity", "--config", _write(tmp_path, "run.json", cfg)]) == 2
    assert "unit cell" in capsys.readouterr().err
    assert sweeps == []


@pytest.mark.parametrize("with_zk", [True, False], ids=["zk", "no_zk"])
def test_layer_outside_unit_cell_stops_only_a_zk_run(tmp_path, with_zk):
    # the medium layer [0.5, 1.5] leaves the Bloch unit cell [0, 1]; only a
    # zk loop runs on the Bloch grid, and its periodicity check is a domain
    # error, reported on one line by a fresh interpreter
    medium = {**SLAB, "layers": [{**SLAB["layers"][0], "interval": [0.5, 1.5]}]}
    loops = [{**loop, "n_points": 48} for loop in SMALL["analyticity"]["loops"]
             if with_zk or loop["kind"] != "zk"]
    cfg = {**SMALL["analyticity"], "medium": _write(tmp_path, "medium.json", medium),
           "loops": loops}
    env = _fresh_env()
    run = subprocess.run([sys.executable, "-m", "helmgreen.cli", "analyticity", "--config",
                          _write(tmp_path, "run.json", cfg)], env=env, capture_output=True,
                         text=True)
    assert "Traceback" not in run.stderr
    if with_zk:
        assert run.returncode == 2
        assert run.stderr.startswith("error: ") and "outside the unit cell" in run.stderr
        assert run.stderr.count("\n") == 1
    else:
        assert run.returncode == 0
        assert "3/3 checks passed" in run.stderr


def test_overlapping_layers_error_names_both(tmp_path, capsys):
    assert _run_case(tmp_path, "medium", ("layers",), _TWO_LAYERS) == 2
    err = capsys.readouterr().err
    assert "layers[0]" in err and "layers[1]" in err


def _leaves(obj, path=(), kind=object):
    """The paths to the leaves of `obj` that are instances of `kind`."""
    if isinstance(obj, (dict, list)):
        pairs = obj.items() if isinstance(obj, dict) else enumerate(obj)
        return [leaf for key, val in pairs for leaf in _leaves(val, path + (key,), kind)]
    return [path] if isinstance(obj, kind) else []


BAD_VALUES = st.one_of(
    st.text("x1.", max_size=3), st.booleans(), st.none(),
    st.lists(st.integers(-2, 2), max_size=3),
    st.dictionaries(st.sampled_from(["re", "im", "x"]), st.integers(-2, 2), max_size=2),
    st.integers(-5, -1), st.floats(-10.0, -0.01),
    st.floats(0.01, 10.0).filter(lambda v: not v.is_integer()),
)
TARGETS = {target: _leaves(obj) for target, obj in [*SMALL.items(), ("medium", SLAB)]}


@pytest.mark.parametrize("target", sorted(TARGETS))
def test_small_configs_run(tmp_path, capsys, target):
    # the starting points of the property test below run to a report
    assert _run_case(tmp_path, target) in (0, 1)


@given(data=st.data())
def test_property_one_bad_leaf_never_raises(data):
    target = data.draw(st.sampled_from(sorted(TARGETS)))
    path = data.draw(st.sampled_from(TARGETS[target]))
    value = data.draw(BAD_VALUES)
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
        code = _run_case(Path(tmp), target, path, value)
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().startswith("error: ")


# 0, the subnormal floor, the edges of the square's and the float range,
# and log-uniform magnitudes of either sign
EXTREME_FLOATS = st.one_of(
    st.sampled_from([0.0, 1e-300, -1e-300, 5e-324, 1e77, 1.3e77, 1e154, 1e300, -1e300]),
    st.builds(lambda negative, exponent: (-1.0 if negative else 1.0) * 10.0**exponent,
              st.booleans(), st.floats(-323.0, 308.0)),
)
# the float leaves of each command's config and its inline slab medium (the
# integer leaves are counts and indexes)
FLOAT_LEAVES = {command: _leaves(_with_slab(cfg), kind=float) for command, cfg in SMALL.items()}


@settings(max_examples=max(300, settings.default.max_examples))
@given(data=st.data())
def test_contract_holds_for_extreme_floats(data):
    # the exit-code contract with one or two float leaves set past the usual
    # range: exit 0, 1 or 2, one error line on exit 2, no warning, and on
    # exit 0 or 1 a finite value in every row
    command = data.draw(st.sampled_from(sorted(FLOAT_LEAVES)))
    paths = data.draw(st.permutations(FLOAT_LEAVES[command]))[:data.draw(st.integers(1, 2))]
    changes = [(path, data.draw(EXTREME_FLOATS)) for path in paths]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = _run_changes(Path(tmp), command, changes)
        rows = [] if code == 2 else _rows(Path(tmp) / "out.csv")
    assert [str(w.message) for w in caught] == []
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    for row in rows:
        assert all(math.isfinite(float(row[key]))
                   for key in ("measured", "bound", "tolerance", "error_estimate"))


_SCIPY_PROBE = """
import json, sys
def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
import helmgreen.cli as cli
seen = [loaded()]
for command, cfg in json.loads(sys.argv[1]):
    code = cli.main([command, "--config", cfg, "--out", cfg + ".csv"])
    seen.append([code, loaded()])
import scipy.integrate
seen.append(loaded())
print(json.dumps(seen))
"""


def test_no_command_imports_scipy(tmp_path):
    # a fresh interpreter, since this one has scipy loaded by other tests
    runs = [(command, _write(tmp_path, f"{command}.json", cfg)) for command, cfg in SMALL.items()]
    env = _fresh_env()
    out = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, json.dumps(runs)], env=env,
                         capture_output=True, text=True, check=True).stdout
    after_import, *after_commands, after_scipy = json.loads(out)
    # the probe sees scipy once it is imported (scipy is in the test extra)
    assert "scipy.integrate" in after_scipy
    assert after_import == []
    assert len(after_commands) == len(SMALL) == 6
    for (command, _), (code, loaded) in zip(runs, after_commands):
        assert code in (0, 1), command
        assert loaded == [], command
