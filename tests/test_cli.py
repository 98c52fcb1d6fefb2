import csv
import json
from pathlib import Path

import pytest

from helmgreen import cli


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
        {"interval": [0.25, 0.75], "lines": [{"nu": 4.0, "weight": 1.0}], "gap_nu0": 3.5}
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


def test_asymptotic_shallow_theta_exits_2(tmp_path, capsys):
    cfg = _write(tmp_path, "asy.json", {
        "field": {"polarization": [1.0, 0.0, 0.0]},
        "ladder": {"moduli": [10.0], "theta": 0.001},
    })
    assert cli.main(["asymptotic", "--config", cfg]) == 2


def test_bad_hg_threads_exits_2(tmp_path, medium, monkeypatch, capsys):
    monkeypatch.setenv("HG_THREADS", "zero")
    cfg = _kk_config(tmp_path, medium)
    assert cli.main(["kk_eps", "--config", cfg]) == 2


def test_hg_threads_accepted(tmp_path, medium, monkeypatch, capsys):
    monkeypatch.setenv("HG_THREADS", "2")
    cfg = _kk_config(tmp_path, medium)
    assert cli.main(["kk_eps", "--config", cfg]) == 0
