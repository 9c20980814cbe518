import csv
import json

import numpy as np
import pytest

from mp_reference import coefficient_mp
from tourney import cli, svgplot
from tourney.equilibrium import ConcavityWarning


def _write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


EXP_SCENARIO = {
    "distribution": {"family": "exponential", "params": {"rate": 1.0}},
    "n": 2,
    "schedule": "optimal",
    "cost": {"kappa": 1.0, "beta": 2.0},
    "montecarlo": {"draws": 100000, "seed": 11},
}

HEAVY_SCENARIO = {
    "distribution": {"family": "erf_exponential"},
    "n": 3,
    "schedule": "optimal",
    "montecarlo": {"draws": 100000, "seed": 12},
}


def test_solve_exponential(tmp_path):
    cfg = _write(tmp_path, "cfg.json", EXP_SCENARIO)
    out = tmp_path / "sol.json"
    assert cli.main(["solve", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["threshold"] == 0.0
    assert doc["effort"] == pytest.approx(0.5, abs=1e-9)
    assert doc["regime"] == "tie"
    assert doc["pass_probability"] == 1.0


def test_solve_heavy_tail_eps(tmp_path):
    cfg = _write(tmp_path, "cfg.json", HEAVY_SCENARIO)
    out = tmp_path / "sol.json"
    with pytest.warns(ConcavityWarning, match="gains"):
        assert cli.main(["prizes", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["regime"] == "EPS"
    assert doc["pass_probability"] == 1.0
    assert doc["effort"] == pytest.approx(2 / 3, abs=1e-9)


def test_prizes_normal_mode_at_median(tmp_path):
    # the mode sits on the median
    loc, scale = -1.4857191889232015, 1.0246750380980518
    scenario = {"distribution": {"family": "normal", "params": {"loc": loc, "scale": scale}}, "n": 10}
    out = tmp_path / "sol.json"
    assert cli.main(["prizes", "--config", _write(tmp_path, "cfg.json", scenario), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    z = (doc["threshold"] - loc) / scale
    for r in (1, 5, 9):
        exact = coefficient_mp("normal", 10, r, z) / (scale * r)
        assert doc["rank_scores"][r - 1] == pytest.approx(exact, abs=1e-9)


def test_prizes_puts_the_standard_at_a_higher_mode(tmp_path):
    # red noise, n = 3: winner-take-all at the upper mode 1.0, above the global mode 0.5
    scenario = {"distribution": {"family": "trimodal_example", "params": {"variant": "red"}}, "n": 3}
    out = tmp_path / "sol.json"
    assert cli.main(["prizes", "--config", _write(tmp_path, "cfg.json", scenario), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert (doc["threshold"], doc["regime"]) == (1.0, "WTA")


def test_solve_inverse_exponential_at_mode(tmp_path):
    scenario = {"distribution": {"family": "inverse_exponential"}, "n": 3, "schedule": "wta"}
    out = tmp_path / "sol.json"
    assert cli.main(["solve", "--config", _write(tmp_path, "cfg.json", scenario), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["threshold"] == pytest.approx(0.5, abs=1e-7)
    b1 = coefficient_mp("inverse_exponential", 3, 1, doc["threshold"])
    assert doc["marginal_benefit"] == pytest.approx(b1, abs=1e-9)


def test_solve_rejects_bad_budget(tmp_path, capsys):
    cfg = _write(tmp_path, "cfg.json", {**EXP_SCENARIO, "n": 3, "schedule": [0.5, 0.3, 0.1]})
    assert cli.main(["solve", "--config", cfg]) == 2
    assert "sum to 1" in capsys.readouterr().err


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = _write(tmp_path, "cfg.json", {**EXP_SCENARIO, "players": 4})
    assert cli.main(["solve", "--config", cfg]) == 2
    assert "unknown keys" in capsys.readouterr().err


@pytest.mark.parametrize(
    "section, value, named",
    [
        ("schedule", {}, "schedule"),
        ("cost", 3, "cost"),
        ("montecarlo", 5, "montecarlo"),
        ("cost", {"kappa": "x"}, "cost"),
        ("verify", {"scheme": {"kind": "linear_share"}}, "scheme"),
        # the Monte-Carlo settings live in the montecarlo section only
        ("verify", {"draws": 10000, "grid_size": 500}, "unknown keys in verify: ['draws', 'grid_size']"),
        ("output", "out.json", "unknown keys in config: ['output']"),
        ("montecarlo", {"grid_size": 500}, "unknown keys in montecarlo: ['grid_size']"),
        ("verify", {"bounds_battery": 1, "battery_draws": 0}, "at least 1e4 draws"),
    ],
)
def test_malformed_section_exits_2(tmp_path, capsys, section, value, named):
    doc = {**EXP_SCENARIO, "distribution": {"family": "gumbel"}, "n": 3, "schedule": "wta", section: value}
    cfg = _write(tmp_path, "cfg.json", doc)
    assert cli.main(["verify", "--config", cfg, "--seed", "1", "--draws", "10000"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid input: ") and named in err


@pytest.mark.parametrize("config_draws, flags", [(0, []), (10**5, ["--draws", "0"])], ids=["config", "flag"])
def test_zero_draws_exits_2(tmp_path, capsys, config_draws, flags):
    # zero is a value, below the floor, not "use the default"
    doc = {**EXP_SCENARIO, "distribution": {"family": "gumbel"}, "n": 3, "schedule": "wta",
           "montecarlo": {"draws": config_draws}}
    cfg = _write(tmp_path, "cfg.json", doc)
    assert cli.main(["verify", "--config", cfg, "--seed", "1", *flags]) == 2
    assert "at least 1e4 draws" in capsys.readouterr().err


@pytest.mark.parametrize(
    "change, key",
    [
        ({"n": None}, "n"),
        ({"threshold": None}, "threshold"),
        ({"schedule": {"equal_top": None}}, "equal_top"),
        ({"verify": {"force_effort": [1]}}, "force_effort"),
    ],
)
def test_null_or_list_value_exits_2(tmp_path, capsys, change, key):
    doc = {**EXP_SCENARIO, "distribution": {"family": "gumbel"}, "n": 3, "schedule": "wta", **change}
    cfg = _write(tmp_path, "cfg.json", doc)
    assert cli.main(["verify", "--config", cfg, "--seed", "1", "--draws", "10000"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid input: ") and f"'{key}'" in err


@pytest.mark.parametrize(
    "change, flags, key",
    [
        ({}, ["--threshold", "nan"], "'threshold'"),
        ({"threshold": float("nan")}, [], "'threshold'"),
        ({"schedule": [float("nan")] * 3}, [], "schedule"),
    ],
    ids=["threshold-flag", "threshold-config", "schedule"],
)
def test_non_finite_scenario_number_exits_2(tmp_path, capsys, change, flags, key):
    # NaN passes every comparison-based check, so it used to reach the effort as NaN
    doc = {**EXP_SCENARIO, "distribution": {"family": "gumbel"}, "n": 3, "schedule": "wta", **change}
    cfg = _write(tmp_path, "cfg.json", doc)
    assert cli.main(["solve", "--config", cfg, *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid input: ") and key in err


@pytest.mark.parametrize(
    "family, key, value",
    [("gumbel", "loc", float("nan")), ("exponential", "rate", float("inf")), ("pareto", "alpha", float("nan"))],
)
def test_non_finite_distribution_parameter_exits_2(tmp_path, capsys, family, key, value):
    # NaN used to die later with "zero-size array to reduction operation minimum"
    doc = {**EXP_SCENARIO, "distribution": {"family": family, "params": {key: value}}, "n": 3, "schedule": "wta"}
    cfg = _write(tmp_path, "cfg.json", doc)
    assert cli.main(["solve", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid input: ") and f"{family} parameter '{key}'" in err


def test_verify_has_no_cap_for_inverse_exponential(tmp_path, capsys):
    # log f is concave below 1 and convex above, so neither closed-form cap applies
    scenario = {
        "distribution": {"family": "inverse_exponential"},
        "n": 3,
        "schedule": "wta",
        "cost": {"kappa": 3.0, "beta": 2.0},
        "verify": {"scheme": {"kind": "constant"}},
    }
    cfg = _write(tmp_path, "cfg.json", scenario)
    assert cli.main(["verify", "--config", cfg, "--seed", "1", "--draws", "10000"]) == 2
    assert "noise is neither" in capsys.readouterr().err


def test_solve_deterministic_output(tmp_path):
    cfg = _write(tmp_path, "cfg.json", EXP_SCENARIO)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    cli.main(["solve", "--config", cfg, "--out", str(a)])
    cli.main(["solve", "--config", cfg, "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def _read_panel(path):
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if not r[0].startswith("#")]
    header = rows[0]
    data = np.array([[float(v) for v in row] for row in rows[1:]])
    return header, data


def test_figures_fig1(tmp_path):
    assert cli.main(["figures", "fig1", "--outdir", str(tmp_path)]) == 0
    for panel in ("density", "likelihood_ratio", "hazard", "marginal_benefit"):
        assert (tmp_path / f"fig1_{panel}.csv").exists()
        assert (tmp_path / f"fig1_{panel}.svg").exists()
    first = (tmp_path / "fig1_density.csv").read_text().splitlines()[0]
    assert first.startswith("# density normalization") and "red=1.65625" in first

    header, data = _read_panel(tmp_path / "fig1_marginal_benefit.csv")
    t = data[:, 0]
    step = 2e-4 * 1.75
    for column, expected in [("red_wta", 1.0), ("red_two", 0.5), ("red_eps", 0.5), ("green_wta", 0.5)]:
        g = data[:, header.index(column)]
        assert abs(t[int(np.argmax(g))] - expected) <= step + 1e-12


def test_figures_fig2(tmp_path):
    assert cli.main(["figures", "fig2", "--outdir", str(tmp_path)]) == 0
    header, data = _read_panel(tmp_path / "fig2_marginal_benefit.csv")
    t = data[:, 0]
    assert t[0] == 0.0
    at0 = {name: data[0, header.index(name)] for name in ("dfr_wta", "dfr_two", "dfr_eps")}
    assert at0["dfr_eps"] == pytest.approx(2 / 3, abs=1e-9)
    assert at0["dfr_eps"] == max(at0.values())
    # hazard panel starts at 2 and decays toward 1
    h_header, h_data = _read_panel(tmp_path / "fig2_hazard.csv")
    assert h_data[0, 1] == pytest.approx(2.0, abs=1e-9)


def test_figures_deterministic(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    cli.main(["figures", "fig2", "--outdir", str(d1)])
    cli.main(["figures", "fig2", "--outdir", str(d2)])
    for name in ("fig2_density.csv", "fig2_marginal_benefit.csv", "fig2_density.svg"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def _per_point_polylines(series, ylim, width=720, height=460):
    """The polylines of ``line_plot_svg``, each point scaled and formatted
    as a numpy scalar on its own."""
    xs = np.concatenate([x for _, x, _ in series])
    ys = np.concatenate([y for _, _, y in series])
    finite = np.isfinite(xs) & np.isfinite(ys)
    x_lo, x_hi = float(xs[finite].min()), float(xs[finite].max())
    y_lo, y_hi = ylim
    pad = 0.04 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    plot_w = width - svgplot._MARGIN_L - svgplot._MARGIN_R
    plot_h = height - svgplot._MARGIN_T - svgplot._MARGIN_B
    lines = []
    for k, (_, x, y) in enumerate(series):
        runs, run = [], []
        for xi, yi in zip(x, y):
            if np.isfinite(xi) and np.isfinite(yi) and y_lo <= yi <= y_hi:
                px = svgplot._MARGIN_L + (xi - x_lo) / (x_hi - x_lo) * plot_w
                py = svgplot._MARGIN_T + (y_hi - yi) / (y_hi - y_lo) * plot_h
                run.append(f"{px:.2f},{py:.2f}")
            elif run:
                runs.append(run)
                run = []
        runs.append(run)
        color = svgplot.PALETTE[k]
        lines += [
            f'<polyline points="{" ".join(r)}" fill="none" stroke="{color}" stroke-width="1.6"/>'
            for r in runs
            if len(r) > 1
        ]
    return lines


def test_figure_writers_match_per_point_form(tmp_path):
    x = np.linspace(-1.0, 3.0, 301)
    y = 5.0 * np.sin(7.0 * x)  # clipped by ylim on every swing
    y[[0, 40, 41, 42, 100, 101, 250]] = np.nan
    y[[60, 61]] = np.inf
    x2 = x.copy()
    x2[[5, 6, 200]] = np.nan
    series = [("a", x, y), ("b", x2, np.cos(x) / 3.0), ("c", x, np.where(x > 2.9, np.nan, x**3))]
    svg = svgplot.line_plot_svg(series, ylim=(-2.0, 4.0))
    got = [line for line in svg.splitlines() if line.startswith("<polyline")]
    assert got == _per_point_polylines(series, (-2.0, 4.0)) and len(got) > 10
    # the CSV holds each value's repr, as the numpy scalar's float() gives it
    cols = [x, y, np.array([-0.0, 1e-300, 1e300, 2.0 / 3.0] * 75 + [np.nan])]
    cli._write_csv(str(tmp_path / "t.csv"), ["x", "y", "z"], cols, ["note"])
    rows = [",".join(repr(float(v)) for v in row) for row in zip(*cols)]
    assert (tmp_path / "t.csv").read_text() == "\n".join(["# note", "x,y,z", *rows]) + "\n"


def test_verify_ok_and_forced_effort(tmp_path):
    doc = {**EXP_SCENARIO, "montecarlo": {"draws": 150000, "seed": 5}}
    cfg = _write(tmp_path, "cfg.json", doc)
    out = tmp_path / "verify.json"
    assert cli.main(["verify", "--config", cfg, "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["verified"] and rep["best_response"]["certified"]
    assert all(abs(r["z"]) <= 4 for r in rep["prize_probabilities"])

    bad = {**doc, "verify": {"force_effort": 0.9}}
    cfg2 = _write(tmp_path, "cfg2.json", bad)
    assert cli.main(["verify", "--config", cfg2, "--out", str(out)]) == 4
    rep = json.loads(out.read_text())
    assert not rep["verified"]
    assert rep["best_response"]["gap"] > 0


@pytest.mark.parametrize("effort", [-0.5, 1.5, float("nan")], ids=["negative", "above", "nan"])
def test_verify_rejects_forced_effort_off_the_grid(tmp_path, capsys, effort):
    # an effort off [0, max_effort] widens the grid's step: at -0.5 grid_bias
    # (0.446) would cover the gap (0.28) and the scenario would verify
    doc = {"distribution": {"family": "gumbel"}, "n": 3, "schedule": "wta",
           "montecarlo": {"draws": 10000, "seed": 3}, "verify": {"force_effort": effort}}
    cfg = _write(tmp_path, "cfg.json", doc)
    assert cli.main(["verify", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid input: checked effort ")
    assert f"{effort!r} is not a number in [0, {2.0 ** 0.5!r}]" in err


def test_verify_with_named_scheme_and_tally(tmp_path):
    doc = {
        "distribution": {"family": "pareto", "params": {"alpha": 2.0}},
        "n": 3,
        "schedule": "eps",
        "cost": {"kappa": 3.0, "beta": 2.0},
        "montecarlo": {"draws": 50000, "seed": 5},
        "verify": {"scheme": {"kind": "constant"}, "battery_draws": 50000},
    }
    cfg = _write(tmp_path, "cfg.json", doc)
    out = tmp_path / "verify.json"
    tally = tmp_path / "tally.csv"
    code = cli.main(["verify", "--config", cfg, "--out", str(out), "--tally-csv", str(tally)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["bounds_battery"][0]["satisfied"]
    assert tally.read_text().startswith("rank,count,frequency")


def test_verify_rejects_pareto_eps_at_unit_cost(tmp_path):
    # With c(e) = e^2/2 the first-order effort e* = 2/3 is not a best response:
    # below it the deviation payoff is (5/3 - e)^-2 / 3 - e^2/2, which peaks
    # at e = 0.22036 with a gain of 0.0239618 over e*.
    doc = {
        "distribution": {"family": "pareto", "params": {"alpha": 2.0}},
        "n": 3,
        "schedule": "eps",
        "montecarlo": {"draws": 50000, "seed": 5},
        "verify": {"scheme": {"kind": "constant"}, "battery_draws": 50000},
    }
    cfg = _write(tmp_path, "cfg.json", doc)
    out = tmp_path / "verify.json"
    with pytest.warns(ConcavityWarning, match="gains"):
        assert cli.main(["verify", "--config", cfg, "--out", str(out)]) == 4
    rep = json.loads(out.read_text())
    assert not rep["scenario"]["concavity_ok"]
    br = rep["best_response"]
    assert not br["certified"]
    assert abs(br["gap"] - 0.0239618) <= 4 * br["gap_se"] + br["grid_bias"]
    assert all(abs(r["z"]) <= 4 for r in rep["prize_probabilities"])
    assert rep["bounds_battery"][0]["satisfied"]


def test_verify_rejects_erf_exponential_eps_at_unit_cost(tmp_path):
    # solve flags this design (a deviation to e = 0.3155 gains 0.0066); the
    # default effort grid keeps the grid bias well below that gain
    doc = {**HEAVY_SCENARIO, "schedule": "eps"}
    cfg = _write(tmp_path, "cfg.json", doc)
    out = tmp_path / "verify.json"
    with pytest.warns(ConcavityWarning, match="gains"):
        assert cli.main(["verify", "--config", cfg, "--out", str(out)]) == 4
    br = json.loads(out.read_text())["best_response"]
    assert not br["certified"]
    assert br["grid_bias"] < 1e-3
    assert br["gap"] > 3 * br["gap_se"] + br["grid_bias"]


def test_verify_requires_seed(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("TOURNEY_SEED", raising=False)
    doc = {k: v for k, v in EXP_SCENARIO.items() if k != "montecarlo"}
    doc["montecarlo"] = {"draws": 50000}
    cfg = _write(tmp_path, "cfg.json", doc)
    assert cli.main(["verify", "--config", cfg]) == 2
    assert "seed" in capsys.readouterr().err


def test_seed_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("TOURNEY_SEED", "77")
    doc = {k: v for k, v in EXP_SCENARIO.items() if k != "montecarlo"}
    doc["montecarlo"] = {"draws": 50000}
    cfg = _write(tmp_path, "cfg.json", doc)
    out = tmp_path / "v.json"
    assert cli.main(["verify", "--config", cfg, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["best_response"]["seed"] == 77


@pytest.mark.parametrize("command", ["audit", "verify"])
def test_bad_seed_env_is_named(tmp_path, capsys, monkeypatch, command):
    monkeypatch.setenv("TOURNEY_SEED", "abc")
    if command == "audit":
        path = tmp_path / "perf.csv"
        path.write_text("performance\n" + "\n".join(str(v) for v in range(40)) + "\n")
        argv = ["audit", "--input", str(path)]
    else:
        doc = {k: v for k, v in EXP_SCENARIO.items() if k != "montecarlo"}
        argv = ["verify", "--config", _write(tmp_path, "cfg.json", doc)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid input: ") and "'TOURNEY_SEED'" in err


def _write_sample(tmp_path, loc=5.0, groups=False):
    rng = np.random.Generator(np.random.Philox(key=99))
    obs = rng.normal(loc, 1.0, 50_000)
    path = tmp_path / "perf.csv"
    with open(path, "w") as fh:
        fh.write("performance,group\n" if groups else "performance\n")
        for i, v in enumerate(obs):
            fh.write(f"{float(v)!r},{'ab'[i % 2]}\n" if groups else f"{float(v)!r}\n")
    return str(path)


def test_audit_command(tmp_path):
    sample = _write_sample(tmp_path, groups=True)
    out = tmp_path / "audit.json"
    assert cli.main(["audit", "--input", sample, "--standard", "5.0", "--bootstrap", "200",
                     "--seed", "3", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["standard_comparison"]["recommendation"] == "keep"
    assert rep["standard_comparison"]["pass_fraction"] == pytest.approx(0.5, abs=0.01)
    assert set(rep["group_pass_fractions"]) == {"a", "b"}
    assert cli.main(["audit", "--input", sample, "--standard", "4.0", "--seed", "3",
                     "--bootstrap", "200", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["standard_comparison"]["recommendation"] == "raise"


def test_audit_too_small(tmp_path, capsys):
    path = tmp_path / "tiny.csv"
    path.write_text("performance\n" + "\n".join("1.0" for _ in range(5)) + "\n")
    assert cli.main(["audit", "--input", str(path), "--seed", "1"]) == 2
    assert "at least 30" in capsys.readouterr().err


def test_audit_rejects_missing_column(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("value\n1.0\n2.0\n")
    assert cli.main(["audit", "--input", str(path), "--seed", "1"]) == 2
    assert "performance" in capsys.readouterr().err


def test_audit_rejects_short_row(tmp_path, capsys):
    path = tmp_path / "short.csv"
    rows = [f"{v},a" for v in range(40)]
    rows[3] = "3"
    path.write_text("performance,group\n" + "\n".join(rows) + "\n")
    assert cli.main(["audit", "--input", str(path), "--seed", "1"]) == 2
    assert "line 5" in capsys.readouterr().err


def test_audit_rejects_bad_bandwidth(tmp_path, capsys):
    sample = _write_sample(tmp_path)
    assert cli.main(["audit", "--input", sample, "--bandwidth", "-0.2", "--seed", "1"]) == 2
    assert "bandwidth" in capsys.readouterr().err


def test_audit_sample_reader(tmp_path, capsys):
    path = tmp_path / "sample.csv"
    path.write_text("group,performance\nb,2.5\n\na,-1\n")
    sample = cli._read_sample(str(path), None)
    assert sample.observations == (2.5, -1.0) and sample.labels == ("b", "a")
    path.write_text("performance\n1.0\nx\n")
    assert cli.main(["audit", "--input", str(path), "--seed", "1"]) == 2
    assert "line 3" in capsys.readouterr().err


def test_audit_rejects_bootstrap_count(tmp_path, capsys):
    sample = _write_sample(tmp_path)
    assert cli.main(["audit", "--input", sample, "--bootstrap", "0", "--seed", "1"]) == 2
    assert "got 0" in capsys.readouterr().err


def test_tullock_command(tmp_path):
    out = tmp_path / "t.json"
    assert cli.main(["tullock", "--n", "2", "--efforts", "1.0,1.0", "--rho", "2.0",
                     "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["e_star"] == pytest.approx(0.2838338208091532, abs=1e-12)
    assert doc["foc_gap"] < 1e-9
    assert doc["csf"]["win_probabilities"][0] == pytest.approx(0.5 * (1 - np.exp(-1)), abs=1e-12)


def test_fm_command(tmp_path):
    out = tmp_path / "fm.json"
    assert cli.main(["fm", "--n", "2", "--ideas",
                     '{"family":"uniform","params":{"lo":0.0,"hi":1.0}}', "--out", str(out)]) == 0
    assert json.loads(out.read_text())["rho_star"] == pytest.approx(0.029505213220466765, abs=1e-9)


def test_race_command(tmp_path):
    out = tmp_path / "race.json"
    assert cli.main(["race", "--n", "2", "--shock", '{"family":"gumbel"}', "--out", str(out)]) == 0
    assert json.loads(out.read_text())["deadline"] == pytest.approx(3.5231883119, rel=1e-6)
    assert cli.main(["race", "--n", "2", "--mode", "0.0", "--out", str(out)]) == 0
    assert cli.main(["race", "--n", "2"]) == 2
