import csv
import json
import os
import re
import signal
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET
from xml.sax import saxutils
from pathlib import Path

import numpy as np
import pytest

import sample_reader_reference
from mp_reference import coefficient_mp
from tourney import cli, payschemes, svgplot
from tourney import equilibrium as eq
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

GUMBEL_BATTERY = {
    "distribution": {"family": "gumbel"},
    "n": 3,
    "schedule": "wta",
    "cost": {"kappa": 1.0, "beta": 2.0},
    "montecarlo": {"draws": 10000},
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


def test_warning_printed_on_one_line(tmp_path):
    # main prints a warning as its category and message; Python's default
    # format led with the installed path and line of the code that raised
    # it and followed with that source line.  In-process callers keep the
    # format they had.
    cfg = _write(tmp_path, "cfg.json", {**HEAVY_SCENARIO, "schedule": "eps"})
    argv = ["solve", "--config", cfg, "--out", str(tmp_path / "sol.json")]
    run = subprocess.run([sys.executable, "-m", "tourney.cli", *argv], capture_output=True, text=True)
    assert run.returncode == 0
    assert re.fullmatch(r"ConcavityWarning: deviating to effort 0\.309359 gains [^\n]*\n", run.stderr)
    formatwarning = warnings.formatwarning
    with pytest.warns(ConcavityWarning, match="gains"):
        assert cli.main(argv) == 0
    assert warnings.formatwarning is formatwarning


def _print_warning(message, category, filename, lineno, file=None, line=None):
    """Python's own way to show a warning, which pytest's capture replaces."""
    sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))


def _outputs(cwd):
    return {p.relative_to(cwd).as_posix(): p.read_bytes() for p in sorted(cwd.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("command", ["solve", "prizes", "verify", "audit", "figures"])
def test_main_gives_the_same_bytes_on_every_call(tmp_path, capsys, monkeypatch, command):
    # three calls in one process and one in a fresh process write the same
    # exit code, stdout, stderr and files; Python shows a warning once per
    # place in a process, so calls after the first used to print none
    inputs = tmp_path / "in"
    inputs.mkdir()
    argv = {
        "solve": ["solve", "--config", _write(inputs, "heavy.json", {**HEAVY_SCENARIO, "schedule": "eps"})],
        "prizes": ["prizes", "--config", _write(inputs, "gumbel.json", GUMBEL_BATTERY)],
        "verify": ["verify", "--config", _write(inputs, "gumbel.json", GUMBEL_BATTERY), "--seed", "5",
                   "--out", "verify.json", "--tally-csv", "tally.csv"],
        "audit": ["audit", "--input", _write_sample(inputs, size=2000), "--standard", "5.0", "--seed", "3",
                  "--bootstrap", "200"],
        "figures": ["figures", "fig2", "--outdir", "panels"],
    }[command]
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    src = str(Path(cli.__file__).resolve().parents[1])  # the tree under test, from any directory
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-m", "tourney.cli", *argv], capture_output=True, text=True, cwd=fresh,
                         env=env)
    want = (run.returncode, run.stdout, run.stderr, _outputs(fresh))
    assert want[3] or want[1]
    with warnings.catch_warnings():
        warnings.simplefilter("default")  # a fresh process's filters and printer
        warnings.showwarning = _print_warning
        for i in range(3):
            cwd = tmp_path / f"call{i}"
            cwd.mkdir()
            monkeypatch.chdir(cwd)
            code = cli.main(argv)
            out, err = capsys.readouterr()
            assert (code, out, err, _outputs(cwd)) == want, i
    assert ("ConcavityWarning: " in want[2]) == (command == "solve")


@pytest.mark.parametrize(
    "argv, path",
    [
        (["figures", "fig2", "--outdir", "{cfg}"], "{cfg}"),
        (["solve", "--config", "{cfg}", "--out", "{missing}/x.json"], "{missing}/x.json"),
        (["verify", "--config", "{cfg}", "--seed", "5", "--out", "{dir}/v.json", "--tally-csv", "{missing}/t.csv"],
         "{missing}/t.csv"),
    ],
    ids=["outdir-is-a-file", "out-in-missing-dir", "tally-in-missing-dir"],
)
def test_unwritable_output_exits_2(tmp_path, capsys, argv, path):
    # the exit code and the path, not a traceback with exit 1
    names = {"cfg": _write(tmp_path, "cfg.json", GUMBEL_BATTERY), "missing": str(tmp_path / "missing"),
             "dir": str(tmp_path)}
    assert cli.main([a.format(**names) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid input: cannot write output: ") and f"'{path.format(**names)}'" in err


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


@pytest.mark.parametrize("command", [["solve", "--schedule", "wta"], ["prizes"]])
def test_threshold_below_gumbel_cdf_underflow_is_finite(tmp_path, command):
    # F(-10) underflows to 0; solve printed NaN and prizes raised IndexError
    cfg = _write(tmp_path, "cfg.json", {"distribution": {"family": "gumbel"}, "n": 3})
    out = tmp_path / "sol.json"
    assert cli.main([*command, "--config", cfg, "--threshold", "-10", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    numbers = [doc["effort"], doc["marginal_benefit"], doc["standard"], *doc.get("rank_scores", ())]
    assert np.all(np.isfinite(numbers))
    assert doc["marginal_benefit"] == pytest.approx(2 / 9, abs=1e-12)


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
        # a rank scheme of another size was priced for its own player count
        ("verify", {"scheme": {"kind": "rank", "prizes": [0.6, 0.4]}}, "rank scheme has 2 prizes but n=3"),
        ("verify", {"scheme": {"kind": "mixture", "first": {"kind": "rank", "prizes": [0.6, 0.4]},
                               "second": {"kind": "rank", "prizes": [1.0, 0.0]}, "weight": 0.5}},
         "rank scheme has 2 prizes but n=3"),
        # a field of the wrong type ended in a TypeError traceback and exit 1
        ("verify", {"scheme": {"kind": "rank", "prizes": 3}}, "rank scheme spec: bad 'prizes'"),
        ("verify", {"scheme": {"kind": "rank", "standard": None}}, "rank scheme spec: bad 'standard'"),
        ("verify", {"scheme": {"kind": "mixture", "first": {"kind": "constant"},
                               "second": {"kind": "constant"}, "weight": None}},
         "mixture scheme spec: bad 'weight'"),
        # an integer is taken exactly: infinity (JSON's Infinity, or 1e400)
        # ended in an OverflowError traceback and exit 1, and a fraction was
        # truncated, as a negative battery was run as none
        ("n", float("inf"), "bad 'n': inf is not an integer"),
        ("n", 3.5, "bad 'n': 3.5 is not an integer"),
        ("schedule", {"equal_top": float("inf")}, "bad 'equal_top': inf"),
        ("schedule", {"equal_top": 1.5}, "bad 'equal_top': 1.5"),
        ("montecarlo", {"draws": float("inf"), "seed": 1}, "bad 'draws': inf"),
        ("montecarlo", {"draws": 10000.5, "seed": 1}, "bad 'draws': 10000.5"),
        ("montecarlo", {"draws": 10000, "seed": float("-inf")}, "bad 'montecarlo.seed': -inf"),
        ("montecarlo", {"draws": 10000, "seed": 2.9}, "bad 'montecarlo.seed': 2.9"),
        ("verify", {"bounds_battery": float("inf")}, "bad 'bounds_battery': inf"),
        ("verify", {"bounds_battery": 1.9}, "bad 'bounds_battery': 1.9"),
        ("verify", {"bounds_battery": -2}, "bad 'bounds_battery': -2 is below 0"),
        ("verify", {"bounds_battery": 1, "battery_draws": float("nan")}, "bad 'battery_draws': nan"),
        ("verify", {"bounds_battery": 1, "battery_draws": 1e5 + 0.5}, "bad 'battery_draws': 100000.5"),
        # a scheme field that priced nothing was reported as a satisfied bound
        ("verify", {"scheme": {"kind": "linear_share", "cap": float("nan")}},
         "linear_share scheme spec: bad 'cap': nan is not finite"),
        ("verify", {"scheme": {"kind": "rank", "standard": float("nan")}},
         "rank scheme spec: bad 'standard': nan is not finite"),
        # an empty prize list was priced as winner-take-all
        ("verify", {"scheme": {"kind": "rank", "prizes": []}}, "rank scheme spec: bad 'prizes'"),
        # an infinite cost solved to effort 0 (kappa) or 1 (beta)
        ("cost", {"kappa": float("inf")}, "bad cost: need finite kappa > 0 and beta > 1"),
        ("cost", {"beta": float("inf")}, "bad cost: need finite kappa > 0 and beta > 1"),
        # a misspelled scheme key was dropped: this priced winner-take-all with no standard
        ("verify", {"scheme": {"kind": "rank", "prize": [0.5, 0.5, 0.0], "standrd": 2.0}},
         "unknown keys in rank scheme spec: ['prize', 'standrd']"),
        ("verify", {"scheme": {"kind": "constant", "cap": 3}}, "unknown keys in constant scheme spec: ['cap']"),
        ("verify", {"scheme": {"kind": "mixture", "first": {"kind": "constant"}, "second": {"kind": "constant"},
                               "weight": 0.5, "wieght": 0.25}},
         "unknown keys in mixture scheme spec: ['wieght']"),
        ("verify", {"scheme": {"kind": "mixture", "first": {"kind": "linear_share", "cap": 2.0, "standard": 1.0},
                               "second": {"kind": "constant"}, "weight": 0.5}},
         "mixture scheme spec: bad 'first': unknown keys in linear_share scheme spec: ['standard']"),
        # a JSON true or false was read as the number 1 or 0
        ("schedule", {"equal_top": True}, "bad 'equal_top': true is not a number"),
        ("schedule", [True, False, False], "bad 'schedule': true is not a number"),
        ("threshold", True, "bad 'threshold': true is not a number"),
        ("cost", {"kappa": True}, "bad 'cost.kappa': true is not a number"),
        ("montecarlo", {"draws": 10000, "seed": True}, "bad 'montecarlo.seed': true is not a number"),
        ("verify", {"scheme": {"kind": "linear_share", "cap": True}},
         "linear_share scheme spec: bad 'cap': true is not a number"),
        ("verify", {"scheme": {"kind": "mixture", "first": {"kind": "constant"}, "second": {"kind": "constant"},
                               "weight": True}},
         "mixture scheme spec: bad 'weight': true is not a number"),
        ("verify", {"scheme": {"kind": "rank", "prizes": [True, False, False]}},
         "rank scheme spec: bad 'prizes': true is not a number"),
        ("distribution", {"family": "gumbel", "params": {"scale": True}},
         "gumbel parameter 'scale' must be a number, got true"),
        ("distribution", {"family": "piecewise_linear", "knots": [[0, True], [1, False]]},
         "'knots' entry [0, true] is not a pair of numbers"),
        # a falsy section that is not an object was read as an empty one
        ("montecarlo", False, "montecarlo must be a JSON object, not bool"),
        ("montecarlo", [], "montecarlo must be a JSON object, not list"),
        ("verify", 0, "verify must be a JSON object, not int"),
    ],
)
def test_malformed_section_exits_2(tmp_path, capsys, section, value, named):
    # the draws and the seed come from the config, so its own values are checked
    doc = {**EXP_SCENARIO, "distribution": {"family": "gumbel"}, "n": 3, "schedule": "wta",
           "montecarlo": {"draws": 10000, "seed": 1}, section: value}
    cfg = _write(tmp_path, "cfg.json", doc)
    assert cli.main(["verify", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid input: ") and named in err


@pytest.mark.parametrize("section, value", [("verify", {"draws": 10000}), ("montecarlo", {"grid_size": 500})])
def test_verify_checks_sections_before_solving(tmp_path, capsys, monkeypatch, section, value):
    def unreachable(sc):
        raise AssertionError("solved before the config was checked")

    monkeypatch.setattr(cli, "_solve_scenario", unreachable)
    doc = {**EXP_SCENARIO, "distribution": {"family": "gumbel"}, "n": 3, "schedule": "wta", section: value}
    assert cli.main(["verify", "--config", _write(tmp_path, "cfg.json", doc), "--seed", "1"]) == 2
    assert f"unknown keys in {section}" in capsys.readouterr().err


def test_integral_float_integers_accepted(tmp_path):
    # JSON may write a whole number as 1e4 or 3.0; it means that integer
    outs = []
    for num in (int, float):
        doc = {**GUMBEL_BATTERY, "n": num(3), "schedule": {"equal_top": num(1)},
               "montecarlo": {"draws": num(10**4), "seed": num(5)},
               "verify": {"bounds_battery": num(1), "battery_draws": num(10**4)}}
        out = tmp_path / f"{num.__name__}.json"
        assert cli.main(["verify", "--config", _write(tmp_path, "cfg.json", doc), "--out", str(out)]) in (0, 4)
        outs.append(out.read_text())
    assert outs[0] == outs[1]


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


# The eight designs of the benchmark's certify workload, with its seed's
# draws fixed: (family, params, n, schedule, cost, verify section).
CERTIFY_DESIGNS = [
    ("gumbel", {"loc": 0.7}, 3, "wta", (1.0, 2.0), {"scheme": {"kind": "constant"}}),
    ("erf_exponential", {}, 3, "eps", (3.0, 2.0), {}),
    ("pareto", {"alpha": 2.0, "x_min": 1.2}, 3, "eps", (3.0, 2.0), {"scheme": {"kind": "linear_share", "cap": 3.6}}),
    ("trimodal_example", {"variant": "red"}, 3, "wta", (1.0, 2.0), {}),
    ("gumbel", {"loc": 0.7}, 10, "wta", (1.0, 2.0), {"bounds_battery": 2}),
    ("erf_exponential", {}, 10, "eps", (3.0, 2.0), {}),
    ("pareto", {"alpha": 2.0, "x_min": 1.2}, 10, "eps", (3.0, 2.0), {"scheme": {"kind": "rank"}}),
    ("trimodal_example", {"variant": "red"}, 10, "eps", (1.0, 2.0), {}),
]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_verify_certifies_the_benchmark_designs(tmp_path, seed):
    for k, (family, params, n, schedule, (kappa, beta), verify) in enumerate(CERTIFY_DESIGNS):
        scenario = {
            "distribution": {"family": family, "params": params}, "n": n, "schedule": schedule,
            "cost": {"kappa": kappa, "beta": beta}, "montecarlo": {"draws": 20_000, "seed": 100 * seed + k},
            "verify": {**verify, "battery_draws": 20_000},
        }
        out = tmp_path / f"{seed}-{k}.json"
        assert cli.main(["verify", "--config", _write(tmp_path, "cfg.json", scenario), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["verified"] is True


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
    for panel in ("density", "likelihood_ratio", "hazard", "marginal_benefit"):
        root = ET.parse(tmp_path / f"fig2_{panel}.svg").getroot()
        assert root.tag == "{http://www.w3.org/2000/svg}svg"


def test_figures_deterministic(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    cli.main(["figures", "fig2", "--outdir", str(d1)])
    cli.main(["figures", "fig2", "--outdir", str(d2)])
    names = sorted(p.name for p in d1.iterdir())
    assert len(names) == 8 and names == sorted(p.name for p in d2.iterdir())
    for name in names:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def _per_point_runs(series, ylim, width=720, height=460):
    """The runs of drawn points of each series of ``line_plot_svg``, each
    point scaled and formatted as a numpy scalar on its own: per series, a
    list of runs, each a list of (x pixel, y pixel, "x,y" text)."""
    xs = np.concatenate([x for _, x, _ in series])
    ys = np.concatenate([y for _, _, y in series])
    finite = np.isfinite(xs) & np.isfinite(ys)
    x_lo, x_hi = float(xs[finite].min()), float(xs[finite].max())
    y_lo, y_hi = ylim
    pad = 0.04 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    plot_w = width - svgplot._MARGIN_L - svgplot._MARGIN_R
    plot_h = height - svgplot._MARGIN_T - svgplot._MARGIN_B
    per_series = []
    for _, x, y in series:
        runs, run = [], []
        for xi, yi in zip(x, y):
            if np.isfinite(xi) and np.isfinite(yi) and y_lo <= yi <= y_hi:
                px = svgplot._MARGIN_L + (xi - x_lo) / (x_hi - x_lo) * plot_w
                py = svgplot._MARGIN_T + (y_hi - yi) / (y_hi - y_lo) * plot_h
                run.append((px, py, f"{px:.2f},{py:.2f}"))
            elif run:
                runs.append(run)
                run = []
        runs.append(run)
        per_series.append([r for r in runs if len(r) > 1])
    return per_series


def _polyline(k, texts):
    return f'<polyline points="{" ".join(texts)}" fill="none" stroke="{svgplot.PALETTE[k]}" stroke-width="1.6"/>'


def _per_point_polylines(series, ylim):
    """The polylines of ``line_plot_svg`` when every drawn point is kept."""
    return [
        _polyline(k, [t for _, _, t in run])
        for k, runs in enumerate(_per_point_runs(series, ylim))
        for run in runs
    ]


def test_figure_writers_match_per_point_form(tmp_path):
    x = np.linspace(-1.0, 3.0, 301)
    y = 5.0 * np.sin(7.0 * x)  # clipped by ylim on every swing
    y[[0, 40, 41, 42, 100, 101, 250]] = np.nan
    y[[60, 61]] = np.inf
    x2 = 0.75 * x + 0.5
    x2[[5, 6, 200]] = np.nan
    y4 = np.where(np.abs(x - 1.0) < 0.2, -np.inf, 4.5 - 2.0 * x)  # a hole and a clipped head
    y4[[3, 150]] = np.nan
    # a, c and d share the one x array, each with its own holes; b has its own x
    series = [
        ("a", x, y),
        ("b", x2, np.cos(x) / 3.0),
        ("c", x, np.where(x > 2.9, np.nan, x**3)),
        ("d", x, y4),
        ("e", x, np.full_like(x, 9.0)),  # every point clipped: no polyline
    ]
    svg = svgplot.line_plot_svg(series, ylim=(-2.0, 4.0))
    got = [line for line in svg.splitlines() if line.startswith("<polyline")]
    assert got == _per_point_polylines(series, (-2.0, 4.0)) and len(got) > 10
    # the CSV holds each value's repr, as the numpy scalar's float() gives it
    z = np.array([-0.0, 1e-300, 1e300, 2.0 / 3.0] * 75 + [np.nan])
    cols = [x, y, z, y4]
    cli._write_csv(str(tmp_path / "t.csv"), ["x", "y", "z", "w"], [cli._csv_column(c) for c in cols], ["note"])
    rows = [",".join(repr(float(v)) for v in row) for row in zip(*cols)]
    assert (tmp_path / "t.csv").read_text() == "\n".join(["# note", "x,y,z,w", *rows]) + "\n"


def test_line_plot_keeps_m4_points_of_each_pixel_column():
    """Of each group of consecutive same-column points of a run, the SVG
    keeps exactly the first, the last, the lowest and the highest (the
    first of equals), each as the per-point form writes it."""
    rng = np.random.default_rng(5)
    x = np.linspace(-1.0, 3.0, 12001)
    noisy = np.sin(3.0 * x) + 0.3 * rng.standard_normal(x.size)  # clipped by ylim at the peaks
    noisy[[7, 8, 3000, 10345]] = np.nan
    noisy[6000:6400] = np.nan
    noisy[9000:9010] = np.inf
    x2 = x[::3]
    steps = np.round(np.cos(2.0 * x2) + 0.2 * rng.standard_normal(x2.size), 1)  # ties in each column
    t = np.linspace(0.0, 2.0 * np.pi, 4001)
    series = [
        ("noisy", x, noisy),
        ("steps", x2, steps),
        ("circle", 1.0 + 1.5 * np.cos(t), 0.5 * np.sin(t)),  # x not monotone: columns revisited
    ]
    svg = svgplot.line_plot_svg(series, ylim=(-1.0, 1.2))
    got = [line for line in svg.splitlines() if line.startswith("<polyline")]
    want, dense = [], 0
    for k, runs in enumerate(_per_point_runs(series, (-1.0, 1.2))):
        for run in runs:
            px = np.array([p[0] for p in run])
            py = np.array([p[1] for p in run])
            starts = np.flatnonzero(np.diff(np.floor(px), prepend=np.nan) != 0)
            kept = []
            for a, b in zip(starts, [*starts[1:], len(run)]):
                dense += b - a > 4
                kept += sorted({a, b - 1, a + int(np.argmin(py[a:b])), a + int(np.argmax(py[a:b]))})
            want.append(_polyline(k, [run[i][2] for i in kept]))
    assert got == want and len(got) > 10 and dense > 1000
    circle = [line for line in got if svgplot.PALETTE[2] in line]
    cols = [np.floor(float(p.split(",")[0])) for p in re.search(r'points="([^"]*)"', circle[0])[1].split()]
    assert max(np.unique(cols, return_counts=True)[1]) > 4  # a column is a group on either half


def _returns_within(seconds, fn, *args):
    """fn(*args), or a failure if it has not returned in ``seconds``."""

    def timeout(signum, frame):
        raise AssertionError(f"{fn.__name__} did not return in {seconds} s")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(seconds)
    try:
        return fn(*args)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_ticks_stop_below_an_ulp():
    ticks = _returns_within(10, svgplot._ticks, 1.0, 1.0000000000000002)
    assert 1 <= len(ticks) <= 5 and np.all(np.diff(ticks) > 0)
    assert all(1.0 <= t <= 1.0000000000000002 for t in ticks)
    assert svgplot._ticks(0.0, 1.0) == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert svgplot._ticks(-0.3, 0.3) == pytest.approx([-0.2, 0.0, 0.2])
    svg = _returns_within(10, svgplot.line_plot_svg, [("a", [0, 1, 2], [1.0, 1.0 + 2.2e-16, 1.0])])
    assert svg.endswith("</svg>\n") and len(ET.fromstring(svg).findall("{*}polyline")) == 1
    for tick in ET.fromstring(svg).findall("{*}line")[:-1]:  # the last is the legend's
        for y in (float(tick.get("y1")), float(tick.get("y2"))):
            assert svgplot._MARGIN_T <= y <= svgplot._HEIGHT - svgplot._MARGIN_B + 4


@pytest.mark.parametrize("top", [5e-324, 4e-323, 1e-310])
def test_line_plot_of_a_subnormal_span_is_flat(top):
    # a quarter of the span is 0 or subnormal, and the power of ten below
    # a subnormal step can underflow to 0 (at 4e-323)
    assert svgplot._ticks(0.0, top) == [0.0]
    svg = svgplot.line_plot_svg([("a", [0.0, 1.0], [0.0, top])])
    root = ET.fromstring(svg)
    assert svg.endswith("</svg>\n") and len(root.findall("{*}polyline")) == 1
    for tick in root.findall("{*}line")[:-1]:  # the last is the legend's
        for x in (float(tick.get("x1")), float(tick.get("x2"))):
            assert svgplot._MARGIN_L - 4 <= x <= svgplot._WIDTH - svgplot._MARGIN_R
        for y in (float(tick.get("y1")), float(tick.get("y2"))):
            assert svgplot._MARGIN_T <= y <= svgplot._HEIGHT - svgplot._MARGIN_B + 4


def _plotted_points(svg):
    """The (x, y) pixel points of every polyline of an SVG document."""
    root = ET.fromstring(svg)
    return [tuple(map(float, point.split(","))) for line in root.findall("{*}polyline")
            for point in line.get("points").split()]


def test_line_plot_of_a_flat_x_span_beyond_2_53():
    # x_lo + 1 rounds back to x_lo there, and the pixel arithmetic divided by 0
    points = _plotted_points(svgplot.line_plot_svg([("a", [5e20, 5e20], [0.0, 1.0])]))
    assert len(points) == 2 and all(np.isfinite(points).ravel())
    assert {x for x, _ in points} == {float(svgplot._MARGIN_L)}


def test_line_plot_of_a_flat_y_span_beyond_2_53():
    points = _plotted_points(svgplot.line_plot_svg([("a", [0.0, 1.0], [5e20, 5e20])]))
    assert len(points) == 2 and all(np.isfinite(points).ravel())
    assert len({y for _, y in points}) == 1
    assert svgplot._MARGIN_T <= points[0][1] <= svgplot._HEIGHT - svgplot._MARGIN_B


def test_line_plot_without_a_finite_point_is_an_error():
    with pytest.raises(ValueError, match="no series has a point with finite x and y"):
        svgplot.line_plot_svg([("a", [0.0, 1.0], [np.nan, np.inf]), ("b", [np.nan], [1.0])])


@pytest.mark.parametrize("lo, hi", [(-1e308, 1e308), (0.0, 1.797e308)])
def test_line_plot_of_a_y_span_beyond_the_float_range_is_an_error(lo, hi):
    # the span itself overflows, or a finite span does once padded by 4%
    with pytest.raises(ValueError, match=re.escape(f"the y axis spans [{lo!r}, {hi!r}]")):
        svgplot.line_plot_svg([("a", [0.0, 1.0], [lo, hi])])


def test_line_plot_of_an_x_span_beyond_the_float_range_is_an_error():
    with pytest.raises(ValueError, match=re.escape("the x axis spans [-1e+308, 1e+308]")):
        svgplot.line_plot_svg([("a", [-1e308, 1e308], [0.0, 1.0])])


def test_line_plot_escapes_its_text():
    labels = ["a & b", "x < y > z", "-f'/f"]
    svg = svgplot.line_plot_svg(
        [(label, [0.0, 1.0], [0.0, 1.0]) for label in labels[:2]],
        title=labels[0],
        xlabel=labels[1],
        ylabel=labels[2],
    )
    texts = [e.text for e in ET.fromstring(svg).iter("{http://www.w3.org/2000/svg}text")]
    assert texts[0] == labels[0] and labels[1] in texts and texts[-3:] == labels[2:] + labels[:2]
    assert ">-f'/f</text>" in svg  # the apostrophe stays as it is
    for text in [*labels, "&amp; &lt;&gt;", '"q"', ""]:
        assert svgplot._escape(text) == saxutils.escape(text)


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


@pytest.mark.parametrize("draws", [10**5, 10**6])
def test_verify_never_certifies_a_design_its_quadrature_refutes(tmp_path, draws):
    # red WTA at n = 10: solve finds that deviating to 0.176777 gains 0.00119
    # over e* = 0.420509, and at seed 2 the scan's rule passes that gain
    doc = {"distribution": {"family": "trimodal_example", "params": {"variant": "red"}}, "n": 10,
           "schedule": "wta", "montecarlo": {"draws": draws, "seed": 2}}
    out = tmp_path / "verify.json"
    with pytest.warns(ConcavityWarning, match="gains 0.00119"):
        assert cli.main(["verify", "--config", _write(tmp_path, "cfg.json", doc), "--out", str(out)]) == 4
    rep = json.loads(out.read_text())
    assert rep["best_response"]["certified"] and not rep["scenario"]["concavity_ok"]
    assert rep["verified"] is False


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


@pytest.mark.parametrize(
    "command, source, value",
    [("verify", "--seed", -1), ("verify", "TOURNEY_SEED", -5), ("verify", "montecarlo.seed", -1),
     ("audit", "--seed", -1), ("audit", "TOURNEY_SEED", -5)],
)
def test_out_of_range_seed_is_named(tmp_path, capsys, monkeypatch, command, source, value):
    monkeypatch.delenv("TOURNEY_SEED", raising=False)
    if command == "audit":
        path = tmp_path / "perf.csv"
        path.write_text("performance\n" + "\n".join(str(v) for v in range(40)) + "\n")
        argv = ["audit", "--input", str(path)]
    else:
        doc = {k: v for k, v in EXP_SCENARIO.items() if k != "montecarlo"}
        doc["montecarlo"] = {"draws": 10000, "seed": value} if source == "montecarlo.seed" else {"draws": 10000}
        argv = ["verify", "--config", _write(tmp_path, "cfg.json", doc)]
    if source == "--seed":
        argv += ["--seed", str(value)]
    elif source == "TOURNEY_SEED":
        monkeypatch.setenv("TOURNEY_SEED", str(value))
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"invalid input: bad '{source}': {value} is below 0\n"


@pytest.mark.parametrize("command", ["verify", "audit"])
@pytest.mark.parametrize("seed", [2**128, 2**200], ids=["2**128", "2**200"])
def test_seed_beyond_128_bits_runs(tmp_path, monkeypatch, command, seed):
    # a seed is any nonnegative integer: from each source it gives the same
    # bytes, and the streams of the scheme and the battery take keys above it
    if command == "audit":
        path = tmp_path / "perf.csv"
        path.write_text("performance\n" + "\n".join(str(v % 7) for v in range(40)) + "\n")
        base = ["audit", "--input", str(path), "--bootstrap", "200"]
        sources = ["--seed", "TOURNEY_SEED"]
    else:
        doc = {**GUMBEL_BATTERY, "verify": {"scheme": {"kind": "constant"}, "bounds_battery": 2,
                                           "battery_draws": 10000}}
        base = ["verify", "--config", _write(tmp_path, "cfg.json", doc)]
        seeded = {**doc, "montecarlo": {"draws": 10000, "seed": seed}}
        sources = ["--seed", "TOURNEY_SEED", "montecarlo.seed"]
    outputs = []
    for source in sources:
        monkeypatch.delenv("TOURNEY_SEED", raising=False)
        argv = base + ["--out", str(tmp_path / "out.json")]
        if source == "--seed":
            argv += ["--seed", str(seed)]
        elif source == "TOURNEY_SEED":
            monkeypatch.setenv("TOURNEY_SEED", str(seed))
        else:
            argv[2] = _write(tmp_path, "seeded.json", seeded)
        assert cli.main(argv) == 0
        outputs.append((tmp_path / "out.json").read_bytes())
    assert len(set(outputs)) == 1 and str(seed).encode() in outputs[0]


def test_verify_prices_its_battery_in_one_bound_check(tmp_path, monkeypatch):
    calls = []
    check = payschemes.check_incentive_bound

    def counted(dist, schemes, *args):
        calls.append(len(schemes))
        return check(dist, schemes, *args)

    monkeypatch.setattr(payschemes, "check_incentive_bound", counted)
    doc = {**GUMBEL_BATTERY, "verify": {"bounds_battery": 3, "battery_draws": 10000}}
    out = tmp_path / "v.json"
    assert cli.main(["verify", "--config", _write(tmp_path, "cfg.json", doc), "--seed", "3", "--out", str(out)]) == 0
    assert calls == [3] and len(json.loads(out.read_text())["bounds_battery"]) == 3


def _write_sample(tmp_path, loc=5.0, groups=False, size=50_000):
    rng = np.random.Generator(np.random.Philox(key=99))
    obs = rng.normal(loc, 1.0, size)
    path = tmp_path / "perf.csv"
    with open(path, "w") as fh:
        fh.write("performance,group\n" if groups else "performance\n")
        for i, v in enumerate(obs):
            fh.write(f"{float(v)!r},{'ab'[i % 2]}\n" if groups else f"{float(v)!r}\n")
    return str(path)


def test_audit_command(tmp_path):
    sample = _write_sample(tmp_path, groups=True)
    out = tmp_path / "audit.json"
    # The default 1000 resamples: at 200, the interval's lower end on this
    # sample lies above 5.0 for one seed in four or five
    assert cli.main(["audit", "--input", sample, "--standard", "5.0",
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


@pytest.mark.parametrize("value", ["1e-160", "1e-300", "1e308"])
def test_audit_rejects_grid_breaking_bandwidth(tmp_path, capsys, value):
    # 1e-160 used to exit 0 with the mode at the sample minimum, 1e-300 with
    # a ZeroDivisionError traceback, and 1e308 with "cannot convert float NaN
    # to integer"
    path = tmp_path / "normal.csv"
    obs = np.random.Generator(np.random.Philox(key=3)).normal(50.0, 5.0, 500)
    path.write_text("performance\n" + "".join(f"{v!r}\n" for v in obs.tolist()))
    argv = ["audit", "--input", str(path), "--standard", "50", "--bandwidth", value, "--seed", "1"]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "bandwidth" in err and err.endswith(f"got {float(value)!r}\n")


def test_audit_sample_reader(tmp_path, capsys):
    path = tmp_path / "sample.csv"
    path.write_text("group,performance\nb,2.5\n\na,-1\n")
    sample = cli._read_sample(str(path), None)
    assert sample.observations == (2.5, -1.0) and sample.labels == ("b", "a")
    path.write_text("performance\n1.0\nx\n")
    assert cli.main(["audit", "--input", str(path), "--seed", "1"]) == 2
    assert "line 3" in capsys.readouterr().err


@pytest.mark.parametrize("header", [False, True])
def test_audit_names_a_field_csv_cannot_read(tmp_path, capsys, header):
    # A field over csv.field_size_limit() (131072 characters), in a file that
    # only the row pass reads for its '1_000' cell or that csv cannot read
    # from the header on, ended in a _csv.Error traceback and exit 1
    long = "x" * 140_000
    rows = [f"{v}.5,b" for v in range(40)]
    if header:
        text = f"performance,{long}\n" + "\n".join(rows) + "\n"
    else:
        text = "performance,group\n1_000,a\n" + f"2.5,{long}\n" + "\n".join(rows) + "\n"
    path = tmp_path / "sample.csv"
    path.write_text(text)
    assert cli.main(["audit", "--input", str(path), "--seed", "1"]) == 2
    line = 1 if header else 3
    assert capsys.readouterr().err == (
        f"invalid input: bad sample line {line}: field larger than field limit (131072)\n")


# (file bytes, whether numpy's parser reads them without the row pass)
SAMPLE_FILES = {
    "quoted-labels": (b'performance,group\n1.5,"a,b"\n2.5,"c ""d"""\n-3,e"f\n', True),
    "crlf": (b"performance,group\r\n1.5,a\r\n2.5,b\r\n", True),
    "cr": (b"performance\r1.5\r2.5", True),
    "group-first": (b"group,performance\nb,2.5\na,-1\n", True),
    "extra-column": (b"x,performance,group,y\n0,1.5,a,z\n0,2.5,b,z,w\n", True),
    "blank-lines": (b"performance,group\n\n1.5,a\n\r\n\n2.5,b\n\n", True),
    "non-ascii-label": ("performance,group\n1.5,é\n2.5,日本\n".encode(), True),
    "one-row": (b"performance\n4.25", True),
    "padded-cells": ('performance\n 2.5 \n\t3\n\xa04\n"5"\n'.encode(), True),
    "underscores": (b"performance\n1_000\n2.5\n", False),
    "non-ascii-digits": ("performance\n１２\n".encode(), False),
    "numpy-only-space": (b"performance\n1\x1c\n", False),
    "quoted-newline-in-cell": (b'performance\n"1\n"\n', True),
    "short-row": (b"performance,group\n1.5,a\n2.5\n", False),
    "undecodable": (b"performance\n" + b"1.5\n" * 5000 + b"\xff\n", False),
}


@pytest.mark.parametrize("name", list(SAMPLE_FILES))
def test_audit_sample_reader_matches_row_reader(tmp_path, monkeypatch, name):
    data, parsed = SAMPLE_FILES[name]
    path = tmp_path / "sample.csv"
    path.write_bytes(data)
    row_pass, row_passes = cli._sample_rows, []
    monkeypatch.setattr(cli, "_sample_rows", lambda p: row_passes.append(p) or row_pass(p))
    outcomes = []
    for read in (cli._read_sample, sample_reader_reference.read_sample):
        try:
            sample = read(str(path), 1.0)
            outcomes.append(([v.hex() for v in sample.observations], sample.labels))
        except ValueError as exc:
            outcomes.append((type(exc), str(exc)))
    assert outcomes[0] == outcomes[1]
    assert (not row_passes) == parsed


@pytest.mark.parametrize("text", [b"performance,group\n", b"performance\n\r\n\n\r", b"performance"])
def test_audit_header_only_sample(tmp_path, capsys, text):
    # numpy's reader warns of a file with no rows, which would fail this test
    path = tmp_path / "sample.csv"
    path.write_bytes(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["audit", "--input", str(path), "--seed", "1"]) == 2
    assert capsys.readouterr().err == "invalid input: need at least 30 observations, got 0\n"


def test_audit_well_formed_sample_takes_no_row_pass(tmp_path, monkeypatch):
    path = _write_sample(tmp_path, groups=True)

    def row_pass(path):
        raise AssertionError("the row pass ran")

    expected = sample_reader_reference.read_sample(path, 5.0)
    monkeypatch.setattr(cli, "_sample_rows", row_pass)
    assert cli._read_sample(path, 5.0) == expected
    assert cli.main(["audit", "--input", path, "--standard", "5.0", "--bootstrap", "10", "--seed", "3",
                     "--out", str(tmp_path / "audit.json")]) == 0


@pytest.mark.parametrize("cell", ["inf", "nan", "1e400"])
def test_audit_names_a_non_finite_observation(tmp_path, capsys, cell):
    # these exited 2 with only "observations must be finite"
    path = tmp_path / "sample.csv"
    rows = [f"{v},a" for v in range(40)]
    rows[6] = f"{cell},b"
    path.write_text("performance,group\n" + "\n".join(rows) + "\n")
    assert cli.main(["audit", "--input", str(path), "--seed", "1"]) == 2
    assert capsys.readouterr().err == f"invalid input: bad sample value on line 8: {cell!r} is not finite\n"


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
    assert doc["rho_star"] == doc["e_star"]
    assert set(doc) == {"n", "e_star", "rho_star", "csf"}
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


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_audit_rejects_non_finite_standard(tmp_path, capsys, value):
    # NaN used to fail every comparison and give "keep"; inf gave "lower" and
    # printed Infinity, which is not JSON
    sample = _write_sample(tmp_path, size=100)
    assert cli.main(["audit", "--input", sample, f"--standard={value}", "--seed", "1"]) == 2
    assert f"declared standard {float(value)!r} is not a finite number" in capsys.readouterr().err


@pytest.mark.parametrize(
    "knots, bad",
    [
        ([[0, 0], [1, float("nan")], [2, 0]], "[1.0, nan]"),
        ([[0, 0], [1, 1], [float("inf"), 0]], "[inf, 0.0]"),
        ([[0, 0], [1, float("inf")], [2, 0]], "[1.0, inf]"),
    ],
    ids=["nan-density", "infinite-position", "infinite-density"],
)
def test_non_finite_knot_exits_2(tmp_path, capsys, knots, bad):
    # a NaN density died in _knot_shape with an IndexError; an infinite
    # position or density printed an infinite normalization or a NaN effort
    doc = {"distribution": {"family": "piecewise_linear", "knots": knots}, "n": 3, "schedule": "wta"}
    assert cli.main(["solve", "--config", _write(tmp_path, "cfg.json", doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid input: ") and f"knot {bad} is not a pair of finite numbers" in err


@pytest.mark.parametrize(
    "argv, named",
    [
        (["tullock", "--n", "3", "--efforts", "0.1,-0.5,0.6"], "effort -0.5"),
        (["tullock", "--n", "3", "--efforts", "0.1,nan"], "effort nan"),
        (["tullock", "--n", "3", "--efforts", "0.1,0.2", "--rho=nan"], "rho=nan"),
        (["tullock", "--n", "3", "--efforts", "0.1,0.2", "--rho=inf"], "rho=inf"),
        (["race", "--n", "3", "--mode=nan"], "mode nan"),
        (["race", "--n", "3", "--mode=inf"], "mode inf"),
        (["tullock", "--n", "3", "--efforts", "0.1,x"], "bad '--efforts': "),
        (["fm", "--n", "3", "--ideas", "nope"], "bad '--ideas': "),
        (["race", "--n", "3", "--shock", "nope"], "bad '--shock': "),
        (["tullock", "--n", "1"], "need at least two players"),
        (["fm", "--n", "1", "--ideas", '{"family": "gumbel"}'], "need at least two players"),
    ],
    ids=["negative-effort", "nan-effort", "nan-rho", "inf-rho", "nan-mode", "inf-mode",
         "unreadable-efforts", "unreadable-ideas", "unreadable-shock", "one-player-tullock", "one-player-fm"],
)
def test_contest_adapter_rejects_impossible_number(capsys, argv, named):
    # the numbers used to exit 0, printing negative or NaN probabilities or
    # deadlines; the unreadable flags printed only the parser's message
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid input: ") and named in err


CHECKED_SCENARIO = {"distribution": {"family": "gumbel"}, "n": 3, "schedule": "wta",
                    "montecarlo": {"draws": 10000, "seed": 1}}


@pytest.mark.parametrize(
    "command, change, named",
    [
        ("solve", {"distribution": None}, "config needs a 'distribution' spec"),
        ("solve", {"n": None}, "config needs the player count 'n'"),
        ("solve", {"n": 1}, "need at least two players"),
        ("solve", {"schedule": [0.5, 0.5]}, "schedule has 2 prizes but n=3"),
        ("solve", {"schedule": "best"}, "cannot interpret schedule spec 'best'"),
        ("solve", {"schedule": {"equal_top": 4}}, "bad prize schedule: need 1 <= s <= n"),
        ("solve", {"schedule": {"equal_top": 0}}, "bad prize schedule: need 1 <= s <= n"),
        ("solve", {"distribution": 3}, "distribution spec must be an object with a 'family' key"),
        ("solve", {"distribution": {"params": {}}}, "distribution spec must be an object with a 'family' key"),
        ("solve", {"distribution": {"family": "piecewise_linear"}}, "piecewise_linear spec needs a 'knots' list"),
        ("solve", {"distribution": {"family": "exponential", "params": {"rate": 0}}}, "rate must be positive"),
        ("solve", {"distribution": {"family": "gumbel", "params": {"scale": -1}}}, "scale must be positive"),
        ("solve", {"distribution": {"family": "normal", "params": {"scale": 0}}}, "scale must be positive"),
        ("solve", {"distribution": {"family": "logistic", "params": {"scale": 0}}}, "scale must be positive"),
        ("solve", {"distribution": {"family": "uniform", "params": {"lo": 1, "hi": 1}}}, "need lo < hi"),
        ("solve", {"distribution": {"family": "pareto", "params": {"alpha": 0}}},
         "alpha and x_min must be positive"),
        ("solve", {"distribution": {"family": "pareto", "params": {"x_min": -1}}},
         "alpha and x_min must be positive"),
        ("solve", {"distribution": {"family": "trimodal_example", "params": {"variant": "purple"}}},
         "unknown variant 'purple'"),
        ("solve", {"distribution": {"family": "piecewise_linear", "knots": [[0, 1]]}}, "need at least two knots"),
        ("solve", {"distribution": {"family": "piecewise_linear", "knots": [[0, 1], [0, 0], [1, 0]]}},
         "knot positions must be strictly increasing"),
        ("solve", {"distribution": {"family": "piecewise_linear", "knots": [[0, 1], [1, -1], [2, 0]]}},
         "densities must be nonnegative"),
        ("solve", {"distribution": {"family": "piecewise_linear", "knots": [[0, 0], [1, 0]]}},
         "density integrates to zero"),
        ("verify", {"verify": {"scheme": 3}}, "scheme spec must be an object with a 'kind' key"),
        ("verify", {"verify": {"scheme": {"kind": "mixture", "first": {"kind": "constant"},
                                          "second": {"kind": "constant"}, "weight": 1.5}}},
         "mixture weight must lie in [0, 1]"),
    ],
    ids=[
        "no-distribution", "no-n", "one-player", "short-schedule", "unknown-schedule", "equal-top-above-n",
        "equal-top-zero", "distribution-not-object", "distribution-without-family", "piecewise-without-knots",
        "exponential-rate", "gumbel-scale", "normal-scale", "logistic-scale", "uniform-bounds",
        "pareto-alpha", "pareto-x-min", "unknown-variant", "one-knot", "repeated-knot", "negative-density",
        "zero-mass", "scheme-not-object", "mixture-weight",
    ],
)
def test_scenario_check_exits_2(tmp_path, capsys, command, change, named):
    # a None value leaves the key out of the config
    doc = {key: value for key, value in {**CHECKED_SCENARIO, **change}.items() if value is not None}
    assert cli.main([command, "--config", _write(tmp_path, "cfg.json", doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid input: ") and named in err


@pytest.mark.parametrize(
    "text, named",
    [(None, "cannot read config: "), ("{", "config is not valid JSON: "), ("[1, 2]", "config root must be a JSON object")],
    ids=["unreadable", "invalid-json", "list-root"],
)
def test_unusable_config_file_exits_2(tmp_path, capsys, text, named):
    path = tmp_path / "cfg.json"
    if text is not None:
        path.write_text(text)
    assert cli.main(["solve", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid input: ") and named in err


def test_unreadable_sample_exits_2(tmp_path, capsys):
    assert cli.main(["audit", "--input", str(tmp_path / "missing.csv"), "--seed", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid input: cannot read sample: ")


def test_quadrature_failure_exits_3(tmp_path, capsys, monkeypatch):
    # two Gauss points cannot resolve Pareto noise: the failure names the
    # distribution and the rank
    monkeypatch.setattr(eq, "QUAD_ORDER", 2)
    doc = {"distribution": {"family": "pareto"}, "n": 3, "schedule": "wta"}
    assert cli.main(["solve", "--config", _write(tmp_path, "cfg.json", doc)]) == cli.EXIT_NUMERIC == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: pareto ") and "n=3, rank 1:" in err


SOLUTION_KEYS = {
    "threshold", "effort", "standard", "marginal_benefit", "pass_probability", "concavity_ok",
    "schedule", "distribution", "distribution.family", "distribution.normalization",
}
PRIZE_KEYS = {"r_star", "rank_scores", "regime", "tie_set"}
VERIFY_KEYS = {f"scenario.{key}" for key in SOLUTION_KEYS} | {
    "scenario", "checked_effort", "verified",
    "best_response", "best_response.gap", "best_response.gap_se", "best_response.grid_bias",
    "best_response.certified", "best_response.draws", "best_response.seed",
    "prize_probabilities", "prize_probabilities.rank", "prize_probabilities.montecarlo",
    "prize_probabilities.quadrature", "prize_probabilities.se", "prize_probabilities.z",
    "bounds_battery", "bounds_battery.scheme", "bounds_battery.estimate", "bounds_battery.se",
    "bounds_battery.bound", "bounds_battery.satisfied",
}
AUDIT_KEYS = {
    "n_obs", "bandwidth", "modes", "modal_performance", "mode_ci", "bootstrap_draws", "seed",
    "pass_benchmark_note",
}
COMPARISON_KEYS = {
    "standard_comparison", "standard_comparison.declared_standard",
    "standard_comparison.modal_performance", "standard_comparison.mode_ci",
    "standard_comparison.recommendation", "standard_comparison.pass_fraction",
}
GROUP_KEYS = {"group_pass_fractions", "group_pass_fractions.a", "group_pass_fractions.b"}


def _key_paths(doc, prefix=""):
    """Every key of a JSON document as a dotted path; the keys of the
    objects in a list sit under the list's key."""
    if isinstance(doc, list):
        return set().union(*(_key_paths(item, prefix) for item in doc))
    if isinstance(doc, dict):
        return set().union(*({prefix + k} | _key_paths(v, f"{prefix}{k}.") for k, v in doc.items()))
    return set()


@pytest.mark.parametrize(
    "argv, keys",
    [
        (["solve", "--config", "{config}"], SOLUTION_KEYS),
        (["prizes", "--config", "{config}"], SOLUTION_KEYS | PRIZE_KEYS),
        (["verify", "--config", "{config}", "--seed", "4"], VERIFY_KEYS),
        (["audit", "--input", "{sample}"], AUDIT_KEYS),
        (["audit", "--input", "{sample}", "--standard", "5.0"], AUDIT_KEYS | COMPARISON_KEYS),
        (["audit", "--input", "{grouped}", "--standard", "5.0"], AUDIT_KEYS | COMPARISON_KEYS | GROUP_KEYS),
    ],
    ids=["solve", "prizes", "verify", "audit", "audit-standard", "audit-groups"],
)
def test_printed_keys(tmp_path, argv, keys):
    # the printed schema: a field added to a report must be added here too
    files = {
        "{config}": lambda: _write(tmp_path, "cfg.json", {
            **GUMBEL_BATTERY, "verify": {"scheme": {"kind": "constant"}, "battery_draws": 10000}}),
        "{sample}": lambda: _write_sample(tmp_path, size=1000),
        "{grouped}": lambda: _write_sample(tmp_path, groups=True, size=1000),
    }
    argv = [files[a]() if a in files else a for a in argv]
    if argv[0] == "audit":
        argv += ["--bootstrap", "20", "--seed", "3"]
    out = tmp_path / "out.json"
    assert cli.main([*argv, "--out", str(out)]) == 0
    assert _key_paths(json.loads(out.read_text())) == keys
