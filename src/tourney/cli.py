"""Command-line surface: scenario solving, figures, verification, audits.

Configuration comes from a JSON document; command-line flags override config
fields.  The Monte-Carlo commands take a seed, any nonnegative integer,
from a flag, the config, or the TOURNEY_SEED environment variable:
``verify`` requires one, and ``audit`` bootstraps with seed 0 when none
is given.  Identical config + seed produces byte-identical artifacts.

Exit codes: 0 success, 2 invalid config/input or an output path that
cannot be written, 3 numeric failure, 4 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import os
import sys
import warnings

import numpy as np

from . import audit as audit_mod
from . import contests, payschemes
from . import distributions as dists
from . import montecarlo as mc
from . import prizes as prizes_mod
from .equilibrium import (
    CostFunction,
    EffortOutOfRange,
    ModeScanMismatch,
    PrizeSchedule,
    QuadratureFailure,
    TournamentDesign,
    _marginal_benefit,
    prize_probability,
    solve_design,
)
from .svgplot import line_plot_svg

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_VERIFY = 4

NUMERIC_ERRORS = (
    QuadratureFailure,
    ModeScanMismatch,
    EffortOutOfRange,
    dists.SurvivalUnderflow,
    payschemes.UnboundedLikelihoodRatio,
)


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------


def _check_keys(doc: dict, allowed: set[str], where: str) -> None:
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be a JSON object, not {type(doc).__name__}")
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {unknown}")


def _number(convert, value, key: str):
    """``convert(value)``; a value it cannot take, and a JSON ``true`` or
    ``false``, which Python would take as 1 or 0, is a config error naming ``key``."""
    if isinstance(value, bool):
        raise ConfigError(f"bad '{key}': {json.dumps(value)} is not a number")
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad '{key}': {exc}") from exc


def _integer(value, key: str, minimum: int | None = None) -> int:
    """``value`` as an int, exactly: a float must be finite and integral
    (1e5 is 100000, while 2.9 is not truncated to 2 and 1e400 raises no
    ``OverflowError``), and a count below ``minimum`` is refused.  Each is a
    config error naming ``key``."""
    if isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"bad '{key}': {value!r} is not an integer")
    number = _number(int, value, key)
    if minimum is not None and number < minimum:
        raise ConfigError(f"bad '{key}': {number} is below {minimum}")
    return number


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    return doc


def _resolve_seed(flag_seed, mc_cfg: dict):
    """The flag's seed, else the ``montecarlo`` config's, else TOURNEY_SEED's:
    any nonnegative integer, as ``numpy.random.SeedSequence`` takes.  A
    negative or non-integer seed is a config error naming where it came
    from."""
    sources = (
        ("--seed", flag_seed),
        ("montecarlo.seed", mc_cfg.get("seed")),
        ("TOURNEY_SEED", os.environ.get("TOURNEY_SEED")),
    )
    for source, value in sources:
        if value is not None:
            return _integer(value, source, minimum=0)
    return None


def _build_distribution(spec) -> dists.NoiseDistribution:
    if spec is None:
        raise ConfigError("config needs a 'distribution' spec")
    try:
        return dists.from_spec(spec)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad distribution spec: {exc}") from exc


def _build_cost(spec) -> CostFunction:
    if spec is None:
        return CostFunction()
    _check_keys(spec, {"kappa", "beta"}, "cost")
    kappa = _number(float, spec.get("kappa", 1.0), "cost.kappa")
    beta = _number(float, spec.get("beta", 2.0), "cost.beta")
    try:
        return CostFunction(kappa, beta)
    except ValueError as exc:
        raise ConfigError(f"bad cost: {exc}") from exc


def _build_schedule(spec, n: int) -> PrizeSchedule | None:
    """None means "design the schedule optimally"."""
    if spec is None or spec == "optimal":
        return None
    try:
        if spec == "wta":
            return PrizeSchedule.winner_take_all(n)
        if spec == "eps":
            return PrizeSchedule.equal_sharing(n)
        if isinstance(spec, dict):
            _check_keys(spec, {"equal_top"}, "schedule")
            if "equal_top" not in spec:
                raise ConfigError("schedule object needs an 'equal_top' count")
            return PrizeSchedule.equal_top(_integer(spec["equal_top"], "equal_top"), n)
        if isinstance(spec, (list, tuple)):
            if len(spec) != n:
                raise ConfigError(f"schedule has {len(spec)} prizes but n={n}")
            return PrizeSchedule(tuple(_number(float, v, "schedule") for v in spec))
    except ValueError as exc:
        raise ConfigError(f"bad prize schedule: {exc}") from exc
    raise ConfigError(f"cannot interpret schedule spec {spec!r}")


def _scenario_from(config: dict, args) -> dict:
    _check_keys(
        config,
        {"distribution", "n", "schedule", "threshold", "cost", "montecarlo", "verify"},
        "config",
    )
    merged = dict(config)
    for key in ("n", "schedule", "threshold"):
        val = getattr(args, key, None)
        if val is not None:
            merged[key] = val
    if "n" not in merged:
        raise ConfigError("config needs the player count 'n'")
    n = _integer(merged["n"], "n")
    if n < 2:
        raise ConfigError("need at least two players")
    threshold = merged.get("threshold", "optimal")
    if threshold != "optimal":
        threshold = _number(float, threshold, "threshold")
        if not np.isfinite(threshold):
            raise ConfigError(f"bad 'threshold': {threshold!r} is not a finite number")
    return {
        "dist": _build_distribution(merged.get("distribution")),
        "n": n,
        "schedule": _build_schedule(merged.get("schedule"), n),
        "threshold": None if threshold == "optimal" else threshold,
        "cost": _build_cost(merged.get("cost")),
        "montecarlo": {} if merged.get("montecarlo") is None else merged["montecarlo"],
        "verify": {} if merged.get("verify") is None else merged["verify"],
    }


def _json_dump(obj, path: str | None) -> None:
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_csv(path: str, header: list[str], columns: list[list[str]], comments=()) -> None:
    """Write columns of cells, as ``_csv_column`` makes them, in one call.
    Each number is formatted once, with its column, into the string that its
    ``str`` gives, so a column that several files share is formatted once
    and the bytes are those of formatting row by row."""
    lines = [f"# {line}" for line in comments] + [",".join(header)]
    lines += map(",".join, zip(*columns))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# solve / prizes
# ---------------------------------------------------------------------------


def _fields(report, *omit: str) -> dict:
    """A report's JSON block: its dataclass fields, less ``omit`` and the
    fields that are None.  The values are read, not deep-copied as
    ``dataclasses.asdict`` would, since only ``json.dumps`` reads them."""
    values = {f.name: getattr(report, f.name) for f in dataclasses.fields(report)}
    return {k: v for k, v in values.items() if v is not None and k not in omit}


def _solve_scenario(sc: dict):
    """Returns (payload, schedule, solution).  The payload holds the
    solution's fields, the schedule and the distribution, and the prize
    report's fields when the schedule is designed."""
    if sc["schedule"] is None:
        report, solution = prizes_mod.optimal_prizes(
            sc["dist"], sc["n"], sc["cost"], threshold=sc["threshold"]
        )
        schedule, payload = report.schedule, _fields(report, "schedule")
    else:
        schedule, payload = sc["schedule"], {}
        solution = solve_design(
            sc["dist"], sc["n"], schedule, sc["cost"], threshold=sc["threshold"]
        )
    payload.update(
        _fields(solution),
        schedule=list(schedule.prizes),
        distribution={"family": sc["dist"].family, "normalization": sc["dist"].normalization},
    )
    return payload, schedule, solution


def cmd_solve(args) -> int:
    """``solve`` and ``prizes``; ``prizes`` always designs the schedule."""
    sc = _scenario_from(_load_config(args.config), args)
    if args.command == "prizes":
        sc["schedule"] = None
    payload, _, _ = _solve_scenario(sc)
    _json_dump(payload, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# figures
# ---------------------------------------------------------------------------

FIG1_SCHEDULES = (("wta", 1), ("two", 2), ("eps", 3))
GRID_POINTS = 5001


def _csv_column(values) -> list[str]:
    """A column's CSV cells: each value's ``str`` as a Python value, so each
    float is written as its shortest round-trip repr."""
    return list(map(str, np.asarray(values).tolist()))


def plot_grid(dist: dists.NoiseDistribution) -> np.ndarray:
    """Uniform plotting grid over the truncated support, knots included."""
    lo, hi = dist.truncated_support()
    return np.union1d(np.linspace(lo, hi, GRID_POINTS), [k for k in dist.knots if lo < k < hi])


def _figure_panels(outdir: str, tag: str, dist_list, t_max=None) -> None:
    os.makedirs(outdir, exist_ok=True)
    grid = plot_grid(dist_list[0][1])  # panel distributions share one support
    if t_max is not None:
        grid = grid[grid <= t_max]
    t_cells = _csv_column(grid)

    def _panel(fname, columns, title, ylabel, ylim=None):
        header = ["t"] + [c[0] for c in columns]
        cols = [t_cells] + [_csv_column(c[1]) for c in columns]
        comments = [
            "density normalization: "
            + " ".join(f"{name}={d.normalization!r}" for name, d in dist_list)
        ]
        _write_csv(os.path.join(outdir, f"{tag}_{fname}.csv"), header, cols, comments)
        svg = line_plot_svg(
            [(label, grid, vals) for label, vals in columns],
            title=title,
            xlabel="t",
            ylabel=ylabel,
            ylim=ylim,
        )
        with open(os.path.join(outdir, f"{tag}_{fname}.svg"), "w") as fh:
            fh.write(svg)

    dens_cols, lr_cols, hz_cols, g_cols = [], [], [], []
    d_rows = np.stack([PrizeSchedule.equal_top(s, 3).differentials for _, s in FIG1_SCHEDULES])
    for name, d in dist_list:
        f = np.asarray(d.pdf(grid))
        dens_cols.append((name, f))

        lam = np.full_like(grid, np.nan)
        pos = f > 1e-12
        lam[pos] = np.asarray(d.likelihood_ratio(grid[pos]))
        lr_cols.append((name, lam))

        hz = np.full_like(grid, np.nan)
        alive = np.asarray(d.sf(grid)) > 1e-12
        hz[alive] = np.asarray(d.hazard(grid[alive]))
        hz_cols.append((name, hz))

        curves = _marginal_benefit(d, 3, d_rows, grid)  # each row summed as for its schedule alone
        for (sched_name, _), curve in zip(FIG1_SCHEDULES, curves):
            g_cols.append((f"{name}_{sched_name}", curve))

    _panel("density", dens_cols, "noise density", "f(t)")
    _panel("likelihood_ratio", lr_cols, "likelihood ratio -f'/f", "lambda(t)", ylim=(-2.0, 6.0))
    _panel("hazard", hz_cols, "hazard rate f/(1-F)", "h(t)", ylim=(0.0, 8.0))
    _panel("marginal_benefit", g_cols, "marginal benefit of effort (n=3)", "g(t; v)")


def cmd_figures(args) -> int:
    which = args.which
    if which == "fig1":
        trio = [(c, dists.trimodal_example(c)) for c in ("red", "green", "blue")]
        _figure_panels(args.outdir, "fig1", trio)
    else:
        _figure_panels(args.outdir, "fig2", [("dfr", dists.erf_exponential())], t_max=5.0)
    sys.stdout.write(f"wrote {which} panels to {args.outdir}\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(args) -> int:
    """``verify``: the best-response scan, and each scheme's bound at ``battery_draws``
    noise draws (1e5 by default), only those above the mode drawn; ``verified`` needs ``concavity_ok``."""
    sc = _scenario_from(_load_config(args.config), args)
    opts = sc["verify"]
    _check_keys(opts, {"force_effort", "bounds_battery", "battery_draws", "scheme"}, "verify")
    mc_cfg = sc["montecarlo"]
    _check_keys(mc_cfg, {"draws", "seed"}, "montecarlo")
    payload, schedule, solution = _solve_scenario(sc)
    n_battery = opts.get("bounds_battery")
    n_battery = 0 if n_battery is None else _integer(n_battery, "bounds_battery", minimum=0)
    seed = _resolve_seed(args.seed, mc_cfg)
    if seed is None:
        raise ConfigError("verification needs a seed (flag, config, or TOURNEY_SEED)")
    draws = args.draws if args.draws is not None else mc_cfg.get("draws")
    draws = 10**6 if draws is None else _integer(draws, "draws")
    e_check = opts.get("force_effort")
    e_check = solution.effort if e_check is None else _number(float, e_check, "force_effort")
    battery_draws = opts.get("battery_draws")
    battery_draws = 10**5 if battery_draws is None else _integer(battery_draws, "battery_draws")

    design = TournamentDesign(standard=solution.standard, schedule=schedule, cost=sc["cost"])
    # the schemes are built, and a bad scheme spec rejected, before the scan
    schemes = []
    if opts.get("scheme") is not None:
        schemes.append(payschemes.scheme_from_spec(opts["scheme"], design.n))
    if n_battery > 0:
        rng = mc._substreams(seed + 1, 1)[0]
        lo, hi = sc["dist"].truncated_support(1e-6)
        schemes.extend(
            payschemes.scheme_battery(design.n, n_battery, rng, e_check + lo, e_check + hi)
        )
    report = mc.verify_best_response(sc["dist"], design, e_check, draws=draws, seed=seed)
    if args.tally_csv:
        mc.write_tally_csv(report, args.tally_csv)

    ranks = []
    ok_ranks = True
    quads = prize_probability(
        sc["dist"], design.n, np.arange(1, design.n + 1), e_check, e_check, design.standard
    )
    for r, quad in enumerate(quads.tolist(), start=1):
        est = report.at_least_prob[r - 1]
        se = max(report.at_least_se[r - 1], 1.0 / draws)
        z = (est - quad) / se
        ok_ranks &= abs(z) <= 4.0
        ranks.append({"rank": r, "montecarlo": est, "quadrature": quad, "se": se, "z": z})

    battery_out = None
    if schemes:
        checks = payschemes.check_incentive_bound(sc["dist"], schemes, e_check, battery_draws, seed + 2)
        battery_out = [
            {"scheme": scheme.label, "estimate": chk.estimate, "se": chk.se, "bound": chk.bound,
             "satisfied": chk.satisfied}
            for scheme, chk in zip(schemes, checks)
        ]
    battery_ok = all(chk["satisfied"] for chk in battery_out or ())

    verified = bool(solution.concavity_ok and report.certified and ok_ranks and battery_ok)
    out = {
        "scenario": payload,
        "checked_effort": e_check,
        "best_response": {
            key: getattr(report, key) for key in ("gap", "gap_se", "grid_bias", "certified", "draws", "seed")
        },
        "prize_probabilities": ranks,
        "bounds_battery": battery_out,
        "verified": verified,
    }
    _json_dump(out, args.out)
    return EXIT_OK if verified else EXIT_VERIFY


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------


# numpy's float parser strips these as whitespace and ``float`` does not
NUMPY_ONLY_SPACES = "\x1c\x1d\x1e\x1f"


def _sample_columns(rows) -> tuple[int, int | None]:
    """The 'performance' and 'group' column indices, from the header row."""
    columns = {name: i for i, name in enumerate(next(rows, []))}
    if "performance" not in columns:
        raise ConfigError("sample CSV needs a 'performance' header column")
    return columns["performance"], columns.get("group")


def _sample_rows(path: str) -> tuple[list[float], list[str]]:
    """The sample read row by row with ``csv`` and ``float``: the diagnostic
    pass.  It names the line of a short row, of a value that ``float``
    rejects or that is not finite, and of a row ``csv`` cannot read, such as
    one with a field longer than ``csv.field_size_limit()``."""
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        try:
            perf, group = _sample_columns(rows)
            width = max(perf, group or 0) + 1
            obs, labels = [], []
            for row in rows:
                if not row:
                    continue
                if len(row) < width:
                    raise ConfigError(f"sample line {rows.line_num} has {len(row)} of {width} columns")
                try:
                    value = float(row[perf])
                except ValueError as exc:
                    raise ConfigError(f"bad sample value on line {rows.line_num}: {exc}") from exc
                if not -np.inf < value < np.inf:  # NaN fails both comparisons
                    raise ConfigError(f"bad sample value on line {rows.line_num}: {row[perf]!r} is not finite")
                obs.append(value)
                if group is not None:
                    labels.append(row[group])
        except csv.Error as exc:
            raise ConfigError(f"bad sample line {rows.line_num}: {exc}") from exc
    return obs, labels


def _parsed_sample(path: str):
    """The performance column and the labels (a list, empty without a
    'group' column) as numpy's C reader parses the rows after the header, or
    None where ``_sample_rows`` could read them otherwise: ``csv`` cannot
    read the header, the rest of the file does not decode, a row does not
    parse, a value is not finite, or the text holds a character of
    ``NUMPY_ONLY_SPACES``."""
    with open(path, newline="") as fh:
        try:
            perf, group = _sample_columns(csv.reader(fh))
        except csv.Error:  # a header ``csv`` cannot read, whose line the row pass names
            return None
        try:
            rest = fh.read()
        except ValueError:  # a decoding error, whose position depends on how much is read at once
            return None
        if not rest.strip("\r\n"):  # only empty lines, which both readers skip
            return [], []
        if any(char in rest for char in NUMPY_ONLY_SPACES):
            return None
        del rest  # numpy reads the rows again from the file, without this copy
        fh.seek(0)
        next(csv.reader(fh))  # past the header again
        cols, fields = ((perf,), [("p", float)]) if group is None else ((perf, group), [("p", float), ("g", object)])
        try:
            table = np.loadtxt(fh, delimiter=",", usecols=cols, dtype=fields, comments=None, quotechar='"', ndmin=1)
        except ValueError:
            return None
    if not np.isfinite(table["p"]).all():
        return None
    return table["p"], [] if group is None else table["g"].tolist()


def _read_sample(path: str, declared_standard) -> audit_mod.PerformanceSample:
    """The sample in the CSV file at ``path``: its 'performance' column, with
    the 'group' column as labels where the header has one.  numpy's parser
    reads it, and ``_sample_rows`` wherever numpy's result could differ, so
    a file gives the sample or the error that ``csv`` and ``float`` give."""
    try:
        parsed = _parsed_sample(path)
        obs, labels = parsed if parsed is not None else _sample_rows(path)
    except OSError as exc:
        raise ConfigError(f"cannot read sample: {exc}") from exc
    return audit_mod.PerformanceSample(
        observations=obs,
        declared_standard=declared_standard,
        labels=tuple(labels) if labels else None,
    )


def cmd_audit(args) -> int:
    sample = _read_sample(args.input, args.standard)
    report = audit_mod.audit_sample(
        sample,
        bandwidth=args.bandwidth,
        bootstrap=args.bootstrap,
        seed=_resolve_seed(args.seed, {}) or 0,
    )
    _json_dump(_fields(report), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# contest adapters
# ---------------------------------------------------------------------------


def cmd_tullock(args) -> int:
    e_star, rho_star = contests.tullock_optimal(args.n)
    out = {"n": args.n, "e_star": e_star, "rho_star": rho_star}
    if args.efforts:
        efforts = [_number(float, v, "--efforts") for v in args.efforts.split(",")]
        rho = args.rho if args.rho is not None else rho_star
        out["csf"] = {
            "efforts": efforts,
            "rho": rho,
            "win_probabilities": list(contests.tullock_csf_with_standard(efforts, rho)),
            "no_winner_probability": float(np.exp(-sum(efforts) / rho)),
        }
    _json_dump(out, args.out)
    return EXIT_OK


def cmd_fm(args) -> int:
    ideas = _build_distribution(_number(json.loads, args.ideas, "--ideas"))
    e_star, _ = contests.tullock_optimal(args.n)
    out = {
        "n": args.n,
        "e_star": e_star,
        "rho_star": contests.fm_optimal_standard(ideas, args.n),
        "ideas": {"family": ideas.family},
    }
    _json_dump(out, args.out)
    return EXIT_OK


def cmd_race(args) -> int:
    if (args.shock is None) == (args.mode is None):
        raise ConfigError("pass exactly one of --shock or --mode")
    mode = args.mode
    if mode is None:
        mode = _build_distribution(_number(json.loads, args.shock, "--shock")).find_modes().global_mode
    e_star, _ = contests.tullock_optimal(args.n)
    out = {
        "n": args.n,
        "e_star": e_star,
        "shock_mode": mode,
        "deadline": contests.patent_race_deadline(mode, args.n),
    }
    _json_dump(out, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


@functools.cache  # built once per process, however many commands main() runs
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tourney",
        description="design and audit rank-order tournaments with a minimum performance standard",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def scenario_flags(p):
        p.add_argument("--config", help="JSON scenario config")
        p.add_argument("--n", type=int, help="player count (overrides config)")
        p.add_argument("--schedule", help="'optimal', 'wta', 'eps' (overrides config)")
        p.add_argument("--threshold", help="'optimal' or a number (overrides config)")
        p.add_argument("--out", help="write the JSON report here instead of stdout")

    p = sub.add_parser("solve", help="equilibrium and optimal standard for a scenario")
    scenario_flags(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("prizes", help="jointly optimal prize schedule and standard")
    scenario_flags(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("figures", help="reproduce the built-in showcase figures")
    p.add_argument("which", choices=("fig1", "fig2"))
    p.add_argument("--outdir", default=".", help="directory for CSV and SVG panels")
    p.set_defaults(func=cmd_figures)

    p = sub.add_parser("verify", help="Monte-Carlo certification of a solved scenario")
    scenario_flags(p)
    p.add_argument("--seed", type=int, help="RNG seed (or montecarlo.seed / TOURNEY_SEED)")
    p.add_argument("--draws", type=int, help="Monte-Carlo draws")
    p.add_argument("--tally-csv", help="also dump raw per-rank tallies to this CSV")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("audit", help="nonparametric standard audit of a performance sample")
    p.add_argument("--input", required=True, help="CSV with a 'performance' column")
    p.add_argument("--standard", type=float, help="declared standard to compare")
    p.add_argument("--bandwidth", type=float, help="KDE bandwidth (default: Silverman)")
    p.add_argument("--bootstrap", type=int, default=1000, help="bootstrap resamples")
    p.add_argument("--seed", type=int, help="bootstrap seed (or TOURNEY_SEED; 0 when neither is set)")
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("tullock", help="optimal standard for a Tullock contest")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--efforts", help="comma-separated efforts to evaluate the CSF at")
    p.add_argument("--rho", type=float, help="standard for the CSF evaluation")
    p.add_argument("--out")
    p.set_defaults(func=cmd_tullock)

    p = sub.add_parser("fm", help="optimal idea standard for an innovation contest")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ideas", required=True, help="idea distribution spec as inline JSON")
    p.add_argument("--out")
    p.set_defaults(func=cmd_fm)

    p = sub.add_parser("race", help="optimal deadline for a patent race")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--shock", help="shock distribution spec as inline JSON")
    p.add_argument("--mode", type=float, help="shock mode, if known directly")
    p.add_argument("--out")
    p.set_defaults(func=cmd_race)

    return parser


def _warning_line(message, category, filename, lineno, line=None) -> str:
    """A warning as ``main`` prints it: its category and message, without
    the file, line and source text that raised it."""
    return f"{category.__name__}: {message}\n"


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():  # each call shows its warnings, as a fresh process does
        formatwarning, warnings.formatwarning = warnings.formatwarning, _warning_line
        try:
            return args.func(args)
        except NUMERIC_ERRORS as exc:
            sys.stderr.write(f"numeric failure: {exc}\n")
            return EXIT_NUMERIC
        except (ConfigError, ValueError) as exc:
            sys.stderr.write(f"invalid input: {exc}\n")
            return EXIT_CONFIG
        except OSError as exc:  # an unreadable input raised ConfigError; this is an output
            sys.stderr.write(f"invalid input: cannot write output: {exc}\n")
            return EXIT_CONFIG
        finally:
            warnings.formatwarning = formatwarning


if __name__ == "__main__":
    sys.exit(main())
