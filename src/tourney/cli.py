"""Command-line surface: scenario solving, figures, verification, audits.

Configuration comes from a JSON document; command-line flags override config
fields.  All Monte-Carlo commands require a seed (flag, config, or the
TOURNEY_SEED environment variable) and identical config + seed produces
byte-identical artifacts.

Exit codes: 0 success, 2 invalid config/input, 3 numeric failure,
4 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys

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
    """``convert(value)``; a value it cannot take is a config error naming ``key``."""
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad '{key}': {exc}") from exc


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
    """The flag's seed, else the ``montecarlo`` config's, else TOURNEY_SEED's."""
    if flag_seed is not None:
        return int(flag_seed)
    if mc_cfg.get("seed") is not None:
        return _number(int, mc_cfg["seed"], "seed")
    env = os.environ.get("TOURNEY_SEED")
    if env is not None:
        return _number(int, env, "TOURNEY_SEED")
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
    try:
        return CostFunction(float(spec.get("kappa", 1.0)), float(spec.get("beta", 2.0)))
    except (TypeError, ValueError) as exc:
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
            return PrizeSchedule.equal_top(_number(int, spec["equal_top"], "equal_top"), n)
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
    n = _number(int, merged["n"], "n")
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
        "montecarlo": merged.get("montecarlo", {}) or {},
        "verify": merged.get("verify", {}) or {},
    }


def _json_dump(obj, path: str | None) -> None:
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_csv(path: str, header: list[str], columns: list[np.ndarray], comments=()) -> None:
    """Columns as Python values, so each float is written as its shortest
    round-trip repr."""
    with open(path, "w") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        fh.write(",".join(header) + "\n")
        for row in zip(*(np.asarray(c).tolist() for c in columns)):
            fh.write(",".join(map(str, row)) + "\n")


# ---------------------------------------------------------------------------
# solve / prizes
# ---------------------------------------------------------------------------


def _solution_payload(solution, schedule: PrizeSchedule, dist) -> dict:
    return {
        "threshold": solution.threshold,
        "effort": solution.effort,
        "standard": solution.standard,
        "marginal_benefit": solution.marginal_benefit,
        "pass_probability": solution.pass_probability,
        "concavity_ok": solution.concavity_ok,
        "schedule": list(schedule.prizes),
        "distribution": {"family": dist.family, "normalization": dist.normalization},
    }


def _solve_scenario(sc: dict):
    """Returns (payload, schedule, solution)."""
    if sc["schedule"] is None:
        report, solution = prizes_mod.optimal_prizes(
            sc["dist"], sc["n"], sc["cost"], threshold=sc["threshold"]
        )
        schedule = report.schedule
        payload = _solution_payload(solution, schedule, sc["dist"])
        payload.update(
            {
                "regime": report.regime,
                "r_star": report.r_star,
                "tie_set": list(report.tie_set),
                "rank_scores": list(report.scores),
            }
        )
    else:
        schedule = sc["schedule"]
        solution = solve_design(
            sc["dist"], sc["n"], schedule, sc["cost"], threshold=sc["threshold"]
        )
        payload = _solution_payload(solution, schedule, sc["dist"])
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


def plot_grid(dist: dists.NoiseDistribution) -> np.ndarray:
    """Uniform plotting grid over the truncated support, knots included."""
    lo, hi = dist.truncated_support()
    return np.union1d(np.linspace(lo, hi, GRID_POINTS), [k for k in dist.knots if lo < k < hi])


def _figure_panels(outdir: str, tag: str, dist_list, t_max=None) -> None:
    os.makedirs(outdir, exist_ok=True)
    grid = plot_grid(dist_list[0][1])  # panel distributions share one support
    keep = slice(None) if t_max is None else grid <= t_max
    show = grid[keep]

    def _panel(fname, columns, title, ylabel, ylim=None):
        header = ["t"] + [c[0] for c in columns]
        cols = [show] + [c[1] for c in columns]
        comments = [
            "density normalization: "
            + " ".join(f"{name}={d.normalization!r}" for name, d in dist_list)
        ]
        _write_csv(os.path.join(outdir, f"{tag}_{fname}.csv"), header, cols, comments)
        svg = line_plot_svg(
            [(label, show, vals) for label, vals in columns],
            title=title,
            xlabel="t",
            ylabel=ylabel,
            ylim=ylim,
        )
        with open(os.path.join(outdir, f"{tag}_{fname}.svg"), "w") as fh:
            fh.write(svg)

    dens_cols, lr_cols, hz_cols, g_cols = [], [], [], []
    for name, d in dist_list:
        f = np.asarray(d.pdf(grid))
        dens_cols.append((name, f[keep]))

        lam = np.full_like(grid, np.nan)
        pos = f > 1e-12
        lam[pos] = np.asarray(d.likelihood_ratio(grid[pos]))
        lr_cols.append((name, lam[keep]))

        hz = np.full_like(grid, np.nan)
        alive = np.asarray(d.sf(grid)) > 1e-12
        hz[alive] = np.asarray(d.hazard(grid[alive]))
        hz_cols.append((name, hz[keep]))

        d_rows = np.stack([PrizeSchedule.equal_top(s, 3).differentials for _, s in FIG1_SCHEDULES])
        curves = _marginal_benefit(d, 3, d_rows, grid)  # each row summed as for its schedule alone
        for (sched_name, _), curve in zip(FIG1_SCHEDULES, curves):
            g_cols.append((f"{name}_{sched_name}", curve[keep]))

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
    sc = _scenario_from(_load_config(args.config), args)
    payload, schedule, solution = _solve_scenario(sc)
    opts = sc["verify"]
    _check_keys(opts, {"force_effort", "bounds_battery", "battery_draws", "scheme"}, "verify")
    mc_cfg = sc["montecarlo"]
    _check_keys(mc_cfg, {"draws", "seed"}, "montecarlo")
    seed = _resolve_seed(args.seed, mc_cfg)
    if seed is None:
        raise ConfigError("verification needs a seed (flag, config, or TOURNEY_SEED)")
    draws = args.draws if args.draws is not None else mc_cfg.get("draws")
    draws = 10**6 if draws is None else _number(int, draws, "draws")
    e_check = opts.get("force_effort")
    e_check = solution.effort if e_check is None else _number(float, e_check, "force_effort")
    n_battery = _number(int, opts.get("bounds_battery") or 0, "bounds_battery")
    battery_draws = opts.get("battery_draws")
    battery_draws = 10**5 if battery_draws is None else _number(int, battery_draws, "battery_draws")

    design = TournamentDesign(standard=solution.standard, schedule=schedule, cost=sc["cost"])
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
    battery_ok = True
    schemes = []
    if opts.get("scheme") is not None:
        schemes.append(payschemes.scheme_from_spec(opts["scheme"], design.n))
    if n_battery > 0:
        rng = np.random.Generator(np.random.Philox(key=seed + 1))
        lo, hi = sc["dist"].truncated_support(1e-6)
        schemes.extend(
            payschemes.scheme_battery(design.n, n_battery, rng, e_check + lo, e_check + hi)
        )
    if schemes:
        battery_out = []
        for k, scheme in enumerate(schemes):
            chk = payschemes.check_incentive_bound(
                sc["dist"], scheme, e_check, battery_draws, seed + 2 + k
            )
            battery_ok &= chk.satisfied
            battery_out.append(
                {
                    "scheme": scheme.label,
                    "estimate": chk.estimate,
                    "se": chk.se,
                    "bound": chk.bound,
                    "satisfied": chk.satisfied,
                }
            )

    verified = bool(report.certified and ok_ranks and battery_ok)
    out = {
        "scenario": payload,
        "checked_effort": e_check,
        "best_response": {
            "gap": report.best_response_gap,
            "gap_se": report.gap_se,
            "grid_bias": report.grid_bias,
            "certified": report.certified,
            "draws": draws,
            "seed": seed,
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


def _read_sample(path: str, declared_standard) -> audit_mod.PerformanceSample:
    try:
        with open(path, newline="") as fh:
            rows = csv.reader(fh)
            columns = {name: i for i, name in enumerate(next(rows, []))}
            if "performance" not in columns:
                raise ConfigError("sample CSV needs a 'performance' header column")
            perf, group = columns["performance"], columns.get("group")
            width = max(perf, group or 0) + 1
            obs, labels = [], []
            for row in rows:
                if not row:
                    continue
                if len(row) < width:
                    raise ConfigError(f"sample line {rows.line_num} has {len(row)} of {width} columns")
                try:
                    obs.append(float(row[perf]))
                except ValueError as exc:
                    raise ConfigError(f"bad sample value on line {rows.line_num}: {exc}") from exc
                if group is not None:
                    labels.append(row[group])
    except OSError as exc:
        raise ConfigError(f"cannot read sample: {exc}") from exc
    return audit_mod.PerformanceSample(
        observations=tuple(obs),
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
    out = {
        "n_obs": report.n_obs,
        "bandwidth": report.bandwidth,
        "modes": list(report.modes),
        "modal_performance": report.modal_performance,
        "mode_ci": list(report.mode_ci),
        "bootstrap_draws": report.bootstrap_draws,
        "seed": report.seed,
        "pass_benchmark_note": report.pass_benchmark_note,
    }
    if report.standard_comparison is not None:
        out["standard_comparison"] = report.standard_comparison
        if report.group_pass_fractions:
            out["group_pass_fractions"] = report.group_pass_fractions
    _json_dump(out, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# contest adapters
# ---------------------------------------------------------------------------


def cmd_tullock(args) -> int:
    e_star, rho_star = contests.tullock_optimal(args.n)
    out = {
        "n": args.n,
        "e_star": e_star,
        "rho_star": rho_star,
        "foc_effort": contests.tullock_selfconsistent_effort(args.n),
    }
    out["foc_gap"] = abs(out["e_star"] - out["foc_effort"])
    if args.efforts:
        efforts = [float(v) for v in args.efforts.split(",")]
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
    ideas = _build_distribution(json.loads(args.ideas))
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
        mode = _build_distribution(json.loads(args.shock)).find_modes().global_mode
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
    p.add_argument("--seed", type=int, help="bootstrap seed (or TOURNEY_SEED)")
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NUMERIC_ERRORS as exc:
        sys.stderr.write(f"numeric failure: {exc}\n")
        return EXIT_NUMERIC
    except (ConfigError, ValueError) as exc:
        sys.stderr.write(f"invalid input: {exc}\n")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
