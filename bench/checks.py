"""Checks of command outputs, made apart from the program.

Each check recomputes what a command should print from closed forms,
``scipy.stats`` and the mpmath references (see ``refs.py``), never from a
stored copy of the program's output, and returns a list of problems (empty
when the output passes).
"""

from __future__ import annotations

import csv
import math
import os

import numpy as np
from scipy import optimize, special, stats

from refs import TRIMODAL_KNOTS, References, standardise

# Families whose regime the paper's theorem fixes: increasing failure rate
# gives winner-take-all, decreasing gives equal prizes, constant is a tie.
REGIME_BY_FAMILY = {
    "normal": "WTA",
    "gumbel": "WTA",
    "logistic": "WTA",
    "erf_exponential": "EPS",
    "pareto": "EPS",
    "exponential": "tie",
}
TIE_TOL = 1e-9


def _close(got, want, rel, abs_):
    return got is not None and abs(float(got) - want) <= abs_ + rel * abs(want)


def schedule(name: str, n: int) -> list[float]:
    if name == "wta":
        return [1.0] + [0.0] * (n - 1)
    if name == "eps":
        return [1.0 / n] * n
    raise ValueError(name)


def equal_top(s: int, n: int) -> list[float]:
    return [1.0 / s] * s + [0.0] * (n - s)


def differentials(prizes: list[float]) -> list[float]:
    return [a - b for a, b in zip(prizes, prizes[1:] + [0.0])]


def effort(g: float, kappa: float, beta: float) -> float:
    """c'^{-1}(g) for the power cost c(e) = kappa e^beta / beta."""
    return (g / kappa) ** (1.0 / (beta - 1.0))


def trimodal_sf(variant: str, t: float) -> float:
    kx = np.array([x for x, _ in TRIMODAL_KNOTS[variant]], dtype=float)
    kf = np.array([f for _, f in TRIMODAL_KNOTS[variant]], dtype=float)
    kf = kf / np.trapezoid(kf, kx)
    x = np.unique(np.append(kx[kx > t], t))
    return float(np.trapezoid(np.interp(x, kx, kf), x)) if t < kx[-1] else 0.0


def survival(family: str, params: dict, t: float) -> float:
    """S(t) from scipy.stats where the family exists there, else closed form."""
    loc, scale = float(params.get("loc", 0.0)), float(params.get("scale", 1.0))
    if family == "normal":
        return float(stats.norm(loc, scale).sf(t))
    if family == "gumbel":
        return float(stats.gumbel_r(loc, scale).sf(t))
    if family == "logistic":
        return float(stats.logistic(loc, scale).sf(t))
    if family == "exponential":
        return float(stats.expon(scale=1.0 / float(params.get("rate", 1.0))).sf(t))
    if family == "pareto":
        return float(stats.pareto(float(params.get("alpha", 2.0)), scale=float(params.get("x_min", 1.0))).sf(t))
    if family == "inverse_exponential":
        return float(stats.invweibull(1.0).sf(t))
    if family == "erf_exponential":
        return math.exp(-(t + math.sqrt(math.pi) / 2.0 * special.erf(t))) if t > 0 else 1.0
    if family == "trimodal_example":
        return trimodal_sf(params.get("variant", "red"), t)
    raise ValueError(family)


def optimal_threshold(refs: References, family, params, n, prizes) -> tuple[float, float]:
    """The paper's theorem: the mode at or above the global mode that
    maximises sum_r d_r B_r; ties go to the smallest such mode."""
    d = differentials(prizes)
    values = []
    for t in refs.modes(family, params):
        b = refs.coefficients(family, params, n, t)
        values.append((t, sum(dr * br for dr, br in zip(d, b))))
    best = max(g for _, g in values)
    return next((t, g) for t, g in values if g >= best - TIE_TOL)


def _scenario_problems(doc, spec, t_star, g_star) -> list[str]:
    family, params = spec["family"], spec["params"]
    _, _, scale = standardise(family, params)
    problems = []
    if not _close(doc.get("threshold"), t_star, 0.0, 1e-6 * scale):
        problems.append(f"threshold {doc.get('threshold')!r} is not the mode {t_star!r}")
        return problems  # the quantities below are all taken at the threshold
    if not _close(doc.get("marginal_benefit"), g_star, 1e-7, 1e-10):
        problems.append(f"marginal benefit {doc.get('marginal_benefit')!r} vs {g_star!r}")
    e_star = effort(g_star, spec["kappa"], spec["beta"])
    if not _close(doc.get("effort"), e_star, 1e-7, 1e-10):
        problems.append(f"effort {doc.get('effort')!r} vs c'^-1(sum d_r B_r) = {e_star!r}")
    if not _close(doc.get("standard"), doc["threshold"] + doc.get("effort", math.nan), 1e-12, 1e-12):
        problems.append("standard is not threshold + effort")
    s = survival(family, params, doc["threshold"])
    if not _close(doc.get("pass_probability"), s, 1e-9, 1e-12):
        problems.append(f"pass probability {doc.get('pass_probability')!r} vs S(t) = {s!r}")
    return problems


def check_solve(doc: dict, spec: dict, refs: References) -> list[str]:
    n = spec["n"]
    prizes = schedule(spec["schedule"], n)
    if doc.get("schedule") != prizes:
        return [f"schedule {doc.get('schedule')} is not {spec['schedule']}"]
    t_star, g_star = optimal_threshold(refs, spec["family"], spec["params"], n, prizes)
    return _scenario_problems(doc, spec, t_star, g_star)


def check_prizes(doc: dict, spec: dict, refs: References) -> list[str]:
    family, params, n = spec["family"], spec["params"], spec["n"]
    _, _, scale = standardise(family, params)
    t = spec["threshold"] if spec["threshold"] is not None else refs.modes(family, params)[0]
    b = refs.coefficients(family, params, n, t)
    scores = [br / r for r, br in enumerate(b, start=1)]
    best = max(scores)
    tie_set = [r for r, s in enumerate(scores, start=1) if s >= best - TIE_TOL]
    r_star = tie_set[0]
    if len(tie_set) > 1:
        regime = "tie"
    else:
        regime = {1: "WTA", n: "EPS"}.get(r_star, "interior-check")
    problems = []
    want = REGIME_BY_FAMILY.get(family, regime)
    if doc.get("regime") != want or doc.get("regime") != regime:
        problems.append(f"regime {doc.get('regime')!r}, expected {want!r} (scores give {regime!r})")
    if doc.get("r_star") != r_star or doc.get("tie_set") != tie_set:
        problems.append(f"r* {doc.get('r_star')} / tie set {doc.get('tie_set')} vs {r_star} / {tie_set}")
    got = doc.get("rank_scores") or []
    if len(got) != n or not all(_close(g, w, 1e-7, 1e-9 / scale) for g, w in zip(got, scores)):
        worst = max((abs(g - w) for g, w in zip(got, scores)), default=math.inf)
        problems.append(f"rank scores differ from B_r/r by up to {worst:.3g}")
    if doc.get("schedule") != equal_top(r_star, n):
        problems.append("schedule is not the r* equal-prize corner")
    return problems + _scenario_problems(doc, spec, t, best)


def _read_panel(path: str) -> tuple[list[str], np.ndarray]:
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    return rows[0], np.array([[float(v) for v in row] for row in rows[1:]])


def _column_at(header, data, name, t) -> float:
    hit = np.nonzero(data[:, 0] == t)[0]
    return float(data[hit[0], header.index(name)]) if hit.size else math.nan


def check_figures(outdir: str, spec: dict, refs: References) -> list[str]:
    """Panel values at the modes against the references (the panel curve is
    a trapezoid sum on the plotting grid, hence the looser tolerance)."""
    which = spec["which"]
    problems = []
    for panel in ("density", "likelihood_ratio", "hazard", "marginal_benefit"):
        with open(os.path.join(outdir, f"{which}_{panel}.svg")) as fh:
            svg = fh.read()
        if "<svg" not in svg or not svg.rstrip().endswith("</svg>"):
            problems.append(f"{which}_{panel}.svg is not a whole SVG document")
    header, data = _read_panel(os.path.join(outdir, f"{which}_marginal_benefit.csv"))
    if which == "fig1":
        curves = [(f"{v}_{name}", "trimodal_example", {"variant": v}, s, t)
                  for v in ("red", "green", "blue")
                  for name, s in (("wta", 1), ("two", 2), ("eps", 3))
                  for t in (0.5, 1.0)]
    else:
        curves = [(f"dfr_{name}", "erf_exponential", {}, s, 0.0)
                  for name, s in (("wta", 1), ("two", 2), ("eps", 3))]
    for column, family, params, s, t in curves:
        d = differentials(equal_top(s, 3))
        want = sum(dr * br for dr, br in zip(d, refs.coefficients(family, params, 3, t)))
        got = _column_at(header, data, column, t)
        if not _close(got, want, 0.0, spec["curve_tol"]):
            problems.append(f"{which} {column} at t={t}: {got!r} vs {want!r}")
    if which == "fig2":
        h_header, h_data = _read_panel(os.path.join(outdir, "fig2_hazard.csv"))
        if not _close(_column_at(h_header, h_data, "dfr", 0.0), 2.0, 0.0, 1e-12):
            problems.append("fig2 hazard at 0 is not 2")
    return problems


def check_verify(doc: dict, tally_path: str, spec: dict, refs: References) -> list[str]:
    family, params, n = spec["family"], spec["params"], spec["n"]
    problems = []
    if doc.get("verified") is not True or doc["best_response"].get("certified") is not True:
        problems.append("design not verified")
    br = doc["best_response"]
    if br.get("draws") != spec["draws"] or br.get("seed") != spec["seed"]:
        problems.append("draws or seed not echoed")
    prizes = schedule(spec["schedule"], n)
    t_star, g_star = optimal_threshold(refs, family, params, n, prizes)
    problems += _scenario_problems(doc["scenario"], spec, t_star, g_star)
    # In the symmetric equilibrium the K players who pass share the top
    # min(K, r) places at random, so P(rank <= r) = E[min(K, r)] / n.
    k = np.arange(n + 1)
    pmf = stats.binom(n, survival(family, params, t_star)).pmf(k)
    rows = doc.get("prize_probabilities") or []
    mc = [row["montecarlo"] for row in rows]
    for r, row in enumerate(rows, start=1):
        want = float(np.sum(np.minimum(k, r) * pmf)) / n
        if abs(row["montecarlo"] - want) > 4.0 * row["se"]:
            problems.append(f"P(rank <= {r}) = {row['montecarlo']!r}, expected {want!r} within 4 SE")
    with open(tally_path, newline="") as fh:
        tally = [(int(rw["rank"]), int(rw["count"])) for rw in csv.DictReader(fh)]
    if sum(c for _, c in tally) != spec["draws"]:
        problems.append("tally does not sum to the number of draws")
    placed = np.cumsum([c for rank, c in tally if rank > 0]) / spec["draws"]
    if len(rows) != n or not np.allclose(placed, mc, rtol=0.0, atol=1e-12):
        problems.append("tally does not match the reported rank probabilities")
    return problems


def true_mode(shape: dict) -> float:
    """Mode of the density that generated an audit sample, by scipy.optimize."""
    kind = shape["kind"]
    if kind == "unimodal":
        dist = stats.norm(shape["mu"], shape["sigma"])
        pdf, lo, hi = dist.pdf, shape["mu"] - 2 * shape["sigma"], shape["mu"] + 2 * shape["sigma"]
    elif kind == "bimodal":
        a = stats.norm(shape["mu"], shape["sigma"])
        b = stats.norm(shape["mu"] + shape["gap"], shape["sigma"])
        w = shape["weight"]

        def pdf(x):
            return w * a.pdf(x) + (1.0 - w) * b.pdf(x)

        lo, hi = shape["mu"] - 2 * shape["sigma"], shape["mu"] + 2 * shape["sigma"]
    else:
        dist = stats.gamma(shape["k"], loc=shape["offset"], scale=shape["theta"])
        pdf, lo, hi = dist.pdf, shape["offset"], shape["offset"] + shape["k"] * shape["theta"]
    res = optimize.minimize_scalar(lambda x: -pdf(x), bounds=(lo, hi), method="bounded",
                                   options={"xatol": 1e-10})
    return float(res.x)


def check_audit(doc: dict, spec: dict, obs: np.ndarray, labels: np.ndarray) -> list[str]:
    problems = []
    if doc.get("n_obs") != obs.size or doc.get("bootstrap_draws") != spec["bootstrap"]:
        problems.append("sample size or resample count not echoed")
    comp = doc.get("standard_comparison") or {}
    std = spec["standard"]
    if comp.get("pass_fraction") != float(np.mean(obs >= std)):
        problems.append(f"pass fraction {comp.get('pass_fraction')!r} is not the direct count")
    groups = {g: float(np.mean(obs[labels == g] >= std)) for g in sorted(set(labels.tolist()))}
    if doc.get("group_pass_fractions") != groups:
        problems.append("group pass fractions are not the direct counts")
    modal = doc.get("modal_performance")
    lo, hi = doc.get("mode_ci") or (math.nan, math.nan)
    if not lo <= modal <= hi:
        problems.append(f"mode interval [{lo}, {hi}] does not hold the mode {modal}")
    want = "raise" if std < lo else "lower" if std > hi else "keep"
    if comp.get("recommendation") != want or comp.get("modal_performance") != modal:
        problems.append(f"recommendation {comp.get('recommendation')!r}, expected {want!r}")
    if obs.size >= spec["mode_check_size"]:
        m = true_mode(spec["shape"])
        if abs(modal - m) > spec["mode_tol_bandwidths"] * doc["bandwidth"]:
            problems.append(f"mode {modal!r} is {abs(modal - m) / doc['bandwidth']:.2f} bandwidths "
                            f"from the generating density's mode {m!r}")
    return problems
