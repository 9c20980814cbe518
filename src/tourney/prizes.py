"""Optimal prize schedules at the optimal standard.

With the threshold fixed at the global mode, choosing prizes is a linear
program over prize differentials whose budget constraint prices the rank-r
differential at r.  The optimum is therefore a corner: some number r* of
equal prizes at the top, with r* maximizing the per-rank score
``B_r / r``.  The score has an equivalent representation as an average of
the modified hazard rate against an order statistic, which is computed as an
internal cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import NoiseDistribution
from .equilibrium import (
    CostFunction,
    EquilibriumSolution,
    PrizeSchedule,
    _integrals_above,
    _marginal_benefit,
    _unit,
    global_mode_sufficiency,
    solve_design,
)

__all__ = [
    "PrizeDesignReport",
    "RepresentationMismatch",
    "SufficiencyViolated",
    "modified_hazard",
    "rank_score",
    "optimal_prizes",
]

SCORE_TIE_TOL = 1e-9
CROSSCHECK_TOL = 1e-7


class RepresentationMismatch(RuntimeError):
    """The two computations of a rank score disagree beyond tolerance."""


class SufficiencyViolated(RuntimeError):
    """The standard at the global mode is not optimal for every schedule;
    pass an explicit threshold to design prizes for a chosen standard."""


@dataclass(frozen=True)
class PrizeDesignReport:
    r_star: int
    schedule: PrizeSchedule
    scores: tuple[float, ...]       # B_r(t)/r for r = 1..n
    regime: str                     # WTA | EPS | tie | interior-check
    tie_set: tuple[int, ...]        # all ranks within tolerance of the best score
    threshold: float


def modified_hazard(dist: NoiseDistribution, t: float, x):
    """Hazard rate with the density argument floored at the threshold:
    f(max(x, t)) / (1 - F(x))."""
    arr = np.asarray(x, dtype=float)
    surv = np.asarray(dist.sf(arr), dtype=float)
    out = np.asarray(dist.pdf(np.maximum(arr, t)), dtype=float) / np.where(surv > 0, surv, np.nan)
    return float(out) if np.ndim(x) == 0 else out


def rank_score(dist: NoiseDistribution, n: int, r, t: float):
    """Per-rank score B_r(t)/r, cross-checked against its order-statistic form.

    ``r`` is one rank, which gives a float, or an array of ranks, which gives
    an array of their scores, equal bit for bit to one call per rank: both
    forms take every rank in one kernel pass, so two passes in all.  The
    equivalent form averages the modified hazard against the
    (n-r)-th-lowest-of-n order statistic over the whole support, where the
    direct form takes the part below t in closed form.  Both run on the
    same quadrature kernel, so the check catches a defect in either part but
    not one the kernel makes in both; disagreement beyond 1e-7 raises
    ``RepresentationMismatch`` for the first such rank.
    """
    ranks = np.asarray(r, dtype=int)
    unit = _unit(n, ranks)
    direct = _marginal_benefit(dist, n, unit, t)[..., 0] / ranks
    # modified hazard times the order-statistic density, with the survival
    # factors cancelled analytically: over u = F(x) this is f(max(x, t))
    # against the Beta(n-r, r) weight, which kinks at t.  At r = n the
    # order statistic is degenerate at -inf and the average collapses to
    # f(t)/n.
    _, above = _integrals_above(dist, n, unit, lambda x: dist.pdf(np.maximum(x, t)), -np.inf, [t])
    alt = np.where(ranks == n, float(dist.pdf(t)) / n, above[..., 0] / ranks)
    bad = np.nonzero(np.ravel(np.abs(direct - alt) > CROSSCHECK_TOL))[0]
    if bad.size:
        i = bad[0]
        raise RepresentationMismatch(
            f"rank {ranks.flat[i]} score {direct.flat[i]:.12g} vs order-statistic form {alt.flat[i]:.12g}"
        )
    return float(direct) if ranks.ndim == 0 else direct


def optimal_prizes(
    dist: NoiseDistribution,
    n: int,
    cost: CostFunction,
    threshold: float | None = None,
) -> tuple[PrizeDesignReport, EquilibriumSolution]:
    """Jointly optimal prize schedule and standard.

    Requires the global mode to be the optimal threshold for every schedule
    unless the caller overrides with an explicit ``threshold`` (in which case
    prizes maximize effort for that given standard).  Ties across ranks are
    reported with regime ``tie`` and resolved to the smallest rank count.
    """
    if threshold is None:
        suff = global_mode_sufficiency(dist, n)
        if not suff.holds:
            raise SufficiencyViolated(
                f"top-rank incentives peak at mode {suff.witness:g}, not the "
                f"global mode; pass threshold= explicitly to design for a "
                f"chosen standard"
            )
        t = dist.find_modes().global_mode
    else:
        t = float(threshold)

    scores = tuple(float(s) for s in rank_score(dist, n, np.arange(1, n + 1), t))
    best = max(scores)
    tie_set = tuple(r for r, s in enumerate(scores, start=1) if s >= best - SCORE_TIE_TOL)
    r_star = tie_set[0]
    if len(tie_set) > 1:
        regime = "tie"
    elif r_star == 1:
        regime = "WTA"
    elif r_star == n:
        regime = "EPS"
    else:
        regime = "interior-check"
    schedule = PrizeSchedule.equal_top(r_star, n)
    solution = solve_design(dist, n, schedule, cost, threshold=threshold)
    report = PrizeDesignReport(
        r_star=r_star,
        schedule=schedule,
        scores=scores,
        regime=regime,
        tie_set=tie_set,
        threshold=float(t),
    )
    return report, solution
