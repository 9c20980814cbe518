"""Optimal prize schedules at the optimal standard.

With the threshold fixed at the global mode, choosing prizes is a linear
program over prize differentials whose budget constraint prices the rank-r
differential at r.  The optimum is therefore a corner: some number r* of
equal prizes at the top, with r* maximizing the per-rank score
``B_r / r``.  All n scores come from one pass of the quadrature kernel
that computes the rank coefficients B_r.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import NoiseDistribution
from .equilibrium import (
    CostFunction,
    EquilibriumSolution,
    PrizeSchedule,
    _marginal_benefit,
    _unit,
    global_mode_sufficiency,
    solve_design,
)

__all__ = [
    "PrizeDesignReport",
    "SufficiencyViolated",
    "rank_score",
    "optimal_prizes",
]

SCORE_TIE_TOL = 1e-9


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


def rank_score(dist: NoiseDistribution, n: int, r, t: float):
    """Per-rank score B_r(t)/r.

    ``r`` is one rank, which gives a float, or an array of ranks, which gives
    an array of their scores, equal bit for bit to one call per rank: every
    rank goes through one kernel pass.  A rank outside 1..n raises
    ``ValueError``.
    """
    ranks = np.asarray(r, dtype=int)
    scores = _marginal_benefit(dist, n, _unit(n, ranks), t)[..., 0] / ranks
    return float(scores) if ranks.ndim == 0 else scores


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
