"""Optimal prize schedules and standards, designed jointly.

For a fixed standard at threshold t, choosing prizes is a linear program
over prize differentials whose budget constraint prices the rank-r
differential at r.  The optimum is therefore a corner: some number r of
equal prizes at the top, with r maximizing the per-rank score
``B_r(t) / r``.  For every schedule the optimal standard is a mode at or
above the global mode of the noise density, so the jointly optimal design
is the largest score in the table of B_r(m) / r over the ranks r and those
modes m (Moldovanu & Sela, AER 2001).  The whole table comes from one pass
of the quadrature kernel that computes the rank coefficients B_r.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import NoiseDistribution
from .equilibrium import (
    CostFunction,
    EquilibriumSolution,
    PrizeSchedule,
    THRESHOLD_TIE_TOL,
    _marginal_benefit,
    _mode_values,
    _unit,
    solve_design,
)

__all__ = [
    "PrizeDesignReport",
    "rank_score",
    "optimal_prizes",
]


@dataclass(frozen=True)
class PrizeDesignReport:
    """The prize corner at the design's threshold, which is the
    ``EquilibriumSolution.threshold`` returned with it.  Its fields but
    ``schedule`` are the JSON keys that ``prizes`` prints."""

    r_star: int
    schedule: PrizeSchedule
    rank_scores: tuple[float, ...]  # B_r(t)/r for r = 1..n
    regime: str                     # WTA | EPS | tie | interior-check
    tie_set: tuple[int, ...]        # all ranks within tolerance of the best score


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
    """Jointly optimal prize schedule and standard: the largest score
    B_r(t)/r over the ranks r and the modes t weakly above the global mode,
    which ``_mode_values`` gives in one kernel pass.

    An explicit ``threshold`` fixes the standard instead, and the prizes
    maximize effort for it from one column of scores.  Ties within
    ``THRESHOLD_TIE_TOL`` go to the smallest threshold, which maximizes the
    pass probability.  There, B_r is within ``THRESHOLD_TIE_TOL`` and so
    B_r/r within ``THRESHOLD_TIE_TOL`` / r; a rank ties with the best when
    their scores differ by at most the sum of those errors.  Ties go to the
    smallest rank count, and a tie across ranks is reported with regime
    ``tie``.
    """
    ranks = np.arange(1, n + 1)
    if threshold is None:
        modes, b = _mode_values(dist, n, _unit(n, ranks))
        table = b / ranks[:, None]
    else:
        modes = np.array([float(threshold)])
        table = rank_score(dist, n, ranks, threshold)[:, None]
    j = int(np.argmax(np.any(table >= np.max(table) - THRESHOLD_TIE_TOL, axis=0)))
    column = table[:, j]
    top = int(np.argmax(column))
    tie = column >= column[top] - THRESHOLD_TIE_TOL * (1.0 / ranks + 1.0 / ranks[top])
    scores = tuple(float(s) for s in column)
    tie_set = tuple(int(r) for r in ranks[tie])
    r_star, t = tie_set[0], float(modes[j])
    regime = "tie" if len(tie_set) > 1 else {n: "EPS", 1: "WTA"}.get(r_star, "interior-check")
    schedule = PrizeSchedule.equal_top(r_star, n)
    report = PrizeDesignReport(r_star, schedule, scores, regime, tie_set)
    return report, solve_design(dist, n, schedule, cost, threshold=t)
