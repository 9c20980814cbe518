"""Standards in three classic contest models.

A Tullock contest is a rank-order tournament with Gumbel noise viewed
through an exponential lens: multiplicative efforts and standards are the
exponentials of their additive counterparts.  That mapping carries the
optimal-standard results over to Tullock contests (where the standard
introduces a no-winner probability), to innovation contests where players
draw ideas from a distribution, and to patent races where the standard is a
deadline.
"""

from __future__ import annotations

import numpy as np

from .distributions import NoiseDistribution, gumbel
from .montecarlo import _certificate, _effort_grid, _require_draws, _require_effort, _require_seed, _scan

__all__ = [
    "AllZeroEfforts",
    "tullock_csf_with_standard",
    "tullock_optimal",
    "tullock_selfconsistent_effort",
    "tullock_best_response_gap",
    "fm_optimal_standard",
    "patent_race_deadline",
]

# Evenly spaced efforts on [0, 1] of the Tullock best-response scan.
TULLOCK_GRID_POINTS = 200


class AllZeroEfforts(ValueError):
    """The contest success function is undefined when every effort is zero."""


def tullock_csf_with_standard(efforts, rho: float):
    """Win probabilities ``(e_i / sum e) * (1 - exp(-sum e / rho))``.

    The bracketed factor is the chance that anyone clears the standard; its
    complement is the no-winner probability, so the probabilities sum to
    less than one.  As ``rho -> 0`` the classic ratio form is recovered.
    An effort that is negative or not finite, or a ``rho`` that is not a
    positive finite number, raises ``ValueError`` naming it.
    """
    e = np.asarray(efforts, dtype=float)
    bad = e[~(np.isfinite(e) & (e >= 0.0))]
    if bad.size:
        raise ValueError(f"effort {float(bad[0])!r} is not a nonnegative finite number")
    if not 0.0 < rho < np.inf:
        raise ValueError(f"standard rho={rho!r} is not a positive finite number")
    total = float(e.sum())
    if total <= 0.0:
        raise AllZeroEfforts("at least one effort must be positive")
    return (e / total) * -np.expm1(-total / rho)


def tullock_optimal(n: int) -> tuple[float, float]:
    """Closed-form optimal symmetric effort and standard under linear cost.

    ``e* = (n-1)/n^2 + exp(-n)/n^2`` and the optimal multiplicative standard
    equals the effort itself (the additive threshold sits at the Gumbel
    mode, zero).
    """
    if n < 2:
        raise ValueError("need at least two players")
    e_star = (n - 1.0) / n**2 + np.exp(-float(n)) / n**2
    return float(e_star), float(e_star)


def _symmetric_foc(e: float, n: int, rho: float) -> float:
    # marginal win probability at the symmetric profile minus marginal cost 1
    s = n * e
    expo = np.exp(-s / rho)
    return (n - 1.0) * (1.0 - expo) / (n**2 * e) + expo / (n * rho) - 1.0


def tullock_selfconsistent_effort(n: int) -> float:
    """Solve the symmetric first-order condition with the standard tied to
    the effort (rho = e); independent check of the closed form."""
    from scipy.optimize import brentq  # off the import path of the other commands

    return float(
        brentq(lambda e: _symmetric_foc(e, n, e), 1e-12, 1.0, xtol=1e-15, rtol=1e-15)
    )


def tullock_best_response_gap(
    n: int,
    e_star: float,
    rho: float,
    draws: int = 10**5,
    seed: int | None = None,
) -> dict:
    """Monte-Carlo best-response scan for the Tullock contest with a standard.

    Simulates the underlying Gumbel-noise tournament, the winner-take-all
    case of ``montecarlo.verify_best_response`` in log-effort units: player 1
    deviates over a multiplicative effort grid on [0, 1] (linear cost, unit
    prize) while rivals sit at ``e_star``.  Common random numbers across the
    grid.  Returns the ``gap``, ``gap_se``, ``grid_bias`` and ``certified``
    of ``montecarlo._certificate``, named as in ``SimulationReport``: the
    max payoff gap over playing ``e_star``, its paired standard error, the
    grid-coarseness bias bound and the verdict.  An ``e_star`` that is not
    a number in (0, 1], where the slope bound 1 / ((n - 1) e*) is finite, a
    ``rho`` that is not a positive finite number, fewer than two players
    and fewer than 1e4 draws raise ``ValueError``.
    """
    seed = _require_seed(seed)
    draws = _require_draws(draws)
    if n < 2:
        raise ValueError(f"need at least two players, got n={n!r}")
    e_star = _require_effort(e_star, 1.0)
    if e_star == 0.0:
        raise ValueError(f"checked effort {e_star!r} must be positive: the slope bound 1/((n-1) e*) is infinite")
    if not 0.0 < rho < np.inf:
        raise ValueError(f"standard rho={rho!r} is not a positive finite number")
    grid, i_star = _effort_grid(1.0, TULLOCK_GRID_POINTS, e_star)
    # additive units: effort 0 sits at log 0 = -inf and never wins
    log_grid = np.log(grid, out=np.full(grid.size, -np.inf), where=grid > 0)
    prizes = np.zeros(n)
    prizes[0] = 1.0
    sums, _ = _scan(gumbel(), n, draws, seed, log_grid, i_star, np.log(rho), prizes)
    # payoff slope is bounded by the win-probability slope plus marginal cost
    lipschitz = 1.0 / ((n - 1) * e_star) + 1.0 / rho + 1.0
    cert = _certificate(sums, draws, grid, grid, i_star, lipschitz)
    return {key: cert[key] for key in ("gap", "gap_se", "grid_bias", "certified")}


def fm_optimal_standard(ideas: NoiseDistribution, n: int) -> float:
    """Optimal minimum idea quality in the sample-your-best-idea contest.

    Players draw ideas from ``ideas`` (support within [0, x_max]) at one draw
    per effort unit; only ideas above the standard count as innovations.
    The optimal standard is the idea quantile ``exp(-1/e*)`` with ``e*`` the
    optimal Tullock effort.
    """
    e_star, _ = tullock_optimal(n)
    return float(ideas.ppf(np.exp(-1.0 / e_star)))


def patent_race_deadline(mode: float, n: int) -> float:
    """Optimal deadline for a patent race with multiplicative arrival times.

    ``mode`` is the global mode of the additive-log shock distribution; the
    deadline is ``exp(-mode) / e*`` with ``e*`` the optimal Tullock effort.
    Gumbel shocks have mode zero, so the deadline is simply the reciprocal
    of the optimal effort.  A ``mode`` that is not finite raises
    ``ValueError``.
    """
    if not np.isfinite(mode):
        raise ValueError(f"shock mode {mode!r} is not a finite number")
    e_star, _ = tullock_optimal(n)
    return float(np.exp(-mode) / e_star)
