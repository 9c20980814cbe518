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

from .distributions import NoiseDistribution

__all__ = [
    "AllZeroEfforts",
    "tullock_csf_with_standard",
    "tullock_optimal",
    "fm_optimal_standard",
    "patent_race_deadline",
]


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
    mode, zero).  With rho = e the symmetric first-order condition reads
    ((n-1) + exp(-n)) / (n^2 e) = 1, whose root is this e*.
    """
    if n < 2:
        raise ValueError("need at least two players")
    e_star = (n - 1.0) / n**2 + np.exp(-float(n)) / n**2
    return float(e_star), float(e_star)


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
