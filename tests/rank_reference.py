"""Direct forms kept as references for the tests.

``order_statistic_cdf`` takes one order statistic at a time, where
``equilibrium._rank_cdf_sum`` takes the levels once for all ranks.
``finite_difference_marginals`` differentiates prize probabilities
numerically, against the closed rank marginal-benefit coefficients.
"""

import numpy as np

from tourney import distributions as dists
from tourney import equilibrium as eq
from tourney import montecarlo as mc


class RankOutOfRange(ValueError):
    """Order-statistic rank outside 0..n."""


def order_statistic_cdf(dist, j: int, n: int, x):
    """CDF of the (n+1-j)-th highest (j-th lowest) of n i.i.d. draws.

    Follows the convention that rank j=0 is a degenerate draw at -inf, so its
    CDF is identically one.
    """
    if not (0 <= j <= n):
        raise RankOutOfRange(f"rank {j} outside 0..{n}")
    u = np.asarray(dist.cdf(x))
    out = dists._order_statistic_level_cdf(j, n, u)
    return float(out) if u.ndim == 0 else out


def finite_difference_marginals(
    dist, design, e_star, step=1e-5, method="quadrature", draws=10**6, seed=None
):
    """Central-difference estimates of d/de of the at-least-rank-r probability.

    Differentiates either the quadrature probabilities (default) or the
    common-random-number Monte-Carlo estimates; in equilibrium these match
    the rank marginal-benefit coefficients at ``standard - e_star``.
    """
    n = design.n
    rho = design.standard
    if method == "quadrature":
        ranks = np.arange(1, n + 1)
        up = eq.prize_probability(dist, n, ranks, e_star + step, e_star, rho)
        dn = eq.prize_probability(dist, n, ranks, e_star - step, e_star, rho)
        return (up - dn) / (2.0 * step)
    if method != "simulate":
        raise ValueError("method must be 'quadrature' or 'simulate'")
    seed = mc._require_seed(seed)
    counts_up = np.zeros(n)
    counts_dn = np.zeros(n)
    for x in mc.noise_batches(dist, n, draws, seed):
        for sign, counts in ((+1.0, counts_up), (-1.0, counts_dn)):
            rank = mc._rank(x, e_star + sign * step, e_star, rho)
            counts += np.bincount(rank, minlength=n + 1)[:n]
    at_least_up = np.cumsum(counts_up / draws)
    at_least_dn = np.cumsum(counts_dn / draws)
    return (at_least_up - at_least_dn) / (2.0 * step)
