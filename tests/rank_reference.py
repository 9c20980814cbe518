"""Direct forms kept as references for the tests.

``order_statistic_cdf`` takes one order statistic at a time from
``scipy.special.betainc``, the independent reference for
``equilibrium._rank_cdf_sum``, which takes the levels once for all ranks and
sums the binomial pmf of ``equilibrium._log_beta_density`` instead.
``finite_difference_marginals`` differentiates prize probabilities
numerically, against the closed rank marginal-benefit coefficients.
"""

import numpy as np
from scipy import special

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
    if j == 0:
        out = np.ones_like(u)
    elif j == n:
        out = u**n  # maximum of n draws, kept exact
    else:
        out = special.betainc(j, n - j + 1, u)
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

    def work(m, rng):
        x = dist.sample((m, n), rng)
        counts = []
        for sign in (+1.0, -1.0):
            y1 = e_star + sign * step + x[:, 0]
            counts.append(np.bincount(mc._rank(x, y1, y1 >= rho, e_star), minlength=n + 1)[:n])
        return np.array(counts, dtype=float)

    counts_up, counts_dn = sum(mc._blocks(work, draws, mc.BATCH, seed), np.zeros((2, n)))
    at_least_up = np.cumsum(counts_up / draws)
    at_least_dn = np.cumsum(counts_dn / draws)
    return (at_least_up - at_least_dn) / (2.0 * step)
