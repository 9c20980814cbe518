"""The probability-domain kernel evaluated panel by panel on every row.

``equilibrium._integrals_above`` evaluates the nodes, ``ppf`` and the rank
weight once per distinct panel and gathers them per row, and sums the weight
of k schedules at once.  This is the direct form it replaces: every panel of
every row gets its own nodes, quantiles and weight, for one schedule, with
the weight summed rank by rank.  The arithmetic of each node is the same, so
the two must agree bit for bit.  Both sum the Gauss-Kronrod rule and the
Gauss rule on the same nodes.
"""

import math

import numpy as np
from scipy import special

from tourney import equilibrium as eq


def per_row_integrals(dist, n, d, integrand, start, kinks=None):
    """Same contract as ``equilibrium._integrals_above`` for one schedule ``d``."""
    assert d.ndim == 1
    bu, bs = eq._breaks(dist, n, start, kinks)
    key = eq._order_key(bu, bs)
    if not np.any(d[:-1]):
        return key, np.zeros_like(bu)
    u, s, kronrod, gauss = eq._nodes(bu[..., :-1], bu[..., 1:], bs[..., :-1], bs[..., 1:])
    x = np.asarray(dist.ppf(u.ravel())).reshape(u.shape)
    weight = np.zeros_like(u)
    for r in np.nonzero(d[:-1])[0] + 1:
        j = n - r
        norm = math.log((n - 1) * math.comb(n - 2, int(r) - 1))  # 1 / B(j, r)
        weight += d[r - 1] * np.exp(special.xlogy(j - 1, u) + special.xlogy(r - 1, s) + norm)
    rules = []
    for w in (gauss, kronrod):
        panels = np.sum(integrand(x) * weight * w, axis=-1)
        above = np.cumsum(panels[..., ::-1].astype(np.longdouble), -1)[..., ::-1].astype(float)
        rules.append(np.append(above, np.zeros_like(bu[..., :1]), -1))
    if np.max(np.abs(rules[0] - rules[1])) > eq.QUAD_TARGET:
        raise eq.QuadratureFailure(f"{dist.family}, n={n}: the rules disagree")
    return key, rules[1]
