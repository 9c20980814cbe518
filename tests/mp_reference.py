"""Reference values for the tests, computed over the noise x with mpmath.

They share no code with ``tourney``'s probability-domain quadrature; only the
trimodal knots are read from the package, as data.
"""

import math

import mpmath as mp

from tourney import distributions as dists


def piecewise_mp(knots, dps=40):
    """Density, CDF and survival function in mpmath of the density through
    the (x, f) knot pairs, normalized to unit mass, and its knots.  The mass
    is summed at ``dps`` digits; evaluate at that precision too."""
    pts = [(mp.mpf(x), mp.mpf(f)) for x, f in knots]
    with mp.workdps(dps):
        mass = mp.fsum((x1 - x0) * (f0 + f1) / 2 for (x0, f0), (x1, f1) in zip(pts, pts[1:]))

    def pdf(x):
        for (x0, f0), (x1, f1) in zip(pts, pts[1:]):
            if x0 <= x <= x1:
                return (f0 + (f1 - f0) * (x - x0) / (x1 - x0)) / mass
        return mp.mpf(0)

    def cdf(x):
        x = min(max(x, pts[0][0]), pts[-1][0])
        total = mp.mpf(0)
        for (x0, _), (x1, _) in zip(pts, pts[1:]):
            top = min(x, x1)
            if top > x0:
                total += (top - x0) * (pdf(x0) + pdf(top)) / 2
        return total

    return pdf, cdf, lambda x: 1 - cdf(x), [x for x, _ in pts]


def family_mp(name):
    """(pdf, cdf, sf, panel breaks) of a built-in family in mpmath."""
    if name == "normal":
        return mp.npdf, mp.ncdf, lambda x: mp.ncdf(-x), [-8, -4, -2, -1, 0, 1, 2, 4, 8, mp.inf]
    if name == "logistic":
        return (
            lambda x: mp.exp(-abs(x)) / (1 + mp.exp(-abs(x))) ** 2,
            lambda x: 1 / (1 + mp.exp(-x)),
            lambda x: 1 / (1 + mp.exp(x)),
            [-16, -8, -4, -2, 0, 2, 4, 8, 16, mp.inf],
        )
    if name == "gumbel":
        return (
            lambda x: mp.exp(-x - mp.exp(-x)),
            lambda x: mp.exp(-mp.exp(-x)),
            lambda x: -mp.expm1(-mp.exp(-x)),
            [-4, -2, -1, 0, 1, 2, 4, 8, 16, mp.inf],
        )
    if name == "erf_exponential":
        H = lambda x: x + mp.sqrt(mp.pi) / 2 * mp.erf(x)  # noqa: E731
        return (
            lambda x: (1 + mp.exp(-x * x)) * mp.exp(-H(x)),
            lambda x: -mp.expm1(-H(x)),
            lambda x: mp.exp(-H(x)),
            [0, 0.5, 1, 2, 4, 8, 16, mp.inf],
        )
    if name == "inverse_exponential":
        return (
            lambda x: mp.exp(-1 / x) / x**2,
            lambda x: mp.exp(-1 / x),
            lambda x: -mp.expm1(-1 / x),
            [0, 0.1, 0.25, 0.5, 1, 4, 16, 100, 10**3, 10**4, 10**6, mp.inf],
        )
    if name == "red":
        return piecewise_mp(dists._TRIMODAL_KNOTS["red"])
    raise ValueError(name)


def coefficient_mp(name, n, r, t):
    """B_r(t), r < n, by 20-digit mpmath quadrature over the rival's noise x."""
    pdf, cdf, sf, breaks = family_mp(name)
    with mp.workdps(20):
        t = mp.mpf(t)
        j, m = n - r, n - 1
        c = math.comb(m, j) * j
        tail = mp.quad(
            lambda x: c * cdf(x) ** (j - 1) * sf(x) ** (m - j) * pdf(x) ** 2,
            [t] + [b for b in breaks if b > t],
        )
        return float(pdf(t) * mp.betainc(j, m - j + 1, 0, cdf(t), regularized=True) + tail)


def kronrod_mp(m, dps=40):
    """Nodes on [0, 1], ascending, and weights of the (2m+1)-point
    Gauss-Kronrod rule, from its definition rather than from Laurie's
    algorithm: the Gauss nodes are the roots of the Legendre polynomial P_m,
    the Kronrod nodes the roots of the monic Stieltjes polynomial E_{m+1},
    which is orthogonal to P_m x^k for k <= m; each lies between two
    consecutive Gauss nodes or a Gauss node and an end (Szego, 1935).  The
    weights are 2c / (P_m(x) E'(x)) at a Kronrod node and 2c / (P_m'(x) E(x))
    plus the Gauss weight at a Gauss node, with c = int_{-1}^1 P_m x^m dx / 2
    (Monegato, 1978), halved for [0, 1]."""
    with mp.workdps(dps):
        p = [[mp.mpf(1)], [mp.mpf(0), mp.mpf(1)]]  # P_k, lowest power first
        for k in range(1, m):
            nxt = [mp.mpf(0)] + [(2 * k + 1) * c for c in p[k]]
            for i, c in enumerate(p[k - 1]):
                nxt[i] -= k * c
            p.append([c / (k + 1) for c in nxt])
        pm = p[m]
        # int_{-1}^1 P_m(x) x^j dx
        mom = [mp.fsum(c * (1 + (-1) ** (i + j)) / (i + j + 1) for i, c in enumerate(pm)) for j in range(2 * m + 2)]
        low = mp.lu_solve(
            mp.matrix([[mom[j + k] for j in range(m + 1)] for k in range(m + 1)]),
            mp.matrix([-mom[m + 1 + k] for k in range(m + 1)]),
        )
        e = list(low) + [mp.mpf(1)]

        def poly(c, x, d=0):
            return mp.polyval(c[::-1], x, derivative=True)[d]

        # the i-th largest root of P_m is cos(theta) with theta between
        # (i - 1/2) pi / (m + 1/2) and i pi / (m + 1/2) (Szego, 6.21.5)
        gauss = [
            mp.findroot(lambda x: poly(pm, x), (mp.cos(i * h), mp.cos((i - 0.5) * h)), solver="anderson")
            for h in [mp.pi / (m + 0.5)]
            for i in range(m, 0, -1)
        ]
        ends = [mp.mpf(-1)] + gauss + [mp.mpf(1)]
        kronrod = [mp.findroot(lambda x: poly(e, x), (a, b), solver="anderson") for a, b in zip(ends, ends[1:])]
        nodes, weights = [], []
        for i, x in enumerate(kronrod):
            nodes.append(x)
            weights.append(mom[m] / (poly(pm, x) * poly(e, x, 1)))
            if i < m:
                g = gauss[i]
                nodes.append(g)
                weights.append(2 / ((1 - g**2) * poly(pm, g, 1) ** 2) + mom[m] / (poly(pm, g, 1) * poly(e, g)))
        return [(x + 1) / 2 for x in nodes], [w / 2 for w in weights]
