"""Make the reference rank coefficients B_r(t) that the benchmark checks against.

B_r(t) is the marginal effect of effort on the chance of finishing rank r or
better among the players who pass a standard at noise threshold t, for n
players in the symmetric equilibrium:

    B_r(t) = f(t) G(t) + integral_t^inf f(x) g(x) dx,

where G and g are the CDF and density of the (n-r)-th lowest of the n-1
rivals' noise draws, and B_n(t) = f(t).  Each value is an mpmath integral at
40 digits, computed twice with different panel splits; the two must agree to
1e-15, and the closed forms (Pareto(2), n=3: 16/35, 8/7, 2; exponential:
B_r = r/n) must hold.  This file does not import ``tourney``: the references
are independent of the code they check.

Run ``python3 bench/reference.py`` from the repository root to rewrite
``bench/reference_values.json``.
"""

from __future__ import annotations

import json
import os
import sys

import mpmath as mp

from refs import TRIMODAL_KNOTS

mp.mp.dps = 40

NS = (3, 10, 30)
HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "reference_values.json")


class Family:
    """pdf, cdf and survival function in mpmath, plus the panel breaks."""

    def __init__(self, pdf, cdf, sf, lo, hi, breaks):
        self.pdf, self.cdf, self.sf = pdf, cdf, sf
        self.lo, self.hi = lo, hi
        self.breaks = tuple(mp.mpf(b) for b in breaks)


def _normal():
    return Family(
        lambda x: mp.npdf(x),
        lambda x: mp.ncdf(x),
        lambda x: mp.ncdf(-x),
        -mp.inf, mp.inf, (-4, -2, -1, 0, 1, 2, 4, 8),
    )


def _gumbel():
    return Family(
        lambda x: mp.exp(-x - mp.exp(-x)),
        lambda x: mp.exp(-mp.exp(-x)),
        lambda x: -mp.expm1(-mp.exp(-x)),
        -mp.inf, mp.inf, (-3, -1, 0, 1, 2, 4, 8, 16),
    )


def _logistic():
    return Family(
        lambda x: mp.exp(-abs(x)) / (1 + mp.exp(-abs(x))) ** 2,
        lambda x: 1 / (1 + mp.exp(-x)),
        lambda x: 1 / (1 + mp.exp(x)),
        -mp.inf, mp.inf, (-8, -4, -2, 0, 2, 4, 8, 16),
    )


def _exponential():
    return Family(
        lambda x: mp.exp(-x),
        lambda x: -mp.expm1(-x),
        lambda x: mp.exp(-x),
        mp.mpf(0), mp.inf, (0, 1, 2, 4, 8, 16),
    )


def _erf_exponential():
    def H(x):
        return x + mp.sqrt(mp.pi) / 2 * mp.erf(x)

    return Family(
        lambda x: (1 + mp.exp(-x * x)) * mp.exp(-H(x)),
        lambda x: -mp.expm1(-H(x)),
        lambda x: mp.exp(-H(x)),
        mp.mpf(0), mp.inf, (0, 0.5, 1, 2, 4, 8, 16),
    )


def _pareto():
    return Family(
        lambda x: 2 / x**3,
        lambda x: 1 - 1 / x**2,
        lambda x: 1 / x**2,
        mp.mpf(1), mp.inf, (1, 1.5, 2, 4, 10, 100, 1000),
    )


def _inverse_exponential():
    return Family(
        lambda x: mp.exp(-1 / x) / x**2,
        lambda x: mp.exp(-1 / x),
        lambda x: -mp.expm1(-1 / x),
        mp.mpf(0), mp.inf, (0.1, 0.25, 0.5, 1, 4, 100, 10**4, 10**6),
    )


def _trimodal(variant):
    pts = [(mp.mpf(x), mp.mpf(f) / 16) for x, f in TRIMODAL_KNOTS[variant]]
    mass = sum((pts[i + 1][0] - pts[i][0]) * (pts[i + 1][1] + pts[i][1]) / 2 for i in range(len(pts) - 1))
    pts = [(x, f / mass) for x, f in pts]

    def seg(x):
        for i in range(len(pts) - 1):
            if x <= pts[i + 1][0]:
                return i
        return len(pts) - 2

    def pdf(x):
        if x < pts[0][0] or x > pts[-1][0]:
            return mp.mpf(0)
        i = seg(x)
        (x0, f0), (x1, f1) = pts[i], pts[i + 1]
        return f0 + (f1 - f0) * (x - x0) / (x1 - x0)

    def cdf(x):
        if x <= pts[0][0]:
            return mp.mpf(0)
        if x >= pts[-1][0]:
            return mp.mpf(1)
        total = mp.mpf(0)
        for i in range(len(pts) - 1):
            (x0, f0), (x1, _) = pts[i], pts[i + 1]
            top = min(x, x1)
            total += (top - x0) * (f0 + pdf(top)) / 2
            if x <= x1:
                break
        return total

    return Family(pdf, cdf, lambda x: 1 - cdf(x), pts[0][0], pts[-1][0], [x for x, _ in pts])


FAMILIES = {
    "normal": (_normal, (0,)),
    "gumbel": (_gumbel, (0,)),
    "logistic": (_logistic, (0,)),
    "exponential": (_exponential, (0,)),
    "erf_exponential": (_erf_exponential, (0,)),
    "pareto": (_pareto, (1,)),
    "trimodal_red": (lambda: _trimodal("red"), (0.5, 1.0)),
    "trimodal_green": (lambda: _trimodal("green"), (0.5, 1.0)),
    "trimodal_blue": (lambda: _trimodal("blue"), (0.5, 1.0)),
}
# inverse_exponential is referenced only where the benchmark solves it (n=3).
EXTRA = {"inverse_exponential": (_inverse_exponential, (0.5,), (3,))}


def rank_coefficient(fam: Family, n: int, r: int, t, shift: bool) -> mp.mpf:
    """B_r(t); ``shift`` moves the interior panel breaks for the second pass."""
    t = mp.mpf(t)
    ft = fam.pdf(t)
    j = n - r
    if j == 0:
        return ft
    m = n - 1
    Ft, St = fam.cdf(t), fam.sf(t)
    G = sum(mp.binomial(m, k) * Ft**k * St ** (m - k) for k in range(j, m + 1))
    coeff = mp.factorial(m) / (mp.factorial(j - 1) * mp.factorial(m - j))

    def integrand(x):
        return fam.pdf(x) * coeff * fam.cdf(x) ** (j - 1) * fam.sf(x) ** (m - j) * fam.pdf(x)

    inner = [b for b in fam.breaks if t < b < fam.hi]
    if shift:
        inner = sorted(set(inner) | {(a + b) / 2 for a, b in zip(inner, inner[1:])})
    panels = [t] + inner + [fam.hi]
    return ft * G + mp.quad(integrand, panels)


def compute(fam: Family, n: int, t) -> list[float]:
    out = []
    for r in range(1, n + 1):
        a = rank_coefficient(fam, n, r, t, shift=False)
        b = rank_coefficient(fam, n, r, t, shift=True)
        if abs(a - b) > mp.mpf("1e-15") * max(1, abs(a)):
            raise SystemExit(f"reference integrals disagree: n={n} r={r} t={t}: {a} vs {b}")
        out.append(float(a))
    return out


def main() -> int:
    table: dict = {}
    jobs = [(name, mk, ts, NS) for name, (mk, ts) in FAMILIES.items()]
    jobs += [(name, mk, ts, ns) for name, (mk, ts, ns) in EXTRA.items()]
    for name, mk, ts, ns in jobs:
        fam = mk()
        for t in ts:
            for n in ns:
                table.setdefault(name, {}).setdefault(repr(float(t)), {})[str(n)] = compute(fam, n, t)
            print(f"{name} t={t} done", file=sys.stderr, flush=True)

    pareto3 = table["pareto"]["1.0"]["3"]
    for got, want in zip(pareto3, (16 / 35, 8 / 7, 2.0)):
        if abs(got - want) > 1e-14:
            raise SystemExit(f"Pareto(2) n=3 closed form missed: {got} vs {want}")
    for n in NS:
        for r, got in enumerate(table["exponential"]["0.0"][str(n)], start=1):
            if abs(got - r / n) > 1e-14:
                raise SystemExit(f"exponential B_{r}/r = 1/n missed at n={n}: {got}")

    doc = {
        "what": "rank coefficients B_r(t) for r = 1..n at standard parameters; "
        "keys: family, threshold t, player count n",
        "made_by": "python3 bench/reference.py (mpmath, 40 digits)",
        "B": table,
    }
    with open(OUT, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
