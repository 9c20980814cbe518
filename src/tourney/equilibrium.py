"""Symmetric equilibrium of rank-order tournaments with a standard.

A pay scheme is a standard (minimum performance all prize winners must
reach) plus a weakly decreasing prize schedule over ranks.  In the symmetric
equilibrium a player's marginal benefit of effort decomposes over prize
differentials: for each rank r there is a coefficient giving the marginal
effect of effort on the probability of finishing rank r or better among the
qualifiers.  Equating the differential-weighted sum of those coefficients to
marginal cost pins down effort.  With G(t) = sum_r d_r B_r(t) at threshold
t and H(t) = sum_r d_r F_{(n-r:n-1)}(t) >= 0, G'(t) = f'(t) H(t), because
the boundary terms f(t) g(t) cancel.  So G rises and falls with the noise
density f, the optimal standard is a mode of f, and G is taken only at the
critical points of f, where a move against f raises ``ModeScanMismatch``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cache

import numpy as np
from scipy import special

from .distributions import NoiseDistribution, _order_statistic_level_cdf

__all__ = [
    "PrizeSchedule",
    "CostFunction",
    "TournamentDesign",
    "EquilibriumSolution",
    "ThresholdResult",
    "SufficiencyResult",
    "QuadratureFailure",
    "ModeScanMismatch",
    "EffortOutOfRange",
    "ConcavityWarning",
    "marginal_benefit_rank",
    "total_marginal_benefit",
    "total_marginal_benefit_curve",
    "prize_probability",
    "deviation_payoff_curve",
    "equilibrium_effort",
    "optimal_threshold",
    "solve_design",
    "global_mode_sufficiency",
    "random_schedule",
]

QUAD_TARGET = 1e-9  # absolute error target for every noise integral
# Gauss-Legendre nodes per panel; its Gauss-Kronrod extension, with
# 2 QUAD_ORDER + 1 nodes, gives the answer and the Gauss rule the check.
QUAD_ORDER = 20
THRESHOLD_TIE_TOL = 1e-9
# Largest deviation gain over the first-order effort the concavity diagnostic
# accepts; the number of evenly spaced efforts it checks when the deviation
# payoff's curvature has no finite bound; and, when it has, the number of
# equal cells its refinement starts from.
DEVIATION_GAIN_TOL = 1e-9
CONCAVITY_POINTS = 400
REFINEMENT_CELLS = 32
# Distances from either end of [0, 1] at which the probability domain is
# broken into panels.  A heavy tail makes the integrand singular at u = 1
# (Pareto(2): f(Q(u)) ~ (1-u)^1.5); panels a decade apart keep it smooth on
# each.  In the last panel, within 1e-12 of u = 1, the nodes' u = 1 - s
# still round below 1.
GRADE_LEVELS = 10.0 ** -np.arange(1.0, 13.0)


class QuadratureFailure(RuntimeError):
    """The Gauss rule of a noise integral and its Gauss-Kronrod extension on
    the same panels disagree beyond the error target."""


class ModeScanMismatch(RuntimeError):
    """The marginal benefit moves against the noise density between two of its
    consecutive critical points: the shape misses one, or an integral is wrong."""


class EffortOutOfRange(ValueError):
    """Marginal benefit exceeds marginal cost at the largest undominated effort."""


class ConcavityWarning(UserWarning):
    """A single deviator gains over the first-order effort, or, where the
    deviation payoff's curvature has no finite bound, that payoff is not
    unimodal on the diagnostic grid; the first-order condition may not
    characterize an equilibrium."""


@dataclass(frozen=True)
class PrizeSchedule:
    """Weakly decreasing nonnegative prizes summing to one."""

    prizes: tuple[float, ...]

    def __post_init__(self):
        v = np.asarray(self.prizes, dtype=float)
        if v.ndim != 1 or v.size < 1:
            raise ValueError("need a flat, nonempty prize vector")
        if np.any(v < -1e-15):
            raise ValueError("prizes must be nonnegative")
        if np.any(np.diff(v) > 1e-12):
            raise ValueError("prizes must be weakly decreasing in rank")
        total = float(v.sum())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(
                f"prize budget must sum to 1 (got {total!r}); rescale the schedule"
            )
        object.__setattr__(self, "prizes", tuple(float(p) for p in v))

    @property
    def n(self) -> int:
        return len(self.prizes)

    @property
    def differentials(self) -> np.ndarray:
        """d_r = v_r - v_{r+1} with v_{n+1} = 0; satisfies sum(r * d_r) = 1."""
        v = np.asarray(self.prizes)
        return np.append(v[:-1] - v[1:], v[-1])

    @classmethod
    def winner_take_all(cls, n: int) -> "PrizeSchedule":
        return cls((1.0,) + (0.0,) * (n - 1))

    @classmethod
    def equal_sharing(cls, n: int) -> "PrizeSchedule":
        return cls.equal_top(n, n)

    @classmethod
    def equal_top(cls, s: int, n: int) -> "PrizeSchedule":
        """s equal positive prizes at the top, n-s zeros below."""
        if not 1 <= s <= n:
            raise ValueError("need 1 <= s <= n")
        return cls((1.0 / s,) * s + (0.0,) * (n - s))


def random_schedule(n: int, rng: np.random.Generator) -> PrizeSchedule:
    """Uniform draw from the feasible set: sorted Dirichlet(1, ..., 1)."""
    v = rng.dirichlet(np.ones(n))
    v = np.sort(v)[::-1]
    v[0] += 1.0 - v.sum()  # exact budget
    return PrizeSchedule(tuple(v))


class CostFunction:
    """Strictly convex effort cost with analytic derivative and inverse.

    ``max_effort`` is the largest undominated effort level, i.e. the effort
    whose cost equals the entire unit prize budget; without it, c(e) = 1 is
    solved by bisection.  ``min_curvature`` is the infimum of c'' on
    [0, max_effort], a lower bound that ``solve_design`` uses to bound the
    curvature of the deviation payoff; 0, the default, holds for every convex
    cost.
    """

    def __init__(
        self,
        c,
        cprime,
        cprime_inv,
        max_effort: float | None = None,
        label: str = "custom",
        min_curvature: float = 0.0,
    ):
        self.c = c
        self.cprime = cprime
        self.cprime_inv = cprime_inv
        self.label = label
        self.min_curvature = float(min_curvature)
        if max_effort is None:
            max_effort = _unit_cost_effort(c)
        self.max_effort = float(max_effort)
        if abs(c(0.0)) > 1e-12 or abs(cprime(0.0)) > 1e-9:
            raise ValueError("cost must satisfy c(0) = 0 and c'(0) = 0")

    @classmethod
    def power(cls, kappa: float = 1.0, beta: float = 2.0) -> "CostFunction":
        """c(e) = kappa * e**beta / beta with kappa > 0, beta > 1."""
        if kappa <= 0 or beta <= 1:
            raise ValueError("need kappa > 0 and beta > 1")
        e_max = (beta / kappa) ** (1.0 / beta)
        # c'' = kappa (beta - 1) e^(beta - 2): constant at beta = 2, least at
        # e_max below it and at 0 above it
        return cls(
            c=lambda e: kappa * e**beta / beta,
            cprime=lambda e: kappa * e ** (beta - 1.0),
            cprime_inv=lambda y: (y / kappa) ** (1.0 / (beta - 1.0)),
            max_effort=e_max,
            label=f"power(kappa={kappa:g}, beta={beta:g})",
            min_curvature=kappa * (beta - 1.0) * e_max ** (beta - 2.0) if beta <= 2.0 else 0.0,
        )

    @classmethod
    def quadratic(cls) -> "CostFunction":
        return cls.power(1.0, 2.0)

    def __repr__(self):
        return f"CostFunction({self.label}, max_effort={self.max_effort:.6g})"


def _unit_cost_effort(c) -> float:
    """The effort e in [0, 1e12] with c(e) = 1, by bisection to adjacent
    floats; c is increasing there, as it is convex with c'(0) = 0."""
    lo, hi = 0.0, 1e12
    if not c(hi) >= 1.0:
        raise ValueError("cost stays below the unit prize budget up to effort 1e12")
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (mid, hi) if c(mid) < 1.0 else (lo, mid)
    return hi


@dataclass(frozen=True)
class TournamentDesign:
    """A standard plus a prize schedule, with the effort cost attached."""

    standard: float
    schedule: PrizeSchedule
    cost: CostFunction

    @property
    def n(self) -> int:
        return self.schedule.n


@dataclass(frozen=True)
class EquilibriumSolution:
    threshold: float          # standard in noise units: standard - effort
    effort: float
    standard: float           # threshold + effort
    marginal_benefit: float
    pass_probability: float
    concavity_ok: bool


@dataclass(frozen=True)
class ThresholdResult:
    threshold: float
    marginal_benefit: float
    candidates: tuple[tuple[float, float], ...]  # (mode, marginal benefit there)


@dataclass(frozen=True)
class SufficiencyResult:
    holds: bool
    witness: float  # mode maximizing the top-rank coefficient


# ---------------------------------------------------------------------------
# noise integrals
# ---------------------------------------------------------------------------
#
# Every integral here is over a rival's score x against the density of an
# order statistic of the n-1 rivals' scores.  Substituting u = F(x) turns that
# density into a Beta(j, n-j) weight, and leaves a bounded integrand, f(Q(u))
# or a survival function at Q(u), even under heavy tails, where x spans
# decades but u does not.  The kernel integrates over u on fixed panels with
# the (2m+1)-point Gauss-Kronrod rule, exact to degree 3m+1.  Its nodes
# include those of the m-point Gauss-Legendre rule, exact to degree 2m-1, so
# one evaluation per node gives both the answer and its error check, as in
# QUADPACK's qk41 (Piessens et al., 1983).


@cache
def _gauss_rule(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, 1] (Golub & Welsch, 1969)."""
    x, w = np.polynomial.legendre.leggauss(m)
    return 0.5 * (x + 1.0), 0.5 * w


def _kronrod_recurrence(m: int) -> np.ndarray:
    """Coefficients b_0, ..., b_2m of the Jacobi-Kronrod matrix of the
    Legendre weight on [-1, 1] (Laurie, "Calculation of Gauss-Kronrod
    quadrature rules", Math. Comp. 66, 1997).  The weight is symmetric, so
    every diagonal coefficient a_k is 0.  The first ceil(3m/2) + 1 of the b_k
    are Legendre's, k^2 / (4k^2 - 1); the algorithm overwrites the others.
    Computed in extended precision (``np.longdouble``)."""
    deg = np.arange(2 * m + 1, dtype=np.longdouble)
    b = np.where(deg == 0, 2.0, deg**2 / (4 * deg**2 - 1))
    s, t = np.zeros(m // 2 + 2, np.longdouble), np.zeros(m // 2 + 2, np.longdouble)
    t[1] = b[m + 1]
    for i in range(m - 1):
        u = 0.0
        for k in range((i + 1) // 2, -1, -1):
            u += b[k + m + 1] * s[k] - b[i - k] * s[k + 1]
            s[k + 1] = u
        s, t = t, s
    s[1:] = s[:-1].copy()
    for i in range(m - 1, 2 * m - 2):
        u = 0.0
        for k in range(i + 1 - m, (i - 1) // 2 + 1):
            j = m - 1 - i + k
            u += b[i - k] * s[j + 2] - b[k + m + 1] * s[j + 1]
            s[j + 1] = u
        if i % 2:
            b[(i + 1) // 2 + m + 1] = s[j + 1] / s[j + 2]
        s, t = t, s
    return b


@cache
def _kronrod_rule(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes on [0, 1] of the (2m+1)-point Gauss-Kronrod rule, ascending, its
    weights, and the weights of the m-point Gauss rule on the same nodes, 0
    at the m+1 Kronrod nodes.

    The Gauss nodes, at the odd indices, are ``_gauss_rule(m)``'s.  The
    Kronrod nodes are the other eigenvalues of the Jacobi-Kronrod matrix J,
    each polished by a Newton step on det(x - J).  The weights are the
    Christoffel numbers 1 / sum_k p_k(x)^2 of J's orthonormal polynomials
    p_0, ..., p_2m (Golub & Welsch, 1969).  The polishing and the weights run
    in extended precision and are rounded once; for m = 20 the weights are
    within 2e-17 of mpmath's (6e-17 when computed in double)."""
    b = _kronrod_recurrence(m)
    off = np.sqrt(b[1:])
    upper = np.diag(off.astype(float), 1)
    x = np.linalg.eigvalsh(upper + upper.T).astype(np.longdouble)
    p0, p1, d0, d1 = np.ones_like(x), x, np.zeros_like(x), np.ones_like(x)
    for k in range(1, 2 * m + 1):  # monic p_k and p_k'
        p0, p1, d0, d1 = p1, x * p1 - b[k] * p0, d1, p1 + x * d1 - b[k] * d0
    x = x - p1 / d1
    x[1::2] = np.polynomial.legendre.leggauss(m)[0]
    p0, p1 = np.zeros_like(x), np.full_like(x, 1 / np.sqrt(b[0]))
    total = p1 * p1
    for k in range(2 * m):  # orthonormal p_k
        p0, p1 = p1, (x * p1 - (off[k - 1] * p0 if k else 0)) / off[k]
        total += p1 * p1
    gauss = np.zeros(2 * m + 1)
    gauss[1::2] = _gauss_rule(m)[1]
    return (0.5 * (x + 1)).astype(float), (0.5 / total).astype(float), gauss


def _levels(dist: NoiseDistribution, x) -> tuple[np.ndarray, np.ndarray]:
    """Levels u = F(x) and s = 1 - F(x), kept apart so that s keeps its
    precision near u = 1."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return np.asarray(dist.cdf(x)), np.asarray(dist.sf(x))


def _order_key(u: np.ndarray, s: np.ndarray) -> np.ndarray:
    """log(u / s): increasing in u and resolved at both ends of [0, 1]."""
    with np.errstate(divide="ignore"):
        return np.log(u) - np.log(s)


def _breaks(dist: NoiseDistribution, n: int, start: float, kinks=None) -> tuple[np.ndarray, np.ndarray]:
    """Ascending panel breaks (u, s) from F(start) to 1.

    The fixed breaks are F at the density's knots, ``GRADE_LEVELS`` from
    both ends, and p >= 2 sqrt(n) equal panels, which keep each panel within
    about one standard deviation of every Beta(j, n-j) weight; p is a power
    of two, so that k/p and 1 - k/p are exact.  ``kinks`` adds breaks at F
    of further points, one row of panels per row of ``kinks``; kinks below
    ``start`` give zero-width panels.
    """
    p = 2 ** math.ceil(math.log2(2.0 * math.sqrt(n)))
    k = np.arange(1, p)
    ku, ks = _levels(dist, dist.knots)
    u = np.concatenate([[1.0], k / p, GRADE_LEVELS, 1.0 - GRADE_LEVELS, ku])
    s = np.concatenate([[0.0], (p - k) / p, 1.0 - GRADE_LEVELS, GRADE_LEVELS, ks])
    u0, s0 = _levels(dist, start)
    keep = _order_key(u, s) > _order_key(u0, s0)
    u, s = np.concatenate([u0, u[keep]]), np.concatenate([s0, s[keep]])
    if kinks is not None:
        xu, xs = _levels(dist, kinks)
        below = _order_key(xu, xs) < _order_key(u0, s0)
        u = np.concatenate([np.broadcast_to(u, xu.shape[:-1] + u.shape), np.where(below, u0, xu)], -1)
        s = np.concatenate([np.broadcast_to(s, xs.shape[:-1] + s.shape), np.where(below, s0, xs)], -1)
    order = np.argsort(_order_key(u, s), axis=-1)
    return np.take_along_axis(u, order, -1), np.take_along_axis(s, order, -1)


def _nodes(u0, u1, s0, s1) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Nodes (u, s) of ``_kronrod_rule(QUAD_ORDER)`` on the panels with ends
    (u0, u1) and (s0, s1), and their Gauss-Kronrod and Gauss weights.  Panels
    in the upper half of [0, 1] step from their s, since u rounds to 1 there."""
    xi, kronrod, gauss = _kronrod_rule(QUAD_ORDER)
    low = u0 + u1 < 1.0
    width = np.maximum(np.where(low, u1 - u0, s0 - s1), 0.0)[..., None]
    step = width * xi
    u = np.where(low, u0, 1.0 - s0)[..., None] + step
    s = np.where(low, 1.0 - u0, s0)[..., None] - step
    return u, s, width * kronrod, width * gauss


def _rank_sum(d: np.ndarray, term, shape: tuple) -> np.ndarray:
    """sum_r d_r term(r) over the ranks r = 1, 2, ... of the last axis of
    ``d``, for each row of differentials (one schedule, or one per leading
    index).  ``term(r)`` has ``shape`` and is evaluated once, for all rows
    that weight rank r.  Each row adds its non-zero terms in ascending r,
    starting from zero, so a row gets the same sum alone or in a batch."""
    rows = d.reshape(-1, d.shape[-1])
    out = np.zeros((rows.shape[0],) + shape)
    for r in np.nonzero(np.any(rows, axis=0))[0] + 1:
        k = np.nonzero(rows[:, r - 1])[0]
        out[k] += rows[k, r - 1].reshape((-1,) + (1,) * len(shape)) * term(r)
    return out.reshape(d.shape[:-1] + shape)


def _rank_weight(n: int, d: np.ndarray, u: np.ndarray, s: np.ndarray) -> np.ndarray:
    """sum_r d_r times the density at level u of the (n-r)-th lowest of the
    n-1 rivals' levels, a Beta(n-r, r) density.  xlogy(a, y) is a * log(y)
    for a != 0 and 0 for a = 0, so log(u) and log(s) are each taken once for
    all ranks, when first needed."""
    log = cache(lambda i: special.xlogy(1, (u, s)[i]))

    def density(r):
        a, b = n - r - 1, r - 1
        return np.exp((a * log(0) if a else 0.0) + (b * log(1) if b else 0.0) - special.betaln(n - r, r))

    return _rank_sum(d[..., :-1], density, u.shape)


def _distinct_panels(bu: np.ndarray, bs: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Ends (u0, u1, s0, s1) of the distinct panels among all rows of breaks,
    and for each panel, row by row, the index of its distinct panel.  Panels
    are the same when their four ends are equal bit for bit."""
    ends = [np.ascontiguousarray(e).ravel() for e in (bu[..., :-1], bu[..., 1:], bs[..., :-1], bs[..., 1:])]
    bits = [e.view(np.uint64) for e in ends]
    order = np.lexsort(bits[::-1])
    new = np.zeros(order.size, dtype=bool)
    new[0] = True
    for b in bits:
        new[1:] |= b[order[1:]] != b[order[:-1]]
    index = np.empty(order.size, dtype=np.intp)
    index[order] = np.cumsum(new) - 1
    first = order[new]
    return [e[first] for e in ends], index.reshape(bu[..., :-1].shape)


def _integrals_above(dist: NoiseDistribution, n: int, d: np.ndarray, integrand, start: float, kinks=None):
    """Integrals of ``integrand(x)`` times the rank weight from each break of
    ``_breaks`` up to u = 1, where x = Q(u) is a rival's noise at level u.

    ``d`` holds the differentials of one schedule, (n,), or of k schedules,
    (k, n); each row's weight is summed as for that schedule alone.  Returns
    the breaks' order keys, along the last axis, and the integrals, of shape
    ``d.shape[:-1]`` plus the breaks' shape.  The nodes, ``ppf`` and the
    weight are evaluated once per distinct panel among all rows of breaks
    (``_distinct_panels``); only ``integrand`` runs per row.  Every panel is
    evaluated once, at the nodes of ``_kronrod_rule``, and summed twice: by
    the ``QUAD_ORDER``-point Gauss rule and by its Gauss-Kronrod extension.
    The Gauss-Kronrod integrals are returned when the two agree on every
    integral to ``QUAD_TARGET``, and ``QuadratureFailure``, naming the ranks
    of the schedule that fails, is raised otherwise.
    """
    bu, bs = _breaks(dist, n, start, kinks)
    key = _order_key(bu, bs)
    lead = d.shape[:-1]
    if not np.any(d[..., :-1]):
        return key, np.zeros(lead + bu.shape)
    ends, index = _distinct_panels(bu, bs)
    u, s, kronrod, gauss = _nodes(*ends)
    x = np.asarray(dist.ppf(u.ravel())).reshape(u.shape)
    values = integrand(x[index]) * _rank_weight(n, d, u, s)[..., index, :]
    rules = []
    for w in (gauss, kronrod):
        panels = np.sum(values * w[index], axis=-1)
        # accumulated in extended precision, each integral is rounded once
        above = np.cumsum(panels[..., ::-1].astype(np.longdouble), -1)[..., ::-1].astype(float)
        rules.append(np.append(above, np.zeros(above.shape[:-1] + (1,)), -1))
    gap = np.abs(rules[0] - rules[1])
    if np.max(gap) > QUAD_TARGET:
        *row, k = np.unravel_index(np.argmax(gap), gap.shape)
        row = tuple(row)
        i = int(np.argmax(np.abs(np.diff(rules[0][row] - rules[1][row]))))
        panel = row[len(lead):]
        x0, x1 = dist.ppf(bu[panel][[i, i + 1]])
        ranks = ", ".join(str(r) for r in np.nonzero(d[row[:len(lead)]][:-1])[0] + 1)
        raise QuadratureFailure(
            f"{dist.family} {dist.params}, n={n}, rank {ranks}: the {QUAD_ORDER}-point Gauss and "
            f"{2 * QUAD_ORDER + 1}-point Gauss-Kronrod rules give {rules[0][row][k]:.12g} and "
            f"{rules[1][row][k]:.12g}, {gap[row][k]:.2e} apart (target {QUAD_TARGET:.0e}); "
            f"they differ most on u in [{bu[panel][i]:.10g}, {bu[panel][i + 1]:.10g}], "
            f"x in [{x0:.6g}, {x1:.6g}]"
        )
    return key, rules[1]


def _rank_cdf_sum(dist: NoiseDistribution, n: int, d: np.ndarray, t) -> np.ndarray:
    """sum_r d_r P(the (n-r)-th lowest of n-1 rival noises is at most t),
    from one evaluation of the levels F(t)."""
    shape = np.shape(t)
    u = np.asarray(dist.cdf(np.atleast_1d(np.asarray(t, dtype=float))))
    return _rank_sum(d, lambda r: _order_statistic_level_cdf(n - r, n - 1, u).reshape(shape), shape)


def _unit(n: int, r) -> np.ndarray:
    """Differentials of the schedule with one prize at rank r, (n,), or one
    row per rank for an array of ranks."""
    r = np.asarray(r)
    bad = r[(r < 1) | (r > n)]
    if bad.size:
        raise ValueError(f"rank {bad.flat[0]} outside 1..{n}")
    return (np.arange(1, n + 1) == r[..., None]).astype(float)


# ---------------------------------------------------------------------------
# marginal benefit coefficients
# ---------------------------------------------------------------------------


def _marginal_benefit(dist: NoiseDistribution, n: int, d: np.ndarray, t) -> np.ndarray:
    """sum_r d_r B_r at each threshold in ``t``: the standard binds with
    weight f(t) F_{(n-r:n-1)}(t), and a rival above t is passed with weight
    f(Q(u)) at u > F(t).  The integrals above the thresholds are cumulative
    sums of panels broken at F(t)."""
    if d.shape[-1] != n:
        raise ValueError(f"schedule is for {d.shape[-1]} players, not {n}")
    t = np.atleast_1d(np.asarray(t, dtype=float))
    key, above = _integrals_above(dist, n, d, dist.pdf, t.min(), kinks=t)
    at = np.searchsorted(key, _order_key(*_levels(dist, t)))
    return np.asarray(dist.pdf(t)) * _rank_cdf_sum(dist, n, d, t) + above[..., at]


def marginal_benefit_rank(dist: NoiseDistribution, n: int, r: int, t: float) -> float:
    """Marginal effect of effort on the chance of finishing rank r or better.

    At threshold t this equals ``f(t) * F_{(n-r:n-1)}(t)`` plus the integral
    of f against the rival order statistic above t; for the last rank it
    collapses to ``f(t)``.  A threshold below the support means the standard
    never binds.
    """
    return float(_marginal_benefit(dist, int(n), _unit(int(n), int(r)), t)[0])


def total_marginal_benefit(dist: NoiseDistribution, n: int, v: PrizeSchedule, t: float) -> float:
    """Differential-weighted sum of rank coefficients at threshold t."""
    return float(_marginal_benefit(dist, n, v.differentials, t)[0])


def total_marginal_benefit_curve(
    dist: NoiseDistribution, n: int, v: PrizeSchedule, x: np.ndarray
) -> np.ndarray:
    """``total_marginal_benefit`` at every threshold in ``x``, in one pass."""
    return _marginal_benefit(dist, n, v.differentials, x)


# ---------------------------------------------------------------------------
# prize probabilities and deviation payoffs
# ---------------------------------------------------------------------------


def _prize_probabilities(
    dist: NoiseDistribution, n: int, d: np.ndarray, e: np.ndarray, e_star: float, rho: float
) -> np.ndarray:
    """sum_r d_r P(a prize of at least rank r) for a deviator at each effort
    in ``e`` against n-1 rivals at ``e_star`` under standard ``rho``, of
    shape ``d.shape[:-1] + e.shape``.

    Either the rank-r rival misses the standard and passing suffices, or the
    deviator must also outperform that rival.  The deviator's survival
    function at x + e_star - e kinks where that crosses a knot or a finite
    support bound, so each effort gets its own breaks there.
    """
    own_pass = np.asarray(dist.sf(rho - e))
    t = rho - e_star
    shift = e_star - e
    kinks = np.asarray(dist.knots + tuple(b for b in dist.support if np.isfinite(b)))
    _, above = _integrals_above(
        dist, n, d, lambda x: dist.sf(x + shift[:, None, None]), t, kinks[None, :] - shift[:, None]
    )
    return own_pass * _rank_cdf_sum(dist, n, d, t)[..., None] + above[..., 0]


def prize_probability(dist: NoiseDistribution, n: int, r, e: float, e_star: float, rho: float):
    """Probability of winning a prize of at least rank r.

    The deviating player exerts ``e`` against n-1 rivals at ``e_star`` under
    standard ``rho``.  ``r`` is one rank, which gives a float, or an array of
    ranks, which gives an array of their probabilities from one kernel pass,
    equal bit for bit to one call per rank.
    """
    ranks = np.asarray(r)
    p = _prize_probabilities(dist, n, _unit(n, ranks), np.asarray([float(e)]), e_star, rho)[..., 0]
    return float(p) if ranks.ndim == 0 else p


def deviation_payoff_curve(
    dist: NoiseDistribution, design: TournamentDesign, e_star: float, e_grid: np.ndarray
) -> np.ndarray:
    """Expected payoff of a single deviator at each effort in ``e_grid``.

    Rivals play ``e_star`` under the design's standard.  Used by the
    concavity diagnostic and by figure rendering, while the Monte-Carlo
    module provides the independent estimate.
    """
    e = np.asarray(e_grid, dtype=float)
    value = _prize_probabilities(dist, design.n, design.schedule.differentials, e, e_star, design.standard)
    return value - np.asarray(design.cost.c(e))


def _deviation_payoffs(
    dist: NoiseDistribution, design: TournamentDesign, e_star: float, curvature: float
) -> tuple[np.ndarray, np.ndarray]:
    """Efforts in [0, max_effort], ascending and with ``e_star`` among them,
    and the deviation payoffs there, on which ``solve_design`` judges e*.

    With ``curvature`` K finite, a cell [a, b] of width h keeps the payoff
    below its chord plus K s (h - s) / 2, s = e - a.  The efforts start at
    ``REFINEMENT_CELLS`` equal cells, e*, and e* +- h0 2^-j, h0 the cell
    width, down to the first step within the floor sqrt(8 tol / K), at
    which K h^2 / 8 = tol.  Each round then bisects, in one kernel call,
    every cell wider than the floor whose bound can exceed pi(e*) + tol,
    until no cell can or some effort gains more than tol.  Without a finite
    K, the grid of ``CONCAVITY_POINTS`` efforts and e*.
    """
    e_max = design.cost.max_effort
    if math.isinf(curvature):
        e = np.unique(np.append(np.linspace(0.0, e_max, CONCAVITY_POINTS), e_star))
        return e, deviation_payoff_curve(dist, design, e_star, e)
    floor = math.sqrt(8.0 * DEVIATION_GAIN_TOL / curvature)
    h0 = e_max / REFINEMENT_CELLS
    steps = h0 * 0.5 ** np.arange(max(math.ceil(math.log2(h0 / floor)), 0) + 1)
    graded = e_star + np.concatenate([-steps, steps])
    graded = graded[(graded >= 0.0) & (graded <= e_max)]
    e = np.unique(np.concatenate([np.linspace(0.0, e_max, REFINEMENT_CELLS + 1), [e_star], graded]))
    pi = deviation_payoff_curve(dist, design, e_star, e)
    pi_star = pi[np.searchsorted(e, e_star)]
    while np.max(pi) - pi_star <= DEVIATION_GAIN_TOL:
        h, rise = np.diff(e), np.diff(pi)
        # the chord plus K s (h - s) / 2 peaks inside the cell at
        # mean + K h^2 / 8 + rise^2 / (2 K h^2) when |rise| < K h^2 / 2
        inside = np.abs(rise) < curvature * h * h / 2.0
        peak = (pi[:-1] + pi[1:]) / 2.0 + curvature * h * h / 8.0 + rise**2 / (2.0 * curvature * h * h)
        bound = np.where(inside, peak, np.maximum(pi[:-1], pi[1:]))
        split = np.flatnonzero((bound - pi_star > DEVIATION_GAIN_TOL) & (h > floor))
        if split.size == 0:
            break
        mid = e[split] + h[split] / 2.0
        e = np.insert(e, split + 1, mid)
        pi = np.insert(pi, split + 1, deviation_payoff_curve(dist, design, e_star, mid))
    return e, pi


def _is_unimodal(values: np.ndarray, atol: float | None = None) -> bool:
    diffs = np.diff(np.asarray(values, dtype=float))
    if atol is None:
        atol = 1e-12 * max(1.0, float(np.max(np.abs(values))))
    signs = np.sign(diffs[np.abs(diffs) > atol])
    if signs.size == 0:
        return True
    flips = np.nonzero(np.diff(signs) != 0)[0]
    return flips.size == 0 or (flips.size == 1 and signs[0] > 0)


# ---------------------------------------------------------------------------
# equilibrium and optimal standard
# ---------------------------------------------------------------------------


def equilibrium_effort(
    dist: NoiseDistribution, n: int, v: PrizeSchedule, t: float, cost: CostFunction
) -> float:
    """Effort solving marginal benefit = marginal cost at threshold t."""
    g = total_marginal_benefit(dist, n, v, t)
    top = cost.cprime(cost.max_effort)
    if g > top * (1.0 + 1e-12):
        raise EffortOutOfRange(
            f"marginal benefit {g:.6g} exceeds marginal cost {top:.6g} at the "
            f"largest undominated effort"
        )
    return float(cost.cprime_inv(min(g, top)))


def optimal_threshold(dist: NoiseDistribution, n: int, v: PrizeSchedule) -> ThresholdResult:
    """Best threshold among the modes weakly above the global mode.

    G = sum_r d_r B_r has G' = f' H with H = sum_r d_r F_{(n-r:n-1)} >= 0, so
    one pass takes G at the modes and antimodes of ``find_modes`` from the
    global mode up, and ``ModeScanMismatch`` names an interval between two
    of them where G moves against f by more than ``THRESHOLD_TIE_TOL``.
    Ties within that tolerance resolve to the smallest threshold, which
    maximizes the pass probability.
    """
    shape = dist.find_modes()
    t = np.union1d(shape.modes, shape.antimodes)
    t = t[t >= shape.global_mode]
    g = _marginal_benefit(dist, n, v.differentials, t)
    f = np.asarray(dist.pdf(t))
    dg = np.diff(g)
    against = np.nonzero((np.abs(dg) > THRESHOLD_TIE_TOL) & (np.sign(dg) != np.sign(np.diff(f))))[0]
    if against.size:
        i = against[0]
        raise ModeScanMismatch(
            f"{dist.family} {dist.params}, n={n}: on [{t[i]:.10g}, {t[i + 1]:.10g}] f goes from "
            f"{f[i]:.10g} to {f[i + 1]:.10g} but G = sum_r d_r B_r from {g[i]:.12g} to {g[i + 1]:.12g}; "
            f"as G' = f' H, H >= 0, the shape report misses a critical point there or an integral is wrong"
        )
    values = [(float(m), float(gm)) for m, gm in zip(t, g) if m in shape.modes]
    best_val = max(gm for _, gm in values)
    t_star, g_star = next((m, gm) for m, gm in values if gm >= best_val - THRESHOLD_TIE_TOL)
    return ThresholdResult(threshold=t_star, marginal_benefit=g_star, candidates=tuple(values))


def solve_design(
    dist: NoiseDistribution,
    n: int,
    v: PrizeSchedule,
    cost: CostFunction,
    threshold: float | None = None,
) -> EquilibriumSolution:
    """Optimal standard and equilibrium effort for a fixed prize schedule.

    Pass ``threshold`` to solve at a caller-chosen threshold instead of the
    optimal one.

    The first-order effort e* is an equilibrium only if it is a single
    deviator's best response on [0, max_effort].  Against rivals at e*, the
    deviator's payoff is P(e) = sum_r d_r E[S(Z_r - e)] - c(e), with S the
    noise survival function and Z_r the larger of the standard and the
    rank-r rival's noise.  As d_r >= 0 and sum_r d_r = v_1, the top prize,
    P'' = -sum_r d_r E[f'(Z_r - e)] - c'' <= K = v_1 sup(-f') - inf c''
    (``ShapeReport.steepest_descent``, ``CostFunction.min_curvature``); an
    upward jump of f and the kink at the standard only add negative mass.
    So:

    - K <= 0: P is concave and e*, where P' = 0, is its global maximum.  No
      payoff is evaluated.
    - K finite and positive: on a cell [a, b], P stays below its chord plus
      K (e - a)(b - e) / 2.  ``_deviation_payoffs`` bisects the cells where
      that bound can exceed P(e*) + ``DEVIATION_GAIN_TOL`` until none can,
      down to cells on which it adds at most the tolerance to the chord, or
      until an effort gains more than the tolerance.  A pass so certifies
      that no effort gains more than twice the tolerance.
    - K infinite (f drops by a jump, as at the top of uniform noise): P is
      taken on a grid of ``CONCAVITY_POINTS`` efforts, a grid verdict and no
      proof, and must also be unimodal there.

    A failed check emits a non-fatal ``ConcavityWarning``, naming K and the
    number of efforts evaluated, and reports ``concavity_ok=False``.
    """
    if threshold is None:
        thr = optimal_threshold(dist, n, v)
        t_star, g_star = thr.threshold, thr.marginal_benefit
    else:
        t_star = float(threshold)
        g_star = total_marginal_benefit(dist, n, v, t_star)
    e_star = equilibrium_effort(dist, n, v, t_star, cost)
    rho = e_star + t_star
    design = TournamentDesign(standard=rho, schedule=v, cost=cost)
    curvature = v.prizes[0] * dist.find_modes().steepest_descent - cost.min_curvature
    problem = None
    if curvature > 0.0:
        e, pi = _deviation_payoffs(dist, design, e_star, curvature)
        i_best = int(np.argmax(pi))
        gain = float(pi[i_best] - pi[np.searchsorted(e, e_star)])
        if gain > DEVIATION_GAIN_TOL:
            problem = (
                f"deviating to effort {e[i_best]:.6g} gains {gain:.3g} over the "
                f"first-order effort {e_star:.6g}; this design has no symmetric "
                f"equilibrium there"
            )
        elif math.isinf(curvature) and not _is_unimodal(pi):
            problem = (
                "deviation payoff is not unimodal in own effort; equilibrium "
                "existence is not guaranteed for this design"
            )
    if problem is not None:
        evidence = f" (curvature bound K = {curvature:.3g}, {e.size} efforts evaluated)"
        warnings.warn(problem + evidence, ConcavityWarning, stacklevel=2)
    return EquilibriumSolution(
        threshold=float(t_star),
        effort=float(e_star),
        standard=float(rho),
        marginal_benefit=float(g_star),
        pass_probability=float(dist.sf(t_star)),
        concavity_ok=problem is None,
    )


def global_mode_sufficiency(dist: NoiseDistribution, n: int) -> SufficiencyResult:
    """Whether the top-rank coefficient peaks at the global mode.

    When it does, the standard at the global mode is optimal for every prize
    schedule; the witness reports the maximizing mode either way.  This is
    the winner-take-all case of ``optimal_threshold``.
    """
    thr = optimal_threshold(dist, n, PrizeSchedule.winner_take_all(n))
    return SufficiencyResult(holds=thr.threshold == dist.find_modes().global_mode, witness=thr.threshold)
