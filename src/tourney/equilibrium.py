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

from .distributions import NoiseDistribution

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
    "optimal_threshold",
    "solve_design",
    "global_mode_sufficiency",
    "random_schedule",
]

QUAD_TARGET = 1e-9  # absolute error target for every noise integral
# Gauss-Legendre nodes per panel; its Gauss-Kronrod extension, with
# 2 QUAD_ORDER + 1 nodes, gives the answer and the Gauss rule the check.
QUAD_ORDER = 20
# Node values in one block of the kernel's arrays, 512 KiB of doubles: a
# block spans every panel of as many schedules as fit, or else as many
# panels of every schedule.
QUAD_BLOCK = 1 << 16
THRESHOLD_TIE_TOL = 1e-9
# Largest deviation gain over the first-order effort the concavity diagnostic
# accepts, and the number of equal cells its refinement starts from and of
# times it may halve one.  A drop of f at its upper support bound adds a
# finite term to the curvature bound and a kink, which is a fixed cell end.
DEVIATION_GAIN_TOL = 1e-9
REFINEMENT_CELLS = 32
REFINEMENT_HALVINGS = 30
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
    """A single deviator gains over the first-order effort, or the curvature
    bound cannot rule such a gain out; the first-order condition may not
    characterize an equilibrium."""


@dataclass(frozen=True)
class PrizeSchedule:
    """Weakly decreasing nonnegative prizes summing to one."""

    prizes: tuple[float, ...]

    def __post_init__(self):
        v = np.asarray(self.prizes, dtype=float)
        if v.ndim != 1 or v.size < 1:
            raise ValueError("need a flat, nonempty prize vector")
        if not np.all(np.isfinite(v)):
            raise ValueError(f"prizes must be finite, got {self.prizes!r}")
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


@dataclass(frozen=True)
class CostFunction:
    """Power effort cost c(e) = kappa e^beta / beta, with finite kappa > 0
    and beta > 1, and its closed forms.

    ``max_effort`` is the largest undominated effort level, the effort whose
    cost equals the entire unit prize budget.  ``min_curvature`` is the
    infimum of c'' on [0, max_effort], a lower bound that ``solve_design``
    uses to bound the curvature of the deviation payoff.
    """

    kappa: float = 1.0
    beta: float = 2.0

    def __post_init__(self):
        if not (0 < self.kappa < math.inf and 1 < self.beta < math.inf):
            raise ValueError("need finite kappa > 0 and beta > 1")
        object.__setattr__(self, "kappa", float(self.kappa))
        object.__setattr__(self, "beta", float(self.beta))

    def c(self, e):
        return self.kappa * e**self.beta / self.beta

    def cprime(self, e):
        return self.kappa * e ** (self.beta - 1.0)

    def cprime_inv(self, y):
        return (y / self.kappa) ** (1.0 / (self.beta - 1.0))

    @property
    def max_effort(self) -> float:
        return (self.beta / self.kappa) ** (1.0 / self.beta)

    @property
    def min_curvature(self) -> float:
        # c'' = kappa (beta - 1) e^(beta - 2): constant at beta = 2, least at
        # max_effort below it and at 0 above it
        if self.beta > 2.0:
            return 0.0
        return self.kappa * (self.beta - 1.0) * self.max_effort ** (self.beta - 2.0)


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
    ranks, k = np.nonzero(rows.T)  # by rank, then by row
    weights = rows[k, ranks].reshape((-1,) + (1,) * len(shape))
    bounds = np.flatnonzero(np.diff(ranks, prepend=-1, append=-1)).tolist()
    for a, b in zip(bounds, bounds[1:]):
        out[k[a:b]] += weights[a:b] * term(ranks[a] + 1)
    return out.reshape(d.shape[:-1] + shape)


@cache
def _log_beta_norms(n: int) -> np.ndarray:
    """log of the Beta(n-r, r) normalizer 1 / B(n-r, r) = (n-1) C(n-2, r-1)
    for r = 1..n-1.  The binomials come exact from the integer recurrence
    C(n-2, b) = C(n-2, b-1) (n-1-b) / b, so each log is within an ulp
    (``special.betaln`` is off by 1.8e-12 at n = 1000).  One table serves
    the rank weights, their peaks and, at n + 1, the rank CDFs: the
    Beta(k+1, n-k) density is n times the Binomial(n-1, u) pmf at k.
    Cached, since each block of the kernel needs them, and so read-only."""
    norms, c = [], 1
    for b in range(n - 1):
        c = c * (n - 1 - b) // b if b else 1
        norms.append(math.log((n - 1) * c))
    norms = np.asarray(norms)
    norms.flags.writeable = False
    return norms


def _log_beta_density(n: int, r, log_u, log_s) -> np.ndarray:
    """log of the Beta(n-r, r) density (n-1) C(n-2, r-1) u^(n-r-1) s^(r-1) at
    rank r, or an array of ranks; a log whose power is 0 must be finite."""
    return (n - r - 1) * log_u + (r - 1) * log_s + _log_beta_norms(n)[r - 1]


def _rank_weight(n: int, d: np.ndarray, u: np.ndarray, s: np.ndarray) -> np.ndarray:
    """sum_r d_r times the density at level u of the (n-r)-th lowest of the
    n-1 rivals' levels: the Beta(n-r, r) density of ``_log_beta_density``,
    n-1 times the Binomial(n-2, u) pmf at n-r-1.  log(u) and log(s) are each
    taken once for all ranks, when first needed, by ``special.xlogy``."""
    log = cache(lambda i: special.xlogy(1, (u, s)[i]))
    return _rank_sum(d[..., :-1], lambda r: np.exp(
        _log_beta_density(n, r, log(0) if r < n - 1 else 0.0, log(1) if r > 1 else 0.0)), u.shape)


def _rank_weight_peak(n: int, d: np.ndarray) -> float:
    """sum_r d_r times the largest Beta(n-r, r) density of ``_rank_weight``,
    each taken at its own mode (n-r-1) / (n-2)."""
    r = np.arange(1, n)
    m = (n - r - 1) / max(n - 2, 1)
    density = np.exp(_log_beta_density(n, r, special.xlogy(r < n - 1, m), special.xlogy(r > 1, 1.0 - m)))
    return float(np.sum(d[:-1] * density))


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
    The panels' sums are made in blocks of about ``QUAD_BLOCK`` node values
    and joined before the cumulative sums.
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
    rows = d.reshape(-1, n)
    column = index[..., 0].size * (2 * QUAD_ORDER + 1)  # node values of one panel of every row
    width = index.shape[-1]
    if column * width > QUAD_BLOCK:
        width = max(1, QUAD_BLOCK // (column * rows.shape[0]))
    height = max(1, QUAD_BLOCK // (column * width))
    sums = np.empty((2, rows.shape[0]) + index.shape)
    for j in range(0, index.shape[-1], width):
        block = index[..., j:j + width]
        part = ends
        if width < index.shape[-1]:
            distinct, local = np.unique(block, return_inverse=True)
            part, block = [e[distinct] for e in ends], local.reshape(block.shape)
        u, s, kronrod, gauss = _nodes(*part)
        x = np.asarray(dist.ppf(u.ravel())).reshape(u.shape)
        f = integrand(x[block])
        for i in range(0, rows.shape[0], height):
            values = f * _rank_weight(n, rows[i:i + height], u, s)[..., block, :]
            for rule, w in enumerate((gauss, kronrod)):
                sums[rule, i:i + height, ..., j:j + width] = np.sum(values * w[block], axis=-1)
    rules = []
    for panels in sums.reshape((2,) + lead + index.shape):
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


def _rank_cdf_sum(n: int, d: np.ndarray, u: np.ndarray, s: np.ndarray) -> np.ndarray:
    """sum_r d_r P(the (n-r)-th lowest of n-1 rivals' levels is at most u)
    at the levels (u, s).  That is P(Binomial(n-1, u) >= n-r) (David &
    Nagaraja, ch. 2), a tail sum from the top, k = n-1, of the pmf at k: the
    Beta(k+1, n-k) density over n, from the ``_log_beta_density`` table at
    n + 1, made only when a middle rank has weight.  The top rank's u^(n-1)
    and the last rank's 1 are exact."""
    cdf = (u ** (n - 1))[None]
    if np.any(d[..., 1:-1]):
        pmf = np.exp(_log_beta_density(n + 1, np.arange(2, n)[:, None], *special.xlogy(1, (u, s)))) / n
        cdf = np.cumsum(np.concatenate([cdf, pmf]), axis=0)
    return _rank_sum(d, lambda r: cdf[r - 1] if r < n else 1.0, u.shape)


def _unit(n: int, r) -> np.ndarray:
    """Differentials of the schedule with one prize at rank r, (n,), or one
    row per rank for an array of ranks, as a boolean mask: True multiplies
    as 1.0."""
    r = np.asarray(r)
    bad = r[(r < 1) | (r > n)]
    if bad.size:
        raise ValueError(f"rank {bad.flat[0]} outside 1..{n}")
    return np.arange(1, n + 1) == r[..., None]


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
    u, s = _levels(dist, t)
    at = np.searchsorted(key, _order_key(u, s))
    return np.asarray(dist.pdf(t)) * _rank_cdf_sum(n, d, u, s) + above[..., at]


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
    return own_pass * _rank_cdf_sum(n, d, *_levels(dist, t)) + above[..., 0]


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
    concavity diagnostic; the Monte-Carlo module provides the independent
    estimate.
    """
    e = np.asarray(e_grid, dtype=float)
    value = _prize_probabilities(dist, design.n, design.schedule.differentials, e, e_star, design.standard)
    return value - np.asarray(design.cost.c(e))


def _cell_bounds(e: np.ndarray, pi: np.ndarray, curvature: float, kinks) -> np.ndarray:
    """Upper bound of a payoff P with P'' <= ``curvature`` K on each cell
    [e_i, e_i+1] between the efforts ``e``, from the payoffs ``pi`` there,
    where P' may jump up only at the inner efforts ``kinks``.

    q = P - K e^2 / 2 is concave between kinks, so on a cell it stays below
    the lines through the chords of q on both neighbouring cells on its side
    of any kink (one line in an end cell; none, and no bound, in a lone one).
    Their minimum plus K e^2 / 2 is convex between their crossing and either
    end, so its largest value on the cell is at an end or at the crossing.
    """
    q = pi - curvature * e * e / 2.0
    a, b, h = e[:-1], e[1:], np.diff(e)
    slope = np.diff(q) / h
    left, right = np.append(np.nan, slope[:-1]), np.append(slope[1:], np.nan)
    k = np.searchsorted(e, kinks)  # the cells on either side lose their line across it
    left[k] = right[k - 1] = np.nan
    with np.errstate(divide="ignore", invalid="ignore"):
        cross = a + h * (slope - right) / (left - right)
    cross = np.where((cross > a) & (cross < b), cross, a)
    # fmin ignores a missing line, which is nan
    bounds = [np.fmin(q[:-1] + left * (x - a), q[1:] + right * (x - b)) + curvature * x * x / 2.0
              for x in (a, b, cross)]
    return np.nan_to_num(np.max(bounds, axis=0), nan=np.inf)


def _deviation_payoffs(
    dist: NoiseDistribution, design: TournamentDesign, e_star: float, curvature: float, kinks
) -> tuple[np.ndarray, np.ndarray]:
    """Efforts in [0, max_effort], ascending and with ``e_star`` and the
    ``kinks`` among them, and the deviation payoffs there, on which
    ``solve_design`` judges e*.

    ``_cell_bounds`` bounds the payoff on each cell between the efforts from
    its curvature bound K and its convex kinks.  The efforts start at
    ``REFINEMENT_CELLS`` equal cells, e*, the kinks, and e* +- h0 2^-j, h0 the
    cell width, down to the first step within sqrt(8 tol / (3K)), the width
    at which a cell beside e* closes where P''(e*) = 0 (h0 for K <= 0).
    Each round then bisects, in one kernel call, every cell whose bound
    exceeds pi(e*) + tol and that is wider than h0 2^-``REFINEMENT_HALVINGS``,
    until no cell is left to split or some effort gains more than tol.
    """
    e_max = design.cost.max_effort
    h0 = e_max / REFINEMENT_CELLS
    floor = math.sqrt(8.0 * DEVIATION_GAIN_TOL / (3.0 * curvature)) if curvature > 0.0 else h0
    steps = h0 * 0.5 ** np.arange(max(math.ceil(math.log2(h0 / floor)), 0) + 1)
    graded = e_star + np.concatenate([-steps, steps])
    graded = graded[(graded >= 0.0) & (graded <= e_max)]
    e = np.unique(np.concatenate([np.linspace(0.0, e_max, REFINEMENT_CELLS + 1), [e_star], kinks, graded]))
    pi = deviation_payoff_curve(dist, design, e_star, e)
    pi_star = pi[np.searchsorted(e, e_star)]
    while np.max(pi) - pi_star <= DEVIATION_GAIN_TOL:
        h = np.diff(e)
        open_ = _cell_bounds(e, pi, curvature, kinks) - pi_star > DEVIATION_GAIN_TOL
        split = np.flatnonzero(open_ & (h > h0 * 0.5**REFINEMENT_HALVINGS))
        if split.size == 0:
            break
        mid = e[split] + h[split] / 2.0
        e = np.insert(e, split + 1, mid)
        pi = np.insert(pi, split + 1, deviation_payoff_curve(dist, design, e_star, mid))
    return e, pi


# ---------------------------------------------------------------------------
# equilibrium and optimal standard
# ---------------------------------------------------------------------------


def _effort(g: float, cost: CostFunction) -> float:
    """Effort at which marginal cost equals the marginal benefit g."""
    if not math.isfinite(g):
        raise EffortOutOfRange(f"marginal benefit {g!r} is not a finite number")
    top = cost.cprime(cost.max_effort)
    if g > top * (1.0 + 1e-12):
        raise EffortOutOfRange(
            f"marginal benefit {g:.6g} exceeds marginal cost {top:.6g} at the "
            f"largest undominated effort"
        )
    return float(cost.cprime_inv(min(g, top)))


def _mode_values(dist: NoiseDistribution, n: int, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The modes weakly above the global mode, ascending, and G = sum_r d_r
    B_r there for each row of differentials ``d``, of shape ``d.shape[:-1]``
    plus the modes'.

    Each row, a unit row too, has G' = f' H with H = sum_r d_r
    F_{(n-r:n-1)} >= 0, so one pass takes G at the modes and antimodes of
    ``find_modes`` from the global mode up, and ``ModeScanMismatch`` names
    an interval between two of them where a row's G moves against f by more
    than ``THRESHOLD_TIE_TOL``.
    """
    shape = dist.find_modes()
    t = np.union1d(shape.modes, shape.antimodes)
    t = t[t >= shape.global_mode]
    g = _marginal_benefit(dist, n, d, t)
    f = np.asarray(dist.pdf(t))
    dg = np.diff(g, axis=-1)
    against = np.argwhere((np.abs(dg) > THRESHOLD_TIE_TOL) & (np.sign(dg) != np.sign(np.diff(f))))
    if against.size:
        *row, i = against[0]
        g, where = g[tuple(row)], f", row {row[0]} of the differentials" if row else ""
        raise ModeScanMismatch(
            f"{dist.family} {dist.params}, n={n}{where}: on [{t[i]:.10g}, {t[i + 1]:.10g}] f goes from "
            f"{f[i]:.10g} to {f[i + 1]:.10g} but G = sum_r d_r B_r from {g[i]:.12g} to {g[i + 1]:.12g}; "
            f"as G' = f' H, H >= 0, the shape report misses a critical point there or an integral is wrong"
        )
    modes = np.isin(t, shape.modes)
    return t[modes], g[..., modes]


def optimal_threshold(dist: NoiseDistribution, n: int, v: PrizeSchedule) -> ThresholdResult:
    """Best threshold among the modes weakly above the global mode, from
    ``_mode_values``.  Ties within ``THRESHOLD_TIE_TOL`` resolve to the
    smallest threshold, which maximizes the pass probability.
    """
    modes, g = _mode_values(dist, n, v.differentials)
    i = int(np.argmax(g >= np.max(g) - THRESHOLD_TIE_TOL))
    candidates = tuple((float(m), float(gm)) for m, gm in zip(modes, g))
    return ThresholdResult(threshold=candidates[i][0], marginal_benefit=candidates[i][1], candidates=candidates)


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
    noise survival function and Z_r the larger of the standard rho and the
    rank-r rival's noise, so P'' = -sum_r d_r E[f'(Z_r - e)] - c''.  As d_r
    >= 0 and sum_r d_r = v_1, the top prize, the smooth pieces of f add at
    most v_1 sup(-f') (``ShapeReport.steepest_descent``).  A drop J of f to
    0 at the upper support bound hi (``top_drop``) adds J sum_r d_r g_r(hi +
    e), g_r the law of Z_r.  Its atom at rho puts a convex kink in P at e =
    rho - hi, below which no effort reaches the standard; elsewhere g_r is
    at most sup f times the largest Beta(n-r, r) density (David & Nagaraja,
    *Order Statistics*, 2003), and 0 for r = n.  An upward jump of f and the
    kink at the standard only add negative mass.  So away from the kink
    P'' <= K = v_1 sup(-f') + J sup f sum_{r<n} d_r max Beta(n-r, r) -
    inf c'' (``CostFunction.min_curvature``), and:

    - K <= 0 and no kink in (0, max_effort): P is concave and e*, where
      P' = 0, is its global maximum.  No payoff is evaluated.
    - Otherwise, K > 0 or a kink that can make effort 0 a second peak:
      P - K e^2 / 2 is concave on either side of the kink, which
      bounds P on each cell between evaluated efforts (``_cell_bounds``).
      ``_deviation_payoffs`` bisects the cells whose bound exceeds P(e*) +
      ``DEVIATION_GAIN_TOL`` until none does or an effort gains more than
      the tolerance.  A pass so certifies, up to the error of the
      quadrature, that no effort gains more than the tolerance.  Where a
      cell's bound stays open at the refinement's width limit, the check
      fails closed.

    A failed check emits a non-fatal ``ConcavityWarning``, naming K and the
    number of efforts evaluated, and reports ``concavity_ok=False``.
    """
    if threshold is None:
        thr = optimal_threshold(dist, n, v)
        t_star, g_star = thr.threshold, thr.marginal_benefit
    else:
        t_star = float(threshold)
        g_star = total_marginal_benefit(dist, n, v, t_star)
    e_star = _effort(g_star, cost)
    rho = e_star + t_star
    design = TournamentDesign(standard=rho, schedule=v, cost=cost)
    shape = dist.find_modes()
    curvature = v.prizes[0] * shape.steepest_descent - cost.min_curvature
    if shape.top_drop:
        curvature += shape.top_drop * shape.global_mode_density * _rank_weight_peak(n, v.differentials)
    kinks = [rho - hi for hi in dist.support[1:] if shape.top_drop and 0.0 < rho - hi < cost.max_effort]
    problem = None
    if curvature > 0.0 or kinks:
        e, pi = _deviation_payoffs(dist, design, e_star, curvature, kinks)
        pi_star = pi[np.searchsorted(e, e_star)]
        i_best = int(np.argmax(pi))
        gain = float(pi[i_best] - pi_star)
        bound = float(np.max(_cell_bounds(e, pi, curvature, kinks)) - pi_star)
        if gain > DEVIATION_GAIN_TOL:
            problem = (
                f"deviating to effort {e[i_best]:.6g} gains {gain:.3g} over the "
                f"first-order effort {e_star:.6g}; this design has no symmetric "
                f"equilibrium there"
            )
        elif bound > DEVIATION_GAIN_TOL:
            problem = (
                f"at the refinement's width limit the curvature bound still allows "
                f"a gain of {bound:.3g} over the first-order effort {e_star:.6g}; "
                f"the design is not certified"
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
    """Whether the top-rank coefficient peaks at the global mode, the
    winner-take-all case of ``optimal_threshold``; the witness reports the
    maximizing mode either way.

    It holds exactly when every rank's B_r, one row of the table that
    ``optimal_prizes`` maximizes, peaks at the global mode, so that the
    standard there is optimal for every prize schedule.  Where it fails, the
    joint design can put the standard at a higher mode.
    """
    thr = optimal_threshold(dist, n, PrizeSchedule.winner_take_all(n))
    return SufficiencyResult(holds=thr.threshold == dist.find_modes().global_mode, witness=thr.threshold)
