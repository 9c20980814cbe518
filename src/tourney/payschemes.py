"""Cardinal pay schemes and the marginal-incentive upper bound.

Beyond rank-based prizes, a principal observing cardinal output could pay
any anonymous, monotone, budget-feasible function of the output vector.
For such schemes the equilibrium marginal benefit of effort is bounded by a
likelihood-ratio-weighted expected payment above the global mode; under
log-concave noise that bound never exceeds the winner-take-all tournament's
marginal benefit at the mode, and under log-convex noise it never exceeds
``f(lower bound)/n``.  This module estimates the bound integrand by Monte
Carlo, spot-checks scheme properties statistically, and compares estimates
to the closed-form caps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .distributions import NoiseDistribution
from .equilibrium import PrizeSchedule, marginal_benefit_rank, random_schedule
from .montecarlo import _require_draws, _require_seed, noise_batches

__all__ = [
    "PayScheme",
    "BoundCheck",
    "PropertyViolation",
    "UnboundedLikelihoodRatio",
    "NoBoundAvailable",
    "rank_payscheme",
    "capped_linear_share",
    "mixture",
    "constant_share",
    "scheme_from_spec",
    "scheme_battery",
    "check_properties",
    "marginal_incentive",
    "check_incentive_bound",
]

LR_CAP = 1e6
# Random permutations and output bumps per spot-check of a scheme's
# properties, and the tolerance on a negative payment.
PROPERTY_TRIALS = 16
PROPERTY_TOL = 1e-9


class PropertyViolation(ValueError):
    """A pay scheme failed an anonymity / monotonicity / budget spot-check."""


class UnboundedLikelihoodRatio(RuntimeError):
    """Sampled likelihood ratios exceed the cap; the bound integrand is
    unreliable for this density."""


class NoBoundAvailable(ValueError):
    """Closed-form caps exist only for log-concave or log-convex noise."""


class PayScheme:
    """Anonymous, monotone, budget-feasible payments over output vectors.

    ``payments`` maps an (m, n) block of output vectors to an (m, n) block
    of nonnegative payments.  Any callable with that signature plugs in;
    declared properties are verified by random spot-checks, not symbolically.
    """

    def __init__(self, n: int, payments: Callable[[np.ndarray], np.ndarray], label: str = "custom"):
        self.n = int(n)
        self._payments = payments
        self.label = label

    def payments(self, y: np.ndarray) -> np.ndarray:
        y = np.atleast_2d(np.asarray(y, dtype=float))
        if y.shape[1] != self.n:
            raise ValueError(f"output vectors must have {self.n} columns")
        return self._payments(y)

    def __repr__(self):
        return f"PayScheme({self.label}, n={self.n})"


def rank_payscheme(schedule: PrizeSchedule, standard: float = -np.inf) -> PayScheme:
    """Pay by performance rank among those above the standard.

    Ties (measure zero under continuous noise) give the better rank to the
    lower player index.
    """
    v = np.append(np.asarray(schedule.prizes), 0.0)
    n = schedule.n

    def pay(y):
        passed = y >= standard
        masked = np.where(passed, y, -np.inf)
        order = np.argsort(-masked, axis=1, kind="stable")
        pos = np.empty_like(order)
        np.put_along_axis(pos, order, np.broadcast_to(np.arange(n), y.shape).copy(), axis=1)
        return np.where(passed, v[pos], 0.0)

    label = f"rank(v={schedule.prizes}, standard={standard:g})"
    return PayScheme(n, pay, label)


def capped_linear_share(n: int, cap: float) -> PayScheme:
    """Split the budget in proportion to output above a cap; pay nothing
    when nobody clears it."""

    def pay(y):
        a = np.maximum(y - cap, 0.0)
        tot = a.sum(axis=1, keepdims=True)
        return np.where(tot > 0, a / np.where(tot > 0, tot, 1.0), 0.0)

    return PayScheme(n, pay, f"linear_share(cap={cap:g})")


def constant_share(n: int) -> PayScheme:
    """Unconditional equal split of the budget."""
    return PayScheme(n, lambda y: np.full_like(y, 1.0 / n), f"constant_share(1/{n})")


def mixture(first: PayScheme, second: PayScheme, weight: float) -> PayScheme:
    if first.n != second.n:
        raise ValueError("mixture components must share the player count")
    w = float(weight)
    if not 0.0 <= w <= 1.0:
        raise ValueError("mixture weight must lie in [0, 1]")

    def pay(y):
        return w * first.payments(y) + (1.0 - w) * second.payments(y)

    return PayScheme(first.n, pay, f"mix({w:.3f}*{first.label} + {1-w:.3f}*{second.label})")


def _field(spec: dict, key: str):
    if key not in spec:
        raise ValueError(f"{spec['kind']} scheme spec needs a {key!r} key")
    return spec[key]


def scheme_from_spec(spec: dict, n: int) -> PayScheme:
    """Build a battery-family scheme from a config document.

    Kinds: ``rank`` (prizes + optional standard), ``linear_share`` (cap),
    ``constant``, and ``mixture`` (two component specs and a weight).
    Anything beyond these families plugs in directly as a ``PayScheme``
    around a payments callback.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValueError("scheme spec must be an object with a 'kind' key")
    kind = spec["kind"]
    if kind == "rank":
        prizes = spec.get("prizes")
        schedule = PrizeSchedule(tuple(prizes)) if prizes else PrizeSchedule.winner_take_all(n)
        return rank_payscheme(schedule, float(spec.get("standard", -np.inf)))
    if kind == "linear_share":
        return capped_linear_share(n, float(_field(spec, "cap")))
    if kind == "constant":
        return constant_share(n)
    if kind == "mixture":
        return mixture(
            scheme_from_spec(_field(spec, "first"), n),
            scheme_from_spec(_field(spec, "second"), n),
            float(_field(spec, "weight")),
        )
    raise ValueError(f"unknown scheme kind {kind!r}")


def scheme_battery(
    n: int, size: int, rng: np.random.Generator, y_low: float, y_high: float
) -> list[PayScheme]:
    """Random anonymous monotone budget-feasible schemes for bound sweeps.

    Convex mixtures of rank-contingent payments (random schedule, random
    standard) and capped linear output sharing; the components satisfy the
    required properties by construction, so mixtures do too.
    """
    out = []
    for _ in range(size):
        schedule = random_schedule(n, rng)
        standard = rng.uniform(y_low, y_high) if rng.random() < 0.7 else -np.inf
        cap = rng.uniform(y_low, y_high)
        theta = rng.random()
        out.append(
            mixture(rank_payscheme(schedule, standard), capped_linear_share(n, cap), theta)
        )
    return out


def check_properties(scheme: PayScheme, y: np.ndarray, rng: np.random.Generator) -> None:
    """Spot-check anonymity, monotonicity, and the budget on sampled outputs.

    Statistical by design: schemes are opaque callables.  Raises
    ``PropertyViolation`` on the first failure.
    """
    y = np.atleast_2d(np.asarray(y, dtype=float))
    n = scheme.n
    w = scheme.payments(y)
    if np.any(w < -PROPERTY_TOL):
        raise PropertyViolation(f"{scheme.label}: negative payments")
    totals = w.sum(axis=1)
    if np.any(totals > 1.0 + 1e-6):
        raise PropertyViolation(f"{scheme.label}: budget exceeded (max total {totals.max():.6g})")
    for _ in range(PROPERTY_TRIALS):
        perm = rng.permutation(n)
        wp = scheme.payments(y[:, perm])
        if not np.allclose(wp, w[:, perm], atol=1e-8):
            raise PropertyViolation(f"{scheme.label}: anonymity spot-check failed")
        i = int(rng.integers(n))
        bump = y.copy()
        bump[:, i] += rng.uniform(0.01, 1.0)
        wb = scheme.payments(bump)
        if np.any(wb[:, i] < w[:, i] - 1e-8):
            raise PropertyViolation(f"{scheme.label}: payment decreased in own output")


@dataclass(frozen=True)
class BoundCheck:
    bound: float
    bound_kind: str      # 'top-prize-at-mode' or 'lower-bound-density'
    estimate: float
    se: float
    satisfied: bool


def marginal_incentive(
    dist: NoiseDistribution,
    scheme: PayScheme,
    effort: float,
    draws: int = 10**5,
    seed: int | None = None,
) -> tuple[float, float]:
    """Monte-Carlo estimate (value, standard error) of the marginal-incentive
    integrand: expected own payment weighted by the likelihood ratio, over
    noise realizations above the global mode.

    In equilibrium this expression caps the marginal cost of effort for any
    anonymous monotone budget-feasible scheme, provided the density vanishes
    at the upper support bound.
    """
    seed = _require_seed(seed)
    draws = _require_draws(draws)
    n = scheme.n
    shape = dist.find_modes()
    if shape.top_drop > 1e-8:
        raise ValueError("density must vanish at the upper support bound")
    xm = shape.global_mode
    rng = np.random.Generator(np.random.Philox(key=seed ^ 0x9E3779B97F4A7C15))
    probe = dist.sample((256, n), rng) + effort
    check_properties(scheme, probe, rng)

    total = 0.0
    total_sq = 0.0
    for x in noise_batches(dist, n, draws, seed):
        lam = np.asarray(dist.likelihood_ratio(x[:, 0]))
        if np.max(np.abs(lam)) > LR_CAP:
            raise UnboundedLikelihoodRatio(
                f"|likelihood ratio| exceeded {LR_CAP:g} on sampled points"
            )
        w1 = scheme.payments(effort + x)[:, 0]
        vals = np.where(x[:, 0] > xm, w1 * lam, 0.0)
        total += float(vals.sum())
        total_sq += float(np.dot(vals, vals))
    mean = total / draws
    var = max(total_sq / draws - mean * mean, 0.0)
    return mean, float(np.sqrt(var / draws))


def check_incentive_bound(
    dist: NoiseDistribution,
    scheme: PayScheme,
    effort: float,
    draws: int = 10**5,
    seed: int | None = None,
) -> BoundCheck:
    """Compare the estimated marginal incentive against its closed-form cap.

    Log-concave noise caps it at the winner-take-all marginal benefit at the
    global mode; log-convex noise caps it at f(lower bound)/n.  Satisfied
    means the estimate stays within four standard errors of the cap.
    """
    shape = dist.find_modes()
    log_class = shape.log_class
    n = scheme.n
    if log_class == "log-concave":
        bound = marginal_benefit_rank(dist, n, 1, shape.global_mode)
        kind = "top-prize-at-mode"
    elif log_class == "log-convex":
        bound = float(dist.pdf(dist.support[0])) / n
        kind = "lower-bound-density"
    else:
        raise NoBoundAvailable(
            f"noise is {log_class}; closed-form caps need log-concave or log-convex noise"
        )
    est, se = marginal_incentive(dist, scheme, effort, draws, seed)
    return BoundCheck(
        bound=float(bound),
        bound_kind=kind,
        estimate=float(est),
        se=float(se),
        satisfied=bool(est <= bound + 4.0 * se),
    )
