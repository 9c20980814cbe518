"""Cardinal pay schemes and the marginal-incentive upper bound.

Beyond rank-based prizes, a principal observing cardinal output could pay
any anonymous, monotone, budget-feasible function of the output vector.
Such a scheme is one function, player 1's payment p(y_1; y_2, ..., y_n) of
its own output and its rivals'; it is anonymous exactly when p is symmetric
in the rivals' outputs, and player i is paid p with its own output first.
For such schemes the equilibrium marginal benefit of effort is bounded by a
likelihood-ratio-weighted expected payment above the global mode; under
log-concave noise that bound never exceeds the winner-take-all tournament's
marginal benefit at the mode, and under log-convex noise it never exceeds
``f(lower bound)/n``.  This module estimates the bound integrand by Monte
Carlo and compares estimates to the closed-form caps.  Its kinds' constructors
check the properties exactly; a user's callable is spot-checked statistically.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .distributions import NoiseDistribution
from .equilibrium import PrizeSchedule, marginal_benefit_rank, random_schedule
from .montecarlo import BATCH, UNIT_MAX, _blocks, _rank, _rank_count, _require_draws, _require_seed, _substreams

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
# Outputs per pay call when the budget check prices every player (8 MiB).
PROPERTY_BLOCK = 1 << 20
# The keys each kind of ``scheme_from_spec`` reads besides 'kind'.
SCHEME_KEYS = {"rank": {"prizes", "standard"}, "linear_share": {"cap"}, "constant": set(),
               "mixture": {"first", "second", "weight"}}


class PropertyViolation(ValueError):
    """A pay scheme failed an anonymity / monotonicity / budget spot-check."""


class UnboundedLikelihoodRatio(RuntimeError):
    """Sampled likelihood ratios exceed the cap; the bound integrand is
    unreliable for this density."""


class NoBoundAvailable(ValueError):
    """Closed-form caps exist only for log-concave or log-convex noise."""


class PayScheme:
    """Player 1's payment under an anonymous, monotone, budget-feasible scheme.

    ``pay`` maps an (m, n) block of outputs, player 1's own in column 0 and
    its rivals' after it, to player 1's payment on each row, from that row
    alone.  The scheme is anonymous exactly when ``pay`` is symmetric in the
    rival columns; player i is then paid ``pay`` with its own output first.
    Any such callable plugs in; ``check_properties`` spot-checks it.  Rank
    schemes keep the budget only up to ties (see ``rank_payscheme``).
    ``marginal_incentive`` calls ``pay`` from two threads at once, so it
    must not mutate shared state; the built-in schemes are pure functions
    of the rows.  There the rows are read-only and shared by every scheme
    of the call, and refilled by the next block: ``pay`` must not keep them.
    The library's constructors set ``_checked`` on the kinds whose properties
    they check exactly and, on those that pay by rank alone, ``_rank_form``:
    the payment from player 1's outputs x_1 and the counts k of rivals above.
    """

    _checked, _rank_form = False, None

    def __init__(self, n: int, pay: Callable[[np.ndarray], np.ndarray], label: str = "custom"):
        self.n = int(n)
        self._pay = pay
        self.label = label

    def pay(self, y: np.ndarray) -> np.ndarray:
        """Player 1's payment per output vector, its own output in column 0."""
        y = np.atleast_2d(np.asarray(y, dtype=float))
        if y.shape[1] != self.n:
            raise ValueError(f"output vectors must have {self.n} columns")
        return self._pay(y)

    def __repr__(self):
        return f"PayScheme({self.label}, n={self.n})"


def _built(scheme: PayScheme, rank_form=None, checked: bool = True) -> PayScheme:
    """``scheme`` with the private attributes of a library kind set."""
    scheme._rank_form, scheme._checked = rank_form, checked
    return scheme


def rank_payscheme(schedule: PrizeSchedule, standard: float = -np.inf) -> PayScheme:
    """Pay by performance rank among those above the standard: player 1 is
    paid the prize of its rank from ``montecarlo._rank``, which counts the
    rivals strictly above it, so ties go to player 1.  On a tied row every
    tied player is paid the prize, so the scheme keeps the budget only up
    to ties, which have measure zero under continuous noise.  ``PrizeSchedule`` checks the prizes."""
    v = np.append(np.asarray(schedule.prizes), 0.0)
    label = f"rank(v={schedule.prizes}, standard={standard:g})"
    return _built(PayScheme(schedule.n, lambda y: v[_rank(y, y[:, 0], y[:, 0] >= standard)], label),
                  lambda x1, k: v[np.where(x1 >= standard, k, schedule.n)])


def capped_linear_share(n: int, cap: float) -> PayScheme:
    """Split the budget in proportion to output above a cap; pay nothing
    when nobody clears it.  A cap that is not finite raises ``ValueError``."""
    cap = _finite(cap)

    def pay(y):
        a = y - cap
        np.maximum(a, 0.0, out=a)
        tot = a.sum(axis=1)
        return np.where(tot > 0, a[:, 0] / np.where(tot > 0, tot, 1.0), 0.0)

    return _built(PayScheme(n, pay, f"linear_share(cap={cap:g})"))


def constant_share(n: int) -> PayScheme:
    """Unconditional equal split of the budget."""
    return _built(PayScheme(n, lambda y: np.full(len(y), 1.0 / n), f"constant_share(1/{n})"),
                  lambda x1, k: np.full(len(x1), 1.0 / n))


def mixture(first: PayScheme, second: PayScheme, weight: float) -> PayScheme:
    """``weight`` times ``first``'s payment plus the rest times ``second``'s, with a rank
    form and checked where both are; a weight not a number in [0, 1] raises ``ValueError``."""
    if first.n != second.n:
        raise ValueError("mixture components must share the player count")
    w = _real(weight)
    if not 0.0 <= w <= 1.0:
        raise ValueError("mixture weight must lie in [0, 1]")

    def pay(y):
        return w * first.pay(y) + (1.0 - w) * second.pay(y)

    def rank_form(x1, k):
        return w * first._rank_form(x1, k) + (1.0 - w) * second._rank_form(x1, k)

    return _built(PayScheme(first.n, pay, f"mix({w:.3f}*{first.label} + {1-w:.3f}*{second.label})"),
                  rank_form if first._rank_form and second._rank_form else None, first._checked and second._checked)


def _field(spec: dict, key: str, convert):
    """``convert(spec[key])``; a missing key, or a value ``convert`` cannot
    take, is a ``ValueError`` naming ``key``."""
    if key not in spec:
        raise ValueError(f"{spec['kind']} scheme spec needs a {key!r} key")
    try:
        return convert(spec[key])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{spec['kind']} scheme spec: bad {key!r}: {exc}") from exc


def _real(value) -> float:
    """``float(value)``; a JSON ``true`` or ``false`` is not a number."""
    if isinstance(value, bool):
        raise ValueError(f"{str(value).lower()} is not a number")
    return float(value)


def _finite(value) -> float:
    value = _real(value)
    if not np.isfinite(value):
        raise ValueError(f"{value} is not finite")
    return value


def scheme_from_spec(spec: dict, n: int) -> PayScheme:
    """Build a battery-family scheme from a config document.

    Kinds: ``rank`` (prizes + optional standard), ``linear_share`` (cap),
    ``constant``, and ``mixture`` (two component specs and a weight).
    Anything beyond these families plugs in directly as a ``PayScheme``
    around player 1's payment callback.  A ``rank`` scheme whose prize count is not
    ``n`` raises ``ValueError`` naming both, inside a ``mixture`` too; a
    key the kind does not read, a field of the wrong type (``true`` and
    ``false`` are not numbers), or a cap or standard that is not finite,
    raises ``ValueError`` naming it.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValueError("scheme spec must be an object with a 'kind' key")
    kind = spec["kind"]
    if not isinstance(kind, str) or kind not in SCHEME_KEYS:
        raise ValueError(f"unknown scheme kind {kind!r}")
    unknown = sorted(set(spec) - SCHEME_KEYS[kind] - {"kind"})
    if unknown:
        raise ValueError(f"unknown keys in {kind} scheme spec: {unknown}")
    if kind == "rank":
        schedule = PrizeSchedule.winner_take_all(n)
        if "prizes" in spec:
            schedule = _field(spec, "prizes", lambda v: PrizeSchedule(tuple(map(_real, v))))
        if schedule.n != n:
            raise ValueError(f"rank scheme has {schedule.n} prizes but n={n}")
        standard = _field(spec, "standard", _finite) if "standard" in spec else -np.inf
        return rank_payscheme(schedule, standard)
    if kind == "linear_share":
        return capped_linear_share(n, _field(spec, "cap", _finite))
    if kind == "constant":
        return constant_share(n)
    return mixture(
        _field(spec, "first", lambda first: scheme_from_spec(first, n)),
        _field(spec, "second", lambda second: scheme_from_spec(second, n)),
        _field(spec, "weight", _real),
    )


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
    """Spot-check the budget, nonnegativity, anonymity and monotonicity on
    sampled outputs; raises ``PropertyViolation`` on the first failure.

    Every player is priced by ``scheme.pay`` with its own output first, a
    block of at most ``PROPERTY_BLOCK`` outputs per call, so the budget is
    checked on whole rows.  Anonymity is checked as invariance under
    permutations of the rival columns, monotonicity by raising player 1's
    own output.  Statistical: ``marginal_incentive`` runs it on the schemes
    not built by the library's constructors, which check theirs exactly.
    """
    y = np.atleast_2d(np.asarray(y, dtype=float))
    if y.size == 0:
        raise ValueError(f"{scheme.label}: no outputs to check, got an empty block of shape {y.shape}")
    n, m = scheme.n, len(y)
    w1 = scheme.pay(y)
    step = max(1, min(n, PROPERTY_BLOCK // y.size))  # players priced per call
    yt = np.ascontiguousarray(y.T)
    rows = np.empty((n, step * m))  # transposed, so a scheme reads each column contiguously
    totals = np.zeros(m)
    for lo in range(0, n, step):
        k = min(step, n - lo)
        for j, i in enumerate(range(lo, lo + k)):  # player i's output, then the others'
            rows[: n - i, j * m : (j + 1) * m] = yt[i:]
            rows[n - i :, j * m : (j + 1) * m] = yt[:i]
        w = scheme.pay(rows[:, : k * m].T)
        if np.any(w < -PROPERTY_TOL):
            raise PropertyViolation(f"{scheme.label}: negative payments")
        totals += w.reshape(k, m).sum(axis=0)
    if np.any(totals > 1.0 + 1e-6):
        raise PropertyViolation(f"{scheme.label}: budget exceeded (max total {totals.max():.6g})")
    # the trials' permutations and bumps are drawn in turn, and the trials
    # priced in blocks of at most PROPERTY_BLOCK outputs per pay call
    trials = [(np.append(0, 1 + rng.permutation(n - 1)), rng.uniform(0.01, 1.0)) for _ in range(PROPERTY_TRIALS)]
    per = max(1, PROPERTY_BLOCK // y.size)
    for block in (trials[lo:lo + per] for lo in range(0, PROPERTY_TRIALS, per)):
        bumped = np.tile(y, (len(block), 1))
        bumped[:, 0] += np.repeat([bump for _, bump in block], m)
        permuted = scheme.pay(np.concatenate([y[:, cols] for cols, _ in block])).reshape(-1, m)
        moved = ~np.isclose(permuted, w1, atol=1e-8).all(axis=1)
        fell = (scheme.pay(bumped).reshape(-1, m) < w1 - 1e-8).any(axis=1)
        if (moved | fell).any():  # the first failing trial, anonymity first
            if moved[np.argmax(moved | fell)]:
                raise PropertyViolation(f"{scheme.label}: anonymity spot-check failed")
            raise PropertyViolation(f"{scheme.label}: payment decreased in own output")


def _player_count(schemes: Sequence[PayScheme]) -> int:
    """The n that every scheme shares; ``ValueError`` for none or several."""
    counts = {scheme.n for scheme in schemes}
    if len(counts) != 1:
        raise ValueError(f"pass at least one scheme, all with one player count; got counts {sorted(counts)}")
    return counts.pop()


@dataclass(frozen=True)
class BoundCheck:
    bound: float
    bound_kind: str      # 'top-prize-at-mode' or 'lower-bound-density'
    estimate: float
    se: float
    satisfied: bool


def marginal_incentive(
    dist: NoiseDistribution,
    schemes: Sequence[PayScheme],
    effort: float,
    draws: int = 10**5,
    seed: int | None = None,
) -> list[tuple[float, float]]:
    """Monte-Carlo estimates (value, standard error), one per scheme, of the
    marginal-incentive integrand: expected own payment weighted by the
    likelihood ratio, over noise realizations above the global mode.

    In equilibrium this expression caps the marginal cost of effort for any
    anonymous monotone budget-feasible scheme, provided the density vanishes
    at the upper support bound.

    Only draws above the mode x_m count, so only they are drawn: round(draws
    S(x_m)) rows, player 1's level u from ``rng.random`` moved to
    F(x_m) + (1 - F(x_m)) u and kept below 1, so that x_1 has its law given
    x_1 > x_m.  The estimates and their standard errors are S(x_m) times the
    rows'; (0, 0) where no row is drawn.  The likelihood ratio is capped on
    every row at ``LR_CAP`` times the mode's density, which has its units.

    Streams: the rows come from the ``_blocks`` substreams of ``seed``.  Where
    every scheme has a ``_rank_form``, a row is u and the count K ~
    Binomial(n - 1, 1 - u) of rivals above it (David & Nagaraja, Order
    Statistics, ch. 2), priced by ``_rank_form``; else all n levels from
    ``rng.random`` in blocks of at most 2^20 (``BATCH`` rows for n <= 64),
    priced by ``pay``; each row mapped by ``ppf``.  Every scheme is priced on
    the same rows (common random numbers), so a one-scheme call gives what
    scheme 0 gets in a longer one priced the same way.  Scheme k, unless
    ``_checked``, is spot-checked by ``check_properties`` on 256 rows of
    ``dist.sample`` from the PCG64DXSM stream (O'Neill, "PCG",
    HMC-CS-2014-0905) of key ``(seed + k) ^ 0x9E3779B97F4A7C15``, which then
    draws the check's trials, before any row is drawn.  The schemes must
    share n.
    """
    seed = _require_seed(seed)
    draws = _require_draws(draws)
    n = _player_count(schemes)
    shape = dist.find_modes()
    if shape.top_drop > 1e-8 * shape.global_mode_density:
        raise ValueError("density must vanish at the upper support bound")
    xm = shape.global_mode
    for k, scheme in enumerate(schemes):
        if not scheme._checked:
            rng = _substreams((seed + k) ^ 0x9E3779B97F4A7C15, 1)[0]
            check_properties(scheme, dist.sample((256, n), rng) + effort, rng)
    above = float(dist.sf(xm))
    rows = round(draws * above)
    if rows == 0:
        return [(0.0, 0.0)] * len(schemes)
    floor = float(dist.cdf(xm))
    ranked = all(scheme._rank_form is not None for scheme in schemes)
    block = BATCH if ranked else max(1, min(BATCH, 2**20 // n))
    buffers = threading.local()

    def work(m, rng):
        if not hasattr(buffers, "rows"):
            buffers.rows = np.empty((block, 1 if ranked else n))
        u = rng.random(out=buffers.rows[:m])
        if floor:
            u[:, 0] = np.minimum(floor + (1.0 - floor) * u[:, 0], UNIT_MAX)
        rivals_above = _rank_count(u[:, 0], n, rng) if ranked else None
        x = dist._ppf_in_place(u)
        lam = np.asarray(dist.likelihood_ratio(x[:, 0]))
        if np.max(np.abs(lam)) > LR_CAP * shape.global_mode_density:
            raise UnboundedLikelihoodRatio(
                f"|likelihood ratio| exceeded {LR_CAP:g} times the mode density on sampled points"
            )
        x += effort
        y = x.view()
        y.flags.writeable = False  # shared by every scheme: one that writes raises
        sums = np.empty((len(schemes), 2))
        for k, scheme in enumerate(schemes):
            vals = (scheme._rank_form(y[:, 0], rivals_above) if ranked else scheme.pay(y)) * lam
            sums[k] = vals.sum(), np.dot(vals, vals)
        return sums

    total = sum(_blocks(work, rows, block, seed), np.zeros((len(schemes), 2)))
    mean = total[:, 0] / rows
    var = np.maximum(total[:, 1] / rows - mean * mean, 0.0)
    return list(zip((above * mean).tolist(), (above * np.sqrt(var / rows)).tolist()))


def check_incentive_bound(
    dist: NoiseDistribution,
    schemes: Sequence[PayScheme],
    effort: float,
    draws: int = 10**5,
    seed: int | None = None,
) -> list[BoundCheck]:
    """Compare each scheme's estimated marginal incentive against the
    closed-form cap, one check per scheme.

    Log-concave noise caps it at the winner-take-all marginal benefit at the
    global mode; log-convex noise caps it at f(lower bound)/n.  Satisfied
    means the estimate stays within four standard errors of the cap.  The
    cap is computed once, and the estimates come from one
    ``marginal_incentive`` call on the streams of ``seed`` it names.
    """
    shape = dist.find_modes()
    log_class = shape.log_class
    n = _player_count(schemes)
    if log_class == "log-concave":
        bound = float(marginal_benefit_rank(dist, n, 1, shape.global_mode))
        kind = "top-prize-at-mode"
    elif log_class == "log-convex":
        bound = float(dist.pdf(dist.support[0])) / n
        kind = "lower-bound-density"
    else:
        raise NoBoundAvailable(
            f"noise is {log_class}; closed-form caps need log-concave or log-convex noise"
        )
    return [
        BoundCheck(bound=bound, bound_kind=kind, estimate=est, se=se, satisfied=bool(est <= bound + 4.0 * se))
        for est, se in marginal_incentive(dist, schemes, effort, draws, seed)
    ]
