"""Noise distributions and their shape analytics.

Performance in the tournament model is effort plus an i.i.d. additive shock.
Everything the design layer needs to know about the shock is collected here:
density / CDF / survival evaluation, hazard rate ``f/(1-F)``, likelihood
ratio ``-f'/f``, mode detection, IFR/DFR classification, log-concavity
screening, and order-statistic CDFs.

Distributions do not change after construction, apart from the shape report
that ``find_modes`` stores on first use.  That slot is not locked, so share an
instance across threads only after a first ``find_modes`` call, or give each
thread its own.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy import optimize, special

__all__ = [
    "NoiseDistribution",
    "ShapeReport",
    "SurvivalUnderflow",
    "ZeroDensity",
    "TooManyModes",
    "RankOutOfRange",
    "exponential",
    "gumbel",
    "normal",
    "logistic",
    "uniform",
    "pareto",
    "erf_exponential",
    "inverse_exponential",
    "piecewise_linear",
    "trimodal_example",
    "from_spec",
    "order_statistic_cdf",
]

# Quantile at which infinite supports are cut off for grids and shape scans.
DEFAULT_TAIL_QUANTILE = 1e-10
# Points of the uniform grid over the (truncated) support, for shape detection.
GRID_POINTS = 5001
DEFAULT_PLATEAU_TOL = 1e-9
MODE_CAP = 64
HAZARD_MONOTONE_TOL = 1e-9
LOG_CURVATURE_TOL = 1e-10


class SurvivalUnderflow(ValueError):
    """Hazard rate requested where 1-F(x) underflows."""


class ZeroDensity(ValueError):
    """Likelihood ratio requested at a point with zero density."""


class TooManyModes(RuntimeError):
    """Mode detection found more than ``MODE_CAP`` modes."""


class RankOutOfRange(ValueError):
    """Order-statistic rank outside 0..n."""


@dataclass(frozen=True)
class ShapeReport:
    """Shape summary of a noise density.

    ``modes`` are the distinct local maximizers, largest first; the lower
    support bound is included only when the density decreases away from it
    and no interior mode exceeds it.  ``antimodes``, largest first, are the
    scanned minima between consecutive modes and beyond the outermost ones;
    the density is monotone between neighbouring modes and antimodes.
    ``global_mode`` is the largest global maximizer.  The hazard and
    log-concavity classes are separate scans: ``classify_hazard`` and
    ``log_concavity``.
    """

    modes: tuple[float, ...]
    mode_densities: tuple[float, ...]
    antimodes: tuple[float, ...]
    global_mode: float

    @property
    def global_mode_density(self) -> float:
        i = self.modes.index(self.global_mode)
        return self.mode_densities[i]


def _as_float_array(x):
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    return np.atleast_1d(arr), scalar


def _scalar_or_array(values, scalar: bool):
    return float(values[0]) if scalar else values


class NoiseDistribution:
    """Additive noise distribution with shape metadata.

    Instances are built by the factory functions in this module
    (``exponential``, ``gumbel``, ``piecewise_linear``, ...) or from a JSON
    spec via :func:`from_spec`.  User-supplied piecewise densities are
    renormalized to unit mass; the applied factor is kept in
    ``normalization``.

    ``pdf``, ``cdf``, ``ppf`` and ``likelihood_ratio`` are required; every
    family has them in closed form.  ``sf`` and ``hazard`` are optional:
    without them 1 - F and f / (1 - F) are formed from ``cdf`` and ``pdf``,
    which loses the tail's precision where F rounds to 1.
    """

    def __init__(
        self,
        family: str,
        params: dict,
        support: tuple[float, float],
        pdf: Callable[[np.ndarray], np.ndarray],
        cdf: Callable[[np.ndarray], np.ndarray],
        ppf: Callable[[np.ndarray], np.ndarray],
        likelihood_ratio: Callable[[np.ndarray], np.ndarray],
        sf: Callable[[np.ndarray], np.ndarray] | None = None,
        hazard: Callable[[np.ndarray], np.ndarray] | None = None,
        knots: Sequence[float] | None = None,
        normalization: float = 1.0,
        require_upper_zero: bool = True,
    ):
        lo, hi = float(support[0]), float(support[1])
        if not lo < hi:
            raise ValueError(f"empty support [{lo}, {hi}]")
        self.family = family
        self.params = dict(params)
        self.support = (lo, hi)
        self.normalization = float(normalization)
        self.knots = tuple(float(k) for k in knots) if knots is not None else ()
        self._pdf = pdf
        self._cdf = cdf
        self._sf = sf
        self._ppf = ppf
        self._hazard = hazard
        self._lr = likelihood_ratio
        self._shape: ShapeReport | None = None
        if require_upper_zero and np.isfinite(hi):
            top = float(pdf(np.asarray(hi)))
            if top > 1e-8:
                warnings.warn(
                    f"density does not vanish at the upper support bound "
                    f"(f({hi:g}) = {top:.3g}); heavy-tail (DFR) results may "
                    f"not apply",
                    stacklevel=3,
                )

    # -- basic evaluation --------------------------------------------------

    def pdf(self, x):
        """Normalized density; zero outside the support."""
        arr, scalar = _as_float_array(x)
        lo, hi = self.support
        inside = (arr >= lo) & (arr <= hi)
        out = np.zeros_like(arr)
        if np.any(inside):
            out[inside] = self._pdf(arr[inside])
        return _scalar_or_array(out, scalar)

    def cdf(self, x):
        arr, scalar = _as_float_array(x)
        lo, hi = self.support
        out = np.empty_like(arr)
        below = arr < lo
        above = arr > hi
        inside = ~below & ~above
        out[below] = 0.0
        out[above] = 1.0
        if np.any(inside):
            out[inside] = np.clip(self._cdf(arr[inside]), 0.0, 1.0)
        return _scalar_or_array(out, scalar)

    def sf(self, x):
        """Survival function 1-F, computed in a cancellation-safe form."""
        arr, scalar = _as_float_array(x)
        lo, hi = self.support
        out = np.empty_like(arr)
        out[arr < lo] = 1.0
        out[arr > hi] = 0.0
        inside = (arr >= lo) & (arr <= hi)
        if np.any(inside):
            if self._sf is not None:
                out[inside] = np.clip(self._sf(arr[inside]), 0.0, 1.0)
            else:
                out[inside] = np.clip(1.0 - self._cdf(arr[inside]), 0.0, 1.0)
        return _scalar_or_array(out, scalar)

    def ppf(self, q):
        """Quantile function on (0, 1)."""
        arr, scalar = _as_float_array(q)
        if np.any((arr < 0.0) | (arr > 1.0)):
            raise ValueError("quantile levels must lie in [0, 1]")
        return _scalar_or_array(self._ppf(arr), scalar)

    def sample(self, size, rng: np.random.Generator) -> np.ndarray:
        """Inverse-CDF sampling, so identical uniforms give identical draws."""
        u = rng.random(size)
        return np.asarray(self.ppf(u))

    def hazard(self, x):
        """Failure rate f(x) / (1 - F(x))."""
        arr, scalar = _as_float_array(x)
        if self._hazard is not None:
            lo, hi = self.support
            inside = (arr >= lo) & (arr <= hi)
            out = np.zeros_like(arr)
            out[inside] = self._hazard(arr[inside])
            return _scalar_or_array(out, scalar)
        surv = np.asarray(self.sf(arr), dtype=float)
        if np.any(surv < 1e-300):
            raise SurvivalUnderflow("1-F(x) below 1e-300; hazard rate undefined here")
        out = np.asarray(self.pdf(arr), dtype=float) / surv
        return _scalar_or_array(out, scalar)

    def likelihood_ratio(self, x):
        """Likelihood ratio -f'(x)/f(x); right derivative at density kinks."""
        arr, scalar = _as_float_array(x)
        dens = np.asarray(self.pdf(arr), dtype=float)
        if np.any(dens <= 0.0):
            raise ZeroDensity("likelihood ratio undefined where f(x) = 0")
        return _scalar_or_array(self._lr(arr), scalar)

    # -- support helpers ---------------------------------------------------

    def truncated_support(self, tail_quantile: float = DEFAULT_TAIL_QUANTILE) -> tuple[float, float]:
        """Support with infinite endpoints cut at symmetric tail quantiles."""
        lo, hi = self.support
        if not np.isfinite(lo):
            lo = float(self.ppf(tail_quantile))
        if not np.isfinite(hi):
            hi = float(self.ppf(1.0 - tail_quantile))
        return lo, hi

    def grid(self) -> np.ndarray:
        """Uniform evaluation grid over the truncated support, knots included."""
        lo, hi = self.truncated_support()
        g = np.linspace(lo, hi, GRID_POINTS)
        interior = [k for k in self.knots if lo < k < hi]
        if interior:
            g = np.unique(np.concatenate([g, np.asarray(interior)]))
        return g

    # -- shape analytics ---------------------------------------------------

    def find_modes(self) -> ShapeReport:
        if self._shape is None:
            self._shape = self._build_shape_report()
        return self._shape

    def _build_shape_report(self) -> ShapeReport:
        x = self.grid()
        # Quantile points join the uniform grid: over a heavy tail's truncated
        # support (inverse-exponential: [0, 1e10]) the uniform step jumps
        # over the whole bulk of the mass.
        levels = np.linspace(0.0, 1.0, x.size)[1:-1]
        x = np.union1d(x, np.clip(np.asarray(self.ppf(levels)), x[0], x[-1]))
        f = np.asarray(self.pdf(x))
        idx = _grid_modes(x, f, DEFAULT_PLATEAU_TOL)
        modes = [
            (float(x[i]), float(f[i])) if i in (0, len(x) - 1) else self._refine_mode(x, f, i)
            for i in idx
        ]
        # The lower bound qualifies only for densities decreasing away from
        # it; keep it only while no interior mode tops it, so the global mode
        # stays the global maximizer (a below-global boundary bump is not a
        # candidate standard).
        if modes and np.isfinite(self.support[0]) and modes[0][0] == x[0]:
            interior_max = max((fm for m, fm in modes[1:]), default=-np.inf)
            if modes[0][1] < interior_max - DEFAULT_PLATEAU_TOL:
                modes = modes[1:]
        if not modes:
            # Fall back to the raw grid argmax (covers pathological inputs).
            i = int(np.argmax(f))
            modes = [(float(x[i]), float(f[i]))]
        if len(modes) > MODE_CAP:
            raise TooManyModes(f"{len(modes)} modes exceed the cap of {MODE_CAP}")

        modes.sort(key=lambda mf: -mf[0])
        locs = tuple(m for m, _ in modes)
        dens = tuple(fm for _, fm in modes)
        # one antimode per gap of [scan start, modes ascending, scan end]
        ends = [x[0], *locs[::-1], x[-1]]
        cuts = zip(np.searchsorted(x, ends[:-1]), np.searchsorted(x, ends[1:], side="right"))
        lows = {float(x[i + np.argmin(f[i:j])]) for i, j in cuts if i < j}
        antimodes = tuple(sorted(lows - set(locs), reverse=True))
        fmax = max(dens)
        global_mode = max(m for m, fm in modes if fm >= fmax - max(DEFAULT_PLATEAU_TOL, 1e-12 * fmax))
        return ShapeReport(
            modes=locs,
            mode_densities=dens,
            antimodes=antimodes,
            global_mode=float(global_mode),
        )

    def _refine_mode(self, x, f, i) -> tuple[float, float]:
        """Root of -f'/f between the grid neighbours of the mode ``x[i]``, where f
        itself is flat to double precision; knots and plateaus keep the grid point."""
        a, b = x[i - 1], x[i + 1]
        flat = abs(f[i + 1] - f[i]) + abs(f[i - 1] - f[i]) < 1e-13
        if flat or x[i] in self.knots or min(f[i - 1], f[i + 1]) <= 0.0 or not (
            self.likelihood_ratio(a) < 0.0 < self.likelihood_ratio(b)
        ):
            return float(x[i]), float(f[i])
        m = optimize.brentq(lambda s: float(self.likelihood_ratio(s)), a, b, xtol=1e-12 * (b - a))
        return float(m), float(self.pdf(m))

    def classify_hazard(self, above: float | None = None) -> str:
        """Classify the hazard rate as IFR/DFR/constant/mixed on {x > above}."""
        lo, hi = self.truncated_support()
        start = lo if above is None else max(lo, above)
        if start >= hi:
            return "constant"
        x = np.linspace(start, hi, 2048)
        if above is not None:
            x = x[x > above]
        surv = np.asarray(self.sf(x))
        keep = surv > 1e-12  # drop the top of finite supports where 1-F -> 0
        x = x[keep]
        if x.size < 3:
            return "constant"
        h = np.asarray(self.hazard(x))
        d = np.diff(h)
        rising = bool(np.any(d > HAZARD_MONOTONE_TOL))
        falling = bool(np.any(d < -HAZARD_MONOTONE_TOL))
        if rising and falling:
            return "mixed"
        if rising:
            return "IFR"
        if falling:
            return "DFR"
        return "constant"

    def log_concavity(self) -> str:
        """Classify log f as concave / convex / neither on the support.

        The classification is strict: a log-linear density (exponential)
        reports ``neither``.
        """
        lo, hi = self.truncated_support()
        x = np.linspace(lo, hi, 4096)
        f = np.asarray(self.pdf(x))
        pos = f > max(f.max(), 0.0) * 1e-13
        if not pos.any():
            return "neither"
        i0, i1 = np.nonzero(pos)[0][[0, -1]]
        if not pos[i0 : i1 + 1].all():
            return "neither"  # interior zeros rule out both shapes
        lf = np.log(f[i0 : i1 + 1])
        if lf.size < 5:
            return "neither"
        d2 = lf[:-2] - 2.0 * lf[1:-1] + lf[2:]
        concave = bool(np.all(d2 <= LOG_CURVATURE_TOL) and np.any(d2 < -LOG_CURVATURE_TOL))
        convex = bool(np.all(d2 >= -LOG_CURVATURE_TOL) and np.any(d2 > LOG_CURVATURE_TOL))
        if concave and not convex:
            return "log-concave"
        if convex and not concave:
            return "log-convex"
        return "neither"

    def __repr__(self):
        inner = ", ".join(f"{k}={v!r}" for k, v in self.params.items())
        return f"NoiseDistribution({self.family}({inner}) on {self.support})"


def _grid_modes(x: np.ndarray, f: np.ndarray, plateau_tol: float) -> list[int]:
    """Indices of distinct local maxima on a grid, ascending.

    A candidate is a weak local maximum with a strict rise on at least one
    side; the endpoints join when the density decreases away from them (the
    upper one additionally must carry the global maximum, so flat tails do
    not leak in).  Adjacent candidates merge when no grid point between them
    dips below both by more than ``plateau_tol``, encoding the
    separated-by-a-dip notion of distinct modes; merged groups keep the
    higher point, rightmost on ties.
    """
    n = len(f)
    mid, left, right = f[1:-1], f[:-2], f[2:]
    peak = (
        (mid >= left - plateau_tol)
        & (mid >= right - plateau_tol)
        & ((mid > left + plateau_tol) | (mid > right + plateau_tol))
    )
    cand = (np.flatnonzero(peak) + 1).tolist()
    if n >= 2 and f[0] >= f[1] - plateau_tol and f[0] > 0:
        cand.insert(0, 0)
    if n >= 2 and f[-1] >= f[-2] - plateau_tol and f[-1] >= f.max() - plateau_tol > 0:
        cand.append(n - 1)
    stack: list[int] = []
    for i in cand:
        while stack:
            prev = stack[-1]
            dip = f[prev : i + 1].min()
            if dip < min(f[prev], f[i]) - plateau_tol:
                break  # distinct
            if f[i] >= f[prev] - plateau_tol:
                stack.pop()
                continue
            i = None
            break
        if i is not None:
            stack.append(i)
    return stack


# ---------------------------------------------------------------------------
# order statistics
# ---------------------------------------------------------------------------


def order_statistic_cdf(dist: NoiseDistribution, j: int, n: int, x):
    """CDF of the (n+1-j)-th highest (j-th lowest) of n i.i.d. draws.

    Follows the convention that rank j=0 is a degenerate draw at -inf, so its
    CDF is identically one.
    """
    if not (0 <= j <= n):
        raise RankOutOfRange(f"rank {j} outside 0..{n}")
    arr, scalar = _as_float_array(x)
    return _scalar_or_array(_order_statistic_level_cdf(j, n, np.asarray(dist.cdf(arr))), scalar)


def _order_statistic_level_cdf(j: int, n: int, u: np.ndarray) -> np.ndarray:
    """``order_statistic_cdf`` at the levels u = F(x), an array."""
    if j == 0:
        return np.ones_like(u)
    if j == n:
        return u**n  # maximum of n draws, kept exact
    return special.betainc(j, n - j + 1, u)


# ---------------------------------------------------------------------------
# built-in families
# ---------------------------------------------------------------------------


def exponential(rate: float = 1.0) -> NoiseDistribution:
    """Exponential(rate) on [0, inf): constant hazard equal to ``rate``."""
    lam = float(rate)
    if lam <= 0:
        raise ValueError("rate must be positive")
    return NoiseDistribution(
        family="exponential",
        params={"rate": lam},
        support=(0.0, np.inf),
        pdf=lambda x: lam * np.exp(-lam * x),
        cdf=lambda x: -np.expm1(-lam * x),
        sf=lambda x: np.exp(-lam * x),
        ppf=lambda q: -np.log1p(-q) / lam,
        hazard=lambda x: np.full_like(x, lam),
        likelihood_ratio=lambda x: np.full_like(x, lam),
    )


def gumbel(loc: float = 0.0, scale: float = 1.0) -> NoiseDistribution:
    mu, beta = float(loc), float(scale)
    if beta <= 0:
        raise ValueError("scale must be positive")

    def z(x):
        return (x - mu) / beta

    return NoiseDistribution(
        family="gumbel",
        params={"loc": mu, "scale": beta},
        support=(-np.inf, np.inf),
        pdf=lambda x: np.exp(-z(x) - np.exp(-z(x))) / beta,
        cdf=lambda x: np.exp(-np.exp(-z(x))),
        sf=lambda x: -np.expm1(-np.exp(-z(x))),
        ppf=lambda q: mu - beta * np.log(-np.log(q)),
        likelihood_ratio=lambda x: (1.0 - np.exp(-z(x))) / beta,
    )


def normal(loc: float = 0.0, scale: float = 1.0) -> NoiseDistribution:
    mu, sigma = float(loc), float(scale)
    if sigma <= 0:
        raise ValueError("scale must be positive")
    return NoiseDistribution(
        family="normal",
        params={"loc": mu, "scale": sigma},
        support=(-np.inf, np.inf),
        pdf=lambda x: np.exp(-0.5 * ((x - mu) / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi)),
        cdf=lambda x: special.ndtr((x - mu) / sigma),
        sf=lambda x: special.ndtr(-(x - mu) / sigma),
        ppf=lambda q: mu + sigma * special.ndtri(q),
        likelihood_ratio=lambda x: (x - mu) / sigma**2,
    )


def logistic(loc: float = 0.0, scale: float = 1.0) -> NoiseDistribution:
    mu, s = float(loc), float(scale)
    if s <= 0:
        raise ValueError("scale must be positive")

    def z(x):
        return (x - mu) / s

    return NoiseDistribution(
        family="logistic",
        params={"loc": mu, "scale": s},
        support=(-np.inf, np.inf),
        pdf=lambda x: np.exp(-np.abs(z(x))) / (s * (1.0 + np.exp(-np.abs(z(x)))) ** 2),
        cdf=lambda x: special.expit(z(x)),
        sf=lambda x: special.expit(-z(x)),
        ppf=lambda q: mu + s * (np.log(q) - np.log1p(-q)),
        likelihood_ratio=lambda x: np.tanh(z(x) / 2.0) / s,
    )


def uniform(lo: float = 0.0, hi: float = 1.0) -> NoiseDistribution:
    a, b = float(lo), float(hi)
    if not a < b:
        raise ValueError("need lo < hi")
    w = b - a
    return NoiseDistribution(
        family="uniform",
        params={"lo": a, "hi": b},
        support=(a, b),
        pdf=lambda x: np.full_like(x, 1.0 / w),
        cdf=lambda x: (x - a) / w,
        sf=lambda x: (b - x) / w,
        ppf=lambda q: a + q * w,
        likelihood_ratio=lambda x: np.zeros_like(x),
        knots=(a, b),
        require_upper_zero=False,  # flat density by design
    )


def pareto(alpha: float = 2.0, x_min: float = 1.0) -> NoiseDistribution:
    """Pareto(alpha) on [x_min, inf): log-convex, decreasing hazard alpha/x."""
    a, m = float(alpha), float(x_min)
    if a <= 0 or m <= 0:
        raise ValueError("alpha and x_min must be positive")
    return NoiseDistribution(
        family="pareto",
        params={"alpha": a, "x_min": m},
        support=(m, np.inf),
        pdf=lambda x: a * m**a / x ** (a + 1),
        cdf=lambda x: 1.0 - (m / x) ** a,
        sf=lambda x: (m / x) ** a,
        ppf=lambda q: m * (1.0 - q) ** (-1.0 / a),
        hazard=lambda x: a / x,
        likelihood_ratio=lambda x: (a + 1.0) / x,
    )


def erf_exponential() -> NoiseDistribution:
    """Heavy-tailed distribution on [0, inf) with hazard 1 + exp(-x^2).

    The hazard decreases from 2 at the origin to 1 in the tail, so the
    density is decreasing (mode at 0) and the distribution is DFR without
    being log-convex.
    """

    def H(x):
        return x + (math.sqrt(math.pi) / 2.0) * special.erf(x)

    def haz(x):
        return 1.0 + np.exp(-np.square(x))

    def ppf(q):
        target = -np.log1p(-np.asarray(q, dtype=float))
        # Newton on H(x) = target: H' is the hazard, in [1, 2], and H is
        # within sqrt(pi)/2 of x, so four steps from this start reach
        # double precision
        x = np.maximum(target - math.sqrt(math.pi) / 2.0, 0.0)
        with np.errstate(invalid="ignore"):  # q = 1: inf - inf
            for _ in range(4):
                x = np.maximum(x - (H(x) - target) / haz(x), 0.0)
        return np.where(np.isinf(target), np.inf, x)

    def lr(x):
        b = np.exp(-np.square(x))
        return 1.0 + b + 2.0 * x * b / (1.0 + b)

    return NoiseDistribution(
        family="erf_exponential",
        params={},
        support=(0.0, np.inf),
        pdf=lambda x: haz(x) * np.exp(-H(x)),
        cdf=lambda x: -np.expm1(-H(x)),
        sf=lambda x: np.exp(-H(x)),
        ppf=ppf,
        hazard=haz,
        likelihood_ratio=lr,
    )


def inverse_exponential() -> NoiseDistribution:
    """Distribution with CDF exp(-1/x) on (0, inf) (Frechet with unit shape).

    Exponentiating a Gumbel draw lands here; used as an idea distribution in
    the innovation-contest adapter.
    """
    eps = 1e-300

    def pdf(x):
        xm = np.maximum(x, eps)
        return np.exp(-1.0 / xm - 2.0 * np.log(xm))

    return NoiseDistribution(
        family="inverse_exponential",
        params={},
        support=(0.0, np.inf),
        pdf=pdf,
        cdf=lambda x: np.exp(-1.0 / np.maximum(x, eps)),
        ppf=lambda q: -1.0 / np.log(np.maximum(q, eps)),
        likelihood_ratio=lambda x: (2.0 * x - 1.0) / np.square(x),
    )


def piecewise_linear(knots: Sequence[Sequence[float]]) -> NoiseDistribution:
    """Density interpolating linearly through ``[(x, f), ...]`` knot pairs.

    The input need not integrate to one; it is renormalized and the raw mass
    is recorded as ``normalization``.  Mode locations and all argmax-level
    results are invariant to that rescaling.
    """
    pts = sorted((float(x), float(f)) for x, f in knots)
    if len(pts) < 2:
        raise ValueError("need at least two knots")
    kx = np.array([p[0] for p in pts])
    kf_raw = np.array([p[1] for p in pts])
    if np.any(np.diff(kx) <= 0):
        raise ValueError("knot positions must be strictly increasing")
    if np.any(kf_raw < 0):
        raise ValueError("densities must be nonnegative")
    mass = float(np.trapezoid(kf_raw, kx))
    if mass <= 0:
        raise ValueError("density integrates to zero")
    kf = kf_raw / mass
    seg_mass = np.concatenate([[0.0], np.cumsum((kf[1:] + kf[:-1]) / 2.0 * np.diff(kx))])
    seg_mass[-1] = 1.0
    slopes = np.diff(kf) / np.diff(kx)

    def pdf(x):
        return np.interp(x, kx, kf)

    def cdf(x):
        i = np.clip(np.searchsorted(kx, x, side="right") - 1, 0, len(kx) - 2)
        s = x - kx[i]
        return seg_mass[i] + kf[i] * s + 0.5 * slopes[i] * s * s

    def ppf(q):
        q = np.asarray(q, dtype=float)
        i = np.clip(np.searchsorted(seg_mass, q, side="right") - 1, 0, len(kx) - 2)
        resid = q - seg_mass[i]
        a, b = kf[i], slopes[i]
        lin = resid / np.where(np.abs(a) > 1e-300, a, 1.0)
        disc = np.maximum(a * a + 2.0 * b * resid, 0.0)
        quad = (np.sqrt(disc) - a) / np.where(np.abs(b) > 1e-300, b, 1.0)
        s = np.where(np.abs(b) < 1e-12 * np.maximum(np.abs(a), 1.0), lin, quad)
        return kx[i] + np.clip(s, 0.0, np.diff(kx)[i])

    def lr(x):
        # right derivative at kinks; the final knot keeps its left segment
        i = np.clip(np.searchsorted(kx, x, side="right") - 1, 0, len(kx) - 2)
        return -slopes[i] / pdf(x)

    return NoiseDistribution(
        family="piecewise_linear",
        params={"knots": [[float(a), float(b)] for a, b in zip(kx, kf_raw)]},
        support=(float(kx[0]), float(kx[-1])),
        pdf=pdf,
        cdf=cdf,
        ppf=ppf,
        likelihood_ratio=lr,
        knots=kx,
        normalization=mass,
    )


# Built-in trimodal showcase densities on [0, 1.75] (16 * f at the knots).
# "red" has a pronounced second interior bump, so the top-prize incentive
# peaks at the right mode 1.0 while flatter schedules peak at the global
# mode 0.5; "green" shrinks that bump enough that every schedule points at
# 0.5; "blue" sits in between.
_TRIMODAL_KNOTS = {
    "red": ((0, 20), (0.25, 16), (0.5, 21), (0.75, 16), (1.0, 19), (1.25, 16), (1.75, 0)),
    "green": ((0, 20), (0.25, 16), (0.5, 21), (0.75, 12), (1.0, 14), (1.25, 8), (1.75, 0)),
    "blue": ((0, 18), (0.25, 14), (0.5, 23), (0.75, 13), (1.0, 17), (1.25, 10), (1.75, 0)),
}


def trimodal_example(variant: str = "red") -> NoiseDistribution:
    """One of the three built-in trimodal piecewise-linear demo densities."""
    try:
        kn = _TRIMODAL_KNOTS[variant]
    except KeyError:
        raise ValueError(f"unknown variant {variant!r}; choose from {sorted(_TRIMODAL_KNOTS)}")
    d = piecewise_linear([(x, f / 16.0) for x, f in kn])
    d.params["variant"] = variant
    return d


_FAMILIES = {
    "exponential": exponential,
    "gumbel": gumbel,
    "normal": normal,
    "logistic": logistic,
    "uniform": uniform,
    "pareto": pareto,
    "erf_exponential": erf_exponential,
    "inverse_exponential": inverse_exponential,
    "trimodal_example": trimodal_example,
}


def from_spec(spec: dict | str) -> NoiseDistribution:
    """Build a distribution from a JSON document / dict.

    Accepted forms::

        {"family": "exponential", "params": {"rate": 1.0}}
        {"family": "piecewise_linear", "knots": [[x, f], ...]}
    """
    if isinstance(spec, str):
        spec = json.loads(spec)
    if not isinstance(spec, dict) or "family" not in spec:
        raise ValueError("distribution spec must be an object with a 'family' key")
    family = spec["family"]
    extra = set(spec) - {"family", "params", "knots"}
    if extra:
        raise ValueError(f"unknown keys in distribution spec: {sorted(extra)}")
    if family == "piecewise_linear":
        if "knots" not in spec:
            raise ValueError("piecewise_linear spec needs a 'knots' list")
        return piecewise_linear(spec["knots"])
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}; choose from {sorted(_FAMILIES)}")
    return _FAMILIES[family](**spec.get("params", {}))
