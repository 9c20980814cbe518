"""Noise distributions and their shape.

Performance in the tournament model is effort plus an i.i.d. additive shock.
Everything the design layer needs to know about the shock is collected here:
density / CDF / survival evaluation, hazard rate ``f/(1-F)``, likelihood
ratio ``-f'/f``, and the shape facts the paper's results rest on: the modes,
the IFR/DFR class of the hazard and the log-concavity class.

Every family declares its shape in closed form when it is built, and a
piecewise-linear density works its shape out exactly from its knots; nothing
is read off a grid.  Distributions do not change after construction.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy import special

__all__ = [
    "NoiseDistribution",
    "ShapeReport",
    "SurvivalUnderflow",
    "ZeroDensity",
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
]

# Quantile at which infinite supports are cut off by ``truncated_support``.
DEFAULT_TAIL_QUANTILE = 1e-10

# Uniforms that ``NoiseDistribution.sample`` maps through ``ppf`` at a time.
SLAB = 1 << 14


class SurvivalUnderflow(ValueError):
    """Hazard rate requested where 1-F(x) underflows."""


class ZeroDensity(ValueError):
    """Likelihood ratio requested at a point with zero density."""


@dataclass(frozen=True)
class ShapeReport:
    """Shape of a noise density, declared by its family.

    ``modes`` are the distinct local maximizers, largest first.  A flat top
    is reported by its left end, and the lower support bound counts only
    while it carries the global maximum.  ``antimodes``, largest first, are
    the interior local minimizers (a flat bottom by its left end) and the
    upper support bound when the density falls into it; the density is
    monotone between neighbouring modes and antimodes.  ``global_mode`` is
    the largest mode that carries the global maximum, and
    ``global_mode_density`` is that maximum.

    ``log_class`` is ``log-concave``, ``log-convex`` or ``neither``; the
    classes are strict, so a log-linear density (exponential, uniform) is
    ``neither``.  ``hazard`` lists the monotone pieces of the hazard rate as
    ``(start, class)`` pairs, ascending, with class ``IFR``, ``DFR`` or
    ``constant``.  A piece runs to the next start, the last one to the upper
    support bound; where 1 - F = 0 no piece starts.

    ``steepest_descent`` is sup(-f') on the smooth pieces of the density, 0
    where it never falls.  ``top_drop`` is f just below a finite upper
    support bound, where it drops to 0: 1/w for uniform noise of width w, 0
    where f vanishes there or the bound is infinite.  No family drops
    anywhere else, and an upward jump of f only helps.  ``solve_design``
    bounds the curvature of the deviation payoff with both, and the
    cardinal pay-scheme bound needs ``top_drop`` 0.
    """

    modes: tuple[float, ...]
    antimodes: tuple[float, ...]
    global_mode: float
    global_mode_density: float
    log_class: str
    hazard: tuple[tuple[float, str], ...]
    steepest_descent: float
    top_drop: float


def _unimodal(
    mode: float, density: float, log_class: str, steepest_descent: float, *hazard: tuple[float, str], top_drop=0.0
) -> ShapeReport:
    """Shape of a family with one mode and no antimode."""
    return ShapeReport((mode,), (), mode, density, log_class, hazard, steepest_descent, top_drop)


def _on_interval(form: Callable, x, lo: float, hi: float, below: float, above: float):
    """``form`` on [lo, hi], ``below`` and ``above`` beyond its ends and NaN
    at NaN; a float for a scalar ``x``.  ``form`` sees only points of
    [lo, hi], all of them in one call when none lies elsewhere."""
    arr = np.asarray(x, dtype=float)
    flat = np.atleast_1d(arr)
    inside = (flat >= lo) & (flat <= hi)
    if inside.all():
        out = form(flat)
    else:
        out = np.where(flat < lo, below, np.where(flat > hi, above, np.nan))
        if inside.any():
            out[inside] = form(flat[inside])
    return float(out[0]) if arr.ndim == 0 else out


class NoiseDistribution:
    """Additive noise distribution with shape metadata.

    Instances are built by the factory functions in this module
    (``exponential``, ``gumbel``, ``piecewise_linear``, ...) or from a JSON
    spec via :func:`from_spec`.  User-supplied piecewise densities are
    renormalized to unit mass; the applied factor is kept in
    ``normalization``.

    ``pdf``, ``cdf``, ``sf``, ``ppf``, ``likelihood_ratio`` and ``shape``
    are required; every family has them in closed form, ``sf`` without the
    cancellation of 1 - F, and ``shape`` is the :class:`ShapeReport` that
    ``find_modes`` returns.  The closed forms are evaluated on the support
    only: beyond it the density is 0 and F is 0 or 1, and every method gives
    NaN at NaN and a float for a scalar.  The hazard rate is always
    f / (1 - F), formed from ``pdf`` and ``sf``.
    """

    def __init__(
        self,
        family: str,
        params: dict,
        support: tuple[float, float],
        pdf: Callable[[np.ndarray], np.ndarray],
        cdf: Callable[[np.ndarray], np.ndarray],
        sf: Callable[[np.ndarray], np.ndarray],
        ppf: Callable[[np.ndarray], np.ndarray],
        likelihood_ratio: Callable[[np.ndarray], np.ndarray],
        shape: ShapeReport,
        knots: Sequence[float] | None = None,
        normalization: float = 1.0,
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
        self._cdf = lambda x: np.clip(cdf(x), 0.0, 1.0)
        self._sf = lambda x: np.clip(sf(x), 0.0, 1.0)
        self._ppf = ppf
        self._lr = likelihood_ratio
        self._shape = shape

    # -- basic evaluation --------------------------------------------------

    def pdf(self, x):
        """Normalized density; zero outside the support."""
        return _on_interval(self._pdf, x, *self.support, 0.0, 0.0)

    def cdf(self, x):
        return _on_interval(self._cdf, x, *self.support, 0.0, 1.0)

    def sf(self, x):
        """Survival function 1-F, from the family's closed form."""
        return _on_interval(self._sf, x, *self.support, 1.0, 0.0)

    def ppf(self, q):
        """Quantile function on [0, 1]; 0 and 1 map to the support's ends
        exactly, and the closed form sees only the levels between them."""
        levels = np.asarray(q, dtype=float)
        if ((levels < 0.0) | (levels > 1.0)).any():
            raise ValueError("quantile levels must lie in [0, 1]")
        return _on_interval(self._ppf, levels, math.ulp(0.0), math.nextafter(1.0, 0.0), *self.support)

    def sample(self, size, rng: np.random.Generator) -> np.ndarray:
        """Inverse-CDF sampling, so identical uniforms give identical draws.

        The uniforms come from one ``rng.random(size)`` call, which takes
        the stream's words in order, and ``_ppf_in_place`` maps them.
        """
        return self._ppf_in_place(rng.random(size))

    def _ppf_in_place(self, u: np.ndarray) -> np.ndarray:
        """Map the levels ``u``, drawn in [0, 1) as ``Generator.random``
        draws them, to noise, in place where ``u`` is C-contiguous (else in
        a copy), and return the noise, equal to ``ppf(u)``.  The closed form
        ``_ppf`` maps slabs of ``SLAB`` levels (128 KiB, in cache) and each
        slab is written back, so the temporaries are one slab's.
        """
        flat = u.reshape(-1)
        for start in range(0, flat.size, SLAB):
            flat[start:start + SLAB] = self._ppf(flat[start:start + SLAB])
        return flat.reshape(u.shape)

    def hazard(self, x):
        """Failure rate f(x) / (1 - F(x)); ``SurvivalUnderflow`` where 1 - F
        is below 1e-300."""
        surv = self.sf(x)
        if np.any(surv < 1e-300):
            raise SurvivalUnderflow("1-F(x) below 1e-300; hazard rate undefined here")
        return self.pdf(x) / surv

    def likelihood_ratio(self, x):
        """Likelihood ratio -f'(x)/f(x); right derivative at density kinks."""
        if np.any(self.pdf(x) <= 0.0):
            raise ZeroDensity("likelihood ratio undefined where f(x) = 0")
        return _on_interval(self._lr, x, *self.support, np.nan, np.nan)

    # -- support helpers ---------------------------------------------------

    def truncated_support(self, tail_quantile: float = DEFAULT_TAIL_QUANTILE) -> tuple[float, float]:
        """Support with infinite endpoints cut at symmetric tail quantiles."""
        lo, hi = self.support
        if not np.isfinite(lo):
            lo = float(self.ppf(tail_quantile))
        if not np.isfinite(hi):
            hi = float(self.ppf(1.0 - tail_quantile))
        return lo, hi

    # -- shape -------------------------------------------------------------

    def find_modes(self) -> ShapeReport:
        """The shape declared at construction."""
        return self._shape

    def __repr__(self):
        inner = ", ".join(f"{k}={v!r}" for k, v in self.params.items())
        return f"NoiseDistribution({self.family}({inner}) on {self.support})"


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
        likelihood_ratio=lambda x: np.full_like(x, lam),
        shape=_unimodal(0.0, lam, "neither", lam * lam, (0.0, "constant")),
    )


def gumbel(loc: float = 0.0, scale: float = 1.0) -> NoiseDistribution:
    mu, beta = float(loc), float(scale)
    if beta <= 0:
        raise ValueError("scale must be positive")

    def log_w(x):  # -z, capped where w = exp(-z) would overflow, so that f(-inf) reads 0, not inf - inf
        return np.minimum((mu - x) / beta, 709.0)

    # with w = exp(-z), -f' = w (1 - w) exp(-w) / beta^2, largest where
    # w^2 - 3w + 1 = 0 on (0, 1)
    w = (3.0 - math.sqrt(5.0)) / 2.0
    descent = w * (1.0 - w) * math.exp(-w)
    return NoiseDistribution(
        family="gumbel",
        params={"loc": mu, "scale": beta},
        support=(-np.inf, np.inf),
        pdf=lambda x: np.exp(log_w(x) - np.exp(log_w(x))) / beta,
        cdf=lambda x: np.exp(-np.exp(log_w(x))),
        sf=lambda x: -np.expm1(-np.exp(log_w(x))),
        ppf=lambda q: mu - beta * np.log(-np.log(q)),
        likelihood_ratio=lambda x: (1.0 - np.exp(log_w(x))) / beta,
        shape=_unimodal(mu, math.exp(-1.0) / beta, "log-concave", descent / beta**2, (-np.inf, "IFR")),
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
        shape=_unimodal(
            mu,
            1.0 / (sigma * math.sqrt(2 * math.pi)),
            "log-concave",
            1.0 / (sigma**2 * math.sqrt(2 * math.pi * math.e)),  # -f' peaks at mu + sigma
            (-np.inf, "IFR"),
        ),
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
        shape=_unimodal(mu, 0.25 / s, "log-concave", 1.0 / (6.0 * math.sqrt(3.0) * s * s), (-np.inf, "IFR")),
    )


def uniform(lo: float = 0.0, hi: float = 1.0) -> NoiseDistribution:
    """Uniform on [lo, hi]: its flat top is reported by the mode ``lo``."""
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
        shape=_unimodal(a, 1.0 / w, "neither", 0.0, (a, "IFR"), top_drop=1.0 / w),
        knots=(a, b),
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
        likelihood_ratio=lambda x: (a + 1.0) / x,
        shape=_unimodal(m, a / m, "log-convex", a * (a + 1.0) / (m * m), (m, "DFR")),
    )


def erf_exponential() -> NoiseDistribution:
    """Heavy-tailed distribution on [0, inf) with hazard 1 + exp(-x^2).

    The hazard decreases from 2 at the origin to 1 in the tail, so the
    density is decreasing (mode at 0) and the distribution is DFR without
    being log-convex.  -f' = (h^2 + 2x exp(-x^2)) exp(-H), with h the
    hazard, falls from 4 at the origin.
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
        likelihood_ratio=lr,
        shape=_unimodal(0.0, 2.0, "neither", 4.0, (0.0, "DFR")),
    )


def inverse_exponential() -> NoiseDistribution:
    """Distribution with CDF exp(-1/x) on (0, inf) (Frechet with unit shape).

    Exponentiating a Gumbel draw lands here; used as an idea distribution in
    the innovation-contest adapter.  (log f)'' = 2(x - 1)/x^3 changes sign
    at 1; with u = 1/x the hazard's slope has the sign of u - 2 + 2 exp(-u),
    which is zero at u = 2 + W0(-2/e^2).
    """
    eps = 1e-300

    def pdf(x):
        xm = np.maximum(x, eps)
        return np.exp(-1.0 / xm - 2.0 * np.log(xm))

    peak = 1.0 / (2.0 + float(special.lambertw(-2.0 * math.exp(-2.0)).real))
    # with u = 1/x, -f' = u^3 (2 - u) exp(-u), largest where u^2 - 6u + 6 = 0
    # on (0, 2)
    u = 3.0 - math.sqrt(3.0)
    descent = u**3 * (2.0 - u) * math.exp(-u)
    return NoiseDistribution(
        family="inverse_exponential",
        params={},
        support=(0.0, np.inf),
        pdf=pdf,
        cdf=lambda x: np.exp(-1.0 / np.maximum(x, eps)),
        sf=lambda x: -np.expm1(-1.0 / np.maximum(x, eps)),
        ppf=lambda q: 1.0 / np.abs(np.log(q)),
        likelihood_ratio=lambda x: (2.0 * x - 1.0) / np.square(x),
        shape=_unimodal(0.5, 4.0 * math.exp(-2.0), "neither", descent, (0.0, "IFR"), (peak, "DFR")),
    )


def _knot_shape(kx: np.ndarray, raw: np.ndarray, kf: np.ndarray) -> ShapeReport:
    """Exact shape of the density through the knots (kx, raw), normalized to
    (kx, kf).  Every shape fact but the steepest descent (the largest fall of
    the normalized segments) and the top drop (the normalized last knot) is
    invariant to the scale, so it is read off the values as given, where
    ties such as collinear knots are exact."""
    slopes = np.diff(raw) / np.diff(kx)
    # Each sloped segment hands over at its top knot, the left end of any
    # plateau that follows, to the next sloped segment (0: the end).
    sloped = np.flatnonzero(slopes)
    sign = np.sign(slopes[sloped])
    after = np.append(sign[1:], 0.0)
    peaks = sloped[(sign > 0) & (after <= 0)] + 1
    if (sign.size == 0 or sign[0] < 0) and raw[0] == raw.max():
        peaks = np.insert(peaks, 0, 0)  # the lower bound, while it carries the maximum
    dips = sloped[(sign < 0) & (after >= 0)] + 1

    # log-concave iff -f'/f never falls: past the zero ends, the slope never
    # rises at a knot and no knot has f = 0
    pos = np.flatnonzero(raw > 0)
    i0, i1 = max(pos[0] - 1, 0), min(pos[-1] + 1, slopes.size)
    s = slopes[i0:i1]
    concave = np.all(raw[i0 + 1 : i1] > 0) and np.all(np.diff(s) <= 0) and np.any(s != 0)

    # The hazard's slope has the sign of q = f' S + f^2.  At distance t below
    # a segment's top knot f = f1 - b t and S = R + f1 t - b t^2 / 2, with R
    # the mass above the segment, so q = f1^2 + b R - b f1 t + b^2 t^2 / 2:
    # q < 0 only on a falling segment with -b R > f1^2, and only near its top.
    seg = (raw[1:] + raw[:-1]) / 2.0 * np.diff(kx)
    mass_above = np.append(np.cumsum(seg[::-1])[::-1], 0.0)
    pieces = []
    for k in np.flatnonzero(mass_above[:-1] > 0):  # no class where 1 - F = 0
        b, f1, r = slopes[k], raw[k + 1], mass_above[k + 1]
        # -b R carries a relative rounding error below (m + 8) eps from the
        # slope, the sums of masses and the product; within it, it ties f1^2
        excess = -b * r - f1 * f1
        if excess > (slopes.size + 8) * np.finfo(float).eps * -b * r:
            # t_root = (sqrt(f1^2 + 2 excess) - f1) / -b, without the cancellation
            root = max(kx[k + 1] - 2.0 * excess / (-b * (math.sqrt(f1 * f1 + 2.0 * excess) + f1)), kx[k])
            if root > kx[k]:
                pieces.append((kx[k], "IFR"))
            if root < kx[k + 1]:  # a root that rounds to the top knot opens no piece
                pieces.append((root, "DFR"))
        else:
            pieces.append((kx[k], "constant" if b == 0.0 and f1 == 0.0 else "IFR"))
    hazard = [(float(x), tag) for i, (x, tag) in enumerate(pieces) if i == 0 or tag != pieces[i - 1][1]]

    top = peaks[raw[peaks] == raw.max()][-1]
    return ShapeReport(
        modes=tuple(kx[peaks[::-1]].tolist()),
        antimodes=tuple(kx[dips[::-1]].tolist()),
        global_mode=float(kx[top]),
        global_mode_density=float(kf[top]),
        log_class="log-concave" if concave else "neither",
        hazard=tuple(hazard),
        steepest_descent=max(float(-np.min(np.diff(kf) / np.diff(kx))), 0.0),
        top_drop=float(kf[-1]),
    )


def piecewise_linear(knots: Sequence[Sequence[float]]) -> NoiseDistribution:
    """Density interpolating linearly through ``[(x, f), ...]`` knot pairs.

    The input need not integrate to one; it is renormalized and the raw mass
    is recorded as ``normalization``.  Mode locations and all argmax-level
    results are invariant to that rescaling.  The shape follows exactly from
    the knots (``_knot_shape``).  A density that does not vanish at the last
    knot draws a warning: the heavy-tail (DFR) results may not apply.
    """
    return _piecewise_linear(knots)


def _piecewise_linear(knots: Sequence[Sequence[float]], **labels) -> NoiseDistribution:
    """``piecewise_linear`` with ``labels`` appended to its ``params``.  A
    knot with a NaN, infinite or boolean entry raises ``ValueError`` naming the first."""
    pts = []
    for x, f in knots:
        if isinstance(x, bool) or isinstance(f, bool):  # JSON's true and false
            raise ValueError(f"'knots' entry {json.dumps([x, f], default=repr)} is not a pair of numbers")
        pts.append((float(x), float(f)))
    for x, f in pts:
        if not (math.isfinite(x) and math.isfinite(f)):
            raise ValueError(f"knot [{x!r}, {f!r}] is not a pair of finite numbers")
    pts.sort()
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
    if kf[-1] > 1e-8 * kf.max():
        warnings.warn(
            f"density does not vanish at the upper support bound "
            f"(f({kx[-1]:g}) = {kf[-1]:.3g}); heavy-tail (DFR) results may "
            f"not apply",
            stacklevel=3,  # the caller of piecewise_linear or trimodal_example
        )
    seg = (kf[1:] + kf[:-1]) / 2.0 * np.diff(kx)
    seg_mass = np.concatenate([[0.0], np.cumsum(seg)])
    seg_mass[-1] = 1.0
    # mass above each knot, summed from the top down
    mass_above = np.append(np.cumsum(seg[::-1])[::-1], 0.0)
    widths = np.diff(kx)
    slopes = np.diff(kf) / widths
    # the segment of each point of the support, or of each level in [0, 1]:
    # the count of the inner knots, or of their masses, at or below it
    inner, inner_mass = kx[1:-1], seg_mass[1:-1]

    def pdf(x):
        return np.interp(x, kx, kf)

    def cdf(x):
        i = np.searchsorted(inner, x, side="right")
        s = x - kx[i]
        return seg_mass[i] + kf[i] * s + 0.5 * slopes[i] * s * s

    def sf(x):
        # the mass of [x, next knot] in the segment's own terms: with f >= 0
        # there, f(next) - slope * s / 2 >= f(next) / 2, so nothing cancels
        i = np.searchsorted(inner, x, side="right")
        s = kx[i + 1] - x
        return mass_above[i + 1] + s * (kf[i + 1] - 0.5 * slopes[i] * s)

    def ppf(q):
        # the root s >= 0 of resid = f s + slope s^2 / 2 in the form without
        # cancellation, which is resid / f on a flat segment; s = 0 where the
        # denominator vanishes, as it can only where f = 0
        i = np.searchsorted(inner_mass, q, side="right")
        resid = q - seg_mass[i]
        a = kf[i]
        root = a + np.sqrt(np.maximum(a * a + 2.0 * slopes[i] * resid, 0.0))
        s = np.divide(2.0 * resid, root, out=np.zeros_like(resid), where=root > 0.0)
        return kx[i] + np.minimum(s, widths[i])

    def lr(x):
        # right derivative at kinks; the final knot keeps its left segment
        i = np.searchsorted(inner, x, side="right")
        return -slopes[i] / pdf(x)

    return NoiseDistribution(
        family="piecewise_linear",
        params={"knots": [[float(a), float(b)] for a, b in zip(kx, kf_raw)], **labels},
        support=(float(kx[0]), float(kx[-1])),
        pdf=pdf,
        cdf=cdf,
        sf=sf,
        ppf=ppf,
        likelihood_ratio=lr,
        shape=_knot_shape(kx, kf_raw, kf),
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
    return _piecewise_linear([(x, f / 16.0) for x, f in kn], variant=variant)


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

    A parameter that is NaN, infinite, ``true`` or ``false`` raises
    ``ValueError`` naming the family and the key, and a knot entry that is
    ``true`` or ``false`` one naming 'knots'.
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
    params = spec.get("params", {})
    for key, value in params.items() if isinstance(params, dict) else ():
        if isinstance(value, bool):
            raise ValueError(f"{family} parameter {key!r} must be a number, got {json.dumps(value)}")
    dist = _FAMILIES[family](**params)
    for key, value in dist.params.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{family} parameter {key!r} must be finite, got {value}")
    return dist
