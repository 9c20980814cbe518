import subprocess
import sys
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from mp_reference import family_mp, piecewise_mp
from rank_reference import RankOutOfRange, order_statistic_cdf
from tourney import audit
from tourney import distributions as dists
from tourney import equilibrium as eq

ALL_FAMILIES = [
    dists.exponential(1.0),
    dists.exponential(0.5),
    dists.gumbel(),
    dists.normal(),
    dists.logistic(),
    dists.uniform(0.0, 1.0),
    dists.pareto(2.0),
    dists.erf_exponential(),
    dists.trimodal_example("red"),
    dists.trimodal_example("green"),
    dists.trimodal_example("blue"),
]


@pytest.mark.parametrize("d", ALL_FAMILIES, ids=lambda d: d.family + str(d.params.get("variant", "")))
def test_pdf_integrates_to_one(d):
    lo, hi = d.truncated_support()
    pts = [k for k in d.knots if lo < k < hi]
    total, _ = quad(lambda x: float(d.pdf(x)), lo, hi, points=pts or None, limit=200)
    assert abs(total - 1.0) < 1e-6


@pytest.mark.parametrize("d", ALL_FAMILIES, ids=lambda d: d.family + str(d.params.get("variant", "")))
def test_cdf_endpoints_and_monotonicity(d):
    lo, hi = d.truncated_support()
    assert d.cdf(lo) < 1e-8 or np.isfinite(d.support[0]) and d.cdf(d.support[0]) == 0.0
    assert abs(d.cdf(hi) - 1.0) < 1e-8
    x = np.linspace(lo, hi, 999)
    c = np.asarray(d.cdf(x))
    assert np.all(np.diff(c) >= -1e-13)
    assert np.allclose(c + np.asarray(d.sf(x)), 1.0, atol=1e-12)


@pytest.mark.parametrize("d", ALL_FAMILIES, ids=lambda d: d.family + str(d.params.get("variant", "")))
def test_pdf_matches_cdf_derivative(d):
    lo, hi = d.truncated_support()
    h = 1e-6 * (hi - lo)
    rng = np.random.default_rng(1)
    x = rng.uniform(lo + 10 * h, hi - 10 * h, 40)
    # keep clear of density kinks where the derivative is one-sided
    for k in d.knots:
        x = x[np.abs(x - k) > 10 * h]
    fd = (np.asarray(d.cdf(x + h)) - np.asarray(d.cdf(x - h))) / (2 * h)
    assert np.allclose(fd, np.asarray(d.pdf(x)), atol=1e-5)


# each evaluation with its fixed values below and above the support
SUPPORT_RULE = (("pdf", 0.0, 0.0), ("cdf", 0.0, 1.0), ("sf", 1.0, 0.0))


@pytest.mark.parametrize("d", ALL_FAMILIES, ids=lambda d: d.family + str(d.params.get("variant", "")))
def test_nan_evaluates_to_nan(d):
    mid = float(d.ppf(0.5))
    for name, _, _ in SUPPORT_RULE:
        method = getattr(d, name)
        value = method(np.nan)
        assert type(value) is float and np.isnan(value), name
        out = method(np.array([np.nan, mid, np.nan]))
        assert np.isnan(out[[0, 2]]).all() and out[1] == method(mid), name


@pytest.mark.parametrize("d", ALL_FAMILIES, ids=lambda d: d.family + str(d.params.get("variant", "")))
def test_fixed_values_beyond_the_support(d):
    lo, hi = d.support
    for name, below, above in SUPPORT_RULE:
        method = getattr(d, name)
        for end, beyond, want in ((lo, -1.0, below), (hi, 1.0, above)):
            if np.isfinite(end):
                x = end + beyond * np.array([1e-9, 1.0, 1e6])
                assert method(float(x[1])) == want, (name, end)
                assert np.all(method(x) == want), (name, end)


@pytest.mark.parametrize("d", ALL_FAMILIES + [dists.inverse_exponential()],
                         ids=lambda d: d.family + str(d.params.get("variant", "")))
def test_density_at_an_infinite_end_is_zero(d):
    # Gumbel's closed form reads inf - inf at -inf
    ends = [end for end in d.support if np.isinf(end)]
    assert all(d.pdf(end) == 0.0 for end in ends)
    assert np.all(d.pdf(np.array(ends + ends)) == 0.0)


@pytest.mark.parametrize("d", ALL_FAMILIES, ids=lambda d: d.family + str(d.params.get("variant", "")))
def test_array_equals_scalar_calls(d):
    lo, hi = d.truncated_support()
    beyond = [end + step for end, step in zip(d.support, (-0.5, 0.5)) if np.isfinite(end)]
    x = np.concatenate([np.linspace(lo, hi, 101), beyond, [np.nan]])
    for name, _, _ in SUPPORT_RULE:
        method = getattr(d, name)
        scalars = np.array([method(v) for v in x.tolist()])
        assert method(x).tobytes() == scalars.tobytes(), name
        inside = x[1:100]  # on the support only: the closed form sees the whole array at once
        assert method(inside).tobytes() == np.array([method(v) for v in inside.tolist()]).tobytes(), name


def test_outside_support_is_zero():
    red = dists.trimodal_example("red")
    assert red.pdf(-0.5) == 0.0
    assert red.pdf(2.0) == 0.0
    assert red.cdf(-0.5) == 0.0 and red.cdf(2.0) == 1.0


def test_red_density_values():
    red = dists.trimodal_example("red")
    # raw piecewise values before renormalization
    assert red.normalization == pytest.approx(1.65625, abs=1e-12)
    assert red.pdf(0.5) * red.normalization == pytest.approx(1.3125, abs=1e-12)
    assert red.pdf(0.5) == pytest.approx(1.3125 / 1.65625, abs=1e-12)
    assert red.cdf(1.0) == pytest.approx(0.6839622641509434, abs=1e-12)


def test_hazards():
    e = dists.exponential(1.0)
    assert e.hazard(0.0) == pytest.approx(1.0, abs=1e-12)
    assert e.hazard(5.0) == pytest.approx(1.0, abs=1e-12)
    fe = dists.erf_exponential()
    assert fe.hazard(0.0) == pytest.approx(2.0, abs=1e-12)
    assert fe.hazard(30.0) == pytest.approx(1.0, abs=1e-12)
    red = dists.trimodal_example("red")
    with pytest.raises(dists.SurvivalUnderflow):
        red.hazard(1.75)


def test_likelihood_ratios():
    lam = 0.7
    e = dists.exponential(lam)
    assert e.likelihood_ratio(2.0) == pytest.approx(lam, abs=1e-12)
    g = dists.gumbel()
    assert g.likelihood_ratio(0.0) == pytest.approx(0.0, abs=1e-12)
    red = dists.trimodal_example("red")
    # first linear segment: slope -16/16 and f = 18.4/16; scale cancels
    assert red.likelihood_ratio(0.1) == pytest.approx(16.0 / 18.4, rel=1e-9)
    with pytest.raises(dists.ZeroDensity):
        red.likelihood_ratio(1.75)


def test_inverse_exponential_likelihood_ratio():
    # -f'/f = (2x - 1)/x^2
    d = dists.inverse_exponential()
    x = np.array([0.3, 0.5, 1.0, 2.0, 10.0])
    exact = (2.0 * x - 1.0) / x**2
    assert np.allclose(d.likelihood_ratio(x), exact, rtol=1e-14, atol=1e-15)


def test_right_derivative_at_kinks():
    red = dists.trimodal_example("red")
    # at the kink 0.25 the raw slope switches from -16/16 to +20/16 while the
    # raw density is 16/16; the normalization cancels in the ratio
    assert red.likelihood_ratio(0.25) == pytest.approx(-20.0 / 16.0, rel=1e-9)


def test_find_modes_red():
    shape = dists.trimodal_example("red").find_modes()
    assert shape.modes == (1.0, 0.5)
    assert shape.global_mode == 0.5
    # the boundary bump at 0 sits below the global max and is not listed
    assert 0.0 not in shape.modes
    assert shape.antimodes == (1.75, 0.75, 0.25)


def test_find_modes_families():
    assert dists.gumbel().find_modes().global_mode == 0.0
    assert dists.gumbel(0.3, 1.1).find_modes().global_mode == 0.3
    assert dists.normal(-1.5, 1.1).find_modes().global_mode == -1.5
    assert dists.logistic(0.7, 0.9).find_modes().global_mode == 0.7
    assert dists.erf_exponential().find_modes().modes == (0.0,)
    assert dists.exponential(2.0).find_modes().modes == (0.0,)
    assert dists.pareto(2.0).find_modes().global_mode == 1.0
    assert dists.uniform(0, 1).find_modes().global_mode == 0.0  # a flat top by its left end


def _grid_modes_loop(f, plateau_tol):
    """The candidate scan of ``_grid_modes`` as a loop over the grid, followed
    by its merge."""
    n = len(f)
    cand = [
        i
        for i in range(1, n - 1)
        if f[i] >= f[i - 1] - plateau_tol
        and f[i] >= f[i + 1] - plateau_tol
        and (f[i] > f[i - 1] + plateau_tol or f[i] > f[i + 1] + plateau_tol)
    ]
    if n >= 2 and f[0] >= f[1] - plateau_tol and f[0] > 0:
        cand.insert(0, 0)
    if n >= 2 and f[-1] >= f[-2] - plateau_tol and f[-1] >= f.max() - plateau_tol > 0:
        cand.append(n - 1)
    stack = []
    for i in cand:
        while stack:
            prev = stack[-1]
            if f[prev : i + 1].min() < min(f[prev], f[i]) - plateau_tol:
                break
            if f[i] >= f[prev] - plateau_tol:
                stack.pop()
                continue
            i = None
            break
        if i is not None:
            stack.append(i)
    return stack


def test_grid_modes_matches_loop():
    cases = [
        # plateaus: steps within the tolerance, one just past it
        (np.array([0.0, 1.0, 1.0 + 4e-10, 1.0, 0.5, 0.5 + 2e-9, 0.5, 2.0, 2.0, 2.0, 0.0]), 1e-9),
        (np.array([1.0, 1.0, 1.0, 1.0]), 1e-9),
        # modes at the ends
        (np.array([3.0, 2.0, 1.0, 2.0, 1.0]), 1e-9),
        (np.array([0.0, 1.0, 0.5, 2.0, 3.0]), 1e-9),
        (np.array([2.0, 2.0, 1.0, 2.0, 2.0]), 0.0),
        (np.array([0.0, 0.0, 0.0]), 1e-9),
        (np.array([1.0]), 1e-9),
    ]
    rng = np.random.default_rng(7)
    for size in (2, 3, 10, 200):
        for tol in (0.0, 1e-9, 0.5):
            cases.append((rng.integers(0, 4, size).astype(float), tol))  # many ties
            cases.append((rng.random(size), tol))
    for f, tol in cases:
        got = audit._grid_modes(f, tol)
        assert got == _grid_modes_loop(f, tol) and all(type(i) is int for i in got), (f, tol)


def test_mode_scale_invariance():
    raw = [(0, 2.5), (0.25, 2.0), (0.5, 2.625), (0.75, 2.0), (1.0, 2.375), (1.25, 2.0), (1.75, 0)]
    scaled = dists.piecewise_linear(raw)
    assert scaled.find_modes().modes == dists.trimodal_example("red").find_modes().modes


def _zigzag(knots):
    # peaks at the odd knots; the last knot is 0, so the density vanishes there
    ys = np.where(np.arange(knots) % 2 == 0, 0.1, 1.0)
    ys[-1] = 0.0
    return dists.piecewise_linear(list(zip(np.linspace(0, 1, knots), ys)))


def test_too_many_modes():
    shape = _zigzag(132).find_modes()
    assert shape.modes == tuple(np.linspace(0, 1, 132)[1:-1:2][::-1])
    assert len(shape.modes) == 65 and len(shape.antimodes) == 65


def test_classify_hazard():
    # the monotone pieces of the hazard rate, each from where it starts
    assert dists.exponential(1.3).find_modes().hazard == ((0.0, "constant"),)
    assert dists.erf_exponential().find_modes().hazard == ((0.0, "DFR"),)
    assert dists.pareto(2.0).find_modes().hazard == ((1.0, "DFR"),)
    assert dists.trimodal_example("red").find_modes().hazard == ((0.0, "DFR"), (0.25, "IFR"))
    assert dists.normal().find_modes().hazard == ((-np.inf, "IFR"),)


def test_log_class_and_ifr_consistency():
    for d in (dists.gumbel(), dists.normal(), dists.logistic()):
        assert d.find_modes().log_class == "log-concave"
        assert d.find_modes().hazard == ((-np.inf, "IFR"),)
    assert dists.pareto(2.0).find_modes().log_class == "log-convex"
    assert dists.erf_exponential().find_modes().log_class == "neither"
    assert dists.exponential(1.0).find_modes().log_class == "neither"  # log-linear boundary case


def test_inverse_exponential_shape():
    d = dists.inverse_exponential()
    # (log f)'' = 2(x - 1)/x^3 changes sign at 1
    assert d.find_modes().log_class == "neither"
    # the hazard rises up to 1/(2 + W0(-2/e^2)) ~ 0.6275 and falls above it
    (_, rising), (peak, falling) = d.find_modes().hazard
    assert (rising, falling) == ("IFR", "DFR") and peak == pytest.approx(0.62750048745798, rel=1e-13)
    assert d.hazard(peak) > max(d.hazard(peak - 1e-4), d.hazard(peak + 1e-4))


def test_piecewise_shape_from_knots():
    # collinear knots: a triangle, log-concave and IFR
    tri = dists.piecewise_linear([(0, 0), (1, 1), (2, 2), (3, 3), (4, 0)]).find_modes()
    assert (tri.modes, tri.antimodes, tri.log_class, tri.hazard) == ((3.0,), (4.0,), "log-concave", ((0.0, "IFR"),))
    # -b R = f1^2 at the knot 2: the hazard only pauses there
    assert dists.piecewise_linear([(0, 3), (2, 1), (4, 0)]).find_modes().hazard == ((0.0, "IFR"),)
    # a tie after a heavy bulk, which 1 - F would lose to cancellation
    bulk = dists.piecewise_linear([(0, 0.3), (1000, 0.3), (1001, 0.2), (1002, 0.1), (1004, 0)])
    assert bulk.find_modes().hazard == ((0.0, "IFR"),)
    # computed -b R exceeds f1^2 by rounding only
    assert dists.piecewise_linear([(0, 4.4), (3.4, 1), (5.4, 0)]).find_modes().hazard == ((0.0, "IFR"),)
    # -b R exceeds f1^2 by 2^-30, and the root rounds to the knot 2^40 + 1
    x = 2.0**40
    far = dists.piecewise_linear([(x, 2 + 2**-30), (x + 1, 1), (x + 3, 0)])
    assert far.find_modes().hazard == ((x, "IFR"),)
    # -b R = 8 > f1^2 = 4: the hazard falls from 2 - sqrt(3) up to the knot 1
    (_, a), (root, b), (knot, c) = dists.piecewise_linear([(0, 4), (1, 2), (5, 0)]).find_modes().hazard
    assert (a, b, c, knot) == ("IFR", "DFR", "IFR", 1.0) and root == pytest.approx(2 - np.sqrt(3), rel=1e-15)
    # a zero tail: log-concave, and no hazard class where 1 - F = 0
    tail = dists.piecewise_linear([(0, 0), (1, 1), (2, 0), (3, 0)]).find_modes()
    assert (tail.antimodes, tail.log_class, tail.hazard) == ((2.0,), "log-concave", ((0.0, "IFR"),))
    # an interior zero rules out log-concavity
    gap = dists.piecewise_linear([(0, 0), (1, 1), (2, 0), (3, 1), (4, 0)]).find_modes()
    assert (gap.modes, gap.antimodes, gap.log_class) == ((3.0, 1.0), (4.0, 2.0), "neither")


def _random_knots(rng):
    """Knots of a random piecewise-linear density; one knot in four is forced
    to 0, 1e-3 or 1e-2, where shape breaks most easily."""
    k = int(rng.integers(2, 9))
    x = np.cumsum(rng.uniform(0.1, 1.0, k))
    f = rng.uniform(0.0, 1.0, k)
    forced = rng.random(k) < 0.25
    f[forced] = rng.choice([0.0, 1e-3, 1e-2], int(forced.sum()))
    if not np.any(f[1:] + f[:-1]):
        f[0] = 1.0
    return list(zip(x, f))


WINDOW = 1 << 13  # points per window of the dense reference's local passes


def _windows(start, stop, overlap):
    """(lo, hi) windows of WINDOW points over [start, stop), each reaching
    ``overlap`` points into the next, so differences across a seam are
    taken once.  Passes over windows keep every temporary small, so none
    takes fresh pages of memory."""
    return [(s, min(s + WINDOW + overlap, stop)) for s in range(start, stop - overlap, WINDOW)]


def _dense_shape(d):
    """Global mode, the hazard's directions (the set of "IFR" and "DFR"
    seen), log class, sup(-f') on the smooth pieces (0 where f never falls)
    and the drop of f at the upper support bound, read off 2e5 points.  Over
    a finite support the points are uniform with the knots added, f
    interpolates its knot values and 1 - F sums trapezoids from the top,
    which is exact for a piecewise-linear f; its slopes are the first
    differences on the uniform points, exact on every step within a segment
    and a weighted mean of two segments' slopes on a step across a knot; f
    at the upper bound is the drop.  Otherwise the points sit at evenly
    spaced quantiles, f' is taken by second-order differences, and there is
    no drop.

    The local passes run window by window (``_windows``) on the same floats
    as whole-array passes, and a class pass stops once its verdict is
    settled: hazard once it both rises and falls, log class at "neither"."""
    lo, hi = d.support
    if np.isfinite(hi):
        kx, kf = np.asarray(d.knots), d.pdf(np.asarray(d.knots))
        grid = np.linspace(lo, hi, 200_001)
        at = np.searchsorted(grid, kx[1:-1])
        x = np.insert(grid, at, kx[1:-1])
        f = np.interp(x, kx, kf)
        sf = np.zeros_like(x)
        carry = 0.0  # the trapezoids above the window
        for a, b in reversed(_windows(0, x.size, 1)):
            trapezoids = (np.diff(x[a:b]) * (f[a + 1 : b] + f[a : b - 1]) / 2)[::-1]
            trapezoids[0] += carry
            carry = np.cumsum(trapezoids, out=sf[a : b - 1][::-1])[-1]
        on_grid = np.delete(f, at + np.arange(at.size))
        descent = 0.0
        for a, b in _windows(0, grid.size, 1):
            descent = max(descent, float(np.max(-np.diff(on_grid[a:b]) / np.diff(grid[a:b]))))
        drop = float(f[-1])
    else:
        x = np.asarray(d.ppf(np.linspace(0.0, 1.0, 200_001)[1:-1]))
        x = np.concatenate([[lo], x]) if np.isfinite(lo) else x
        f, sf = np.asarray(d.pdf(x)), np.asarray(d.sf(x))
        descent, drop = float(np.max(-np.gradient(f, x, edge_order=2))), 0.0
    # the largest global maximizer; a flat top by its left end
    top = np.flatnonzero(f >= f.max() * (1 - 1e-12))
    i = top[np.flatnonzero(np.diff(top, prepend=-2) > 1)[-1]]
    step = np.diff(x[max(i - 1, 0) : i + 2]).max()

    rising = falling = False
    h_prev = np.empty(0)  # the last h before the window, where 1 - F > 1e-9
    for a, b in _windows(0, x.size, 0):
        alive = sf[a:b] > 1e-9
        h = np.concatenate([h_prev, f[a:b][alive] / sf[a:b][alive]])
        dh, big = np.diff(h), 1e-9 * np.maximum(h[1:], h[:-1])  # a move of h that counts exceeds big
        rising, falling = rising or np.any(dh > big), falling or np.any(dh < -big)
        h_prev = h[-1:]
        if rising and falling:
            break
    hazard = {tag for tag, seen in (("IFR", rising), ("DFR", falling)) if seen}

    pos = f > 0
    a, b = int(np.argmax(pos)), pos.size - int(np.argmax(pos[::-1]))
    if b - a != np.count_nonzero(pos):
        log_class = "neither"  # f vanishes inside its support
    else:
        below = above = True  # bend <= tol, bend >= -tol everywhere
        inward = outward = False  # bend < -tol, bend > tol somewhere
        for s, e in _windows(a, b, 2):
            lf, dx = np.log(f[s:e]), np.diff(x[s:e])
            bend = np.diff(np.diff(lf) / dx)
            # a bound on the rounding error of each slope of log f
            err = (128 * np.finfo(float).eps) * (np.abs(lf[1:]) + 1.0) / dx
            tol = err[1:] + err[:-1]
            below, above = below and np.all(bend <= tol), above and np.all(bend >= -tol)
            inward, outward = inward or np.any(bend < -tol), outward or np.any(bend > tol)
            if not (below or above):
                break
        concave, convex = below and inward, above and outward
        log_class = "log-concave" if concave else "log-convex" if convex else "neither"
    return x[i], f[i], step, hazard, log_class, descent, drop


NAMED = [
    dists.exponential(1.0),
    dists.exponential(2.5),
    dists.gumbel(),
    dists.gumbel(0.3, 1.1),
    dists.normal(),
    dists.normal(-1.5, 1.1),
    dists.logistic(),
    dists.logistic(0.7, 0.9),
    dists.uniform(0.0, 1.0),
    dists.uniform(-2.0, 3.0),
    dists.pareto(2.0),
    dists.pareto(0.5, 1.5),
    dists.erf_exponential(),
    dists.inverse_exponential(),
]


def test_declared_shapes_match_dense_reference():
    rng = np.random.default_rng(11)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # random densities need not vanish at the top
        randoms = [dists.piecewise_linear(_random_knots(rng)) for _ in range(200)]
    for d in NAMED + randoms:
        shape = d.find_modes()
        x_max, f_max, step, hazard, log_class, descent, drop = _dense_shape(d)
        assert shape.global_mode_density == pytest.approx(f_max, rel=1e-12), d
        assert shape.steepest_descent == pytest.approx(descent, rel=1e-8), d
        assert shape.top_drop == pytest.approx(drop, rel=1e-12), d
        assert abs(shape.global_mode - x_max) <= step, d
        assert {tag for _, tag in shape.hazard} - {"constant"} == hazard, d
        assert d.find_modes().log_class == log_class, d


def test_import_leaves_out_scipy_optimize():
    # nor scipy.ndimage: the audit smooths by FFT; nor urllib.request, which
    # xml.sax.saxutils loads (with ssl and http.client) for the SVG escapes
    code = (
        "import sys, tourney.distributions; print('scipy.optimize' in sys.modules); "
        "import tourney.cli; print('scipy.optimize' in sys.modules, 'scipy.ndimage' in sys.modules, "
        "'urllib.request' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False", "False", "False", "False"]


def test_order_statistics():
    u = dists.uniform(0, 1)
    x = 0.37
    # top statistic is an exact power of the cdf
    assert order_statistic_cdf(u, 2, 2, x) == (u.cdf(x)) ** 2
    assert order_statistic_cdf(dists.gumbel(), 3, 3, 0.1) == dists.gumbel().cdf(0.1) ** 3
    # degenerate rank-0 convention
    assert order_statistic_cdf(u, 0, 5, -10.0) == 1.0
    # minimum of two uniforms
    assert order_statistic_cdf(u, 1, 2, 0.5) == pytest.approx(0.75, abs=1e-12)
    with pytest.raises(RankOutOfRange):
        order_statistic_cdf(u, 6, 5, 0.5)
    with pytest.raises(RankOutOfRange):
        order_statistic_cdf(u, -1, 5, 0.5)


@pytest.mark.parametrize("d", [dists.gumbel(), dists.uniform(0, 1), dists.trimodal_example("red")])
def test_order_statistic_cdf_decreasing_in_rank(d):
    n = 5
    for x in np.linspace(*d.truncated_support(), 11)[1:-1]:
        vals = [order_statistic_cdf(d, j, n, x) for j in range(0, n + 1)]
        assert all(a >= b - 1e-13 for a, b in zip(vals, vals[1:]))


def test_erf_exponential_ppf_round_trip():
    fe = dists.erf_exponential()
    q = np.concatenate([np.linspace(0.0, 1.0, 10001)[:-1], [1e-300, 1e-12, 1.0 - 1e-12, 1.0 - 1e-16]])
    x = np.asarray(fe.ppf(q))
    assert np.all(x >= 0.0) and np.all(np.diff(x[:10000]) > 0)
    assert np.max(np.abs(np.asarray(fe.cdf(x)) - q)) <= 4.5e-16
    xs = np.linspace(0.0, 30.0, 3001)
    assert np.allclose(fe.ppf(fe.cdf(xs[:400])), xs[:400], rtol=1e-13, atol=1e-15)


def test_find_modes_heavy_tail_bulk():
    # the truncated support is [0, 1e10], the mode 1/2
    assert dists.inverse_exponential().find_modes().global_mode == pytest.approx(0.5, abs=1e-12)


def test_sampling_matches_cdf():
    fe = dists.erf_exponential()
    rng = np.random.default_rng(0)
    draws = fe.sample(200000, rng)
    for q in (0.1, 0.5, 0.9):
        assert np.mean(draws <= fe.ppf(q)) == pytest.approx(q, abs=5e-3)


def test_from_spec():
    d = dists.from_spec({"family": "exponential", "params": {"rate": 2.0}})
    assert d.family == "exponential" and d.params["rate"] == 2.0
    pw = dists.from_spec({"family": "piecewise_linear", "knots": [[0, 1], [1, 1], [2, 0]]})
    assert pw.support == (0.0, 2.0)
    d2 = dists.from_spec('{"family": "gumbel", "params": {"loc": 0.5}}')
    assert d2.params["loc"] == 0.5
    with pytest.raises(ValueError, match="unknown keys"):
        dists.from_spec({"family": "gumbel", "mean": 0.0})
    with pytest.raises(ValueError, match="unknown family"):
        dists.from_spec({"family": "cauchy"})


@pytest.mark.parametrize(
    "name, dist, xs",
    [
        ("red", dists.trimodal_example("red"), [0.1, 0.6, 1.3, 1.75 - 1e-3, 1.75 - 1e-6, 1.75 - 1e-8]),
        ("inverse_exponential", dists.inverse_exponential(), [0.3, 1.0, 10.0, 1e8, 1e17]),
    ],
    ids=["red", "inverse_exponential"],
)
def test_sf_matches_mpmath_in_the_upper_tail(name, dist, xs):
    # 1 - F rounds to 0 or loses digits here: 1.75 - 1e-8 and 1e17 have
    # survival 6.04e-17 and 1e-17
    sf = family_mp(name)[2]
    with mp.workdps(40):
        for x in xs:
            exact = sf(mp.mpf(x))
            assert abs(dist.sf(x) - exact) <= 1e-14 * exact, x


def test_unnormalized_inputs_warn_when_top_density_positive():
    with pytest.warns(UserWarning, match="vanish"):
        dists.piecewise_linear([(0, 1.0), (1, 1.0)])


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
def test_top_density_warning_is_relative_to_the_peak(scale):
    # the verdict reads f at the top against the peak, not against 1
    with pytest.warns(UserWarning, match="vanish"):
        dists.piecewise_linear([(0, 1), (scale, 2), (2 * scale, 1)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dists.piecewise_linear([(0, 1), (scale, 2), (2 * scale, 1e-9)])


def _random_piecewise():
    rng = np.random.default_rng(21)
    xs = np.cumsum(rng.uniform(0.1, 1.0, 7))
    fs = np.append(rng.uniform(0.0, 2.0, 6), 0.0)
    return dists.piecewise_linear(list(zip(xs, fs)))


SLAB_FAMILIES = ALL_FAMILIES + [dists.inverse_exponential(), _random_piecewise()]
# each slab edge as a flat size and as an (m, n) shape of the same size
SLAB_SIZES = [
    (0, (0, 10)),
    (1, (1, 1)),
    (dists.SLAB - 1, ((dists.SLAB - 1) // 3, 3)),
    (dists.SLAB, (dists.SLAB // 8, 8)),
    (dists.SLAB + 1, ((dists.SLAB + 1) // 5, 5)),
    (3 * dists.SLAB + 7, ((3 * dists.SLAB + 7) // 11, 11)),
]


@pytest.mark.parametrize("d", SLAB_FAMILIES, ids=lambda d: d.family + str(d.params.get("variant", "")))
def test_sample_by_slabs_is_ppf_of_the_uniforms(d):
    for sizes in SLAB_SIZES:
        for size in sizes:
            assert np.prod(size) == sizes[0]
            drawn = d.sample(size, np.random.Generator(np.random.Philox(key=5)))
            whole = d.ppf(np.random.Generator(np.random.Philox(key=5)).random(size))
            assert np.array_equal(drawn, whole), size
            # levels that are not C-contiguous are mapped in a copy
            strided = np.random.Generator(np.random.Philox(key=5)).random(size).T
            assert np.array_equal(d._ppf_in_place(strided), whole.T), size


CLOSED_FORMS = [
    dists.exponential(),
    dists.gumbel(),
    dists.normal(),
    dists.logistic(),
    dists.uniform(-2.2, 0.3),  # -2.2 + (0.3 + 2.2) rounds to 0.2999999999999998
    dists.pareto(),
    dists.erf_exponential(),
    dists.inverse_exponential(),
]


@pytest.mark.parametrize("d", [*CLOSED_FORMS, dists.trimodal_example("red")], ids=lambda d: d.family)
def test_ppf_maps_0_and_1_to_the_support_ends(d):
    assert d.ppf(np.array([0.0, 1.0])).tolist() == list(d.support)
    assert (d.ppf(0.0), d.ppf(1.0)) == d.support
    # sampling hands level 0 to the closed form itself
    with np.errstate(divide="ignore"):
        assert d._ppf(np.zeros(1))[0] == d.support[0]


def test_ppf_rejects_levels_outside_0_1():
    for level in (-0.1, 1.5):
        with pytest.raises(ValueError, match=r"quantile levels must lie in \[0, 1\]"):
            dists.gumbel().ppf([0.5, level])


def test_inverse_exponential_ppf_rises_at_tiny_levels():
    # the levels are not clipped: each level below 1e-300 has its own quantile
    x = dists.inverse_exponential().ppf(np.array([5e-324, 1e-310, 1e-300, 1e-290]))
    assert np.all(np.diff(x) > 0) and x[0] == 1.0 / abs(np.log(5e-324))


def _triangle(w):
    return dists.piecewise_linear([(0, 0), (w / 2, 1), (w, 0)])


# densities whose segments the quantile inverts: flat, through a zero-density
# knot, nearly flat relative to their density, and wide, where the density is
# far below 1
PIECEWISE_CASES = {
    **{c: dists.trimodal_example(c) for c in ("red", "green", "blue")},
    "flat_segment": dists.piecewise_linear([(0, 1), (1.5, 1), (2, 0.5), (3, 0)]),
    "zero_knot": dists.piecewise_linear([(0, 0.5), (1, 0), (2, 1), (3, 0)]),
    "rising_1e-11": dists.piecewise_linear([(0, 1), (1, 1 + 1e-11), (2, 0)]),
    "falling_1e-9": dists.piecewise_linear([(0, 1), (1, 1 - 1e-9), (2, 0)]),
    "wide_nearly_flat": dists.piecewise_linear([(0, 1), (1e6, 1 + 1e-7), (2e6, 0)]),
    "triangle_1e7": _triangle(1e7),
}


@pytest.mark.parametrize("d", PIECEWISE_CASES.values(), ids=PIECEWISE_CASES)
def test_piecewise_ppf_is_exact(d):
    # backward error |F(Q(q)) - q| against the exact CDF of the same knots
    cdf = piecewise_mp(d.params["knots"])[1]
    q = np.concatenate([np.random.default_rng(17).random(300), d.cdf(np.asarray(d.knots))])
    with mp.workdps(40):
        worst = max(abs(cdf(mp.mpf(x)) - mp.mpf(level)) for x, level in zip(d.ppf(q), q))
    assert worst <= 5e-16


PLATEAU = dists.piecewise_linear([(0, 0), (1, 1), (2, 1), (3, 0)])


@pytest.mark.parametrize("d", [PIECEWISE_CASES["flat_segment"], PLATEAU], ids=["flat_segment", "plateau"])
def test_piecewise_ppf_on_a_flat_segment_is_the_linear_inverse(d):
    kx, kf_raw = np.array(d.params["knots"]).T
    kf = kf_raw / d.normalization
    seg_mass = np.concatenate([[0.0], np.cumsum((kf[1:] + kf[:-1]) / 2.0 * np.diff(kx))])
    q = np.random.default_rng(19).random(10_000)
    i = np.searchsorted(seg_mass[1:-1], q, side="right")
    flat = kf[i] == kf[i + 1]
    q, i = q[flat], i[flat]
    assert q.size > 1000
    expected = kx[i] + np.clip((q - seg_mass[i]) / kf[i], 0.0, np.diff(kx)[i])
    assert np.array_equal(d.ppf(q).view(np.uint64), expected.view(np.uint64))


def test_piecewise_ppf_and_rank_coefficients_scale_with_the_unit():
    # performance is effort plus noise, so stretching the noise by w scales
    # every quantile by w and every marginal benefit by 1 / w
    q = np.random.default_rng(23).random(300)
    unit = _triangle(1.0)
    b_unit = [eq.marginal_benefit_rank(unit, 3, r, 0.5) for r in (1, 2, 3)]
    for w in (1e-4, 1.0, 1e4, 1e7):
        d = _triangle(w)
        np.testing.assert_allclose(d.ppf(q) / w, unit.ppf(q), rtol=1e-14, atol=0)
        b = [eq.marginal_benefit_rank(d, 3, r, w / 2) * w for r in (1, 2, 3)]
        np.testing.assert_allclose(b, b_unit, rtol=1e-9, atol=0)


def _monotone_levels():
    """Sorted levels as ``Generator.random`` draws them, multiples of
    2^-53 in [0, 1): random ones, and runs of adjacent levels next to 0,
    0.5 and 1."""
    k = np.arange(1 << 12) * 2.0**-53
    runs = [k, 0.5 - k, 0.5 + k, 1.0 - 2.0**-53 - k]
    return np.unique(np.concatenate([np.random.default_rng(53).random(1 << 15), *runs]))


def _random_piecewise_densities(count):
    rng = np.random.default_rng(530)
    for _ in range(count):
        knots = int(rng.integers(3, 12))
        xs = np.cumsum(rng.uniform(0.05, 2.0, knots))
        fs = np.append(rng.uniform(0.0, 3.0, knots - 1) * (rng.random(knots - 1) < 0.8), 0.0)
        fs[0] += 0.1  # some interior knots may have zero density, never all of them
        yield dists.piecewise_linear(list(zip(xs, fs)))


@pytest.mark.parametrize("d", [*SLAB_FAMILIES, *_random_piecewise_densities(4)],
                         ids=lambda d: d.family + str(d.params.get("variant", "")))
def test_ppf_never_decreases_on_sorted_levels(d):
    # the best-response scan ranks and reduces rivals by their uniforms and
    # maps only the order statistics it bins: X_(k) = ppf(U_(k)) needs a
    # quantile function that never decreases; equal steps are allowed
    with np.errstate(divide="ignore"):  # level 0 maps to -inf on an unbounded support
        x = np.asarray(d._ppf(_monotone_levels()))
    assert not np.isnan(x).any()
    assert np.all(x[1:] >= x[:-1])
