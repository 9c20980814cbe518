import subprocess
import sys
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from mp_reference import family_mp
from rank_reference import RankOutOfRange, order_statistic_cdf
from tourney import audit
from tourney import distributions as dists

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
    assert dists.exponential(1.3).classify_hazard() == "constant"
    assert dists.erf_exponential().classify_hazard() == "DFR"
    assert dists.pareto(2.0).classify_hazard() == "DFR"
    red = dists.trimodal_example("red")
    assert red.classify_hazard() == "mixed"
    assert red.classify_hazard(above=1.0) == "IFR"
    assert dists.normal().classify_hazard() == "IFR"


def test_log_class_and_ifr_consistency():
    for d in (dists.gumbel(), dists.normal(), dists.logistic()):
        assert d.find_modes().log_class == "log-concave"
        assert d.classify_hazard() == "IFR"
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
    assert d.classify_hazard(above=0.3) == "mixed"
    assert d.classify_hazard(above=1.0) == "DFR"
    assert d.classify_hazard(above=-1.0) == d.classify_hazard() == "mixed"


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


def _dense_shape(d):
    """Global mode, hazard class, log class, sup(-f') on the smooth pieces
    (0 where f never falls) and the drop of f at the upper support bound,
    read off 2e5 points.  Over a finite support the points are uniform with
    the knots added, f interpolates its knot values and 1 - F sums
    trapezoids from the top, which is exact for a piecewise-linear f; its
    slopes are the first differences on the uniform points, exact on every
    step within a segment and a weighted mean of two segments' slopes on a
    step across a knot; f at the upper bound is the drop.  Otherwise the
    points sit at evenly spaced quantiles, f' is taken by second-order
    differences, and there is no drop."""
    lo, hi = d.support
    if np.isfinite(hi):
        kx, kf = np.asarray(d.knots), d.pdf(np.asarray(d.knots))
        grid = np.linspace(lo, hi, 200_001)
        at = np.searchsorted(grid, kx[1:-1])
        x = np.insert(grid, at, kx[1:-1])
        f = np.interp(x, kx, kf)
        dx = np.diff(x)
        sf = np.concatenate([np.cumsum((dx * (f[1:] + f[:-1]) / 2)[::-1])[::-1], [0.0]])
        on_grid = np.delete(f, at + np.arange(at.size))
        descent = max(float(np.max(-np.diff(on_grid) / np.diff(grid))), 0.0)
        drop = float(f[-1])
    else:
        x = np.asarray(d.ppf(np.linspace(0.0, 1.0, 200_001)[1:-1]))
        x = np.concatenate([[lo], x]) if np.isfinite(lo) else x
        f, sf = np.asarray(d.pdf(x)), np.asarray(d.sf(x))
        dx = np.diff(x)
        descent, drop = float(np.max(-np.gradient(f, x, edge_order=2))), 0.0
    # the largest global maximizer; a flat top by its left end
    top = np.flatnonzero(f >= f.max() * (1 - 1e-12))
    i = top[np.flatnonzero(np.diff(top, prepend=-2) > 1)[-1]]
    step = dx[max(i - 1, 0) : i + 1].max()

    alive = sf > 1e-9
    h = f[alive] / sf[alive]
    dh, big = np.diff(h), 1e-9 * np.maximum(h[1:], h[:-1])  # a move of h that counts exceeds big
    rising, falling = np.any(dh > big), np.any(dh < -big)
    hazard = "mixed" if rising and falling else "IFR" if rising else "DFR" if falling else "constant"

    pos = np.flatnonzero(f > 0)
    a, b = pos[0], pos[-1] + 1
    if b - a != pos.size:
        log_class = "neither"  # f vanishes inside its support
    else:
        dx, lf = dx[a : b - 1], np.log(f[a:b])
        bend = np.diff(np.diff(lf) / dx)
        # a bound on the rounding error of each slope of log f
        err = (128 * np.finfo(float).eps) * (np.abs(lf[1:]) + 1.0) / dx
        tol = err[1:] + err[:-1]
        concave = np.all(bend <= tol) and np.any(bend < -tol)
        convex = np.all(bend >= -tol) and np.any(bend > tol)
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
        assert d.classify_hazard() == hazard, d
        assert d.find_modes().log_class == log_class, d


def test_import_leaves_out_scipy_optimize():
    code = (
        "import sys, tourney.distributions; print('scipy.optimize' in sys.modules); "
        "import tourney.cli; print('scipy.optimize' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False", "False"]


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
