import math
import tracemalloc
import warnings
from dataclasses import fields, replace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from kernel_reference import per_row_integrals
from mp_reference import coefficient_mp, kronrod_mp
from rank_reference import order_statistic_cdf
from scipy import special

from tourney import distributions as dists
from tourney import equilibrium as eq
from tourney import prizes
from tourney.cli import FIG1_SCHEDULES, plot_grid

RED = dists.trimodal_example("red")
GREEN = dists.trimodal_example("green")
BLUE = dists.trimodal_example("blue")
EXPO = dists.exponential(1.0)
UNIF = dists.uniform(0.0, 1.0)
GUMBEL = dists.gumbel()
HEAVY = dists.erf_exponential()
PARETO = dists.pareto(2.0)
NEAR_VANISHING = dists.piecewise_linear([(0, 0.2), (1, 1), (1.5, 0.01), (2, 0.8), (3, 0)])
QUAD_COST = eq.CostFunction()


# -- prize schedules ---------------------------------------------------------


def test_schedule_validation():
    with pytest.raises(ValueError, match="sum to 1"):
        eq.PrizeSchedule((0.5, 0.3, 0.1))
    with pytest.raises(ValueError, match="decreasing"):
        eq.PrizeSchedule((0.3, 0.7))
    with pytest.raises(ValueError, match="nonnegative"):
        eq.PrizeSchedule((1.5, -0.5))
    # NaN fails every comparison, so the budget and ordering checks pass it
    for prizes in ((float("nan"),) * 3, (float("inf"), 0.0)):
        with pytest.raises(ValueError, match="finite"):
            eq.PrizeSchedule(prizes)
    with pytest.raises(ValueError, match="schedule is for 4 players, not 3"):
        eq.total_marginal_benefit(dists.gumbel(), 3, eq.PrizeSchedule.winner_take_all(4), 0.0)


@given(st.integers(min_value=1, max_value=10), st.integers(min_value=1, max_value=10))
def test_equal_top_budget_identity(s, n):
    if s > n:
        s, n = n, s
    v = eq.PrizeSchedule.equal_top(s, n)
    d = v.differentials
    assert np.all(d >= 0)
    assert float(np.dot(np.arange(1, n + 1), d)) == 1.0


@given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_random_schedule_valid(n, seed):
    v = eq.random_schedule(n, np.random.default_rng(seed))
    d = v.differentials
    assert np.all(np.asarray(v.prizes) >= 0)
    assert np.all(np.diff(v.prizes) <= 1e-12)
    assert abs(np.dot(np.arange(1, n + 1), d) - 1.0) < 1e-9


# -- marginal benefit coefficients -------------------------------------------


@pytest.mark.parametrize("d", [RED, GUMBEL, HEAVY, EXPO])
@pytest.mark.parametrize("t", [-0.3, 0.0, 0.6, 1.2])
def test_bottom_rank_equals_density(d, t):
    for n in (2, 4):
        assert eq.marginal_benefit_rank(d, n, n, t) == float(d.pdf(t))


def test_uniform_top_rank_is_constant():
    for t in (0.0, 0.25, 0.5, 0.9, 1.0):
        assert eq.marginal_benefit_rank(UNIF, 2, 1, t) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_exponential_rank_coefficients_at_zero(n):
    for r in range(1, n + 1):
        assert eq.marginal_benefit_rank(EXPO, n, r, 0.0) == pytest.approx(r / n, abs=1e-9)


def test_eps_identity():
    for d in (RED, GUMBEL, HEAVY):
        v = eq.PrizeSchedule.equal_sharing(3)
        for t in (0.1, 0.5, 1.3):
            assert abs(eq.total_marginal_benefit(d, 3, v, t) - float(d.pdf(t)) / 3) < 1e-10


def test_linearity_in_schedule():
    rng = np.random.default_rng(5)
    for _ in range(5):
        v1 = eq.random_schedule(4, rng)
        v2 = eq.random_schedule(4, rng)
        a = rng.random()
        mix = a * np.asarray(v1.prizes) + (1 - a) * np.asarray(v2.prizes)
        mix[0] += 1.0 - mix.sum()
        vm = eq.PrizeSchedule(tuple(mix))
        t = rng.uniform(0.0, 1.5)
        lhs = eq.total_marginal_benefit(RED, 4, vm, t)
        rhs = a * eq.total_marginal_benefit(RED, 4, v1, t) + (1 - a) * eq.total_marginal_benefit(
            RED, 4, v2, t
        )
        assert abs(lhs - rhs) < 1e-10


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("n", [2, 3, 5])
def test_exponential_invariance(lam, n):
    d = dists.exponential(lam)
    rng = np.random.default_rng(17)
    for _ in range(5):
        v = eq.random_schedule(n, rng)
        assert abs(eq.total_marginal_benefit(d, n, v, 0.0) - lam / n) < 1e-8


def test_pareto_rank_coefficients_closed_form():
    # f = 2x^-3 on [1, inf): B_1 = 8 (1/5 - 1/7), B_2 = 8 int x^-8, B_3 = f(1)
    for r, exact in zip((1, 2, 3), (16 / 35, 8 / 7, 2.0)):
        assert eq.marginal_benefit_rank(PARETO, 3, r, 1.0) == pytest.approx(exact, abs=1e-9)


def test_curve_matches_pointwise_quadrature():
    grid = plot_grid(RED)
    for r in (1, 2):
        curve = eq.total_marginal_benefit_curve(RED, 3, eq.PrizeSchedule.equal_top(r, 3), grid)
        for i in np.linspace(10, len(grid) - 10, 7, dtype=int):
            pointwise = eq.marginal_benefit_rank(RED, 3, r, float(grid[i]))
            assert r * curve[i] == pytest.approx(pointwise, abs=1e-8)


@pytest.mark.parametrize("n", [2, 3, 10, 30, 100, 1000])
def test_rank_coefficients_closed_forms(n):
    # every rank in one array call per distribution: B_r = r times its score
    lam = 2.0
    r = np.arange(1, n + 1)

    def coefficients(dist, t):
        return prizes.rank_score(dist, n, r, t) * r

    # Pareto(alpha) at t = x_min: B_r = alpha B(n-r, r+1+1/alpha) / B(n-r, r)
    for alpha in (0.5, 2.0):
        lower = r[:-1]
        exact = alpha * np.append(
            np.exp(special.betaln(n - lower, lower + 1 + 1 / alpha) - special.betaln(n - lower, lower)), 1.0
        )
        np.testing.assert_allclose(coefficients(dists.pareto(alpha), 1.0), exact, rtol=0, atol=1e-9)
    np.testing.assert_allclose(coefficients(dists.exponential(lam), 0.0), lam * r / n, rtol=0, atol=1e-9)
    np.testing.assert_allclose(coefficients(UNIF, 0.3), 1.0, rtol=0, atol=1e-9)


# B_r(t) by coefficient_mp at t = 0, except inverse-exponential (t = 1/2) and
# trimodal red (t = 1)
MP_COEFFICIENTS = {
    ('normal', 3, 1): 0.2960490807905726,
    ('normal', 3, 2): 0.38498799138473816,
    ('normal', 30, 1): 0.06809202814030735,
    ('normal', 30, 15): 0.3938249519606999,
    ('normal', 30, 29): 0.3989422804001757,
    ('normal', 100, 1): 0.025075936364416844,
    ('normal', 100, 50): 0.3973851283453208,
    ('normal', 100, 99): 0.3989422804014327,
    ('logistic', 3, 1): 0.17708333333333334,
    ('logistic', 3, 2): 0.23958333333333334,
    ('logistic', 30, 1): 0.031182795699926154,
    ('logistic', 30, 15): 0.24596774193548387,
    ('logistic', 30, 29): 0.24999999999899858,
    ('logistic', 100, 1): 0.009801980198019802,
    ('logistic', 100, 50): 0.24876237623762376,
    ('logistic', 100, 99): 0.25,
    ('gumbel', 3, 1): 0.22775411870754045,
    ('gumbel', 3, 2): 0.33991352291076593,
    ('gumbel', 30, 1): 0.032222222222222326,
    ('gumbel', 30, 15): 0.3386356215378181,
    ('gumbel', 30, 29): 0.3678794393141812,
    ('gumbel', 100, 1): 0.0099,
    ('gumbel', 100, 50): 0.3440880476235852,
    ('gumbel', 100, 99): 0.36787944117144233,
    ('erf_exponential', 3, 1): 0.5967820693098037,
    ('erf_exponential', 3, 2): 1.2989403063988942,
    ('erf_exponential', 30, 1): 0.035455933861258435,
    ('erf_exponential', 30, 15): 0.9405365259836777,
    ('erf_exponential', 30, 29): 1.93279659573042,
    ('erf_exponential', 100, 1): 0.010017324141290414,
    ('erf_exponential', 100, 50): 0.940973635288904,
    ('erf_exponential', 100, 99): 1.9799505024758046,
    ('inverse_exponential', 3, 1): 0.14888259323753078,
    ('inverse_exponential', 3, 2): 0.3785908650955705,
    ('inverse_exponential', 30, 1): 0.002148148148148148,
    ('inverse_exponential', 30, 15): 0.24485570711616947,
    ('inverse_exponential', 30, 29): 0.5412145505043932,
    ('inverse_exponential', 100, 1): 0.000198,
    ('inverse_exponential', 100, 50): 0.2417160574699535,
    ('inverse_exponential', 100, 99): 0.5413411324010001,
    ('red', 3, 1): 0.6129485526083053,
    ('red', 3, 2): 0.7079248305648287,
    ('red', 30, 1): 0.25222233009557016,
    ('red', 30, 15): 0.7166228407900608,
    ('red', 30, 29): 0.7169811320754716,
    ('red', 100, 1): 0.13789701128196627,
    ('red', 100, 50): 0.7169806603183421,
    ('red', 100, 99): 0.7169811320754716,
}
MP_THRESHOLDS = {"inverse_exponential": 0.5, "red": 1.0}


def test_rank_coefficients_match_mpmath():
    made = {
        "normal": dists.normal(),
        "logistic": dists.logistic(),
        "gumbel": dists.gumbel(),
        "erf_exponential": HEAVY,
        "inverse_exponential": dists.inverse_exponential(),
        "red": RED,
    }
    for (name, n, r), exact in MP_COEFFICIENTS.items():
        got = eq.marginal_benefit_rank(made[name], n, r, MP_THRESHOLDS.get(name, 0.0))
        assert got == pytest.approx(exact, abs=1e-9), (name, n, r)
    # the table is what coefficient_mp computes
    for key in [("normal", 30, 15), ("inverse_exponential", 3, 2), ("red", 100, 1)]:
        name = key[0]
        assert coefficient_mp(name, *key[1:], MP_THRESHOLDS.get(name, 0.0)) == pytest.approx(
            MP_COEFFICIENTS[key], rel=1e-15
        )


def test_pareto_heavy_tail_middle_rank():
    # the support spans twenty decades while the mass sits near x_min
    exact = 0.5 * math.exp(special.betaln(42, 61) - special.betaln(42, 58))
    assert eq.marginal_benefit_rank(dists.pareto(0.5), 100, 58, 1.0) == pytest.approx(exact, abs=1e-12)


@pytest.mark.parametrize("m", [2, eq.QUAD_ORDER])
def test_kronrod_rule(m):
    nodes, kronrod, gauss = eq._kronrod_rule(m)
    x, w = kronrod_mp(m)
    assert np.max(np.abs(nodes - np.array(x, dtype=float))) <= 2e-16
    assert np.max(np.abs(kronrod - np.array(w, dtype=float))) <= 2e-16
    assert np.all(kronrod > 0)
    # the Gauss rule on the same nodes is _gauss_rule's
    g_nodes, g_weights = eq._gauss_rule(m)
    assert nodes[1::2].tobytes() == g_nodes.tobytes() and gauss[1::2].tobytes() == g_weights.tobytes()
    assert not np.any(gauss[::2])
    # Legendre P_k on [0, 1] integrates to 0 for k > 0: the Gauss-Kronrod rule
    # is exact to degree 3m + 1, the Gauss rule to 2m - 1
    k = np.arange(3 * m + 2)
    p = special.eval_legendre(k[:, None], 2.0 * nodes - 1.0)
    assert np.max(np.abs(p @ kronrod - (k == 0))) < 1e-14
    assert np.max(np.abs(p[: 2 * m] @ gauss - (k[: 2 * m] == 0))) < 1e-14


def test_rank_cdf_sum_takes_levels_once(monkeypatch):
    # the per-rank form, one betainc call per rank, is the reference: the
    # winner-take-all and equal-sharing rows, whose CDFs are u^(n-1) and 1,
    # equal it bit for bit, and a Dirichlet row is within 2e-13
    v = eq.PrizeSchedule
    rows = np.stack([v.winner_take_all(30).differentials, v.equal_sharing(30).differentials,
                     eq.random_schedule(30, np.random.default_rng(3)).differentials])
    for t in (np.array([0.3]), np.array([-1.0, 0.0, 0.3, 2.0])):
        loop = np.zeros((3,) + t.shape)
        for r in range(1, 31):
            loop = loop + rows[:, r - 1, None] * order_statistic_cdf(GUMBEL, 30 - r, 29, t)
        levels = eq._levels(GUMBEL, t)
        batch = eq._rank_cdf_sum(30, rows, *levels)
        assert batch[:2].tobytes() == loop[:2].tobytes()
        np.testing.assert_allclose(batch[2], loop[2], rtol=2e-13, atol=0)
        assert batch.tobytes() == np.stack([eq._rank_cdf_sum(30, d, *levels) for d in rows]).tobytes()
    # an all-ranks marginal benefit at n=1000 takes F a fixed number of times
    noise = dists.gumbel()
    calls = []
    cdf = noise.cdf
    monkeypatch.setattr(noise, "cdf", lambda x: calls.append(np.size(x)) or cdf(x))
    d = eq.random_schedule(1000, np.random.default_rng(4)).differentials
    assert np.all(d > 0)
    eq._marginal_benefit(noise, 1000, d, np.array([0.0, 0.5]))
    assert len(calls) <= 4


def test_rank_cdf_sum_matches_mpmath():
    # I_u(n-r, r) to 40 digits at levels from 1e-12 to 1 - 1e-9; at n = 1000
    # only a few ranks, since mpmath takes about 0.7 ms per rank and level
    u = np.array([1e-12, 1e-6, 0.01, 0.3, 0.5, 0.9, 1.0 - 1e-6, 1.0 - 1e-9])
    s = 1.0 - u  # exact, so both sides take the same levels
    v = eq.PrizeSchedule
    with mp.workdps(40):
        for n in (2, 3, 10, 100, 1000):
            rows = [v.winner_take_all(n), v.equal_sharing(n), v.equal_top(max(1, n // 3), n)]
            rows = np.stack([x.differentials for x in rows])
            if n < 1000:
                rows = np.vstack([rows, eq.random_schedule(n, np.random.default_rng(n)).differentials])
            else:
                rows = np.vstack([rows, eq._unit(n, [2, 17, 500, 998, 999])])
            got = eq._rank_cdf_sum(n, rows, u, s)
            for d, row in zip(rows, got):
                want = [sum(mp.mpf(w) * mp.betainc(n - r, r, 0, mp.mpf(x), regularized=True) if r < n else w
                            for r, w in zip(range(1, n + 1), d) if w) for x in u]
                want = np.array([float(w) for w in want])
                big = want >= 1e-290
                assert np.max(np.abs(row[big] / want[big] - 1.0)) <= 2e-13, (n, d)
                assert np.all(np.abs(row[~big]) < 1e-289), (n, d)


def test_rank_cdf_sum_is_one_minus_rank_weight_above():
    # The order-statistic identity (David & Nagaraja, Order Statistics):
    # P(the (n-r)-th lowest of n-1 levels <= F(t)) = 1 - the Beta(n-r, r)
    # mass above F(t).  Under uniform noise Q(u) = u, so the kernel
    # integrates the bare rank weight, and _rank_cdf_sum takes the left side
    # from the binomial pmf of the same Beta table at n + 1.
    t = np.array([0.0, 1e-6, 0.3, 0.5, 0.9, 1.0 - 1e-9])
    for n in (2, 3, 10, 100, 1000):
        unit = eq._unit(n, np.arange(1, n + 1))
        key, above = eq._integrals_above(UNIF, n, unit, np.ones_like, 0.0, kinks=t)
        levels = eq._levels(UNIF, t)
        at = np.searchsorted(key, eq._order_key(*levels))
        below = eq._rank_cdf_sum(n, unit, *levels)
        assert np.max(np.abs(below - (1.0 - above[:, at]))) <= 1e-12, n


def test_quadrature_failure_names_its_cause(monkeypatch):
    monkeypatch.setattr(eq, "QUAD_ORDER", 2)
    with pytest.raises(
        eq.QuadratureFailure,
        match=r"^pareto \{'alpha': 2\.0, 'x_min': 1\.0\}, n=3, rank 1: the 2-point Gauss and 5-point "
        r"Gauss-Kronrod rules give \S+ and \S+, \S+ apart \(target 1e-09\); they differ "
        r"most on u in \[\S+, \S+\], x in \[\S+, \S+\]$",
    ):
        eq.marginal_benefit_rank(PARETO, 3, 1, 1.0)
    # in a batch of ranks the message names the rank that fails, not the first
    with pytest.raises(eq.QuadratureFailure, match=r"n=3, rank 1: "):
        prizes.rank_score(PARETO, 3, np.array([3, 1]), 1.0)


FIG1_ROWS = np.stack([eq.PrizeSchedule.equal_top(s, 3).differentials for _, s in FIG1_SCHEDULES])


def _near_vanishing_failure():
    with pytest.raises(eq.QuadratureFailure) as failure:
        eq.optimal_threshold(NEAR_VANISHING, 3, eq.PrizeSchedule.winner_take_all(3))
    return str(failure.value)


# Each tiny block splits its call on the axis named: a fig1 curve the panels
# of three schedules, a deviation curve's 65 effort rows one panel a block,
# the scores of every rank at n = 300 the schedules.
@pytest.mark.parametrize(
    "tiny, compute",
    [
        (1 << 12, lambda: eq._marginal_benefit(RED, 3, FIG1_ROWS, plot_grid(RED))),
        (1 << 12, lambda: eq.deviation_payoff_curve(
            RED, eq.TournamentDesign(1.5, eq.PrizeSchedule.winner_take_all(3), QUAD_COST), 0.5,
            np.linspace(0.0, QUAD_COST.max_effort, 65))),
        (1 << 12, lambda: prizes.rank_score(GUMBEL, 300, np.arange(1, 301), GUMBEL.find_modes().global_mode)),
        (1 << 8, _near_vanishing_failure),
    ],
    ids=["fig1-curve", "deviation-curve", "rank-scores-300", "failure-message"],
)
def test_panel_blocks_give_the_bits_of_one_block(tiny, compute, monkeypatch):
    # every step is element-wise or a sum over one panel's nodes, so the
    # blocks change no bit; a huge block is the unblocked kernel
    weight, blocks = eq._rank_weight, []
    monkeypatch.setattr(eq, "_rank_weight", lambda *args: blocks.append(1) or weight(*args))
    monkeypatch.setattr(eq, "QUAD_BLOCK", 1 << 40)
    whole = compute()
    assert len(blocks) == 1
    blocks.clear()
    monkeypatch.setattr(eq, "QUAD_BLOCK", tiny)
    assert np.array_equal(compute(), whole)
    assert len(blocks) > 2


def test_fig1_curve_memory_is_bounded():
    # each block's arrays hold about QUAD_BLOCK doubles, not the whole grid's
    grid = plot_grid(RED)
    eq._marginal_benefit(RED, 3, FIG1_ROWS, grid[:2])  # builds the cached rules
    tracemalloc.start()
    try:
        eq._marginal_benefit(RED, 3, FIG1_ROWS, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20


# -- prize probabilities ------------------------------------------------------


def test_prize_probability_examples():
    # bottom rank: passing the standard is all that matters
    assert eq.prize_probability(UNIF, 2, 2, 0.3, 0.9, 0.8) == float(UNIF.sf(0.5))
    # closed form for the uniform top rank
    assert eq.prize_probability(UNIF, 2, 1, 0.3, 0.3, 0.8) == pytest.approx(0.375, abs=1e-9)
    # without a standard, symmetric play gives uniform ranks
    for d in (GUMBEL, EXPO):
        for r in (1, 2, 3):
            p = eq.prize_probability(d, 3, r, 0.4, 0.4, -np.inf)
            assert p == pytest.approx(r / 3, abs=1e-6)


def test_pareto_prize_probability_closed_form():
    # the standard sits at the bottom of the support: everyone passes and
    # symmetric play gives uniform ranks
    for r in (1, 2, 3):
        assert eq.prize_probability(PARETO, 3, r, 2 / 3, 2 / 3, 5 / 3) == pytest.approx(r / 3, abs=1e-9)


def test_prize_probability_monotone_in_rank():
    for rho in (-np.inf, 0.7, 1.4):
        vals = [eq.prize_probability(RED, 3, r, 0.2, 0.25, rho) for r in (1, 2, 3)]
        assert vals[0] <= vals[1] <= vals[2] + 1e-12


@pytest.mark.parametrize(
    "dist, rho", [(GUMBEL, 0.3), (HEAVY, 0.2), (PARETO, 1.6), (RED, 0.8)], ids=lambda v: getattr(v, "family", v)
)
def test_prize_probability_ranks_in_one_pass(dist, rho):
    # the array form equals one call per rank, bit for bit
    n, e, e_star = 10, 0.35, 0.3
    ranks = np.arange(1, n + 1)
    got = eq.prize_probability(dist, n, ranks, e, e_star, rho)
    loop = np.array([eq.prize_probability(dist, n, int(r), e, e_star, rho) for r in ranks])
    assert got.shape == (n,) and got.tobytes() == loop.tobytes()
    assert eq.prize_probability(dist, n, ranks[[6, 2]], e, e_star, rho).tobytes() == loop[[6, 2]].tobytes()


def test_finite_difference_matches_rank_coefficient():
    # interior threshold, away from the support boundary kink
    e_star, rho = 0.3, 0.3 + 0.8
    h = 1e-5
    for r in (1, 2, 3):
        up = eq.prize_probability(RED, 3, r, e_star + h, e_star, rho)
        dn = eq.prize_probability(RED, 3, r, e_star - h, e_star, rho)
        fd = (up - dn) / (2 * h)
        assert fd == pytest.approx(eq.marginal_benefit_rank(RED, 3, r, 0.8), abs=1e-4)


# -- efforts and thresholds ---------------------------------------------------


def test_equilibrium_effort():
    v = eq.random_schedule(2, np.random.default_rng(0))
    assert eq._effort(eq.total_marginal_benefit(EXPO, 2, v, 0.0), QUAD_COST) == pytest.approx(0.5, abs=1e-9)
    eps = eq.PrizeSchedule.equal_sharing(3)
    assert eq._effort(eq.total_marginal_benefit(HEAVY, 3, eps, 0.0), QUAD_COST) == pytest.approx(2 / 3, abs=1e-12)
    # zero marginal benefit means zero effort
    es2 = eq.PrizeSchedule.equal_sharing(2)
    assert eq._effort(eq.total_marginal_benefit(UNIF, 2, es2, 2.5), QUAD_COST) == 0.0


def test_effort_out_of_range():
    weak = eq.CostFunction(kappa=0.01, beta=2.0)  # c'(max_effort) ~ 0.14
    wta = eq.PrizeSchedule.winner_take_all(2)
    with pytest.raises(eq.EffortOutOfRange):
        eq._effort(eq.total_marginal_benefit(EXPO, 2, wta, 0.0), weak)
    for g in (np.nan, np.inf):
        with pytest.raises(eq.EffortOutOfRange, match="not a finite number"):
            eq._effort(g, QUAD_COST)


@pytest.mark.parametrize("schedule", [eq.PrizeSchedule.winner_take_all(3), eq.PrizeSchedule.equal_top(2, 3)],
                         ids=["wta", "top-2"])
def test_gumbel_threshold_below_cdf_underflow(schedule):
    # F(t) underflows to 0 below t = -6.62, so the kernel's panel at t has
    # zero width and its nodes map to -inf, where the density reads 0: G
    # keeps its value from t = -5 (2/9 and 5/36), not NaN
    want = eq.total_marginal_benefit(GUMBEL, 3, schedule, -5.0)
    for t in (-10.0, -40.0, -1000.0):
        assert eq.total_marginal_benefit(GUMBEL, 3, schedule, t) == pytest.approx(want, abs=1e-12)
    sol = eq.solve_design(GUMBEL, 3, schedule, QUAD_COST, threshold=-10.0)
    assert sol.marginal_benefit == pytest.approx(want, abs=1e-12) and np.isfinite(sol.effort)


def _assert_grid_scan_agrees(d, n, v):
    """The reference for ``optimal_threshold``: sum_r d_r B_r over the whole
    uniform grid peaks within one grid step of the threshold, and nowhere
    beats it."""
    thr = eq.optimal_threshold(d, n, v)
    grid = plot_grid(d)
    curve = eq.total_marginal_benefit_curve(d, n, v, grid)
    i = int(np.argmax(curve))
    assert abs(grid[i] - thr.threshold) <= np.max(np.diff(grid))
    assert curve[i] <= thr.marginal_benefit + 1e-9
    return thr, curve[i]


def test_optimal_threshold_red_by_schedule():
    expected = {1: 1.0, 2: 0.5, 3: 0.5}
    for s, t_exp in expected.items():
        thr, _ = _assert_grid_scan_agrees(RED, 3, eq.PrizeSchedule.equal_top(s, 3))
        assert thr.threshold == t_exp


def test_wta_scan_peaks_at_pareto_mode():
    # the top-rank coefficient peaks at the mode, the lower support bound
    thr, peak = _assert_grid_scan_agrees(PARETO, 3, eq.PrizeSchedule.winner_take_all(3))
    assert thr.threshold == 1.0
    assert peak == pytest.approx(16 / 35, abs=1e-9)


SMOOTH = {
    "gumbel": GUMBEL,
    "normal": dists.normal(),
    "logistic": dists.logistic(),
    "erf_exponential": HEAVY,
    "inverse_exponential": dists.inverse_exponential(),
}


@pytest.mark.parametrize(
    "name, s",
    [(v, s) for v in ("green", "blue") for s in (1, 2, 3)]
    + [(f, s) for f in SMOOTH for s in (1, 3)],
)
def test_optimal_threshold_matches_grid_scan(name, s):
    d = {"green": GREEN, "blue": BLUE, **SMOOTH}[name]
    _assert_grid_scan_agrees(d, 3, eq.PrizeSchedule.equal_top(s, 3))


def test_mode_scan_mismatch_names_interval(monkeypatch):
    # Without the antimode 0.75 the scan reports f falling from the mode 0.5
    # to the mode 1.0, yet the winner-take-all G rises there.
    d = dists.trimodal_example("red")
    shape = d.find_modes()
    assert shape.antimodes == (1.75, 0.75, 0.25)
    missed = replace(shape, antimodes=(1.75, 0.25))
    monkeypatch.setattr(d, "find_modes", lambda: missed)
    with pytest.raises(eq.ModeScanMismatch, match=r"'variant': 'red'\}, n=3: on \[0\.5, 1\]"):
        eq.optimal_threshold(d, 3, eq.PrizeSchedule.winner_take_all(3))
    # schedules whose G falls with f there pass the check
    assert eq.optimal_threshold(d, 3, eq.PrizeSchedule.equal_top(2, 3)).threshold == 0.5
    # the joint table checks every rank's row and names the first that fails
    with pytest.raises(eq.ModeScanMismatch, match=r"n=3, row 0 of the differentials: on \[0\.5, 1\]"):
        prizes.optimal_prizes(d, 3, QUAD_COST)


@pytest.mark.xfail(raises=eq.QuadratureFailure, strict=True)
def test_mode_where_density_nearly_vanishes_at_knot():
    # Known kernel defect: f(Q(u)) has a near-square-root kink where the
    # density almost vanishes at the knot 1.5, and the 20-point Gauss and
    # 41-point Gauss-Kronrod rules for G at the global mode 1 differ by
    # 1.30e-6, most on x in [1.5, 2].
    eq.optimal_threshold(NEAR_VANISHING, 3, eq.PrizeSchedule.winner_take_all(3))


def test_optimal_threshold_unimodal_is_global_mode():
    for d in (GUMBEL, HEAVY):
        thr = eq.optimal_threshold(d, 3, eq.PrizeSchedule.winner_take_all(3))
        assert thr.threshold == d.find_modes().global_mode


def test_monotone_rank_argmax_on_trimodal_trio():
    for d in (RED, GREEN, BLUE):
        modes = d.find_modes().modes
        argmaxes = []
        for r in (1, 2, 3):
            vals = {m: eq.marginal_benefit_rank(d, 3, r, m) for m in modes}
            best = max(vals.values())
            argmaxes.append(max(m for m, g in vals.items() if g >= best - 1e-9))
        assert all(a >= b for a, b in zip(argmaxes, argmaxes[1:]))


def test_global_mode_sufficiency():
    red = eq.global_mode_sufficiency(RED, 3)
    assert not red.holds and red.witness == 1.0
    green = eq.global_mode_sufficiency(GREEN, 3)
    assert green.holds and green.witness == 0.5
    # unimodal noise holds trivially
    assert eq.global_mode_sufficiency(GUMBEL, 4).holds


def test_solve_design_examples():
    sol = eq.solve_design(EXPO, 2, eq.PrizeSchedule.winner_take_all(2), QUAD_COST)
    # within 4 ulps: the last bits of the Gauss-Kronrod weights depend on the
    # platform's long double
    assert sol.threshold == 0.0
    assert abs(sol.effort - 0.5) <= 4 * np.spacing(0.5)
    assert sol.standard == sol.effort
    assert sol.pass_probability == 1.0 and sol.concavity_ok

    with pytest.warns(eq.ConcavityWarning, match="gains"):
        sol2 = eq.solve_design(HEAVY, 3, eq.PrizeSchedule.equal_sharing(3), QUAD_COST)
    assert sol2.effort == pytest.approx(2 / 3, abs=1e-12)
    assert sol2.pass_probability == 1.0
    assert sol2.standard == sol2.effort + sol2.threshold

    sol3 = eq.solve_design(RED, 3, eq.PrizeSchedule.winner_take_all(3), QUAD_COST)
    assert sol3.threshold == pytest.approx(1.0, abs=1e-9)
    assert sol3.pass_probability == pytest.approx(0.3160377358490566, abs=1e-9)
    assert sol3.standard == sol3.effort + sol3.threshold


@pytest.mark.parametrize("schedule", [eq.PrizeSchedule.winner_take_all(3), eq.PrizeSchedule.equal_sharing(3)])
def test_flat_top_standard_at_its_left_end(schedule):
    # G is the same all over [0, 1]; ties go to the smallest threshold
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", eq.ConcavityWarning)
        sol = eq.solve_design(UNIF, 3, schedule, QUAD_COST)
    assert (sol.threshold, sol.pass_probability) == (0.0, 1.0)


def test_plateau_standard_at_its_left_end():
    plateau = dists.piecewise_linear([(0, 0), (1, 1), (2, 1), (3, 0)])
    sol = eq.solve_design(plateau, 3, eq.PrizeSchedule.winner_take_all(3), QUAD_COST)
    # G on the plateau [1, 2] is the value taken at 2 before, 0.42291666666666666
    assert sol.threshold == 1.0 and sol.pass_probability == 0.75
    assert sol.marginal_benefit == pytest.approx(0.42291666666666666, rel=1e-12)


def test_solve_design_with_threshold_override():
    sol = eq.solve_design(RED, 3, eq.PrizeSchedule.winner_take_all(3), QUAD_COST, threshold=0.5)
    assert sol.threshold == 0.5
    assert sol.marginal_benefit == pytest.approx(
        eq.marginal_benefit_rank(RED, 3, 1, 0.5), abs=1e-12
    )


def test_deviation_payoff_peaks_at_equilibrium():
    v = eq.PrizeSchedule.winner_take_all(2)
    sol = eq.solve_design(EXPO, 2, v, QUAD_COST)
    design = eq.TournamentDesign(sol.standard, v, QUAD_COST)
    grid = np.linspace(0.0, QUAD_COST.max_effort, 301)
    pi = eq.deviation_payoff_curve(EXPO, design, sol.effort, grid)
    assert abs(grid[int(np.argmax(pi))] - sol.effort) < 2 * (grid[1] - grid[0])


@pytest.mark.parametrize(
    "dist", [RED, GREEN, HEAVY, PARETO, EXPO, GUMBEL],
    ids=["red", "green", "erf_exponential", "pareto", "exponential", "gumbel"],
)
def test_deviation_payoff_curve_matches_per_row_reference(dist, monkeypatch):
    # shared panels and a per-row integrand give every row's bits unchanged;
    # three prizes put a sum of rank weights on every node
    e_star = 0.5
    v = eq.PrizeSchedule((0.6, 0.3, 0.1))
    design = eq.TournamentDesign(dist.find_modes().global_mode + e_star, v, QUAD_COST)
    grid = np.append(np.linspace(0.0, QUAD_COST.max_effort, 101), e_star)
    got = eq.deviation_payoff_curve(dist, design, e_star, grid)
    monkeypatch.setattr(eq, "_integrals_above", per_row_integrals)
    assert got.tobytes() == eq.deviation_payoff_curve(dist, design, e_star, grid).tobytes()


def _pareto_wta_win_mp(e, e_star):
    """P(top prize) of a deviator at e against two rivals at e* on Pareto(2)
    noise, standard at the support bound + e*: the best rival's noise has
    density 4 (1 - x^-2) x^-3 on [1, inf), the deviator's survival is x^-2."""
    with mp.workdps(20):
        shift = mp.mpf(e_star) - mp.mpf(e)
        sf = lambda y: 1 if y < 1 else y**-2  # noqa: E731
        kink = [1 - shift] if 1 - shift > 1 else []
        return float(mp.quad(lambda x: sf(x + shift) * 4 * (1 - x**-2) * x**-3, [1] + kink + [10, mp.inf]))


def test_deviation_payoff_matches_quadrature_on_heavy_tail():
    # winner-take-all equilibrium at t = 1: e* = B_1 = 16/35
    e_star = 16 / 35
    v = eq.PrizeSchedule.winner_take_all(3)
    design = eq.TournamentDesign(1.0 + e_star, v, QUAD_COST)
    grid = np.linspace(0.0, QUAD_COST.max_effort, 5)
    pi = eq.deviation_payoff_curve(PARETO, design, e_star, grid)
    for e, p in zip(grid, pi):
        exact = _pareto_wta_win_mp(e, e_star) - QUAD_COST.c(e)
        assert p == pytest.approx(exact, abs=1e-9)
        quad = eq.prize_probability(PARETO, 3, 1, e, e_star, design.standard) - QUAD_COST.c(e)
        assert p == pytest.approx(quad, abs=1e-12)


def test_concavity_diagnostic_flags_profitable_deviation():
    # EPS at the lower support bound: below e* the deviation payoff is
    # sf(rho - e)/3 - kappa e^2/2, whose second derivative at e* is 2 - kappa
    # for Pareto(2); at kappa = 1 the best response is e ~ 0.22, not e* = 2/3
    eps = eq.PrizeSchedule.equal_sharing(3)
    for d in (PARETO, HEAVY):
        with pytest.warns(eq.ConcavityWarning, match="gains"):
            sol = eq.solve_design(d, 3, eps, QUAD_COST)
        assert not sol.concavity_ok
    steep = eq.CostFunction(kappa=3.0, beta=2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", eq.ConcavityWarning)
        sol = eq.solve_design(PARETO, 3, eps, steep)
    assert sol.concavity_ok
    assert sol.effort == pytest.approx(2 / 9, abs=1e-9)


def _curvature_bound(dist, v, cost):
    """K = v_1 sup(-f') + J sup f sum_{r<n} d_r max Beta(n-r, r) - inf c'',
    the bound on the deviation payoff's P'' away from the kink, with J the
    drop of f at the upper support bound and the Beta densities taken at
    their modes."""
    shape, n = dist.find_modes(), v.n
    a, b = n - np.arange(1, n), np.arange(1, n)
    m = (a - 1) / (n - 2) if n > 2 else 0.5
    peaks = m ** (a - 1) * (1 - m) ** (b - 1) / special.beta(a, b)
    drop = shape.top_drop * shape.global_mode_density * np.dot(v.differentials[:-1], peaks)
    return v.prizes[0] * shape.steepest_descent + drop - cost.min_curvature


def test_beta_normalizer_from_the_integer_recurrence():
    # the recurrence gives math.comb's binomials, so every log is the same
    n = 300
    assert eq._log_beta_norms(n).tolist() == [math.log((n - 1) * math.comb(n - 2, b)) for b in range(n - 1)]
    # each rank's density at its own mode is the diagonal of all ranks at all modes
    for n in (3, 30):
        d = eq.random_schedule(n, np.random.default_rng(n)).differentials
        m = (n - 1 - np.arange(1, n)) / (n - 2)
        assert eq._rank_weight_peak(n, d) == float(np.trace(eq._rank_weight(n, np.diag(d)[:-1], m, 1.0 - m)))


SCHEDULES = [(3, eq.PrizeSchedule.winner_take_all(3)), (10, eq.PrizeSchedule.equal_sharing(10)),
             (10, eq.PrizeSchedule.winner_take_all(10))]


with warnings.catch_warnings():
    warnings.simplefilter("ignore")  # f = 0.5 / 0.975 at the top: a drop
    TOP_DROP = dists.piecewise_linear([(0, 0.2), (0.5, 1), (1, 0.6), (1.5, 0.5)])


@pytest.mark.parametrize(
    "dist",
    [GUMBEL, dists.normal(), EXPO, RED, HEAVY, UNIF, TOP_DROP],
    ids=["gumbel", "normal", "exponential", "red", "erf_exponential", "uniform", "top_drop"],
)
def test_deviation_payoff_curvature_within_bound(dist):
    # second differences, h = 1e-3, at 61 efforts across [0, e_max], none
    # within 3h of the kink that a drop of f puts at rho - hi
    h = 1e-3
    grid = np.linspace(h, QUAD_COST.max_effort - h, 61)
    for n, v in SCHEDULES:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", eq.ConcavityWarning)
            sol = eq.solve_design(dist, n, v, QUAD_COST)
        centers = grid[np.abs(grid - (sol.standard - dist.support[1])) > 3 * h]
        design = eq.TournamentDesign(sol.standard, v, QUAD_COST)
        pi = eq.deviation_payoff_curve(dist, design, sol.effort, np.concatenate([centers - h, centers, centers + h]))
        lo, mid, hi = pi.reshape(3, -1)
        assert np.max((lo - 2 * mid + hi) / h**2) <= _curvature_bound(dist, v, QUAD_COST) + 1e-6, (n, v)


def test_concavity_verdict_evaluates_no_payoff_when_bound_proves_concavity(monkeypatch):
    evaluated = []
    curve = eq.deviation_payoff_curve
    monkeypatch.setattr(eq, "deviation_payoff_curve", lambda *a: evaluated.append(np.size(a[3])) or curve(*a))
    concave = [
        (GUMBEL, eq.PrizeSchedule.winner_take_all(3)),
        (dists.normal(0.5, 0.8), eq.PrizeSchedule.equal_sharing(10)),
        (PARETO, eq.PrizeSchedule.equal_sharing(10)),
        (HEAVY, eq.PrizeSchedule.equal_sharing(4)),  # K = 4/4 - 1 = 0 exactly
    ]
    for dist, v in concave:
        assert _curvature_bound(dist, v, QUAD_COST) <= 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error", eq.ConcavityWarning)
            assert eq.solve_design(dist, v.n, v, QUAD_COST).concavity_ok
    assert evaluated == []
    # the drop at the top of uniform noise adds a finite term: K = 2 - 3
    steep = eq.CostFunction(kappa=3.0, beta=2.0)
    wta3 = eq.PrizeSchedule.winner_take_all(3)
    assert _curvature_bound(UNIF, wta3, steep) == pytest.approx(-1.0, abs=1e-12)
    with warnings.catch_warnings():
        warnings.simplefilter("error", eq.ConcavityWarning)
        assert eq.solve_design(UNIF, 3, wta3, steep).concavity_ok
    assert evaluated == []
    # a finite K > 0 refines from far fewer efforts than a 400-point grid,
    # and reaches the dense grid's verdict
    assert eq.solve_design(RED, 3, wta3, QUAD_COST).concavity_ok
    assert 0 < sum(evaluated) < 400
    evaluated.clear()
    top2 = eq.PrizeSchedule.equal_top(2, 10)
    with pytest.warns(eq.ConcavityWarning, match="gains"):
        assert not eq.solve_design(UNIF, 10, top2, QUAD_COST).concavity_ok
    assert 0 < sum(evaluated) < 400
    # uniform WTA at n = 10: the dense grid's gain is 0.0685, near e = 0.01
    v = eq.PrizeSchedule.winner_take_all(10)
    with pytest.warns(eq.ConcavityWarning, match="gains 0.068"):
        sol = eq.solve_design(UNIF, 10, v, steep)
    grid = np.unique(np.append(np.linspace(0.0, steep.max_effort, 4000), sol.effort))
    pi = eq.deviation_payoff_curve(UNIF, eq.TournamentDesign(sol.standard, v, steep), sol.effort, grid)
    assert np.max(pi) - pi[np.searchsorted(grid, sol.effort)] == pytest.approx(0.0685, abs=1e-4)
    assert grid[np.argmax(pi)] == pytest.approx(0.01, abs=2e-3)


@pytest.mark.parametrize("kappa, ok", [(0.1, False), (0.2, True)])
def test_kink_inside_effort_range_is_checked_even_when_bound_is_negative(kappa, ok):
    # EPS on uniform noise at n = 3: K = -kappa, but rho - 1 = 1 / (3 kappa)
    # - 1 lies in (0, e_max), and below it no effort reaches the standard, so
    # P = -c there.  Effort 0 then gains P(0) - P(e*) = 1 / (18 kappa) - 1/3
    # when kappa < 1/6; at kappa = 0.2 e* is a best response, though the
    # payoff is not unimodal
    v, cost = eq.PrizeSchedule.equal_sharing(3), eq.CostFunction(kappa, 2.0)
    assert _curvature_bound(UNIF, v, cost) == pytest.approx(-kappa)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", eq.ConcavityWarning)
        sol = eq.solve_design(UNIF, 3, v, cost)
    assert 0.0 < sol.standard - 1.0 < cost.max_effort
    assert sol.concavity_ok == ok
    assert [str(w.message).startswith("deviating to effort 0 gains") for w in caught] == ([] if ok else [True])
    design = eq.TournamentDesign(sol.standard, v, cost)
    grid = np.unique(np.append(np.linspace(0.0, cost.max_effort, 4000), sol.effort))
    pi = eq.deviation_payoff_curve(UNIF, design, sol.effort, grid)
    assert (np.max(pi) - pi[np.searchsorted(grid, sol.effort)] <= eq.DEVIATION_GAIN_TOL) == ok


def test_refinement_flags_gain_on_blue_wta():
    # a deviation to e ~ 0.376 gains 3.1e-8 over e* = 0.3848
    v = eq.PrizeSchedule.winner_take_all(10)
    with pytest.warns(eq.ConcavityWarning, match=r"gains .*curvature bound K = 0\.758, \d+ efforts evaluated"):
        sol = eq.solve_design(BLUE, 10, v, QUAD_COST)
    assert not sol.concavity_ok
    design = eq.TournamentDesign(sol.standard, v, QUAD_COST)
    pi = eq.deviation_payoff_curve(BLUE, design, sol.effort, np.array([sol.effort, 0.376]))
    assert pi[1] - pi[0] == pytest.approx(3.14e-8, rel=0.01)


def test_refinement_finds_gain_between_grid_points():
    # EPS on Pareto(2, x_min) at n = 3: below e* the deviation payoff is
    # (x_min / (rho - e))^2 / 3 - e^2 / 2, whose P'' at e* is 2 / x_min^2 - 1,
    # just above 0 at x_min = 1.412; its maximum, 2.56e-9 over e*, lies at
    # e = 0.46993, between two efforts of the evenly spaced grid
    x_min = 1.412
    with pytest.warns(eq.ConcavityWarning, match="gains"):
        sol = eq.solve_design(dists.pareto(2.0, x_min), 3, eq.PrizeSchedule.equal_sharing(3), QUAD_COST)
    assert not sol.concavity_ok

    def payoff(e):
        return (x_min / (sol.standard - e)) ** 2 / 3 - e**2 / 2

    grid = np.linspace(0.0, QUAD_COST.max_effort, 400)
    below = grid[grid < sol.effort]
    assert np.max(payoff(below)) - payoff(sol.effort) < eq.DEVIATION_GAIN_TOL
    assert payoff(0.46993) - payoff(sol.effort) == pytest.approx(2.56e-9, rel=1e-3)


@pytest.mark.parametrize("height, gains", [(0.13, True), (0.12, False)])
def test_refinement_bisects_to_a_gain_between_its_first_efforts(monkeypatch, height, gains):
    # a synthetic payoff -(e - e*)^2 / 2 plus a bump of width 0.005 midway
    # between two of the first efforts, where the parabola is at -0.122: the
    # bump rises above P(e*) = 0 at height 0.13, not at 0.12.  Its P'' stays
    # below 0.4463 * 0.13 / 0.005^2 - 1 < K = 2400.
    e_star, center = 0.5, 22.5 * QUAD_COST.max_effort / eq.REFINEMENT_CELLS

    def payoff(dist, design, e_star, e):
        return -0.5 * (e - e_star) ** 2 + height * np.exp(-0.5 * ((e - center) / 0.005) ** 2)

    monkeypatch.setattr(eq, "deviation_payoff_curve", payoff)
    design = eq.TournamentDesign(0.0, eq.PrizeSchedule.winner_take_all(2), QUAD_COST)
    e, pi = eq._deviation_payoffs(None, design, e_star, 2400.0, ())
    first = np.linspace(0.0, QUAD_COST.max_effort, eq.REFINEMENT_CELLS + 1)
    assert np.max(payoff(None, None, e_star, first)) <= 0.0
    gain = np.max(pi) - pi[np.searchsorted(e, e_star)]
    assert (gain > eq.DEVIATION_GAIN_TOL) == gains


def test_refinement_finds_gain_hidden_between_first_efforts_by_a_sharp_peak(monkeypatch):
    # a synthetic payoff -b (x^2 - d^2)^2 + g x, x = e - m, with maxima at
    # e* = 0.5 and 0.599, the second 1e-6 higher and between the first
    # efforts 0.5745 and 0.6187.  P'' <= 4 b d^2 = 0.49 < K = 0.5, yet P
    # falls from the second maximum far faster than K bounds its rise: a
    # bound of the chord plus K s (h - s) / 2 stays below P(e*) on that cell
    m, d, b = 0.5495, 0.0495, 50.0
    g = 1e-6 / (2 * d)

    def payoff(dist, design, e_star, e):
        x = np.asarray(e) - m
        return -b * (x * x - d * d) ** 2 + g * x

    monkeypatch.setattr(eq, "deviation_payoff_curve", payoff)
    design = eq.TournamentDesign(0.0, eq.PrizeSchedule.winner_take_all(2), QUAD_COST)
    e, pi = eq._deviation_payoffs(None, design, m - d, 0.5, ())
    first = np.linspace(0.0, QUAD_COST.max_effort, eq.REFINEMENT_CELLS + 1)
    assert first[13] < m + d < first[14]
    gain = np.max(pi) - pi[np.searchsorted(e, m - d)]
    assert gain > eq.DEVIATION_GAIN_TOL
    assert e[np.argmax(pi)] == pytest.approx(m + d, abs=1e-3)


@pytest.mark.parametrize(
    "dist, v, cost",
    [
        (dists.exponential(1.25), eq.PrizeSchedule.winner_take_all(3), QUAD_COST),
        (RED, eq.PrizeSchedule.winner_take_all(3), QUAD_COST),
        (UNIF, eq.PrizeSchedule.equal_sharing(3), eq.CostFunction(0.2, 2.0)),  # kink at 2/3
    ],
    ids=["exponential", "red", "uniform_kink"],
)
def test_cell_bounds_hold_inside_final_cells(dist, v, cost):
    sol = eq.solve_design(dist, v.n, v, cost)
    assert sol.concavity_ok
    design = eq.TournamentDesign(sol.standard, v, cost)
    k = _curvature_bound(dist, v, cost)
    kinks = [sol.standard - dist.support[1]] if dist.find_modes().top_drop else []
    e, pi = eq._deviation_payoffs(dist, design, sol.effort, k, kinks)
    bound = eq._cell_bounds(e, pi, k, kinks)
    inside = e[:-1, None] + np.diff(e)[:, None] * np.arange(1, 41) / 41.0
    payoffs = eq.deviation_payoff_curve(dist, design, sol.effort, inside.ravel()).reshape(inside.shape)
    assert np.all(payoffs.max(axis=1) <= bound)
    if kinks:
        # a chord line across the kink undercuts P: P' jumps up there
        assert np.any(payoffs.max(axis=1) > eq._cell_bounds(e, pi, k, []))


def test_refinement_fails_closed_at_its_width_limit(monkeypatch):
    # red WTA n=3 passes after two rounds of bisection; with no bisection
    # allowed, a cell's bound stays above P(e*) + tol
    monkeypatch.setattr(eq, "REFINEMENT_HALVINGS", 0)
    with pytest.warns(eq.ConcavityWarning, match="still allows a gain of .* not certified"):
        sol = eq.solve_design(RED, 3, eq.PrizeSchedule.winner_take_all(3), QUAD_COST)
    assert not sol.concavity_ok


def test_refinement_verdict_matches_dense_grid_on_random_density():
    # a seeded random piecewise density that vanishes at the top, so K is
    # finite; its interior knots stay at f >= 0.2, away from the kernel fault
    # at near-vanishing knots (test_mode_where_density_nearly_vanishes_at_knot)
    rng = np.random.default_rng(1)
    k = int(rng.integers(3, 8))
    knots = zip(np.cumsum(rng.uniform(0.1, 1.0, k)), np.append(rng.uniform(0.2, 1.0, k - 1), 0.0))
    d = dists.piecewise_linear(list(knots))
    verdicts = []
    for v in (eq.PrizeSchedule.winner_take_all(3), eq.PrizeSchedule.equal_sharing(3), eq.random_schedule(3, rng)):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", eq.ConcavityWarning)
            sol = eq.solve_design(d, 3, v, QUAD_COST)
        grid = np.unique(np.append(np.linspace(0.0, QUAD_COST.max_effort, 4000), sol.effort))
        pi = eq.deviation_payoff_curve(d, eq.TournamentDesign(sol.standard, v, QUAD_COST), sol.effort, grid)
        dense_ok = np.max(pi) - pi[np.searchsorted(grid, sol.effort)] <= eq.DEVIATION_GAIN_TOL
        assert sol.concavity_ok == dense_ok, v
        verdicts.append(dense_ok)
    assert verdicts == [False, True, True]


def test_cost_function_contract():
    c = eq.CostFunction(2, 3)
    assert [f.name for f in fields(c)] == ["kappa", "beta"]
    assert (type(c.kappa), type(c.beta)) == (float, float)
    assert c.c(0.0) == 0.0 and c.cprime(0.0) == 0.0
    assert c.c(c.max_effort) == pytest.approx(1.0, abs=1e-9)
    assert c.cprime_inv(c.cprime(0.4)) == pytest.approx(0.4, abs=1e-12)
    for kappa, beta in [(-1.0, 2.0), (1.0, 1.0), (math.nan, 2.0)]:
        with pytest.raises(ValueError):
            eq.CostFunction(kappa, beta)
    # inf c'' on [0, e_max]: c'' = kappa (beta - 1) e^(beta - 2)
    assert c.min_curvature == 0.0
    assert eq.CostFunction(3.0, 2.0).min_curvature == 3.0
    soft = eq.CostFunction(1.0, 1.5)
    assert soft.min_curvature == pytest.approx(0.5 / math.sqrt(soft.max_effort), rel=1e-15)
