import numpy as np
import pytest

from tourney import distributions as dists
from tourney import equilibrium as eq
from tourney import montecarlo as mc
from tourney import payschemes as ps

GUMBEL = dists.gumbel()
PARETO = dists.pareto(2.0)


def test_tournament_payments():
    wta = ps.rank_payscheme(eq.PrizeSchedule.winner_take_all(3), -np.inf)
    assert wta.payments([[3.0, 1.0, 2.0]]).tolist() == [[1.0, 0.0, 0.0]]
    eps_high = ps.rank_payscheme(eq.PrizeSchedule.equal_sharing(3), 2.5)
    np.testing.assert_allclose(eps_high.payments([[3.0, 1.0, 2.0]]), [[1 / 3, 0.0, 0.0]])
    eps_low = ps.rank_payscheme(eq.PrizeSchedule.equal_sharing(3), 0.0)
    np.testing.assert_allclose(eps_low.payments([[3.0, 1.0, 2.0]]), [[1 / 3, 1 / 3, 1 / 3]])


def test_tournament_tie_goes_to_lower_index():
    wta = ps.rank_payscheme(eq.PrizeSchedule.winner_take_all(3), -np.inf)
    pay = wta.payments([[2.0, 2.0, 1.0]])
    assert pay.tolist() == [[1.0, 0.0, 0.0]]
    assert pay.sum() == 1.0  # ties never double-pay


def test_property_checks_pass_for_battery():
    rng = np.random.default_rng(4)
    y = rng.normal(0.5, 1.0, size=(200, 3))
    for scheme in ps.scheme_battery(3, 10, rng, -1.0, 2.0):
        ps.check_properties(scheme, y, rng)


def test_property_violations_detected():
    rng = np.random.default_rng(0)
    y = rng.normal(size=(100, 3))
    pay_worst = ps.PayScheme(
        3, lambda yy: np.where(yy <= np.min(yy, axis=1, keepdims=True), 1.0, 0.0), "pay-the-worst"
    )
    with pytest.raises(ps.PropertyViolation, match="decreased"):
        ps.check_properties(pay_worst, y, rng)
    over_budget = ps.PayScheme(3, lambda yy: np.full_like(yy, 0.5), "half-each")
    with pytest.raises(ps.PropertyViolation, match="budget"):
        ps.check_properties(over_budget, y, rng)
    biased = ps.PayScheme(3, lambda yy: np.column_stack([np.ones(len(yy)), np.zeros((len(yy), 2))]), "always-first")
    with pytest.raises(ps.PropertyViolation, match="anonymity"):
        ps.check_properties(biased, y, rng)


def test_marginal_incentive_zero_scheme():
    zero = ps.PayScheme(3, lambda y: np.zeros_like(y), "zero")
    est, se = ps.marginal_incentive(GUMBEL, zero, 0.3, draws=20_000, seed=1)
    assert est == 0.0 and se == 0.0


def test_marginal_incentive_attains_wta_bound():
    xm = GUMBEL.find_modes().global_mode
    scheme = ps.rank_payscheme(eq.PrizeSchedule.winner_take_all(3), 0.3 + xm)
    est, se = ps.marginal_incentive(GUMBEL, scheme, 0.3, draws=300_000, seed=5)
    ref = eq.marginal_benefit_rank(GUMBEL, 3, 1, xm)
    assert abs(est - ref) <= 4 * se


def test_marginal_incentive_constant_share_pareto():
    est, se = ps.marginal_incentive(PARETO, ps.constant_share(2), 0.5, draws=300_000, seed=6)
    assert abs(est - float(PARETO.pdf(1.0)) / 2) <= 4 * se


def test_marginal_incentive_requires_vanishing_top_density():
    u = dists.uniform(0.0, 1.0)
    with pytest.raises(ValueError, match="vanish"):
        ps.marginal_incentive(u, ps.constant_share(2), 0.3, draws=20_000, seed=2)


def test_unbounded_likelihood_ratio():
    spiky = dists.pareto(alpha=2e6)  # likelihood ratio (alpha+1)/x blows past the cap
    with pytest.raises(ps.UnboundedLikelihoodRatio):
        ps.marginal_incentive(spiky, ps.constant_share(2), 0.1, draws=20_000, seed=3)


def test_check_bound_battery_gumbel():
    rng = np.random.default_rng(10)
    lo, hi = GUMBEL.truncated_support(1e-6)
    for k, scheme in enumerate(ps.scheme_battery(3, 10, rng, 0.3 + lo, 0.3 + hi)):
        chk = ps.check_incentive_bound(GUMBEL, scheme, 0.3, draws=50_000, seed=40 + k)
        assert chk.bound_kind == "top-prize-at-mode"
        assert chk.satisfied


def test_check_bound_battery_pareto():
    rng = np.random.default_rng(12)
    lo, hi = PARETO.truncated_support(1e-6)
    for k, scheme in enumerate(ps.scheme_battery(3, 10, rng, 0.5 + lo, 0.5 + min(hi, 30.0))):
        chk = ps.check_incentive_bound(PARETO, scheme, 0.5, draws=50_000, seed=80 + k)
        assert chk.bound_kind == "lower-bound-density"
        assert chk.bound == pytest.approx(float(PARETO.pdf(1.0)) / 3, abs=1e-12)
        assert chk.satisfied


def test_check_bound_attained_by_optimal_schemes():
    xm = GUMBEL.find_modes().global_mode
    wta = ps.rank_payscheme(eq.PrizeSchedule.winner_take_all(3), 0.3 + xm)
    chk = ps.check_incentive_bound(GUMBEL, wta, 0.3, draws=300_000, seed=90)
    assert chk.satisfied and abs(chk.estimate - chk.bound) <= 4 * chk.se

    eps = ps.rank_payscheme(eq.PrizeSchedule.equal_sharing(2), 0.5 + 1.0)
    chk2 = ps.check_incentive_bound(PARETO, eps, 0.5, draws=300_000, seed=91)
    assert chk2.satisfied and abs(chk2.estimate - chk2.bound) <= 4 * chk2.se


def test_no_bound_for_other_shapes():
    with pytest.raises(ps.NoBoundAvailable):
        ps.check_incentive_bound(dists.erf_exponential(), ps.constant_share(3), 0.3, draws=10_000, seed=1)


def test_scheme_from_spec():
    rank = ps.scheme_from_spec({"kind": "rank", "prizes": [0.6, 0.4, 0.0], "standard": 0.5}, 3)
    assert "rank" in rank.label
    mix = ps.scheme_from_spec(
        {"kind": "mixture", "first": {"kind": "constant"}, "second": {"kind": "linear_share", "cap": 1.0}, "weight": 0.5},
        3,
    )
    y = np.array([[2.0, 1.5, 0.5]])
    assert mix.payments(y).sum() <= 1.0 + 1e-12
    with pytest.raises(ValueError, match="unknown scheme kind"):
        ps.scheme_from_spec({"kind": "??"}, 3)


def _built_in_schemes(n):
    """Every built-in kind, with and without a standard; a linear share's cap
    is its standard, and -10 lies below every output drawn here."""
    wta, eps = eq.PrizeSchedule.winner_take_all(n), eq.PrizeSchedule.equal_sharing(n)
    return [
        ps.rank_payscheme(wta),
        ps.rank_payscheme(wta, 0.4),
        ps.rank_payscheme(eps, 0.4),
        ps.rank_payscheme(eq.random_schedule(n, np.random.default_rng(n)), 0.2),
        ps.capped_linear_share(n, -10.0),
        ps.capped_linear_share(n, 0.6),
        ps.constant_share(n),
        ps.mixture(ps.rank_payscheme(wta, 0.4), ps.capped_linear_share(n, 0.6), 0.3),
        ps.mixture(ps.constant_share(n), ps.rank_payscheme(eps), 0.8),
    ]


def _assert_player1_is_column_0(scheme, y):
    got, want = scheme.player1_payments(y), scheme.payments(y)[:, 0]
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), scheme


@pytest.mark.parametrize("n", [2, 3, 10])
def test_player1_payments_are_column_0_for_built_in_kinds(n):
    y = np.random.default_rng(20 + n).normal(0.5, 1.0, size=(500, n))
    for scheme in _built_in_schemes(n):
        _assert_player1_is_column_0(scheme, y)
        _assert_player1_is_column_0(scheme, y[:1])
        _assert_player1_is_column_0(scheme, y[:0])


def test_player1_payments_on_tied_outputs():
    y = np.array([[2.0, 2.0, 1.0], [2.0, 2.0, 2.0], [1.0, 2.0, 2.0], [2.0, 3.0, 2.0], [2.0, 1.0, 2.0]])
    for scheme in _built_in_schemes(3) + [ps.rank_payscheme(eq.PrizeSchedule((0.5, 0.3, 0.2)), 2.0)]:
        _assert_player1_is_column_0(scheme, y)
    wta = ps.rank_payscheme(eq.PrizeSchedule.winner_take_all(3))
    assert wta.player1_payments([[2.0, 2.0, 1.0]]).tolist() == [1.0]  # the tie goes to player 1


@pytest.mark.parametrize("n", [2, 3, 10, 30])
def test_player1_payments_are_column_0_for_battery(n):
    rng = np.random.default_rng(30 + n)
    y = rng.normal(0.5, 1.0, size=(400, n))
    for scheme in ps.scheme_battery(n, 50, rng, -1.0, 2.0):
        _assert_player1_is_column_0(scheme, y)


def test_bare_callable_falls_back_to_column_0():
    share = ps.PayScheme(3, lambda y: y / y.sum(axis=1, keepdims=True), "share")
    y = np.random.default_rng(5).uniform(1.0, 2.0, size=(50, 3))
    _assert_player1_is_column_0(share, y)


def test_check_properties_rejects_a_player1_path_off_column_0():
    rng = np.random.default_rng(0)
    liar = ps.PayScheme(3, lambda y: np.full_like(y, 1 / 3), "liar", lambda y: np.full(len(y), 0.5))
    with pytest.raises(ps.PropertyViolation, match="player 1's payment is not column 0"):
        ps.check_properties(liar, rng.normal(size=(100, 3)), rng)


def _full_payment_incentive(dist, scheme, effort, draws, seed):
    """Reference: the marginal incentive pricing every player on every draw
    and keeping player 1 above the mode, summed in the estimator's order."""
    xm = dist.find_modes().global_mode
    total = total_sq = 0.0
    for x in mc.noise_batches(dist, scheme.n, draws, seed):
        lam = np.asarray(dist.likelihood_ratio(x[:, 0]))
        w1 = scheme.payments(effort + x)[:, 0]
        vals = np.where(x[:, 0] > xm, w1 * lam, 0.0)
        total += float(vals.sum())
        total_sq += float(np.dot(vals, vals))
    mean = total / draws
    var = max(total_sq / draws - mean * mean, 0.0)
    return mean, float(np.sqrt(var / draws))


@pytest.mark.parametrize("n", [3, 10])
@pytest.mark.parametrize("dist", [GUMBEL, PARETO], ids=["gumbel", "pareto"])
def test_marginal_incentive_equals_full_payment_reference(dist, n):
    draws = mc.BATCH + 5  # a short last batch
    lo, hi = dist.truncated_support(1e-6)
    rng = np.random.default_rng(n)
    schemes = _built_in_schemes(n) + [
        ps.PayScheme(n, lambda y: np.full_like(y, 1 / n), "bare"),
        *ps.scheme_battery(n, 2, rng, 0.3 + lo, 0.3 + min(hi, 30.0)),
    ]
    for k, scheme in enumerate(schemes):
        got = ps.marginal_incentive(dist, scheme, 0.3, draws, seed=60 + k)
        assert got == _full_payment_incentive(dist, scheme, 0.3, draws, 60 + k), scheme


def test_marginal_incentive_prices_no_full_payments_outside_check(monkeypatch):
    calls = []
    checking = [False]
    payments, check = ps.PayScheme.payments, ps.check_properties

    def spy(self, y):
        calls.append(checking[0])
        return payments(self, y)

    def checked(*args):
        checking[0] = True
        try:
            check(*args)
        finally:
            checking[0] = False

    monkeypatch.setattr(ps.PayScheme, "payments", spy)
    monkeypatch.setattr(ps, "check_properties", checked)
    for scheme in _built_in_schemes(3):
        calls.clear()
        ps.marginal_incentive(GUMBEL, scheme, 0.3, draws=mc.BATCH + 1, seed=7)
        assert calls and all(calls), scheme
