import numpy as np
import pytest

from tourney import distributions as dists
from tourney import equilibrium as eq
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
