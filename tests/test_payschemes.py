import copy
import tracemalloc

import numpy as np
import payment_reference as ref
import pytest

from tourney import distributions as dists
from tourney import equilibrium as eq
from tourney import montecarlo as mc
from tourney import payschemes as ps

GUMBEL = dists.gumbel()
PARETO = dists.pareto(2.0)


def test_tournament_payments():
    # each row is one player of the outputs (3, 1, 2): its own, then its rivals'
    players = [[3.0, 1.0, 2.0], [1.0, 2.0, 3.0], [2.0, 3.0, 1.0]]
    wta = ps.rank_payscheme(eq.PrizeSchedule.winner_take_all(3), -np.inf)
    assert wta.pay(players).tolist() == [1.0, 0.0, 0.0]
    eps_high = ps.rank_payscheme(eq.PrizeSchedule.equal_sharing(3), 2.5)
    np.testing.assert_allclose(eps_high.pay(players), [1 / 3, 0.0, 0.0])
    eps_low = ps.rank_payscheme(eq.PrizeSchedule.equal_sharing(3), 0.0)
    np.testing.assert_allclose(eps_low.pay(players), [1 / 3, 1 / 3, 1 / 3])


def test_property_checks_pass_for_battery():
    rng = np.random.default_rng(4)
    y = rng.normal(0.5, 1.0, size=(200, 3))
    for scheme in ps.scheme_battery(3, 10, rng, -1.0, 2.0):
        ps.check_properties(scheme, y, rng)


def test_scheme_shape_checks():
    with pytest.raises(ValueError, match="output vectors must have 3 columns"):
        ps.constant_share(3).pay(np.zeros((2, 4)))
    with pytest.raises(ValueError, match="mixture components must share the player count"):
        ps.mixture(ps.constant_share(2), ps.constant_share(3), 0.5)


def test_property_check_of_no_outputs_is_an_error():
    with pytest.raises(ValueError, match=r"no outputs to check, got an empty block of shape \(0, 3\)"):
        ps.check_properties(ps.constant_share(3), np.zeros((0, 3)), np.random.default_rng(0))


def test_property_violations_detected():
    rng = np.random.default_rng(0)
    y = rng.normal(size=(100, 3))
    # each violator keeps every other property, so only its own check can raise
    pay_worst = ps.PayScheme(3, lambda yy: np.where(yy[:, 0] <= yy.min(axis=1), 1.0, 0.0), "pay-the-worst")
    with pytest.raises(ps.PropertyViolation, match="decreased"):
        ps.check_properties(pay_worst, y, rng)
    over_budget = ps.PayScheme(3, lambda yy: np.full(len(yy), 0.5), "half-each")
    with pytest.raises(ps.PropertyViolation, match="budget"):
        ps.check_properties(over_budget, y, rng)
    second_rival = ps.PayScheme(3, lambda yy: np.where(yy[:, 1] > 0, 1 / 3, 0.0), "reads-rival-1")
    with pytest.raises(ps.PropertyViolation, match="anonymity"):
        ps.check_properties(second_rival, y, rng)
    negative = ps.PayScheme(3, lambda yy: np.full(len(yy), -0.1), "negative")
    with pytest.raises(ps.PropertyViolation, match="negative"):
        ps.check_properties(negative, y, rng)


@pytest.mark.parametrize("seed", [0, 4])  # the first trial keeps the rivals' order, then swaps it
def test_property_check_names_the_first_failing_trial(seed):
    # the scheme falls in its own output, which every trial's bump shows,
    # and reads rival 1 alone, which the trials that swap the rivals show;
    # the first trial decides, its anonymity check first
    rng = np.random.default_rng(seed)
    y = rng.normal(size=(100, 3))
    scheme = ps.PayScheme(3, lambda yy: 0.1 + 0.05 * np.tanh(yy[:, 1] - 2.0 * yy[:, 0]), "both")
    swapped = copy.deepcopy(rng).permutation(2)[0] == 1
    with pytest.raises(ps.PropertyViolation, match="anonymity" if swapped else "decreased"):
        ps.check_properties(scheme, y, rng)


def test_property_trials_price_the_rows_of_a_loop_over_trials():
    # the trials are priced in one pay call for the permutations and one for
    # the bumps, on the rows a loop over trials draws, in the same rng order
    rng = np.random.default_rng(6)
    y = rng.normal(size=(50, 4))
    seen = []
    recorder = ps.PayScheme(4, lambda yy: seen.append(yy.copy()) or np.full(len(yy), 0.25), "recorder")
    twin = copy.deepcopy(rng)
    ps.check_properties(recorder, y, rng)
    permuted, bumped = [], []
    for _ in range(ps.PROPERTY_TRIALS):
        permuted.append(y[:, np.append(0, 1 + twin.permutation(3))])
        bumped.append(y.copy())
        bumped[-1][:, 0] += twin.uniform(0.01, 1.0)
    assert np.array_equal(seen[-2], np.concatenate(permuted))
    assert np.array_equal(seen[-1], np.concatenate(bumped))
    assert rng.random() == twin.random()


def test_property_checks_at_large_n_price_every_player_in_bounded_memory():
    # 16 rows at n = 1000 go to pay 65 players at a time, the last 25 in a
    # block of their own; one block of every player's rows would take 128 MB
    n = 1000
    rng = np.random.default_rng(8)
    y = rng.normal(0.5, 1.0, size=(16, n))
    scheme = ps.scheme_battery(n, 1, rng, -1.0, 2.0)[0]
    tracemalloc.start()
    try:
        ps.check_properties(scheme, y, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    # a budget just over 1 is exceeded only once every player is added up
    def share(c):
        return ps.PayScheme(n, lambda yy: np.full(len(yy), c / n), f"{c}/n each")

    ps.check_properties(share(1 - 1e-3), y, rng)
    with pytest.raises(ps.PropertyViolation, match="budget"):
        ps.check_properties(share(1 + 1e-3), y, rng)
    # only the last player, in the last block, is paid a negative amount
    y[:, -1] = -100.0
    last = ps.PayScheme(n, lambda yy: np.where(yy[:, 0] == -100.0, -0.1, 0.0), "last-negative")
    with pytest.raises(ps.PropertyViolation, match="negative"):
        ps.check_properties(last, y, rng)


def test_marginal_incentive_zero_scheme():
    zero = ps.PayScheme(3, lambda y: np.zeros(len(y)), "zero")
    [(est, se)] = ps.marginal_incentive(GUMBEL, [zero], 0.3, draws=20_000, seed=1)
    assert est == 0.0 and se == 0.0


def test_marginal_incentive_attains_wta_bound():
    xm = GUMBEL.find_modes().global_mode
    scheme = ps.rank_payscheme(eq.PrizeSchedule.winner_take_all(3), 0.3 + xm)
    [(est, se)] = ps.marginal_incentive(GUMBEL, [scheme], 0.3, draws=300_000, seed=5)
    ref = eq.marginal_benefit_rank(GUMBEL, 3, 1, xm)
    assert abs(est - ref) <= 4 * se


def test_marginal_incentive_constant_share_pareto():
    [(est, se)] = ps.marginal_incentive(PARETO, [ps.constant_share(2)], 0.5, draws=300_000, seed=6)
    assert abs(est - float(PARETO.pdf(1.0)) / 2) <= 4 * se


def test_marginal_incentive_requires_vanishing_top_density():
    u = dists.uniform(0.0, 1.0)
    with pytest.raises(ValueError, match="vanish"):
        ps.marginal_incentive(u, [ps.constant_share(2)], 0.3, draws=20_000, seed=2)


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
def test_vanishing_top_density_is_relative_to_the_peak(scale):
    with pytest.warns(UserWarning, match="vanish"):
        drop = dists.piecewise_linear([(0, 0), (scale, 1), (2 * scale, 1e-3)])
    with pytest.raises(ValueError, match="vanish"):
        ps.marginal_incentive(drop, [ps.constant_share(2)], 0.0, draws=10_000, seed=2)
    tail = dists.piecewise_linear([(0, 0), (scale, 1), (2 * scale, 1e-9)])
    [(est, _)] = ps.marginal_incentive(tail, [ps.constant_share(2)], 0.0, draws=10_000, seed=2)
    assert np.isfinite(est)


def test_likelihood_ratio_cap_is_relative_to_the_mode_density():
    # stretched by w, -f'/f and the estimate scale as 1 / w, and the cap's
    # verdict stays; an absolute cap of 1e6 raised on the 1e-6-wide ones
    def triangle(w):
        return dists.piecewise_linear([(0, 0), (w, 1), (2 * w, 1e-9)])

    for family, tol in ((lambda w: dists.gumbel(0.0, w), 1e-12), (triangle, 1e-11)):
        [(est, se)] = ps.marginal_incentive(family(1.0), [ps.constant_share(2)], 0.0, draws=10**4, seed=1)
        assert est > 0.0 and se > 0.0
        for w in (1e-6, 1e6):
            [got] = ps.marginal_incentive(family(w), [ps.constant_share(2)], 0.0, draws=10**4, seed=1)
            np.testing.assert_allclose(np.multiply(got, w), (est, se), rtol=tol, atol=0.0)
    # the triangle's quantile and -f'/f round at 1e-14 relative where f is
    # 1e-2 of its peak, near its top, whose rows dominate the standard error


def _sawtooth(teeth, cliff):
    """A mode of height 2 at x = 1, then ``teeth`` teeth on [2, 4], each
    rising from 0.5 to 1 and falling back to 0.5 over a cliff ``cliff``
    wide, where -f'/f is at least 1 / cliff times the mode's density."""
    width = 2.0 / teeth
    ends = 2.0 + width * np.arange(1, teeth + 1)
    xs = np.column_stack([ends - cliff, ends]).ravel().tolist()
    return dists.piecewise_linear([(0, 0), (1, 2), (2, 0.5), *zip(xs, [1.0, 0.5] * teeth), (5, 0)])


def test_unbounded_likelihood_ratio(settled_pool):
    # 4000 cliffs hold about 1e-3 of the mass, where -f'/f exceeds 2e6
    # times the mode's density; the cap is checked on the worker threads
    with pytest.raises(ps.UnboundedLikelihoodRatio, match="times the mode density"):
        ps.marginal_incentive(_sawtooth(4000, 5e-7), [ps.constant_share(2)], 0.1, draws=20_000, seed=3)
    settled_pool()
    # Pareto(alpha) has -f'/f = (alpha + 1) / x, at most (1 + 1 / alpha)
    # times its mode density alpha / x_min, so a narrow one is not spiky
    narrow = dists.pareto(alpha=2e6)
    [(est, se)] = ps.marginal_incentive(narrow, [ps.constant_share(2)], 0.1, draws=20_000, seed=3)
    assert abs(est - float(narrow.pdf(1.0)) / 2) <= 4 * se


def test_bound_check_error_reaches_caller_and_leaves_no_thread(settled_pool):
    # Pareto's rows all lie above its mode, so the short last block has 5
    # rows, and only there does the scheme raise

    def pay(y):
        if len(y) == 5:
            raise RuntimeError("last block failed")
        return np.full(len(y), 0.5)

    with pytest.raises(RuntimeError, match="last block failed"):
        ps.marginal_incentive(PARETO, [ps.PayScheme(2, pay)], 0.3, draws=3 * mc.BATCH + 5, seed=1)
    settled_pool()


def test_check_bound_battery_gumbel():
    # one pass prices the ten schemes on shared rows, as ``verify`` does
    rng = np.random.default_rng(10)
    lo, hi = GUMBEL.truncated_support(1e-6)
    schemes = ps.scheme_battery(3, 10, rng, 0.3 + lo, 0.3 + hi)
    checks = ps.check_incentive_bound(GUMBEL, schemes, 0.3, draws=50_000, seed=40)
    assert len(checks) == 10
    for chk in checks:
        assert chk.bound_kind == "top-prize-at-mode"
        assert chk.satisfied


def test_check_bound_battery_pareto():
    rng = np.random.default_rng(12)
    lo, hi = PARETO.truncated_support(1e-6)
    schemes = ps.scheme_battery(3, 10, rng, 0.5 + lo, 0.5 + min(hi, 30.0))
    checks = ps.check_incentive_bound(PARETO, schemes, 0.5, draws=50_000, seed=80)
    assert len(checks) == 10
    for chk in checks:
        assert chk.bound_kind == "lower-bound-density"
        assert chk.bound == pytest.approx(float(PARETO.pdf(1.0)) / 3, abs=1e-12)
        assert chk.satisfied


def test_check_bound_attained_by_optimal_schemes():
    xm = GUMBEL.find_modes().global_mode
    wta = ps.rank_payscheme(eq.PrizeSchedule.winner_take_all(3), 0.3 + xm)
    [chk] = ps.check_incentive_bound(GUMBEL, [wta], 0.3, draws=300_000, seed=90)
    assert chk.satisfied and abs(chk.estimate - chk.bound) <= 4 * chk.se

    eps = ps.rank_payscheme(eq.PrizeSchedule.equal_sharing(2), 0.5 + 1.0)
    [chk2] = ps.check_incentive_bound(PARETO, [eps], 0.5, draws=300_000, seed=91)
    assert chk2.satisfied and abs(chk2.estimate - chk2.bound) <= 4 * chk2.se


def test_no_bound_for_other_shapes():
    with pytest.raises(ps.NoBoundAvailable):
        ps.check_incentive_bound(dists.erf_exponential(), [ps.constant_share(3)], 0.3, draws=10_000, seed=1)


def test_scheme_from_spec():
    rank = ps.scheme_from_spec({"kind": "rank", "prizes": [0.6, 0.4, 0.0], "standard": 0.5}, 3)
    assert "rank" in rank.label
    mix = ps.scheme_from_spec(
        {"kind": "mixture", "first": {"kind": "constant"}, "second": {"kind": "linear_share", "cap": 1.0}, "weight": 0.5},
        3,
    )
    players = np.array([[2.0, 1.5, 0.5], [1.5, 0.5, 2.0], [0.5, 2.0, 1.5]])  # each own output first
    assert mix.pay(players).sum() <= 1.0 + 1e-12
    with pytest.raises(ValueError, match="unknown scheme kind"):
        ps.scheme_from_spec({"kind": "??"}, 3)


def _built_in_schemes(n):
    """Every built-in kind, with and without a standard, each with its full
    payments from ``payment_reference``; a linear share's cap is its
    standard, and -10 lies below every output drawn here."""
    wta, eps = eq.PrizeSchedule.winner_take_all(n), eq.PrizeSchedule.equal_sharing(n)
    drawn = eq.random_schedule(n, np.random.default_rng(n))
    return [
        (ps.rank_payscheme(wta), ref.rank(wta)),
        (ps.rank_payscheme(wta, 0.4), ref.rank(wta, 0.4)),
        (ps.rank_payscheme(eps, 0.4), ref.rank(eps, 0.4)),
        (ps.rank_payscheme(drawn, 0.2), ref.rank(drawn, 0.2)),
        (ps.capped_linear_share(n, -10.0), ref.linear_share(-10.0)),
        (ps.capped_linear_share(n, 0.6), ref.linear_share(0.6)),
        (ps.constant_share(n), ref.constant(n)),
        (ps.mixture(ps.rank_payscheme(wta, 0.4), ps.capped_linear_share(n, 0.6), 0.3),
         ref.mixture(ref.rank(wta, 0.4), ref.linear_share(0.6), 0.3)),
        (ps.mixture(ps.constant_share(n), ps.rank_payscheme(eps), 0.8),
         ref.mixture(ref.constant(n), ref.rank(eps), 0.8)),
    ]


def _battery(n, size, rng, y_low, y_high):
    """``scheme_battery`` schemes, each with its full payments."""
    twin = copy.deepcopy(rng)
    schemes = ps.scheme_battery(n, size, rng, y_low, y_high)
    return list(zip(schemes, ref.battery(n, size, twin, y_low, y_high)))


def _assert_player1_is_column_0(scheme, payments, y):
    got, want = scheme.pay(y), payments(y)[:, 0]
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), scheme


@pytest.mark.parametrize("n", [2, 3, 10])
def test_player1_payments_are_column_0_for_built_in_kinds(n):
    y = np.random.default_rng(20 + n).normal(0.5, 1.0, size=(500, n))
    for scheme, payments in _built_in_schemes(n):
        _assert_player1_is_column_0(scheme, payments, y)
        _assert_player1_is_column_0(scheme, payments, y[:1])
        _assert_player1_is_column_0(scheme, payments, y[:0])


def test_player1_payments_on_tied_outputs():
    y = np.array([[2.0, 2.0, 1.0], [2.0, 2.0, 2.0], [1.0, 2.0, 2.0], [2.0, 3.0, 2.0], [2.0, 1.0, 2.0]])
    prizes = eq.PrizeSchedule((0.5, 0.3, 0.2))
    for scheme, payments in _built_in_schemes(3) + [(ps.rank_payscheme(prizes, 2.0), ref.rank(prizes, 2.0))]:
        _assert_player1_is_column_0(scheme, payments, y)
    wta = ps.rank_payscheme(eq.PrizeSchedule.winner_take_all(3))
    assert wta.pay([[2.0, 2.0, 1.0]]).tolist() == [1.0]  # the tie goes to player 1


@pytest.mark.parametrize("n", [2, 3, 10, 30])
def test_player1_payments_are_column_0_for_battery(n):
    rng = np.random.default_rng(30 + n)
    y = rng.normal(0.5, 1.0, size=(400, n))
    for scheme, payments in _battery(n, 50, rng, -1.0, 2.0):
        _assert_player1_is_column_0(scheme, payments, y)


def _full_payment_incentive(dist, n, payments, effort, draws, seed):
    """Reference: the marginal incentive pricing every player on every draw
    and keeping player 1 above the mode, summed in the estimator's order."""
    xm = dist.find_modes().global_mode

    def work(m, rng):
        x = dist.sample((m, n), rng)
        lam = np.asarray(dist.likelihood_ratio(x[:, 0]))
        w1 = payments(effort + x)[:, 0]
        vals = np.where(x[:, 0] > xm, w1 * lam, 0.0)
        return float(vals.sum()), float(np.dot(vals, vals))

    total = total_sq = 0.0
    for block_sum, block_sq in mc._blocks(work, draws, mc.BATCH, seed):
        total += block_sum
        total_sq += block_sq
    mean = total / draws
    var = max(total_sq / draws - mean * mean, 0.0)
    return mean, float(np.sqrt(var / draws))


@pytest.mark.parametrize("n", [3, 10])
@pytest.mark.parametrize("dist", [GUMBEL, PARETO], ids=["gumbel", "pareto"])
def test_marginal_incentive_equals_full_payment_reference(dist, n):
    # Pareto's mode is its lower bound: every draw lies above it, so the
    # estimator draws the reference's noise and must match it bit for bit,
    # every scheme on the same rows of seed 60.  Gumbel's has 1 - 1/e of the
    # mass above it: the estimator draws only those rows, so it agrees with
    # the reference in law, within 4 SE.
    draws = mc.BATCH + 5  # a short last batch
    lo, hi = dist.truncated_support(1e-6)
    schemes = _built_in_schemes(n) + [
        (ps.PayScheme(n, lambda y: np.full(len(y), 1 / n), "bare"), ref.constant(n)),
        *_battery(n, 2, np.random.default_rng(n), 0.3 + lo, 0.3 + min(hi, 30.0)),
    ]
    estimates = ps.marginal_incentive(dist, [scheme for scheme, _ in schemes], 0.3, draws, seed=60)
    for k, ((scheme, payments), got) in enumerate(zip(schemes, estimates)):
        if dist is PARETO:
            assert got == _full_payment_incentive(dist, n, payments, 0.3, draws, 60), scheme
        else:
            want = _full_payment_incentive(dist, n, payments, 0.3, draws, 160 + k)
            assert abs(got[0] - want[0]) <= 4.0 * np.hypot(got[1], want[1]), scheme


def test_marginal_incentive_draws_rows_above_the_mode_only():
    # round(draws * S(x_m)) rows: player 1 above the mode on every row
    xm = GUMBEL.find_modes().global_mode
    drawn = []
    zero_rows = ps.PayScheme(3, lambda y: drawn.append(y.copy()) or np.zeros(len(y)), "records")
    assert ps.marginal_incentive(GUMBEL, [zero_rows], 0.0, draws=50_000, seed=4) == [(0.0, 0.0)]
    want = round(50_000 * float(GUMBEL.sf(xm)))
    rows = np.concatenate(drawn[-want // mc.BATCH:])  # the property check's calls come first
    assert len(rows) == want
    assert np.all(rows[:, 0] > xm)
    assert abs(np.mean(rows[:, 1:] > xm) - GUMBEL.sf(xm)) < 0.01  # the rivals are not conditioned


@pytest.mark.parametrize("dist", [GUMBEL, PARETO], ids=["gumbel", "pareto"])
def test_shared_pass_gives_scheme_0_the_one_scheme_result(dist):
    lo, hi = dist.truncated_support(1e-6)
    schemes = ps.scheme_battery(3, 4, np.random.default_rng(3), 0.3 + lo, 0.3 + min(hi, 30.0))
    draws = 2 * mc.BATCH + 5
    assert ps.marginal_incentive(dist, schemes, 0.3, draws, seed=7)[0] == \
        ps.marginal_incentive(dist, schemes[:1], 0.3, draws, seed=7)[0]
    assert ps.check_incentive_bound(dist, schemes, 0.3, draws, seed=7)[0] == \
        ps.check_incentive_bound(dist, schemes[:1], 0.3, draws, seed=7)[0]


@pytest.mark.parametrize("n", [3, 10])
@pytest.mark.parametrize("dist", [GUMBEL, PARETO], ids=["gumbel", "pareto"])
def test_shared_pass_agrees_in_law_with_each_schemes_own_stream(dist, n):
    # scheme k's own stream is seed + k, the key a one-scheme call gave it
    # when each scheme was priced on rows of its own
    lo, hi = dist.truncated_support(1e-6)
    schemes = ps.scheme_battery(n, 4, np.random.default_rng(n), 0.3 + lo, 0.3 + min(hi, 30.0))
    shared = ps.marginal_incentive(dist, schemes, 0.3, draws=20_000, seed=50)
    for k in range(1, len(schemes)):
        [own] = ps.marginal_incentive(dist, schemes[k:k + 1], 0.3, draws=20_000, seed=50 + k)
        assert abs(shared[k][0] - own[0]) <= 4.0 * np.hypot(shared[k][1], own[1]), schemes[k]


def test_shared_pass_checks_each_scheme_under_its_own_label():
    schemes = [ps.constant_share(3), ps.PayScheme(3, lambda y: np.full(len(y), 0.5), "half-each")]
    with pytest.raises(ps.PropertyViolation, match="^half-each: budget exceeded"):
        ps.marginal_incentive(GUMBEL, schemes, 0.3, draws=10_000, seed=1)
    with pytest.raises(ValueError, match="one player count; got counts \\[2, 3\\]"):
        ps.check_incentive_bound(GUMBEL, [ps.constant_share(3), ps.constant_share(2)], 0.3, 10_000, seed=1)
    with pytest.raises(ValueError, match="at least one scheme"):
        ps.check_incentive_bound(GUMBEL, [], 0.3, draws=10_000, seed=1)


def test_pay_that_writes_into_its_rows_raises_and_leaves_no_thread(settled_pool):
    # the rows are shared by every scheme of the call, so they are read-only;
    # the property check's rows are the scheme's own, and it passes there
    def pay(y):
        y[:, 0] += 0.0
        return np.full(len(y), 1 / 3)

    with pytest.raises(ValueError, match="read-only"):
        ps.marginal_incentive(PARETO, [ps.constant_share(3), ps.PayScheme(3, pay, "writer")], 0.3, draws=10_000, seed=1)
    settled_pool()


def test_each_worker_prices_every_block_from_one_buffer():
    # Pareto's rows all lie above its mode: 4 full blocks and a short one
    # per pass, drawn by two workers into one buffer each, which each keeps
    # for the next pass
    seen = []

    def pay(y):
        if not y.flags.writeable:  # the shared pass, not the property check
            seen.append((len(y), y.__array_interface__["data"][0]))
        return np.full(len(y), 1 / 3)

    scheme = ps.PayScheme(3, pay, "recorder")
    first = ps.marginal_incentive(PARETO, [scheme], 0.3, draws=4 * mc.BATCH + 5, seed=2)
    assert ps.marginal_incentive(PARETO, [scheme], 0.3, draws=4 * mc.BATCH + 5, seed=2) == first
    assert sorted(m for m, _ in seen) == [5] * 2 + [mc.BATCH] * 8
    assert len({pointer for _, pointer in seen}) <= 2


def _rivals_above(y):
    """The count of rivals strictly above player 1 on each row."""
    return np.sum(y[:, 1:] > y[:, :1], axis=1)


@pytest.mark.parametrize("n", [2, 3, 10])
def test_rank_form_is_the_payment_from_own_output_and_rivals_above(n):
    # on random rows and on tied ones, every kind with a rank form pays from
    # (x_1, K) what it pays from the whole row, bit for bit
    rng = np.random.default_rng(40 + n)
    y = np.concatenate([rng.normal(0.5, 1.0, size=(500, n)), rng.integers(0, 3, size=(200, n)) * 0.25])
    schemes = [scheme for scheme, _ in _built_in_schemes(n) + _battery(n, 20, rng, -1.0, 2.0)]
    ranked = [scheme for scheme in schemes if scheme._rank_form is not None]
    assert len(ranked) == 6  # four rank schemes, the constant and the constant-rank mixture
    for scheme in ranked:
        got, want = scheme._rank_form(y[:, 0], _rivals_above(y)), scheme.pay(y)
        assert got.tobytes() == want.tobytes(), scheme
    assert all(scheme._checked for scheme in schemes)


def test_library_kinds_have_the_properties_their_constructors_check():
    # what the spot-check tested on every call before: each kind passes it
    # at every n here, and the constructors refuse what would break it
    rng = np.random.default_rng(41)
    for n in (2, 3, 10, 30):
        y = rng.normal(0.5, 1.0, size=(256, n))
        for scheme, _ in _built_in_schemes(n) + _battery(n, 10, rng, -1.0, 2.0):
            ps.check_properties(scheme, y, rng)
    for cap in (np.inf, -np.inf, np.nan, True):
        with pytest.raises(ValueError, match="not finite|not a number"):
            ps.capped_linear_share(3, cap)
    for weight in (-0.1, 1.1, np.nan):
        with pytest.raises(ValueError, match=r"mixture weight must lie in \[0, 1\]"):
            ps.mixture(ps.constant_share(3), ps.constant_share(3), weight)
    with pytest.raises(ValueError, match="true is not a number"):
        ps.mixture(ps.constant_share(3), ps.constant_share(3), True)
    for prizes, named in [((0.5, 0.6, -0.1), "nonnegative"), ((0.2, 0.5, 0.3), "weakly decreasing"),
                          ((0.6, 0.3, 0.0), "sum to 1"), ((np.nan, 0.5, 0.5), "finite")]:
        with pytest.raises(ValueError, match=named):
            ps.rank_payscheme(eq.PrizeSchedule(prizes))
    # a user's scheme is neither checked nor priced by rank, and a mixture is
    # checked, and has a rank form, only where both parts do
    custom = ps.PayScheme(3, lambda y: np.full(len(y), 1 / 3), "custom")
    assert not custom._checked and custom._rank_form is None
    mixed = ps.mixture(custom, ps.constant_share(3), 0.5)
    assert not mixed._checked and mixed._rank_form is None
    linear = ps.mixture(ps.constant_share(3), ps.capped_linear_share(3, 0.0), 0.5)
    assert linear._checked and linear._rank_form is None
    ranked = ps.mixture(ps.constant_share(3), ps.rank_payscheme(eq.PrizeSchedule.winner_take_all(3)), 0.5)
    assert ranked._checked and ranked._rank_form is not None


def test_a_custom_scheme_that_breaks_a_property_still_raises():
    # not checked, so spot-checked before any row is drawn, alone, beside or
    # mixed with a library kind
    def over(y):
        return np.full(len(y), 0.6)

    for schemes in ([ps.PayScheme(3, over, "over")],
                    [ps.constant_share(3), ps.PayScheme(3, over, "over")],
                    [ps.mixture(ps.PayScheme(3, over, "over"), ps.constant_share(3), 0.9)]):
        with pytest.raises(ps.PropertyViolation, match="budget exceeded"):
            ps.marginal_incentive(GUMBEL, schemes, 0.3, draws=10_000, seed=1)


def test_a_custom_scheme_is_priced_by_the_payment_it_was_checked_on():
    # a user cannot hand in a rank form beside ``pay``: one paying 0.9 from
    # (x_1, K) and 1/3 from the rows passed the spot-check and was priced
    # at 0.329 from the rank form, over the budget
    third = ps.PayScheme(3, lambda y: np.full(len(y), 1 / 3), "third")
    with pytest.raises(TypeError):
        ps.PayScheme(3, third.pay, "third", lambda x1, k: np.full(len(x1), 0.9))
    # priced from the dense rows, as the constant share is beside it
    [alone] = ps.marginal_incentive(GUMBEL, [third], 0.3, draws=10_000, seed=1)
    beside = ps.marginal_incentive(GUMBEL, [third, ps.constant_share(3)], 0.3, draws=10_000, seed=1)
    assert alone == beside[0] == beside[1]
    assert abs(alone[0]) < 0.329 / 2


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("n", [3, 10, 300])
@pytest.mark.parametrize("dist", [GUMBEL, PARETO], ids=["gumbel", "pareto"])
def test_rank_form_estimate_agrees_with_dense_pricing(dist, n, seed):
    # the rank schemes priced from (x_1, K) against the same payments priced
    # on dense rows, on a stream of their own: within 4 combined SE
    rng = np.random.default_rng(seed)
    lo, hi = dist.truncated_support(1e-6)
    standard = 0.3 + rng.uniform(lo, min(hi, 10.0))
    schemes = [ps.rank_payscheme(eq.PrizeSchedule.winner_take_all(n)),
               ps.rank_payscheme(eq.random_schedule(n, rng), standard),
               ps.mixture(ps.constant_share(n), ps.rank_payscheme(eq.PrizeSchedule.equal_sharing(n), standard), 0.4)]
    dense = [ps._built(ps.PayScheme(n, scheme.pay, scheme.label)) for scheme in schemes]
    ranked = ps.marginal_incentive(dist, schemes, 0.3, draws=20_000, seed=seed)
    priced = ps.marginal_incentive(dist, dense, 0.3, draws=20_000, seed=100 + seed)
    for scheme, (est, se), (want, want_se) in zip(schemes, ranked, priced):
        assert se > 0.0
        assert abs(est - want) <= 4.0 * np.hypot(se, want_se), scheme


@pytest.mark.parametrize("dist", [GUMBEL, PARETO], ids=["gumbel", "pareto"])
def test_rank_scheme_alone_agrees_with_it_beside_a_dense_scheme(dist):
    # beside a linear share the call prices it on dense rows, alone from
    # (x_1, K): the two agree in law
    rank = ps.rank_payscheme(eq.PrizeSchedule.winner_take_all(10))
    [alone] = ps.marginal_incentive(dist, [rank], 0.3, draws=50_000, seed=8)
    beside = ps.marginal_incentive(dist, [rank, ps.capped_linear_share(10, 2.0)], 0.3, draws=50_000, seed=8)[0]
    assert alone != beside
    assert abs(alone[0] - beside[0]) <= 4.0 * np.hypot(alone[1], beside[1])


def test_rank_count_has_its_law_given_own_output():
    # a rank form sees x_1 and K alone; given x_1, K ~ Binomial(n - 1, S(x_1))
    n, seen = 10, []

    def record(x1, k):
        seen.append((x1.copy(), np.asarray(k).copy()))
        return np.zeros(len(x1))

    scheme = ps._built(ps.PayScheme(n, lambda y: np.zeros(len(y)), "records"), record)
    ps.marginal_incentive(GUMBEL, [scheme], 0.3, draws=50_000, seed=9)
    x1, k = (np.concatenate(part) for part in zip(*seen))
    assert len(x1) == round(50_000 * float(GUMBEL.sf(GUMBEL.find_modes().global_mode)))
    assert k.min() >= 0 and k.max() <= n - 1
    p = GUMBEL.sf(x1 - 0.3)
    resid = k - (n - 1) * p
    assert abs(resid.mean()) <= 4.0 * np.sqrt(np.mean((n - 1) * p * (1 - p)) / len(k))


def test_dense_rows_at_large_n_come_in_bounded_blocks():
    # at n = 1000 a block of BATCH rows would hold 16.4 million outputs
    n, seen = 1000, []

    def record(y):
        if not y.flags.writeable:
            seen.append(y.shape)
        return np.zeros(len(y))

    scheme = ps._built(ps.PayScheme(n, record, "records"))
    ps.marginal_incentive(PARETO, [scheme], 0.3, draws=10_000, seed=3)
    assert sum(m for m, _ in seen) == 10_000
    assert max(m for m, _ in seen) * n <= 2**20
    assert {cols for _, cols in seen} == {n}
