import numpy as np
import pytest

from tourney import distributions as dists
from tourney import equilibrium as eq
from tourney import montecarlo as mc

UNIF = dists.uniform(0.0, 1.0)
EXPO = dists.exponential(1.0)
GUMBEL = dists.gumbel()
HEAVY = dists.erf_exponential()
COST = eq.CostFunction.quadratic()


def _design(dist, n, schedule, rho):
    return eq.TournamentDesign(standard=rho, schedule=schedule, cost=COST)


def test_seed_required_and_min_draws():
    design = _design(UNIF, 2, eq.PrizeSchedule.winner_take_all(2), 0.8)
    with pytest.raises(mc.SeedRequired):
        mc.simulate_prize_probabilities(UNIF, design, 0.3, 0.3, draws=10**4)
    with pytest.raises(ValueError, match="1e4"):
        mc.simulate_prize_probabilities(UNIF, design, 0.3, 0.3, draws=100, seed=1)


def test_bit_identical_reproducibility():
    design = _design(UNIF, 2, eq.PrizeSchedule.winner_take_all(2), 0.8)
    a = mc.simulate_prize_probabilities(UNIF, design, 0.3, 0.3, draws=50_000, seed=9)
    b = mc.simulate_prize_probabilities(UNIF, design, 0.3, 0.3, draws=50_000, seed=9)
    assert a == b
    c = mc.verify_best_response(UNIF, design, 0.3, grid_size=50, draws=50_000, seed=9)
    d = mc.verify_best_response(UNIF, design, 0.3, grid_size=50, draws=50_000, seed=9)
    assert c == d


def test_no_standard_gives_uniform_ranks():
    design = _design(GUMBEL, 3, eq.PrizeSchedule.equal_top(2, 3), -np.inf)
    rep = mc.simulate_prize_probabilities(GUMBEL, design, 0.4, 0.4, draws=300_000, seed=2)
    for r, p in enumerate(rep.at_least_prob, start=1):
        se = max(rep.at_least_se[r - 1], 1e-9)
        assert abs(p - r / 3) <= 3 * se + 1e-9


def test_uniform_closed_form_probability():
    design = _design(UNIF, 2, eq.PrizeSchedule.winner_take_all(2), 0.8)
    rep = mc.simulate_prize_probabilities(UNIF, design, 0.3, 0.3, draws=10**6, seed=7)
    assert abs(rep.at_least_prob[0] - 0.375) <= 3 * rep.at_least_se[0]


def test_heavy_tail_equal_sharing_everyone_passes():
    sol = eq.solve_design(HEAVY, 3, eq.PrizeSchedule.equal_sharing(3), COST)
    design = _design(HEAVY, 3, eq.PrizeSchedule.equal_sharing(3), sol.standard)
    rep = mc.simulate_prize_probabilities(HEAVY, design, sol.effort, sol.effort, draws=10**5, seed=3)
    assert rep.pass_fraction == 1.0
    assert rep.at_least_prob[-1] == 1.0


def test_montecarlo_matches_quadrature_battery():
    rng = np.random.default_rng(123)
    pool = [UNIF, EXPO, GUMBEL, HEAVY, dists.trimodal_example("red")]
    for k in range(6):
        d = pool[k % len(pool)]
        n = int(rng.integers(2, 5))
        v = eq.random_schedule(n, rng)
        t = float(d.ppf(rng.uniform(0.05, 0.9)))
        e_star = float(rng.uniform(0.1, 0.8))
        design = _design(d, n, v, e_star + t)
        rep = mc.simulate_prize_probabilities(d, design, e_star, e_star, draws=200_000, seed=1000 + k)
        for r in range(1, n + 1):
            quad = eq.prize_probability(d, n, r, e_star, e_star, design.standard)
            se = max(rep.at_least_se[r - 1], 1.0 / rep.draws)
            assert abs(rep.at_least_prob[r - 1] - quad) <= 4 * se


def test_finite_difference_marginals_quadrature():
    design = _design(UNIF, 2, eq.PrizeSchedule.winner_take_all(2), 0.8)
    fd = mc.finite_difference_marginals(UNIF, design, 0.3)
    assert fd[0] == pytest.approx(1.0, abs=1e-3)

    red = dists.trimodal_example("red")
    design_red = _design(red, 3, eq.PrizeSchedule.winner_take_all(3), 0.4 + 1.0)
    fd_red = mc.finite_difference_marginals(red, design_red, 0.4)
    ref = np.array([eq.marginal_benefit_rank(red, 3, r, 1.0) for r in (1, 2, 3)])
    assert np.max(np.abs(fd_red - ref)) < 1e-3
    # bottom rank derivative is the density at the threshold
    assert fd_red[-1] == pytest.approx(float(red.pdf(1.0)), abs=1e-3)


def test_finite_difference_marginals_simulated():
    design = _design(UNIF, 2, eq.PrizeSchedule.winner_take_all(2), 0.8)
    fd = mc.finite_difference_marginals(
        UNIF, design, 0.3, step=5e-3, method="simulate", draws=400_000, seed=21
    )
    assert fd[0] == pytest.approx(1.0, abs=5e-2)


def test_best_response_certifies_equilibrium():
    v = eq.PrizeSchedule.winner_take_all(2)
    sol = eq.solve_design(EXPO, 2, v, COST)
    design = _design(EXPO, 2, v, sol.standard)
    rep = mc.verify_best_response(EXPO, design, sol.effort, grid_size=120, draws=200_000, seed=42)
    assert rep.certified
    assert rep.best_response_gap <= 3 * rep.gap_se + rep.grid_bias


def test_best_response_flags_disequilibrium():
    v = eq.PrizeSchedule.winner_take_all(2)
    sol = eq.solve_design(EXPO, 2, v, COST)
    design = _design(EXPO, 2, v, sol.standard)
    bad = sol.effort + 0.3 * COST.max_effort
    rep = mc.verify_best_response(EXPO, design, bad, grid_size=120, draws=200_000, seed=42)
    assert not rep.certified
    assert rep.best_response_gap > 5 * rep.gap_se


def test_common_random_numbers_keep_curve_smooth():
    v = eq.PrizeSchedule.winner_take_all(2)
    sol = eq.solve_design(EXPO, 2, v, COST)
    design = _design(EXPO, 2, v, sol.standard)
    rep = mc.verify_best_response(EXPO, design, sol.effort, grid_size=100, draws=100_000, seed=8)
    payoffs = np.asarray(rep.payoffs)
    grid = np.asarray(rep.effort_grid)
    lo, hi = EXPO.truncated_support()
    lipschitz = float(np.max(EXPO.pdf(np.linspace(lo, hi, 2048)))) + COST.cprime(COST.max_effort)
    slack = 10.0 / np.sqrt(rep.draws)
    assert np.all(np.abs(np.diff(payoffs)) <= lipschitz * np.diff(grid) + slack)


def test_tally_csv(tmp_path):
    design = _design(UNIF, 2, eq.PrizeSchedule.winner_take_all(2), 0.8)
    rep = mc.simulate_prize_probabilities(UNIF, design, 0.3, 0.3, draws=10**4, seed=5)
    path = tmp_path / "tally.csv"
    mc.write_tally_csv(rep, str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "rank,count,frequency"
    counts = [int(line.split(",")[1]) for line in lines[1:]]
    assert sum(counts) == rep.draws
