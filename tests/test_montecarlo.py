import numpy as np
import pytest
from rank_reference import finite_difference_marginals

from tourney import distributions as dists
from tourney import equilibrium as eq
from tourney import montecarlo as mc

UNIF = dists.uniform(0.0, 1.0)
EXPO = dists.exponential(1.0)
GUMBEL = dists.gumbel()
HEAVY = dists.erf_exponential()
COST = eq.CostFunction()


def _design(dist, n, schedule, rho):
    return eq.TournamentDesign(standard=rho, schedule=schedule, cost=COST)


def _prize_values(x, efforts, e_star, rho, prizes):
    """Dense reference: player 1's prize per draw (rows) and per own effort
    (columns), ranking the rivals again at every effort."""
    rivals = e_star + x[:, 1:]
    rival_pass = rivals >= rho
    v = np.append(prizes, 0.0)
    out = np.empty((x.shape[0], efforts.size))
    for col, e in enumerate(efforts):
        y1 = e + x[:, 0]
        k = np.sum(rival_pass & (rivals > y1[:, None]), axis=1)
        out[:, col] = v[np.where(y1 >= rho, k, len(prizes))]
    return out


def _assert_grid_sums_match(x, grid, e_star, rho, prizes):
    grid = np.unique(np.append(grid, e_star))
    i_star = int(np.searchsorted(grid, e_star))
    w = _prize_values(x, grid, e_star, rho, prizes)
    d = w - w[:, i_star][:, None]
    dense = np.array([w.sum(axis=0), (w * w).sum(axis=0), d.sum(axis=0), (d * d).sum(axis=0)])
    sums, rank, _ = mc._grid_sums(x, grid, i_star, rho, prizes)
    assert np.max(np.abs(sums - dense)) <= 1e-9
    assert np.array_equal(np.append(prizes, 0.0)[rank], w[:, i_star])


ORACLE_FAMILIES = {
    "uniform": UNIF,
    "gumbel": GUMBEL,
    "erf_exponential": HEAVY,
    "pareto": dists.pareto(2.0),
    "red": dists.trimodal_example("red"),
}


@pytest.mark.parametrize("n", [2, 3, 10])
@pytest.mark.parametrize("family", sorted(ORACLE_FAMILIES))
def test_grid_sums_match_dense_reference(family, n):
    dist = ORACLE_FAMILIES[family]
    rng = np.random.default_rng([n, sorted(ORACLE_FAMILIES).index(family)])
    x = dist.sample((2000, n), rng)
    schedules = [
        eq.PrizeSchedule.winner_take_all(n),
        eq.PrizeSchedule.equal_sharing(n),
        eq.random_schedule(n, rng),
        eq.PrizeSchedule.equal_top(2, n),  # a zero differential above a non-zero one
    ]
    for schedule in schedules:
        e_star = float(rng.uniform(0.2, 0.8))
        rho = e_star + float(dist.ppf(rng.uniform(0.2, 0.7)))
        grid = np.linspace(0.0, COST.max_effort, 301)
        _assert_grid_sums_match(x, grid, e_star, rho, np.asarray(schedule.prizes))


def test_grid_sums_edge_cases():
    rng = np.random.default_rng(4)
    x = GUMBEL.sample((2000, 3), rng)
    prizes = np.asarray(eq.random_schedule(3, rng).prizes)
    # no standard: the first jump sits at -inf, below every grid point
    _assert_grid_sums_match(x, np.linspace(0.0, 1.5, 101), 0.4, -np.inf, prizes)
    # a narrow grid: many jumps fall below its start and beyond its end
    narrow = np.linspace(0.35, 0.45, 51)
    _assert_grid_sums_match(x, narrow, 0.4, 0.4 + 0.3, prizes)
    _assert_grid_sums_match(x, narrow, 0.4, -np.inf, prizes)
    # lattice noise: jumps land on grid points and scores tie with rivals'
    lattice = rng.integers(0, 8, size=(2000, 3)) / 4.0
    _assert_grid_sums_match(lattice, np.arange(0.0, 3.0, 0.25), 0.5, 1.25, prizes)
    # e* at either end of the grid
    _assert_grid_sums_match(x, np.linspace(0.4, 1.0, 31), 0.4, 0.7, prizes)
    _assert_grid_sums_match(x, np.linspace(-0.2, 0.4, 31), 0.4, 0.7, prizes)


def test_best_response_tally_equals_simulation():
    red = dists.trimodal_example("red")
    v = eq.PrizeSchedule.equal_top(2, 3)
    design = _design(red, 3, v, 1.4)
    rep = mc.verify_best_response(red, design, 0.4, grid_size=500, draws=40_000, seed=13)
    sim = mc.simulate_prize_probabilities(red, design, 0.4, 0.4, 40_000, 13)
    assert rep.rank_counts == sim.rank_counts
    assert rep.pass_fraction == sim.pass_fraction
    assert rep.at_least_prob == sim.at_least_prob


def test_seed_required_and_min_draws():
    design = _design(UNIF, 2, eq.PrizeSchedule.winner_take_all(2), 0.8)
    with pytest.raises(mc.SeedRequired):
        mc.simulate_prize_probabilities(UNIF, design, 0.3, 0.3, draws=10**4)
    with pytest.raises(ValueError, match="1e4"):
        mc.simulate_prize_probabilities(UNIF, design, 0.3, 0.3, draws=100, seed=1)
    with pytest.raises(ValueError, match="1e4"):
        mc.verify_best_response(UNIF, design, 0.3, draws=200, seed=1)


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
    with pytest.warns(eq.ConcavityWarning, match="gains"):
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
    fd = finite_difference_marginals(UNIF, design, 0.3)
    assert fd[0] == pytest.approx(1.0, abs=1e-3)

    red = dists.trimodal_example("red")
    design_red = _design(red, 3, eq.PrizeSchedule.winner_take_all(3), 0.4 + 1.0)
    fd_red = finite_difference_marginals(red, design_red, 0.4)
    ref = np.array([eq.marginal_benefit_rank(red, 3, r, 1.0) for r in (1, 2, 3)])
    assert np.max(np.abs(fd_red - ref)) < 1e-3
    # bottom rank derivative is the density at the threshold
    assert fd_red[-1] == pytest.approx(float(red.pdf(1.0)), abs=1e-3)


def test_finite_difference_marginals_simulated():
    design = _design(UNIF, 2, eq.PrizeSchedule.winner_take_all(2), 0.8)
    fd = finite_difference_marginals(
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
    # pinned bits at this seed
    assert rep.best_response_gap == float.fromhex("0x1.33c54bed07edep-3")
    assert rep.gap_se == float.fromhex("0x1.f6957b807ae4bp-11")


def test_grid_bias_uses_mode_density():
    # The density of inverse-exponential noise peaks at x = 1/2 with 4/e^2;
    # 4096 uniform points over its 1e10-wide support read about 1e-13.
    noise = dists.inverse_exponential()
    v = eq.PrizeSchedule.winner_take_all(3)
    sol = eq.solve_design(noise, 3, v, COST)
    rep = mc.verify_best_response(noise, _design(noise, 3, v, sol.standard), sol.effort,
                                  grid_size=200, draws=10**4, seed=3)
    step = float(np.max(np.diff(rep.effort_grid)))
    lipschitz = 4.0 * np.exp(-2.0) + COST.cprime(COST.max_effort)
    assert rep.grid_bias == pytest.approx(0.5 * lipschitz * step, rel=1e-12)


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
