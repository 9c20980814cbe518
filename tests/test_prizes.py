import numpy as np
import pytest
from kernel_reference import per_row_integrals
from mp_reference import coefficient_mp

from tourney import distributions as dists
from tourney import equilibrium as eq
from tourney import prizes

EXPO = dists.exponential(1.0)
GUMBEL = dists.gumbel()
HEAVY = dists.erf_exponential()
RED = dists.trimodal_example("red")
PARETO = dists.pareto(2.0)
COST = eq.CostFunction()


@pytest.mark.parametrize(
    "dist, n",
    [(RED, 2), (PARETO, 3), (HEAVY, 10), (RED, 30), (HEAVY, 30), (GUMBEL, 100)],
    ids=["red-2", "pareto-3", "erf_exponential-10", "red-30", "erf_exponential-30", "gumbel-100"],
)
def test_rank_score_array_matches_per_rank_loop(dist, n, monkeypatch):
    # all ranks in one kernel pass give each rank's bits from its own pass
    t = dist.find_modes().global_mode
    got = prizes.rank_score(dist, n, np.arange(1, n + 1), t)
    assert got.shape == (n,)
    monkeypatch.setattr(eq, "_integrals_above", per_row_integrals)
    loop = np.array([prizes.rank_score(dist, n, r, t) for r in range(1, n + 1)])
    assert got.tobytes() == loop.tobytes()


def test_rank_score_batch_names_failing_rank():
    with pytest.raises(ValueError, match="rank 4 outside 1..3"):
        prizes.rank_score(GUMBEL, 3, np.array([1, 4]), 0.0)


def test_pareto_scores_closed_form():
    # B_r(1) / r with B = (16/35, 8/7, 2) for Pareto(2), n = 3
    for r, exact in zip((1, 2, 3), (16 / 35, 4 / 7, 2 / 3)):
        assert prizes.rank_score(PARETO, 3, r, 1.0) == pytest.approx(exact, abs=1e-9)
    rep, sol = prizes.optimal_prizes(PARETO, 3, eq.CostFunction(kappa=3.0, beta=2.0))
    assert rep.regime == "EPS" and rep.r_star == 3
    assert rep.threshold == 1.0
    assert sol.concavity_ok


def test_gumbel_scores_many_players():
    n = 30
    xm = GUMBEL.find_modes().global_mode
    for r in range(1, n + 1):
        prizes.rank_score(GUMBEL, n, r, xm)  # QuadratureFailure otherwise
    for r in (1, 15, 16, 29):
        assert eq.marginal_benefit_rank(GUMBEL, n, r, xm) == pytest.approx(
            coefficient_mp("gumbel", n, r, xm), abs=1e-9
        )


def test_exponential_scores_all_tie():
    for n in (2, 4):
        scores = [prizes.rank_score(EXPO, n, r, 0.0) for r in range(1, n + 1)]
        assert np.allclose(scores, 1.0 / n, atol=1e-9)


def test_gumbel_scores_decreasing():
    xm = GUMBEL.find_modes().global_mode
    scores = [prizes.rank_score(GUMBEL, 3, r, xm) for r in (1, 2, 3)]
    assert scores[0] > scores[1] > scores[2]


def test_heavy_tail_scores_increasing():
    scores = [prizes.rank_score(HEAVY, 3, r, 0.0) for r in (1, 2, 3)]
    assert scores[0] < scores[1] < scores[2]
    assert scores[2] == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_optimal_prizes_regimes():
    rep, sol = prizes.optimal_prizes(GUMBEL, 3, COST)
    assert rep.regime == "WTA" and rep.r_star == 1
    assert rep.schedule.prizes == (1.0, 0.0, 0.0)

    with pytest.warns(eq.ConcavityWarning, match="gains"):
        rep2, sol2 = prizes.optimal_prizes(HEAVY, 3, COST)
    assert rep2.regime == "EPS" and rep2.r_star == 3
    assert sol2.effort == pytest.approx(2 / 3, abs=1e-12)
    assert sol2.pass_probability == 1.0

    rep3, _ = prizes.optimal_prizes(EXPO, 4, COST)
    assert rep3.regime == "tie"
    assert rep3.tie_set == (1, 2, 3, 4)
    assert rep3.r_star == 1  # canonical smallest


def test_sufficiency_gate_and_override():
    with pytest.raises(prizes.SufficiencyViolated):
        prizes.optimal_prizes(RED, 3, COST)
    rep, sol = prizes.optimal_prizes(RED, 3, COST, threshold=1.0)
    assert rep.threshold == 1.0
    assert rep.r_star == 1  # top-heavy wins at the high mode
    assert sol.threshold == 1.0


def test_budget_identity_exact():
    for n in (2, 3, 5, 8):
        rep, _ = prizes.optimal_prizes(GUMBEL, n, COST)
        d = rep.schedule.differentials
        assert float(np.dot(np.arange(1, n + 1), d)) == 1.0


def test_wta_dominates_under_ifr():
    # hazard increasing above the threshold makes the most unequal schedule best
    cases = [(GUMBEL, GUMBEL.find_modes().global_mode), (RED, 1.0)]
    rng = np.random.default_rng(11)
    for d, t in cases:
        assert d.classify_hazard(above=t) == "IFR"
        g_wta = eq.total_marginal_benefit(d, 3, eq.PrizeSchedule.winner_take_all(3), t)
        for _ in range(100):
            v = eq.random_schedule(3, rng)
            assert eq.total_marginal_benefit(d, 3, v, t) <= g_wta + 1e-9


@pytest.mark.parametrize("d,t", [(GUMBEL, None), (HEAVY, None), (EXPO, None)])
def test_corner_beats_random_simplex(d, t):
    n = 3
    t = d.find_modes().global_mode if t is None else t
    best_corner = max(
        eq.total_marginal_benefit(d, n, eq.PrizeSchedule.equal_top(s, n), t) for s in range(1, n + 1)
    )
    rng = np.random.default_rng(23)
    coeff = np.array([eq.marginal_benefit_rank(d, n, r, t) for r in range(1, n + 1)])
    draws = rng.dirichlet(np.ones(n), size=10_000)
    v = -np.sort(-draws, axis=1)
    diffs = np.column_stack([v[:, :-1] - v[:, 1:], v[:, -1]])
    best_random = float(np.max(diffs @ coeff))
    assert best_random <= best_corner + 1e-6


def test_threshold_weakly_decreases_with_prize_equality():
    for name in ("red", "green", "blue"):
        d = dists.trimodal_example(name)
        ts = [
            eq.optimal_threshold(d, 3, eq.PrizeSchedule.equal_top(s, 3)).threshold
            for s in (1, 2, 3)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(ts, ts[1:]))
