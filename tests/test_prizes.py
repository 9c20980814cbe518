import tracemalloc
from contextlib import nullcontext

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
    assert sol.threshold == 1.0
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


def test_joint_design_and_override():
    # winner-take-all peaks at the upper mode 1.0, above the global mode 0.5
    rep, sol = prizes.optimal_prizes(RED, 3, COST)
    assert (sol.threshold, rep.regime) == (1.0, "WTA")
    rep, sol = prizes.optimal_prizes(RED, 3, COST, threshold=1.0)
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
        start, hazard = d.find_modes().hazard[-1]
        assert hazard == "IFR" and start <= t
        g_wta = eq.total_marginal_benefit(d, 3, eq.PrizeSchedule.winner_take_all(3), t)
        for _ in range(100):
            v = eq.random_schedule(3, rng)
            assert eq.total_marginal_benefit(d, 3, v, t) <= g_wta + 1e-9


@pytest.mark.parametrize("n", [300, 1000])
@pytest.mark.parametrize(
    "dist", [GUMBEL, dists.logistic(), PARETO, HEAVY], ids=["gumbel", "logistic", "pareto", "erf_exponential"]
)
def test_regime_follows_hazard_class_at_many_players(dist, n):
    # IFR noise above the mode gives winner-take-all, DFR noise equal prizes
    # for all.  At n = 1000, B_999/999 and B_1000/1000 on erf-exponential
    # noise are 5.0e-10 apart, within an absolute 1e-9 but far beyond each
    # score's own error.
    ((_, hazard),) = dist.find_modes().hazard  # one monotone piece over the support
    regime = {"IFR": "WTA", "DFR": "EPS"}[hazard]
    rep, _ = prizes.optimal_prizes(dist, n, COST)
    assert (rep.regime, rep.tie_set) == (regime, (1,) if regime == "WTA" else (n,))


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


TRIMODAL = [(name, n) for name in ("red", "green", "blue") for n in (3, 4, 5, 10, 30)]
# the cases where every rank peaks at the global mode 0.5
HOLDS = {("green", 3), ("green", 4), ("green", 5), ("blue", 3), ("blue", 4)}
# the joint designs that are no equilibrium at kappa = 1
NO_EQUILIBRIUM = {("red", 10), ("red", 30), ("blue", 5), ("blue", 10)}


@pytest.mark.parametrize("name, n", TRIMODAL)
def test_joint_design_on_trimodal_noise(name, n, monkeypatch):
    d = dists.trimodal_example(name)
    gm = d.find_modes().global_mode
    ranks = np.arange(1, n + 1)
    modes, b = eq._mode_values(d, n, eq._unit(n, ranks))
    peaks = modes[np.argmax(b >= b.max(axis=1, keepdims=True) - eq.THRESHOLD_TIE_TOL, axis=1)]
    # the standard at the global mode is optimal for every schedule exactly
    # when every rank's B_r peaks there
    holds = bool(np.all(peaks == gm))
    assert eq.global_mode_sufficiency(d, n).holds == holds == ((name, n) in HOLDS)
    # each corner alone: G = B_r / r peaks where rank r's row does
    corners = [eq.optimal_threshold(d, n, eq.PrizeSchedule.equal_top(r, n)) for r in ranks]
    assert [c.threshold for c in corners] == list(peaks)

    with pytest.warns(eq.ConcavityWarning) if (name, n) in NO_EQUILIBRIUM else nullcontext():
        rep, sol = prizes.optimal_prizes(d, n, COST)
    # the best corner, ties to the smallest standard, then rank count
    top = max(c.marginal_benefit for c in corners)
    best = min((c.threshold, r) for r, c in zip(ranks, corners) if c.marginal_benefit >= top - eq.THRESHOLD_TIE_TOL)
    assert (sol.threshold, rep.r_star, rep.regime) == best + ("WTA",)
    assert sol.threshold == (gm if holds else 1.0)
    assert rep.rank_scores[rep.r_star - 1] == pytest.approx(top, abs=1e-12)
    assert sol.concavity_ok == ((name, n) not in NO_EQUILIBRIUM)
    if holds:
        # the standard given as the global mode gives the same bits (repr
        # tells every float apart) and solves the same design
        solved = []
        monkeypatch.setattr(prizes, "solve_design", lambda *args, **kwargs: solved.append((args, kwargs)) or sol)
        assert repr((rep, sol)) == repr(prizes.optimal_prizes(d, n, COST, threshold=gm))
        assert solved == [((d, n, rep.schedule, COST), {"threshold": sol.threshold})]


def test_joint_table_at_many_players_keeps_no_dense_rank_table():
    # the one-prize schedules are a boolean mask, not an n x n table of
    # doubles (7.6 MiB at n = 1000)
    tracemalloc.start()
    try:
        prizes.optimal_prizes(GUMBEL, 1000, COST)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
