import dataclasses
import functools
import hashlib
import multiprocessing
import re
import threading
import time
import tracemalloc

import numpy as np
import pytest
from grid_sums_reference import grid_sums as reference_grid_sums
from rank_reference import finite_difference_marginals

from tourney import audit
from tourney import distributions as dists
from tourney import equilibrium as eq
from tourney import montecarlo as mc
from tourney import payschemes as ps

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


def _scan_sums(dist, u, grid, i_star, rho, prizes):
    """``_bin_block`` and ``_finish`` on the draws the uniforms ``u`` give:
    player 1's uniform, the count of rivals whose uniform exceeds its own,
    and the rivals' uniforms sorted from the best down, where the scan walks
    them (``_scan_block``), binned on both of ``verify_best_response``'s
    tables; the sums, the rank tally and the block's table."""
    walk = np.ascontiguousarray(np.sort(u[:, 1:], axis=1)[:, ::-1].T)  # row j holds U_(j+1)
    k = np.count_nonzero(u[:, 1:] > u[:, :1], axis=1)
    tau = np.minimum.accumulate(dist.cdf(rho - grid))
    table, tally = mc._bin_block(dist, u[:, 0], k, walk, tau, mc._Cells(grid), mc._Cells(-tau), i_star, rho, prizes)
    return mc._finish(table, tally, i_star, prizes), tally, table


def _assert_grid_sums_match(dist, u, grid, e_star, rho, prizes):
    """The scan's sums and rank tally on the uniforms ``u`` against the
    dense reference on the noise ppf(u), a uniform of 1 taken as the largest
    that ``Generator.random`` draws, as the scan maps it."""
    x = dist.ppf(np.minimum(u, mc.UNIT_MAX))
    grid = np.unique(np.append(grid, e_star))
    i_star = int(np.searchsorted(grid, e_star))
    w = _prize_values(x, grid, e_star, rho, prizes)
    d = w - w[:, i_star][:, None]
    dense = np.array([w.sum(axis=0), d.sum(axis=0), (d * d).sum(axis=0)])
    sums, tally, _ = _scan_sums(dist, u, grid, i_star, rho, prizes)
    assert np.max(np.abs(sums - dense)) <= 1e-9
    rivals, y1 = e_star + x[:, 1:], e_star + x[:, 0]
    rank = np.where(y1 >= rho, np.sum((rivals >= rho) & (rivals > y1[:, None]), axis=1), len(prizes))
    assert np.array_equal(tally, np.bincount(rank, minlength=len(prizes) + 1))


ORACLE_FAMILIES = {
    "uniform": UNIF,
    "gumbel": GUMBEL,
    "erf_exponential": HEAVY,
    "pareto": dists.pareto(2.0),
    "red": dists.trimodal_example("red"),
}


@pytest.mark.parametrize("n", [2, 3, 10, 30])
@pytest.mark.parametrize("family", sorted(ORACLE_FAMILIES))
def test_grid_sums_match_dense_reference(family, n):
    dist = ORACLE_FAMILIES[family]
    rng = np.random.default_rng([n, sorted(ORACLE_FAMILIES).index(family)])
    u = rng.random((2000, n))
    schedules = [
        eq.PrizeSchedule.winner_take_all(n),
        eq.PrizeSchedule.equal_sharing(n),
        eq.random_schedule(n, rng),
        eq.PrizeSchedule.equal_top(2, n),  # a zero differential above a non-zero one
        eq.PrizeSchedule.equal_top(n - 1, n),  # one level, set by the weakest rival
    ]
    for schedule in schedules:
        e_star = float(rng.uniform(0.2, 0.8))
        rho = e_star + float(dist.ppf(rng.uniform(0.2, 0.7)))
        grid = np.linspace(0.0, COST.max_effort, 301)
        _assert_grid_sums_match(dist, u, grid, e_star, rho, np.asarray(schedule.prizes))


def test_grid_sums_edge_cases():
    rng = np.random.default_rng(4)
    u = rng.random((2000, 3))
    prizes = np.asarray(eq.random_schedule(3, rng).prizes)
    # no standard: the first jump sits at -inf, below every grid point
    _assert_grid_sums_match(GUMBEL, u, np.linspace(0.0, 1.5, 101), 0.4, -np.inf, prizes)
    # a narrow grid: many jumps fall below its start and beyond its end
    narrow = np.linspace(0.35, 0.45, 51)
    _assert_grid_sums_match(GUMBEL, u, narrow, 0.4, 0.4 + 0.3, prizes)
    _assert_grid_sums_match(GUMBEL, u, narrow, 0.4, -np.inf, prizes)
    # lattice uniforms under the identity ppf: jumps land on grid points,
    # and player 1's uniform, so its score, ties with rivals'
    lattice = rng.integers(0, 8, size=(2000, 3)) / 8.0
    _assert_grid_sums_match(UNIF, lattice, np.arange(0.0, 1.5, 0.125), 0.25, 0.625, prizes)
    # e* at either end of the grid
    _assert_grid_sums_match(GUMBEL, u, np.linspace(0.4, 1.0, 31), 0.4, 0.7, prizes)
    _assert_grid_sums_match(GUMBEL, u, np.linspace(-0.2, 0.4, 31), 0.4, 0.7, prizes)
    # a walked uniform of 1, to which V^(1/k) can round, where Gumbel's ppf
    # divides by zero
    u[::7, 1:] = 1.0
    _assert_grid_sums_match(GUMBEL, u, np.linspace(0.0, 1.5, 101), 0.4, 0.7, prizes)


E_MAX = COST.max_effort


def _cell_grids():
    """``verify``'s grids with e* at 0, at max_effort, on and off the
    linspace and a float above a linspace point."""
    for size in (1, 2, 50, 10**4):
        on = np.linspace(0.0, E_MAX, size)[size // 2]
        for e_star in (0.0, E_MAX, on, 0.37 * E_MAX, np.nextafter(on, np.inf)):
            yield mc._effort_grid(E_MAX, size, e_star)[0]


def test_cells_equal_searchsorted():
    rng = np.random.default_rng(24)
    for grid in _cell_grids():
        span = max(grid[-1] - grid[0], 1.0)
        pos = np.concatenate([
            rng.uniform(grid[0] - span, grid[-1] + span, 4000),
            grid, np.nextafter(grid, -np.inf), np.nextafter(grid, np.inf),
            [grid[0] - 1e300, grid[-1] + 1e300, -1e308, 1e308, -np.inf, np.inf, np.nan],
        ])
        rng.shuffle(pos)
        assert np.array_equal(mc._Cells(grid)(pos), np.searchsorted(grid, pos, side="left"))


def _threshold_grids():
    """-F(rho - g) on ``verify``'s grid, the table the standard's level is
    binned on: crowded in Gumbel's tails, repeating 0 and 1 where rho - g
    leaves a bounded support, and one value repeated throughout."""
    grid = mc._effort_grid(E_MAX, 10**4, 0.4)[0]
    for dist, rho in ((GUMBEL, 0.4), (GUMBEL, -4.0), (GUMBEL, 38.0), (UNIF, 1.0), (dists.pareto(2.0), 1.5),
                      (dists.trimodal_example("red"), 0.8), (UNIF, 5.0), (UNIF, -5.0)):
        yield -np.minimum.accumulate(dist.cdf(rho - grid))


def test_cells_equal_searchsorted_on_a_non_decreasing_grid():
    # positions where the grid crowds take more than the two moves and are
    # searched; a repeated grid value is never a cell of its own
    rng = np.random.default_rng(49)
    for grid in _threshold_grids():
        pos = np.concatenate([-rng.random(16384), grid, np.nextafter(grid, -np.inf), np.nextafter(grid, np.inf),
                              [-1.0, -mc.UNIT_MAX, -0.0, 0.0, -np.inf, np.inf, np.nan]])
        rng.shuffle(pos)
        assert np.array_equal(mc._Cells(grid)(pos), np.searchsorted(grid, pos, side="left"))


@pytest.mark.parametrize("n", [2, 10])
@pytest.mark.parametrize("family", ["gumbel", "erf_exponential", "pareto", "red"])
def test_grid_sums_bits_match_searchsorted_reference(family, n):
    dist = ORACLE_FAMILIES[family]
    rng = np.random.default_rng([n, 24])
    u = rng.random((4096, n))
    x = dist.ppf(u)
    schedules = [
        eq.PrizeSchedule.winner_take_all(n),
        eq.PrizeSchedule.equal_sharing(n),
        eq.random_schedule(n, rng),
    ]
    e_star = 0.4
    rho = e_star + float(dist.ppf(0.4))
    grid, i_star = mc._effort_grid(E_MAX, 10**4, e_star)
    for schedule in schedules:
        prizes = np.asarray(schedule.prizes)
        sums, tally, _ = _scan_sums(dist, u, grid, i_star, rho, prizes)
        want, want_tally = reference_grid_sums(x, grid, i_star, rho, prizes)
        assert sums.tobytes() == want.tobytes()
        assert np.array_equal(tally, want_tally)


def test_standard_level_ends_match_the_ppf_reference():
    # the standard's level and the pass test compare u_1 with F(rho - g),
    # where the reference compares ppf(u_1) with rho - g: the same bits at
    # u_1 = 0 and UNIT_MAX on bounded supports, where rho - g falls below
    # and above the support so that F(rho - g) repeats 0 and 1, with e* at
    # either end of the grid and inside it, and on Gumbel noise far below
    # its mode, where F underflows to 0 but u_1 > 0
    rng = np.random.default_rng(49)
    u = rng.random((3000, 3))
    u[:6, 0] = 0.0, mc.UNIT_MAX, 1e-300, 5e-324, 1e-20, 0.0
    schedules = [eq.PrizeSchedule.winner_take_all(3), eq.PrizeSchedule.equal_sharing(3), eq.random_schedule(3, rng)]
    assert UNIF.cdf(1.4) == 1.0 and UNIF.cdf(1.4 - 3.0) == dists.pareto(2.0).cdf(2.0 - 3.0) == 0.0
    for dist, rho, top in ((UNIF, 1.4, 3.0), (dists.pareto(2.0), 2.0, 3.0), (GUMBEL, -4.0, 4.0)):
        rows = u[u[:, 0] > 0] if dist is GUMBEL else u
        for e_star in (0.0, 0.7, top):
            grid = np.unique(np.append(np.linspace(0.0, top, 401), e_star))
            i_star = int(np.searchsorted(grid, e_star))
            for schedule in schedules:
                prizes = np.asarray(schedule.prizes)
                sums, tally, _ = _scan_sums(dist, rows, grid, i_star, rho, prizes)
                want, want_tally = reference_grid_sums(dist.ppf(rows), grid, i_star, rho, prizes)
                assert sums.tobytes() == want.tobytes() and np.array_equal(tally, want_tally)
    # at the ends of the unit interval F rounds where ppf does not: far
    # below Gumbel's mode F(rho - g) underflows to u_1 = 0, far above it F
    # rounds to UNIT_MAX, and u_1 passes at g from there on; ppf(0) = -inf
    # passes nowhere, and ppf(UNIT_MAX) = 36.7 only once rho - g falls to it
    grid = np.linspace(0.0, 4.0, 401)
    for u1, rho in ((0.0, -4.0), (mc.UNIT_MAX, 40.0)):
        tau = GUMBEL.cdf(rho - grid)
        _, _, table = _scan_sums(GUMBEL, np.array([[u1, 0.5]]), grid, 0, rho, np.array([0.5, 0.5]))
        cell = np.flatnonzero(table.sum(axis=0))
        assert cell.tolist() == [np.count_nonzero(tau > u1)]
        assert 0 < cell[0] < np.searchsorted(grid, rho - GUMBEL.ppf(u1))


def _count_and_grid_sums(dist, u, e_star, rho, prizes, grid_size=10**4):
    """The uniforms ``u`` in blocks of ``BATCH`` rows, the last the rest:
    the sums ``_finish`` makes of the counts that ``_bin_block`` takes under
    a two-valued prize, checked bit for bit against the reference's count;
    the reference's float sums, block by block, added; and the summed
    counts of jumps on draws lost and won at e*."""
    grid, i_star = mc._effort_grid(E_MAX, grid_size, e_star)
    x = dist._ppf(u)
    table = tally = want = 0
    for start in range(0, len(u), mc.BATCH):
        block = slice(start, start + mc.BATCH)
        _, block_tally, block_table = _scan_sums(dist, u[block], grid, i_star, rho, prizes)
        block_want, want_tally = reference_grid_sums(x[block], grid, i_star, rho, prizes, counted=False)
        assert block_table.dtype == np.int64 and np.array_equal(block_tally, want_tally)
        table, tally, want = table + block_table, tally + block_tally, want + block_want
    got = mc._finish(table, tally, i_star, prizes)
    assert got.tobytes() == reference_grid_sums(x, grid, i_star, rho, prizes)[0].tobytes()
    return got, want, table


TWO_VALUED = {
    "wta-2": eq.PrizeSchedule.winner_take_all(2),
    "wta-3": eq.PrizeSchedule.winner_take_all(3),
    "wta-10": eq.PrizeSchedule.winner_take_all(10),
    "eps-10": eq.PrizeSchedule.equal_sharing(10),
    "top-2-of-5": eq.PrizeSchedule.equal_top(2, 5),
}


@pytest.mark.parametrize("schedule", sorted(TWO_VALUED))
@pytest.mark.parametrize("family", ["gumbel", "pareto", "red"])
def test_count_path_matches_grid_sums(family, schedule):
    # winner-take-all's jumps and squared jumps are whole numbers, so every
    # sum is exact both ways; a prize such as 1/10 rounds, and the count
    # path scales each integer total once, where the float jumps round at
    # every bin and cell
    dist = ORACLE_FAMILIES[family]
    prizes = np.asarray(TWO_VALUED[schedule].prizes)
    n, hi = prizes.size, prizes.max()
    draws = 2 * mc.BATCH + 77  # a short last block
    u = np.random.default_rng([17, n]).random((draws, n))
    got, want, table = _count_and_grid_sums(dist, u, 0.4, 0.4 + float(dist.ppf(0.4)), prizes)
    if schedule.startswith("wta"):
        assert got.tobytes() == want.tobytes()
        # a rival far above puts the jump beyond the grid's top, in cell G
        assert table[:, -1].sum() > 0
    else:
        scale = np.array([[hi], [hi], [hi * hi]]) * draws  # the largest each sum can be
        assert np.all(np.abs(got - want) <= 1e-13 * scale)


def test_count_path_edge_cases():
    prizes = np.asarray(eq.PrizeSchedule.winner_take_all(3).prizes)
    u = np.random.default_rng(3).random((mc.BATCH + 5, 3))
    # no draw passes the standard: every jump lies beyond the grid, and no
    # draw is won at e*
    got, want, table = _count_and_grid_sums(GUMBEL, u, 0.4, 1e6, prizes)
    assert got.tobytes() == want.tobytes()
    assert not np.any(got) and table[0, -1] == mc.BATCH + 5 and not np.any(table[1])
    # e* at the first and at the last grid point
    for e_star in (0.0, E_MAX):
        got, want, table = _count_and_grid_sums(GUMBEL, u, e_star, e_star + 0.3, prizes)
        assert got.tobytes() == want.tobytes()
        assert np.any(table[1])  # some draw is won at e*
    # a draw whose score at e*, the grid's top, ties the standard while its
    # jump rho - x_1 rounds just above e*: its pass test and its cell both
    # compare u_1 with F(rho - e*), which rounds above it, so the draw is
    # lost at e* and its jump lies beyond the grid, in cell G, as the jump
    # of the draw x_1 = -1 does; equal prizes for all at n = 2, on noise
    # that is its own uniform
    u = np.array([[0.13, 0.5], [0.4, 0.5], [0.9, 0.5], [-1.0, 0.5]])
    rho, prizes = E_MAX + 0.13, np.array([0.5, 0.5])
    assert E_MAX + u[0, 0] >= rho and rho - u[0, 0] > E_MAX and UNIF.cdf(rho - E_MAX) > u[0, 0]
    grid, i_star = mc._effort_grid(E_MAX, 50, E_MAX)
    got, tally, table = _scan_sums(UNIF, u, grid, i_star, rho, prizes)
    assert table[:, -1].tolist() == [2, 0] and tally.tolist() == [1, 1, 2]
    want, want_tally = reference_grid_sums(np.where(u == 0.13, -1.0, u), grid, i_star, rho, prizes)
    assert got.tobytes() == want.tobytes() and np.array_equal(tally, want_tally)
    # sum w* is the prize times the count of draws won at e*, scaled once;
    # one draw at each of ten prizes of 1/10, summed prize by prize, reads
    # 0.9999999999999999
    tally = np.append(np.ones(10, dtype=np.int64), 5)
    assert np.all(mc._finish(np.zeros((2, 3), dtype=np.int64), tally, 1, np.full(10, 0.1))[1] == -1.0)


def test_substreams_are_independent_in_law():
    # Kolmogorov-Smirnov against U(0, 1): sqrt(256) D exceeds 1.95 with
    # chance 1e-3
    firsts = np.sort([rng.random() for rng in mc._substreams(61, 256)])
    steps = np.arange(257) / 256
    assert 16 * max(np.max(steps[1:] - firsts), np.max(firsts - steps[:-1])) < 1.95
    # the derived keys seed, seed + 1 and seed + 2 share no first draw
    drawn = [mc._substreams(61 + j, 1)[0].random(4096) for j in range(3)]
    assert np.unique(np.concatenate(drawn)).size == 3 * 4096


def _block_sizes(draws):
    full, rest = divmod(draws, mc.BATCH)
    return [mc.BATCH] * full + ([rest] if rest else [])


def _noise_blocks(dist, n, draws, seed):
    """Every (m, n) block of noise ``dist.sample`` draws, unreduced, as ``_blocks`` runs them."""
    return mc._blocks(lambda m, rng: dist.sample((m, n), rng), draws, mc.BATCH, seed)


def _scan_blocks(n, depth, draws, seed):
    """Every block of the best-response scan's draws, unbinned."""
    return mc._blocks(functools.partial(mc._scan_block, n, depth), draws, mc.BATCH, seed)


def _walked(n, depth, rows, draws, seed):
    """(u_1, K, the walk's ``rows``) from the scan's blocks."""
    blocks = ((u1, k, walk[rows].T) for u1, k, walk in _scan_blocks(n, depth, draws, seed))
    return [np.concatenate(col) for col in zip(*blocks)]


def _dense(n, draws, seed, ranks):
    """(u_1, K, the rivals' uniforms at ``ranks`` from the top) from n
    uniforms per draw, counted and sorted."""
    rng = np.random.default_rng(seed)
    blocks = []
    for m in _block_sizes(draws):
        u = rng.random((m, n))
        blocks.append((u[:, 0], np.count_nonzero(u[:, 1:] > u[:, :1], axis=1),
                       np.sort(u[:, 1:], axis=1)[:, n - 2 - ranks]))
    return [np.concatenate(col) for col in zip(*blocks)]


def _walk_rows(depth):
    """The first, middle and last of ``depth`` walked rows."""
    return np.unique([0, (depth - 1) // 2, depth - 1])


@pytest.mark.parametrize("n", [2, 3, 10, mc.INVERSION_MAX + 1, 300])
def test_direct_draws_follow_the_dense_law(n):
    # the scan walks the rivals' top L uniforms down from the best, and
    # draws the rest of K ~ Binomial(n - 1, 1 - u_1) by inversion up to
    # INVERSION_MAX + 1 players and by numpy's binomial above: at depth 0
    # (equal prizes for all), 1 (winner-take-all), 2, 3 and n - 1,
    # chi-square on K jointly with u_1's quartile, and KS on the first,
    # middle and last walked rows, against the dense draw; and in one
    # block with every row kept, each row weakly below the one before, and
    # K the count of rows above u_1 wherever that count is below L
    stats = pytest.importorskip("scipy.stats")
    draws = 40_000 if n < 300 else 20_000
    depths = sorted({0, 1, 2, 3, n - 1} & set(range(n)))
    ranks = np.unique(np.concatenate([_walk_rows(depth) for depth in depths if depth]))
    u1, k, top = _dense(n, draws, 30 + n, ranks)
    bins = min(n, 10)

    def cells(u1, k):
        return np.bincount(np.minimum((4 * u1).astype(int), 3) * bins + k * bins // n, minlength=4 * bins)

    for j, depth in enumerate(depths):
        rows = _walk_rows(depth) if depth else np.array([], dtype=int)  # equal prizes for all walk no row
        walked = _walked(n, depth, rows, draws, 31 + n + j)
        table = np.array([cells(*walked[:2]), cells(u1, k)])
        assert stats.chi2_contingency(table[:, table.sum(axis=0) > 0])[1] > 1e-3, depth
        for i, rank in enumerate(rows):
            assert stats.ks_2samp(walked[2][:, i], top[:, np.searchsorted(ranks, rank)]).pvalue > 1e-3, (depth, rank)
        x1, kk, walk = mc._scan_block(n, depth, 2000, np.random.default_rng(j))
        assert walk.shape == (depth, 2000) and np.all(np.diff(walk, axis=0) <= 0)
        above = np.count_nonzero(walk > x1, axis=0)
        assert np.array_equal(kk[above < depth], above[above < depth]) and np.all(kk[above == depth] >= depth)


def test_rank_count_at_the_ends_of_u1():
    rng = np.random.default_rng(5)
    for n in (2, 10, mc.INVERSION_MAX + 1, mc.INVERSION_MAX + 2, 1000):
        assert mc._rank_count(np.array([0.0, mc.UNIT_MAX]), n, rng).tolist() == [n - 1, 0]


@pytest.mark.parametrize("n", [2, 3, 1000])
def test_rank_matches_dense_comparison(n):
    rng = np.random.default_rng(n)
    # lattice noise: player 1 ties rivals, and scores tie the standard; a
    # zero shift compares the keys themselves, as the scan's uniforms are
    for x in (GUMBEL.sample((500, n), rng), rng.integers(0, 6, size=(500, n)) / 4.0):
        for e, e_star, rho in ((0.5, 0.5, 0.75), (0.25, 0.5, 0.5), (0.5, 0.25, -np.inf), (0.0, 0.0, 0.5)):
            y1 = e + x[:, 0]
            k = np.count_nonzero(e_star + x[:, 1:] > y1[:, None], axis=1)
            assert np.array_equal(mc._rank(x, y1, y1 >= rho, e_star), np.where(y1 >= rho, k, n))


def test_best_response_tally_equals_simulation():
    # the scan walks the rivals down from the best, where the simulation
    # ranks n mapped scores, so the two tallies agree in law: within 4
    # combined standard errors per rank
    red = dists.trimodal_example("red")
    v = eq.PrizeSchedule.equal_top(2, 3)
    design = _design(red, 3, v, 1.4)
    rep = mc.verify_best_response(red, design, 0.4, grid_size=500, draws=40_000, seed=13)
    sim = mc.simulate_prize_probabilities(red, design, 0.4, 0.4, 40_000, 13)
    assert sum(rep.rank_counts) == sum(sim.rank_counts) == 40_000
    for p, se, q, se_q in zip(rep.at_least_prob, rep.at_least_se, sim.at_least_prob, sim.at_least_se):
        assert abs(p - q) <= 4 * np.hypot(se, se_q)


@pytest.mark.parametrize(
    "noise, schedule, rho, gap, gap_se, payoffs, counts",
    [
        (GUMBEL, eq.PrizeSchedule.winner_take_all(10), 0.4, "0x1.a89656e4aaf06p-5", "0x1.0633b1e4bd65cp-11",
         "09de0649cfe9a55930b98b46c20f7aa1efeb4965889aa9f234d968d2888ebdd2",
         (9913, 9888, 9921, 9721, 8916, 7008, 4686, 2180, 725, 104, 36938)),
        (dists.pareto(2.0), eq.PrizeSchedule.equal_sharing(10), 1.6, "0x1.a1fd63489e171p-5",
         "0x1.281f246e79054p-13", "fb81bbf84cc30360f196e8423041eb8adae58e8397a65d125a76853537eff24c",
         (9913, 10003, 9903, 9959, 9456, 8421, 6312, 3739, 1364, 238, 30692)),
        # ten distinct prizes: every level is binned, walked down from the best rival
        (GUMBEL, eq.random_schedule(10, np.random.default_rng(2410)), 0.4, "0x1.f7e1c5a58e8a0p-5",
         "0x1.9e7552df095edp-14", "80f35c7b3dc7ef54489b9800be8619e53d677367869ebca10b032925d26a58ae",
         (9913, 9881, 10032, 9638, 8784, 7207, 4633, 2207, 661, 106, 36938)),
    ],
    ids=["gumbel-wta", "pareto-eps", "gumbel-dirichlet"],
)
def test_best_response_pinned_bits_at_n10(noise, schedule, rho, gap, gap_se, payoffs, counts):
    # pinned bits at this seed: winner-take-all and equal prizes for all
    # draw u_1, K and the best rival, the ten-prize schedule u_1 and all nine
    # rivals walked down; the first two read K only as K = 0
    # (winner-take-all) or not at all (equal prizes), so the rank tally pins
    # K's draws
    rep = mc.verify_best_response(noise, _design(noise, 10, schedule, rho), 0.4, draws=10**5, seed=1505)
    assert rep.gap == float.fromhex(gap)
    assert rep.gap_se == float.fromhex(gap_se)
    assert hashlib.sha256(np.asarray(rep.payoffs).tobytes()).hexdigest() == payoffs
    assert rep.rank_counts == counts


def test_seed_required_and_min_draws():
    design = _design(UNIF, 2, eq.PrizeSchedule.winner_take_all(2), 0.8)
    with pytest.raises(mc.SeedRequired):
        mc.simulate_prize_probabilities(UNIF, design, 0.3, 0.3, draws=10**4)
    with pytest.raises(ValueError, match="1e4"):
        mc.simulate_prize_probabilities(UNIF, design, 0.3, 0.3, draws=100, seed=1)
    with pytest.raises(ValueError, match="1e4"):
        mc.verify_best_response(UNIF, design, 0.3, draws=200, seed=1)


WTA3 = eq.PrizeSchedule.winner_take_all(3)
SEEDED = {
    "verify_best_response": lambda seed, draws: mc.verify_best_response(
        GUMBEL, _design(GUMBEL, 3, WTA3, 0.4), 0.4, grid_size=50, draws=draws, seed=seed),
    "simulate_prize_probabilities": lambda seed, draws: mc.simulate_prize_probabilities(
        GUMBEL, _design(GUMBEL, 3, WTA3, 0.4), 0.4, 0.4, draws=draws, seed=seed),
    "marginal_incentive": lambda seed, draws: ps.marginal_incentive(GUMBEL, [ps.constant_share(3)], 0.4, draws, seed),
    "check_incentive_bound": lambda seed, draws: ps.check_incentive_bound(
        GUMBEL, [ps.constant_share(3)], 0.4, draws, seed),
    "audit_sample": lambda seed, draws: audit.audit_sample(
        audit.PerformanceSample(tuple(np.linspace(-1.0, 1.0, 200) ** 3)), bootstrap=8, seed=seed),
}


@pytest.mark.parametrize("seed", [1.7, 3.0, np.float64(2.0), np.nan, True, False, -3, np.int64(-1), "4"])
@pytest.mark.parametrize("entry", sorted(SEEDED))
def test_seed_that_is_not_a_nonnegative_integer_is_refused_by_name(entry, seed):
    # not truncated to an int, nor passed to numpy to fail there unnamed
    with pytest.raises(ValueError, match=re.escape(f"seed {seed!r} is not a whole number of at least 0")):
        SEEDED[entry](seed, 10**4)


@pytest.mark.parametrize("draws", [20000.9, 20000.0, np.nan, np.inf, True, 9999, -1, np.int64(0)])
@pytest.mark.parametrize("entry", sorted(set(SEEDED) - {"audit_sample"}))
def test_draw_count_that_is_not_an_integer_of_1e4_is_refused_by_name(entry, draws):
    with pytest.raises(ValueError, match=re.escape(f"draws {draws!r} is not a whole number of at least 1e4")):
        SEEDED[entry](1, draws)


def test_numpy_integer_seed_and_draws_run_as_ints():
    for entry in ("simulate_prize_probabilities", "audit_sample"):
        want, got = SEEDED[entry](9, 10**4), SEEDED[entry](np.uint64(9), np.int64(10**4))
        assert got == want and type(got.seed) is int


def test_best_response_needs_a_grid_from_zero_to_max_effort():
    # a grid of one point or none never reaches above e*, so a scan on it
    # would certify any effort; a grid size that is not an integer, a bool
    # included, is refused by name, not deep in ``np.linspace``
    design = _design(UNIF, 2, eq.PrizeSchedule.winner_take_all(2), 0.8)
    for size in (-1, 0, 1, 2.5, 3.0, np.nan, True, np.int64(1)):
        with pytest.raises(ValueError, match=re.escape(f"grid_size {size!r} is not a whole number")):
            mc.verify_best_response(UNIF, design, 0.3, grid_size=size, draws=10**4, seed=1)
    assert mc.verify_best_response(UNIF, design, 0.3, grid_size=np.int64(2), draws=10**4, seed=1).effort_grid.size == 3


def _counted(calls, name, fn, *args):
    calls.append(name)
    return fn(*args)


@pytest.mark.parametrize("schedule, mapped", [
    (eq.PrizeSchedule.equal_sharing(10), []),
    (eq.PrizeSchedule.equal_top(10, 10), []),
    (eq.PrizeSchedule.winner_take_all(10), ["_ppf", "_ppf_in_place"]),
], ids=["equal-sharing", "equal-top-10-of-10", "winner-take-all"])
def test_only_levels_below_the_standard_map_draws(monkeypatch, schedule, mapped):
    # equal prizes for all bin only the standard's level, from u_1 against
    # F(rho - g), so their scan maps no draw; winner-take-all maps u_1 and
    # the best rival's row
    dist, calls = dists.erf_exponential(), []
    for name in ("_ppf", "_ppf_in_place"):
        monkeypatch.setattr(dist, name, functools.partial(_counted, calls, name, getattr(dist, name)))
    rep = mc.verify_best_response(dist, _design(dist, 10, schedule, 1.0), 0.4, draws=2 * mc.BATCH, seed=5)
    assert sorted(set(calls)) == mapped and sum(rep.rank_counts) == 2 * mc.BATCH


def test_full_depth_scan_block_holds_little_beyond_its_walk():
    # one BATCH-row block at n = 100 with every level binned: the walk of
    # 99 rows of BATCH uniforms is its one large array, and binning it row
    # by row adds under 4 MiB
    n = 100
    design = _design(GUMBEL, n, eq.random_schedule(n, np.random.default_rng(5)), 0.4 + float(GUMBEL.ppf(0.4)))
    tracemalloc.start()
    try:
        mc.verify_best_response(GUMBEL, design, 0.4, draws=mc.BATCH, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (n - 1) * mc.BATCH * 8 + 4 * 2**20


def test_bit_identical_reproducibility():
    design = _design(UNIF, 2, eq.PrizeSchedule.winner_take_all(2), 0.8)
    a = mc.simulate_prize_probabilities(UNIF, design, 0.3, 0.3, draws=50_000, seed=9)
    b = mc.simulate_prize_probabilities(UNIF, design, 0.3, 0.3, draws=50_000, seed=9)
    assert a == b
    c = mc.verify_best_response(UNIF, design, 0.3, grid_size=50, draws=50_000, seed=9)
    d = mc.verify_best_response(UNIF, design, 0.3, grid_size=50, draws=50_000, seed=9)
    # each field bit for bit: the grid and the payoffs are arrays, on which == is ambiguous
    for field in dataclasses.fields(c):
        assert np.asarray(getattr(c, field.name)).tobytes() == np.asarray(getattr(d, field.name)).tobytes()
    assert isinstance(c.payoffs, np.ndarray) and not c.payoffs.flags.writeable
    assert isinstance(c.effort_grid, np.ndarray) and not c.effort_grid.flags.writeable


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
    assert rep.at_least_prob[-1] == 1.0


def test_last_rank_probability_is_exactly_one():
    # summing per-rank frequencies in floats missed 1.0 on 167 of these: 87
    # read above it, as 1.0000000000000004 does, with a NaN standard error
    rng = np.random.default_rng(300)
    draws, n = 10**5, 300
    for _ in range(200):
        counts = np.append(rng.multinomial(draws, np.full(n, 1.0 / n)), 0)
        rep = mc._tally_report(draws, 0, n, counts)
        assert rep.at_least_prob[-1] == 1.0
        assert rep.at_least_se[-1] == 0.0
        assert np.all(np.diff(rep.at_least_prob) >= 0.0)


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
    assert rep.gap <= 3 * rep.gap_se + rep.grid_bias


def test_best_response_flags_disequilibrium():
    v = eq.PrizeSchedule.winner_take_all(2)
    sol = eq.solve_design(EXPO, 2, v, COST)
    design = _design(EXPO, 2, v, sol.standard)
    bad = sol.effort + 0.3 * COST.max_effort
    rep = mc.verify_best_response(EXPO, design, bad, grid_size=120, draws=200_000, seed=42)
    assert not rep.certified
    assert rep.gap > 5 * rep.gap_se
    # pinned bits at this seed
    assert rep.gap == float.fromhex("0x1.31ae85d7e5470p-3")
    assert rep.gap_se == float.fromhex("0x1.f74cbc6ed5324p-11")


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


@pytest.mark.parametrize("draws", [mc.BATCH - 1, mc.BATCH, mc.BATCH + 1, 3 * mc.BATCH + 5])
def test_blocks_match_serial_substreams(draws):
    sizes = _block_sizes(draws)
    uniforms = [rng.random((m, 2)) for rng, m in zip(mc._substreams(9, len(sizes)), sizes)]
    blocks = list(_noise_blocks(GUMBEL, 2, draws, 9))
    assert len(blocks) == len(uniforms)
    for got, u in zip(blocks, uniforms):
        assert np.array_equal(got, GUMBEL.ppf(u))
    # the scan's blocks with both rivals walked at n = 3, as under three
    # prize levels: u_1, then V_1 and V_2, walked down to the rivals'
    # U_(1) = V_1^(1/2) and U_(2) = U_(1) V_2, and K the count of them
    # above u_1
    scanned = list(_scan_blocks(3, 2, draws, 9))
    assert len(scanned) == len(uniforms)
    for (u1, k, walk), m, rng in zip(scanned, sizes, mc._substreams(9, len(sizes))):
        first, best = rng.random(m), rng.random(m) ** (1.0 / 2)
        second = best * rng.random(m) ** 1.0
        assert np.array_equal(u1, first)
        assert np.array_equal(k, (best > u1) + (second > u1).astype(int))
        assert np.array_equal(walk, [best, second])
    # and under winner-take-all at n = 2: u_1, then the best rival's
    # uniform, above u_1 exactly when K = 1
    scanned = list(_scan_blocks(2, 1, draws, 9))
    assert len(scanned) == len(uniforms)
    for (u1, k, walk), m, rng in zip(scanned, sizes, mc._substreams(9, len(sizes))):
        first, best = rng.random(m), rng.random(m)
        assert np.array_equal(u1, first)
        assert np.array_equal(k, best > u1)
        assert np.array_equal(walk, [best])


def _first_uniforms(seed, blocks):
    """The first uniform of each block's substream, which names the block."""
    return [rng.random() for rng in mc._substreams(seed, blocks)]


def test_block_error_reaches_caller_and_cancels_the_rest(settled_pool):
    # Block 1 of 64 raises; the blocks after it take 10 ms each, so the
    # caller's cancel comes long before the last of them starts.  Which of
    # them ran before it is not pinned, and none runs once the error is in.
    firsts, started, seen = _first_uniforms(4, 64), [], []

    def work(m, rng):
        block = firsts.index(rng.random())
        started.append(block)
        if block == 1:
            raise RuntimeError("block 1 failed")
        if block > 1:
            time.sleep(0.01)
        return block

    with pytest.raises(RuntimeError, match="block 1 failed"):
        for block in mc._blocks(work, 64, 1, 4):
            seen.append(block)
    settled_pool()
    assert seen == [0]
    assert {0, 1} <= set(started) and len(started) < 64


def test_scan_error_reaches_caller_and_leaves_no_thread(settled_pool):
    # a uniform whose ppf raises on block 1: under winner-take-all the
    # scan's workers map player 1's column, whose first level is the
    # block's first, and then the best rival's row
    firsts, drawn = _first_uniforms(4, 6), []

    def ppf(q):
        if q[0] in firsts:
            drawn.append(firsts.index(q[0]))
            if drawn[-1] == 1:
                raise RuntimeError("block 1 failed")
        return q

    dist = dists.NoiseDistribution("uniform", {}, (0.0, 1.0), np.ones_like, lambda x: x, lambda x: 1.0 - x,
                                   ppf, np.zeros_like, UNIF.find_modes())
    design = _design(dist, 2, eq.PrizeSchedule.winner_take_all(2), 0.5)
    with pytest.raises(RuntimeError, match="block 1 failed"):
        mc.verify_best_response(dist, design, 0.3, grid_size=50, draws=6 * mc.BATCH, seed=4)
    settled_pool()
    assert 1 in drawn


@pytest.mark.parametrize("stop", ["break", "raise", "close"])
def test_consumer_stopping_mid_stream_leaves_no_thread(stop, settled_pool):
    def consume(stream):
        blocks = stream()
        for k, _ in enumerate(blocks):
            if k == 1:
                if stop == "raise":
                    raise RuntimeError("consumer failed")
                if stop == "close":
                    blocks.close()
                    settled_pool()
                break

    # every column mapped, as the bound check draws, and the best-response
    # scan's blocks
    streams = (lambda: _noise_blocks(UNIF, 2, 6 * mc.BATCH, 4),
               lambda: _scan_blocks(2, 1, 6 * mc.BATCH, 4))
    for stream in streams:
        if stop == "raise":
            with pytest.raises(RuntimeError, match="consumer failed"):
                consume(stream)
        else:
            consume(stream)
        settled_pool()


def _scan_bits(seed):
    """Every field of a three-player Gumbel scan's report, as bytes."""
    design = _design(GUMBEL, 3, eq.PrizeSchedule.equal_top(2, 3), 0.0)
    rep = mc.verify_best_response(GUMBEL, design, 0.4, grid_size=50, draws=10 * mc.BATCH, seed=seed)
    return [np.asarray(getattr(rep, field.name)).tobytes() for field in dataclasses.fields(rep)]


def _send_scan_bits(writer, seed):
    writer.send(_scan_bits(seed))
    writer.close()


def test_forked_child_makes_its_own_workers():
    # The parent's workers, made by its pass, are not in a fork child; a
    # child that waited on them would hang, and fail the timeouts here
    want = _scan_bits(11)
    fork = multiprocessing.get_context("fork")
    reader, writer = fork.Pipe(duplex=False)
    child = fork.Process(target=_send_scan_bits, args=(writer, 11))
    child.start()
    writer.close()
    try:
        assert reader.poll(60), "the child's scan did not finish"
        assert reader.recv() == want
        child.join(60)
        assert not child.is_alive() and child.exitcode == 0
    finally:
        child.kill()
        child.join(10)


def test_two_callers_at_once_each_get_the_bits_of_a_lone_call():
    # the callers' blocks share the two workers and interleave on them
    want, got, barrier = {seed: _scan_bits(seed) for seed in (12, 13)}, {}, threading.Barrier(2, timeout=10)

    def call(seed):
        barrier.wait()
        got[seed] = _scan_bits(seed)

    callers = [threading.Thread(target=call, args=(seed,)) for seed in want]
    for caller in callers:
        caller.start()
    for caller in callers:
        caller.join(60)
    assert not any(caller.is_alive() for caller in callers)
    assert got == want
