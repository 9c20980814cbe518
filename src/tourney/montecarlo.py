"""Brute-force Monte-Carlo verification of the analytic layer.

Tournaments are simulated directly from the model primitives: draw noise,
rank performances above the standard, award prizes by rank.  Prize
probabilities, deviation payoffs, and best-response gaps estimated here are
independent of the quadrature code paths and certify them statistically.
One routine ranks the simulated players.

Reproducibility: draws come in blocks of ``BATCH``, block i from its own
substream ``PCG64DXSM(seed).jumped(i)`` (O'Neill, "PCG", HMC-CS-2014-0905),
and ``_substreams`` makes every stream of the package.  ``_blocks`` runs
the blocks on two worker threads, each drawing its block and reducing it,
and the caller adds the results in block order, so one seed gives one
result.  Every effort level on a verification grid reuses the same draws,
so payoff differences across efforts are common-random-number estimates
with tiny variance.

Best-response scan: write the prize as a sum of differentials,
d_j = v_j - v_(j+1) for the rank j = 0, ..., n - 1 counted from the top, with
v_n = 0 for missing the standard.  For one draw the deviator's prize at own
effort e is then w(e) = sum_j d_j 1[e >= P_j], with
P_j = max(rho, e* + X_(j+1)) - x1: the deviator holds rank j or better once
its score clears the standard and the (j+1)-th largest rival score.  All
rivals play e*, so X_(j+1) is an order statistic of their noise, and a rival
who misses the standard cannot lift P_j above rho.  Since the quantile
function is monotone, X_(j+1) = ppf(U_(j+1)), and player 1's rank at e* is
the count K of rivals whose uniform exceeds its own u_1.  So each block
draws u_1, the rivals' top L uniforms, with L the deepest rival level the
prizes bin (0 under equal prizes for all, 1 under winner-take-all), and K
(David & Nagaraja, Order Statistics, ch. 2; Devroye, Non-Uniform Random
Variate Generation, ch. V): the largest of k iid uniforms is V^(1/k), and
the others are iid uniform below it, so U_(1) = V_1^(1/(n - 1)) and
U_(j+1) = U_(j) V_(j+1)^(1/(n - 1 - j)); K is the number of these above
u_1, plus, where all L are, Binomial(n - 1 - L, 1 - u_1 / U_(L)) for the
rivals below U_(L).  Each block then maps its walked rows one level at a
time and bins each row's jumps d_j at P_j on the effort grid; the blocks'
histograms, summed cumulatively, give the payoff sums at every grid point
in one pass over the draws, whatever the grid size, and the rank tally at
the checked effort is K where player 1 passes.  A jump finds its grid cell,
the first grid point at or above P_j, from a bucket table built once per
scan (``_Cells``); a two-valued prize counts its jumps in integers.
"""

from __future__ import annotations

import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .distributions import NoiseDistribution
from .equilibrium import TournamentDesign

__all__ = [
    "SeedRequired",
    "SimulationReport",
    "simulate_prize_probabilities",
    "verify_best_response",
    "write_tally_csv",
]

BATCH = 1 << 14
INVERSION_MAX = 64  # rival counts whose rank count K is drawn by inversion
UNIT_MAX = 1.0 - 2.0**-53  # the largest uniform ``Generator.random`` draws


class SeedRequired(ValueError):
    """Monte-Carlo entry points demand an explicit seed, so every run is
    reproducible."""


@dataclass(frozen=True)
class SimulationReport:
    """Player 1's rank tally; a best-response scan adds the payoffs on its
    effort grid as read-only arrays, so that its report neither hashes nor compares by
    ``==``, and the certificate of ``verify_best_response``; None otherwise."""

    draws: int
    seed: int
    n: int
    rank_counts: tuple[int, ...]           # raw tallies, last slot = no prize
    at_least_prob: tuple[float, ...]       # chance of rank r or better
    at_least_se: tuple[float, ...]
    effort_grid: np.ndarray | None = None
    payoffs: np.ndarray | None = None
    gap: float | None = None               # best payoff gain over e*
    gap_se: float | None = None
    grid_bias: float | None = None
    certified: bool | None = None


def _require_seed(seed) -> int:
    if seed is None:
        raise SeedRequired("pass an integer seed; runs must be reproducible")
    return int(seed)


def _require_draws(draws) -> int:
    if draws < 10**4:
        raise ValueError("use at least 1e4 draws; standard errors are meaningless below that")
    return int(draws)


def _effort_grid(e_max: float, points: int, e_star: float) -> tuple[np.ndarray, int]:
    """``points`` evenly spaced efforts on [0, ``e_max``] and ``e_star``,
    ascending and without repeats, and the index of ``e_star`` among them."""
    grid = np.unique(np.concatenate([np.linspace(0.0, e_max, points), [e_star]]))
    return grid, int(np.searchsorted(grid, e_star))


def _substreams(key: int, count: int) -> list[np.random.Generator]:
    """Substreams 0, ..., ``count`` - 1 of ``key``, substream i on
    ``PCG64DXSM(key).jumped(i)`` and 0 on the stream of ``key`` itself."""
    root = np.random.PCG64DXSM(key)
    return [np.random.Generator(root.jumped(i)) for i in range(count)]


def _blocks(work, total: int, block: int, seed: int):
    """Yield ``work(m, rng)`` for each block of ``total`` draws, in order.

    Block i holds ``block`` draws, the last one the rest, and ``rng`` is
    substream i of ``seed``, ``PCG64DXSM(seed).jumped(i)`` (O'Neill, "PCG",
    HMC-CS-2014-0905), so which thread runs it and when cannot change a bit
    of it.  Two worker threads run the blocks, and each ``work`` draws its
    block and reduces it to a small result, so no drawn block leaves its
    worker.  An error in a block reaches the caller after the results before
    it and cancels the blocks not yet started, as closing the generator
    mid-stream does; either way the pool's threads are joined before the
    generator ends.
    """
    sizes = [min(block, total - start) for start in range(0, total, block)]
    with ThreadPoolExecutor(2) as pool:
        yield from pool.map(work, sizes, _substreams(seed, len(sizes)))


def _scan_block(n: int, depth: int, m: int, rng: np.random.Generator):
    """One block of m draws of the best-response scan, unmapped: player 1's
    uniform u_1, its rank count K and the (depth, m) walk, whose row j holds
    the rivals' U_(j+1): u_1, the top ``depth`` rival uniforms walked down
    one row at a time, and the rest of K (``_rank_count``), 0 where
    U_(depth) <= u_1 (see the module docstring)."""
    u1 = rng.random(m)
    walk = np.empty((depth, m))
    for j in range(depth):
        rng.random(out=walk[j])
        walk[j] **= 1.0 / (n - 1 - j)
        if j:
            walk[j] *= walk[j - 1]
    k = 0
    if depth < n - 1:
        k = _rank_count(u1 / np.maximum(walk[-1], u1) if depth else u1, n - depth, rng)
    for row in walk:
        k += row > u1
    return u1, k, walk


def _rank_count(u1: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """K ~ Binomial(n - 1, 1 - u_1) per level u_1: by ``Generator.binomial``
    where n - 1 > ``INVERSION_MAX``, and below, where that costs more than n
    passes, by inverting one more uniform v from the likelier end, where no
    pmf underflows: with w = max(u_1, 1 - u_1), K' ~ Binomial(n - 1, 1 - w)
    is n - 1 less the number of k < n - 1 with P(K' <= k) > v, from
    w^(n - 1) >= 2^(1 - n) up, and K is K' where u_1 >= 1/2, n - 1 - K' below."""
    if n - 1 > INVERSION_MAX:
        return rng.binomial(n - 1, 1.0 - u1)
    v = rng.random(u1.size)
    w = np.maximum(u1, 1.0 - u1)
    k = np.full(u1.size, n - 1)
    ratio = (1.0 - w) / w
    pmf = w ** (n - 1)
    for j in range(n - 1):
        v -= pmf  # v - P(K' <= j)
        k -= v < 0
        pmf *= ratio
        pmf *= (n - 1 - j) / (j + 1)
    return np.where(u1 < 0.5, n - 1 - k, k)


def _levels(prizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The prizes v with v_n = 0 for missing the standard appended, and the
    ranks j = 0, ..., n - 1 whose differential v_j - v_(j+1) is not zero:
    the levels the best-response scan bins."""
    v = np.append(prizes, 0.0)
    return v, np.flatnonzero(v[:-1] != v[1:])


def _rank(keys: np.ndarray, key1: np.ndarray, passed: np.ndarray, shift: float = 0.0) -> np.ndarray:
    """Player 1's rank per draw (0 = first, n = missed the standard): the
    number of rivals j = 1, ..., n - 1 whose key ``shift + keys[:, j]``
    strictly exceeds player 1's ``key1`` where ``passed``, and n elsewhere.

    Simulations and rank pay schemes pass scores: the noise x_j, shifted by
    the rivals' effort, against player 1's score.  Ties go to player 1.
    Player 1 is ranked only where it passes, and a rival that beats a
    passing player passes too, so the count needs no pass check.  It adds
    one rival column at a time, so no (m, n - 1) block of keys or
    comparisons is built; a zero shift adds nothing, as it changes no
    comparison.  The ranks come in the smallest unsigned integer type that
    holds n, which the count adds into fastest; use them as indices or
    counts, not in arithmetic.
    """
    key1 = np.ascontiguousarray(key1)  # read once per rival; a column of keys is strided
    k = np.zeros(len(keys), dtype=np.min_scalar_type(keys.shape[1]))
    for j in range(1, keys.shape[1]):
        k += (shift + keys[:, j] if shift else keys[:, j]) > key1
    return np.where(passed, k, keys.shape[1])


class _Cells:
    """The grid cell of each jump position, equal element for element to
    ``np.searchsorted(grid, pos, side="left")``: the first grid index whose
    point is at or above the position, 0 at -inf, ``grid.size`` beyond the
    top and at NaN.  ``grid`` must be finite and ascending.

    Built once per grid: the span is cut into two buckets per grid point,
    and a position starts at the first grid index at or above its bucket's
    left edge, then moves down or up by comparison with the grid's own
    floats until it stops; on an even grid it takes at most one move.
    """

    def __init__(self, grid: np.ndarray):
        self.grid = grid
        self.lo, self.hi = float(grid[0]), float(grid[-1])
        self.buckets = 2 * grid.size
        span = self.hi - self.lo
        # capped, so that no position's bucket arithmetic overflows on a span
        # too short to cut; the moves then do all the work
        self.scale = min(self.buckets / span, sys.float_info.max) if span > 0 else 0.0
        edges = self.lo + np.arange(self.buckets) * (span / self.buckets)
        self.first = np.append(np.searchsorted(grid, edges, side="left"), grid.size)
        padded = np.concatenate([[np.nan], grid, [np.nan]])
        self.below, self.above = padded[:-1], padded[1:]  # grid[k - 1] and grid[k] at index k

    def __call__(self, pos: np.ndarray) -> np.ndarray:
        t = (np.clip(pos, self.lo, self.hi) - self.lo) * self.scale
        k = self.first.take(np.fmin(t, self.buckets).astype(np.intp))
        while True:
            up = self.above.take(k) < pos
            down = self.below.take(k) >= pos
            if not (up.any() or down.any()):
                return k
            k += up
            k -= down


def _bin_block(dist, u1, k, walk, cells: _Cells, i_star: int, rho: float, prizes: np.ndarray):
    """One block's jumps of player 1's prize w on ``cells.grid``, from the
    draws of ``_scan_block``, and its tally of player 1's rank at
    e* = ``grid[i_star]``, n where it misses the standard.

    Per draw w(e) = sum_j d_j 1[e >= P_j] (see the module docstring).  Each
    binned level j maps its row of the walk in place to X_(j+1), its
    uniforms kept below 1 as ``Generator.random``'s are (the standard's
    level n - 1 maps none), and ``cells`` finds the first grid
    point at or above each P_j, G = grid.size beyond the top.  The table
    has G + 1 cells per row: under a two-valued prize, the counts of jumps
    on draws lost and won at e*; otherwise the jumps of w, and those of
    (w - w*)^2, which jumps by (v_j - w*)^2 - (v_(j+1) - w*)^2 across level
    j, with w* player 1's prize at e*.
    """
    v, levels = _levels(prizes)
    n, size = prizes.size, cells.grid.size + 1
    e_star = cells.grid[i_star]
    x1 = dist._ppf(u1)
    rank = np.where(e_star + x1 >= rho, k, n)

    def cells_of(j):
        top = dist._ppf_in_place(np.minimum(walk[j], UNIT_MAX, out=walk[j])) if j < n - 1 else -np.inf
        return cells(np.maximum(rho, e_star + top) - x1)

    if levels.size == 1:
        j = levels[0]
        table = np.bincount(cells_of(j) + size * (rank <= j), minlength=2 * size).reshape(2, size)
    else:
        w_star, table = v[rank], np.zeros((2, size))
        for j in levels:
            cell, d = cells_of(j), v[j] - v[j + 1]
            hits = np.bincount(cell, minlength=size)
            table += d * hits, (v[j] ** 2 - v[j + 1] ** 2) * hits - 2.0 * d * np.bincount(cell, w_star, size)
    return table, np.bincount(rank, minlength=n + 1)


def _finish(table: np.ndarray, tally: np.ndarray, i_star: int, prizes: np.ndarray) -> np.ndarray:
    """The (3, G) sums over all draws of w, w - w* and (w - w*)^2 at each
    grid point, from the blocks' summed tables and rank tallies
    (``_bin_block``).  The jumps of (w - w*)^2 are summed outward from e*,
    where they vanish, so the paired variance cannot cancel.

    Under a two-valued prize the table counts the jumps on draws lost and
    won at e*.  In units of the prize, w jumps by 1 on both and (w - w*)^2
    by 1 on draws lost and -1 on draws won, so these sums stay integers and
    are scaled once, by the prize and its square.  The prizes in these units
    are 1 and 0, so sum w* is the prize times the count of draws won at e*.
    """
    v, levels = _levels(prizes)
    scale = 1.0
    if levels.size == 1:
        scale, table = v[levels[0]], np.array([[1, 1], [1, -1]]) @ table
    w, jumps = scale * np.cumsum(table[0, :-1]), table[1, :-1]
    squares = np.concatenate([-np.cumsum(jumps[i_star:0:-1])[::-1], [0], np.cumsum(jumps[i_star + 1:])])
    return np.array([w, w - scale * ((v / scale) @ tally), scale * scale * squares])


def _tally_report(draws: int, seed: int, n: int, rank_counts: np.ndarray) -> SimulationReport:
    # cumulated in integers, so the last rank reads exactly 1 when every draw wins
    at_least = np.cumsum(rank_counts[:n]) / draws
    se = np.sqrt(at_least * (1.0 - at_least) / draws)
    return SimulationReport(
        draws=int(draws),
        seed=seed,
        n=n,
        rank_counts=tuple(int(c) for c in rank_counts),
        at_least_prob=tuple(at_least),
        at_least_se=tuple(se),
    )


def simulate_prize_probabilities(
    dist: NoiseDistribution,
    design: TournamentDesign,
    e: float,
    e_star: float,
    draws: int = 10**6,
    seed: int | None = None,
) -> SimulationReport:
    """Estimate per-rank prize probabilities for a deviator at effort ``e``
    against rivals at ``e_star``."""
    seed = _require_seed(seed)
    draws = _require_draws(draws)
    n = design.n

    def work(m, rng):
        x = dist.sample((m, n), rng)
        y1 = e + x[:, 0]
        return np.bincount(_rank(x, y1, y1 >= design.standard, e_star), minlength=n + 1)

    rank_counts = sum(_blocks(work, draws, BATCH, seed), np.zeros(n + 1, dtype=np.int64))  # index n = no prize
    return _tally_report(draws, seed, n, rank_counts)


def write_tally_csv(report: SimulationReport, path: str) -> None:
    """Dump the raw per-rank tallies of a simulation (rank 0 = no prize)."""
    with open(path, "w") as fh:
        fh.write("rank,count,frequency\n")
        for r, c in enumerate(report.rank_counts, start=1):
            label = r if r <= report.n else 0
            fh.write(f"{label},{c},{c / report.draws!r}\n")


def verify_best_response(
    dist: NoiseDistribution,
    design: TournamentDesign,
    e_star: float,
    grid_size: int = 10**4,
    draws: int = 10**6,
    seed: int | None = None,
) -> SimulationReport:
    """Scan deviation payoffs over an effort grid and certify the best gap.

    The grid is ``grid_size`` evenly spaced efforts on [0, max_effort] plus
    ``e_star``.  A single pass over the draws gives the payoff at every grid
    point, from histograms of the prize's jumps (see the module docstring),
    and the rank tally at ``e_star`` that fills the report's rank fields.
    Each block draws u_1, the rivals' uniforms down to the deepest level
    the prizes bin and the rank count K (``_scan_block``), and bins them
    row by row (``_bin_block``) on a worker thread of ``_blocks``;
    ``_finish`` turns the summed histograms into payoff sums.

    The gap is the largest estimated payoff improvement over ``e_star``; its
    standard error comes from the per-draw paired payoff differences (common
    random numbers).  The gap is certified up to 3 standard errors plus the
    grid-coarseness bias h L / 2, with h the widest grid step and
    L = sup f + c'(max_effort) a bound on the payoff's slope.  Fewer than
    1e4 draws, a ``grid_size`` below 2, or an ``e_star`` that is not a
    number in [0, max_effort], which would widen the grid's step, raise
    ``ValueError``.
    """
    seed = _require_seed(seed)
    draws = _require_draws(draws)
    n = design.n
    prizes = np.asarray(design.schedule.prizes)
    e_max = design.cost.max_effort
    if grid_size < 2:
        raise ValueError(f"grid_size {grid_size!r} is below 2, so the grid would not reach from 0 to max_effort")
    if not 0.0 <= e_star <= e_max:
        raise ValueError(f"checked effort {e_star!r} is not a number in [0, {e_max!r}]")
    grid, i_star = _effort_grid(e_max, grid_size, float(e_star))
    cells = _Cells(grid)
    levels = _levels(prizes)[1]
    depth = int(levels[levels < n - 1].max(initial=-1)) + 1

    def work(m, rng):
        return _bin_block(dist, *_scan_block(n, depth, m, rng), cells, i_star, design.standard, prizes)

    table = rank_counts = 0
    for block, counts in _blocks(work, draws, BATCH, seed):
        table += block
        rank_counts += counts
    mean_w, mean_d, mean_dsq = _finish(table, rank_counts, i_star, prizes) / draws
    payoffs = mean_w - np.asarray(design.cost.c(grid))
    gaps = payoffs - payoffs[i_star]
    i_best = int(np.argmax(gaps))
    gap = float(gaps[i_best])
    gap_se = float(np.sqrt(max(mean_dsq[i_best] - mean_d[i_best] ** 2, 0.0) / draws))
    step = float(np.max(np.diff(grid)))
    lipschitz = dist.find_modes().global_mode_density + float(design.cost.cprime(e_max))
    grid_bias = float(0.5 * lipschitz * step)
    grid.flags.writeable = payoffs.flags.writeable = False
    return replace(
        _tally_report(draws, seed, n, rank_counts),
        effort_grid=grid,
        payoffs=payoffs,
        gap=gap,
        gap_se=gap_se,
        grid_bias=grid_bias,
        certified=bool(gap <= 3.0 * gap_se + grid_bias),
    )
