"""Brute-force Monte-Carlo verification of the analytic layer.

Tournaments are simulated directly from the model primitives: draw noise,
rank performances above the standard, award prizes by rank.  Prize
probabilities, deviation payoffs, and best-response gaps estimated here are
independent of the quadrature code paths and certify them statistically.
One routine ranks the simulated players.

Reproducibility: draws come from counter-based Philox streams, one stream
per fixed-size batch of draws, keyed by the caller's seed.  Batches can be
processed in any order (merging is by sums), and every effort level on a
verification grid reuses the same noise matrix, so payoff differences across
efforts are common-random-number estimates with tiny variance.

Best-response scan: for one draw, the deviator's prize as a function of own
effort is a right-continuous step function.  It is 0 below rho - x1 (the
standard minus the deviator's noise), steps up there, and steps up again at
each passing rival's score minus x1.  Histograms of the jumps on the effort
grid, summed cumulatively, give the payoff sums at every grid point in one
pass over the noise, in O(draws n log n) whatever the grid size; the rank
tally at the checked effort comes from the same pass.  Only the steps where
the prize changes are binned: under winner-take-all or equal prizes that is
at most one per draw, and a rival who misses the standard is never one.
"""

from __future__ import annotations

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


class SeedRequired(ValueError):
    """Monte-Carlo entry points demand an explicit seed, so every run is
    reproducible."""


@dataclass(frozen=True)
class SimulationReport:
    draws: int
    seed: int
    n: int
    rank_counts: tuple[int, ...]           # raw tallies, last slot = no prize
    prize_freq: tuple[float, ...]          # chance of exactly rank r, player 1
    at_least_prob: tuple[float, ...]       # chance of rank r or better
    at_least_se: tuple[float, ...]
    pass_fraction: float
    effort_grid: tuple[float, ...] | None = None
    payoffs: tuple[float, ...] | None = None
    payoff_se: tuple[float, ...] | None = None
    best_response_gap: float | None = None
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


def _batch_sizes(draws: int):
    full, rest = divmod(int(draws), BATCH)
    sizes = [BATCH] * full
    if rest:
        sizes.append(rest)
    return sizes


def noise_batches(dist: NoiseDistribution, n: int, draws: int, seed: int):
    """Yield (m, n) noise matrices from per-batch Philox substreams."""
    root = np.random.Philox(key=seed)
    for i, m in enumerate(_batch_sizes(draws)):
        rng = np.random.Generator(root.jumped(i))
        yield dist.sample((m, n), rng)


def _rank(x: np.ndarray, e: float, e_star: float, rho: float):
    """Player 1's rank per draw at own effort ``e`` (0 = first, n = missed
    the standard) against rivals at ``e_star``, and the rivals' pass mask.

    A rival outranks player 1 when it passes the standard and strictly beats
    player 1's score; ties, a measure-zero event, go to player 1.
    """
    rivals = e_star + x[:, 1:]
    passing = rivals >= rho
    y1 = e + x[:, 0]
    k = np.count_nonzero(passing & (rivals > y1[:, None]), axis=1)
    return np.where(y1 >= rho, k, x.shape[1]), passing


def _grid_sums(x: np.ndarray, grid: np.ndarray, i_star: int, rho: float, prizes: np.ndarray):
    """Sums over one batch of player 1's prize w at each point of ``grid``.

    Rivals sit at e* = ``grid[i_star]``; w* is player 1's prize there.
    Returns the (4, grid.size) sums of w, w^2, w - w* and (w - w*)^2, player
    1's rank at e* per draw, and the rivals' pass mask.  A jump of w (see the
    module docstring) at p reaches every grid point g >= p, which keeps the
    rules of ``_rank``.  Jumps of (w - w*)^2 are taken per jump and summed
    outward from e*, where they vanish, so the paired variance cannot cancel.
    """
    n = x.shape[1]
    e_star = grid[i_star]
    rank_star, passing = _rank(x, e_star, e_star, rho)
    x1 = x[:, :1]
    beaten_at = np.sort(np.where(passing, e_star + x[:, 1:] - x1, np.inf), axis=1)
    pos = np.concatenate([rho - x1, beaten_at], axis=1)
    # rank before the first jump and after each: n, then m, m - 1, ... (m rivals pass)
    ranks = np.maximum(np.count_nonzero(passing, axis=1)[:, None] - np.arange(-1, n), 0)
    ranks[:, 0] = n
    v = np.append(prizes, 0.0)  # v[n] = 0: missed the standard
    w = v[ranks]
    w_star = v[rank_star]
    # only where w changes: w^2 and (w - w*)^2 are constant where w is
    jump = np.diff(w, axis=1) != 0
    bins = np.searchsorted(grid, pos[jump], side="left")

    def hist(levels):
        return np.bincount(bins, np.diff(levels, axis=1)[jump], grid.size + 1)[: grid.size]

    out = np.empty((4, grid.size))
    out[0] = np.cumsum(hist(w))
    out[1] = np.cumsum(hist(w * w))
    out[2] = out[0] - w_star.sum()
    jumps = hist((w - w_star[:, None]) ** 2)
    out[3, i_star] = 0.0
    out[3, i_star + 1:] = np.cumsum(jumps[i_star + 1:])
    out[3, :i_star] = -np.cumsum(jumps[i_star:0:-1])[::-1]
    return out, rank_star, passing


def _scan(dist: NoiseDistribution, n: int, draws: int, seed: int, grid: np.ndarray, i_star: int,
          rho: float, prizes: np.ndarray):
    """``_grid_sums`` totalled over every batch of noise, with player 1's rank
    tally at e* = ``grid[i_star]`` and the count of players who pass there."""
    sums = np.zeros((4, grid.size))
    rank_counts = np.zeros(n + 1, dtype=np.int64)
    pass_count = 0
    for x in noise_batches(dist, n, draws, seed):
        batch, rank, passing = _grid_sums(x, grid, i_star, rho, prizes)
        sums += batch
        rank_counts += np.bincount(rank, minlength=n + 1)
        pass_count += int(np.count_nonzero(rank < n)) + int(np.count_nonzero(passing))
    return sums, rank_counts, pass_count


def _certificate(sums: np.ndarray, draws: int, efforts: np.ndarray, costs: np.ndarray, i_star: int,
                 lipschitz: float) -> dict:
    """Payoffs at every effort from the totals of ``_scan``, and the
    certificate of the best deviation from ``efforts[i_star]``.

    The gap is the largest estimated payoff improvement over that effort;
    its standard error comes from the per-draw paired payoff differences
    (common random numbers).  The gap is certified up to 3 standard errors
    plus the grid-coarseness bias h L / 2, with h the widest grid step and
    L a bound on the payoff's slope.
    """
    mean_w, mean_wsq, mean_d, mean_dsq = sums / draws
    payoffs = mean_w - costs
    gaps = payoffs - payoffs[i_star]
    i_best = int(np.argmax(gaps))
    gap = float(gaps[i_best])
    gap_se = float(np.sqrt(max(mean_dsq[i_best] - mean_d[i_best] ** 2, 0.0) / draws))
    step = float(np.max(np.diff(efforts))) if efforts.size > 1 else 0.0
    grid_bias = float(0.5 * lipschitz * step)
    return {
        "payoffs": payoffs,
        "payoff_se": np.sqrt(np.maximum(mean_wsq - mean_w**2, 0.0) / draws),
        "best_response_gap": gap,
        "gap_se": gap_se,
        "grid_bias": grid_bias,
        "certified": bool(gap <= 3.0 * gap_se + grid_bias),
    }


def _tally_report(draws: int, seed: int, n: int, rank_counts: np.ndarray,
                  pass_count: int) -> SimulationReport:
    freq = rank_counts[:n] / draws
    at_least = np.cumsum(freq)
    se = np.sqrt(at_least * (1.0 - at_least) / draws)
    return SimulationReport(
        draws=int(draws),
        seed=seed,
        n=n,
        rank_counts=tuple(int(c) for c in rank_counts),
        prize_freq=tuple(freq),
        at_least_prob=tuple(at_least),
        at_least_se=tuple(se),
        pass_fraction=pass_count / (draws * n),
    )


def simulate_prize_probabilities(
    dist: NoiseDistribution,
    design: TournamentDesign,
    e: float,
    e_star: float,
    draws: int = 10**6,
    seed: int | None = None,
) -> SimulationReport:
    """Estimate per-rank prize probabilities for a deviator at effort ``e``.

    ``pass_fraction`` pools all n players (the deviator at ``e``, rivals at
    ``e_star``).
    """
    seed = _require_seed(seed)
    draws = _require_draws(draws)
    n = design.n
    rank_counts = np.zeros(n + 1, dtype=np.int64)  # index n = no prize
    pass_count = 0
    for x in noise_batches(dist, n, draws, seed):
        rank, passing = _rank(x, e, e_star, design.standard)
        rank_counts += np.bincount(rank, minlength=n + 1)
        pass_count += int(np.count_nonzero(rank < n)) + int(np.count_nonzero(passing))
    return _tally_report(draws, seed, n, rank_counts, pass_count)


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
    """Scan deviation payoffs over an effort grid and report the best gap.

    The grid is ``grid_size`` evenly spaced efforts on [0, max_effort] plus
    ``e_star``.  A single pass over the noise gives the payoff at every grid
    point, from histograms of the prize's jumps (see the module docstring),
    and the rank tally at ``e_star`` that fills the report's rank fields.

    The gap over playing ``e_star`` is certified as in ``_certificate``,
    with the payoff slope bounded by sup f + c'(max_effort).  Fewer than 1e4
    draws raise ``ValueError``.
    """
    seed = _require_seed(seed)
    draws = _require_draws(draws)
    n = design.n
    prizes = np.asarray(design.schedule.prizes)
    e_max = design.cost.max_effort
    grid = np.unique(np.concatenate([np.linspace(0.0, e_max, grid_size), [e_star]]))
    i_star = int(np.searchsorted(grid, e_star))
    sums, rank_counts, pass_count = _scan(dist, n, draws, seed, grid, i_star, design.standard, prizes)
    lipschitz = dist.find_modes().global_mode_density + float(design.cost.cprime(e_max))
    cert = _certificate(sums, draws, grid, np.asarray(design.cost.c(grid)), i_star, lipschitz)
    return replace(
        _tally_report(draws, seed, n, rank_counts, pass_count),
        effort_grid=tuple(grid),
        **{**cert, "payoffs": tuple(cert["payoffs"]), "payoff_se": tuple(cert["payoff_se"])},
    )
