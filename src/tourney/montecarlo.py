"""Brute-force Monte-Carlo verification of the analytic layer.

Tournaments are simulated directly from the model primitives: draw noise,
rank performances above the standard, award prizes by rank.  Prize
probabilities, deviation payoffs, and best-response gaps estimated here are
independent of the quadrature code paths and certify them statistically.

Reproducibility: draws come from counter-based Philox streams, one stream
per fixed-size batch of draws, keyed by the caller's seed.  Batches can be
processed in any order (merging is by sums), and every effort level on a
verification grid reuses the same noise matrix, so payoff differences across
efforts are common-random-number estimates with tiny variance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import NoiseDistribution
from .equilibrium import TournamentDesign, prize_probability

__all__ = [
    "SeedRequired",
    "SimulationReport",
    "simulate_prize_probabilities",
    "verify_best_response",
    "finite_difference_marginals",
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


def _prize_values(x: np.ndarray, efforts: np.ndarray, e_star: float, rho: float,
                  prizes: np.ndarray) -> np.ndarray:
    """Player 1's prize per draw (rows) and per own effort (columns).

    Rivals sit at ``e_star``; ranking counts rivals who pass the standard and
    strictly beat player 1 (ties, a measure-zero event, go to player 1).
    """
    rivals = e_star + x[:, 1:]
    rival_pass = rivals >= rho
    v = np.append(prizes, 0.0)  # sentinel for "missed the standard"
    out = np.empty((x.shape[0], efforts.size))
    for col, e in enumerate(efforts):
        y1 = e + x[:, 0]
        k = np.sum(rival_pass & (rivals > y1[:, None]), axis=1)
        out[:, col] = v[np.where(y1 >= rho, k, len(prizes))]
    return out


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
    if draws < 10**4:
        raise ValueError("use at least 1e4 draws; standard errors are meaningless below that")
    n = design.n
    rho = design.standard
    prizes = np.asarray(design.schedule.prizes)
    rank_counts = np.zeros(n + 1, dtype=np.int64)  # index n = no prize
    pass_count = 0
    for x in noise_batches(dist, n, draws, seed):
        rivals = e_star + x[:, 1:]
        y1 = e + x[:, 0]
        k = np.sum((rivals >= rho) & (rivals > y1[:, None]), axis=1)
        rank = np.where(y1 >= rho, k, n)
        rank_counts += np.bincount(rank, minlength=n + 1)
        pass_count += int(np.sum(y1 >= rho)) + int(np.sum(rivals >= rho))
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
    grid_size: int = 200,
    draws: int = 10**6,
    seed: int | None = None,
) -> SimulationReport:
    """Scan deviation payoffs over an effort grid and report the best gap.

    The gap is the largest estimated payoff improvement over playing
    ``e_star``; its standard error comes from the per-draw paired payoff
    differences (common random numbers).  Certification allows the gap up to
    3 standard errors plus a grid-coarseness bias bound from a Lipschitz
    estimate of the payoff slope.
    """
    seed = _require_seed(seed)
    n = design.n
    rho = design.standard
    prizes = np.asarray(design.schedule.prizes)
    e_max = design.cost.max_effort
    grid = np.unique(np.concatenate([np.linspace(0.0, e_max, grid_size), [e_star]]))
    i_star = int(np.searchsorted(grid, e_star))

    sums = np.zeros(grid.size)
    sumsq = np.zeros(grid.size)
    dsums = np.zeros(grid.size)
    dsumsq = np.zeros(grid.size)
    pass_count = 0
    for x in noise_batches(dist, n, draws, seed):
        w = _prize_values(x, grid, e_star, rho, prizes)
        sums += w.sum(axis=0)
        sumsq += np.sum(w * w, axis=0)
        diff = w - w[:, i_star][:, None]
        dsums += diff.sum(axis=0)
        dsumsq += np.sum(diff * diff, axis=0)
        y1 = grid[i_star] + x[:, 0]
        pass_count += int(np.sum(y1 >= rho)) + int(np.sum(e_star + x[:, 1:] >= rho))

    mean_w = sums / draws
    var_w = np.maximum(sumsq / draws - mean_w**2, 0.0)
    payoffs = mean_w - np.asarray(design.cost.c(grid))
    payoff_se = np.sqrt(var_w / draws)

    mean_d = dsums / draws
    var_d = np.maximum(dsumsq / draws - mean_d**2, 0.0)
    gaps = (payoffs - payoffs[i_star])
    i_best = int(np.argmax(gaps))
    gap = float(gaps[i_best])
    gap_se = float(np.sqrt(var_d[i_best] / draws))

    lo, hi = dist.truncated_support()
    sup_f = float(np.max(dist.pdf(np.linspace(lo, hi, 4096))))
    lipschitz = sup_f + float(design.cost.cprime(e_max))
    step = float(np.max(np.diff(grid))) if grid.size > 1 else 0.0
    grid_bias = 0.5 * lipschitz * step
    certified = gap <= 3.0 * gap_se + grid_bias

    # rank frequencies at the equilibrium point come along for free
    base = simulate_prize_probabilities(dist, design, e_star, e_star, max(draws, 10**4), seed)
    return SimulationReport(
        draws=int(draws),
        seed=seed,
        n=n,
        rank_counts=base.rank_counts,
        prize_freq=base.prize_freq,
        at_least_prob=base.at_least_prob,
        at_least_se=base.at_least_se,
        pass_fraction=pass_count / (draws * n),
        effort_grid=tuple(grid),
        payoffs=tuple(payoffs),
        payoff_se=tuple(payoff_se),
        best_response_gap=gap,
        gap_se=gap_se,
        grid_bias=float(grid_bias),
        certified=bool(certified),
    )


def finite_difference_marginals(
    dist: NoiseDistribution,
    design: TournamentDesign,
    e_star: float,
    step: float = 1e-5,
    method: str = "quadrature",
    draws: int = 10**6,
    seed: int | None = None,
) -> np.ndarray:
    """Central-difference estimates of d/de of the at-least-rank-r probability.

    Differentiates either the quadrature probabilities (default) or the
    common-random-number Monte-Carlo estimates; in equilibrium these match
    the rank marginal-benefit coefficients at ``standard - e_star``.
    """
    n = design.n
    rho = design.standard
    if method == "quadrature":
        up = np.array([prize_probability(dist, n, r, e_star + step, e_star, rho) for r in range(1, n + 1)])
        dn = np.array([prize_probability(dist, n, r, e_star - step, e_star, rho) for r in range(1, n + 1)])
        return (up - dn) / (2.0 * step)
    if method != "simulate":
        raise ValueError("method must be 'quadrature' or 'simulate'")
    seed = _require_seed(seed)
    counts_up = np.zeros(n)
    counts_dn = np.zeros(n)
    for x in noise_batches(dist, n, draws, seed):
        rivals = e_star + x[:, 1:]
        rival_pass = rivals >= rho
        for sign, counts in ((+1.0, counts_up), (-1.0, counts_dn)):
            y1 = e_star + sign * step + x[:, 0]
            k = np.sum(rival_pass & (rivals > y1[:, None]), axis=1)
            k = np.where(y1 >= rho, k, n)
            counts += np.bincount(k, minlength=n + 1)[:n]
    at_least_up = np.cumsum(counts_up / draws)
    at_least_dn = np.cumsum(counts_dn / draws)
    return (at_least_up - at_least_dn) / (2.0 * step)
