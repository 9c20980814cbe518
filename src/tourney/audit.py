"""Empirical audit of a tournament's performance standard.

Given observed performance data, estimate the density nonparametrically,
locate its modes, and compare the declared standard to the modal
performance: a standard below the mode should be raised, above it lowered.
The fraction of players passing is reported alongside the 50% benchmark that
applies when noise is symmetric and unimodal.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import fft, ndimage

__all__ = [
    "SampleTooSmall",
    "PerformanceSample",
    "AuditReport",
    "silverman_bandwidth",
    "kde_on_grid",
    "kde_modes",
    "audit_sample",
]

MIN_OBSERVATIONS = 30
KDE_GRID_POINTS = 4096  # bins of the KDE grid
KDE_PAD = 3.0           # grid margin beyond the data, in bandwidths
MODE_MIN_REL_HEIGHT = 0.01  # smallest KDE mode reported, relative to the highest
BOOTSTRAP_BLOCK = 32    # resamples per FFT block; sets the block's memory
TIE_RTOL = 2e-9         # runner-up this close to a row's maximum: use the direct filter


class SampleTooSmall(ValueError):
    """Fewer observations than the density estimate can support."""


@dataclass(frozen=True)
class PerformanceSample:
    observations: tuple[float, ...]
    declared_standard: float | None = None
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        obs = np.asarray(self.observations, dtype=float)
        if not np.all(np.isfinite(obs)):
            raise ValueError("observations must be finite")
        if self.labels is not None and len(self.labels) != obs.size:
            raise ValueError("labels must align with observations")
        object.__setattr__(self, "observations", tuple(float(v) for v in obs))


@dataclass(frozen=True)
class AuditReport:
    """Modal performance of a sample and its bootstrap interval.

    ``standard_comparison`` is None without a declared standard; otherwise
    it holds ``declared_standard``, ``modal_performance``, ``mode_ci`` (a
    list), ``recommendation`` (raise, lower or keep) and ``pass_fraction``,
    the share of observations at or above the standard.
    ``group_pass_fractions`` gives that share per label when the sample has
    both labels and a standard, and is None otherwise.
    """

    n_obs: int
    bandwidth: float
    modes: tuple[float, ...]
    modal_performance: float
    mode_ci: tuple[float, float]
    bootstrap_draws: int
    seed: int
    standard_comparison: dict | None
    pass_benchmark_note: str
    group_pass_fractions: dict | None


def silverman_bandwidth(x: np.ndarray) -> float:
    x = np.asarray(x, dtype=float)
    std = float(np.std(x))
    q75, q25 = np.percentile(x, [75, 25])
    spread = min(std, (q75 - q25) / 1.34) or std or 1.0
    return 0.9 * spread * x.size ** (-0.2)


def _binned(obs: np.ndarray, bandwidth: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Bin centres, counts and bin width of the grid the KDE is smoothed on."""
    lo = obs.min() - KDE_PAD * bandwidth
    hi = obs.max() + KDE_PAD * bandwidth
    edges = np.linspace(lo, hi, KDE_GRID_POINTS + 1)
    counts, _ = np.histogram(obs, bins=edges)
    return 0.5 * (edges[:-1] + edges[1:]), counts, float(edges[1] - edges[0])


def _smoothed(counts: np.ndarray, sigma: float) -> np.ndarray:
    return ndimage.gaussian_filter1d(counts.astype(float), sigma=sigma, mode="constant")


def kde_on_grid(obs: np.ndarray, bandwidth: float) -> tuple[np.ndarray, np.ndarray]:
    """Binned Gaussian kernel density estimate.

    Observations are histogrammed onto a uniform grid and smoothed with a
    Gaussian filter whose sigma is the bandwidth in bin units; O(n + grid)
    instead of O(n * grid), which keeps the bootstrap cheap.
    """
    obs = np.asarray(obs, dtype=float)
    centers, counts, binwidth = _binned(obs, bandwidth)
    return centers, _smoothed(counts, bandwidth / binwidth) / (obs.size * binwidth)


def _bootstrap_argmax(
    rng: np.random.Generator, counts: np.ndarray, sigma: float, draws: int
) -> np.ndarray:
    """Bin of the smoothed maximum for each of ``draws`` multinomial resamples.

    Equal, bin for bin, to drawing ``rng.multinomial`` once per resample and
    taking the argmax of ``_smoothed``, and ``rng`` ends in the same state.
    A block of resamples is one multinomial call over the occupied bins and
    the last bin: numpy's multinomial takes no random word for a bin of
    probability 0 and gives the last bin the remainder, so these are the
    full grid's draws from the same Philox stream.  One worker thread draws
    block k + 1 while this thread smooths block k by real FFT with scipy's
    truncated, normalised kernel, zero-padded so nothing wraps around; both
    release the GIL, and the stream is still drawn strictly in order.  A row
    whose runner-up is within ``TIE_RTOL`` of its maximum, where rounding
    could pick a different bin, is smoothed again by ``_smoothed``.
    """
    n = int(counts.sum())
    cols = np.append(np.flatnonzero(counts[:-1]), counts.size - 1)
    p = counts[cols] / n
    radius = int(4.0 * sigma + 0.5)
    kernel = np.exp(-0.5 / (sigma * sigma) * np.arange(-radius, radius + 1) ** 2)
    kernel /= kernel.sum()
    length = fft.next_fast_len(counts.size + 2 * radius, real=True)
    spectrum = fft.rfft(kernel, length)

    def draw(start: int) -> np.ndarray:
        size = min(BOOTSTRAP_BLOCK, draws - start)
        block = np.zeros((size, counts.size), dtype=np.int64)
        block[:, cols] = rng.multinomial(n, p, size=size)
        return block

    out = np.empty(draws, dtype=np.intp)
    with ThreadPoolExecutor(1) as pool:
        pending = pool.submit(draw, 0)
        for start in range(0, draws, BOOTSTRAP_BLOCK):
            block = pending.result()
            if start + BOOTSTRAP_BLOCK < draws:
                pending = pool.submit(draw, start + BOOTSTRAP_BLOCK)
            smooth = fft.irfft(fft.rfft(block, length) * spectrum, length)[:, radius:radius + counts.size]
            best = np.argmax(smooth, axis=1)
            top = smooth[np.arange(best.size), best]
            tied = np.count_nonzero(smooth >= (top * (1.0 - TIE_RTOL))[:, None], axis=1) > 1
            for row in np.flatnonzero(tied):
                best[row] = np.argmax(_smoothed(block[row], sigma))
            out[start:start + best.size] = best
    return out


def _grid_modes(f: np.ndarray, plateau_tol: float) -> list[int]:
    """Indices of distinct local maxima on a grid, ascending.

    A candidate is a weak local maximum with a strict rise on at least one
    side; the endpoints join when the density decreases away from them (the
    upper one additionally must carry the global maximum, so flat tails do
    not leak in).  Adjacent candidates merge when no grid point between them
    dips below both by more than ``plateau_tol``, encoding the
    separated-by-a-dip notion of distinct modes; merged groups keep the
    higher point, rightmost on ties.
    """
    n = len(f)
    mid, left, right = f[1:-1], f[:-2], f[2:]
    peak = (
        (mid >= left - plateau_tol)
        & (mid >= right - plateau_tol)
        & ((mid > left + plateau_tol) | (mid > right + plateau_tol))
    )
    cand = (np.flatnonzero(peak) + 1).tolist()
    if n >= 2 and f[0] >= f[1] - plateau_tol and f[0] > 0:
        cand.insert(0, 0)
    if n >= 2 and f[-1] >= f[-2] - plateau_tol and f[-1] >= f.max() - plateau_tol > 0:
        cand.append(n - 1)
    stack: list[int] = []
    for i in cand:
        while stack:
            prev = stack[-1]
            dip = f[prev : i + 1].min()
            if dip < min(f[prev], f[i]) - plateau_tol:
                break  # distinct
            if f[i] >= f[prev] - plateau_tol:
                stack.pop()
                continue
            i = None
            break
        if i is not None:
            stack.append(i)
    return stack


def kde_modes(grid: np.ndarray, density: np.ndarray) -> tuple[float, ...]:
    """Distinct local maxima of a density curve, largest location first."""
    fmax = float(density.max())
    idx = _grid_modes(density, plateau_tol=1e-9 * max(fmax, 1.0))
    modes = [float(grid[i]) for i in idx if density[i] >= MODE_MIN_REL_HEIGHT * fmax]
    return tuple(sorted(modes, reverse=True))


def audit_sample(
    sample: PerformanceSample,
    bandwidth: float | None = None,
    bootstrap: int = 1000,
    seed: int = 0,
) -> AuditReport:
    """Estimate modal performance and judge the declared standard against it.

    The modal performance is the global KDE argmax; its bootstrap confidence
    interval (percentile 2.5-97.5 over multinomial bin resamples) drives the
    recommendation: a declared standard below the interval should be raised,
    above it lowered, inside it kept.  Each resample is smoothed with the
    point estimate's Gaussian kernel; blocks of resamples go through one real
    FFT (Silverman, Applied Statistics AS 176, 1982), and a near-tied argmax
    is settled by the direct filter, so every resample's mode is the bin the
    direct filter picks.  Each block draws only the occupied bins, and one
    worker thread draws the next block from the same stream while this one
    is smoothed; the bins are those of one full multinomial draw per
    resample.  ``bandwidth`` None is Silverman's; one that is not
    positive and finite raises ``ValueError``.
    """
    obs = np.asarray(sample.observations, dtype=float)
    if obs.size < MIN_OBSERVATIONS:
        raise SampleTooSmall(f"need at least {MIN_OBSERVATIONS} observations, got {obs.size}")
    if bootstrap < 1:
        raise ValueError(f"bootstrap needs at least one resample, got {bootstrap}")
    if bandwidth is None:
        bw = silverman_bandwidth(obs)
    else:
        bw = float(bandwidth)
        if not (np.isfinite(bw) and bw > 0.0):
            raise ValueError(f"bandwidth must be a positive finite number, got {bandwidth!r}")
    grid, counts, binwidth = _binned(obs, bw)
    sigma = bw / binwidth
    dens = _smoothed(counts, sigma) / (obs.size * binwidth)
    modes = kde_modes(grid, dens)
    modal = float(grid[int(np.argmax(dens))])

    rng = np.random.Generator(np.random.Philox(key=seed))
    boot = grid[_bootstrap_argmax(rng, counts, sigma, bootstrap)]
    ci = (float(np.percentile(boot, 2.5)), float(np.percentile(boot, 97.5)))

    comparison = None
    groups = None
    if sample.declared_standard is not None:
        std = float(sample.declared_standard)
        comparison = {
            "declared_standard": sample.declared_standard,
            "modal_performance": modal,
            "mode_ci": list(ci),
            "recommendation": "raise" if std < ci[0] else "lower" if std > ci[1] else "keep",
            "pass_fraction": float(np.mean(obs >= std)),
        }
        if sample.labels is not None:
            labels = np.asarray(sample.labels)
            groups = {
                str(lab): float(np.mean(obs[labels == lab] >= std))
                for lab in sorted(set(sample.labels))
            }
    note = (
        "passing 50% of players is the benchmark under symmetric unimodal "
        "noise with the standard at the mode; skewed noise shifts it"
    )
    return AuditReport(
        n_obs=int(obs.size),
        bandwidth=bw,
        modes=modes,
        modal_performance=modal,
        mode_ci=ci,
        bootstrap_draws=int(bootstrap),
        seed=int(seed),
        standard_comparison=comparison,
        pass_benchmark_note=note,
        group_pass_fractions=groups,
    )

