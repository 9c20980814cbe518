"""Empirical audit of a tournament's performance standard.

Given observed performance data, estimate the density nonparametrically,
locate its modes, and compare the declared standard to the modal
performance: a standard below the mode should be raised, above it lowered.
The fraction of players passing is reported alongside the 50% benchmark that
applies when noise is symmetric and unimodal.
"""

from __future__ import annotations

import threading
from collections import Counter
from dataclasses import dataclass
from itertools import compress

import numpy as np
from scipy import fft

from .montecarlo import _blocks

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
ROWS_PER_BIN = 8        # at most this many rows per occupied bin: draw rows only, no Poisson counts
POISSON_MARGIN = 3.0    # Poisson totals aim this many sqrt(n) below n; rows top up the rest
ROW_DRAW_CHUNK = 1 << 16  # most row indices one call draws, unless one resample needs more


class SampleTooSmall(ValueError):
    """Fewer observations than the density estimate can support."""


@dataclass(frozen=True)
class PerformanceSample:
    observations: tuple[float, ...]
    declared_standard: float | None = None
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        obs = np.asarray(self.observations, dtype=float)
        if obs.ndim != 1:
            raise ValueError(f"observations must be one-dimensional, got shape {obs.shape}")
        if not np.all(np.isfinite(obs)):
            raise ValueError("observations must be finite")
        if self.declared_standard is not None and not np.isfinite(self.declared_standard):
            raise ValueError(f"declared standard {self.declared_standard!r} is not a finite number")
        if self.labels is not None and len(self.labels) != obs.size:
            raise ValueError("labels must align with observations")
        object.__setattr__(self, "observations", tuple(obs.tolist()))


@dataclass(frozen=True)
class AuditReport:
    """Modal performance of a sample and its bootstrap interval.

    ``standard_comparison`` is None without a declared standard; otherwise
    it holds ``declared_standard``, ``modal_performance``, ``mode_ci`` (a
    list), ``recommendation`` (raise, lower or keep) and ``pass_fraction``,
    the share of observations at or above the standard.
    ``group_pass_fractions`` gives that share per label when the sample has
    both labels and a standard, and is None otherwise.  Its fields that are
    not None are the JSON keys that ``audit`` prints.
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
    """Bin centres, counts and bin width of the grid the KDE is smoothed on.

    A bandwidth that leaves the grid no finite, positive width, or whose
    Gaussian weights exp(-x^2 / 2 sigma^2) overflow at sigma = bandwidth /
    bin width, raises ``ValueError``.
    """
    lo = float(obs.min()) - KDE_PAD * bandwidth
    hi = float(obs.max()) + KDE_PAD * bandwidth
    if not (np.isfinite(hi - lo) and hi > lo):
        raise ValueError(f"bandwidth leaves the KDE grid no finite, positive width, got {bandwidth!r}")
    edges = np.linspace(lo, hi, KDE_GRID_POINTS + 1)
    binwidth = float(edges[1] - edges[0])
    sigma = bandwidth / binwidth
    if not sigma * sigma > 0.5 / np.finfo(float).max:
        raise ValueError(f"bandwidth is too narrow for the KDE grid's Gaussian weights, got {bandwidth!r}")
    counts, _ = np.histogram(obs, bins=edges)
    return 0.5 * (edges[:-1] + edges[1:]), counts, binwidth


def _gaussian_spectrum(sigma: float, width: int) -> tuple[int, int, np.ndarray]:
    """Radius r, FFT length L and real spectrum of the smoothing kernel.

    The kernel is exp(-x^2 / 2 sigma^2) at the integers |x| <= r =
    int(4 sigma + 0.5), normalised to sum one.  Smoothing ``width`` bins
    with zeros beyond them is a linear convolution of width + 2r values, of
    which bins r .. r + width - 1 are kept; a circular one of length L >=
    width + r wraps nothing into those, so the FFT is padded on one side
    only.  A kernel longer than L is cut to its first L values, offsets
    -r .. L - 1 - r, which hold every offset |x| < width the kept bins read.
    """
    radius = int(4.0 * sigma + 0.5)
    kernel = np.exp(-0.5 / (sigma * sigma) * np.arange(-radius, radius + 1) ** 2)
    kernel /= kernel.sum()
    length = fft.next_fast_len(width + radius, real=True)
    return radius, length, np.fft.rfft(kernel, length)


def _smoothed(counts: np.ndarray, sigma: float) -> np.ndarray:
    """``counts`` convolved with ``_gaussian_spectrum``'s kernel, zero beyond its ends."""
    radius, length, spectrum = _gaussian_spectrum(sigma, counts.size)
    return np.fft.irfft(np.fft.rfft(counts, length) * spectrum, length)[radius:radius + counts.size]


def kde_on_grid(obs: np.ndarray, bandwidth: float) -> tuple[np.ndarray, np.ndarray]:
    """Binned Gaussian kernel density estimate.

    Observations are histogrammed onto a uniform grid and smoothed by FFT
    with a Gaussian kernel whose sigma is the bandwidth in bin units
    (``_smoothed``); O(n + grid log grid) instead of O(n * grid), which
    keeps the bootstrap cheap.
    """
    obs = np.asarray(obs, dtype=float)
    centers, counts, binwidth = _binned(obs, bandwidth)
    return centers, _smoothed(counts, bandwidth / binwidth) / (obs.size * binwidth)


def _resample_counts(
    rng: np.random.Generator, held: np.ndarray, bin_of_row: np.ndarray, size: int
) -> np.ndarray:
    """Counts in ``held``'s K bins of ``size`` resamples of its n rows, shape (size, K).

    Every row is Multinomial(n, held / n); ``bin_of_row`` maps each row to
    its bin.  Above ``ROWS_PER_BIN`` rows per bin, a resample first draws a
    Poisson count per bin with mean (1 - ``POISSON_MARGIN`` / sqrt(n)) *
    held, drawn again while their total S exceeds n.  Every resample then
    draws its n - S missing rows (all n at most ``ROWS_PER_BIN`` rows per
    bin) as row indices.  Given S = s the Poisson counts are Multinomial(s,
    held / n), and the rows add an independent Multinomial(n - s, held / n),
    so the sum is Multinomial(n, held / n) (Devroye, Non-Uniform Random
    Variate Generation, 1986).  The stream gives the block's Poisson counts,
    then the redraws in order of resample, then the rows.  The rows of
    consecutive resamples are drawn in calls of at most ``ROW_DRAW_CHUNK``
    indices, a longer resample in a call of its own, which bounds the
    indices held at once; ``Generator.integers`` takes the stream in order,
    so the counts do not depend on the chunk.
    """
    n, K = bin_of_row.size, held.size
    if n > ROWS_PER_BIN * K:
        mean = (1.0 - POISSON_MARGIN / np.sqrt(n)) * held
        counts = rng.poisson(mean, size=(size, K))
        for row in np.flatnonzero(counts.sum(axis=1) > n):
            while counts[row].sum() > n:
                counts[row] = rng.poisson(mean)
    else:
        counts = np.zeros((size, K), dtype=np.int64)
    ends = np.concatenate(([0], np.cumsum(n - counts.sum(axis=1))))  # resample i's rows end at ends[i + 1]
    start = 0
    while start < size:
        stop = max(start + 1, int(np.searchsorted(ends, ends[start] + ROW_DRAW_CHUNK, side="right")) - 1)
        rows = rng.integers(0, n, size=int(ends[stop] - ends[start]), dtype=np.int32)  # n < 2**31 rows in memory
        splits = ends[start + 1:stop] - ends[start]
        for row, drawn in zip(counts[start:stop], np.split(bin_of_row[rows], splits)):
            row += np.bincount(drawn, minlength=K)
        start = stop
    return counts


def _bootstrap_argmax(seed: int, counts: np.ndarray, sigma: float, draws: int) -> np.ndarray:
    """Bin of the smoothed maximum for each of ``draws`` bootstrap resamples.

    ``montecarlo._blocks`` runs blocks of ``BOOTSTRAP_BLOCK`` resamples, each
    drawn from its own substream by ``_resample_counts`` over the occupied
    bins, with one row-to-bin map for the whole bootstrap.  Each block is
    smoothed by ``_gaussian_spectrum``'s kernel, as ``_smoothed`` smooths
    the point estimate, over the span of W bins from the first to the last
    occupied bin only: a bin outside it is farther than the span's nearer
    end from every occupied bin, and the weights fall strictly with
    distance, so its value is below that end's.  Each worker thread makes
    its buffers once per call: a block of the FFT's L values per resample,
    zeroed once, into whose occupied columns every block writes its counts,
    and the spectra and smoothed rows that ``rfft`` and ``irfft`` write
    through ``out=``.  Each row's mode is its ``np.argmax``.
    """
    cols = np.flatnonzero(counts)
    held = counts[cols]
    bin_of_row = np.repeat(np.arange(cols.size), held)
    first = int(cols[0])
    cols -= first
    width = int(cols[-1]) + 1
    radius, length, spectrum = _gaussian_spectrum(sigma, width)
    buffers = threading.local()

    def block_argmax(size: int, rng: np.random.Generator) -> np.ndarray:
        if not hasattr(buffers, "block"):
            buffers.block = np.zeros((BOOTSTRAP_BLOCK, length))
            buffers.spectra = np.empty((BOOTSTRAP_BLOCK, spectrum.size), dtype=complex)
            buffers.smooth = np.empty((BOOTSTRAP_BLOCK, length))
        block = buffers.block[:size]
        block[:, cols] = _resample_counts(rng, held, bin_of_row, size)
        spectra = np.fft.rfft(block, out=buffers.spectra[:size])
        spectra *= spectrum
        smooth = np.fft.irfft(spectra, length, out=buffers.smooth[:size])[:, radius:radius + width]
        return np.argmax(smooth, axis=1) + first

    return np.concatenate(list(_blocks(block_argmax, draws, BOOTSTRAP_BLOCK, seed)))


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
    idx = _grid_modes(density, plateau_tol=1e-9 * fmax)
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
    interval (percentile 2.5-97.5 over resamples of the rows, binned) drives
    the recommendation: a declared standard below the interval should be
    raised, above it lowered, inside it kept.  A sample with at most
    ``ROWS_PER_BIN`` rows per occupied bin is resampled by drawing row
    indices; a denser one draws Poisson counts per bin, held below n in
    total, and tops them up to n rows by row indices.  Both draw each
    resample's bin counts exactly from Multinomial(n, counts / n).
    Row indices are drawn in calls of at most ``ROW_DRAW_CHUNK``, so few
    are held at once.  The point estimate and every resample are smoothed
    with one Gaussian kernel by real FFT (Silverman, Applied Statistics AS
    176, 1982); blocks of resamples go through one FFT over the span of
    occupied bins, outside which the smoothed maximum cannot lie.  Block k
    of resamples draws from ``PCG64DXSM(seed).jumped(k)`` (O'Neill, "PCG",
    HMC-CS-2014-0905) on a worker thread of ``montecarlo._blocks``, so one
    seed gives one report.
    ``bandwidth`` None is Silverman's; one that is not positive and finite,
    or breaks the grid (see ``_binned``), raises ``ValueError``, and so does
    a ``bootstrap`` that is not a positive whole number.
    """
    obs = np.asarray(sample.observations, dtype=float)
    if obs.size < MIN_OBSERVATIONS:
        raise SampleTooSmall(f"need at least {MIN_OBSERVATIONS} observations, got {obs.size}")
    if not isinstance(bootstrap, (int, np.integer)) or bootstrap < 1:
        raise ValueError(f"bootstrap needs a whole number of resamples, at least one, got {bootstrap!r}")
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

    boot = grid[_bootstrap_argmax(seed, counts, sigma, bootstrap)]
    ci = (float(np.percentile(boot, 2.5)), float(np.percentile(boot, 97.5)))

    comparison = None
    groups = None
    if sample.declared_standard is not None:
        std = float(sample.declared_standard)
        passed = obs >= std
        comparison = {
            "declared_standard": sample.declared_standard,
            "modal_performance": modal,
            "mode_ci": list(ci),
            "recommendation": "raise" if std < ci[0] else "lower" if std > ci[1] else "keep",
            "pass_fraction": float(np.mean(passed)),
        }
        if sample.labels is not None:
            above = Counter(compress(sample.labels, passed.tolist()))
            groups = {str(lab): above[lab] / m for lab, m in sorted(Counter(sample.labels).items())}
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

