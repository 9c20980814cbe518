import re
import threading
import tracemalloc

import numpy as np
import pytest
from scipy import ndimage, stats

from tourney import audit
from tourney import montecarlo as mc


def _normal_sample(size=100_000, loc=0.0, seed=42):
    rng = np.random.Generator(np.random.Philox(key=seed))
    return rng.normal(loc, 1.0, size)


def test_sample_too_small():
    with pytest.raises(audit.SampleTooSmall):
        audit.audit_sample(audit.PerformanceSample(tuple(range(10))))


def test_sample_validation():
    with pytest.raises(ValueError, match="finite"):
        audit.PerformanceSample((1.0, float("nan")))
    with pytest.raises(ValueError, match="labels"):
        audit.PerformanceSample((1.0, 2.0), labels=("a",))
    with pytest.raises(ValueError, match="one-dimensional"):
        audit.PerformanceSample(((1.0,), (2.0,)))


def test_silverman_bandwidth_scaling():
    x = _normal_sample(10_000)
    bw = audit.silverman_bandwidth(x)
    assert 0.9 * 1.0 * 10_000 ** (-0.2) * 0.8 < bw < 0.9 * 1.0 * 10_000 ** (-0.2) * 1.2


def test_kde_recovers_density():
    obs = _normal_sample(50_000)
    grid, dens = audit.kde_on_grid(obs, audit.silverman_bandwidth(obs))
    step = grid[1] - grid[0]
    assert np.sum(dens) * step == pytest.approx(1.0, abs=1e-3)
    peak = grid[int(np.argmax(dens))]
    assert abs(peak) < 0.1


def test_keep_raise_lower():
    obs = tuple(_normal_sample(100_000, loc=5.0))
    for std, expected in [(5.0, "keep"), (4.0, "raise"), (6.0, "lower")]:
        rep = audit.audit_sample(
            audit.PerformanceSample(obs, declared_standard=std), bootstrap=200, seed=7
        )
        assert rep.standard_comparison["recommendation"] == expected
    rep = audit.audit_sample(audit.PerformanceSample(obs, declared_standard=5.0), bootstrap=200, seed=7)
    assert rep.standard_comparison["pass_fraction"] == pytest.approx(0.5, abs=0.01)


def test_bimodal_sample_reports_two_modes():
    rng = np.random.Generator(np.random.Philox(key=1))
    obs = np.concatenate([rng.normal(0.0, 0.5, 60_000), rng.normal(3.0, 0.5, 40_000)])
    rep = audit.audit_sample(audit.PerformanceSample(tuple(obs)), bootstrap=50, seed=1)
    assert len(rep.modes) == 2
    assert abs(rep.modes[0] - 3.0) < 0.15 and abs(rep.modes[1] - 0.0) < 0.15
    assert abs(rep.modal_performance - 0.0) < 0.15  # the heavier component wins


def test_modes_scale_with_the_unit():
    # the plateau tolerance is relative to the peak density, so rescaling
    # the data rescales the modes and changes nothing else
    rng = np.random.default_rng(2701)
    obs = np.concatenate([rng.normal(50.0, 7.5, 6500), rng.normal(70.0, 7.5, 3500)])
    unit = audit.audit_sample(audit.PerformanceSample(tuple(obs)), bootstrap=1).modes
    assert len(unit) == 2
    for scale in (1e-6, 1e4, 1e6):
        modes = audit.audit_sample(audit.PerformanceSample(tuple(obs * scale)), bootstrap=1).modes
        np.testing.assert_allclose(np.array(modes) / scale, unit, rtol=1e-12)


def test_group_pass_fractions():
    rng = np.random.Generator(np.random.Philox(key=2))
    obs = np.concatenate([rng.normal(0.0, 1.0, 2_000), rng.normal(1.0, 1.0, 2_000)])
    labels = ("a",) * 2_000 + ("b",) * 2_000
    rep = audit.audit_sample(
        audit.PerformanceSample(tuple(obs), declared_standard=0.5, labels=labels),
        bootstrap=50,
        seed=3,
    )
    assert rep.group_pass_fractions["a"] < rep.group_pass_fractions["b"]


def test_group_pass_fractions_are_mask_means():
    # Each is the mean of its label's pass mask, to the bit.  numpy's str
    # arrays drop trailing NULs, so a mask taken there put the rows of "d"
    # into the group "d\0" too
    rng = _philox(4)
    obs = rng.normal(0.0, 1.0, 3_001)
    names = ["a", "b", "c", "d", "d\0"]
    labels = tuple(names[i] for i in rng.integers(0, len(names), obs.size))
    rep = audit.audit_sample(audit.PerformanceSample(tuple(obs), declared_standard=0.1, labels=labels),
                             bootstrap=1, seed=3)
    expected = {lab: float(np.mean(obs[[x == lab for x in labels]] >= 0.1)) for lab in names}
    assert rep.group_pass_fractions == expected
    assert list(rep.group_pass_fractions) == names


def test_determinism():
    obs = tuple(_normal_sample(5_000))
    a = audit.audit_sample(audit.PerformanceSample(obs, declared_standard=0.0), bootstrap=100, seed=5)
    b = audit.audit_sample(audit.PerformanceSample(obs, declared_standard=0.0), bootstrap=100, seed=5)
    assert a == b


def test_standard_comparison_requires_standard():
    obs = tuple(_normal_sample(5_000))
    rep = audit.audit_sample(audit.PerformanceSample(obs), bootstrap=50, seed=5)
    assert rep.standard_comparison is None
    assert rep.group_pass_fractions is None


def test_mode_estimate_converges():
    hits = 0
    reps = 100
    for k in range(reps):
        obs = _normal_sample(100_000, seed=10_000 + k)
        bw = audit.silverman_bandwidth(obs)
        grid, dens = audit.kde_on_grid(obs, bw)
        err = abs(grid[int(np.argmax(dens))])
        hits += err < 2 * bw
    assert hits >= 95


def _philox(seed):
    return np.random.Generator(np.random.Philox(key=seed))


def _loop_resamples(rng, counts, draws):
    """Reference: the counts of ``draws`` resamples, one resample at a time.

    The resamples draw in the order ``_resample_counts`` draws a block.
    Above ``ROWS_PER_BIN`` rows per occupied bin, each resample first draws
    one Poisson count per occupied bin; then each resample whose total
    exceeds n, in turn, draws all its counts again until it does not; then
    each draws its missing rows as row indices, counted per bin.  At most
    ``ROWS_PER_BIN`` rows per occupied bin, all n rows are drawn so.  Every
    resample is smoothed over the whole grid.
    """
    n = int(counts.sum())
    occupied = np.flatnonzero(counts)
    bin_of_row = np.repeat(np.arange(counts.size), counts)
    resamples = np.zeros((draws, counts.size), dtype=np.int64)
    if n > audit.ROWS_PER_BIN * occupied.size:
        mean = (1.0 - audit.POISSON_MARGIN / np.sqrt(n)) * counts[occupied]
        for resample in resamples:
            resample[occupied] = rng.poisson(mean)
        for resample in resamples:
            while resample.sum() > n:
                resample[occupied] = rng.poisson(mean)
    for resample in resamples:
        rows = rng.integers(0, n, n - resample.sum())
        resample += np.bincount(bin_of_row[rows], minlength=counts.size)
    return resamples


def _blocked_loop_resamples(seed, counts, draws):
    """The loop reference run per block, block k on substream k of ``seed``."""
    starts = range(0, draws, audit.BOOTSTRAP_BLOCK)
    return np.concatenate([
        _loop_resamples(rng, counts, min(audit.BOOTSTRAP_BLOCK, draws - start))
        for rng, start in zip(mc._substreams(seed, len(starts)), starts)
    ])


def _blocked_loop_argmax(seed, counts, sigma, draws):
    """Each reference resample's mode, by scipy's direct Gaussian filter."""
    return np.array([
        np.argmax(ndimage.gaussian_filter1d(resample.astype(float), sigma=sigma, mode="constant"))
        for resample in _blocked_loop_resamples(seed, counts, draws)
    ], dtype=np.intp)


def _binned_gamma_sample(size, seed=17):
    obs = 20.0 + _philox(seed).gamma(3.0, 7.0, size)
    bw = audit.silverman_bandwidth(obs)
    _, counts, binwidth = audit._binned(obs, bw)
    return obs, counts, bw / binwidth


def _counts_at_the_switch(extra):
    """The 1000-row gamma sample's bins, rescaled to ``ROWS_PER_BIN`` rows per
    occupied bin plus ``extra`` rows, with the same occupied bins."""
    _, counts, sigma = _binned_gamma_sample(1_000)
    more = audit.ROWS_PER_BIN * np.count_nonzero(counts) + extra - counts.sum()
    add = np.floor(counts * (more / counts.sum())).astype(np.int64)
    add[np.argsort(-counts, kind="stable")[:more - add.sum()]] += 1  # fewer than the occupied bins
    assert add.sum() == more
    return counts + add, sigma


@pytest.mark.parametrize("size", [30, 1_000, 10_000, 100_000])
def test_bootstrap_matches_loop_reference(size):
    # 10^5 rows are over ROWS_PER_BIN per occupied bin, the others under it
    obs, counts, sigma = _binned_gamma_sample(size)
    got = audit._bootstrap_argmax(5, counts, sigma, 150)
    assert np.array_equal(got, _blocked_loop_argmax(5, counts, sigma, 150))
    grid, _ = audit.kde_on_grid(obs, audit.silverman_bandwidth(obs))
    rep = audit.audit_sample(audit.PerformanceSample(tuple(obs)), bootstrap=150, seed=5)
    boot = grid[got]
    assert rep.mode_ci == (float(np.percentile(boot, 2.5)), float(np.percentile(boot, 97.5)))


@pytest.mark.parametrize("draws", [1, 31, 32, 33, 100])
def test_bootstrap_block_edges(draws):
    # At n = ROWS_PER_BIN * occupied bins the blocks draw rows, one row above
    # it Poisson counts topped up by rows
    for counts, sigma in (_counts_at_the_switch(0), _counts_at_the_switch(1)):
        got = audit._bootstrap_argmax(9, counts, sigma, draws)
        assert np.array_equal(got, _blocked_loop_argmax(9, counts, sigma, draws))


@pytest.mark.parametrize("draws", [1, 31, 32, 33, 100])
@pytest.mark.parametrize("last_bin", [False, True], ids=["last-bin-empty", "last-bin-occupied"])
def test_bootstrap_consumes_the_stream_exactly(monkeypatch, draws, last_bin):
    # Within a block the reference draws every resample's Poisson counts,
    # then the redraws in turn, then every resample's rows, each resample
    # starting where the one before it left the substream.  Equal bins show
    # the block's draw consumes the substream in that order, by rows, by
    # Poisson counts, and when about half the totals overshoot n and are
    # redrawn.  The occupied span ends inside the grid or at its last bin.
    for path in ("rows", "dense", "redraw"):
        if path == "redraw":
            monkeypatch.setattr(audit, "POISSON_MARGIN", 0.0)
        if last_bin:
            counts, sigma = np.zeros(4096, dtype=np.int64), 12.5
            counts[[700, 2048, 4095]] = [4, 3, 2] if path == "rows" else [40, 25, 35]
        else:
            _, counts, sigma = _binned_gamma_sample(1_000 if path == "rows" else 100_000)
            assert counts[-1] == 0
        assert (counts.sum() <= audit.ROWS_PER_BIN * np.count_nonzero(counts)) == (path == "rows")
        got = audit._bootstrap_argmax(13, counts, sigma, draws)
        assert np.array_equal(got, _blocked_loop_argmax(13, counts, sigma, draws))


def test_bootstrap_draw_error_leaves_no_thread(monkeypatch):
    # 33 resamples are two blocks, and only the second has a single row; the
    # blocks are smoothed by numpy's FFT, which writes into the thread's buffers
    _, counts, sigma = _binned_gamma_sample(1_000)
    rows = []
    irfft = np.fft.irfft

    def failing_second_block(x, *args, **kwargs):
        rows.append(len(x))
        if len(x) == 1:
            raise RuntimeError("second block failed")
        return irfft(x, *args, **kwargs)

    monkeypatch.setattr(audit.np.fft, "irfft", failing_second_block)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="second block failed"):
        audit._bootstrap_argmax(3, counts, sigma, 33)
    assert sorted(rows) == [1, audit.BOOTSTRAP_BLOCK]
    assert threading.active_count() == before


def test_bootstrap_buffers_carry_nothing_between_calls():
    # A wide span, then a narrow one: each call smooths in buffers of its own
    # FFT length, and the short last block of 33 resamples reads only its row
    _, wide, wide_sigma = _binned_gamma_sample(1_000)
    narrow = np.zeros(4096, dtype=np.int64)
    narrow[[2000, 2003, 2010]] = [20, 15, 5]
    for counts, sigma in ((wide, wide_sigma), (narrow, 2.0)):
        got = audit._bootstrap_argmax(7, counts, sigma, 33)
        assert np.array_equal(got, _blocked_loop_argmax(7, counts, sigma, 33))


@pytest.mark.parametrize("chunk", ["one", "inside-a-resample", "above-a-block"])
def test_bootstrap_row_draws_in_chunks(monkeypatch, chunk):
    # Rows drawn one index per call, in calls that end inside a resample's
    # rows, and in one call per block give the same bins, by rows and by
    # Poisson counts topped up by rows
    for size in (1_000, 100_000):
        _, counts, sigma = _binned_gamma_sample(size)
        monkeypatch.setattr(audit, "ROW_DRAW_CHUNK", {
            "one": 1, "inside-a-resample": 300, "above-a-block": audit.BOOTSTRAP_BLOCK * size + 1}[chunk])
        got = audit._bootstrap_argmax(11, counts, sigma, 33)
        assert np.array_equal(got, _blocked_loop_argmax(11, counts, sigma, 33))


def test_bootstrap_row_draws_hold_little_memory():
    # 24,000 uniform rows are about 7.1 per occupied bin, near the top of the
    # row path; a whole block's row indices and bins held 21.4 MiB at peak
    obs = _philox(37).uniform(0.0, 1.0, 24_000)
    bw = audit.silverman_bandwidth(obs)
    _, counts, binwidth = audit._binned(obs, bw)
    assert 7.0 < counts.sum() / np.count_nonzero(counts) <= audit.ROWS_PER_BIN
    tracemalloc.start()
    try:
        audit._bootstrap_argmax(1, counts, bw / binwidth, 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 2**20


def test_bootstrap_exact_tie_resolves_to_a_tied_bin():
    # Two equal spikes: a resample splitting the mass evenly has two exactly
    # equal smoothed maxima, and its mode is one of the two spikes; any other
    # resample's mode is its heavier spike.  One row per spike is drawn by
    # rows, ROWS_PER_BIN + 1 by Poisson counts.
    for spike in (1, audit.ROWS_PER_BIN + 1):
        counts = np.zeros(4096, dtype=np.int64)
        counts[[1000, 1257]] = spike
        got = audit._bootstrap_argmax(1, counts, 37.4, 64)
        resamples = _blocked_loop_resamples(1, counts, 64)
        low, high = resamples[:, 1000], resamples[:, 1257]
        tied = low == high
        assert 0 < np.count_nonzero(tied) < tied.size
        assert set(got[tied].tolist()) <= {1000, 1257}
        assert np.array_equal(got[~tied], np.where(low > high, 1000, 1257)[~tied])


@pytest.mark.parametrize("pad", ["fast", "shortest"])
@pytest.mark.parametrize("sigma", [0.1, 0.3, 0.5, 1.7, 37.4, 400.0, 2000.0])
def test_smoothed_matches_direct_filter(monkeypatch, sigma, pad):
    # The FFT smoother against scipy's direct filter with zeros beyond the
    # grid, from a kernel of radius 0 (sigma 0.1) to one longer than the
    # 4096-bin grid (2000), with the FFT at scipy's fast length and at
    # exactly 4096 + r points, the shortest its one-sided pad allows
    if pad == "shortest":
        monkeypatch.setattr(audit.fft, "next_fast_len", lambda target, real: target)
    spikes = np.zeros(4096, dtype=np.int64)
    spikes[[3, 1000, 1257, 4093]] = [2, 1, 7, 3]
    both_ends = np.zeros(4096, dtype=np.int64)
    both_ends[:5], both_ends[-3:] = 4, 9
    for counts in (spikes, _philox(43).poisson(20.0, 4096), both_ends):
        direct = ndimage.gaussian_filter1d(counts.astype(float), sigma=sigma, mode="constant")
        got = audit._smoothed(counts, sigma)
        assert got.shape == direct.shape
        assert np.max(np.abs(got - direct)) <= 1e-14 * direct.max()


def test_bootstrap_fft_pad_at_its_shortest(monkeypatch):
    # The two equal spikes again, with the FFT at exactly W + r points, the
    # shortest the one-sided pad allows.  One point fewer would wrap the
    # upper spike's far tail into the first kept bin, the lower spike's, and
    # leave the last kept bin, the upper spike's, out of the smoothed rows.
    # Where a resample splits the mass evenly, which of the two exactly
    # equal maxima wins is up to the FFT's rounding, so any tied bin will do.
    monkeypatch.setattr(audit.fft, "next_fast_len", lambda target, real: target)
    for spike in (1, audit.ROWS_PER_BIN + 1):
        counts = np.zeros(4096, dtype=np.int64)
        counts[[1000, 1257]] = spike
        got = audit._bootstrap_argmax(1, counts, 37.4, 64)
        resamples = _blocked_loop_resamples(1, counts, 64)
        tied = resamples[:, 1000] == resamples[:, 1257]
        assert 0 < np.count_nonzero(tied) < tied.size
        assert set(got[tied].tolist()) <= {1000, 1257}
        assert np.array_equal(got[~tied], _blocked_loop_argmax(1, counts, 37.4, 64)[~tied])


def test_bootstrap_smooths_over_the_occupied_span():
    # The argmax of the whole grid's direct filter, on samples whose maximum
    # sits at an end of the occupied span or on a single bin
    one_bin = np.zeros(4096, dtype=np.int64)
    one_bin[2500] = 50
    exponential = np.bincount(np.floor(_philox(31).exponential(1.0, 2_000)).astype(int) + 900,
                              minlength=4096)
    two_ends = np.zeros(4096, dtype=np.int64)
    two_ends[[0, 1500]] = audit.ROWS_PER_BIN + 1
    for counts, sigma in ((one_bin, 20.0), (exponential, 1.0), (two_ends, 30.0)):
        got = audit._bootstrap_argmax(21, counts, sigma, 64)
        assert np.array_equal(got, _blocked_loop_argmax(21, counts, sigma, 64))
        occupied = np.flatnonzero(counts)
        assert set(got.tolist()) & {occupied[0], occupied[-1]}


@pytest.mark.parametrize("path", ["rows", "dense", "redraw", "poisson"])
def test_resample_counts_law(monkeypatch, path):
    # Three occupied bins: every resample holds n rows, and its joint outcome
    # follows Multinomial(n, held / n).  At n = 10 the dense path's Poisson
    # totals have mean 0.51, so the rows carry most of the resample; with
    # the margin at -0.3 most totals overshoot n and are redrawn, and with
    # it at 0 the Poisson counts carry most rows.
    held = np.array([5, 3, 2])
    if path != "rows":
        monkeypatch.setattr(audit, "ROWS_PER_BIN", 0)
        if path != "dense":
            monkeypatch.setattr(audit, "POISSON_MARGIN", -0.3 if path == "redraw" else 0.0)
        mean = 10.0 - audit.POISSON_MARGIN * np.sqrt(10.0)
        overshoot = stats.poisson.sf(10, mean)
        poisson_share = sum(s * stats.poisson.pmf(s, mean) for s in range(11)) / (10.0 * (1 - overshoot))
        assert {"dense": poisson_share < 0.5, "redraw": overshoot > 0.5,
                "poisson": poisson_share > 0.5}[path]
    assert (held.sum() <= audit.ROWS_PER_BIN * held.size) == (path == "rows")
    draws = audit._resample_counts(_philox(29), held, np.repeat(np.arange(3), held), 20_000)
    assert draws.shape == (20_000, 3)
    assert np.all(draws.sum(axis=1) == 10)
    outcomes, seen = np.unique(draws, axis=0, return_counts=True)
    every = [(a, b, 10 - a - b) for a in range(11) for b in range(11 - a)]
    expected = 20_000 * stats.multinomial.pmf(every, 10, held / 10)
    observed = np.zeros(len(every))
    observed[[every.index(tuple(o)) for o in outcomes.tolist()]] = seen
    rare = expected < 5.0  # pooled into one cell
    f_obs = np.append(observed[~rare], observed[rare].sum())
    f_exp = np.append(expected[~rare], expected[rare].sum())
    assert stats.chisquare(f_obs, f_exp * (f_obs.sum() / f_exp.sum())).pvalue > 1e-3


@pytest.mark.parametrize("bootstrap", [0, -1, 100.0])
def test_bootstrap_count_validated(bootstrap):
    # 100.0 used to raise a TypeError from range
    with pytest.raises(ValueError, match=f"got {bootstrap}$"):
        audit.audit_sample(audit.PerformanceSample(tuple(_normal_sample(100))), bootstrap=bootstrap)


@pytest.mark.parametrize("bandwidth", [0.0, -0.2, float("nan"), 1e-160, 1e-300, 1e308])
def test_bandwidth_validated(bandwidth):
    # 0 used to fall back to Silverman's bandwidth; -0.2 and NaN died in
    # scipy.  On 500 rows of N(50, 5^2), 1e-160 overflowed the Gaussian
    # weights to NaN and put the mode at the sample minimum, 1e-300 divided by
    # zero in scipy's kernel, and 1e308 overflowed the grid's ends.
    obs = tuple(_philox(3).normal(50.0, 5.0, 500))
    with pytest.raises(ValueError, match=f"bandwidth .*got {re.escape(repr(bandwidth))}$"):
        audit.audit_sample(audit.PerformanceSample(obs, declared_standard=50.0), bandwidth=bandwidth)
