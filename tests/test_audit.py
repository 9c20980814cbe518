import json
import threading

import numpy as np
import pytest
from scipy import ndimage

from tourney import audit


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


def _loop_argmax(rng, counts, sigma, draws):
    """Reference: one multinomial draw and one direct Gaussian filter per resample."""
    p = counts / counts.sum()
    out = np.empty(draws, dtype=np.intp)
    for b in range(draws):
        resample = rng.multinomial(int(counts.sum()), p).astype(float)
        out[b] = np.argmax(ndimage.gaussian_filter1d(resample, sigma=sigma, mode="constant"))
    return out


def _binned_gamma_sample(size, seed=17):
    obs = 20.0 + _philox(seed).gamma(3.0, 7.0, size)
    bw = audit.silverman_bandwidth(obs)
    _, counts, binwidth = audit._binned(obs, bw)
    return obs, counts, bw / binwidth


@pytest.mark.parametrize("size", [30, 1_000, 10_000])
def test_bootstrap_matches_loop_reference(size):
    obs, counts, sigma = _binned_gamma_sample(size)
    got = audit._bootstrap_argmax(_philox(5), counts, sigma, 150)
    assert np.array_equal(got, _loop_argmax(_philox(5), counts, sigma, 150))
    grid, _ = audit.kde_on_grid(obs, audit.silverman_bandwidth(obs))
    rep = audit.audit_sample(audit.PerformanceSample(tuple(obs)), bootstrap=150, seed=5)
    boot = grid[got]
    assert rep.mode_ci == (float(np.percentile(boot, 2.5)), float(np.percentile(boot, 97.5)))


@pytest.mark.parametrize("draws", [1, 31, 32, 33, 100])
def test_bootstrap_block_edges(draws):
    _, counts, sigma = _binned_gamma_sample(1_000)
    got = audit._bootstrap_argmax(_philox(9), counts, sigma, draws)
    assert np.array_equal(got, _loop_argmax(_philox(9), counts, sigma, draws))


def _stream_state(rng):
    return json.dumps(rng.bit_generator.state, default=np.ndarray.tolist, sort_keys=True)


@pytest.mark.parametrize("draws", [1, 31, 32, 33, 100])
@pytest.mark.parametrize("last_bin", [False, True], ids=["last-bin-empty", "last-bin-occupied"])
def test_bootstrap_consumes_the_stream_exactly(draws, last_bin):
    if last_bin:  # the grid's last bin is then already among the occupied ones
        counts, sigma = np.zeros(4096, dtype=np.int64), 12.5
        counts[[700, 2048, 4095]] = [40, 25, 35]
    else:
        _, counts, sigma = _binned_gamma_sample(1_000)
        assert counts[-1] == 0
    got_rng, ref_rng = _philox(13), _philox(13)
    got = audit._bootstrap_argmax(got_rng, counts, sigma, draws)
    assert np.array_equal(got, _loop_argmax(ref_rng, counts, sigma, draws))
    assert _stream_state(got_rng) == _stream_state(ref_rng)


class _FailingSecondDraw:
    """A generator whose second ``multinomial`` call raises."""

    def __init__(self, rng):
        self.rng = rng
        self.calls = 0

    def multinomial(self, *args, **kwargs):
        self.calls += 1
        if self.calls == 2:
            raise RuntimeError("second block failed")
        return self.rng.multinomial(*args, **kwargs)


def test_bootstrap_draw_error_leaves_no_thread():
    _, counts, sigma = _binned_gamma_sample(1_000)
    before = threading.active_count()
    rng = _FailingSecondDraw(_philox(3))
    with pytest.raises(RuntimeError, match="second block failed"):
        audit._bootstrap_argmax(rng, counts, sigma, 100)
    assert rng.calls == 2
    assert threading.active_count() == before


def test_bootstrap_tie_goes_to_direct_filter(monkeypatch):
    # Two equal spikes: a resample splitting the mass evenly has two exactly
    # equal smoothed maxima, where the direct filter takes the lower bin.
    counts = np.zeros(4096, dtype=np.int64)
    counts[[1000, 1257]] = 1
    direct = []
    smoothed = audit._smoothed
    monkeypatch.setattr(audit, "_smoothed", lambda c, s: direct.append(1) or smoothed(c, s))
    got = audit._bootstrap_argmax(_philox(1), counts, 37.4, 64)
    assert direct
    assert np.array_equal(got, _loop_argmax(_philox(1), counts, 37.4, 64))


@pytest.mark.parametrize("bootstrap", [0, -1])
def test_bootstrap_count_validated(bootstrap):
    with pytest.raises(ValueError, match=f"got {bootstrap}"):
        audit.audit_sample(audit.PerformanceSample(tuple(_normal_sample(100))), bootstrap=bootstrap)


@pytest.mark.parametrize("bandwidth", [0.0, -0.2, float("nan")])
def test_bandwidth_validated(bandwidth):
    # 0 used to fall back to Silverman's bandwidth; -0.2 and NaN died in scipy
    with pytest.raises(ValueError, match=f"bandwidth .*got {bandwidth!r}$"):
        audit.audit_sample(audit.PerformanceSample(tuple(_normal_sample(100))), bandwidth=bandwidth)
