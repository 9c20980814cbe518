import math

import numpy as np
import pytest

from tourney import contests, distributions as dists, equilibrium as eq


def test_csf_closed_form_value():
    assert contests.tullock_csf_with_standard([1.0, 1.0], 2.0, 0) == pytest.approx(
        0.5 * (1 - np.exp(-1.0)), abs=1e-12
    )


def test_csf_probabilities_sum_to_pass_chance():
    e = [1.0, 2.0, 3.0]
    rho = 0.5
    p = contests.tullock_csf_with_standard(e, rho)
    assert p.sum() == pytest.approx(1 - np.exp(-sum(e) / rho), abs=1e-12)
    assert np.all(p >= 0) and p.sum() < 1


def test_csf_recovers_ratio_without_standard():
    np.testing.assert_allclose(
        contests.tullock_csf_with_standard([1.0, 3.0], 1e-9), [0.25, 0.75], atol=1e-12
    )


def test_csf_errors():
    with pytest.raises(contests.AllZeroEfforts):
        contests.tullock_csf_with_standard([0.0, 0.0], 1.0)
    with pytest.raises(ValueError):
        contests.tullock_csf_with_standard([1.0, 1.0], -1.0)


def test_csf_matches_additive_gumbel_tournament():
    g = dists.gumbel()
    rng = np.random.default_rng(3)
    for _ in range(8):
        e_hat, estar_hat, rho_hat = rng.uniform(-1.0, 1.0, 3)
        n = int(rng.integers(2, 6))
        p_additive = eq.prize_probability(g, n, 1, e_hat, estar_hat, rho_hat)
        efforts = [np.exp(e_hat)] + [np.exp(estar_hat)] * (n - 1)
        p_csf = contests.tullock_csf_with_standard(efforts, np.exp(rho_hat), 0)
        assert p_additive == pytest.approx(p_csf, abs=1e-6)


@pytest.mark.parametrize("n", range(2, 11))
def test_closed_form_matches_self_consistent_foc(n):
    e_cf, rho = contests.tullock_optimal(n)
    assert rho == e_cf
    assert abs(e_cf - contests.tullock_selfconsistent_effort(n)) < 1e-9


def test_optimal_effort_value_n2():
    e_star, _ = contests.tullock_optimal(2)
    assert e_star == pytest.approx(0.2838338208091532, abs=1e-12)


def test_effort_vanishes_for_large_fields():
    e_star, _ = contests.tullock_optimal(10**6)
    assert e_star < 1e-5


def test_standard_scan_peaks_at_optimum():
    n = 2
    e_star, rho_star = contests.tullock_optimal(n)
    rhos = np.linspace(0.5 * rho_star, 1.5 * rho_star, 81)
    efforts = [contests.tullock_effort_given_standard(n, r) for r in rhos]
    assert abs(rhos[int(np.argmax(efforts))] - rho_star) <= rhos[1] - rhos[0]


def test_best_response_gap_certifies_optimum():
    e_star, rho_star = contests.tullock_optimal(2)
    res = contests.tullock_best_response_gap(2, e_star, rho_star, draws=10**5, seed=17)
    assert res["certified"]
    res_bad = contests.tullock_best_response_gap(2, e_star + 0.3, rho_star, draws=10**5, seed=17)
    assert res_bad["gap"] > 5 * res_bad["gap_se"]
    assert not res_bad["certified"]
    # pinned bits at this seed
    assert res_bad["gap"] == float.fromhex("0x1.0d76e43a85559p-3")
    assert res_bad["gap_se"] == float.fromhex("0x1.72b8dd5d250a1p-10")


def test_fm_standard_uniform_ideas():
    rho = contests.fm_optimal_standard(dists.uniform(0.0, 1.0), 2)
    assert rho == pytest.approx(0.029505213220466765, abs=1e-9)


def test_fm_recovers_tullock_for_inverse_exponential_ideas():
    e_star, _ = contests.tullock_optimal(2)
    rho = contests.fm_optimal_standard(dists.inverse_exponential(), 2)
    assert rho == pytest.approx(e_star, abs=1e-9)


def test_fm_bisection_without_closed_inverse():
    ideas = dists.NoiseDistribution(
        family="quadratic_ideas",
        params={},
        support=(0.0, 1.0),
        pdf=lambda x: 2.0 * x,
        cdf=lambda x: x**2,
        sf=lambda x: 1.0 - x**2,
        ppf=np.sqrt,
        likelihood_ratio=lambda x: -1.0 / x,
        # the density 2x drops to 0 past its top, so sup(-f') is infinite
        shape=dists.ShapeReport((1.0,), (2.0,), (), 1.0, "log-concave", ((0.0, "IFR"),), math.inf),
    )
    e_star, _ = contests.tullock_optimal(3)
    rho = contests.fm_optimal_standard(ideas, 3)
    assert rho == pytest.approx(np.sqrt(np.exp(-1.0 / e_star)), abs=1e-10)


def test_patent_race_deadline():
    e_star, _ = contests.tullock_optimal(2)
    tau = contests.patent_race_deadline(dists.gumbel().find_modes().global_mode, 2)
    assert tau == pytest.approx(1.0 / e_star, rel=1e-8)
    assert contests.patent_race_deadline(0.0, 2) == pytest.approx(1.0 / e_star, abs=1e-12)
    assert contests.patent_race_deadline(1.0, 2) == pytest.approx(np.exp(-1.0) / e_star, abs=1e-12)
