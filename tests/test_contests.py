import numpy as np
import pytest
from scipy.optimize import brentq

from tourney import contests, distributions as dists, equilibrium as eq


def test_csf_closed_form_value():
    assert contests.tullock_csf_with_standard([1.0, 1.0], 2.0)[0] == pytest.approx(
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
        p_csf = contests.tullock_csf_with_standard(efforts, np.exp(rho_hat))[0]
        assert p_additive == pytest.approx(p_csf, abs=1e-6)


def _symmetric_foc(e: float, n: int, rho: float) -> float:
    """Marginal win probability at the symmetric profile minus marginal cost 1.

    At rho = e it is ((n - 1) + exp(-n)) / (n^2 e) - 1, whose root is
    ``tullock_optimal``'s closed form."""
    s = n * e
    expo = np.exp(-s / rho)
    return (n - 1.0) * (1.0 - expo) / (n**2 * e) + expo / (n * rho) - 1.0


@pytest.mark.parametrize("n", range(2, 11))
def test_closed_form_matches_self_consistent_foc(n):
    # the root of the first-order condition with the standard tied to the effort
    e_cf, rho = contests.tullock_optimal(n)
    assert rho == e_cf
    root = brentq(lambda e: _symmetric_foc(e, n, e), 1e-12, 1.0, xtol=1e-15, rtol=1e-15)
    assert e_cf == pytest.approx(root, rel=1e-13)


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
    # the symmetric equilibrium effort at each fixed standard, linear cost
    efforts = [brentq(_symmetric_foc, 1e-12, 1.0, args=(n, r), xtol=1e-15, rtol=1e-15) for r in rhos]
    assert abs(rhos[int(np.argmax(efforts))] - rho_star) <= rhos[1] - rhos[0]


def test_best_response_gap_certifies_optimum():
    # player 1's exact payoff over 2001 efforts on (0, 1] against rivals at e*
    efforts = np.linspace(0.0, 1.0, 2001)[1:]
    for n in (2, 3, 10):
        e_star, rho_star = contests.tullock_optimal(n)

        def payoff(e):
            return contests.tullock_csf_with_standard([e] + [e_star] * (n - 1), rho_star)[0] - e

        best = max(payoff(e) for e in efforts)
        assert best - payoff(e_star) <= 1e-9
        assert payoff(e_star) - payoff(e_star + 0.3) >= 0.05


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
        # the density 2x never falls on [0, 1], and drops from 2 to 0 past its top
        shape=dists.ShapeReport((1.0,), (), 1.0, 2.0, "log-concave", ((0.0, "IFR"),), 0.0, 2.0),
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


@pytest.mark.parametrize(
    "efforts, rho, match",
    [
        ([0.1, -0.5, 0.6], 0.3, "effort -0.5 is not"),
        ([0.1, np.nan], 0.3, "effort nan is not"),
        ([0.1, np.inf], 0.3, "effort inf is not"),
        ([0.1, 0.2], np.nan, "rho=nan is not"),
        ([0.1, 0.2], np.inf, "rho=inf is not"),
    ],
    ids=["negative-effort", "nan-effort", "inf-effort", "nan-rho", "inf-rho"],
)
def test_csf_rejects_impossible_numbers(efforts, rho, match):
    # each used to return probabilities outside [0, 1], NaN or zeros
    with pytest.raises(ValueError, match=match):
        contests.tullock_csf_with_standard(efforts, rho)


@pytest.mark.parametrize("mode", [np.nan, np.inf, -np.inf])
def test_patent_race_deadline_rejects_non_finite_mode(mode):
    # NaN gave a NaN deadline, +inf a deadline of 0 and -inf an infinite one
    with pytest.raises(ValueError, match=f"mode {mode!r} is not a finite number"):
        contests.patent_race_deadline(mode, 3)
