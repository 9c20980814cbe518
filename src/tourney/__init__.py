"""Design toolkit for rank-order tournaments with a minimum performance standard.

Compute equilibria and optimal standards for rank-order tournaments with
additive noise, design optimal prize schedules, verify everything against
Monte-Carlo brute force, bound what cardinal pay schemes could achieve, and
map the results onto Tullock contests, innovation contests, and patent
races.
"""

from .audit import (
    AuditReport,
    NoDeclaredStandard,
    PerformanceSample,
    SampleTooSmall,
    audit_sample,
    kde_modes,
    kde_on_grid,
    silverman_bandwidth,
)
from .contests import (
    AllZeroEfforts,
    TullockConfig,
    fm_optimal_standard,
    patent_race_deadline,
    tullock_best_response_gap,
    tullock_csf_with_standard,
    tullock_effort_given_standard,
    tullock_optimal,
    tullock_selfconsistent_effort,
)
from .distributions import (
    NoiseDistribution,
    RankOutOfRange,
    ShapeReport,
    SurvivalUnderflow,
    TooManyModes,
    ZeroDensity,
    erf_exponential,
    exponential,
    from_spec,
    gumbel,
    inverse_exponential,
    logistic,
    normal,
    order_statistic_cdf,
    pareto,
    piecewise_linear,
    trimodal_example,
    uniform,
)
from .equilibrium import (
    ConcavityWarning,
    CostFunction,
    EffortOutOfRange,
    EquilibriumSolution,
    ModeScanMismatch,
    PrizeSchedule,
    QuadratureFailure,
    SufficiencyResult,
    ThresholdResult,
    TournamentDesign,
    deviation_payoff_curve,
    equilibrium_effort,
    global_mode_sufficiency,
    marginal_benefit_rank,
    optimal_threshold,
    prize_probability,
    random_schedule,
    solve_design,
    total_marginal_benefit,
    total_marginal_benefit_curve,
)
from .montecarlo import (
    SeedRequired,
    SimulationReport,
    finite_difference_marginals,
    simulate_prize_probabilities,
    verify_best_response,
    write_tally_csv,
)
from .payschemes import (
    BoundCheck,
    NoBoundAvailable,
    PayScheme,
    PropertyViolation,
    UnboundedLikelihoodRatio,
    capped_linear_share,
    check_incentive_bound,
    check_properties,
    constant_share,
    marginal_incentive,
    mixture,
    rank_payscheme,
    scheme_battery,
    scheme_from_spec,
    tournament_as_payscheme,
)
from .prizes import (
    PrizeDesignReport,
    RepresentationMismatch,
    SufficiencyViolated,
    modified_hazard,
    optimal_prizes,
    rank_score,
)

__version__ = "0.1.0"
