"""Optimal search strategies for finding one target item in a finite population.

Seven model families (labeled ABCD, EF, GH, IKL, J, MN, OP by the
assumption combinations they serve) with exact means, exact inspection-count
distributions, a stochastic-dominance analysis across the models, and a
seeded Monte Carlo engine for validation.
"""

__version__ = "0.1.0"

from .distributions import (
    InspectionDistribution,
    dist_abcd,
    dist_ef,
    dist_gh,
    dist_ikl_exact,
    dist_j,
    dist_mn,
    dist_op_exact,
    write_distribution_csv,
)
from .montecarlo import (
    EmpiricalResult,
    SimConfig,
    dkw_band,
    dkw_check,
    simulate,
    write_empirical_csv,
)
from .ordering import (
    ComparisonTruncationError,
    DominanceVerdict,
    OrderingReport,
    dominance_report,
    stochastic_compare,
)
from .population import (
    DecompositionError,
    InspectionWeights,
    Population,
    PopulationError,
    ProfileDecomposition,
    bayes_update,
    load_population,
    save_population_csv,
    solve_conditional_inspection,
    uniform_weights,
    validate_population,
)
from .strategies import (
    Schedule,
    ef_schedule,
    ikl_mean_exact,
    ikl_search_q,
    j_mean,
    j_optimal_q,
    mn_mean,
    mn_optimal_q,
)

__all__ = [
    "__version__",
    "InspectionDistribution",
    "dist_abcd",
    "dist_ef",
    "dist_gh",
    "dist_ikl_exact",
    "dist_j",
    "dist_mn",
    "dist_op_exact",
    "write_distribution_csv",
    "EmpiricalResult",
    "SimConfig",
    "dkw_band",
    "dkw_check",
    "simulate",
    "write_empirical_csv",
    "ComparisonTruncationError",
    "DominanceVerdict",
    "OrderingReport",
    "dominance_report",
    "stochastic_compare",
    "DecompositionError",
    "InspectionWeights",
    "Population",
    "PopulationError",
    "ProfileDecomposition",
    "bayes_update",
    "load_population",
    "save_population_csv",
    "solve_conditional_inspection",
    "uniform_weights",
    "validate_population",
    "Schedule",
    "ef_schedule",
    "ikl_mean_exact",
    "ikl_search_q",
    "j_mean",
    "j_optimal_q",
    "mn_mean",
    "mn_optimal_q",
]
