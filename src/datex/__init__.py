"""datex: solver toolkit for randomized, utility-balanced data exchange."""

from .model import (
    ConcaveSpec,
    ContinuousConcave,
    DegenerateInstanceError,
    ExchangeSolution,
    ExplicitTable,
    FracColumn,
    Instance,
    PathVariance,
    SharingRuleSpec,
    SolveReport,
    SymmetricWeighted,
    X3CCoverage,
    evaluate,
    normalize_instance,
    scale_solution,
    utility,
)
from .sharing import (
    cross_monotonicity_audit,
    proportional,
    shapley_exact,
    shapley_sampled,
    shares,
)
from .oracles import (
    ConvexCost,
    OracleResult,
    get_oracle,
    oracle_bruteforce,
    oracle_bucketing,
    oracle_continuous,
    oracle_imbalance,
    oracle_knapsack,
)
from .mwu import (
    ImbalanceSpec,
    MwuConfig,
    assemble_prices,
    run_mwu,
    solve_welfare,
    sparsify,
)
from .exact import CoreAudit, exact_core_audit, exact_welfare_lp
from .stability import (
    Misreport,
    apply_misreport,
    check_2_stability,
    greedy_cycle_canceling,
    greedy_matching,
    mix_solutions,
    reported_singletons,
    strategyproofness_fuzz,
)
from .instances import (
    RoadSpec,
    X3CSpec,
    gen_core_gap,
    gen_random,
    gen_road,
    gen_x3c,
    grid_graph,
    make_x3c_no,
    make_x3c_yes,
)

__version__ = "0.1.0"
