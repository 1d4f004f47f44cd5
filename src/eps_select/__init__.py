"""Strategy selection for embarrassingly parallel constraint search."""

from .csp import (
    AbsDiff,
    AllDifferent,
    Constraint,
    InconsistentProblem,
    LinearEq,
    LinearLe,
    Model,
    NotEqual,
    Objective,
    VariableDecl,
    var_range,
)
from .strategies import (
    ALL_STRATEGIES,
    CounterState,
    StrategyId,
    parse_strategy,
)
from .search import (
    Incumbent,
    SolveMode,
    SolveOutcome,
    SolveStatus,
    SubtreeMemo,
    TimeMode,
    count_all,
    root_domains,
    solve,
)
from .decomposition import (
    Decomposition,
    DecompositionConfig,
    Subproblem,
    decompose,
    sample_size_rule,
    srs_sample,
)
from .wsr import (
    CensorPlan,
    Decision,
    Method,
    PairedDiffs,
    WsrResult,
    censor_plan,
    paired_ttest,
    signed_ranks,
    wplus,
    wsr_exact_cdf,
    wsr_exact_sf,
    wsr_normal_pvalue,
    wsr_test,
)
from .selection import (
    MatrixOracle,
    ModelOracle,
    Observation,
    PssConfig,
    RaceConfig,
    RuntimeMatrix,
    SelectionReport,
    eliminate,
    find_uncensored_best,
    pss_select,
    race,
    select_on_matrix,
    select_strategy,
    selection_cost_bound,
)
from .baselines import (
    BanditState,
    MabReport,
    PortfolioReport,
    RewardConfig,
    mab_on_oracle,
    portfolio_on_oracle,
    reward,
    ucb1_select,
)
from .runner import CostLedger, TaskFailed, TaskResult, raise_failures, run_pool
from .benchmarks import GENERATORS, generate
from .modelio import ModelFormatError, load_json, model_from_dict, model_to_dict, save_json

__version__ = "0.1.0"
