"""Random assignment under lower and upper quotas, in exact rationals.

Mechanisms: run_priolq (serial dictatorship honoring quotas), run_rplq_*
(its uniform lottery), run_pslq (simultaneous eating). Verification:
sd_dominates, is_envy_free, is_weakly_envy_free, is_ordinally_efficient and
friends. decompose turns any feasible random assignment into a lottery over
deterministic ones, and the strategy tools search misreports.
"""

from .axioms import (
    ImprovementWitness,
    TAU_CYCLE,
    WASTEFUL_CHAIN,
    find_tau_cycle,
    find_wasteful_chain,
    is_envy_free,
    is_ml_fair,
    is_mqc_efficient,
    is_ordinally_efficient,
    is_weakly_envy_free,
    sd_dominates,
    tau_graph,
)
from .decompose import Lottery, decompose, extract_extreme_point
from .eating import (
    CRITICAL_SHIFT,
    EPOCH_END,
    EXHAUSTION,
    EatingPhase,
    EatingTrace,
    run_pslq,
    run_pslq_traced,
)
from .marketio import (
    GeneratorConfig,
    decimal_string,
    generate_market,
    parse_assignment,
    parse_lottery,
    parse_market,
    parse_trace,
    render,
    serialize_assignment,
    serialize_lottery,
    serialize_market,
    serialize_trace,
)
from .model import (
    Market,
    InternalError,
    MarketError,
    as_rational,
    assigned_project,
    column_sums,
    feasibility_violations,
    format_rational,
    is_feasible,
    is_integral,
    matrix,
)
from .priority import (
    EXACT_ENUMERATION_LIMIT,
    RplqResult,
    clone_market,
    run_priolq,
    run_rplq_exact,
    run_rplq_sampled,
)
from .strategy import (
    INCOMPARABLE_CHANGE,
    MECHANISMS,
    NO_CHANGE,
    STRICT_GAIN,
    ImpossibilityReport,
    ManipulationReport,
    impossibility_scenario,
    misreport_outcomes,
    search_manipulation,
    verify_weak_sp,
)

# the submodules are package attributes too; export only the names they define
__all__ = sorted(n for n, v in globals().items() if n[0] != "_" and not isinstance(v, type(model)))
