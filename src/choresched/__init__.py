"""Fair scheduling of indivisible chores under interval conflict constraints.

Chores are timed tasks; an agent can perform at most one chore at a time, so
overlapping chores conflict and a schedule assigns each agent an independent
set of the conflict graph.  The library provides constructive solvers for
EF1 (envy-free up to one chore) and maximal schedules, checkers for the
fairness and efficiency notions involved, and an exhaustive oracle for
small instances.
"""

from .checkers import (
    EnvyGraph,
    FairnessVerdict,
    check_ef,
    check_ef1,
    check_efk,
    check_efx,
    envy_graph,
    is_complete,
    is_maximal,
)
from .core import (
    AdditiveValuations,
    Chore,
    ConflictGraph,
    InputError,
    Instance,
    InternalInvariantError,
    MonotoneValuations,
    Schedule,
    SizeGuardError,
    build_conflict_graph,
    is_feasible,
    order_by_finish,
    path_instance,
)
from .n_agent import (
    solve_identical_bounded_components,
    solve_identical_dichotomous_path,
    split_pair_bundle,
    split_triple_bundle,
)
from .oracle import (
    ExistenceQuery,
    demo_round_robin,
    demo_top_trading_envy_cycle,
    enumerate_maximal,
    exists,
    is_pareto_optimal,
    max_utilitarian_maximal,
)
from .two_agent import (
    ChoreClassification,
    ScheduleSequence,
    adjacent,
    classify_chores,
    classify_supported,
    interval_sequence_ef1,
    interval_sequence_ef2,
    path_sequence,
    select_ef1,
    solve_two_agents,
)

__all__ = [
    "AdditiveValuations",
    "Chore",
    "ChoreClassification",
    "ConflictGraph",
    "EnvyGraph",
    "ExistenceQuery",
    "FairnessVerdict",
    "InputError",
    "Instance",
    "InternalInvariantError",
    "MonotoneValuations",
    "Schedule",
    "ScheduleSequence",
    "SizeGuardError",
    "adjacent",
    "build_conflict_graph",
    "check_ef",
    "check_ef1",
    "check_efk",
    "check_efx",
    "classify_chores",
    "classify_supported",
    "demo_round_robin",
    "demo_top_trading_envy_cycle",
    "enumerate_maximal",
    "envy_graph",
    "exists",
    "interval_sequence_ef1",
    "interval_sequence_ef2",
    "is_complete",
    "is_feasible",
    "is_maximal",
    "is_pareto_optimal",
    "max_utilitarian_maximal",
    "order_by_finish",
    "path_instance",
    "path_sequence",
    "select_ef1",
    "solve_identical_bounded_components",
    "solve_identical_dichotomous_path",
    "solve_two_agents",
    "split_pair_bundle",
    "split_triple_bundle",
]

__version__ = "0.1.0"
