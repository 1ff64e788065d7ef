"""Toolkit for simple stochastic stopping games: generation, reduction,
solving, and benchmarking."""

from .evaluate import (
    EXACT,
    FLOAT,
    EvaluationContractError,
    Player,
    Strategy,
    StrategyPair,
    ValueVector,
    best_response,
    evaluate_strategy_pair,
    is_stable,
)
from .game import (
    Game,
    NodeKind,
    NonStoppingGameError,
    PartialGame,
    find_bad_core,
    game_from_json,
    game_to_json,
    load_game,
    save_game,
    validate_structure,
)
from .generate import (
    GenMeta,
    GenParams,
    GenerationError,
    RatioSpec,
    Variant,
    find_valid_arcs,
    generate_basic,
    generate_fully_reduced,
    generate_reduced,
    ratio_counts,
)
from .reduce import (
    AssumptionChecklist,
    Polarity,
    ReductionReport,
    apply_trivial_reductions,
    check_assumptions,
    find_terminal_valued,
    merge_terminal_valued,
    recover_values,
    reduce_game,
    scc_condense,
)
from .solve import (
    NonConvergenceError,
    SolveResult,
    solve_brute_force,
    solve_hoffman_karp,
    solve_permutation_improvement,
    solve_value_iteration,
)

__version__ = "0.1.0"
