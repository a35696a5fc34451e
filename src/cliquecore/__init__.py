"""Exact toolkit for the investment game on perfect graphs.

Maximal cliques are investment firms; scenarios are vertex subsets; an
imputation distributes the game worth over the firms.  Core imputations
coincide with the optimal solutions of the exact fractional clique-cover
dual, and everything here computes and cross-checks that equivalence with
rational arithmetic only.
"""

from .cliques import CliqueSet, clique_key, is_clique, is_maximal_clique, maximal_cliques
from .core import (
    CertificateChecker,
    CoreReport,
    ExhaustiveChecker,
    Imputation,
    Violation,
    certified_worth,
    compute_core_imputation,
    game_worth,
    lift_dual,
    money,
    restrict_dual,
    verify_core_certificate,
    verify_core_exhaustive,
)
from .errors import DualGapError, GraphParseError, GuardError
from .generators import (
    complete,
    cycle,
    from_spec,
    paley3x3,
    path,
    random_bipartite,
    random_chordal,
)
from .graph import (
    Scenario,
    WeightedGraph,
    complement,
    fraction_str,
    graph_from_json_dict,
    graph_to_json_dict,
    induced_subgraph,
    make_scenario,
    parse_fraction,
    parse_graph,
    serialize_graph,
)
from .lp import (
    DualSolution,
    LinearProgram,
    PrimalSolution,
    build_clique_cover_lp,
    build_stable_set_lp,
    lp_format,
    solve_dual,
    solve_game,
    solve_general,
    solve_primal,
)
from .oracle import (
    FourProgramReport,
    StableSetResult,
    cost,
    four_program_chain,
    max_weight_stable_set,
    min_integral_clique_cover_value,
    subset_cost_table,
)
from .perfection import PerfectionVerdict, find_odd_hole, is_perfect

__version__ = "0.1.0"

__all__ = [
    "CertificateChecker",
    "CliqueSet",
    "CoreReport",
    "DualGapError",
    "DualSolution",
    "ExhaustiveChecker",
    "FourProgramReport",
    "GraphParseError",
    "GuardError",
    "Imputation",
    "LinearProgram",
    "PerfectionVerdict",
    "PrimalSolution",
    "Scenario",
    "StableSetResult",
    "Violation",
    "WeightedGraph",
    "build_clique_cover_lp",
    "build_stable_set_lp",
    "certified_worth",
    "clique_key",
    "complement",
    "complete",
    "compute_core_imputation",
    "cost",
    "cycle",
    "find_odd_hole",
    "four_program_chain",
    "fraction_str",
    "from_spec",
    "game_worth",
    "graph_from_json_dict",
    "graph_to_json_dict",
    "induced_subgraph",
    "is_clique",
    "is_maximal_clique",
    "is_perfect",
    "lift_dual",
    "lp_format",
    "make_scenario",
    "max_weight_stable_set",
    "maximal_cliques",
    "min_integral_clique_cover_value",
    "money",
    "paley3x3",
    "parse_fraction",
    "parse_graph",
    "path",
    "random_bipartite",
    "random_chordal",
    "restrict_dual",
    "serialize_graph",
    "solve_dual",
    "solve_game",
    "solve_general",
    "solve_primal",
    "subset_cost_table",
    "verify_core_certificate",
    "verify_core_exhaustive",
]
