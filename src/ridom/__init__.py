"""Exact k-rainbow independent domination on small graphs.

The package bundles a bit-packed graph core with a graph6 codec, two
independent exact solvers for the k-rainbow independent domination number, a
structural classifier for the extremal families of the 2-rainbow case, a
verifier for the complement-sum bounds, and an executable reduction from
bipartite domination.
"""

from .families import Family, GraphClass, classify_connected, classify_graph
from .graphs import (
    Graph,
    Graph6ParseError,
    UnsupportedSizeError,
    canonical_form,
    complement,
    components,
    complete_graph,
    cycle_graph,
    disjoint_union,
    double_star,
    encode_graph6,
    enumerate_labeled_graphs,
    enumerate_nonisomorphic,
    induced_subgraph,
    is_connected,
    parse_edge_list,
    parse_graph6,
    path_graph,
    prism_product,
    relabel,
    star_graph,
    star_plus_edge,
)
from .nordhaus import NGRecord, ng_record
from .reduction import (
    ReductionInstance,
    ReductionReport,
    bipartition,
    build_reduction,
    lift_dominating_set,
    parse_instance,
    project_ridf,
    serialize_instance,
    verify_reduction,
)
from .solver import (
    BudgetExceededError,
    Labeling,
    PartialLabeling,
    PrismReport,
    SetResult,
    SolveResult,
    SolverBudget,
    Violation,
    domination_number,
    extend_greedy,
    gamma_bnb,
    gamma_brute,
    independent_domination,
    prism_check,
    validate,
    weight,
)

__all__ = [name for name in dir() if not name.startswith("_")]
