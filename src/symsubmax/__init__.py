"""Symmetric submodular maximization: solvers, exact baselines, generators."""

from .algorithms import (
    RunTrace,
    delete,
    greedy_cardinality,
    greedy_matroid,
    knapsack_enum,
    mw_packing,
    sample_greedy_cardinality,
)
from .constraints import (
    CardinalityConstraint,
    ExtendedMatroid,
    KnapsackConstraint,
    PackingConstraint,
    PartitionMatroid,
    UniformMatroid,
    load_constraint,
    parse_constraint,
)
from .exact import ExactResult, brute_force_opt, ratio
from .generators import random_graph, random_hypergraph, tight_example
from .oracle import (
    Oracle,
    WeightedGraph,
    WeightedHypergraph,
    graph_cut_oracle,
    hypergraph_cut_oracle,
    load_instance,
    parse_instance,
    save_instance,
    table_oracle,
    validate,
)

__version__ = "0.1.0"

__all__ = [
    "CardinalityConstraint",
    "ExactResult",
    "ExtendedMatroid",
    "KnapsackConstraint",
    "Oracle",
    "PackingConstraint",
    "PartitionMatroid",
    "RunTrace",
    "UniformMatroid",
    "WeightedGraph",
    "WeightedHypergraph",
    "brute_force_opt",
    "delete",
    "graph_cut_oracle",
    "greedy_cardinality",
    "greedy_matroid",
    "hypergraph_cut_oracle",
    "knapsack_enum",
    "load_constraint",
    "load_instance",
    "mw_packing",
    "parse_constraint",
    "parse_instance",
    "random_graph",
    "random_hypergraph",
    "ratio",
    "sample_greedy_cardinality",
    "save_instance",
    "table_oracle",
    "tight_example",
    "validate",
]
