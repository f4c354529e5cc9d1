"""Instance generators: random graphs/hypergraphs and the worst-case greedy
instance.

The worst-case construction is a bipartite MAX-CUT instance on which the
cardinality greedy achieves exactly (k/2) * (1 - (1 - 2/k)^k) against an
optimum of k: in round j the decoy vertex u_j ties the optimal vertices on
marginal gain and wins on the lowest-id rule. The derived constant c is
computed in exact rational arithmetic so the ceiling never suffers float
rounding.

PRNG: python stdlib Mersenne Twister (random.Random), seeded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
import random

from .oracle import WeightedGraph, WeightedHypergraph, graph_cut_oracle


class GeneratorError(ValueError):
    pass


@dataclass(frozen=True)
class TightExample:
    graph: WeightedGraph
    k: int
    c: int
    decoy_ids: tuple  # the u_j vertices the greedy is steered onto
    optimal_ids: tuple  # the o_i vertices forming the optimum
    filler_ids: tuple  # the v_ij pendant vertices
    optimal_value: float  # = k
    greedy_value: float  # = (k/2) * (1 - (1 - 2/k)^k)
    certified_by: str  # "brute-force" | "analytic"


def tight_example_c(k):
    """c = ceil((1 + (1-2/k)^k) / (2 (1-2/k)^(k-1))), exact rationals."""
    q = Fraction(k - 2, k)
    return int(math.ceil((1 + q**k) / (2 * q ** (k - 1))))


def tight_example(k):
    """Worst-case bipartite cut instance for the cardinality greedy.

    Vertex ids: decoys u_1..u_k are 0..k-1, optimal o_1..o_k are k..2k-1,
    fillers v_ij follow. Requires k >= 3.
    """
    if k < 3:
        raise GeneratorError(f"tight example needs k >= 3, got {k}")
    c = tight_example_c(k)
    n = 2 * k + c * k
    decoys = tuple(range(k))
    optimal = tuple(range(k, 2 * k))
    fillers = tuple(range(2 * k, n))
    q = 1.0 - 2.0 / k
    filler_w = (1.0 + q**k) / (2 * c)
    edges = []
    for i in range(k):  # o_i = k + i
        for j in range(k):  # u_j = j
            edges.append((optimal[i], decoys[j], (1.0 / k) * q**j))
        for j in range(c):
            edges.append((optimal[i], fillers[i * c + j], filler_w))
    graph = WeightedGraph(n, tuple(edges))
    greedy_value = (k / 2.0) * (1.0 - q**k)
    certified = "brute-force" if n <= 24 else "analytic"
    if certified == "brute-force":
        from .constraints import CardinalityConstraint
        from .exact import brute_force_opt

        res = brute_force_opt(graph_cut_oracle(graph), CardinalityConstraint(k))
        if abs(res.opt_value - k) > 1e-9 or res.witness != optimal:
            raise GeneratorError("brute-force certification of the optimum failed")
    return TightExample(
        graph=graph,
        k=k,
        c=c,
        decoy_ids=decoys,
        optimal_ids=optimal,
        filler_ids=fillers,
        optimal_value=float(k),
        greedy_value=greedy_value,
        certified_by=certified,
    )


def random_graph(n, edge_prob, weight_range=(0.0, 1.0), seed=0):
    """Erdos-Renyi weighted graph; each unordered pair appears independently
    with edge_prob, weight uniform in weight_range. Deterministic per seed."""
    if n < 1:
        raise GeneratorError(f"need n >= 1, got {n}")
    if not 0 <= edge_prob <= 1:
        raise GeneratorError(f"edge_prob must be in [0,1], got {edge_prob}")
    lo, hi = weight_range
    if not 0 <= lo <= hi:
        raise GeneratorError(f"need 0 <= lo <= hi, got {weight_range}")
    rng = random.Random(seed)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < edge_prob:
                edges.append((u, v, rng.uniform(lo, hi)))
    return WeightedGraph(n, tuple(edges))


def random_hypergraph(n, num_edges, max_arity, weight_range=(0.0, 1.0), seed=0):
    """Random weighted hypergraph; each hyperedge draws an arity in
    [2, max_arity] and a uniform member set. Deterministic per seed."""
    if max_arity < 2:
        raise GeneratorError(f"max_arity must be >= 2, got {max_arity}")
    if max_arity > n:
        raise GeneratorError(f"max_arity {max_arity} exceeds n={n}")
    lo, hi = weight_range
    if not 0 <= lo <= hi:
        raise GeneratorError(f"need 0 <= lo <= hi, got {weight_range}")
    rng = random.Random(seed)
    hyperedges = []
    for _ in range(num_edges):
        arity = rng.randint(2, max_arity)
        members = frozenset(rng.sample(range(n), arity))
        hyperedges.append((members, rng.uniform(lo, hi)))
    return WeightedHypergraph(n, tuple(hyperedges))
