"""Golden digests of the 2^n layer.

Four SHA-256 digests pin the exact bytes that the 2^n passes give on seeded
instances: the value tables of graph cuts and of hypergraph cuts at
n = 0-20, the exhaustive validation reports of perturbed tables, and the
brute-force optima under each constraint kind. A rewrite of the table
build, the validation or the brute force that moves any of these bytes
fails here. The instances are drawn with `random.Random` in this file, so
that a change to the package's generators does not move the digests.
"""

import hashlib
import json
import random

import numpy as np
import pytest

from symsubmax import (
    CardinalityConstraint,
    KnapsackConstraint,
    PackingConstraint,
    PartitionMatroid,
    UniformMatroid,
    WeightedGraph,
    WeightedHypergraph,
    brute_force_opt,
    graph_cut_oracle,
    hypergraph_cut_oracle,
    table_oracle,
    validate,
)
from symsubmax.oracle import EQ_TOL


def weight(rng, mode):
    """A float weight in [0, 10), a whole one in 0..3, or a float that is
    zero half of the time."""
    if mode == 0:
        return rng.uniform(0.0, 10.0)
    if mode == 1:
        return float(rng.randint(0, 3))
    return rng.choice([0.0, rng.random()])


def graph(n):
    rng = random.Random(1000 + n)
    edges = []
    for _ in range(2 * n if n >= 2 else 0):
        u, v = rng.sample(range(n), 2)
        edges.append((u, v, weight(rng, n % 3)))
    return graph_cut_oracle(WeightedGraph(n, tuple(edges)))


def hypergraph(n):
    """Hyperedges of 2 to min(n, 6) members, one of them on all n ids."""
    rng = random.Random(2000 + n)
    edges = []
    for _ in range(n if n >= 2 else 0):
        members = rng.sample(range(n), rng.randint(2, min(n, 6)))
        edges.append((frozenset(members), weight(rng, n % 3)))
    if n >= 2:
        edges.insert(rng.randint(0, len(edges)), (frozenset(range(n)), weight(rng, 0)))
    return hypergraph_cut_oracle(WeightedHypergraph(n, tuple(edges)))


def table_digest(make):
    h = hashlib.sha256()
    for n in range(21):
        h.update(make(n).value_table().tobytes())
    return h.hexdigest()


def perturbed(n, seed, scale):
    """A cut table times `scale`, with a fifth of its entries shifted by
    +-tol/2, +-1.5 tol, a few ulps of the scale, or a large amount."""
    rng = np.random.default_rng(seed)
    vals = (hypergraph(n) if seed % 2 else graph(n)).value_table() * scale
    hit = rng.random(len(vals)) < 0.2
    ulp = np.spacing(scale)
    shifts = [-EQ_TOL / 2, EQ_TOL / 2, -1.5 * EQ_TOL, 1.5 * EQ_TOL, -3 * ulp, 2 * ulp, -4.0, 7.0]
    vals[hit] += rng.choice(shifts, hit.sum())
    return table_oracle(n, vals.tolist())


VALIDATED = [
    (n, seed, scale)
    for seed, n in enumerate(range(3, 11))
    for scale in (1.0, 1e6, 1e300)
]


def validation_digest():
    oracles = [make(n) for n in (4, 9, 12) for make in (graph, hypergraph)]
    oracles += [perturbed(n, seed, scale) for n, seed, scale in VALIDATED]
    h = hashlib.sha256()
    for orc in oracles:
        h.update(json.dumps(validate(orc).to_dict(), sort_keys=True).encode())
    return h.hexdigest()


def brute_force_digest():
    n = 14
    rng = random.Random(3)
    knap = KnapsackConstraint(tuple(rng.choice([0.1, 0.3, 1 / 3, 0.7]) for _ in range(n)), 1.3)
    rows = [[rng.choice([0.0, 0.2, 0.5, 1.0]) for _ in range(n)] for _ in range(2)]
    kinds = [
        CardinalityConstraint(4),
        UniformMatroid(6, n),
        PartitionMatroid([range(0, 5), range(5, 9), range(9, n)], [1, 2, 0]),
        knap,
        PackingConstraint(np.array(rows), np.array([1.5, 2.0])),
    ]
    h = hashlib.sha256()
    for orc in (graph(n), hypergraph(n)):
        for c in kinds:
            res = brute_force_opt(orc, c)
            h.update(f"{res.opt_value.hex()} {res.witness} {res.sets_enumerated};".encode())
    return h.hexdigest()


# computed with the table build, validation and brute force of commit c5ff554
GOLDEN = {
    "graph tables": "bfa19571dba85dc699e5f8d77ef1d8dc3a24f586d51c797f0c264f6470d18edc",
    "hypergraph tables": "f70f629a62f95aa644016bd0cb5b21920feecc02d62980661ec684cac19bd39b",
    "validation reports": "110176e3d8dadd71cdb4008959be074b9d8af653f06d5f2fd4120412f191c93d",
    "brute-force optima": "e3abf561791084be919bb8570bf8fdab2c4229439929c516c25cf8856e91bb4d",
}

DIGESTS = {
    "graph tables": lambda: table_digest(graph),
    "hypergraph tables": lambda: table_digest(hypergraph),
    "validation reports": validation_digest,
    "brute-force optima": brute_force_digest,
}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_golden_digest(name):
    assert DIGESTS[name]() == GOLDEN[name]
