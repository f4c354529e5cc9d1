import itertools

import numpy as np
import pytest

from symsubmax import (
    CardinalityConstraint,
    ExtendedMatroid,
    KnapsackConstraint,
    PackingConstraint,
    PartitionMatroid,
    UniformMatroid,
    parse_constraint,
)
from symsubmax.constraints import (
    MalformedConstraintError,
    UndefinedWidthError,
    constraint_to_dict,
)


def powerset(ids):
    for r in range(len(ids) + 1):
        yield from itertools.combinations(ids, r)


def test_feasibility_examples():
    assert not CardinalityConstraint(2).is_feasible({0, 1, 2})
    p = PackingConstraint(np.array([[0.5, 1.0]]), np.array([1.0]))
    assert not p.is_feasible({0, 1})
    assert p.is_feasible({0})
    pm = PartitionMatroid([[0, 1], [2, 3]], [1, 1])
    assert pm.is_feasible({0, 2})
    assert not pm.is_feasible({0, 1})


def test_packing_feasibility_matches_matrix_recompute():
    import random

    rng = random.Random(4)
    for _ in range(200):
        m, n = rng.randint(1, 4), rng.randint(1, 10)
        A = np.array([[rng.random() for _ in range(n)] for _ in range(m)])
        b = np.array([1.0 + 2 * rng.random() for _ in range(m)])
        p = PackingConstraint(A, b)
        S = [j for j in range(n) if rng.random() < 0.5]
        x = np.zeros(n)
        x[S] = 1.0
        assert p.is_feasible(S) == bool(np.all(A @ x <= b))


def test_width_examples():
    assert PackingConstraint(np.array([[0.5, 1.0]]), np.array([2.0])).width() == 2.0
    assert PackingConstraint(np.array([[1.0]]), np.array([1.0])).width() == 1.0
    w = PackingConstraint(np.array([[0.5, 1.0], [0.25, 1.0]]), np.array([2.0, 1.0])).width()
    assert w == 1.0
    with pytest.raises(UndefinedWidthError):
        PackingConstraint(np.array([[0.0, 0.0]]), np.array([1.0])).width()
    with pytest.raises(UndefinedWidthError):
        PackingConstraint([[]], [1.0]).width()  # an empty row


@pytest.mark.parametrize(
    "matroid,n",
    [
        (UniformMatroid(2, 5), 5),
        (UniformMatroid(4, 7), 7),
        (PartitionMatroid([[0, 1], [2, 3, 4]], [1, 2]), 5),
        (PartitionMatroid([[0, 1, 2], [3], [4, 5, 6, 7]], [2, 1, 1]), 8),
    ],
)
def test_matroid_axioms_exhaustive(matroid, n):
    indep = {frozenset(S) for S in powerset(range(n)) if matroid.is_independent(S)}
    assert frozenset() in indep
    for A in indep:  # downward closure
        for u in A:
            assert A - {u} in indep
    for A in indep:  # exchange axiom
        for B in indep:
            if len(A) < len(B):
                assert any(A | {u} in indep for u in B - A)
    maximal = [A for A in indep if not any(A | {u} in indep for u in range(n) if u not in A)]
    assert {len(A) for A in maximal} == {matroid.rank}


def test_extended_matroid_invariants():
    m = PartitionMatroid([[0, 1], [2, 3]], [1, 1])
    em = ExtendedMatroid(m, 4)
    assert em.dummies == (4, 5, 6, 7)
    # every independent set pads to a size-k base
    for S in powerset(range(4)):
        if m.is_independent(S):
            base = em.pad_to_base(S)
            assert len(base) == em.k
            assert em.is_independent(base)
    assert not em.is_independent({0, 2, 4})  # size k+1


def test_max_weight_base_examples():
    em = ExtendedMatroid(UniformMatroid(1, 3), 3)
    assert sorted(em.max_weight_base({0: 2.0, 1: 2.0, 2: 2.0})) == [0]
    assert sorted(em.max_weight_base({0: -1.0, 1: -5.0, 2: -2.0})) == [3]
    pm = PartitionMatroid([[0, 1], [2, 3]], [2, 2])
    em = ExtendedMatroid(pm, 4)
    base = em.max_weight_base({u: 1.0 for u in range(4)})
    assert sorted(base) == [0, 1, 2, 3]


def test_max_weight_base_beats_enumeration():
    import random

    rng = random.Random(17)
    for trial in range(30):
        n = rng.randint(2, 8)
        if trial % 2 == 0:
            m = UniformMatroid(rng.randint(1, n), n)
        else:
            cut = sorted(rng.sample(range(1, n), rng.randint(0, min(2, n - 1))))
            bounds = [0] + cut + [n]
            parts = [list(range(a, b)) for a, b in zip(bounds, bounds[1:])]
            limits = [rng.randint(1, max(1, len(p))) for p in parts]
            m = PartitionMatroid(parts, limits)
        em = ExtendedMatroid(m, n)
        weight = {u: rng.uniform(-1, 3) for u in range(n)}
        base = em.max_weight_base(weight)
        got = sum(weight[u] for u in base if u < n)
        best = max(
            sum(weight[u] for u in S)
            for S in powerset(range(n))
            if m.is_independent(S)
        )
        assert got >= best - 1e-12


def test_exchange_bijection_identity():
    em = ExtendedMatroid(UniformMatroid(2, 4), 4)
    base = frozenset({0, 1})
    assert em.exchange_bijection(base, base) == {0: 0, 1: 1}


def test_exchange_bijection_partition_forced():
    em = ExtendedMatroid(PartitionMatroid([[0, 1], [2, 3]], [1, 1]), 4)
    g = em.exchange_bijection(frozenset({0, 2}), frozenset({1, 3}))
    assert g == {0: 1, 2: 3}


def test_exchange_bijection_uniform_lowest_id():
    em = ExtendedMatroid(UniformMatroid(2, 4), 4)
    g = em.exchange_bijection(frozenset({0, 1}), frozenset({2, 3}))
    assert g == {0: 2, 1: 3}


def test_exchange_bijection_random_bases_verify():
    import random

    rng = random.Random(23)
    pm = PartitionMatroid([[0, 1, 2], [3, 4], [5, 6, 7]], [1, 1, 2])
    em = ExtendedMatroid(pm, 8)
    bases = [
        em.pad_to_base(S)
        for S in powerset(range(8))
        if pm.is_independent(S)
    ]
    for _ in range(50):
        A, B = rng.choice(bases), rng.choice(bases)
        g = em.exchange_bijection(A, B)
        assert set(g) == set(A) and set(g.values()) == set(B)
        for u in A & B:
            assert g[u] == u
        for u in A:
            assert em.is_independent((B - {g[u]}) | {u})


def test_knapsack_normalization():
    kc = KnapsackConstraint((3.0, 1.0, 1.0, 9.0), 3.0)
    p, allowed = kc.to_packing()
    assert allowed == [0, 1, 2]  # weight 9 discarded
    assert p.b[0] == 1.0  # budget / max surviving weight
    assert list(p.A[0]) == [1.0, 1.0 / 3.0, 1.0 / 3.0, 0.0]
    # feasibility preserved over allowed elements
    for S in powerset(allowed):
        assert kc.is_feasible(S) == p.is_feasible(S)


def test_constraint_files_round_trip():
    objs = [
        {"type": "cardinality", "k": 3},
        {"type": "uniform-matroid", "k": 3},
        {"type": "partition-matroid", "parts": [[0, 1], [2, 3]], "limits": [1, 1]},
        {"type": "packing", "A": [[0.5, 1.0]], "b": [2.0]},
        {"type": "knapsack", "weights": [3, 1, 1], "budget": 3.0},
    ]
    for obj in objs:
        c = parse_constraint(obj, n=4)
        back = constraint_to_dict(c)
        assert back["type"] == obj["type"]
        assert parse_constraint(back, n=4).is_feasible(set()) is True


def test_malformed_constraints_raise():
    with pytest.raises(MalformedConstraintError):
        parse_constraint({"type": "cardinality", "k": 0})
    with pytest.raises(MalformedConstraintError):
        PartitionMatroid([[0, 1], [1, 2]], [1, 1])  # overlapping parts
    with pytest.raises(MalformedConstraintError):
        PackingConstraint(np.array([[1.5]]), np.array([1.0]))  # entry > 1
    with pytest.raises(MalformedConstraintError):
        PackingConstraint(np.array([[0.5]]), np.array([0.5]))  # b < 1
    # shapes and entries are checked at the library boundary too, not only
    # by the parser
    for A, b in (
        ([[0.5], [0.5, 0.5]], [1.0, 1.0]),  # ragged rows
        ([[0.5, "x"]], [1.0]),  # non-numeric entry
        ([0.5, 0.5], [1.0]),  # 1-D A
        ([[0.5, 0.5]], [[1.0]]),  # 2-D b
        (np.array([0.5, 0.5]), np.array([1.0])),
        (np.array([[0.5, 0.5]]), np.array([[1.0]])),
        ([[0.5, 0.5]], [1.0, 1.0]),  # b longer than A
        ([], []),  # no rows
    ):
        with pytest.raises(MalformedConstraintError):
            PackingConstraint(A, b)
    with pytest.raises(MalformedConstraintError):
        KnapsackConstraint((1.0,), 0.0)
    for bad in (
        {"type": "knapsack", "weights": [1.0, float("nan")], "budget": 1.0},
        {"type": "knapsack", "weights": [1.0, float("inf")], "budget": 1.0},
        {"type": "knapsack", "weights": [1.0, 1.0], "budget": float("inf")},
        {"type": "knapsack", "weights": [1.0, 1.0], "budget": float("nan")},
        {"type": "packing", "A": [[0.5, float("nan")]], "b": [1.0]},
        {"type": "packing", "A": [[float("nan"), 0.5], [0.2, 0.3]], "b": [1.0, 1.0]},
        {"type": "packing", "A": [[0.5, -0.5]], "b": [1.0]},
        {"type": "packing", "A": [[0.5, 1.0], [0.2, 0.3]], "b": [1.0, float("nan")]},
        {"type": "packing", "A": [[0.5, 1.0]], "b": [float("inf")]},
        {"type": "packing", "A": [[0.5, 1.0]], "b": [float("nan")]},
        {"type": "cardinality"},  # missing k
        {"type": "packing", "A": [["x"]], "b": [1.0]},
        # sizes, ids and limits must be whole numbers, not truncated floats or booleans
        {"type": "cardinality", "k": 2.9},
        {"type": "cardinality", "k": True},
        {"type": "uniform-matroid", "k": 1.5},
        {"type": "partition-matroid", "parts": [[0], [1]], "limits": [1.7, 1]},
        {"type": "partition-matroid", "parts": [[0], [1]], "limits": [True, 1]},
        {"type": "partition-matroid", "parts": [[0], [True]], "limits": [1, 1]},
        # weights, budgets and packing entries must be numbers, not booleans or strings
        {"type": "knapsack", "weights": [True, 2.0], "budget": 3.0},
        {"type": "knapsack", "weights": [1.0, "2"], "budget": 3.0},
        {"type": "knapsack", "weights": [1.0, 2.0], "budget": "3"},
        {"type": "knapsack", "weights": [1.0, 2.0], "budget": True},
        {"type": "packing", "A": [[True, 0.5]], "b": [1.0]},
        {"type": "packing", "A": [[0.5, "0.5"]], "b": [1.0]},
        {"type": "packing", "A": [[0.5, 0.5]], "b": ["2"]},
        {"type": "packing", "A": [[0.5, 0.5]], "b": [True]},
        # an integer too large for a float
        {"type": "knapsack", "weights": [1.0, 10**400], "budget": 3.0},
        {"type": "packing", "A": [[0.5, 0.5]], "b": [10**400]},
    ):
        with pytest.raises(MalformedConstraintError):
            parse_constraint(bad, n=2)
    p = PackingConstraint(np.array([[0.5, 1.0]]), np.array([2.0]))
    with pytest.raises(MalformedConstraintError):
        p.is_feasible({5})  # dimension mismatch


@pytest.mark.parametrize(
    "constraint, S",
    [
        (KnapsackConstraint((1.0, 2.0), 1.5), {-2}),
        (PackingConstraint([[0.5, 1.0]], [1.0]), {-1}),
        (UniformMatroid(1, 3), {-1}),
        (PartitionMatroid([[0], [1]], [1, 1]), {-5}),
        (CardinalityConstraint(1), {1.5}),
        (CardinalityConstraint(1), {True}),
        (KnapsackConstraint((1.0, 2.0), 1.5), {1.0}),
        (UniformMatroid(1, 3), {3}),
    ],
    ids=["knapsack-neg", "packing-neg", "uniform-neg", "partition-neg", "card-float",
         "card-bool", "knapsack-float", "uniform-n"],
)
def test_per_set_checks_reject_bad_ids(constraint, S):
    # a negative id used to read a weight from the end of the vector, and a
    # cardinality bound counted any hashable element
    with pytest.raises(MalformedConstraintError):
        constraint.is_feasible(S)


def test_per_set_checks_take_numpy_ids():
    ids = {np.int64(0), np.int32(1)}
    assert KnapsackConstraint((1.0, 2.0), 3.0).is_feasible(ids)
    assert PackingConstraint([[0.5, 1.0]], [1.5]).is_feasible(ids)
    assert UniformMatroid(2, 3).is_feasible(ids)
    assert PartitionMatroid([[0], [1]], [1, 1]).is_feasible(ids)
    assert not CardinalityConstraint(1).is_feasible(ids | {np.int64(7)})
