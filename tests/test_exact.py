import math

import numpy as np
import pytest

from symsubmax import (
    CardinalityConstraint,
    KnapsackConstraint,
    PackingConstraint,
    PartitionMatroid,
    UniformMatroid,
    brute_force_opt,
    graph_cut_oracle,
    greedy_cardinality,
    random_graph,
    ratio,
    table_oracle,
)
from symsubmax.constraints import MalformedConstraintError
from symsubmax.exact import VACUOUS, InstanceTooLargeError, feasible_mask_array


def test_k3_card1(k3):
    res = brute_force_opt(k3, CardinalityConstraint(1))
    assert res.opt_value == 2.0
    assert res.witness == (0,)


def test_c4_card2(c4):
    res = brute_force_opt(c4, CardinalityConstraint(2))
    assert res.opt_value == 4.0
    assert res.witness == (0, 2)
    assert res.sets_enumerated == 11


def test_empty_graph_opt_zero():
    orc = graph_cut_oracle(random_graph(4, 0.0, (0.0, 1.0), seed=0))
    res = brute_force_opt(orc, CardinalityConstraint(2))
    assert res.opt_value == 0.0
    assert res.witness == ()


def test_zero_optimum_is_positive_zero():
    # the table lists both zeros; the witness () is worth +0.0
    res = brute_force_opt(table_oracle(2, [0.0, -0.0, -0.0, 0.0]), CardinalityConstraint(1))
    assert res.witness == ()
    assert math.copysign(1.0, res.opt_value) == 1.0


def test_too_large_rejected():
    orc = graph_cut_oracle(random_graph(25, 0.0, (0.0, 1.0), seed=0))
    with pytest.raises(InstanceTooLargeError):
        brute_force_opt(orc, CardinalityConstraint(2))


def test_witness_complement_symmetric():
    for seed in range(10):
        g = random_graph(9, 0.5, (0.0, 2.0), seed=seed)
        orc = graph_cut_oracle(g)
        res = brute_force_opt(orc, CardinalityConstraint(9))
        comp = set(range(9)) - set(res.witness)
        assert abs(orc.eval_uncounted(res.witness) - orc.eval_uncounted(comp)) < 1e-9
        assert res.opt_value == orc.value_table().max()  # unconstrained max


def test_restricting_constraint_never_helps():
    g = random_graph(10, 0.5, (0.0, 1.0), seed=12)
    orc = graph_cut_oracle(g)
    prev = None
    for k in range(10, 0, -1):
        res = brute_force_opt(orc, CardinalityConstraint(k))
        if prev is not None:
            assert res.opt_value <= prev + 1e-12
        prev = res.opt_value


def test_constraint_over_another_ground_set_rejected(c4):
    for cons in (KnapsackConstraint((1.0, 1.0), 1.0), PartitionMatroid([[0], [1]], [1, 1])):
        with pytest.raises(MalformedConstraintError):
            brute_force_opt(c4, cons)


def test_feasible_mask_matches_python_checks():
    import random as _r

    rng = _r.Random(2)
    n = 8
    constraints = [
        CardinalityConstraint(3),
        UniformMatroid(4, n),
        PartitionMatroid([[0, 1, 2], [3, 4], [5, 6, 7]], [1, 2, 1]),
        KnapsackConstraint(tuple(rng.uniform(0, 2) for _ in range(n)), 3.0),
        PackingConstraint(
            np.array([[rng.random() for _ in range(n)] for _ in range(2)]),
            np.array([1.5, 2.5]),
        ),
    ]
    for cons in constraints:
        mask = feasible_mask_array(cons, n)
        for m in range(1 << n):
            S = [u for u in range(n) if m >> u & 1]
            assert mask[m] == cons.is_feasible(S), (cons, S)


def test_ratio_values(k3):
    res = brute_force_opt(k3, CardinalityConstraint(1))
    t = greedy_cardinality(k3, 1)
    assert ratio(t, res) == 1.0
    zero = graph_cut_oracle(random_graph(3, 0.0, (0.0, 1.0), seed=0))
    rz = brute_force_opt(zero, CardinalityConstraint(1))
    tz = greedy_cardinality(zero, 1)
    assert ratio(tz, rz) == VACUOUS
