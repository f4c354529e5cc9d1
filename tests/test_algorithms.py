import dataclasses
import json
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
    delete,
    graph_cut_oracle,
    greedy_cardinality,
    greedy_matroid,
    knapsack_enum,
    mw_packing,
    random_graph,
    sample_greedy_cardinality,
    tight_example,
)
from symsubmax.algorithms import ParameterError
from symsubmax.oracle import InvalidSetError

from conftest import bundled_oracles


# -- Delete -------------------------------------------------------------------


def test_delete_k3_example(k3):
    S, fS = delete(k3, {0, 1, 2})
    assert sorted(S) == [1, 2]
    assert fS == 2.0


def test_delete_noop_when_marginals_nonneg(k3):
    S, fS = delete(k3, {0})
    assert sorted(S) == [0]
    assert fS == 2.0


def test_delete_empty(k3):
    S, fS = delete(k3, set())
    assert S == set()
    assert fS == 0.0


def test_delete_respects_protected(k3):
    S, fS = delete(k3, {0, 1, 2}, protected={0})
    assert 0 in S


def test_delete_query_budget(k3):
    k3.reset_queries()
    delete(k3, {0, 1, 2})
    assert k3.query_count <= 4  # |S| marginals + 1 base value


@pytest.mark.parametrize("name", sorted(bundled_oracles()))
def test_delete_postconditions_exhaustive(name):
    orc = bundled_oracles()[name]
    vals = orc.value_table()
    n = orc.n
    for smask in range(1 << n):
        S_in = {u for u in range(n) if smask >> u & 1}
        S, fS = delete(orc, S_in)
        assert fS >= vals[smask] - 1e-12  # value never drops
        out = sum(1 << u for u in S)
        for u in S:
            assert vals[out] - vals[out & ~(1 << u)] >= -1e-12


# -- greedy cardinality -------------------------------------------------------


def test_greedy_k3(k3):
    t = greedy_cardinality(k3, 1)
    assert t.final_set == (0,)
    assert t.final_value == 2.0


def test_greedy_c4(c4):
    t = greedy_cardinality(c4, 2)
    assert t.final_set == (0, 2)
    assert t.final_value == 4.0


def test_greedy_tight_example_k3():
    te = tight_example(3)
    orc = graph_cut_oracle(te.graph)
    t = greedy_cardinality(orc, 3)
    assert abs(t.final_value - 13.0 / 9.0) < 1e-9
    assert t.final_set == (0, 1, 2)  # the decoy vertices


def test_greedy_invalid_k(k3):
    with pytest.raises(ParameterError):
        greedy_cardinality(k3, 0)
    with pytest.raises(ParameterError):
        greedy_cardinality(k3, 4)


def test_greedy_trace_consistency(c4):
    c4.reset_queries()
    t = greedy_cardinality(c4, 3)
    assert t.total_queries == c4.query_count
    assert t.total_queries == t.rounds[-1].cum_queries
    cums = [r.cum_queries for r in t.rounds]
    assert cums == sorted(cums)
    vals = [r.value for r in t.rounds]
    assert vals == sorted(vals)  # non-decreasing per round
    assert t.total_queries <= 3 * (4 + 3 + 2)


# -- sample greedy ------------------------------------------------------------


def test_sample_greedy_full_sample_matches_greedy(c4):
    # epsilon small enough that r >= n degenerates to the deterministic greedy
    det = greedy_cardinality(graph_cut_oracle(c4._payload), 2)
    t = sample_greedy_cardinality(c4, 2, epsilon=math.exp(-8), seed=42)
    assert t.final_set == det.final_set
    assert t.final_value == det.final_value
    assert [r.selected for r in t.rounds] == [r.selected for r in det.rounds]


def test_sample_greedy_k3_any_seed(k3):
    for seed in range(5):
        t = sample_greedy_cardinality(k3, 1, 0.5, seed=seed)
        assert t.final_value == 2.0


def test_sample_greedy_deterministic_per_seed():
    g = random_graph(12, 0.4, (0.0, 1.0), seed=5)
    t1 = sample_greedy_cardinality(graph_cut_oracle(g), 4, 0.3, seed=9)
    t2 = sample_greedy_cardinality(graph_cut_oracle(g), 4, 0.3, seed=9)
    assert t1.to_dict() == t2.to_dict()


def test_sample_greedy_invalid_params(k3):
    with pytest.raises(ParameterError):
        sample_greedy_cardinality(k3, 1, 1.5)
    with pytest.raises(ParameterError):
        sample_greedy_cardinality(k3, 5, 0.5)


def test_sample_greedy_query_bound():
    g = random_graph(14, 0.5, (0.0, 1.0), seed=2)
    orc = graph_cut_oracle(g)
    k, eps = 4, 0.2
    t = sample_greedy_cardinality(orc, k, eps, seed=1)
    r = t.params["r"]
    assert r == math.ceil((14 / k) * math.log(1 / eps))
    assert t.total_queries <= k * (r + k + 2)


# -- greedy matroid -----------------------------------------------------------


def test_matroid_uniform_k1(k3):
    t = greedy_matroid(k3, UniformMatroid(1, 3), 0.05)
    assert t.params["K"] == 1
    assert t.final_set == (0,)
    assert t.final_value == 2.0


def test_matroid_zero_oracle():
    orc = graph_cut_oracle(random_graph(5, 0.0, (0.0, 1.0), seed=0))
    t = greedy_matroid(orc, UniformMatroid(2, 5), 0.1)
    assert t.final_value == 0.0


def test_matroid_partition_k3_deterministic(k3):
    pm = PartitionMatroid([[0, 1], [2]], [1, 1])
    t = greedy_matroid(k3, pm, 0.05)
    assert pm.is_independent(t.final_set)
    t2 = greedy_matroid(graph_cut_oracle(k3._payload), pm, 0.05)
    assert t.to_dict() == t2.to_dict()
    # deterministic simulation value matches brute force over reachable sets
    res = brute_force_opt(k3, pm)
    assert t.final_value <= res.opt_value + 1e-12
    assert t.final_value == 2.0


def test_matroid_final_set_independent_and_query_bound():
    g = random_graph(12, 0.5, (0.0, 2.0), seed=8)
    orc = graph_cut_oracle(g)
    pm = PartitionMatroid([[0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11]], [2, 2, 1])
    t = greedy_matroid(orc, pm, 0.1)
    assert pm.is_independent(t.final_set)
    K, k = t.params["K"], t.params["k"]
    assert K == math.ceil((k / 3) * math.log(10))
    assert t.total_queries <= K * (12 + 2 * k + 2)


def test_matroid_invalid_eps(k3):
    with pytest.raises(ParameterError):
        greedy_matroid(k3, UniformMatroid(1, 3), 1.0)


# -- mw packing ---------------------------------------------------------------


def test_mw_k3_knapsack_example(k3):
    kc = KnapsackConstraint((1.0, 1.0, 1.0), 2.0)
    p, allowed = kc.to_packing()
    t = mw_packing(k3, p, 0.5, allowed=allowed)
    assert t.final_set == (0,)
    assert t.final_value == 2.0
    # round 2 broke on non-positive marginals
    assert t.rounds[-1].selected is None


def test_mw_zero_oracle():
    orc = graph_cut_oracle(random_graph(4, 0.0, (0.0, 1.0), seed=0))
    p = PackingConstraint(np.full((1, 4), 0.5), np.array([2.0]))
    t = mw_packing(orc, p, 0.3)
    assert t.final_set == ()
    assert t.final_value == 0.0


def test_mw_overshoot_is_repaired():
    # weights [0.6, 0.6], budget 1, one unit edge: second addition overshoots
    g = graph_cut_oracle(random_graph(2, 1.0, (1.0, 1.0), seed=0))
    p = PackingConstraint(np.array([[0.6, 0.6]]), np.array([1.0]))
    t = mw_packing(g, p, 0.5)
    assert p.is_feasible(t.final_set)


def _ascending_rows(col, w):
    """sum_i col[i] * w[i] in Python floats, adding the rows in ascending order."""
    total = float(col[0]) * float(w[0])
    for i in range(1, len(w)):
        total += float(col[i]) * float(w[i])
    return total


@pytest.mark.parametrize("m", [1, 2])
def test_mw_trace_extras_replay(m):
    # beta and the denominator are read before the round's weight update, and
    # add the rows in ascending order
    rng = np.random.default_rng(m)
    g = graph_cut_oracle(random_graph(10, 0.5, (0.5, 1.5), seed=m))
    p = PackingConstraint(rng.uniform(0.1, 1.0, (m, 10)), np.full(m, 5.0))
    t = mw_packing(g, p, 0.3)
    lam = t.params["lambda"]
    w = 1.0 / p.b
    picked = 0
    for r in t.rounds:
        assert r.extras["beta"] == _ascending_rows(p.b, w)
        if r.selected is None:
            continue
        assert r.extras["denominator"] == _ascending_rows(p.A[:, r.selected], w)
        w = w * lam ** (p.A[:, r.selected] / p.b)
        picked += 1
    assert picked >= 5 and t.rounds[-1].selected is None


def test_mw_width_warning():
    g = graph_cut_oracle(random_graph(4, 1.0, (1.0, 1.0), seed=0))
    p = PackingConstraint(np.full((1, 4), 1.0), np.array([2.0]))
    t = mw_packing(g, p, 0.3)
    assert any("width" in w for w in t.warnings)
    p_wide = PackingConstraint(np.full((1, 4), 0.05), np.array([2.0]))
    t2 = mw_packing(g, p_wide, 0.3)
    assert not any("width" in w for w in t2.warnings)


def test_mw_free_column_selected_first():
    # element 2 has an all-zero column and positive marginal: picked first
    g = graph_cut_oracle(
        random_graph(3, 1.0, (1.0, 1.0), seed=0)
    )
    p = PackingConstraint(np.array([[0.5, 0.5, 0.0]]), np.array([1.0]))
    t = mw_packing(g, p, 0.2)
    assert t.rounds[0].selected == 2


def test_mw_query_bound():
    g = graph_cut_oracle(random_graph(10, 0.6, (0.0, 1.0), seed=3))
    p = PackingConstraint(np.full((2, 10), 0.2), np.array([1.5, 2.0]))
    t = mw_packing(g, p, 0.4)
    assert t.total_queries <= 10 * (2 * 10 + 2)


def test_mw_lambda_override_recorded():
    g = graph_cut_oracle(random_graph(4, 1.0, (1.0, 1.0), seed=0))
    p = PackingConstraint(np.full((1, 4), 0.5), np.array([1.0]))
    t = mw_packing(g, p, 0.3, lambda_override=3.0)
    assert t.params["lambda"] == 3.0


def test_mw_lambda_override_nan_rejected():
    g = graph_cut_oracle(random_graph(4, 1.0, (1.0, 1.0), seed=0))
    p = PackingConstraint(np.full((1, 4), 0.5), np.array([1.0]))
    with pytest.raises(ParameterError):
        mw_packing(g, p, 0.3, lambda_override=float("nan"))


# -- knapsack enum ------------------------------------------------------------


def test_knapsack_star_example(star):
    t = knapsack_enum(star, KnapsackConstraint((3.0, 1.0, 1.0), 3.0))
    assert t.final_value == 20.0


def test_knapsack_large_budget_beats_plain_mw(k3):
    kc = KnapsackConstraint((1.0, 1.0, 1.0), 10.0)
    t = knapsack_enum(k3, kc)
    p, allowed = kc.to_packing()
    mw = mw_packing(graph_cut_oracle(k3._payload), p, 0.1, allowed=allowed)
    assert t.final_value >= mw.final_value


def test_knapsack_single_element():
    orc = graph_cut_oracle(random_graph(1, 0.0, (0.0, 1.0), seed=0))
    t = knapsack_enum(orc, KnapsackConstraint((1.0,), 1.0))
    assert t.final_value == 0.0


def test_knapsack_budget_below_every_weight(k3):
    t = knapsack_enum(k3, KnapsackConstraint((5.0, 5.0, 5.0), 1.0))
    assert t.final_set == ()
    assert t.final_value == 0.0


def test_knapsack_enum_reaches_the_boundary_optimum():
    # {0, 1, 2} loads 0.6 in ascending id, within the budget; the seed {0}
    # extended by 1 and 2 loads 1.5 in its rescaled residual packing, over
    # that packing's 1.4999999999999996, which used to drop 2
    orc = graph_cut_oracle(random_graph(7, 0.6, (0.0, 2.0), seed=615699))
    kc = KnapsackConstraint((0.45, 0.05, 0.1, 0.35, 0.7, 0.45, 0.45), 0.6)
    t = knapsack_enum(orc, kc, epsilon=0.3)
    opt = brute_force_opt(graph_cut_oracle(orc._payload), kc)
    assert t.final_set == (0, 1, 2) == tuple(opt.witness)
    assert t.final_value == opt.opt_value


def test_knapsack_output_feasible_random():
    import random as _r

    rng = _r.Random(31)
    for _ in range(20):
        n = rng.randint(2, 8)
        g = graph_cut_oracle(random_graph(n, 0.6, (0.0, 2.0), seed=rng.randint(0, 999)))
        weights = tuple(rng.uniform(0.5, 2.0) for _ in range(n))
        kc = KnapsackConstraint(weights, rng.uniform(1.0, 4.0))
        t = knapsack_enum(g, kc)
        assert kc.is_feasible(t.final_set)


# -- cross-cutting ------------------------------------------------------------


def test_all_traces_count_matches_counter():
    g = random_graph(8, 0.5, (0.0, 1.0), seed=6)
    orc = graph_cut_oracle(g)
    orc.reset_queries()
    t1 = greedy_cardinality(orc, 3)
    t2 = sample_greedy_cardinality(orc, 3, 0.2, seed=0)
    t3 = greedy_matroid(orc, UniformMatroid(3, 8), 0.1)
    assert orc.query_count == t1.total_queries + t2.total_queries + t3.total_queries


def _every_solver_run():
    g = graph_cut_oracle(random_graph(9, 0.6, (0.1, 2.0), seed=8))
    knap = KnapsackConstraint((0.3, 0.7, 0.2, 0.9, 0.1, 0.6, 1 / 3, 0.4, 0.5), 1.6)
    pack = PackingConstraint(np.full((2, 9), 0.3), np.array([1.0, 1.2]))
    return {
        "greedy-card": greedy_cardinality(g, 3),
        "sample-greedy-card": sample_greedy_cardinality(g, 3, 0.3, seed=2),
        "greedy-matroid": greedy_matroid(g, UniformMatroid(3, 9), 0.2),
        "mw-packing": mw_packing(g, pack, 0.3),
        "mw-packing-knapsack": mw_packing(g, knap, 0.3),
        "knapsack-enum": knapsack_enum(g, knap),
    }


@pytest.mark.parametrize("traced", [True, False])
def test_report_dict_equals_asdict(traced):
    # the hand-written dicts give the reports dataclasses.asdict gave
    runs = _every_solver_run()
    assert runs["mw-packing"].warnings  # a non-empty list is covered
    for name, t in runs.items():
        want = dataclasses.asdict(t)
        if not traced:
            del want["rounds"]
        got = t.to_dict(include_rounds=traced)
        assert got == want, name
        assert json.dumps(got) == json.dumps(want), name


def test_mw_rejects_allowed_ids_outside_the_ground_set():
    # the scan's marginals reject an id before it can index a denominator
    g = graph_cut_oracle(random_graph(5, 1.0, (1.0, 1.0), seed=0))
    p = PackingConstraint(np.full((1, 5), 0.1), np.array([1.0]))
    for bad in (5, -1, 1.0):
        with pytest.raises(InvalidSetError):
            mw_packing(g, p, 0.3, allowed=[0, bad])
