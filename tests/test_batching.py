"""Batched evaluation and knapsack_enum's seed rows.

`Oracle.eval_masks` must give eval's values bit for bit on both sides of
BATCH_MIN, and so must `Oracle.eval_rows` on every oracle kind and across
its chunks. knapsack_enum, which runs its seeds as the rows of one set of
arrays, must give the trace and query count of a plain scalar run of one
seed after another.
"""

import json
import math
import random
import threading

import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symsubmax import (
    KnapsackConstraint,
    WeightedGraph,
    WeightedHypergraph,
    graph_cut_oracle,
    hypergraph_cut_oracle,
    knapsack_enum,
    mw_packing,
    random_graph,
    random_hypergraph,
    table_oracle,
)
from symsubmax.algorithms import _argmax, _argmax_groups
from symsubmax.oracle import BATCH_CELLS, BATCH_MIN, InvalidSetError, _set_of

ZERO_OR_WEIGHT = st.one_of(
    st.just(0.0), st.just(-0.0), st.floats(min_value=0.0, max_value=1e3, allow_nan=False)
)


@st.composite
def cut_oracles(draw, max_n=70):
    n = draw(st.integers(0, max_n))
    if n < 2:
        return graph_cut_oracle(WeightedGraph(n, ()))
    if draw(st.booleans()):
        ends = st.tuples(st.integers(0, n - 1), st.integers(0, n - 2))
        edges = draw(st.lists(st.tuples(ends, ZERO_OR_WEIGHT), max_size=2 * n))
        g = WeightedGraph(n, tuple((u, (u + 1 + d) % n, w) for (u, d), w in edges))
        return graph_cut_oracle(g)
    members = st.frozensets(st.integers(0, n - 1), min_size=2, max_size=n)
    edges = draw(st.lists(st.tuples(members, ZERO_OR_WEIGHT), max_size=2 * n))
    return hypergraph_cut_oracle(WeightedHypergraph(n, tuple(edges)))


@st.composite
def batches(draw, oracles):
    orc = draw(oracles)
    size = draw(st.sampled_from([0, 1, BATCH_MIN - 1, BATCH_MIN, 3 * BATCH_MIN]))
    masks = draw(st.lists(st.integers(0, (1 << orc.n) - 1), min_size=size, max_size=size))
    return orc, masks


def _bits(values):
    return [float(v).hex() + ("-" if math.copysign(1.0, v) < 0 else "+") for v in values]


def _check_batch(orc, masks):
    one_by_one = [orc.eval_uncounted(_set_of(m)) for m in masks]
    before = orc.query_count
    assert _bits(orc.eval_masks(masks)) == _bits(one_by_one)
    assert orc.query_count - before == len(masks)


@settings(max_examples=200)
@given(batches(cut_oracles()))
def test_eval_masks_equal_eval_on_cuts(case):
    _check_batch(*case)


@st.composite
def tables(draw):
    n = draw(st.integers(0, 6))
    values = draw(st.lists(ZERO_OR_WEIGHT, min_size=1 << n, max_size=1 << n))
    return table_oracle(n, values)


@settings(max_examples=100)
@given(batches(tables()))
def test_eval_masks_equal_eval_on_tables(case):
    _check_batch(*case)


@pytest.mark.parametrize("tabled", [False, True])
def test_eval_masks_on_a_built_table_and_wide_masks(tabled):
    orc = graph_cut_oracle(random_graph(12, 0.5, (0.1, 2.0), seed=4))
    if tabled:
        orc.value_table()
    _check_batch(orc, list(range(0, 1 << 12, 37)))
    wide = graph_cut_oracle(random_graph(70, 0.1, (0.1, 1.0), seed=7))
    _check_batch(wide, [(1 << 69) | (1 << 63) | m for m in range(3 * BATCH_MIN)])


@pytest.mark.parametrize("bad", [-1, 1 << 5, True, False, 1.0, 2.5, "3"])
@pytest.mark.parametrize("size", [1, BATCH_MIN])
def test_eval_masks_reject_bad_masks_without_counting(bad, size):
    orc = graph_cut_oracle(random_graph(5, 0.6, (0.1, 1.0), seed=1))
    with pytest.raises(InvalidSetError):
        orc.eval_masks([0] * (size - 1) + [bad])
    assert orc.query_count == 0


def test_concurrent_eval_masks_counting():
    orc = graph_cut_oracle(random_graph(8, 0.5, (0.0, 1.0), seed=1))

    def hammer():
        for _ in range(200):
            orc.eval_masks([3, 5, 9])
            orc.eval_masks(list(range(BATCH_MIN)))

    threads = [threading.Thread(target=hammer) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert orc.query_count == 4 * 200 * (3 + BATCH_MIN)


# -- eval_rows ------------------------------------------------------------------


def _rows_of(masks, n):
    rows = np.zeros((len(masks), n), dtype=bool)
    for r, m in enumerate(masks):
        rows[r] = [m >> i & 1 for i in range(n)]
    return rows


def _check_rows(orc, masks):
    one_by_one = [orc.eval_uncounted(_set_of(m)) for m in masks]
    before = orc.query_count
    values = orc.eval_rows(_rows_of(masks, orc.n))
    assert values.dtype == np.float64 and values.shape == (len(masks),)
    assert _bits(values.tolist()) == _bits(one_by_one)
    assert orc.query_count - before == len(masks)


@settings(max_examples=200)
@given(batches(cut_oracles()))
def test_eval_rows_equal_eval_on_cuts(case):
    _check_rows(*case)


@settings(max_examples=100)
@given(batches(tables()))
def test_eval_rows_equal_eval_on_tables(case):
    _check_rows(*case)


@pytest.mark.parametrize("tabled", [False, True])
def test_eval_rows_on_a_built_table_and_wide_sets(tabled):
    orc = graph_cut_oracle(random_graph(12, 0.5, (0.1, 2.0), seed=4))
    if tabled:
        orc.value_table()
    _check_rows(orc, list(range(0, 1 << 12, 37)))
    wide = graph_cut_oracle(random_graph(70, 0.1, (0.1, 1.0), seed=7))
    _check_rows(wide, [(1 << 69) | (1 << 63) | m for m in range(3 * BATCH_MIN)])


def test_eval_rows_without_edges_and_with_signed_zero_weights():
    _check_rows(graph_cut_oracle(WeightedGraph(5, ())), [0, 3, 31])
    _check_rows(hypergraph_cut_oracle(WeightedHypergraph(4, ())), [0, 5, 15])
    g = WeightedGraph(4, ((0, 1, -0.0), (1, 2, 0.0), (2, 3, -0.0)))
    _check_rows(graph_cut_oracle(g), list(range(16)))
    h = WeightedHypergraph(4, ((frozenset({0, 1, 2}), -0.0), (frozenset({1, 3}), 0.0)))
    _check_rows(hypergraph_cut_oracle(h), list(range(16)))


@pytest.mark.parametrize("extra", [-1, 0, 1, None])
def test_eval_rows_across_chunk_boundaries(extra):
    h = random_hypergraph(14, 300, 6, (0.0, 1.0), seed=3)
    orc = hypergraph_cut_oracle(h)
    step = BATCH_CELLS // len(h.hyperedges)
    size = 2 * step + 1 if extra is None else step + extra
    rng = random.Random(size)
    _check_rows(orc, [rng.getrandbits(14) for _ in range(size)])


@pytest.mark.parametrize(
    "bad",
    [
        [[True, False, True, False, True]],  # a list
        np.ones((2, 5), dtype=np.int64),
        np.ones((2, 5), dtype=np.float64),
        np.ones(5, dtype=bool),
        np.ones((2, 4), dtype=bool),
        np.ones((2, 6), dtype=bool),
        np.ones((1, 2, 5), dtype=bool),
    ],
    ids=["list", "int", "float", "1-d", "4-cols", "6-cols", "3-d"],
)
@pytest.mark.parametrize("tabled", [False, True])
def test_eval_rows_reject_bad_rows_without_counting(bad, tabled):
    orc = graph_cut_oracle(random_graph(5, 0.6, (0.1, 1.0), seed=1))
    if tabled:
        orc.value_table()
    with pytest.raises(InvalidSetError):
        orc.eval_rows(bad)
    assert orc.query_count == 0


@pytest.mark.parametrize("tabled", [False, True])
def test_concurrent_eval_rows_counting(tabled):
    orc = hypergraph_cut_oracle(random_hypergraph(8, 12, 4, (0.0, 1.0), seed=1))
    if tabled:
        orc.value_table()
    rows = _rows_of(range(0, 256, 11), 8)

    def hammer():
        for _ in range(200):
            orc.eval_rows(rows)
            orc.eval_rows(rows[:1])

    threads = [threading.Thread(target=hammer) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert orc.query_count == 4 * 200 * (len(rows) + 1)


# -- the running tie rule over groups ----------------------------------------

NEAR_TIES = [0.0, 0.5e-9, 0.8e-9, 1.6e-9, 1e-3, 1.0, 1.0 + 1e-9, math.inf, -math.inf]


@settings(max_examples=300)
@given(st.lists(st.lists(st.sampled_from(NEAR_TIES), min_size=1, max_size=6), min_size=1))
def test_argmax_groups_is_argmax_per_group(groups):
    values = np.array([v for g in groups for v in g])
    group = np.repeat(np.arange(len(groups)), [len(g) for g in groups])
    starts = np.cumsum([0] + [len(g) for g in groups[:-1]])
    want = [lo + _argmax(g) for lo, g in zip(starts.tolist(), groups)]
    assert _argmax_groups(values, group).tolist() == want


# -- knapsack_enum against a scalar run of one seed after another --------------


def _reference_delete(orc, S, fS, protected):
    S = set(S)
    for u in sorted(S - protected):
        f_without = orc.eval(S - {u})
        if fS - f_without < 0:
            S.discard(u)
            fS = f_without
    return S, fS


def _reference_seed(orc, kc, eps, T, f_empty):
    """One seed of knapsack_enum as plain Python: (f(T), extended set, its value)."""
    w = kc.weights
    seed_val = orc.eval(T) if T else f_empty
    residual = kc.budget - kc.load(T)
    cap = min((w[t] for t in T), default=math.inf)
    allowed = [j for j in range(orc.n) if j not in T and w[j] <= cap and w[j] <= residual]
    S, protected = set(T), set(T)
    if not allowed:
        return seed_val, S, seed_val
    maxw = max(w[j] for j in allowed)
    if maxw == 0:  # the free extension
        fS = seed_val
        while True:
            gains = ((j, orc.eval(S | {j}) - fS) for j in allowed if j not in S)
            j, gain = next(((j, g) for j, g in gains if g > 0), (None, 0.0))
            if j is None:
                return seed_val, S, fS
            S, fS = _reference_delete(orc, S | {j}, fS + gain, protected)
    row = {j: w[j] / maxw for j in allowed}
    b = residual / maxw
    lam = math.exp(eps * b)
    fS = orc.eval(S)
    x = 1.0 / b
    added = []
    while not set(allowed) <= S and b * x <= lam:
        scan = [j for j in allowed if j not in S]
        gains = [orc.eval(S | {j}) - fS for j in scan]
        dens = [
            g / (row[j] * x) if row[j] * x != 0.0 else (math.inf if g > 0 else -math.inf)
            for j, g in zip(scan, gains)
        ]
        best = 0
        for i in range(1, len(dens)):
            if dens[i] > dens[best] + 1e-9:
                best = i
        j, gain = scan[best], gains[best]
        if gain <= 0:
            break
        added.append(j)
        S, fS = _reference_delete(orc, S | {j}, fS + gain, protected)
        x *= np.power(lam, [row[j] / b]).tolist()[0]
    if not kc.is_feasible(S):
        for j in reversed(added):
            if j in S:
                S.discard(j)
                if kc.is_feasible(S):
                    break
        fS = orc.eval(S)
    return seed_val, S, fS


def _reference_knapsack_enum(orc, kc, eps):
    """knapsack_enum's trace as a dict, each seed run on its own in seed order."""
    n, w = orc.n, kc.weights
    start = orc.query_count
    f_empty = best_val = orc.eval(())
    best_set = set()
    singles = [j for j in range(n) if w[j] <= kc.budget]
    seeds = [()] + [(j,) for j in singles]
    seeds += [(i, j) for a, i in enumerate(singles) for j in singles[a + 1 :] if kc.is_feasible((i, j))]
    rounds = []
    for idx, T in enumerate(seeds):
        seed_val, S, fS = _reference_seed(orc, kc, eps, T, f_empty)
        if seed_val > best_val:
            best_set, best_val = set(T), seed_val
        if fS > best_val:
            best_set, best_val = S, fS
        rounds.append(
            {
                "index": idx,
                "selected": list(T),
                "before_delete": list(T),
                "after_delete": sorted(S),
                "value": fS,
                "cum_queries": orc.query_count - start,
                "extras": {"best_so_far": best_val},
            }
        )
    return {
        "algorithm": "knapsack-enum",
        "params": {"n": n, "budget": kc.budget, "epsilon": eps},
        "rounds": rounds,
        "final_set": sorted(best_set),
        "final_value": best_val,
        "total_queries": orc.query_count - start,
        "warnings": [],
    }


NON_DYADIC = st.sampled_from([0.0, 0.1, 0.15, 0.2, 0.3, 0.35, 0.7, 1 / 3])


@st.composite
def knapsacks(draw):
    n = draw(st.integers(2, 8))
    seed = draw(st.integers(0, 999))
    if draw(st.booleans()):
        orc = graph_cut_oracle(random_graph(n, 0.6, (0.0, 2.0), seed=seed))
    else:
        orc = hypergraph_cut_oracle(random_hypergraph(n, 2 * n, min(n, 4), (0.0, 2.0), seed=seed))
    if draw(st.booleans()):
        orc.value_table()
    weights = tuple(draw(st.lists(NON_DYADIC, min_size=n, max_size=n)))
    S = draw(st.sets(st.integers(0, n - 1), min_size=2))
    budget = KnapsackConstraint(weights, 1.0).load(S)
    if draw(st.booleans()):
        budget = math.nextafter(budget, 0.0)
    budget = max(budget, 0.05)
    return orc, KnapsackConstraint(weights, budget), draw(st.sampled_from([0.1, 0.3]))


def _check_against_reference(orc, kc, eps):
    orc.reset_queries()
    got = knapsack_enum(orc, kc, eps)
    assert orc.query_count == got.total_queries
    orc.reset_queries()
    want = _reference_knapsack_enum(orc, kc, eps)
    assert json.dumps(got.to_dict(), sort_keys=True) == json.dumps(want, sort_keys=True)
    return got


@settings(max_examples=150)
@given(knapsacks())
def test_knapsack_enum_rows_equal_one_seed_at_a_time(case):
    _check_against_reference(*case)


def test_knapsack_enum_runs_every_seed_of_a_large_knapsack_as_rows():
    # every pair fits: 1 + 24 + 276 = 301 seeds, all in one set of rows
    n = 24
    orc = graph_cut_oracle(random_graph(n, 0.3, (0.0, 2.0), seed=5))
    weights = tuple(0.1 + 0.9 * ((7 * j) % n) / n for j in range(n))
    got = _check_against_reference(orc, KnapsackConstraint(weights, 2.0), 0.3)
    assert len(got.rounds) == 301


def test_knapsack_enum_rows_cover_free_extension_and_repair():
    # zero weights send seeds through the free extension; the boundary
    # budget makes some seeded runs drop elements to fit
    orc = graph_cut_oracle(random_graph(9, 0.5, (0.0, 2.0), seed=1))
    weights = (0.3, 0.15, 0.2, 0.3, 0.15, 0.2, 0.0, 0.35, 0.0)
    kc = KnapsackConstraint(weights, 0.7999999999999999)
    got = _check_against_reference(orc, kc, 0.3)
    assert kc.is_feasible(got.final_set)


# -- the empty seed is mw_packing ---------------------------------------------


def _assert_empty_seed_is_mw_packing(orc, kc, eps):
    orc.reset_queries()
    enum = knapsack_enum(orc, kc, eps)
    orc.reset_queries()
    mw = mw_packing(orc, kc, eps)
    seed = enum.rounds[0]
    assert seed.before_delete == ()
    assert seed.after_delete == mw.final_set
    assert seed.value == mw.final_value
    # f(empty) is asked once before the seeds and counted in none of them
    assert seed.cum_queries - 1 == mw.total_queries == orc.query_count


@pytest.mark.parametrize("tabled", [False, True])
def test_empty_seed_is_mw_packing_on_hypergraphs(tabled):
    for seed, n, share in ((1, 23, 0.2), (2, 17, 0.3)):
        orc = hypergraph_cut_oracle(random_hypergraph(n, 2 * n, 5, (0.0, 1.0), seed=seed))
        if tabled:
            orc.value_table()
        weights = tuple(0.05 + 0.9 * ((5 * j) % n) / n for j in range(n))
        _assert_empty_seed_is_mw_packing(orc, KnapsackConstraint(weights, share * sum(weights)), 0.3)


@settings(max_examples=100)
@given(knapsacks())
def test_empty_seed_is_mw_packing(case):
    orc, kc, eps = case
    # a knapsack whose fitting weights are all 0 takes the free extension
    if any(wj > 0 and wj <= kc.budget for wj in kc.weights):
        _assert_empty_seed_is_mw_packing(orc, kc, eps)
