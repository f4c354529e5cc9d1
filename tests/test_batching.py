"""Batched evaluation and lockstep runs.

`Oracle.eval_masks` must give eval's values bit for bit on both sides of
BATCH_MIN, and knapsack_enum, which drives its seeded runs in lockstep, must
give the trace and query count of driving them one at a time.
"""

import json
import math
import threading

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
    random_graph,
    table_oracle,
)
from symsubmax import algorithms
from symsubmax.oracle import BATCH_MIN, InvalidSetError, _set_of

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


def _one_at_a_time(oracle, runs):
    """The reference driver: each run to its end before the next starts, one
    eval_masks call a step; [(result, masks yielded)] in run order."""
    out = []
    for steps in runs:
        asked = 0
        try:
            masks = next(steps)
            while True:
                asked += len(masks)
                masks = steps.send(oracle.eval_masks(masks))
        except StopIteration as stop:
            out.append((stop.value, asked))
    return out


def _with_reference_driver(call):
    lockstep = algorithms._lockstep
    algorithms._lockstep = _one_at_a_time
    try:
        return call()
    finally:
        algorithms._lockstep = lockstep


NON_DYADIC = st.sampled_from([0.0, 0.1, 0.15, 0.2, 0.3, 0.35, 0.7, 1 / 3])


@st.composite
def knapsacks(draw):
    n = draw(st.integers(2, 8))
    orc = graph_cut_oracle(random_graph(n, 0.6, (0.0, 2.0), seed=draw(st.integers(0, 999))))
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
    got_queries = orc.query_count
    orc.reset_queries()
    want = _with_reference_driver(lambda: knapsack_enum(orc, kc, eps))
    assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())
    assert got_queries == orc.query_count == want.total_queries
    return got


@settings(max_examples=150)
@given(knapsacks())
def test_lockstep_knapsack_enum_equals_one_run_at_a_time(case):
    _check_against_reference(*case)


def test_lockstep_runs_every_seed_of_a_large_knapsack_at_once():
    # every pair fits: 1 + 24 + 276 = 301 seeds, all started together
    n = 24
    orc = graph_cut_oracle(random_graph(n, 0.3, (0.0, 2.0), seed=5))
    weights = tuple(0.1 + 0.9 * ((7 * j) % n) / n for j in range(n))
    got = _check_against_reference(orc, KnapsackConstraint(weights, 2.0), 0.3)
    assert len(got.rounds) == 301


def test_lockstep_covers_free_extension_and_repair():
    # zero weights send seeds through the free extension; the boundary
    # budget makes some seeded runs drop elements to fit
    orc = graph_cut_oracle(random_graph(9, 0.5, (0.0, 2.0), seed=1))
    weights = (0.3, 0.15, 0.2, 0.3, 0.15, 0.2, 0.0, 0.35, 0.0)
    kc = KnapsackConstraint(weights, 0.7999999999999999)
    got = _check_against_reference(orc, kc, 0.3)
    assert kc.is_feasible(got.final_set)
