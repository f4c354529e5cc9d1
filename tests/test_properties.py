"""Property tests: the 2^n value table and direct evaluation are interchangeable.

`solve --exact` builds the table before the solver runs, so the solver then
reads every value from it. These properties pin down why that changes no
report: each table entry equals the directly evaluated value bit for bit,
and every solver gives the same trace and query count either way. An oracle
builds a table only when `value_table()` is called.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from symsubmax import (
    KnapsackConstraint,
    PartitionMatroid,
    UniformMatroid,
    WeightedGraph,
    WeightedHypergraph,
    graph_cut_oracle,
    greedy_cardinality,
    greedy_matroid,
    hypergraph_cut_oracle,
    knapsack_enum,
    mw_packing,
    sample_greedy_cardinality,
)
from symsubmax.algorithms import ParameterError
from symsubmax.constraints import ConstraintError
from symsubmax.oracle import _set_of

WEIGHTS = st.floats(min_value=0.0, max_value=1e3, allow_nan=False, allow_infinity=False)


@st.composite
def graphs(draw, min_n=2, max_n=10):
    n = draw(st.integers(min_n, max_n))
    # v = u + 1 + d (mod n) with d < n - 1 never equals u
    ends = st.tuples(st.integers(0, n - 1), st.integers(0, n - 2))
    edges = draw(st.lists(st.tuples(ends, WEIGHTS), max_size=3 * n))
    return graph_cut_oracle(
        WeightedGraph(n, tuple((u, (u + 1 + d) % n, w) for (u, d), w in edges))
    )


@st.composite
def hypergraphs(draw, min_n=2, max_n=10):
    n = draw(st.integers(min_n, max_n))
    members = st.frozensets(st.integers(0, n - 1), min_size=2, max_size=n)
    edges = draw(st.lists(st.tuples(members, WEIGHTS), max_size=2 * n))
    return hypergraph_cut_oracle(WeightedHypergraph(n, tuple(edges)))


def oracles(min_n=2, max_n=10):
    return st.one_of(graphs(min_n, max_n), hypergraphs(min_n, max_n))


def fresh(orc):
    """A new oracle over the same payload: no table, no queries."""
    return type(orc)(orc.kind, orc.n, orc._payload)


@settings(deadline=None, max_examples=100)
@given(oracles())
def test_table_entries_equal_direct_values(orc):
    direct = fresh(orc)
    table = orc.value_table()
    for m in range(1 << orc.n):
        assert table[m] == direct.eval_uncounted(_set_of(m))
    assert direct._table is None


@settings(deadline=None, max_examples=20)
@given(oracles(min_n=10, max_n=10))
def test_queries_build_no_table(orc):
    fS = orc.eval({0, 3})
    orc.marginal(5, {0, 3}, fS)
    orc.eval_uncounted({1})
    assert orc._table is None
    assert orc.query_count == 2


@st.composite
def solver_runs(draw):
    """(oracle, solver call) for one of the five solvers at n <= 8."""
    orc = draw(oracles(min_n=3, max_n=8))
    n = orc.n
    k = draw(st.integers(1, n))
    eps = draw(st.sampled_from([0.2, 0.5]))
    # zero weights reach knapsack_enum's free extension and mw_packing's
    # UndefinedWidthError
    weights = st.one_of(st.just(0.0), st.floats(min_value=0.1, max_value=3.0))
    knap = KnapsackConstraint(tuple(draw(st.lists(weights, min_size=n, max_size=n))), 2.5)
    half = n // 2

    def mw(o):
        packing, allowed = knap.to_packing()
        return mw_packing(o, packing, eps, allowed=allowed)

    calls = {
        "greedy-card": lambda o: greedy_cardinality(o, k),
        "sample-greedy-card": lambda o: sample_greedy_cardinality(o, k, eps, seed=k),
        "greedy-matroid-uniform": lambda o: greedy_matroid(o, UniformMatroid(k, n), eps),
        "greedy-matroid-partition": lambda o: greedy_matroid(
            o, PartitionMatroid([range(half), range(half, n)], [1, 2]), eps
        ),
        "mw-packing": mw,
        "knapsack-enum": lambda o: knapsack_enum(o, knap, epsilon=eps),
    }
    return orc, calls[draw(st.sampled_from(sorted(calls)))]


def outcome(call, orc):
    try:
        trace = call(orc)
    except (ConstraintError, ParameterError) as exc:
        return type(exc).__name__, str(exc)
    return json.dumps(trace.to_dict(), sort_keys=True), orc.query_count


@settings(deadline=None, max_examples=200)
@given(solver_runs())
def test_solvers_agree_with_and_without_table(run):
    orc, call = run
    tabled = fresh(orc)
    tabled.value_table()
    assert outcome(call, tabled) == outcome(call, orc)
    assert orc._table is None
