"""Property tests for the 2^n passes: value tables, feasibility tables,
brute-force optima and exhaustive validation.

`solve --exact` builds the table before the solver runs, so the solver then
reads every value from it. These properties pin down why that changes no
report: each table entry equals the directly evaluated value bit for bit,
and every solver gives the same trace and query count either way. An oracle
builds a table only when `value_table()` is called. The vectorized
feasibility table, witness tie-break and validation report are checked
against naive per-set references, and the table, brute-force and
validation passes against memory budgets.
"""

import json
import math
import os
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    greedy_cardinality,
    greedy_matroid,
    hypergraph_cut_oracle,
    knapsack_enum,
    load_constraint,
    mw_packing,
    parse_instance,
    random_graph,
    random_hypergraph,
    sample_greedy_cardinality,
    save_instance,
    table_oracle,
    validate,
)
from symsubmax import cli
from symsubmax.algorithms import ParameterError
from symsubmax.cli import SOLVERS
from symsubmax.constraints import ConstraintError, UndefinedWidthError, constraint_to_dict
from symsubmax.exact import feasible_mask_array
from symsubmax.oracle import EQ_TOL, ROW_BITS, _set_of

WEIGHTS = st.floats(min_value=0.0, max_value=1e3, allow_nan=False, allow_infinity=False)


@st.composite
def graphs(draw, min_n=2, max_n=10, weights=WEIGHTS, max_edges=3):
    n = draw(st.integers(min_n, max_n))
    # v = u + 1 + d (mod n) with d < n - 1 never equals u
    ends = st.tuples(st.integers(0, n - 1), st.integers(0, n - 2))
    edges = draw(st.lists(st.tuples(ends, weights), max_size=max_edges * n))
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


@settings(max_examples=100)
@given(oracles())
def test_table_entries_equal_direct_values(orc):
    direct = fresh(orc)
    table = orc.value_table()
    for m in range(1 << orc.n):
        assert table[m] == direct.eval_uncounted(_set_of(m))
    assert direct._table is None
    # the complement of mask m is 2^n - 1 - m
    assert table.tobytes() == table[::-1].tobytes()


H = ROW_BITS  # the lowest id that picks a row of the table


def cut_case(kind, n, edges):
    """(instance object, edges) for edges given as (member ids, w)."""
    if kind == "graph-cut":
        return {"type": kind, "n": n, "edges": [[u, v, w] for (u, v), w in edges]}, edges
    return {"type": kind, "n": n, "edges": [{"members": m, "w": w} for m, w in edges]}, edges


@st.composite
def cut_instances(draw):
    """(instance object, its edges as (member ids, w) in file order): a graph
    or a hypergraph at n <= 10, with members listed in any order, zero
    weights, and hyperedges on {0, n-1} and on all n ids."""
    n = draw(st.integers(2, 10))
    weights = st.one_of(st.just(0.0), WEIGHTS)
    ids = st.lists(st.integers(0, n - 1), min_size=2, max_size=n, unique=True)
    if draw(st.booleans()):
        edges = draw(st.lists(st.tuples(ids.map(lambda m: m[:2]), weights), max_size=3 * n))
        edges.append(([n - 1, 0], draw(weights)))
        return cut_case("graph-cut", n, edges)
    edges = draw(st.lists(st.tuples(ids, weights), max_size=2 * n))
    for members in ([n - 1, 0], list(range(n))[::-1]):
        edges.insert(draw(st.integers(0, len(edges))), (members, draw(weights)))
    return cut_case("hypergraph-cut", n, edges)


@settings(max_examples=60)
@given(cut_instances())
# past n = H + 1 the table build adds weights to rows of 2^H entries of the
# half where id n-1 is out: edges with every member at or above id H, every
# member below it, and both; from n = H + 3 that half has two row ids, so
# an edge on n-1 may hold another high id, only low ids, or both
@example(
    cut_case(
        "hypergraph-cut",
        H + 3,
        [([H + 2, H + 1], 0.6), ([H + 2, 3], 1 / 3), ([0, H + 2, 7, 11], 2.5),
         ([H, H + 2], 1.25), ([H + 2, H, H + 1], 0.2), ([H + 1, 4, H + 2, H], 3.0),
         ([H, H + 1], 1e3), ([5, H + 1, 2], 0.7), ([1, 6], 0.1), ([H, 9], 0.0),
         (list(range(H + 3)), 0.9)],
    )
)
@example(
    cut_case(
        "graph-cut",
        H + 3,
        [([H + 2, H], 1.5), ([H + 1, H + 2], 0.3), ([0, H + 2], 1 / 7), ([H + 2, H - 1], 2.0),
         ([H, H + 1], 0.7), ([H + 1, 8], 0.0), ([2, 9], 1 / 3)],
    )
)
@example(
    cut_case(
        "graph-cut",
        H + 2,
        [([H + 1, H], 1.5), ([2, 9], 1 / 3), ([H, 4], 0.7), ([0, H + 1], 0.0), ([H - 1, 10], 2.0),
         ([H, H + 1], 1e3), ([5, 0], 0.1)],
    )
)
@example(
    cut_case(
        "hypergraph-cut",
        H + 2,
        [([H + 1, H], 0.1), ([0, 5, H - 1], 2.5), ([H + 1, 1, H, 7], 1 / 3),
         (list(range(H + 2))[::-1], 0.9), ([3, H + 1], 0.0), ([H, H + 1, 2], 7.0)],
    )
)
@example(
    cut_case(
        "hypergraph-cut",
        H + 1,
        [([H, 0], 0.3), ([1, 2, 3], 1.0), ([H, H - 1, 5], 1 / 7), (list(range(H + 1)), 2.0)],
    )
)
def test_table_equals_naive_cut_sums(case):
    # written apart from oracle.py: one shared fault in the table build and
    # the direct evaluation would pass the table/direct comparison above
    obj, edges = case
    n = obj["n"]
    expected = []
    for m in range(1 << n):
        total = 0.0
        for members, w in edges:
            inside = [m >> u & 1 for u in members]
            if any(inside) and not all(inside):
                total += w
        expected.append(total)
    table = parse_instance(obj).value_table()
    assert table.tobytes() == np.array(expected, dtype=np.float64).tobytes()


@settings(max_examples=20)
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


@settings(max_examples=200)
@given(solver_runs())
def test_solvers_agree_with_and_without_table(run):
    orc, call = run
    tabled = fresh(orc)
    tabled.value_table()
    assert outcome(call, tabled) == outcome(call, orc)
    assert orc._table is None


# -- feasibility tables and the brute-force witness ---------------------------

# dyadic weights add up exactly, so a load's value does not depend on the
# order in which a per-set check sums it
DYADIC = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0, 1.5])


@st.composite
def constraints(draw, n):
    """One constraint over n >= 1 elements, of any of the five kinds."""
    kind = draw(st.sampled_from(["cardinality", "uniform", "partition", "knapsack", "packing"]))
    if kind == "cardinality":
        return CardinalityConstraint(draw(st.integers(1, n + 1)))
    if kind == "uniform":
        return UniformMatroid(draw(st.integers(1, n)), n)
    if kind == "partition":
        ids = draw(st.permutations(range(n)))
        cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=3))) if n > 1 else []
        parts = [ids[a:b] for a, b in zip([0, *cuts], [*cuts, n])]
        return PartitionMatroid(parts, [draw(st.integers(0, len(p))) for p in parts])
    if kind == "knapsack":
        weights = draw(st.lists(DYADIC, min_size=n, max_size=n))
        return KnapsackConstraint(tuple(weights), draw(st.sampled_from([0.5, 1.0, 2.5])))
    m = draw(st.integers(1, 3))
    entries = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])
    A = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=m, max_size=m))
    b = draw(st.lists(st.sampled_from([1.0, 1.5, 2.0]), min_size=m, max_size=m))
    return PackingConstraint(np.array(A), np.array(b))


@st.composite
def constrained(draw, min_n=1, max_n=10):
    n = draw(st.integers(min_n, max_n))
    return n, draw(constraints(n))


# Non-dyadic weights round, so a load depends on the order of its additions.
# Each budget is the smallest of a drawn set's loads summed in ascending,
# descending and set-iteration order (and numpy's pairwise order for a
# packing), so that set sits on the boundary; ids past 8 reorder small sets,
# and numpy pairs up 8 or more members.
NON_DYADIC = st.sampled_from([0.1, 0.2, 0.3, 1 / 3, 0.6, 0.7, 0.9])


def rounded_loads(weights, S):
    members = sorted(S)
    loads = [np.sum(np.asarray(weights)[members])]
    for order in (members, members[::-1], S):
        load = 0.0
        for j in order:
            load += weights[j]
        loads.append(load)
    return loads


@st.composite
def boundary_constraints(draw):
    n = draw(st.integers(9, 10))
    S = draw(st.sets(st.integers(0, n - 1), min_size=4))
    if draw(st.booleans()):
        weights = draw(st.lists(NON_DYADIC, min_size=n, max_size=n))
        return n, KnapsackConstraint(tuple(weights), float(min(rounded_loads(weights, S))))
    rows = st.lists(NON_DYADIC, min_size=n, max_size=n)
    A = np.array(draw(st.lists(rows, min_size=1, max_size=2)))
    b = [max(1.0, min(rounded_loads(row, S))) for row in A]
    return n, PackingConstraint(A, np.array(b))


@settings(max_examples=200)
@given(st.one_of(constrained(), boundary_constraints()))
# the two disagreements first seen: the knapsack iterates {1, 3, 8, 9} as
# 8, 1, 3, 9, and the packing load was numpy's pairwise sum
@example((10, KnapsackConstraint((0, 0.7, 0, 0.6, 0, 0, 0, 0, 0.3, 0.2), 1.7999999999999998)))
@example(
    (
        10,
        PackingConstraint(
            np.array([[0.2, 1 / 3, 0.1, 0.3, 0.1, 0.7, 0.7, 0.7, 0.6, 0.7]]),
            np.array([3.633333333333333]),
        ),
    )
)
def test_feasible_mask_array_matches_is_feasible(case):
    n, c = case
    table = feasible_mask_array(c, n)
    assert table.shape == (1 << n,)
    for m in range(1 << n):
        assert table[m] == c.is_feasible(_set_of(m))


@st.composite
def boundary_knapsack_runs(draw):
    """(oracle, knapsack, epsilon): a non-dyadic knapsack whose budget is a
    drawn set's ascending-id load, or one ulp below it."""
    orc = draw(oracles(min_n=3, max_n=9))
    weights = draw(st.lists(NON_DYADIC, min_size=orc.n, max_size=orc.n))
    S = draw(st.sets(st.integers(0, orc.n - 1), min_size=2))
    budget = KnapsackConstraint(tuple(weights), 1.0).load(S)
    if draw(st.booleans()):
        budget = math.nextafter(budget, 0.0)
    return orc, KnapsackConstraint(tuple(weights), budget), draw(st.sampled_from([0.2, 0.3, 0.5]))


@settings(max_examples=150)
@given(boundary_knapsack_runs())
# the run adds 4, 2, 0, 6, 7, and {0, 2, 4, 6} is already over the budget
@example(
    (
        graph_cut_oracle(random_graph(9, 0.5, (0.0, 2.0), seed=1)),
        KnapsackConstraint((0.3, 0.15, 0.2, 0.3, 0.15, 0.2, 0.15, 0.35, 0.7), 0.7999999999999999),
        0.3,
    )
)
def test_mw_packing_output_fits_the_knapsack(run):
    orc, knap, eps = run
    assert knap.is_feasible(mw_packing(orc, knap, eps).final_set)


@st.composite
def boundary_budget(draw, weights, floor=0.0):
    """The smallest rounded load of a drawn set of at least two members, or
    one ulp below it, and at least `floor`."""
    S = draw(st.sets(st.integers(0, len(weights) - 1), min_size=2))
    budget = min(rounded_loads(weights, S))
    if draw(st.booleans()):
        budget = math.nextafter(budget, 0.0)
    return max(floor, float(budget))


@st.composite
def cli_solves(draw):
    """(oracle, constraint, algorithm, epsilon) for every solver the CLI
    runs; knapsack and packing budgets sit on a rounded non-dyadic load."""
    orc = draw(oracles(min_n=3, max_n=8))
    n = orc.n
    algorithm = draw(st.sampled_from(sorted(SOLVERS)))
    kind = {
        "greedy-card": "cardinality",
        "sample-greedy-card": "cardinality",
        "greedy-matroid": draw(st.sampled_from(["uniform", "partition"])),
        "mw-packing": draw(st.sampled_from(["knapsack", "packing"])),
        "knapsack-enum": "knapsack",
    }[algorithm]
    k = draw(st.integers(1, n))
    if kind == "cardinality":
        c = CardinalityConstraint(k)
    elif kind == "uniform":
        c = UniformMatroid(k, n)
    elif kind == "partition":
        c = PartitionMatroid([range(n // 2), range(n // 2, n)], [1, 2])
    elif kind == "knapsack":
        weights = draw(st.lists(NON_DYADIC, min_size=n, max_size=n))
        c = KnapsackConstraint(tuple(weights), draw(boundary_budget(weights)))
    else:
        rows = draw(st.lists(st.lists(NON_DYADIC, min_size=n, max_size=n), min_size=1, max_size=3))
        c = PackingConstraint(np.array(rows), np.array([draw(boundary_budget(r, 1.0)) for r in rows]))
    return orc, c, algorithm, draw(st.sampled_from([0.2, 0.3, 0.5]))


@settings(max_examples=150)
@given(cli_solves())
def test_every_solver_output_fits_the_loaded_constraint(run):
    orc, c, algorithm, eps = run
    with tempfile.TemporaryDirectory() as tmp:
        inst, cons, out = (os.path.join(tmp, f) for f in ("i.json", "c.json", "r.json"))
        save_instance(orc, inst)
        with open(cons, "w", encoding="utf-8") as fh:
            json.dump(constraint_to_dict(c), fh)
        argv = ["solve", "--instance", inst, "--constraint", cons, "--algorithm", algorithm]
        rc = cli.main(argv + ["--epsilon", repr(eps), "--out", out])
        with open(out, encoding="utf-8") as fh:
            report = json.load(fh)
        loaded = load_constraint(cons, n=orc.n)
    assert rc == 0 and report["feasible"]
    assert loaded.is_feasible(report["final_set"])


@settings(max_examples=150)
@given(st.one_of(constrained(max_n=9), boundary_constraints()), st.integers(0, 2**16))
def test_brute_force_witness_is_feasible(case, seed):
    n, c = case
    orc = graph_cut_oracle(random_graph(n, 0.5, (0.0, 2.0), seed=seed))
    assert c.is_feasible(brute_force_opt(orc, c).witness)


@settings(max_examples=100)
@given(
    st.integers(2, 12),
    st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=12, max_size=12),
    st.floats(min_value=1.0, max_value=50.0),
    st.integers(0, 2**16),
)
def test_one_row_denominators_equal_the_dot_product(n, row, b, seed):
    # with one row, the ascending-row rule is numpy's dot bit for bit: the
    # replay below is the one mw_packing's trace was pinned to before
    orc = graph_cut_oracle(random_graph(n, 0.6, (0.1, 2.0), seed=seed))
    p = PackingConstraint(np.array([row[:n]]), np.array([b]))
    t = mw_packing(orc, p, 0.3)
    lam = t.params["lambda"]
    w = 1.0 / p.b
    for r in t.rounds:
        assert r.extras["beta"] == float(p.b @ w)
        if r.selected is not None:
            assert r.extras["denominator"] == float(p.A[:, r.selected] @ w)
            w = w * lam ** (p.A[:, r.selected] / p.b)


@settings(max_examples=300)
@given(
    st.integers(1, 4).flatmap(
        lambda m: st.tuples(
            st.lists(
                st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=6, max_size=6),
                min_size=m,
                max_size=m,
            ),
            st.lists(st.floats(min_value=1.0, max_value=1e6), min_size=m, max_size=m),
        )
    )
)
# subnormal entries overflow b / A to inf, in both forms
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_width_equals_the_entrywise_minimum(Ab):
    A, b = np.array(Ab[0]), np.array(Ab[1])
    p = PackingConstraint(A, b)
    pos = A > 0
    if not pos.any():
        with pytest.raises(UndefinedWidthError):
            p.width()
        return
    # the definition, one ratio per positive entry
    entrywise = np.where(pos, b[:, None] / np.where(pos, A, 1.0), np.inf).min()
    assert p.width() == float(entrywise)


@st.composite
def tie_heavy_runs(draw):
    """(oracle, constraint) on which many feasible sets share the optimum:
    edgeless graphs, or graphs with small integer weights."""
    orc = draw(
        st.one_of(
            graphs(max_n=10, max_edges=0),
            graphs(max_n=10, weights=st.integers(0, 2).map(float)),
        )
    )
    return orc, draw(constraints(orc.n))


@settings(max_examples=60)
@given(tie_heavy_runs())
def test_witness_is_the_smallest_tied_set(run):
    orc, c = run
    sets = [_set_of(m) for m in range(1 << orc.n)]
    values = {S: orc.eval_uncounted(S) for S in sets if c.is_feasible(S)}
    opt = max(values.values())
    res = brute_force_opt(orc, c)
    assert res.opt_value == opt
    assert res.witness == min(S for S, v in values.items() if v == opt)
    assert res.sets_enumerated == len(values)


# -- exhaustive validation ----------------------------------------------------


@st.composite
def perturbed_tables(draw):
    """A cut function's table with a random share of entries shifted, some
    by less than the tolerance, so that violations of every kind appear and
    the per-kind caps are reached."""
    orc = draw(oracles(min_n=2, max_n=7))
    vals = orc.value_table().copy()
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    hit = rng.random(len(vals)) < draw(st.sampled_from([1.0, 0.3, 0.05, 0.0]))
    shifts = draw(st.sets(st.sampled_from([-1e4, -2.0, -EQ_TOL / 2, EQ_TOL / 2, 3.0]), min_size=1))
    vals[hit] += rng.choice(sorted(shifts), hit.sum())
    return table_oracle(orc.n, vals.tolist())


@st.composite
def scaled_tables(draw):
    """A cut function's table times 1e6, 1e12 or 1e300, with a share of
    entries shifted by +-tol/2, +-1.5 tol or a few ulps of the scale, so
    that rounding at every magnitude meets the tolerance."""
    orc = draw(oracles(min_n=2, max_n=7))
    scale = draw(st.sampled_from([1e6, 1e12, 1e300]))
    vals = orc.value_table() * scale
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    hit = rng.random(len(vals)) < draw(st.sampled_from([1.0, 0.3, 0.05]))
    ulp = np.spacing(scale)
    shifts = [sign * d for sign in (-1, 1) for d in (EQ_TOL / 2, 1.5 * EQ_TOL, ulp, 3 * ulp)]
    vals[hit] += rng.choice(shifts, hit.sum())
    return table_oracle(orc.n, vals.tolist())


def naive_report(vals, n, tol=EQ_TOL):
    """validate()'s exhaustive report, one set and one (S, u, v) at a time."""
    full = (1 << n) - 1
    members = [tuple(i for i in range(n) if m >> i & 1) for m in range(1 << n)]
    negative = [
        {"kind": "non-negativity", "S": members[m], "value": vals[m]}
        for m in range(1 << n)
        if vals[m] < -tol
    ]
    asymmetric = [
        {"kind": "symmetry", "S": members[m], "value": vals[m], "complement_value": vals[full ^ m]}
        for m in range(1 << n)
        if abs(vals[m] - vals[full ^ m]) > tol
    ]
    violations = negative[:50] + asymmetric[:50]
    checks = 2 << n
    for u in range(n):
        for v in range(u + 1, n):
            found = []
            for m in range(1 << n):
                if m >> u & 1 or m >> v & 1:
                    continue
                checks += 1
                lhs = vals[m | 1 << u] + vals[m | 1 << v]
                rhs = vals[m | 1 << u | 1 << v] + vals[m]
                if lhs < rhs - tol:
                    found.append(
                        {"kind": "submodularity", "S": members[m], "u": u, "v": v,
                         "deficit": rhs - lhs}
                    )
            violations += found[:5]
    return {"valid": not violations, "mode": "exhaustive", "checks": checks,
            "violations": violations}


@settings(max_examples=300)
@given(st.one_of(perturbed_tables(), scaled_tables()))
# entries past 2^1021, where a sum can overflow
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@example(table_oracle(2, [1.7e308, -1.7e308, 1e308, 1.7e308]))
@example(table_oracle(3, [0.0, 1.7e308, 1.7e308, -9e307, 9e307, 1.0, -1.7e308, 0.0]))
def test_validate_matches_naive_report(orc):
    assert validate(orc).to_dict() == naive_report(orc._payload, orc.n)


# -- memory of the 2^n passes -------------------------------------------------

N_MEM = 18
TABLE_BYTES = 8 << N_MEM  # one float64 per subset


def traced_peak(fn):
    """Peak bytes that fn allocates on top of what is live when it starts."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()


def mem_oracle(kind):
    if kind == "graph":
        return graph_cut_oracle(random_graph(N_MEM, 0.3, (0.0, 2.0), seed=1))
    return hypergraph_cut_oracle(random_hypergraph(N_MEM, 40, 5, (0.0, 2.0), seed=1))


@pytest.mark.parametrize("kind", ["graph", "hypergraph"])
def test_value_table_peak_memory(kind):
    orc = mem_oracle(kind)
    assert traced_peak(orc.value_table) <= 1.25 * TABLE_BYTES


@pytest.mark.parametrize("kind", ["graph", "hypergraph"])
def test_exhaustive_validate_peak_memory(kind):
    orc = mem_oracle(kind)
    orc.value_table()
    assert traced_peak(lambda: validate(orc)) <= 1.25 * TABLE_BYTES


@pytest.mark.parametrize(
    "constraint",
    [
        CardinalityConstraint(5),
        KnapsackConstraint(tuple(float(1 + j % 3) for j in range(N_MEM)), 6.0),
    ],
    ids=["cardinality", "knapsack"],
)
def test_brute_force_peak_memory(constraint):
    orc = mem_oracle("graph")
    assert traced_peak(lambda: brute_force_opt(orc, constraint)) <= 2.5 * TABLE_BYTES
