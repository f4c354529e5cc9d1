import dataclasses
import json
import math
import threading
import warnings

import numpy as np
import pytest

from symsubmax import (
    graph_cut_oracle,
    hypergraph_cut_oracle,
    parse_instance,
    random_graph,
    random_hypergraph,
    table_oracle,
    validate,
)
from symsubmax.oracle import (
    InvalidSetError,
    MalformedInstanceError,
    OracleError,
    WeightedGraph,
    instance_to_dict,
    load_instance,
    save_instance,
)

from conftest import bundled_oracles


def test_eval_k3_examples(k3):
    assert k3.eval({0}) == 2.0
    assert k3.eval(set()) == 0.0
    assert k3.eval({0, 1, 2}) == 0.0


def test_eval_hypergraph_cut_membership(hyper):
    assert hyper.eval({0}) == 5.0
    assert hyper.eval({0, 1}) == 5.0
    assert hyper.eval({0, 1, 2}) == 0.0
    assert hyper.eval({3}) == 0.0


def test_eval_rejects_out_of_range(k3):
    with pytest.raises(InvalidSetError):
        k3.eval({3})


@pytest.mark.parametrize(
    "bad",
    [1.7, 0.9, 1.0, np.float64(1.0), True, np.True_, "1", None],
    ids=["1.7", "0.9", "1.0", "np.float64", "True", "np.True_", "str", "None"],
)
def test_set_arguments_must_be_integer_ids(k3, bad):
    # a float used to be truncated to the id below it, and True read as 1
    with pytest.raises(InvalidSetError):
        k3.eval({bad})
    with pytest.raises(InvalidSetError):
        k3.eval_uncounted([0, bad])
    with pytest.raises(InvalidSetError):
        k3.marginal(bad, set(), 0.0)
    with pytest.raises(InvalidSetError):
        k3.marginal(2, {bad}, 0.0)
    assert k3.query_count == 0


@pytest.mark.parametrize(
    "bad", [-1, 3, 2**70, np.int64(3), np.int64(-1)], ids=["-1", "3", "2^70", "np.3", "np.-1"]
)
def test_ids_outside_the_ground_set_are_rejected(k3, bad):
    with pytest.raises(InvalidSetError):
        k3.eval({bad})
    with pytest.raises(InvalidSetError):
        k3.eval_uncounted([0, bad])
    with pytest.raises(InvalidSetError):
        k3.marginal(bad, set(), 0.0)
    with pytest.raises(InvalidSetError):
        k3.marginals([0, bad], set(), 0.0)
    assert k3.query_count == 0


def test_numpy_integer_ids_pass(k3):
    assert k3.eval(np.array([0, 2])) == k3.eval({0, 2})
    assert k3.marginal(np.int64(1), {np.uint8(0)}, 2.0) == k3.marginal(1, {0}, 2.0)


def test_table_length_must_be_power(k3):
    with pytest.raises(MalformedInstanceError):
        table_oracle(2, [0, 5, 5])


def test_table_index_rule():
    # index of S is sum(2^i for i in S)
    orc = table_oracle(2, [0.0, 5.0, 7.0, 0.0])
    assert orc.eval({0}) == 5.0
    assert orc.eval({1}) == 7.0


def test_marginal_examples(k3):
    fS = k3.eval({0})
    assert k3.marginal(1, {0}, fS) == 0.0  # f({0,1}) = 2
    assert k3.marginal(0, set(), 0.0) == 2.0


def test_marginal_requires_u_outside(k3):
    with pytest.raises(InvalidSetError):
        k3.marginal(0, {0}, 2.0)


def _marginals_cases():
    """(oracle, S) on graph, hypergraph and table oracles, with and
    without a built table, and on a graph whose masks pass 64 bits."""
    g = graph_cut_oracle(random_graph(12, 0.5, (0.1, 2.0), seed=4))
    h = hypergraph_cut_oracle(random_hypergraph(11, 15, 4, (0.1, 1.0), seed=5))
    tabled = graph_cut_oracle(random_graph(12, 0.5, (0.1, 2.0), seed=4))
    tabled.value_table()
    t = table_oracle(6, graph_cut_oracle(random_graph(6, 0.7, (0.3, 1.7), seed=6)).value_table())
    big = graph_cut_oracle(random_graph(80, 0.1, (0.1, 1.0), seed=7))
    return [
        pytest.param(g, {1, 4, 7}, id="graph"),
        pytest.param(h, {0, 5, 9, 10}, id="hypergraph"),
        pytest.param(tabled, {2, 3}, id="graph-tabled"),
        pytest.param(t, {0, 5}, id="table"),
        pytest.param(big, {3, 40, 66, 79}, id="graph-n80"),
    ]


@pytest.mark.parametrize("orc, S", _marginals_cases())
def test_marginals_equal_marginal_bit_for_bit(orc, S):
    fS = orc.eval(S)
    cands = [u for u in range(orc.n) if u not in S]
    one_by_one = [orc.marginal(u, S, fS) for u in cands]
    before = orc.query_count
    batched = orc.marginals(cands, S, fS)
    assert orc.query_count - before == len(cands)
    assert [float(v).hex() for v in batched] == [float(v).hex() for v in one_by_one]
    assert orc.marginals([], S, fS) == [] and orc.query_count - before == len(cands)


def test_marginals_reject_bad_arguments_without_counting(k3):
    for cands, S in (([2, 5], {0}), ([2, True], {0}), ([1, 2], {0, 1}), ([2], {0, 1.0})):
        with pytest.raises(InvalidSetError):
            k3.marginals(cands, S, 2.0)
    assert k3.query_count == 0


def test_query_counter(k3):
    assert k3.query_count == 0
    k3.eval({0})
    k3.eval({1})
    k3.marginal(2, {0}, 2.0)
    assert k3.query_count == 3
    k3.reset_queries()
    assert k3.query_count == 0
    # uncounted paths leave the counter alone
    k3.eval_uncounted({0})
    k3.value_table()
    assert k3.query_count == 0


def test_validate_valid_table():
    rep = validate(table_oracle(2, [0, 5, 5, 0]))
    assert rep.valid
    assert rep.violations == []


def test_validate_symmetry_violation():
    rep = validate(table_oracle(2, [0, 5, 4, 0]))
    assert not rep.valid
    kinds = {v["kind"] for v in rep.violations}
    assert "symmetry" in kinds
    sym = [v for v in rep.violations if v["kind"] == "symmetry"]
    assert any(tuple(v["S"]) in {(0,), (1,)} for v in sym)


def test_validate_submodularity_violation():
    # f({0,1}) too large relative to the singletons
    rep = validate(table_oracle(2, [0, 1, 1, 5]))
    assert not rep.valid
    assert any(v["kind"] == "submodularity" for v in rep.violations)


def test_exhaustive_validation_near_the_float_limit():
    """The re-test adds two values of up to the largest float; at half scale
    the sums stay finite and numpy warns of no overflow."""
    big = 5.9e307  # each cut of K3 is 1.18e308; two of them overflow a float
    k3_big = graph_cut_oracle(WeightedGraph(3, ((0, 1, big), (1, 2, big), (0, 2, big))))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert validate(k3_big).valid
        # f(S+u) + f(S+v) = 0 < f(S+u+v) + f(S) = 3.4e308, past the largest float
        rep = validate(table_oracle(2, [1.7e308, 0, 0, 1.7e308]))
    assert not rep.valid
    assert [v["kind"] for v in rep.violations] == ["submodularity"]


def test_validate_sampled_mode(k3):
    rep = validate(k3, mode="sampled", trials=300, seed=5)
    assert rep.valid
    # one table per sampled check that it fails
    for values, kind in (
        ([0, -1, -1, 0], "non-negativity"),
        ([0, 5, 4, 0], "symmetry"),
        ([0, 1, 1, 5], "diminishing-returns"),
    ):
        rep = validate(table_oracle(2, values), mode="sampled", trials=50, seed=5)
        assert not rep.valid
        assert kind in {v["kind"] for v in rep.violations}
    for trials in (0, -5):  # no check would run, yet the report would read valid
        with pytest.raises(OracleError):
            validate(k3, mode="sampled", trials=trials)
    # a misspelt mode is an error, not a sampled run
    with pytest.raises(OracleError, match="unknown validation mode"):
        validate(k3, mode="exhastive")


@pytest.mark.parametrize("name,orc", sorted(bundled_oracles().items()))
def test_bundled_oracles_symmetric_exhaustive(name, orc):
    vals = orc.value_table()
    full = (1 << orc.n) - 1
    comp = vals[full ^ np.arange(len(vals))]
    assert np.allclose(vals, comp, atol=1e-9)


@pytest.mark.parametrize("name,orc", sorted(bundled_oracles().items()))
def test_bundled_oracles_validate(name, orc):
    rep = validate(orc)
    assert rep.valid, rep.violations


def test_diminishing_returns_exhaustive():
    # direct f(u|S) >= f(u|T) for all S subset of T, u outside T (n = 10)
    orc = bundled_oracles()["random-graph-10"]
    vals = orc.value_table()
    n = orc.n
    for tmask in range(1 << n):
        smask = tmask
        while True:  # all submasks of tmask
            for u in range(n):
                bit = 1 << u
                if tmask & bit:
                    continue
                gS = vals[smask | bit] - vals[smask]
                gT = vals[tmask | bit] - vals[tmask]
                assert gS >= gT - 1e-9
            if smask == 0:
                break
            smask = (smask - 1) & tmask


def test_graph_cut_matches_independent_recount():
    import random

    rng = random.Random(99)
    for _ in range(1000):
        n = rng.randint(2, 12)
        g = random_graph(n, rng.random(), (0.0, 3.0), seed=rng.randint(0, 10**6))
        orc = graph_cut_oracle(g)
        S = {u for u in range(n) if rng.random() < 0.5}
        recount = sum(w for u, v, w in g.edges if (u in S) != (v in S))
        assert math.isclose(orc.eval_uncounted(S), recount, abs_tol=1e-9)


def test_instance_parsing_round_trip(k3, tmp_path):
    obj = {
        "type": "graph-cut",
        "n": 3,
        "edges": [[0, 1, 1.0], [1, 2, 1.0], [0, 2, 1.0]],
    }
    orc = parse_instance(obj)
    assert orc.eval_uncounted({0}) == 2.0
    hyper = parse_instance(
        {"type": "hypergraph-cut", "n": 4, "edges": [{"members": [0, 1, 2], "w": 5.0}]}
    )
    assert hyper.eval_uncounted({0}) == 5.0
    tab = parse_instance({"type": "table", "n": 2, "values": [0, 5, 5, 0]})
    assert tab.eval_uncounted({1}) == 5.0
    path = tmp_path / "instance.json"
    for o in (orc, hyper, tab):
        save_instance(o, path)
        assert instance_to_dict(load_instance(path)) == instance_to_dict(o)


def test_parse_rejects_bad_instances():
    with pytest.raises(MalformedInstanceError):
        parse_instance({"type": "table", "n": 2, "values": [0, 5, 5]})
    with pytest.raises(MalformedInstanceError):
        parse_instance({"type": "nope", "n": 1})
    with pytest.raises(MalformedInstanceError):
        WeightedGraph(2, ((0, 0, 1.0),))
    with pytest.raises(MalformedInstanceError):
        WeightedGraph(2, ((0, 1, -1.0),))
    for bad in (
        # hyperedges are spelled {"members", "w"}; other spellings are shape errors
        {"type": "hypergraph-cut", "n": 3, "edges": [{"vertices": [0, 1], "weight": 1.0}]},
        {"type": "hypergraph-cut", "n": 3, "edges": [[0, 1]]},
        {"type": "graph-cut", "n": 2, "edges": [[0, 1]]},  # edge without a weight
        {"type": "graph-cut", "n": 2, "edges": [[0, 1, math.nan]]},
        {"type": "graph-cut", "n": 2, "edges": [[0, 1, math.inf]]},
        {"type": "hypergraph-cut", "n": 3, "edges": [{"members": [0, 1], "w": math.nan}]},
        {"type": "table", "n": 1, "values": [0.0, math.inf]},
        {"type": "table", "n": 1, "values": [math.nan, 0.0]},
        # ids and sizes must be whole numbers, not truncated floats or booleans
        {"type": "graph-cut", "n": 2, "edges": [[0.5, 1, 1.0]]},
        {"type": "graph-cut", "n": 2, "edges": [[True, 0, 1.0]]},
        {"type": "graph-cut", "n": 2.5, "edges": []},
        {"type": "graph-cut", "n": True, "edges": []},
        {"type": "hypergraph-cut", "n": 3, "edges": [{"members": [0, 1.5], "w": 1.0}]},
        # weights and values must be numbers, not booleans or numeric strings
        {"type": "graph-cut", "n": 2, "edges": [[0, 1, True]]},
        {"type": "graph-cut", "n": 2, "edges": [[0, 1, "1.5"]]},
        {"type": "hypergraph-cut", "n": 3, "edges": [{"members": [0, 1], "w": True}]},
        {"type": "hypergraph-cut", "n": 3, "edges": [{"members": [0, 1], "w": "2"}]},
        {"type": "table", "n": 1, "values": ["0", 1.0]},
        {"type": "table", "n": 1, "values": [0.0, True]},
        # 2^n entries for an n too large to shift by
        {"type": "table", "n": 1e300, "values": [0.0]},
        # finite weights whose total is not
        {"type": "graph-cut", "n": 3, "edges": [[0, 1, 1e308], [1, 2, 1e308], [0, 2, 1e308]]},
        {
            "type": "hypergraph-cut",
            "n": 3,
            "edges": [{"members": [0, 1], "w": 1e308}, {"members": [0, 1, 2], "w": 1e308}],
        },
    ):
        with pytest.raises(MalformedInstanceError):
            parse_instance(bad)


def test_concurrent_counting():
    orc = graph_cut_oracle(random_graph(8, 0.5, (0.0, 1.0), seed=1))

    def hammer():
        for _ in range(500):
            orc.eval({0, 3})

    threads = [threading.Thread(target=hammer) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert orc.query_count == 2000


def test_concurrent_batched_counting():
    orc = graph_cut_oracle(random_graph(8, 0.5, (0.0, 1.0), seed=1))
    fS = orc.eval_uncounted({0, 3})

    def hammer():
        for _ in range(500):
            orc.marginals([1, 2, 5], {0, 3}, fS)

    threads = [threading.Thread(target=hammer) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert orc.query_count == 6000


def test_validation_report_dict_equals_asdict():
    valid = validate(table_oracle(2, [0, 5, 5, 0]))
    broken = validate(table_oracle(3, [0, 1, 1, 5, 2, 0, 3, -1]))
    sampled = validate(table_oracle(2, [0, 5, 4, 0]), mode="sampled", trials=50, seed=5)
    assert not broken.valid and not sampled.valid
    for rep in (valid, broken, sampled):
        d = rep.to_dict()
        assert d == dataclasses.asdict(rep)
        assert json.dumps(d) == json.dumps(dataclasses.asdict(rep))
