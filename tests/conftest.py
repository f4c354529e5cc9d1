import pytest

try:
    from hypothesis import settings
except ImportError:  # only tests/test_properties.py needs hypothesis
    pass
else:
    # the same examples on every run and machine; no wall-clock deadline
    settings.register_profile("deterministic", derandomize=True, deadline=None)
    settings.load_profile("deterministic")

from symsubmax import (
    WeightedGraph,
    WeightedHypergraph,
    graph_cut_oracle,
    hypergraph_cut_oracle,
    random_graph,
    random_hypergraph,
    table_oracle,
)

K3 = WeightedGraph(3, ((0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)))
C4 = WeightedGraph(4, ((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)))
STAR = WeightedGraph(3, ((0, 1, 10.0), (0, 2, 10.0), (1, 2, 1.0)))
ONE_HYPEREDGE = WeightedHypergraph(4, ((frozenset({0, 1, 2}), 5.0),))


@pytest.fixture
def k3():
    return graph_cut_oracle(K3)


@pytest.fixture
def c4():
    return graph_cut_oracle(C4)


@pytest.fixture
def star():
    return graph_cut_oracle(STAR)


@pytest.fixture
def hyper():
    return hypergraph_cut_oracle(ONE_HYPEREDGE)


def bundled_oracles():
    """Small instances (n <= 12) reused by exhaustive property suites."""
    rg = random_graph(10, 0.5, (0.0, 2.0), seed=11)
    table_src = graph_cut_oracle(random_graph(6, 0.7, (0.5, 1.5), seed=3))
    return {
        "k3": graph_cut_oracle(K3),
        "c4": graph_cut_oracle(C4),
        "one-hyperedge": hypergraph_cut_oracle(ONE_HYPEREDGE),
        "random-graph-10": graph_cut_oracle(rg),
        "random-hypergraph-9": hypergraph_cut_oracle(
            random_hypergraph(9, 12, 4, (0.0, 1.0), seed=7)
        ),
        "table-6": table_oracle(6, table_src.value_table().tolist()),
    }
