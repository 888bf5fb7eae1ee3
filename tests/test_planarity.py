import random

import networkx as nx
import pytest
from hypothesis import given
import hypothesis.strategies as st

from chromarel import Graph, is_planar, subdivide_edge
from chromarel.families import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    enumerate_graphs,
    gnp,
    grotzsch,
    moser_spindle,
    path_graph,
    petersen,
    wheel_graph,
)

from conftest import graphs


def _nx_planar(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return nx.check_planarity(h, counterexample=False)[0]


@pytest.mark.parametrize(
    "g, expected",
    [
        (complete_graph(1), True),
        (complete_graph(4), True),
        (complete_graph(5), False),
        (complete_bipartite(3, 3), False),
        (complete_bipartite(2, 3), True),
        (petersen(), False),
        (moser_spindle(), True),
        (grotzsch(), False),
        (wheel_graph(6), True),
        (path_graph(9), True),
        (cycle_graph(8), True),
        (Graph.from_edges(0, []), True),
    ],
)
def test_known_graphs(g, expected):
    assert is_planar(g) == expected


def test_k6_and_dense_graphs():
    assert not is_planar(complete_graph(6))
    # edge count bound kicks in before any embedding work
    n = 9
    g = complete_graph(n)
    assert g.m > 3 * n - 6
    assert not is_planar(g)


def test_exhaustive_small_graphs_match_networkx():
    for n in range(1, 6):
        for g in enumerate_graphs(n, connected_only=False):
            assert is_planar(g) == _nx_planar(g), g.edges()


def test_random_graphs_match_networkx():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(5, 10)
        g = gnp(n, rng.random(), rng.randrange(10**6))
        assert is_planar(g) == _nx_planar(g), (g.n, g.edges())


def test_disconnected_graphs():
    # planarity is per component
    two_k4 = Graph.from_edges(
        8,
        [(u, v) for u in range(4) for v in range(u + 1, 4)]
        + [(u + 4, v + 4) for u in range(4) for v in range(u + 1, 4)],
    )
    assert is_planar(two_k4)
    k5_plus_isolated = Graph.from_edges(
        6, [(u, v) for u in range(5) for v in range(u + 1, 5)]
    )
    assert not is_planar(k5_plus_isolated)


@given(graphs(max_n=9))
def test_agrees_with_networkx(g):
    assert is_planar(g) == _nx_planar(g)


@given(graphs(min_n=2, max_n=8), st.data())
def test_subdivision_preserves_planarity(g, data):
    if g.m == 0:
        return
    u, v = data.draw(st.sampled_from(g.edges()))
    assert is_planar(subdivide_edge(g, u, v)) == is_planar(g)


def test_too_deep_search_is_a_value_error():
    # one recursion level per tree edge: past Python's limit the test
    # reports the graph's size instead of a RecursionError
    for g in (path_graph(1500), cycle_graph(1200), wheel_graph(995)):
        with pytest.raises(ValueError, match=f"{g.n} vertices is too deep"):
            is_planar(g)
    assert is_planar(cycle_graph(300))
