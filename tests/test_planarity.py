import random

import networkx as nx
import pytest
from hypothesis import given
import hypothesis.strategies as st

from chromarel import Graph, is_planar
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
    # the K5 lies outside the component of the lowest vertex, so the test
    # must hand it on rather than stop at the planar triangle
    triangle_beside_k5 = Graph.from_edges(
        8, [(0, 1), (1, 2), (0, 2)] + [(u, v) for u in range(3, 8) for v in range(u + 1, 8)]
    )
    assert not is_planar(triangle_beside_k5)


@given(graphs(max_n=9))
def test_agrees_with_networkx(g):
    assert is_planar(g) == _nx_planar(g)


@given(graphs(min_n=2, max_n=8), st.data())
def test_subdivision_preserves_planarity(g, data):
    if g.m == 0:
        return
    u, v = data.draw(st.sampled_from(g.edges()))
    # the path u-w-v replaces uv, with w appended at id n
    h = Graph.from_edges(g.n + 1, [*(e for e in g.edges() if e != (u, v)), (u, g.n), (v, g.n)])
    assert is_planar(h) == is_planar(g)


def test_deep_graphs_are_decided():
    # path addition keeps its own stack, so graphs that a recursive
    # depth-first search could not reach are decided
    for g in (path_graph(1500), cycle_graph(1200), wheel_graph(995)):
        assert is_planar(g)
    # K3,3 with each edge a path of 167 edges: 1 500 vertices
    hubs, inner = [(a, b) for a in range(3) for b in range(3, 6)], 166
    edges = []
    for i, (a, b) in enumerate(hubs):
        path = [a] + [6 + i * inner + j for j in range(inner)] + [b]
        edges += zip(path, path[1:])
    g = Graph.from_edges(6 + 9 * inner, edges)
    assert g.n == 1500
    assert not is_planar(g)


def test_graph_atlas_matches_networkx():
    # every graph on at most seven vertices, up to isomorphism
    for h in nx.graph_atlas_g():
        g = Graph.from_edges(h.number_of_nodes(), h.edges())
        assert is_planar(g) == _nx_planar(g), g.edges()


def _triangulation(n, rng):
    """A seeded maximal planar graph on n >= 3 vertices, as its faces:
    half[x, y] = z when the face whose counterclockwise side runs from x to
    y is xyz. Vertices are stacked into random faces, then random edges are
    flipped."""
    half = {}

    def face(a, b, c, put=True):
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            if put:
                half[x, y] = z
            else:
                del half[x, y]

    face(0, 1, 2)
    face(0, 2, 1)
    for v in range(3, n):
        a, b = rng.choice(list(half))
        c = half[a, b]
        face(a, b, c, put=False)
        face(a, b, v)
        face(b, c, v)
        face(c, a, v)
    for _ in range(2 * n):
        # ab is the diagonal of the quadrilateral adbc; flip it to cd
        a, b = rng.choice(list(half))
        c, d = half[a, b], half[b, a]
        if (c, d) in half:
            continue
        face(a, b, c, put=False)
        face(b, a, d, put=False)
        face(a, d, c)
        face(d, b, c)
    return half


def test_triangulations_with_a_chord_match_networkx():
    # some edges go and one chord comes, so m <= 3n-6 and the edge bound
    # decides nothing; half the chords are the other diagonal of a removed
    # edge, which keeps the graph planar, half are random missing pairs
    rng = random.Random(11)
    verdicts = []
    for i in range(60):
        n = rng.randint(20, 80)
        half = _triangulation(n, rng)
        edges = sorted({(min(e), max(e)) for e in half})
        assert len(edges) == 3 * n - 6 and _nx_planar(Graph.from_edges(n, edges))
        rng.shuffle(edges)
        kept = set(edges[rng.randint(1, n // 4) :])
        a, b = edges[0]
        chord = tuple(sorted((half[a, b], half[b, a])))
        if i % 2 or chord in kept:
            chord = rng.choice(
                [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in kept]
            )
        g = Graph.from_edges(n, sorted(kept | {chord}))
        assert g.m <= 3 * n - 6
        verdicts.append(is_planar(g))
        assert verdicts[-1] == _nx_planar(g), (n, g.edges())
    assert 0 < sum(verdicts) < len(verdicts)
