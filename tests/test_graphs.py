import itertools
import pickle
import random

import networkx as nx
import pytest
from hypothesis import given
import hypothesis.strategies as st

from chromarel import Graph, bipartition, is_connected
from chromarel.graphs import (
    _bits,
    _component_of,
    _free_of,
    _keep_rows,
    _maximal_sets,
    _merge_rows,
    _reach,
    _toggle_rows,
)
from chromarel.families import cycle_graph, path_graph, complete_graph, enumerate_graphs, gnp

from conftest import graphs

import oracles


def _remove(g, drop):
    # g minus the vertex set drop through the induced-subgraph kernel, and
    # where each survivor goes: the count of kept vertices below it. The
    # validating constructor checks the rows are symmetric, loop-free and
    # in range.
    keep = ((1 << g.n) - 1) & ~sum(1 << x for x in set(drop))
    h = Graph(_keep_rows(g.rows, keep))
    return h, {x: (keep & ((1 << x) - 1)).bit_count() for x in _bits(keep)}


def test_from_edges_basic():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert g.n == 4
    assert g.m == 3
    assert g.edges() == [(0, 1), (1, 2), (2, 3)]
    assert g.has_edge(1, 0)
    assert not g.has_edge(0, 2)
    assert list(_bits(g.rows[1])) == [0, 2]
    assert g.rows[0].bit_count() == 1


def test_from_edges_rejects_bad_input():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph.from_edges(-1, [])


@pytest.mark.parametrize(
    "n, rows, message",
    [
        (1, [0b10], "row 0 references vertices outside 0..0"),
        (3, [0b10, 0b101, 0], "edge 1-2 lacks its mirror entry"),
        (2, [0b100, 0], "row 0 references vertices outside 0..1"),
        (2, [-1, 0], "row 0 references vertices outside 0..1"),
        (2, [0b1, 0], "loop at vertex 0"),
        (2, [0b10, 0], "edge 0-1 lacks its mirror entry"),
    ],
)
def test_the_validating_constructor_refuses_bad_rows(n, rows, message):
    # the rows alone give the vertex count, so a row past the last row is
    # out of range
    assert len(rows) == n
    with pytest.raises(ValueError) as exc:
        Graph(rows)
    assert str(exc.value) == message


@given(graphs())
def test_from_edges_builds_what_the_validating_constructor_accepts(g):
    assert Graph(g.rows) == g


def test_equality_and_hash():
    a = Graph.from_edges(3, [(0, 1)])
    b = Graph.from_edges(3, [(1, 0)])
    c = Graph.from_edges(3, [(0, 2)])
    assert a == b
    assert hash(a) == hash(b)
    assert a != c


@given(graphs())
def test_a_graph_is_its_rows(g):
    # the trusted constructor takes the rows alone; equal rows make equal
    # graphs with equal hashes, and a pickle round trip gives the graph back
    h = Graph._make(g.rows)
    assert h.n == len(g.rows) == g.n
    assert h == g and hash(h) == hash(g)
    back = pickle.loads(pickle.dumps(h))
    assert back == g and hash(back) == hash(g)
    assert (back.n, back.rows) == (g.n, g.rows)


@given(graphs(min_n=2), st.data())
def test_toggle_kernel_flips_exactly_one_pair(g, data):
    u, v = data.draw(st.sampled_from(list(itertools.permutations(range(g.n), 2))))
    rows = _toggle_rows(g.rows, u, v)
    pair = (min(u, v), max(u, v))
    want = Graph.from_edges(g.n, sorted(set(g.edges()) ^ {pair}))
    assert Graph(rows) == want
    assert _toggle_rows(rows, u, v) == g.rows


def test_delete_vertex_shifts_ids():
    g = path_graph(4)
    h, id_map = _remove(g, (1,))
    assert id_map == {0: 0, 2: 1, 3: 2}
    assert h.n == 3
    assert h.edges() == [(1, 2)]


def test_delete_and_add_edge():
    g = cycle_graph(4)
    h = Graph._make(_toggle_rows(g.rows, 0, 1))
    assert h.n == 4 and h.m == 3
    assert not h.has_edge(0, 1)
    assert Graph._make(_toggle_rows(h.rows, 0, 1)) == g


def test_identify_nonadjacent_pair():
    # 0 keeps its id and takes 2's neighborhood too; 1 stays, and 3 moves
    # down to 2 past the dropped 2
    h = Graph._make(_merge_rows(path_graph(4).rows, 0, 2))
    assert h.n == 3
    assert set(h.edges()) == {(0, 1), (0, 2)}


def test_identify_path_ends_gives_triangle():
    assert Graph._make(_merge_rows(path_graph(4).rows, 0, 3)) == complete_graph(3)


def test_every_memo_has_the_one_shared_cap():
    # every functools LRU wrapper bound at module level in the package, so a
    # memo added later is held to the cap without being listed here
    import importlib
    import pkgutil

    import chromarel
    from chromarel.graphs import _MEMO_SIZE

    memos = {
        f"{obj.__module__}.{obj.__qualname__}": obj
        for info in pkgutil.iter_modules(chromarel.__path__)
        for obj in vars(importlib.import_module(f"chromarel.{info.name}")).values()
        if hasattr(obj, "cache_info")
    }
    assert "chromarel.relations._set_relations" in memos
    assert {name: f.cache_info().maxsize for name, f in memos.items()} == dict.fromkeys(
        memos, _MEMO_SIZE
    )


def test_induced_subgraph_and_delete_vertices():
    g = cycle_graph(5)
    h, idmap = _remove(g, [2, 4])
    assert h.n == 3
    assert idmap == {0: 0, 1: 1, 3: 2}
    assert h.edges() == [(0, 1)]


def test_components_and_connectivity():
    g = Graph.from_edges(5, [(0, 1), (2, 3)])
    assert not is_connected(g)
    assert is_connected(_remove(g, (2, 3, 4))[0])
    assert is_connected(cycle_graph(4))
    assert is_connected(Graph.from_edges(1, []))
    assert is_connected(Graph.from_edges(0, []))


def _reachable(g, start, within):
    # plain BFS over vertex ids: start, then whatever within lets it reach
    seen = set(_bits(start))
    frontier = list(seen)
    while frontier:
        frontier = [w for x in frontier for w in _bits(g.rows[x] & within) if w not in seen]
        seen.update(frontier)
    return sum(1 << x for x in seen)


@given(graphs(min_n=1, max_n=9), st.data())
def test_component_walk_stops_exactly_when_it_reaches_the_stop_mask(g, data):
    full = (1 << g.n) - 1
    start = data.draw(st.integers(min_value=1, max_value=full))
    within = data.draw(st.integers(min_value=0, max_value=full))
    stop = data.draw(st.integers(min_value=0, max_value=full))
    comp = _reachable(g, start, within)
    assert _component_of(g.rows, start, within) == comp
    assert _component_of(g.rows, start, within, stop) == (0 if comp & stop else comp)


@given(graphs(max_n=10), st.data())
def test_reach_and_free_of_match_a_per_vertex_loop(g, data):
    full = (1 << g.n) - 1
    mask = data.draw(st.integers(min_value=0, max_value=full))
    reach = 0
    for x in range(g.n):
        if mask >> x & 1:
            reach |= g.rows[x]
    assert _reach(g.rows, mask) == reach
    free = sum(1 << x for x in range(g.n) if not mask >> x & 1 and not g.rows[x] & mask)
    assert _free_of(g.rows, mask) == free


def test_bipartition():
    left, right = bipartition(cycle_graph(4))
    assert set(left) | set(right) == {0, 1, 2, 3}
    assert 0 in left  # least vertex goes left
    assert bipartition(cycle_graph(5)) is None
    # per component the least vertex lands on the left
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    left, right = bipartition(g)
    assert 0 in left and 2 in left
    assert bipartition(Graph.from_edges(0, [])) == (frozenset(), frozenset())
    # a triangle beside an even component
    assert bipartition(Graph.from_edges(5, [(0, 1), (2, 3), (3, 4), (2, 4)])) is None


def _check_bipartition(g):
    got = bipartition(g)
    assert got == oracles.bipartition_by_bfs(g), g.edges()
    h = nx.empty_graph(g.n)
    h.add_edges_from(g.edges())
    assert (got is not None) == nx.is_bipartite(h)


def test_bipartition_matches_a_queue_search_on_the_graph_atlas():
    # every graph on at most seven vertices, up to isomorphism, among them
    # the empty graph, disconnected graphs and graphs with one odd component
    for h in nx.graph_atlas_g():
        _check_bipartition(Graph.from_edges(h.number_of_nodes(), h.edges()))


def test_bipartition_matches_a_queue_search_on_random_graphs():
    rng = random.Random(28)
    for seed in range(300):
        n = rng.randint(0, 60)
        # sparse enough that 136 of the 300 are bipartite and 205 disconnected
        _check_bipartition(gnp(n, rng.choice([0.02, 0.05, 0.1, 0.3]), seed))


def _sets(masks):
    return [frozenset(_bits(s)) for s in masks]


def test_maximal_sets_c5():
    g = cycle_graph(5)
    maximal = _sets(_maximal_sets(g.rows, 0))
    assert len(maximal) == 5
    assert all(len(s) == 2 for s in maximal)


def test_maximal_sets_seeded():
    # a seed's maximal supersets are those of the graph that hold it
    g = cycle_graph(5)
    assert set(_sets(_maximal_sets(g.rows, 1))) == {frozenset({0, 2}), frozenset({0, 3})}


def test_maximal_independent_sets_match_subset_oracle():
    # every labeled graph on up to six vertices, every seed of at most two
    # vertices: each maximal set holding the seed appears exactly once
    assert list(_maximal_sets((), 0)) == [0]
    wrong = []
    for n in range(1, 7):
        seeds = [s for size in range(3) for s in itertools.combinations(range(n), size)]
        for g in enumerate_graphs(n, connected_only=False):
            everything = oracles.maximal_independent_sets_by_subsets(g)
            for seed in seeds:
                if len(seed) == 2 and g.has_edge(*seed):
                    continue
                base = sum(1 << x for x in seed)
                got = _sets(_maximal_sets(g.rows, base))
                want = {s for s in everything if s.issuperset(seed)}
                if len(got) != len(want) or set(got) != want:
                    wrong.append((g.edges(), seed))
    assert wrong == []


@given(graphs(max_n=7), st.data())
def test_delete_vertex_trace_is_consistent(g, data):
    if g.n == 0:
        return
    u = data.draw(st.integers(min_value=0, max_value=g.n - 1))
    h, id_map = _remove(g, (u,))
    assert h.n == g.n - 1
    assert u not in id_map
    for a in range(g.n):
        for b in range(a + 1, g.n):
            if a == u or b == u:
                continue
            assert g.has_edge(a, b) == h.has_edge(id_map[a], id_map[b])


@given(graphs(max_n=7), st.data())
def test_maximal_sets_really_maximal(g, data):
    drawn = data.draw(st.integers(min_value=0, max_value=(1 << g.n) - 1))
    # the drawn vertices, each kept when no kept one is its neighbour
    base = 0
    for x in _bits(drawn):
        if not g.rows[x] & base:
            base |= 1 << x
    # every independent superset of base that no vertex outside can join,
    # once each
    want = [
        s
        for s in range(1 << g.n)
        if not base & ~s
        and not any(g.rows[x] & s for x in _bits(s))
        and all(g.rows[x] & s for x in range(g.n) if not s >> x & 1)
    ]
    assert sorted(_maximal_sets(g.rows, base)) == want


def _merged_id(n, u, v):
    # where the merge sends each old id: u and v to the lower one, a, and
    # the others above the higher one, b, down by one
    a, b = min(u, v), max(u, v)
    return {x: a if x == b else x - (x > b) for x in range(n)}


@given(graphs(max_n=6))
def test_identify_merges_neighborhoods(g):
    pairs = [
        (u, v)
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if not g.has_edge(u, v)
    ]
    for u, v in pairs:
        rows = _merge_rows(g.rows, u, v)
        f = _merged_id(g.n, u, v)
        merged = {f[x] for x in _bits(g.rows[u] | g.rows[v])}
        assert set(_bits(rows[min(u, v)])) == merged


def _merge_reference(g, u, v):
    # the merge spelled out edge by edge through the validating constructor
    f = _merged_id(g.n, u, v)
    edges = {
        (min(f[x], f[y]), max(f[x], f[y])) for x, y in g.edges() if {x, y} != {u, v}
    }
    return Graph.from_edges(g.n - 1, sorted(edges))


@given(graphs(min_n=2, max_n=9))
def test_merge_kernel_matches_from_edges_reference(g):
    # adjacent pairs too: the kernel drops the uv edge
    for u in range(g.n):
        for v in range(g.n):
            if u == v:
                continue
            rows = _merge_rows(g.rows, u, v)
            assert rows == _merge_reference(g, u, v).rows
            Graph(rows)  # symmetric, loop-free, in range


def _induced_reference(g, kept):
    # the induced subgraph spelled out edge by edge through the validating constructor
    f = {x: i for i, x in enumerate(sorted(kept))}
    edges = [(f[x], f[y]) for x, y in g.edges() if x in f and y in f]
    return Graph.from_edges(len(f), edges), f


@given(graphs(max_n=9), st.data())
def test_removal_kernel_matches_from_edges_reference(g, data):
    kept = data.draw(st.sets(st.integers(min_value=0, max_value=max(g.n - 1, 0))))
    kept &= set(range(g.n))
    drops = [set(range(g.n)) - kept] + [{u} for u in range(g.n)]
    for drop in drops:
        h, id_map = _remove(g, drop)
        ref, f = _induced_reference(g, set(range(g.n)) - drop)
        assert h.rows == ref.rows
        assert id_map == f
