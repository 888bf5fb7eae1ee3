import random
import subprocess
import sys
import time
import tracemalloc
import types

import pytest
from hypothesis import given
import hypothesis.strategies as st

import chromarel.coloring as coloring_mod
from chromarel import (
    Coloring,
    Graph,
    chromatic_number,
    count_colorings,
    k_colorable,
)
from chromarel.coloring import _colorings
from chromarel.graphs import _bits, _component_of
from chromarel.families import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    enumerate_graphs,
    gnp,
    grotzsch,
    moser_spindle,
    mycielski,
    path_graph,
    petersen,
    planted,
    wheel_graph,
)

import oracles
from conftest import graphs


@pytest.mark.parametrize(
    "g, chi",
    [
        (path_graph(1), 1),
        (path_graph(2), 2),
        (path_graph(7), 2),
        (cycle_graph(4), 2),
        (cycle_graph(5), 3),
        (cycle_graph(7), 3),
        (complete_graph(1), 1),
        (complete_graph(4), 4),
        (complete_graph(6), 6),
        (complete_bipartite(3, 4), 2),
        (wheel_graph(5), 4),  # odd rim
        (wheel_graph(6), 3),  # even rim
        (petersen(), 3),
        (moser_spindle(), 4),
        (grotzsch(), 4),
        (mycielski(complete_graph(2)), 3),  # this is C5
    ],
)
def test_chromatic_numbers(g, chi):
    assert chromatic_number(g) == chi


def test_chromatic_number_matches_enumeration():
    for n in range(1, 5):
        for g in enumerate_graphs(n, connected_only=False):
            assert chromatic_number(g) == oracles.chromatic_by_assignment(g)


def test_k_colorable_basics():
    g = cycle_graph(5)
    assert k_colorable(g, 2) is None
    c = k_colorable(g, 3)
    assert c is not None
    assert oracles.is_proper(g, c.assignment, 3)
    assert set(c.assignment) <= {1, 2, 3}


@pytest.mark.parametrize("solver", [k_colorable, count_colorings])
def test_a_negative_palette_is_refused(solver):
    with pytest.raises(ValueError) as exc:
        solver(path_graph(2), -1)
    assert str(exc.value) == "k must be nonnegative"


@pytest.mark.parametrize(
    "assignment, k",
    [
        ((1, 2), 2),  # one entry short of P3
        ((1, 2, 3, 1), 2),  # one entry too many
        ((1, 2, 3), 2),  # color 3 outside 1..2
        ((0, 1, 0), 2),  # color 0 outside 1..2
    ],
)
def test_a_coloring_of_the_wrong_length_or_palette_is_improper(assignment, k):
    assert not oracles.is_proper(path_graph(3), assignment, k)


def test_k_colorable_respects_precoloring():
    g = path_graph(3)
    c = k_colorable(g, 2, {0: 2, 2: 2})
    assert c is not None
    assert c.assignment == (2, 1, 2)
    # same-color ends of an implicit-edge pair cannot extend
    p4 = path_graph(4)
    assert k_colorable(p4, 2, {0: 1, 3: 1}) is None
    with pytest.raises(ValueError):
        k_colorable(g, 2, {0: 3})  # a color outside the palette


def test_a_large_palette_costs_no_memory_beyond_the_graph():
    # no search tries a color above n, and the rename gives a vertex no
    # color above n or the largest precolored color, so a palette of a
    # million colors finds the coloring a palette of n finds,
    # in memory that does not grow with k (8 MB at k = 10**6 when it did)
    g = path_graph(4)
    want = k_colorable(g, 4, {0: 1}).assignment
    tracemalloc.start()
    try:
        c = k_colorable(g, 10**6, {0: 1})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert c == Coloring(want, 10**6)
    assert peak < 64_000


def test_a_precolored_color_far_above_n_costs_no_memory_beyond_the_graph():
    # the search colors the pattern graph with at most its n colors, and
    # the rename sends them to the precolored color and the lowest free
    # ones, so a color of 10**8 costs what color 4 costs (46 MB at
    # 5 * 10**6 when the color sized the search)
    g = path_graph(4)
    tracemalloc.start()
    try:
        c = k_colorable(g, 10**8, {0: 10**8})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert c == Coloring(oracles.pattern_coloring_by_tuple_keys(g, 10**8, {0: 10**8}), 10**8)
    assert c == Coloring((10**8, 1, 10**8, 1), 10**8)
    assert peak < 1_000_000


def _search_result(g, k, pre=None):
    """The solver's answer as the reference returns it: an assignment, None,
    or the ValueError text. A coloring under a precoloring must be proper
    and extend it."""
    try:
        c = k_colorable(g, k, pre)
    except ValueError as exc:
        return ("error", str(exc))
    if c is not None:
        assert c.k == k
        if pre:
            assert oracles.is_proper(g, c.assignment, k)
            assert all(c.assignment[v] == color for v, color in pre.items())
        return c.assignment
    return None


def _reference_result(g, k, pre=None):
    """The reference search's answer in the same form. Under a precoloring
    it gives the verdict and the refusals, and the coloring is its coloring
    of the pattern graph, renamed (oracles.pattern_coloring_by_tuple_keys),
    whose verdict must agree."""
    try:
        verdict = oracles.k_colorable_by_tuple_keys(g, k, pre)
    except ValueError as exc:
        return ("error", str(exc))
    if not pre:
        return verdict
    colors = oracles.pattern_coloring_by_tuple_keys(g, k, pre)
    assert (colors is None) == (verdict is None), (g.rows, k, pre)
    return colors


def test_k_colorable_matches_reference_search():
    # the same first coloring, not just the same verdict: witnesses, relation
    # lists and CLI bytes all depend on which coloring the search finds first
    for n in range(0, 6):
        for g in enumerate_graphs(n) if n else [Graph(())]:
            chi = chromatic_number(g)
            for k in range(0, chi + 2):
                assert _search_result(g, k) == _reference_result(g, k), (g.edges(), k)
            # a precoloring is asked as its pattern graph; at chi + 1 the
            # rename always has free colors to use
            for k in (chi, chi + 1):
                pres = [{}]
                pres += [{v: c} for v in range(n) for c in range(1, k + 1)]
                pres += [
                    {u: a, v: b}
                    for u in range(n)
                    for v in range(u + 1, n)
                    for a in range(1, k + 1)
                    for b in range(1, k + 1)
                ]
                for pre in pres:
                    got = _search_result(g, k, pre)
                    assert got == _reference_result(g, k, pre), (g.edges(), pre)


@given(
    st.integers(min_value=0, max_value=10),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=10**6),
    st.dictionaries(st.integers(0, 9), st.integers(1, 4), max_size=3),
    st.integers(min_value=-1, max_value=1),
)
def test_k_colorable_matches_reference_search_on_random_graphs(n, p, seed, assignment, dk):
    g = gnp(n, p, seed)
    k = max(chromatic_number(g) + dk, 0)
    assert _search_result(g, k) == _reference_result(g, k)
    pre = {v: c for v, c in assignment.items() if c <= k}
    # ids past n - 1 hit the range check in both
    assert _search_result(g, k, pre) == _reference_result(g, k, pre)


@given(
    st.integers(min_value=1, max_value=10),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=10**6),
    st.lists(st.tuples(st.integers(0, 9), st.integers(1, 5)), max_size=4),
    st.integers(min_value=0, max_value=1),
)
def test_k_colorable_matches_reference_search_under_random_precolorings(n, p, seed, picks, dk):
    g = gnp(n, p, seed)
    k = chromatic_number(g) + dk
    pre: dict[int, int] = {}
    for v, c in picks:
        # keep the precoloring proper and inside g and the palette
        if v < n and c <= k and v not in pre and all(pre.get(w) != c for w in _bits(g.rows[v])):
            pre[v] = c
    assert _search_result(g, k, pre) == _reference_result(g, k, pre)


def test_k_colorable_matches_reference_search_at_relation_scan_sizes():
    # the relation scan and chi's ladder ask about graphs of 20-40 vertices
    # at chi - 1 and chi; the comparisons above stop at 10. The reference
    # keeps palette symmetry under a precoloring too, so every graph is
    # also asked with one, as the verdict oracle beside the pattern graph
    for seed in range(16):
        cases = [gnp(n, 0.5 if seed % 2 else 0.3, seed) for n in (20, 25, 30, 35, 40)]
        cases.append(planted(20 + seed % 3 * 5, 3 + seed % 4, 0.5, seed))
        for g in cases:
            chi = chromatic_number(g)
            rng = random.Random(f"{seed}:{g.n}")
            for k in (chi - 1, chi):
                assert _search_result(g, k) == oracles.k_colorable_by_tuple_keys(g, k)
                for size in range(1, 4):
                    pre: dict[int, int] = {}
                    for v in rng.sample(range(g.n), size):
                        c = rng.randint(1, k)
                        if all(pre.get(w) != c for w in _bits(g.rows[v])):
                            pre[v] = c
                    got = _search_result(g, k, pre)
                    assert got == _reference_result(g, k, pre), (g.rows, k, pre)


def test_k_colorable_matches_reference_search_under_precolored_colors_above_n():
    # the reference's verdict searches the whole palette 1..k; the solver
    # colors the pattern graph with at most its n colors and renames them
    # onto the precolored colors and the lowest free ones. Vertex n is
    # outside g, so some precolorings are refused
    rng = random.Random(44)
    for _ in range(1500):
        n = rng.randint(1, 9)
        g = gnp(n, rng.choice((0.2, 0.4, 0.6)), rng.randrange(10**6))
        k = rng.randint(1, 3 * n + 3)
        top = rng.choice((min(k, n), k))
        pre = {v: rng.randint(1, top) for v in rng.sample(range(n + 1), rng.randint(0, n))}
        assert _search_result(g, k, pre) == _reference_result(g, k, pre), (g.rows, k, pre)


def test_precolored_refutation_keeps_palette_symmetry():
    # planted(60,8,0.5,1) has chi = 8, and 0 and 1 share no 8-coloring; the
    # question is g with 0 and 1 merged, whose unused colors are
    # interchangeable, so the refutation need not try their permutations
    # (about a minute when a precolored search did)
    g = planted(60, 8, 0.5, 1)
    start = time.perf_counter()
    assert k_colorable(g, 8, {0: 1, 1: 1}) is None
    assert time.perf_counter() - start < 10


def test_too_deep_search_is_a_value_error():
    # one recursion level per colored vertex: past Python's limit the search
    # reports the graph's size instead of a RecursionError
    g = path_graph(1500)
    for pre in (None, {0: 1}):
        with pytest.raises(ValueError, match="1500 vertices"):
            k_colorable(g, 2, pre)
    short = path_graph(500)
    assert oracles.is_proper(short, k_colorable(short, 2).assignment, 2)


def test_precoloring_validation():
    g = path_graph(2)
    with pytest.raises(ValueError, match=r"^color 0 at vertex 0 outside 1\.\.2$"):
        k_colorable(g, 2, {0: 0})  # colors are 1-based
    with pytest.raises(ValueError, match=r"^color 3 at vertex 0 outside 1\.\.2$"):
        k_colorable(g, 2, {0: 3})
    # the solver validates a precoloring against the graph it colors
    with pytest.raises(ValueError, match=r"^precoloring is improper on edge \(0,1\)$"):
        k_colorable(g, 2, {0: 1, 1: 1})
    with pytest.raises(ValueError, match=r"^vertex 2 outside 0\.\.1$"):
        k_colorable(g, 2, {2: 1})


def test_a_precoloring_is_any_mapping_checked_palette_then_graph_then_edges():
    # a read-only mapping is a precoloring too
    g = path_graph(3)
    frozen = types.MappingProxyType({0: 2, 2: 2})
    assert k_colorable(g, 2, frozen).assignment == (2, 1, 2)
    # a color outside 1..k is refused before a vertex outside g, and a
    # vertex outside g before an improper edge, whatever the mapping's order
    for bad in ({5: 1, 0: 1, 1: 1, 2: 3}, types.MappingProxyType({2: 3, 5: 1})):
        with pytest.raises(ValueError, match=r"^color 3 at vertex 2 outside 1\.\.2$"):
            k_colorable(g, 2, bad)
    with pytest.raises(ValueError, match=r"^vertex 5 outside 0\.\.2$"):
        k_colorable(g, 2, {0: 1, 1: 1, 5: 1})


def _color_tuples(g, k):
    return [tuple(colors) for colors, _ in _colorings(g.rows, k)]


def test_coloring_stream_counts():
    c4 = cycle_graph(4)
    assert len(_color_tuples(c4, 2)) == 2
    assert len(_color_tuples(c4, 3)) == 18
    s = _colorings(c4.rows, 2)
    assert iter(s) is s  # a generator, consumed once


def test_colorings_are_lazy_and_lexicographic():
    s = _colorings(path_graph(3).rows, 2)
    colors, classes = next(s)
    assert (colors, classes) == ([1, 2, 1], [0b101, 0b010])
    # the same two lists again, updated in place
    assert next(s) == ([2, 1, 2], [0b010, 0b101]) and colors == [2, 1, 2]
    assert next(s, None) is None


def test_enumerator_matches_assignment_oracle():
    # the same color tuples in the same order, and each class mask holds
    # exactly the vertices of its color
    for n in range(0, 6):
        for g in enumerate_graphs(n) if n else [Graph(()), path_graph(1)]:
            for k in range(0, 5):
                got = []
                for colors, classes in _colorings(g.rows, k):
                    got.append(tuple(colors))
                    assert classes == [
                        sum(1 << v for v in range(g.n) if colors[v] == c)
                        for c in range(1, k + 1)
                    ], (g.edges(), k, colors)
                assert got == oracles.colorings_by_assignment(g, k), (g.edges(), k)


def test_class_mask_chains_match_bfs_oracle():
    # the walk KEMPE and DC-BOUND make: the component of u inside the union
    # of two class masks, for every coloring, vertex and second color
    graphs = [g for n in range(1, 5) for g in enumerate_graphs(n)]
    graphs += [cycle_graph(5), wheel_graph(5)]
    for g in graphs:
        for k in range(1, 5):
            for colors, classes in _colorings(g.rows, k):
                for u in range(g.n):
                    a = colors[u]
                    for b in range(1, k + 1):
                        if b == a:
                            continue
                        chain = _component_of(g.rows, 1 << u, classes[a - 1] | classes[b - 1])
                        want = oracles.kempe_chain_by_bfs(g, colors, u, b)
                        assert chain == sum(1 << x for x in want), (g.edges(), colors, u, b)


@pytest.mark.parametrize(
    "code, chi",
    [
        # G(30,0.2,3) plus a disjoint K8. The greedy clique bound seeds from
        # the highest degrees, all in the sparse part, and finds 4; a ladder
        # over the whole graph then refutes k = 4..7 by backtracking through
        # the sparse part, for minutes.
        pytest.param(
            """
from chromarel import Graph, chromatic_number
from chromarel.families import gnp

g = gnp(30, 0.2, 3)
k8 = [(30 + i, 30 + j) for i in range(8) for j in range(i + 1, 8)]
print(chromatic_number(Graph.from_edges(38, [*g.edges(), *k8])))
""",
            8,
            id="gnp-plus-k8",
        ),
        # M(M(C5)), chi 5, whose vertex 0 has 30 leaves, joined by one edge
        # to a K7 whose vertices have 20 leaves each: 200 vertices, 263
        # edges. Three of the greedy clique bound's four seeds lie in the
        # K7, so the ladder starts at 7; started at 3, its refutations
        # through the Mycielski part run past a minute.
        pytest.param(
            """
from chromarel import Graph, chromatic_number
from chromarel.families import cycle_graph, mycielski

m = mycielski(mycielski(cycle_graph(5)))
edges = [*m.edges(), *((0, 23 + i) for i in range(30))]
edges += [(53 + i, 53 + j) for i in range(7) for j in range(i + 1, 7)]
edges += [(53 + i, 60 + 20 * i + j) for i in range(7) for j in range(20)]
edges.append((2, 53))
print(chromatic_number(Graph.from_edges(200, edges)))
""",
            7,
            id="hub",
        ),
    ],
)
def test_chi_of_a_disconnected_graph_is_its_largest_component_chi(code, chi):
    # A fresh process with a timeout fails instead of hanging.
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=30
    )
    assert (proc.returncode, proc.stdout) == (0, f"{chi}\n"), proc.stderr


def test_chi_of_a_tree_too_deep_for_the_solver_is_two():
    # the greedy bound colors this tree with three colors, and the solver's
    # ladder at k = 2 would recurse once per vertex: only the bipartition
    # can show chi = 2
    rng = random.Random(0)
    tree = Graph.from_edges(1500, [(rng.randrange(i), i) for i in range(1, 1500)])
    assert chromatic_number(tree) == 2


def test_equal_graphs_share_one_chi_computation():
    a = cycle_graph(7)
    b = Graph.from_edges(7, [((i + 1) % 7, i) for i in reversed(range(7))])
    assert a == b and a is not b
    coloring_mod._chromatic.cache_clear()
    assert chromatic_number(a) == chromatic_number(b) == 3
    info = coloring_mod._chromatic.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_colorings_are_proper_and_distinct():
    g = wheel_graph(5)
    k = chromatic_number(g)
    seen = set(_color_tuples(g, k))
    assert all(oracles.is_proper(g, c, k) for c in seen)
    assert len(seen) == count_colorings(g, k)


def test_count_matches_assignment_enumeration():
    for n in range(0, 5):
        for g in enumerate_graphs(n, connected_only=False) if n else [path_graph(1)]:
            for k in range(0, 5):
                assert count_colorings(g, k) == oracles.count_by_assignment(g, k), (
                    g.edges(),
                    k,
                )


def test_count_matches_partition_enumeration():
    for g in enumerate_graphs(5, connected_only=True):
        for k in (2, 3, 5):
            assert count_colorings(g, k) == oracles.count_by_partition(g, k)


def test_counting_stops_at_k_classes():
    # P30 has 2 two-colorings out of about 7*10^22 partitions into
    # independent classes; a count that first lists the partitions of
    # every size never finishes. A fresh process with a timeout fails
    # instead of hanging
    code = """
import time
from chromarel import count_colorings, path_graph
g = path_graph(30)
start = time.perf_counter()
count = count_colorings(g, 2)
print(count, time.perf_counter() - start < 1)
"""
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=30
    )
    assert (proc.returncode, proc.stdout) == (0, "2 True\n"), proc.stderr


def test_a_count_too_deep_for_its_recursion_is_bad_input():
    # the count recurses once per vertex, as the solver does
    with pytest.raises(ValueError, match="1500 vertices"):
        count_colorings(path_graph(1500), 2)


def _chain(g, colors, u, b):
    """The {colors[u], b} chain through u, by the class-mask walk."""
    classes = [0] * max(colors)
    for v, c in enumerate(colors):
        classes[c - 1] |= 1 << v
    mask = _component_of(g.rows, 1 << u, classes[colors[u] - 1] | classes[b - 1])
    assert mask == sum(1 << x for x in oracles.kempe_chain_by_bfs(g, colors, u, b))
    return {x for x in range(g.n) if mask >> x & 1}


def test_kempe_chain_on_even_cycle():
    g = cycle_graph(4)
    c = k_colorable(g, 2)
    other = ({1, 2} - {c.assignment[0]}).pop()
    assert _chain(g, c.assignment, 0, other) == {0, 1, 2, 3}


def test_kempe_chain_stops_at_color_boundary():
    g = path_graph(4)
    c = Coloring((1, 2, 1, 3), 3)
    assert oracles.is_proper(g, c.assignment, c.k)
    assert _chain(g, c.assignment, 0, 2) == {0, 1, 2}  # vertex 3 has color 3
    # vertex 2 wears color 1, so the {2,3}-chain through 3 is 3 alone
    assert _chain(g, c.assignment, 3, 2) == {3}


@given(graphs(max_n=8))
def test_chi_bounded_by_max_degree_plus_one(g):
    if g.n == 0:
        return
    assert chromatic_number(g) <= max(r.bit_count() for r in g.rows) + 1


@given(graphs(max_n=6), st.integers(min_value=0, max_value=4))
def test_count_agrees_with_enumeration_everywhere(g, k):
    assert count_colorings(g, k) == len(oracles.colorings_by_assignment(g, k))
