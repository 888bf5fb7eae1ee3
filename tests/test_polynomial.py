import inspect
import random
import sys
from math import comb

import pytest
from hypothesis import given
import hypothesis.strategies as st

from chromarel import (
    BudgetError,
    Graph,
    chromatic_number,
    chromatic_polynomial,
    count_colorings,
    evaluate,
)
from chromarel.graphs import _merge_rows, _toggle_rows
from chromarel.families import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    enumerate_graphs,
    gnp,
    moser_spindle,
    path_graph,
    petersen,
    wheel_graph,
)

import chromarel.polynomial as polynomial_mod
import oracles
from conftest import graphs


@pytest.mark.parametrize(
    "g, coeffs",
    [
        (Graph.from_edges(0, []), (1,)),
        (Graph.from_edges(1, []), (0, 1)),
        (Graph.from_edges(3, []), (0, 0, 0, 1)),
        (path_graph(2), (0, -1, 1)),
        (path_graph(4), (0, -1, 3, -3, 1)),  # k(k-1)^3
        (cycle_graph(4), (0, -3, 6, -4, 1)),
        (cycle_graph(5), (0, 4, -10, 10, -5, 1)),  # (k-1)^5 - (k-1)
        (complete_graph(4), (0, -6, 11, -6, 1)),
        # octahedron K6 minus a perfect matching: every neighborhood is a
        # 4-cycle, so only addition-contraction applies at the top;
        # k(k-1)(k-2)(k^3-9k^2+29k-32)
        (
            Graph.from_edges(6, [(u, v) for u in range(6) for v in range(u + 1, 6) if v != u + 3]),
            (0, -64, 154, -137, 58, -12, 1),
        ),
    ],
)
def test_known_polynomials(g, coeffs):
    assert chromatic_polynomial(g) == coeffs


def test_polynomial_shape():
    p = chromatic_polynomial(cycle_graph(6))
    assert len(p) - 1 == 6
    assert p[-1] == 1  # monic
    assert p[0] == 0  # no empty-palette colorings
    # nonzero coefficients alternate in sign from the top
    for i, c in enumerate(p):
        if c:
            assert (c > 0) == ((len(p) - 1 - i) % 2 == 0)


def test_evaluate():
    p = chromatic_polynomial(cycle_graph(4))
    assert [evaluate(p, k) for k in range(5)] == [0, 0, 2, 18, 84]
    with pytest.raises(ValueError):
        evaluate(p, -1)


def test_matches_interpolated_enumeration_exhaustively():
    # brute-force counts at k = 0..n determine the polynomial uniquely; every
    # labeled graph on five vertices, disconnected ones included, reaches each
    # reduction (components, trees, simplicial vertices, addition, deletion)
    for n in range(1, 6):
        for g in enumerate_graphs(n, connected_only=False):
            counts = [oracles.count_by_assignment(g, k) for k in range(n + 1)]
            assert (
                list(chromatic_polynomial(g))
                == oracles.poly_by_interpolation(counts)
            ), g.edges()


def test_matches_interpolation_on_moser_spindle():
    g = moser_spindle()
    counts = [oracles.count_by_assignment(g, k) for k in range(g.n + 1)]
    assert list(chromatic_polynomial(g)) == oracles.poly_by_interpolation(
        counts
    )


def test_petersen_three_colorings():
    p = chromatic_polynomial(petersen())
    assert evaluate(p, 2) == 0
    assert evaluate(p, 3) == 120
    assert evaluate(p, 3) == oracles.count_by_assignment(petersen(), 3)


def test_disjoint_union_multiplies():
    g = Graph.from_edges(5, [(0, 1), (1, 2), (3, 4)])
    left = chromatic_polynomial(path_graph(3))
    right = chromatic_polynomial(path_graph(2))
    combined = chromatic_polynomial(g)
    for k in range(6):
        assert evaluate(combined, k) == evaluate(left, k) * evaluate(right, k)


def test_budget():
    big = complete_graph(21)
    with pytest.raises(BudgetError):
        chromatic_polynomial(big)
    assert len(chromatic_polynomial(big, max_vertices=21)) == 22
    with pytest.raises(BudgetError):
        chromatic_polynomial(cycle_graph(8), max_vertices=7)


def test_first_chromatic_root():
    # smallest k with a nonzero value is the chromatic number
    for g in (cycle_graph(5), complete_graph(4), petersen()):
        p = chromatic_polynomial(g)
        k = next(k for k in range(g.n + 1) if evaluate(p, k) > 0)
        assert k == chromatic_number(g)


@given(graphs(max_n=8), st.integers(min_value=0, max_value=6))
def test_evaluation_counts_colorings(g, k):
    assert evaluate(chromatic_polynomial(g), k) == count_colorings(g, k)


@given(graphs(min_n=2, max_n=8), st.data())
def test_deletion_contraction_identity(g, data):
    if g.m == 0:
        return
    u, v = data.draw(st.sampled_from(g.edges()))
    whole = chromatic_polynomial(g)
    minus = chromatic_polynomial(Graph._make(_toggle_rows(g.rows, u, v)))
    merged = chromatic_polynomial(Graph._make(_merge_rows(g.rows, u, v)))
    for k in range(g.n + 1):
        assert evaluate(whole, k) == evaluate(minus, k) - evaluate(merged, k)


@given(graphs(max_n=7))
def test_coefficient_sum_is_count_at_one(g):
    p = chromatic_polynomial(g)
    assert sum(p) == (0 if g.m else 1)


@st.composite
def dense_graphs(draw, min_n=2, max_n=9):
    # more than half of all pairs are edges, so addition-contraction runs
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    missing = draw(
        st.lists(st.sampled_from(pairs), unique=True, max_size=(len(pairs) - 1) // 2)
    )
    return Graph.from_edges(n, [e for e in pairs if e not in missing])


@given(dense_graphs())
def test_dense_graphs_count_colorings(g):
    assert 4 * g.m > g.n * (g.n - 1)
    p = chromatic_polynomial(g)
    for k in range(g.n + 1):
        assert evaluate(p, k) == count_colorings(g, k)


def _agrees(g, closed_form):
    p = chromatic_polynomial(g)
    assert len(p) - 1 == g.n
    # n + 1 points fix a degree-n polynomial
    for k in range(g.n + 1):
        assert evaluate(p, k) == closed_form(k), (g.edges(), k)


@pytest.mark.parametrize("n", range(3, 12))
def test_fan_closed_form(n):
    # apex n-1 over the path 0..n-2
    g = Graph.from_edges(n, [(i, i + 1) for i in range(n - 2)] + [(i, n - 1) for i in range(n - 1)])
    _agrees(g, lambda k: k * (k - 1) * (k - 2) ** (n - 2))


@pytest.mark.parametrize("n", range(4, 13))
def test_wheel_closed_form(n):
    # W_n: n vertices, a hub over an (n-1)-cycle
    _agrees(
        wheel_graph(n - 1),
        lambda k: k * ((k - 2) ** (n - 1) + (-1) ** (n - 1) * (k - 2)),
    )


@given(st.lists(st.integers(min_value=0), min_size=0, max_size=14))
def test_tree_closed_form(picks):
    # vertex i + 1 hangs off some earlier vertex
    n = len(picks) + 1
    g = Graph.from_edges(n, [(p % (i + 1), i + 1) for i, p in enumerate(picks)])
    _agrees(g, lambda k: k * (k - 1) ** (n - 1))


def _random_tree(n, seed):
    rng = random.Random(seed)
    return Graph.from_edges(n, [(rng.randrange(i), i) for i in range(1, n)])


@pytest.mark.parametrize(
    "g", [_random_tree(1500, 0), complete_bipartite(1, 500), path_graph(900)], ids=repr
)
def test_a_tree_past_the_recursion_ceiling_has_its_closed_form(g):
    # the tree rule answers at once, so no depth is reached
    n = g.n
    want = [0] + [comb(n - 1, i) * (-1) ** (n - 1 - i) for i in range(n)]
    assert chromatic_polynomial(g, max_vertices=2000) == tuple(want)


def test_a_complete_graph_past_the_recursion_ceiling_has_its_closed_form():
    want = [1]
    for i in range(700):  # times (k - i)
        want = [a - i * b for a, b in zip([0] + want, want + [0])]
    p = chromatic_polynomial(complete_graph(700), max_vertices=2000)
    assert p == tuple(want)


def test_a_graph_too_deep_for_the_recursion_is_over_budget():
    # contracting an edge of a cycle leaves a cycle one shorter, so C60
    # recurses about sixty levels deep: past a limit fifty frames above here
    g = cycle_graph(60)
    polynomial_mod._poly.cache_clear()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 50)
    try:
        with pytest.raises(
            BudgetError, match="^graph with 60 vertices is too deep for the polynomial's recursion$"
        ):
            chromatic_polynomial(g, max_vertices=60)
    finally:
        sys.setrecursionlimit(limit)
    assert evaluate(chromatic_polynomial(g, max_vertices=60), 3) == 2**60 + 2


def test_contraction_shares_subproblems():
    # the merge keeps the lower endpoint, so contractions reached along
    # different branches meet as one labeled graph in the memo; a merge
    # that labels them apart misses more than twice as often here
    polynomial_mod._poly.cache_clear()
    chromatic_polynomial(gnp(16, 0.3, 2))
    assert polynomial_mod._poly.cache_info().misses == 3395
