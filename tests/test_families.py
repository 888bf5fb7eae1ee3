import itertools

import pytest

from chromarel import Graph, chromatic_number, is_connected, is_planar
from chromarel.families import (
    _member,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    enumerate_graphs,
    generate,
    gnp,
    grotzsch,
    moser_spindle,
    mycielski,
    path_graph,
    petersen,
    planted,
    wheel_graph,
)


def test_path_and_cycle():
    assert path_graph(1).n == 1 and path_graph(1).m == 0
    assert path_graph(5).edges() == [(0, 1), (1, 2), (2, 3), (3, 4)]
    g = cycle_graph(6)
    assert g.n == 6 and g.m == 6
    assert all(g.rows[v].bit_count() == 2 for v in range(6))
    with pytest.raises(ValueError):
        cycle_graph(2)
    with pytest.raises(ValueError):
        path_graph(0)


@pytest.mark.parametrize("n", range(1, 9))
def test_complete_graph_matches_from_edges_reference(n):
    ref = Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    assert complete_graph(n).rows == ref.rows


def test_complete_and_bipartite():
    k5 = complete_graph(5)
    assert k5.m == 10
    g = complete_bipartite(2, 3)
    assert g.n == 5 and g.m == 6
    assert chromatic_number(g) == 2


def test_wheel():
    g = wheel_graph(5)
    assert g.n == 6 and g.m == 10
    hub = 5  # hub is the last id
    assert g.rows[hub].bit_count() == 5
    assert chromatic_number(g) == 4
    assert chromatic_number(wheel_graph(6)) == 3


def test_moser_spindle():
    g = moser_spindle()
    assert g.n == 7 and g.m == 11
    assert is_planar(g)
    assert chromatic_number(g) == 4
    assert max(g.rows[v].bit_count() for v in range(7)) == 4


def test_petersen():
    g = petersen()
    assert g.n == 10 and g.m == 15
    assert all(g.rows[v].bit_count() == 3 for v in range(10))
    assert chromatic_number(g) == 3
    assert not is_planar(g)


def _has_triangle(g):
    return any(
        g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(a, c)
        for a, b, c in itertools.combinations(range(g.n), 3)
    )


def test_mycielski():
    c5 = cycle_graph(5)
    m = mycielski(c5)
    assert m.n == 11 and m.m == 20
    assert m == grotzsch()
    assert not _has_triangle(m)
    assert chromatic_number(m) == chromatic_number(c5) + 1
    # one more round keeps the girth promise and raises chi again
    m2 = mycielski(m)
    assert m2.n == 23 and m2.m == 71
    assert not _has_triangle(m2)
    assert chromatic_number(m2) == 5


def test_mycielski_of_k2_is_c5():
    m = mycielski(complete_graph(2))
    assert m.n == 5 and m.m == 5
    assert all(m.rows[v].bit_count() == 2 for v in range(5))
    assert is_connected(m)


def test_grotzsch_facts():
    g = grotzsch()
    assert g.n == 11 and g.m == 20
    assert not _has_triangle(g)
    assert chromatic_number(g) == 4
    assert not is_planar(g)


def test_gnp():
    a = gnp(12, 0.3, seed=5)
    b = gnp(12, 0.3, seed=5)
    assert a == b
    assert gnp(12, 0.3, seed=6) != a
    assert gnp(8, 0.0, seed=1).m == 0
    assert gnp(8, 1.0, seed=1) == complete_graph(8)


def test_planted():
    assert planted(60, 5, 0.3, 1).m == 446
    assert planted(80, 6, 0.35, 2).m == 953
    assert planted(20, 3, 0.4, 7) == planted(20, 3, 0.4, 7)
    assert planted(20, 3, 0.4, 8) != planted(20, 3, 0.4, 7)
    for k in range(1, 6):
        for seed in range(3):
            assert chromatic_number(planted(15, k, 0.5, seed)) <= k
    assert planted(6, 1, 1.0, 0).m == 0
    assert planted(0, 3, 0.5, 0).n == 0
    for bad in ((5, 0, 0.5, 1), (5, 2, 1.5, 1), (5, 2, -0.1, 1), (-1, 2, 0.5, 1)):
        with pytest.raises(ValueError):
            planted(*bad)


def test_generate_dispatcher():
    assert generate("path", "4") == path_graph(4)
    assert generate("p4") == path_graph(4)
    assert generate("c5") == cycle_graph(5)
    assert generate("k4") == complete_graph(4)
    assert generate("w5") == wheel_graph(5)
    assert generate("cycle", "7") == cycle_graph(7)
    assert generate("complete", "3") == complete_graph(3)
    assert generate("bipartite", "2", "3") == complete_bipartite(2, 3)
    assert generate("wheel", "6") == wheel_graph(6)
    assert generate("moser_spindle") == moser_spindle()
    assert generate("grotzsch") == grotzsch()
    assert generate("petersen") == petersen()
    assert generate("mycielski", "c5") == grotzsch()
    assert generate("gnp", "10", "0.5", "3") == gnp(10, 0.5, 3)
    assert generate("planted", "12", "3", "0.5", "4") == planted(12, 3, 0.5, 4)


def test_generate_rejects_bad_requests():
    with pytest.raises(ValueError):
        generate("hypercube")
    with pytest.raises(ValueError):
        generate("path")
    with pytest.raises(ValueError):
        generate("path", "x")
    with pytest.raises(ValueError):
        generate("k4", "4")
    with pytest.raises(ValueError):
        generate("planted", "12", "3", "0.5")


@pytest.mark.parametrize(
    "token, message",
    [
        (("hypercube",), "unknown family 'hypercube'"),
        (("Hypercube", "3"), "unknown family 'Hypercube'"),
        (("",), "unknown family ''"),
        (("p",), "unknown family 'p'"),
        (("q4",), "unknown family 'q4'"),
        (("path",), "path needs exactly one size parameter"),
        (("cycle", "3", "4"), "cycle needs exactly one size parameter"),
        (("complete",), "complete needs exactly one size parameter"),
        (("wheel",), "wheel needs exactly one size parameter"),
        (("bipartite", "2"), "bipartite needs both part sizes"),
        (("gnp", "10", "0.5"), "gnp needs n, p, seed"),
        (("planted", "12", "3", "0.5"), "planted needs n, k, p, seed"),
        (("k4", "4"), "k4 takes no parameters"),
        (("W5", "1"), "w5 takes no parameters"),
        (("moser_spindle", "1"), "moser_spindle takes no parameters"),
        (("moser", "1"), "moser takes no parameters"),
        (("grotzsch", "1"), "grotzsch takes no parameters"),
        (("petersen", "1"), "petersen takes no parameters"),
        (("mycielski",), "mycielski needs a base family"),
        (("mycielski", "nosuch"), "unknown family 'nosuch'"),
        (("mycielski", "c5", "1"), "c5 takes no parameters"),
        (("path", "x"), "invalid literal for int() with base 10: 'x'"),
        (("gnp", "10", "half", "3"), "could not convert string to float: 'half'"),
        (("path", "0"), "path needs at least 1 vertex"),
        (("cycle", "2"), "cycle needs at least 3 vertices"),
        (("c2",), "cycle needs at least 3 vertices"),
        (("complete", "0"), "complete graph needs at least 1 vertex"),
        (("wheel", "2"), "wheel needs a rim of at least 3 vertices"),
        (("bipartite", "0", "3"), "both parts must be nonempty"),
        (("gnp", "-1", "0.5", "3"), "n must be nonnegative"),
        (("gnp", "5", "1.5", "3"), "p must lie in [0,1]"),
        (("planted", "-1", "3", "0.5", "1"), "n must be nonnegative"),
        (("planted", "12", "0", "0.5", "1"), "k must be at least 1"),
        (("planted", "12", "3", "-0.1", "1"), "p must lie in [0,1]"),
        # past a reader's 65 536 vertices, refused from the parameters alone
        (("complete", "100000"), "100000 vertices is more than the 65536 a reader accepts"),
        (("wheel", "65536"), "65537 vertices is more than the 65536 a reader accepts"),
        (("mycielski", "p32768"), "65537 vertices is more than the 65536 a reader accepts"),
    ],
)
def test_every_generate_refusal_keeps_its_text(token, message):
    with pytest.raises(ValueError) as exc:
        generate(*token)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "token",
    [("p5",), ("cycle", "6"), ("k4",), ("wheel", "5"), ("bipartite", "2", "3"),
     ("gnp", "9", "0.5", "1"), ("planted", "8", "3", "0.5", "2"), ("moser_spindle",),
     ("moser",), ("grotzsch",), ("petersen",), ("mycielski", "mycielski", "w4")],
)
def test_a_members_vertex_count_is_known_before_it_is_built(token):
    n, build = _member(*token)
    assert n == build().n == generate(*token).n


def test_enumerate_counts():
    # labeled connected graph counts, a standard sequence
    expected = {1: 1, 2: 1, 3: 4, 4: 38, 5: 728}
    for n, count in expected.items():
        assert sum(1 for _ in enumerate_graphs(n, connected_only=True)) == count
    assert sum(1 for _ in enumerate_graphs(3, connected_only=False)) == 8
    assert sum(1 for _ in enumerate_graphs(4, connected_only=False)) == 64


def test_enumerate_is_deterministic_and_bounded():
    first = [g.rows for g in enumerate_graphs(4)]
    second = [g.rows for g in enumerate_graphs(4)]
    assert first == second
    with pytest.raises(ValueError):
        list(enumerate_graphs(0))
    with pytest.raises(ValueError):
        list(enumerate_graphs(8))
