"""Named graph families, fixed instances, and exhaustive enumeration."""

from __future__ import annotations

import random
from typing import Callable, Iterator

from .graphs import Graph, is_connected
from .io import _MAX_VERTICES


def path_graph(n: int) -> Graph:
    """Path on n vertices, ids in path order."""
    if n < 1:
        raise ValueError("path needs at least 1 vertex")
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs at least 1 vertex")
    full = (1 << n) - 1
    return Graph._make(tuple(full ^ 1 << i for i in range(n)))


def complete_bipartite(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise ValueError("both parts must be nonempty")
    return Graph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def wheel_graph(n: int) -> Graph:
    """Wheel with an n-vertex rim (ids 0..n-1) and the hub as the last id."""
    if n < 3:
        raise ValueError("wheel needs a rim of at least 3 vertices")
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(i, n) for i in range(n)]
    return Graph.from_edges(n + 1, edges)


def mycielski(g: Graph) -> Graph:
    """Mycielski construction: 2n+1 vertices, 3m+n edges, chi goes up by one.

    Vertex i gets a shadow n+i adjacent to i's neighbors; a final apex 2n is
    adjacent to every shadow.
    """
    n = g.n
    edges = list(g.edges())
    for u, v in g.edges():
        edges.append((n + u, v))
        edges.append((u, n + v))
    apex = 2 * n
    edges += [(n + i, apex) for i in range(n)]
    return Graph.from_edges(2 * n + 1, edges)


def moser_spindle() -> Graph:
    """Two triangle rhombi sharing vertex 0, far tips 3 and 6 joined.

    Seven vertices, eleven edges, planar, chromatic number four.
    """
    edges = [
        (0, 1), (0, 2), (1, 2), (1, 3), (2, 3),
        (0, 4), (0, 5), (4, 5), (4, 6), (5, 6),
        (3, 6),
    ]
    return Graph.from_edges(7, edges)


def grotzsch() -> Graph:
    """The Mycielskian of the 5-cycle: triangle-free with chromatic number 4."""
    return mycielski(cycle_graph(5))


def petersen() -> Graph:
    """Outer 5-cycle 0..4, inner 5-star 5..9, spokes i to 5+i."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, 5 + i) for i in range(5)]
    return Graph.from_edges(10, edges)


def gnp(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n,p) from a seeded generator; deterministic per seed."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0,1]")
    rng = random.Random(seed)
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    ]
    return Graph.from_edges(n, edges)


def planted(n: int, k: int, p: float, seed: int) -> Graph:
    """Random graph with a planted k-coloring, deterministic per seed.

    Vertex i gets the label i mod k and random.Random(seed) shuffles the
    labels; then each pair u < v with different labels, in lexicographic
    order, becomes an edge when the same generator's next random() is below
    p. So chi <= k, and at moderate p most pairs are relations, as in the
    uniquely colorable graphs of Harary, Hedetniemi and Robinson (1969).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if k < 1:
        raise ValueError("k must be at least 1")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0,1]")
    rng = random.Random(seed)
    labels = [i % k for i in range(n)]
    rng.shuffle(labels)
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if labels[i] != labels[j] and rng.random() < p
    ]
    return Graph.from_edges(n, edges)


def _n(n: int, *_) -> int:
    return n


_NO_PARAMETERS = "takes no parameters"
_ONE_SIZE = "needs exactly one size parameter"
# name -> builder, one converter per parameter, the refusal of a wrong count
# of parameters, and the member's vertex count from its converted parameters
_FAMILIES = {
    "path": (path_graph, (int,), _ONE_SIZE, _n),
    "cycle": (cycle_graph, (int,), _ONE_SIZE, _n),
    "complete": (complete_graph, (int,), _ONE_SIZE, _n),
    "wheel": (wheel_graph, (int,), _ONE_SIZE, lambda n: n + 1),
    "bipartite": (complete_bipartite, (int, int), "needs both part sizes", lambda a, b: a + b),
    "gnp": (gnp, (int, float, int), "needs n, p, seed", _n),
    "planted": (planted, (int, int, float, int), "needs n, k, p, seed", _n),
    "moser_spindle": (moser_spindle, (), _NO_PARAMETERS, lambda: 7),
    "moser": (moser_spindle, (), _NO_PARAMETERS, lambda: 7),
    "grotzsch": (grotzsch, (), _NO_PARAMETERS, lambda: 11),
    "petersen": (petersen, (), _NO_PARAMETERS, lambda: 10),
}
_COMPACT = {"p": "path", "c": "cycle", "k": "complete", "w": "wheel"}


def _member(family: str, *args) -> tuple[int, Callable[[], Graph]]:
    """The vertex count of a generate token from its converted parameters,
    and the call that builds it. A bad name, count of parameters or number
    is refused here, before anything is built."""
    name = family.lower()
    if name == "mycielski":
        if not args:
            raise ValueError("mycielski needs a base family")
        n, base = _member(str(args[0]), *args[1:])
        return 2 * n + 1, lambda: mycielski(base())
    if name[:1] in _COMPACT and name[1:].isdigit():
        if args:
            raise ValueError(f"{name} {_NO_PARAMETERS}")
        name, args = _COMPACT[name[0]], (name[1:],)
    if name not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    build, converters, refusal, order = _FAMILIES[name]
    if len(args) != len(converters):
        raise ValueError(f"{name} {refusal}")
    values = [convert(a) for convert, a in zip(converters, args)]
    return order(*values), lambda: build(*values)


def generate(family: str, *args) -> Graph:
    """Build a family member from its name and parameters.

    Names: path, cycle, complete, wheel (one integer each), bipartite (two
    integers), gnp (n, p, seed), planted (n, k, p, seed), mycielski (a
    nested family token), and the fixed instances moser_spindle, grotzsch,
    petersen. Compact aliases like p4, c5, k4, w5 work too. A member on more
    vertices than a reader accepts is refused before it is built.
    """
    n, build = _member(family, *args)
    if n > _MAX_VERTICES:
        raise ValueError(f"{n} vertices is more than the {_MAX_VERTICES} a reader accepts")
    return build()


def enumerate_graphs(n: int, connected_only: bool = False) -> Iterator[Graph]:
    """Every labeled graph on n vertices, 1 <= n <= 7, in edge-mask order."""
    if not 1 <= n <= 7:
        raise ValueError("enumeration supports 1 <= n <= 7")
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    npairs = len(pairs)
    for mask in range(1 << npairs):
        rows = [0] * n
        for b in range(npairs):
            if mask >> b & 1:
                i, j = pairs[b]
                rows[i] |= 1 << j
                rows[j] |= 1 << i
        g = Graph._make(tuple(rows))
        if connected_only and not is_connected(g):
            continue
        yield g
