"""Immutable simple graphs on dense integer ids, with bitset adjacency."""

from __future__ import annotations

import functools
from typing import Iterable, Iterator

# The package's one memo. Memoized functions take a graph's value, its rows
# tuple, or a Graph, which hashes and compares by its rows. Past the cap the
# least recently used entry is evicted, so a long computation runs in bounded
# memory.
_MEMO_SIZE = 1 << 16
_memo = functools.lru_cache(maxsize=_MEMO_SIZE)


class EditError(ValueError):
    """Raised when a graph edit's precondition is violated."""


def _bits(x: int) -> Iterator[int]:
    """Yield the set bit positions of x in ascending order."""
    while x:
        b = x & -x
        yield b.bit_length() - 1
        x ^= b


class Graph:
    """Undirected simple graph whose vertices are exactly 0..n-1.

    Adjacency is stored as one integer bit row per vertex: bit v of
    ``rows[u]`` is set iff uv is an edge. Instances are immutable; every
    edit returns a new Graph. Edge deletion and addition move no id, and
    subdividing an edge appends the new vertex at id n. Merging u and v
    keeps the other vertices in order, renumbers them densely and puts the
    merged vertex last, at id n-2. The induced-subgraph kernel _keep_rows
    keeps the survivors in order too, so survivor x gets the count of kept
    vertices below it.
    """

    # n is len(rows), kept in a slot that only __init__ and _make fill
    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows: Iterable[int]):
        rows = tuple(rows)
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        if len(rows) != n:
            raise ValueError(f"expected {n} adjacency rows, got {len(rows)}")
        for u, row in enumerate(rows):
            if row < 0 or row >> n:
                raise ValueError(f"row {u} references vertices outside 0..{n - 1}")
            if row >> u & 1:
                raise ValueError(f"loop at vertex {u}")
        for u in range(n):
            for v in _bits(rows[u]):
                if not rows[v] >> u & 1:
                    raise ValueError(f"edge {u}-{v} lacks its mirror entry")
        self.n = n
        self.rows = rows

    @classmethod
    def _make(cls, rows: tuple[int, ...]) -> Graph:
        # Trusted fast path: callers guarantee symmetry and loop-freeness.
        g = object.__new__(cls)
        g.n = len(rows)
        g.rows = rows
        return g

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> Graph:
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) outside 0..{n - 1}")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if rows[u] >> v & 1:
                raise ValueError(f"duplicate edge ({u},{v})")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls._make(tuple(rows))

    @property
    def m(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool(self.rows[u] >> v & 1)

    def neighbors(self, u: int) -> list[int]:
        self._check_vertex(u)
        return list(_bits(self.rows[u]))

    def degree(self, u: int) -> int:
        self._check_vertex(u)
        return self.rows[u].bit_count()

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in _bits(self.rows[u]) if u < v]

    def _check_vertex(self, u: int) -> None:
        if not (0 <= u < self.n):
            raise ValueError(f"vertex {u} outside 0..{self.n - 1}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def _toggle_rows(rows: tuple[int, ...], u: int, v: int) -> tuple[int, ...]:
    """Rows with the pair uv flipped: the edge goes if present, else comes.
    Every edge deletion and addition uses this kernel."""
    out = list(rows)
    out[u] ^= 1 << v
    out[v] ^= 1 << u
    return tuple(out)


def delete_edge(g: Graph, u: int, v: int) -> Graph:
    """Remove the edge uv."""
    if not g.has_edge(u, v):
        raise EditError(f"edge ({u},{v}) not present")
    return Graph._make(_toggle_rows(g.rows, u, v))


def add_edge(g: Graph, u: int, v: int) -> Graph:
    """Add the edge uv between distinct nonadjacent vertices."""
    if g.has_edge(u, v):
        raise EditError(f"edge ({u},{v}) already present")
    if u == v:
        raise EditError(f"loop at vertex {u}")
    return Graph._make(_toggle_rows(g.rows, u, v))


def _keep_rows(rows: tuple[int, ...], keep: int) -> tuple[int, ...]:
    """Rows of the subgraph induced on the vertex mask keep.

    Survivors keep their order and renumber densely: each maximal run of kept
    bits shifts down by the number of dropped vertices below it, so a row
    costs one mask-and-shift per run. Every vertex removal uses this kernel.
    """
    runs = []
    below = 0
    rest = keep
    while rest:
        low = rest & -rest
        above = rest & (rest + low)
        run = rest ^ above
        runs.append((run, low.bit_length() - 1 - below))
        below += run.bit_count()
        rest = above
    out = []
    for x in _bits(keep):
        r = rows[x]
        s = 0
        for run, shift in runs:
            s |= (r & run) >> shift
        out.append(s)
    return tuple(out)


def _merge_rows(rows: tuple[int, ...], u: int, v: int) -> tuple[int, ...]:
    """Rows after merging u and v into a new last vertex w.

    Survivors keep their order and renumber densely: bits a < b are squeezed
    out by mask-and-shift, and w is set wherever a row touched a or b. Any
    uv edge disappears, so identify_vertices, the relation scan's
    equal-color question and the polynomial's edge contraction share this
    kernel.
    """
    a, b = min(u, v), max(u, v)
    ab = 1 << a | 1 << b
    w = 1 << (len(rows) - 2)
    low = (1 << a) - 1
    mid = (1 << b) - (1 << (a + 1))
    out = []
    for x, r in enumerate(rows):
        if x == a or x == b:
            continue
        s = r & low | (r & mid) >> 1 | (r >> (b + 1)) << (b - 1)
        out.append(s | w if r & ab else s)
    r = (rows[a] | rows[b]) & ~ab
    out.append(r & low | (r & mid) >> 1 | (r >> (b + 1)) << (b - 1))
    return tuple(out)


def identify_vertices(g: Graph, u: int, v: int) -> tuple[Graph, dict[int, int]]:
    """Merge nonadjacent u and v into one vertex with the union neighborhood.

    The merged vertex is last, at id n-2. Returns the graph and the old-id to
    new-id mapping, which sends u and v both to n-2.
    """
    if g.has_edge(u, v):
        raise EditError(f"({u},{v}) is an edge; delete it first")
    if u == v:
        raise EditError("cannot identify a vertex with itself")
    a, b = min(u, v), max(u, v)
    w = g.n - 2
    id_map = {x: w if x == a or x == b else x - (x > a) - (x > b) for x in range(g.n)}
    return Graph._make(_merge_rows(g.rows, u, v)), id_map


def subdivide_edge(g: Graph, u: int, v: int) -> Graph:
    """Replace edge uv with a path u-w-v through a new vertex w = n."""
    if not g.has_edge(u, v):
        raise EditError(f"edge ({u},{v}) not present")
    w = g.n
    rows = list(g.rows)
    rows[u] ^= 1 << v | 1 << w
    rows[v] ^= 1 << u | 1 << w
    rows.append(1 << u | 1 << v)
    return Graph._make(tuple(rows))


def _reach(rows: tuple[int, ...], mask: int) -> int:
    """Mask of the neighbours of mask's vertices: the OR of their rows.

    Every bit-row walk steps with it: components, Kempe chains, the
    Bron-Kerbosch base, bipartiteness and planarity's paths."""
    out = 0
    while mask:
        b = mask & -mask
        out |= rows[b.bit_length() - 1]
        mask ^= b
    return out


def _component_of(rows: tuple[int, ...], start: int, within: int, stop: int = 0) -> int:
    """Mask of the vertices reachable from the mask `start` inside `within`.

    The walk goes level by level, and returns 0 as soon as a level touches
    the mask `stop`: a caller that asks whether v is reached passes 1 << v
    and need not finish the walk when it is. A nonempty start never gives
    an empty component, so 0 means stop is reachable."""
    comp = frontier = start
    while frontier:
        if frontier & stop:
            return 0
        frontier = _reach(rows, frontier) & within & ~comp
        comp |= frontier
    return comp


def _component_masks(rows: tuple[int, ...]) -> list[int]:
    """Vertex masks of the components, ordered by least vertex."""
    full = (1 << len(rows)) - 1
    seen = 0
    comps = []
    for s in range(len(rows)):
        if not seen >> s & 1:
            comp = _component_of(rows, 1 << s, full)
            seen |= comp
            comps.append(comp)
    return comps


def is_connected(g: Graph) -> bool:
    return len(_component_masks(g.rows)) <= 1


def bipartition(g: Graph) -> tuple[frozenset[int], frozenset[int]] | None:
    """The unique per-component 2-part split, or None if an odd cycle exists.

    Each component is walked level by level from its least vertex: an edge
    inside a level closes an odd cycle, and the even levels go left, so the
    least vertex does and the result is deterministic.
    """
    rows = g.rows
    full = (1 << g.n) - 1
    rest, right = full, 0
    while rest:
        level, odd = rest & -rest, False
        while level:
            nxt = _reach(rows, level)
            if nxt & level:
                return None
            if odd:
                right |= level
            rest &= ~level
            level, odd = nxt & rest, not odd
    return frozenset(_bits(full ^ right)), frozenset(_bits(right))


def common_neighbors(g: Graph, u: int, v: int) -> frozenset[int]:
    g._check_vertex(u)
    g._check_vertex(v)
    return frozenset(_bits(g.rows[u] & g.rows[v]))


def _free_of(rows: tuple[int, ...], base: int) -> int:
    """Mask of the vertices outside base with no neighbour in it."""
    return ((1 << len(rows)) - 1) & ~base & ~_reach(rows, base)


def _maximal_sets(rows: tuple[int, ...], base: int) -> Iterator[int]:
    """The vertex mask of each maximal independent set holding the
    independent mask base, once.

    A state is (chosen, open, closed): open vertices may still join, closed
    ones were branched on by an ancestor and may not. A state with neither
    left is maximal; one with only closed vertices left is not. Branching
    only on the pivot and its neighbours in open skips every subtree whose
    sets would be found again through the pivot (Bron-Kerbosch with
    Tomita, Tanaka and Takahashi's 2006 pivot). The order is a function of
    rows and base alone, but in general not lexicographic.
    """
    stack = [(base, _free_of(rows, base), 0)]
    while stack:
        chosen, open_, closed = stack.pop()
        if not open_:
            if not closed:
                yield chosen
            continue
        # pivot: the vertex whose closed neighbourhood meets open_ least;
        # a closed vertex that meets none ends the subtree
        branch = open_
        size = branch.bit_count()
        rest = open_ | closed
        while rest and size:
            b = rest & -rest
            rest ^= b
            hit = open_ & (rows[b.bit_length() - 1] | b)
            if hit.bit_count() < size:
                branch, size = hit, hit.bit_count()
        children = []
        while branch:
            b = branch & -branch
            branch ^= b
            keep = ~(rows[b.bit_length() - 1] | b)
            children.append((chosen | b, open_ & keep, closed & keep))
            open_ ^= b
            closed |= b
        stack.extend(reversed(children))
