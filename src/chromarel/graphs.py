"""Immutable simple graphs on dense integer ids, with bitset adjacency."""

from __future__ import annotations

import functools
from typing import Iterable, Iterator

# The package's one memo. Memoized functions take ints and tuples only: a
# graph goes in as its rows tuple, never as a Graph. Past the cap the
# least recently used entry is evicted, so a long computation runs in bounded
# memory.
_MEMO_SIZE = 1 << 16
_memo = functools.lru_cache(maxsize=_MEMO_SIZE)


def _bits(x: int) -> Iterator[int]:
    """Yield the set bit positions of x in ascending order."""
    while x:
        b = x & -x
        yield b.bit_length() - 1
        x ^= b


class Graph:
    """Undirected simple graph whose vertices are exactly 0..n-1.

    Adjacency is stored as one integer bit row per vertex: bit v of
    ``rows[u]`` is set iff uv is an edge. Instances are immutable; a derived
    graph is built from rows by a kernel and wrapped with _make. Flipping a
    pair with _toggle_rows moves no id. The other kernels renumber by one
    rule: survivors keep their order, so survivor x gets the count of kept
    vertices below it. _keep_rows keeps the vertices of a mask; _merge_rows
    merges u and v into the lower of the two and drops the higher. SUBDIV
    appends its subdividing vertex w at id n.
    """

    # n is len(rows), kept in a slot that only __init__ and _make fill
    __slots__ = ("n", "rows")

    def __init__(self, rows: Iterable[int]):
        rows = tuple(rows)
        n = len(rows)
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
                span = f" outside 0..{n - 1}" if n else ": the graph has no vertices"
                raise ValueError(f"edge ({u},{v}){span}")
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

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in _bits(self.rows[u]) if u < v]

    def _check_vertex(self, u: int) -> None:
        if not (0 <= u < self.n):
            span = f" outside 0..{self.n - 1}" if self.n else ": the graph has no vertices"
            raise ValueError(f"vertex {u}{span}")

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
    """Rows after merging u and v into the lower endpoint a.

    a keeps its id and takes both neighbourhoods; the higher endpoint b goes,
    and one mask-and-shift per row moves the vertices above it down one, as
    _keep_rows renumbers them. Any uv edge disappears, so the relation
    scan's equal-color question, the polynomial's edge contraction and the
    POLY-IE/II checks share this kernel.
    """
    a, b = min(u, v), max(u, v)
    low = (1 << b) - 1
    out = [r & low | r >> (b + 1) << b | (r >> b & 1) << a for r in rows]
    out[a] = (out[a] | out.pop(b)) & ~(1 << a)
    return tuple(out)


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
