"""Exact coloring: decision solver, enumeration, counting, Kempe chains.

Colors are 1-based, and a k-coloring maps into {1..k}, not necessarily onto.
"""

from __future__ import annotations

from typing import Iterator, Mapping, NamedTuple

from .graphs import Graph, _bits, _component_of, _memo, bipartition


class Coloring(NamedTuple):
    """A proper assignment of colors 1..k, one entry per vertex."""

    assignment: tuple[int, ...]
    k: int

    def color(self, u: int) -> int:
        return self.assignment[u]

    def is_proper(self, g: Graph) -> bool:
        if len(self.assignment) != g.n:
            return False
        if any(not 1 <= c <= self.k for c in self.assignment):
            return False
        return all(self.assignment[u] != self.assignment[v] for u, v in g.edges())

    def to_json_dict(self) -> dict:
        return {
            "version": 1,
            "n": len(self.assignment),
            "k": self.k,
            "assignment": list(self.assignment),
        }


class Precoloring:
    """A partial proper assignment; colors drawn from 1..k."""

    __slots__ = ("assignment", "k")

    def __init__(self, assignment: Mapping[int, int], k: int):
        if k < 0:
            raise ValueError("palette size must be nonnegative")
        for v, c in assignment.items():
            if not 1 <= c <= k:
                raise ValueError(f"color {c} at vertex {v} outside 1..{k}")
        self.assignment = dict(sorted(assignment.items()))
        self.k = k

    def validate_against(self, g: Graph) -> None:
        """Raise unless the domain fits g and no precolored edge is monochrome."""
        for v in self.assignment:
            g._check_vertex(v)
        for v, c in self.assignment.items():
            for w in _bits(g.rows[v]):
                if self.assignment.get(w) == c:
                    raise ValueError(f"precoloring is improper on edge ({v},{w})")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Precoloring):
            return NotImplemented
        return self.assignment == other.assignment and self.k == other.k

    def __repr__(self) -> str:
        return f"Precoloring({self.assignment}, k={self.k})"


def k_colorable(g: Graph, k: int, pre: Precoloring | None = None) -> Coloring | None:
    """Find a proper coloring of g into {1..k} extending `pre`, or None.

    Exact backtracking search. The branching vertex is the uncolored vertex
    with the most distinctly-colored neighbors (saturation), ties broken by
    higher degree, then lower index; colors are tried in ascending order, so
    the search is deterministic. Without a precoloring, color classes are
    interchangeable and the palette is capped at one more than the number of
    colors in use.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    n = g.n
    colors = [0] * n
    banned = [0] * n  # bit c-1 set iff some neighbor has color c
    remaining = n
    if pre is not None:
        if pre.k > k:
            raise ValueError(f"precoloring palette {pre.k} exceeds k={k}")
        pre.validate_against(g)
        for v, c in pre.assignment.items():
            colors[v] = c
            remaining -= 1
        for v, c in pre.assignment.items():
            bit = 1 << (c - 1)
            for w in _bits(g.rows[v]):
                banned[w] |= bit
    canonical = pre is None or not pre.assignment
    full = (1 << k) - 1
    rows = g.rows
    deg = [r.bit_count() for r in rows]

    def rec(remaining: int, max_used: int) -> bool:
        if remaining == 0:
            return True
        best_v = -1
        best_key = None
        for v in range(n):
            if colors[v]:
                continue
            key = (banned[v].bit_count(), deg[v], -v)
            if best_key is None or key > best_key:
                best_key = key
                best_v = v
        v = best_v
        avail = full & ~banned[v]
        if canonical and max_used < k:
            avail &= (1 << (max_used + 1)) - 1
        while avail:
            bit = avail & -avail
            avail ^= bit
            c = bit.bit_length()
            colors[v] = c
            touched = []
            for w in _bits(rows[v]):
                if colors[w] == 0 and not banned[w] & bit:
                    banned[w] |= bit
                    touched.append(w)
            if rec(remaining - 1, max(max_used, c)):
                return True
            for w in touched:
                banned[w] ^= bit
            colors[v] = 0
        return False

    start_used = max((c for c in colors if c), default=0)
    if not rec(remaining, start_used):
        return None
    return Coloring(tuple(colors), k)


def _greedy_clique_size(g: Graph) -> int:
    if g.n == 0:
        return 0
    order = sorted(range(g.n), key=lambda v: (-g.rows[v].bit_count(), v))
    best = 1
    for seed in order[: min(4, g.n)]:
        clique = 1 << seed
        common = g.rows[seed]
        while common:
            pick = -1
            for v in _bits(common):
                if pick < 0 or g.rows[v].bit_count() > g.rows[pick].bit_count():
                    pick = v
            clique |= 1 << pick
            common &= g.rows[pick]
        best = max(best, clique.bit_count())
    return best


def _greedy_coloring_size(g: Graph) -> int:
    order = sorted(range(g.n), key=lambda v: (-g.rows[v].bit_count(), v))
    colors = [0] * g.n
    top = 0
    for v in order:
        used = 0
        for w in _bits(g.rows[v]):
            if colors[w]:
                used |= 1 << (colors[w] - 1)
        c = ((used + 1) & ~used).bit_length()  # lowest free color
        colors[v] = c
        top = max(top, c)
    return top


def chromatic_number(g: Graph) -> int:
    """Exact chromatic number, memoized on the graph value (n, rows) by the
    package's bounded LRU memo, shared across calls."""
    return _chromatic(g.n, g.rows)


@_memo
def _chromatic(n: int, rows: tuple[int, ...]) -> int:
    g = Graph._make(n, rows)
    if g.n == 0:
        return 0
    if all(r == 0 for r in g.rows):
        return 1
    if bipartition(g) is not None:
        return 2
    ub = _greedy_coloring_size(g)
    lb = max(_greedy_clique_size(g), 3)
    for k in range(lb, ub):
        if k_colorable(g, k) is not None:
            return k
    return ub


def colorings(g: Graph, k: int) -> Iterator[Coloring]:
    """Proper colorings of g into {1..k}, generated in lexicographic
    assignment order."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return _enumerate(g, k)


def _enumerate(g: Graph, k: int) -> Iterator[Coloring]:
    n = g.n
    colors = [0] * n
    rows = g.rows

    def rec(v: int) -> Iterator[Coloring]:
        if v == n:
            yield Coloring(tuple(colors), k)
            return
        banned = 0
        for w in _bits(rows[v]):
            if w < v:
                banned |= 1 << (colors[w] - 1)
        avail = ((1 << k) - 1) & ~banned
        while avail:
            bit = avail & -avail
            avail ^= bit
            colors[v] = bit.bit_length()
            yield from rec(v + 1)
        colors[v] = 0

    yield from rec(0)


@_memo
def _independent_partition_counts(n: int, rows: tuple[int, ...]) -> tuple[int, ...]:
    """counts[j] = partitions of the vertices into j nonempty independent classes.

    Computed by direct backtracking over vertices in index order, classes kept
    in first-use order so each partition is visited exactly once.
    """
    counts = [0] * (n + 1)
    class_masks: list[int] = []

    def rec(v: int) -> None:
        if v == n:
            counts[len(class_masks)] += 1
            return
        row = rows[v]
        for i, cm in enumerate(class_masks):
            if not cm & row:
                class_masks[i] = cm | 1 << v
                rec(v + 1)
                class_masks[i] = cm
        class_masks.append(1 << v)
        rec(v + 1)
        class_masks.pop()

    rec(0)
    return tuple(counts)


def count_colorings(g: Graph, k: int) -> int:
    """Number of proper colorings of g into {1..k}.

    Independent of the polynomial machinery: counts canonical colorings by
    backtracking, then multiplies by the injections of each class set into
    the palette.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    total = 0
    for j, nj in enumerate(_independent_partition_counts(g.n, g.rows)):
        if nj and j <= k:
            ways = 1
            for i in range(j):
                ways *= k - i
            total += nj * ways
    return total


class KempeChain(NamedTuple):
    """A maximal connected two-colored vertex set."""

    vertices: frozenset[int]
    colors: frozenset[int]


def kempe_chain(g: Graph, c: Coloring, u: int, b: int) -> KempeChain:
    """The Kempe chain through u on colors {c(u), b}."""
    g._check_vertex(u)
    a = c.color(u)
    if not 1 <= b <= c.k:
        raise ValueError(f"color {b} outside palette 1..{c.k}")
    if b == a:
        raise ValueError("chain colors must differ")
    member = 0
    for v, col in enumerate(c.assignment):
        if col == a or col == b:
            member |= 1 << v
    comp = _component_of(g.rows, 1 << u, member)
    return KempeChain(frozenset(_bits(comp)), frozenset((a, b)))

