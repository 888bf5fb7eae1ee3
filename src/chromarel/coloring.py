"""Exact coloring: decision solver, chromatic number, counting, and the
color-class enumerator that the Kempe-chain checks walk. _coloring_of is the
package's one memo of solver answers; the chi ladder and the relations share it.

Colors are 1-based, and a k-coloring maps into {1..k}, not necessarily onto.
"""

from __future__ import annotations

from typing import Iterator, Mapping, NamedTuple

from .graphs import Graph, _bits, _component_masks, _keep_rows, _memo, _merge_rows, bipartition

_TOO_DEEP = "graph with {} vertices is too deep for the exact solver's recursion"


class Coloring(NamedTuple):
    """A proper assignment of colors 1..k, one entry per vertex."""

    assignment: tuple[int, ...]
    k: int

    def to_json_dict(self) -> dict:
        return {
            "version": 1,
            "n": len(self.assignment),
            "k": self.k,
            "assignment": list(self.assignment),
        }


def _check_palette(pre: Mapping[int, int], k: int) -> None:
    """Raise ValueError for a negative palette or a precolored color outside
    1..k, naming the first such entry in the mapping's order. It needs no
    graph, so the CLI makes it before any work when --extend gives k."""
    if k < 0:
        raise ValueError("palette size must be nonnegative")
    for v, c in pre.items():
        if not 1 <= c <= k:
            span = f" outside 1..{k}" if k else ": the palette is empty"
            raise ValueError(f"color {c} at vertex {v}{span}")


def _color_masks(g: Graph, pre: Mapping[int, int]) -> dict[int, int]:
    """The vertex mask of each color the precoloring uses. Raises ValueError
    for a precolored vertex outside g or a precolored edge whose ends share a
    color; a clash names the least precolored vertex that has one, then its
    least neighbor of the same color. Neither refusal needs the palette, so
    the CLI makes them before any work."""
    items = sorted(pre.items())
    masks: dict[int, int] = {}
    for v, c in items:
        g._check_vertex(v)
        masks[c] = masks.get(c, 0) | 1 << v
    for v, c in items:
        clash = g.rows[v] & masks[c]
        if clash:
            w = (clash & -clash).bit_length() - 1
            raise ValueError(f"precoloring is improper on edge ({v},{w})")
    return masks


def _extension(rows: tuple[int, ...], classes: list[int], k: int) -> tuple[int, ...] | None:
    """Colors of g extending the proper precoloring with these class masks up
    to a palette permutation, or None: the memo's answer on its pattern graph."""
    heads = [(cls & -cls).bit_length() - 1 for cls in classes]
    clique = sum(1 << a for a in heads)
    out = list(rows)
    for a in heads:
        out[a] |= clique ^ 1 << a
    merges = sorted((b, a) for cls, a in zip(classes, heads) for b in _bits(cls ^ 1 << a))
    for b, a in reversed(merges):  # highest first, so the ids below b hold
        out = _merge_rows(out, a, b)
    colors = _coloring_of(tuple(out), k)
    if colors is not None:
        for b, a in merges:  # lowest first: b takes its class vertex a's color
            colors = colors[:b] + colors[a : a + 1] + colors[b:]
    return colors


def k_colorable(g: Graph, k: int, pre: Mapping[int, int] | None = None) -> Coloring | None:
    """Find a proper coloring of g into {1..k} extending `pre`, a mapping
    from vertices to colors, or None. A color of `pre` outside 1..k, then a
    vertex outside g, then an improper edge raises ValueError, as does a
    graph too large for the search's recursion.

    Renaming colors is a symmetry of the palette, so a proper precoloring P
    extends at k iff its pattern graph is k-colorable: g with each color
    class of P merged into its lowest vertex, those vertices joined into a
    clique. The memo's coloring of it is given back to the merged vertices
    and renamed: each class vertex's color becomes its class's color in P,
    and the other colors in use, ascending, become the lowest colors that P
    leaves free. The search colors with 1..m, m <= n, so without P nothing
    is renamed, and memory grows with the graph, not with k.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    pre = pre or {}
    _check_palette(pre, k)
    masks = _color_masks(g, pre)
    try:
        colors = _extension(g.rows, list(masks.values()), k)
    except ValueError:  # the search names the pattern graph's vertex count
        raise ValueError(_TOO_DEEP.format(g.n)) from None
    if colors is None:
        return None
    rename = {colors[(cls & -cls).bit_length() - 1]: c for c, cls in masks.items()}
    free = (c for c in range(1, k + 1) if c not in masks)
    rename.update(zip(sorted(set(colors) - rename.keys()), free))
    return Coloring(tuple(rename[c] for c in colors), k)


def _dsatur(rows: tuple[int, ...], k: int) -> tuple[int, ...] | None:
    """Colors of the first coloring into {1..k} of the graph with these rows
    that exact backtracking (DSATUR) finds, or None. It branches on the
    uncolored vertex of most distinct neighbor colors (saturation), then
    higher degree, then lower index, and tries colors in ascending order.
    Colors no colored vertex holds are interchangeable, so a vertex tries
    only the lowest, at most top = min(k, n); a pruned branch is a palette
    image of an earlier one, so the first coloring found does not change.

    Saturation is kept bit-sliced, as in San Segundo's bitboard DSATUR:
    top.bit_length() masks, highest bit first, read as one binary count per
    vertex. near[c] masks the vertices with a neighbor of color c+1, so
    coloring v with it adds one to exactly rows[v] & uncolored & ~near[c],
    by a ripple carry into the child node's own copy of the masks. The
    branching vertex comes from narrowing the uncolored mask through the
    saturation masks from the highest bit down, then through the static
    degree masks, highest degree first, then taking the lowest bit. A color
    is free for v when v is outside its near mask. Only colors in use have
    a nonempty near mask, so the saturation s that the narrowing reads
    leaves v exactly |used| - s free colors in use: with none and no unused
    color left the node fails at once, and once the last of them is tried
    only the lowest unused color remains.

    The search recurses once per vertex it colors, so a graph too large for
    Python's recursion limit raises ValueError.
    """
    n = len(rows)
    top = min(k, n)
    levels = [0] * n  # levels[d] masks the vertices of degree d
    for v, r in enumerate(rows):
        levels[r.bit_count()] |= 1 << v
    by_degree = [level for level in reversed(levels) if level]
    near = [0] * top
    colors = [0] * n
    low = top.bit_length() - 1  # index of the counter's lowest bit
    full = (1 << top) - 1

    def rec(uncolored: int, used: int, sat: list[int]) -> bool:
        if not uncolored:
            return True
        # narrow to the most saturated vertices; s is their saturation
        pick = uncolored
        s = 0
        for plane in sat:
            s += s
            top = pick & plane
            if top:
                pick = top
                s += 1
        # the lowest color not in use, and how many colors in use are free
        new = (used + 1) & ~used & full
        left = used.bit_count() - s
        if not (left or new):
            return False
        if pick & (pick - 1):
            for level in by_degree:
                top = pick & level
                if top:
                    pick = top
                    break
        b = pick & -pick
        v = b.bit_length() - 1
        uncolored ^= b
        row = rows[v] & uncolored
        avail = used | new if left else new
        while avail:
            bit = avail & -avail
            avail ^= bit
            c = bit.bit_length() - 1
            seen = near[c]
            if seen & b:
                continue
            if bit != new:
                left -= 1
                if not left:
                    avail &= new
            near[c] = seen | row
            add = row & ~seen
            if add:
                child = sat[:]
                i = low
                while add:
                    plane = child[i]
                    child[i] = plane ^ add
                    add &= plane
                    i -= 1
            else:
                child = sat
            if rec(uncolored, used | bit, child):
                colors[v] = c + 1
                return True
            near[c] = seen
        return False

    try:
        found = rec((1 << n) - 1, 0, [0] * (low + 1))
    except RecursionError:
        raise ValueError(_TOO_DEEP.format(n)) from None
    return tuple(colors) if found else None


def _greedy_clique_size(rows: tuple[int, ...], order: list[int]) -> int:
    best = 1
    for seed in order[:4]:
        clique = 1 << seed
        common = rows[seed]
        while common:
            pick = -1
            for v in _bits(common):
                if pick < 0 or rows[v].bit_count() > rows[pick].bit_count():
                    pick = v
            clique |= 1 << pick
            common &= rows[pick]
        best = max(best, clique.bit_count())
    return best


def _greedy_coloring_size(rows: tuple[int, ...], order: list[int]) -> int:
    colors = [0] * len(rows)
    top = 0
    for v in order:
        used = 0
        for w in _bits(rows[v]):
            if colors[w]:
                used |= 1 << (colors[w] - 1)
        c = ((used + 1) & ~used).bit_length()  # lowest free color
        colors[v] = c
        top = max(top, c)
    return top


@_memo
def _coloring_of(rows: tuple[int, ...], k: int) -> tuple[int, ...] | None:
    """Colors of the solver's k-coloring of the graph with these rows, or
    None. The package's one memo of solver answers: every k_colorable call,
    the chi ladder, the scan's first coloring, the set tables, criticality
    and the catalog's pair questions meet the same graph again and again."""
    return _dsatur(rows, k)


def chromatic_number(g: Graph) -> int:
    """Exact chromatic number, memoized on the graph's rows by the package's
    bounded LRU memo; its ladder asks the memo of solver answers, _coloring_of."""
    return _chromatic(g.rows)


@_memo
def _chromatic(rows: tuple[int, ...]) -> int:
    order = sorted(range(len(rows)), key=lambda v: (-rows[v].bit_count(), v))
    ub = _greedy_coloring_size(rows, order)
    # greedy with at most two colors is optimal; a bipartite graph it colors
    # with three, such as a long tree, is too deep for the ladder's k = 2
    if ub <= 2 or bipartition(Graph._make(rows)) is not None:
        return min(ub, 2)
    comps = _component_masks(rows)
    if len(comps) > 1:
        # chi is the largest chi of a component; the ladder below, run on
        # the whole graph, would refute each k through every component
        return max(_chromatic(_keep_rows(rows, mask)) for mask in comps)
    lb = max(_greedy_clique_size(rows, order), 3)
    for k in range(lb, ub):
        if _coloring_of(rows, k) is not None:
            return k
    return ub


def _colorings(rows: tuple[int, ...], k: int) -> Iterator[tuple[list[int], list[int]]]:
    """Proper colorings into {1..k} of the graph with these rows, in
    lexicographic assignment order: vertices in index order, colors
    ascending.

    Yields the same two lists each time, updated in place: colors[v] is the
    color of v, and classes[c-1] masks the vertices of color c. Read them
    before asking for the next coloring.
    """
    n = len(rows)
    colors = [0] * n
    classes = [0] * k
    full = (1 << k) - 1

    def rec(v: int) -> Iterator[tuple[list[int], list[int]]]:
        if v == n:
            yield colors, classes
            return
        banned = 0
        for w in _bits(rows[v] & ((1 << v) - 1)):
            banned |= 1 << (colors[w] - 1)
        avail = full & ~banned
        bit_v = 1 << v
        while avail:
            bit = avail & -avail
            avail ^= bit
            c = bit.bit_length()
            colors[v] = c
            classes[c - 1] |= bit_v
            yield from rec(v + 1)
            classes[c - 1] ^= bit_v

    return rec(0)


def count_colorings(g: Graph, k: int) -> int:
    """Number of proper colorings of g into {1..k}.

    A search of its own, with neither the polynomial nor the solver:
    vertices go in index order, and each joins an earlier class it has no
    edge into or opens a new class while fewer than k are open, so each
    partition of the vertices into at most k independent classes is met
    once. A partition into j classes has k(k-1)...(k-j+1) colorings.

    The search recurses once per vertex, so a graph too large for Python's
    recursion limit raises ValueError.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    rows = g.rows
    n = len(rows)
    ways = [1]  # ways[j] = k(k-1)...(k-j+1)
    for j in range(min(k, n)):
        ways.append(ways[j] * (k - j))
    classes: list[int] = []

    def rec(v: int) -> int:
        if v == n:
            return ways[len(classes)]
        total = 0
        row = rows[v]
        for i, cls in enumerate(classes):
            if not cls & row:
                classes[i] = cls | 1 << v
                total += rec(v + 1)
                classes[i] = cls
        if len(classes) < k:
            classes.append(1 << v)
            total += rec(v + 1)
            classes.pop()
        return total

    try:
        return rec(0)
    except RecursionError:
        raise ValueError(
            f"graph with {n} vertices is too deep for the coloring count's recursion"
        ) from None
