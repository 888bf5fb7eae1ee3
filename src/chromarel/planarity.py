"""Planarity testing by path addition (Demoucron, Malgrange & Pertuiset 1964).

Each part sheds its trees, embeds a cycle, then adds one path at a time.
A fragment is a chord between embedded vertices, or a component of the rest
with the embedded vertices it attaches to; a face fits it when the face holds
all of them. Each step draws a path of a fragment with the fewest fitting
faces through one, which splits it; a fragment no face fits means nonplanar.
A piece attached at fewer than two vertices, such as another component or
the far side of a cut vertex, leaves the graph planar iff both sides are, so
it is tested as a part of its own. Exact, O(n*m), and iterative: no input is
too deep.
"""

from __future__ import annotations

from .graphs import Graph, _bits, _component_of, _reach


def _low(x: int) -> int:
    return (x & -x).bit_length() - 1


def _core(rows: tuple[int, ...], part: int) -> int:
    """part without its trees: a vertex with at most one neighbour left in
    part goes, until none is left."""
    leaves = [x for x in _bits(part) if (rows[x] & part).bit_count() <= 1]
    while leaves:
        x = leaves.pop()
        part ^= 1 << x
        leaves += [y for y in _bits(rows[x] & part) if (rows[y] & part).bit_count() == 1]
    return part


def _path(rows: tuple[int, ...], comp: int, attach: int) -> list[int]:
    """A path through comp between two distinct vertices of attach: from
    the least one, breadth first to the nearest vertex next to another."""
    a = _low(attach)
    others = attach ^ 1 << a
    ends = _reach(rows, others)
    levels = [1 << _low(rows[a] & comp)]
    while not levels[-1] & ends:
        comp &= ~levels[-1]
        levels.append(_reach(rows, levels[-1]) & comp)
    path = [_low(levels.pop() & ends)]
    for level in reversed(levels):
        path.append(_low(rows[path[-1]] & level))
    return [_low(rows[path[0]] & others)] + path + [a]


def _embeds(rows: tuple[int, ...], part: int, parts: list[int]) -> bool:
    """Whether the component of part that its first cycle lies in embeds in
    the plane; each piece attached to it at fewer than two vertices, another
    component among them, goes onto parts."""
    part = _core(rows, part)
    if not part:
        return True
    # every vertex of the core has two neighbours in it, so a walk that
    # never turns straight back meets itself
    x, back, walk = _low(part), 0, {}  # walk: each vertex's step number
    while x not in walk:
        walk[x] = len(walk)
        x, back = _low(rows[x] & part & ~back), 1 << x
    cycle = list(walk)[walk[x] :]
    # a face is its cyclic vertex list and its mask; a fragment is [its
    # component (0 for a chord), its attachments, the faces that fit it]
    faces = [(cycle, sum(1 << x for x in cycle))] * 2
    frags: list[list] = []
    # the cycle is drawn as a path from its first vertex back to it
    embedded = 1 << cycle[0]
    path, region, split = cycle + cycle[:1], part ^ embedded, [0, 1]
    while True:
        fresh = sum(1 << x for x in path[1:-1])
        embedded |= fresh
        region &= ~fresh
        # new chords (the undrawn edges at the path's inner vertices) and new
        # components touch those vertices, so only the two new faces fit them
        pieces = [(0, 1 << x | 1 << y) for i, x in enumerate(path[1:-1], 1)
                  for y in _bits(rows[x] & embedded & ~(1 << path[i - 1] | 1 << path[i + 1]))
                  if y > x or not fresh >> y & 1]
        while region:
            comp = _component_of(rows, region & -region, region)
            region ^= comp
            attach = _reach(rows, comp) & embedded
            if attach & (attach - 1):
                pieces.append((comp, attach))
            else:
                parts.append(comp | attach)
        frags += [[comp, attach, [f for f in split if not attach & ~faces[f][1]]]
                  for comp, attach in pieces]
        if not frags:
            return True
        best = min(frags, key=lambda frag: len(frag[2]))
        if not best[2]:
            return False
        frags.remove(best)
        region, attach, (f, *_) = best
        path = _path(rows, region, attach) if region else list(_bits(attach))
        # the path splits face f, read from its first vertex a to its last
        # b, into a..b back along the path, and b..a forward along it
        i = faces[f][0].index(path[0])
        cycle = faces[f][0][i:] + faces[f][0][:i]
        j = cycle.index(path[-1])
        one, two = cycle[: j + 1] + path[-2:0:-1], cycle[j:] + path[:-1]
        faces[f] = (one, sum(1 << x for x in one))
        faces.append((two, sum(1 << x for x in two)))
        split = [f, len(faces) - 1]
        for frag in frags:
            if f in frag[2]:
                fits = [h for h in split if not frag[1] & ~faces[h][1]]
                frag[2] = [h for h in frag[2] if h != f] + fits


def is_planar(g: Graph) -> bool:
    """Exact planarity test: at most four vertices are planar, more than
    3n-6 edges are not, and path addition decides the rest, one part at a
    time, starting from the whole graph: a part hands on each piece attached
    to it at fewer than two vertices."""
    if g.n <= 4:
        return True
    if g.m > 3 * g.n - 6:
        return False
    parts = [(1 << g.n) - 1]
    while parts:
        if not _embeds(g.rows, parts.pop(), parts):
            return False
    return True
