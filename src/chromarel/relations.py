"""Implicit chromatic relations, criticality, and non-extensible precolorings.

A pair {u,v} of a k-chromatic graph (k = chi(g)) is an implicit edge when no
coloring of g-uv into {1..k} gives u and v the same color, and an implicit
identity when none gives them different colors. The edge uv is removed first
when present, so the relations are independent of adjacency. Each relation
can be decided two ways: by direct colorability (the definition route) or by
searching the maximal independent sets for one whose removal drops the
chromatic number (the set route). scan_relations runs both and refuses to
return if they ever disagree; its first witness is g's chi-coloring in
coloring's memo of solver answers. The public way to decide one pair alone is
implicit_via_sets, the set route; the catalog checks that ask about one pair
of a derived graph use the private _related, one lookup in that memo on the
pair rows that the definition route colors. The catalog reads a graph's
relation list from its set table, which caches the scan's output.
"""

from __future__ import annotations

import functools
import itertools
from enum import Enum
from typing import NamedTuple

from .coloring import _chromatic, _coloring_of, _dsatur, _extension, chromatic_number
from .graphs import (
    Graph,
    _bits,
    _component_of,
    _free_of,
    _keep_rows,
    _maximal_sets,
    _memo,
    _merge_rows,
    _toggle_rows,
)


class RelationKind(Enum):
    EDGE = "edge"
    IDENTITY = "identity"


class ImplicitRelation(NamedTuple):
    u: int
    v: int
    kind: RelationKind
    k: int  # chromatic level at which the relation holds
    adjacent: bool  # whether uv was an edge of the original graph


class RouteDisagreementError(RuntimeError):
    """The definition route and the set route returned different answers.

    This is never expected; it indicates a defect in one of the two engines.
    """

    def __init__(self, g: Graph, u: int, v: int, kind: RelationKind,
                 definition_answer: bool, set_answer: bool):
        from .io import serialize_graph

        self.graph6 = serialize_graph(g, "graph6")
        self.u = u
        self.v = v
        self.kind = kind
        self.definition_answer = definition_answer
        self.set_answer = set_answer
        super().__init__(
            f"route disagreement on pair ({u},{v}) kind={kind.value} of "
            f"{self.graph6!r}: definition={definition_answer} set={set_answer}"
        )

    def __reduce__(self):
        # replay __init__ from the stored fields, so the error crosses a
        # process boundary
        from .io import parse_graph

        return type(self), (parse_graph(self.graph6, "graph6"), self.u, self.v, self.kind,
                            self.definition_answer, self.set_answer)


def _pair_rows(rows: tuple[int, ...], u: int, v: int, kind: RelationKind) -> tuple[int, ...]:
    """Rows of the graph a pair question colors: g-uv with u and v merged
    for an edge, which a coloring giving them one color refutes, and g+uv
    for an identity, which one separating them refutes."""
    if kind is RelationKind.EDGE:
        return _merge_rows(rows, u, v)
    return rows if rows[u] >> v & 1 else _toggle_rows(rows, u, v)


def _witness(rows: tuple[int, ...], u: int, v: int, kind: RelationKind,
             k: int) -> tuple[int, ...] | None:
    """Colors of a k-coloring of g-uv that refutes uv as a relation of the
    kind, or None: one solver call on the pair rows, outside the memo, as
    the scan's witness pool keeps what it learns."""
    colors = _dsatur(_pair_rows(rows, u, v, kind), k)
    if colors is None:
        return None
    if kind is RelationKind.IDENTITY:
        return colors
    # the merge keeps the lower endpoint a and drops b: b takes a's color
    a, b = min(u, v), max(u, v)
    return colors[:b] + colors[a : a + 1] + colors[b:]


def _related(rows: tuple[int, ...], u: int, v: int, kind: RelationKind) -> bool:
    """Whether uv is a relation of the kind: one memo lookup at chi(g)."""
    return _coloring_of(_pair_rows(rows, u, v, kind), _chromatic(rows)) is None


class CriticalityReport(NamedTuple):
    k: int
    critical_vertices: tuple[int, ...]
    critical_edges: tuple[tuple[int, int], ...]
    is_vertex_critical: bool
    is_critical: bool
    is_double_critical: bool


class _SetTable:
    """The set route's facts about one graph g, k = chi(g) >= 1.

    A vertex set S lowers when g-S is (k-1)-colorable: the one decision
    behind the relation answers, critical_sets and criticality. _lowers
    decides an independent set by the solver, or with no call when it holds
    a set already known to lower (deleting more vertices never raises chi)
    or lies inside one known not to. A set with at most one free vertex lies
    inside no independent set but itself and one maximal set, so only the
    certificates and the solver decide it. A (k-1)-coloring of g-S is, with
    S, a k-coloring of g, so each of its classes lowers as well: S and those
    classes are the table's certificates. They come only from the table's
    own solver calls on independent sets of g. The maximal independent sets
    that lower are listed once, when a relation question or critical_sets
    first needs them, so criticality alone never enumerates them. The memo
    hands every caller the same table, which only ever learns facts about g
    and computes each cached fact once: critical_sets, criticality and the
    scan's output, relations, which the definition route never reads.
    """

    def __init__(self, rows: tuple[int, ...]):
        self.rows = rows
        self.full = (1 << len(rows)) - 1
        self.k = _chromatic(rows)
        self.certs: dict[int, None] = {}  # independent sets known to lower, in order
        self.blocked: dict[int, None] = {}  # independent sets known not to lower, in order

    @functools.cached_property
    def lowering(self) -> list[int]:
        """The maximal independent sets that lower."""
        return [m for m in _maximal_sets(self.rows, 0) if self._lowers(m)]

    @functools.cached_property
    def together(self) -> list[int]:
        """together[x]: the union of the lowering maximal sets holding x."""
        out = [0] * len(self.rows)
        for m in self.lowering:
            for x in _bits(m):
                out[x] |= m
        return out

    @functools.cached_property
    def apart(self) -> list[int]:
        """apart[x]: the vertices some lowering maximal set holding x misses."""
        out = [0] * len(self.rows)
        for m in self.lowering:
            for x in _bits(m):
                out[x] |= self.full ^ m
        return out

    def _coloring_without(self, s: int) -> tuple[int, ...] | None:
        return _coloring_of(_keep_rows(self.rows, self.full ^ s), self.k - 1)

    def _lowers(self, s: int) -> bool:
        """Whether the independent set s lowers chi; a solver call's answer
        joins the table."""
        if any(not c & ~s for c in self.certs):
            return True
        # a set with no free vertex is maximal, and one whose only free
        # vertex is x lies inside no independent set but itself and s + x:
        # the memo of solver answers holds the first, and the second costs
        # one solver call, so only two or more free vertices pay the scan
        free = _free_of(self.rows, s)
        if free & (free - 1) and any(not s & ~b for b in self.blocked):
            return False
        coloring = self._coloring_without(s)
        if coloring is None:
            self.blocked[s] = None
            return False
        kept = list(_bits(self.full ^ s))
        classes = [0] * (self.k - 1)
        for i, c in enumerate(coloring):
            classes[c - 1] |= 1 << kept[i]
        self.certs.update(dict.fromkeys([s, *filter(None, classes)]))
        return True

    @functools.cached_property
    def critical_sets(self) -> tuple[int, ...]:
        """Masks of the nonempty independent S with chi(g - S) = chi(g) - 1, in
        lexicographic order.

        Removing an independent set lowers chi by at most one, so these are the
        sets that lower. Each lies inside a maximal independent set, which
        lowers too, so the candidates are the nonempty subsets of the lowering
        maximal sets; the certificates settle most of them with no solver call.
        """
        if not self.rows:
            return ()
        candidates = set()
        for m in self.lowering:
            s = m
            while s:
                candidates.add(s)
                s = (s - 1) & m
        ordered = sorted(candidates, key=lambda s: tuple(_bits(s)))
        return tuple(s for s in ordered if self._lowers(s))

    @functools.cached_property
    def criticality(self) -> CriticalityReport:
        """g's criticality report; see criticality."""
        rows, k, full = self.rows, self.k, self.full
        crit = 0
        for v in range(len(rows)):
            if self._lowers(1 << v):
                crit |= 1 << v
        edges = Graph._make(rows).edges()
        crit_e = [
            (u, v)
            for u, v in edges
            if crit >> u & crit >> v & 1
            and _coloring_of(_toggle_rows(rows, u, v), k - 1) is not None
        ]
        double = not any(rows[x] for x in _bits(full ^ crit)) and all(
            _coloring_of(_keep_rows(rows, full ^ (1 << u | 1 << v)), k - 2) is not None
            for u, v in edges
        )
        vertex_critical = crit == full
        return CriticalityReport(
            k=k,
            critical_vertices=tuple(_bits(crit)),
            critical_edges=tuple(crit_e),
            is_vertex_critical=vertex_critical,
            is_critical=vertex_critical and len(crit_e) == len(edges),
            is_double_critical=double,
        )

    @functools.cached_property
    def relations(self) -> tuple[ImplicitRelation, ...]:
        """g's cross-validated scan, whose set route fills this same table."""
        return tuple(scan_relations(Graph._make(self.rows)))

    def edge(self, u: int, v: int) -> bool:
        if not self.rows[u] >> v & 1:
            return not self.together[u] >> v & 1
        # a known lowering set that u and v can join lies in one of the
        # maximal sets of g-uv holding both, and that set lowers too
        uv = 1 << u | 1 << v
        near = (self.rows[u] | self.rows[v]) & ~uv
        if any(not c & near for c in self.certs):
            return False
        # these sets are not independent in g, so the colorings that decide
        # them must not become certificates
        return all(
            self._coloring_without(s) is None
            for s in _maximal_sets(_toggle_rows(self.rows, u, v), uv)
        )

    def identity(self, u: int, v: int) -> bool:
        if self.apart[v] >> u & 1:
            return False
        # every lowering maximal set holding v holds u as well
        both = 1 << u | 1 << v
        return not any(
            self._lowers(m ^ 1 << u) for m in self.lowering if m & both == both
        )


@_memo
def _set_relations(rows: tuple[int, ...]) -> _SetTable:
    return _SetTable(rows)


def implicit_via_sets(g: Graph, u: int, v: int, kind: RelationKind) -> bool:
    """Decide a relation through the independent-set characterization.

    Edge: {u,v} is an implicit edge iff no independent set of g-uv contains
    both endpoints and has chi(g - S) < chi(g). Identity: {u,v} is an
    implicit identity iff no independent set of g-u contains v and has
    chi(g - S) < chi(g). Deleting more vertices never raises chi, so such a
    set exists iff one inside a maximal independent set M of g does: for a
    nonadjacent pair's edge, M itself holding both ends; for an identity,
    M holding v, or M-u when M holds u too. Only an adjacent pair's edge
    needs the maximal sets of g-uv instead. Every answer is a lookup into
    the graph's memoized table, which enumerates the maximal sets once.
    """
    g.has_edge(u, v)  # refuses a vertex outside g
    if u == v:
        raise ValueError("pair endpoints must differ")
    if kind is RelationKind.EDGE:
        return _set_relations(g.rows).edge(u, v)
    if kind is RelationKind.IDENTITY:
        return _set_relations(g.rows).identity(u, v)
    raise ValueError(f"unknown relation kind {kind!r}")


def _chain(rows: tuple[int, ...], u: int, v: int, within: int) -> int:
    """The Kempe chain through u inside the mask `within` in g-uv, or 0 when
    it reaches v.

    g and g-uv differ only in the pair uv. The walk takes u's step itself,
    to u's neighbors other than v, and then stays inside `within` minus u,
    so no later step can cross uv: it reads g's own rows, with no copy of
    the rows of g-uv. The witness pool's adjacent-pair walks and the KEMPE
    check pass two color classes; the BIP checks pass every vertex, so that
    0 says u reaches v in g-uv at all.
    """
    first = rows[u] & ~(1 << v) & within
    if not first:
        return 1 << u
    chain = _component_of(rows, first, within & ~(1 << u), 1 << v)
    return chain | 1 << u if chain else 0


class _WitnessPool:
    """Proper k-colorings of g, and the pair questions they already settle.

    Each coloring is kept as its color-class masks, one per color up to its
    largest, with its colors, so the class of a vertex x is colors[x] - 1,
    read with no scan. same[u] has bit v once some k-coloring of g-uv gives
    u and v one color, so uv is no edge relation; differ[u] has bit v once
    one gives them distinct colors, so uv is no identity. Only proper
    colorings of g enter the pool, and every pool coloring separates each
    adjacent pair. refutes answers the one pair question of the definition
    route. min_nonextensible keeps a pool too, but reads only its colorings
    and bits and never asks it.
    """

    def __init__(self, rows: tuple[int, ...], k: int):
        self.rows = rows
        self.k = k
        self.full = (1 << len(rows)) - 1
        self.same = [0] * len(rows)
        self.differ = [0] * len(rows)
        self.colorings: list[tuple[list[int], tuple[int, ...]]] = []  # (classes, colors)

    def add(self, colors: tuple[int, ...]) -> None:
        classes = [0] * max(colors, default=0)
        for x, c in enumerate(colors):
            classes[c - 1] |= 1 << x
        for cls in classes:
            other = self.full ^ cls
            for x in _bits(cls):
                self.same[x] |= cls
                self.differ[x] |= other
        self.colorings.append((classes, colors))

    def refutes(self, u: int, v: int, kind: RelationKind) -> bool:
        """Whether some k-coloring of g-uv refutes uv as a relation of the
        kind: gives u and v one color (edge) or distinct colors (identity).

        The pool's bit answers first; it settles an adjacent pair's identity
        question, as every pool coloring separates the pair. An adjacent
        pair's edge question is about g-uv, which no bit of the pool can
        answer, so each pool coloring, newest first, walks its {c(u),c(v)}
        Kempe chain through u in g-uv: one that misses v settles the
        question, since flipping it would give u the color of v. No flipped
        coloring is built. Last, one solver call. A nonadjacent pair's
        witness colors g and joins the pool; an adjacent pair's colors g-uv
        only, so it answers this question and leaves the pool as it was.
        """
        if (self.same if kind is RelationKind.EDGE else self.differ)[u] >> v & 1:
            return True
        rows = self.rows
        adjacent = rows[u] >> v & 1
        if adjacent:
            for classes, colors in reversed(self.colorings):
                if _chain(rows, u, v, classes[colors[u] - 1] | classes[colors[v] - 1]):
                    return True
        colors = _witness(rows, u, v, kind, self.k)
        if colors is None:
            return False
        if not adjacent:
            self.add(colors)
        return True


def scan_relations(g: Graph, cross_validate: bool = True) -> list[ImplicitRelation]:
    """Classify every unordered pair at k = chi(g).

    The definition route asks one question per pair and kind: does some
    k-coloring of g-uv refute it? A pool of witness k-colorings of g, starting
    from the memo's, answers it by a bit, then, for an adjacent pair only, by
    a Kempe chain walk in g-uv, and only then by one call of the exact
    solver, which colors g-uv with u and v merged for the edge question and
    g+uv for the identity question.

    The relations proven so far settle more pairs with no call. Every
    k-coloring of g gives an identity pair one color, so identities form
    classes, and a pair inside one class is an identity. Every k-coloring
    separates adjacent vertices and nonadjacent edge relations, so a pair
    whose classes hold such a pair is no identity and, when nonadjacent, an
    edge relation. An adjacent pair's edge question is about g-uv, so these
    rules never answer it, and it is never an identity. Every negative
    answer therefore rests on a concrete coloring, and every relation on a
    solver refutation or on the refutations it was derived from.

    Three sweeps ask the questions, each in lexicographic order: the
    identity question of every nonadjacent pair, then its edge question,
    then the edge question of every adjacent pair. The identity classes are
    thus complete before any edge question, and closure derives every edge
    relation that one edge or one proven edge relation between two classes
    implies. A nonadjacent pair's witness colors g and joins the pool; an
    adjacent pair's colors g-uv and does not, so each adjacent pair meets
    the fullest pool the scan builds.

    With cross_validate (the default) every answer is then recomputed
    through the independent-set route, pair by pair in lexicographic order,
    and the first disagreement aborts the scan. The relations come back in
    that order too.
    """
    k = chromatic_number(g)
    rows = g.rows
    pool = _WitnessPool(rows, k)
    pool.add(_coloring_of(rows, k))
    # ident[x]: x's identity class so far; apart[x]: the vertices that every
    # k-coloring of g separates from some member of that class, as they are
    # adjacent or proven edge relations
    ident = [1 << x for x in range(g.n)]
    apart = list(rows)
    pairs = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)]
    nonadjacent = [(u, v) for u, v in pairs if not rows[u] >> v & 1]
    related: dict[tuple[int, int], RelationKind] = {}
    # the identity sweep; a pair whose classes are kept apart is no identity
    for u, v in nonadjacent:
        if ident[u] >> v & 1:
            related[u, v] = RelationKind.IDENTITY
        elif not (apart[u] & ident[v] or pool.refutes(u, v, RelationKind.IDENTITY)):
            related[u, v] = RelationKind.IDENTITY
            merged = ident[u] | ident[v]
            outside = apart[u] | apart[v]
            for x in _bits(merged):
                ident[x] = merged
                apart[x] = outside
    # the nonadjacent edge sweep, over the final identity classes
    for u, v in nonadjacent:
        if ident[u] >> v & 1:
            continue
        if not apart[u] & ident[v]:
            if pool.refutes(u, v, RelationKind.EDGE):
                continue
            for x in _bits(ident[u]):
                apart[x] |= 1 << v
            for x in _bits(ident[v]):
                apart[x] |= 1 << u
        related[u, v] = RelationKind.EDGE
    # the adjacent edge sweep
    for u, v in g.edges():
        if not pool.refutes(u, v, RelationKind.EDGE):
            related[u, v] = RelationKind.EDGE
    out: list[ImplicitRelation] = []
    for u, v in pairs:
        kind = related.get((u, v))
        if cross_validate:
            # edge first, as RelationKind lists it
            for asked in RelationKind:
                by_sets = implicit_via_sets(g, u, v, asked)
                if (kind is asked) != by_sets:
                    raise RouteDisagreementError(g, u, v, asked, kind is asked, by_sets)
        if kind is not None:
            out.append(ImplicitRelation(u, v, kind, k, bool(rows[u] >> v & 1)))
    return out


def criticality(g: Graph) -> CriticalityReport:
    """Which vertices and edges lower chi when removed, plus summary flags.

    A vertex v is critical when {v} lowers, which the graph's set table
    decides: a non-lowering set it already holds settles v with no solver
    call. An edge uv is critical when g-uv is (k-1)-colorable, and g is
    double-critical when g-u-v is (k-2)-colorable for every edge uv; each is
    one memoized solver call, so chi(g) is the only chromatic number taken.
    g-u is a subgraph of g-uv, so chi(g-uv) < chi(g) forces u and v to be
    critical vertices: only edges between two of them are tested. Likewise
    a noncritical vertex x with a neighbour y leaves chi(g-x-y) >= chi(g)-1,
    so g is then not double-critical and no vertex pair is tested. The
    report is computed once per set table, and each call returns it.
    """
    return _set_relations(g.rows).criticality


@_memo
def _growth_patterns(size: int, k: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Color patterns of length `size` into {1..k}, one per palette-permutation
    class, each with the mask of position pairs that share a color.

    Classes appear in first-use order (restricted growth), which is exactly
    one representative per orbit of the palette symmetry group; the patterns
    come in lexicographic order. Bit b of a mask stands for the b-th pair of
    itertools.combinations(range(size), 2).
    """
    patterns: list[tuple[int, ...]] = [()]
    for _ in range(size):
        patterns = [
            p + (c,) for p in patterns for c in range(1, min(max(p, default=0) + 1, k) + 1)
        ]
    pairs = list(itertools.combinations(range(size), 2))
    return tuple(
        (p, sum(1 << b for b, (i, j) in enumerate(pairs) if p[i] == p[j])) for p in patterns
    )


def _pool_extends(pool: _WitnessPool, domain: tuple[int, ...], pattern: tuple[int, ...]) -> bool:
    """True if a pool coloring matches the pattern up to a palette permutation.

    Each pattern color class must lie inside one class of the coloring, and
    distinct pattern classes must land in distinct classes: renaming the
    colors then turns that coloring into a completion of the pattern.
    """
    if len(domain) == 2:
        u, v = domain
        bits = pool.same[u] if pattern[0] == pattern[1] else pool.differ[u]
        return bool(bits >> v & 1)
    parts = [0] * max(pattern)
    for x, c in zip(domain, pattern):
        parts[c - 1] |= 1 << x
    for classes, colors in reversed(pool.colorings):
        used = 0
        for part in parts:
            i = colors[(part & -part).bit_length() - 1] - 1
            if part & ~classes[i] or used >> i & 1:
                break
            used |= 1 << i
        else:
            return True
    return False


def min_nonextensible(g: Graph, k: int, max_size: int = 3) -> dict[int, int] | None:
    """Smallest non-extensible proper precoloring with at most max_size vertices.

    Sweeps sizes in increasing order, pruning palette permutations, and stops
    at the first certificate, a vertex-to-color dict sorted by vertex. It is
    minimal among nonempty precolorings: below chi(g) even the empty one
    does not extend. None means every proper precoloring of size up to
    max_size extends to a full coloring into {1..k}; nothing is claimed
    about larger sizes. A max_size below 1 checks nothing, so it raises
    ValueError.

    The call keeps the k-colorings its own solver questions return in a
    witness pool. A pattern that one of them matches up to a palette
    permutation extends and needs no question; each other pattern is asked
    of the memo of solver answers as its pattern graph (see k_colorable),
    so a size-1 pattern reads g's own entry, and the coloring of g it gives
    joins the pool unrenamed. Every "extends" therefore rests on a proper
    coloring and the certificate on a solver refutation, and the sweep
    order, hence the certificate, is that of one solver call per pattern.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if max_size < 1:
        raise ValueError("max_size must be at least 1")
    rows = g.rows
    pool = _WitnessPool(rows, k)
    for size in range(1, min(max_size, g.n) + 1):
        patterns = _growth_patterns(size, k)
        pairs = list(enumerate(itertools.combinations(range(size), 2)))
        for domain in itertools.combinations(range(g.n), size):
            # a proper pattern gives no adjacent pair of the domain one color
            adjacent = 0
            for b, (i, j) in pairs:
                if rows[domain[i]] >> domain[j] & 1:
                    adjacent |= 1 << b
            for pattern, shared in patterns:
                if shared & adjacent or _pool_extends(pool, domain, pattern):
                    continue
                # the pattern is proper, so its class masks are the question
                parts = [0] * max(pattern)
                for x, c in zip(domain, pattern):
                    parts[c - 1] |= 1 << x
                colors = _extension(rows, parts, k)
                if colors is None:
                    return dict(zip(domain, pattern))
                pool.add(colors)
    return None


def to_dot(g: Graph, relations=()) -> str:
    """GraphViz text; implicit edges dash red, identities dot blue."""
    styled = {}
    for r in relations:
        key = (min(r.u, r.v), max(r.u, r.v))
        if r.kind is RelationKind.EDGE:
            styled[key] = ' [style=dashed, color=red]'
        else:
            styled[key] = ' [style=dotted, color=blue]'
    lines = ["graph G {"]
    for u in range(g.n):
        lines.append(f'  {u} [label="{u}"];')
    for u, v in g.edges():
        lines.append(f"  {u} -- {v}{styled.pop((u, v), '')};")
    for (u, v), style in sorted(styled.items()):
        lines.append(f"  {u} -- {v}{style};")
    lines.append("}")
    return "\n".join(lines) + "\n"
