"""Reference implementations used only to cross-check the library.

Everything here favors obviousness over speed: direct enumeration over all
assignments or all vertex partitions, rational interpolation. None of it
shares code with the algorithms under test.
"""

import collections
import functools
import itertools
from fractions import Fraction


def count_by_assignment(g, k):
    """Try every map V -> {1..k} and count the proper ones."""
    edges = g.edges()
    total = 0
    for assignment in itertools.product(range(k), repeat=g.n):
        if all(assignment[u] != assignment[v] for u, v in edges):
            total += 1
    return total


def colorings_by_assignment(g, k):
    """Every proper map V -> {1..k} as a color tuple, trying every map in
    lexicographic order."""
    edges = g.edges()
    return [
        assignment
        for assignment in itertools.product(range(1, k + 1), repeat=g.n)
        if all(assignment[u] != assignment[v] for u, v in edges)
    ]


def kempe_chain_by_bfs(g, assignment, u, b):
    """The vertices a breadth-first search reaches from u while it steps only
    onto vertices colored assignment[u] or b."""
    pair = {assignment[u], b}
    seen = {u}
    queue = collections.deque([u])
    while queue:
        x = queue.popleft()
        for y in range(g.n):
            if g.rows[x] >> y & 1 and y not in seen and assignment[y] in pair:
                seen.add(y)
                queue.append(y)
    return seen


def is_proper(g, colors, k):
    """Whether colors gives each vertex of g one color of 1..k and no edge
    of g one color at both ends."""
    if len(colors) != g.n:
        return False
    if any(not 1 <= c <= k for c in colors):
        return False
    return all(colors[u] != colors[v] for u, v in g.edges())


def bipartition_by_bfs(g):
    """Two-color each component by a queue search from its least vertex,
    which goes left; None when an edge joins two vertices of one color."""
    side = {}
    for s in range(g.n):
        if s in side:
            continue
        side[s] = 0
        queue = collections.deque([s])
        while queue:
            x = queue.popleft()
            for y in range(g.n):
                if not g.rows[x] >> y & 1:
                    continue
                if y not in side:
                    side[y] = 1 - side[x]
                    queue.append(y)
                elif side[y] == side[x]:
                    return None
    return (
        frozenset(x for x in side if side[x] == 0),
        frozenset(x for x in side if side[x] == 1),
    )


def chromatic_by_assignment(g):
    return _chromatic_by_assignment(g.n, tuple(g.edges()))


@functools.lru_cache(maxsize=None)
def _chromatic_by_assignment(n, edges):
    """The least k with some proper map V -> {1..k}, trying every map."""
    for k in range(n + 1):
        for assignment in itertools.product(range(k), repeat=n):
            if all(assignment[u] != assignment[v] for u, v in edges):
                return k
    raise AssertionError("n colors always suffice")


def criticality_by_assignment(g):
    """chi, then the vertices and the edges whose removal lowers chi, and
    whether removing both ends of every edge lowers it by two; every chi
    is found by trying all assignments of the relabeled remainder."""
    edges = g.edges()

    def chi_without(drop):
        keep = [x for x in range(g.n) if x not in drop]
        new = {x: i for i, x in enumerate(keep)}
        rest = tuple((new[a], new[b]) for a, b in edges if a in new and b in new)
        return _chromatic_by_assignment(len(keep), rest)

    k = chi_without(())
    vertices = tuple(x for x in range(g.n) if chi_without((x,)) < k)
    critical_edges = tuple(
        e for e in edges
        if _chromatic_by_assignment(g.n, tuple(f for f in edges if f != e)) < k
    )
    double = all(chi_without(e) == k - 2 for e in edges)
    return k, vertices, critical_edges, double


def set_partitions(items):
    """Every partition of items into nonempty blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [first]] + part[i + 1 :]
        yield [[first]] + part


@functools.lru_cache(maxsize=None)
def _partition_pair_masks(n):
    """Every partition of range(n), in set_partitions order, as its block
    count and the mask of its within-block pairs: bit u*n+v for u < v."""
    return tuple(
        (
            len(part),
            sum(
                1 << (u * n + v)
                for block in part
                for u, v in itertools.combinations(sorted(block), 2)
            ),
        )
        for part in set_partitions(list(range(n)))
    )


def independent_partition_block_counts(g):
    """Block counts of every vertex partition whose blocks are independent,
    found by scanning all partitions: a partition qualifies when none of its
    within-block pairs is an edge."""
    edges = sum(1 << (u * g.n + v) for u, v in g.edges())
    return [j for j, pairs in _partition_pair_masks(g.n) if not pairs & edges]


def count_by_partition(g, k, js=None):
    """Exhaust every vertex partition; partitions into independent blocks
    contribute one falling factorial each."""
    if js is None:
        js = independent_partition_block_counts(g)
    total = 0
    for j in js:
        ways = 1
        for i in range(j):
            ways *= k - i
        total += ways
    return total


def poly_by_interpolation(counts):
    """Ascending integer coefficients of the polynomial through (i, counts[i])."""
    pts = list(enumerate(counts))
    coeffs = [Fraction(0)] * len(pts)
    for i, (xi, yi) in enumerate(pts):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, (xj, _) in enumerate(pts):
            if j == i:
                continue
            nxt = [Fraction(0)] * (len(basis) + 1)
            for t, c in enumerate(basis):
                nxt[t + 1] += c
                nxt[t] -= xj * c
            basis = nxt
            denom *= xi - xj
        scale = Fraction(yi) / denom
        for t, c in enumerate(basis):
            coeffs[t] += scale * c
    assert all(c.denominator == 1 for c in coeffs), "points not polynomial-integral"
    return [int(c) for c in coeffs]


def relations_by_assignment(g):
    """Classify every pair by enumerating all chi-colorings of g minus uv.

    Returns {(u, v): "edge" | "identity"} for the pairs where every such
    coloring forces the pair together or apart; unconstrained pairs are
    absent.
    """
    k = chromatic_by_assignment(g)
    out = {}
    for u in range(g.n):
        for v in range(u + 1, g.n):
            edges = [e for e in g.edges() if e != (u, v)]
            seen_equal = seen_distinct = False
            for assignment in itertools.product(range(k), repeat=g.n):
                if any(assignment[a] == assignment[b] for a, b in edges):
                    continue
                if assignment[u] == assignment[v]:
                    seen_equal = True
                else:
                    seen_distinct = True
                if seen_equal and seen_distinct:
                    break
            if seen_distinct and not seen_equal:
                out[(u, v)] = "edge"
            elif seen_equal and not seen_distinct:
                out[(u, v)] = "identity"
    return out


def _independent(g, s):
    return not any(g.has_edge(a, b) for a, b in itertools.combinations(s, 2))


def maximal_independent_sets_by_subsets(g):
    """Every maximal independent set, found by testing every vertex subset:
    a subset is one exactly when its members are the vertices with no
    neighbour in it."""
    nbrs = [0] * g.n
    for a, b in g.edges():
        nbrs[a] |= 1 << b
        nbrs[b] |= 1 << a
    return [
        frozenset(x for x in range(g.n) if s >> x & 1)
        for s in range(1 << g.n)
        if all((s >> x & 1) == (not nbrs[x] & s) for x in range(g.n))
    ]


def induced_chromatic_numbers(g):
    """chi of the subgraph induced on every vertex subset, keyed by the
    sorted vertex tuple: strip one independent set holding the least vertex
    and take the best."""
    chi = {(): 0}
    for size in range(1, g.n + 1):
        for t in itertools.combinations(range(g.n), size):
            first, rest = t[0], t[1:]
            best = size
            for r in range(len(rest) + 1):
                for extra in itertools.combinations(rest, r):
                    block = (first, *extra)
                    if _independent(g, block):
                        left = tuple(x for x in t if x not in block)
                        best = min(best, 1 + chi[left])
            chi[t] = best
    return chi


def critical_sets_by_subsets(g):
    """The nonempty independent S with chi(g - S) = chi(g) - 1, as sorted
    vertex tuples in lexicographic order, by testing every vertex subset."""
    chi = induced_chromatic_numbers(g)
    full = tuple(range(g.n))
    return sorted(
        s
        for size in range(1, g.n + 1)
        for s in itertools.combinations(full, size)
        if _independent(g, s) and chi[tuple(x for x in full if x not in s)] == chi[full] - 1
    )


def relations_by_independent_sets(g):
    """Classify every pair by the independent-set characterization, over
    every vertex subset.

    uv is an edge relation iff no subset holding u and v, independent once
    uv is ignored, lowers chi when removed; an identity iff no independent
    subset holding v but not u does. Returns {(u, v): "edge" | "identity"}
    like relations_by_assignment.
    """
    chi = induced_chromatic_numbers(g)
    full = tuple(range(g.n))
    k = chi[full]
    lowering = [
        set(s)
        for size in range(g.n + 1)
        for s in itertools.combinations(full, size)
        if chi[tuple(x for x in full if x not in s)] < k
    ]
    out = {}
    for u, v in itertools.combinations(full, 2):
        edge = not any(
            u in s and v in s and _independent(g, s - {u}) and _independent(g, s - {v})
            for s in lowering
        )
        identity = not any(v in s and u not in s and _independent(g, s) for s in lowering)
        if edge:
            out[(u, v)] = "edge"
        elif identity:
            out[(u, v)] = "identity"
    return out


def _bit_positions(x):
    while x:
        b = x & -x
        yield b.bit_length() - 1
        x ^= b


def k_colorable_by_tuple_keys(g, k, pre=None):
    """The solver's search as it was written before its keys became integers:
    a fresh (saturation, degree, -index) tuple per uncolored vertex at every
    node, colors tried in ascending order. Returns the assignment of the
    first coloring found, or None, and raises ValueError with the solver's
    text, in the solver's order, on a bad precoloring, a vertex-to-color
    mapping."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    n = g.n
    colors = [0] * n
    banned = [0] * n  # bit c-1 set iff some neighbor has color c
    remaining = n
    if pre is not None:
        for v, c in pre.items():
            if not 1 <= c <= k:
                span = f" outside 1..{k}" if k else ": the palette is empty"
                raise ValueError(f"color {c} at vertex {v}{span}")
        pre = dict(sorted(pre.items()))
        for v in pre:
            if not (0 <= v < n):
                span = f" outside 0..{n - 1}" if n else ": the graph has no vertices"
                raise ValueError(f"vertex {v}{span}")
        for v, c in pre.items():
            for w in _bit_positions(g.rows[v]):
                if pre.get(w) == c:
                    raise ValueError(f"precoloring is improper on edge ({v},{w})")
        for v, c in pre.items():
            colors[v] = c
            remaining -= 1
        for v, c in pre.items():
            bit = 1 << (c - 1)
            for w in _bit_positions(g.rows[v]):
                banned[w] |= bit
    full = (1 << k) - 1
    rows = g.rows
    deg = [r.bit_count() for r in rows]

    def rec(remaining, used):
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
        # colors no colored vertex holds are interchangeable: try the ones
        # in use and only the lowest unused one
        avail = full & ~banned[v] & (used | ((used + 1) & ~used))
        while avail:
            bit = avail & -avail
            avail ^= bit
            c = bit.bit_length()
            colors[v] = c
            touched = []
            for w in _bit_positions(rows[v]):
                if colors[w] == 0 and not banned[w] & bit:
                    banned[w] |= bit
                    touched.append(w)
            if rec(remaining - 1, used | bit):
                return True
            for w in touched:
                banned[w] ^= bit
            colors[v] = 0
        return False

    if not rec(remaining, sum({1 << (c - 1) for c in colors if c})):
        return None
    return tuple(colors)


def pattern_graph_by_edges(g, pre):
    """The graph a proper precoloring's extension question colors: g with
    each color class of pre merged into its least vertex, and those
    vertices joined into a clique. Returns the graph and, for each vertex
    of g, the id of the vertex it became; the unmerged vertices keep their
    order."""
    from chromarel import Graph

    head = {}
    for v, c in sorted(pre.items()):
        head.setdefault(c, v)
    kept = [v for v in range(g.n) if v not in pre or head[pre[v]] == v]
    new = {v: i for i, v in enumerate(kept)}
    image = [new[head[pre[v]]] if v in pre else new[v] for v in range(g.n)]
    edges = {(min(image[u], image[v]), max(image[u], image[v])) for u, v in g.edges()}
    edges |= set(itertools.combinations(sorted(new[v] for v in head.values()), 2))
    return Graph.from_edges(len(kept), sorted(edges)), image


def pattern_coloring_by_tuple_keys(g, k, pre):
    """The coloring of g that extends pre, read from the reference search's
    coloring of the pattern graph, or None: each vertex takes its image's
    color, each class's color goes to the color pre gives it, and the
    other colors in use, ascending, to the least colors pre leaves free."""
    blocks = {}
    for v, c in sorted(pre.items()):
        blocks.setdefault(c, []).append(v)
    image, colors = _pattern_search(g, tuple(map(tuple, blocks.values())), k)
    if colors is None:
        return None
    rename = {colors[image[v]]: c for v, c in pre.items()}
    free = 0
    for c in sorted(set(colors) - set(rename)):
        free += 1
        while free in pre.values():
            free += 1
        rename[c] = free
    return tuple(rename[colors[image[v]]] for v in range(g.n))


@functools.lru_cache(maxsize=1 << 16)
def _pattern_search(g, blocks, k):
    """The pattern graph's image map and reference coloring for the
    precoloring whose color classes are blocks; every precoloring with
    those classes shares them, whatever its colors."""
    h, image = pattern_graph_by_edges(g, {v: i for i, b in enumerate(blocks, 1) for v in b})
    return image, k_colorable_by_tuple_keys(h, k)


@functools.lru_cache(maxsize=None)
def _chromatic_by_tuple_keys(g):
    """The least k at which k_colorable_by_tuple_keys finds a coloring."""
    k = 0
    while k_colorable_by_tuple_keys(g, k) is None:
        k += 1
    return k


def is_implicit_edge(g, u, v):
    """True iff no coloring of g-uv into {1..chi(g)} gives u and v one color:
    g-uv with u and v merged is not chi(g)-colorable. v's edges move to u,
    and the vertices above v move down by one."""
    from chromarel import Graph

    new = [x - (x > v) for x in range(g.n)]
    new[v] = new[u]
    merged = {
        (min(new[a], new[b]), max(new[a], new[b]))
        for a, b in g.edges()
        if {a, b} != {u, v}
    }
    h = Graph.from_edges(g.n - 1, sorted(merged))
    return k_colorable_by_tuple_keys(h, _chromatic_by_tuple_keys(g)) is None


def is_implicit_identity(g, u, v):
    """True iff no coloring of g-uv into {1..chi(g)} gives u and v distinct
    colors: g+uv is not chi(g)-colorable."""
    from chromarel import Graph

    edges = set(g.edges()) | {(min(u, v), max(u, v))}
    h = Graph.from_edges(g.n, sorted(edges))
    return k_colorable_by_tuple_keys(h, _chromatic_by_tuple_keys(g)) is None


def min_nonextensible_by_solver(g, k, max_size=3):
    """The non-extensible sweep with one solver call per pattern and no
    witness pool: sizes ascending, domains in combination order, proper
    restricted-growth patterns in lexicographic order. Returns the first
    stuck precoloring, a vertex-to-color dict, or None."""
    from chromarel import k_colorable

    for size in range(1, max_size + 1):
        patterns = [
            p
            for p in itertools.product(range(1, k + 1), repeat=size)
            if all(p[i] <= max(p[:i], default=0) + 1 for i in range(size))
        ]
        for domain in itertools.combinations(range(g.n), size):
            for pattern in patterns:
                if any(
                    pattern[i] == pattern[j] and g.has_edge(domain[i], domain[j])
                    for i, j in itertools.combinations(range(size), 2)
                ):
                    continue
                pre = dict(zip(domain, pattern))
                if k_colorable(g, k, pre) is None:
                    return pre
    return None


def implicit_via_sets_by_pairs(g, u, v, kind):
    """The set route as it was written before its per-graph table: for each
    question, enumerate the maximal sets that hold the pair, and climb to
    chi(g - S) for each until one lowers it."""
    from chromarel import RelationKind
    from chromarel.coloring import _chromatic
    from chromarel.graphs import _keep_rows, _maximal_sets

    rows = list(g.rows)
    if kind is RelationKind.EDGE:
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
        seed = 1 << u | 1 << v
    else:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        seed = 1 << v
    k = _chromatic(g.rows)
    full = (1 << g.n) - 1
    for s in _maximal_sets(tuple(rows), seed):
        if _chromatic(_keep_rows(g.rows, full ^ s)) < k:
            return False
    return True


def criticality_by_ladder(g):
    """criticality as it was written before the set table decided it: chi
    of g-v, g-uv and g-u-v, each climbed by the library's chi ladder.
    Returns the CriticalityReport's fields as a tuple."""
    from chromarel.coloring import _chromatic
    from chromarel.graphs import _bits, _keep_rows, _toggle_rows

    n, rows = g.n, g.rows
    k = _chromatic(rows)
    full = (1 << n) - 1

    def chi_without(drop):
        return _chromatic(_keep_rows(rows, full ^ drop))

    crit = 0
    for u in range(n):
        if chi_without(1 << u) < k:
            crit |= 1 << u
    edges = g.edges()
    crit_e = tuple(
        (u, v)
        for u, v in edges
        if crit >> u & crit >> v & 1 and _chromatic(_toggle_rows(rows, u, v)) < k
    )
    double = not any(rows[x] for x in _bits(full ^ crit)) and all(
        chi_without(1 << u | 1 << v) == k - 2 for u, v in edges
    )
    vertex_critical = crit == full
    return (
        k,
        tuple(_bits(crit)),
        crit_e,
        vertex_critical,
        vertex_critical and len(crit_e) == len(edges),
        double,
    )
