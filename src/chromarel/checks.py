"""Machine verification of the relation theorems over graph corpora.

Each check filters its hypotheses strictly and evaluates its conclusion on
every instance that qualifies; instances_run counts conclusion evaluations,
so a vacuous pass is visible as instances_run == 0. Failing instances are
embedded in reports as graph6 strings.

A check body takes one graph and returns an iterator, most often a
generator, with one item per instance whose conclusion it evaluates: None
when the conclusion holds, or the failure's (locus, expected, got) when it
does not. A str item is a note, not an instance. _evaluate is the one place
that counts instances and collects failures and notes.

IE2-EQ is the relation scan's own cross-validation: scan_relations compares
the definition route with the independent-set route on every decision, and
IE2-EQ reads that one scan, cached on the graph's set table with every
other per-graph fact, rather than deciding each pair again.
"""

from __future__ import annotations

import time
from collections import deque
from itertools import islice, repeat
from typing import Callable, Iterable, Iterator, NamedTuple

from .coloring import _colorings, chromatic_number
from .families import _member, enumerate_graphs, gnp
from .graphs import (
    Graph,
    bipartition,
    is_connected,
    _bits,
    _component_of,
    _keep_rows,
    _merge_rows,
    _toggle_rows,
)
from .io import _MAX_VERTICES, serialize_graph
from .planarity import is_planar
from .polynomial import chromatic_polynomial, evaluate
from .relations import (
    RelationKind,
    RouteDisagreementError,
    _chain,
    _related,
    _set_relations,
    criticality,
    min_nonextensible,
)

_Finding = tuple[str, str, str]  # locus, expected, got
_Item = _Finding | str | None  # what a check body yields; see the docstring
_CheckResult = tuple[int, list[_Finding], list[str]]  # ran, failures, notes
# the most worker processes a run may ask for. Under fork a process pool
# starts every worker at its first submit; 61 is the ceiling the standard
# library sets for one on Windows, held here on every platform
_MAX_JOBS = 61


class CorpusSpec(NamedTuple):
    """What to run a check over.

    families are generate() tokens (parameters after colons, e.g. "path:6").
    exhaustive_n adds every connected labeled graph of each order 1..n.
    random adds count seeded G(n,p) samples.
    """

    families: tuple[str, ...] = ()
    exhaustive_n: int | None = None
    random: tuple[int, float, int, int] | None = None  # n, p, seed, count


def iter_corpus(spec: CorpusSpec) -> Iterator[tuple[str, Graph]]:
    """Yield (name, graph) pairs in a deterministic order.

    A spec that names no graph, an exhaustive_n outside 1..7, and a random
    n or count below 1 raise ValueError before the first pair: a run over
    them would pass vacuously, and enumerate_graphs alone would refuse
    n = 8 only after sweeping every graph on up to seven vertices. The
    named graphs and the first random graph are built before the first
    pair too, so generate and gnp refuse a bad token or p at once, not
    after the sweep that comes before them. A graph whose failure graph6
    could not name, past _MAX_VERTICES, is refused from its parameters
    before any named graph is built.
    """
    if not (spec.families or spec.exhaustive_n is not None or spec.random is not None):
        raise ValueError("the corpus names no graph")
    n = spec.exhaustive_n
    if n is not None and not 1 <= n <= 7:
        raise ValueError(f"exhaustive n must be at least 1 and at most 7, got {n}")
    if spec.random is not None:
        n, p, seed, count = spec.random
        if n < 1 or count < 1:
            raise ValueError(f"random n and count must be at least 1, got n={n}, count={count}")
        if n > _MAX_VERTICES:
            raise ValueError(f"random n={n} is more than the {_MAX_VERTICES} vertices a reader accepts")
    members = [(token, *_member(*token.split(":"))) for token in spec.families]
    for token, order, _ in members:
        if order > _MAX_VERTICES:
            raise ValueError(f"{token}: {order} vertices is more than the {_MAX_VERTICES} a reader accepts")
    named = [(token, build()) for token, _, build in members]
    first = gnp(n, p, seed) if spec.random is not None else None
    yield from named
    if spec.exhaustive_n is not None:
        for k in range(1, spec.exhaustive_n + 1):
            for g in enumerate_graphs(k, connected_only=True):
                yield serialize_graph(g, "graph6"), g
    if spec.random is not None:
        for i in range(count):
            yield f"gnp({n},{p},{seed + i})", first if i == 0 else gnp(n, p, seed + i)


def _check_bip(g: Graph, parity: int) -> Iterator[_Item]:
    # On connected bipartite graphs, once uv is removed, the edge relation is
    # exactly "joined by an odd path" (parity 1) and the identity relation
    # exactly "joined by an even path" (parity 0). A u-v path in g-uv has
    # odd length exactly when g's bipartition puts u and v on opposite sides.
    # For a nonadjacent pair, g-uv is g, which is connected: only edges walk.
    parts = bipartition(g) if g.m and is_connected(g) else None
    if parts is None:
        return
    left = parts[0]
    kind = RelationKind.EDGE if parity else RelationKind.IDENTITY
    related = {(r.u, r.v) for r in _set_relations(g.rows).relations if r.kind is kind}
    rows = g.rows
    full = (1 << g.n) - 1
    for u in range(g.n):
        for v in range(u + 1, g.n):
            joined = not rows[u] >> v & 1 or not _chain(rows, u, v, full)
            expected = joined and ((u in left) != (v in left)) == bool(parity)
            got = (u, v) in related
            yield None if got == expected else (
                f"pair ({u},{v})", f"{kind.value} relation {expected}", str(got)
            )


def _check_ie2(g: Graph) -> Iterator[_Item]:
    # The cross-validating scan compares the two routes on each (pair, kind)
    # decision; a disagreement raises, and _evaluate records it
    _set_relations(g.rows).relations
    return repeat(None, g.n * (g.n - 1))


def _disagreement(g: Graph, e: RouteDisagreementError) -> _CheckResult:
    # The scan compares the two routes decision by decision, pair by pair,
    # edge before identity, and aborts at the first disagreement: that
    # decision is the failure, the decisions before it ran, and later pairs
    # of g go unreported.
    pair = sum(g.n - 1 - x for x in range(e.u)) + e.v - e.u - 1
    ran = 2 * pair + (1 if e.kind is RelationKind.EDGE else 2)
    finding = (
        f"pair ({e.u},{e.v}) {e.kind.value}",
        f"definition={e.definition_answer}",
        f"sets={e.set_answer}",
    )
    return ran, [finding], []


def _cis_recurse(
    rows: tuple[int, ...], u: int, v: int, kind: RelationKind, depth: int, desc: str
) -> Iterator[_Item]:
    full = (1 << len(rows)) - 1
    uv = 1 << u | 1 << v
    for s in _set_relations(rows).critical_sets:
        if s & uv:
            continue
        # g-S renumbers its survivors densely: x becomes the count of kept
        # vertices below it
        keep = full ^ s
        h = _keep_rows(rows, keep)
        hu = (keep & ((1 << u) - 1)).bit_count()
        hv = (keep & ((1 << v) - 1)).bit_count()
        where = f"{desc} minus {list(_bits(s))}"
        if not _related(h, hu, hv, kind):
            yield (where, f"{kind.value} relation preserved", "lost")
            continue
        yield None
        if depth > 1:
            yield from _cis_recurse(h, hu, hv, kind, depth - 1, where)


def _check_cis_inv(g: Graph) -> Iterator[_Item]:
    k = chromatic_number(g)
    for r in _set_relations(g.rows).relations:
        yield from _cis_recurse(g.rows, r.u, r.v, r.kind, max(1, k - 2), f"pair ({r.u},{r.v})")


def _check_kempe(g: Graph) -> Iterator[_Item]:
    # In every chi-coloring a relation first keeps its color rule: an edge
    # relation's ends differ, an identity's share a color. Then the chain in
    # g-uv through u on {c(u), i} reaches v, for i = c(v) at an edge and for
    # every other color i at an identity. relations._chain is that walk, the
    # one the witness pool takes for an adjacent pair's edge question; it
    # returns 0 once it reaches v. The assignment tuple is built only for a
    # failure's locus.
    rels = _set_relations(g.rows).relations
    if not rels:
        return
    k = chromatic_number(g)
    rows = g.rows
    for colors, cls in _colorings(rows, k):
        for r in rels:
            u, v = r.u, r.v
            cu, cv = colors[u], colors[v]
            edge = r.kind is RelationKind.EDGE
            if (cu == cv) == edge:
                yield (
                    f"{r.kind.value} pair ({u},{v}) in {tuple(colors)}",
                    "distinct colors" if edge else "equal colors",
                    "equal" if edge else "distinct",
                )
                continue
            for i in (cv,) if edge else range(1, k + 1):
                if i == cu:
                    continue
                if not _chain(rows, u, v, cls[cu - 1] | cls[i - 1]):
                    yield None
                    continue
                yield (
                    f"{r.kind.value} pair ({u},{v}) in {tuple(colors)}",
                    f"chain on {{{cu},{i}}} reaches {v}",
                    "chain misses it",
                )


def _check_poly(g: Graph, kind: RelationKind) -> Iterator[_Item]:
    # Merging a related pair in g-uv leaves P(merged, k) = 0 for an edge
    # relation and P(merged, k) = P(g, k) for an identity. The merge kernel
    # drops any uv edge, so it merges in g-uv straight from g's rows.
    rels = [r for r in _set_relations(g.rows).relations if r.kind is kind]
    if not rels:
        return
    k = chromatic_number(g)
    if kind is RelationKind.EDGE:
        base, expected = 0, f"P(merged, {k}) = 0"
    else:
        base = evaluate(chromatic_polynomial(g), k)
        expected = f"P(merged, {k}) = P(g, {k}) = {base}"
    for r in rels:
        merged = Graph._make(_merge_rows(g.rows, r.u, r.v))
        val = evaluate(chromatic_polynomial(merged), k)
        yield None if val == base else (f"pair ({r.u},{r.v})", expected, str(val))


def _check_planar_add(g: Graph) -> Iterator[_Item]:
    # the memoized chi rules out most graphs before the planarity test runs
    if chromatic_number(g) != 4 or not is_planar(g):
        return
    # by the Four Color Theorem no relation here is adjacent; a wrong one
    # is toggled off, and the planar g-uv is reported
    for r in _set_relations(g.rows).relations:
        planar = is_planar(Graph._make(_toggle_rows(g.rows, r.u, r.v)))
        yield None if not planar else (
            f"{r.kind.value} pair ({r.u},{r.v})", "g+uv nonplanar", "still planar"
        )


def _check_subdiv(g: Graph) -> Iterator[_Item]:
    k = chromatic_number(g)
    if k < 3 or not criticality(g).is_critical:
        return
    w = g.n
    for u, v in g.edges():
        # the path u-w-v replaces the edge uv, with w appended at id n
        h = _toggle_rows(_toggle_rows(_toggle_rows(g.rows + (0,), u, v), u, w), v, w)
        chi_h = chromatic_number(Graph._make(h))
        if chi_h != k - 1:
            yield (f"subdivide ({u},{v})", f"chi = {k - 1}", str(chi_h))
            continue
        yield None
        for a, b in ((u, w), (w, v)):
            yield None if _related(h, a, b, RelationKind.EDGE) else (
                f"subdivide ({u},{v})", f"({a},{b}) is an edge relation", "not a relation"
            )


def _check_crit_adj(g: Graph) -> Iterator[_Item]:
    # The set table decides the critical vertices and the definition route
    # gives the relations, so the check still joins two mechanisms.
    rels = _set_relations(g.rows).relations
    if not rels:
        return
    crit_vertices = criticality(g).critical_vertices
    for r in rels:
        identity = r.kind is RelationKind.IDENTITY
        for w in crit_vertices:
            if w == r.u or w == r.v:
                continue
            near = (g.has_edge(r.u, w), g.has_edge(r.v, w))
            yield None if (all(near) if identity else any(near)) else (
                f"{r.kind.value} pair ({r.u},{r.v}), critical vertex {w}",
                "adjacent to both endpoints" if identity else "adjacent to an endpoint",
                "misses one" if identity else "adjacent to neither",
            )


def _check_dc_bound(g: Graph) -> Iterator[_Item]:
    if g.m == 0 or not criticality(g).is_double_critical:
        return
    k = chromatic_number(g)
    rows = g.rows
    common = [(u, v, (rows[u] & rows[v]).bit_count()) for u, v in g.edges()]
    for u, v, cn in common:
        yield None if cn >= k - 2 else (f"edge ({u},{v}) common neighbors", f">= {k - 2}", str(cn))
    yield f"bound k-2 tight on every edge: {all(cn == k - 2 for _, _, cn in common)}"
    if any(cn < k - 1 for _, _, cn in common):
        yield "the stronger k-1 bound fails here (evidence against it)"
    if g.m == g.n * (g.n - 1) // 2 and g.n >= 3:
        # complete double-critical instance: confirm the chain mechanism,
        # every coloring of g-uv merges only u,v and each of the k-2 chains
        # runs through its own common neighbor
        for u, v in g.edges():
            h = _toggle_rows(rows, u, v)
            if not _related(h, u, v, RelationKind.IDENTITY):
                yield (f"edge ({u},{v})", "identity pair in g-uv", "not identity")
                continue
            yield None
            cns = rows[u] & rows[v]
            ends = 1 << u | 1 << v
            for colors, cls in _colorings(h, k - 1):
                a = colors[u]
                if colors[v] != a:
                    yield (
                        f"edge ({u},{v}) coloring {tuple(colors)}", "u,v share a color", "differ"
                    )
                    continue
                mids = 0
                for i in range(1, k):
                    if i == a:
                        continue
                    # its own walk, not relations._chain: the check needs
                    # the whole chain u-m-v, not whether it reaches v
                    chain = _component_of(h, 1 << u, cls[a - 1] | cls[i - 1])
                    middle = chain & ~ends
                    if not chain >> v & 1 or middle.bit_count() != 1 or middle & ~cns:
                        yield (
                            f"edge ({u},{v}) coloring {tuple(colors)} chain color {i}",
                            "chain is u-m-v with m a common neighbor",
                            f"chain {list(_bits(chain))}",
                        )
                        continue
                    yield None
                    mids |= middle
                yield None if mids.bit_count() == k - 2 else (
                    f"edge ({u},{v}) coloring {tuple(colors)}",
                    f"{k - 2} distinct chain middles",
                    str(mids.bit_count()),
                )


def _check_min_pre(g: Graph) -> Iterator[_Item]:
    k = chromatic_number(g)
    # one sweep per palette; it stops at the first stuck vertex, so only
    # that vertex is reported, but every vertex counts. The size-2 sweep at
    # k tries every single vertex first, so a certificate of size 1 is that
    # sweep's stuck vertex.
    cert = min_nonextensible(g, k, max_size=2)
    single = cert if cert is not None and len(cert) == 1 else None
    for kk, stuck in ((k, single), (k + 1, min_nonextensible(g, k + 1, max_size=1))):
        for v in range(g.n):
            yield (f"size-1 p({v})=1 at k={kk}", "extends", "stuck") if v in (stuck or ()) else None
    # A precoloring can pin only a nonadjacent relation: an adjacent pair
    # cannot share a color, and with one color no pair can differ.
    rels = _set_relations(g.rows).relations
    certifiable = k > 1 and any(not r.adjacent for r in rels)
    yield None if (cert is not None) == certifiable else (
        "size-2 certificate exists", str(certifiable), str(cert is not None)
    )
    if cert is not None and len(cert) == 2:
        (a, ca), (b, cb) = cert.items()
        kind = next((r.kind for r in rels if (r.u, r.v) == (a, b)), None)
        want = RelationKind.EDGE if ca == cb else RelationKind.IDENTITY
        colors = "same color" if ca == cb else "distinct colors"
        yield None if kind is want else (
            f"certificate pair ({a},{b}) {colors}", f"{want.value} relation", "absent"
        )


CHECKS: dict[str, tuple[Callable[[Graph], Iterator[_Item]], str]] = {
    "BIP-IE": (lambda g: _check_bip(g, 1), "bipartite edge relations match odd-path reachability in g-uv"),
    "BIP-II": (lambda g: _check_bip(g, 0), "bipartite identity relations match even-path reachability in g-uv"),
    "IE2-EQ": (_check_ie2, "definition route agrees with the independent-set route on every pair"),
    "CIS-INV": (_check_cis_inv, "relations survive removing critical independent sets, iterated"),
    "KEMPE": (_check_kempe, "every coloring carries the chains in g-uv each relation demands"),
    "POLY-IE": (lambda g: _check_poly(g, RelationKind.EDGE), "edge relations zero the merged graph's polynomial at k"),
    "POLY-II": (lambda g: _check_poly(g, RelationKind.IDENTITY), "identity relations equate the merged and original polynomials at k"),
    "PLANAR-ADD": (_check_planar_add, "adding a related nonadjacent pair to planar 4-chromatic g breaks planarity"),
    "SUBDIV": (_check_subdiv, "subdividing any edge of a critical graph drops chi and makes both halves edge relations"),
    "CRIT-ADJ": (_check_crit_adj, "critical vertices are adjacent to related pairs as the adjacency theorem demands"),
    "DC-BOUND": (_check_dc_bound, "double-critical graphs have k-2 common neighbors per edge, chains confirmed on complete instances"),
    "MIN-PRE": (_check_min_pre, "single precolored vertices always extend; size-2 certificates appear exactly with nonadjacent relations"),
}


class CheckFailure(NamedTuple):
    graph6: str
    locus: str
    expected: str
    got: str

    def to_json_dict(self) -> dict:
        return {
            "graph": self.graph6,
            "locus": self.locus,
            "expected": self.expected,
            "got": self.got,
        }


class CheckReport:
    """One check's outcome over a corpus, filled in as the run goes."""

    def __init__(self, check_id: str):
        self.check_id = check_id
        self.corpus_size = 0
        self.instances_run = 0
        self.failures: list[CheckFailure] = []
        self.notes: list[str] = []
        self.elapsed = 0.0
        self.verdict = "pass"

    def to_json_dict(self) -> dict:
        # elapsed stays out: the JSON is byte-stable across runs
        return {
            "check_id": self.check_id,
            "corpus_size": self.corpus_size,
            "instances_run": self.instances_run,
            "failures": [f.to_json_dict() for f in self.failures],
            "notes": self.notes,
            "verdict": self.verdict,
        }


def _evaluate(
    ids: tuple[str, ...], graphs: list[Graph]
) -> list[list[tuple[_CheckResult, float]]]:
    """Each named check's result on each graph, with the seconds it took.
    A result is (ran, failures, notes), counted from the items the check's
    body yields as it streams. Each graph meets every check before the next
    one, so the memos that the checks share serve them all while they are
    warm. A check that meets a route disagreement in g's relation scan
    records it as IE2-EQ does, and one that raises ValueError on g records
    the message as g's failure; either replaces what it yielded before. The
    result is always plain data that a worker can send back."""
    rows = []
    for g in graphs:
        row = []
        for cid in ids:
            start = time.monotonic()
            ran = 0
            failures: list[_Finding] = []
            notes: list[str] = []
            try:
                # None first: it is nearly every item
                for item in CHECKS[cid][0](g):
                    if item is None:
                        ran += 1
                    elif type(item) is str:
                        notes.append(item)
                    else:
                        ran += 1
                        failures.append(item)
                result = ran, failures, notes
            except RouteDisagreementError as e:
                result = _disagreement(g, e)
            except ValueError as e:
                # a graph that a check cannot evaluate, such as one too deep
                # for the solver's recursion, fails that check alone
                result = 0, [("graph", "an evaluation", str(e))], []
            row.append((result, time.monotonic() - start))
        rows.append(row)
        # the graph's checks are done, so its set tables, holding its relation
        # list and every other per-graph fact, go: later graphs build their own
        _set_relations.cache_clear()
    return rows


def _run_checks(
    ids: Iterable[str],
    corpus: CorpusSpec | Iterable[tuple[str, Graph]],
    budget: float = 600.0,
    jobs: int = 1,
) -> list[CheckReport]:
    """Evaluate catalog checks over a corpus in one pass; one report per id.

    A check's budget is its own summed evaluation seconds, as measured in
    the workers under jobs > 1. A check that has spent it skips the rest of
    the corpus with verdict "budget-exhausted", which never counts as a
    pass. An empty, unknown or repeated id, jobs outside 1.._MAX_JOBS, and
    a budget that is negative or NaN are refused before any check runs.
    Results are identical for any jobs value; each report takes its
    instances in corpus order.
    """
    reports = [CheckReport(cid) for cid in ids]
    if not reports:
        raise ValueError("no checks named")
    for i, report in enumerate(reports):
        if report.check_id not in CHECKS:
            known = ", ".join(sorted(CHECKS))
            raise ValueError(f"unknown check {report.check_id!r}; known checks: {known}")
        if any(r.check_id == report.check_id for r in reports[:i]):
            raise ValueError(f"check {report.check_id!r} is named twice")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if jobs > _MAX_JOBS:
        raise ValueError(f"jobs must be at most {_MAX_JOBS}, got {jobs}")
    # NaN fails every comparison, so it would never stop a run
    if not budget >= 0:
        raise ValueError(f"budget must be a nonnegative number of seconds, got {budget}")
    items = iter_corpus(corpus) if isinstance(corpus, CorpusSpec) else iter(corpus)

    def spent(report: CheckReport) -> bool:
        # a check that has spent its budget truncates at the graph it skips
        if report.elapsed >= budget:
            report.verdict = "budget-exhausted"
        return report.elapsed >= budget

    # The corpus streams through in chunks, taken back in corpus order, and
    # a chunk runs only the checks not yet spent when it was cut. Chunks grow
    # or shrink toward about 20 ms of work: long enough that task overhead
    # stays small, short enough that the budgets, summed as each chunk comes
    # back, are checked often. Serially a chunk runs as it is cut. Under
    # jobs > 1 one pool serves the whole run, with two chunks per worker in
    # flight; once every check is spent, work not yet started is cancelled.
    pool = None
    if jobs > 1:
        # deferred: most processes never fan out
        import concurrent.futures

        pool = concurrent.futures.ProcessPoolExecutor(max_workers=jobs)
    pending: deque = deque()
    size = 1

    def take() -> None:
        nonlocal size
        chunk, picked, out = pending.popleft()
        work = 0.0
        for (name, g), row in zip(chunk, out.result() if pool else out):
            g6 = None
            for report, ((ran, failures, notes), seconds) in zip(picked, row):
                work += seconds
                if spent(report):
                    continue
                report.corpus_size += 1
                report.instances_run += ran
                report.elapsed += seconds
                if failures and g6 is None:
                    g6 = serialize_graph(g, "graph6")
                report.failures.extend(CheckFailure(g6, *f) for f in failures)
                report.notes.extend(f"{name}: {note}" for note in notes)
        size = min(2 * size, 64) if work < 0.02 else max(1, size // 2)

    try:
        while chunk := list(islice(items, size)):
            picked = [r for r in reports if not spent(r)]
            if not picked:
                break
            run = tuple(r.check_id for r in picked)
            # a Graph pickles whole, so workers take graphs as they are, of
            # any order
            graphs = [g for _, g in chunk]
            out = _evaluate(run, graphs) if pool is None else pool.submit(_evaluate, run, graphs)
            pending.append((chunk, picked, out))
            if len(pending) >= (2 * jobs if pool else 1):
                take()
        else:
            while pending:
                take()
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    for report in reports:
        if report.verdict != "budget-exhausted":
            report.verdict = "fail" if report.failures else "pass"
    return reports


def run_check(
    check_id: str,
    corpus: CorpusSpec | Iterable[tuple[str, Graph]],
    budget: float = 600.0,
    jobs: int = 1,
) -> CheckReport:
    """Evaluate one catalog check over a corpus: _run_checks for one id."""
    return _run_checks((check_id,), corpus, budget, jobs)[0]


def default_corpus() -> CorpusSpec:
    """Exhaustive connected graphs through n=5 plus the named instances."""
    return CorpusSpec(
        families=(
            "k2", "k3", "k4", "k5", "k6",
            "c5", "c7", "w5",
            "moser_spindle", "grotzsch",
        ),
        exhaustive_n=5,
    )
