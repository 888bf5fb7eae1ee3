import itertools
import pickle
import random
import tracemalloc

import pytest

from chromarel import (
    Graph,
    RelationKind,
    RouteDisagreementError,
    chromatic_number,
    chromatic_polynomial,
    criticality,
    implicit_via_sets,
    k_colorable,
    min_nonextensible,
    scan_relations,
    to_dot,
)
from chromarel.families import (
    complete_graph,
    cycle_graph,
    enumerate_graphs,
    gnp,
    grotzsch,
    moser_spindle,
    path_graph,
    planted,
    wheel_graph,
)
import chromarel.coloring as coloring_mod
import chromarel.relations as relations_mod
from chromarel.graphs import _bits, _component_of, _free_of, _keep_rows, _maximal_sets, _toggle_rows
from chromarel.io import parse_graph
from chromarel.checks import run_check
from chromarel.relations import _WitnessPool, _chain, _related, _set_relations
from hypothesis import given
import hypothesis.strategies as st

from conftest import graphs

import oracles


def _pairs(rels, kind):
    return sorted((r.u, r.v) for r in rels if r.kind is kind)


def test_p4_relations():
    rels = scan_relations(path_graph(4))
    assert _pairs(rels, RelationKind.EDGE) == [(0, 3)]
    assert _pairs(rels, RelationKind.IDENTITY) == [(0, 2), (1, 3)]
    for r in rels:
        assert r.k == 2
        assert not r.adjacent


def test_c4_relations():
    rels = scan_relations(cycle_graph(4))
    assert _pairs(rels, RelationKind.EDGE) == [(0, 1), (0, 3), (1, 2), (2, 3)]
    assert _pairs(rels, RelationKind.IDENTITY) == [(0, 2), (1, 3)]
    adjacent = {(r.u, r.v): r.adjacent for r in rels}
    assert adjacent[(0, 1)] and not adjacent[(0, 2)]


@pytest.mark.parametrize(
    "g",
    [
        complete_graph(2),
        complete_graph(3),
        complete_graph(4),
        cycle_graph(5),
        wheel_graph(5),
        moser_spindle(),
        grotzsch(),
    ],
)
def test_graphs_with_no_relations(g):
    assert scan_relations(g) == []


def test_diamond_identity():
    # K4 minus an edge: the two degree-2 vertices always share a color
    g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    rels = scan_relations(g)
    assert _pairs(rels, RelationKind.EDGE) == []
    assert _pairs(rels, RelationKind.IDENTITY) == [(2, 3)]


def test_k5_minus_edge_identity():
    edges = [(u, v) for u in range(5) for v in range(u + 1, 5) if (u, v) != (3, 4)]
    g = Graph.from_edges(5, edges)
    rels = scan_relations(g)
    assert _pairs(rels, RelationKind.IDENTITY) == [(3, 4)]
    assert _pairs(rels, RelationKind.EDGE) == []


def test_pair_predicates_validate_input():
    # implicit_via_sets is the one public entry that decides a single pair
    g = path_graph(4)
    with pytest.raises(ValueError):
        implicit_via_sets(g, 1, 1, RelationKind.EDGE)
    with pytest.raises(ValueError):
        implicit_via_sets(g, 0, 4, RelationKind.IDENTITY)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda g: implicit_via_sets(g, 0, 2, "edge"), "unknown relation kind 'edge'"),
        (lambda g: min_nonextensible(g, -1), "k must be nonnegative"),
        # below chi even the empty precoloring does not extend, so a sweep of
        # no size cannot claim that every precoloring does
        (lambda g: min_nonextensible(g, 1, max_size=0), "max_size must be at least 1"),
    ],
)
def test_a_bad_kind_or_palette_is_refused(call, message):
    with pytest.raises(ValueError) as exc:
        call(path_graph(4))
    assert str(exc.value) == message


def test_scan_matches_assignment_enumeration():
    # every connected graph up to 4 vertices, classified two independent ways
    for n in range(2, 5):
        for g in enumerate_graphs(n, connected_only=True):
            expected = oracles.relations_by_assignment(g)
            got = {(r.u, r.v): r.kind.value for r in scan_relations(g)}
            assert got == expected, g.edges()


def test_scan_named_graphs_match_enumeration():
    for g in (cycle_graph(5), path_graph(5), wheel_graph(5)):
        expected = oracles.relations_by_assignment(g)
        got = {(r.u, r.v): r.kind.value for r in scan_relations(g)}
        assert got == expected


def _pairwise_relations(g):
    out = []
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if oracles.is_implicit_edge(g, u, v):
                out.append((u, v, "edge", g.has_edge(u, v)))
            elif oracles.is_implicit_identity(g, u, v):
                out.append((u, v, "identity", g.has_edge(u, v)))
    return out


def _scanned(g):
    return [
        (r.u, r.v, r.kind.value, r.adjacent)
        for r in scan_relations(g, cross_validate=False)
    ]


def test_witness_scan_matches_pairwise_on_every_small_labeled_graph():
    # disconnected graphs included, edgeless ones (chi = 1) among them
    for n in range(1, 6):
        for g in enumerate_graphs(n):
            assert _scanned(g) == _pairwise_relations(g), g.edges()


@pytest.mark.parametrize(
    "g",
    [complete_graph(n) for n in range(2, 6)]
    + [cycle_graph(n) for n in range(4, 10)]
    + [parse_graph("HbE[vl{", "graph6"), wheel_graph(6), moser_spindle(), grotzsch()],
)
def test_witness_scan_matches_pairwise_on_named_graphs(g):
    assert _scanned(g) == _pairwise_relations(g)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_closure_scan_matches_pairwise_on_planted_graphs(k):
    # planted graphs relate most pairs, so most of their relations are
    # derived from identity classes and proven edge relations
    for n in (8, 11, 14):
        for p in (0.3, 0.5):
            for seed in range(3):
                g = planted(n, k, p, seed)
                assert _scanned(g) == _pairwise_relations(g), (n, k, p, seed)


def _record_solver_calls(monkeypatch) -> list[tuple[tuple[int, ...], bool]]:
    """Record each exact search as the rows it colored and whether it found
    a coloring, in both namespaces that call the search kernel: coloring's
    memo of solver answers, which precolored questions reach too, and the
    relation layer's pair witnesses."""
    calls = []
    real = coloring_mod._dsatur

    def recording(rows, k):
        colors = real(rows, k)
        calls.append((rows, colors is not None))
        return colors

    monkeypatch.setattr(coloring_mod, "_dsatur", recording)
    monkeypatch.setattr(relations_mod, "_dsatur", recording)
    return calls


def test_closure_settles_relations_without_the_solver(monkeypatch):
    # with one refutation per relation the scan would make 431 calls: the
    # first coloring and 430 refutations
    calls = _record_solver_calls(monkeypatch)
    rels = scan_relations(planted(30, 3, 0.4, 1), cross_validate=False)
    assert len(rels) == 430
    assert len(calls) < len(rels)


def _chi_from_a_cold_memo(g: Graph) -> int:
    """chi(g) with the memos of chromatic numbers and of solver answers
    emptied first, so the ladder's own calls fill the latter."""
    coloring_mod._chromatic.cache_clear()
    coloring_mod._coloring_of.cache_clear()
    return chromatic_number(g)


@pytest.mark.parametrize(
    "g, sat, unsat",
    [(gnp(12, 0.5, 3), 2, 23), (planted(14, 3, 0.4, 1), 10, 2), (grotzsch(), 8, 0)],
)
def test_scan_solver_calls_are_pinned(monkeypatch, g, sat, unsat):
    # one call per question that neither the pool's bits, an adjacent pair's
    # Kempe chains nor closure settles, and the first coloring unless chi's
    # ladder ended on it: Grotzsch's chi is its greedy bound, so its ladder
    # makes no call. A change to the order of the questions or to what joins
    # the pool moves these counts
    _chi_from_a_cold_memo(g)
    calls = _record_solver_calls(monkeypatch)
    scan_relations(g, cross_validate=False)
    found = [sat for _, sat in calls]
    assert (found.count(True), found.count(False)) == (sat, unsat)


def test_the_scan_starts_from_the_coloring_that_settled_chi(monkeypatch):
    # chi's ladder ends on a solver call that finds a chi-coloring of g; the
    # scan's first witness is that memo entry, so no call colors g itself
    g = gnp(12, 0.5, 3)
    _chi_from_a_cold_memo(g)
    calls = _record_solver_calls(monkeypatch)
    scan_relations(g, cross_validate=False)
    assert calls and g.rows not in [rows for rows, _ in calls]


def _record_questions(monkeypatch):
    """Record every pair question the scan asks, of the pool or of the
    solver, as (sweep, u, v): sweep 0 is a nonadjacent pair's identity
    question, 1 its edge question and 2 an adjacent pair's edge question.
    The pool is asked as its owner, the solver by g's rows."""
    asked = []

    def recording(real):
        def ask(owner, u, v, kind, *rest):
            rows = owner if isinstance(owner, tuple) else owner.rows
            adjacent = rows[u] >> v & 1
            asked.append((2 if adjacent else int(kind is RelationKind.EDGE), u, v))
            return real(owner, u, v, kind, *rest)

        return ask

    monkeypatch.setattr(relations_mod, "_witness", recording(relations_mod._witness))
    monkeypatch.setattr(_WitnessPool, "refutes", recording(_WitnessPool.refutes))
    return asked


def test_scan_decides_nonadjacent_pairs_before_adjacent_ones(monkeypatch):
    asked = _record_questions(monkeypatch)
    for g in (gnp(12, 0.5, 3), planted(14, 3, 0.4, 1), grotzsch()):
        asked.clear()
        got = _scanned(g)
        assert {sweep for sweep, _, _ in asked} == {0, 1, 2}
        # every nonadjacent identity question, then every nonadjacent edge
        # question, then every adjacent one, each sweep in lexicographic order
        assert asked == sorted(asked)
        assert got == sorted(got)
        assert got == _pairwise_relations(g)


def test_complete_identity_classes_settle_edge_questions(monkeypatch):
    # De[ has the edges 01 03 13 14 24 34; the identity sweep finds 0 = 4,
    # so the edge 4-2 proves the edge relation (0,2) with no question about it
    g = parse_graph("De[", "graph6")
    asked = _record_questions(monkeypatch)
    assert _scanned(g) == [(0, 2, "edge", False), (0, 4, "identity", False)]
    assert (0, 4) in [(u, v) for sweep, u, v in asked if sweep == 0]
    assert (1, 0, 2) not in asked


def _pool_state(pool):
    return (
        [(list(classes), colors) for classes, colors in pool.colorings],
        list(pool.same),
        list(pool.differ),
    )


@given(graphs(min_n=2, max_n=9))
def test_adjacent_pair_decisions_leave_the_pool_alone(g):
    # each adjacent pair meets the fullest pool because of this: its chain
    # walks build no coloring, its witness colors g-uv, and the pool
    # already separates it
    pools = []

    class Recording(_WitnessPool):
        def __init__(self, *args):
            super().__init__(*args)
            self.before = None
            pools.append(self)

        def refutes(self, u, v, kind):
            if self.rows[u] >> v & 1 and self.before is None:
                self.before = _pool_state(self)
            return super().refutes(u, v, kind)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(relations_mod, "_WitnessPool", Recording)
        assert _scanned(g) == _pairwise_relations(g)
    (pool,) = pools
    if g.m:
        assert pool.before is not None
        assert _pool_state(pool) == pool.before


@given(graphs(min_n=2, max_n=9))
def test_the_pool_keeps_proper_colorings_and_their_bits(g):
    # every stored (classes, colors) is one proper k-coloring of g seen two
    # ways, and same and differ are exactly what the stored colorings say
    pools = []

    class Recording(_WitnessPool):
        def __init__(self, *args):
            super().__init__(*args)
            pools.append(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(relations_mod, "_WitnessPool", Recording)
        scan_relations(g, cross_validate=False)
    (pool,) = pools
    same = [0] * g.n
    differ = [0] * g.n
    for classes, colors in pool.colorings:
        assert oracles.is_proper(g, colors, pool.k)
        assert classes == [
            sum(1 << x for x in range(g.n) if colors[x] == i + 1) for i in range(pool.k)
        ]
        for u, v in itertools.product(range(g.n), repeat=2):
            if colors[u] == colors[v]:
                same[u] |= 1 << v
            else:
                differ[u] |= 1 << v
    assert pool.same == same
    assert pool.differ == differ


def _relabeling_sample():
    # 96 seeded graphs, n = 5..12
    for n in range(5, 13):
        for seed in range(1, 5):
            yield gnp(n, 0.3, seed)
            yield gnp(n, 0.5, seed)
            yield planted(n, 3 + seed % 2, 0.4, seed)


def test_relabeling_commutes_with_every_answer():
    # the answers are facts about the graph, not its labels: a relabeled
    # copy (a cold entry in every memo) must give the mapped answers
    rng = random.Random(7)
    for g in _relabeling_sample():
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
        where = (g.n, g.edges(), perm)

        def pair(u, v):
            return min(perm[u], perm[v]), max(perm[u], perm[v])

        assert {(*pair(r.u, r.v), r.kind, r.adjacent) for r in scan_relations(g)} == {
            (r.u, r.v, r.kind, r.adjacent) for r in scan_relations(h)
        }, where
        k = chromatic_number(g)
        assert chromatic_number(h) == k, where
        report, moved = criticality(g), criticality(h)
        crit = tuple(sorted(perm[x] for x in report.critical_vertices))
        assert moved.critical_vertices == crit, where
        assert set(moved.critical_edges) == {pair(u, v) for u, v in report.critical_edges}, where
        flags = dict(critical_vertices=(), critical_edges=())
        assert moved._replace(**flags) == report._replace(**flags), where
        assert chromatic_polynomial(h) == chromatic_polynomial(g), where
        g_cert, h_cert = (min_nonextensible(x, k, 2) for x in (g, h))
        assert (g_cert is None, len(g_cert or ())) == (h_cert is None, len(h_cert or ())), where


@pytest.mark.parametrize("g", [gnp(12, 0.5, 3), planted(14, 3, 0.4, 1)])
def test_set_table_keeps_each_certificate_once(g):
    relations_mod._set_relations.cache_clear()
    scan_relations(g)
    table = relations_mod._set_relations(g.rows)
    certs = list(table.certs)
    assert len(set(certs)) == len(certs)
    blocked = list(table.blocked)
    assert len(set(blocked)) == len(blocked)
    # each is an independent set of g whose removal lowers chi
    for s in certs:
        assert not any(g.rows[x] & s for x in _bits(s))
        keep = table.full ^ s
        assert chromatic_number(Graph(_keep_rows(g.rows, keep))) == table.k - 1


def test_listing_the_lowering_maximal_sets_never_scans_the_blocked_sets():
    # no other independent set holds a maximal one, so no blocked set can
    # settle one; on P30 the scan made 10.6 M subset tests when it ran
    scans = 0

    class Counted(dict):
        def __iter__(self):
            nonlocal scans
            scans += 1
            return super().__iter__()

    g = path_graph(20)
    relations_mod._set_relations.cache_clear()
    table = relations_mod._set_relations(g.rows)
    table.blocked = Counted()
    assert len(table.lowering) == 2  # the two sides of the bipartition
    assert len(table.blocked) > 0 and scans == 0
    # P20's 2-coloring is unique: a pair at even distance is an identity,
    # and a nonadjacent one at odd distance an edge relation
    got = {(r.u, r.v, r.kind) for r in scan_relations(g)}
    assert got == {
        (u, v, RelationKind.IDENTITY if (v - u) % 2 == 0 else RelationKind.EDGE)
        for u in range(20)
        for v in range(u + 2, 20)
    }


def test_a_set_with_one_free_vertex_skips_the_blocked_scan():
    # a set s whose one free vertex is x lies inside no independent set but
    # s and s + x, so the scan could only find a set the solver memo already
    # answers or one that costs one memoized call; a set with two free
    # vertices still scans
    scans = 0

    class Counted(dict):
        def __iter__(self):
            nonlocal scans
            scans += 1
            return super().__iter__()

    g = path_graph(12)
    relations_mod._set_relations.cache_clear()
    table = relations_mod._set_relations(g.rows)
    table.lowering
    rejected = tuple(table.blocked)
    table.blocked = Counted(dict.fromkeys(rejected))
    assert rejected
    one_free = two_free = 0
    for m in _maximal_sets(g.rows, 0):
        for u in _bits(m):
            s = m ^ 1 << u
            free = _free_of(g.rows, s).bit_count()
            if free == 1:
                one_free += 1
                assert table._lowers(s) == (table._coloring_without(s) is not None)
                assert scans == 0
    for m in rejected:
        rest = m & (m - 1)
        s = rest & (rest - 1)  # m less its two lowest vertices
        if _free_of(g.rows, s).bit_count() >= 2:
            two_free += 1
            assert not table._lowers(s)
    assert one_free > 0 and two_free > 0 and scans == two_free


def test_first_disagreement_is_lexicographic_after_the_reorder(monkeypatch):
    # in the path 0-2-1-3 the scan decides (0,1), (0,3) and (2,3) before the
    # adjacent (0,2); lies on (0,2) and (2,3) must still report (0,2), the
    # scan's second pair, after one agreeing decision and one lie
    g = Graph.from_edges(4, [(0, 2), (1, 2), (1, 3)])
    real = relations_mod.implicit_via_sets
    monkeypatch.setattr(
        relations_mod,
        "implicit_via_sets",
        lambda h, u, v, kind: real(h, u, v, kind)
        != (kind is RelationKind.EDGE and (u, v) in ((0, 2), (2, 3))),
    )
    with pytest.raises(RouteDisagreementError) as err:
        scan_relations(g)
    assert (err.value.u, err.value.v, err.value.kind) == (0, 2, RelationKind.EDGE)
    relations_mod._set_relations.cache_clear()
    report = run_check("IE2-EQ", [("p4", g)])
    (f,) = report.failures
    assert f.locus == "pair (0,2) edge"
    assert report.instances_run == 3


@pytest.mark.parametrize("g", [path_graph(4), path_graph(70)])
def test_a_route_disagreement_pickles(g):
    # a scan in a process pool sends the error back whole; more than 62
    # vertices take graph6's long form
    e = RouteDisagreementError(g, 0, 2, RelationKind.IDENTITY, True, False)
    back = pickle.loads(pickle.dumps(e))
    assert type(back) is RouteDisagreementError
    fields = ("graph6", "u", "v", "kind", "definition_answer", "set_answer", "args")
    assert [getattr(back, f) for f in fields] == [getattr(e, f) for f in fields]
    assert parse_graph(back.graph6, "graph6") == g


def test_witness_scan_keeps_adjacent_edge_relations():
    # every edge of an even cycle is an edge relation
    assert (0, 1, "edge", True) in _scanned(cycle_graph(6))


@given(graphs(max_n=10))
def test_witness_scan_matches_pairwise(g):
    assert _scanned(g) == _pairwise_relations(g)


def test_set_route_matches_all_subsets_oracle():
    # every labeled graph on up to five vertices: the maximal-set route gives
    # the answers of the characterization taken over every vertex subset
    for n in range(1, 6):
        for g in enumerate_graphs(n):
            want = oracles.relations_by_independent_sets(g)
            for u in range(n):
                for v in range(u + 1, n):
                    got = (
                        implicit_via_sets(g, u, v, RelationKind.EDGE),
                        implicit_via_sets(g, u, v, RelationKind.IDENTITY),
                    )
                    assert got == (want.get((u, v)) == "edge", want.get((u, v)) == "identity"), (
                        g.edges(), u, v
                    )


def _set_route_mismatches(g):
    # both orders of every pair: the identity question is not symmetric
    return [
        (u, v, kind)
        for u in range(g.n)
        for v in range(g.n)
        if u != v
        for kind in RelationKind
        if implicit_via_sets(g, u, v, kind) != oracles.implicit_via_sets_by_pairs(g, u, v, kind)
    ]


def test_set_table_matches_the_per_pair_route_on_every_small_labeled_graph():
    wrong = [
        (g.edges(), bad)
        for n in range(2, 6)
        for g in enumerate_graphs(n)
        for bad in _set_route_mismatches(g)
    ]
    assert wrong == []


@pytest.mark.parametrize("n", range(7, 13))
def test_set_table_matches_the_per_pair_route_on_random_graphs(n):
    for p in (0.3, 0.5, 0.7):
        for seed in range(3):
            g = gnp(n, p, seed)
            assert _set_route_mismatches(g) == [], (n, p, seed)


@given(graphs(min_n=2, max_n=10))
def test_set_table_matches_the_per_pair_route(g):
    assert _set_route_mismatches(g) == []


def _related_mismatches(g):
    return [
        (u, v, kind)
        for u in range(g.n)
        for v in range(u + 1, g.n)
        for kind, oracle in (
            (RelationKind.EDGE, oracles.is_implicit_edge),
            (RelationKind.IDENTITY, oracles.is_implicit_identity),
        )
        if _related(g.rows, u, v, kind) != oracle(g, u, v)
    ]


def test_related_is_one_lookup_in_the_memo_of_solver_answers(monkeypatch):
    # _related keeps no memo of its own: its answer is the shared memo's
    # entry for the pair rows, so asking again calls no solver
    assert not hasattr(_related, "cache_info")
    g = grotzsch()
    chromatic_number(g)
    coloring_mod._coloring_of.cache_clear()
    assert _related(g.rows, 0, 2, RelationKind.IDENTITY) is False
    assert coloring_mod._coloring_of.cache_info().currsize == 1
    calls = _record_solver_calls(monkeypatch)
    assert _related(g.rows, 0, 2, RelationKind.IDENTITY) is False
    assert calls == []
    assert coloring_mod._coloring_of.cache_info().currsize == 1


def test_related_matches_the_oracles_on_every_small_labeled_graph():
    wrong = [
        (g.edges(), bad)
        for n in range(2, 6)
        for g in enumerate_graphs(n)
        for bad in _related_mismatches(g)
    ]
    assert wrong == []


@given(graphs(min_n=2, max_n=10))
def test_related_matches_the_oracles(g):
    assert _related_mismatches(g) == []


def test_identity_pairs_are_never_adjacent():
    for n in range(2, 5):
        for g in enumerate_graphs(n, connected_only=True):
            for r in scan_relations(g):
                if r.kind is RelationKind.IDENTITY:
                    assert not g.has_edge(r.u, r.v)


def test_set_route_direct():
    g = path_graph(4)
    assert implicit_via_sets(g, 0, 3, RelationKind.EDGE)
    assert implicit_via_sets(g, 0, 2, RelationKind.IDENTITY)
    assert not implicit_via_sets(g, 0, 2, RelationKind.EDGE)
    assert not implicit_via_sets(g, 1, 2, RelationKind.EDGE)


def test_criticality_reports():
    c5 = criticality(cycle_graph(5))
    assert c5.k == 3
    assert c5.critical_vertices == (0, 1, 2, 3, 4)
    assert len(c5.critical_edges) == 5
    assert c5.is_vertex_critical and c5.is_critical
    assert not c5.is_double_critical

    k4 = criticality(complete_graph(4))
    assert k4.is_double_critical and k4.is_critical

    p4 = criticality(path_graph(4))
    assert p4.critical_vertices == ()
    assert not p4.is_critical

    w5 = criticality(wheel_graph(5))
    assert w5.k == 4 and w5.is_critical

    assert criticality(grotzsch()).is_critical


def test_criticality_matches_assignment_oracle():
    # every labeled graph on up to five vertices, disconnected ones included
    wrong = []
    for n in range(1, 6):
        for g in enumerate_graphs(n, connected_only=False):
            k, vertices, edges, double = oracles.criticality_by_assignment(g)
            r = criticality(g)
            got = (r.k, r.critical_vertices, r.critical_edges, r.is_double_critical)
            if got != (k, vertices, edges, double) or (
                r.is_vertex_critical != (len(vertices) == n)
                or r.is_critical != (len(vertices) == n and len(edges) == g.m)
            ):
                wrong.append(g.edges())
    assert wrong == []


@pytest.mark.parametrize("n", range(7, 15))
def test_criticality_matches_the_ladder_cold_and_warm(n):
    # seeded random and planted graphs, each once with a fresh set table and
    # once with the table the cross-validated scan has filled
    graphs = [gnp(n, p, seed) for p in (0.3, 0.5, 0.7) for seed in range(2)]
    graphs += [planted(n, k, 0.5, seed) for k in (3, 4) for seed in range(2)]
    for g in graphs:
        want = oracles.criticality_by_ladder(g)
        relations_mod._set_relations.cache_clear()
        assert tuple(criticality(g)) == want, ("cold", g.edges())
        relations_mod._set_relations.cache_clear()
        scan_relations(g)
        assert tuple(criticality(g)) == want, ("warm", g.edges())


def test_criticality_alone_lists_no_maximal_sets(monkeypatch):
    calls = []
    real = relations_mod._maximal_sets

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(relations_mod, "_maximal_sets", counting)
    relations_mod._set_relations.cache_clear()
    g = gnp(12, 0.5, 1)
    criticality(g)
    assert calls == []
    # the first relation question on the same table lists them
    implicit_via_sets(g, 0, 1, RelationKind.IDENTITY)
    assert calls


@pytest.mark.parametrize(
    "fact", [criticality, lambda g: _set_relations(g.rows).relations],
    ids=["criticality", "relations"],
)
def test_criticality_is_computed_once_per_set_table(fact):
    g = gnp(12, 0.5, 1)
    relations_mod._set_relations.cache_clear()
    report = fact(g)
    assert report and fact(g) is report
    # a cleared memo builds a fresh table, which computes the fact again
    relations_mod._set_relations.cache_clear()
    fresh = fact(g)
    assert fresh is not report and fresh == report


def test_k4_plus_isolated_vertex_is_double_critical_but_not_vertex_critical():
    # the isolated vertex is not critical, yet removing the two ends of any
    # edge of the K4 lowers chi by two: not vertex-critical does not rule
    # out double-critical
    r = criticality(Graph.from_edges(5, complete_graph(4).edges()))
    assert r.critical_vertices == (0, 1, 2, 3)
    assert not r.is_vertex_critical and not r.is_critical
    assert r.is_double_critical


def test_critical_independent_sets_on_c5():
    g = cycle_graph(5)
    sets = [list(_bits(s)) for s in _set_relations(g.rows).critical_sets]
    # 5 singletons and 5 nonadjacent pairs, in lexicographic order
    assert sets == [[0], [0, 2], [0, 3], [1], [1, 3], [1, 4], [2], [2, 4], [3], [4]]


def test_critical_independent_sets_match_subset_oracle():
    # every labeled graph on up to five vertices, disconnected ones included,
    # and the empty graph: the critical sets are exactly the nonempty
    # independent S with chi(g - S) = chi(g) - 1, each listed once in
    # lexicographic order
    wrong = []
    for g in [Graph(())] + [g for n in range(1, 6) for g in enumerate_graphs(n)]:
        got = [tuple(_bits(s)) for s in _set_relations(g.rows).critical_sets]
        if got != oracles.critical_sets_by_subsets(g):
            wrong.append((g.n, g.edges()))
    assert wrong == []


def test_min_nonextensible_p4():
    # the sweep finds the identity pair {0,2} first, colored apart
    assert min_nonextensible(path_graph(4), 2) == {0: 1, 2: 2}


def test_min_nonextensible_diamond():
    g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    assert min_nonextensible(g, 3) == {2: 1, 3: 2}


def test_min_nonextensible_none_cases():
    assert min_nonextensible(cycle_graph(5), 3) is None
    assert min_nonextensible(complete_graph(3), 3) is None
    # above chi everything of size <= 2 extends on these
    assert min_nonextensible(path_graph(4), 3) is None


def test_min_nonextensible_below_chi():
    # below chi even one pinned vertex is already stuck
    cert = min_nonextensible(cycle_graph(5), 2)
    assert cert is not None and len(cert) == 1
    # so a certificate is minimal among nonempty precolorings only: K3's
    # empty precoloring has no 2-coloring either
    assert min_nonextensible(complete_graph(3), 2) == {0: 1}
    assert k_colorable(complete_graph(3), 2) is None


def test_min_nonextensible_size_three_bowtie():
    # two triangles sharing vertex 2; no pair is forced, but a rainbow
    # around the shared vertex strands it
    g = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
    assert scan_relations(g) == []
    assert min_nonextensible(g, 3, max_size=2) is None
    assert min_nonextensible(g, 3, max_size=3) == {0: 1, 1: 2, 3: 3}


def test_min_nonextensible_matches_the_solver_sweep_on_small_graphs():
    # every labeled graph through n = 5, below, at and above chi
    wrong = []
    for n in range(1, 6):
        for g in enumerate_graphs(n):
            chi = chromatic_number(g)
            for k in (chi - 1, chi, chi + 1):
                got = min_nonextensible(g, k, max_size=3)
                if got != oracles.min_nonextensible_by_solver(g, k, max_size=3):
                    wrong.append((g.edges(), k))
    assert wrong == []


@given(graphs(min_n=1, max_n=9), st.integers(min_value=-1, max_value=1))
def test_min_nonextensible_matches_the_solver_sweep(g, dk):
    k = chromatic_number(g) + dk
    cert = min_nonextensible(g, k, max_size=3)
    assert cert == oracles.min_nonextensible_by_solver(g, k, max_size=3)
    if cert is not None:
        assert list(cert) == sorted(cert)
        assert k_colorable(g, k, cert) is None


def test_a_palette_far_above_n_costs_the_sweep_no_memory_beyond_the_graph():
    # the witness pool keeps one class mask per color up to a coloring's
    # largest, not one per palette color (16 MB and 2.1 s at k = 10**6
    # when it kept k of them)
    tracemalloc.start()
    try:
        got = min_nonextensible(path_graph(4), 10**8, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got is None
    assert peak < 1_000_000


def test_no_small_certificate_one_color_above_chi():
    # chi(g/uv) and chi(g+uv) are at most chi(g)+1, so at k = chi+1 every
    # precolored pair extends, and so does every single vertex
    named = [grotzsch(), moser_spindle(), wheel_graph(5), complete_graph(6)]
    small = [g for n in range(1, 6) for g in enumerate_graphs(n, connected_only=True)]
    stuck = [
        g.edges()
        for g in small + named
        if min_nonextensible(g, chromatic_number(g) + 1, max_size=2) is not None
    ]
    assert stuck == []


def test_to_dot_styles():
    g = path_graph(4)
    dot = to_dot(g, scan_relations(g))
    assert dot == (
        "graph G {\n"
        '  0 [label="0"];\n'
        '  1 [label="1"];\n'
        '  2 [label="2"];\n'
        '  3 [label="3"];\n'
        "  0 -- 1;\n"
        "  1 -- 2;\n"
        "  2 -- 3;\n"
        "  0 -- 2 [style=dotted, color=blue];\n"
        "  0 -- 3 [style=dashed, color=red];\n"
        "  1 -- 3 [style=dotted, color=blue];\n"
        "}\n"
    )
    assert "style=dashed" in dot and "color=red" in dot
    assert "style=dotted" in dot and "color=blue" in dot
    plain = to_dot(g)
    assert "dashed" not in plain


@pytest.mark.parametrize("g", [gnp(12, 0.5, 1), gnp(14, 0.3, 2), planted(13, 4, 0.5, 3)])
def test_chain_is_the_kempe_chain_in_g_minus_uv(g):
    # the pool walks g's own rows; the chain must be the one a walk over
    # the rows of g-uv finds, and 0 exactly when that walk reaches v
    k = chromatic_number(g)
    pool = _WitnessPool(g.rows, k)
    pool.add(k_colorable(g, k).assignment)
    for u, v in itertools.combinations(range(g.n), 2):
        for kind in RelationKind:
            pool.refutes(u, v, kind)
    assert len(pool.colorings) > 1
    for u, v in itertools.permutations(range(g.n), 2):
        cut = _toggle_rows(g.rows, u, v) if g.rows[u] >> v & 1 else g.rows
        for classes, colors in pool.colorings:
            a = colors[u] - 1
            for b in range(k):
                if b != a:
                    within = classes[a] | classes[b]
                    assert _chain(g.rows, u, v, within) == _component_of(
                        cut, 1 << u, within, 1 << v
                    ), (u, v, a, b)
