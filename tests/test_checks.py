import hashlib
import json
import math
import multiprocessing
import os
import pickle
import time
from collections import Counter

import pytest

from chromarel import (
    CorpusSpec,
    Graph,
    ImplicitRelation,
    RelationKind,
    bipartition,
    chromatic_number,
    cycle_graph,
    default_corpus,
    iter_corpus,
    path_graph,
    run_check,
    scan_relations,
)
from chromarel import cli
from chromarel.checks import CHECKS
import chromarel.checks as checks_mod
import chromarel.relations as relations_mod
from chromarel.families import gnp
from chromarel.io import parse_graph

import oracles


SMALL = CorpusSpec(families=("p4", "c4", "c5", "k4", "w5"), exhaustive_n=4)
# KEMPE's report on C5 when the relation scan claims both kinds on every pair
KEMPE_C5_DIGEST = "d6846121bda84079477b3126e75a172e8d03cb18b3396f25b1f176b3e6b10741"


def _fake_relations(monkeypatch, fake):
    # the checks read g's relation list from its set table; a property in
    # the class answers for every table, and forked workers inherit it
    monkeypatch.setattr(
        relations_mod._SetTable, "relations", property(lambda t: fake(Graph._make(t.rows)))
    )


def test_every_check_passes_on_small_corpus():
    for cid in CHECKS:
        report = run_check(cid, SMALL)
        assert report.verdict == "pass", (cid, report.failures)
        assert report.corpus_size == 5 + 1 + 1 + 4 + 38


def test_conclusion_counting_is_visible():
    # BIP checks fire on bipartite instances, so they must run something here
    assert run_check("BIP-IE", SMALL).instances_run > 0
    assert run_check("KEMPE", SMALL).instances_run > 0
    assert run_check("IE2-EQ", SMALL).instances_run > 0
    # no planar 4-chromatic graph with a related nonadjacent pair exists
    # below n=5, so the same corpus leaves PLANAR-ADD visibly vacuous
    vac = run_check("PLANAR-ADD", SMALL)
    assert vac.verdict == "pass"
    assert vac.instances_run == 0


def test_planar_add_fires_at_n5():
    report = run_check("PLANAR-ADD", CorpusSpec(exhaustive_n=5))
    assert report.verdict == "pass"
    assert report.instances_run > 0


def test_budget_never_passes():
    report = run_check("KEMPE", SMALL, budget=0.0)
    assert report.verdict == "budget-exhausted"
    assert report.corpus_size < 49


@pytest.mark.parametrize("budget", [-1.0, -math.inf, math.nan])
def test_budget_must_be_nonnegative(budget):
    # NaN fails every comparison, so it would never stop a run
    with pytest.raises(ValueError, match="budget"):
        run_check("KEMPE", SMALL, budget=budget)
    assert run_check("KEMPE", CorpusSpec(families=("p4",)), budget=math.inf).verdict == "pass"


def test_unknown_check_rejected():
    with pytest.raises(ValueError, match="known checks: BIP-IE, BIP-II, CIS-INV"):
        run_check("NO-SUCH", SMALL)


def test_failures_carry_graph6_and_locus(monkeypatch):
    # make the relation scan lie so the reporting path gets exercised
    _fake_relations(monkeypatch, lambda g: ())
    report = run_check("BIP-IE", CorpusSpec(families=("p4",)))
    assert report.verdict == "fail"
    assert report.failures
    f = report.failures[0]
    assert f.graph6 == "Ch"
    assert "(0,3)" in f.locus.replace(" ", "")
    assert f.to_json_dict()["graph"] == "Ch"


def test_ie2_reports_the_first_route_disagreement(monkeypatch):
    assert run_check("IE2-EQ", [("p4", path_graph(4))]).instances_run == 12
    # make the set route lie so the scan's cross-validation aborts
    relations_mod._set_relations.cache_clear()
    real = relations_mod.implicit_via_sets
    monkeypatch.setattr(
        relations_mod, "implicit_via_sets", lambda *args: not real(*args)
    )
    report = run_check("IE2-EQ", [("p4", path_graph(4))])
    assert report.verdict == "fail"
    (f,) = report.failures
    assert f.graph6 == "Ch"
    assert f.locus == "pair (0,1) edge"
    assert (f.expected, f.got) == ("definition=False", "sets=True")
    # the scan stopped at the first decision it compared
    assert report.instances_run == 1
    # a lie on identities only: the pair's edge decision agreed first
    monkeypatch.setattr(
        relations_mod,
        "implicit_via_sets",
        lambda g, u, v, kind: real(g, u, v, kind) != (kind is RelationKind.IDENTITY),
    )
    (f,) = run_check("IE2-EQ", [("p4", path_graph(4))]).failures
    assert f.locus == "pair (0,1) identity"
    assert run_check("IE2-EQ", [("p4", path_graph(4))]).instances_run == 2


# the checks that read p4's relation scan; on p4 PLANAR-ADD (chi 2),
# SUBDIV (chi 2) and DC-BOUND (not double-critical) stop before it
P4_SCAN_READERS = {
    "BIP-IE", "BIP-II", "IE2-EQ", "CIS-INV", "KEMPE", "POLY-IE", "POLY-II", "CRIT-ADJ",
    "MIN-PRE",
}


def _lie_about_edges(monkeypatch):
    relations_mod._set_relations.cache_clear()
    real = relations_mod.implicit_via_sets
    monkeypatch.setattr(relations_mod, "implicit_via_sets", lambda *args: not real(*args))


def test_every_check_that_meets_a_route_disagreement_reports_it(monkeypatch):
    # with the set route lying, the scan that every check reads aborts; each
    # check that reads it records IE2-EQ's finding and count, and the run
    # still returns a report for every check
    _lie_about_edges(monkeypatch)
    ids = sorted(CHECKS)
    reports = checks_mod._run_checks(ids, [("p4", path_graph(4))])
    assert [r.check_id for r in reports] == ids
    for r in reports:
        if r.check_id in P4_SCAN_READERS:
            assert r.verdict == "fail", r.check_id
            assert r.instances_run == 1, r.check_id
            assert [tuple(f) for f in r.failures] == [
                ("Ch", "pair (0,1) edge", "definition=False", "sets=True")
            ], r.check_id
        else:
            assert (r.verdict, r.instances_run) == ("pass", 0), r.check_id
    # what a worker sends back is plain data
    out = checks_mod._evaluate(tuple(ids), [path_graph(4)])
    assert pickle.loads(pickle.dumps(out)) == out


def test_a_route_disagreement_crosses_no_worker_boundary(monkeypatch):
    # the workers are forked from this process, so they inherit the lie
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("workers that are not forked do not see the monkeypatch")
    _lie_about_edges(monkeypatch)
    ids = sorted(CHECKS)
    corpus = [("p4", path_graph(4)), ("c4", cycle_graph(4)), ("p3", path_graph(3))]
    seq = [r.to_json_dict() for r in checks_mod._run_checks(ids, corpus)]
    assert {r["check_id"] for r in seq if r["verdict"] == "fail"} >= P4_SCAN_READERS
    par = [r.to_json_dict() for r in checks_mod._run_checks(ids, corpus, jobs=2)]
    assert par == seq


def test_a_failure_on_more_than_62_vertices_is_replayable(monkeypatch):
    # graph6's long form names the graph; before, writing it raised out of
    # the run and the whole report was lost
    _lie_about_edges(monkeypatch)
    (report,) = checks_mod._run_checks(["IE2-EQ"], [("p70", path_graph(70))])
    assert report.verdict == "fail"
    (f,) = report.failures
    assert f.graph6.startswith("~")
    assert parse_graph(f.graph6, "graph6") == path_graph(70)


def test_ie2_reports_a_lie_on_an_adjacent_pair_edge(monkeypatch):
    # a lie on adjacent pairs' edges only, the questions the set route
    # still answers from the maximal sets of g-uv; in the path 0-2-1-3 the
    # first adjacent pair is (0,2), the scan's second pair
    relations_mod._set_relations.cache_clear()
    real = relations_mod.implicit_via_sets
    monkeypatch.setattr(
        relations_mod,
        "implicit_via_sets",
        lambda g, u, v, kind: real(g, u, v, kind)
        != (kind is RelationKind.EDGE and g.has_edge(u, v)),
    )
    report = run_check("IE2-EQ", [("p4", Graph.from_edges(4, [(0, 2), (1, 2), (1, 3)]))])
    (f,) = report.failures
    assert f.locus == "pair (0,2) edge"
    assert (f.expected, f.got) == ("definition=False", "sets=True")
    assert report.instances_run == 3


def test_jobs_do_not_change_the_report():
    # all twelve checks in one pass, over the small corpus and seeded G(9,1/2)
    corpus = SMALL._replace(random=(9, 0.5, 0, 6))
    ids = sorted(CHECKS)
    seq = [r.to_json_dict() for r in checks_mod._run_checks(ids, corpus, jobs=1)]
    assert [r["verdict"] for r in seq] == ["pass"] * 12, seq
    assert all(r["corpus_size"] == 49 + 6 for r in seq)
    for jobs in (2, 3):
        par = [r.to_json_dict() for r in checks_mod._run_checks(ids, corpus, jobs=jobs)]
        assert par == seq, jobs


def _lie_on_every_pair(h):
    # both kinds on every pair: each of KEMPE's three failure texts fires
    return tuple(
        ImplicitRelation(u, v, kind, 3, h.has_edge(u, v))
        for u in range(h.n)
        for v in range(u + 1, h.n)
        for kind in (RelationKind.EDGE, RelationKind.IDENTITY)
    )


def test_failures_fold_in_corpus_order_under_jobs(monkeypatch):
    # the workers are forked from this process, so they inherit the lie
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("workers that are not forked do not see the monkeypatch")
    _fake_relations(monkeypatch, _lie_on_every_pair)
    report = run_check("KEMPE", CorpusSpec(families=("c5",)), jobs=2)
    text = json.dumps(report.to_json_dict(), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == KEMPE_C5_DIGEST
    corpus = CorpusSpec(families=("c5", "p4", "c4"), exhaustive_n=3)
    seq = run_check("KEMPE", corpus).to_json_dict()
    assert seq["verdict"] == "fail"
    assert [f["graph"] for f in seq["failures"]][0] == "Dhc"
    for jobs in (2, 3):
        assert run_check("KEMPE", corpus, jobs=jobs).to_json_dict() == seq, jobs


def test_one_corpus_pass_and_one_serialization_per_graph(monkeypatch):
    # one default-corpus verify enumerates each order once, not once per
    # check; writes a graph's graph6 string at most once, for an exhaustive
    # graph's name or for a failure's report; and scans each of its 782
    # graphs once, so K2-K5 and C5, which the n <= 5 sweep yields again,
    # are scanned twice
    calls = Counter()

    def counted(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    for name in ("enumerate_graphs", "serialize_graph"):
        monkeypatch.setattr(checks_mod, name, counted(name, getattr(checks_mod, name)))
    scan = counted("scan_relations", relations_mod.scan_relations)
    monkeypatch.setattr(relations_mod, "scan_relations", scan)
    assert cli.main(["verify", "--jobs", "1", "-o", os.devnull]) == 0
    assert calls["enumerate_graphs"] == 5
    assert calls["serialize_graph"] <= 782
    assert calls["scan_relations"] == 782
    # with every relation hidden, the BIP checks fail on bipartite graphs
    calls.clear()
    _fake_relations(monkeypatch, lambda g: ())
    reports = checks_mod._run_checks(["BIP-IE", "BIP-II", "KEMPE"], SMALL)
    failing = {f.graph6 for r in reports for f in r.failures}
    assert len(failing) > 5
    assert calls["serialize_graph"] <= reports[0].corpus_size + len(failing)


def test_each_graph_leaves_no_relation_list_behind():
    # a sweep would otherwise keep the relation tuple of every graph it met
    relations_mod._set_relations.cache_clear()
    reports = checks_mod._run_checks(
        ["BIP-IE", "KEMPE"], [("p4", path_graph(4)), ("c5", cycle_graph(5))]
    )
    assert all(r.verdict == "pass" and r.corpus_size == 2 for r in reports)
    assert relations_mod._set_relations.cache_info().currsize == 0


def test_budget_holds_under_jobs():
    # the n <= 6 sweep takes many seconds; the budget must stop it early,
    # not after every instance already handed to the workers has run
    start = time.monotonic()
    report = run_check("IE2-EQ", CorpusSpec(exhaustive_n=6), budget=0.3, jobs=2)
    assert time.monotonic() - start < 5
    assert report.verdict == "budget-exhausted"


def test_iter_corpus_order():
    spec = CorpusSpec(families=("k3", "c4"), exhaustive_n=3)
    names = [name for name, _ in iter_corpus(spec)]
    assert names == [name for name, _ in iter_corpus(spec)]
    assert names[0] == "k3" and names[1] == "c4"


def test_exhaustive_order_past_seven_is_refused_before_any_check(monkeypatch):
    # enumerate_graphs refuses n = 8 only once the sweep reaches it, after
    # every graph on up to seven vertices; the corpus refuses it first
    ran = []
    monkeypatch.setitem(CHECKS, "KEMPE", (lambda g: ran.append(g) or iter(()), ""))
    start = time.monotonic()
    for n in (8, 0):
        spec = CorpusSpec(families=("p4",), exhaustive_n=n)
        with pytest.raises(ValueError, match=f"at least 1 and at most 7, got {n}"):
            next(iter_corpus(spec))
        with pytest.raises(ValueError, match="at most 7"):
            run_check("KEMPE", spec, budget=2)
    assert time.monotonic() - start < 5
    assert ran == []


@pytest.mark.parametrize(
    "spec, message",
    [
        (CorpusSpec(families=("p4", "bipartite:1:65536")),
         "bipartite:1:65536: 65537 vertices is more than the 65536 a reader accepts"),
        (CorpusSpec(families=("p4",), random=(65537, 0.5, 1, 1)),
         "random n=65537 is more than the 65536 vertices a reader accepts"),
        # refused from its parameters: building it would take 10^8 edge tuples
        (CorpusSpec(families=("p4", "path:100000000")),
         "path:100000000: 100000000 vertices is more than the 65536 a reader accepts"),
    ],
    ids=["named", "random", "unbuilt"],
)
def test_a_graph_no_failure_could_name_is_refused_before_any_check(monkeypatch, spec, message):
    # a failure is reported as graph6, which no reader takes past 65 536
    # vertices; whether a run ends well must not hang on whether a check
    # fails on such a graph, so the corpus refuses it first
    ran = []
    monkeypatch.setitem(CHECKS, "KEMPE", (lambda g: ran.append(g) or iter(()), ""))
    with pytest.raises(ValueError) as exc:
        next(iter_corpus(spec))
    assert str(exc.value) == message
    with pytest.raises(ValueError, match="a reader accepts"):
        run_check("KEMPE", spec)
    assert ran == []


def test_a_corpus_that_names_no_graph_is_refused():
    with pytest.raises(ValueError, match="names no graph"):
        next(iter_corpus(CorpusSpec()))


@pytest.mark.parametrize(
    "spec, message",
    [
        (CorpusSpec(families=("p4", "nosuch")), "^unknown family 'nosuch'$"),
        (CorpusSpec(families=("p4",), exhaustive_n=7, random=(5, 1.5, 0, 3)), r"^p must lie in \[0,1\]$"),
        (CorpusSpec(exhaustive_n=7, random=(5, math.nan, 0, 3)), r"^p must lie in \[0,1\]$"),
    ],
)
def test_a_bad_token_or_p_is_refused_before_the_first_pair(spec, message):
    # generate and gnp refuse these themselves; the corpus builds the named
    # graphs and the first random one before it yields, not after the sweep
    with pytest.raises(ValueError, match=message):
        next(iter_corpus(spec))


@pytest.mark.parametrize(
    "corpus, jobs, message",
    [
        (CorpusSpec(random=(5, 0.5, 0, 0)), 1, "at least 1"),
        (CorpusSpec(random=(5, 0.5, 0, -4)), 1, "at least 1"),
        (CorpusSpec(random=(0, 0.5, 0, 3)), 1, "at least 1"),
        (CorpusSpec(), 1, "names no graph"),
        (SMALL, 0, "jobs must be at least 1, got 0"),
        (SMALL, -7, "jobs must be at least 1, got -7"),
        (SMALL, 62, "jobs must be at most 61, got 62"),
    ],
)
def test_a_run_that_would_pass_vacuously_is_refused_before_any_check(
    monkeypatch, corpus, jobs, message
):
    # each of these used to pass over 0 graphs, to run serially, or, past
    # 61 jobs, to fork every worker at the pool's first submit; none of
    # them may build a pool
    import concurrent.futures

    def forbidden(*args, **kwargs):
        raise AssertionError("a refused run built a process pool")

    ran = []
    monkeypatch.setitem(CHECKS, "KEMPE", (lambda g: ran.append(g) or iter(()), ""))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", forbidden)
    with pytest.raises(ValueError, match=message):
        run_check("KEMPE", corpus, jobs=jobs)
    assert ran == []


@pytest.mark.parametrize(
    "ids, message",
    [((), "no checks named"), (("KEMPE", "BIP-IE", "KEMPE"), "check 'KEMPE' is named twice")],
    ids=["empty", "repeated"],
)
def test_an_empty_id_list_is_refused(monkeypatch, ids, message):
    # a repeated id would run its check twice and print two equal reports
    ran = []
    monkeypatch.setitem(CHECKS, "KEMPE", (lambda g: ran.append(g) or iter(()), ""))
    with pytest.raises(ValueError, match=message):
        checks_mod._run_checks(ids, SMALL)
    assert ran == []


def test_a_graph_a_check_cannot_evaluate_fails_that_check_alone(monkeypatch):
    # a ValueError on one graph is that graph's finding; the run goes on,
    # and the other graphs and checks keep their results
    def kempe(g):
        if g.n > 4:
            raise ValueError(f"graph with {g.n} vertices is too big")
        return real(g)

    real = CHECKS["KEMPE"][0]
    monkeypatch.setitem(CHECKS, "KEMPE", (kempe, ""))
    corpus = [("c5", cycle_graph(5)), ("p4", path_graph(4))]
    kempe_report, bip = checks_mod._run_checks(["KEMPE", "BIP-IE"], corpus)
    assert kempe_report.verdict == "fail"
    assert kempe_report.corpus_size == 2
    assert kempe_report.instances_run == run_check("KEMPE", corpus[1:]).instances_run > 0
    assert [tuple(f) for f in kempe_report.failures] == [
        ("Dhc", "graph", "an evaluation", "graph with 5 vertices is too big")
    ]
    assert (bip.verdict, bip.corpus_size) == ("pass", 2)


def test_a_check_that_raises_midway_counts_nothing_it_yielded(monkeypatch):
    # the ValueError replaces the graph's whole result for the check: the
    # instance and the finding yielded before it are dropped
    def partial(g):
        yield None
        yield ("pair (0,1)", "kept", "lost")
        raise ValueError("gave up midway")

    monkeypatch.setitem(CHECKS, "KEMPE", (partial, ""))
    [[(result, _)]] = checks_mod._evaluate(("KEMPE",), [path_graph(4)])
    assert result == (0, [("graph", "an evaluation", "gave up midway")], [])


def test_iter_corpus_random_is_seeded():
    spec = CorpusSpec(random=(10, 0.4, 9, 3))
    a = [(name, g.rows) for name, g in iter_corpus(spec)]
    b = [(name, g.rows) for name, g in iter_corpus(spec)]
    assert a == b
    assert len(a) == 3
    assert len({rows for _, rows in a}) == 3


def test_bipartite_parity_over_all_small_bipartite_graphs():
    # every connected bipartite labeled graph through n=6
    corpus = (
        (name, g)
        for name, g in iter_corpus(CorpusSpec(exhaustive_n=6))
        if bipartition(g) is not None
    )
    report = run_check("BIP-IE", corpus, budget=120.0)
    assert report.verdict == "pass"
    assert report.corpus_size == 3250
    assert report.instances_run == 47539


def test_bipartite_checks_walk_only_the_edges(monkeypatch):
    # P5 is connected, so g-uv joins each of its six nonadjacent pairs with
    # no walk; each of its four edges is a bridge and needs one
    calls = []
    real = checks_mod._chain

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(checks_mod, "_chain", counting)
    [[((ran, failures, _), _)]] = checks_mod._evaluate(("BIP-IE",), [path_graph(5)])
    assert (ran, failures) == (10, [])
    assert len(calls) == 4


def test_default_corpus_resolves():
    names = [name for name, _ in iter_corpus(default_corpus())]
    assert "moser_spindle" in names and "grotzsch" in names
    assert len(names) == 10 + 1 + 1 + 4 + 38 + 728


def test_kempe_reports_every_broken_chain_obligation(monkeypatch):
    # make the relation scan claim both kinds on every pair of C5, so each
    # of KEMPE's three failure texts fires; the digest pins their wording,
    # their assignment tuples and their order
    _fake_relations(monkeypatch, _lie_on_every_pair)
    report = run_check("KEMPE", CorpusSpec(families=("c5",)))
    assert report.verdict == "fail"
    assert report.instances_run == 660
    got = Counter(f.got for f in report.failures)
    assert got == {"distinct": 240, "chain misses it": 270, "equal": 60}
    # the chains walk g-uv, so each of C5's five edges, claimed as an edge
    # relation, misses its chain in all 30 colorings: the walk may not
    # cross uv itself
    missed = Counter(
        f.locus.split(" in ")[0] for f in report.failures if f.got == "chain misses it"
    )
    edges = {f"edge pair ({u},{v})": 30 for u, v in cycle_graph(5).edges()}
    assert {p: c for p, c in missed.items() if p in edges} == edges
    assert sum(c for p, c in missed.items() if p not in edges) == 120
    text = json.dumps(report.to_json_dict(), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == KEMPE_C5_DIGEST


def test_kempe_fails_an_adjacent_edge_claim(monkeypatch):
    # P4's edge (1,2) is no edge relation: with the edge removed, 1 and 2
    # lie in different components. A chain walked in g itself would cross
    # the edge and reach 2; the walk in g-uv misses it in both 2-colorings
    p4 = path_graph(4)
    claim = (ImplicitRelation(1, 2, RelationKind.EDGE, 2, True),)
    _fake_relations(monkeypatch, lambda h: claim if h == p4 else ())
    report = run_check("KEMPE", CorpusSpec(families=("p4",)))
    assert report.verdict == "fail"
    assert report.instances_run == 2
    assert [(f.locus, f.got) for f in report.failures] == [
        ("edge pair (1,2) in (1, 2, 1, 2)", "chain misses it"),
        ("edge pair (1,2) in (2, 1, 2, 1)", "chain misses it"),
    ]


def test_dc_bound_reports_every_broken_chain(monkeypatch):
    # claim chi(K4) = 5, so that each of DC-BOUND's failure texts fires on
    # the 4-colorings of K4-uv; the digest pins their wording and order
    monkeypatch.setattr(checks_mod, "chromatic_number", lambda h: 5)
    report = run_check("DC-BOUND", CorpusSpec(families=("k4",)))
    assert report.verdict == "fail"
    assert report.instances_run == 732
    got = Counter(f.got for f in report.failures)
    assert got == {
        "2": 150, "differ": 144, "chain [0]": 72, "chain [1]": 48, "chain [2]": 24,
    }
    text = json.dumps(report.to_json_dict(), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "ba04f3ea6ab99f21a343dc438e4f4837dce1d28274fcf8a4b8b9c897848a72e0"
    )


def test_dc_bound_records_tightness():
    report = run_check("DC-BOUND", CorpusSpec(families=("k4",)))
    assert report.verdict == "pass"
    assert any("tight" in note and "True" in note for note in report.notes)


def test_report_json_shape():
    report = run_check("BIP-IE", CorpusSpec(families=("p4",)))
    d = report.to_json_dict()
    assert set(d) == {
        "check_id",
        "corpus_size",
        "instances_run",
        "failures",
        "notes",
        "verdict",
    }


def test_min_pre_expects_no_certificate_for_unpinnable_relations():
    # gnp:9:0.5:107 is HbE[vl{, whose only relation joins adjacent vertices;
    # no proper precoloring can give them one color
    (_, g), = iter_corpus(CorpusSpec(families=("gnp:9:0.5:107",)))
    rels = [(r.u, r.v, r.kind, r.adjacent) for r in scan_relations(g)]
    assert rels == [(0, 5, RelationKind.EDGE, True)]
    # with one color every pair is an identity no precoloring can separate
    empty = Graph([0, 0, 0])
    assert len(scan_relations(empty)) == 3
    report = run_check("MIN-PRE", [("gnp:9:0.5:107", g), ("empty3", empty)])
    assert report.verdict == "pass", report.failures



def test_min_pre_reports_the_first_stuck_vertex_only(monkeypatch):
    # one color short of chi, every single vertex is stuck; each size-1
    # sweep stops at the first one but still counts n instances
    g = cycle_graph(5)
    monkeypatch.setattr(checks_mod, "chromatic_number", lambda h: 2)
    [[((ran, failures, _), _)]] = checks_mod._evaluate(("MIN-PRE",), [g])
    size1 = [f for f in failures if f[0].startswith("size-1")]
    assert size1 == [("size-1 p(0)=1 at k=2", "extends", "stuck")]
    assert ran >= 2 * g.n


@pytest.mark.parametrize("g", [gnp(7, 0.5, 4), gnp(8, 0.5, 19)])
def test_cis_inv_removes_each_critical_set_and_follows_the_pair(monkeypatch, g):
    # Every decision CIS-INV asks for is recorded with the recursion frame it
    # came from. The frame knows which of its graph's vertices are the
    # original ones, so each g-S it decides on must be the induced subgraph
    # on the surviving original ids, in order, with the pair at its images,
    # the question must be of the relation's own kind, and the sets must be
    # the oracle's critical sets that miss the pair.
    frames = []
    calls = []
    real_recurse = checks_mod._cis_recurse
    real_related = checks_mod._related

    def recurse(h, u, v, kind, depth, desc):
        # a deeper frame expects the kind of the relation it follows
        if frames:
            parent = frames[-1]
            orig = [x for x in parent["orig"] if x not in parent["last"]]
            want_kind = parent["kind"]
        else:
            orig = list(range(len(h)))
            want_kind = kind
        sets = [
            s
            for s in oracles.critical_sets_by_subsets(Graph(h))
            if u not in s and v not in s
        ]
        frames.append(
            {"orig": orig, "sets": sets, "next": 0, "pair": (orig[u], orig[v]), "kind": want_kind}
        )
        yield from real_recurse(h, u, v, kind, depth, desc)
        frame = frames.pop()
        assert frame["next"] == len(frame["sets"])

    def related(h, hu, hv, kind):
        frame = frames[-1]
        s = frame["sets"][frame["next"]]
        frame["next"] += 1
        frame["last"] = {frame["orig"][x] for x in s}
        kept = [x for x in frame["orig"] if x not in frame["last"]]
        index = {x: i for i, x in enumerate(kept)}
        want = Graph.from_edges(
            len(kept), [(index[a], index[b]) for a, b in g.edges() if a in index and b in index]
        )
        ou, ov = frame["pair"]
        calls.append(
            (len(frames), h == want.rows, (hu, hv) == (index[ou], index[ov]), kind is frame["kind"])
        )
        return real_related(h, hu, hv, kind)

    monkeypatch.setattr(checks_mod, "_cis_recurse", recurse)
    monkeypatch.setattr(checks_mod, "_related", related)
    report = run_check("CIS-INV", [("g", g)])
    assert report.verdict == "pass", report.failures
    assert report.instances_run == len(calls) > 0
    assert all(all(same) for _, *same in calls)
    assert any(depth == 2 for depth, *_ in calls)
    # both kinds are asked, so a question of the wrong kind shows
    assert {r.kind for r in scan_relations(g)} == set(RelationKind)


def test_subdiv_reports_a_lost_half_edge_relation(monkeypatch):
    # a refuting _related reaches SUBDIV's last step: each subdivided edge
    # still drops chi, and both halves then fail, in edge order
    asked = []

    def refute(h, a, b, kind):
        asked.append(kind)
        return False

    monkeypatch.setattr(checks_mod, "_related", refute)
    report = run_check("SUBDIV", CorpusSpec(families=("k3", "c5")))
    assert report.verdict == "fail"
    assert report.instances_run == 3 * 3 + 5 * 3
    # each graph's graph6, its new vertex's id, and its edges
    cases = [
        ("Bw", 3, [(0, 1), (0, 2), (1, 2)]),
        ("Dhc", 5, [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]),
    ]
    assert [tuple(f) for f in report.failures] == [
        (g6, f"subdivide ({u},{v})", f"({a},{b}) is an edge relation", "not a relation")
        for g6, w, edges in cases
        for u, v in edges
        for a, b in ((u, w), (w, v))
    ]
    assert set(asked) == {RelationKind.EDGE} and len(asked) == 16


def test_dc_bound_reports_a_lost_identity_on_a_complete_graph(monkeypatch):
    # on K4 every edge's identity question fails, so no chain walk runs;
    # the six common-neighbor bounds still pass
    asked = []

    def refute(h, u, v, kind):
        asked.append((sum(map(int.bit_count, h)) // 2, u, v, kind))
        return False

    monkeypatch.setattr(checks_mod, "_related", refute)
    report = run_check("DC-BOUND", CorpusSpec(families=("k4",)))
    assert report.verdict == "fail"
    assert report.instances_run == 6 + 6
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    assert [tuple(f) for f in report.failures] == [
        ("C~", f"edge ({u},{v})", "identity pair in g-uv", "not identity") for u, v in edges
    ]
    assert asked == [(5, u, v, RelationKind.IDENTITY) for u, v in edges]


def _claim(*relations):
    """A fake relation scan that claims these (u, v, kind) relations on
    every graph, each at g's chi and with g's own adjacency."""

    def fake(h):
        k = chromatic_number(h)
        return tuple(ImplicitRelation(u, v, kind, k, h.has_edge(u, v)) for u, v, kind in relations)

    return fake


@pytest.mark.parametrize(
    "check_id, family, lie, failures",
    [
        # P3's identity (0,2) survives the removal of {1}; a pair question
        # that refutes every relation says it is lost
        (
            "CIS-INV", "p3", lambda mp: mp.setattr(checks_mod, "_related", lambda *args: False),
            [("pair (0,2) minus [1]", "lost")],
        ),
        # merging P4's 0 and 2 leaves a path, which has two 2-colorings
        (
            "POLY-IE", "p4", lambda mp: _fake_relations(mp, _claim((0, 2, RelationKind.EDGE))),
            [("pair (0,2)", "2")],
        ),
        # merging the ends of P4 makes a triangle, which has no 2-coloring
        (
            "POLY-II", "p4", lambda mp: _fake_relations(mp, _claim((0, 3, RelationKind.IDENTITY))),
            [("pair (0,3)", "0")],
        ),
        # a chord of W5's rim keeps the wheel planar
        (
            "PLANAR-ADD", "w5", lambda mp: _fake_relations(mp, _claim((0, 2, RelationKind.EDGE))),
            [("edge pair (0,2)", "still planar")],
        ),
        # K3 is critical, and chi read as 3 everywhere says that no
        # subdivision of it drops to 2
        (
            "SUBDIV", "k3", lambda mp: mp.setattr(checks_mod, "chromatic_number", lambda h: 3),
            [("subdivide (0,1)", "3"), ("subdivide (0,2)", "3"), ("subdivide (1,2)", "3")],
        ),
        # every vertex of C5 is critical; 3 sees neither end of (0,1), and
        # 3 and 4 each miss an end of (0,2)
        (
            "CRIT-ADJ",
            "c5",
            lambda mp: _fake_relations(
                mp, _claim((0, 1, RelationKind.EDGE), (0, 2, RelationKind.IDENTITY))
            ),
            [
                ("edge pair (0,1), critical vertex 3", "adjacent to neither"),
                ("identity pair (0,2), critical vertex 3", "misses one"),
                ("identity pair (0,2), critical vertex 4", "misses one"),
            ],
        ),
        # P3's certificate colors 0 and 2 apart, so it pins an identity,
        # not the edge relation claimed on that pair
        (
            "MIN-PRE", "p3", lambda mp: _fake_relations(mp, _claim((0, 2, RelationKind.EDGE))),
            [("certificate pair (0,2) distinct colors", "absent")],
        ),
        # an adjacent uv of a planar 4-chromatic g is an edge relation only
        # if the planar g/uv has no 4-coloring, which the Four Color Theorem
        # rules out; so one claimed on W5's rim edge (0,1) is wrong, and
        # deleting that edge leaves the wheel planar
        (
            "PLANAR-ADD", "w5", lambda mp: _fake_relations(mp, _claim((0, 1, RelationKind.EDGE))),
            [("edge pair (0,1)", "still planar")],
        ),
    ],
)
def test_every_check_can_fail(monkeypatch, check_id, family, lie, failures):
    # each check's own failure branch, reached by a lie in what it reads
    lie(monkeypatch)
    report = run_check(check_id, CorpusSpec(families=(family,)))
    assert report.verdict == "fail"
    assert [(f.locus, f.got) for f in report.failures] == failures
