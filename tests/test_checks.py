import pytest

from chromarel import (
    CorpusSpec,
    Graph,
    RelationKind,
    default_corpus,
    iter_corpus,
    run_check,
    run_checks,
    scan_relations,
)
from chromarel.checks import CHECKS
import chromarel.checks as checks_mod


SMALL = CorpusSpec(families=("p4", "c4", "c5", "k4", "w5"), exhaustive_n=4)


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


def test_unknown_check_rejected():
    with pytest.raises(ValueError):
        run_check("NO-SUCH", SMALL)


def test_failures_carry_graph6_and_locus(monkeypatch):
    # make the edge detector lie so the reporting path gets exercised
    monkeypatch.setattr(checks_mod, "is_implicit_edge", lambda g, u, v: False)
    report = run_check("BIP-IE", CorpusSpec(families=("p4",)))
    assert report.verdict == "fail"
    assert report.failures
    f = report.failures[0]
    assert f.graph6 == "Ch"
    assert "(0,3)" in f.locus.replace(" ", "")
    assert f.to_json_dict()["graph"] == "Ch"


def test_jobs_do_not_change_the_report():
    seq = run_check("MIN-PRE", SMALL, jobs=1)
    par = run_check("MIN-PRE", SMALL, jobs=2)
    assert seq.to_json_dict(include_elapsed=False) == par.to_json_dict(
        include_elapsed=False
    )


def test_iter_corpus_order_and_filters():
    spec = CorpusSpec(families=("k3", "c4"), exhaustive_n=3)
    names = [name for name, _ in iter_corpus(spec)]
    assert names == [name for name, _ in iter_corpus(spec)]
    assert names[0] == "k3" and names[1] == "c4"

    bip = CorpusSpec(families=("k3", "c4"), filters=("bipartite",))
    assert [name for name, _ in iter_corpus(bip)] == ["c4"]
    chi3 = CorpusSpec(families=("k3", "c4", "c5"), filters=("chi=3",))
    assert [name for name, _ in iter_corpus(chi3)] == ["k3", "c5"]
    planar = CorpusSpec(families=("k5", "k4"), filters=("planar", "connected"))
    assert [name for name, _ in iter_corpus(planar)] == ["k4"]
    with pytest.raises(ValueError):
        list(iter_corpus(CorpusSpec(families=("k3",), filters=("girth=5",))))


def test_iter_corpus_random_is_seeded():
    spec = CorpusSpec(random=(10, 0.4, 9, 3))
    a = [(name, g.rows) for name, g in iter_corpus(spec)]
    b = [(name, g.rows) for name, g in iter_corpus(spec)]
    assert a == b
    assert len(a) == 3
    assert len({rows for _, rows in a}) == 3


def test_run_checks_runs_in_given_order():
    reports = run_checks(("KEMPE", "BIP-IE"), CorpusSpec(families=("p4",)))
    assert [r.check_id for r in reports] == ["KEMPE", "BIP-IE"]


def test_bipartite_parity_over_all_small_bipartite_graphs():
    # every connected bipartite labeled graph through n=6
    spec = CorpusSpec(exhaustive_n=6, filters=("bipartite",))
    report = run_check("BIP-IE", spec, budget=120.0)
    assert report.verdict == "pass"
    assert report.corpus_size == 3250
    assert report.instances_run == 47539


def test_default_corpus_resolves():
    names = [name for name, _ in iter_corpus(default_corpus())]
    assert "moser_spindle" in names and "grotzsch" in names
    assert len(names) == 10 + 1 + 1 + 4 + 38 + 728


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
        "elapsed",
    }
    assert "elapsed" not in report.to_json_dict(include_elapsed=False)


def test_min_pre_expects_no_certificate_for_unpinnable_relations():
    # gnp:9:0.5:107 is HbE[vl{, whose only relation joins adjacent vertices;
    # no proper precoloring can give them one color
    (_, g), = iter_corpus(CorpusSpec(families=("gnp:9:0.5:107",)))
    rels = [(r.u, r.v, r.kind, r.adjacent) for r in scan_relations(g)]
    assert rels == [(0, 5, RelationKind.EDGE, True)]
    # with one color every pair is an identity no precoloring can separate
    empty = Graph(3, [0, 0, 0])
    assert len(scan_relations(empty)) == 3
    report = run_check("MIN-PRE", [("gnp:9:0.5:107", g), ("empty3", empty)])
    assert report.verdict == "pass", report.failures

