import json
import os
import subprocess
import sys
import textwrap
import time

import pytest

import chromarel.coloring as coloring_mod
import chromarel.relations as relations_mod
from chromarel import Graph
from chromarel.checks import CHECKS
from chromarel.cli import main
from chromarel.families import cycle_graph, gnp, path_graph, wheel_graph
from chromarel.io import serialize_graph
from chromarel.relations import RelationKind, criticality, scan_relations


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def p4_file(tmp_path):
    path = tmp_path / "p4.col"
    path.write_text("p edge 4 3\ne 1 2\ne 2 3\ne 3 4\n")
    return str(path)


@pytest.fixture
def c4_file(tmp_path):
    path = tmp_path / "c4.g6"
    path.write_text("Cl\n")
    return str(path)


def test_analyze_basic(capsys, p4_file):
    code, out, _ = run_cli(capsys, "analyze", p4_file)
    assert code == 0
    assert out == '{"chi":2,"m":3,"n":4}\n'


def test_analyze_relations_and_criticality(capsys, p4_file):
    code, out, _ = run_cli(capsys, "analyze", p4_file, "--relations", "--criticality")
    assert code == 0
    data = json.loads(out)
    assert data["relations"] == {"edges": [[0, 3]], "identities": [[0, 2], [1, 3]]}
    assert data["criticality"]["is_critical"] is False


def test_analyze_output_is_byte_stable(capsys, p4_file):
    _, first, _ = run_cli(capsys, "analyze", p4_file, "--relations")
    _, second, _ = run_cli(capsys, "analyze", p4_file, "--relations")
    assert first == second


@pytest.mark.parametrize("g", [path_graph(4), cycle_graph(6), gnp(9, 0.5, 107), gnp(10, 0.4, 3)])
def test_analyze_relations_are_relation_reports_lists(capsys, tmp_path, g):
    path = tmp_path / "g.g6"
    path.write_text(serialize_graph(g, "graph6"))
    _, out, _ = run_cli(capsys, "analyze", str(path), "--relations")
    rels = scan_relations(g)
    relations = {
        "edges": [[r.u, r.v] for r in rels if r.kind is RelationKind.EDGE],
        "identities": [[r.u, r.v] for r in rels if r.kind is RelationKind.IDENTITY],
    }
    expected = {"chi": criticality(g).k, "m": g.m, "n": g.n, "relations": relations}
    assert out == json.dumps(expected, sort_keys=True, separators=(",", ":")) + "\n"


def test_analyze_scans_once(capsys, p4_file, monkeypatch):
    calls = []
    for name in ("scan_relations", "criticality"):
        real = getattr(relations_mod, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(relations_mod, name, counted)
    code, _, _ = run_cli(capsys, "analyze", p4_file, "--relations", "--criticality")
    assert code == 0
    assert sorted(calls) == ["criticality", "scan_relations"]


def test_route_disagreement_exits_1(capsys, p4_file, monkeypatch):
    real = relations_mod.implicit_via_sets
    monkeypatch.setattr(
        relations_mod, "implicit_via_sets", lambda *args: not real(*args)
    )
    code, out, err = run_cli(capsys, "analyze", p4_file, "--relations")
    assert code == 1
    assert out == ""
    assert err.startswith("error: route disagreement")


def test_analyze_extension_exit_codes(capsys, p4_file):
    code, out, _ = run_cli(capsys, "analyze", p4_file, "--pre", "0=1,3=1")
    assert code == 1
    ext = json.loads(out)["extension"]
    assert ext["extends"] is False
    assert ext["verdict"] == "non-extensible"
    assert ext["coloring"] is None

    code, out, _ = run_cli(capsys, "analyze", p4_file, "--pre", "0=1,2=1")
    assert code == 0
    ext = json.loads(out)["extension"]
    assert ext["extends"] is True
    assert ext["verdict"] == "extensible"
    assert ext["coloring"]["assignment"][0] == 1

    code, _, _ = run_cli(capsys, "analyze", p4_file, "--pre", "0=1,3=1", "--extend", "3")
    assert code == 0


def test_analyze_extend_needs_pre(capsys, p4_file):
    code, out, err = run_cli(capsys, "analyze", p4_file, "--extend", "2")
    assert code == 2
    assert out == ""
    assert "--extend needs --pre" in err


@pytest.mark.parametrize("output", [[], ["-o", "-"]])
def test_analyze_refuses_dot_on_stdout_beside_the_json(capsys, tmp_path, output):
    # DOT text ahead of the JSON would leave stdout unparseable; the refusal
    # comes before the graph is read, so the missing file is never opened
    missing = str(tmp_path / "missing.col")
    code, out, err = run_cli(capsys, "analyze", missing, "--dot", "-", *output)
    assert (code, out, err) == (2, "", "error: --dot - needs -o to send the JSON to a file\n")


@pytest.mark.parametrize("output", ["same.txt", "./same.txt"])
def test_analyze_refuses_dot_and_json_to_one_file(capsys, tmp_path, monkeypatch, output):
    # the JSON would overwrite the DOT view; the refusal comes before the
    # graph is read, so the missing file is never opened and nothing is written
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "analyze", "missing.col", "--dot", "same.txt", "-o", output)
    assert (code, out, err) == (2, "", f"error: --dot and -o name one file: {output}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("link", [False, True], ids=["same-path", "hard-link"])
@pytest.mark.parametrize(
    "argv, option",
    [
        (["analyze", "{g}", "--dot", "{out}"], "--dot"),
        (["analyze", "{g}", "-o", "{out}"], "-o"),
        (["poly", "{g}", "-o", "{out}"], "-o"),
        (["convert", "{g}", "{out}", "--to", "graph6"], "outfile"),
    ],
)
def test_an_output_that_names_the_input_is_refused(capsys, tmp_path, argv, option, link):
    # each of these used to exit 0 and replace the input graph
    path = tmp_path / "g.txt"
    path.write_text("p edge 4 3\ne 1 2\ne 2 3\ne 3 4\n")
    before = path.read_bytes()
    out_path = path
    if link:
        out_path = tmp_path / "h.txt"
        os.link(path, out_path)
    code, out, err = run_cli(capsys, *(a.format(g=path, out=out_path) for a in argv))
    assert (code, out, err) == (2, "", f"error: {option} names the input file: {out_path}\n")
    assert path.read_bytes() == before
    assert sorted(tmp_path.iterdir()) == sorted({path, out_path})


def test_an_output_on_a_symlink_loop_is_bad_usage(capsys, p4_file, tmp_path):
    # the output check resolves the path without raising; the write refuses it
    loop = tmp_path / "loop"
    loop.symlink_to(loop)
    code, out, err = run_cli(capsys, "poly", p4_file, "-o", str(loop))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {loop}: ")


def test_analyze_writes_dot_to_stdout_when_the_json_goes_to_a_file(capsys, p4_file, tmp_path):
    json_path = tmp_path / "p4.json"
    code, out, _ = run_cli(capsys, "analyze", p4_file, "--dot", "-", "-o", str(json_path))
    assert code == 0
    assert out.startswith("graph G {")
    assert json.loads(json_path.read_text())["chi"] == 2


def test_analyze_rejects_bad_precolorings(capsys, p4_file):
    assert run_cli(capsys, "analyze", p4_file, "--pre", "0:1")[0] == 2
    assert run_cli(capsys, "analyze", p4_file, "--pre", "0=1,0=2")[0] == 2
    assert run_cli(capsys, "analyze", p4_file, "--pre", "9=1")[0] == 2
    assert run_cli(capsys, "analyze", p4_file, "--pre", "0=1,1=1")[0] == 2  # improper
    assert run_cli(capsys, "analyze", p4_file, "--pre", "0=5")[0] == 2  # outside palette
    # the solver validates the precoloring; its refusal names the file
    code, out, err = run_cli(capsys, "analyze", p4_file, "--pre", "0=1,1=1")
    assert (out, err) == ("", f"error: {p4_file}: precoloring is improper on edge (0,1)\n")
    code, out, err = run_cli(capsys, "analyze", p4_file, "--pre", "9=1")
    assert (out, err) == ("", f"error: {p4_file}: vertex 9 outside 0..3\n")


@pytest.mark.parametrize(
    "text, argv, message",
    [
        ("p edge 0 0\n", ["--pre", "0=1"], "vertex 0: the graph has no vertices"),
        ("p edge 0 1\ne 1 2\n", [], "line 2: endpoint, but the graph has no vertices"),
        ("p edge 1 0\n", ["--pre", "0=1", "--extend", "0"], "color 1 at vertex 0: the palette is empty"),
        (None, None, "edge (0,1): the graph has no vertices"),
    ],
    ids=["vertex", "endpoint", "color", "edge"],
)
def test_a_refusal_over_an_empty_range_says_it_is_empty(capsys, tmp_path, text, argv, message):
    # "outside 0..-1" or "outside 1..0" would name a range with no member
    if text is None:
        with pytest.raises(ValueError) as exc:
            Graph.from_edges(0, [(0, 1)])
        assert str(exc.value) == message
        return
    path = tmp_path / "empty.col"
    path.write_text(text)
    code, out, err = run_cli(capsys, "analyze", str(path), *argv)
    assert (code, out, err) == (2, "", f"error: {path}: {message}\n")


MALFORMED_PRE = [
    ("0:1", "bad precoloring entry '0:1'; expected VERTEX=COLOR"),
    ("0=x", "bad precoloring entry '0=x': invalid literal for int() with base 10: 'x'"),
    ("0=1,0=2", "vertex 0 precolored twice"),
    (" , ", "empty precoloring"),
]


@pytest.mark.parametrize(
    "pre, message", [*MALFORMED_PRE, ("0=5", "color 5 at vertex 0 outside 1..2")]
)
def test_every_pre_refusal_names_the_file(capsys, p4_file, pre, message):
    # refusals raised while parsing --pre, and those of the solver, read alike
    code, out, err = run_cli(capsys, "analyze", p4_file, "--pre", pre)
    assert (code, out, err) == (2, "", f"error: {p4_file}: {message}\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        *((["--pre", pre], message) for pre, message in MALFORMED_PRE),
        (["--pre", "0=5", "--extend", "3"], "color 5 at vertex 0 outside 1..3"),
        (["--pre", "0=1", "--extend", "-1"], "palette size must be nonnegative"),
        (["--pre", "4=1"], "vertex 4 outside 0..3"),
        (["--pre", "0=1,1=1"], "precoloring is improper on edge (0,1)"),
    ],
)
def test_malformed_pre_is_refused_before_the_work(capsys, monkeypatch, p4_file, argv, message):
    # the text of --pre needs no chi, nor does checking it against g, nor a
    # palette that --extend gives, so each is refused before chi, the
    # relation scan and criticality run
    def forbidden(*args, **kwargs):
        raise AssertionError("analysis ran before --pre was parsed")

    monkeypatch.setattr(coloring_mod, "chromatic_number", forbidden)
    monkeypatch.setattr(relations_mod, "scan_relations", forbidden)
    monkeypatch.setattr(relations_mod, "criticality", forbidden)
    code, out, err = run_cli(capsys, "analyze", p4_file, "--relations", "--criticality", *argv)
    assert (code, out, err) == (2, "", f"error: {p4_file}: {message}\n")


def test_analyze_dot_output(capsys, p4_file, tmp_path):
    dot_path = tmp_path / "p4.dot"
    code, _, _ = run_cli(capsys, "analyze", p4_file, "--dot", str(dot_path))
    assert code == 0
    dot = dot_path.read_text()
    assert "style=dashed" in dot and "style=dotted" in dot


def test_missing_file_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "analyze", "/nonexistent/g.col")
    assert code == 2
    assert "error:" in err


def test_bad_input_is_usage_error(capsys, tmp_path):
    path = tmp_path / "bad.col"
    path.write_text("p edge 2 1\ne 1 5\n")
    code, _, err = run_cli(capsys, "analyze", str(path))
    assert code == 2
    assert "line 2" in err


@pytest.mark.parametrize("command", [["analyze"], ["poly"], ["convert", "out.col"]])
def test_undecodable_input_is_usage_error(capsys, tmp_path, command):
    path = tmp_path / "bad.g6"
    path.write_bytes(b"\xff")
    argv = [command[0], str(path), *[str(tmp_path / a) for a in command[1:]]]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f"cannot read {path}" in err and "decode" in err
    assert not (tmp_path / "out.col").exists()


@pytest.mark.parametrize(
    "name, text",
    [
        ("huge.col", "p edge {} 0\n"),
        ("huge.edges", "n={}\n"),
        ("huge.edges", "0 {}\n"),
    ],
)
def test_huge_vertex_count_is_usage_error(capsys, tmp_path, name, text):
    # a count past sys.maxsize fails at once if it reaches the allocation,
    # so this never asks for memory even without the limit
    huge = 10**20
    assert huge > sys.maxsize
    path = tmp_path / name
    path.write_text(text.format(huge))
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert code == 2
    assert out == ""
    assert "line 1:" in err and ("more than 65536" in err or "above 65535" in err)


@pytest.mark.parametrize("flag", [["--pre", "0=1"], ["--relations"]])
def test_too_deep_graph_is_usage_error(capsys, tmp_path, flag):
    # the exact solver recurses once per vertex; a 1 500-vertex path is
    # past Python's recursion limit
    n = 1500
    path = tmp_path / "path.col"
    path.write_text(f"p edge {n} {n - 1}\n" + "".join(f"e {i} {i + 1}\n" for i in range(1, n)))
    code, out, err = run_cli(capsys, "analyze", str(path), *flag)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "1500 vertices" in err
    assert "Traceback" not in err


def test_poly_exact_bytes(capsys, c4_file):
    code, out, _ = run_cli(capsys, "poly", c4_file, "--eval", "3")
    assert code == 0
    assert out == '{"coeffs":[0,-3,6,-4,1],"eval":{"3":18}}\n'


def test_poly_without_eval(capsys, c4_file):
    code, out, _ = run_cli(capsys, "poly", c4_file)
    assert code == 0
    assert out == '{"coeffs":[0,-3,6,-4,1],"eval":{}}\n'


def test_poly_budget(capsys, c4_file):
    code, out, err = run_cli(capsys, "poly", c4_file, "--max-vertices", "3")
    message = "n=4 exceeds the 3-vertex budget; raise max_vertices to force this computation"
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "--random", "5,0.5"], "bad --random value '5,0.5'; expected N,P,COUNT"),
        (["verify", "--random", "5,0.5,3,1"], "bad --random value '5,0.5,3,1'; expected N,P,COUNT"),
        (["verify", "--random", "five,0.5,3"], "bad --random value 'five,0.5,3'; expected N,P,COUNT"),
        (["verify", "--random", " , , "], "bad --random value ' , , '; expected N,P,COUNT"),
        (["poly", "C4", "--eval", "3,x"], "bad evaluation point 'x'"),
        (["poly", "C4", "--eval", "1.5"], "bad evaluation point '1.5'"),
        (["poly", "C4", "--eval", "3,-1"], "evaluation points must be nonnegative"),
    ],
)
def test_a_malformed_option_list_is_bad_usage(capsys, c4_file, argv, message):
    argv = [c4_file if a == "C4" else a for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_an_empty_evaluation_point_is_skipped(capsys, c4_file):
    code, out, _ = run_cli(capsys, "poly", c4_file, "--eval", " 3, ,,")
    assert code == 0
    assert out == '{"coeffs":[0,-3,6,-4,1],"eval":{"3":18}}\n'


def test_gen_writes_only_a_graph_the_readers_take(capsys, tmp_path):
    # K(1, 65536) is a star on one vertex more than a reader accepts; the
    # refusal comes before the file is opened
    out_file = tmp_path / "star.col"
    code, out, err = run_cli(capsys, "gen", "bipartite", "1", "65536", "-o", str(out_file))
    assert (code, out) == (2, "")
    assert err == "error: 65537 vertices is more than the 65536 a reader accepts\n"
    assert not out_file.exists()


def test_gen_refuses_an_oversized_family_before_building_it(capsys, tmp_path):
    # a path on 10^8 vertices would take about 10^8 edge tuples to build;
    # its vertex count alone refuses it, so the refusal comes at once
    out_file = tmp_path / "p.col"
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "gen", "path", "100000000", "-o", str(out_file))
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == "error: 100000000 vertices is more than the 65536 a reader accepts\n"
    assert not out_file.exists()


def test_a_polynomial_too_deep_for_its_recursion_is_bad_input(tmp_path):
    # contracting an edge of a cycle leaves a cycle one shorter, so the
    # 400-cycle recurses past Python's limit; a fresh process shows the
    # stderr that a user sees
    path = tmp_path / "c400.col"
    path.write_text(serialize_graph(cycle_graph(400), "dimacs"))
    proc = subprocess.run(
        [sys.executable, "-m", "chromarel.cli", "poly", str(path), "--max-vertices", "400"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and "400 vertices" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_gen_and_convert_round_trip(capsys, tmp_path):
    col = tmp_path / "w5.col"
    code, _, _ = run_cli(capsys, "gen", "wheel", "5", "-o", str(col))
    assert code == 0
    assert col.read_text().startswith("p edge 6 10")

    g6 = tmp_path / "w5.g6"
    code, _, _ = run_cli(capsys, "convert", str(col), str(g6))
    assert code == 0

    code, out, _ = run_cli(capsys, "analyze", str(g6))
    assert code == 0
    assert json.loads(out)["chi"] == 4


def test_gen_to_stdout_and_errors(capsys):
    code, out, _ = run_cli(capsys, "gen", "path", "3", "--format", "dimacs")
    assert code == 0
    assert out.startswith("p edge 3 2")
    assert run_cli(capsys, "gen", "nosuch") == (2, "", "error: unknown family 'nosuch'\n")
    assert run_cli(capsys, "gen", "path", "zero")[0] == 2


def test_gen_planted(capsys, tmp_path):
    col = tmp_path / "planted.col"
    code, _, _ = run_cli(capsys, "gen", "planted", "60", "5", "0.3", "1", "-o", str(col))
    assert code == 0
    assert col.read_text().startswith("p edge 60 446\n")
    for bad in (("60", "0", "0.3", "1"), ("60", "5", "1.3", "1"), ("60", "5", "x", "1")):
        code, out, err = run_cli(capsys, "gen", "planted", *bad)
        assert code == 2 and out == "" and "error:" in err


def test_verify_reads_planted_tokens(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--checks", "IE2-EQ", "--families", "planted:12:3:0.5:1"
    )
    assert code == 0
    assert json.loads(out)["checks"][0]["instances_run"] > 0


def test_graph6_output_ends_its_line(capsys, tmp_path):
    # like dimacs and edgelist; the string itself, which names graphs in
    # reports, has no newline
    code, out, _ = run_cli(capsys, "gen", "c5", "--format", "graph6")
    assert code == 0
    assert out == serialize_graph(cycle_graph(5), "graph6") + "\n"
    col = tmp_path / "c5.col"
    g6 = tmp_path / "c5.g6"
    run_cli(capsys, "gen", "c5", "-o", str(col))
    assert run_cli(capsys, "convert", str(col), str(g6))[0] == 0
    assert g6.read_text() == out


def test_multi_graph_graph6_file_is_bad_input(capsys, tmp_path):
    path = tmp_path / "two.g6"
    path.write_text("Ch\nDQc\n")
    for cmd in ("analyze", "poly"):
        code, out, err = run_cli(capsys, cmd, str(path))
        assert code == 2 and out == ""
        assert "holds 2 graphs" in err and "Traceback" not in err


def test_verify_json_and_exit(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--checks", "bip-ie,kempe", "--families", "p4,c4"
    )
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "pass"
    assert [c["check_id"] for c in data["checks"]] == ["BIP-IE", "KEMPE"]
    assert all("elapsed" not in c for c in data["checks"])
    assert "BIP-IE: pass" in err


def test_verify_byte_stable(capsys):
    args = ("verify", "--checks", "MIN-PRE", "--exhaustive", "3")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_verify_budget_exhaustion_fails(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--checks", "KEMPE", "--families", "p4", "--budget", "0"
    )
    assert code == 1
    assert json.loads(out)["checks"][0]["verdict"] == "budget-exhausted"


@pytest.mark.parametrize("budget", ["nan", "-1"])
def test_verify_rejects_a_negative_or_nan_budget(capsys, budget):
    code, out, err = run_cli(
        capsys, "verify", "--checks", "KEMPE", "--families", "p4", "--budget", budget
    )
    assert code == 2
    assert out == ""
    assert "budget" in err


def test_verify_rejects_unknown_check(capsys):
    code, out, err = run_cli(capsys, "verify", "--checks", "NOPE")
    known = ", ".join(sorted(CHECKS))
    assert (code, out, err) == (2, "", f"error: unknown check 'NOPE'; known checks: {known}\n")


def test_jobs_defaults_to_one_whatever_the_environment(monkeypatch):
    from chromarel import cli

    monkeypatch.setenv("CHROMAREL_JOBS", "3")
    args = cli._build_parser().parse_args(["verify", "--all"])
    assert args.jobs == 1


def test_verify_jobs_takes_graphs_past_the_graph6_short_form(capsys):
    # path:70 has more vertices than graph6's short form holds, so workers
    # must not receive it as a graph6 string
    argv = ["verify", "--checks", "PLANAR-ADD", "--families", "path:70"]
    code1, out1, _ = run_cli(capsys, *argv, "--jobs", "1")
    code2, out2, err2 = run_cli(capsys, *argv, "--jobs", "2")
    assert (code1, code2) == (0, 0), err2
    assert out1 == out2


def test_verify_random_corpus(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--checks", "IE2-EQ", "--random", "6,0.5,4", "--seed", "11"
    )
    assert code == 0
    assert json.loads(out)["checks"][0]["corpus_size"] == 4


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "chromarel.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "chromarel" in proc.stdout


@pytest.mark.parametrize(
    "corpus",
    [
        ("--exhaustive", "-2"),
        ("--exhaustive", "0"),
        ("--random", "5,0.5,-1"),
        ("--random", "5,0.5,0"),
        ("--random", "0,0.5,3"),
        ("--exhaustive", "2", "--jobs", "0"),
        ("--exhaustive", "2", "--jobs", "-1"),
        ("--exhaustive", "2", "--jobs", "62"),
    ],
)
def test_verify_rejects_empty_or_nonpositive_corpus(capsys, monkeypatch, corpus):
    # these used to run nothing and report a vacuous pass, or, past 61
    # jobs, start every worker process at the pool's first submit; none of
    # them builds a pool
    import concurrent.futures

    def forbidden(*args, **kwargs):
        raise AssertionError("a refused run built a process pool")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", forbidden)
    code, out, err = run_cli(capsys, "verify", "--checks", "BIP-IE", *corpus)
    assert code == 2
    assert out == ""
    want = "at most 61, got 62" if corpus[-1] == "62" else "at least 1"
    assert err.startswith("error: ") and want in err


@pytest.mark.parametrize("families", ["", " , "])
def test_verify_refuses_an_empty_family_list(capsys, families):
    # this used to run an empty corpus and report a vacuous pass
    code, out, err = run_cli(capsys, "verify", "--checks", "KEMPE", "--families", families)
    assert code == 2
    assert out == ""
    assert err == "error: the corpus names no graph\n"


def test_verify_refuses_an_empty_check_list(capsys):
    code, out, err = run_cli(capsys, "verify", "--checks", " , ", "--families", "p4")
    assert (code, out, err) == (2, "", "error: no checks named\n")


def test_verify_refuses_an_exhaustive_order_past_seven_at_once(capsys):
    # refused before the corpus is read: enumerate_graphs alone would sweep
    # every graph on up to seven vertices first, past any budget's check
    start = time.monotonic()
    code, out, err = run_cli(capsys, "verify", "--exhaustive", "8", "--budget", "2")
    assert time.monotonic() - start < 5
    assert code == 2
    assert out == ""
    assert err == "error: exhaustive n must be at least 1 and at most 7, got 8\n"


@pytest.mark.parametrize(
    "corpus, message",
    [
        (["--exhaustive", "6", "--random", "5,1.5,3"], "p must lie in [0,1]"),
        (["--families", "gnp:50:0.5:5,nosuch"], "unknown family 'nosuch'"),
    ],
)
def test_verify_refuses_a_bad_family_token_or_p_before_any_check(capsys, monkeypatch, corpus, message):
    # refused before the first graph reaches a check, not once the corpus
    # reaches the bad value
    ran = []
    monkeypatch.setitem(CHECKS, "KEMPE", (lambda g: ran.append(g) or iter(()), ""))
    code, out, err = run_cli(capsys, "verify", "--checks", "KEMPE", *corpus)
    assert (code, out, err, ran) == (2, "", f"error: {message}\n", [])


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--seed", "5", "--checks", "KEMPE", "--families", "k4"], "--seed needs --random"),
        (["--all", "--checks", "KEMPE", "--families", "k4"], "--all and --checks exclude each other"),
        (["--checks", "KEMPE,kempe", "--families", "p4"], "check 'KEMPE' is named twice"),
    ],
)
def test_verify_refuses_an_option_it_would_ignore(capsys, monkeypatch, argv, message):
    # --seed seeds only --random, and --all names every check; beside what
    # they would not change, each is bad usage before any check runs, as is
    # a repeated id, which would run its check twice
    ran = []
    monkeypatch.setitem(CHECKS, "KEMPE", (lambda g: ran.append(g) or iter(()), ""))
    code, out, err = run_cli(capsys, "verify", *argv)
    assert (code, out, err, ran) == (2, "", f"error: {message}\n", [])


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_verify_reports_a_graph_too_deep_for_the_solver(capsys, jobs):
    # the 1 500-vertex path is past the exact solver's recursion; KEMPE
    # reports it as that graph's failure, and P4's instances still count
    code, out, err = run_cli(
        capsys, "verify", "--checks", "KEMPE,PLANAR-ADD", "--families", "p4,path:1500",
        "--jobs", jobs,
    )
    assert code == 1
    kempe, planar = json.loads(out)["checks"]
    _, p4_only, _ = run_cli(capsys, "verify", "--checks", "KEMPE", "--families", "p4")
    assert kempe["instances_run"] == json.loads(p4_only)["checks"][0]["instances_run"] > 0
    assert (kempe["corpus_size"], kempe["verdict"]) == (2, "fail")
    (failure,) = kempe["failures"]
    assert failure["graph"] == serialize_graph(path_graph(1500), "graph6")
    assert "1500 vertices is too deep" in failure["got"]
    assert (planar["corpus_size"], planar["verdict"]) == (2, "pass")
    assert json.loads(out)["verdict"] == "fail"
    assert "Traceback" not in err


def test_cli_import_leaves_out_the_process_pool():
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, chromarel.cli; print('concurrent.futures' in sys.modules)",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"



def _fresh_process(*code):
    source = "".join(textwrap.dedent(part) for part in code)
    proc = subprocess.run([sys.executable, "-c", source], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


_PRINT_LOADED = """
import json, sys
print(json.dumps(sorted(m[10:] for m in sys.modules if m.startswith("chromarel."))))
"""


def test_cli_import_loads_no_command_modules():
    (loaded,) = _fresh_process("import chromarel.cli", _PRINT_LOADED)
    assert json.loads(loaded) == ["cli", "graphs", "io"]


def test_poly_run_loads_only_its_modules(tmp_path):
    path = tmp_path / "c5.g6"
    path.write_text(serialize_graph(cycle_graph(5), "graph6"))
    poly, loaded = _fresh_process(
        f"""
        from chromarel.cli import main
        main(["poly", {str(path)!r}, "--eval", "3"])
        """,
        _PRINT_LOADED,
    )
    assert json.loads(poly)["eval"] == {"3": 30}
    assert json.loads(loaded) == ["cli", "graphs", "io", "polynomial"]


def test_analyze_and_poly_runs_load_no_dataclasses(tmp_path):
    # and a verify run: the catalog's report types are no dataclasses either
    path = tmp_path / "w5.g6"
    path.write_text(serialize_graph(wheel_graph(5), "graph6"))
    analysis, after_analyze, poly, after_poly, verify, after_verify = _fresh_process(
        f"""
        import sys
        preloaded = "dataclasses" in sys.modules
        from chromarel.cli import main
        main(["analyze", {str(path)!r}, "--relations", "--criticality"])
        print(preloaded or "dataclasses" not in sys.modules)
        main(["poly", {str(path)!r}])
        print(preloaded or "dataclasses" not in sys.modules)
        main(["verify", "--jobs", "1", "--exhaustive", "3"])
        print(preloaded or "dataclasses" not in sys.modules)
        """
    )
    assert json.loads(analysis)["chi"] == 4
    assert json.loads(poly)["coeffs"][-1] == 1
    assert json.loads(verify)["verdict"] == "pass"
    assert (after_analyze, after_poly, after_verify) == ("True", "True", "True")


def test_public_surface_is_pinned():
    # any change to the package's names shows here as a diff
    import chromarel
    from chromarel import Coloring, Graph

    assert sorted(chromarel.__all__) == [
        "BudgetError", "CHECKS", "CheckFailure", "CheckReport", "Coloring",
        "CorpusSpec", "CriticalityReport", "FORMATS", "FormatError", "Graph",
        "ImplicitRelation", "RelationKind",
        "RouteDisagreementError", "__version__", "bipartition", "chromatic_number",
        "chromatic_polynomial", "complete_bipartite", "complete_graph", "count_colorings",
        "criticality", "cycle_graph", "default_corpus", "enumerate_graphs", "evaluate",
        "format_for_path", "generate", "gnp", "grotzsch", "implicit_via_sets",
        "is_connected", "is_planar", "iter_corpus", "k_colorable", "min_nonextensible",
        "moser_spindle", "mycielski", "parse_graph", "path_graph", "petersen", "planted",
        "run_check", "scan_relations", "serialize_graph", "to_dot", "wheel_graph",
    ]
    # derived graphs come from the row kernels, not from Graph-level edits
    for name in ("EditError", "add_edge", "common_neighbors", "delete_edge",
                 "identify_vertices", "subdivide_edge",
                 # a precoloring is a plain vertex-to-color mapping
                 "Precoloring", "NonExtensibleCertificate",
                 # a chromatic polynomial is its coefficient tuple
                 "ChromaticPolynomial"):
        with pytest.raises(AttributeError):
            getattr(chromarel, name)
    for cls, name in ((Graph, "neighbors"), (Graph, "degree"), (Coloring, "color"),
                      (Coloring, "is_proper")):
        assert not hasattr(cls, name), name


def test_package_names_resolve_to_their_home_objects():
    # a fresh process, so that every name goes through the lazy lookup
    lines = _fresh_process(
        """
        import importlib, json, chromarel
        DATA = {"FORMATS": "chromarel.io", "CHECKS": "chromarel.checks",
                "__version__": "chromarel"}
        homes = set()
        for name in chromarel.__all__:
            obj = getattr(chromarel, name)
            home = DATA.get(name) or obj.__module__
            assert getattr(importlib.import_module(home), name) is obj, name
            homes.add(home)
        print(json.dumps(sorted(homes)))
        print(set(chromarel.__all__) <= set(dir(chromarel)))
        try:
            chromarel.no_such_name
        except AttributeError as exc:
            print(exc)
        """
    )
    homes, listed, missing = lines
    modules = ("checks", "coloring", "families", "graphs", "io", "planarity", "polynomial",
               "relations")
    assert json.loads(homes) == ["chromarel", *(f"chromarel.{m}" for m in modules)]
    assert listed == "True"
    assert missing == "module 'chromarel' has no attribute 'no_such_name'"
