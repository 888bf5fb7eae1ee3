import tracemalloc

import networkx as nx
import pytest
import hypothesis.strategies as st
from hypothesis import given

from chromarel import (
    FORMATS,
    FormatError,
    Graph,
    format_for_path,
    parse_graph,
    serialize_graph,
)
from chromarel.families import complete_graph, cycle_graph, gnp, path_graph, petersen

from conftest import graphs


def test_format_for_path():
    assert format_for_path("x.col") == "dimacs"
    assert format_for_path("x.dimacs") == "dimacs"
    assert format_for_path("x.g6") == "graph6"
    assert format_for_path("x.graph6") == "graph6"
    assert format_for_path("x.edgelist") == "edgelist"
    assert format_for_path("x.txt") == "edgelist"
    assert format_for_path("noext") == "edgelist"


def test_unknown_format_rejected():
    with pytest.raises(FormatError):
        parse_graph("", "gml")
    with pytest.raises(FormatError):
        serialize_graph(complete_graph(2), "gml")


def test_dimacs_round_trip():
    g = cycle_graph(5)
    text = serialize_graph(g, "dimacs")
    assert text.splitlines()[0] == "p edge 5 5"
    assert parse_graph(text, "dimacs") == g


def test_dimacs_parses_comments_and_whitespace():
    text = "c a comment\nc another\np edge 3 2\ne 1 2\n\ne 2 3\n"
    g = parse_graph(text, "dimacs")
    assert g.edges() == [(0, 1), (1, 2)]


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("e 1 2\n", "problem line"),
        ("p edge 3 1\np edge 3 1\ne 1 2\n", "line 2"),
        ("p edge 3 1\ne 1 1\n", "line 2"),
        ("p edge 3 1\ne 1 4\n", "line 2"),
        ("p edge 3 2\ne 1 2\ne 2 1\n", "line 3"),
        ("p edge 3 2\ne 1 2\n", "declares"),
        ("p edge 3 1\nq 1 2\n", "line 2"),
        ("p col 3 1\ne 1 2\n", "line 1"),
    ],
)
def test_dimacs_errors_name_the_line(text, fragment):
    with pytest.raises(FormatError, match=fragment.replace("(", "").split()[0]):
        parse_graph(text, "dimacs")


# hand-checkable graph6 strings
@pytest.mark.parametrize(
    "g, expected",
    [
        (complete_graph(2), "A_"),
        (complete_graph(3), "Bw"),
        (complete_graph(4), "C~"),
        (path_graph(4), "Ch"),
        (Graph.from_edges(1, []), "@"),
        (Graph.from_edges(0, []), "?"),
    ],
)
def test_graph6_known_strings(g, expected):
    assert serialize_graph(g, "graph6").strip() == expected
    assert parse_graph(expected, "graph6") == g


def test_graph6_header_tolerated():
    assert parse_graph(">>graph6<<Bw", "graph6") == complete_graph(3)


def test_graph6_rejects_bad_input():
    with pytest.raises(FormatError):
        parse_graph("~??", "graph6")  # truncated long-form size
    with pytest.raises(FormatError):
        parse_graph("B" + chr(30), "graph6")  # byte below range
    with pytest.raises(FormatError):
        parse_graph("B", "graph6")  # truncated
    with pytest.raises(FormatError):
        parse_graph("Bw?", "graph6")  # trailing junk
    with pytest.raises(FormatError, match="more than 65536 vertices"):
        parse_graph("~~??@???", "graph6")  # the eight-byte size of 2^18 vertices


def test_graph6_reads_one_graph_per_input():
    assert parse_graph("Bw\n", "graph6") == complete_graph(3)
    with pytest.raises(FormatError, match="holds 2 graphs"):
        parse_graph("Bw\nBw\n", "graph6")
    with pytest.raises(FormatError, match="holds 3 graphs"):
        parse_graph("Bw\n\nBw\r\nBw", "graph6")


def test_graph6_padding_must_be_zero():
    # K3 is "Bw"; flipping a padding bit makes the byte invalid
    bad = "B" + chr(ord("w") + 1)
    with pytest.raises(FormatError):
        parse_graph(bad, "graph6")


def test_graph6_holds_one_column_at_a_time():
    # each direction holds one column's bits at a time, so neither peaks far
    # above the 83 kB text; a str of one character per pair bit is 6 times it
    g = path_graph(1000)
    tracemalloc.start()
    try:
        text = serialize_graph(g, "graph6")
        write_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        back = parse_graph(text, "graph6")
        read_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert back == g
    assert write_peak < 4 * len(text) and read_peak < 4 * len(text)


def test_edgelist_round_trip_and_header():
    g = Graph.from_edges(5, [(0, 4)])
    text = serialize_graph(g, "edgelist")
    assert text.startswith("n=5\n")
    assert parse_graph(text, "edgelist") == g
    # without the header the isolated tail vertex is lost
    assert parse_graph("0 4\n", "edgelist").n == 5


def test_edgelist_comments_and_errors():
    g = parse_graph("# c\nn=3\n0 1 # inline\n", "edgelist")
    assert g.edges() == [(0, 1)]
    with pytest.raises(FormatError):
        parse_graph("0 0\n", "edgelist")
    with pytest.raises(FormatError):
        parse_graph("0 1\n1 0\n", "edgelist")
    with pytest.raises(FormatError):
        parse_graph("-1 2\n", "edgelist")
    with pytest.raises(FormatError):
        parse_graph("n=2\n0 5\n", "edgelist")


def _to_nx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


@given(graphs(max_n=12))
def test_graph6_agrees_with_networkx(g):
    mine = serialize_graph(g, "graph6").strip()
    theirs = nx.to_graph6_bytes(_to_nx(g), header=False).decode().strip()
    assert mine == theirs
    assert parse_graph(theirs, "graph6") == g


@pytest.mark.parametrize("n", [62, 63, 64, 70, 200])
def test_graph6_long_form_agrees_with_networkx(n):
    # more than 62 vertices take chr(126) and an 18-bit size
    for g in (path_graph(n), gnp(n, 0.3, n)):
        mine = serialize_graph(g, "graph6")
        theirs = nx.to_graph6_bytes(_to_nx(g), header=False).decode().strip()
        assert mine == theirs
        assert mine.startswith("~") == (n > 62)
        assert parse_graph(mine, "graph6") == g


@given(graphs(max_n=10))
def test_round_trips_all_formats(g):
    for fmt in ("dimacs", "graph6", "edgelist"):
        assert parse_graph(serialize_graph(g, fmt), fmt) == g


# arbitrary text, text over the dimacs and edgelist alphabet, short files of
# keyword lines with small integers, some opening with a dimacs header, and
# text over graph6's printable range
_INTS = st.lists(st.integers(min_value=-1, max_value=4), max_size=3).map(
    lambda xs: " ".join(map(str, xs))
)
_LINE = st.builds("{} {}".format, st.sampled_from(("p edge", "e", "c", "n=", "#", "")), _INTS)
_TEXTS = st.one_of(
    st.text(),
    st.text(alphabet="pe c0123456789\n\t=-"),
    st.builds(
        lambda first, rest: "\n".join((first, *rest)),
        st.one_of(st.builds("p edge {} {}".format, st.integers(0, 4), st.integers(0, 2)), _LINE),
        st.lists(_LINE, max_size=3),
    ),
    st.text(alphabet=st.characters(min_codepoint=63, max_codepoint=126)),
)


@pytest.mark.parametrize("fmt", FORMATS)
@given(_TEXTS)
def test_any_text_parses_to_a_round_tripping_graph_or_is_refused(fmt, text):
    try:
        g = parse_graph(text, fmt)
    except FormatError:
        return
    for out in FORMATS:
        assert parse_graph(serialize_graph(g, out), out) == g


def test_petersen_round_trip():
    g = petersen()
    for fmt in ("dimacs", "graph6", "edgelist"):
        assert parse_graph(serialize_graph(g, fmt), fmt) == g


def test_vertex_count_limit_is_inclusive():
    # 2^16 vertices parse; one more, declared or implied, is rejected
    assert parse_graph("p edge 65536 0\n", "dimacs").n == 65536
    assert parse_graph("n=65536\n", "edgelist").n == 65536
    assert parse_graph("0 65535\n", "edgelist").n == 65536
    for text, fmt in (
        ("p edge 65537 0\n", "dimacs"),
        ("n=65537\n", "edgelist"),
        ("0 65536\n", "edgelist"),
    ):
        with pytest.raises(FormatError, match="line 1"):
            parse_graph(text, fmt)


@pytest.mark.parametrize(
    "text, fmt, message",
    [
        ("p edge x 3\n", "dimacs", "line 1: non-integer problem sizes"),
        ("p edge -1 0\n", "dimacs", "line 1: negative problem sizes"),
        ("p edge 2 -1\n", "dimacs", "line 1: negative problem sizes"),
        ("p edge 2 1\ne 1\n", "dimacs", "line 2: expected 'e <u> <v>'"),
        ("p edge 2 1\ne 1 x\n", "dimacs", "line 2: non-integer endpoints"),
        ("n=3\nn=3\n", "edgelist", "line 2: second vertex-count header"),
        ("0 1\nn=3\n", "edgelist", "line 2: header after edges"),
        ("n=-1\n", "edgelist", "line 1: negative vertex count"),
    ],
)
def test_every_reader_refusal_names_its_line(text, fmt, message):
    with pytest.raises(FormatError) as exc:
        parse_graph(text, fmt)
    assert str(exc.value) == message


@pytest.mark.parametrize("fmt", FORMATS)
def test_a_writer_refuses_a_graph_no_reader_takes(fmt):
    # graph6 would spell this graph's 2^31 pair bits out one character
    # each, so the refusal must come before any text is built
    g = Graph._make((0,) * 65537)
    with pytest.raises(FormatError) as exc:
        serialize_graph(g, fmt)
    assert str(exc.value) == "65537 vertices is more than the 65536 a reader accepts"


@pytest.mark.parametrize("fmt", ["dimacs", "edgelist"])
def test_the_largest_readable_graph_round_trips(fmt):
    g = Graph._make((0,) * 65536)
    assert parse_graph(serialize_graph(g, fmt), fmt) == g
