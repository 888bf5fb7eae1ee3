"""Graph parsing and serialization.

Three text formats:

* ``dimacs``   classic .col: "c" comment lines, one "p edge <n> <m>" header,
  then "e <u> <v>" lines with 1-based endpoints.
* ``graph6``   the standard ASCII encoding, one graph per input; more than
  62 vertices take the long, chr(126)-prefixed size.
* ``edgelist`` one "u v" pair per line, 0-based, with an optional leading
  "n=<int>" header fixing the vertex count.

A file may declare or imply at most 2^16 vertices, and a writer refuses a
larger graph, so every file the package writes reads back.
"""

from __future__ import annotations

from .graphs import Graph, _bits

# The largest vertex count a reader accepts, and so a writer too. A declared
# or implied count is checked before anything is allocated, so a one-line
# file cannot ask for gigabytes of adjacency rows.
_MAX_VERTICES = 1 << 16

_EXTENSIONS = {
    ".col": "dimacs",
    ".dimacs": "dimacs",
    ".g6": "graph6",
    ".graph6": "graph6",
    ".edgelist": "edgelist",
    ".edges": "edgelist",
    ".txt": "edgelist",
}


class FormatError(ValueError):
    """Malformed graph text or an unsupported encoding request."""


def format_for_path(path: str) -> str:
    """Guess a format from a file extension; edgelist is the fallback."""
    dot = path.rfind(".")
    if dot >= 0:
        return _EXTENSIONS.get(path[dot:].lower(), "edgelist")
    return "edgelist"


def parse_graph(text: str, fmt: str) -> Graph:
    if fmt not in FORMATS:
        raise FormatError(f"unknown format {fmt!r}")
    return _CODECS[fmt][0](text)


def serialize_graph(g: Graph, fmt: str) -> str:
    if fmt not in FORMATS:
        raise FormatError(f"unknown format {fmt!r}")
    if g.n > _MAX_VERTICES:
        raise FormatError(f"{g.n} vertices is more than the {_MAX_VERTICES} a reader accepts")
    return _CODECS[fmt][1](g)


def _parse_dimacs(text: str) -> Graph:
    # the rows fill in as each edge line is checked, so a duplicate edge is
    # a bit already set
    rows: list[int] | None = None
    declared_m = m = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] == "p":
            if rows is not None:
                raise FormatError(f"line {lineno}: second problem line")
            if len(fields) != 4 or fields[1] != "edge":
                raise FormatError(f"line {lineno}: expected 'p edge <n> <m>'")
            try:
                n, declared_m = int(fields[2]), int(fields[3])
            except ValueError:
                raise FormatError(f"line {lineno}: non-integer problem sizes") from None
            if n < 0 or declared_m < 0:
                raise FormatError(f"line {lineno}: negative problem sizes")
            if n > _MAX_VERTICES:
                raise FormatError(f"line {lineno}: more than {_MAX_VERTICES} vertices")
            rows = [0] * n
        elif fields[0] == "e":
            if rows is None:
                raise FormatError(f"line {lineno}: edge before problem line")
            if len(fields) != 3:
                raise FormatError(f"line {lineno}: expected 'e <u> <v>'")
            try:
                u, v = int(fields[1]), int(fields[2])
            except ValueError:
                raise FormatError(f"line {lineno}: non-integer endpoints") from None
            if not (1 <= u <= n and 1 <= v <= n):
                span = f" outside 1..{n}" if n else ", but the graph has no vertices"
                raise FormatError(f"line {lineno}: endpoint{span}")
            if u == v:
                raise FormatError(f"line {lineno}: loop at vertex {u}")
            if rows[u - 1] >> (v - 1) & 1:
                raise FormatError(f"line {lineno}: duplicate edge {u} {v}")
            rows[u - 1] |= 1 << (v - 1)
            rows[v - 1] |= 1 << (u - 1)
            m += 1
        else:
            raise FormatError(f"line {lineno}: unrecognized line {line!r}")
    if rows is None:
        raise FormatError("missing problem line")
    if m != declared_m:
        raise FormatError(f"problem line declares {declared_m} edges, found {m}")
    return Graph._make(tuple(rows))


def _write_lines(g: Graph, header: str, prefix: str, base: int) -> str:
    # edges() is already in lexicographic order
    lines = [header] + [f"{prefix}{u + base} {v + base}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"


def _parse_graph6(text: str) -> Graph:
    s = text.strip()
    lines = [line for line in s.splitlines() if line.strip()]
    if len(lines) > 1:
        raise FormatError(f"graph6 input holds {len(lines)} graphs, one per line; expected one")
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :]
    if not s:
        raise FormatError("empty graph6 string")
    if min(s) < "?" or max(s) > "~":
        i = next(i for i, ch in enumerate(s) if not "?" <= ch <= "~")
        raise FormatError(f"byte {i} out of graph6 range: {s[i]!r}")
    # the size: one byte below chr(126), or chr(126) and three more bytes,
    # or chr(126) twice and six more bytes, six bits each
    if s[0] != "~":
        head, size = 1, s[:1]
    elif s[1:2] == "~":
        head, size = 8, s[2:8]
    else:
        head, size = 4, s[1:4]
    if len(s) < head:
        raise FormatError("truncated graph6 size")
    n = 0
    for ch in size:
        n = n << 6 | ord(ch) - 63
    if n > _MAX_VERTICES:
        raise FormatError(f"graph6 size {n} is more than {_MAX_VERTICES} vertices")
    nbits = n * (n - 1) // 2
    expect = (nbits + 5) // 6
    if len(s) - head != expect:
        raise FormatError(f"expected {expect} data bytes for n={n}, got {len(s) - head}")
    if nbits % 6 and (ord(s[-1]) - 63) & (1 << (6 - nbits % 6)) - 1:
        raise FormatError("nonzero padding bits")
    # the bits run down the columns of the upper triangle: for i < j, bit i
    # of column j is whether ij is an edge. Each column is cut from the few
    # bytes that hold it; pos counts bits from the start of s
    rows = [0] * n
    pos = 6 * head
    for j in range(1, n):
        bits = "".join([format(ord(ch) - 63, "06b") for ch in s[pos // 6 : (pos + j + 5) // 6]])
        column = int(bits[pos % 6 : pos % 6 + j][::-1], 2)
        pos += j
        rows[j] |= column
        for i in _bits(column):
            rows[i] |= 1 << j
    return Graph._make(tuple(rows))


def _write_graph6(g: Graph) -> str:
    n = g.n
    # serialize_graph's bound keeps n below the 8-byte size form
    size = [n] if n <= 62 else [63] + [n >> shift & 63 for shift in (12, 6, 0)]
    out = bytearray(x + 63 for x in size)
    # column by column, as the reader cuts them: bin() with bit j set keeps
    # all j digits, read back to front from vertex 0; the fewer than six bits
    # a column leaves over lead the next one's bytes, and the last are padded
    left = ""
    for j in range(1, n):
        bits = left + bin(g.rows[j] & ((1 << j) - 1) | 1 << j)[:2:-1]
        cut = len(bits) - len(bits) % 6
        out += bytes([int(bits[i : i + 6], 2) + 63 for i in range(0, cut, 6)])
        left = bits[cut:]
    if left:
        out.append(int(left.ljust(6, "0"), 2) + 63)
    return out.decode()


def _parse_edgelist(text: str) -> Graph:
    # the rows fill in as each line is checked, and grow to the largest id
    # seen when no header fixed n
    n = None
    rows: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("n="):
            if n is not None:
                raise FormatError(f"line {lineno}: second vertex-count header")
            if rows:
                raise FormatError(f"line {lineno}: header after edges")
            try:
                n = int(line[2:])
            except ValueError:
                raise FormatError(f"line {lineno}: bad vertex count") from None
            if n < 0:
                raise FormatError(f"line {lineno}: negative vertex count")
            if n > _MAX_VERTICES:
                raise FormatError(f"line {lineno}: more than {_MAX_VERTICES} vertices")
            rows = [0] * n
            continue
        fields = line.split()
        if len(fields) != 2:
            raise FormatError(f"line {lineno}: expected 'u v'")
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise FormatError(f"line {lineno}: non-integer endpoints") from None
        if u < 0 or v < 0:
            raise FormatError(f"line {lineno}: negative vertex id")
        if max(u, v) >= _MAX_VERTICES:
            raise FormatError(f"line {lineno}: vertex id above {_MAX_VERTICES - 1}")
        if u == v:
            raise FormatError(f"line {lineno}: loop at vertex {u}")
        rows += [0] * (max(u, v) + 1 - len(rows))
        if rows[u] >> v & 1:
            raise FormatError(f"line {lineno}: duplicate edge {u} {v}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    if n is not None and len(rows) > n:
        raise FormatError(f"vertex {len(rows) - 1} outside declared n={n}")
    return Graph._make(tuple(rows))


_CODECS = {
    "dimacs": (_parse_dimacs, lambda g: _write_lines(g, f"p edge {g.n} {g.m}", "e ", 1)),
    "graph6": (_parse_graph6, _write_graph6),
    "edgelist": (_parse_edgelist, lambda g: _write_lines(g, f"n={g.n}", "", 0)),
}
FORMATS = tuple(_CODECS)
