"""Command line front end.

All machine-readable output is canonical JSON on stdout: sorted keys, no
whitespace, one trailing newline, so identical inputs give byte-identical
output. Timings and progress go to stderr only. Exit status 0 means success,
1 means a failed check or a non-extensible precoloring, 2 means bad usage
or unreadable input: a plain ValueError, from the CLI or the library.

Each command imports the modules it uses when it runs, on top of graphs and
io, so a process loads only those: `poly` needs polynomial, not the relation
scan or the check catalog.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import __version__
from .graphs import Graph
from .io import FORMATS, FormatError, format_for_path, parse_graph, serialize_graph


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _read_graph(path: str, fmt: str | None) -> Graph:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    use = fmt or format_for_path(path)
    try:
        return parse_graph(text, use)
    except FormatError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _file_key(path: str) -> object:
    """What names one file: its device and inode once it exists, so a hard
    link matches too, else its resolved path."""
    # realpath, unlike Path.resolve, takes a symlink loop without raising;
    # the write then refuses it
    resolved = os.path.realpath(path)
    try:
        st = os.stat(resolved)
    except OSError:
        return resolved
    return st.st_dev, st.st_ino


def _check_outputs(infile: str, outputs: dict[str, str | None]) -> None:
    """Refuse, before the input is read, an output that names the input
    file or two outputs that name one file: the write would destroy the
    input, or the second write the first. outputs maps each option to its
    path, None or "-" (stdout) for none."""
    named: dict[object, str | None] = {_file_key(infile): None}
    for option, out in outputs.items():
        if out in (None, "-"):
            continue
        path = _file_key(out)
        if path in named:
            other = named[path]
            if other is None:
                raise ValueError(f"{option} names the input file: {out}")
            raise ValueError(f"{other} and {option} name one file: {out}")
        named[path] = option


def _write_out(text: str, out: str | None) -> None:
    if out in (None, "-"):
        sys.stdout.write(text)
    else:
        try:
            Path(out).write_text(text)
        except OSError as exc:
            raise ValueError(f"cannot write {out}: {exc}") from exc


def _items(text: str) -> list[str]:
    """The items of a comma-separated option, stripped, empty ones dropped."""
    return [item for piece in text.split(",") if (item := piece.strip())]


def _parse_precoloring(text: str) -> dict[int, int]:
    """The VERTEX=COLOR entries of --pre, refused before any work. Without
    --extend the palette is chi, so the colors are checked against it once
    chi is known; g's own refusals come before either."""
    assignment: dict[int, int] = {}
    for piece in _items(text):
        vertex, sep, color = piece.partition("=")
        if not sep:
            raise ValueError(f"bad precoloring entry {piece!r}; expected VERTEX=COLOR")
        try:
            v, c = int(vertex), int(color)
        except ValueError as exc:
            raise ValueError(f"bad precoloring entry {piece!r}: {exc}") from exc
        if v in assignment:
            raise ValueError(f"vertex {v} precolored twice")
        assignment[v] = c
    if not assignment:
        raise ValueError("empty precoloring")
    return assignment


def _cmd_analyze(args: argparse.Namespace) -> int:
    from .relations import RouteDisagreementError, to_dot

    if args.extend is not None and args.pre is None:
        raise ValueError("--extend needs --pre")
    if args.dot == "-" and args.output in (None, "-"):
        # DOT text ahead of the JSON would leave stdout unparseable
        raise ValueError("--dot - needs -o to send the JSON to a file")
    _check_outputs(args.file, {"--dot": args.dot, "-o": args.output})
    g = _read_graph(args.file, args.format)
    try:
        result, rels = _analyze(g, args)
    except RouteDisagreementError as exc:
        # two supposedly equivalent decision procedures disagreed; surface it
        # like a failed check rather than a usage problem
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        # input the exact search cannot take, such as a graph too deep for
        # its recursion or a precoloring that is malformed or does not fit
        # the graph
        raise ValueError(f"{args.file}: {exc}") from exc
    if args.dot:
        _write_out(to_dot(g, rels), args.dot)
    _write_out(_canonical(result), args.output)
    return 1 if result.get("extension", {}).get("extends") is False else 0


def _analyze(g: Graph, args: argparse.Namespace) -> tuple[dict, list | None]:
    from .coloring import _check_palette, _color_masks, chromatic_number, k_colorable
    from .relations import RelationKind, criticality, scan_relations

    pre = _parse_precoloring(args.pre) if args.pre is not None else None
    if pre is not None:
        # a vertex outside g or an improper edge needs no chi, and a palette
        # that --extend gives is known before chi too
        _color_masks(g, pre)
        if args.extend is not None:
            _check_palette(pre, args.extend)
    k = chromatic_number(g)
    result: dict = {"n": g.n, "m": g.m, "chi": k}
    rels = None
    if args.relations or args.dot:
        rels = scan_relations(g)
    if args.relations:
        result["relations"] = {
            "edges": [[r.u, r.v] for r in rels if r.kind is RelationKind.EDGE],
            "identities": [[r.u, r.v] for r in rels if r.kind is RelationKind.IDENTITY],
        }
    if args.criticality:
        crit = criticality(g)
        result["criticality"] = {
            "critical_vertices": list(crit.critical_vertices),
            "critical_edges": [list(e) for e in crit.critical_edges],
            "is_vertex_critical": crit.is_vertex_critical,
            "is_critical": crit.is_critical,
            "is_double_critical": crit.is_double_critical,
        }
    if pre is not None:
        palette = k if args.extend is None else args.extend
        full = k_colorable(g, palette, pre)
        result["extension"] = {
            "k": palette,
            "extends": full is not None,
            "verdict": "extensible" if full is not None else "non-extensible",
            "coloring": full.to_json_dict() if full is not None else None,
        }
    return result, rels


def _cmd_verify(args: argparse.Namespace) -> int:
    from .checks import CHECKS, CorpusSpec, _run_checks, default_corpus, run_check

    if args.seed is not None and args.random is None:
        raise ValueError("--seed needs --random")
    if args.all and args.checks:
        raise ValueError("--all and --checks exclude each other")
    if args.checks:
        ids = [cid.upper() for cid in _items(args.checks)]
    else:
        ids = sorted(CHECKS)
    if args.exhaustive is None and args.families is None and args.random is None:
        corpus = default_corpus()
    else:
        families = tuple(_items(args.families or ""))
        random_arg = None
        if args.random:
            try:
                n_str, p_str, count_str = args.random.split(",")
                random_arg = (int(n_str), float(p_str), args.seed or 0, int(count_str))
            except ValueError as exc:
                raise ValueError(f"bad --random value {args.random!r}; expected N,P,COUNT") from exc
        corpus = CorpusSpec(
            families=families,
            exhaustive_n=args.exhaustive,
            random=random_arg,
        )

    # one check alone runs through run_check, the name perfbench times it by
    if len(ids) == 1:
        reports = [run_check(ids[0], corpus, budget=args.budget, jobs=args.jobs)]
    else:
        reports = _run_checks(ids, corpus, budget=args.budget, jobs=args.jobs)
    for report in reports:
        print(
            f"{report.check_id}: {report.verdict} "
            f"({report.instances_run} instances over {report.corpus_size} graphs, "
            f"{report.elapsed:.2f}s)",
            file=sys.stderr,
        )
    all_pass = all(r.verdict == "pass" for r in reports)
    payload = {
        "checks": [r.to_json_dict() for r in reports],
        "verdict": "pass" if all_pass else "fail",
    }
    _write_out(_canonical(payload), args.output)
    return 0 if all_pass else 1


def _cmd_gen(args: argparse.Namespace) -> int:
    from .families import generate

    g = generate(args.family, *args.params)
    fmt = args.format or (format_for_path(args.output) if args.output else "edgelist")
    return _write_graph(g, fmt, args.output)


def _cmd_convert(args: argparse.Namespace) -> int:
    _check_outputs(args.infile, {"outfile": args.outfile})
    g = _read_graph(args.infile, args.from_format)
    return _write_graph(g, args.to_format or format_for_path(args.outfile), args.outfile)


def _write_graph(g: Graph, fmt: str, out: str | None) -> int:
    text = serialize_graph(g, fmt)
    # serialize_graph's graph6 string also names graphs inside reports; as a
    # file it ends its line like the other formats
    _write_out(text + "\n" if fmt == "graph6" else text, out)
    return 0


def _cmd_poly(args: argparse.Namespace) -> int:
    from .polynomial import chromatic_polynomial, evaluate

    _check_outputs(args.file, {"-o": args.output})
    g = _read_graph(args.file, args.format)
    poly = chromatic_polynomial(g, max_vertices=args.max_vertices)
    evals: dict[str, int] = {}
    if args.eval:
        for piece in _items(args.eval):
            try:
                point = int(piece)
            except ValueError as exc:
                raise ValueError(f"bad evaluation point {piece!r}") from exc
            if point < 0:
                raise ValueError("evaluation points must be nonnegative")
            evals[str(point)] = evaluate(poly, point)
    payload = {"coeffs": list(poly), "eval": evals}
    _write_out(_canonical(payload), args.output)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chromarel",
        description="exact coloring analysis: chromatic numbers, polynomials, "
        "implicit edge/identity relations, and theorem checks",
    )
    parser.add_argument("--version", action="version", version=f"chromarel {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="chromatic number, relations, criticality, extensions")
    p.add_argument("file")
    p.add_argument("--format", choices=FORMATS)
    p.add_argument("--relations", action="store_true", help="scan all vertex pairs")
    p.add_argument("--criticality", action="store_true")
    p.add_argument("--pre", metavar="V=C,V=C", help="precoloring, vertices 0-based, colors 1-based")
    p.add_argument("--extend", type=int, metavar="K", help="palette size for --pre (default chi)")
    p.add_argument("--dot", metavar="OUT", help="write a GraphViz view with relations overlaid")
    p.add_argument("-o", "--output", metavar="OUT")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("verify", help="run theorem checks over a corpus")
    p.add_argument("--checks", metavar="LIST", help="comma-separated check ids")
    p.add_argument("--all", action="store_true", help="run the whole catalog (default)")
    p.add_argument("--exhaustive", type=int, metavar="N", help="all connected graphs of order <= N")
    p.add_argument("--families", metavar="LIST", help="comma-separated generate() tokens")
    p.add_argument("--random", metavar="N,P,COUNT", help="seeded random graphs")
    p.add_argument("--seed", type=int, help="first seed for --random (default 0)")
    p.add_argument("--budget", type=float, default=600.0, metavar="SECONDS")
    p.add_argument("--jobs", type=int, default=1, help="worker processes (default 1)")
    p.add_argument("-o", "--output", metavar="OUT")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("gen", help="write a named graph")
    p.add_argument("family")
    p.add_argument("params", nargs="*")
    p.add_argument("--format", choices=FORMATS)
    p.add_argument("-o", "--output", metavar="OUT")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("convert", help="translate between graph formats")
    p.add_argument("infile")
    p.add_argument("outfile")
    p.add_argument("--from", dest="from_format", choices=FORMATS)
    p.add_argument("--to", dest="to_format", choices=FORMATS)
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("poly", help="chromatic polynomial coefficients and evaluations")
    p.add_argument("file")
    p.add_argument("--format", choices=FORMATS)
    p.add_argument("--eval", metavar="K,K", help="evaluation points")
    p.add_argument("--max-vertices", type=int, default=20)
    p.add_argument("-o", "--output", metavar="OUT")
    p.set_defaults(func=_cmd_poly)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # the one place that turns a refusal into an exit status: every refusal,
    # the CLI's own and the library's, is a ValueError
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
