"""Work done in a fresh process on behalf of the benchmark.

    oprunner.py setup FILE...                 import chromarel and parse each input
    oprunner.py cli TRACE_OUT ARGS...         run `chromarel ARGS` with tracing on
    oprunner.py scan OUT TRACE_OUT|- FILE...  definition-route scan of each input

`cli` runs chromarel.cli.main under the tracer, so calls made through the
names cli imported are traced as well. `scan` times each
scan_relations(g, cross_validate=False) call, with a speed probe between
calls, and writes the relations it found; unless TRACE_OUT is "-" it traces
the scan too.
"""

from __future__ import annotations

import json
import sys
import time


def _setup(files: list[str]) -> int:
    import chromarel.cli  # noqa: F401  (the import is part of set-up)

    for path in files:
        _read(path)
    return 0


def _cli(trace_out: str, args: list[str]) -> int:
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    import chromarel.cli

    code = chromarel.cli.main(args)
    sys.stdout.flush()
    t = time.perf_counter()
    summary = tracer.summary()
    summary["post_s"] = time.perf_counter() - t
    with open(trace_out, "w") as fh:
        json.dump(summary, fh)
    return code


def _read(path: str):
    from chromarel.io import format_for_path, parse_graph

    with open(path) as fh:
        return parse_graph(fh.read(), format_for_path(path))


def _scan(out: str, trace_out: str, files: list[str]) -> int:
    tracer = None
    if trace_out != "-":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    from chromarel import relations

    from workloads import probe

    inputs = [_read(path) for path in files]
    latencies, outputs, probes = [], [], []
    clock = time.perf_counter
    for g in inputs:
        t = clock()
        rels = relations.scan_relations(g, cross_validate=False)
        latencies.append(clock() - t)
        probes.append(probe())
        outputs.append(json.dumps([[r.u, r.v, r.kind.value, r.adjacent, r.k] for r in rels],
                                  separators=(",", ":")))
    with open(out, "w") as fh:
        json.dump({"latencies": latencies, "outputs": outputs, "probes": probes}, fh)
    if tracer is not None:
        with open(trace_out, "w") as fh:
            json.dump(tracer.summary(), fh)
    return 0


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "setup":
        return _setup(rest)
    if mode == "cli":
        return _cli(rest[0], rest[1:])
    if mode == "scan":
        return _scan(rest[0], rest[1], rest[2:])
    print(f"unknown mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
