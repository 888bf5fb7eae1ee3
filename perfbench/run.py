"""chromarel benchmark: one workload, one run, every metric checked and printed.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The op set is fixed by the workload and the
seed, and sized from --seconds so that one untraced pass takes about that long
on the reference machine (see perfbench/README.md). Every op's output is
checked after the timed pass. The last line of stdout is one JSON object with
keys correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. A traced run makes the
untraced pass first, then the same pass with tracing on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict

import workloads as wl

SETUP_REPEATS = 5
RUN_LIMIT_S = 170.0  # ops still running at this point are killed and count as failed
CHECK_IDS = ("BIP-IE", "BIP-II", "CIS-INV", "CRIT-ADJ", "DC-BOUND", "IE2-EQ",
             "KEMPE", "MIN-PRE", "PLANAR-ADD", "POLY-IE", "POLY-II", "SUBDIV")
DIGESTS = wl.HERE / "digests.json"

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "coloring.k_colorable.unsat.calls": "count",
    "coloring.k_colorable.unsat.self_s": "s",
    "coloring.k_colorable.sat.calls": "count",
    "coloring.k_colorable.sat.self_s": "s",
    "coloring.chromatic_number.calls": "count",
    "coloring.chromatic_number.distinct": "count",
    "coloring.chromatic_number.self_s": "s",
    "coloring.colorings.yielded": "count",
    "coloring.kempe_chain.calls": "count",
    "graphs.identify_vertices.calls": "count",
    "graphs.identify_vertices.self_s": "s",
    "graphs.delete_vertices.self_s": "s",
    "graphs.independent_sets.yielded": "count",
    "relations.is_implicit_edge.self_s": "s",
    "relations.is_implicit_identity.self_s": "s",
    "relations.implicit_via_sets.calls": "count",
    "relations.implicit_via_sets.self_s": "s",
    "relations.sets_per_decision": "sets/decision",
    "relations.scan_relations.calls": "count",
    "relations.criticality.self_s": "s",
    "relations.min_nonextensible.self_s": "s",
    "polynomial.chromatic_polynomial.calls": "count",
    "polynomial.chromatic_polynomial.self_s": "s",
    "planarity.is_planar.calls": "count",
    "planarity.is_planar.self_s": "s",
    **{f"checks.{cid}.s": "s" for cid in CHECK_IDS},
    **{f"checks.{cid}.cold_s": "s" for cid in CHECK_IDS},
    "checks.run_check.self_s": "s",
    "io.parse_graph.self_s": "s",
    "io.serialize_graph.calls": "count",
    "io.serialize_graph.self_s": "s",
    "families.enumerate_graphs.s": "s",
    "cli.startup_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its rank.

    With ten ops or fewer no such percentile exists; the maximum is reported.
    """
    ranked = sorted(latencies)
    r = len(ranked) - 11 if len(ranked) >= 11 else len(ranked) - 1
    return ranked[r], 100.0 * (r + 1) / len(ranked)


def source_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(wl.ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(wl.ROOT), "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment() -> dict:
    return {
        "git_sha": source_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_before": os.getloadavg(),
        "probe_s_before": statistics.median(wl.probe() for _ in range(5)),
        "probe_ref_s": wl.PROBE_REF_S,
    }


def merge(summaries: list[dict]) -> tuple[dict, Counter, Counter]:
    spans: dict = defaultdict(lambda: [0, 0.0, 0.0])
    yields: Counter = Counter()
    distinct: Counter = Counter()
    for s in summaries:
        for name, row in s["spans"].items():
            acc = spans[name]
            acc[0] += row["calls"]
            acc[1] += row["incl_s"]
            acc[2] += row["self_s"]
        for gen, creator, n in s["yields"]:
            yields[(gen, creator)] += n
        distinct.update(s["distinct"])
    return spans, yields, distinct


def per_layer(untraced: wl.Pass, traced: wl.Pass, cold: dict) -> dict:
    summaries = [op.trace for op in traced.ops if op.trace]
    spans, yields, distinct = merge(summaries)

    def calls(name):
        return spans[name][0] if name in spans else 0

    def self_s(name):
        return spans[name][2] if name in spans else 0.0

    def yielded(gen, creator=None):
        return sum(n for (g, c), n in yields.items() if g == gen and creator in (None, c))

    def incl_s(summary, name):
        row = summary["spans"].get(name) if summary else None
        return row["incl_s"] if row else 0.0

    decisions = calls("relations.implicit_via_sets")
    values = {
        "coloring.k_colorable.unsat.calls": calls("coloring.k_colorable.unsat"),
        "coloring.k_colorable.unsat.self_s": self_s("coloring.k_colorable.unsat"),
        "coloring.k_colorable.sat.calls": calls("coloring.k_colorable.sat"),
        "coloring.k_colorable.sat.self_s": self_s("coloring.k_colorable.sat"),
        "coloring.chromatic_number.calls": calls("coloring.chromatic_number"),
        "coloring.chromatic_number.distinct": distinct["coloring.chromatic_number"],
        "coloring.chromatic_number.self_s": self_s("coloring.chromatic_number"),
        "coloring.colorings.yielded": yielded("coloring.colorings"),
        "coloring.kempe_chain.calls": calls("coloring.kempe_chain"),
        "graphs.identify_vertices.calls": calls("graphs.identify_vertices"),
        "graphs.identify_vertices.self_s": self_s("graphs.identify_vertices"),
        "graphs.delete_vertices.self_s": self_s("graphs.delete_vertices"),
        "graphs.independent_sets.yielded": yielded("graphs.independent_sets"),
        "relations.is_implicit_edge.self_s": self_s("relations.is_implicit_edge"),
        "relations.is_implicit_identity.self_s": self_s("relations.is_implicit_identity"),
        "relations.implicit_via_sets.calls": decisions,
        "relations.implicit_via_sets.self_s": self_s("relations.implicit_via_sets"),
        "relations.sets_per_decision": (
            yielded("graphs.independent_sets", "relations.implicit_via_sets") / decisions
            if decisions else 0.0),
        "relations.scan_relations.calls": calls("relations.scan_relations"),
        "relations.criticality.self_s": self_s("relations.criticality"),
        "relations.min_nonextensible.self_s": self_s("relations.min_nonextensible"),
        "polynomial.chromatic_polynomial.calls": calls("polynomial.chromatic_polynomial"),
        "polynomial.chromatic_polynomial.self_s": self_s("polynomial.chromatic_polynomial"),
        "planarity.is_planar.calls": calls("planarity.is_planar"),
        "planarity.is_planar.self_s": self_s("planarity.is_planar"),
        "checks.run_check.self_s": sum(row[2] for name, row in spans.items()
                                       if name.startswith("checks.run_check.")),
        "io.parse_graph.self_s": self_s("io.parse_graph"),
        "io.serialize_graph.calls": calls("io.serialize_graph"),
        "io.serialize_graph.self_s": self_s("io.serialize_graph"),
        "families.enumerate_graphs.s": spans["families.enumerate_graphs"][1]
        if "families.enumerate_graphs" in spans else 0.0,
        "trace.overhead_s": traced.wall - untraced.wall,
    }
    for cid in CHECK_IDS:
        per_run = [incl_s(s, f"checks.run_check.{cid}") for s in summaries]
        values[f"checks.{cid}.s"] = statistics.median(per_run) if per_run else 0.0
        values[f"checks.{cid}.cold_s"] = incl_s(cold[cid].trace, f"checks.run_check.{cid}") \
            if cid in cold else 0.0
    startups = [op.latency - incl_s(op.trace, "cli.main") - op.trace.get("post_s", 0.0)
                for op in traced.ops if op.trace and "cli.main" in op.trace["spans"]]
    values["cli.startup_s"] = statistics.median(startups) if startups else 0.0
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}


def load_digests(workload: wl.Workload) -> list[str]:
    """Outputs recorded from the seed commit: for the default seed, or any seed
    when the inputs do not depend on it."""
    if workload.tiny or (workload.seeded and workload.seed != wl.DEFAULT_SEED):
        return []
    return json.loads(DIGESTS.read_text())["workloads"].get(workload.name, [])


def verify(workload: wl.Workload, run: wl.Pass, expected: list[str]) -> dict[str, str]:
    """What is wrong, by op: nonzero exit, failed cross-check, or wrong digest."""
    problems = {}
    good = []
    for i, op in enumerate(run.ops):
        if op.code != 0:
            problems[f"op {i}"] = f"exit {op.code}: {op.error.strip()[-300:]}"
            continue
        graph = workload.graphs[i] if workload.graphs else None
        try:
            bad = workload.check(i, op.output, graph)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            bad = f"unreadable output: {exc!r}"
        j = workload.digest_index(i)
        if bad is None and j < len(expected) and wl.digest(op.output) != expected[j]:
            bad = "output differs from the digest recorded at the seed commit"
        if bad:
            problems[f"op {i}"] = bad
        else:
            good.append(op.output)
    bad = workload.check_pass(good)
    if bad:
        problems["pass"] = bad
    return problems


def run(name: str, seed: int, seconds: int, trace: bool, tiny: bool = False,
        digests: list[str] | None = None) -> dict:
    """Set up, make the timed pass (and the traced one), check, and report."""
    if not (wl.SRC / "chromarel" / "__init__.py").is_file():
        raise BenchError(f"no chromarel sources under {wl.SRC}")
    deadline = time.monotonic() + RUN_LIMIT_S
    wl.pin_to_one_cpu()
    workdir = wl.ROOT / ".perfbench_out" / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        env = environment()
        workload = wl.WORKLOADS[name](seed, seconds, tiny)
        expected = load_digests(workload) if digests is None else digests

        setups, probes = [], []
        for r in range(SETUP_REPEATS):
            t = time.perf_counter()
            files = workload.input_files(workdir / f"setup{r}")
            op = wl.spawn([sys.executable, str(wl.OPRUNNER), "setup", *map(str, files)],
                          workdir, deadline)
            setups.append(time.perf_counter() - t)
            probes += op.probes
            if op.code != 0:
                raise BenchError(f"set-up failed: {op.error.strip()[-500:]}")

        untraced = workload.run_pass(workdir / "untraced", deadline, traced=False)
        problems = verify(workload, untraced, expected)
        attempted = len(untraced.ops)
        failed = len(problems)
        latencies = untraced.latencies
        tail_value, tail_pct = tail(latencies)
        e2e = {
            "setup_s": statistics.median(setups) * wl.speed_scale(probes),
            "wall_s": untraced.wall,
            "op_p50_s": statistics.median(latencies),
            "op_tail_s": tail_value,
            "peak_rss_mb": untraced.peak_rss_kb / 1024,
        }
        report = [
            f"chromarel benchmark  workload={name} seed={seed} seconds={seconds} "
            f"trace={int(trace)}{' tiny' if tiny else ''}",
            f"  ops          {attempted} in the untraced pass, closed loop, one client",
            f"  setup_s      {e2e['setup_s']:.4f} s   median of {SETUP_REPEATS} set-ups",
            f"  wall_s       {e2e['wall_s']:.4f} s   measured {e2e['wall_s'] / untraced.scale:.4f} s "
            f"at speed scale {untraced.scale:.4f}",
            f"  op_p50_s     {e2e['op_p50_s']:.4f} s   median of {attempted} ops",
            f"  op_tail_s    {tail_value:.4f} s   p{tail_pct:.0f}, "
            f"{round(attempted * (1 - tail_pct / 100))} of {attempted} ops beyond it",
            f"  peak_rss_mb  {e2e['peak_rss_mb']:.2f} MB",
            f"  error_rate   {failed / attempted:.4f}   {failed} of {attempted} ops failed",
        ]
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()}
        record = {"e2e": e2e, "latencies": latencies,
                  "measured_latencies": [op.latency for op in untraced.ops],
                  "probes": untraced.probes,
                  "speed_scale": untraced.scale,
                  "digests": [wl.digest(op.output) for op in untraced.ops]}

        if trace:
            traced = workload.run_pass(workdir / "traced", deadline, traced=True)
            for i, (a, b) in enumerate(zip(untraced.ops, traced.ops)):
                if b.code != 0 or b.output != a.output:
                    problems[f"traced op {i}"] = "output differs from the untraced op"
            attempted += len(traced.ops)
            cold = {}
            if isinstance(workload, wl.Catalog):
                for cid in CHECK_IDS:
                    cold[cid] = workload.cold_run(cid, workdir, deadline)
                    if cold[cid].code != 0:
                        problems[f"cold {cid}"] = f"exit {cold[cid].code}"
                attempted += len(cold)
            metrics = per_layer(untraced, traced, cold)
            failed = len(problems)
            report.append(f"  traced pass  {len(traced.ops)} ops, wall {traced.wall:.4f} s")
            report += [f"  {k:40s} {v['value']:.6g} {v['unit']}" for k, v in metrics.items()]
            record["per_layer"] = metrics

        env["loadavg_after"] = os.getloadavg()
        env["probe_s_after"] = wl.probe()
        record["env"] = env
        record["problems"] = problems
        for where, what in list(problems.items())[:20]:
            print(f"wrong: {where}: {what}", file=sys.stderr)
        report.append("env " + json.dumps(env, separators=(",", ":")))
        (workdir.parent / f"last-{name}-trace{int(trace)}.json").write_text(json.dumps(record))
        return {
            "report": report,
            "record": record,
            "result": {"correct": not problems, "attempted": attempted,
                       "failed": failed, "metrics": metrics},
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(out["report"]))
    print(json.dumps(out["result"], separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
