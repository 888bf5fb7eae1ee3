"""The four benchmark workloads: seeded inputs, how one pass runs, output checks.

Every workload is a closed loop driven by one client: each op starts when the
previous one has ended, and nothing runs in parallel. Inputs come only from
the workload seed; the program sees the generated files and arguments.

Graphs are uniform random graphs with a fixed edge count, G(n, m) with
m = round(p * n(n-1)/2), drawn in a fixed cycle of (n, p) strata. Fixing the
edge count and the stratum order keeps the cost of a whole op set steady from
seed to seed, while every seed still gives different graphs.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OPRUNNER = HERE / "oprunner.py"
DEFAULT_SEED = 1

# Median probe() time on the reference machine (see README.md). The times of
# a pass are scaled by PROBE_REF_S / (median probe time over the pass), which
# removes most of the host's speed swings: on a shared 2-vCPU host the same op
# set varies by 15-40% from minute to minute.
PROBE_REF_S = 0.0045
PROBE_EVERY_S = 0.25


def gnm_edges(rng: random.Random, n: int, p: float) -> list[tuple[int, int]]:
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return sorted(rng.sample(pairs, round(p * len(pairs))))


def dimacs(n: int, edges) -> str:
    return "".join([f"p edge {n} {len(edges)}\n"] + [f"e {u + 1} {v + 1}\n" for u, v in edges])


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def probe() -> float:
    """CPU seconds for a fixed pure-Python loop: the host's current speed.

    CPU time rather than wall time, so that sharing the CPU with an op does
    not count, only how fast the CPU runs.
    """
    t = time.thread_time()
    x = 0
    for i in range(30_000):
        x = (x * 31 + i) & 0xFFFFFFFF
    return time.thread_time() - t


def _sample(probes: list[float], stop: threading.Event) -> None:
    while True:
        probes.append(probe())
        if stop.wait(PROBE_EVERY_S):
            return


def speed_scale(probes: list[float]) -> float:
    """Factor taking seconds measured among these probes to the reference speed."""
    return PROBE_REF_S / statistics.median(probes)


def pin_to_one_cpu() -> None:
    """Keep the benchmark and every op on one CPU, next to the probes that scale them."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PYTHONPATH=str(SRC), CHROMAREL_JOBS="1")
    return env


@dataclass
class OpResult:
    latency: float  # measured wall seconds
    rss_kb: int
    code: int
    output: str
    error: str = ""
    trace: dict | None = None
    probes: list[float] = field(default_factory=list)


def spawn(argv: list[str], workdir: Path, deadline: float) -> OpResult:
    """Run one process to completion: its wall time, its own peak RSS, and probes.

    A thread of this process probes the CPU's speed every PROBE_EVERY_S while
    the op runs on the same CPU; that costs the op about 2% of its CPU. A
    watchdog kills the process at the deadline so that the benchmark always
    ends; a killed op reports a nonzero code.
    """
    out_path, err_path = workdir / "op.out", workdir / "op.err"
    probes: list[float] = []
    stop = threading.Event()
    sampler = threading.Thread(target=_sample, args=(probes, stop))
    with open(out_path, "w") as out, open(err_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        sampler.start()
        timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            stop.set()
            sampler.join()
        latency = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode == -signal.SIGKILL:
        err_text = "killed at the run deadline"
    else:
        err_text = err_path.read_text()[-2000:]
    return OpResult(latency, usage.ru_maxrss, proc.returncode, out_path.read_text(), err_text,
                    probes=probes)


@dataclass
class Pass:
    """One pass over the op set."""

    ops: list[OpResult] = field(default_factory=list)
    peak_rss_kb: int = 0
    probes: list[float] = field(default_factory=list)

    @property
    def scale(self) -> float:
        return speed_scale(self.probes)

    @property
    def latencies(self) -> list[float]:
        """Op latencies at the reference speed."""
        return [op.latency * self.scale for op in self.ops]

    @property
    def wall(self) -> float:
        """Time to finish the op set at the reference speed."""
        return sum(self.latencies)


class Workload:
    name = ""
    rate = 1.0  # ops per second at the reference speed; sizes the op set from --seconds
    strata: tuple = ()  # (n, p) of op i is strata[i % len(strata)]
    tiny_strata: tuple = ()
    seeded = True  # whether the inputs depend on the seed

    def __init__(self, seed: int, seconds: int, tiny: bool = False):
        self.seed = seed
        self.tiny = tiny
        self.count = max(2, round(seconds * self.rate))
        strata = self.tiny_strata if tiny else self.strata
        self.graphs = []
        for i in range(self.count if strata else 0):
            n, p = strata[i % len(strata)]
            rng = random.Random(f"{self.name}:{seed}:{i}")
            self.graphs.append((n, gnm_edges(rng, n, p)))

    def input_files(self, directory: Path) -> list[Path]:
        """Write the op set's inputs; returns the files to parse at set-up."""
        directory.mkdir(parents=True, exist_ok=True)
        paths = []
        for i, (n, edges) in enumerate(self.graphs):
            path = directory / f"g{i:03d}.col"
            path.write_text(dimacs(n, edges))
            paths.append(path)
        return paths

    def digest_index(self, i: int) -> int:
        """Which recorded digest op i's output must match."""
        return i

    def check_pass(self, outputs: list[str]) -> str | None:
        """A reason the pass's outputs disagree with each other, or None."""
        return None

    def run_pass(self, directory: Path, deadline: float, traced: bool) -> Pass:
        raise NotImplementedError

    def check(self, i: int, output: str, graph) -> str | None:
        """A reason the op's output is wrong, or None."""
        raise NotImplementedError


class CliWorkload(Workload):
    """One fresh `chromarel` process per op, as a user runs it."""

    def cli_args(self, path: Path) -> list[str]:
        raise NotImplementedError

    def argv(self, i: int, path: Path | None, directory: Path, traced: bool) -> list[str]:
        args = self.cli_args(path)
        if traced:
            return [sys.executable, str(OPRUNNER), "cli", str(directory / f"trace{i:03d}.json"), *args]
        return [sys.executable, "-m", "chromarel.cli", *args]

    def run_pass(self, directory: Path, deadline: float, traced: bool) -> Pass:
        paths = self.input_files(directory)
        result = Pass()
        for i in range(self.count):
            path = paths[i] if paths else None
            op = spawn(self.argv(i, path, directory, traced), directory, deadline)
            if traced and op.code == 0:
                op.trace = json.loads((directory / f"trace{i:03d}.json").read_text())
            result.ops.append(op)
            result.probes += op.probes
        result.peak_rss_kb = max(op.rss_kb for op in result.ops)
        return result


def _lib():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import chromarel

    return chromarel


def _graph(n: int, edges):
    return _lib().Graph.from_edges(n, edges)


def certify_chi(g, chi: int, lower: bool = True) -> tuple[str | None, tuple]:
    """A proper χ-coloring certifies χ from above; with `lower`, no (χ-1)-coloring may exist.

    Returns the problem found (None if none) and the certificate's colors.
    """
    lib = _lib()
    coloring = lib.k_colorable(g, chi)
    if coloring is None:
        return f"no {chi}-coloring exists", ()
    colors = coloring.assignment
    if len(colors) != g.n or any(not 1 <= c <= chi for c in colors):
        return "certificate coloring is out of range", colors
    if any(colors[u] == colors[v] for u, v in g.edges()):
        return "certificate coloring is improper", colors
    if lower and chi > 0 and lib.k_colorable(g, chi - 1) is not None:
        return f"a {chi - 1}-coloring exists", colors
    return None, colors


def check_relations(g, edges, identities, colors) -> str | None:
    """Relations are ordered in-range pairs, disjoint, and the χ-coloring obeys them.

    Every χ-coloring of g is one of g-uv, so it gives an edge relation's ends
    different colors and an identity relation's ends the same color.
    """
    seen = set()
    for kind, pairs in (("edge", edges), ("identity", identities)):
        for u, v in pairs:
            if not 0 <= u < v < g.n or (u, v) in seen:
                return f"bad {kind} pair ({u},{v})"
            seen.add((u, v))
            if (colors[u] == colors[v]) != (kind == "identity"):
                return f"{kind} relation ({u},{v}) contradicts a χ-coloring"
    return None


class Analyze(CliWorkload):
    """The paper's question as a user asks it: chi, relations by both routes, criticality."""

    name = "analyze"
    rate = 2.3
    strata = ((15, 0.3), (15, 0.5), (16, 0.3), (16, 0.5))
    tiny_strata = ((7, 0.3), (8, 0.5))

    def cli_args(self, path):
        return ["analyze", str(path), "--relations", "--criticality"]

    def check(self, i, output, graph):
        data = json.loads(output)
        n, edges = graph
        g = _graph(n, edges)
        if (data["n"], data["m"]) != (g.n, g.m):
            return "n or m differs from the input"
        bad, colors = certify_chi(g, data["chi"])
        if bad:
            return bad
        crit = data["criticality"]
        if crit["is_vertex_critical"] != (len(crit["critical_vertices"]) == g.n):
            return "is_vertex_critical disagrees with the critical vertex list"
        if crit["is_critical"] and len(crit["critical_edges"]) != g.m:
            return "is_critical with a noncritical edge"
        rel = data["relations"]
        return check_relations(g, rel["edges"], rel["identities"], colors)


class Poly(CliWorkload):
    """The chromatic polynomial by deletion-contraction, and its memo."""

    name = "poly"
    rate = 2.2
    points = (3, 4, 5)
    strata = ((11, 0.6), (12, 0.4), (13, 0.3))
    tiny_strata = ((6, 0.5), (7, 0.3))

    def cli_args(self, path):
        return ["poly", str(path), "--eval", ",".join(map(str, self.points))]

    def check(self, i, output, graph):
        data = json.loads(output)
        n, edges = graph
        g = _graph(n, edges)
        coeffs = data["coeffs"]
        if len(coeffs) != n + 1 or coeffs[-1] != 1:
            return "polynomial is not monic of degree n"

        def at(k):
            acc = 0
            for c in reversed(coeffs):
                acc = acc * k + c
            return acc

        for k in self.points:
            if data["eval"].get(str(k)) != at(k):
                return f"--eval {k} disagrees with the coefficients"
        lib = _lib()
        chi = lib.chromatic_number(g)
        for k in range(chi + 2):
            if at(k) != lib.count_colorings(g, k):
                return f"P({k}) differs from the number of {k}-colorings"
        return None


class Catalog(CliWorkload):
    """All 12 theorem checks over the default corpus of 782 graphs.

    Every op runs the same command, which takes no seeded input: a seeded
    random set would make MIN-PRE report false failures (see README.md).
    """

    name = "catalog"
    rate = 1 / 4.2
    seeded = False

    def corpus_args(self) -> list[str]:
        return ["--families", "k4,c5", "--exhaustive", "3"] if self.tiny else []

    def cli_args(self, path, checks=None):
        picked = ["--checks", checks] if checks else []
        return ["verify", *picked, "--jobs", "1", *self.corpus_args()]

    def input_files(self, directory):
        directory.mkdir(parents=True, exist_ok=True)
        return []

    def digest_index(self, i):
        return 0  # every op runs the same corpus

    def check(self, i, output, graph):
        data = json.loads(output)
        if data["verdict"] != "pass" or any(c["verdict"] != "pass" for c in data["checks"]):
            return "catalog verdict is not pass"
        if len(data["checks"]) != 12:
            return f"{len(data['checks'])} checks reported, expected 12"
        return None

    def check_pass(self, outputs):
        counts = {tuple(c["instances_run"] for c in json.loads(out)["checks"]) for out in outputs}
        return "instances_run differs between runs of one corpus" if len(counts) > 1 else None

    def cold_run(self, check_id: str, directory: Path, deadline: float) -> OpResult:
        """One check alone, traced, in a fresh process with cold caches."""
        path = directory / f"cold-{check_id}.json"
        op = spawn([sys.executable, str(OPRUNNER), "cli", str(path),
                    *self.cli_args(None, check_id)], directory, deadline)
        if op.code == 0:
            op.trace = json.loads(path.read_text())
        return op


class ScanDef(Workload):
    """The definition route alone, in one library process; the set route is bypassed."""

    name = "scan-def"
    rate = 2.6
    strata = ((25, 0.5), (26, 0.5))
    tiny_strata = ((9, 0.5), (10, 0.5))

    def run_pass(self, directory, deadline, traced):
        paths = self.input_files(directory)
        out = directory / "scan.json"
        trace_out = directory / "trace.json" if traced else "-"
        argv = [sys.executable, str(OPRUNNER), "scan", str(out), str(trace_out), *map(str, paths)]
        worker = spawn(argv, directory, deadline)
        result = Pass(peak_rss_kb=worker.rss_kb)
        if worker.code != 0:
            result.probes = worker.probes
            result.ops = [OpResult(worker.latency, worker.rss_kb, worker.code, "", worker.error)
                          for _ in range(self.count)]
            return result
        data = json.loads(out.read_text())
        result.probes = data["probes"]
        result.ops = [OpResult(t, worker.rss_kb, 0, text)
                      for t, text in zip(data["latencies"], data["outputs"])]
        if traced:
            result.ops[0].trace = json.loads((directory / "trace.json").read_text())
        return result

    def check(self, i, output, graph):
        rels = json.loads(output)
        n, edges = graph
        g = _graph(n, edges)
        # chromatic_number already refuted chi-1, so only the upper certificate is checked
        chi = _lib().chromatic_number(g)
        bad, colors = certify_chi(g, chi, lower=False)
        if bad:
            return bad
        for u, v, kind, adjacent, k in rels:
            if k != chi:
                return f"relation ({u},{v}) at k={k}, chi is {chi}"
            if adjacent != g.has_edge(u, v):
                return f"adjacency flag of ({u},{v}) is wrong"
        edge_pairs = [(u, v) for u, v, kind, _, _ in rels if kind == "edge"]
        ident_pairs = [(u, v) for u, v, kind, _, _ in rels if kind == "identity"]
        return check_relations(g, edge_pairs, ident_pairs, colors)


WORKLOADS = {cls.name: cls for cls in (Analyze, ScanDef, Catalog, Poly)}
