"""Self-test of the benchmark itself, at a tiny size.

    python3 perfbench/selftest.py

Runs every workload untraced and traced on tiny inputs and checks that every
metric named in BENCHMARK.json is emitted with its unit, that outputs pass
their checks, that a corrupted expected digest makes the op count as failed,
that the command line ends with the one-line JSON result, and that the
benchmark refuses to run where the chromarel sources are missing.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import run
import workloads as wl

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def units(result: dict) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def main() -> int:
    bench = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    expect(e2e == run.END_TO_END, "BENCHMARK.json end_to_end matches run.END_TO_END")
    expect(layers == run.PER_LAYER, "BENCHMARK.json per_layer matches run.PER_LAYER")
    expect({w["name"] for w in bench["workloads"]} == set(wl.WORKLOADS),
           "BENCHMARK.json workloads match the implemented ones")

    for name in sorted(wl.WORKLOADS):
        plain = run.run(name, wl.DEFAULT_SEED, 1, trace=False, tiny=True, digests=[])
        traced = run.run(name, wl.DEFAULT_SEED, 1, trace=True, tiny=True, digests=[])
        for label, out, want in (("untraced", plain, e2e), ("traced", traced, layers)):
            res = out["result"]
            expect(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                   f"{name} {label}: every op correct")
            expect(units(res) == want, f"{name} {label}: every metric emitted with its unit")
            expect(all(math.isfinite(m["value"]) for m in res["metrics"].values()),
                   f"{name} {label}: every value finite")
        expect(all(plain["result"]["metrics"][k]["value"] > 0 for k in e2e),
               f"{name}: every end-to-end metric is above zero")
        ops = plain["result"]["attempted"]
        layer = {k: m["value"] for k, m in traced["result"]["metrics"].items()}
        if name == "scan-def":
            expect(layer["relations.implicit_via_sets.calls"] == 0,
                   "scan-def: the set route is never called")
        if name == "analyze":
            expect(layer["relations.scan_relations.calls"] == 2 * ops,
                   "analyze: scan_relations runs twice per op")
        if name == "catalog":
            expect(all(layer[f"checks.{cid}.cold_s"] > 0 for cid in run.CHECK_IDS),
                   "catalog: every check has a cold time")

        recorded = plain["record"]["digests"]
        same = run.run(name, wl.DEFAULT_SEED, 1, trace=False, tiny=True, digests=recorded)
        expect(same["result"]["failed"] == 0, f"{name}: matching digests pass")
        corrupted = ["0" * 16] + recorded[1:]
        bad = run.run(name, wl.DEFAULT_SEED, 1, trace=False, tiny=True, digests=corrupted)
        expect(bad["result"]["failed"] > 0 and not bad["result"]["correct"],
               f"{name}: a corrupted digest drives error_rate above 0")

    cmd = [sys.executable, str(wl.HERE / "run.py"), "--workload", "poly",
           "--seed", "3", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=wl.ROOT, capture_output=True, text=True, timeout=170)
    last = json.loads(proc.stdout.splitlines()[-1]) if proc.returncode == 0 else {}
    expect(set(last) == {"correct", "attempted", "failed", "metrics"} and units(last) == e2e,
           "command line prints the result object as its last line")

    bare = wl.ROOT / ".perfbench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(wl.HERE, bare / wl.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(wl.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, str(bare / wl.HERE.name / "run.py"), *cmd[2:]],
                          cwd=bare, capture_output=True, text=True, timeout=170)
    shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
           "without the chromarel sources it exits nonzero and prints no result")

    print(f"{len(failures)} failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
