"""Record the expected output of every op for the default seed.

    python3 perfbench/record_digests.py [WORKLOAD...]

Run it from the repository root at the commit whose outputs are the
reference. It makes one untraced run per workload (all by default) at the
default seed, sized for --seconds 60, the longest run allowed (the catalog's
ops all repeat one command, so a short run covers it). It refuses to record
when any op fails its cross-checks, and updates perfbench/digests.json.
"""

from __future__ import annotations

import json
import sys

import run
import workloads as wl

SECONDS = {"catalog": 4}


def main(names: list[str]) -> int:
    table = json.loads(run.DIGESTS.read_text())["workloads"] if run.DIGESTS.is_file() else {}
    for name in names or sorted(wl.WORKLOADS):
        out = run.run(name, wl.DEFAULT_SEED, SECONDS.get(name, 60), trace=False, digests=[])
        if not out["result"]["correct"]:
            print(f"{name}: ops failed, nothing recorded", file=sys.stderr)
            return 1
        table[name] = out["record"]["digests"]
        print(f"{name}: {len(table[name])} digests")
    run.DIGESTS.write_text(json.dumps({"seed": wl.DEFAULT_SEED, "workloads": table}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
