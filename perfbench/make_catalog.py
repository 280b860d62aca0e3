"""Record catalog.json: for every invocation any workload can draw, the
sha256 of its stdout and its mean time in seconds.

    python3 perfbench/make_catalog.py

Run it at the commit whose output is the reference (the catalog in git was
recorded at the seed commit of the benchmark).  Each workload's whole pool
runs REPEATS times, in a fresh interpreter per repeat and in a different
order each time, the way a pass runs; stdout must repeat byte for byte.
The times are what workloads.draw balances passes with.
"""

from __future__ import annotations

import hashlib
import json
import random
import statistics
import sys
import time
from collections import defaultdict

from run import CATALOG, provenance, spawn_worker
from workloads import SMOKE, WORKLOADS

REPEATS = 2


def main() -> int:
    seconds = defaultdict(list)
    digests = {}
    for workload in (*WORKLOADS.values(), *SMOKE.values()):
        invocations = [list(argv) for argv in workload.invocations()]
        for repeat in range(REPEATS):
            random.Random(repeat).shuffle(invocations)
            report = spawn_worker(invocations, False, time.perf_counter() + 3600)
            if "crashed" in report:
                sys.exit(report["crashed"])
            for record in report["invocations"]:
                key = " ".join(record["argv"])
                if record["exit"] != 0:
                    sys.exit(f"{key}: exit status {record['exit']}")
                digest = hashlib.sha256(record["stdout"].encode()).hexdigest()
                if digests.setdefault(key, digest) != digest:
                    sys.exit(f"{key}: stdout differs between repeats")
                seconds[key].append(record["seconds"])
            print(f"{workload.name}: repeat {repeat + 1} took {sum(r['seconds'] for r in report['invocations']):.1f} s")
    catalog = {
        "recorded_at": provenance(),
        "invocations": {
            key: {"sha256": digests[key], "seconds": round(statistics.mean(seconds[key]), 4)}
            for key in sorted(digests)
        },
    }
    CATALOG.write_text(json.dumps(catalog, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
