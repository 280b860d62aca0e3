"""Fold the run records in a directory into one BENCH_<n>.json entry.

    python3 perfbench/summarize.py perfbench/out > perfbench/BENCH_<n>.json

For every workload it gives each metric's median and quartiles over the
records (one per seed), the seeds, the totals of attempted and failed
invocations, and the provenance of the runs.  Smoke records are skipped.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def main(directory: str) -> int:
    records = [json.loads(p.read_text()) for p in sorted(Path(directory).glob("result-*.json"))]
    records = [r for r in records if not r["provenance"]["smoke"]]
    if not records:
        sys.exit(f"no run records in {directory}")
    groups = defaultdict(list)
    for record in records:
        prov = record["provenance"]
        groups[prov["workload"], "per_layer" if prov["trace"] else "end_to_end"].append(record)
    workloads: dict = defaultdict(dict)
    for (name, kind), group in sorted(groups.items()):
        metrics = {}
        for metric in group[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][metric]["value"] for r in group]
            q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            metrics[metric] = {
                "median": median,
                "q1": q1,
                "q3": q3,
                "unit": group[0]["result"]["metrics"][metric]["unit"],
            }
        workloads[name][kind] = {
            "seeds": [r["provenance"]["seed"] for r in group],
            "attempted": sum(r["result"]["attempted"] for r in group),
            "failed": sum(r["result"]["failed"] for r in group),
            "metrics": metrics,
        }
    prov = records[0]["provenance"]
    summary = {
        "provenance": {k: prov[k] for k in ("python", "numpy", "cpu", "nproc", "commit", "src_sha256", "seconds")},
        "workloads": workloads,
    }
    print(json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
