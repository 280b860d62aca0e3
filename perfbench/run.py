"""Benchmark of the commsem command line.

    python3 perfbench/run.py --workload table_pairs --seed 0 --seconds 30 --trace 0

It imports the program from the checkout's src/ and nowhere else.  The
seed draws one pass of `commsem` invocations (workloads.py).  The benchmark
runs passes, each in a fresh interpreter that calls commsem.cli.main once per
argv, one after the other, until --seconds is used up (at least three
passes), then times a few more fresh interpreters importing commsem.cli
(setup_s, with the passes' own imports).  With --trace 1 it alternates untraced and traced passes and reports
per-layer metrics instead.  Every output is checked: exit status 0, stdout
bytes equal to the seed commit's (catalog.json), printed orders equal to
order_report, and the verdict equal to the workload's.  The last stdout
line is the JSON result; the full record, with provenance, goes to --out.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from spans import layer_metrics
from workloads import SMOKE, WORKLOADS, draw

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CATALOG = HERE / "catalog.json"

SETUP_SAMPLES = 5
MIN_PASSES = 3
MIN_TRACED_ROUNDS = 2
# every run must end well inside three minutes, whatever the program does
DEADLINE_S = 165.0


class Aborted(Exception):
    """The run cannot produce a result."""


def spawn_worker(invocations: list[list[str]], traced: bool, deadline: float) -> dict:
    """Run one pass in a fresh interpreter and return its JSON report, with
    setup_s: the time from spawning it to commsem.cli imported."""
    started = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), str(SRC), "1" if traced else "0"],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=ROOT,
    )
    try:
        out, err = proc.communicate(json.dumps(invocations), timeout=deadline - time.perf_counter())
    except subprocess.TimeoutExpired:
        raise Aborted(f"a pass was still running at the {DEADLINE_S:.0f} s deadline")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    wall = time.clock_gettime(time.CLOCK_MONOTONIC) - started
    if proc.returncode != 0:
        return {"crashed": f"worker exited {proc.returncode}: {err.strip()[-2000:]}", "wall_s": wall}
    report = json.loads(out)
    report["setup_s"] = report.pop("ready_at") - started
    report["wall_s"] = wall
    return report


# --- output checks ---------------------------------------------------------

CSV_HEADER = "m,p_order,lambda_order,t_right,t_left,per_minus2,per_plus2,iso_gupta,verified"
PL_LINE = re.compile(
    r"P\(D_(\d+)\) vs L\(D_\1\): (\S+) \(criterion says (isomorphic|not isomorphic), \d+ nodes\)"
)
SIDE_LINE = re.compile(r"([PL])\(D_(\d+)\) vs \1\(D_(\d+)\): (\S+) \(\d+ nodes\)")


def expectations(invocations: list[list[str]]) -> dict[int, object]:
    """order_report for every modulus a pass prints orders or a criterion
    for; computed once, before anything is timed."""
    from commsem.dihedral import GroupParams
    from commsem.orders import order_report

    moduli = {
        int(argv[argv.index("--from" if argv[0] == "table" else "--m") + 1])
        for argv in invocations
        if "--m2" not in argv
    }
    return {m: order_report(GroupParams.from_modulus(m)) for m in moduli}


def check(record: dict, expect: str, reports: dict, digests: dict) -> str | None:
    """Why one invocation's output is wrong, or None."""
    argv, out = record["argv"], record["stdout"]
    if record["error"]:
        return record["error"].strip().splitlines()[-1]
    if record["exit"] != 0:
        return f"exit status {record['exit']}: {record['stderr'].strip()}"
    if hashlib.sha256(out.encode()).hexdigest() != digests[" ".join(argv)]:
        return "stdout differs from the seed commit's"
    lines = out.splitlines()
    if argv[0] == "table":
        if len(lines) != 2 or lines[0] != CSV_HEADER:
            return "not a one-row CSV table"
        row = dict(zip(CSV_HEADER.split(","), lines[1].split(",")))
        rep = reports[int(row["m"])]
        if (int(row["p_order"]), int(row["lambda_order"])) != (rep.p_order, rep.lambda_order):
            return f"orders {row['p_order']}, {row['lambda_order']} != order_report {rep.p_order}, {rep.lambda_order}"
        if row["verified"] != expect:
            return f"verified column {row['verified']!r}, expected {expect!r}"
        return None
    if "--m2" in argv:
        found = [SIDE_LINE.fullmatch(line) for line in lines]
        if len(found) != 2 or not all(found):
            return "expected one verdict line per side"
        verdicts = [f.group(4) for f in found]
    else:
        found = PL_LINE.fullmatch(lines[0]) if len(lines) == 1 else None
        if not found:
            return "expected one P-vs-L verdict line"
        said = "isomorphic" if reports[int(found.group(1))].iso_pl == "isomorphic" else "not isomorphic"
        if found.group(3) != said:
            return f"criterion printed as {found.group(3)!r}, order_report says {said!r}"
        verdicts = [found.group(2)]
    if any(v != expect for v in verdicts):
        return f"verdict {verdicts}, expected {expect!r}"
    return None


# --- provenance --------------------------------------------------------------


def provenance() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
            commit = done.stdout.strip() if done.returncode == 0 else None
        except OSError:
            pass
    source = hashlib.sha256()
    for path in sorted((SRC / "commsem").rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "commit": commit,
        # identifies the code where the checkout is not a git repository
        "src_sha256": source.hexdigest(),
    }


# --- the run -----------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny moduli, to test the harness")
    parser.add_argument("--out", type=Path, default=HERE / "out", help="where records and traces go")
    return parser.parse_args(argv)


def run_s(report: dict) -> float:
    return sum(r["seconds"] for r in report["invocations"])


def measure(args, invocations: list[list[str]], start: float) -> tuple[list[float], list[dict]]:
    """Rounds of passes until --seconds is used up, then the set-up samples,
    taken last so that a processor still waking from idle slows the first
    pass (one of several) rather than most set-up samples.  A traced run's
    round is an untraced pass and a traced one, so the tracing overhead is
    measured under the same conditions."""
    deadline = start + DEADLINE_S
    setup = []
    kinds = (False, True) if args.trace else (False,)
    rounds = MIN_TRACED_ROUNDS if args.trace else MIN_PASSES
    passes: list[dict] = []
    begun = time.perf_counter()
    while True:
        for traced in kinds:
            report = spawn_worker(invocations, traced, deadline)
            report["traced"] = traced
            passes.append(report)
            if "setup_s" in report:
                setup.append(report["setup_s"])
        round_s = max(p["wall_s"] for p in passes) * len(kinds)
        if len(passes) >= rounds * len(kinds) and time.perf_counter() - begun + round_s > args.seconds:
            break
    for _ in range(SETUP_SAMPLES):
        report = spawn_worker([], False, deadline)
        if "crashed" in report:
            raise Aborted(f"importing commsem.cli failed: {report['crashed']}")
        setup.append(report["setup_s"])
    return setup, passes


def span_counts(report: dict) -> Counter:
    counts: Counter = Counter()
    for span in report["spans"]:
        counts.update(span.get("counts", {}))
    return counts


def layer_report(passes: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced run: counts from one traced pass (they
    repeat exactly), times as medians over the traced passes."""
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    per_pass = [layer_metrics(p["spans"]) for p in traced]
    out: dict[str, tuple[float, str]] = {}
    for key in per_pass[0]:
        if key.endswith(".calls"):
            out[key] = (per_pass[0][key], "count")
        else:
            out[key] = (statistics.median(m[key] for m in per_pass), "s")
    counts = span_counts(traced[0])
    for key in (
        "close_pairs.elements",
        "close_raw.elements",
        "close_raw.generators",
        "close_raw.products",
        "canonicalized_elements.elements",
        "search_isomorphism.elements",
        "search_isomorphism.nodes",
    ):
        out[key] = (counts[key], "count")
    busy = out["close_pairs.busy_s"][0]
    out["close_pairs.elements_per_s"] = (counts["close_pairs.elements"] / busy if busy else 0.0, "1/s")
    products = counts["close_raw.products"]
    out["close_raw.useful_ratio"] = (counts["close_raw.useful"] / products if products else 0.0, "ratio")
    overhead = statistics.median(map(run_s, traced)) - statistics.median(map(run_s, plain))
    out["trace.overhead_s"] = (overhead, "s")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    start = time.perf_counter()
    if not (SRC / "commsem" / "cli.py").is_file():
        print(f"nothing to benchmark: {SRC / 'commsem' / 'cli.py'} does not exist", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    catalog = json.loads(CATALOG.read_text())["invocations"]
    workload = (SMOKE if args.smoke else WORKLOADS)[args.workload]
    invocations = draw(workload, args.seed, {k: v["seconds"] for k, v in catalog.items()})
    reports = expectations(invocations)
    digests = {k: v["sha256"] for k, v in catalog.items()}
    try:
        setup, passes = measure(args, invocations, start)
    except Aborted as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 3

    attempted = failed = 0
    failures = []
    for index, report in enumerate(passes):
        if "crashed" in report:
            attempted += len(invocations)
            failed += len(invocations)
            failures.append({"pass": index, "why": report["crashed"]})
            continue
        for record in report["invocations"]:
            attempted += 1
            why = check(record, workload.expect, reports, digests)
            if why:
                failed += 1
                failures.append({"pass": index, "argv": record["argv"], "why": why})
    good = [p for p in passes if "crashed" not in p]
    traced = [p for p in good if p["traced"]]
    if args.trace and traced and any(span_counts(p) != span_counts(traced[0]) for p in traced):
        failures.append({"why": "work counts differ between traced passes of one input"})
    for failure in failures[:10]:
        print(f"FAILED {failure}", file=sys.stderr)

    plain = [p for p in good if not p["traced"]]
    if not plain or (args.trace and not traced):
        print("benchmark aborted: every pass crashed", file=sys.stderr)
        return 3
    if args.trace:
        metrics = layer_report(good)
    else:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "run_s": (statistics.median(map(run_s, plain)), "s"),
            "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in plain), "MB"),
            "ok_ratio": ((attempted - failed) / attempted, "ratio"),
        }
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    args.out.mkdir(parents=True, exist_ok=True)
    record = {
        "provenance": {
            **provenance(),
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "smoke": args.smoke,
        },
        "invocations": invocations,
        "setup_samples": setup,
        "passes": [
            {k: p.get(k) for k in ("traced", "wall_s", "setup_s", "peak_rss_mb", "crashed")}
            | ({"run_s": run_s(p), "invocation_s": [r["seconds"] for r in p["invocations"]]}
               if "crashed" not in p else {})
            for p in passes
        ],
        "failures": failures,
        "result": result,
    }
    (args.out / f"result-{name}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        spans = [{**s, "pass": i} for i, p in enumerate(passes) if p.get("spans") for s in p["spans"]]
        trace = {"invocations": invocations, "spans": spans}
        (args.out / f"trace-{name}.json").write_text(json.dumps(trace) + "\n")
    print(f"record: {args.out / f'result-{name}.json'}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # SIGTERM unwinds like an exception, so a running pass is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
