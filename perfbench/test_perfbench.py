"""Smoke tests of the benchmark harness: tiny moduli through all four
workloads and the traced run, the seeded draws, the output checks, and the
refusal to run without the program."""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys

import pytest

import run
from workloads import SMOKE, TOLERANCE, WORKLOADS, draw

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
CATALOG = json.loads(run.CATALOG.read_text())["invocations"]
COST = {key: entry["seconds"] for key, entry in CATALOG.items()}


def _result(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(WORKLOADS)
    assert sorted(SMOKE) == sorted(WORKLOADS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_draw_is_seeded_and_balanced(name):
    workload = WORKLOADS[name]
    draws = [draw(workload, seed, COST) for seed in range(8)]
    assert draw(workload, 3, COST) == draws[3]
    assert len({json.dumps(d) for d in draws}) > 1
    target = sum(COST[" ".join(a)] for a in workload.anchors) + sum(
        s.target_s for s in workload.strata
    )
    for invocations in draws:
        assert all(" ".join(argv) in CATALOG for argv in invocations)
        assert len({" ".join(argv) for argv in invocations}) == len(invocations)
        cost = sum(COST[" ".join(argv)] for argv in invocations)
        assert abs(cost - target) <= TOLERANCE * target


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_smoke_traced_run(name, tmp_path, capsys):
    code = run.main(["--workload", name, "--smoke", "--seconds", "0", "--trace", "1", "--out", str(tmp_path)])
    result = _result(capsys)
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert sorted(result["metrics"]) == sorted(m["name"] for m in BENCHMARK["per_layer"])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["cli.calls"] == len(SMOKE[name].invocations())
    if name.startswith("table"):
        assert metrics["close_pairs.elements"] > 0
    if name == "table_raw":
        assert metrics["close_raw.elements"] == metrics["canonicalized_elements.elements"] > 0
    if name == "iso_refute":
        assert metrics["search_isomorphism.nodes"] == 0
    if name == "iso_witness":
        assert metrics["search_isomorphism.nodes"] > 0
    trace = json.loads((tmp_path / f"trace-{name}-seed0-trace1-smoke.json").read_text())
    names = {s["name"] for s in trace["spans"]}
    assert "cli" in names and len(names) > 1


def test_smoke_end_to_end_run(tmp_path, capsys):
    code = run.main(["--workload", "iso_witness", "--smoke", "--seconds", "0", "--out", str(tmp_path)])
    result = _result(capsys)
    assert code == 0 and result["correct"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in BENCHMARK["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    record = json.loads((tmp_path / "result-iso_witness-seed0-trace0-smoke.json").read_text())
    assert {"python", "numpy", "cpu", "nproc", "commit", "seed"} <= set(record["provenance"])


def test_check_rejects_wrong_output():
    argv = ["table", "--from", "7", "--to", "7", "--format", "csv"]
    reports = run.expectations([argv])
    digests = {" ".join(argv): CATALOG[" ".join(argv)]["sha256"]}
    header = run.CSV_HEADER + "\n"
    good = {"argv": argv, "exit": 0, "error": None, "stderr": "",
            "stdout": header + "7,49,28,7,4,6,3,false,pairs_verified\n"}
    assert run.check(good, "pairs_verified", reports, digests) is None
    assert run.check({**good, "exit": 2}, "pairs_verified", reports, digests)
    wrong = {**good, "stdout": header + "7,48,28,7,4,6,3,false,pairs_verified\n"}
    assert run.check(wrong, "pairs_verified", reports, digests)
    assert run.check(wrong, "pairs_verified", reports, {" ".join(argv): _sha(wrong)}).startswith("orders")


def _sha(record) -> str:
    return hashlib.sha256(record["stdout"].encode()).hexdigest()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "iso_refute", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
