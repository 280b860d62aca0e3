"""Command-line behaviour: outputs, formats, exit codes, determinism."""

import csv
import importlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
import weakref
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from commsem import Decomposition, cli, errors, isomorphism
from commsem.errors import (
    DEFAULT_SEARCH_BUDGET, ISO_ELEMENT_LIMIT, PAIRS_MODULUS_LIMIT, RAW_MODULUS_LIMIT
)
from commsem.raw import SemigroupSummary
from reference_orders import REFERENCE_ORDERS


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_order_command(capsys):
    code, out, _ = run_cli(capsys, "order", "--m", "15")
    assert code == 0
    assert "|P| = 75" in out and "|L| = 75" in out
    code, out, _ = run_cli(capsys, "order", "--m", "36")
    assert code == 0
    assert "|P| = 63" in out and "|L| = 90" in out
    code, out, _ = run_cli(capsys, "order", "--m", "36", "--side", "right", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["p_order"] == 63 and "lambda_order" not in payload


@pytest.mark.parametrize(
    "m, side, lines",
    [
        (36, "both", ['"formula": "even-mixed",', '"p_order": 63,', '"t_right": 5,',
                      '"lambda_order": 90,', '"t_left": 8']),
        (36, "right", ['"formula": "even-mixed",', '"p_order": 63,', '"t_right": 5']),
        (64, "left", ['"formula": "power-of-two",', '"lambda_order": 94,', '"t_left": 6']),
    ],
)
def test_order_json_bytes(capsys, m, side, lines):
    # the exact payload, key order included: right's keys before left's
    code, out, err = run_cli(capsys, "order", "--m", str(m), "--side", side, "--format", "json")
    assert code == 0 and err == ""
    assert out == "\n".join(["{", f'  "m": {m},', *("  " + line for line in lines), "}", ""])


def _readme_examples() -> list:
    """One param per `$ commsem` line of README's text block: the command,
    the lines it prints up to the blank line before the next one, and
    whether a ... line cuts them short."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```text\n", 1)[1].split("```", 1)[0]
    examples = []
    for chunk in block.split("$ commsem ")[1:]:
        command, *lines = chunk.rstrip("\n").splitlines()
        cut = "..." in lines
        if cut:
            lines = lines[: lines.index("...")]
        examples.append(pytest.param(command, lines, cut, id=command))
    return examples


@pytest.mark.parametrize("command, lines, cut", _readme_examples())
def test_readme_examples(capsys, command, lines, cut):
    # each example prints exactly its lines, or begins with them when a ...
    # line cuts it short
    code, out, err = run_cli(capsys, *shlex.split(command))
    assert code == 0 and err == ""
    printed = out.splitlines()
    assert (printed[: len(lines)] if cut else printed) == lines


def test_module_entry_point(capsys):
    code, expected, _ = run_cli(capsys, "order", "--m", "36")
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "commsem", "order", "--m", "36"],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert done.returncode == code == 0
    assert done.stdout == expected.encode()


def test_order_usage_error(capsys):
    code, out, err = run_cli(capsys, "order", "--m", "2")
    assert code == 1 and not out and "usage error" in err


def test_table_single_row(capsys):
    code, out, _ = run_cli(capsys, "table", "--from", "3", "--to", "3", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1
    assert rows[0]["p_order"] == "6" and rows[0]["lambda_order"] == "9"
    assert rows[0]["verified"] == "pairs_verified"


def test_table_usage_errors(capsys, monkeypatch):
    code, _, err = run_cli(capsys, "table", "--from", "10", "--to", "3")
    assert code == 1 and "exceeds" in err
    code, _, err = run_cli(capsys, "table", "--from", "2", "--to", "5")
    assert code == 1
    code, _, err = run_cli(capsys, "table", "--from", "3", "--to", "200", "--verify", "raw")
    assert code == 1 and "raw" in err
    assert f"m <= {RAW_MODULUS_LIMIT}" in err

    # --verify pairs above the pair-closure limit is refused before any row is built
    def no_rows(m, verify_level):
        raise AssertionError(f"row {m} built before the refusal")

    monkeypatch.setattr(cli, "build_row", no_rows)
    top = PAIRS_MODULUS_LIMIT + 1
    code, out, err = run_cli(
        capsys, "table", "--from", str(top - 1), "--to", str(top), "--verify", "pairs"
    )
    assert code == 1 and not out
    assert "--verify pairs" in err and f"m <= {PAIRS_MODULUS_LIMIT}" in err



def _refuse_to_run(*_args):
    raise AssertionError("the work ran before the refusal")


FORMULA_TOP = errors.FORMULA_MODULUS_LIMIT + 1
DECOMPOSE_TOP = errors.DECOMPOSE_MODULUS_LIMIT + 1
PAIRS_TOP = errors.PAIRS_MODULUS_LIMIT + 1


@pytest.mark.parametrize(
    "argv, work, message",
    [
        (
            ("order", "--m", str(FORMULA_TOP)),
            ("modular._orbit_profile", "orders.order_central_series"),
            f"closed-form orders limited to m <= {FORMULA_TOP - 1}, got m={FORMULA_TOP}",
        ),
        (
            ("orbit", "--m", str(FORMULA_TOP), "--x", "3"),
            ("modular._orbit_profile",),
            f"orbit profile limited to m <= {FORMULA_TOP - 1}, got m={FORMULA_TOP}",
        ),
        (
            ("decompose", "--m", str(DECOMPOSE_TOP), "--side", "left"),
            ("containers.base_scale",),
            f"decomposition limited to m <= {DECOMPOSE_TOP - 1}, got m={DECOMPOSE_TOP}",
        ),
        (
            ("table", "--from", "3", "--to", str(PAIRS_TOP)),
            ("cli.build_row",),
            f"table limited to m <= {PAIRS_TOP - 1}, got m={PAIRS_TOP}",
        ),
        (
            ("table", "--from", "3", "--to", str(PAIRS_TOP), "--verify", "none"),
            ("cli.build_row",),
            f"table --verify none limited to m <= {PAIRS_TOP - 1}, got m={PAIRS_TOP}",
        ),
    ],
)
def test_formula_commands_refuse_above_their_caps(capsys, monkeypatch, argv, work, message):
    # the work is patched to raise, so each refusal comes before any power walk
    for target in work:
        module, name = target.split(".")
        monkeypatch.setattr(importlib.import_module(f"commsem.{module}"), name, _refuse_to_run)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and not out
    assert err == f"usage error: {message}\n"


@pytest.mark.parametrize(
    "modules, name, cap, what, argv",
    [
        (("modular", "orders"), "FORMULA_MODULUS_LIMIT", 100, "closed-form orders", ("order", "--m")),
        (("modular",), "FORMULA_MODULUS_LIMIT", 100, "orbit profile", ("orbit", "--m")),
        (("containers",), "DECOMPOSE_MODULUS_LIMIT", 50, "decomposition", ("decompose", "--m")),
        (("cli",), "PAIRS_MODULUS_LIMIT", 40, "table", ("table", "--from", "40", "--to")),
        (
            ("cli",),
            "PAIRS_MODULUS_LIMIT",
            40,
            "table --verify none",
            ("table", "--verify", "none", "--from", "40", "--to"),
        ),
    ],
)
def test_formula_caps_admit_the_cap_and_refuse_one_more(
    capsys, monkeypatch, modules, name, cap, what, argv
):
    for module in modules:
        monkeypatch.setattr(importlib.import_module(f"commsem.{module}"), name, cap)
    code, out, _ = run_cli(capsys, *argv, str(cap))
    assert code == 0 and out
    code, out, err = run_cli(capsys, *argv, str(cap + 1))
    assert code == 1 and not out
    assert err == f"usage error: {what} limited to m <= {cap}, got m={cap + 1}\n"


def test_table_csv_round_trip(capsys):
    code, out, _ = run_cli(capsys, "table", "--from", "3", "--to", "20", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 18
    for record in rows:
        m = int(record["m"])
        row = cli.build_row(m, "pairs")
        emitted = {
            "m": int(record["m"]),
            "p_order": int(record["p_order"]),
            "lambda_order": int(record["lambda_order"]),
            "t_right": int(record["t_right"]),
            "t_left": int(record["t_left"]),
            "per_minus2": int(record["per_minus2"]),
            "per_plus2": int(record["per_plus2"]),
            "iso_gupta": record["iso_gupta"] == "true",
            "verified": record["verified"],
        }
        assert emitted == asdict(row)


def test_table_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "table", "--from", "3", "--to", "20", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert [row["m"] for row in rows] == list(range(3, 21))
    for record in rows:
        assert record == asdict(cli.build_row(record["m"], "pairs"))


def test_table_deterministic_and_meta(capsys):
    args = ("table", "--from", "3", "--to", "12", "--format", "csv")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second
    _, with_meta, _ = run_cli(capsys, *args, "--meta")
    lines = with_meta.splitlines()
    assert lines[0].startswith("# generator: commsem")
    assert lines[1].startswith("# command: table")
    assert "\n".join(lines[2:]) + "\n" == first
    _, json_meta, _ = run_cli(capsys, "table", "--from", "3", "--to", "4",
                              "--format", "json", "--meta")
    payload = json.loads(json_meta)
    assert set(payload) == {"meta", "rows"} and len(payload["rows"]) == 2
    # the command label reproduces the output, --verify included
    _, raw_meta, _ = run_cli(capsys, "table", "--from", "3", "--to", "3",
                             "--verify", "raw", "--meta")
    assert raw_meta.splitlines()[1] == "# command: table --from 3 --to 3 --verify raw --format text"
    assert "raw_verified" in raw_meta


def test_table_matches_reference(capsys):
    code, out, _ = run_cli(capsys, "table", "--from", "3", "--to", "101", "--format", "csv")
    assert code == 0
    for record in csv.DictReader(io.StringIO(out)):
        expected = REFERENCE_ORDERS[int(record["m"])]
        assert (int(record["p_order"]), int(record["lambda_order"])) == expected


def test_table_raw_verification(capsys):
    code, out, _ = run_cli(capsys, "table", "--from", "3", "--to", "12",
                           "--verify", "raw", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 10
    assert all(r["verified"] == "raw_verified" for r in rows)


def _imports_numpy_ma(*argv: str) -> bool:
    """Whether a fresh interpreter imports numpy.ma while main(argv) runs;
    main must return 0."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    script = (
        "import contextlib, io, sys\n"
        "from commsem.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main({list(argv)!r})\n"
        "print(code, 'numpy.ma' in sys.modules)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    code, imported = done.stdout.split()
    assert code == b"0", done.stderr
    return imported == b"True"


def test_raw_verification_does_not_import_numpy_ma():
    # np.unique without return_index or return_inverse imports numpy.ma,
    # 10-15 ms of every process that reaches it
    assert not _imports_numpy_ma("table", "--from", "65", "--to", "65", "--verify", "raw")


def test_iso_search_does_not_import_numpy_ma():
    # a search that extends partial maps and verifies a witness; np.union1d
    # calls a plain np.unique too
    assert not _imports_numpy_ma("iso", "--m", "10", "--m2", "5")


def test_default_verify_level_drops_above_limit(capsys):
    code, out, _ = run_cli(capsys, "table", "--from", "512", "--to", "513", "--format", "csv")
    assert code == 0
    rows = {int(r["m"]): r for r in csv.DictReader(io.StringIO(out))}
    assert rows[512]["verified"] == "pairs_verified"
    assert rows[513]["verified"] == "formula_only"


def test_pair_row_memory():
    # the pair path of a table row holds its elements as key arrays; a
    # Python set of the 259081 keys of either side at m = 509 is larger than that
    tracemalloc.start()
    try:
        row = cli.build_row(509, "pairs")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert row.verified == "pairs_verified"
    assert peak < 12 * 2**20


@pytest.mark.parametrize(
    "verify_level, expected",
    [
        (
            "raw",
            [
                ("close_pairs", "right", 0),
                ("close_raw", "right", 1),
                ("close_pairs", "left", 0),
                ("close_raw", "left", 1),
            ],
        ),
        ("pairs", [("close_pairs", "right", 0), ("close_pairs", "left", 0)]),
    ],
    ids=["raw", "pairs"],
)
def test_row_verifies_one_side_at_a_time(monkeypatch, verify_level, expected):
    # each side is closed and checked by every requested oracle before the
    # next side, and its elements are dropped before the next side's
    # closure: each call is recorded as (oracle, side, live), where live
    # counts the element arrays of earlier calls still alive when it starts
    calls, returned = [], []
    for name in ("close_pairs", "close_raw"):
        def spy(side, g, real=getattr(cli, name), name=name):
            calls.append((name, side, sum(ref() is not None for ref in returned)))
            summary = real(side, g)
            returned.append(weakref.ref(summary.elements))
            return summary

        monkeypatch.setattr(cli, name, spy)
    assert cli.build_row(8, verify_level).verified == f"{verify_level}_verified"
    assert calls == expected


def test_verification_failure_exit_code(capsys, monkeypatch):
    def broken_close_pairs(side, g):
        return SemigroupSummary(g.m, side, 1, np.array([0]))

    monkeypatch.setattr(cli, "close_pairs", broken_close_pairs)
    code, out, err = run_cli(capsys, "table", "--from", "8", "--to", "8", "--verify", "pairs")
    assert code == 2
    assert "verification failure" in err
    assert "m=8" in err and "side=right" in err and "10" in err and "1" in err


def test_raw_element_set_mismatch_names_sizes_and_key(capsys, monkeypatch):
    real_close_pairs = cli.close_pairs
    keys = real_close_pairs("right", cli.GroupParams.from_modulus(8)).elements
    missing = int(np.setdiff1d(np.arange(keys[-1]), keys)[0])  # smallest non-member

    def one_key_changed(side, g):
        # the right size, with the largest key swapped for `missing`; the right
        # side is checked first
        summary = real_close_pairs(side, g)
        changed = np.sort(np.append(summary.elements[:-1], missing))
        return SemigroupSummary(g.m, side, summary.generator_count, changed)

    monkeypatch.setattr(cli, "close_pairs", one_key_changed)
    code, out, err = run_cli(capsys, "table", "--from", "8", "--to", "8", "--verify", "raw")
    assert code == 2 and out == ""
    assert err == (
        "verification failure: m=8 side=right stage=raw_vs_pairs: raw-oracle element set "
        f"(10 keys) differs from pair oracle (10 keys); key {missing} "
        f"({cli.CanonicalMap.from_key(missing, 8)}) is only in the pair oracle\n"
    )


def test_consistency_error_in_a_command_exits_2(capsys, monkeypatch):
    def disagreeing_report(g):
        raise errors.ConsistencyError(f"m={g.m} side=right stage=order_report: 5 != 6")

    monkeypatch.setattr(cli, "order_report", disagreeing_report)
    assert run_cli(capsys, "order", "--m", "9") == (
        2, "", "verification failure: m=9 side=right stage=order_report: 5 != 6\n"
    )


def _off_by_one(real):
    return lambda side, g: real(side, g) + 1


def _not_dividing_m(real):
    return lambda u, g: g.m + 1


def _last_element_dropped(real):
    def patched(side, g):
        summary = real(side, g)
        return SemigroupSummary(g.m, side, summary.generator_count, summary.elements[:-1])

    return patched


def _last_part_dropped(real):
    def patched(side, g):
        dec = real(side, g)
        return Decomposition(dec.parts[:-1], dec.side)

    return patched


@pytest.mark.parametrize(
    "argv, target, patch, message",
    [
        (
            ("order", "--m", "9"),
            "orders.order_casewise",
            _off_by_one,
            "m=9 side=right stage=order_report: order routes disagree: "
            "central series 36, casewise 37, repeat exponent 36",
        ),
        (
            ("order", "--m", "9"),
            "orders.center_order",
            _not_dividing_m,
            "m=9 side=right stage=order_central_series: centre order 10 does not divide 9",
        ),
        (
            ("table", "--from", "8", "--to", "8", "--verify", "pairs"),
            "cli.close_pairs",
            _last_element_dropped,
            "m=8 side=right stage=close_pairs: formula value 10 != pair-oracle value 9",
        ),
        (
            ("table", "--from", "8", "--to", "8", "--verify", "raw"),
            "cli.close_raw",
            _last_element_dropped,
            "m=8 side=right stage=close_raw: formula value 10 != raw-oracle value 9",
        ),
        (
            ("decompose", "--m", "9"),
            "cli.decompose",
            _last_part_dropped,
            "m=9 side=right stage=decompose: cover of 3 parts totalling 27, "
            "order routes give t = 4 and order 36",
        ),
    ],
    ids=["order_casewise", "center_order", "close_pairs", "close_raw", "decompose"],
)
def test_each_disagreement_names_m_side_stage_and_both_values(
    capsys, monkeypatch, argv, target, patch, message
):
    # one route or oracle patched per case; every ConsistencyError has one shape
    module, name = target.split(".")
    module = importlib.import_module(f"commsem.{module}")
    monkeypatch.setattr(module, name, patch(getattr(module, name)))
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert re.match(r"^verification failure: m=\d+ side=(right|left) stage=\w+: ", err)
    assert err == f"verification failure: {message}\n"


def test_raw_table_outside_the_map_family_exits_2(capsys, monkeypatch):
    real_close_raw = cli.close_raw

    def one_entry_changed(side, g):
        # the right size, with the image of the identity rotation moved off 0
        summary = real_close_raw(side, g)
        tables = summary.elements.copy()
        tables[-1, 0] = 1
        return SemigroupSummary(g.m, side, summary.generator_count, tables)

    monkeypatch.setattr(cli, "close_raw", one_entry_changed)
    code, out, err = run_cli(capsys, "table", "--from", "8", "--to", "8", "--verify", "raw")
    assert code == 2 and out == ""
    assert err.startswith(
        "verification failure: m=8 side=right stage=canonicalized_elements: raw table "
    )
    assert "is outside the map family" in err


def test_failed_command_prints_nothing_on_stdout(capsys, monkeypatch):
    # iso --m 74 --m2 37 compares P and then L; the L search fails after the
    # P line is printed
    real_scale_table = isomorphism._scale_table

    def failing_on_left(keys, m, side):
        if side == "left":
            raise errors.ConsistencyError(f"m={m} side={side} stage=_scale_table: 1 != 2")
        return real_scale_table(keys, m, side)

    monkeypatch.setattr(isomorphism, "_scale_table", failing_on_left)
    assert run_cli(capsys, "iso", "--m", "74", "--m2", "37") == (
        2, "", "verification failure: m=74 side=left stage=_scale_table: 1 != 2\n"
    )


def _main_output(capsys, argv):
    """(exit status, stdout, stderr) of main(argv), a SystemExit caught."""
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_reused_parser_prints_what_a_fresh_one_prints(capsys, monkeypatch):
    calls = [
        ("table", "--from", "5"),
        ("--version",),
        ("table", "--from", "3", "--to", "20", "--format", "csv"),
        ("iso", "--m", "15"),
    ]
    monkeypatch.setattr(cli, "_parser", None)
    reused = [_main_output(capsys, argv) for argv in calls]
    fresh = []
    for argv in calls:
        monkeypatch.setattr(cli, "_parser", None)
        fresh.append(_main_output(capsys, argv))
    assert reused == fresh
    assert [code for code, _, _ in reused] == [1, ("SystemExit", 0), 0, 0]
    assert "--to" in reused[0][2] and reused[1][1] == f"commsem {cli.__version__}\n"


def test_main_builds_the_parser_once(capsys, monkeypatch):
    builds = []
    real_build_parser = cli.build_parser

    def counting_build_parser():
        builds.append(1)
        return real_build_parser()

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    for argv in (("order", "--m", "8"), ("table", "--from", "2", "--to", "3"), ("orbit", "--m", "7")):
        run_cli(capsys, *argv)
    assert len(builds) == 1


def test_main_runs_a_replaced_command(capsys, monkeypatch):
    cli.main(["order", "--m", "8"])  # the parser is built before the replacement
    capsys.readouterr()
    seen = []

    def replaced(args):
        seen.append(args.end_m)
        return 7

    monkeypatch.setattr(cli, "_cmd_table", replaced)
    code, out, _ = run_cli(capsys, "table", "--from", "3", "--to", "9")
    assert (code, out, seen) == (7, "", [9])


def test_decompose_command(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--m", "8", "--side", "right")
    assert code == 0
    assert "C(0, 1)  size      4" in out
    assert "C(6, 1)  size      4" in out
    assert "C(4, 2)  size      2" in out
    assert out.strip().endswith("total 10")
    code, out, _ = run_cli(capsys, "decompose", "--m", "8", "--side", "left", "--format", "json")
    payload = json.loads(out)
    assert [part["scale"] for part in payload["parts"]] == [0, 2, 4]
    assert payload["total"] == 10
    code, out, _ = run_cli(capsys, "decompose", "--m", "5", "--side", "right", "--format", "json")
    payload = json.loads(out)
    assert len(payload["parts"]) == 5 and payload["total"] == 25


def test_central_series_command(capsys):
    code, out, _ = run_cli(capsys, "central-series", "--m", "24", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["orders"] == [1, 2, 4, 8]
    assert payload["stabilization_index"] == 3 and payload["nilpotent"] is False


def test_orbit_command(capsys):
    code, out, _ = run_cli(capsys, "orbit", "--m", "56", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    by_x = {rec["x"]: rec for rec in payload["profiles"]}
    assert by_x[-2]["index"] == 3 and by_x[-2]["period"] == 6
    assert by_x[2]["index"] == 3 and by_x[2]["period"] == 3
    code, out, _ = run_cli(capsys, "orbit", "--m", "7", "--x", "2")
    assert code == 0 and "order 3" in out


def test_iso_command(capsys):
    code, out, _ = run_cli(capsys, "iso", "--m", "8")
    assert code == 0 and "isomorphic_with_witness" in out
    code, out, _ = run_cli(capsys, "iso", "--m", "15")
    assert code == 0 and "not_isomorphic" in out
    code, out, _ = run_cli(capsys, "iso", "--m", "10", "--m2", "5")
    assert code == 0 and out.count("isomorphic_with_witness") == 2
    # the printed node counts pin the search order
    assert out.splitlines() == [
        "P(D_10) vs P(D_5): isomorphic_with_witness (7 nodes)",
        "L(D_10) vs L(D_5): isomorphic_with_witness (7 nodes)",
    ]
    code, out, _ = run_cli(capsys, "iso", "--m", "52")
    assert code == 0
    assert out == (
        "P(D_52) vs L(D_52): isomorphic_with_witness (criterion says isomorphic, 58 nodes)\n"
    )
    code, out, _ = run_cli(capsys, "iso", "--m", "20", "--budget", "1")
    assert code == 2 and "budget_exhausted" in out
    args = cli.build_parser().parse_args(["iso", "--m", "8"])
    assert args.budget == DEFAULT_SEARCH_BUDGET
    # --side picks the comparisons of an --m/--m2 query
    code, out, _ = run_cli(capsys, "iso", "--m", "10", "--m2", "5", "--side", "right")
    assert code == 0 and out.startswith("P(D_10) vs P(D_5)") and out.count("\n") == 1
    code, out, _ = run_cli(capsys, "iso", "--m", "10", "--m2", "5", "--side", "left")
    assert code == 0 and out == "L(D_10) vs L(D_5): isomorphic_with_witness (7 nodes)\n"
    # a zero budget still answers from colour refinement alone
    code, out, _ = run_cli(capsys, "iso", "--m", "15", "--budget", "0")
    assert code == 0
    assert out == "P(D_15) vs L(D_15): not_isomorphic (criterion says not isomorphic, 0 nodes)\n"
    # pinned node counts of the colour-refinement paths: stamp rounds (m = 100,
    # and m = 244, whose 3904 elements fall into 64 row types, the most of any
    # P vs L or 2p vs p pair within the cap), separation by the initial
    # signatures (m = 55, 1155 elements), cross-modulus
    for m, nodes in ((68, 85), (100, 145), (244, 788)):
        code, out, _ = run_cli(capsys, "iso", "--m", str(m))
        assert code == 0
        assert out == (
            f"P(D_{m}) vs L(D_{m}): isomorphic_with_witness"
            f" (criterion says isomorphic, {nodes} nodes)\n"
        )
    # a generating set of more elements than Python's default recursion
    # limit; the backtracking holds its choices on an explicit stack
    code, out, err = run_cli(capsys, "iso", "--m", "2048")
    assert (code, err) == (0, "")
    assert out == (
        "P(D_2048) vs L(D_2048): isomorphic_with_witness (criterion says isomorphic, 1536 nodes)\n"
    )
    # the longest searches within the cap: each node count fixes the order in
    # which the backtracking tries its images and when a closure is refused
    for m, nodes in ((848, 2472), (1360, 5548), (2080, 6136)):
        code, out, err = run_cli(capsys, "iso", "--m", str(m))
        assert (code, err) == (0, "")
        assert out == (
            f"P(D_{m}) vs L(D_{m}): isomorphic_with_witness"
            f" (criterion says isomorphic, {nodes} nodes)\n"
        )
    # the iso_refute anchors (m = 95, 3515 elements), all decided by the
    # row spans alone
    for m in (55, 95, 77, 87):
        code, out, _ = run_cli(capsys, "iso", "--m", str(m))
        assert code == 0
        assert out == (
            f"P(D_{m}) vs L(D_{m}): not_isomorphic (criterion says not isomorphic, 0 nodes)\n"
        )
    # the iso_witness invocations of 2p vs p, the same node count on each side
    for p, nodes in ((13, 15), (17, 20), (29, 31), (41, 44)):
        code, out, _ = run_cli(capsys, "iso", "--m", str(2 * p), "--m2", str(p))
        assert code == 0
        assert out.splitlines() == [
            f"{s}(D_{2 * p}) vs {s}(D_{p}): isomorphic_with_witness ({nodes} nodes)" for s in "PL"
        ]
    code, out, _ = run_cli(capsys, "iso", "--m", "50", "--m2", "25")
    assert code == 0
    assert out.splitlines() == [
        "P(D_50) vs P(D_25): isomorphic_with_witness (28 nodes)",
        "L(D_50) vs L(D_25): isomorphic_with_witness (28 nodes)",
    ]
    # the iso_witness memory anchor, a long search, and an exhausted budget
    code, out, _ = run_cli(capsys, "iso", "--m", "74", "--m2", "37")
    assert code == 0
    assert out.splitlines() == [
        "P(D_74) vs P(D_37): isomorphic_with_witness (39 nodes)",
        "L(D_74) vs L(D_37): isomorphic_with_witness (39 nodes)",
    ]
    code, out, _ = run_cli(capsys, "iso", "--m", "85")
    assert code == 0
    assert out == (
        "P(D_85) vs L(D_85): isomorphic_with_witness (criterion says isomorphic, 184 nodes)\n"
    )
    # index and period decide this node count: without them the P search
    # takes 3142 nodes
    code, out, _ = run_cli(capsys, "iso", "--m", "110", "--m2", "55")
    assert code == 0
    assert out.splitlines() == [
        "P(D_110) vs P(D_55): isomorphic_with_witness (62 nodes)",
        "L(D_110) vs L(D_55): isomorphic_with_witness (60 nodes)",
    ]
    code, out, _ = run_cli(capsys, "iso", "--m", "100", "--budget", "50")
    assert code == 2
    assert out == "P(D_100) vs L(D_100): budget_exhausted (criterion says isomorphic, 51 nodes)\n"


def test_iso_usage_errors(capsys, monkeypatch):
    code, out, err = run_cli(capsys, "iso", "--m", "20", "--budget", "-5")
    assert code == 1 and not out and "--budget" in err
    code, out, err = run_cli(capsys, "iso", "--m", "8", "--side", "right")
    assert code == 1 and not out and "--m2" in err

    def no_table(*_args):
        raise AssertionError("the product table must not be built")

    monkeypatch.setattr(isomorphism, "_scale_table", no_table)
    # |P| = |L| = 53235 at m = 4095 and 5175 at m = 115, both above the cap
    for m, n in ((4095, 53235), (115, 5175)):
        code, out, err = run_cli(capsys, "iso", "--m", str(m))
        assert code == 1 and not out
        assert str(n) in err and str(ISO_ELEMENT_LIMIT) in err


def test_verify_claims_command(capsys):
    code, out, _ = run_cli(capsys, "verify-claims")
    assert code == 0
    assert "FAIL" not in out
    assert out.count("PASS") == 10
