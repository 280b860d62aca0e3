"""Command-line front end.

Subcommands: order, table, decompose, central-series, orbit, verify-claims,
iso.  Data goes to stdout, diagnostics to stderr.  Exit codes: 0 success,
1 usage error, 2 verification failure (or an inconclusive isomorphism
search).  Output is deterministic; --meta prepends provenance headers.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import __version__
from .central_series import series_profile
from .closure import canonicalized_elements, close_pairs
from .containers import decompose
from .dihedral import SIDES, GroupParams
from .errors import (
    DEFAULT_PAIRS_VERIFY_LIMIT, DEFAULT_SEARCH_BUDGET, PAIRS_MODULUS_LIMIT, RAW_MODULUS_LIMIT,
    ConsistencyError, ParameterError, ResourceLimitError, check_limit,
)
from .isomorphism import IsoStatus, search_isomorphism, verify_iso_map
from .modular import is_odd_prime, orbit_profile
from .mumaps import CanonicalMap
from .orders import (
    doubling_preserves_orders,
    gupta_criterion,
    order_central_series,
    order_report,
)
from .raw import close_raw


@dataclass(frozen=True, slots=True)
class TableRow:
    """One table row, one field per output column: orders, dispatch lengths,
    orbit periods, the isomorphism flag, and how far the row was verified."""

    m: int
    p_order: int
    lambda_order: int
    t_right: int
    t_left: int
    per_minus2: int
    per_plus2: int
    iso_gupta: bool
    verified: str


CSV_COLUMNS = tuple(f.name for f in fields(TableRow))


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        raise ParameterError(message)


def build_row(m: int, verify_level: str) -> TableRow:
    g = GroupParams.from_modulus(m)
    rep = order_report(g)
    verified = "formula_only"
    if verify_level in ("pairs", "raw"):
        # one side at a time, its elements dropped before the next side's
        # closure: kept alive, they make that closure allocate fresh pages
        for side in SIDES:
            order = rep.order(side)
            pair_keys = close_pairs(side, g).elements
            if len(pair_keys) != order:
                raise ConsistencyError(
                    f"m={m} side={side} stage=close_pairs: formula value {order} != "
                    f"pair-oracle value {len(pair_keys)}"
                )
            if verify_level == "raw":
                raw = close_raw(side, g)
                if raw.size != order:
                    raise ConsistencyError(
                        f"m={m} side={side} stage=close_raw: formula value {order} != "
                        f"raw-oracle value {raw.size}"
                    )
                raw_keys = canonicalized_elements(raw)
                if not np.array_equal(raw_keys, pair_keys):
                    # sorted, duplicate-free and both of the formula's size: where
                    # they first differ, the smaller key is in one set only
                    i = np.flatnonzero(raw_keys != pair_keys)[0]
                    key, only = min((int(raw_keys[i]), "raw"), (int(pair_keys[i]), "pair"))
                    raise ConsistencyError(
                        f"m={m} side={side} stage=raw_vs_pairs: raw-oracle element set "
                        f"({len(raw_keys)} keys) differs from pair oracle ({len(pair_keys)} "
                        f"keys); key {key} ({CanonicalMap.from_key(key, m)}) is only in the "
                        f"{only} oracle"
                    )
                del raw, raw_keys
            del pair_keys
        verified = f"{verify_level}_verified"
    return TableRow(
        m=m,
        p_order=rep.p_order,
        lambda_order=rep.lambda_order,
        t_right=rep.t_right,
        t_left=rep.t_left,
        per_minus2=orbit_profile(-2, m).period,
        per_plus2=orbit_profile(2, m).period,
        iso_gupta=rep.iso_pl == "isomorphic",
        verified=verified,
    )


def _meta_lines(args_label: str) -> list[str]:
    return [f"# generator: commsem {__version__}", f"# command: {args_label}"]


def _record(row: TableRow) -> dict:
    """The row's fields by column name, in column order.  The values are read,
    not copied: dataclasses.asdict would deep-copy every one."""
    return {name: getattr(row, name) for name in CSV_COLUMNS}


def _emit_rows(rows: list[TableRow], fmt: str, meta: bool, args_label: str) -> str:
    if fmt == "csv":
        out = io.StringIO()
        if meta:
            for line in _meta_lines(args_label):
                out.write(line + "\n")
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            rec = _record(row)
            rec["iso_gupta"] = "true" if row.iso_gupta else "false"
            writer.writerow(rec.values())
        return out.getvalue()
    if fmt == "json":
        payload: object = [_record(row) for row in rows]
        if meta:
            payload = {
                "meta": {"generator": f"commsem {__version__}", "command": args_label},
                "rows": payload,
            }
        return json.dumps(payload, indent=2) + "\n"
    header = f"{'m':>5} {'|P|':>8} {'|L|':>8} {'t_r':>4} {'t_l':>4} {'per(-2)':>8} {'per(2)':>7} {'iso':>5} {'verified':>15}"
    lines = _meta_lines(args_label) if meta else []
    lines.append(header)
    for r in rows:
        lines.append(
            f"{r.m:>5} {r.p_order:>8} {r.lambda_order:>8} {r.t_right:>4} {r.t_left:>4} "
            f"{r.per_minus2:>8} {r.per_plus2:>7} {str(r.iso_gupta).lower():>5} {r.verified:>15}"
        )
    return "\n".join(lines) + "\n"


def _side_name(side: str) -> str:
    """P names the right commutation semigroup, L the left."""
    return "P" if side == "right" else "L"


def _cmd_order(args) -> int:
    g = GroupParams.from_modulus(args.m)
    rep = order_report(g)
    sides = SIDES if args.side == "both" else (args.side,)
    if args.format == "json":
        payload = {"m": args.m, "formula": rep.formula_used}
        for side in sides:
            payload["p_order" if side == "right" else "lambda_order"] = rep.order(side)
            payload[f"t_{side}"] = getattr(rep, f"t_{side}")
        print(json.dumps(payload, indent=2))
        return 0
    for side in sides:
        print(f"D_{args.m} |{_side_name(side)}| = {rep.order(side)}  "
              f"(branch {rep.formula_used}, t = {getattr(rep, f't_{side}')})")
    return 0


def _cmd_table(args) -> int:
    if args.start_m < 3:
        raise ParameterError(f"--from must be at least 3, got {args.start_m}")
    if args.start_m > args.end_m:
        raise ParameterError(f"--from {args.start_m} exceeds --to {args.end_m}")
    verify = "" if args.verify is None else f" --verify {args.verify}"
    limit = RAW_MODULUS_LIMIT if args.verify == "raw" else PAIRS_MODULUS_LIMIT
    check_limit(f"table{verify}", "m", args.end_m, limit)
    rows = [
        build_row(m, args.verify or ("pairs" if m <= DEFAULT_PAIRS_VERIFY_LIMIT else "none"))
        for m in range(args.start_m, args.end_m + 1)
    ]
    label = f"table --from {args.start_m} --to {args.end_m}{verify} --format {args.format}"
    sys.stdout.write(_emit_rows(rows, args.format, args.meta, label))
    return 0


def _cmd_decompose(args) -> int:
    g = GroupParams.from_modulus(args.m)
    dec = decompose(args.side, g)  # first: its cap refuses before any work
    sizes = dec.part_sizes()
    rep = order_report(g)  # routes that share no code with the cover
    t, order = getattr(rep, f"t_{args.side}"), rep.order(args.side)
    if len(dec.parts) != t or sum(sizes) != order:
        raise ConsistencyError(
            f"m={args.m} side={args.side} stage=decompose: cover of {len(dec.parts)} parts "
            f"totalling {sum(sizes)}, order routes give t = {t} and order {order}"
        )
    if args.format == "json":
        payload = {
            "m": args.m,
            "side": args.side,
            "t": dec.t,
            "parts": [
                {"scale": part.scale, "stride": part.stride, "size": size}
                for part, size in zip(dec.parts, sizes)
            ],
            "total": sum(sizes),
        }
        print(json.dumps(payload, indent=2))
        return 0
    print(f"{_side_name(args.side)}(D_{args.m}) as {len(dec.parts)} disjoint containers:")
    total = 0
    for part, size in zip(dec.parts, sizes):
        total += size
        print(f"  C({part.scale}, {part.stride})  size {size:>6}  running total {total:>6}")
    print(f"total {total}")
    return 0


def _cmd_central_series(args) -> int:
    g = GroupParams.from_modulus(args.m)
    profile = series_profile(g)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "m": args.m,
                    "orders": list(profile.orders),
                    "stabilization_index": profile.stabilization_index,
                    "nilpotent": profile.nilpotent,
                },
                indent=2,
            )
        )
        return 0
    orders = ", ".join(str(v) for v in profile.orders)
    print(f"centre orders of D_{args.m}: {orders}")
    print(f"stabilizes at position {profile.stabilization_index}; "
          f"nilpotent: {str(profile.nilpotent).lower()}")
    return 0


def _cmd_orbit(args) -> int:
    bases = [args.x] if args.x is not None else [-2, 2]
    records = []
    for x in bases:
        prof = orbit_profile(x, args.m)
        records.append(
            {
                "x": x,
                "residue": x % args.m,
                "index": prof.index,
                "period": prof.period,
                "order": prof.order,
            }
        )
    if args.format == "json":
        print(json.dumps({"m": args.m, "profiles": records}, indent=2))
        return 0
    for rec in records:
        order = rec["order"] if rec["order"] is not None else "-"
        print(
            f"mod {args.m}: x = {rec['x']} (residue {rec['residue']}): "
            f"index {rec['index']}, period {rec['period']}, order {order}"
        )
    return 0


def _cmd_iso(args) -> int:
    if args.budget < 0:
        raise ParameterError(f"--budget must be at least 0, got {args.budget}")
    if args.m2 is None and args.side is not None:
        raise ParameterError("--side needs --m2; P(D_m) vs L(D_m) always compares both sides")
    g1 = GroupParams.from_modulus(args.m)
    if args.m2 is None:
        g2, comparisons = g1, [("right", "left")]
    else:
        g2 = GroupParams.from_modulus(args.m2)
        sides = SIDES if args.side in (None, "both") else (args.side,)
        comparisons = [(side, side) for side in sides]
    inconclusive = False
    for side1, side2 in comparisons:
        result = search_isomorphism(close_pairs(side1, g1), close_pairs(side2, g2), args.budget)
        # the criterion speaks of P(D_m) vs L(D_m) alone; it factors m, so it
        # runs after the search, whose caps refuse a huge m first
        note = ""
        if args.m2 is None:
            note = f"criterion says {'isomorphic' if gupta_criterion(g1) else 'not isomorphic'}, "
        print(f"{_side_name(side1)}(D_{g1.m}) vs {_side_name(side2)}(D_{g2.m}): "
              f"{result.status.value} ({note}{result.nodes} nodes)")
        inconclusive = inconclusive or result.status is IsoStatus.BUDGET_EXHAUSTED
    return 2 if inconclusive else 0


def _claim(label: str, ok: bool, detail: str = "") -> bool:
    tag = "PASS" if ok else "FAIL"
    tail = f"  ({detail})" if detail else ""
    print(f"{tag}  {label}{tail}")
    return ok


def _cmd_verify_claims(_args) -> int:
    ok = True
    g3 = GroupParams.from_modulus(3)
    raw_right = close_raw("right", g3)
    raw_left = close_raw("left", g3)
    ok &= _claim(
        "smallest group: raw closure sizes 6 and 9",
        raw_right.size == 6 and raw_left.size == 9,
        f"got {raw_right.size} and {raw_left.size}",
    )

    g8 = GroupParams.from_modulus(8)
    p8 = close_pairs("right", g8)
    l8 = close_pairs("left", g8)
    rep8 = order_report(g8)
    ok &= _claim(
        "m=8: both orders equal 10",
        p8.size == 10 and l8.size == 10 and rep8.p_order == 10 and rep8.lambda_order == 10,
    )
    ok &= _claim(
        "m=8: the two semigroups differ as sets", not np.array_equal(p8.elements, l8.elements)
    )
    ok &= _claim(
        "m=8: scale tripling is an isomorphism",
        verify_iso_map(p8, l8, 3 * np.arange(8), np.arange(4)),
    )
    right_only = np.isin(p8.elements, l8.elements, invert=True)
    left_only = np.isin(l8.elements, p8.elements, invert=True)
    ok &= _claim(
        "m=8: neither semigroup contains the other",
        bool(right_only.any()) and bool(left_only.any()),
    )

    g15 = GroupParams.from_modulus(15)
    p15 = close_pairs("right", g15)
    l15 = close_pairs("left", g15)
    ok &= _claim("m=15: both orders equal 75", p15.size == 75 and l15.size == 75)
    res15 = search_isomorphism(p15, l15)
    ok &= _claim(
        "m=15: search proves the sides non-isomorphic",
        res15.status is IsoStatus.NOT_ISOMORPHIC and not gupta_criterion(g15),
        f"{res15.nodes} nodes",
    )

    g5 = GroupParams.from_modulus(5)
    g10 = GroupParams.from_modulus(10)
    res_p = search_isomorphism(close_pairs("right", g10), close_pairs("right", g5))
    res_l = search_isomorphism(close_pairs("left", g10), close_pairs("left", g5))
    ok &= _claim(
        "m=10 vs m=5: witnesses found on both sides",
        res_p.status is IsoStatus.ISOMORPHIC and res_l.status is IsoStatus.ISOMORPHIC,
    )

    doubling = all(doubling_preserves_orders(p) for p in range(3, 500) if is_odd_prime(p))
    ok &= _claim("orders agree between p and 2p for every odd prime p < 500", doubling)

    # each prime's left order once: they are pairwise distinct exactly when
    # there are as many orders as primes
    primes = [p for p in range(3, 200) if is_odd_prime(p)]
    left_orders = {order_central_series("left", GroupParams.from_modulus(p)) for p in primes}
    ok &= _claim(
        "left orders pairwise distinct over odd primes below 200",
        len(left_orders) == len(primes),
    )

    if not ok:
        print("verification failed", file=sys.stderr)
        return 2
    return 0


def build_parser() -> _Parser:
    """A fresh parser of every subcommand; main builds one and reuses it."""
    parser = _Parser(prog="commsem", description=__doc__)
    parser.add_argument("--version", action="version", version=f"commsem {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_order = sub.add_parser("order", help="orders of both commutation semigroups")
    p_order.add_argument("--m", type=int, required=True)
    p_order.add_argument("--side", choices=("right", "left", "both"), default="both")
    p_order.add_argument("--format", choices=("text", "json"), default="text")

    p_table = sub.add_parser("table", help="order table over a modulus range")
    p_table.add_argument("--from", dest="start_m", type=int, required=True)
    p_table.add_argument("--to", dest="end_m", type=int, required=True)
    p_table.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p_table.add_argument("--verify", choices=("none", "pairs", "raw"), default=None)
    p_table.add_argument("--meta", action="store_true")

    p_dec = sub.add_parser("decompose", help="disjoint container cover of one side")
    p_dec.add_argument("--m", type=int, required=True)
    p_dec.add_argument("--side", choices=("right", "left"), default="right")
    p_dec.add_argument("--format", choices=("text", "json"), default="text")

    p_cs = sub.add_parser("central-series", help="centre orders up to stabilization")
    p_cs.add_argument("--m", type=int, required=True)
    p_cs.add_argument("--format", choices=("text", "json"), default="text")

    p_orbit = sub.add_parser("orbit", help="index/period/order of -2 and 2 mod m")
    p_orbit.add_argument("--m", type=int, required=True)
    p_orbit.add_argument("--x", type=int, default=None)
    p_orbit.add_argument("--format", choices=("text", "json"), default="text")

    p_iso = sub.add_parser("iso", help="isomorphism search between semigroups")
    p_iso.add_argument("--m", type=int, required=True)
    p_iso.add_argument("--m2", type=int, default=None)
    p_iso.add_argument("--side", choices=("right", "left", "both"), default=None)
    p_iso.add_argument("--budget", type=int, default=DEFAULT_SEARCH_BUDGET)

    sub.add_parser("verify-claims", help="run the counterexample suite")

    return parser


_parser: _Parser | None = None  # built by the first main call


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit status.

    main may be called repeatedly in one process.  The first call builds the
    parser and later calls reuse it, so a call pays only for its own command.
    The parser holds no functions: each call looks up its command's _cmd_*
    function by name when it runs, so a replaced _cmd_* takes effect.  A
    ParameterError or ResourceLimitError exits 1 and a ConsistencyError 2;
    the command's stdout is held until it returns, so a failed command
    prints nothing there.
    """
    global _parser
    if _parser is None:
        _parser = build_parser()
    out = io.StringIO()
    try:
        args = _parser.parse_args(argv)
        with contextlib.redirect_stdout(out):
            status = globals()["_cmd_" + args.command.replace("-", "_")](args)
    except (ParameterError, ResourceLimitError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ConsistencyError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(out.getvalue())
    return status


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
