"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  All equality checks are exact integer comparisons.
"""

import csv
import io
import time
from contextlib import contextmanager

import numpy as np

from commsem import (
    GroupParams,
    IsoStatus,
    canonicalized_elements,
    close_pairs,
    close_raw,
    gupta_criterion,
    is_odd_prime,
    lambda_orders_equal,
    order_casewise,
    order_central_series,
    order_repeat_exponent,
    search_isomorphism,
    verify_iso_map,
    doubling_preserves_orders,
)
from commsem import cli
from reference_orders import REFERENCE_ORDERS
from support import (
    check_center_closed_forms,
    check_commutator_identities,
    check_container_laws,
    check_coset_equivalence,
    check_left_normed_closed_form,
    check_map_power_identities,
    check_metabelian_identities,
    check_orbit_predictions,
    check_tail_equivalence,
)


@contextmanager
def criterion(number: int, label: str, limit_seconds: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({label}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    if limit_seconds is not None:
        assert elapsed < limit_seconds, (
            f"criterion {number} took {elapsed:.2f}s, limit {limit_seconds}s"
        )
    print(f"[acceptance] criterion {number} ({label}): PASS  [{elapsed:.2f}s]")


def test_criterion_1_table_reproduction(capsys):
    with criterion(1, "table 3..101 reproduced with pair verification", 5.0):
        code = cli.main(
            ["table", "--from", "3", "--to", "101", "--verify", "pairs", "--format", "csv"]
        )
        out = capsys.readouterr().out
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 99
        for record in rows:
            m = int(record["m"])
            assert record["verified"] == "pairs_verified"
            expected = REFERENCE_ORDERS[m]
            got = (int(record["p_order"]), int(record["lambda_order"]))
            assert got == expected, f"m={m}: got {got}, expected {expected}"
    with capsys.disabled():
        print("\n[acceptance] criterion 1: all 99 reference rows match exactly")


def test_criterion_2_oracle_independence():
    with criterion(2, "raw and pair oracles agree for m in 3..64", 60.0):
        for m in range(3, 65):
            g = GroupParams.from_modulus(m)
            for side in ("right", "left"):
                raw = close_raw(side, g)
                pairs = close_pairs(side, g)
                assert raw.size == pairs.size, (m, side)
                assert np.array_equal(canonicalized_elements(raw, g), pairs.elements), (m, side)


def test_criterion_3_formula_triple_agreement():
    with criterion(3, "three order routes agree for m in 3..4096", 30.0):
        for m in range(3, 4097):
            g = GroupParams.from_modulus(m)
            for side in ("right", "left"):
                a = order_central_series(side, g)
                b = order_casewise(side, g)
                c = order_repeat_exponent(side, g)
                assert a == b == c, (m, side, a, b, c)


def test_criterion_4_smallest_group_anchor():
    with criterion(4, "anchor values 6 and 9 at m=3 via the raw oracle"):
        g3 = GroupParams.from_modulus(3)
        assert close_raw("right", g3).size == 6
        assert close_raw("left", g3).size == 9


def test_criterion_5_counterexample_suite():
    with criterion(5, "m=8/15 counterexamples and m=10 vs m=5 witnesses", 120.0):
        g8 = GroupParams.from_modulus(8)
        p8 = close_pairs("right", g8)
        l8 = close_pairs("left", g8)
        assert p8.size == 10 and l8.size == 10
        assert not np.array_equal(p8.elements, l8.elements)
        assert verify_iso_map(g8, lambda a, b: (3 * a, b))
        assert np.isin(p8.elements, l8.elements, invert=True).any()
        assert np.isin(l8.elements, p8.elements, invert=True).any()

        g15 = GroupParams.from_modulus(15)
        p15 = close_pairs("right", g15)
        l15 = close_pairs("left", g15)
        assert p15.size == 75 and l15.size == 75
        res = search_isomorphism(p15, l15)
        assert res.status is IsoStatus.NOT_ISOMORPHIC

        g5 = GroupParams.from_modulus(5)
        g10 = GroupParams.from_modulus(10)
        for side in ("right", "left"):
            res = search_isomorphism(close_pairs(side, g10), close_pairs(side, g5))
            assert res.status is IsoStatus.ISOMORPHIC
            witness = res.witness
            assert len(set(witness.values())) == 25
            for f in witness:
                for h in witness:
                    assert witness[f].then(witness[h]) == witness[f.then(h)]


def test_criterion_6_doubling_sweep():
    with criterion(6, "orders agree between p and 2p for odd primes p < 500"):
        for p in range(3, 500, 2):
            if is_odd_prime(p):
                assert doubling_preserves_orders(p), p


def test_criterion_7_left_order_separation():
    with criterion(7, "left orders pairwise distinct over odd primes p < 200"):
        primes = [p for p in range(3, 200) if is_odd_prime(p)]
        for i, p in enumerate(primes):
            for q in primes[i + 1 :]:
                assert not lambda_orders_equal(p, q), (p, q)
        right = [order_central_series("right", GroupParams.from_modulus(p)) for p in primes]
        assert len(set(right)) == len(right)


def test_criterion_8_property_suites():
    with criterion(8, "identity, series, orbit and container property suites"):
        check_commutator_identities(range(3, 9))
        check_metabelian_identities(range(3, 7))
        check_left_normed_closed_form(range(3, 17), max_weight=5)
        check_map_power_identities(range(3, 17), max_u=4)
        check_center_closed_forms(max_m=40, max_u=6)
        check_tail_equivalence(range(3, 25), max_u=4)
        check_coset_equivalence(range(3, 25), max_u=5)
        check_orbit_predictions(3, 4096)
        check_container_laws(range(3, 17), range(3, 13))


def test_criterion_9_iso_criterion_consistency():
    with criterion(9, "criterion verdicts consistent with search for m in 3..101"):
        for m in range(3, 102):
            g = GroupParams.from_modulus(m)
            p_order = order_central_series("right", g)
            if p_order != order_central_series("left", g):
                continue
            iso_claimed = gupta_criterion(g)
            if iso_claimed and p_order <= 200:
                res = search_isomorphism(
                    close_pairs("right", g), close_pairs("left", g), budget=2_000_000
                )
                assert res.status is IsoStatus.ISOMORPHIC, (m, res.status)
            elif not iso_claimed:
                budget = 200_000 if p_order > 200 else 2_000_000
                res = search_isomorphism(
                    close_pairs("right", g), close_pairs("left", g), budget=budget
                )
                assert res.status is not IsoStatus.ISOMORPHIC, (m, res.status)
