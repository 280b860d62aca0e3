"""Closure oracles and isomorphism search."""

import random

import numpy as np
import pytest

from commsem import (
    CanonicalMap,
    ConsistencyError,
    GroupParams,
    IsoStatus,
    ParameterError,
    ResourceLimitError,
    SemigroupSummary,
    canonicalized_elements,
    close_pairs,
    close_raw,
    commutator,
    container_powers_cover_closure,
    element_index,
    enumerate_elements,
    order_central_series,
    search_isomorphism,
    verify_iso_map,
)
from commsem import closure
from support import check_oracle_agreement, check_pairs_match_formula


def test_raw_anchor_values():
    g3 = GroupParams.from_modulus(3)
    assert close_raw("right", g3).size == 6
    assert close_raw("left", g3).size == 9
    g8 = GroupParams.from_modulus(8)
    right = close_raw("right", g8)
    left = close_raw("left", g8)
    assert right.size == left.size == 10
    assert right.element_set != left.element_set
    assert right.generator_count == 8
    assert right.oracle == "raw_tables"


def test_close_raw_ignores_parameter_calculus(monkeypatch):
    # every name closure imports from the parameter calculus raises; check_side
    # is input validation and stays live
    def refuse(*args, **kwargs):
        raise AssertionError("close_raw touched the parameter calculus")

    calculus = {"commsem.mumaps", "commsem.containers"}
    patched = {
        name
        for name, value in vars(closure).items()
        if getattr(value, "__module__", None) in calculus and name != "check_side"
    }
    assert patched >= {
        "CanonicalMap", "alpha", "beta", "function_table", "shift_modulus",
        "Container", "container_members", "container_product",
    }
    for name in patched:
        monkeypatch.setattr(closure, name, refuse)
    g3 = GroupParams.from_modulus(3)
    assert close_raw("right", g3).size == 6
    assert close_raw("left", g3).size == 9
    for m in (8, 12, 15):
        g = GroupParams.from_modulus(m)
        for side in ("right", "left"):
            assert close_raw(side, g).size == order_central_series(side, g)


def test_generator_tables_match_scalar_commutators():
    for m in range(3, 21):
        g = GroupParams.from_modulus(m)
        elems = enumerate_elements(g)
        scalar = {
            "right": [[element_index(commutator(x, y, g)) for x in elems] for y in elems],
            "left": [[element_index(commutator(y, x, g)) for x in elems] for y in elems],
        }
        for side, tables in scalar.items():
            assert closure._commutator_tables(side, g).tolist() == tables
            distinct = {tuple(t) for t in tables}
            assert close_raw(side, g).generator_count == len(distinct)


def test_close_raw_refuses_fingerprint_collisions(monkeypatch):
    reference = {
        (m, side): close_raw(side, GroupParams.from_modulus(m)).element_set
        for m in (8, 12)
        for side in ("right", "left")
    }
    # constant weights: a fingerprint is the sum of a table, which distinct
    # tables share
    monkeypatch.setattr(closure, "_FINGERPRINT_WEIGHTS", np.ones(256))
    for m, side in reference:
        with pytest.raises(ConsistencyError, match=f"m={m} side={side} stage=close_raw"):
            close_raw(side, GroupParams.from_modulus(m))
    # weak weights: each run either raises or returns the exact closure
    outcomes = set()
    for seed in range(10):
        weights = np.random.default_rng(seed).integers(1, 4, 256).astype(np.float64)
        monkeypatch.setattr(closure, "_FINGERPRINT_WEIGHTS", weights)
        for m, side in reference:
            try:
                got = close_raw(side, GroupParams.from_modulus(m))
            except ConsistencyError as exc:
                assert f"m={m} side={side} stage=close_raw" in str(exc)
                outcomes.add("raised")
            else:
                assert got.element_set == reference[m, side]
                outcomes.add("exact")
    assert outcomes == {"raised", "exact"}


@pytest.mark.parametrize("m", [101, 123, 128])
def test_oracles_agree_heavy_rows(m):
    check_oracle_agreement([m])


def test_canonicalized_elements_names_corrupted_tables():
    g8 = GroupParams.from_modulus(8)
    good = close_raw("right", g8)
    table = np.frombuffer(max(good.element_set), dtype=np.int16)
    odd_shift = table.copy()
    odd_shift[8] = 3  # the image of b is the doubled shift
    off_family = table.copy()
    off_family[3] = (off_family[3] + 1) % 8
    for corrupt, reason in ((odd_shift, "odd doubled shift 3"), (off_family, "outside the map family")):
        summary = SemigroupSummary(8, "right", 1, "raw_tables", frozenset({corrupt.tobytes()}))
        with pytest.raises(ConsistencyError) as excinfo:
            canonicalized_elements(summary, g8)
        message = str(excinfo.value)
        assert message.startswith("m=8 side=right stage=canonicalized_elements: ")
        assert reason in message and str(corrupt.tolist()) in message
    # the family's table of the decoded map is named beside the raw one
    assert str(table.tolist()) in message


def test_raw_bound():
    with pytest.raises(ResourceLimitError):
        close_raw("right", GroupParams.from_modulus(129))


def test_pairs_reference_sizes():
    g15 = GroupParams.from_modulus(15)
    assert close_pairs("right", g15).size == 75
    assert close_pairs("left", g15).size == 75
    g64 = GroupParams.from_modulus(64)
    assert close_pairs("right", g64).size == 94
    assert close_pairs("left", g64).size == 94
    g3 = GroupParams.from_modulus(3)
    assert close_pairs("right", g3).size == 6
    assert close_pairs("left", g3).size == 9
    summary = close_pairs("right", g15)
    assert summary.generator_count == 30
    assert all(isinstance(e, int) for e in summary.element_set)
    assert {CanonicalMap.from_key(e, 15).key for e in summary.element_set} == summary.element_set


def test_oracles_agree_small():
    check_oracle_agreement(range(3, 17))


def test_pairs_match_formula_extended():
    check_pairs_match_formula(list(range(3, 257)))


def test_pairs_match_formula_large_samples():
    # larger moduli with tame closures: powers of two, their triples, smooth
    # odd composites
    check_pairs_match_formula([512, 768, 1024, 1023, 2048, 3072, 4095, 4096])


def test_closure_idempotence_random_pairs():
    rng = random.Random(7)
    for m in (8, 15, 24, 40):
        g = GroupParams.from_modulus(m)
        for side in ("right", "left"):
            universe = close_pairs(side, g).element_set
            elements = [CanonicalMap.from_key(k, m) for k in sorted(universe)]
            for _ in range(1000):
                f = rng.choice(elements)
                h = rng.choice(elements)
                assert f.then(h).key in universe


def test_container_powers_cover():
    for m in (8, 15, 24):
        g = GroupParams.from_modulus(m)
        for side in ("right", "left"):
            assert container_powers_cover_closure(g, side)
    with pytest.raises(ResourceLimitError):
        container_powers_cover_closure(GroupParams.from_modulus(300), "right")


def test_verify_iso_map_examples():
    g8 = GroupParams.from_modulus(8)
    assert verify_iso_map(g8, lambda a, b: (3 * a, b))
    # the identity rule sends some of P(D_8) outside L(D_8)
    assert not verify_iso_map(g8, lambda a, b: (a, b))
    # the two sides of D_5 coincide as sets, so the identity rule works
    g5 = GroupParams.from_modulus(5)
    assert verify_iso_map(g5, lambda a, b: (a, b))
    # swapping shift classes 1 and 2 is a bijection but breaks composition
    assert not verify_iso_map(g5, lambda a, b: (a, {1: 2, 2: 1}.get(b, b)))
    # every image has shift class 0, so the rule is not a bijection
    assert not verify_iso_map(g8, lambda a, b: (3 * a, 0))


def test_search_same_modulus():
    g8 = GroupParams.from_modulus(8)
    res = search_isomorphism(close_pairs("right", g8), close_pairs("left", g8))
    assert res.status is IsoStatus.ISOMORPHIC
    witness = res.witness
    assert len(witness) == 10 and len(set(witness.values())) == 10
    # verify the witness is a homomorphism, independently of the search
    for f in witness:
        for h in witness:
            assert witness[f].then(witness[h]) == witness[f.then(h)]

    g15 = GroupParams.from_modulus(15)
    res15 = search_isomorphism(close_pairs("right", g15), close_pairs("left", g15))
    assert res15.status is IsoStatus.NOT_ISOMORPHIC
    assert res15.witness is None


def test_search_cross_modulus():
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


def test_search_size_mismatch_and_budget():
    g3 = GroupParams.from_modulus(3)
    res = search_isomorphism(close_pairs("right", g3), close_pairs("left", g3))
    assert res.status is IsoStatus.NOT_ISOMORPHIC and res.nodes == 0
    g20 = GroupParams.from_modulus(20)
    res = search_isomorphism(close_pairs("right", g20), close_pairs("left", g20), budget=1)
    assert res.status is IsoStatus.BUDGET_EXHAUSTED
    assert res.witness is None


def test_distinct_counts_match_sets():
    g12 = GroupParams.from_modulus(12)
    for side in ("right", "left"):
        t = closure._mult_table(sorted(close_pairs(side, g12).element_set), 12)
        rows, cols = closure._distinct_counts(t, 1), closure._distinct_counts(t, 0)
        for x in range(t.shape[0]):
            assert rows[x] == len(set(t[x].tolist()))
            assert cols[x] == len(set(t[:, x].tolist()))


def test_mult_table_rejects_unclosed_keys():
    keys = sorted(close_pairs("right", GroupParams.from_modulus(8)).element_set)
    t = closure._mult_table(keys, 8)
    assert t.dtype == "int32"
    # drop a product of two other elements, so that product has no index
    i, j = next((i, j) for i in range(len(keys)) for j in range(len(keys)) if t[i, j] not in (i, j))
    unclosed = [k for k in keys if k != keys[t[i, j]]]
    with pytest.raises(ConsistencyError):
        closure._mult_table(unclosed, 8)


def test_pairs_bound():
    with pytest.raises(ResourceLimitError):
        close_pairs("right", GroupParams.from_modulus(5000))


def test_raw_decode_matches_formula_sizes():
    for m in (5, 8, 12):
        g = GroupParams.from_modulus(m)
        for side in ("right", "left"):
            raw = close_raw(side, g)
            assert raw.size == order_central_series(side, g)
            assert len(canonicalized_elements(raw, g)) == raw.size


def test_raw_tables_decode():
    from commsem import raw_tables

    g = GroupParams.from_modulus(5)
    summary = close_raw("right", g)
    tables = raw_tables(summary)
    assert len(tables) == summary.size
    for table in tables:
        assert len(table) == 10
        assert all(0 <= v < 5 for v in table)  # images stay in the rotations
    with pytest.raises(ParameterError):
        raw_tables(close_pairs("right", g))
