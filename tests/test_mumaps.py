"""Parameter-map calculus: application, identification of commutation maps,
composition, and the functional-equality quotient."""

import pytest

from commsem import (
    AffineMap,
    CanonicalMap,
    GroupParams,
    ParameterError,
    function_table,
    lambda_map,
    mu_map,
    rho_map,
)
from commsem.mumaps import shift_modulus
from support import (
    check_canonical_quotient,
    check_compose_soundness,
    check_rho_lambda_agreement,
)


def test_apply_examples():
    g5 = GroupParams.from_modulus(5)
    zero = mu_map(0, 0, g5)
    for i in range(5):
        for j in (0, 1):
            assert zero.apply(g5.element(i, j)) == g5.identity()
    assert mu_map(3, 2, g5).apply(g5.element(1, 1)) == g5.element(1, 0)
    g8 = GroupParams.from_modulus(8)
    assert mu_map(6, 1, g8).apply(g8.element(1, 0)) == g8.element(6, 0)


def test_apply_rejects_modulus_mismatch():
    g5 = GroupParams.from_modulus(5)
    g7 = GroupParams.from_modulus(7)
    with pytest.raises(ParameterError):
        mu_map(1, 0, g5).apply(g7.element(1, 0))
    with pytest.raises(ParameterError):
        mu_map(1, 0, g5).then(mu_map(1, 0, g7))


def test_rho_lambda_examples():
    g = GroupParams.from_modulus(7)
    assert rho_map(0, 0, g) == mu_map(0, 0, g)
    assert rho_map(0, 1, g) == mu_map(5, 0, g)
    assert rho_map(2, 1, g) == mu_map(5, 5, g)
    assert lambda_map(0, 0, g) == mu_map(0, 0, g)
    assert lambda_map(0, 1, g) == mu_map(2, 0, g)
    assert lambda_map(2, 1, g) == mu_map(2, 2, g)


def test_compose_examples():
    g8 = GroupParams.from_modulus(8)
    f = mu_map(6, 1, g8)
    assert f.then(f) == mu_map(4, 6, g8)
    g5 = GroupParams.from_modulus(5)
    assert mu_map(0, 2, g5).then(mu_map(3, 1, g5)) == mu_map(0, 1, g5)
    for a in range(5):
        for b in range(5):
            assert mu_map(1, 0, g5).then(mu_map(a, b, g5)) == mu_map(a, 0, g5)
            assert mu_map(a, b, g5).then(mu_map(1, 0, g5)) == mu_map(a, b, g5)


def test_canonicalize_examples():
    g8 = GroupParams.from_modulus(8)
    assert mu_map(4, 2, g8).canonical() == mu_map(4, 6, g8).canonical()
    assert mu_map(4, 2, g8).canonical() != mu_map(5, 2, g8).canonical()
    assert function_table(mu_map(4, 2, g8), g8) == function_table(mu_map(4, 6, g8), g8)
    g7 = GroupParams.from_modulus(7)
    assert mu_map(3, 2, g7).canonical() != mu_map(3, 5, g7).canonical()
    t1 = function_table(mu_map(3, 2, g7), g7)
    t2 = function_table(mu_map(3, 5, g7), g7)
    assert t1 != t2 and t1[7] != t2[7]  # tables differ at the bare reflection


def test_canonical_composition_descends():
    for m in range(3, 13):
        g = GroupParams.from_modulus(m)
        for a in range(m):
            for b in range(m):
                f = mu_map(a, b, g)
                for a2 in range(m):
                    h = mu_map(a2, (a + b) % m, g)
                    assert f.then(h).canonical() == f.canonical().then(h.canonical())


def test_canonical_map_normalizes():
    c = CanonicalMap(10, 9, 8)
    assert (c.scale, c.shift_class, c.shift_modulus) == (2, 1, 4)
    assert c.as_map() == AffineMap(2, 1, 8)


def test_canonical_map_key_codec():
    for m in (7, 8, 12, 15):
        sm = shift_modulus(m)
        maps = [CanonicalMap(a, b, m) for a in range(m) for b in range(sm)]
        keys = [c.key for c in maps]
        assert all(CanonicalMap.from_key(c.key, m) == c for c in maps)
        assert len(set(keys)) == len(maps)
        assert all(k in range(m * sm) for k in keys)
        assert [c.key for c in sorted(maps)] == sorted(keys)


def test_rho_lambda_agreement_full():
    check_rho_lambda_agreement(range(3, 17))


def test_compose_soundness_full():
    check_compose_soundness(range(3, 13))


def test_canonical_quotient_full():
    check_canonical_quotient(range(3, 17))
