"""Order formulas: frozen examples, the reference corpus, route agreement,
doubling, separation, and the isomorphism criterion."""

import pytest

from commsem import (
    GroupParams,
    ParameterError,
    decompose,
    doubling_preserves_orders,
    gupta_criterion,
    is_odd_prime,
    lambda_orders_equal,
    order_casewise,
    order_central_series,
    order_repeat_exponent,
    order_report,
    series_length,
)
from reference_orders import REFERENCE_ORDERS


@pytest.mark.parametrize(
    "m,p_order,lambda_order",
    [(3, 6, 9), (7, 49, 28), (16, 22, 22), (24, 33, 36), (36, 63, 90), (101, 10201, 10201)],
)
def test_order_examples(m, p_order, lambda_order):
    g = GroupParams.from_modulus(m)
    assert order_central_series("right", g) == p_order
    assert order_central_series("left", g) == lambda_order
    assert order_casewise("right", g) == p_order
    assert order_casewise("left", g) == lambda_order
    assert order_repeat_exponent("right", g) == p_order
    assert order_repeat_exponent("left", g) == lambda_order


def test_left_order_example_m9():
    assert order_central_series("left", GroupParams.from_modulus(9)) == 63


def test_reference_corpus_via_formulas():
    for m, (p_order, lambda_order) in REFERENCE_ORDERS.items():
        rep = order_report(GroupParams.from_modulus(m))
        assert (rep.p_order, rep.lambda_order) == (p_order, lambda_order), m


def test_routes_agree_medium_range():
    for m in range(3, 600):
        g = GroupParams.from_modulus(m)
        for side in ("right", "left"):
            a = order_central_series(side, g)
            assert a == order_casewise(side, g) == order_repeat_exponent(side, g)
            assert a <= m * m


def test_report_fields():
    rep = order_report(GroupParams.from_modulus(36))
    assert rep.m == 36
    assert rep.formula_used == "even-mixed"
    assert rep.t_right == series_length("right", GroupParams.from_modulus(36))
    assert rep.iso_pl == "not_isomorphic"
    assert rep.order("right") == 63 and rep.order("left") == 90
    assert order_report(GroupParams.from_modulus(7)).formula_used == "odd"
    assert order_report(GroupParams.from_modulus(16)).formula_used == "power-of-two"
    assert order_report(GroupParams.from_modulus(16)).iso_pl == "isomorphic"


def test_doubling_examples():
    assert doubling_preserves_orders(5)
    assert doubling_preserves_orders(7)
    assert doubling_preserves_orders(47)
    with pytest.raises(ParameterError):
        doubling_preserves_orders(9)
    with pytest.raises(ParameterError):
        doubling_preserves_orders(2)


def test_gupta_criterion_examples():
    assert not gupta_criterion(GroupParams.from_modulus(15))
    assert gupta_criterion(GroupParams.from_modulus(5))
    assert gupta_criterion(GroupParams.from_modulus(16))
    assert gupta_criterion(GroupParams.from_modulus(10))


def test_lambda_order_separation_examples():
    assert lambda_orders_equal(7, 7)
    assert not lambda_orders_equal(3, 5)
    assert not lambda_orders_equal(5, 7)
    with pytest.raises(ParameterError):
        lambda_orders_equal(4, 5)


def test_lambda_and_p_orders_distinct_small_primes():
    primes = [p for p in range(3, 100) if is_odd_prime(p)]
    for name in ("left", "right"):
        values = [order_central_series(name, GroupParams.from_modulus(p)) for p in primes]
        assert len(set(values)) == len(values)


def test_cover_length_matches_formula_dispatch():
    for m in list(range(3, 1025)) + [2048, 3072, 4095, 4096]:
        g = GroupParams.from_modulus(m)
        for side in ("right", "left"):
            assert len(decompose(side, g).parts) == series_length(side, g)
