"""Closed-form orders of the right and left commutation semigroups.

Three independent routes are implemented and must always agree:

* the central-series formula m * (1/|Z_1| + sum_{i=1}^{t-1} 1/|Z_i|), whose
  summation length t comes from the orbit profile of -2 (right) or 2 (left);
* per-case numeric formulas: m*(ord(x)+1) for odd m,
  n*(2**ell + 2**(ell-1) - 2 + period(x)) for even m with odd part n > 1,
  and 2**ell + 2**(ell-1) - 2 for powers of two;
* a reformulation through one literal first-repeat exponent scan, whose
  period gives both the odd and the even case, kept deliberately separate
  from the orbit-profile machinery.

All divisions are exact in integers; a failure to divide exactly means a bug
and raises ConsistencyError.
"""

from __future__ import annotations

from dataclasses import dataclass

from .central_series import center_order
from .containers import base_scale
from .dihedral import SIDES, GroupParams, check_side
from .errors import FORMULA_MODULUS_LIMIT, ConsistencyError, ParameterError, check_limit
from .modular import (
    first_repeat_exponent,
    is_odd_prime,
    multiplicative_order,
    odd_prime_factors,
    orbit_profile,
)


def series_length(side: str, g: GroupParams) -> int:
    """Summation length t of the central-series formula.  The container cover
    of the same side always has exactly t parts (one more power container
    would already repeat)."""
    prof = orbit_profile(base_scale(side), g.m)
    if g.ell == 0:
        return 1 + prof.order
    if g.n > 1:
        return g.ell + prof.period
    return g.ell


def _exact_div(side: str, m: int, z: int) -> int:
    q, r = divmod(m, z)
    if r:
        raise ConsistencyError(
            f"m={m} side={side} stage=order_central_series: centre order {z} does not divide {m}"
        )
    return q


def order_central_series(side: str, g: GroupParams) -> int:
    """Semigroup order via m * (1/|Z_1| + sum_{i=1}^{t-1} 1/|Z_i|).

    The upper central series is constant from the first i with Z_{i+1} =
    Z_i, so the terms from there to t - 1 are summed as one product.
    """
    t = series_length(side, g)
    total = _exact_div(side, g.m, center_order(1, g))
    for i in range(1, t):
        term = _exact_div(side, g.m, center_order(i, g))
        if center_order(i + 1, g) == center_order(i, g):
            return total + (t - i) * term
        total += term
    return total


def order_casewise(side: str, g: GroupParams) -> int:
    """Semigroup order via the per-case numeric formulas."""
    base = base_scale(side)
    if g.ell == 0:
        return g.m * (multiplicative_order(base, g.m) + 1)
    core = (1 << g.ell) + (1 << (g.ell - 1)) - 2
    if g.n > 1:
        return g.n * (core + orbit_profile(base, g.m).period)
    return core


def order_repeat_exponent(side: str, g: GroupParams) -> int:
    """Semigroup order via one literal first-repeat exponent search.

    The period of the base scale mod m is first_repeat_exponent(base, m,
    ell) - ell.  For odd m, ell = 0 and the base is a unit, so the period is
    its order; for powers of two the order does not depend on it.
    """
    period = first_repeat_exponent(base_scale(side), g.m, g.ell) - g.ell
    if g.ell == 0:
        return g.m * (period + 1)
    core = (1 << g.ell) + (1 << (g.ell - 1)) - 2
    if g.n == 1:
        return core
    return g.n * (core + period)


def formula_branch(g: GroupParams) -> str:
    if g.ell == 0:
        return "odd"
    return "even-mixed" if g.n > 1 else "power-of-two"


@dataclass(frozen=True, slots=True)
class OrderReport:
    """Orders of both commutation semigroups plus dispatch diagnostics."""

    m: int
    p_order: int
    lambda_order: int
    t_right: int
    t_left: int
    formula_used: str
    iso_pl: str

    def order(self, side: str) -> int:
        check_side(side)
        return self.p_order if side == "right" else self.lambda_order


def order_report(g: GroupParams) -> OrderReport:
    """Compute both orders through all three routes and cross-check them
    and the m**2 bound.  The printed t needs no check of its own: every
    central-series term is at least 2, so that route grows strictly with t."""
    check_limit("closed-form orders", "m", g.m, FORMULA_MODULUS_LIMIT)
    values: dict[str, int] = {}
    lengths: dict[str, int] = {}
    for side in SIDES:
        a = order_central_series(side, g)
        b = order_casewise(side, g)
        c = order_repeat_exponent(side, g)
        if not a == b == c:
            raise ConsistencyError(
                f"m={g.m} side={side} stage=order_report: order routes disagree: "
                f"central series {a}, casewise {b}, repeat exponent {c}"
            )
        if a > g.m * g.m:
            raise ConsistencyError(
                f"m={g.m} side={side} stage=order_report: order {a} exceeds m**2 = {g.m * g.m}"
            )
        values[side] = a
        lengths[side] = series_length(side, g)
    iso = "isomorphic" if gupta_criterion(g) else "not_isomorphic"
    return OrderReport(
        g.m,
        values["right"],
        values["left"],
        lengths["right"],
        lengths["left"],
        formula_branch(g),
        iso,
    )


def gupta_criterion(g: GroupParams) -> bool:
    """Right and left semigroups are isomorphic exactly when every odd prime
    p dividing m has ord_p(2) divisible by 4 (vacuously true for powers of
    two)."""
    return all(multiplicative_order(2, p) % 4 == 0 for p in odd_prime_factors(g.m))


def doubling_preserves_orders(p: int) -> bool:
    """Whether both semigroup orders agree between modulus p and modulus 2p."""
    if not is_odd_prime(p):
        raise ParameterError(f"need an odd prime, got {p}")
    gp = GroupParams.from_modulus(p)
    g2p = GroupParams.from_modulus(2 * p)
    return all(
        order_central_series(side, gp) == order_central_series(side, g2p)
        for side in SIDES
    )


def lambda_orders_equal(p: int, q: int) -> bool:
    """Whether the left semigroups of moduli p and q have equal orders; for
    odd primes this happens only when p = q."""
    if not (is_odd_prime(p) and is_odd_prime(q)):
        raise ParameterError(f"need odd primes, got {p} and {q}")
    left = order_central_series("left", GroupParams.from_modulus(p))
    right = order_central_series("left", GroupParams.from_modulus(q))
    return left == right
