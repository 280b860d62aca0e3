"""Index, period and order of residues under multiplication mod m.

The powers x, x^2, x^3, ... of a residue eventually repeat; the index is the
least exponent c with x^c = x^{c+k} for some k >= 1 and the period is the
least such k.  Invertible residues have index 1 and their period is the
multiplicative order.  Everything here is computed by direct iteration; the
periods of -2 and 2, which drive the semigroup orders, have no known closed
form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .dihedral import GroupParams
from .errors import FORMULA_MODULUS_LIMIT, ParameterError, check_limit


@dataclass(frozen=True, slots=True)
class OrbitProfile:
    """First-repeat data of the power sequence of x in Z_m."""

    x: int
    modulus: int
    index: int
    period: int
    order: int | None


def orbit_profile(x: int, m: int) -> OrbitProfile:
    """Index, period and (when invertible) order of x mod m, by iteration."""
    if m < 2:
        raise ParameterError(f"modulus must be at least 2, got {m}")
    check_limit("orbit profile", "m", m, FORMULA_MODULUS_LIMIT)
    return _orbit_profile(x % m, m)


@lru_cache(maxsize=None)
def _orbit_profile(x: int, m: int) -> OrbitProfile:
    # m = shared * unit, unit the largest divisor of m prime to x: mod shared
    # the powers of x fall to 0 and stay there, mod unit they cycle from x^0
    unit = m
    while (d := math.gcd(x, unit)) > 1:
        unit //= d
    shared = m // unit
    index, value = 1, x % shared
    while value:
        value = value * x % shared
        index += 1
    period, value = 1, x % unit
    while value != 1 % unit:
        value = value * x % unit
        period += 1
    order = period if shared == 1 else None
    return OrbitProfile(x, m, index, period, order)


def multiplicative_order(x: int, m: int) -> int:
    prof = orbit_profile(x, m)
    if prof.order is None:
        raise ParameterError(f"{x} is not invertible mod {m}")
    return prof.order


def predicted_profile_holds(g: GroupParams, x: int) -> bool:
    """Check the orbit profile of x in {-2, 2} against the shape forced by m.

    Splitting m = 2**ell * n with n odd: for odd m the index is 1 and the
    period equals the order; for even m the index is ell, and when m is a
    power of two the period is 1.
    """
    if x % g.m not in (2 % g.m, -2 % g.m):
        raise ParameterError(f"profile prediction only covers -2 and 2, got {x}")
    prof = orbit_profile(x, g.m)
    if g.ell == 0:
        return prof.index == 1 and prof.order is not None and prof.period == prof.order
    if g.n > 1:
        return prof.index == g.ell
    return prof.index == g.ell and prof.period == 1


def cancel_congruence(x: int, u: int, v: int, y: int) -> bool:
    """Whether x*u = x*v (mod x*y).  Equivalent to u = v (mod y)."""
    if x < 1 or y < 1:
        raise ParameterError("cancellation law needs positive x and y")
    return (x * u - x * v) % (x * y) == 0


def first_repeat_exponent(x: int, m: int, ell: int) -> int:
    """Least i > ell with x^i = x^ell (mod m), found by literal scanning."""
    x %= m
    target = pow(x, ell, m)
    value = target
    for i in range(ell + 1, ell + 2 * m + 2):
        value = value * x % m
        if value == target:
            return i
    raise ParameterError(f"power sequence of {x} mod {m} never returns to exponent {ell}")


def is_odd_prime(p: int) -> bool:
    return p >= 3 and p % 2 == 1 and odd_prime_factors(p) == (p,)


def odd_prime_factors(n: int) -> tuple[int, ...]:
    """Distinct odd prime divisors of n, ascending."""
    if n < 1:
        raise ParameterError(f"need a positive integer, got {n}")
    while n % 2 == 0:
        n //= 2
    out = []
    f = 3
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 2
    if n > 1:
        out.append(n)
    return tuple(out)
