"""Upper central series of the dihedral group: closed forms and a
definition-based brute-force oracle.

Z_0 = {1} and Z_{u+1} = {g : [g, x] in Z_u for all x}.  For odd m every term
is trivial; for m = 2**ell * n with n > 1 odd the terms are the rotation
subgroups of orders 2**min(u, ell); for m = 2**ell the series climbs through
rotation subgroups of order 2**u and reaches the whole group at u = ell, so
exactly the dihedral 2-groups are nilpotent.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dihedral import (
    DihedralElement,
    GroupParams,
    commutator,
    enumerate_elements,
    inverse,
    multiply,
)
from .errors import (
    BRUTE_FORCE_MAX_M, BRUTE_FORCE_MAX_U, EQUIV_MAX_M, EQUIV_MAX_U, ParameterError, check_limit
)


def center_order(u: int, g: GroupParams) -> int:
    """Order of the u-th centre."""
    if u < 0:
        raise ParameterError(f"central series position must be nonnegative, got {u}")
    if g.n > 1:
        return 1 << min(u, g.ell)
    return (1 << u) if u < g.ell else 2 * g.m


def center_members(u: int, g: GroupParams) -> frozenset[DihedralElement]:
    """Explicit element set of the u-th centre."""
    if u < 0:
        raise ParameterError(f"central series position must be nonnegative, got {u}")
    m = g.m
    if u < g.ell:
        step = (1 << (g.ell - u)) * g.n
        return frozenset(DihedralElement(step * x % m, 0, m) for x in range(1 << u))
    if g.n > 1:
        return frozenset(DihedralElement(g.n * x % m, 0, m) for x in range(1 << g.ell))
    return frozenset(enumerate_elements(g))


@dataclass(frozen=True, slots=True)
class CentralSeriesProfile:
    """Centre orders up to stabilization, plus the nilpotency verdict."""

    orders: tuple[int, ...]
    stabilization_index: int
    nilpotent: bool


def series_profile(g: GroupParams) -> CentralSeriesProfile:
    orders = tuple(center_order(u, g) for u in range(g.ell + 1))
    return CentralSeriesProfile(orders, g.ell, g.n == 1)


def nth_center_bruteforce(u: int, g: GroupParams) -> frozenset[DihedralElement]:
    """Compute Z_u straight from the definition, iterating
    Z_{k+1} = {x : [x, y] in Z_k for all y} from Z_0 = {1}."""
    if u < 0:
        raise ParameterError(f"central series position must be nonnegative, got {u}")
    check_limit("brute-force centre", "m", g.m, BRUTE_FORCE_MAX_M)
    check_limit("brute-force centre", "u", u, BRUTE_FORCE_MAX_U)
    elems = enumerate_elements(g)
    zu: frozenset[DihedralElement] = frozenset({g.identity()})
    for _ in range(u):
        nxt = frozenset(
            x for x in elems if all(commutator(x, y, g) in zu for y in elems)
        )
        if nxt == zu:
            break
        zu = nxt
    return zu


def iterated_commutator_equiv(
    g1: DihedralElement, g2: DihedralElement, u: int, g: GroupParams
) -> bool:
    """Whether g1 and g2 have identical weight-u iterated commutators against
    every tuple of group elements.  Equivalent to g1^-1 g2 lying in Z_u; the
    tuple-exhaustive reading is checked separately by the test suite.
    """
    if u < 1:
        raise ParameterError(f"need a positive weight, got {u}")
    check_limit("equivalence check", "m", g.m, EQUIV_MAX_M)
    check_limit("equivalence check", "u", u, EQUIV_MAX_U)
    return multiply(inverse(g1, g), g2, g) in center_members(u, g)
