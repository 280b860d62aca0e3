"""Containers: one-parameter bundles of commutation maps and their calculus.

The container with scale A and stride d holds the maps {(A, y) : y in d*Z_m};
d is always a positive divisor of m (the gcd of the generating shift with m),
which makes container equality O(1).  Containers multiply coordinatewise,
are disjoint as function sets exactly when their scales differ, and the right
and left commutation semigroups decompose into finite disjoint unions of
them: the zero-scale container plus successive powers of the base container
with scale -2 (right side) or 2 (left side).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dihedral import GroupParams, check_side
from .errors import DECOMPOSE_MODULUS_LIMIT, ParameterError, check_limit
from .mumaps import AffineMap, CanonicalMap, shift_modulus


def base_scale(side: str) -> int:
    """Scale of the side's base container: -2 right, 2 left."""
    check_side(side)
    return -2 if side == "right" else 2


@dataclass(frozen=True, slots=True, order=True)
class Container:
    """Canonical container key: scale, stride (a divisor of m), modulus."""

    scale: int
    stride: int
    modulus: int

    def __post_init__(self) -> None:
        if self.modulus < 3:
            raise ParameterError(f"container modulus must be at least 3, got {self.modulus}")
        if not 0 <= self.scale < self.modulus:
            raise ParameterError(f"container scale {self.scale} out of range")
        if self.stride < 1 or self.modulus % self.stride:
            raise ParameterError(
                f"container stride {self.stride} must divide the modulus {self.modulus}"
            )

    @classmethod
    def from_pair(cls, scale: int, shift: int, g: GroupParams) -> "Container":
        """The container generated by the parameter pair (scale, shift)."""
        return cls(scale % g.m, math.gcd(shift % g.m, g.m), g.m)


def container_members(c: Container) -> frozenset[CanonicalMap]:
    """The distinct functions the container holds."""
    return frozenset(
        AffineMap(c.scale, k * c.stride, c.modulus).canonical()
        for k in range(c.modulus // c.stride)
    )


def container_product(c1: Container, c2: Container) -> Container:
    """Elementwise composition set: strides and scales multiply coordinatewise."""
    if c1.modulus != c2.modulus:
        raise ParameterError("cannot multiply containers over different moduli")
    m = c1.modulus
    return Container(c1.scale * c2.scale % m, math.gcd(c1.stride * c2.scale, m), m)


def containers_disjoint(c1: Container, c2: Container) -> bool:
    """Function sets are disjoint exactly when the scales differ; containers
    with equal scales always share the zero-shift map."""
    if c1.modulus != c2.modulus:
        raise ParameterError("cannot compare containers over different moduli")
    return c1.scale != c2.scale


@dataclass(frozen=True, slots=True)
class Decomposition:
    """Pairwise-disjoint container cover of one commutation semigroup.

    parts[0] is the zero-scale container and parts[i] is the i-th power of
    the base container.
    """

    parts: tuple[Container, ...]
    side: str

    @property
    def t(self) -> int:
        """Number of power containers."""
        return len(self.parts) - 1

    def part_sizes(self) -> tuple[int, ...]:
        """Size of each part: C(A, d) holds sm / gcd(d, sm) maps, sm =
        shift_modulus(m), since shifts are kept mod sm."""
        sm = shift_modulus(self.parts[0].modulus)
        return tuple(sm // math.gcd(part.stride, sm) for part in self.parts)

    def member_union(self) -> frozenset[CanonicalMap]:
        out: set[CanonicalMap] = set()
        for part in self.parts:
            out |= container_members(part)
        return frozenset(out)


def decompose(side: str, g: GroupParams) -> Decomposition:
    """Cover the chosen commutation semigroup by disjoint containers: the
    zero-scale container, then the powers of the base container up to the
    first whose scale is already covered, since containers are disjoint
    exactly when their scales differ."""
    check_limit("decomposition", "m", g.m, DECOMPOSE_MODULUS_LIMIT)
    base = base_scale(side) % g.m
    parts = [Container.from_pair(0, 1, g)]
    covered = {0}
    scale_pow, shift_pow = base, 1
    while scale_pow not in covered:
        covered.add(scale_pow)
        parts.append(Container.from_pair(scale_pow, shift_pow, g))
        scale_pow, shift_pow = scale_pow * base % g.m, scale_pow
    return Decomposition(tuple(parts), side)
