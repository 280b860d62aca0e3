"""Exact arithmetic in the dihedral group of order 2m.

The group is presented as <a, b; a^m = 1, b^2 = 1, b^-1 a b = a^-1> with
m >= 3, and every element is kept in the unique canonical form a^i b^j with
0 <= i < m and j in {0, 1}.  All values are immutable and all operations are
pure functions, so they are safe to share across threads.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError


@dataclass(frozen=True, slots=True)
class GroupParams:
    """Modulus m >= 3 together with its splitting m = 2**ell * n, n odd.

    m is the only constructor argument: ell and n are derived from it by
    halving, so the three cannot disagree.
    """

    m: int
    ell: int = field(init=False)
    n: int = field(init=False)

    def __post_init__(self) -> None:
        if self.m < 3:
            raise ParameterError(f"dihedral modulus must be at least 3, got m={self.m}")
        ell, n = 0, self.m
        while n % 2 == 0:
            n //= 2
            ell += 1
        object.__setattr__(self, "ell", ell)
        object.__setattr__(self, "n", n)

    @classmethod
    def from_modulus(cls, m: int) -> "GroupParams":
        return cls(m)

    def element(self, i: int, j: int) -> "DihedralElement":
        return DihedralElement(i % self.m, j % 2, self.m)

    def identity(self) -> "DihedralElement":
        return DihedralElement(0, 0, self.m)


@dataclass(frozen=True, slots=True, order=True)
class DihedralElement:
    """The element a^i b^j, in canonical form."""

    i: int
    j: int
    m: int

    def __post_init__(self) -> None:
        if not 0 <= self.i < self.m:
            raise ParameterError(f"rotation exponent {self.i} out of range for m={self.m}")
        if self.j not in (0, 1):
            raise ParameterError(f"reflection exponent must be 0 or 1, got {self.j}")

    @property
    def is_rotation(self) -> bool:
        return self.j == 0


def _check_moduli(g: GroupParams, *xs: DihedralElement) -> None:
    for x in xs:
        if x.m != g.m:
            raise ParameterError(
                f"element modulus {x.m} does not match group modulus {g.m}"
            )


def multiply(x: DihedralElement, y: DihedralElement, g: GroupParams) -> DihedralElement:
    """(a^i b^j)(a^r b^s) = a^{i + (-1)^j r} b^{j + s}."""
    _check_moduli(g, x, y)
    i = (x.i + y.i) % g.m if x.j == 0 else (x.i - y.i) % g.m
    return DihedralElement(i, (x.j + y.j) % 2, g.m)


def inverse(x: DihedralElement, g: GroupParams) -> DihedralElement:
    _check_moduli(g, x)
    if x.j == 1:
        return x
    return DihedralElement(-x.i % g.m, 0, g.m)


def conjugate(x: DihedralElement, y: DihedralElement, g: GroupParams) -> DihedralElement:
    """y^-1 x y."""
    return multiply(multiply(inverse(y, g), x, g), y, g)


def commutator(x: DihedralElement, y: DihedralElement, g: GroupParams) -> DihedralElement:
    """[x, y] = x^-1 y^-1 x y.  Always a rotation."""
    return multiply(multiply(inverse(x, g), inverse(y, g), g), multiply(x, y, g), g)


SIDES = ("right", "left")


def check_side(side: str) -> str:
    if side not in SIDES:
        raise ParameterError(f"side must be one of {SIDES}, got {side!r}")
    return side


def left_normed_commutator(
    x: DihedralElement, entries: Iterable[DihedralElement], g: GroupParams
) -> DihedralElement:
    """[x, e_1, e_2, ...], associating leftward: [[x, e_1], e_2], ..."""
    acc = x
    count = 0
    for e in entries:
        acc = commutator(acc, e, g)
        count += 1
    if count == 0:
        raise ParameterError("left-normed commutator needs at least one entry")
    return acc


def enumerate_elements(g: GroupParams) -> tuple[DihedralElement, ...]:
    """All 2m elements: rotations first, exponents ascending within each layer."""
    return tuple(DihedralElement(i, j, g.m) for j in (0, 1) for i in range(g.m))


def element_index(x: DihedralElement) -> int:
    """Position of x in the enumerate_elements order: j*m + i."""
    return x.j * x.m + x.i


def cayley_table(g: GroupParams) -> tuple[np.ndarray, np.ndarray]:
    """The multiplication table and the inverse vector of the whole group, on
    element_index positions: mul[x, y] is the index of xy and inv[x] that of
    x^-1.  The table is four m x m blocks, by the presentation: a^i a^k =
    a^(i+k), a^i a^k b = a^(i+k) b, a^i b a^k = a^(i-k) b and
    a^i b a^k b = a^(i-k); a^i has inverse a^-i, and every reflection is its
    own inverse."""
    m = g.m
    i = np.arange(m)
    plus = (i[:, None] + i) % m
    minus = (i[:, None] - i) % m
    mul = np.block([[plus, plus + m], [minus + m, minus]])
    inv = np.concatenate([-i % m, i + m])
    return mul, inv
