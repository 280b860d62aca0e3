"""The two-parameter family of self-maps of the dihedral group that carries
every commutation map.

A map with parameters (scale, shift) sends a^i b^j to the rotation a^N with
N = scale*i*alpha_j - shift*beta_j, where alpha_j = (-1)^j and
beta_j = (-1)^j - 1.  Concretely: rotations a^i go to a^{scale*i} and
reflections a^i b go to a^{2*shift - scale*i}.  The family is closed under
composition, and composing "f then h" multiplies both parameters of f by the
scale of h.  Right commutation maps x -> [x, g] and left commutation maps
x -> [g, x] are exactly the members with scale 0 or -+2.

Two parameter pairs denote the same function exactly when the scales agree
mod m and the shifts agree mod m (m odd) or mod m/2 (m even), since the shift
only ever enters images doubled; CanonicalMap is that quotient, giving O(1)
functional equality.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dihedral import DihedralElement, GroupParams
from .errors import ParameterError


def alpha(j: int) -> int:
    """(-1)**j."""
    return 1 if j % 2 == 0 else -1


def beta(j: int) -> int:
    """(-1)**j - 1."""
    return 0 if j % 2 == 0 else -2


def shift_modulus(m: int) -> int:
    """Modulus of the shift class: m for odd m, m/2 for even m."""
    return m if m % 2 else m // 2


@dataclass(frozen=True, slots=True, order=True)
class AffineMap:
    """One member of the family, with parameters reduced mod the modulus."""

    scale: int
    shift: int
    modulus: int

    def __post_init__(self) -> None:
        if self.modulus < 3:
            raise ParameterError(f"map modulus must be at least 3, got {self.modulus}")
        object.__setattr__(self, "scale", self.scale % self.modulus)
        object.__setattr__(self, "shift", self.shift % self.modulus)

    def apply(self, x: DihedralElement) -> DihedralElement:
        if x.m != self.modulus:
            raise ParameterError(
                f"element modulus {x.m} does not match map modulus {self.modulus}"
            )
        if x.j == 0:
            n = self.scale * x.i % self.modulus
        else:
            n = (2 * self.shift - self.scale * x.i) % self.modulus
        return DihedralElement(n, 0, self.modulus)

    def then(self, other: "AffineMap") -> "AffineMap":
        """Composite "apply self, then other"."""
        if other.modulus != self.modulus:
            raise ParameterError("cannot compose maps over different moduli")
        m = self.modulus
        return AffineMap(self.scale * other.scale % m, self.shift * other.scale % m, m)

    def canonical(self) -> "CanonicalMap":
        return CanonicalMap(
            self.scale, self.shift % shift_modulus(self.modulus), self.modulus
        )


@dataclass(frozen=True, slots=True, order=True)
class CanonicalMap:
    """Functional-equality class of an AffineMap.

    Equal canonical forms if and only if equal function tables; composition
    descends to the quotient because the shift class is only ever multiplied
    by a scale.
    """

    scale: int
    shift_class: int
    modulus: int

    def __post_init__(self) -> None:
        if self.modulus < 3:
            raise ParameterError(f"map modulus must be at least 3, got {self.modulus}")
        object.__setattr__(self, "scale", self.scale % self.modulus)
        object.__setattr__(
            self, "shift_class", self.shift_class % shift_modulus(self.modulus)
        )

    @property
    def shift_modulus(self) -> int:
        return shift_modulus(self.modulus)

    @property
    def key(self) -> int:
        """One int per class; keys of one modulus sort exactly as the maps do."""
        return self.scale * self.shift_modulus + self.shift_class

    @classmethod
    def from_key(cls, key: int, m: int) -> "CanonicalMap":
        return cls(*divmod(key, shift_modulus(m)), m)

    def then(self, other: "CanonicalMap") -> "CanonicalMap":
        if other.modulus != self.modulus:
            raise ParameterError("cannot compose maps over different moduli")
        return CanonicalMap(
            self.scale * other.scale % self.modulus,
            self.shift_class * other.scale % self.shift_modulus,
            self.modulus,
        )

    def as_map(self) -> AffineMap:
        """A representative with the smallest nonnegative parameters."""
        return AffineMap(self.scale, self.shift_class, self.modulus)


def mu_map(scale: int, shift: int, g: GroupParams) -> AffineMap:
    return AffineMap(scale % g.m, shift % g.m, g.m)


def rho_map(r: int, s: int, g: GroupParams) -> AffineMap:
    """The right commutation map x -> [x, a^r b^s], in parameter form."""
    return mu_map(beta(s), r * alpha(s), g)


def lambda_map(r: int, s: int, g: GroupParams) -> AffineMap:
    """The left commutation map x -> [a^r b^s, x], in parameter form."""
    return mu_map(-beta(s), -r * alpha(s), g)


def function_table(f: AffineMap, g: GroupParams) -> tuple[int, ...]:
    """Images of all 2m elements, as indices in enumeration order."""
    if f.modulus != g.m:
        raise ParameterError("map modulus does not match group modulus")
    m = g.m
    rotations = [f.scale * i % m for i in range(m)]
    reflections = [(2 * f.shift - f.scale * i) % m for i in range(m)]
    return tuple(rotations + reflections)
