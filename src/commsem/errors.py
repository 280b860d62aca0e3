"""Exception types shared across the package, every resource cap, and its one check."""

PAIRS_MODULUS_LIMIT = 4096  # close_pairs: its int32 shift products < m * shift_modulus(m) <= 2**24
RAW_MODULUS_LIMIT = 128  # canonicalized_elements: its uint8 sums cannot wrap while 2m <= 256
DEFAULT_PAIRS_VERIFY_LIMIT = 512  # table with no --verify checks rows m <= this by pair closure
ISO_ELEMENT_LIMIT = 4096  # search_isomorphism: its int32 table has n x s <= n**2 <= 2**24 entries
DEFAULT_SEARCH_BUDGET = 10_000_000  # search nodes: n bounds all of a search but its backtracking
FORMULA_MODULUS_LIMIT = 1 << 20  # orbit_profile's walk: bounds time, 0.5 s and 30 MB near 2**20
DECOMPOSE_MODULUS_LIMIT = 1 << 17  # decompose --format json: 175 MB near 2**17 (59 MB as text)
# nth_center_bruteforce: u rounds over all (2m)**2 commutators, in Python
BRUTE_FORCE_MAX_M, BRUTE_FORCE_MAX_U = 64, 8
# iterated_commutator_equiv: the tests read it exhaustively, over (2m)**u tuples
EQUIV_MAX_M, EQUIV_MAX_U = 24, 4


class ParameterError(ValueError):
    """Arguments violate a documented precondition."""


class ResourceLimitError(RuntimeError):
    """A computation would exceed its documented size bound."""


class ConsistencyError(RuntimeError):
    """Two internal computation paths disagree.  Never expected."""


def check_limit(what: str, name: str, value: int, limit: int) -> None:
    """Refuse what above its cap: raise ResourceLimitError naming both numbers."""
    if value > limit:
        raise ResourceLimitError(f"{what} limited to {name} <= {limit}, got {name}={value}")
