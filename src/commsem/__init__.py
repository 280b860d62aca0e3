"""Exact computation with the right and left commutation semigroups of
dihedral groups: closed-form orders, disjoint container covers, upper central
series, brute-force closure oracles, and isomorphism search."""

__version__ = "0.1.0"

from .central_series import (
    CentralSeriesProfile,
    center_members,
    center_order,
    iterated_commutator_equiv,
    nth_center_bruteforce,
    series_profile,
)
from .closure import canonicalized_elements, close_pairs
from .containers import (
    Container,
    Decomposition,
    container_members,
    container_product,
    containers_disjoint,
    decompose,
)
from .dihedral import (
    SIDES,
    DihedralElement,
    GroupParams,
    commutator,
    conjugate,
    element_index,
    enumerate_elements,
    inverse,
    left_normed_commutator,
    multiply,
)
from .errors import ConsistencyError, ParameterError, ResourceLimitError
from .isomorphism import IsoSearchResult, IsoStatus, search_isomorphism, verify_iso_map
from .modular import (
    OrbitProfile,
    cancel_congruence,
    first_repeat_exponent,
    is_odd_prime,
    multiplicative_order,
    odd_prime_factors,
    orbit_profile,
    predicted_profile_holds,
)
from .mumaps import (
    AffineMap,
    CanonicalMap,
    function_table,
    lambda_map,
    mu_map,
    rho_map,
)
from .orders import (
    OrderReport,
    doubling_preserves_orders,
    gupta_criterion,
    lambda_orders_equal,
    order_casewise,
    order_central_series,
    order_repeat_exponent,
    order_report,
    series_length,
)
from .raw import SemigroupSummary, close_raw

__all__ = [
    "AffineMap",
    "CanonicalMap",
    "CentralSeriesProfile",
    "ConsistencyError",
    "Container",
    "Decomposition",
    "DihedralElement",
    "GroupParams",
    "IsoSearchResult",
    "IsoStatus",
    "OrbitProfile",
    "OrderReport",
    "ParameterError",
    "ResourceLimitError",
    "SIDES",
    "SemigroupSummary",
    "cancel_congruence",
    "canonicalized_elements",
    "center_members",
    "center_order",
    "close_pairs",
    "close_raw",
    "commutator",
    "conjugate",
    "container_members",
    "container_product",
    "containers_disjoint",
    "decompose",
    "doubling_preserves_orders",
    "element_index",
    "enumerate_elements",
    "first_repeat_exponent",
    "function_table",
    "gupta_criterion",
    "inverse",
    "is_odd_prime",
    "iterated_commutator_equiv",
    "lambda_map",
    "lambda_orders_equal",
    "left_normed_commutator",
    "mu_map",
    "multiplicative_order",
    "multiply",
    "nth_center_bruteforce",
    "odd_prime_factors",
    "orbit_profile",
    "order_casewise",
    "order_central_series",
    "order_repeat_exponent",
    "order_report",
    "predicted_profile_holds",
    "rho_map",
    "search_isomorphism",
    "series_length",
    "series_profile",
    "verify_iso_map",
]
