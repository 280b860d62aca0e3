"""Container calculus: member sets, products, disjointness, part sizes,
and the disjoint covers of both commutation semigroups."""

import pytest

from commsem import (
    Container,
    GroupParams,
    ParameterError,
    center_order,
    container_members,
    container_product,
    containers_disjoint,
    decompose,
)
from support import check_container_laws, check_cover_matches_closure


def test_member_counts():
    g8 = GroupParams.from_modulus(8)
    assert len(container_members(Container.from_pair(0, 1, g8))) == 4
    assert len(container_members(Container.from_pair(4, 2, g8))) == 2
    assert len(container_members(Container.from_pair(6, 1, g8))) == 4
    g7 = GroupParams.from_modulus(7)
    assert len(container_members(Container.from_pair(0, 1, g7))) == 7
    g15 = GroupParams.from_modulus(15)
    assert len(container_members(Container.from_pair(-2, 1, g15))) == 15


def test_from_pair_canonicalizes_stride():
    g8 = GroupParams.from_modulus(8)
    assert Container.from_pair(4, 6, g8) == Container(4, 2, 8)
    assert Container.from_pair(4, 0, g8) == Container(4, 8, 8)
    with pytest.raises(ParameterError):
        Container(1, 3, 8)


def test_product_examples():
    g8 = GroupParams.from_modulus(8)
    c = Container.from_pair(6, 1, g8)
    assert container_product(c, c) == Container(4, 2, 8)
    g5 = GroupParams.from_modulus(5)
    left = Container.from_pair(3, 1, g5)
    right = Container.from_pair(3, 3, g5)
    assert container_product(left, right) == Container(4, 1, 5)
    with pytest.raises(ParameterError):
        container_product(c, left)


def test_disjoint_examples():
    g8 = GroupParams.from_modulus(8)
    assert containers_disjoint(Container.from_pair(6, 1, g8), Container.from_pair(2, 1, g8))
    assert not containers_disjoint(Container.from_pair(3, 1, g8), Container.from_pair(3, 2, g8))


def test_decompose_examples():
    g8 = GroupParams.from_modulus(8)
    right = decompose("right", g8)
    assert [(p.scale, p.stride) for p in right.parts] == [(0, 1), (6, 1), (4, 2)]
    assert right.part_sizes() == (4, 4, 2)
    assert sum(right.part_sizes()) == 10
    left = decompose("left", g8)
    assert [(p.scale, p.stride) for p in left.parts] == [(0, 1), (2, 1), (4, 2)]
    assert left.t == 2 and right.t == 2

    g5 = GroupParams.from_modulus(5)
    dec5 = decompose("right", g5)
    assert len(dec5.parts) == 5
    assert dec5.part_sizes() == (5, 5, 5, 5, 5)

    with pytest.raises(ParameterError):
        decompose("up", g8)


def test_part_sizes_are_the_central_series_terms():
    # the paper's per-part claim: part i holds m / |Z_u| maps, u = max(i, 1);
    # part_sizes reads each size off the part's own stride instead
    for m in range(3, 1201):
        g = GroupParams.from_modulus(m)
        for side in ("right", "left"):
            sizes = decompose(side, g).part_sizes()
            assert sizes == tuple(m // center_order(max(i, 1), g) for i in range(len(sizes)))


def test_container_laws_small():
    check_container_laws(range(3, 11), range(3, 9))


def test_cover_matches_closure_full_range():
    check_cover_matches_closure(range(3, 102))
