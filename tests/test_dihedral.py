"""Group arithmetic: frozen examples, the polygon-symmetry oracle, axioms,
and the commutator identity suites at development ranges."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commsem import (
    DihedralElement,
    GroupParams,
    ParameterError,
    commutator,
    element_index,
    enumerate_elements,
    inverse,
    left_normed_commutator,
    multiply,
)
from commsem.dihedral import cayley_table
from perm_oracle import perm_compose, perm_inverse, perm_of
from support import (
    check_commutator_identities,
    check_group_axioms,
    check_left_normed_closed_form,
    check_metabelian_identities,
    check_perm_model_agreement,
)


def test_params_split():
    g = GroupParams.from_modulus(24)
    assert (g.m, g.ell, g.n) == (24, 3, 3)
    assert (GroupParams(7).ell, GroupParams(7).n) == (0, 7)
    assert (GroupParams(16).ell, GroupParams(16).n) == (4, 1)
    assert GroupParams.from_modulus(16) == GroupParams(16)


@pytest.mark.parametrize("m", [0, 1, 2, -5])
def test_small_moduli_rejected(m):
    with pytest.raises(ParameterError):
        GroupParams.from_modulus(m)


def test_params_split_is_derived():
    # m is the only constructor argument, so no split can disagree with it
    for m in range(3, 4097):
        g = GroupParams(m)
        assert (1 << g.ell) * g.n == m and g.n % 2 == 1
    with pytest.raises(TypeError):
        GroupParams(12, 1, 3)


def test_multiply_examples():
    g = GroupParams.from_modulus(5)
    a = g.element(1, 0)
    b = g.element(0, 1)
    assert multiply(a, a, g) == g.element(2, 0)
    assert multiply(b, a, g) == g.element(4, 1)
    r = g.element(2, 1)
    assert multiply(r, r, g) == g.identity()


def test_multiply_rejects_mixed_moduli():
    g5 = GroupParams.from_modulus(5)
    g7 = GroupParams.from_modulus(7)
    with pytest.raises(ParameterError):
        multiply(g5.element(1, 0), g7.element(1, 0), g5)
    with pytest.raises(ParameterError):
        inverse(g7.element(1, 0), g5)


def test_element_validation():
    with pytest.raises(ParameterError):
        DihedralElement(5, 0, 5)
    with pytest.raises(ParameterError):
        DihedralElement(0, 2, 5)


def test_inverse_examples():
    g = GroupParams.from_modulus(7)
    assert inverse(g.element(3, 0), g) == g.element(4, 0)
    assert inverse(g.element(3, 1), g) == g.element(3, 1)
    assert inverse(g.identity(), g) == g.identity()


def test_commutator_examples():
    g = GroupParams.from_modulus(5)
    assert commutator(g.element(1, 0), g.element(0, 1), g) == g.element(3, 0)
    assert commutator(g.element(1, 0), g.element(2, 0), g) == g.identity()
    g8 = GroupParams.from_modulus(8)
    for x in enumerate_elements(g8):
        for y in enumerate_elements(g8):
            c = commutator(x, y, g8)
            assert c.is_rotation
            # closed form: i*alpha_j*beta_s - r*alpha_s*beta_j
            alpha = (1, -1)
            beta = (0, -2)
            n = x.i * alpha[x.j] * beta[y.j] - y.i * alpha[y.j] * beta[x.j]
            assert c.i == n % 8


def test_left_normed_examples():
    g9 = GroupParams.from_modulus(9)
    b = g9.element(0, 1)
    assert left_normed_commutator(g9.element(1, 0), [b, b], g9) == g9.element(4, 0)
    assert left_normed_commutator(g9.element(1, 0), [g9.element(2, 0)], g9) == g9.identity()
    g12 = GroupParams.from_modulus(12)
    b12 = g12.element(0, 1)
    assert left_normed_commutator(g12.element(1, 0), [b12] * 3, g12) == g12.element(4, 0)
    with pytest.raises(ParameterError):
        left_normed_commutator(g9.element(1, 0), [], g9)


@pytest.mark.parametrize("m,count", [(3, 6), (8, 16), (101, 202)])
def test_enumeration_count(m, count):
    g = GroupParams.from_modulus(m)
    elems = enumerate_elements(g)
    assert len(elems) == count
    assert len(set(elems)) == count
    assert [element_index(x) for x in elems] == list(range(count))


@pytest.mark.parametrize("m", [3, 4, 5, 8, 12, 15, 16, 63, 64])
def test_cayley_table_matches_presentation_and_polygon_model(m):
    g = GroupParams.from_modulus(m)
    elems = enumerate_elements(g)
    mul, inv = cayley_table(g)
    assert mul.shape == (2 * m, 2 * m) and inv.shape == (2 * m,)
    for x in elems:
        ix = element_index(x)
        assert inv[ix] == element_index(inverse(x, g))
        assert perm_of(elems[inv[ix]]) == perm_inverse(perm_of(x))
        for y in elems:
            xy = elems[mul[ix, element_index(y)]]
            assert xy == multiply(x, y, g)
            assert perm_of(xy) == perm_compose(perm_of(x), perm_of(y))


# the largest moduli the raw oracle admits, against the scalar arithmetic
# alone: the polygon model is slow at this size
@pytest.mark.parametrize("m", [127, 128])
def test_cayley_table_matches_presentation_at_the_raw_limit(m):
    g = GroupParams.from_modulus(m)
    elems = enumerate_elements(g)
    mul, inv = cayley_table(g)
    assert inv.tolist() == [element_index(inverse(x, g)) for x in elems]
    assert mul.tolist() == [[element_index(multiply(x, y, g)) for y in elems] for x in elems]


def test_perm_model_agreement_small():
    check_perm_model_agreement(range(3, 13))


def test_group_axioms_exhaustive():
    check_group_axioms(range(3, 13))


@settings(max_examples=200, deadline=None)
@given(
    m=st.integers(min_value=3, max_value=512),
    data=st.tuples(*(st.integers(min_value=0, max_value=10**6) for _ in range(3))),
    js=st.tuples(*(st.integers(min_value=0, max_value=1) for _ in range(3))),
)
def test_group_axioms_random(m, data, js):
    g = GroupParams.from_modulus(m)
    x, y, z = (g.element(i, j) for i, j in zip(data, js))
    assert multiply(multiply(x, y, g), z, g) == multiply(x, multiply(y, z, g), g)
    assert multiply(x, inverse(x, g), g) == g.identity()
    assert multiply(inverse(multiply(x, y, g), g), multiply(x, y, g), g) == g.identity()


def test_commutator_identities_small():
    check_commutator_identities(range(3, 7))


def test_metabelian_identities_small():
    check_metabelian_identities(range(3, 5))


def test_left_normed_closed_form_small():
    check_left_normed_closed_form(range(3, 10), max_weight=4)
