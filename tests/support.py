"""Shared exhaustive property checks.

The unit test modules run these at small ranges; the acceptance suite runs
them once more at the full documented ranges.  Each function raises
AssertionError on the first violation.
"""

from __future__ import annotations

import math
import random
from collections import deque
from itertools import product

import numpy as np

from commsem import (
    AffineMap,
    Container,
    GroupParams,
    canonicalized_elements,
    center_members,
    center_order,
    close_pairs,
    commutator,
    conjugate,
    container_members,
    container_product,
    containers_disjoint,
    decompose,
    element_index,
    enumerate_elements,
    function_table,
    inverse,
    iterated_commutator_equiv,
    lambda_map,
    left_normed_commutator,
    multiply,
    mu_map,
    nth_center_bruteforce,
    orbit_profile,
    order_central_series,
    predicted_profile_holds,
    rho_map,
)
from commsem import raw

from commsem.mumaps import CanonicalMap, alpha, beta, shift_modulus
from perm_oracle import perm_commutator, perm_compose, perm_inverse, perm_of


def check_group_axioms(m_values) -> None:
    for m in m_values:
        g = GroupParams.from_modulus(m)
        elems = enumerate_elements(g)
        e = g.identity()
        for x in elems:
            assert multiply(x, e, g) == x == multiply(e, x, g)
            assert multiply(x, inverse(x, g), g) == e
            assert multiply(inverse(x, g), x, g) == e
        for x in elems:
            for y in elems:
                xy = multiply(x, y, g)
                for z in elems:
                    assert multiply(xy, z, g) == multiply(x, multiply(y, z, g), g)


def check_perm_model_agreement(m_values) -> None:
    """Presentation arithmetic agrees with the polygon-symmetry model."""
    for m in m_values:
        g = GroupParams.from_modulus(m)
        elems = enumerate_elements(g)
        perms = {x: perm_of(x) for x in elems}
        assert len(set(perms.values())) == 2 * m
        for x in elems:
            assert perms[inverse(x, g)] == perm_inverse(perms[x])
            for y in elems:
                assert perms[multiply(x, y, g)] == perm_compose(perms[x], perms[y])
                assert perms[commutator(x, y, g)] == perm_commutator(perms[x], perms[y])


def check_commutator_identities(m_values) -> None:
    """The five basic commutator identities, exhaustively."""
    for m in m_values:
        g = GroupParams.from_modulus(m)
        elems = enumerate_elements(g)
        for x in elems:
            for y in elems:
                c = commutator(x, y, g)
                assert conjugate(x, y, g) == multiply(x, c, g)
                assert commutator(y, x, g) == inverse(c, g)
                assert commutator(inverse(x, g), y, g) == conjugate(
                    inverse(c, g), inverse(x, g), g
                )
                for z in elems:
                    xz = commutator(x, z, g)
                    lhs = commutator(multiply(x, y, g), z, g)
                    rhs = multiply(
                        multiply(xz, commutator(xz, y, g), g), commutator(y, z, g), g
                    )
                    assert lhs == rhs
                    xy_ = commutator(x, y, g)
                    lhs = commutator(x, multiply(y, z, g), g)
                    rhs = multiply(
                        multiply(commutator(x, z, g), xy_, g), commutator(xy_, z, g), g
                    )
                    assert lhs == rhs


def check_metabelian_identities(m_values, tails=(1, 2)) -> None:
    """Left-normed commutator identities that hold in metabelian groups.

    The product and inversion variants are quantified over commutator values
    directly: every [x, y] is hit by some pair, so ranging over the value set
    is the same exhaustion with the redundancy removed.
    """
    for m in m_values:
        g = GroupParams.from_modulus(m)
        elems = enumerate_elements(g)
        comm_values = {commutator(x, y, g) for x in elems for y in elems}
        for n in tails:
            for zs in product(elems, repeat=n):
                tail = list(zs)
                for x in elems:
                    for y in elems:
                        lhs = left_normed_commutator(multiply(x, y, g), tail, g)
                        head = conjugate(commutator(x, tail[0], g), y, g)
                        first = (
                            left_normed_commutator(head, tail[1:], g)
                            if len(tail) > 1
                            else head
                        )
                        rhs = multiply(first, left_normed_commutator(y, tail, g), g)
                        assert lhs == rhs
                for w1 in comm_values:
                    t1 = left_normed_commutator(w1, tail, g)
                    assert left_normed_commutator(inverse(w1, g), tail, g) == inverse(
                        t1, g
                    )
                    for w2 in comm_values:
                        lhs = left_normed_commutator(multiply(w1, w2, g), tail, g)
                        rhs = multiply(t1, left_normed_commutator(w2, tail, g), g)
                        assert lhs == rhs


def check_left_normed_closed_form(m_values, max_weight=5, seed=20240801) -> None:
    """[a^i, e_1, ..., e_w] is a^{(-2)^w i} when every entry is a reflection,
    and collapses to the identity as soon as any entry is a rotation."""
    rng = random.Random(seed)
    for m in m_values:
        g = GroupParams.from_modulus(m)
        for w in range(1, max_weight + 1):
            for i in range(m):
                base = g.element(i, 0)
                entries = [g.element(rng.randrange(m), 1) for _ in range(w)]
                expected = g.element(pow(-2, w, m) * i, 0)
                assert left_normed_commutator(base, entries, g) == expected
                for spot in range(w):
                    spoiled = list(entries)
                    spoiled[spot] = g.element(rng.randrange(m), 0)
                    assert left_normed_commutator(base, spoiled, g) == g.identity()


def check_rho_lambda_agreement(m_values) -> None:
    """Parameter forms of the commutation maps match literal commutators."""
    for m in m_values:
        g = GroupParams.from_modulus(m)
        elems = enumerate_elements(g)
        for r in range(m):
            for s in (0, 1):
                other = g.element(r, s)
                rho = rho_map(r, s, g)
                lam = lambda_map(r, s, g)
                for x in elems:
                    right = rho.apply(x)
                    assert right == commutator(x, other, g)
                    left = lam.apply(x)
                    assert left == commutator(other, x, g)
                    assert left == inverse(right, g)


def check_compose_soundness(m_values) -> None:
    """Parameter composition equals function-table composition, all pairs."""
    for m in m_values:
        g = GroupParams.from_modulus(m)
        pairs = [(a, b) for a in range(m) for b in range(m)]
        tables = np.asarray(
            [function_table(AffineMap(a, b, m), g) for a, b in pairs], dtype=np.int32
        )
        scales = np.asarray([a for a, _ in pairs], dtype=np.int64)
        for fi, (a, b) in enumerate(pairs):
            composed = tables[:, tables[fi]]
            rule_index = (a * scales % m) * m + (b * scales % m)
            assert (composed == tables[rule_index]).all()


def check_canonical_quotient(m_values) -> None:
    """Equal canonical forms if and only if equal function tables."""
    for m in m_values:
        g = GroupParams.from_modulus(m)
        by_canonical: dict = {}
        by_table: dict = {}
        for a in range(m):
            for b in range(m):
                f = AffineMap(a, b, m)
                key = f.canonical()
                table = function_table(f, g)
                assert by_canonical.setdefault(key, table) == table
                assert by_table.setdefault(table, key) == key
        distinct = m * (m if m % 2 else m // 2)
        assert len(by_canonical) == distinct <= m * m


def raw_members(scale: int, shift: int, g: GroupParams) -> frozenset:
    """Member set straight from the definition, with no stride shortcut."""
    return frozenset(
        AffineMap(scale, x * shift % g.m, g.m).canonical() for x in range(g.m)
    )


def _divisors(m: int) -> list[int]:
    return [d for d in range(1, m + 1) if m % d == 0]


def check_container_laws(m_values, product_m_values) -> None:
    for m in m_values:
        g = GroupParams.from_modulus(m)
        units = [b for b in range(m) if math.gcd(b, m) == 1]
        for a in range(m):
            for b2 in range(m):
                base = raw_members(a, b2, g)
                assert container_members(Container.from_pair(a, b2, g)) == base
                for b in units:
                    assert raw_members(a, b * b2 % m, g) == base
                for b in range(m):
                    assert raw_members(a, b * b2 % m, g) <= base
        keys = [Container(a, d, m) for a in range(m) for d in _divisors(m)]
        members = {c: container_members(c) for c in keys}
        for c1 in keys:
            for c2 in keys:
                disjoint = containers_disjoint(c1, c2)
                assert disjoint == (not members[c1] & members[c2])
                if not disjoint:
                    zero = AffineMap(c1.scale, 0, m).canonical()
                    assert zero in members[c1] and zero in members[c2]
        zero_container = Container.from_pair(0, 1, g)
        for c in keys:
            for prod in (
                container_product(zero_container, c),
                container_product(c, zero_container),
            ):
                assert container_members(prod) <= members[zero_container]
        rho_set = frozenset(
            rho_map(r, s, g).canonical() for r in range(m) for s in (0, 1)
        )
        lam_set = frozenset(
            lambda_map(r, s, g).canonical() for r in range(m) for s in (0, 1)
        )
        zero_members = members[zero_container]
        rho_rest = container_members(Container.from_pair(-2, 1, g))
        lam_rest = container_members(Container.from_pair(2, 1, g))
        assert rho_set == zero_members | rho_rest
        assert lam_set == zero_members | lam_rest
        if (-2) % m:
            assert not zero_members & rho_rest and not zero_members & lam_rest
    for m in product_m_values:
        g = GroupParams.from_modulus(m)
        keys = [Container(a, d, m) for a in range(m) for d in _divisors(m)]
        members = {c: container_members(c) for c in keys}
        for c1 in keys:
            for c2 in keys:
                expected = frozenset(
                    f.then(h) for f in members[c1] for h in members[c2]
                )
                assert container_members(container_product(c1, c2)) == expected


def check_cover_matches_closure(m_values) -> None:
    """The disjoint container cover reproduces the pair-closure oracle and
    its formula sizes match direct counting."""
    for m in m_values:
        g = GroupParams.from_modulus(m)
        for side in ("right", "left"):
            dec = decompose(side, g)
            summary = close_pairs(side, g)
            assert {e.key for e in dec.member_union()} == set(summary.elements.tolist())
            sizes = dec.part_sizes()
            for part, size in zip(dec.parts, sizes):
                assert len(container_members(part)) == size
            assert sum(sizes) == summary.size == order_central_series(side, g)
            for i, c1 in enumerate(dec.parts):
                for c2 in dec.parts[i + 1 :]:
                    assert containers_disjoint(c1, c2)


def check_center_closed_forms(max_m=40, max_u=6) -> None:
    """Closed-form centres match the definition-based iteration."""
    for m in range(3, max_m + 1):
        g = GroupParams.from_modulus(m)
        elems = enumerate_elements(g)
        n = len(elems)
        comm = [
            [element_index(commutator(x, y, g)) for y in elems] for x in elems
        ]
        current = {element_index(g.identity())}
        for u in range(max_u + 1):
            expected = {element_index(e) for e in center_members(u, g)}
            assert current == expected
            assert center_order(u, g) == len(expected)
            current = {
                xi for xi in range(n) if all(c in current for c in comm[xi])
            }


def check_center_subgroup_properties(m_values, max_u=4) -> None:
    for m in m_values:
        g = GroupParams.from_modulus(m)
        elems = enumerate_elements(g)
        for u in range(max_u + 1):
            zu = nth_center_bruteforce(u, g)
            for x in zu:
                assert inverse(x, g) in zu
                for y in zu:
                    assert multiply(x, y, g) in zu
                for y in elems:
                    assert conjugate(x, y, g) in zu


def check_center_tuple_definition(m_values, max_u=2) -> None:
    """Spot-check the iterative centre against the literal all-tuples form."""
    for m in m_values:
        g = GroupParams.from_modulus(m)
        elems = enumerate_elements(g)
        e = g.identity()
        for u in range(1, max_u + 1):
            direct = frozenset(
                x
                for x in elems
                if all(
                    left_normed_commutator(x, tup, g) == e
                    for tup in product(elems, repeat=u)
                )
            )
            assert direct == nth_center_bruteforce(u, g) == center_members(u, g)


def check_tail_equivalence(m_values, max_u=4) -> None:
    """Identical weight-u commutator tails against all tuples is the same as
    the canonical coset test, for every pair of elements.

    Tails are walked in lockstep; past weight one both components are
    rotations, whose successor pairs collapse to the zero pair plus one
    doubling pair, so the pair sets stay tiny.
    """
    for m in m_values:
        g = GroupParams.from_modulus(m)
        elems = enumerate_elements(g)
        comm_exp = [[commutator(x, z, g).i for z in elems] for x in elems]
        for x1 in range(len(elems)):
            for x2 in range(len(elems)):
                pairs = {(comm_exp[x1][z], comm_exp[x2][z]) for z in range(len(elems))}
                for u in range(1, max_u + 1):
                    if u > 1:
                        pairs = {(0, 0)} | {
                            (-2 * p % m, -2 * q % m) for p, q in pairs
                        }
                    tails_equal = all(p == q for p, q in pairs)
                    expected = iterated_commutator_equiv(elems[x1], elems[x2], u, g)
                    assert tails_equal == expected


def check_coset_equivalence(m_values, max_u=5) -> None:
    """Composites rho(a^x b) then rho(b)^{u-1} coincide exactly when a^{y-x}
    lies in the u-th centre (whenever that centre sits inside the rotations)."""
    for m in m_values:
        g = GroupParams.from_modulus(m)
        rho_b = rho_map(0, 1, g)
        for u in range(1, max_u + 1):
            if g.n == 1 and u >= g.ell:
                continue
            zu = center_members(u, g)
            keys = []
            for x in range(m):
                f = rho_map(x, 1, g)
                for _ in range(u - 1):
                    f = f.then(rho_b)
                keys.append(f.canonical())
            for x in range(m):
                for y in range(m):
                    assert (keys[x] == keys[y]) == (g.element(y - x, 0) in zu)


def check_map_power_identities(m_values, max_u=4) -> None:
    """The u-th power containers' members are exactly the composites of one
    commutation map with u-1 copies of the base reflection map.

    Signs: the right map with rotation exponent -x carries shift +x, while
    the left map with rotation exponent +x carries shift +x; over all x both
    parameterizations sweep the same container.
    """
    for m in m_values:
        g = GroupParams.from_modulus(m)
        rho_b = rho_map(0, 1, g)
        lam_b = lambda_map(0, 1, g)
        for u in range(1, max_u + 1):
            for x in range(m):
                lhs = mu_map(pow(-2, u, m), x * pow(-2, u - 1, m), g).canonical()
                f = rho_map(-x, 1, g)
                for _ in range(u - 1):
                    f = f.then(rho_b)
                assert lhs == f.canonical()
                lhs = mu_map(pow(2, u, m), x * pow(2, u - 1, m), g).canonical()
                f = lambda_map(x, 1, g)
                for _ in range(u - 1):
                    f = f.then(lam_b)
                assert lhs == f.canonical()
                # set-level reading with the mirrored exponent
                lhs = mu_map(pow(2, u, m), -x * pow(2, u - 1, m), g).canonical()
                f = lambda_map(-x, 1, g)
                for _ in range(u - 1):
                    f = f.then(lam_b)
                assert lhs == f.canonical()


def check_orbit_predictions(lo=3, hi=4096) -> None:
    for m in range(lo, hi + 1):
        g = GroupParams.from_modulus(m)
        for x in (-2, 2):
            assert predicted_profile_holds(g, x)
            prof = orbit_profile(x, m)
            powers = []
            value = x % m
            for _ in range(prof.index + prof.period):
                powers.append(value)
                value = value * x % m
            assert len(set(powers)) == prof.index + prof.period - 1
            assert powers[-1] == powers[prof.index - 1]


def check_pairs_match_formula(m_values) -> None:
    for m in m_values:
        g = GroupParams.from_modulus(m)
        for side in ("right", "left"):
            assert close_pairs(side, g).size == order_central_series(side, g)


def check_oracle_agreement(m_values) -> None:
    """Raw-table closure and pair closure agree in size and element set."""
    from commsem import close_raw

    for m in m_values:
        g = GroupParams.from_modulus(m)
        for side in ("right", "left"):
            raw = close_raw(side, g)
            pairs = close_pairs(side, g)
            assert raw.size == pairs.size
            assert np.array_equal(canonicalized_elements(raw), pairs.elements)


def scalar_extend(rows1, rows2, cols1, cols2, phi, used_by, domain, x, w) -> bool:
    """Reference for isomorphism._PartialIso.extend: the per-element worklist the
    isomorphism search once ran.  Maps the unassigned x to w, then pairs each
    newly assigned element with the whole domain, one product at a time,
    assigning every forced image.  phi, used_by (lists) and domain (the list
    of assigned elements) are updated in place, and restored on failure."""
    trail: list[int] = []
    queue: deque = deque()

    def assign(x: int, w: int) -> bool:
        if phi[x] >= 0:
            return phi[x] == w
        if used_by[w] >= 0 or cols1[x] != cols2[w]:
            return False
        phi[x] = w
        used_by[w] = x
        domain.append(x)
        trail.append(x)
        queue.append(x)
        return True

    def propagate() -> bool:
        while queue:
            x = queue.popleft()
            px = phi[x]
            for y in list(domain):
                py = phi[y]
                if not assign(rows1[x][y], rows2[px][py]):
                    return False
                if not assign(rows1[y][x], rows2[py][px]):
                    return False
        return True

    if assign(x, w) and propagate():
        return True
    for z in reversed(trail):
        used_by[phi[z]] = -1
        phi[z] = -1
        domain.pop()
    return False


def reference_close_pairs(side: str, g: GroupParams) -> tuple[int, frozenset]:
    """Reference for closure.close_pairs: the scalar worklist the pair oracle
    once ran, extending every known key by every distinct generator scale
    until nothing new appears.  Returns (generator count, element keys)."""
    m = g.m
    sm = shift_modulus(m)
    sign = -1 if side == "left" else 1
    # keys are written inline as scale * sm + shift_class (CanonicalMap.key)
    gens: set[int] = set()
    for s in (0, 1):
        scale = sign * beta(s) % m
        for r in range(m):
            gens.add(scale * sm + sign * r * alpha(s) % sm)
    scales = {k // sm for k in gens}
    known = set(gens)
    stack = list(gens)
    while stack:
        a1, b1 = divmod(stack.pop(), sm)
        for a2 in scales:
            cand = a1 * a2 % m * sm + b1 * a2 % sm
            if cand not in known:
                known.add(cand)
                stack.append(cand)
    return len(gens), frozenset(known)


def reference_close_tables(gens) -> frozenset[tuple[int, ...]]:
    """Reference for raw._close_tables: every product of one or more of
    the tables gens, by a scalar worklist that composes each known table with
    every generator; (t then g)(x) = g[t[x]]."""
    gens = [tuple(t) for t in np.asarray(gens).tolist()]
    known = set(gens)
    stack = list(known)
    while stack:
        t = stack.pop()
        for gen in gens:
            product = tuple(gen[x] for x in t)
            if product not in known:
                known.add(product)
                stack.append(product)
    return frozenset(known)


def reference_mult_table(keys, m: int) -> np.ndarray:
    """Reference for isomorphism._scale_table: the full n x n int32 table of the
    sorted CanonicalMap keys, one row at a time, as the isomorphism search
    once built it; -1 marks a product outside the keys."""
    sm = shift_modulus(m)
    keys = np.asarray(keys, dtype=np.int64)
    scales, shifts = np.divmod(keys, sm)
    lookup = np.full(m * sm, -1, dtype=np.int32)
    lookup[keys] = np.arange(len(keys))
    table = np.empty((len(keys), len(keys)), dtype=np.int32)
    for i in range(len(keys)):
        table[i] = lookup[(scales[i] * scales % m) * sm + shifts[i] * scales % sm]
    return table


def scalar_monogenic_profile(table: np.ndarray, x: int) -> tuple[int, int]:
    """Index and period of x's powers x, x^2 = table[x, x], x^(k+1) =
    table[x^k, x], walked one power at a time until one repeats."""
    seen: dict[int, int] = {}
    value, e = x, 1
    while value not in seen:
        seen[value] = e
        value = int(table[value, x])
        e += 1
    first = seen[value]
    return first, e - first


def reference_signatures(table: np.ndarray) -> np.ndarray:
    """Reference for isomorphism._initial_signatures on a full n x n table: per
    element, monogenic index, period, and the numbers of distinct entries in
    its row and in its column, counted by marking each (row, entry) and
    (entry, column) pair in a boolean matrix."""
    n = len(table)
    in_row = np.zeros((n, n), dtype=bool)
    in_row[np.arange(n)[:, None], table] = True
    in_column = np.zeros((n, n), dtype=bool)
    in_column[table, np.arange(n)] = True
    profiles = [scalar_monogenic_profile(table, x) for x in range(n)]
    return np.column_stack([profiles, in_row.sum(axis=1), in_column.sum(axis=0)]).astype(np.int64)


def reference_stamp(table: np.ndarray, col: np.ndarray, width: int) -> np.ndarray:
    """Reference for the stamps of isomorphism._stamps on a full n x n table,
    one row per element, in whole arrays: row x is col[x] followed by the
    sorted codes (col[y] * width + col[x*y]) * width + col[y*x] over all y,
    each as often as it occurs (_stamps lists the distinct codes and their
    counts instead, once per row type)."""
    prod = col[table]
    combo = (col * width + prod) * width + prod.T
    combo.sort(axis=1)
    return np.column_stack([col, combo])


def reference_shared_colors(rows1, rows2) -> tuple[np.ndarray, np.ndarray, int]:
    """Reference for isomorphism._shared_colors, one row per element: dense
    colours from one palette in first-occurrence order over the rows of
    both sides, each row interned on its own."""
    palette: dict[bytes, int] = {}
    col1 = [palette.setdefault(row.tobytes(), len(palette)) for row in rows1]
    col2 = [palette.setdefault(row.tobytes(), len(palette)) for row in rows2]
    return np.asarray(col1, dtype=np.int64), np.asarray(col2, dtype=np.int64), len(palette)


def reference_refine_colors(table1: np.ndarray, table2: np.ndarray):
    """Reference for isomorphism._refine_colors on full n x n tables: the
    initial colours from reference_signatures, then rounds of
    reference_stamp rows, each interned per element by
    reference_shared_colors.  Returns every round's (col1, col2, count) and
    the refinement's answer: None once the colour multisets separate, else
    the colours of the last round that split a class."""
    rounds = [reference_shared_colors(reference_signatures(table1), reference_signatures(table2))]
    while True:
        col1, col2, count = rounds[-1]
        if (np.bincount(col1, minlength=count) != np.bincount(col2, minlength=count)).any():
            return rounds, None
        rounds.append(
            reference_shared_colors(
                reference_stamp(table1, col1, count), reference_stamp(table2, col2, count)
            )
        )
        if rounds[-1][2] == count:
            return rounds, (col1, col2)


def reference_preserves_products(perm: np.ndarray, mult1, mult2) -> bool:
    """Reference for isomorphism._preserves_products: whether x -> perm[x]
    carries every product of mult1 to the product in mult2, checked on all
    n^2 pairs (x, y) a block of rows x at a time, as the search's leaf check
    once ran."""
    t1, sig1 = mult1
    t2, sig2 = mult2
    image_cols = sig2[perm]
    step = max(1, raw._CHUNK_BYTES // (4 * len(perm)))  # rows of int32 products
    for lo in range(0, len(perm), step):
        rows = slice(lo, lo + step)
        if not np.array_equal(perm[t1[rows][:, sig1]], t2[perm[rows, None], image_cols]):
            return False
    return True


def reference_verify_iso_map(s1, s2, theta, lam) -> bool:
    """Reference for isomorphism.verify_iso_map: map each element (A, y) of
    s1 to (theta[A], lam[y]) one at a time, require the images to be the
    elements of s2, each once, and compare psi(f then h) with psi(f) then
    psi(h) for all n^2 pairs of elements, composed by CanonicalMap.then."""
    m1, m2 = s1.m, s2.m
    source = [CanonicalMap.from_key(k, m1) for k in s1.elements.tolist()]
    psi = {f: CanonicalMap(int(theta[f.scale]), int(lam[f.shift_class]), m2) for f in source}
    if sorted(h.key for h in psi.values()) != s2.elements.tolist():
        return False
    return all(psi[f.then(h)] == psi[f].then(psi[h]) for f in source for h in source)
