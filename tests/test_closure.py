"""Closure oracles and isomorphism search."""

import ast
import itertools
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commsem import (
    CanonicalMap,
    ConsistencyError,
    GroupParams,
    IsoSearchResult,
    IsoStatus,
    ResourceLimitError,
    SemigroupSummary,
    canonicalized_elements,
    close_pairs,
    close_raw,
    commutator,
    element_index,
    enumerate_elements,
    gupta_criterion,
    order_central_series,
    search_isomorphism,
    verify_iso_map,
)
from commsem import central_series, closure, containers, isomorphism, modular, mumaps, orders, raw
from support import (
    check_oracle_agreement,
    check_pairs_match_formula,
    reference_close_pairs,
    reference_close_tables,
    reference_greedy_generators,
    reference_mult_table,
    reference_signatures,
    reference_preserves_products,
    reference_refine_colors,
    reference_shared_colors,
    reference_stamp,
    scalar_extend,
    scalar_monogenic_profile,
)


def test_raw_anchor_values():
    g3 = GroupParams.from_modulus(3)
    assert close_raw("right", g3).size == 6
    assert close_raw("left", g3).size == 9
    g8 = GroupParams.from_modulus(8)
    right = close_raw("right", g8)
    left = close_raw("left", g8)
    assert right.size == left.size == 10
    assert not np.array_equal(right.elements, left.elements)
    assert right.generator_count == 8
    assert right.oracle == "raw_tables"
    for m in (3, 5, 8):
        for side in ("right", "left"):
            summary = close_raw(side, GroupParams.from_modulus(m))
            # one image table per element, and every image is a rotation
            assert summary.elements.shape == (summary.size, 2 * m)
            assert 0 <= summary.elements.min() and summary.elements.max() < m


def _package_imports(module) -> set[str]:
    """The commsem modules that a module's source imports from."""
    tree = ast.parse(Path(module.__file__).read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            found |= {node.module} if node.module else {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("commsem."):
            found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found |= {a.name.split(".")[1] for a in node.names if a.name.startswith("commsem.")}
    return found


def test_oracles_are_independent_by_import():
    # the raw oracle sees only the group; the pair oracle none of the formula routes
    assert _package_imports(raw) == {"dihedral", "errors"}
    assert not _package_imports(closure) & {"containers", "orders", "modular", "central_series"}


def _refuse_module_callables(monkeypatch, modules, message):
    """Make every function and class defined in the modules raise when called."""

    def refuse(*args, **kwargs):
        raise AssertionError(message)

    patched = set()
    for module in modules:
        for name, value in list(vars(module).items()):
            if callable(value) and getattr(value, "__module__", None) == module.__name__:
                monkeypatch.setattr(module, name, refuse)
                patched.add(name)
    return patched


def test_close_raw_ignores_parameter_calculus(monkeypatch):
    # every function and class of the parameter calculus and the formula
    # routes raises; the expected orders are computed before they do
    expected = {
        (m, side): order_central_series(side, GroupParams.from_modulus(m))
        for m in (3, 8, 12, 15)
        for side in ("right", "left")
    }
    assert expected[3, "right"] == 6 and expected[3, "left"] == 9
    calculus = (mumaps, containers, orders, modular, central_series)
    patched = _refuse_module_callables(
        monkeypatch, calculus, "close_raw touched the parameter calculus"
    )
    assert patched >= {
        "CanonicalMap", "alpha", "beta", "function_table", "shift_modulus",
        "Container", "container_members", "container_product", "order_central_series",
    }
    for (m, side), order in expected.items():
        assert close_raw(side, GroupParams.from_modulus(m)).size == order


def test_generator_tables_match_scalar_commutators():
    for m in range(3, 21):
        g = GroupParams.from_modulus(m)
        elems = enumerate_elements(g)
        scalar = {
            "right": [[element_index(commutator(x, y, g)) for x in elems] for y in elems],
            "left": [[element_index(commutator(y, x, g)) for x in elems] for y in elems],
        }
        for side, tables in scalar.items():
            assert raw._commutator_tables(side, g).tolist() == tables
            distinct = {tuple(t) for t in tables}
            assert close_raw(side, g).generator_count == len(distinct)


@st.composite
def transformation_sets(draw):
    """Distinct transformations of at most 8 points, of one of three kinds:
    one permutation among them, so their images cover every point; all
    mapping into a drawn image set; or a cycle through up to 7 image points
    beside a map that merges two of them and fixes the others, whose
    restrictions to the image need products of up to 48 factors (11970 of
    them on 7 points).  In the last two kinds some tables have twins that
    differ from them only off the image.  Point and image counts stay small,
    and the scalar reference fast."""
    kind = draw(st.sampled_from(["permutation", "image", "cycle"]))
    if kind == "cycle":
        n = draw(st.integers(2, 8))
        image = draw(st.permutations(range(n)))[: draw(st.integers(2, min(7, n)))]
        point = st.sampled_from(image)
        cycle = [draw(point) for _ in range(n)]
        merge = [draw(point) for _ in range(n)]
        for a, b in zip(image, image[1:] + image[:1]):
            cycle[a], merge[a] = b, a
        merge[draw(st.sampled_from(image[1:]))] = image[0]
        tables = [cycle, merge]
    else:
        if kind == "permutation":
            image = list(range(draw(st.integers(1, 5))))
            n = len(image)
            tables = [draw(st.permutations(image))]
        else:
            n = draw(st.integers(1, 8))
            image = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=4)))
            tables = []
        point = st.sampled_from(image)
        tables += draw(st.lists(st.lists(point, min_size=n, max_size=n), min_size=1, max_size=4))
    outside = [x for x in range(n) if x not in image]
    for table in list(tables):
        if outside and draw(st.booleans()):
            twin = list(table)
            twin[draw(st.sampled_from(outside))] = draw(point)
            tables.append(twin)
    return np.unique(np.array(tables, dtype=np.uint8), axis=0)


@settings(max_examples=200, deadline=None)
@given(transformation_sets())
def test_close_tables_matches_set_closure(gens):
    got = raw._close_tables(gens)
    assert got.dtype == np.uint8
    closed = {tuple(t) for t in got.tolist()}
    assert len(closed) == len(got)
    assert closed == reference_close_tables(gens)


def test_close_tables_keeps_entry_permutations_apart():
    # every product of a 5-cycle and a transposition is a permutation of
    # 0..4, so all 120 have the same entries in different places and share
    # every fingerprint that is symmetric in them (sum, sorted entries)
    gens = np.array([[1, 2, 3, 4, 0], [1, 0, 2, 3, 4]], dtype=np.uint8)
    got = raw._close_tables(gens)
    assert got.tolist() == sorted(got.tolist())
    closed = {tuple(t) for t in got.tolist()}
    assert len(closed) == len(got) == 120
    assert closed == reference_close_tables(gens) == set(itertools.permutations(range(5)))
    # two generators with one entry sum, whose products repeat their entries
    # in other places
    gens = np.array([[0, 1, 1], [1, 0, 1]], dtype=np.uint8)
    got = raw._close_tables(gens)
    closed = {tuple(t) for t in got.tolist()}
    assert len(closed) == len(got)
    assert closed == reference_close_tables(gens) == {(0, 1, 1), (1, 0, 1), (1, 0, 0), (0, 1, 0)}


def test_close_raw_matches_reference_closure():
    # the pair oracle is the reference: the raw oracle's distinct generator
    # tables are the distinct commutation maps, and its tables decode, one
    # key each, to exactly the pair closure's keys
    for m in range(3, 49):
        g = GroupParams.from_modulus(m)
        for side in ("right", "left"):
            got, want = close_raw(side, g), close_pairs(side, g)
            assert got.generator_count == want.generator_count
            assert np.array_equal(canonicalized_elements(got, g), want.elements)


@pytest.mark.parametrize("m", [101, 123, 128])
def test_oracles_agree_heavy_rows(m):
    check_oracle_agreement([m])


def test_canonicalized_elements_names_corrupted_tables():
    g8 = GroupParams.from_modulus(8)
    good = close_raw("right", g8)
    table = good.elements[-1]
    odd_shift = table.copy()
    odd_shift[8] = 3  # the image of b is the doubled shift
    off_family = table.copy()
    off_family[3] = (off_family[3] + 1) % 8
    for corrupt, reason in ((odd_shift, "odd doubled shift 3"), (off_family, "outside the map family")):
        summary = SemigroupSummary(8, "right", 1, "raw_tables", corrupt[None])
        with pytest.raises(ConsistencyError) as excinfo:
            canonicalized_elements(summary, g8)
        message = str(excinfo.value)
        assert message.startswith("m=8 side=right stage=canonicalized_elements: ")
        assert reason in message and str(corrupt.tolist()) in message
    # the family's table of the decoded map is named beside the raw one
    assert str(table.tolist()) in message


def test_raw_bound():
    with pytest.raises(ResourceLimitError):
        close_raw("right", GroupParams.from_modulus(129))


@pytest.mark.parametrize(
    "moduli", [range(3, 257), [257, 509, 510, 511, 512]], ids=["3-256", "257-512"]
)
def test_close_pairs_matches_scalar_worklist(moduli):
    for m in moduli:
        g = GroupParams.from_modulus(m)
        for side in ("right", "left"):
            summary = close_pairs(side, g)
            generator_count, keys = reference_close_pairs(side, g)
            elements = summary.elements
            assert elements.dtype == np.int64 and not elements.flags.writeable
            # equal to the sorted keys, so sorted and free of repeats
            assert elements.tolist() == sorted(keys), (m, side)
            assert summary.generator_count == generator_count, (m, side)


def test_close_pairs_ignores_formula_routes(monkeypatch):
    # the pair oracle checks the order formulas, so it may use none of them;
    # the expected orders are computed before every route raises
    expected = {
        (m, side): order_central_series(side, GroupParams.from_modulus(m))
        for m in (3, 8, 15, 64, 509)
        for side in ("right", "left")
    }
    routes = (containers, orders, modular, central_series)
    patched = _refuse_module_callables(monkeypatch, routes, "close_pairs touched a formula route")
    assert patched >= {
        "Container", "base_scale", "container_members", "container_product",
        "order_central_series", "orbit_profile", "center_order",
    }
    for (m, side), order in expected.items():
        assert close_pairs(side, GroupParams.from_modulus(m)).size == order


def test_pairs_reference_sizes():
    g15 = GroupParams.from_modulus(15)
    assert close_pairs("right", g15).size == 75
    assert close_pairs("left", g15).size == 75
    g64 = GroupParams.from_modulus(64)
    assert close_pairs("right", g64).size == 94
    assert close_pairs("left", g64).size == 94
    g3 = GroupParams.from_modulus(3)
    assert close_pairs("right", g3).size == 6
    assert close_pairs("left", g3).size == 9
    summary = close_pairs("right", g15)
    assert summary.generator_count == 30
    keys = summary.elements.tolist()
    assert summary.elements.dtype == np.int64 and keys == sorted(set(keys))
    assert [CanonicalMap.from_key(k, 15).key for k in keys] == keys


def test_oracles_agree_small():
    check_oracle_agreement(range(3, 17))


def test_pairs_match_formula_extended():
    check_pairs_match_formula(list(range(3, 257)))


def test_pairs_match_formula_large_samples():
    # larger moduli with tame closures: powers of two, their triples, smooth
    # odd composites
    check_pairs_match_formula([512, 768, 1024, 1023, 2048, 3072, 4095, 4096])


def test_closure_idempotence_random_pairs():
    rng = random.Random(7)
    for m in (8, 15, 24, 40):
        g = GroupParams.from_modulus(m)
        for side in ("right", "left"):
            universe = set(close_pairs(side, g).elements.tolist())
            elements = [CanonicalMap.from_key(k, m) for k in sorted(universe)]
            for _ in range(1000):
                f = rng.choice(elements)
                h = rng.choice(elements)
                assert f.then(h).key in universe


def test_verify_iso_map_examples():
    g8 = GroupParams.from_modulus(8)
    assert verify_iso_map(g8, lambda a, b: (3 * a, b))
    # the identity rule sends some of P(D_8) outside L(D_8)
    assert not verify_iso_map(g8, lambda a, b: (a, b))
    # the two sides of D_5 coincide as sets, so the identity rule works
    g5 = GroupParams.from_modulus(5)
    assert verify_iso_map(g5, lambda a, b: (a, b))
    # swapping shift classes 1 and 2 is a bijection but breaks composition
    assert not verify_iso_map(g5, lambda a, b: (a, {1: 2, 2: 1}.get(b, b)))
    # every image has shift class 0, so the rule is not a bijection
    assert not verify_iso_map(g8, lambda a, b: (3 * a, 0))


def test_search_same_modulus():
    g8 = GroupParams.from_modulus(8)
    res = search_isomorphism(close_pairs("right", g8), close_pairs("left", g8))
    assert res.status is IsoStatus.ISOMORPHIC
    witness = res.witness
    assert len(witness) == 10 and len(set(witness.values())) == 10
    # verify the witness is a homomorphism, independently of the search
    for f in witness:
        for h in witness:
            assert witness[f].then(witness[h]) == witness[f.then(h)]

    g15 = GroupParams.from_modulus(15)
    res15 = search_isomorphism(close_pairs("right", g15), close_pairs("left", g15))
    assert res15.status is IsoStatus.NOT_ISOMORPHIC
    assert res15.witness is None


def test_search_cross_modulus():
    g5 = GroupParams.from_modulus(5)
    g10 = GroupParams.from_modulus(10)
    for side in ("right", "left"):
        res = search_isomorphism(close_pairs(side, g10), close_pairs(side, g5))
        assert res.status is IsoStatus.ISOMORPHIC
        witness = res.witness
        assert len(set(witness.values())) == 25
        for f in witness:
            for h in witness:
                assert witness[f].then(witness[h]) == witness[f.then(h)]


def test_search_size_mismatch_and_budget():
    g3 = GroupParams.from_modulus(3)
    res = search_isomorphism(close_pairs("right", g3), close_pairs("left", g3))
    assert res.status is IsoStatus.NOT_ISOMORPHIC and res.nodes == 0
    g20 = GroupParams.from_modulus(20)
    res = search_isomorphism(close_pairs("right", g20), close_pairs("left", g20), budget=1)
    assert res.status is IsoStatus.BUDGET_EXHAUSTED
    assert res.witness is None


def _one_colour(mult1, mult2):
    """_refine_colors with one colour for every element of both semigroups:
    still isomorphism-invariant, but it prunes nothing, so the search must
    backtrack past successful extensions."""
    (t1, sig1), (t2, _) = mult1, mult2
    zeros = (np.zeros(len(t), dtype=np.int64) for t in (t1, t2))
    return *zeros, isomorphism._distinct_counts(t1, 0)[sig1]


# (m1, side1, m2, side2, one colour, status, nodes) of each unbounded search,
# nodes being the count the CLI prints: P vs L at one modulus, and 2p vs p on
# both sides.  With one colour: a refutation, a late witness, and a search
# unfinished after three minutes (no status or count), run at its old
# budgets only
SEARCH_CASES = (
    [
        (m, "right", m, "left", False, IsoStatus.ISOMORPHIC, nodes)
        for m, nodes in ((8, 6), (20, 16), (52, 58), (85, 184), (100, 145))
    ]
    + [
        (2 * p, side, p, side, False, IsoStatus.ISOMORPHIC, nodes)
        for p, nodes in ((5, 7), (13, 15), (37, 39))
        for side in ("right", "left")
    ]
    + [
        (9, "right", 24, "left", True, IsoStatus.NOT_ISOMORPHIC, 578),
        (10, "left", 5, "right", True, IsoStatus.ISOMORPHIC, 47),
        (15, "right", 15, "left", True, None, None),
    ]
)


def _assert_witness_preserves_products(res, s1, s2):
    """The witness is a bijection that preserves all n^2 products of the
    full tables."""
    perm = np.array(_witness_images(res, s1, s2), dtype=np.int32)
    assert sorted(perm.tolist()) == list(range(s2.size))
    full = (_whole(reference_mult_table(s.elements, s.m)) for s in (s1, s2))
    assert reference_preserves_products(perm, *full)


@pytest.mark.parametrize(
    "m1,side1,m2,side2,one,status,nodes",
    SEARCH_CASES,
    ids=["-".join(map(str, case[:4])) + "-one-colour" * case[4] for case in SEARCH_CASES],
)
def test_search_meets_its_specification(monkeypatch, m1, side1, m2, side2, one, status, nodes):
    axes = []
    distinct_counts = isomorphism._distinct_counts

    def counted(table, axis):
        axes.append(axis)
        return distinct_counts(table, axis)

    monkeypatch.setattr(isomorphism, "_distinct_counts", counted)
    s1 = close_pairs(side1, GroupParams.from_modulus(m1))
    s2 = close_pairs(side2, GroupParams.from_modulus(m2))
    results = []
    if one:
        results.append(search_isomorphism(s1, s2))
        # a search refuted before any node sorts no columns
        assert axes.count(0) == (2 if results[0].nodes else 0)
        monkeypatch.setattr(isomorphism, "_refine_colors", _one_colour)
    if nodes is None:
        budgets = (0, 1, 10, 50, 1000)
    else:
        budgets = (0, 1, 10, 50, nodes - 1, nodes, isomorphism.DEFAULT_SEARCH_BUDGET)
    # in increasing order, so a search that needs more nodes than pinned
    # fails at budget `nodes` instead of running on
    for budget in sorted(budgets):
        axes.clear()
        got = search_isomorphism(s1, s2, budget=budget)
        # a search sorts each side's columns once, in the refinement (the
        # stub sorts the first side's), and orders its generators by the
        # first side's column spans from there
        assert axes.count(0) == (1 if one else 2)
        # a budget below the unbounded count is exhausted by the node past
        # it; any other budget gives the unbounded result
        if nodes is None or budget < nodes:
            assert got == IsoSearchResult(IsoStatus.BUDGET_EXHAUSTED, budget + 1)
        elif budget == nodes:
            assert (got.status, got.nodes) == (status, nodes)
            results.append(got)
        else:
            assert got == results[-1]
    # colours prune the search but never change its verdict
    assert nodes is None or all(res.status is status for res in results)
    for res in results:
        if res.status is IsoStatus.ISOMORPHIC:
            _assert_witness_preserves_products(res, s1, s2)


def test_distinct_counts_match_sets():
    g12 = GroupParams.from_modulus(12)
    for side in ("right", "left"):
        scaled, sig = isomorphism._scale_table(close_pairs(side, g12).elements, 12, side)
        rows, cols = isomorphism._distinct_counts(scaled, 1), isomorphism._distinct_counts(scaled, 0)[sig]
        t = scaled[:, sig]
        for x in range(t.shape[0]):
            assert rows[x] == len(set(t[x].tolist()))
            assert cols[x] == len(set(t[:, x].tolist()))


def test_mult_table_rejects_unclosed_keys():
    keys = close_pairs("right", GroupParams.from_modulus(8)).elements.tolist()
    scaled, sig = isomorphism._scale_table(keys, 8, "right")
    assert scaled.dtype == "int32"
    t = scaled[:, sig]
    # drop a product of two other elements, so that product has no index
    i, j = next((i, j) for i in range(len(keys)) for j in range(len(keys)) if t[i, j] not in (i, j))
    unclosed = [k for k in keys if k != keys[t[i, j]]]
    with pytest.raises(ConsistencyError) as info:
        isomorphism._scale_table(unclosed, 8, "right")
    assert str(info.value).startswith("m=8 side=right stage=_scale_table: ")


# both sides of the P vs L moduli 15, 24, 55, 74 and 95, and of 2p vs p at
# p = 13 and 37
FACTORED_MODULI = [15, 24, 55, 74, 95, 13, 26, 37]


@pytest.mark.parametrize("m", FACTORED_MODULI)
def test_scale_table_expands_to_reference(m):
    for side in ("right", "left"):
        keys = close_pairs(side, GroupParams.from_modulus(m)).elements
        scaled, sig = isomorphism._scale_table(keys, m, side)
        reference = reference_mult_table(keys, m)
        assert scaled.dtype == "int32" and scaled.shape[1] == sig.max() + 1 < len(keys)
        assert np.array_equal(scaled[:, sig], reference)
        spans = isomorphism._distinct_counts(scaled, 1)
        signatures = isomorphism._initial_signatures((scaled, sig), spans)
        assert np.array_equal(signatures, reference_signatures(reference))


def test_row_types_number_rows_by_first_occurrence():
    rng = np.random.default_rng(3)
    for n, width, values in ((1, 1, 1), (7, 1, 3), (40, 3, 2), (200, 5, 3), (300, 2, 300)):
        rows = rng.integers(0, values, (n, width))
        first, kind = isomorphism._row_types(rows)
        # the reference: a type per distinct row, in order of first occurrence
        types = {}
        for row in map(tuple, rows.tolist()):
            types.setdefault(row, len(types))
        assert kind.tolist() == [types[row] for row in map(tuple, rows.tolist())]
        assert first.tolist() == [kind.tolist().index(k) for k in range(len(types))]


# a one-byte chunk makes every block of stamps a single type's
@pytest.mark.parametrize("chunk_bytes", [isomorphism._CHUNK_BYTES, 1])
@pytest.mark.parametrize("m,side", [(15, "right"), (24, "left"), (26, "right"), (13, "left")])
def test_stamp_rows_match_whole_table_reference(monkeypatch, m, side, chunk_bytes):
    monkeypatch.setattr(isomorphism, "_CHUNK_BYTES", chunk_bytes)
    scaled, sig = _table(m, side)
    t = scaled[:, sig]
    n = len(t)
    # the initial colours, where elements share row types; a random
    # colouring; and a random colouring that splits every class, where each
    # element is its own type and the quotient saves nothing
    col, _, width = reference_shared_colors(reference_signatures(t), [])
    rng = np.random.default_rng(m)
    colourings = [(col, width, True), (rng.integers(0, n, n), n, None), (rng.permutation(n), n, False)]
    for col, width, shared in colourings:
        stamps, kind = isomorphism._stamps((scaled, sig), col, width)
        stamps = list(stamps)
        assert list(dict.fromkeys(kind.tolist())) == list(range(len(stamps)))
        assert shared is None or (len(stamps) < n) == shared
        reference = reference_stamp(t, col, width)
        # each stamp is col[x], the distinct codes, then their counts, one
        # for each y; expanded by the element's type it is the element's
        # reference row
        for stamp in stamps:
            codes, counts = np.split(stamp[1:], 2)
            assert (np.diff(codes) > 0).all() and (counts > 0).all() and counts.sum() == n
        for x, want in enumerate(reference):
            codes, counts = np.split(stamps[kind[x]][1:], 2)
            assert np.array_equal(np.concatenate([stamps[kind[x]][:1], np.repeat(codes, counts)]), want)
        # so both induce one partition, and the same first-occurrence colours
        got, _, got_count = isomorphism._shared_colors((stamps, kind), ([], np.zeros(0, dtype=np.intp)))
        want, _, want_count = reference_shared_colors(reference, [])
        assert np.array_equal(got, want) and got_count == want_count


def _no_monogenic_walk(mult):
    raise AssertionError("the monogenic walk ran")


# the FACTORED_MODULI pairs, and two P vs L pairs whose refinement splits
# classes over several stamp rounds
REFINEMENT_CASES = [(m, "right", m, "left") for m in (15, 24, 55, 74, 95, 52, 100)] + [
    (2 * p, side, p, side) for p in (13, 37) for side in ("right", "left")
]


@pytest.mark.parametrize("m1,side1,m2,side2", REFINEMENT_CASES)
def test_refinement_rounds_match_whole_table_reference(monkeypatch, m1, side1, m2, side2):
    rounds = []
    shared = isomorphism._shared_colors

    def recording(typed1, typed2):
        rounds.append(shared(typed1, typed2))
        return rounds[-1]

    monkeypatch.setattr(isomorphism, "_shared_colors", recording)
    mult1, mult2 = _table(m1, side1), _table(m2, side2)
    want_rounds, want = reference_refine_colors(*(scaled[:, sig] for scaled, sig in (mult1, mult2)))
    spans1, spans2 = (np.sort(isomorphism._distinct_counts(scaled, 1)) for scaled, _ in (mult1, mult2))
    if want is None and len(want_rounds) == 1:
        # the reference refutes on the initial signatures; the row spans
        # alone refute, before any monogenic walk or interning
        assert m1 == m2 in (15, 24, 55, 95)
        assert not np.array_equal(spans1, spans2)
        monkeypatch.setattr(isomorphism, "_monogenic_profiles", _no_monogenic_walk)
        assert isomorphism._refine_colors(mult1, mult2) is None
        assert rounds == []
        return
    got = isomorphism._refine_colors(mult1, mult2)
    assert np.array_equal(spans1, spans2)
    assert len(rounds) == len(want_rounds)
    for (col1, col2, count), (ref1, ref2, ref_count) in zip(rounds, want_rounds):
        assert np.array_equal(col1, ref1) and np.array_equal(col2, ref2) and count == ref_count
    assert (got is None) == (want is None)
    if got is not None:
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_refuted_moduli_refute_on_row_spans_alone(monkeypatch):
    # every equal-order m <= 128 with distinct sets that the criterion says
    # is not isomorphic, within the cap, is refuted with 0 nodes before the
    # monogenic walk
    monkeypatch.setattr(isomorphism, "_monogenic_profiles", _no_monogenic_walk)
    refuted = []
    for m in range(3, 129):
        g = GroupParams.from_modulus(m)
        s1, s2 = close_pairs("right", g), close_pairs("left", g)
        if gupta_criterion(g) or s1.size != s2.size or s1.size > isomorphism.ISO_ELEMENT_LIMIT:
            continue
        assert not np.array_equal(s1.elements, s2.elements)
        res = search_isomorphism(s1, s2)
        assert (res.status, res.nodes) == (IsoStatus.NOT_ISOMORPHIC, 0)
        refuted.append(m)
    assert len(refuted) == 30 and refuted[:3] == [15, 21, 30] and refuted[-1] == 126


def test_monogenic_profiles_match_scalar_walk_on_semigroups():
    """_monogenic_profiles walks the powers of each scale, not of each
    element, which is exact only on an associative table in which the scale
    of a product depends only on the scales of its factors.  Every table
    _scale_table returns is one, and so is any associative n x n table read
    with every element its own scale."""
    n = 50
    i, j = np.arange(n)[:, None], np.arange(n)
    # one long cycle: x^k = k mod n for the powers of 1, so 1 has period n;
    # and truncated addition, whose powers x^k = min(k x + 2 (k - 1), n - 1)
    # run down long tails into the absorbing n - 1
    for t in ((i + j) % n, np.minimum(i + j + 2, n - 1)):
        profiles = isomorphism._monogenic_profiles((t.astype(np.int32), np.arange(n)))
        assert profiles.tolist() == [list(scalar_monogenic_profile(t, x)) for x in range(n)]
    # every semigroup the search admits for m <= 130, both sides, which
    # covers 2p vs p for odd p <= 43; 472-left, whose scale walks are the
    # longest of any admitted semigroup for m <= 4096; and 2048-right
    cases = [(m, side) for m in range(3, 131) for side in ("right", "left")]
    checked = 0
    for m, side in cases + [(472, "left"), (2048, "right")]:
        keys = close_pairs(side, GroupParams.from_modulus(m)).elements
        if len(keys) > isomorphism.ISO_ELEMENT_LIMIT:
            continue
        scaled, sig = isomorphism._scale_table(keys, m, side)
        t = scaled[:, sig]
        profiles = isomorphism._monogenic_profiles((scaled, sig))
        assert profiles.tolist() == [list(scalar_monogenic_profile(t, x)) for x in range(len(t))]
        checked += 1
    assert checked == 237


def test_search_memory_below_n_squared_bytes():
    # P(D_95) vs L(D_95) is decided by the initial signatures, so no table
    # of n^2 entries is needed; the n x n int32 table alone is 4 n^2 bytes
    g = GroupParams.from_modulus(95)
    right, left = close_pairs("right", g), close_pairs("left", g)
    tracemalloc.start()
    try:
        res = search_isomorphism(right, left)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.status is IsoStatus.NOT_ISOMORPHIC and res.nodes == 0
    assert right.size == 3515 and peak < right.size**2


def test_verify_iso_map_refuses_above_cap(monkeypatch):
    def no_table(*_args):
        raise AssertionError("the product table must not be built")

    monkeypatch.setattr(isomorphism, "_scale_table", no_table)
    # |P| = |L| = 10201 at m = 101, above the cap
    with pytest.raises(ResourceLimitError) as info:
        verify_iso_map(GroupParams.from_modulus(101), lambda a, b: (a, b))
    assert "10201" in str(info.value) and str(isomorphism.ISO_ELEMENT_LIMIT) in str(info.value)


def _table(m, side):
    """The scale-factored pair (T, sig) of one closure."""
    keys = close_pairs(side, GroupParams.from_modulus(m)).elements
    return isomorphism._scale_table(keys, m, side)


def _whole(t):
    """A hand-made n x n table as a (T, sig) pair."""
    return t, np.arange(len(t))


# P vs L at one modulus (m = 12 has |P| = 15 and |L| = 18), and 2p vs p
PROPAGATION_CASES = [(m, "right", m, "left") for m in (8, 12, 20, 52)] + [
    (2 * p, side, p, side) for p in (5, 7, 13) for side in ("right", "left")
]


def _witness_images(res, s1, s2):
    """A search result's witness as a list of indices into the sorted keys,
    or None."""
    if res.status is not IsoStatus.ISOMORPHIC:
        return None
    position = {k: i for i, k in enumerate(s2.elements.tolist())}
    images = {f.key: position[h.key] for f, h in res.witness.items()}
    return [images[k] for k in s1.elements.tolist()]


# P vs L at 20 and 100, and 74 vs 37
LEAF_CASES = [(20, "right", 20, "left"), (74, "right", 37, "right"), (100, "right", 100, "left")]


# a one-byte chunk compares one scale pair at a time
@pytest.mark.parametrize("chunk_bytes", [isomorphism._CHUNK_BYTES, 1])
@pytest.mark.parametrize("m1,side1,m2,side2", LEAF_CASES)
def test_leaf_check_matches_all_pairs_reference(monkeypatch, m1, side1, m2, side2, chunk_bytes):
    monkeypatch.setattr(isomorphism, "_CHUNK_BYTES", chunk_bytes)
    s1 = close_pairs(side1, GroupParams.from_modulus(m1))
    s2 = close_pairs(side2, GroupParams.from_modulus(m2))
    witness = np.array(_witness_images(search_isomorphism(s1, s2), s1, s2), dtype=np.int32)
    mult1, mult2 = _table(m1, side1), _table(m2, side2)
    assert isomorphism._preserves_products(witness, mult1, mult2)
    assert reference_preserves_products(witness, mult1, mult2)
    # the witness with two images swapped, 200 times
    rng = np.random.default_rng(m1)
    verdicts = set()
    for _ in range(200):
        perm = witness.copy()
        i, j = rng.choice(len(perm), 2, replace=False)
        perm[[i, j]] = perm[[j, i]]
        verdict = isomorphism._preserves_products(perm, mult1, mult2)
        assert verdict == reference_preserves_products(perm, mult1, mult2)
        verdicts.add(verdict)
    assert False in verdicts


def test_frontier_rounds_keep_every_block():
    # x = 0 and y = 1 are idempotents, x*y = 3 and y*x = 2.  Every element is
    # its own scale, so the round whose frontier is {2, 3} finds 4 = 2*2 and
    # 5 = 2*1 through different scale pairs.
    rows = [
        [0, 3, 4, 3, 4, 4],
        [2, 1, 2, 5, 4, 5],
        [2, 5, 4, 5, 4, 4],
        [4, 3, 4, 4, 4, 4],
        [4, 4, 4, 4, 4, 4],
        [4, 5, 4, 4, 4, 4],
    ]
    t = np.array(rows, dtype=np.int32)
    # the closing rounds and the greedy rule hold on semigroups only
    assert (t[t] == t[:, t]).all()
    assert isomorphism._greedy_generators(_whole(t)) == [0, 1]
    partial = isomorphism._PartialIso(_whole(t), _whole(t), np.zeros(6), np.zeros(6))
    assert partial.extend(1, 1) and partial.extend(0, 0)
    assert partial.phi.tolist() == list(range(6))


# (m1, m2, closing rounds on each side) of a search for 2p vs p
CLOSING_ROUND_CASES = [(26, 13, 19), (74, 37, 45)]


@pytest.mark.parametrize("side", ["right", "left"])
@pytest.mark.parametrize("m1,m2,rounds", CLOSING_ROUND_CASES)
def test_closing_stops_at_a_round_that_adds_no_scale_pair(monkeypatch, side, m1, m2, rounds):
    # a round whose frontier adds no scale pair is the last one; so is the
    # first, when the chosen pair (x, w) brings a scale pair the domain has
    calls = []
    forced = isomorphism._PartialIso._forced

    class Counted(isomorphism._PartialIso):
        def _forced(self, lo):
            calls.append(lo)
            return forced(self, lo)

        def extend(self, x, w):
            (_, sig1), (t2, sig2) = self.mult1, self.mult2
            known = self.paired[sig1[x] * t2.shape[1] + sig2[w]]
            before = len(calls)
            ok = super().extend(x, w)
            if known:
                assert len(calls) == before + 1
            return ok

    monkeypatch.setattr(isomorphism, "_PartialIso", Counted)
    s1 = close_pairs(side, GroupParams.from_modulus(m1))
    s2 = close_pairs(side, GroupParams.from_modulus(m2))
    assert search_isomorphism(s1, s2).status is IsoStatus.ISOMORPHIC
    assert len(calls) == rounds


# a one-byte chunk makes every block a single frontier element
@pytest.mark.parametrize("chunk_bytes", [isomorphism._CHUNK_BYTES, 1])
@pytest.mark.parametrize("m1,side1,m2,side2", PROPAGATION_CASES)
def test_frontier_propagation_matches_scalar_reference(
    monkeypatch, m1, side1, m2, side2, chunk_bytes
):
    monkeypatch.setattr(isomorphism, "_CHUNK_BYTES", chunk_bytes)
    mult1, mult2 = _table(m1, side1), _table(m2, side2)
    # the scalar reference runs on the expanded n x n tables
    t1, t2 = (scaled[:, sig] for scaled, sig in (mult1, mult2))
    colors = isomorphism._refine_colors(mult1, mult2) if len(t1) == len(t2) else None
    if colors is None:
        # the idempotent flag is invariant too, and keeps the colour check live
        colors = tuple(np.diagonal(t) == np.arange(len(t)) for t in (t1, t2))
    col1, col2 = colors[:2]
    rows1, rows2, cols1, cols2 = t1.tolist(), t2.tolist(), col1.tolist(), col2.tolist()
    gens = isomorphism._greedy_generators(mult1)
    s1 = close_pairs(side1, GroupParams.from_modulus(m1))
    s2 = close_pairs(side2, GroupParams.from_modulus(m2))
    witness = _witness_images(search_isomorphism(s1, s2), s1, s2)
    rng = random.Random(f"{m1}{side1}{m2}{side2}")
    outcomes = set()
    for trial in range(21):
        # the last trial takes every image from a witness, when there is one
        follow = trial == 20 and witness is not None
        partial = isomorphism._PartialIso(mult1, mult2, col1, col2)
        phi, used_by, domain = [-1] * len(t1), [-1] * len(t2), []
        for x in rng.sample(gens, len(gens)):
            if phi[x] >= 0:
                continue
            free = [w for w in range(len(t2)) if used_by[w] < 0]
            alike = [w for w in free if cols2[w] == cols1[x]]
            # mostly colour-compatible images, so closures grow before failing
            guess = rng.choice(alike if alike and rng.random() < 0.9 else free)
            w = witness[x] if follow else guess
            ok = scalar_extend(rows1, rows2, cols1, cols2, phi, used_by, domain, x, w)
            assert partial.extend(x, w) == ok
            assert partial.phi.tolist() == phi and partial.used_by.tolist() == used_by
            assert sorted(partial.domain[: partial.size].tolist()) == sorted(domain)
            outcomes.add(ok)
            if not ok:
                break
        if follow:
            assert partial.phi.tolist() == witness
    assert outcomes == {True, False}
    assert (witness is None) == (m1 == 12)


def _assert_pairs_tracked(partial):
    """The scale pairs a _PartialIso keeps are those of its domain, each
    once, and its membership array marks exactly them."""
    domain = partial.domain[: partial.size]
    c1, c2 = isomorphism._scale_pairs(partial.mult1, partial.mult2, domain, partial.phi[domain])
    width = partial.mult2[0].shape[1]
    assert np.sort(partial.pairs[: partial.npairs]).tolist() == (c1 * width + c2).tolist()
    assert np.flatnonzero(partial.paired).tolist() == (c1 * width + c2).tolist()


@pytest.mark.parametrize("m1,side1,m2,side2", PROPAGATION_CASES)
def test_tracked_scale_pairs_match_recomputation(m1, side1, m2, side2):
    mult1, mult2 = _table(m1, side1), _table(m2, side2)
    same_size = len(mult1[1]) == len(mult2[1])
    colors = isomorphism._refine_colors(mult1, mult2) if same_size else None
    if colors is None:
        # the idempotent flag is invariant too, and keeps the colour check live
        colors = tuple(
            t[np.arange(len(sig)), sig] == np.arange(len(sig)) for t, sig in (mult1, mult2)
        )
    col1, col2 = colors[:2]
    gens = isomorphism._greedy_generators(mult1)
    rng = random.Random(f"pairs{m1}{side1}{m2}{side2}")
    for _ in range(10):
        partial = isomorphism._PartialIso(mult1, mult2, col1, col2)
        # sizes between extend calls, the only sizes the search undoes to
        marks = [0]
        for _ in range(40):
            if len(marks) > 1 and rng.random() < 0.3:
                del marks[rng.randrange(1, len(marks)) :]
                partial.undo(marks[-1])
            else:
                unmapped = np.flatnonzero(partial.phi < 0).tolist()
                if not unmapped:
                    break
                x = rng.choice([x for x in gens if partial.phi[x] < 0] or unmapped)
                free_w = np.flatnonzero(partial.used_by < 0)
                alike = free_w[col2[free_w] == col1[x]].tolist()
                w = rng.choice(alike if alike and rng.random() < 0.9 else free_w.tolist())
                if partial.extend(x, w):
                    marks.append(partial.size)
            _assert_pairs_tracked(partial)


def test_tracked_scale_pairs_survive_deep_backtracking(monkeypatch):
    # with one colour for every element the search backtracks through many
    # extends and undos; the pairs must match the domain after each
    calls = []

    class Checked(isomorphism._PartialIso):
        def extend(self, x, w):
            ok = super().extend(x, w)
            _assert_pairs_tracked(self)
            calls.append(ok)
            return ok

        def undo(self, start):
            super().undo(start)
            _assert_pairs_tracked(self)

    monkeypatch.setattr(isomorphism, "_refine_colors", _one_colour)
    monkeypatch.setattr(isomorphism, "_PartialIso", Checked)
    for m1, side1, m2, side2 in ((9, "right", 24, "left"), (10, "left", 5, "right")):
        s1 = close_pairs(side1, GroupParams.from_modulus(m1))
        s2 = close_pairs(side2, GroupParams.from_modulus(m2))
        search_isomorphism(s1, s2)
    assert True in calls and False in calls


# x = 0 and y = 1 are idempotents; after y -> y, mapping x -> x forces the
# images of x*y and y*x in one round.  First: x*y and y*x are distinct
# absorbing elements, both forced onto the one absorbing image.  Second: x*y
# = y*x is absorbing, forced onto two distinct absorbing-like images.  Both
# maps must be refused, although every later round would be consistent.
ONE_ROUND_CONFLICTS = [
    (
        [[0, 2, 2, 3], [3, 1, 2, 3], [2, 2, 2, 2], [3, 3, 3, 3]],
        [[0, 2, 2], [2, 1, 2], [2, 2, 2]],
    ),
    (
        [[0, 2, 2], [2, 1, 2], [2, 2, 2]],
        [[0, 2, 2, 3], [3, 1, 2, 3], [2, 2, 2, 3], [3, 3, 3, 3]],
    ),
]


@pytest.mark.parametrize("rows1,rows2", ONE_ROUND_CONFLICTS)
def test_frontier_propagation_refuses_conflicts_within_one_round(rows1, rows2):
    cols1, cols2 = [0] * len(rows1), [0] * len(rows2)
    phi, used_by, domain = [-1] * len(rows1), [-1] * len(rows2), []
    t1, t2 = np.array(rows1, dtype=np.int32), np.array(rows2, dtype=np.int32)
    partial = isomorphism._PartialIso(_whole(t1), _whole(t2), np.array(cols1), np.array(cols2))
    for x, expected in ((1, True), (0, False)):
        assert scalar_extend(rows1, rows2, cols1, cols2, phi, used_by, domain, x, x) is expected
        assert partial.extend(x, x) is expected
        assert partial.phi.tolist() == phi and partial.used_by.tolist() == used_by


def test_products_are_read_per_scale_pair_not_per_scale():
    # in the left-zero semigroup x * y = x all three elements share one
    # scale column, but under the identity their images have three columns
    # of the second table, and only the column of 1 breaks 2 * 1 = 2; reading
    # one column per scale of the first semigroup would miss it
    rows1 = [[0, 0, 0], [1, 1, 1], [2, 2, 2]]
    rows2 = [[0, 0, 0], [1, 1, 1], [2, 0, 2]]
    mult1 = (np.array([[0], [1], [2]], dtype=np.int32), np.zeros(3, dtype=np.intp))
    mult2 = _whole(np.array(rows2, dtype=np.int32))
    cols = [0, 0, 0]
    partial = isomorphism._PartialIso(mult1, mult2, np.array(cols), np.array(cols))
    phi, used_by, domain = [-1] * 3, [-1] * 3, []
    for x, expected in ((0, True), (1, True), (2, False)):
        assert scalar_extend(rows1, rows2, cols, cols, phi, used_by, domain, x, x) is expected
        assert partial.extend(x, x) is expected
        assert partial.phi.tolist() == phi and partial.used_by.tolist() == used_by
    identity = np.arange(3, dtype=np.int32)
    assert not reference_preserves_products(identity, mult1, mult2)
    assert not isomorphism._preserves_products(identity, mult1, mult2)


# every table of PROPAGATION_CASES
@pytest.mark.parametrize("side", ["right", "left"])
@pytest.mark.parametrize("m", [5, 7, 8, 10, 12, 13, 14, 20, 26, 52])
def test_greedy_generators_generate_the_table(m, side):
    scaled, sig = _table(m, side)
    gens = isomorphism._greedy_generators((scaled, sig))
    t = scaled[:, sig]
    # an element outside the image of t is no product, so only a generator
    # gives it; these irreducibles come first, in order
    irreducible = sorted(set(range(len(t))) - set(t.ravel().tolist()))
    assert gens[: len(irreducible)] == irreducible
    reached, frontier = set(irreducible), list(irreducible)
    for k in range(len(irreducible), len(gens) + 1):
        # the set closure of gens[:k]
        while frontier:
            x = frontier.pop()
            for y in list(reached):
                for z in (int(t[x, y]), int(t[y, x])):
                    if z not in reached:
                        reached.add(z)
                        frontier.append(z)
        if k == len(gens):
            break
        # each further generator is the least element the earlier ones miss
        assert gens[k] == min(set(range(len(t))) - reached)
        reached.add(gens[k])
        frontier.append(gens[k])
    assert reached == set(range(len(t)))


# every table of PROPAGATION_CASES
@pytest.mark.parametrize("side", ["right", "left"])
@pytest.mark.parametrize("m", [5, 7, 8, 10, 12, 13, 14, 20, 26, 52])
def test_greedy_generators_match_reference(m, side):
    mult = _table(m, side)
    assert isomorphism._greedy_generators(mult) == reference_greedy_generators(mult)


def test_search_finds_the_witness_at_404_with_the_cap_lifted(monkeypatch):
    # P(D_404) and L(D_404) have 10504 elements each, above the cap; lifted
    # for this one case, the search backtracks through 2058 nodes to a
    # witness that must hold on all n^2 pairs
    g = GroupParams.from_modulus(404)
    s1, s2 = close_pairs("right", g), close_pairs("left", g)
    assert s1.size == s2.size == 10504 > isomorphism.ISO_ELEMENT_LIMIT
    monkeypatch.setattr(isomorphism, "ISO_ELEMENT_LIMIT", s1.size)
    res = search_isomorphism(s1, s2)
    assert (res.status, res.nodes) == (IsoStatus.ISOMORPHIC, 2058)
    perm = np.array(_witness_images(res, s1, s2), dtype=np.int32)
    assert sorted(perm.tolist()) == list(range(s1.size))
    assert reference_preserves_products(perm, _table(404, "right"), _table(404, "left"))


def test_pairs_bound():
    with pytest.raises(ResourceLimitError):
        close_pairs("right", GroupParams.from_modulus(5000))


def test_raw_decode_matches_formula_sizes():
    for m in (5, 8, 12):
        g = GroupParams.from_modulus(m)
        for side in ("right", "left"):
            raw = close_raw(side, g)
            assert raw.size == order_central_series(side, g)
            assert len(canonicalized_elements(raw, g)) == raw.size

