"""Isomorphism search between two closed commutation semigroups.

search_isomorphism decides whether two small semigroups are isomorphic by
backtracking over images of a greedy generating set, pruned by a joint
colour refinement.  It reads every product from a scale-factored table: the
composition rule makes x * y depend only on x and the scale of y, so the
multiplication is an n x s int32 table T over the s distinct scales plus
each element's scale column sig, with x * y = T[x, sig[y]] (_scale_table).

Every step past the table is factored through scales or row types.  Colour
refinement first compares the row spans of the two tables, one sort of T
each, and refutes the pair there when their multisets differ, before the
other initial colours (column span, and index and period from one walk of
powers per scale) are computed.  The stamp of x depends on x only through
its row type: its scale, its colour and the colours of its products x * y.
So each round finds the distinct row types in one sort, stamps each type
against every type, weighted by the elements of the other type, and interns
one stamp per type, not per element: |R|^2 work for |R| row types, quadratic
in n only when every element has a type of its own.  The greedy generating
set absorbs each generator in one gather: the subsemigroup that generators G
generate is G ∪ T[G, W], W the columns that their scale columns generate in
the s x s table of scale products.  Each choice of image is closed under
products in semi-naive frontier rounds: a pair forced by f * d depends on d
only through its scale pair (sig1[d], sig2[phi[d]]), and the partial map
keeps the distinct scale pairs of its domain up to date.  So a round gathers
the frontier against all of those pairs and the older domain only against
the pairs the frontier adds, |F| p + |D_old| p_new entries, in one semigroup
and at the images in the other, and finds every conflict before any pair is
written, without a sort, by scattering the forced images into a copy of the
map and reading them back.  A round whose frontier adds no scale pair is the
last: the pairs are then closed under products, and the products it gathered
are all the closure still lacks.  Both shortcuts need associative tables in
which the scale of a product depends only on the scales of its factors, as
every _scale_table is.  The leaf check compares one column pair per distinct
scale pair (sig1[y], sig2[phi[y]]), which still covers all n^2 pairs (x, y).
Definite answers are sound (witnesses are verified on all n^2 pairs,
refusals come from exhaustion) and an exhausted node budget is reported as
such, never guessed around.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator

import numpy as np

from .closure import canonicalized_elements, close_pairs
from .dihedral import GroupParams
from .errors import ConsistencyError, ResourceLimitError
from .mumaps import CanonicalMap, shift_modulus
from .raw import _CHUNK_BYTES, SemigroupSummary, _distinct

ISO_ELEMENT_LIMIT = 4096
DEFAULT_SEARCH_BUDGET = 10_000_000


def verify_iso_map(g: GroupParams, image_rule: Callable[[int, int], tuple[int, int]]) -> bool:
    """Whether the parameter rule is an isomorphism from the right onto the
    left semigroup: a bijection that preserves every product."""
    sm = shift_modulus(g.m)
    source = close_pairs("right", g).elements
    target = close_pairs("left", g).elements
    _check_iso_size(max(len(source), len(target)))
    images = np.array(
        [CanonicalMap(*image_rule(*divmod(k, sm)), g.m).key for k in source.tolist()],
        dtype=np.int64,
    )
    # a bijection onto the target exactly when the sorted images are the target
    if not np.array_equal(np.sort(images), target):
        return False
    perm = np.searchsorted(target, images).astype(np.int32)
    return _preserves_products(
        perm, _scale_table(source, g.m, "right"), _scale_table(target, g.m, "left")
    )


class IsoStatus(Enum):
    ISOMORPHIC = "isomorphic_with_witness"
    NOT_ISOMORPHIC = "not_isomorphic"
    BUDGET_EXHAUSTED = "budget_exhausted"


@dataclass(frozen=True, slots=True)
class IsoSearchResult:
    """The verdict and the search nodes it took.  A found witness is kept
    undecoded, as (keys1, m1, keys2, m2, image): the sorted keys of both
    semigroups, their moduli, and the index image[x] of the image of keys1[x]
    in keys2.  witness decodes it into CanonicalMaps on each read, since most
    callers read only the verdict."""

    status: IsoStatus
    nodes: int
    found: tuple[list[int], int, list[int], int, list[int]] | None = None

    @property
    def witness(self) -> dict[CanonicalMap, CanonicalMap] | None:
        if self.found is None:
            return None
        keys1, m1, keys2, m2, image = self.found
        decode = CanonicalMap.from_key
        return {decode(keys1[x], m1): decode(keys2[w], m2) for x, w in enumerate(image)}


def _check_iso_size(n: int) -> None:
    """Refuse an isomorphism search or check over n elements above the cap,
    before any product table is built."""
    if n > ISO_ELEMENT_LIMIT:
        raise ResourceLimitError(
            f"isomorphism search limited to {ISO_ELEMENT_LIMIT} elements, got {n}"
        )


def _scale_table(keys: np.ndarray, m: int, side: str) -> tuple[np.ndarray, np.ndarray]:
    """The multiplication of the sorted int64 CanonicalMap keys, factored
    through scales.

    Composition multiplies both parameters of the left factor by the scale of
    the right factor, so x * y depends only on x and the scale of y.  Returns
    (T, sig): T[x, c] is the index of x * (any key of scale u[c]), for the s
    distinct scales u of the keys, and sig[y] is the column of y's scale, so
    x * y = T[x, sig[y]] and every column is some element's.  The key of x
    times scale u, (scale(x) u mod m) sm + shift(x) u mod sm, is read from an
    s x s table by x's scale and an sm x s table by its shift.  Raises if a
    product is not among the keys.  int32 holds any key: n <= m * sm < 2**31,
    sm = shift_modulus(m).  Any n x n table t is the pair (t, arange(n)).
    """
    sm = shift_modulus(m)
    keys = np.asarray(keys, dtype=np.int64)
    scales, shifts = np.divmod(keys, sm)
    u, sig = np.unique(scales, return_inverse=True)
    lookup = np.full(m * sm, -1, dtype=np.int32)
    lookup[keys] = np.arange(len(keys))
    by_scale = (u[:, None] * u % m * sm).astype(np.int32)
    by_shift = (np.arange(sm)[:, None] * u % sm).astype(np.int32)
    table = lookup[by_scale[sig] + by_shift[shifts]]
    if (table < 0).any():
        raise ConsistencyError(
            f"m={m} side={side} stage=_scale_table: element set is not closed under composition"
        )
    return table, sig


def _scale_pairs(mult1, mult2, xs: np.ndarray, ws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct scale pairs (sig1[x], sig2[w]) over the pairs (xs[i],
    ws[i]), as two arrays of columns: (c1[j], c2[j]) is the j-th pair."""
    (_, sig1), (t2, sig2) = mult1, mult2
    width = t2.shape[1]
    return np.divmod(_distinct(sig1[xs].astype(np.int64) * width + sig2[ws]), width)


def _preserves_products(perm: np.ndarray, mult1, mult2) -> bool:
    """Whether x -> perm[x] carries every product of mult1 to the product in
    mult2, over all n^2 pairs (x, y).

    x * y = T1[x, sig1[y]] and perm[x] * perm[y] = T2[perm[x], sig2[perm[y]]]
    depend on y only through its scale pair (sig1[y], sig2[perm[y]]), so
    comparing perm[T1[:, c1]] with T2[perm, c2] once for each distinct pair
    (c1, c2) covers every pair (x, y): O(n p) work for p distinct pairs.
    The pairs are compared a block at a time, so no temporary exceeds
    _CHUNK_BYTES."""
    (t1, _), (t2, _) = mult1, mult2
    c1, c2 = _scale_pairs(mult1, mult2, np.arange(len(perm)), perm)
    step = max(1, _CHUNK_BYTES // (4 * len(perm)))  # pairs of int32 product columns
    for lo in range(0, len(c1), step):
        pairs = slice(lo, lo + step)
        if not np.array_equal(perm[t1[:, c1[pairs]]], t2[perm[:, None], c2[pairs]]):
            return False
    return True


def _scale_products(mult) -> np.ndarray:
    """The s x s multiplication of the scale columns: entry [c, a] is the
    column of u_c * u_a, read from the row of any element of scale column c,
    on a table in which the scale of a product depends only on the scales of
    its factors, as in every _scale_table."""
    table, sig = mult
    some = np.empty(table.shape[1], dtype=np.intp)
    some[sig] = np.arange(len(sig))
    return sig[table[some]]


def _monogenic_profiles(mult) -> np.ndarray:
    """(index, period) of every element x: the least i and p >= 1 with
    x^i = x^(i+p), on an associative table in which the scale of a product
    depends only on the scales of its factors, as in every _scale_table.

    Then x^k = x * x^(k-1) = T[x, c_(k-1)] for k >= 2, c_j the column of u^j
    for x's scale u.  So x^i = x^(i+p) forces c_i = c_(i+p), and c_(i-1) =
    c_(i-1+p) implies it: x has the period p_a of its scale column a, and
    index i_a + [x^(i_a) != x^(i_a+p_a)].  One walk of the powers of each
    column in the s x s scale table gives (i_a, p_a)."""
    table, sig = mult
    n, s = len(sig), table.shape[1]
    scale = _scale_products(mult).tolist()
    walks = []
    for a in range(s):
        # powers[j] is the column of u_a^(j+1), walked until one repeats
        seen: dict[int, int] = {}
        powers, c = [], a
        while c not in seen:
            seen[c] = len(powers)
            powers.append(c)
            c = scale[c][a]
        # i_a, p_a, then the columns giving x^(i_a) when i_a > 1 and x^(i_a+p_a)
        walks.append((seen[c] + 1, len(powers) - seen[c], powers[seen[c] - 1], powers[-1]))
    index, period, below, last = np.array(walks, dtype=np.int64)[sig].T
    rows = np.arange(n)
    low = np.where(index == 1, rows, table[rows, below])
    return np.column_stack([index + (low != table[rows, last]), period])


def _distinct_counts(table: np.ndarray, axis: int) -> np.ndarray:
    """Number of distinct entries in each row (axis=1) or column (axis=0)."""
    ordered = np.moveaxis(np.sort(table, axis=axis), axis, -1)
    return 1 + np.count_nonzero(ordered[:, 1:] != ordered[:, :-1], axis=1)


def _initial_signatures(mult, row_spans: np.ndarray) -> np.ndarray:
    """One row per element: monogenic index, period, row span and column
    span.  x is idempotent exactly when its index and period are both 1, so
    no column of its own is needed.  Every column of T is some element's, so
    a row of T holds the distinct products of its row, and the column span
    of y is that of its scale column.  row_spans is _distinct_counts(T, 1),
    which _refine_colors has already computed."""
    table, sig = mult
    return np.column_stack([_monogenic_profiles(mult), row_spans, _distinct_counts(table, 0)[sig]])


def _row_types(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a 2-d array, numbered by first occurrence, as
    (first, kind): first[k] is the index of the first row of type k, so
    first is increasing, and kind[x] is the type of row x.  One stable sort
    of the rows as void scalars groups equal rows, each group led by its
    first row."""
    rows = np.ascontiguousarray(rows)
    flat = rows.view(f"V{rows.itemsize * rows.shape[1]}").ravel()
    order = np.argsort(flat, kind="stable")
    ordered = flat[order]
    lead = np.ones(len(flat), dtype=bool)
    lead[1:] = ordered[1:] != ordered[:-1]
    leaders = order[lead]
    rank = np.empty(len(leaders), dtype=np.intp)
    rank[np.argsort(leaders)] = np.arange(len(leaders))
    kind = np.empty(len(flat), dtype=np.intp)
    kind[order] = rank[np.cumsum(lead) - 1]
    return np.sort(leaders), kind


def _shared_colors(typed1, typed2) -> tuple[np.ndarray, np.ndarray, int]:
    """Dense colours for the elements of both semigroups from one shared
    palette, so equal stamps get equal colours across the pair.

    Each side is (stamps, kind): kind[x] is the type of element x, types
    numbered by first occurrence, and stamps holds one row per type in that
    order.  So each distinct row is interned once, not once per element, and
    the colours are still numbered by first occurrence over the elements of
    the first semigroup, then of the second."""
    palette: dict[bytes, int] = {}
    cols = []
    for stamps, kind in (typed1, typed2):
        colour = [palette.setdefault(row.tobytes(), len(palette)) for row in stamps]
        cols.append(np.asarray(colour, dtype=np.int64)[kind])
    return cols[0], cols[1], len(palette)


def _stamps(mult, col: np.ndarray, width: int) -> tuple[Iterator[np.ndarray], np.ndarray]:
    """The refinement stamps of the elements, one per row type, as (stamps,
    kind): kind[x] is the type of x, types numbered by first occurrence, and
    stamps yields the stamp of each type in that order.  The stamp of x is
    col[x], then the sorted distinct codes (col[y] * width + col[x*y]) *
    width + col[y*x] over all y, then how many y give each code.  Two stamps
    are equal exactly when col[x] and the multisets of codes are.

    x*y = T[x, sig[y]] and y*x = T[y, sig[x]], so an element enters the
    stamps, its own and those of others, only through its row type (sig[x],
    col[x], colored[x]), where colored[x, c] = col[T[x, c]] is the colour of
    x times any element of scale c.  One sort of the n rows finds the |R|
    types, and everything after works on the types: the code of y in the
    stamp of x depends only on the type q of y and the type r of x, as
    (col_q * width + colored[r, sig_q]) * width + colored[q, sig_r], and
    occurs once for each element of type q.  So the stamp of a type reads
    each type once and merges equal codes by adding their counts: |R|^2
    codes in all, for |R| row types.

    The codes stay below width**3, so int64 holds them for width < 2**21,
    whatever s is; width is at most the 2n colours of both semigroups.  The
    rows are n x (s + 2) int32, which holds every scale column and colour.
    The stamps are built a block of types at a time, so each block's codes,
    one per pair of types, fit _CHUNK_BYTES.
    """
    table, sig = mult
    # x's row is sig[x], col[x], then colored[x]
    row_keys = np.empty((len(sig), 2 + table.shape[1]), dtype=np.int32)
    row_keys[:, 0] = sig
    row_keys[:, 1] = col
    row_keys[:, 2:] = col.astype(np.int32)[table]
    first, kind = _row_types(row_keys)
    types = len(first)
    weight = np.bincount(kind)
    type_sig, type_col = sig[first], col[first]
    colored = row_keys[first, 2:]  # colored[r, sig[y]] is the colour of x * y, x of type r
    del row_keys
    step = max(1, _CHUNK_BYTES // (8 * types))  # types of int64 codes

    def stamps() -> Iterator[np.ndarray]:
        for lo in range(0, types, step):
            rows = np.arange(lo, min(lo + step, types))
            # codes[i, q]: y of type q in the stamp of x of type rows[i]
            codes = (type_col * width + colored[rows][:, type_sig]) * width
            codes += colored[:, type_sig[rows]].T
            order = np.argsort(codes, axis=1)
            codes = np.take_along_axis(codes, order, axis=1)
            # merge equal codes within a row
            first_code = np.ones(codes.shape, dtype=bool)
            first_code[:, 1:] = codes[:, 1:] != codes[:, :-1]
            at = np.flatnonzero(first_code)
            tally = np.add.reduceat(weight[order].ravel(), at)
            owner, codes = at // types, codes.ravel()[at]
            # row i is col[x], its codes, then their counts
            length = np.bincount(owner, minlength=len(rows))
            ends = np.cumsum(1 + 2 * length)
            begin = ends - 1 - 2 * length
            within = np.arange(len(owner)) - (np.cumsum(length) - length)[owner]
            flat = np.empty(ends[-1], dtype=np.int64)
            flat[begin] = type_col[rows]
            flat[begin[owner] + 1 + within] = codes
            flat[begin[owner] + 1 + length[owner] + within] = tally
            yield from (flat[a:b] for a, b in zip(begin.tolist(), ends.tolist()))

    return stamps(), kind


def _refine_colors(mult1, mult2):
    """Joint colour refinement of the two multiplications.

    Colours are interned in one shared palette so they are comparable across
    the pair; any isomorphism must preserve them.  Returns the stable colour
    arrays and the column spans of the first semigroup's elements, which
    order the search's generators, or None as soon as the colour multisets
    separate.

    The row spans, one sort of T each, are compared first: the multisets of
    the initial signatures can only agree if those of every column do, so
    differing row spans refute the pair before the monogenic walk or any
    interning.  Otherwise the initial signatures reuse them, and each round
    interns one stamp per row type (_stamps), not one per element.
    """
    spans1, spans2 = _distinct_counts(mult1[0], 1), _distinct_counts(mult2[0], 1)
    if not np.array_equal(np.sort(spans1), np.sort(spans2)):
        return None
    typed = []
    for mult, spans in ((mult1, spans1), (mult2, spans2)):
        signatures = _initial_signatures(mult, spans)
        first, kind = _row_types(signatures)
        typed.append((signatures[first], kind))
    # the first semigroup's column spans, the last column of its signatures
    (types1, kind1), _ = typed
    column_span = types1[kind1, -1]
    col1, col2, count = _shared_colors(*typed)
    while True:
        if (np.bincount(col1, minlength=count) != np.bincount(col2, minlength=count)).any():
            return None
        new1, new2, new_count = _shared_colors(
            _stamps(mult1, col1, count), _stamps(mult2, col2, count)
        )
        if new_count == count:
            return col1, col2, column_span
        col1, col2, count = new1, new2, new_count


def _greedy_generators(mult) -> list[int]:
    """A small generating set: every irreducible element (one that is not a
    product of any two elements) must be a generator; greedy absorption then
    adds the least element outside the subsemigroup generated so far, until
    there is none.  Every column of T is some element's, so the entries of T
    are exactly the products.

    The table must be associative, with the scale of a product depending
    only on the scales of its factors, as in every _scale_table.  Then a
    product of generators g * y1 * ... * yk is T[g, c] for c the product of
    the scales of the y's, so the subsemigroup generated by G is G ∪ T[G, W],
    W the columns that the scale columns of G generate in the s x s scale
    table (_scale_products).  Absorbing x closes W with x's column, in
    semi-naive rounds over that small table, and gathers x against all of W
    and the earlier generators only against the columns new to W: one gather
    per generator, not rounds over every member."""
    table, sig = mult
    n, s = len(sig), table.shape[1]
    scale = _scale_products(mult)
    reducible = np.zeros(n, dtype=bool)
    reducible[table.ravel()] = True
    gens = np.flatnonzero(~reducible).tolist()
    # inside marks the subsemigroup generated so far, in_w the columns W
    inside = ~reducible
    in_w = np.zeros(s, dtype=bool)

    def close(cols: np.ndarray) -> np.ndarray:
        # add cols to W and close it; returns the columns new to W
        added, new = [], cols[~in_w[cols]]
        while len(new):
            in_w[new] = True
            added.append(new)
            w = np.flatnonzero(in_w)
            fresh = np.zeros(s, dtype=bool)
            fresh[scale[new[:, None], w]] = True
            fresh[scale[w[:, None], new]] = True
            new = np.flatnonzero(fresh & ~in_w)
        return np.concatenate(added) if added else cols[:0]

    close(_distinct(sig[gens]))
    w = np.flatnonzero(in_w)
    inside[table[np.array(gens, dtype=np.intp)[:, None], w]] = True
    while True:
        x = int(np.argmin(inside))
        if inside[x]:
            return gens
        added = close(sig[x : x + 1])
        if len(added):
            w = np.flatnonzero(in_w)
            inside[table[np.array(gens, dtype=np.intp)[:, None], added]] = True
        inside[x] = True
        inside[table[x, w]] = True
        gens.append(x)


class _PartialIso:
    """A partial injective map phi from the elements of one semigroup to those
    of another that preserves colours and is closed under products: its
    domain is a subsemigroup and phi[x * y] = phi[x] * phi[y] on it.  Each
    multiplication is a scale-factored pair (T, sig), x * y = T[x, sig[y]]
    (_scale_table).  A scale pair (c1, c2) is coded as c1 * s2 + c2, s2 the
    number of scale columns of the second table.  Both tables must be
    associative, with the scale of a product depending only on the scales
    of its factors, as in every _scale_table: extend stops its closing
    rounds on that ground."""

    def __init__(self, mult1, mult2, col1: np.ndarray, col2: np.ndarray):
        self.mult1, self.mult2, self.col1, self.col2 = mult1, mult2, col1, col2
        self.phi = np.full(len(col1), -1, dtype=np.int32)
        self.used_by = np.full(len(col2), -1, dtype=np.int32)
        # domain[:size] holds the assigned elements in assignment order
        self.domain, self.size = np.empty(len(col1), dtype=np.int32), 0
        # pairs[:npairs] holds the distinct scale pairs (sig1[d], sig2[phi[d]])
        # of the domain in first-appearance order, at most one per element, and
        # paired marks them; pairs_at[k] is npairs when a round began at size k
        self.pairs, self.npairs = np.empty(len(col1), dtype=np.int64), 0
        self.paired = np.zeros(mult1[0].shape[1] * mult2[0].shape[1], dtype=bool)
        self.pairs_at = [0] * (len(col1) + 1)

    def extend(self, x: int, w: int) -> bool:
        """Map the unassigned x to w and close under products, in frontier
        rounds: each round composes the elements the last round assigned with
        the whole domain, both ways, in the first semigroup and at their
        images in the second (_forced).  Every proposed pair is forced, so
        the closure is the unique homomorphic extension whatever the order;
        on any conflict the map is restored and False returned.  Two new
        pairs with one image show when used_by is read back after the writes.

        A round whose frontier adds no scale pair is the last: its forced
        images are assigned and checked, but not gathered again.  Write
        pair(x) for (sig1[x], sig2[phi[x]]) and * for the product of pairs
        taken one coordinate at a time, so pair(x * y) = pair(x) * pair(y).
        Earlier rounds put every product of two older elements domain[:lo]
        into the domain, so when the frontier brings no new pair, the pairs
        Q of the domain X are closed under *.  By associativity a product
        x * y1 * ... * yk is then T1[x, c1], with image T2[phi[x], c2], for
        (c1, c2) = pair(y1) * ... * pair(yk) in Q: X generates X ∪ T1[X, Q].
        The round gathered the frontier against Q and the older products are
        in X, so nothing is left to force, and the forced elements' pairs are
        in Q, so the tracked pairs stay current.  The first round is the last
        when (x, w) brings a scale pair the domain already has."""
        start = self.size
        xs, ws = np.array([x]), np.array([w])
        closed = False
        while len(xs):
            # a new image must be unused and of the same colour
            if (self.used_by[ws] >= 0).any() or (self.col1[xs] != self.col2[ws]).any():
                self.undo(start)
                return False
            lo, self.size = self.size, self.size + len(xs)
            self.phi[xs] = ws
            self.used_by[ws] = xs
            self.domain[lo : self.size] = xs
            if (self.used_by[ws] != xs).any():
                self.undo(start)
                return False
            if closed:
                break
            forced = self._forced(lo)
            if forced is None:
                self.undo(start)
                return False
            xs, ws = forced
            # no new scale pair: these forced images close the domain
            closed = self.npairs == self.pairs_at[lo]
        return True

    def _forced(self, lo: int) -> tuple[np.ndarray, np.ndarray] | None:
        """The unassigned elements xs, increasing, and the images ws that
        products of the frontier domain[lo:size] with the domain force on
        them, or None when a product contradicts phi or gets two images.  A
        product x * d forces (T1[x, sig1[d]], T2[phi[x], sig2[phi[d]]]),
        which depends on d only through its scale pair.  So the frontier is
        gathered against every scale pair of the domain, and the older
        domain[:lo] only against the pairs the frontier adds: for an older y
        and a frontier f whose pair some older d has, y * f forces what y * d
        forced in an earlier round.  Scattered into a copy of phi, an x forced
        to two images reads back the other, and an assigned x forced to
        another image changes its entry.  The frontier's new pairs are added
        to pairs and paired, and pairs_at[lo] keeps the count before them,
        so npairs == pairs_at[lo] tells extend that the round added none."""
        (t1, sig1), (t2, sig2) = self.mult1, self.mult2
        width = t2.shape[1]
        frontier, older = self.domain[lo : self.size], self.domain[:lo]
        self.pairs_at[lo] = had = self.npairs
        codes = sig1[frontier] * width + sig2[self.phi[frontier]]
        new = codes[~self.paired[codes]]
        if len(new):
            fresh = np.zeros_like(self.paired)
            fresh[new] = True
            new = np.flatnonzero(fresh)
            self.paired[new] = True
            self.npairs = had + len(new)
            self.pairs[had : self.npairs] = new
        xs, ws = [], []
        for left, pairs in ((frontier, self.pairs[: self.npairs]), (older, new)):
            if len(pairs):
                c1, c2 = np.divmod(pairs, width)
                xs.append(t1[left[:, None], c1].ravel())
                ws.append(t2[self.phi[left][:, None], c2].ravel())
        xs, ws = np.concatenate(xs), np.concatenate(ws)
        trial = self.phi.copy()
        trial[xs] = ws
        if (trial[xs] != ws).any():
            return None
        xs = np.flatnonzero(trial != self.phi)
        if (self.phi[xs] >= 0).any():
            return None
        return xs, trial[xs]

    def undo(self, start: int) -> None:
        """Unassign everything assigned after the first start elements;
        start is a size the domain had between two calls of extend."""
        xs = self.domain[start : self.size]
        if len(xs):
            # an extend's first round began at start, so its record of the
            # pairs is current
            had = self.pairs_at[start]
            self.paired[self.pairs[had : self.npairs]] = False
            self.npairs = had
        self.used_by[self.phi[xs]] = -1
        self.phi[xs] = -1
        self.size = start


def search_isomorphism(
    s1: SemigroupSummary, s2: SemigroupSummary, budget: int = DEFAULT_SEARCH_BUDGET
) -> IsoSearchResult:
    """Decide whether two closed semigroups are isomorphic.

    Backtracks over colour-compatible images of a generating set of s1.  Both
    multiplications are scale-factored tables (T, sig), x * y = T[x, sig[y]]
    (_scale_table), built only after the size cap admits the search; no n x n
    table is built at all.  The generators are the irreducible elements, then
    greedily the least element not yet generated, each absorbed in one
    gather (_greedy_generators).  Every choice is closed under products in
    frontier rounds (_PartialIso.extend) and any conflict is refused in whole
    arrays.  A product of a frontier element with a domain element depends on
    the latter only through its scale pair (its scale column and that of its
    image), so a round gathers the frontier against the p distinct scale
    pairs of the domain and the older domain against the p_new pairs the
    frontier adds, if any: |F| p + |D_old| p_new forced pairs, not 2 |F| |D|;
    p = s at every witness measured.  The round finds conflicts and new pairs
    without a sort.  A round that adds no scale pair is the last, since the
    domain's pairs are then closed under products; an image whose scale pair
    the domain already has is closed in one round.
    That closure is the unique homomorphic extension of the chosen images, so
    neither it nor the node count depends on the order in which products are
    examined.  The backtracking runs over an explicit stack with one entry per
    open choice (position in the generator order, the images still free when
    the choice opened, domain size before the choice), and generators whose
    image is already forced take no entry, so its depth is bounded by the
    generating set, not by Python's recursion limit.  A returned witness has
    been verified on all n^2 element pairs, by one comparison of product
    columns per distinct scale pair (_preserves_products); a not_isomorphic
    verdict means the colour-pruned search space was exhausted, which is
    complete because colours are isomorphism-invariant.
    """
    if s1.size != s2.size:
        return IsoSearchResult(IsoStatus.NOT_ISOMORPHIC, 0)
    e1 = canonicalized_elements(s1, GroupParams.from_modulus(s1.m))
    e2 = canonicalized_elements(s2, GroupParams.from_modulus(s2.m))
    n = len(e1)

    def witness(image: list[int]) -> tuple:
        return e1.tolist(), s1.m, e2.tolist(), s2.m, image

    if s1.m == s2.m and np.array_equal(e1, e2):
        # same element set under the same composition rule: identity works
        return IsoSearchResult(IsoStatus.ISOMORPHIC, 0, witness(list(range(n))))
    _check_iso_size(n)
    mult1 = _scale_table(e1, s1.m, s1.side)
    mult2 = _scale_table(e2, s2.m, s2.side)
    colors = _refine_colors(mult1, mult2)
    if colors is None:
        return IsoSearchResult(IsoStatus.NOT_ISOMORPHIC, 0)
    col1, col2, column_span = colors
    gens = _greedy_generators(mult1)
    candidates: dict[int, np.ndarray] = {}
    for gi in gens:
        # refinement returned, so every colour of s1 also occurs in s2
        cands = np.flatnonzero(col2 == col1[gi])
        if s1.m == s2.m:
            # the same key first, then the rest in index order
            cands = cands[np.argsort(e2[cands] != e1[gi], kind="stable")]
        candidates[gi] = cands
    # assign the most constraining generators first: a large left-ideal means
    # many forced images per assignment, so conflicts surface early
    column_span = column_span.tolist()
    order = sorted(gens, key=lambda gi: (-column_span[gi], len(candidates[gi]), gi))

    partial = _PartialIso(mult1, mult2, col1, col2)
    phi, used_by = partial.phi, partial.used_by
    nodes = 0
    stack: list[tuple[int, Iterator[int], int]] = []
    k = 0
    while True:
        # generators whose image is already forced take no stack entry
        while k < len(order) and phi[order[k]] >= 0:
            k += 1
        if k < len(order):
            # every undo(mark) restores used_by to its state now, so the
            # images free now are exactly the ones each retry may take
            cands = candidates[order[k]]
            stack.append((k, iter(cands[used_by[cands] < 0].tolist()), partial.size))
        elif partial.size == n and _preserves_products(phi, mult1, mult2):
            return IsoSearchResult(IsoStatus.ISOMORPHIC, nodes, witness(phi.tolist()))
        # advance the deepest open choice to its next unused image
        while stack:
            k, untried, mark = stack[-1]
            partial.undo(mark)
            w = next(untried, None)
            if w is None:
                stack.pop()
                continue
            nodes += 1
            if nodes > budget:
                return IsoSearchResult(IsoStatus.BUDGET_EXHAUSTED, nodes)
            if partial.extend(order[k], w):
                break
        if not stack:
            return IsoSearchResult(IsoStatus.NOT_ISOMORPHIC, nodes)
