"""The raw-table oracle: semigroup closure over literal function tables.

close_raw composes literal function tables read off the group's Cayley table
and never touches the parameter calculus: from this package it imports only
the group itself and the errors.  close_pairs (closure.py) closes canonical
(scale, shift) pairs under the composition rule.  The two must agree
wherever both run, which is the central correctness check of the package.

close_raw closes the tables as G u G.W, the raw twin of close_pairs, by one
fact about any transformation semigroup (in the spirit of Froidure and Pin):
every generator maps into U, the union of the generators' images, and so
maps U into U.  A product g0 g1 ... gk ("g0 then g1 ... then gk") therefore
reads g1 ... gk on U only, and there it is the product of the restrictions
g1|U ... gk|U.  The closure is the generators G and every "g then w" for g
in G and w in W, the semigroup the restrictions generate.  W is small (at
most 111 tables of |U| entries for m <= 128) and is closed by a worklist
over its tables as bytes.  The generators' right Cayley graph, one edge
"g then h" for each g and each distinct restriction h, tells which
generators need W at all: a generator whose edges all end in G adds
nothing that the others do not, so only the rest, A, is composed with W,
a bounded block of A at a time (_blocks).  Every table is uint8, from the
commutator table, gathered once per modulus for both sides, to the closed
store that close_raw returns.  Dedup is exact and happens once, over the
generators and all of A.W: each table is one void scalar, so sorting and
searching compare whole tables byte for byte, and sorted tables are told
apart by comparing them as matrices of machine words (_changes).

Each oracle holds its elements in one read-only numpy array
(SemigroupSummary), and the array's rank tells which oracle closed it:
sorted CanonicalMap keys (1-D) for the pair oracle, and the uint8 image
tables (2-D), one row per element, for the raw oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from .dihedral import GroupParams, cayley_table, check_side
from .errors import RAW_MODULUS_LIMIT, check_limit

# bytes in one temporary array of a chunked numpy step
_CHUNK_BYTES = 1 << 20


def _blocks(count: int, item_bytes: int) -> Iterator[slice]:
    """The slices of range(count), in order, as long as their items of
    item_bytes each fit _CHUNK_BYTES, and at least one item long."""
    step = max(1, _CHUNK_BYTES // item_bytes)
    return (slice(lo, min(lo + step, count)) for lo in range(0, count, step))


@dataclass(frozen=True, slots=True, eq=False)
class SemigroupSummary:
    """One closed commutation semigroup: its modulus, side, number of
    distinct generators and elements.

    elements is a read-only array whose rank tells the oracle that closed
    it: a 1-D array of sorted int64 CanonicalMap keys for the pair oracle
    (decode with CanonicalMap.from_key), and a 2-D (n, 2m) uint8 array of
    image tables, one row per element, in byte order, for the raw oracle
    (decode with canonicalized_elements).
    """

    m: int
    side: str
    generator_count: int
    elements: np.ndarray

    def __post_init__(self) -> None:
        elements = np.asarray(self.elements).view()
        elements.flags.writeable = False
        object.__setattr__(self, "elements", elements)

    @property
    def size(self) -> int:
        return len(self.elements)


@lru_cache(maxsize=1)
def _commutator_table(g: GroupParams) -> np.ndarray:
    """comm[x, y] = [x, y] as one read-only uint8 table, gathered by one
    flat np.take from a uint8 copy of the Cayley table as (x^-1 y^-1)(xy).
    Every commutator is a rotation, at an index below m, so the entries
    gathered fit in uint8 while m <= 256, twice RAW_MODULUS_LIMIT.  Both
    sides of one modulus run in turn, so one cache entry builds each table
    once."""
    mul, inv = cayley_table(g)
    comm = np.take(mul.astype(np.uint8), mul[inv][:, inv] * len(inv) + mul)
    comm.flags.writeable = False
    return comm


def _commutator_tables(side: str, g: GroupParams) -> np.ndarray:
    """Row y is the table of x -> [x, y] (right) or of x -> [y, x] (left):
    the read-only uint8 commutator table of the group, transposed for the
    right side."""
    comm = _commutator_table(g)
    return comm.T if side == "right" else comm


def close_raw(side: str, g: GroupParams) -> SemigroupSummary:
    """Close the commutation maps under composition of raw function tables.

    The generators are the distinct commutator tables, looked up in the
    group's Cayley table; the closure is every product of one or more of
    them, G u G.W (_close_tables).  Nothing here knows about map parameters.
    """
    check_side(side)
    check_limit("raw closure", "m", g.m, RAW_MODULUS_LIMIT)
    store = _distinct_rows(_commutator_tables(side, g))
    return SemigroupSummary(g.m, side, len(store), _close_tables(store))


def _distinct(values: np.ndarray) -> np.ndarray:
    """The sorted distinct entries of a 1-d integer or void array, by one
    sort and a mask of changes between neighbours (_changes; a plain
    np.unique imports numpy.ma on first use, about 12 ms)."""
    ordered = np.sort(values)
    keep = np.ones(len(ordered), dtype=bool)
    keep[1:] = _changes(ordered[1:], ordered[:-1])
    return ordered[keep]


def _changes(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Whether each entry of a differs from the entry at the same place in
    b, for two equal-length 1-d integer or void arrays of one dtype;
    _changes(ordered[1:], ordered[:-1]) marks where the entries of a sorted
    array change.  The entries are read as matrices of the widest unsigned
    word that divides them, which numpy compares up to four times faster
    than void scalars on the rows sorted here."""
    k = math.gcd(a.dtype.itemsize, 8)
    words = a.dtype.itemsize // k
    return (a.view(f"u{k}").reshape(-1, words) != b.view(f"u{k}").reshape(-1, words)).any(axis=1)


def _distinct_rows(tables: np.ndarray) -> np.ndarray:
    """The distinct rows of a 2-D uint8 array in byte order, each as one
    void scalar, so that sorting and searching read whole rows byte for
    byte: _distinct of the rows as void scalars."""
    tables = np.ascontiguousarray(tables)
    return _distinct(tables.view(f"V{tables.shape[1]}").ravel())


def _then(images: np.ndarray, gens: np.ndarray) -> np.ndarray:
    """Entry i * c + j is the table "g_i then f_j" as one void scalar, for
    the tables g_i, the rows of gens (b x n, intp), and c maps f_j given on
    the points that the g_i reach, as the columns of images (n x c): g_i
    then f_j sends x to images[g_i[x], j].  One gather of whole rows of
    images, then one transposing copy."""
    n = gens.shape[1]
    products = np.take(images, gens, axis=0).transpose(0, 2, 1)
    return np.ascontiguousarray(products).view(f"V{n}").reshape(-1)


def _close_tables(store: np.ndarray) -> np.ndarray:
    """Every product of one or more of the generator tables, one uint8 table
    per row, in byte order.  store holds the generators as _distinct_rows
    returns them: distinct, in byte order, each one void scalar.

    Every generator maps into U, the union of the generators' images, so the
    products are G u G.W: the generators, and "g then w" for every generator
    g and every w in W, the semigroup generated by the r distinct
    restrictions h = gens[:, U].  W is closed by a worklist over its tables
    as bytes, each entry a position in U: "w then h" is w.translate(h), since
    (w then h)[a] = h[w[a]].

    Most of G.W is G again.  The right Cayley graph of the generators joins
    each g to "g then h" for each h; X is the set of generators whose r
    edges all end in G, and A the rest.  For g in X, "g then w" lies in G or
    in A.W: with w = h1 h2 ... hk and k > 1, it is "g' then h2 ... hk" for
    the generator g' = "g then h1", and induction over k ends at a generator
    or at a member of A.  So only A is composed with W, a block of A at a
    time (_blocks), and one exact sort of the generators and those products
    (_distinct) is the closure.
    """
    gens = store.view(np.uint8).reshape(len(store), -1)
    n = gens.shape[1]
    index = gens.astype(np.intp)
    u = np.flatnonzero(np.bincount(index.ravel(), minlength=n)).astype(np.uint8)
    position = np.zeros(n, dtype=np.uint8)  # position[u[a]] = a
    position[u] = np.arange(len(u))
    # the tables of W, the r restrictions first; the loop also reaches the
    # tables appended to the list it walks
    w_tables = [h.tobytes() for h in _distinct_rows(position[index[:, u]])]
    translations = [h.ljust(256, b"\0") for h in w_tables]
    w_known = set(w_tables)
    for w in w_tables:
        for h in translations:
            product = w.translate(h)
            if product not in w_known:
                w_known.add(product)
                w_tables.append(product)
    w_images = np.zeros((n, len(w_tables)), dtype=np.uint8)  # w_images[u[a], i] = u[w_i[a]]
    w_images[u] = u[np.frombuffer(b"".join(w_tables), dtype=np.uint8).reshape(-1, len(u)).T]
    # the right Cayley graph: row i * r + j of successors is "gens[i] then h_j"
    r = len(translations)
    successors = _then(w_images[:, :r], index)
    where = np.minimum(np.searchsorted(store, successors), len(store) - 1)
    in_g = ~_changes(store[where], successors)
    rest = index[~in_g.reshape(-1, r).all(axis=1)]
    found = [store]
    for block in _blocks(len(rest), n * len(w_tables)):  # generators whose products fit
        found.append(_then(w_images, rest[block]))
    tables = np.concatenate(found)
    del found  # the blocks, before the sort copies their tables
    return _distinct(tables).view(np.uint8).reshape(-1, n)
