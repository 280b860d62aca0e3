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
over its tables as bytes; G.W is composed a bounded block of W at a time.
Dedup is exact: each table is one void scalar, so sorting and searching
compare whole tables byte for byte.

Each oracle holds its elements in one read-only numpy array
(SemigroupSummary): sorted CanonicalMap keys for the pair oracle, and the
int16 image tables, one row per element, for the raw oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dihedral import GroupParams, cayley_table, check_side
from .errors import ResourceLimitError

RAW_MODULUS_LIMIT = 128

RAW_ORACLE = "raw_tables"
PAIRS_ORACLE = "mu_pairs"

# bytes in one temporary array of a chunked numpy step
_CHUNK_BYTES = 1 << 20


@dataclass(frozen=True, slots=True, eq=False)
class SemigroupSummary:
    """One closed commutation semigroup with its elements and provenance.

    elements is a read-only array: sorted int64 CanonicalMap keys for the
    pair oracle (decode with CanonicalMap.from_key), and an (n, 2m) int16
    array of image tables, one row per element, for the raw oracle.
    """

    m: int
    side: str
    generator_count: int
    oracle: str
    elements: np.ndarray

    def __post_init__(self) -> None:
        elements = np.asarray(self.elements).view()
        elements.flags.writeable = False
        object.__setattr__(self, "elements", elements)

    @property
    def size(self) -> int:
        return len(self.elements)


def _commutator_tables(side: str, g: GroupParams) -> np.ndarray:
    """Row y is the table of x -> [x, y] (right) or of x -> [y, x] (left),
    looked up in the Cayley table as [x, y] = (x^-1 y^-1)(xy)."""
    mul, inv = cayley_table(g)
    comm = mul[mul[inv[:, None], inv[None, :]], mul]
    return comm.T if side == "right" else comm


def close_raw(side: str, g: GroupParams) -> SemigroupSummary:
    """Close the commutation maps under composition of raw function tables.

    The generators are the distinct commutator tables, looked up in the
    group's Cayley table; the closure is every product of one or more of
    them, G u G.W (_close_tables).  Nothing here knows about map parameters.
    """
    check_side(side)
    if g.m > RAW_MODULUS_LIMIT:
        raise ResourceLimitError(f"raw closure limited to m <= {RAW_MODULUS_LIMIT}")
    tables = _commutator_tables(side, g).astype(np.uint8)
    gens = _distinct_rows(tables).view(np.uint8).reshape(-1, tables.shape[1])
    elements = _close_tables(gens).astype(np.int16)
    return SemigroupSummary(g.m, side, len(gens), RAW_ORACLE, elements)


def _distinct(values: np.ndarray) -> np.ndarray:
    """The sorted distinct entries of a 1-d array, by one sort and a mask of
    changes between neighbours (a plain np.unique imports numpy.ma on first
    use, about 12 ms)."""
    ordered = np.sort(values)
    keep = np.ones(len(ordered), dtype=bool)
    keep[1:] = ordered[1:] != ordered[:-1]
    return ordered[keep]


def _distinct_rows(tables: np.ndarray) -> np.ndarray:
    """The distinct rows of a 2-D uint8 array in byte order, each as one
    void scalar, so that sorting, comparing and searching read whole rows
    byte for byte."""
    tables = np.ascontiguousarray(tables)
    return _distinct(tables.view(f"V{tables.shape[1]}").ravel())


def _close_tables(gens: np.ndarray) -> np.ndarray:
    """Every product of one or more of the distinct uint8 tables gens, one
    table per row, in byte order.

    Every generator maps into U, the union of the generators' images, so the
    products are G u G.W: the generators, and "g then w" for every generator
    g and every w in W, the semigroup generated by the restrictions gens[:, U].
    W is closed by a worklist over its tables as bytes, each entry a position
    in U: "w then h" is w.translate(h), since (w then h)[a] = h[w[a]].  G.W is
    composed a block of W at a time, each block's products within
    _CHUNK_BYTES, and merged into the sorted store of distinct tables.
    """
    k, n = gens.shape
    u = np.flatnonzero(np.bincount(gens.ravel(), minlength=n))
    position = np.zeros(n, dtype=np.uint8)  # position[u[a]] = a
    position[u] = np.arange(len(u))
    restrictions = {t.tobytes() for t in position[gens[:, u]]}
    translations = [h.ljust(256, b"\0") for h in restrictions]
    w_known = set(restrictions)
    stack = list(w_known)
    while stack:
        w = stack.pop()
        for h in translations:
            product = w.translate(h)
            if product not in w_known:
                w_known.add(product)
                stack.append(product)
    # each w of W as the images of the points of U, sorted so that the
    # blocks below do not depend on the order of a set
    w_positions = np.frombuffer(b"".join(sorted(w_known)), dtype=np.uint8)
    w_images = u.astype(np.uint8)[w_positions.reshape(-1, len(u))]
    store = _distinct_rows(gens)
    index = gens.astype(np.intp)
    step = max(1, _CHUNK_BYTES // (k * n))  # tables of W whose uint8 products fit
    # a block of W as n-entry tables, which the products read on U only
    full = np.zeros((min(step, len(w_images)), n), dtype=np.uint8)
    for lo in range(0, len(w_images), step):
        block = w_images[lo : lo + step]
        full[: len(block), u] = block
        # products[i, j, x] = (gens[j] then block[i])(x) = block[i][gens[j][x]]
        products = np.take(full[: len(block)], index, axis=1)
        found = _distinct_rows(products.reshape(-1, n))
        at = np.searchsorted(store, found)
        new = at == len(store)
        new[~new] = store[at[~new]] != found[~new]
        store = np.insert(store, at[new], found[new])
    return store.view(np.uint8).reshape(-1, n)
