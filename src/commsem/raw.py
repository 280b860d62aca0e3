"""The raw-table oracle: semigroup closure over literal function tables.

close_raw composes literal function tables read off the group's Cayley table
and never touches the parameter calculus: from this package it imports only
the group itself and the errors.  close_pairs (closure.py) closes canonical
(scale, shift) pairs under the composition rule.  The two must agree
wherever both run, which is the central correctness check of the package.

close_raw runs a worklist that composes known tables with generators only:
every product of generators associates left to right, so extending by one
right factor at a time reaches the whole generated subsemigroup.  Every
product of two or more generators ends in a generator, so its image lies in
U, the union of the generators' images, and "t then g" reads g on U only:
generators that agree on U give equal products with every known table, and
one right factor per class of them suffices (a fact about any transformation
semigroup, in the spirit of Froidure and Pin, checked on the literal tables).
It runs in frontier rounds of whole numpy arrays, in chunks of bounded size,
and deduplicates exactly: a fingerprint only proposes which known table a
product equals, and the two are then compared in full.

Each oracle holds its elements in one read-only numpy array
(SemigroupSummary): sorted CanonicalMap keys for the pair oracle, and the
int16 image tables, one row per element, for the raw oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dihedral import GroupParams, cayley_table, check_side
from .errors import ConsistencyError, ResourceLimitError

RAW_MODULUS_LIMIT = 128

RAW_ORACLE = "raw_tables"
PAIRS_ORACLE = "mu_pairs"


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """The splitmix64 mix of each uint64 in x (arithmetic wraps mod 2**64)."""
    x = x * np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


# A raw table holds element indices below 2m <= 2 * RAW_MODULUS_LIMIT = 256,
# so it fits uint8, and its fingerprint sum_x w[x] * t[x] over at most 256
# entries with integer weights below 2**37 stays below 2**53, where float64
# sums are exact in any order.  The weights are the top 37 bits of a
# splitmix64 hash: unlike a linear hash of x, they leave distinct tables to
# collide only by chance.
_FINGERPRINT_WEIGHTS = (
    _splitmix64(np.arange(1, 2 * RAW_MODULUS_LIMIT + 1, dtype=np.uint64)) >> np.uint64(27)
).astype(np.float64)
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

    @property
    def element_set(self) -> frozenset:
        """The elements as a frozenset: key ints for the pair oracle, each
        table's int16 bytes for the raw oracle."""
        if self.oracle == RAW_ORACLE:
            return frozenset(table.tobytes() for table in self.elements)
        return frozenset(self.elements.tolist())


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
    them (_close_tables).  Each stored table is a generator or ends in one,
    so its image lies in U, the union of the generators' images, and the
    rounds compose it with one generator per class of generators that agree
    on U.  Nothing here knows about map parameters.
    """
    check_side(side)
    if g.m > RAW_MODULUS_LIMIT:
        raise ResourceLimitError(f"raw closure limited to m <= {RAW_MODULUS_LIMIT}")
    collision = f"m={g.m} side={side} stage=close_raw: distinct tables share a fingerprint"
    # return_index keeps np.unique on its sorting path, which does not import numpy.ma
    gens = np.unique(_commutator_tables(side, g).astype(np.uint8), axis=0, return_index=True)[0]
    elements = _close_tables(gens, collision).astype(np.int16)
    return SemigroupSummary(g.m, side, len(gens), RAW_ORACLE, elements)


def _close_tables(gens: np.ndarray, collision: str) -> np.ndarray:
    """Every product of one or more of the distinct uint8 tables gens, one
    table per row, in no particular order.

    The generators seed the store.  Every table stored, a generator or a
    product ending in one, maps into U, the union of the generators' images,
    and "t then g" reads g on U only, so each frontier round composes every
    table found in the round before with one representative per class of
    gens[:, U], a bounded chunk of frontier tables at a time.  Dedup is by
    table content and exact: a linear fingerprint proposes the one known
    table a product may equal, every product is compared with that table in
    full, and two distinct tables with one fingerprint raise
    ConsistencyError(collision) rather than merge.
    """
    k, n = gens.shape
    weights = _FINGERPRINT_WEIGHTS[:n]
    u = np.flatnonzero(np.bincount(gens.ravel(), minlength=n))
    reps = gens[np.unique(gens[:, u], axis=0, return_index=True)[1]]
    r = len(reps)
    images = np.ascontiguousarray(reps.T)  # images[y, j] = reps[j][y]
    images_f = images.astype(np.float64)
    # store[:count] holds every table found so far; known_fp is sorted, ends
    # in an infinite sentinel, and known_fp[i] belongs to store row known_row[i]
    store, count = gens.copy(), k
    gen_fp = gens.astype(np.float64) @ weights
    order = np.argsort(gen_fp)
    known_fp, known_row = np.append(gen_fp[order], np.inf), np.append(order, -1)
    if (known_fp[1:] == known_fp[:-1]).any():
        raise ConsistencyError(collision)
    step = max(1, _CHUNK_BYTES // (r * n))  # frontier tables whose uint8 products fit
    # the chunk-sized arrays are allocated once: megabyte temporaries freed
    # after every chunk can go back to the operating system and fault in anew
    products_buf = np.empty((step, n, r), dtype=np.uint8)
    matched_buf = np.empty((step * r, n), dtype=np.uint8)
    equal_buf = np.empty((step, n, r), dtype=bool)
    frontier = store
    while len(frontier):
        round_start = count
        for lo in range(0, len(frontier), step):
            chunk = frontier[lo : lo + step].astype(np.intp)
            f = len(chunk)
            # products[i, x, j] = (chunk[i] then reps[j])(x) = reps[j][chunk[i][x]];
            # the indices are in range, and "clip" lets take write out unbuffered
            products = np.take(images, chunk, axis=0, out=products_buf[:f], mode="clip")
            # its fingerprint is sum_y spread[i, y] * reps[j][y], spread[i, y]
            # being the total weight of the x with chunk[i][x] = y
            spread = np.bincount(
                (np.arange(f)[:, None] * n + chunk).ravel(),
                weights=np.tile(weights, f),
                minlength=f * n,
            )
            product_fp = np.matmul(spread.reshape(f, 1, n), images_f).ravel()
            uniq, first, which = np.unique(product_fp, return_index=True, return_inverse=True)
            pos = np.searchsorted(known_fp, uniq)
            match = known_row[pos]
            new = np.flatnonzero(known_fp[pos] != uniq)
            if len(new):
                if count + len(new) > len(store):
                    grown = np.empty((2 * (count + len(new)), n), dtype=np.uint8)
                    grown[:count] = store[:count]
                    store = grown
                i, j = np.divmod(first[new], r)
                store[count : count + len(new)] = products[i, :, j]
                match[new] = np.arange(count, count + len(new))
                known_fp = np.insert(known_fp, pos[new], uniq[new])
                known_row = np.insert(known_row, pos[new], match[new])
                count += len(new)
            # the fingerprint only proposed the match; the tables must agree
            matched = np.take(store, match[which], axis=0, out=matched_buf[: f * r], mode="clip")
            equal = np.equal(products, matched.reshape(f, r, n).transpose(0, 2, 1), out=equal_buf[:f])
            if not equal.all():
                raise ConsistencyError(collision)
        frontier = store[round_start:count]
    return store[:count]
