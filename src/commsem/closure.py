"""The pair oracle and canonical keys.

close_pairs closes canonical (scale, shift) pairs under the composition rule
and needs no worklist over maps.  Composition multiplies both parameters of
the left factor by the scale of the right factor, so a product of generators
g0 g1 ... gk is g0 scaled by w = scale(g1) ... scale(gk).  The products of
one or more generators are therefore exactly G u G.W: the generators G, and
each generator scaled by each element of W, the multiplicative subsemigroup
of Z_m that the generator scales generate.  W is found by closing those
scales under multiplication, never read off a formula, and G.W is marked in
one bitmap over all keys, so the oracle stays independent of the order
formulas it checks: nothing here imports the containers, the order routes,
the modular arithmetic or the central series.

canonicalized_elements reads either oracle's elements as sorted CanonicalMap
keys, decoding the raw oracle's uint8 tables (close_raw, raw.py) and checking
each entrywise against the map family, so the two oracles compare as two
sorted key arrays.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .dihedral import GroupParams, check_side
from .errors import PAIRS_MODULUS_LIMIT, ConsistencyError, check_limit
from .mumaps import CanonicalMap, alpha, beta, function_table, shift_modulus
from .raw import SemigroupSummary, _blocks


def _scale_closure(scales: Iterable[int], m: int) -> list[int]:
    """The multiplicative subsemigroup of Z_m that scales generate: every
    product of one or more of them, closed by a worklist over residues."""
    generators = set(scales)
    known = set(generators)
    stack = list(known)
    while stack:
        a = stack.pop()
        for u in generators:
            product = a * u % m
            if product not in known:
                known.add(product)
                stack.append(product)
    return sorted(known)


def close_pairs(side: str, g: GroupParams) -> SemigroupSummary:
    """Close the commutation maps as canonical parameter pairs (CanonicalMap keys).

    A product of generators g0 g1 ... gk is g0 with both parameters scaled by
    w = scale(g1) ... scale(gk), so the closure is G u G.W: the generator keys
    G, and every generator scaled by every w in W, the multiplicative
    subsemigroup of Z_m generated by the distinct generator scales
    (_scale_closure; at most m residues).  Each scaled generator marks its key
    in one bool bitmap of m * shift_modulus(m) entries, a block of W at a time
    (_blocks); the marked keys, read in order, are the sorted elements.

    The generators come in two families, one per s in {0, 1}: the scale
    c_s = sign * beta(s) mod m with the shifts sign * alpha(s) * r mod sm for r
    in Z_m.  Since alpha(s) = +-1 and sm divides m, each family's shifts are
    all of Z_sm.  So family 0, of scale c_0 = 0, scaled by any w is (0, y * w),
    a generator already, and only family 1 is scaled: (c_1, y) scaled by w has
    the key (c_1 * w mod m) * sm + (y * w mod sm), a row of scale parts plus a
    block of shift parts.  The shift block is int32, since y * w < sm * m <=
    2**24 for m <= PAIRS_MODULUS_LIMIT, and its remainders are taken by floor
    division by sm, which numpy does with a precomputed reciprocal; the keys
    are intp, the scatter's own index type.
    """
    check_side(side)
    check_limit("pair closure", "m", g.m, PAIRS_MODULUS_LIMIT)
    m = g.m
    sm = shift_modulus(m)
    sign = -1 if side == "left" else 1
    # row c of the bitmap holds the keys c * sm + shift_class of scale c (CanonicalMap.key)
    seen = np.zeros(m * sm, dtype=bool)
    rows = seen.reshape(m, sm)
    r = np.arange(m, dtype=np.int32)
    family_scales = [sign * beta(s) % m for s in (0, 1)]
    for s, c in enumerate(family_scales):
        rows[c, sign * alpha(s) * r % sm] = True
    generator_count = int(np.count_nonzero(seen))
    shifts = np.arange(sm, dtype=np.int32)
    scales = np.array(_scale_closure(family_scales, m), dtype=np.int32)
    c1 = family_scales[1]
    for block in _blocks(len(scales), 8 * sm):  # scales whose intp keys fit
        w = scales[block]
        products = np.multiply.outer(w, shifts)
        products -= products // sm * sm
        seen[(c1 * w % m * sm).astype(np.intp)[:, None] + products] = True
    elements = np.flatnonzero(seen).astype(np.int64, copy=False)
    return SemigroupSummary(m, side, generator_count, elements)


def canonicalized_elements(summary: SemigroupSummary) -> np.ndarray:
    """The elements as a sorted, read-only int64 array of CanonicalMap keys:
    a pair summary's 1-D key array itself, or a raw summary's 2-D tables
    decoded.

    A raw table is decoded from the images of a and b alone: a goes to a^c
    and b to a^(2y), so the table names the map (c, y).  It is that map's
    table exactly when every entry is below m, its rotation half is row c of
    the m x m uint8 table of i * c mod m, and rotation plus reflection is
    the image of b mod m at every entry, since a^i b goes to
    a^(2y - c * i).  All three are checked on the uint8 tables, a block of
    rows at a time; with both entries below m <= RAW_MODULUS_LIMIT = 128, a
    sum is below 256 and does not wrap.  A table that fails any of them is
    not in the family, and is a hard error.
    """
    if summary.elements.ndim == 1:
        return summary.elements
    m = summary.m
    sm = shift_modulus(m)
    stage = f"m={m} side={summary.side} stage=canonicalized_elements"
    tables = summary.elements
    scales = tables[:, 1].astype(np.int64)
    doubled_shifts = tables[:, m].astype(np.int64)
    if m % 2:
        shifts = doubled_shifts * pow(2, -1, m) % m
    else:
        odd = np.flatnonzero(doubled_shifts % 2)
        if len(odd):
            raise ConsistencyError(
                f"{stage}: raw table has an odd doubled shift {doubled_shifts[odd[0]]}"
                f" (image of b), table {tables[odd[0]].tolist()}"
            )
        shifts = doubled_shifts // 2 % sm
    scale_rows = (np.arange(m)[:, None] * np.arange(m) % m).astype(np.uint8)
    for rows in _blocks(len(tables), 2 * m):
        block = tables[rows]
        rotations, reflections = block[:, :m], block[:, m:]
        images_of_b = reflections[:, :1]
        outside = reflections >= m
        outside |= rotations != scale_rows[block[:, 1] % m]
        sums = rotations + reflections
        outside |= (sums != images_of_b) & (sums != images_of_b + np.uint8(m))
        if outside.any():
            t = rows.start + int(outside.any(axis=1).argmax())
            decoded = CanonicalMap(int(scales[t]), int(shifts[t]), m)
            raise ConsistencyError(
                f"{stage}: raw table {tables[t].tolist()} is outside the map family;"
                f" its decoded map {decoded} has table"
                f" {list(function_table(decoded.as_map(), GroupParams.from_modulus(m)))}"
            )
    keys = np.sort(scales * sm + shifts)
    keys.flags.writeable = False
    return keys
