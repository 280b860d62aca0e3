"""The four workloads and how a seed turns each into one pass of invocations.

Each workload is a few anchors, run in every pass, plus strata.  A stratum is
a pool of invocations and a target cost in seconds at the seed commit (the
`seconds` recorded in catalog.json).  The seed shuffles each pool and fills
the stratum greedily, skipping invocations that would overshoot, until its
cost lies within TOLERANCE of the target; the drawn invocations are then
shuffled.  So the seed picks which moduli run and in what order, while every
pass costs about the same at the seed commit.  That keeps run_s comparable across seeds even
though single rows range from milliseconds to seconds.  An invocation that
alone costs more than its stratum's target is never drawn.

Anchors are each workload's worst case in peak memory (and the one
power-of-two modulus a range holds): a user's job over the whole range always
hits them.  They run first in every pass, on a fresh heap: the peak memory of
a process depends on what it freed before, so with the anchors anywhere else
peak_rss_mb would be a property of the draw (223 to 452 MB for the same
iso_witness anchor) rather than of the code.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

TOLERANCE = 0.04
MAX_FILLS = 100_000


def table(m: int, verify: str | None = None) -> tuple[str, ...]:
    extra = ("--verify", verify) if verify else ()
    return ("table", "--from", str(m), "--to", str(m), *extra, "--format", "csv")


def iso(m: int, m2: int | None = None) -> tuple[str, ...]:
    return ("iso", "--m", str(m)) if m2 is None else ("iso", "--m", str(m), "--m2", str(m2))


@dataclass(frozen=True)
class Stratum:
    pool: tuple[tuple[str, ...], ...]
    target_s: float | None  # None: the whole pool, in seeded order


@dataclass(frozen=True)
class Workload:
    name: str
    # what every invocation must print: the table's `verified` column, or
    # the isomorphism verdict
    expect: str
    anchors: tuple[tuple[str, ...], ...]
    strata: tuple[Stratum, ...]

    def invocations(self) -> list[tuple[str, ...]]:
        return [*self.anchors, *(argv for s in self.strata for argv in s.pool)]


def _odd(lo: int, hi: int) -> range:
    return range(lo | 1, hi + 1, 2)


def _even_mixed(lo: int, hi: int) -> list[int]:
    return [m for m in range(lo, hi + 1) if m % 2 == 0 and m & (m - 1)]


# the ROADMAP's nine equal-order, non-isomorphic moduli plus the rest of
# that class up to 101
REFUTE = (15, 55, 69, 75, 77, 87, 91, 93, 95, 21, 30, 35, 39, 42, 45, 51, 60, 63, 70, 78, 84, 90)
# odd p with a 2p-vs-p search that needs nodes, and criterion-isomorphic m
# whose P-vs-L search needs nodes
WITNESS_DOUBLING = (13, 17, 25, 29, 37, 41)
WITNESS_PL = (52, 68, 85, 100)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "table_pairs",
            "pairs_verified",
            anchors=(table(509), table(512)),
            strata=(
                Stratum(tuple(table(m) for m in _odd(257, 512) if m != 509), 1.8),
                Stratum(tuple(table(m) for m in _even_mixed(257, 512)), 0.7),
            ),
        ),
        Workload(
            "table_raw",
            "raw_verified",
            anchors=(table(123, "raw"), table(128, "raw")),
            strata=(
                Stratum(tuple(table(m, "raw") for m in _odd(65, 128) if m != 123), 2.4),
                Stratum(tuple(table(m, "raw") for m in _even_mixed(65, 128)), 1.0),
            ),
        ),
        Workload(
            "iso_refute",
            "not_isomorphic",
            anchors=(iso(95),),
            strata=(Stratum(tuple(iso(m) for m in REFUTE if m != 95), 2.0),),
        ),
        Workload(
            "iso_witness",
            "isomorphic_with_witness",
            anchors=(iso(74, 37),),
            strata=(
                Stratum(
                    tuple(iso(2 * p, p) for p in WITNESS_DOUBLING if p != 37)
                    + tuple(iso(m) for m in WITNESS_PL),
                    2.6,
                ),
            ),
        ),
    )
}

# tiny moduli through the same four workloads, so the harness can be tested
# in seconds; every pool is run whole
SMOKE = {
    "table_pairs": Workload(
        "table_pairs", "pairs_verified", (table(16),),
        (Stratum(tuple(table(m) for m in range(5, 14)), None),),
    ),
    "table_raw": Workload(
        "table_raw", "raw_verified", (table(16, "raw"),),
        (Stratum(tuple(table(m, "raw") for m in range(5, 12)), None),),
    ),
    "iso_refute": Workload(
        "iso_refute", "not_isomorphic", (), (Stratum((iso(15), iso(21), iso(30)), None),),
    ),
    "iso_witness": Workload(
        "iso_witness", "isomorphic_with_witness", (),
        (Stratum((iso(10, 5), iso(14, 7), iso(8), iso(16)), None),),
    ),
}


def draw(workload: Workload, seed: int, cost: dict[str, float]) -> list[list[str]]:
    """The invocations of one pass, a pure function of the workload, the seed
    and the recorded seed-commit costs."""
    rng = random.Random(f"{workload.name}/{seed}")
    picked = [argv for stratum in workload.strata for argv in _fill(stratum, rng, cost)]
    rng.shuffle(picked)
    return [list(argv) for argv in (*workload.anchors, *picked)]


def _fill(stratum: Stratum, rng: random.Random, cost: dict[str, float]) -> list:
    pool = list(stratum.pool)
    if stratum.target_s is None:
        rng.shuffle(pool)
        return pool
    low = stratum.target_s * (1 - TOLERANCE)
    high = stratum.target_s * (1 + TOLERANCE)
    for _ in range(MAX_FILLS):
        rng.shuffle(pool)
        chosen, total = [], 0.0
        for argv in pool:
            c = cost[" ".join(argv)]
            if total + c <= high:
                chosen.append(argv)
                total += c
        if total >= low:
            return chosen
    raise RuntimeError(f"no fill of {stratum.target_s} s found in {MAX_FILLS} tries")
