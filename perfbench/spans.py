"""In-memory spans and work counts around the layers the CLI calls.

A traced pass replaces the names `commsem.cli` binds (order_report,
close_pairs, close_raw, canonicalized_elements, search_isomorphism) with
wrappers that record a span per call and read work counts off the returned
values.  Nothing inside the program changes; spans inside the closures and
the search are a later change in the program itself.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from contextlib import contextmanager


def _count_close_pairs(args, result):
    return {"close_pairs.elements": result.size}


def _count_close_raw(args, result):
    return {
        "close_raw.elements": result.size,
        "close_raw.generators": result.generator_count,
        # every known table is composed with every generator exactly once
        "close_raw.products": result.size * result.generator_count,
        "close_raw.useful": result.size - result.generator_count,
    }


def _count_canonicalized(args, result):
    return {"canonicalized_elements.elements": len(result)}


def _count_search(args, result):
    return {
        "search_isomorphism.elements": args[0].size,
        "search_isomorphism.nodes": result.nodes,
    }


# layer name -> how to count the work one call did; the name is also the
# attribute of commsem.cli that gets wrapped
LAYERS = {
    "order_report": None,
    "close_pairs": _count_close_pairs,
    "close_raw": _count_close_raw,
    "canonicalized_elements": _count_canonicalized,
    "search_isomorphism": _count_search,
}


class Tracer:
    """Spans (name, start, end, parent, invocation) and counts of one pass."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self.invocation: int | None = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._open[-1] if self._open else None,
            "invocation": self.invocation,
            **attrs,
        }
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if count is not None:
                record["counts"] = count(args, result)
                self.counts.update(record["counts"])
            return result

        return traced

    def install(self, cli_module) -> None:
        for name, count in LAYERS.items():
            setattr(cli_module, name, self.wrap(name, getattr(cli_module, name), count))


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """calls, busy_s and self_s per layer; self time is the span minus the
    time its child spans cover (children of one span never overlap)."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    out: dict[str, float] = {}
    for name in ("cli", *LAYERS):
        out[f"{name}.calls"] = 0
        out[f"{name}.busy_s"] = 0.0
        out[f"{name}.self_s"] = 0.0
    for s, covered in zip(spans, child_time):
        busy = s["end"] - s["start"]
        out[f"{s['name']}.calls"] += 1
        out[f"{s['name']}.busy_s"] += busy
        out[f"{s['name']}.self_s"] += busy - covered
    return out
