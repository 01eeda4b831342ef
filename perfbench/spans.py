"""The benchmark's own spans, recorded around calls into the program.

A span has a name, a start, an end, its parent span and the operation it
belongs to.  Spans stay in memory until the run ends.  :func:`self_times`
folds them: a span's self time is its duration minus the part of it that
its child spans cover.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict


class Recorder:
    """Collects spans of one thread; a span's parent is the span open around it."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op: int | None = None  #: operation id stamped on new spans

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span called ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(self.spans) + len(self._stack) + 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append({"id": span_id, "name": name, "start": start, "end": end,
                                   "parent": parent, "op": self.op})

        return traced


def self_times(spans: list[dict]) -> dict[int, float]:
    """Self time in ms of every span, by span id."""
    children: dict[int, list[dict]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append(span)
    folded = {}
    for span in spans:
        covered = 0.0
        last_end = span["start"]
        # Children of one single-threaded parent do not overlap, but merge
        # the intervals anyway so a self time can never go negative.
        for child in sorted(children.get(span["id"], ()), key=lambda c: c["start"]):
            start = max(child["start"], last_end)
            end = min(child["end"], span["end"])
            if end > start:
                covered += end - start
                last_end = end
        folded[span["id"]] = (span["end"] - span["start"] - covered) * 1000.0
    return folded


def per_call(spans: list[dict], values: dict[int, float], name: str) -> list[float]:
    """``values`` of every span called ``name``."""
    return [values[span["id"]] for span in spans if span["name"] == name]


def per_op(spans: list[dict], values: dict[int, float], name: str) -> list[float]:
    """``values`` of the spans called ``name``, summed per operation."""
    sums: dict[int, float] = defaultdict(float)
    for span in spans:
        if span["name"] == name:
            sums[span["op"]] += values[span["id"]]
    return list(sums.values())
