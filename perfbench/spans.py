"""In-memory span recording around the library's public functions.

A Tracer replaces a function at the attribute its callers look it up
through (a module global such as ``zetagaps.optimizer.h_value``, or a
method on ``FracPoly``) with a wrapper that records one span per call:
[name, start, end, parent index].  Spans stay in memory until the traced
process writes them out, and every per-layer figure is derived from them
afterwards, so a wrapper only takes two clock readings, pushes and pops a
stack, and feeds the counters kept at the same boundary.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

NAME, START, END, PARENT = range(4)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._depth = 0  # nesting of installed()

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, after=None):
        """Wrap fn so every call records a span; after(tracer, args, result) counts."""

        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def region(self, name: str):
        """One span around a block of the caller's own code."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    @contextmanager
    def installed(self, targets):
        """Patch every (owner, attribute, span name, after) target for the block.

        Re-entrant: inside an installed block the targets are already patched.
        """
        if self._depth:
            self._depth += 1
            try:
                yield self
            finally:
                self._depth -= 1
            return
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in targets]
        self._depth = 1
        try:
            for owner, attr, name, after in targets:
                setattr(owner, attr, self.wrap(name, owner.__dict__[attr], after))
            yield self
        finally:
            self._depth = 0
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def dump(self, path) -> None:
        """Write the spans (times in ns from the first span) and counters as JSON."""
        names = sorted({s[NAME] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][START] if self.spans else 0.0
        rows = [
            [index[s[NAME]], round((s[START] - t0) * 1e9), round((s[END] - t0) * 1e9), s[PARENT]]
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": names, "spans": rows, "counts": self.counts}, fh)


def _has_ancestor(spans, idx: int, name: str) -> bool:
    parent = spans[idx][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False


def calls(spans, name: str, under: str | None = None) -> int:
    """Spans called `name`, only those inside an `under` span when given."""
    return sum(
        1
        for i, s in enumerate(spans)
        if s[NAME] == name and (under is None or _has_ancestor(spans, i, under))
    )


def busy(spans, name: str) -> float:
    """Time inside `name`: nested calls of the same name are counted once."""
    return sum(
        s[END] - s[START]
        for i, s in enumerate(spans)
        if s[NAME] == name and not _has_ancestor(spans, i, name)
    )


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part its direct children cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children[s[PARENT]].append(i)
    out = []
    for i, s in enumerate(spans):
        start, end = s[START], s[END]
        covered, reach = 0.0, start
        for c in sorted(children[i], key=lambda j: spans[j][START]):
            lo, hi = max(spans[c][START], reach), min(spans[c][END], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def self_time(spans, name: str) -> float:
    own = self_times(spans)
    return sum(t for s, t in zip(spans, own) if s[NAME] == name)
