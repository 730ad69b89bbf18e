"""Span recorder for the traced benchmark run.

The recorder wraps functions and methods of the program from outside: it
replaces attributes on modules and classes with wrappers that record one
span (name, start, end, parent) per call and optionally update counters
from the call's arguments and result. Spans stay in memory until the run
ends. Leaving ``tracing()`` puts every original attribute back, so an
untraced run never executes a wrapper.
"""
from __future__ import annotations

import time
from contextlib import contextmanager


def self_seconds(parent: list[int], start: list[float], end: list[float]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover.

    Spans are listed in order of start time and ``parent`` holds the index
    of the enclosing span, or -1 for a root. Children are clipped to their
    parent and overlapping children are counted once.
    """
    covered = [0.0] * len(start)
    reach = {}  # parent index -> latest end covered so far
    for i, p in enumerate(parent):
        if p < 0:
            continue
        lo = max(start[i], start[p], reach.get(p, start[p]))
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
        reach[p] = max(reach.get(p, start[p]), hi)
    return [end[i] - start[i] - covered[i] for i in range(len(start))]


class SpanRecorder:
    """Spans and counters of one traced run, kept as parallel lists."""

    def __init__(self) -> None:
        self.names: list[str] = []    # span name by name id
        self.name: list[int] = []     # name id by span
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def peak(self, key: str, value: int) -> None:
        if value > self.counts.get(key, 0):
            self.counts[key] = value

    def _wrap(self, fn, span_name: str, observe):
        nid = len(self.names)
        self.names.append(span_name)
        names, parents, starts, ends, stack = (
            self.name, self.parent, self.start, self.end, self._stack
        )
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(self, args, result)
            return result

        traced.__wrapped__ = fn
        traced.span_wrapper = True
        return traced

    @contextmanager
    def tracing(self, targets, modules):
        """Wrap every target for the duration of the block.

        ``targets`` holds (owner, attribute, span name, observer) tuples; the
        owner is a module or a class. A function that other ``modules`` bound
        under the same name (``from x import f``) is replaced there too.
        """
        try:
            for owner, attr, span_name, observe in targets:
                original = vars(owner)[attr]
                wrapped = self._wrap(original, span_name, observe)
                holders = [owner] + [
                    m for m in modules if m is not owner and vars(m).get(attr) is original
                ]
                for holder in holders:
                    self._patched.append((holder, attr, original))
                    setattr(holder, attr, wrapped)
            yield self
        finally:
            while self._patched:
                holder, attr, original = self._patched.pop()
                setattr(holder, attr, original)

    @staticmethod
    def leftover(targets, modules) -> list[str]:
        """Attributes of the targets' owners or ``modules`` that still hold a wrapper."""
        holders = {id(o): o for o, *_ in targets} | {id(m): m for m in modules}
        return sorted(
            f"{getattr(h, '__name__', h)}.{attr}"
            for h in holders.values()
            for attr, value in vars(h).items()
            if getattr(value, "span_wrapper", False)
        )

    def calls(self) -> dict[str, int]:
        out = dict.fromkeys(self.names, 0)
        for nid in self.name:
            out[self.names[nid]] += 1
        return out

    def self_times(self) -> dict[str, float]:
        """Self seconds summed per span name."""
        out = dict.fromkeys(self.names, 0.0)
        for nid, s in zip(self.name, self_seconds(self.parent, self.start, self.end)):
            out[self.names[nid]] += s
        return out

    def dump(self, path) -> None:
        """Write the spans as tab-separated rows, times relative to the first span."""
        t0 = self.start[0] if self.start else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tparent\tstart_us\tend_us\n")
            for i, (nid, p, s, e) in enumerate(zip(self.name, self.parent, self.start, self.end)):
                fh.write(f"{i}\t{self.names[nid]}\t{p}\t{(s - t0) * 1e6:.3f}\t{(e - t0) * 1e6:.3f}\n")
