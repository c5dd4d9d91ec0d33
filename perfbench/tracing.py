"""Benchmark-side tracing of bandset's layers, without editing the program.

A ``Tracer`` replaces public names with timing wrappers at the place where
the caller looks them up (``retrieval_flat.solve`` is what
``construct_flat`` calls, ``cli.query_chunked`` is what ``cmd_query`` calls)
and puts the originals back on ``uninstall``. Coarse calls become spans
(name, start, end, parent, thread), kept in memory; per-key calls become
count + total-time counters charged to the innermost open span. A name that
the program no longer defines is skipped, so it reports 0 calls.
"""

from __future__ import annotations

import contextlib
import threading
import time
from dataclasses import dataclass, field

_clock = time.perf_counter_ns


@dataclass(slots=True, eq=False)
class Span:
    name: str
    parent: "Span | None"
    thread: int
    start: int = 0
    end: int = 0
    # counter name -> [calls, ns] for counted calls made while this span was innermost
    counted: dict = field(default_factory=dict)
    returned: object = None

    @property
    def dur(self) -> int:
        return self.end - self.start


class Tracer:
    def __init__(self, keep: dict | None = None):
        """``keep`` maps a span name to a function that picks what to keep of
        the wrapped call's return value (run after the span has ended)."""
        self.spans: list[Span] = []
        self.orphans: dict[str, list[int]] = {}
        self._keep = keep or {}
        self._tls = threading.local()
        self._main_stack: list[Span] = []
        self._tls.stack = self._main_stack
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        try:
            return self._tls.stack
        except AttributeError:
            self._tls.stack = []
            return self._tls.stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            # A pool worker's first span: charge it to what the caller has open.
            parent = self._main_stack[-1] if self._main_stack else None
        span = Span(name, parent, threading.get_ident())
        self.spans.append(span)
        stack.append(span)
        return span

    @contextlib.contextmanager
    def span(self, name: str):
        """A benchmark-level span, such as one stage of a round."""
        span = self._open(name)
        span.start = _clock()
        try:
            yield span
        finally:
            span.end = _clock()
            self._stack().pop()

    def _span_wrapper(self, name: str, fn):
        tracer = self
        keep = self._keep.get(name)

        def traced(*args, **kwargs):
            span = tracer._open(name)
            span.start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = _clock()
                tracer._stack().pop()
            if keep is not None:
                try:
                    span.returned = keep(result)
                except (AttributeError, TypeError, ValueError):
                    span.returned = None
            return result

        return traced

    def _count_wrapper(self, name: str, fn):
        tracer = self

        def counted(*args, **kwargs):
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _clock() - t0
                stack = tracer._stack()
                bucket = stack[-1].counted if stack else tracer.orphans
                entry = bucket.get(name)
                if entry is None:
                    bucket[name] = [1, dt]
                else:
                    entry[0] += 1
                    entry[1] += dt

        return counted

    def _patch(self, owner, attr: str, make) -> None:
        if isinstance(owner, type):
            orig = owner.__dict__.get(attr)
        else:
            orig = getattr(owner, attr, None)
        if orig is None:
            return
        if isinstance(orig, classmethod):
            new = classmethod(make(orig.__func__))
        else:
            new = make(orig)
        setattr(owner, attr, new)
        self._patches.append((owner, attr, orig))

    def install(self, spans, counters) -> None:
        """``spans``/``counters``: iterables of (owner, attribute, metric name)."""
        for owner, attr, name in spans:
            self._patch(owner, attr, lambda fn, n=name: self._span_wrapper(n, fn))
        for owner, attr, name in counters:
            self._patch(owner, attr, lambda fn, n=name: self._count_wrapper(n, fn))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def reset(self) -> None:
        self.spans = []
        self.orphans = {}

    # -- derived numbers ---------------------------------------------------

    def children(self) -> dict[int, list[Span]]:
        kids: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                kids.setdefault(id(s.parent), []).append(s)
        return kids

    @staticmethod
    def self_ns(span: Span, kids: list[Span]) -> int:
        """Duration minus the part covered by child spans (their union, so
        children running in parallel on a pool are not subtracted twice),
        minus the time of counted calls made directly under it."""
        covered = 0
        lo = hi = None
        for a, b in sorted((max(k.start, span.start), min(k.end, span.end)) for k in kids):
            if b <= a:
                continue
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        counted = sum(ns for _, ns in span.counted.values())
        return span.dur - covered - counted

    def totals(self) -> dict[str, dict[str, float]]:
        """Per name: calls, total ns, self ns (spans) or calls, ns (counters)."""
        kids = self.children()
        out: dict[str, dict[str, float]] = {}
        for s in self.spans:
            t = out.setdefault(s.name, {"calls": 0, "ns": 0, "self_ns": 0})
            t["calls"] += 1
            t["ns"] += s.dur
            t["self_ns"] += self.self_ns(s, kids.get(id(s), []))
            for cname, (n, ns) in s.counted.items():
                c = out.setdefault(cname, {"calls": 0, "ns": 0, "self_ns": 0})
                c["calls"] += n
                c["ns"] += ns
                c["self_ns"] += ns
        for cname, (n, ns) in self.orphans.items():
            c = out.setdefault(cname, {"calls": 0, "ns": 0, "self_ns": 0})
            c["calls"] += n
            c["ns"] += ns
            c["self_ns"] += ns
        return out

    def subtree_self_ns(self, root: Span) -> int:
        """Self times of root and every span below it, plus their counted calls:
        with one thread this adds back up to root's duration."""
        kids = self.children()
        total = 0
        todo = [root]
        while todo:
            s = todo.pop()
            k = kids.get(id(s), [])
            total += self.self_ns(s, k) + sum(ns for _, ns in s.counted.values())
            todo.extend(k)
        return total

    def dump(self) -> list[dict]:
        ids = {id(s): i for i, s in enumerate(self.spans)}
        return [
            {
                "id": i,
                "name": s.name,
                "start_ns": s.start,
                "end_ns": s.end,
                "parent": ids.get(id(s.parent)) if s.parent is not None else None,
                "thread": s.thread,
                "counted": {k: {"calls": v[0], "ns": v[1]} for k, v in s.counted.items()},
            }
            for i, s in enumerate(self.spans)
        ]
