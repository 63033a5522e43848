"""Outside-in tracer: spans recorded around calls into the program's layers.

The tracer lives entirely in the benchmark.  :class:`Patcher` swaps a
public function or method for a wrapper that opens a span, calls the
original and closes the span; :meth:`Patcher.restore` puts every
original back.  Spans stay in memory (:attr:`Tracer.spans`) and are
written out once, when the benchmark ends.

A span has a name, a start, an end, a parent and a request id (the
campaign, epoch or job it belongs to).  Generators (a segment stream)
are traced as *sparse* spans: only the time spent inside ``next()``
counts as busy, because the consumer's own work interleaves with the
pulls.  Self time is a span's busy time minus the busy time of its
children; children of one span always run on one thread, one after
another, so that is exactly the part of the span its children cover.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional


class Span:
    __slots__ = ("id", "name", "start", "end", "busy", "parent", "request", "attrs")

    def __init__(self, id, name, start, parent, request):
        self.id = id
        self.name = name
        self.start = start
        self.end = start
        self.busy = 0.0
        self.parent = parent
        self.request = request
        self.attrs: Optional[Dict[str, float]] = None

    def add(self, key: str, value: float) -> None:
        if self.attrs is None:
            self.attrs = {}
        self.attrs[key] = self.attrs.get(key, 0) + value

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "busy": self.busy,
            "parent": self.parent,
            "request": self.request,
            "attrs": self.attrs,
        }


class Tracer:
    """In-memory span recorder with one span stack per thread."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new(self, name: str, parent: Optional[Span], request, start=None) -> Span:
        if request is None and parent is not None:
            request = parent.request
        with self._lock:
            span = Span(
                len(self.spans),
                name,
                self.clock() if start is None else start,
                None if parent is None else parent.id,
                request,
            )
            self.spans.append(span)
        return span

    def open(self, name: str, request=None) -> Span:
        stack = self._stack()
        span = self._new(name, stack[-1] if stack else None, request)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        span.busy = span.end - span.start
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    @contextmanager
    def span(self, name: str, request=None) -> Iterator[Span]:
        span = self.open(name, request)
        try:
            yield span
        except BaseException:
            span.add("errors", 1)
            raise
        finally:
            self.close(span)

    def iterate(self, name: str, inner) -> Iterator:
        """Re-yield ``inner`` under a sparse span (busy = time in ``next``).

        A new sparse span starts whenever the consumer (the active span)
        changes between pulls, so each pull is charged to the span that
        asked for it.
        """
        stack = self._stack()
        span: Optional[Span] = None
        try:
            while True:
                parent = stack[-1] if stack else None
                parent_id = None if parent is None else parent.id
                started = self.clock()
                if span is None or span.parent != parent_id:
                    span = self._new(name, parent, None, start=started)
                stack.append(span)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    stack.pop()
                    span.end = self.clock()
                    span.busy += span.end - started
                span.add("records", 1)
                yield item
        finally:
            close = getattr(inner, "close", None)
            if close is not None:
                close()

    def write(self, path: Path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.as_dict(), sort_keys=True) + "\n")


# ---------------------------------------------------------------------- #
# Patching
# ---------------------------------------------------------------------- #


class Patcher:
    """Installs span wrappers on functions and methods, and removes them."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: List[tuple] = []

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrapper(self, name: str, original, after=None, generator=False):
        tracer = self.tracer

        if generator:
            @functools.wraps(original)
            def traced(*args, **kwargs):
                return tracer.iterate(name, original(*args, **kwargs))
            return traced

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                span.add("errors", 1)
                raise
            finally:
                tracer.close(span)
            if after is not None:
                after(span, result, args, kwargs)
            return result

        return traced

    def method(self, cls, attr: str, name: str, *, after=None, generator=False) -> None:
        original = cls.__dict__[attr]
        self._set(cls, attr, self._wrapper(name, original, after, generator))

    def function(
        self,
        module_name: str,
        attr: str,
        name: str,
        *,
        after=None,
        callers: bool = False,
    ) -> None:
        """Wrap ``module.attr``.

        With ``callers=True`` the wrapper is also bound in every loaded
        ``repro`` module that imported the function by name, since those
        modules call their own binding, not the defining module's.
        """
        module = sys.modules[module_name]
        original = getattr(module, attr)
        wrapper = self._wrapper(name, original, after)
        owners = [module]
        if callers:
            owners += [
                mod
                for mod_name, mod in sorted(sys.modules.items())
                if mod is not module
                and mod_name.startswith("repro")
                and getattr(mod, attr, None) is original
            ]
        for owner in owners:
            self._set(owner, attr, wrapper)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------- #
# Derivation
# ---------------------------------------------------------------------- #


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Busy time minus the busy time of direct children, per span id."""
    covered: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.busy
    return {span.id: span.busy - covered[span.id] for span in spans}


def root_ids(spans: List[Span]) -> Dict[int, int]:
    """Span id -> id of its outermost ancestor (parents precede children)."""
    roots: Dict[int, int] = {}
    for span in spans:
        roots[span.id] = span.id if span.parent is None else roots[span.parent]
    return roots


class LayerSummary:
    """Per-name aggregates over every span under roots of one name."""

    def __init__(self, spans: List[Span], root_name: str) -> None:
        roots = root_ids(spans)
        selfs = self_times(spans)
        self.roots = [s for s in spans if s.parent is None and s.name == root_name]
        wanted = {s.id for s in self.roots}
        self.root_total = sum(s.busy for s in self.roots)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.attrs: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.durations: Dict[str, List[float]] = defaultdict(list)
        for span in spans:
            if roots[span.id] not in wanted:
                continue
            key = "(unattributed)" if span.id in wanted else span.name
            self.self_s[key] += selfs[span.id]
            if span.id in wanted:
                continue
            self.total_s[span.name] += span.busy
            self.calls[span.name] += 1
            self.durations[span.name].append(span.busy)
            for attr, value in (span.attrs or {}).items():
                self.attrs[span.name][attr] += value

    @property
    def n_roots(self) -> int:
        return len(self.roots)

    @property
    def unattributed(self) -> float:
        return self.self_s.get("(unattributed)", 0.0)

    def self_sum(self) -> float:
        return sum(self.self_s.values())
