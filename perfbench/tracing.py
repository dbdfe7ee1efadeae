"""Spans recorded from outside the program, around calls into each layer.

A :class:`Tracer` replaces methods of live objects (or, where the objects
are built inside a library entry point, class or module attributes) with
wrappers that record one span per call: name, start, end and the span
that was open when the call began.  Spans stay in compact in-memory
arrays until :meth:`Tracer.dump` writes them out; self time — a span's
duration minus the part its child spans cover — is computed from them
afterwards, never while the run is timed.
"""

from __future__ import annotations

import json
from array import array
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional, Tuple


class Tracer:
    """In-memory span recorder with method wrapping and undo."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open: List[int] = []
        self._undo: List[Callable[[], None]] = []

    # ------------------------------------------------------------ wrapping
    def span(self, name: str, fn: Callable, before: Optional[Callable] = None) -> Callable:
        """Return *fn* wrapped so each call records a span called *name*.

        *before*, if given, runs with the call's arguments just before the
        span opens (gauges such as the longest in-flight list use it).
        """
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        open_spans = self._open
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end

        def traced(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            index = len(start)
            name_of.append(nid)
            parent.append(open_spans[-1] if open_spans else -1)
            end.append(0.0)
            open_spans.append(index)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = perf_counter()
                open_spans.pop()

        return traced

    def wrap(self, obj: object, prefix: str, methods: Iterable[str], before=None) -> None:
        """Shadow *methods* of the live object *obj* with traced versions.

        The span of ``obj.m`` is named ``<prefix>.<m>``; *before* maps a
        method name to a pre-call hook.
        """
        for method in methods:
            hook = (before or {}).get(method)
            setattr(obj, method, self.span(f"{prefix}.{method}", getattr(obj, method), hook))

    def patch(self, owner: object, attr: str, name: str) -> None:
        """Replace ``owner.attr`` (a class or module attribute) until :meth:`restore`."""
        original = getattr(owner, attr)
        setattr(owner, attr, self.span(name, original))
        self._undo.append(lambda: setattr(owner, attr, original))

    def restore(self) -> None:
        """Undo every :meth:`patch`, newest first."""
        while self._undo:
            self._undo.pop()()

    # ------------------------------------------------------------ analysis
    def __len__(self) -> int:
        return len(self.start)

    def totals(self) -> Dict[str, Tuple[int, float, float]]:
        """``name -> (calls, inclusive seconds, self seconds)`` over all spans."""
        n = len(self.start)
        start, end, parent, name_of = self.start, self.end, self.parent, self.name_of
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls: Dict[int, int] = defaultdict(int)
        inclusive: Dict[int, float] = defaultdict(float)
        own: Dict[int, float] = defaultdict(float)
        for i in range(n):
            nid = name_of[i]
            duration = end[i] - start[i]
            calls[nid] += 1
            inclusive[nid] += duration
            own[nid] += duration - child[i]
        return {
            self.names[nid]: (calls[nid], inclusive[nid], own[nid]) for nid in calls
        }

    def dump(self, path: str) -> None:
        """Write the spans: one JSON header line, then the four raw arrays."""
        header = {
            "names": self.names,
            "spans": len(self.start),
            "arrays": ["name_of:i", "parent:i", "start:d", "end:d"],
        }
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for column in (self.name_of, self.parent, self.start, self.end):
                column.tofile(out)
