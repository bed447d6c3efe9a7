"""Outside-in tracer: spans around calls into each layer's public functions.

Nothing under ``src/repro`` knows about this file.  ``Tracer.wrap``
replaces one attribute of a class or an object by a function that calls
the original and records a span; ``Tracer.close`` puts every original
back.  Spans stay in memory until the workload writes them out in Chrome
trace-event format (``chrome_events``).

The traced runs use one closed-loop client, so every span recorded while a
root span is open belongs to that root's request.  A layer's self time is
its span minus the part of that span its child layer's spans cover
(``self_times``); worker threads overlap, hence the interval *union*.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

Interval = Tuple[float, float]


class Span:
    __slots__ = ("layer", "name", "start", "end", "request", "thread", "size")

    def __init__(self, layer, name, start, end, request, thread, size):
        self.layer = layer
        self.name = name
        self.start = start
        self.end = end
        self.request = request
        self.thread = thread
        self.size = size

    @property
    def interval(self) -> Interval:
        return (self.start, self.end)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: name -> [calls, total seconds] for calls too hot to keep as spans.
        self.tallies: Dict[str, List[float]] = {}
        #: id of the root span in progress (None between requests).
        self.request: Optional[int] = None
        self._requests = 0
        self._originals: List[Tuple[object, str, bool, object]] = []

    # ------------------------------------------------------------------
    def wrap(
        self,
        owner: object,
        attr: str,
        layer: str,
        *,
        root: bool = False,
        tally: bool = False,
        size: Optional[Callable[[tuple], float]] = None,
    ) -> None:
        """Record every call of ``owner.attr`` from now until ``close``.

        ``root`` marks the outermost layer: its span opens a request.
        ``tally`` keeps only a call count and total time.  ``size`` maps
        the call's positional arguments (``self`` first when ``owner`` is
        a class) to a number stored on the span, e.g. a batch size.
        """
        original = getattr(owner, attr)
        name = f"{layer}.{attr}"
        clock = time.perf_counter

        if tally:
            cell = self.tallies.setdefault(name, [0, 0.0])

            def traced(*args, **kwargs):
                start = clock()
                try:
                    return original(*args, **kwargs)
                finally:
                    cell[0] += 1
                    cell[1] += clock() - start

        else:
            spans = self.spans

            def traced(*args, **kwargs):
                if root:
                    self.request = self._requests
                    self._requests += 1
                request = self.request
                start = clock()
                try:
                    return original(*args, **kwargs)
                finally:
                    end = clock()
                    spans.append(
                        Span(
                            layer, name, start, end, request,
                            threading.get_ident(),
                            size(args) if size is not None else None,
                        )
                    )
                    if root:
                        self.request = None

        had_own = attr in vars(owner)
        self._originals.append((owner, attr, had_own, vars(owner).get(attr)))
        setattr(owner, attr, traced)

    def close(self) -> None:
        """Restore every wrapped attribute (in reverse order)."""
        while self._originals:
            owner, attr, had_own, value = self._originals.pop()
            if had_own:
                setattr(owner, attr, value)
            else:
                delattr(owner, attr)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def by_request(self) -> Dict[int, List[Span]]:
        grouped: Dict[int, List[Span]] = {}
        for span in self.spans:
            if span.request is not None:
                grouped.setdefault(span.request, []).append(span)
        return grouped


# ----------------------------------------------------------------------
# Interval arithmetic
# ----------------------------------------------------------------------
def merge(intervals: Iterable[Interval]) -> List[Interval]:
    """Sorted, disjoint intervals covering the same points."""
    merged: List[List[float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            if end > merged[-1][1]:
                merged[-1][1] = end
        else:
            merged.append([start, end])
    return [(a, b) for a, b in merged]


def covered(intervals: Iterable[Interval], within: Optional[Interval] = None) -> float:
    """Length of the union of ``intervals``, optionally clipped to ``within``."""
    total = 0.0
    for start, end in merge(intervals):
        if within is not None:
            start = max(start, within[0])
            end = min(end, within[1])
        if end > start:
            total += end - start
    return total


def overlapped(intervals: Sequence[Interval]) -> float:
    """Length of time during which at least two of ``intervals`` are open."""
    edges = sorted(
        [(start, 1) for start, _ in intervals] + [(end, -1) for _, end in intervals]
    )
    depth = 0
    total = 0.0
    previous = 0.0
    for at, step in edges:
        if depth >= 2:
            total += at - previous
        depth += step
        previous = at
    return total


def self_times(spans: Sequence[Span], order: Sequence[Sequence[str]]) -> Dict[str, float]:
    """Self time per layer for the spans of one request.

    ``order`` lists the layers outermost first; each entry is a group of
    layers at the same depth (the innermost group may hold several leaf
    layers that overlap each other, e.g. policy and nn).  A span's self
    time is its duration minus the part of it covered by spans of the next
    group down; a leaf group's time is the union of its spans.  Groups
    with no span in this request are skipped, so the next group down
    becomes the child.
    """
    present = [
        group for group in order if any(s.layer in group for s in spans)
    ]
    result: Dict[str, float] = {}
    for depth, group in enumerate(present):
        own = [s for s in spans if s.layer in group]
        if depth + 1 == len(present):
            result["+".join(group)] = covered(s.interval for s in own)
            continue
        children = merge(
            s.interval for s in spans if s.layer in present[depth + 1]
        )
        for layer in group:
            layer_spans = [s for s in own if s.layer == layer]
            if layer_spans:
                result[layer] = sum(
                    s.duration - covered(children, s.interval)
                    for s in layer_spans
                )
    return result


def chrome_events(spans: Iterable[Span]) -> List[Dict[str, object]]:
    """Complete ("X") events, microseconds, one row per thread."""
    spans = list(spans)
    origin = min((s.start for s in spans), default=0.0)
    events = []
    for s in spans:
        args: Dict[str, object] = {"layer": s.layer}
        if s.request is not None:
            args["request"] = s.request
        if s.size is not None:
            args["size"] = s.size
        events.append(
            {
                "name": s.name,
                "cat": s.layer,
                "ph": "X",
                "ts": (s.start - origin) * 1e6,
                "dur": s.duration * 1e6,
                "pid": 0,
                "tid": s.thread,
                "args": args,
            }
        )
    return events
