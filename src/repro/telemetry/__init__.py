"""repro.telemetry — metrics + tracing for the staged-inference stack.

The paper's evaluation (Tables I–III, Fig. 4) is built on per-stage
latency, utility accrual and deadline misses; this package makes those
first-class observables of the runtime, the simulator, the profiler and
the service endpoints instead of ad-hoc logs:

- :class:`MetricsRegistry` — counters, gauges, and streaming histograms
  (p50/p95/p99 without storing samples);
- :class:`TraceLog` — typed scheduler events (admit, batch-form,
  stage-dispatch, complete, evict, deadline-miss);
- :func:`enable` / :func:`disable` / :func:`active` — the global session.

**Disabled by default.**  Every instrumented hot path does exactly one
module-attribute read and a ``None`` check when telemetry is off, so the
fast-path benchmark (``make bench-fast``) is unaffected until a session
is explicitly enabled::

    from repro import telemetry

    session = telemetry.enable()
    ... serve traffic ...
    print(telemetry.render_text(session))
    telemetry.disable()

or, scoped (used throughout the tests)::

    with telemetry.session() as t:
        service.classify(request)
        assert t.registry.counter("service.requests.classify").value == 1
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from typing import Callable, Iterator, Optional

from ..clock import MONOTONIC, stopwatch
from .export import render_text, to_dict, to_json
from .metrics import BoundedLabels, Counter, Gauge, Histogram, MetricsRegistry
from .trace import (
    ADMISSION_REJECT,
    ADMIT,
    BATCH_FORM,
    BREAKER_CLOSE,
    BREAKER_OPEN,
    COMPLETE,
    DEADLINE_MISS,
    DEGRADE_CAP,
    DEGRADED,
    EVENT_KINDS,
    EVICT,
    FAULT_INJECT,
    ITEM_RETRY,
    LOAD_SHED,
    RETRY,
    STAGE_DISPATCH,
    TraceEvent,
    TraceLog,
)


class Telemetry:
    """One telemetry session: a metrics registry plus a trace log."""

    def __init__(self, trace_capacity: int = 10000) -> None:
        self.registry = MetricsRegistry()
        self.trace = TraceLog(capacity=trace_capacity)
        self._t0 = MONOTONIC.now()

    def now(self) -> float:
        """Seconds since the session started (or was last reset) — the
        clock for events that belong to no single episode."""
        return MONOTONIC.now() - self._t0

    def reset(self) -> None:
        self.registry.reset()
        self.trace.clear()
        self._t0 = MONOTONIC.now()


#: The module-global session; ``None`` means telemetry is off.  Hot paths
#: read this exactly once per instrumentation point (via :func:`active`).
_session: Optional[Telemetry] = None


def enable(trace_capacity: int = 10000) -> Telemetry:
    """Install (or return the already-installed) global session."""
    global _session
    if _session is None:
        _session = Telemetry(trace_capacity=trace_capacity)
    return _session


def disable() -> None:
    """Uninstall the global session; instrumentation reverts to no-ops."""
    global _session
    _session = None


def active() -> Optional[Telemetry]:
    """The current session, or ``None`` when telemetry is disabled."""
    return _session


def enabled() -> bool:
    return _session is not None


@contextmanager
def session(trace_capacity: int = 10000) -> Iterator[Telemetry]:
    """Enable telemetry for a scope, restoring the prior state on exit."""
    global _session
    previous = _session
    _session = Telemetry(trace_capacity=trace_capacity)
    try:
        yield _session
    finally:
        _session = previous


def timed(endpoint: str) -> Callable:
    """Decorator: per-endpoint request counter + latency histogram.

    Applied to every :class:`~repro.service.server.EugeneService` endpoint.
    With telemetry disabled the wrapper is one global read and a ``None``
    check on top of the call — nothing is recorded and no clock is read.
    """

    requests_name = f"service.requests.{endpoint}"
    errors_name = f"service.errors.{endpoint}"
    latency_name = f"service.latency_ms.{endpoint}"

    def decorate(fn: Callable) -> Callable:
        # Per-session instrument cache: registry.counter()/histogram()
        # take the registry lock on every lookup; the decorator resolves
        # its three instruments once per session instead of per request.
        cache: dict = {}

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tel = _session
            if tel is None:
                return fn(*args, **kwargs)
            instruments = cache.get("i")
            if instruments is None or cache.get("tel") is not tel:
                instruments = (
                    tel.registry.counter(requests_name),
                    tel.registry.counter(errors_name),
                    tel.registry.histogram(latency_name),
                )
                cache["tel"] = tel
                cache["i"] = instruments
            requests, errors, latency = instruments
            # Counted on entry so a summary built *inside* the endpoint
            # (InferResponse.metrics) already includes this request.
            requests.inc()
            elapsed = stopwatch()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                errors.inc()
                raise
            latency.observe(1e3 * elapsed())
            return result

        return wrapper

    return decorate


__all__ = [
    "Telemetry",
    "MetricsRegistry",
    "BoundedLabels",
    "Counter",
    "Gauge",
    "Histogram",
    "TraceLog",
    "TraceEvent",
    "EVENT_KINDS",
    "ADMIT",
    "BATCH_FORM",
    "STAGE_DISPATCH",
    "COMPLETE",
    "EVICT",
    "DEADLINE_MISS",
    "FAULT_INJECT",
    "ITEM_RETRY",
    "RETRY",
    "DEGRADED",
    "BREAKER_OPEN",
    "BREAKER_CLOSE",
    "ADMISSION_REJECT",
    "LOAD_SHED",
    "DEGRADE_CAP",
    "enable",
    "disable",
    "active",
    "enabled",
    "session",
    "timed",
    "render_text",
    "to_dict",
    "to_json",
]
