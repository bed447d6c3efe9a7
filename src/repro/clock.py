"""The one module that reads time.

Every time-dependent decision in the package (deadlines, cooldowns,
hysteresis windows, retry backoffs, injected stalls) reads time through a
:class:`Clock`, never through :mod:`time` directly — a guard test fails on
``time.monotonic`` / ``time.time`` / ``time.sleep`` / ``time.perf_counter``
anywhere else.  A component either owns a ``Clock`` (defaulting to the shared
:data:`MONOTONIC`) or is handed ``now`` by its caller; the token bucket is
the second kind.  Tests get :class:`VirtualClock`, where time only moves
when the test says so — a decision becomes a pure function of its inputs
and the virtual now, and a suite runs without a single real sleep.

Measured durations (latency histograms, experiment wall times) come from
:func:`stopwatch`, the one reader of ``time.perf_counter``: a stopwatch
reports how long something took and never decides anything.

:func:`wait_until` is the bounded-polling companion for conditions that
*do* involve real concurrency (a child process dying, a queue draining).
It polls through the clock, so under a virtual clock the "waiting" is
deterministic time-stepping rather than wall-clock sleeping.
"""

from __future__ import annotations

import threading
import time
from typing import Callable


class Clock:
    """The minimal time surface every component depends on."""

    def now(self) -> float:  # pragma: no cover - interface
        raise NotImplementedError

    def sleep(self, seconds: float) -> None:  # pragma: no cover - interface
        raise NotImplementedError


class MonotonicClock(Clock):
    """Real time: ``time.monotonic`` + ``time.sleep``."""

    def now(self) -> float:
        return time.monotonic()

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            time.sleep(seconds)


#: The shared real-time clock: the default of every component that owns one.
MONOTONIC = MonotonicClock()


class VirtualClock(Clock):
    """Deterministic time under test control.

    ``now()`` returns the virtual timestamp; :meth:`advance` moves it
    forward.  :meth:`sleep` *advances* time instead of blocking, so code
    written against the :class:`Clock` interface (bounded polls, retry
    backoffs) terminates instantly and deterministically under test.
    Thread-safe, and monotone by construction — :meth:`advance` rejects
    negative steps.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        self._lock = threading.Lock()

    def now(self) -> float:
        with self._lock:
            return self._now

    def advance(self, seconds: float) -> float:
        """Move time forward by ``seconds``; returns the new now."""
        if seconds < 0:
            raise ValueError("a clock cannot run backwards")
        with self._lock:
            self._now += seconds
            return self._now

    def sleep(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("cannot sleep a negative duration")
        self.advance(seconds)


def stopwatch() -> Callable[[], float]:
    """Start a stopwatch; calling the result gives the seconds since."""
    start = time.perf_counter()
    return lambda: time.perf_counter() - start


def wait_until(
    predicate: Callable[[], bool],
    timeout: float = 15.0,
    interval: float = 0.05,
    clock: Clock = MONOTONIC,
) -> bool:
    """Poll ``predicate`` until true or ``timeout`` elapses on ``clock``.

    The one sanctioned replacement for ad-hoc ``time.sleep`` loops: the
    wait is *bounded* (never a bare sleep whose duration was tuned to a
    machine) and clock-injectable (a virtual clock makes the poll a
    deterministic time-step loop).  Returns the predicate's final value,
    so callers can ``assert wait_until(...)``.
    """
    deadline = clock.now() + timeout
    while clock.now() < deadline:
        if predicate():
            return True
        clock.sleep(interval)
    return predicate()
