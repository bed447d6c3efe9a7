"""Shared test fixtures: deterministic time for the whole suite.

Timing-dependent tests come in two shapes, and each gets a tool here:

- **Pure time logic** (autoscaler cooldowns, circuit-breaker windows,
  EWMA decay): inject a :class:`repro.clock.VirtualClock` — the
  ``virtual_clock`` fixture — and *advance* time instead of sleeping.
  These tests run in microseconds and cannot flake.
- **Real concurrency** (a child process dying, a worker thread draining
  a queue): there is genuinely something to wait for, but the wait must
  be *bounded polling*, never a bare ``time.sleep`` tuned to one
  machine.  Use :func:`repro.clock.wait_until` (re-exported here for
  visibility) and assert its return value.
"""

import pytest

from repro.clock import VirtualClock, wait_until

__all__ = ["VirtualClock", "wait_until"]


@pytest.fixture
def virtual_clock() -> VirtualClock:
    """A fresh deterministic clock starting at t=0."""
    return VirtualClock()
