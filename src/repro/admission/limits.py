"""Rate and concurrency limiters — the mechanical half of admission control.

Both limiters are deliberately tiny and deterministic.  The token bucket
reads no clock: every decision is a pure function of the ``now`` its
caller passes — virtual time in the
:class:`~repro.scheduler.simulator.PoolSimulator` and the workload engine,
the :class:`~repro.admission.AdmissionController`'s clock on the live
service.  Thread safety matters only for the live path, so each limiter
carries its own lock.
"""

from __future__ import annotations

import threading
from typing import Optional


class TokenBucket:
    """Classic token-bucket rate limiter.

    Tokens refill continuously at ``rate_per_s`` up to ``burst``; each
    admitted request consumes one.  :meth:`retry_after` converts the token
    deficit back into the seconds a rejected caller should wait — the
    retry-after hint carried by a typed rejection.

    Every call passes ``now``.  The first call anchors the refill origin
    (the bucket starts full); a ``now`` earlier than the last refill
    neither refills nor moves the origin, so replaying a stale timestamp
    can never mint tokens.
    """

    def __init__(self, rate_per_s: float, burst: Optional[float] = None) -> None:
        if rate_per_s <= 0:
            raise ValueError("rate_per_s must be positive")
        if burst is not None and burst < 1:
            raise ValueError("burst must allow at least one token")
        self.rate_per_s = float(rate_per_s)
        self.burst = float(burst) if burst is not None else max(1.0, rate_per_s)
        self._tokens = self.burst
        self._refilled_at: Optional[float] = None
        self._lock = threading.Lock()

    def _refill(self, now: float) -> None:
        if self._refilled_at is None:
            self._refilled_at = now
        elif now > self._refilled_at:
            elapsed = now - self._refilled_at
            self._tokens = min(self.burst, self._tokens + elapsed * self.rate_per_s)
            self._refilled_at = now

    def try_acquire(self, now: float) -> bool:
        """Consume one token if one is available at ``now``."""
        with self._lock:
            self._refill(now)
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                return True
            return False

    def charge(self, now: float) -> None:
        """Deduct one token unconditionally, allowing the balance to go
        negative (debt).  Used by hierarchical sharing: guaranteed-share
        admissions debit the shared pool so borrowers only ever see
        capacity that is genuinely unused — a failed best-effort charge
        would silently inflate the aggregate admitted rate instead."""
        with self._lock:
            self._refill(now)
            self._tokens -= 1.0

    def retry_after(self, now: float) -> float:
        """Seconds until one token will be available (0 if one already is)."""
        with self._lock:
            self._refill(now)
            deficit = 1.0 - self._tokens
            return max(0.0, deficit / self.rate_per_s)

    @property
    def tokens(self) -> float:
        with self._lock:
            return self._tokens


class ConcurrencyLimiter:
    """Bounds the number of requests simultaneously past admission."""

    def __init__(self, max_concurrent: int) -> None:
        if max_concurrent < 1:
            raise ValueError("max_concurrent must be >= 1")
        self.max_concurrent = max_concurrent
        self._in_flight = 0
        self._lock = threading.Lock()

    def try_acquire(self) -> bool:
        with self._lock:
            if self._in_flight >= self.max_concurrent:
                return False
            self._in_flight += 1
            return True

    def release(self) -> None:
        with self._lock:
            if self._in_flight == 0:
                raise RuntimeError("release() without a matching acquire")
            self._in_flight -= 1

    @property
    def in_flight(self) -> int:
        with self._lock:
            return self._in_flight
