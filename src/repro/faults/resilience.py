"""Client-side recovery machinery: bounded retries and circuit breakers.

The fault plan injects failures; this module is the other half of the
contract — the handling that makes injection survivable.  Both pieces are
deliberately small and deterministic so chaos tests can assert exact
behaviour (attempt counts, breaker state transitions) rather than
statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional, TypeVar

from ..clock import MONOTONIC, Clock
from .errors import (
    BackpressureError,
    CircuitOpenError,
    RequestTimeoutError,
    RetriesExhaustedError,
    TransientServiceError,
)

T = TypeVar("T")


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff over :class:`TransientServiceError`.

    ``max_attempts`` counts *calls*, not retries: 4 attempts = 1 call + 3
    retries.  ``timeout_s`` is the per-request budget across all attempts
    (including backoff sleeps); when the budget cannot cover the next sleep
    the call fails with :class:`RequestTimeoutError` instead of overrunning.
    """

    max_attempts: int = 4
    base_delay_s: float = 0.002
    multiplier: float = 2.0
    max_delay_s: float = 0.05
    timeout_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay_s < 0:
            raise ValueError("base_delay_s must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if self.max_delay_s < self.base_delay_s:
            raise ValueError("max_delay_s must be >= base_delay_s")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive when given")

    def delays(self) -> Iterator[float]:
        """The backoff sleep before retry i (``max_attempts - 1`` values)."""
        delay = self.base_delay_s
        for _ in range(self.max_attempts - 1):
            yield min(delay, self.max_delay_s)
            delay *= self.multiplier

    def call(
        self,
        fn: Callable[[], T],
        on_retry: Optional[Callable[[int, Exception], None]] = None,
    ) -> T:
        """Run ``fn`` under this policy.

        Only :class:`TransientServiceError` and :class:`BackpressureError`
        are retried; any other exception propagates on the first
        occurrence.  A backpressure rejection carries a retry-after hint
        from the service's admission controller, and the backoff honours
        it: the sleep before the next attempt is at least that hint (still
        within the ``timeout_s`` budget).  ``on_retry(attempt, error)`` is
        invoked before each backoff sleep (telemetry hooks plug in here).
        """
        start = MONOTONIC.now()
        delays = self.delays()
        last_error: Exception
        for attempt in range(1, self.max_attempts + 1):
            if (
                self.timeout_s is not None
                and MONOTONIC.now() - start > self.timeout_s
            ):
                raise RequestTimeoutError(
                    f"request exceeded {self.timeout_s:g}s budget "
                    f"after {attempt - 1} attempt(s)"
                )
            try:
                return fn()
            except (TransientServiceError, BackpressureError) as error:
                last_error = error
                if attempt == self.max_attempts:
                    break
                delay = next(delays)
                if isinstance(error, BackpressureError):
                    delay = max(delay, error.retry_after_s)
                if (
                    self.timeout_s is not None
                    and MONOTONIC.now() - start + delay > self.timeout_s
                ):
                    raise RequestTimeoutError(
                        f"request budget {self.timeout_s:g}s cannot cover the "
                        f"next {delay:g}s backoff after {attempt} attempt(s)"
                    ) from error
                if on_retry is not None:
                    on_retry(attempt, error)
                MONOTONIC.sleep(delay)
        raise RetriesExhaustedError(
            f"all {self.max_attempts} attempts failed "
            f"(last error: {last_error})",
            last_error,
        )


#: Circuit-breaker states.
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


class CircuitBreaker:
    """Per-endpoint circuit breaker (closed → open → half-open → closed).

    ``failure_threshold`` *consecutive* failures open the circuit; while
    open, :meth:`allow` is ``False`` (callers fast-fail with
    :class:`CircuitOpenError` without touching the endpoint).  After
    ``cooldown_s`` the breaker admits a single probe (half-open): success
    closes it, failure re-opens it for another cooldown.
    """

    def __init__(
        self,
        failure_threshold: int = 5,
        cooldown_s: float = 0.05,
        clock: Clock = MONOTONIC,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if cooldown_s < 0:
            raise ValueError("cooldown_s must be non-negative")
        self.failure_threshold = failure_threshold
        self.cooldown_s = cooldown_s
        self._clock = clock
        self._state = CLOSED
        self._consecutive_failures = 0
        self._opened_at: Optional[float] = None
        self._probe_outstanding = False

    def now(self) -> float:
        """The breaker's own (injectable) clock: what state changes are
        timed by, and what callers stamp trace events about them with."""
        return self._clock.now()

    @property
    def state(self) -> str:
        self._maybe_half_open()
        return self._state

    def _maybe_half_open(self) -> None:
        if (
            self._state == OPEN
            and self._opened_at is not None
            and self._clock.now() - self._opened_at >= self.cooldown_s
        ):
            self._state = HALF_OPEN
            self._probe_outstanding = False

    def allow(self) -> bool:
        """May a call proceed right now?"""
        self._maybe_half_open()
        if self._state == CLOSED:
            return True
        if self._state == HALF_OPEN and not self._probe_outstanding:
            self._probe_outstanding = True
            return True
        return False

    def record_success(self) -> None:
        self._state = CLOSED
        self._consecutive_failures = 0
        self._opened_at = None
        self._probe_outstanding = False

    def record_failure(self) -> None:
        if self._state == HALF_OPEN:
            self._trip()
            return
        self._consecutive_failures += 1
        if self._consecutive_failures >= self.failure_threshold:
            self._trip()

    def _trip(self) -> None:
        self._state = OPEN
        self._opened_at = self._clock.now()
        self._consecutive_failures = 0
        self._probe_outstanding = False

    def guard(self, endpoint: str) -> None:
        """Raise :class:`CircuitOpenError` unless a call may proceed."""
        if not self.allow():
            raise CircuitOpenError(
                f"circuit for endpoint {endpoint!r} is {self._state}; "
                f"retry after the {self.cooldown_s:g}s cooldown"
            )
