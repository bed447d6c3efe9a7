"""Retry policy and circuit breaker: exact, deterministic behaviour."""

import itertools

import pytest

from repro.clock import VirtualClock
from repro.faults import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
    CircuitOpenError,
    RequestTimeoutError,
    RetriesExhaustedError,
    RetryPolicy,
    TransientServiceError,
)


class TestRetryPolicyValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"base_delay_s": -0.1},
            {"multiplier": 0.5},
            {"base_delay_s": 0.1, "max_delay_s": 0.01},
            {"timeout_s": 0.0},
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_delays_are_exponential_and_capped(self):
        policy = RetryPolicy(
            max_attempts=5, base_delay_s=0.01, multiplier=2.0, max_delay_s=0.03
        )
        assert list(policy.delays()) == pytest.approx([0.01, 0.02, 0.03, 0.03])

    def test_delay_count_is_attempts_minus_one(self):
        assert len(list(RetryPolicy(max_attempts=1).delays())) == 0
        assert len(list(RetryPolicy(max_attempts=4).delays())) == 3


class TestRetryPolicyCall:
    def _flaky(self, failures):
        """A callable failing transiently ``failures`` times, then 'ok'."""
        counter = itertools.count()

        def fn():
            if next(counter) < failures:
                raise TransientServiceError("flake")
            return "ok"

        return fn

    def test_success_first_try_no_delay(self):
        policy = RetryPolicy(max_attempts=3, base_delay_s=0.0)
        assert policy.call(self._flaky(0)) == "ok"

    def test_transient_errors_retried_until_success(self):
        policy = RetryPolicy(max_attempts=4, base_delay_s=0.0)
        assert policy.call(self._flaky(3)) == "ok"

    def test_retries_are_bounded(self):
        policy = RetryPolicy(max_attempts=3, base_delay_s=0.0)
        calls = []

        def always_fails():
            calls.append(1)
            raise TransientServiceError("down")

        with pytest.raises(RetriesExhaustedError) as excinfo:
            policy.call(always_fails)
        assert len(calls) == 3  # exactly max_attempts, never more
        assert isinstance(excinfo.value.last_error, TransientServiceError)

    def test_non_transient_error_propagates_immediately(self):
        policy = RetryPolicy(max_attempts=5, base_delay_s=0.0)
        calls = []

        def buggy():
            calls.append(1)
            raise ValueError("a bug, not an outage")

        with pytest.raises(ValueError):
            policy.call(buggy)
        assert len(calls) == 1

    def test_timeout_budget_stops_backoff(self):
        # The first backoff (0.2s) cannot fit in the 0.05s budget, so the
        # call must fail fast with the timeout error, not sleep through it.
        policy = RetryPolicy(
            max_attempts=5, base_delay_s=0.2, max_delay_s=0.2, timeout_s=0.05
        )
        with pytest.raises(RequestTimeoutError):
            policy.call(self._flaky(10))

    def test_timeout_error_is_a_timeout(self):
        assert issubclass(RequestTimeoutError, TimeoutError)

    def test_on_retry_hook_sees_each_attempt(self):
        policy = RetryPolicy(max_attempts=4, base_delay_s=0.0)
        seen = []
        policy.call(self._flaky(2), on_retry=lambda n, e: seen.append(n))
        assert seen == [1, 2]


class TestCircuitBreaker:
    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(cooldown_s=-1.0)

    def test_starts_closed_and_allows(self):
        b = CircuitBreaker()
        assert b.state == CLOSED
        assert b.allow()

    def test_opens_after_consecutive_failures(self):
        b = CircuitBreaker(failure_threshold=3, clock=VirtualClock())
        for _ in range(2):
            b.record_failure()
        assert b.state == CLOSED
        b.record_failure()
        assert b.state == OPEN
        assert not b.allow()

    def test_success_resets_the_streak(self):
        b = CircuitBreaker(failure_threshold=2, clock=VirtualClock())
        b.record_failure()
        b.record_success()
        b.record_failure()
        assert b.state == CLOSED  # streak broken; needs 2 consecutive

    def test_guard_raises_when_open(self):
        clock = VirtualClock()
        b = CircuitBreaker(failure_threshold=1, cooldown_s=10.0, clock=clock)
        b.record_failure()
        with pytest.raises(CircuitOpenError):
            b.guard("classify")
        b.record_success()  # manual close
        b.guard("classify")  # no raise

    def test_half_open_after_cooldown_admits_single_probe(self):
        clock = VirtualClock()
        b = CircuitBreaker(failure_threshold=1, cooldown_s=1.0, clock=clock)
        b.record_failure()
        assert not b.allow()
        clock.advance(1.5)
        assert b.state == HALF_OPEN
        assert b.allow()       # the probe
        assert not b.allow()   # only one probe at a time

    def test_probe_success_closes(self):
        clock = VirtualClock()
        b = CircuitBreaker(failure_threshold=1, cooldown_s=1.0, clock=clock)
        b.record_failure()
        clock.advance(2.0)
        assert b.allow()
        b.record_success()
        assert b.state == CLOSED
        assert b.allow()

    def test_probe_failure_reopens_for_another_cooldown(self):
        clock = VirtualClock()
        b = CircuitBreaker(failure_threshold=1, cooldown_s=1.0, clock=clock)
        b.record_failure()
        clock.advance(2.0)
        assert b.allow()
        b.record_failure()
        assert b.state == OPEN
        assert not b.allow()
        clock.advance(1.1)
        assert b.allow()  # next probe window
