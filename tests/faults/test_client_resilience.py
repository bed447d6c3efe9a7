"""EugeneClient's retry/breaker wiring, exercised against a stub service.

The client never inspects the service object beyond calling its endpoint
methods, so a counting stub isolates the resilience plumbing from model
training.
"""

import numpy as np
import pytest

from repro import faults, telemetry
from repro.clock import VirtualClock
from repro.faults import (
    CircuitBreaker,
    CircuitOpenError,
    FaultPlan,
    FaultSpec,
    RetriesExhaustedError,
    RetryPolicy,
    TransientServiceError,
)
from repro.service.client import EugeneClient


class StubService:
    """Counts endpoint calls; optionally fails the first N of them."""

    def __init__(self, fail_first=0):
        self.calls = 0
        self.fail_first = fail_first

    def classify(self, request):
        self.calls += 1
        if self.calls <= self.fail_first:
            raise TransientServiceError("stub outage")
        return ("ok", request)


@pytest.fixture(autouse=True)
def clean_sessions():
    faults.uninstall()
    telemetry.disable()
    yield
    faults.uninstall()
    telemetry.disable()


def make_client(service, **retry_kwargs):
    retry_kwargs.setdefault("max_attempts", 3)
    retry_kwargs.setdefault("base_delay_s", 0.0)
    return EugeneClient(service, retry_policy=RetryPolicy(**retry_kwargs))


INPUTS = np.zeros((2, 1, 4, 4))


class TestDisarmedPassthrough:
    def test_single_service_call_and_result_returned(self):
        service = StubService()
        client = make_client(service)
        result, request = client.classify("m", INPUTS)
        assert result == "ok"
        assert request.model_id == "m"
        assert service.calls == 1
        assert client.breaker("classify").state == "closed"


class TestRetries:
    def test_transient_service_errors_retried_to_success(self):
        service = StubService(fail_first=2)
        client = make_client(service)
        result, _ = client.classify("m", INPUTS)
        assert result == "ok"
        assert service.calls == 3

    def test_injected_client_fault_cleared_on_retry(self):
        # The client.<endpoint> site is consulted once per attempt, so a
        # fault scheduled only at invocation 0 clears on the retry.
        service = StubService()
        client = make_client(service)
        plan = FaultPlan(
            seed=0, specs=[FaultSpec("client.classify", faults.ERROR, at=(0,))]
        )
        with telemetry.session() as tel, faults.plan_session(plan):
            result, _ = client.classify("m", INPUTS)
            assert result == "ok"
            assert service.calls == 1  # attempt 0 failed before the service
            assert tel.registry.counters()["client.retries.classify"] == 1
            assert len(tel.trace.events(telemetry.RETRY)) == 1

    def test_retries_bounded_and_typed_when_fault_persists(self):
        service = StubService()
        client = make_client(service)
        plan = FaultPlan(
            seed=0,
            specs=[FaultSpec("client.classify", faults.ERROR, probability=1.0)],
        )
        with faults.plan_session(plan):
            with pytest.raises(RetriesExhaustedError):
                client.classify("m", INPUTS)
        assert service.calls == 0  # every attempt died on the "network"
        assert plan.invocations("client.classify") == 3  # == max_attempts

    def test_validation_errors_are_not_retried(self):
        service = StubService()
        client = make_client(service)
        with pytest.raises(ValueError):
            client.classify("m", np.full((2, 1, 4, 4), np.nan))
        assert service.calls == 0


class TestCircuitBreaker:
    def _hammer(self, client, times):
        for _ in range(times):
            with pytest.raises(RetriesExhaustedError):
                client.classify("m", INPUTS)

    def test_opens_after_threshold_and_fast_fails(self):
        service = StubService()
        client = EugeneClient(
            service,
            retry_policy=RetryPolicy(max_attempts=1, base_delay_s=0.0),
            breaker_factory=lambda: CircuitBreaker(
                failure_threshold=2, cooldown_s=60.0
            ),
        )
        plan = FaultPlan(
            seed=0,
            specs=[FaultSpec("client.classify", faults.ERROR, probability=1.0)],
        )
        with telemetry.session() as tel, faults.plan_session(plan):
            self._hammer(client, 2)
            invocations_when_open = plan.invocations("client.classify")
            with pytest.raises(CircuitOpenError):
                client.classify("m", INPUTS)
            # Fast fail: the open breaker never touched the site again.
            assert plan.invocations("client.classify") == invocations_when_open
            assert tel.registry.counters()["client.breaker_open.classify"] == 1
            assert len(tel.trace.events(telemetry.BREAKER_OPEN)) == 1

    def test_recovers_through_half_open_probe(self):
        service = StubService()
        client = EugeneClient(
            service,
            retry_policy=RetryPolicy(max_attempts=1, base_delay_s=0.0),
            breaker_factory=lambda: CircuitBreaker(
                failure_threshold=1, cooldown_s=0.0  # probe immediately
            ),
        )
        plan = FaultPlan(
            seed=0, specs=[FaultSpec("client.classify", faults.ERROR, at=(0,))]
        )
        with telemetry.session() as tel, faults.plan_session(plan):
            with pytest.raises(RetriesExhaustedError):
                client.classify("m", INPUTS)
            assert client.breaker("classify").state in ("open", "half-open")
            result, _ = client.classify("m", INPUTS)  # the probe, fault cleared
            assert result == "ok"
            assert client.breaker("classify").state == "closed"
            assert len(tel.trace.events(telemetry.BREAKER_CLOSE)) == 1

    def test_trace_events_stamped_from_the_breaker_clock(self):
        """retry / breaker-open / breaker-close carry the breaker's own
        (virtual) time, not a literal 0.0."""
        clock = VirtualClock(start=100.0)
        client = EugeneClient(
            StubService(),
            retry_policy=RetryPolicy(max_attempts=2, base_delay_s=0.0),
            breaker_factory=lambda: CircuitBreaker(
                failure_threshold=1, cooldown_s=5.0, clock=clock
            ),
        )
        plan = FaultPlan(
            seed=0, specs=[FaultSpec("client.classify", faults.ERROR, at=(0, 1))]
        )
        with telemetry.session() as tel, faults.plan_session(plan):
            clock.advance(1.5)
            with pytest.raises(RetriesExhaustedError):
                client.classify("m", INPUTS)  # attempt, retry, open
            clock.advance(7.0)  # past the cooldown: the next call is the probe
            result, _ = client.classify("m", INPUTS)
            assert result == "ok"
            (retry,) = tel.trace.events(telemetry.RETRY)
            (opened,) = tel.trace.events(telemetry.BREAKER_OPEN)
            (closed,) = tel.trace.events(telemetry.BREAKER_CLOSE)
            assert retry.t == opened.t == 101.5
            assert closed.t == 108.5
            assert opened.t < closed.t

    def test_breakers_are_per_endpoint(self):
        client = make_client(StubService())
        assert client.breaker("classify") is client.breaker("classify")
        assert client.breaker("classify") is not client.breaker("infer")
