"""Regression tests for admission-layer timekeeping bugs.

Found preparing the million-request workload runs (long virtual-time
horizons make clock mistakes visible):

- ``AdmissionController._reject`` stamped every rejection trace event at
  a hard-coded ``t=0.0`` instead of the decision time, collapsing any
  long-horizon rejection timeline into a single instant.
- ``TokenBucket`` accepted interleaved internal-clock and ``now=``
  (virtual-time) decisions; the two timelines share no origin, so each
  switch minted or destroyed tokens.  The bucket now reads no clock at
  all: every call passes ``now``.
- ``TokenBucket`` moved its refill origin back to a stale ``now``, so a
  later decision at the original instant refilled the same interval
  twice.
"""

import pytest

from repro import telemetry
from repro.admission import AdmissionController, EndpointLimits, TokenBucket
from repro.clock import VirtualClock
from repro.telemetry.trace import ADMISSION_REJECT


def _reject_events(tel):
    return [e for e in tel.trace.events() if e.kind == ADMISSION_REJECT]


class TestRejectTraceTimestamp:
    """Pre-fix, every assertion on ``event.t`` here saw ``0.0``."""

    def test_virtual_time_rejection_stamped_at_decision_time(self):
        controller = AdmissionController(
            per_endpoint={"infer": EndpointLimits(rate_per_s=1.0, burst=1)}
        )
        with telemetry.session() as tel:
            assert controller.admit("infer", now=42.0).admitted
            assert not controller.admit("infer", now=42.5).admitted
            (event,) = _reject_events(tel)
            assert event.t == pytest.approx(42.5)

    def test_successive_rejections_keep_their_own_timestamps(self):
        controller = AdmissionController(
            per_endpoint={"infer": EndpointLimits(rate_per_s=0.1, burst=1)}
        )
        with telemetry.session() as tel:
            assert controller.admit("infer", now=10.0).admitted
            for t in (11.0, 12.5, 17.25):
                assert not controller.admit("infer", now=t).admitted
            stamps = [e.t for e in _reject_events(tel)]
            assert stamps == pytest.approx([11.0, 12.5, 17.25])

    def test_internal_clock_rejection_stamped_from_injected_clock(self):
        clock = VirtualClock(start=100.0)
        controller = AdmissionController(
            per_endpoint={"infer": EndpointLimits(rate_per_s=1.0, burst=1)},
            clock=clock,
        )
        with telemetry.session() as tel:
            assert controller.admit("infer").admitted
            clock.advance(0.25)
            assert not controller.admit("infer").admitted
            (event,) = _reject_events(tel)
            assert event.t == pytest.approx(100.25)


class TestTokenBucketClockLatch:
    """What the clock-source latch guarded and still holds now that every
    call passes ``now``: one timeline per bucket, anchored at its first
    decision."""

    def test_single_source_usage_unaffected(self):
        bucket = TokenBucket(1.0, burst=1)
        assert bucket.try_acquire(now=0.0)
        assert not bucket.try_acquire(now=0.5)
        assert bucket.try_acquire(now=1.0)

    def test_first_external_call_reanchors_the_timeline(self):
        # The first decision is the refill origin, wherever the caller's
        # timeline starts: the time before it is not refill time.
        bucket = TokenBucket(1.0, burst=1)
        assert bucket.try_acquire(now=1000.0)
        assert not bucket.try_acquire(now=1000.25)
        assert bucket.try_acquire(now=1001.5)


class TestTokenBucketStaleNow:
    """Pre-fix, a stale ``now`` moved the refill origin back in time."""

    def test_stale_now_mints_no_tokens(self):
        bucket = TokenBucket(1.0, burst=1)
        assert bucket.try_acquire(now=10.0)
        bucket.retry_after(now=5.0)
        assert not bucket.try_acquire(now=10.0)

    def test_stale_now_still_sees_the_balance(self):
        bucket = TokenBucket(2.0, burst=1)
        assert bucket.try_acquire(now=10.0)
        assert bucket.retry_after(now=5.0) == pytest.approx(0.5)
        assert bucket.try_acquire(now=10.5)
