"""Unit tests for the token-bucket and concurrency limiters."""

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.admission import ConcurrencyLimiter, TokenBucket


class TestTokenBucket:
    def test_burst_defaults_to_rate(self):
        assert TokenBucket(5.0).burst == 5.0

    def test_burst_floor_is_one_token(self):
        # Sub-1/s rates must still admit a first request.
        assert TokenBucket(0.2).burst == 1.0
        assert TokenBucket(0.2).try_acquire(now=0.0)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            TokenBucket(0.0)
        with pytest.raises(ValueError):
            TokenBucket(-1.0)

    def test_rejects_sub_token_burst(self):
        with pytest.raises(ValueError):
            TokenBucket(1.0, burst=0.5)

    def test_burst_then_refusal(self):
        bucket = TokenBucket(1.0, burst=3)
        assert [bucket.try_acquire(now=0.0) for _ in range(4)] == [
            True,
            True,
            True,
            False,
        ]

    def test_refills_at_rate(self):
        bucket = TokenBucket(2.0, burst=1)
        assert bucket.try_acquire(now=0.0)
        assert not bucket.try_acquire(now=0.0)
        # 2 tokens/s: half a second buys one token back.
        assert bucket.try_acquire(now=0.5)
        assert not bucket.try_acquire(now=0.5)

    def test_refill_caps_at_burst(self):
        bucket = TokenBucket(10.0, burst=2)
        assert bucket.tokens == 2.0
        bucket.try_acquire(now=0.0)
        # A long idle period refills to burst, never beyond.
        bucket.try_acquire(now=100.0)
        assert bucket.tokens == pytest.approx(1.0)

    def test_retry_after_converts_deficit_to_seconds(self):
        bucket = TokenBucket(4.0, burst=1)
        assert bucket.retry_after(now=0.0) == 0.0
        bucket.try_acquire(now=0.0)
        # Empty bucket at 4 tokens/s: one token is 0.25 s away.
        assert bucket.retry_after(now=0.0) == pytest.approx(0.25)

    def test_retry_after_shrinks_as_time_passes(self):
        bucket = TokenBucket(4.0, burst=1)
        bucket.try_acquire(now=0.0)
        assert bucket.retry_after(now=0.125) == pytest.approx(0.125)

    def test_virtual_time_is_deterministic(self):
        a = TokenBucket(3.0, burst=2)
        b = TokenBucket(3.0, burst=2)
        times = [0.0, 0.1, 0.15, 0.5, 0.6, 2.0, 2.01]
        assert [a.try_acquire(now=t) for t in times] == [
            b.try_acquire(now=t) for t in times
        ]


#: One bucket operation at one timestamp, ``now`` in any order.
OPS = st.lists(
    st.tuples(
        st.sampled_from(["try_acquire", "charge", "retry_after"]),
        st.floats(0.0, 100.0, allow_nan=False),
    ),
    min_size=1,
    max_size=60,
)


class TestTokenBucketProperties:
    @given(
        ops=OPS,
        rate=st.floats(0.1, 50.0),
        burst=st.floats(1.0, 20.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_never_mints_more_than_the_timeline_allows(self, ops, rate, burst):
        bucket = TokenBucket(rate, burst=burst)
        admitted = 0
        for op, now in ops:
            result = getattr(bucket, op)(now=now)
            admitted += result is True
            assert bucket.tokens <= burst
        first = ops[0][1]
        span = max(now for _, now in ops) - first
        assert admitted <= burst + rate * span + 1e-9


class TestConcurrencyLimiter:
    def test_bounds_in_flight(self):
        limiter = ConcurrencyLimiter(2)
        assert limiter.try_acquire()
        assert limiter.try_acquire()
        assert not limiter.try_acquire()
        assert limiter.in_flight == 2

    def test_release_frees_a_slot(self):
        limiter = ConcurrencyLimiter(1)
        assert limiter.try_acquire()
        assert not limiter.try_acquire()
        limiter.release()
        assert limiter.try_acquire()

    def test_unmatched_release_raises(self):
        limiter = ConcurrencyLimiter(1)
        with pytest.raises(RuntimeError):
            limiter.release()

    def test_rejects_nonpositive_limit(self):
        with pytest.raises(ValueError):
            ConcurrencyLimiter(0)

    def test_thread_safety_never_exceeds_limit(self):
        limiter = ConcurrencyLimiter(4)
        peak = []
        lock = threading.Lock()

        def worker():
            for _ in range(200):
                if limiter.try_acquire():
                    with lock:
                        peak.append(limiter.in_flight)
                    limiter.release()

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert peak and max(peak) <= 4
