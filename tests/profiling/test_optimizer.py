"""Tests for profiling-driven layer optimization (Sec. II-C payoff)."""

import pytest

from repro.profiling import (
    ConvLayerSpec,
    MobileDeviceCostModel,
    PiecewiseLinearProfiler,
    TABLE1_CONFIGS,
    generate_profiling_samples,
)
from repro.profiling.optimizer import CandidateLayer, LayerOptimizer


@pytest.fixture(scope="module")
def optimizer():
    device = MobileDeviceCostModel(noise=0.02, seed=1)
    profiler = PiecewiseLinearProfiler().fit(
        generate_profiling_samples(device, 400, seed=0)
    )
    return LayerOptimizer(profiler)


class TestCandidateLayer:
    def make(self, cin, cout, time):
        return CandidateLayer(
            spec=ConvLayerSpec(in_channels=cin, out_channels=cout),
            predicted_time_ms=time,
        )

    def test_dominates_bigger_and_faster(self):
        big_fast = self.make(43, 64, 700.0)
        small_slow = self.make(66, 32, 900.0)
        assert big_fast.capacity > small_slow.capacity
        assert big_fast.dominates(small_slow)
        assert not small_slow.dominates(big_fast)

    def test_no_self_domination(self):
        c = self.make(8, 8, 100.0)
        assert not c.dominates(c)

    def test_equal_capacity_faster_dominates(self):
        a = self.make(8, 32, 100.0)
        b = self.make(8, 32, 200.0)
        assert a.dominates(b)


class TestLayerOptimizer:
    def test_requires_fitted_profiler(self):
        with pytest.raises(ValueError):
            LayerOptimizer(PiecewiseLinearProfiler())

    def test_requires_channel_choices(self, optimizer):
        with pytest.raises(ValueError):
            LayerOptimizer(optimizer.profiler, channel_choices=())

    def test_enumerates_full_grid(self, optimizer):
        ref = TABLE1_CONFIGS["CNN3"]
        candidates = optimizer.enumerate_candidates(ref)
        n = len(optimizer.channel_choices)
        assert len(candidates) == n * n
        assert all(c.spec.kernel == ref.kernel for c in candidates)

    def test_finds_cnn4_like_improvement_over_cnn3(self, optimizer):
        """The paper's exact illustration: starting from CNN3 (66-in, 32-out)
        there exist larger configurations that execute faster."""
        improvements = optimizer.improvements_over(TABLE1_CONFIGS["CNN3"])
        assert improvements
        best = improvements[0]
        assert best.capacity >= TABLE1_CONFIGS["CNN3"].macs
        # And the real device agrees the improvement is real, not a
        # profiler artifact.
        device = MobileDeviceCostModel()
        _, actual = optimizer.verify_on_device(best, device)
        assert actual < device.execution_time_ms(TABLE1_CONFIGS["CNN3"])

    def test_pareto_front_is_nondominated(self, optimizer):
        front = optimizer.pareto_front(TABLE1_CONFIGS["CNN1"])
        assert front
        for a in front:
            for b in front:
                assert not a.dominates(b) or a is b

    def test_pareto_front_sorted_by_time(self, optimizer):
        front = optimizer.pareto_front(TABLE1_CONFIGS["CNN1"])
        times = [c.predicted_time_ms for c in front]
        assert times == sorted(times)

    def test_pareto_capacity_increases_with_time(self, optimizer):
        """Along the front, paying more time must buy more capacity."""
        front = optimizer.pareto_front(TABLE1_CONFIGS["CNN1"])
        capacities = [c.capacity for c in front]
        assert capacities == sorted(capacities)
