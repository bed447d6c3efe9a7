"""Tests for the device cost model and the piecewise-linear profiler."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import StagedResNet, StagedResNetConfig
from repro.profiling import (
    ConvLayerSpec,
    MobileDeviceCostModel,
    PiecewiseLinearProfiler,
    TABLE1_CONFIGS,
    generate_profiling_samples,
    stage_execution_times,
)
from repro.profiling.cost_model import TABLE1_TIMES_MS


class TestConvLayerSpec:
    def test_macs_formula(self):
        spec = ConvLayerSpec(in_channels=2, out_channels=4, kernel=3, input_size=10)
        assert spec.macs == 9 * 2 * 4 * 100
        assert spec.flops == 2 * spec.macs

    def test_strided_output_size(self):
        spec = ConvLayerSpec(in_channels=1, out_channels=1, stride=2, input_size=224)
        assert spec.output_size == 112

    def test_validation(self):
        with pytest.raises(ValueError):
            ConvLayerSpec(in_channels=0, out_channels=4)

    def test_features_align_with_names(self):
        spec = ConvLayerSpec(in_channels=3, out_channels=8)
        assert len(spec.features()) == len(ConvLayerSpec.feature_names())


class TestCostModelTable1:
    """The model must reproduce the paper's Table I anomalies."""

    @pytest.fixture(scope="class")
    def device(self):
        return MobileDeviceCostModel()

    def test_absolute_times_close_to_paper(self, device):
        for name, spec in TABLE1_CONFIGS.items():
            t = device.execution_time_ms(spec)
            assert t == pytest.approx(TABLE1_TIMES_MS[name], rel=0.01), name

    def test_equal_flops_different_time(self, device):
        """CNN1 and CNN2 have identical FLOPs but ~2.6x different time."""
        cnn1, cnn2 = TABLE1_CONFIGS["CNN1"], TABLE1_CONFIGS["CNN2"]
        assert cnn1.flops == cnn2.flops
        ratio = device.execution_time_ms(cnn2) / device.execution_time_ms(cnn1)
        assert ratio == pytest.approx(300.2 / 114.9, rel=0.02)

    def test_fewer_flops_can_take_longer(self, device):
        """CNN3 has fewer FLOPs than CNN4 yet runs slower."""
        cnn3, cnn4 = TABLE1_CONFIGS["CNN3"], TABLE1_CONFIGS["CNN4"]
        assert cnn3.flops < cnn4.flops
        assert device.execution_time_ms(cnn3) > device.execution_time_ms(cnn4)

    def test_cache_cliff_exists(self, device):
        below = ConvLayerSpec(in_channels=96, out_channels=32)
        above = ConvLayerSpec(in_channels=97, out_channels=32)
        per_mac_below = (device.execution_time_ms(below) - 5.0) / below.macs
        per_mac_above = (device.execution_time_ms(above) - 5.0) / above.macs
        assert per_mac_above > 1.5 * per_mac_below

    def test_measurement_noise_seeded(self):
        a = MobileDeviceCostModel(noise=0.05, seed=3)
        b = MobileDeviceCostModel(noise=0.05, seed=3)
        spec = TABLE1_CONFIGS["CNN1"]
        assert a.measure(spec) == b.measure(spec)
        assert a.measure(spec) != MobileDeviceCostModel().execution_time_ms(spec)

    def test_noise_validation(self):
        with pytest.raises(ValueError):
            MobileDeviceCostModel(noise=-1.0)

    def test_energy_and_memory_positive_and_monotone_in_macs(self, device):
        small = ConvLayerSpec(in_channels=4, out_channels=32)
        large = ConvLayerSpec(in_channels=64, out_channels=32)
        assert 0 < device.energy_mj(small) < device.energy_mj(large)
        assert 0 < device.memory_kb(small) < device.memory_kb(large)

    def test_network_time_sums_layers(self, device):
        specs = [TABLE1_CONFIGS["CNN1"], TABLE1_CONFIGS["CNN2"]]
        assert device.network_time_ms(specs) == pytest.approx(
            sum(device.execution_time_ms(s) for s in specs)
        )

    @given(st.integers(1, 256), st.integers(1, 256))
    @settings(max_examples=40, deadline=None)
    def test_property_time_positive(self, cin, cout):
        device = MobileDeviceCostModel()
        t = device.execution_time_ms(ConvLayerSpec(in_channels=cin, out_channels=cout))
        assert t > 0


class TestPiecewiseLinearProfiler:
    @pytest.fixture(scope="class")
    def fitted(self):
        device = MobileDeviceCostModel(noise=0.02, seed=1)
        train = generate_profiling_samples(device, 400, seed=0)
        profiler = PiecewiseLinearProfiler().fit(train)
        test = generate_profiling_samples(device, 120, seed=99)
        return profiler, test

    def test_finds_multiple_regions(self, fitted):
        profiler, _ = fitted
        assert profiler.num_regions() >= 2

    def test_heldout_accuracy_beats_flops_linear(self, fitted):
        """The headline claim of [9]: FLOPs alone is a poor predictor, the
        piecewise-linear profiler is a good one."""
        profiler, test = fitted
        metrics = profiler.evaluate(test)
        assert metrics["mape"] < 0.10
        # Naive single linear model on FLOPs:
        x = np.array([[s.spec.flops, 1.0] for s in test])
        y = np.array([s.time_ms for s in test])
        coef, *_ = np.linalg.lstsq(x, y, rcond=None)
        naive_mape = float(np.abs((x @ coef - y) / y).mean())
        assert metrics["mape"] < naive_mape / 3

    def test_predicts_table1_ordering(self, fitted):
        profiler, _ = fitted
        t = {n: profiler.predict_one(s) for n, s in TABLE1_CONFIGS.items()}
        assert t["CNN2"] > t["CNN1"]
        assert t["CNN3"] > t["CNN4"]

    def test_describe_regions_matches_count(self, fitted):
        profiler, _ = fitted
        assert len(profiler.describe_regions()) == profiler.num_regions()

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            PiecewiseLinearProfiler().predict([TABLE1_CONFIGS["CNN1"]])

    def test_fit_requires_enough_samples(self):
        device = MobileDeviceCostModel()
        samples = generate_profiling_samples(device, 10, seed=0)
        with pytest.raises(ValueError):
            PiecewiseLinearProfiler(min_samples_leaf=20).fit(samples)

    def test_invalid_hyperparams(self):
        with pytest.raises(ValueError):
            PiecewiseLinearProfiler(max_depth=-1)
        with pytest.raises(ValueError):
            PiecewiseLinearProfiler(min_samples_leaf=1)

    def test_generate_samples_validation(self):
        with pytest.raises(ValueError):
            generate_profiling_samples(MobileDeviceCostModel(), 0)


class TestStageCosts:
    def test_stage_times_positive(self):
        model = StagedResNet()
        times = stage_execution_times(model)
        assert len(times) == model.num_stages
        assert all(t > 0 for t in times)

    def test_default_resnet_stages_roughly_equal(self):
        """Our Fig. 3 topology happens to satisfy the paper's equal-stage-time
        assumption within ~10%."""
        times = stage_execution_times(StagedResNet())
        assert max(times) / min(times) < 1.1

    def test_normalize_equalizes_preserving_total(self):
        model = StagedResNet(StagedResNetConfig(stage_channels=(4, 32), blocks_per_stage=2))
        raw = stage_execution_times(model)
        norm = stage_execution_times(model, normalize=True)
        assert len(set(norm)) == 1
        assert sum(norm) == pytest.approx(sum(raw))
