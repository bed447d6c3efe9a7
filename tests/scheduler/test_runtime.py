"""Tests for the real-time staged inference runtime."""

import numpy as np
import pytest

from repro.datasets import SyntheticImageConfig, make_image_dataset
from repro.nn import StagedResNet, StagedResNetConfig, train_staged_model
from repro.nn.training import collect_stage_outputs
from repro.scheduler import (
    FIFOPolicy,
    GPConfidencePredictor,
    RoundRobinPolicy,
    RTDeepIoTPolicy,
    RuntimeConfig,
    StagedInferenceRuntime,
)

from .stage_clock import on_virtual_clock


TINY = StagedResNetConfig(
    num_classes=4, image_size=8, stage_channels=(4, 8), blocks_per_stage=1, seed=0
)


@pytest.fixture(scope="module")
def served_model():
    cfg = SyntheticImageConfig(num_classes=4, image_size=8, seed=3)
    train_set = make_image_dataset(400, cfg, seed=0)
    model = StagedResNet(TINY)
    train_staged_model(model, train_set, epochs=6, batch_size=32, lr=1e-2)
    outputs = collect_stage_outputs(model, train_set)
    predictor = GPConfidencePredictor(num_classes=4, seed=0).fit(outputs["confidences"])
    test_set = make_image_dataset(12, cfg, seed=9)
    return model, predictor, test_set


class TestRuntimeConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            RuntimeConfig(max_batch=0)
        with pytest.raises(ValueError):
            RuntimeConfig(latency_constraint=0.0)


class TestStagedInferenceRuntime:
    def test_serves_all_tasks_fully_with_loose_deadline(self, served_model):
        model, predictor, test_set = served_model
        runtime = StagedInferenceRuntime(
            model,
            RTDeepIoTPolicy(predictor, k=1),
            RuntimeConfig(latency_constraint=60.0),
        )
        ids = runtime.submit(test_set.inputs[:6])
        results = runtime.run_until_complete()
        assert [r.task_id for r in results] == ids
        assert all(not r.evicted for r in results)
        assert all(len(r.outcomes) == model.num_stages for r in results)
        for r in results:
            assert r.prediction is not None
            assert 0.0 < r.confidence <= 1.0

    def test_results_match_offline_model(self, served_model):
        """Stage outputs produced by the runtime equal a direct forward pass."""
        model, predictor, test_set = served_model
        runtime = StagedInferenceRuntime(
            model, FIFOPolicy(), RuntimeConfig(latency_constraint=60.0)
        )
        runtime.submit(test_set.inputs[:3])
        results = runtime.run_until_complete()
        probs = model.predict_proba(test_set.inputs[:3])
        for i, r in enumerate(results):
            for outcome in r.outcomes:
                expected = probs[outcome.stage][i]
                assert outcome.prediction == int(expected.argmax())
                assert outcome.confidence == pytest.approx(float(expected.max()))

    def test_tight_deadline_evicts_some_tasks(self, served_model):
        model, predictor, test_set = served_model
        # 1 ms per stage: two of the 12 x 2 stages fit in the 2 ms budget.
        costed, clock = on_virtual_clock(model, 0.001)
        runtime = StagedInferenceRuntime(
            costed,
            RoundRobinPolicy(),
            RuntimeConfig(latency_constraint=0.002),
            clock=clock,
        )
        runtime.submit(test_set.inputs[:12])
        results = runtime.run_until_complete()
        assert any(r.evicted for r in results)
        # Evicted tasks may have partial (or zero) outcomes, never more than all.
        assert all(len(r.outcomes) <= model.num_stages for r in results)

    def test_empty_submit_returns_empty(self, served_model):
        model, predictor, _ = served_model
        runtime = StagedInferenceRuntime(model, FIFOPolicy())
        assert runtime.run_until_complete() == []

    def test_submit_validates_shape(self, served_model):
        model, *_ = served_model
        runtime = StagedInferenceRuntime(model, FIFOPolicy())
        with pytest.raises(ValueError):
            runtime.submit(np.zeros((3, 8, 8)))
