"""Integration tests exercising the Fig. 1 architecture end to end (E7).

The full loop: train a staged model -> calibrate -> fit confidence curves ->
profile stage costs -> schedule inference under load -> verify that the
pieces agree with each other (simulator oracle vs real runtime, predictor vs
observed confidences, service facade vs direct module calls).
"""

import numpy as np
import pytest

from repro.datasets import SyntheticImageConfig, make_image_dataset
from repro.nn import StagedResNet, StagedResNetConfig
from repro.nn.training import collect_stage_outputs, train_staged_model
from repro.profiling import MobileDeviceCostModel, stage_execution_times
from repro.scheduler import (
    FIFOPolicy,
    GPConfidencePredictor,
    PoolSimulator,
    RTDeepIoTPolicy,
    RuntimeConfig,
    SimulationConfig,
    StagedInferenceRuntime,
    TaskOracle,
)
from repro.service import EugeneService, InferRequest, TrainRequest


MODEL_CFG = StagedResNetConfig(
    num_classes=5, image_size=8, stage_channels=(4, 8, 12), blocks_per_stage=1, seed=0
)
DATA_CFG = SyntheticImageConfig(num_classes=5, image_size=8, seed=17)


@pytest.fixture(scope="module")
def pipeline():
    train_set = make_image_dataset(700, DATA_CFG, seed=0)
    test_set = make_image_dataset(300, DATA_CFG, seed=1)
    model = StagedResNet(MODEL_CFG)
    train_staged_model(model, train_set, epochs=8, lr=1e-2, seed=0)
    train_outputs = collect_stage_outputs(model, train_set)
    test_outputs = collect_stage_outputs(model, test_set)
    predictor = GPConfidencePredictor(num_classes=5, seed=0).fit(
        train_outputs["confidences"]
    )
    return model, train_set, test_set, train_outputs, test_outputs, predictor


class TestStagedPipelineCoherence:
    def test_stage_accuracy_increases_with_depth(self, pipeline):
        """Fig. 1's premise: later exits are more accurate."""
        *_, test_outputs, _ = pipeline
        accs = test_outputs["correct"].mean(axis=1)
        assert accs[-1] > accs[0]

    def test_confidence_predicts_correctness(self, pipeline):
        """Confidence must carry signal, or utility scheduling is noise."""
        *_, test_outputs, _ = pipeline
        conf = test_outputs["confidences"][-1]
        correct = test_outputs["correct"][-1]
        assert conf[correct].mean() > conf[~correct].mean() + 0.05

    def test_predictor_tracks_observed_curves(self, pipeline):
        """GP predictions of stage-3 confidence correlate with reality."""
        *_, test_outputs, predictor = pipeline
        observed_s1 = test_outputs["confidences"][0]
        observed_s3 = test_outputs["confidences"][-1]
        predicted = np.array(
            [predictor.predict(0, c, 2) for c in observed_s1[:200]]
        )
        corr = np.corrcoef(predicted, observed_s3[:200])[0, 1]
        assert corr > 0.2

    def test_profiled_stage_costs_feed_simulator(self, pipeline):
        model, *_ , test_outputs, predictor = pipeline
        times = stage_execution_times(model, MobileDeviceCostModel())
        oracles = TaskOracle.table_from_outputs(test_outputs)[:40]
        config = SimulationConfig(
            num_workers=2,
            concurrency=8,
            stage_times=tuple(times),
            latency_constraint=3 * sum(times),
        )
        result = PoolSimulator(oracles, RTDeepIoTPolicy(predictor, k=1), config).run()
        assert result.accuracy > 0.3
        assert result.num_tasks == 40


class TestSimulatorMatchesRuntime:
    def test_oracle_replay_equals_live_execution(self, pipeline):
        """The DES oracle path and the live runtime agree on outcomes when
        nothing is evicted: same predictions, same confidences."""
        model, _, test_set, _, test_outputs, predictor = pipeline
        inputs = test_set.inputs[:6]
        runtime = StagedInferenceRuntime(
            model, FIFOPolicy(), RuntimeConfig(latency_constraint=60.0)
        )
        runtime.submit(inputs)
        live = runtime.run_until_complete()
        for i, result in enumerate(live):
            for outcome in result.outcomes:
                assert outcome.confidence == pytest.approx(
                    test_outputs["confidences"][outcome.stage][i], abs=1e-9
                )
                assert outcome.prediction == test_outputs["predictions"][outcome.stage][i]


class TestServiceFacadeCoherence:
    def test_service_equals_direct_calls(self, pipeline):
        """Training through the service reproduces direct-module training."""
        _, train_set, test_set, *_ = pipeline
        service = EugeneService(seed=0)
        response = service.train(
            TrainRequest(
                inputs=train_set.inputs,
                labels=train_set.labels,
                model_config=MODEL_CFG,
                epochs=8,
                learning_rate=1e-2,
                name="it",
            )
        )
        entry = service.registry.get(response.model_id)
        direct = StagedResNet(MODEL_CFG)
        train_staged_model(direct, train_set, epochs=8, lr=1e-2, seed=0)
        a = entry.model.predict_proba(test_set.inputs[:16])[-1]
        b = direct.predict_proba(test_set.inputs[:16])[-1]
        np.testing.assert_allclose(a, b, atol=1e-8)

    def test_infer_under_pressure_degrades_gracefully(self, pipeline):
        """With a tight latency constraint some tasks run fewer stages but
        the service still returns an answer per task."""
        _, train_set, test_set, *_ = pipeline
        service = EugeneService(seed=0)
        response = service.train(
            TrainRequest(
                inputs=train_set.inputs,
                labels=train_set.labels,
                model_config=MODEL_CFG,
                epochs=2,
                name="fast",
            )
        )
        out = service.infer(
            InferRequest(
                model_id=response.model_id,
                inputs=test_set.inputs[:10],
                latency_constraint_s=0.25,
            )
        )
        assert len(out.predictions) == 10
        assert max(out.stages_executed) <= 3
