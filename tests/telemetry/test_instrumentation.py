"""Telemetry wired through the runtime, simulator, profiler and service."""

import numpy as np
import pytest

from repro import telemetry
from repro.nn.resnet import StagedResNet, StagedResNetConfig
from repro.profiling.cost_model import MobileDeviceCostModel
from repro.profiling.profiler import generate_profiling_samples
from repro.scheduler.policies import FIFOPolicy, RoundRobinPolicy
from repro.scheduler.runtime import RuntimeConfig, StagedInferenceRuntime
from repro.scheduler.simulator import PoolSimulator, SimulationConfig, TaskOracle
from repro.service import ClassifyRequest, EugeneService
from repro.telemetry.trace import ADMIT, COMPLETE, STAGE_DISPATCH


@pytest.fixture(scope="module")
def small_model():
    model = StagedResNet(
        StagedResNetConfig(
            num_classes=5, image_size=8, stage_channels=(4, 8), blocks_per_stage=1
        )
    )
    model.eval()
    return model


@pytest.fixture
def inputs():
    return np.random.default_rng(0).normal(size=(6, 3, 8, 8))


def _run(model, inputs, **config):
    runtime = StagedInferenceRuntime(
        model,
        RoundRobinPolicy(),
        RuntimeConfig(latency_constraint=60.0, **config),
    )
    runtime.submit(inputs)
    return runtime.run_until_complete()


class TestRuntimeTelemetry:
    def test_disabled_runtime_records_nothing(self, small_model, inputs):
        telemetry.disable()
        results = _run(small_model, inputs)
        assert all(not r.evicted for r in results)
        assert telemetry.active() is None

    def test_counters_and_stage_latency(self, small_model, inputs):
        with telemetry.session() as t:
            results = _run(small_model, inputs, max_batch=3)
            counters = t.registry.counters()
            assert counters["runtime.tasks_submitted"] == len(inputs)
            assert counters["runtime.tasks_completed"] == len(inputs)
            assert counters["runtime.deadline_misses"] == 0
            histograms = t.registry.histograms()
            total_stage_execs = sum(len(r.outcomes) for r in results)
            for stage in range(small_model.num_stages):
                assert histograms[f"runtime.stage_latency_ms.stage{stage}"]["count"] > 0
            # Batch occupancy sums back to the task-stage executions.
            occupancy = histograms["runtime.batch_occupancy"]
            assert occupancy["sum"] == total_stage_execs
            assert occupancy["max"] <= 3

    def test_trace_covers_every_task(self, small_model, inputs):
        with telemetry.session() as t:
            _run(small_model, inputs, max_batch=2)
            admitted = {e.task_id for e in t.trace.events(ADMIT)}
            completed = {e.task_id for e in t.trace.events(COMPLETE)}
            assert admitted == completed == set(range(len(inputs)))
            dispatched = [
                (e.stage, tid)
                for e in t.trace.events(STAGE_DISPATCH)
                for tid in e.task_ids
            ]
            assert sorted(dispatched) == sorted(
                (s, tid)
                for tid in range(len(inputs))
                for s in range(small_model.num_stages)
            )


def _oracles(n, stages=3, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        confs = np.sort(rng.uniform(0.3, 0.99, size=stages))
        out.append(
            TaskOracle(
                confidences=tuple(float(c) for c in confs),
                predictions=tuple(int(p) for p in rng.integers(0, 5, size=stages)),
                correct=tuple(bool(b) for b in rng.random(size=stages) < confs),
            )
        )
    return out


class TestSimulatorTelemetry:
    def test_misses_and_completions_match_episode_result(self):
        config = SimulationConfig(
            num_workers=2, concurrency=4, stage_times=(1.0, 1.0, 1.0),
            latency_constraint=4.0,
        )
        with telemetry.session() as t:
            result = PoolSimulator(_oracles(16), FIFOPolicy(), config).run()
            counters = t.registry.counters()
            assert counters["simulator.tasks_submitted"] == 16
            assert counters["simulator.deadline_misses"] == result.num_evicted
            assert counters["simulator.tasks_completed"] == result.num_fully_completed

    def test_utility_accrued_equals_positive_confidence_gains(self):
        config = SimulationConfig(
            num_workers=4, concurrency=4, stage_times=(1.0, 1.0, 1.0),
            latency_constraint=10.0,
        )
        with telemetry.session() as t:
            result = PoolSimulator(_oracles(8), RoundRobinPolicy(), config).run()
            expected = 0.0
            for record in result.records:
                previous = 0.0
                for outcome in record.outcomes:
                    gain = outcome.confidence - previous
                    if gain > 0:
                        expected += gain
                    previous = outcome.confidence
            accrued = t.registry.counters()["simulator.utility_accrued"]
            assert accrued == pytest.approx(expected)


class TestProfilerTelemetry:
    def test_samples_feed_registry(self):
        device = MobileDeviceCostModel()
        with telemetry.session() as t:
            samples = generate_profiling_samples(device, num_samples=20, seed=0)
            assert t.registry.counters()["profiling.samples"] == 20
            hist = t.registry.histograms()["profiling.sample_time_ms"]
            assert hist["count"] == 20
            assert hist["sum"] == pytest.approx(sum(s.time_ms for s in samples))

    def test_no_registry_writes_when_disabled(self):
        telemetry.disable()
        generate_profiling_samples(MobileDeviceCostModel(), num_samples=5)
        with telemetry.session() as t:
            assert "profiling.samples" not in t.registry.counters()


class TestServiceTelemetry:
    def test_classify_attaches_metrics_summary(self, small_model, inputs):
        service = EugeneService(seed=0)
        entry = service.registry.register("m", small_model)
        with telemetry.session() as t:
            response = service.classify(
                ClassifyRequest(model_id=entry.model_id, inputs=inputs, micro_batch=2)
            )
            assert response.metrics is not None
            assert response.metrics["requests"]["classify"] == 1
            assert response.metrics["num_inputs"] == len(inputs)
            assert response.metrics["num_chunks"] == 3
            assert t.registry.histograms()["service.latency_ms.classify"]["count"] == 1

    def test_classify_metrics_none_when_disabled(self, small_model, inputs):
        telemetry.disable()
        service = EugeneService(seed=0)
        entry = service.registry.register("m", small_model)
        response = service.classify(
            ClassifyRequest(model_id=entry.model_id, inputs=inputs)
        )
        assert response.metrics is None
