"""Admission control applied to the thread-based inference runtime."""

import pytest

from repro import telemetry
from repro.admission import AdmissionConfig
from repro.datasets import SyntheticImageConfig, make_image_dataset
from repro.nn import StagedResNet, StagedResNetConfig
from repro.scheduler import FIFOPolicy, RuntimeConfig, StagedInferenceRuntime


TINY = StagedResNetConfig(
    num_classes=4, image_size=8, stage_channels=(4, 8), blocks_per_stage=1, seed=0
)


@pytest.fixture(scope="module")
def inputs():
    cfg = SyntheticImageConfig(num_classes=4, image_size=8, seed=3)
    return make_image_dataset(6, cfg, seed=9).inputs


def make_runtime(admission=None):
    return StagedInferenceRuntime(
        StagedResNet(TINY),
        FIFOPolicy(),
        RuntimeConfig(latency_constraint=60.0, admission=admission),
    )


OVERLOADED = AdmissionConfig(
    max_queue_depth=4, degrade_queue_depth=2, degrade_stage_cap=1
)


class TestRuntimeAdmission:
    def test_shed_then_degrade_split(self, inputs):
        runtime = make_runtime(admission=OVERLOADED)
        runtime.submit(inputs)
        results = {r.task_id: r for r in runtime.run_until_complete()}
        assert len(results) == 6
        # Hard bound 4: the two newest tasks are shed without any service.
        shed = sorted(tid for tid, r in results.items() if r.shed)
        assert shed == [4, 5]
        for tid in shed:
            assert results[tid].outcomes == []
            assert not results[tid].completed
        # Soft bound 2: the next two are degraded to the first exit stage.
        degraded = sorted(
            tid
            for tid, r in results.items()
            if not r.shed and r.served_stage == 0
        )
        assert degraded == [2, 3]
        for tid in degraded:
            assert len(results[tid].outcomes) == 1
            assert not results[tid].completed  # early exit != full service
        # The survivors get full-depth service.
        for tid in (0, 1):
            assert results[tid].completed
            assert results[tid].served_stage == 1

    def test_no_admission_is_the_legacy_behaviour(self, inputs):
        runtime = make_runtime(admission=None)
        runtime.submit(inputs)
        results = runtime.run_until_complete()
        assert all(not r.shed for r in results)
        assert all(r.completed for r in results)

    def test_unbounded_config_is_a_noop(self, inputs):
        runtime = make_runtime(admission=AdmissionConfig())
        runtime.submit(inputs)
        results = runtime.run_until_complete()
        assert all(not r.shed for r in results)
        assert all(r.completed for r in results)

    def test_shed_and_served_are_disjoint(self, inputs):
        runtime = make_runtime(admission=OVERLOADED)
        runtime.submit(inputs)
        for result in runtime.run_until_complete():
            assert not (result.shed and result.outcomes)

    def test_shed_task_elapsed_is_zero(self, inputs):
        # A shed task received no service, so it reports no latency — not
        # the length of the episode the served tasks ran for.
        runtime = make_runtime(admission=OVERLOADED)
        runtime.submit(inputs)
        results = runtime.run_until_complete()
        assert [r.elapsed for r in results if r.shed] == [0.0, 0.0]
        assert all(r.elapsed > 0.0 for r in results if not r.shed)

    def test_telemetry_counts_shed_and_degraded(self, inputs):
        session = telemetry.enable()
        try:
            runtime = make_runtime(admission=OVERLOADED)
            runtime.submit(inputs)
            runtime.run_until_complete()
            counters = session.registry.counters()
            assert counters["runtime.tasks_shed"] == 2
            assert counters["runtime.tasks_degraded"] == 2
            kinds = session.trace.counts()
            assert kinds.get("load-shed") == 2
            assert kinds.get("degrade-cap") == 2
        finally:
            telemetry.disable()
