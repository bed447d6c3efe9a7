"""Chaos tests for the staged-inference runtime's recovery machinery.

Stages run on the scheduler thread, so the faults that exist in-process
are the ones at ``runtime.stage``: a stall (latency/hang), a corrupt
payload (rejected and re-run before any client sees it) and a transient
error (raised as a typed :class:`~repro.faults.TransientServiceError`, for
the client's retry or the router's failover).  Crashed or hung replicas
are the process tier's business (``tests/faults/test_proc_chaos.py``,
``tests/cluster/test_router.py``).  All plans are seeded and
deterministic.  The runtime-level models are untrained (FIFO scheduling
needs no confidence predictor); these tests exercise the scheduler, not
the network.
"""

import numpy as np
import pytest

from repro import faults, telemetry
from repro.datasets import SyntheticImageConfig, make_image_dataset
from repro.faults import FaultPlan, FaultSpec, RetryPolicy
from repro.nn import StagedResNet, StagedResNetConfig
from repro.scheduler import FIFOPolicy, RuntimeConfig, StagedInferenceRuntime
from repro.scheduler.runtime import STAGE_SITE
from repro.service import EugeneService
from repro.service.client import EugeneClient

TINY = StagedResNetConfig(
    num_classes=3, in_channels=1, image_size=8, stage_channels=(4, 8),
    blocks_per_stage=1, seed=0,
)


@pytest.fixture(autouse=True)
def clean_sessions():
    faults.uninstall()
    telemetry.disable()
    yield
    faults.uninstall()
    telemetry.disable()


@pytest.fixture(scope="module")
def model():
    return StagedResNet(TINY)


@pytest.fixture(scope="module")
def served():
    """A trained tiny model behind a real service — built fault-free."""
    data = make_image_dataset(
        60, SyntheticImageConfig(num_classes=3, image_size=8, seed=3), seed=0
    )
    service = EugeneService(seed=0)
    trained = EugeneClient(service).train(
        data.inputs,
        data.labels,
        model_config=StagedResNetConfig(
            num_classes=3, image_size=8, stage_channels=(4, 8),
            blocks_per_stage=1, seed=0,
        ),
        epochs=1,
    )
    return service, trained.model_id, data.inputs[:4]


def make_runtime(model, **overrides):
    overrides.setdefault("latency_constraint", 30.0)
    return StagedInferenceRuntime(model, FIFOPolicy(), RuntimeConfig(**overrides))


def inputs(n=4):
    return np.random.default_rng(0).normal(size=(n, 1, 8, 8))


def assert_outcomes_monotone(results):
    """Each task's executed stages strictly increase — no stage ever
    applied twice."""
    for r in results:
        stages = [o.stage for o in r.outcomes]
        assert stages == sorted(set(stages)), stages


def retrying_client(service, max_attempts=4):
    return EugeneClient(
        service,
        retry_policy=RetryPolicy(
            max_attempts=max_attempts, base_delay_s=0.001, timeout_s=30.0
        ),
    )


class TestTransientStageErrors:
    def test_stage_error_raises_a_typed_error(self, model):
        plan = FaultPlan(seed=0, specs=[FaultSpec(STAGE_SITE, faults.ERROR, at=(2,))])
        runtime = make_runtime(model)
        runtime.submit(inputs())
        with telemetry.session() as tel, faults.plan_session(plan):
            with pytest.raises(faults.TransientServiceError, match=STAGE_SITE):
                runtime.run_until_complete()
            # The two stages before the error ran; the failed one never did.
            assert len(runtime.batch_log) == 3
            assert tel.registry.counters()["runtime.tasks_submitted"] == 4
        # The failed run consumed its inputs: a retry starts from scratch.
        assert runtime.run_until_complete() == []

    def test_stage_error_is_retried_and_served(self, served):
        service, model_id, x = served
        plan = FaultPlan(seed=0, specs=[FaultSpec(STAGE_SITE, faults.ERROR, at=(0,))])
        with telemetry.session() as tel, faults.plan_session(plan):
            response = retrying_client(service).infer(
                model_id, x, latency_constraint_s=30.0
            )
            counters = tel.registry.counters()
        assert counters["client.retries.infer"] == 1
        assert counters["service.errors.infer"] == 1
        assert len(response.predictions) == len(x)
        assert not any(response.degraded) and not any(response.evicted)
        assert response.stages_executed == [2] * len(x)

    def test_repeated_stage_errors_still_quiesce(self, served):
        service, model_id, x = served
        # Every stage call fails: the client's attempt budget bounds the
        # episode, and the caller sees only the typed exhaustion error.
        plan = FaultPlan(
            seed=3, specs=[FaultSpec(STAGE_SITE, faults.ERROR, probability=1.0)]
        )
        with faults.plan_session(plan):
            with pytest.raises(faults.RetriesExhaustedError):
                retrying_client(service, max_attempts=3).infer(
                    model_id, x, latency_constraint_s=30.0
                )
        assert plan.invocations(STAGE_SITE) == 3


class TestStaleStageResults:
    def test_late_stage_result_is_discarded(self, model):
        # One task: call 0 is (t0,s0), call 1 is (t0,s1).  Call 1 stalls
        # past the deadline; the stage still runs, but its result lands
        # late and is never applied.
        plan = FaultPlan(
            seed=0,
            specs=[FaultSpec(STAGE_SITE, faults.HANG, at=(1,), latency_s=0.3)],
        )
        runtime = make_runtime(model, latency_constraint=0.2)
        runtime.submit(inputs(1))
        with telemetry.session() as tel, faults.plan_session(plan):
            (result,) = runtime.run_until_complete()
            counters = tel.registry.counters()
        assert runtime.batch_log == [(0, (0,)), (1, (0,))]
        assert [o.stage for o in result.outcomes] == [0]
        assert result.evicted and not result.completed
        assert counters["runtime.tasks_completed"] == 0
        assert counters["runtime.deadline_misses"] == 1


class TestCorruptPayloads:
    def test_nan_confidences_never_reach_results(self, model):
        plan = FaultPlan(
            seed=0, specs=[FaultSpec(STAGE_SITE, faults.CORRUPT, at=(0,))]
        )
        runtime = make_runtime(model)
        runtime.submit(inputs())
        with telemetry.session() as tel, faults.plan_session(plan):
            results = runtime.run_until_complete()
            assert tel.registry.counters()["runtime.corrupt_results"] == 1
            assert len(tel.trace.events(telemetry.ITEM_RETRY)) == 1
        assert all(r.completed for r in results)
        assert_outcomes_monotone(results)
        # The rejected batch was re-run: one more stage call than stages.
        assert len(runtime.batch_log) == 1 + sum(len(r.outcomes) for r in results)
        for r in results:
            for outcome in r.outcomes:
                assert np.isfinite(outcome.confidence)
                assert 0.0 <= outcome.confidence <= 1.0


class TestDispatchLatency:
    def test_dispatch_stalls_are_survived(self, model):
        plan = FaultPlan(
            seed=0,
            specs=[
                FaultSpec(STAGE_SITE, faults.LATENCY, probability=0.5,
                          latency_s=0.005)
            ],
        )
        runtime = make_runtime(model)
        runtime.submit(inputs())
        with faults.plan_session(plan):
            results = runtime.run_until_complete()
        assert all(r.completed for r in results)
        assert len(plan.log) >= 1


class TestGracefulDegradation:
    def test_evicted_mid_flight_task_is_flagged_degraded(self, model):
        # FIFO on one thread: the stage-call order is deterministic —
        # (t0,s0)=0, (t0,s1)=1, (t1,s0)=2, (t1,s1)=3.  Stalling t1's
        # stage-1 call past the deadline discards its result, leaving t1
        # with a stage-0 outcome only: a degraded response, served from
        # the early exit.
        plan = FaultPlan(
            seed=0,
            specs=[FaultSpec(STAGE_SITE, faults.HANG, at=(3,), latency_s=0.6)],
        )
        runtime = make_runtime(model, latency_constraint=0.5)
        runtime.submit(inputs(2))
        with faults.plan_session(plan):
            results = runtime.run_until_complete()
        t0, t1 = results
        assert t0.completed and not t0.degraded
        assert t0.served_stage == model.num_stages - 1
        assert t1.evicted and t1.degraded and not t1.completed
        assert t1.outcomes  # served from a real early exit
        assert t1.served_stage == t1.outcomes[-1].stage == 0
        assert t1.prediction is not None

    def test_no_result_task_is_not_degraded(self, model):
        # The very first stage stalls past the deadline: tasks evict with
        # no outcomes at all — that is a failure, not a degraded response.
        plan = FaultPlan(
            seed=0,
            specs=[FaultSpec(STAGE_SITE, faults.HANG, at=(0,), latency_s=0.3)],
        )
        runtime = make_runtime(model, latency_constraint=0.2)
        runtime.submit(inputs(2))
        with faults.plan_session(plan):
            results = runtime.run_until_complete()
        for r in results:
            assert r.evicted
            assert not r.degraded
            assert r.served_stage is None
            assert r.prediction is None


class TestDisarmedBehaviour:
    def test_no_plan_no_recovery_counters(self, model):
        runtime = make_runtime(model)
        runtime.submit(inputs())
        with telemetry.session() as tel:
            results = runtime.run_until_complete()
            counters = tel.registry.counters()
        assert all(r.completed for r in results)
        for name in counters:
            assert not name.startswith("faults.")
            assert name != "runtime.corrupt_results"
