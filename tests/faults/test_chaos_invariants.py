"""Full-stack chaos acceptance suite: client -> service -> runtime.

A seeded fault plan injects stalls, corrupt results and transient errors
at sites spanning the runtime's stage execution, the service endpoints
and the client transport, then a scripted workload asserts the
resilience contract:

- no unhandled (non-``ResilienceError``) exception ever reaches a caller;
- no expired task is served — a result past its latency constraint is
  discarded, never applied;
- every degraded response is flagged, with the stage it was served from;
- retries are bounded by the policy, exactly;
- a corrupt stage batch is re-run, never served;
- the runtime always quiesces (every workload here terminates);
- two runs from the same seed produce byte-identical fault logs.
"""

import numpy as np
import pytest

from repro import faults, telemetry
from repro.datasets import SyntheticImageConfig, make_image_dataset
from repro.faults import FaultPlan, FaultSpec, RetryPolicy
from repro.nn import StagedResNet, StagedResNetConfig
from repro.scheduler import FIFOPolicy, RuntimeConfig, StagedInferenceRuntime
from repro.service import EugeneService
from repro.service.client import EugeneClient

EPISODES = 2
MAX_ATTEMPTS = 4
CONSTRAINT_S = 1.0


@pytest.fixture(autouse=True)
def clean_sessions():
    faults.uninstall()
    telemetry.disable()
    yield
    faults.uninstall()
    telemetry.disable()


@pytest.fixture(scope="module")
def stack():
    """A trained tiny model behind a real service — built fault-free."""
    data = make_image_dataset(
        96, SyntheticImageConfig(num_classes=3, image_size=8, seed=3), seed=0
    )
    service = EugeneService(seed=0)
    client = EugeneClient(service)
    trained = client.train(
        data.inputs,
        data.labels,
        model_config=StagedResNetConfig(
            num_classes=3, image_size=8, stage_channels=(4, 8),
            blocks_per_stage=1, seed=0,
        ),
        epochs=2,
        name="chaos-acceptance",
    )
    return service, trained.model_id, data.inputs


def chaos_plan(seed):
    """Corruption, stalls and errors across all three layers of the stack.

    Every spec is *scheduled* (``at=``), not probabilistic, so the set of
    fired faults — and therefore the fault log — is a pure function of the
    seed and the per-site invocation counters.  The first infer attempt
    fails at the endpoint; the second runs stage batch 0, has batch 1's
    result corrupted (its tasks re-run in batch 2), then fails at batch 3
    with a transient error; the third is served.
    """
    return FaultPlan(
        seed=seed,
        specs=[
            FaultSpec("runtime.stage", faults.CORRUPT, at=(1,)),
            FaultSpec("runtime.stage", faults.ERROR, at=(3,)),
            FaultSpec(
                "runtime.stage", faults.LATENCY, at=(5, 7), latency_s=0.005
            ),
            FaultSpec("service.infer", faults.ERROR, at=(0,)),
            FaultSpec("client.classify", faults.ERROR, at=(1,)),
        ],
    )


def run_workload(stack, seed):
    """Drive EPISODES rounds of infer+classify traffic under the plan."""
    service, model_id, inputs = stack
    client = EugeneClient(
        service,
        retry_policy=RetryPolicy(
            max_attempts=MAX_ATTEMPTS, base_delay_s=0.001, timeout_s=30.0
        ),
    )
    plan = chaos_plan(seed)
    responses = []
    unhandled = []
    typed_failures = 0
    with telemetry.session() as tel, faults.plan_session(plan):
        for _ in range(EPISODES):
            try:
                responses.append(
                    client.infer(
                        model_id,
                        inputs[:8],
                        latency_constraint_s=CONSTRAINT_S,
                        max_batch=4,
                    )
                )
            except faults.ResilienceError:
                typed_failures += 1
            except Exception as err:  # noqa: BLE001 — the invariant itself
                unhandled.append(err)
            try:
                client.classify(model_id, inputs[:16])
            except faults.ResilienceError:
                typed_failures += 1
            except Exception as err:  # noqa: BLE001
                unhandled.append(err)
        counters = dict(tel.registry.counters())
    return plan, responses, unhandled, typed_failures, counters


@pytest.fixture(scope="module")
def workload(stack):
    """One shared chaos run; each invariant below reads it independently."""
    return run_workload(stack, seed=0)


class TestNoUnhandledExceptions:
    def test_only_typed_resilience_errors_escape(self, workload):
        _, _, unhandled, _, _ = workload
        assert unhandled == []

    def test_workload_quiesced_with_responses(self, workload):
        # Reaching this assertion at all IS the quiescence check: the
        # runtime drained every episode despite a failed stage.
        _, responses, _, typed_failures, _ = workload
        assert len(responses) + typed_failures >= EPISODES
        assert responses, "every single infer failed — resilience is broken"


class TestDegradedFlagging:
    def test_every_degraded_response_carries_its_stage(self, workload):
        _, responses, _, _, _ = workload
        for response in responses:
            n = len(response.predictions)
            assert len(response.degraded) == n
            assert len(response.served_stage) == n
            for flagged, stage, evicted, prediction in zip(
                response.degraded,
                response.served_stage,
                response.evicted,
                response.predictions,
            ):
                if flagged:
                    assert stage is not None and stage >= 0
                    assert evicted  # degraded implies the deadline struck
                if prediction is not None:
                    assert stage is not None

    def test_no_result_means_no_prediction(self, workload):
        _, responses, _, _, _ = workload
        for response in responses:
            for stage, prediction, confidence in zip(
                response.served_stage, response.predictions, response.confidences
            ):
                if stage is None:
                    assert prediction is None and confidence is None


class TestRetriesBounded:
    def test_faulted_endpoints_retried_exactly_once_each(self, workload):
        plan, _, _, _, counters = workload
        # Each injected error costs exactly one retry.  infer: the endpoint
        # ERROR and the runtime.stage ERROR both fail episode 1's attempts
        # -> EPISODES+2 invocations.  client.classify: ERROR at invocation
        # 1 -> one retry on episode 2, EPISODES+1 invocations.
        assert plan.invocations("service.infer") == EPISODES + 2
        assert plan.invocations("client.classify") == EPISODES + 1
        assert counters["client.retries.infer"] == 2
        assert counters["client.retries.classify"] == 1

    def test_no_site_exceeds_the_attempt_budget(self, workload):
        plan, _, _, _, _ = workload
        for endpoint in ("service.infer", "client.classify"):
            assert plan.invocations(endpoint) <= EPISODES * MAX_ATTEMPTS


class TestRecoveryHappened:
    def test_corrupt_batch_was_rerun_and_never_served(self, workload):
        _, responses, _, _, counters = workload
        assert counters.get("runtime.corrupt_results", 0) == 1
        for response in responses:
            for confidence in response.confidences:
                assert confidence is None or np.isfinite(confidence)
        # The corrupt batch's tasks still got every stage: it was re-run.
        assert all(
            stages == 2 for r in responses for stages in r.stages_executed
        )

    def test_every_scheduled_fault_fired(self, workload):
        plan, _, _, _, _ = workload
        assert plan.log.counts() == {
            "runtime.stage": 4,
            "service.infer": 1,
            "client.classify": 1,
        }


class TestSeededReproducibility:
    def test_same_seed_byte_identical_fault_logs(self, stack):
        first, _, first_unhandled, _, _ = run_workload(stack, seed=11)
        second, _, second_unhandled, _, _ = run_workload(stack, seed=11)
        assert first_unhandled == [] and second_unhandled == []
        log_a = first.log.export_text()
        log_b = second.log.export_text()
        assert log_a == log_b
        assert log_a.encode("utf-8") == log_b.encode("utf-8")
        assert len(log_a.splitlines()) == 6  # every scheduled index, once


class TestNoExpiredTaskServed:
    def test_completed_tasks_fit_the_constraint_exactly(self):
        # Straight at the runtime: under corrupt + latency chaos, any task
        # reported completed must have finished inside its constraint; an
        # evicted task is never reported completed.
        model = StagedResNet(
            StagedResNetConfig(
                num_classes=3, in_channels=1, image_size=8,
                stage_channels=(4, 8), blocks_per_stage=1, seed=0,
            )
        )
        constraint = 0.4
        runtime = StagedInferenceRuntime(
            model,
            FIFOPolicy(),
            RuntimeConfig(latency_constraint=constraint),
        )
        runtime.submit(np.random.default_rng(0).normal(size=(8, 1, 8, 8)))
        plan = FaultPlan(
            seed=5,
            specs=[
                FaultSpec("runtime.stage", faults.CORRUPT, probability=0.15),
                FaultSpec(
                    "runtime.stage", faults.LATENCY,
                    probability=0.3, latency_s=0.01,
                ),
            ],
        )
        with faults.plan_session(plan):
            results = runtime.run_until_complete()
        assert len(results) == 8
        for r in results:
            if r.completed:
                assert not r.evicted
                assert r.elapsed <= constraint
            if r.evicted:
                assert not r.completed
