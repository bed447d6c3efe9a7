"""Overload / backpressure invariants under sustained saturation.

Drives the simulator and the service past capacity (with and without a
seeded fault plan in the mix) and asserts the overload contract:

- the arrived-but-unadmitted queue never exceeds its configured bound;
- every rejection is *typed*: a known reason and a non-negative
  retry-after hint, never a silent drop or a bare exception;
- no task is ever both shed and served — shed means zero service;
- the shed/served/evicted partition covers every submitted task exactly
  once, and the trace gives every task exactly one terminal event;
- the same seed sheds the same tasks (overload handling is deterministic).
"""

import numpy as np
import pytest

from repro import faults, telemetry
from repro.admission import (
    REJECT_REASONS,
    AdmissionConfig,
    AdmissionController,
    EndpointLimits,
)
from repro.faults import BackpressureError, FaultPlan, FaultSpec, RetryPolicy
from repro.nn import StagedResNet, StagedResNetConfig
from repro.scheduler import FIFOPolicy, PoolSimulator, SimulationConfig, TaskOracle
from repro.service import DeleteRequest, EugeneClient, EugeneService, RejectedResponse

from ..scheduler.trace_invariants import check_lifecycle


@pytest.fixture(autouse=True)
def clean_sessions():
    faults.uninstall()
    telemetry.disable()
    yield
    faults.uninstall()
    telemetry.disable()


def make_oracles(n, seed=0):
    rng = np.random.default_rng(seed)
    oracles = []
    for _ in range(n):
        confs = np.sort(rng.uniform(0.2, 0.95, size=3))
        oracles.append(
            TaskOracle(
                confidences=tuple(float(c) for c in confs),
                predictions=(0, 0, 0),
                correct=tuple(bool(rng.random() < c) for c in confs),
            )
        )
    return oracles


def overloaded_episode(seed, depth=4, num_tasks=24, stage_failure_prob=0.0):
    """~3x capacity open-loop arrivals into a bounded queue."""
    rng = np.random.default_rng(seed)
    arrivals = np.cumsum(rng.exponential(0.1, size=num_tasks)).tolist()
    config = SimulationConfig(
        num_workers=2,
        concurrency=3,
        stage_times=(0.3, 0.3, 0.3),
        latency_constraint=2.0,
        stage_failure_prob=stage_failure_prob,
        failure_seed=seed,
        admission=AdmissionConfig(
            max_queue_depth=depth, degrade_queue_depth=2, degrade_stage_cap=1
        ),
    )
    return PoolSimulator(
        make_oracles(num_tasks, seed=seed),
        FIFOPolicy(),
        config,
        arrival_times=arrivals,
    ).run()


class TestQueueBound:
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_peak_depth_never_exceeds_the_bound(self, seed):
        result = overloaded_episode(seed, depth=4)
        assert result.peak_queue_depth <= 4

    def test_bound_holds_with_stage_failures_in_the_mix(self):
        # Worker crashes force retries and lengthen the backlog; the
        # ingress bound must hold regardless.
        result = overloaded_episode(3, depth=4, stage_failure_prob=0.2)
        assert result.peak_queue_depth <= 4


class TestShedServedPartition:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_trace_ends_every_task_exactly_once(self, seed):
        # Shed at the door, expired while queued, evicted, capped, served:
        # whichever way a task goes, the trace gives it one terminal event.
        with telemetry.session() as tel:
            result = overloaded_episode(seed, stage_failure_prob=0.1)
            terminal = check_lifecycle(tel.trace, num_stages=3)
        assert sorted(terminal) == [r.task_id for r in result.records]

    def test_task_expired_while_queued_ends_exactly_once(self):
        # No queue bound: most of a burst waits past its deadline before
        # a slot frees, and is evicted without ever being admitted.
        config = SimulationConfig(
            num_workers=1, concurrency=2, stage_times=(1.0, 1.0, 1.0),
            latency_constraint=4.0,
        )
        with telemetry.session() as tel:
            result = PoolSimulator(
                make_oracles(12), FIFOPolicy(), config, arrival_times=[0.0] * 12
            ).run()
            terminal = check_lifecycle(tel.trace, num_stages=3)
        assert sorted(terminal) == list(range(12))
        assert sum(1 for r in result.records if r.evicted and not r.outcomes) >= 6

    @pytest.mark.parametrize("seed", [0, 5])
    def test_no_task_is_both_shed_and_served(self, seed):
        result = overloaded_episode(seed)
        for record in result.records:
            if record.shed:
                assert record.outcomes == []
                assert not record.evicted

    def test_every_task_is_accounted_for_exactly_once(self):
        result = overloaded_episode(2)
        shed = {r.task_id for r in result.records if r.shed}
        served = {
            r.task_id
            for r in result.records
            if r.outcomes and not r.evicted and not r.shed
        }
        evicted = {r.task_id for r in result.records if r.evicted}
        starved = {
            r.task_id
            for r in result.records
            if not r.shed and not r.evicted and not r.outcomes
        }
        assert shed | served | evicted | starved == set(range(result.num_tasks))
        assert shed.isdisjoint(served)
        assert shed.isdisjoint(evicted)
        assert served.isdisjoint(evicted)

    def test_same_seed_sheds_the_same_tasks(self):
        a = overloaded_episode(4)
        b = overloaded_episode(4)
        assert [r.task_id for r in a.records if r.shed] == [
            r.task_id for r in b.records if r.shed
        ]


class TestTypedRejections:
    def test_every_service_rejection_carries_reason_and_retry_after(self):
        controller = AdmissionController(
            per_endpoint={"delete": EndpointLimits(rate_per_s=0.001, burst=1)}
        )
        service = EugeneService(seed=0, admission=controller)
        tiny = StagedResNetConfig(
            num_classes=4, image_size=8, stage_channels=(4, 8),
            blocks_per_stage=1, seed=0,
        )
        for i in range(6):
            service.registry.register(f"m-{i}", StagedResNet(tiny))
        rejections = []
        for i in range(6):
            response = service.delete(DeleteRequest(model_id=f"m{i + 1}"))
            if isinstance(response, RejectedResponse):
                rejections.append(response)
        assert rejections  # past the burst, every call is refused
        for rejection in rejections:
            assert rejection.reason in REJECT_REASONS
            assert rejection.retry_after_s >= 0.0
            assert rejection.endpoint == "delete"

    def test_rejection_is_typed_even_with_fault_injection_armed(self):
        # A fault plan adding latency at the client transport must not
        # turn a typed rejection into something else.
        plan = FaultPlan(
            seed=0,
            specs=[
                FaultSpec(
                    "client.delete", faults.LATENCY, at=(0, 1), latency_s=0.002
                )
            ],
        )
        faults.install(plan)
        controller = AdmissionController(
            per_endpoint={"delete": EndpointLimits(max_concurrent=1)}
        )
        service = EugeneService(seed=0, admission=controller)
        assert controller.admit("delete").admitted  # hold the only slot
        client = EugeneClient(
            service, retry_policy=RetryPolicy(max_attempts=2, base_delay_s=0.0)
        )
        with pytest.raises(BackpressureError) as excinfo:
            client.delete("whatever")
        assert excinfo.value.reason in REJECT_REASONS
        assert excinfo.value.retry_after_s >= 0.0
        controller.release("delete")

    def test_simulator_rejections_are_traced_with_reasons(self):
        session = telemetry.enable()
        try:
            result = overloaded_episode(1)
            assert result.num_shed > 0
            counters = session.registry.counters()
            assert counters["simulator.tasks_shed"] == result.num_shed
            kinds = session.trace.counts()
            assert kinds.get("load-shed", 0) >= 1
        finally:
            telemetry.disable()
