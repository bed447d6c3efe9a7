"""Deadline enforcement by the scheduler loop, and request validation.

The runtime has no eviction daemon thread and no worker pool: the
scheduler loop sweeps for overdue tasks at the top of every turn and right
after every stage batch — the only place a deadline is compared against
the clock — so a deadline is noticed at most one stage batch late.  A task
whose deadline passed while it waited in the timeline, or while a stage
stalled, must be evicted (or served best-so-far under ``anytime``) and
never dispatched; a stage result that lands after the deadline is
discarded.

The overrun tests run on a virtual clock at a fixed cost per stage batch
(:mod:`.stage_clock`), so the workload overruns its constraint on any
host.
"""

import threading
import time

import numpy as np
import pytest

from repro import faults, telemetry
from repro.clock import VirtualClock
from repro.nn.resnet import StagedResNet, StagedResNetConfig
from repro.scheduler.policies import FIFOPolicy, RoundRobinPolicy, SchedulingPolicy
from repro.scheduler.runtime import RuntimeConfig, StagedInferenceRuntime
from repro.service.messages import InferRequest
from repro.telemetry.trace import DEADLINE_MISS, STAGE_DISPATCH

from .stage_clock import on_virtual_clock
from .trace_invariants import check_lifecycle

#: Virtual seconds per stage batch in the overrun tests.
STAGE_COST_S = 0.002


@pytest.fixture(scope="module")
def small_model():
    model = StagedResNet(
        StagedResNetConfig(
            num_classes=5, image_size=16, stage_channels=(8, 16), blocks_per_stage=1
        )
    )
    model.eval()
    # Warm the no-grad scratch buffers so timing tests see steady state.
    model.predict_proba(np.zeros((2, 3, 16, 16)))
    return model


class TestRuntimeConfigValidation:
    # ``InferRequest.drain_window_s`` stays on the wire, validated but
    # ignored, until the benchmark stops sending it.
    def test_infer_request_mirrors_the_rule(self):
        with pytest.raises(ValueError, match="max_batch"):
            InferRequest(
                model_id="m",
                inputs=np.zeros((1, 3, 8, 8)),
                max_batch=1,
                drain_window_s=0.5,
            )

    def test_infer_request_valid_combination(self):
        request = InferRequest(
            model_id="m",
            inputs=np.zeros((1, 3, 8, 8)),
            max_batch=4,
            drain_window_s=0.5,
        )
        assert request.drain_window_s == 0.5


class TestDispatchTimeDeadlineCheck:
    def test_overdue_tasks_evicted_not_dispatched(self, small_model):
        """Expired tasks are evicted by the sweep, never dispatched."""
        inputs = np.random.default_rng(1).normal(size=(192, 3, 16, 16))
        model, clock = on_virtual_clock(small_model, STAGE_COST_S)
        runtime = StagedInferenceRuntime(
            model,
            FIFOPolicy(),
            RuntimeConfig(latency_constraint=0.03),
            clock=clock,
        )
        runtime.submit(inputs)
        results = runtime.run_until_complete()
        # 192 tasks x 2 stages one batch at a time far exceeds 30ms: the
        # expiry sweep must have evicted the tail of the queue.
        assert any(r.evicted for r in results)
        # An evicted task was cut short; a surviving one ran every stage.
        for r in results:
            if not r.evicted:
                assert len(r.outcomes) == small_model.num_stages

    def test_no_dispatch_after_deadline_when_batched(self, small_model):
        """Trace invariant: every dispatched batch member was within its
        deadline at dispatch time."""
        inputs = np.random.default_rng(2).normal(size=(96, 3, 16, 16))
        constraint = 0.03
        model, clock = on_virtual_clock(small_model, STAGE_COST_S)
        with telemetry.session() as t:
            runtime = StagedInferenceRuntime(
                model,
                RoundRobinPolicy(),
                RuntimeConfig(latency_constraint=constraint, max_batch=4),
                clock=clock,
            )
            runtime.submit(inputs)
            results = runtime.run_until_complete()
            dispatches = t.trace.events(STAGE_DISPATCH)
            assert dispatches, "nothing was ever dispatched"
            for event in dispatches:
                assert event.t <= constraint + 1e-9, (
                    f"batch {event.task_ids} dispatched at {event.t:.4f}s, "
                    f"after the {constraint}s deadline"
                )
            # 48 stage batches of 2 ms overrun the constraint, so misses
            # were traced.
            assert any(r.evicted for r in results)
            misses = t.trace.events(DEADLINE_MISS)
            assert {e.task_id for e in misses} == {
                r.task_id for r in results if r.evicted
            }
            assert t.registry.counters()["runtime.deadline_misses"] == len(
                {e.task_id for e in misses}
            )
            terminal = check_lifecycle(t.trace, num_stages=small_model.num_stages)
            assert sorted(terminal) == [r.task_id for r in results]

    def test_comfortable_deadline_unaffected(self, small_model):
        """The sweep must not evict anything when deadlines are loose."""
        inputs = np.random.default_rng(3).normal(size=(6, 3, 16, 16))
        runtime = StagedInferenceRuntime(
            small_model,
            RoundRobinPolicy(),
            RuntimeConfig(latency_constraint=60.0, max_batch=3),
        )
        runtime.submit(inputs)
        results = runtime.run_until_complete()
        assert all(not r.evicted for r in results)
        assert all(len(r.outcomes) == small_model.num_stages for r in results)

    def test_policy_that_plans_nothing_waits_out_the_deadlines(self, small_model):
        """No batch to run: the loop sleeps to the nearest deadline, and
        every task is evicted there — on a virtual clock, without spinning
        on the deadline instant."""

        class PlansNothing(SchedulingPolicy):
            def plan(self, tasks, now):
                return []

        constraint = 5.0
        runtime = StagedInferenceRuntime(
            small_model,
            PlansNothing(),
            RuntimeConfig(latency_constraint=constraint),
            clock=VirtualClock(),
        )
        runtime.submit(np.random.default_rng(5).normal(size=(4, 3, 16, 16)))
        start = time.perf_counter()
        with telemetry.session() as tel:
            results = runtime.run_until_complete()
            check_lifecycle(tel.trace, num_stages=small_model.num_stages)
        assert time.perf_counter() - start < 1.0
        assert runtime.batch_log == []
        assert all(r.evicted and not r.outcomes for r in results)
        assert [r.elapsed for r in results] == [constraint] * 4

    def test_stall_never_delays_sweep(self, small_model, monkeypatch):
        """A stage stalls past the constraint: its result is discarded and
        every task is evicted at the first sweep after the stall."""
        self._stall_past_deadline(small_model, monkeypatch, anytime=False)

    def test_stall_served_by_anytime(self, small_model, monkeypatch):
        """Under ``anytime`` the task with a finished stage is served
        best-so-far at its deadline; the stalled stage's result is still
        discarded."""
        self._stall_past_deadline(small_model, monkeypatch, anytime=True)

    @staticmethod
    def _stall_past_deadline(small_model, monkeypatch, anytime):
        """Stall stage call 1 past the deadline and check the outcome.
        Stage calls run on the caller's thread, and the run creates no
        thread."""
        constraint, stall = 0.06, 0.25
        caller = threading.get_ident()
        before = set(threading.enumerate())
        seen = []
        real_infer_stage = small_model.infer_stage

        def spying_infer_stage(feats, stage):
            seen.append(
                (threading.get_ident(), set(threading.enumerate()) - before)
            )
            return real_infer_stage(feats, stage)

        monkeypatch.setattr(small_model, "infer_stage", spying_infer_stage)
        # Stage call 0 (task 0, stage 0) completes; call 1 stalls 0.25 s.
        plan = faults.FaultPlan(
            seed=0,
            specs=[
                faults.FaultSpec(
                    "runtime.stage", faults.HANG, at=(1,), latency_s=stall
                )
            ],
        )
        runtime = StagedInferenceRuntime(
            small_model,
            FIFOPolicy(),
            RuntimeConfig(latency_constraint=constraint, anytime=anytime),
        )
        runtime.submit(np.random.default_rng(4).normal(size=(3, 3, 16, 16)))
        with telemetry.session() as tel, faults.plan_session(plan):
            results = runtime.run_until_complete()
            check_lifecycle(tel.trace, num_stages=small_model.num_stages)

        # Task 0 finished one stage before the stall; the stalled stage's
        # result (task 0, stage 1) landed after the deadline and was
        # discarded; tasks 1-2 never ran.
        assert [len(r.outcomes) for r in results] == [1, 0, 0]
        assert [r.anytime_served for r in results] == [anytime, False, False]
        assert [r.evicted for r in results] == [not anytime, True, True]
        # Closed by the sweep right after the stall, not before it ended.
        for r in results:
            if r.anytime_served:
                assert r.elapsed == constraint
            else:
                assert stall <= r.elapsed <= stall + 0.05, r.elapsed
        assert len(seen) == 2
        assert all(ident == caller and not new for ident, new in seen)
