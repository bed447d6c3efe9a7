"""Deadline enforcement by the scheduler loop, and RuntimeConfig validation.

The runtime has no eviction daemon thread: the scheduler loop sweeps for
overdue tasks at the top of every turn and right after every dequeued
result — the only place a deadline is compared against the clock — and
sleeps no longer than the next live deadline.  A task whose deadline
passed while a batch was held back (drain window), while it waited in the
timeline, or while a worker hung must be evicted (or served best-so-far
under ``anytime``), on time, and never dispatched.
"""

import threading

import numpy as np
import pytest

from repro import faults, telemetry
from repro.nn.resnet import StagedResNet, StagedResNetConfig
from repro.scheduler.policies import FIFOPolicy, RoundRobinPolicy
from repro.scheduler.runtime import RuntimeConfig, StagedInferenceRuntime
from repro.service.messages import InferRequest
from repro.telemetry.trace import DEADLINE_MISS, STAGE_DISPATCH


@pytest.fixture(scope="module")
def small_model():
    # Heavy enough (16x16 inputs, 8/16 channels) that a backlog of tasks
    # reliably overruns the tight constraints below on this hardware.
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
    def test_drain_window_without_batching_rejected(self):
        with pytest.raises(ValueError, match="max_batch"):
            RuntimeConfig(max_batch=1, drain_window=0.01)

    def test_drain_window_with_batching_accepted(self):
        config = RuntimeConfig(max_batch=4, drain_window=0.01)
        assert config.drain_window == 0.01

    def test_zero_drain_window_unbatched_accepted(self):
        assert RuntimeConfig(max_batch=1, drain_window=0.0).max_batch == 1

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
        inputs = np.random.default_rng(1).normal(size=(48, 3, 16, 16))
        runtime = StagedInferenceRuntime(
            small_model,
            FIFOPolicy(),
            RuntimeConfig(
                num_workers=1,
                latency_constraint=0.03,
            ),
        )
        runtime.submit(inputs)
        results = runtime.run_until_complete()
        # 48 tasks x 2 stages on one worker far exceeds 30ms: the
        # expiry sweep must have evicted the tail of the queue.
        assert any(r.evicted for r in results)
        # An evicted task was cut short; a surviving one ran every stage.
        for r in results:
            if not r.evicted:
                assert len(r.outcomes) == small_model.num_stages

    def test_no_dispatch_after_deadline_with_drain_window(self, small_model):
        """Trace invariant: every dispatched batch member was within its
        deadline at dispatch time, even across drain-window holds."""
        inputs = np.random.default_rng(2).normal(size=(96, 3, 16, 16))
        constraint = 0.03
        with telemetry.session() as t:
            runtime = StagedInferenceRuntime(
                small_model,
                RoundRobinPolicy(),
                RuntimeConfig(
                    num_workers=2,
                    latency_constraint=constraint,
                    max_batch=4,
                    drain_window=0.02,
                ),
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
            # The workload overruns the constraint, so misses were traced.
            assert any(r.evicted for r in results)
            misses = t.trace.events(DEADLINE_MISS)
            assert {e.task_id for e in misses} == {
                r.task_id for r in results if r.evicted
            }
            assert t.registry.counters()["runtime.deadline_misses"] == len(
                {e.task_id for e in misses}
            )

    def test_comfortable_deadline_unaffected(self, small_model):
        """The sweep must not evict anything when deadlines are loose."""
        inputs = np.random.default_rng(3).normal(size=(6, 3, 16, 16))
        runtime = StagedInferenceRuntime(
            small_model,
            RoundRobinPolicy(),
            RuntimeConfig(
                num_workers=2,
                latency_constraint=60.0,
                max_batch=3,
                drain_window=0.01,
            ),
        )
        runtime.submit(inputs)
        results = runtime.run_until_complete()
        assert all(not r.evicted for r in results)
        assert all(len(r.outcomes) == small_model.num_stages for r in results)

    @pytest.mark.parametrize("anytime", [True, False])
    def test_hung_worker_neither_delays_eviction_nor_needs_a_daemon(
        self, small_model, monkeypatch, anytime
    ):
        """One worker hangs past the constraint: every task still closes at
        its deadline (the wait is sized by the next deadline, not by the
        50 ms idle tick), and the run's only extra threads are its workers.
        """
        constraint, num_workers = 0.06, 1
        before = set(threading.enumerate())
        extra_threads = []
        real_infer_stage = small_model.infer_stage

        def spying_infer_stage(feats, stage):
            extra_threads.append(len(set(threading.enumerate()) - before))
            return real_infer_stage(feats, stage)

        monkeypatch.setattr(small_model, "infer_stage", spying_infer_stage)
        # Stage call 0 (task 0, stage 0) completes; call 1 hangs for 0.25 s.
        plan = faults.FaultPlan(
            seed=0,
            specs=[
                faults.FaultSpec(
                    "runtime.worker.stage", faults.HANG, at=(1,), latency_s=0.25
                )
            ],
        )
        runtime = StagedInferenceRuntime(
            small_model,
            FIFOPolicy(),
            RuntimeConfig(
                num_workers=num_workers,
                latency_constraint=constraint,
                anytime=anytime,
            ),
        )
        runtime.submit(np.random.default_rng(4).normal(size=(3, 3, 16, 16)))
        with faults.plan_session(plan):
            results = runtime.run_until_complete()

        assert all(r.elapsed <= constraint + 0.02 for r in results), [
            r.elapsed for r in results
        ]
        # Task 0 finished one stage before the hang; tasks 1-2 never ran.
        assert [r.anytime_served for r in results] == [anytime, False, False]
        assert [r.evicted for r in results] == [not anytime, True, True]
        assert [len(r.outcomes) for r in results] == [1, 0, 0]
        assert extra_threads and set(extra_threads) == {num_workers}
