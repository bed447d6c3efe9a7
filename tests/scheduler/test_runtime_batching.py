"""Micro-batched stage serving: batch formation and end-to-end equivalence.

``form_batch`` is a pure function called by the scheduler loop right after
its expiry sweep, so its invariants — evicted/done tasks never join a
batch, other-stage work keeps its timeline position — can be tested
directly.  The runtime tests then confirm that batching is purely an
execution-layer optimisation (same predictions and same per-task stage
counts as the unbatched runtime), that each batch comes from at most one
``plan()`` call, and that stages run on the caller's thread.
"""

import threading
from collections import deque

import numpy as np
import pytest

from repro.nn.resnet import StagedResNet, StagedResNetConfig
from repro.scheduler import GPConfidencePredictor, RTDeepIoTPolicy
from repro.scheduler.policies import FIFOPolicy, RoundRobinPolicy
from repro.scheduler.runtime import (
    RuntimeConfig,
    StagedInferenceRuntime,
    form_batch,
)
from repro.scheduler.task import StageOutcome, TaskRecord

from .stage_clock import on_virtual_clock


def _record(tid, stages_done=0, num_stages=3, evicted=False):
    record = TaskRecord(
        task_id=tid, arrival_time=0.0, deadline=10.0, num_stages=num_stages
    )
    for s in range(stages_done):
        record.outcomes.append(StageOutcome(stage=s, prediction=0, confidence=0.5))
    record.evicted = evicted
    return record


class TestFormBatch:
    def test_coalesces_same_stage(self):
        records = {i: _record(i) for i in range(4)}
        timeline = deque([(0, 0), (1, 0), (2, 0), (3, 0)])
        batch, stage, rest = form_batch(timeline, records, 4)
        assert batch == [0, 1, 2, 3]
        assert stage == 0
        assert not rest

    def test_respects_max_batch(self):
        records = {i: _record(i) for i in range(4)}
        timeline = deque([(i, 0) for i in range(4)])
        batch, stage, rest = form_batch(timeline, records, 2)
        assert batch == [0, 1]
        assert list(rest) == [(2, 0), (3, 0)]

    def test_other_stage_entries_keep_position(self):
        records = {0: _record(0), 1: _record(1, stages_done=1), 2: _record(2)}
        timeline = deque([(0, 0), (1, 1), (2, 0)])
        batch, stage, rest = form_batch(timeline, records, 4)
        assert batch == [0, 2]
        assert stage == 0
        assert list(rest) == [(1, 1)]

    def test_evicted_task_never_joins_batch(self):
        records = {0: _record(0), 1: _record(1, evicted=True), 2: _record(2)}
        timeline = deque([(0, 0), (1, 0), (2, 0)])
        batch, _, rest = form_batch(timeline, records, 4)
        assert batch == [0, 2]
        assert 1 not in batch
        assert (1, 0) not in rest  # dropped, not deferred

    def test_completed_task_is_dropped(self):
        records = {0: _record(0, stages_done=3), 1: _record(1)}
        timeline = deque([(0, 0), (1, 0)])
        batch, _, _ = form_batch(timeline, records, 4)
        assert batch == [1]

    def test_stale_stage_entry_is_dropped(self):
        # Task 0 already finished stage 0; a leftover (0, 0) entry is stale.
        records = {0: _record(0, stages_done=1), 1: _record(1)}
        timeline = deque([(0, 0), (1, 0)])
        batch, stage, rest = form_batch(timeline, records, 4)
        assert batch == [1]
        assert stage == 0
        assert not rest

    def test_duplicate_task_entries_join_once(self):
        records = {0: _record(0)}
        timeline = deque([(0, 0), (0, 0)])
        batch, _, rest = form_batch(timeline, records, 4)
        assert batch == [0]
        assert not rest

    def test_empty_timeline(self):
        batch, stage, rest = form_batch(deque(), {}, 4)
        assert batch == [] and stage is None and not rest


@pytest.fixture(scope="module")
def small_model():
    model = StagedResNet(
        StagedResNetConfig(
            num_classes=5, image_size=8, stage_channels=(4, 8), blocks_per_stage=1
        )
    )
    model.eval()
    return model


@pytest.fixture(scope="module")
def inputs():
    return np.random.default_rng(0).normal(size=(10, 3, 8, 8))


def _serve(model, policy, inputs, **config):
    runtime = StagedInferenceRuntime(
        model, policy, RuntimeConfig(latency_constraint=60.0, **config)
    )
    runtime.submit(inputs)
    return runtime.run_until_complete(), list(runtime.batch_log)


class TestBatchedRuntimeEquivalence:
    @pytest.mark.parametrize("policy_cls", [FIFOPolicy, RoundRobinPolicy])
    def test_same_predictions_and_stage_counts(self, small_model, inputs, policy_cls):
        base, base_log = _serve(small_model, policy_cls(), inputs, max_batch=1)
        batched, batched_log = _serve(
            small_model, policy_cls(), inputs, max_batch=4
        )
        assert [r.prediction for r in base] == [r.prediction for r in batched]
        assert [len(r.outcomes) for r in base] == [len(r.outcomes) for r in batched]
        assert not any(r.evicted for r in batched)
        # Confidences agree to float accumulation order (BLAS reduces a
        # batch of 4 in a different order than 4 batches of 1).
        np.testing.assert_allclose(
            [r.confidence for r in base], [r.confidence for r in batched]
        )
        assert all(len(tids) == 1 for _, tids in base_log)
        assert any(len(tids) > 1 for _, tids in batched_log)
        assert all(len(tids) <= 4 for _, tids in batched_log)

    def test_all_stages_served(self, small_model, inputs):
        results, log = _serve(
            small_model, RoundRobinPolicy(), inputs, max_batch=4
        )
        for r in results:
            assert not r.evicted
            assert [o.stage for o in r.outcomes] == list(range(small_model.num_stages))
        # Every (task, stage) pair appears in exactly one dispatched batch.
        served = [(tid, stage) for stage, tids in log for tid in tids]
        assert sorted(served) == sorted(
            (tid, s) for tid in range(len(inputs)) for s in range(small_model.num_stages)
        )

    def test_batches_are_single_stage(self, small_model, inputs):
        _, log = _serve(
            small_model, RoundRobinPolicy(), inputs, max_batch=4
        )
        for stage, tids in log:
            assert len(set(tids)) == len(tids)  # no task twice in one batch

    def test_evicted_tasks_never_in_later_batches(self, small_model, inputs):
        """Under an impossible deadline, dispatched batches must only ever
        contain tasks that were live at formation time; an evicted task may
        finish an in-flight stage but never join a *new* batch."""
        # 7 ms per batch: the three stage-0 batches and one stage-1 batch
        # finish inside the 30 ms constraint, the next stage-1 batch lands
        # after it and is discarded.
        model, clock = on_virtual_clock(small_model, 0.007)
        runtime = StagedInferenceRuntime(
            model,
            RoundRobinPolicy(),
            RuntimeConfig(latency_constraint=0.03, max_batch=4),
            clock=clock,
        )
        runtime.submit(np.asarray(inputs))
        results = runtime.run_until_complete()
        evicted = {r.task_id for r in results if r.evicted}
        assert 0 < len(evicted) < len(results)
        # The accounting must always hold: a task's executed stages are
        # exactly the batches it was part of.
        per_task = {r.task_id: [o.stage for o in r.outcomes] for r in results}
        dispatched = {tid: [] for tid in per_task}
        for stage, tids in runtime.batch_log:
            for tid in tids:
                dispatched[tid].append(stage)
        for tid, stages in per_task.items():
            # Executed stages are a prefix of dispatched ones (a final
            # dispatched stage may have been discarded post-eviction).
            assert dispatched[tid][: len(stages)] == stages
            if tid not in evicted:
                assert dispatched[tid] == stages

    def test_unbatched_default_config_unchanged(self, small_model, inputs):
        results, log = _serve(small_model, FIFOPolicy(), inputs[:4])
        assert all(len(tids) == 1 for _, tids in log)
        assert all(not r.evicted for r in results)


#: A 3-stage model and a fitted predictor whose dispatch sequences at
#: ``max_batch=1`` were recorded from the worker-pool runtime this one
#: replaced (one worker, so its sequence was deterministic).
THREE_STAGE = StagedResNetConfig(
    num_classes=4, image_size=8, stage_channels=(4, 8, 16), blocks_per_stage=1,
    seed=3,
)


def _predictor():
    curves = np.sort(np.random.default_rng(1).uniform(0.1, 1.0, size=(3, 40)), axis=0)
    return GPConfidencePredictor(num_classes=4, seed=0).fit(curves)


def _serve_three_stage(policy, num_tasks, **config):
    model = StagedResNet(THREE_STAGE)
    model.eval()
    runtime = StagedInferenceRuntime(
        model, policy, RuntimeConfig(latency_constraint=60.0, **config)
    )
    runtime.submit(np.random.default_rng(0).normal(size=(num_tasks, 3, 8, 8)))
    return runtime.run_until_complete(), list(runtime.batch_log)


class CountingRTDeepIoT(RTDeepIoTPolicy):
    """RTDeepIoT-k that counts its ``plan()`` calls."""

    def __post_init__(self) -> None:
        super().__post_init__()
        self.plan_calls = 0

    def plan(self, tasks, now):
        self.plan_calls += 1
        return super().plan(tasks, now)


RECORDED_MAX_BATCH_1 = {
    "fifo": [
        (0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1), (0, 2), (1, 2),
        (2, 2), (0, 3), (1, 3), (2, 3), (0, 4), (1, 4), (2, 4), (0, 5),
        (1, 5), (2, 5), (0, 6), (1, 6), (2, 6), (0, 7), (1, 7), (2, 7),
    ],
    "rtdeepiot-1": [
        (0, 0), (0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7),
        (1, 0), (2, 0), (1, 6), (2, 6), (1, 2), (2, 2), (1, 5), (2, 5),
        (1, 7), (2, 7), (1, 4), (2, 4), (1, 3), (2, 3), (1, 1), (2, 1),
    ],
    "rtdeepiot-2": [
        (0, 0), (1, 0), (2, 0), (0, 1), (0, 2), (1, 2), (2, 2), (0, 3),
        (0, 4), (1, 4), (2, 4), (0, 5), (0, 6), (1, 6), (0, 7), (1, 7),
        (2, 7), (2, 6), (1, 5), (2, 5), (1, 3), (2, 3), (1, 1), (2, 1),
    ],
}
RECORDED_PREDICTIONS = [0, 1, 0, 0, 0, 0, 0, 0]


class TestBatchFormation:
    @pytest.mark.parametrize("name", sorted(RECORDED_MAX_BATCH_1))
    def test_max_batch_1_dispatch_sequence_unchanged(self, name):
        policy = {
            "fifo": FIFOPolicy,
            "rtdeepiot-1": lambda: RTDeepIoTPolicy(_predictor(), k=1),
            "rtdeepiot-2": lambda: RTDeepIoTPolicy(_predictor(), k=2),
        }[name]()
        results, log = _serve_three_stage(policy, 8, max_batch=1)
        assert [(stage, tids[0]) for stage, tids in log] == RECORDED_MAX_BATCH_1[name]
        assert all(len(tids) == 1 for _, tids in log)
        assert [r.prediction for r in results] == RECORDED_PREDICTIONS
        assert [len(r.outcomes) for r in results] == [3] * 8

    def test_plan_called_at_most_once_per_batch(self):
        policy = CountingRTDeepIoT(_predictor(), k=1)
        _, log = _serve_three_stage(policy, 32, max_batch=16)
        assert 1 <= policy.plan_calls <= len(log)

    def test_32_tasks_form_six_full_single_stage_batches(self):
        logs = [
            _serve_three_stage(RTDeepIoTPolicy(_predictor(), k=1), 32, max_batch=16)[1]
            for _ in range(3)
        ]
        log = logs[0]
        assert [len(tids) for _, tids in log] == [16] * 6
        served = sorted((tid, stage) for stage, tids in log for tid in tids)
        assert served == [(tid, s) for tid in range(32) for s in range(3)]
        # One thread owns the queue: the sequence is a function of the inputs.
        assert logs[1] == log and logs[2] == log

    def test_every_stage_runs_on_the_calling_thread(
        self, small_model, inputs, monkeypatch
    ):
        callers = []
        real_stem, real_stage = small_model.infer_stem, small_model.infer_stage

        def stem(feats):
            callers.append(threading.get_ident())
            return real_stem(feats)

        def stage(feats, index):
            callers.append(threading.get_ident())
            return real_stage(feats, index)

        monkeypatch.setattr(small_model, "infer_stem", stem)
        monkeypatch.setattr(small_model, "infer_stage", stage)
        served = {}

        def serve():
            served["thread"] = threading.get_ident()
            _, served["log"] = _serve(
                small_model, RoundRobinPolicy(), inputs, max_batch=4
            )

        caller = threading.Thread(target=serve)
        caller.start()
        caller.join()
        stem_calls = sum(1 for stage_index, _ in served["log"] if stage_index == 0)
        assert len(callers) == len(served["log"]) + stem_calls
        assert set(callers) == {served["thread"]}
