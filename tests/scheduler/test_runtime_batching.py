"""Micro-batched stage serving: batch formation and end-to-end equivalence.

``form_batch`` is a pure function called under the scheduler lock, so its
invariants — evicted/done/in-flight tasks never join a batch, other-stage
work keeps its timeline position — can be tested directly.  The runtime
tests then confirm that batching is purely an execution-layer optimisation:
same predictions and same per-task stage counts as the unbatched runtime.
"""

from collections import deque

import numpy as np
import pytest

from repro.nn.resnet import StagedResNet, StagedResNetConfig
from repro.scheduler.policies import FIFOPolicy, RoundRobinPolicy
from repro.scheduler.runtime import (
    RuntimeConfig,
    StagedInferenceRuntime,
    form_batch,
)
from repro.scheduler.task import StageOutcome, TaskRecord


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
        batch, stage, rest = form_batch(timeline, records, {}, 4)
        assert batch == [0, 1, 2, 3]
        assert stage == 0
        assert not rest

    def test_respects_max_batch(self):
        records = {i: _record(i) for i in range(4)}
        timeline = deque([(i, 0) for i in range(4)])
        batch, stage, rest = form_batch(timeline, records, {}, 2)
        assert batch == [0, 1]
        assert list(rest) == [(2, 0), (3, 0)]

    def test_other_stage_entries_keep_position(self):
        records = {0: _record(0), 1: _record(1, stages_done=1), 2: _record(2)}
        timeline = deque([(0, 0), (1, 1), (2, 0)])
        batch, stage, rest = form_batch(timeline, records, {}, 4)
        assert batch == [0, 2]
        assert stage == 0
        assert list(rest) == [(1, 1)]

    def test_evicted_task_never_joins_batch(self):
        records = {0: _record(0), 1: _record(1, evicted=True), 2: _record(2)}
        timeline = deque([(0, 0), (1, 0), (2, 0)])
        batch, _, rest = form_batch(timeline, records, {}, 4)
        assert batch == [0, 2]
        assert 1 not in batch
        assert (1, 0) not in rest  # dropped, not deferred

    def test_completed_task_is_dropped(self):
        records = {0: _record(0, stages_done=3), 1: _record(1)}
        timeline = deque([(0, 0), (1, 0)])
        batch, _, _ = form_batch(timeline, records, {}, 4)
        assert batch == [1]

    def test_in_flight_task_is_dropped(self):
        records = {0: _record(0), 1: _record(1)}
        timeline = deque([(0, 0), (1, 0)])
        batch, _, rest = form_batch(timeline, records, {0: 0}, 4)
        assert batch == [1]
        assert not rest

    def test_stale_stage_entry_is_dropped(self):
        # Task 0 already finished stage 0; a leftover (0, 0) entry is stale.
        records = {0: _record(0, stages_done=1), 1: _record(1)}
        timeline = deque([(0, 0), (1, 0)])
        batch, stage, rest = form_batch(timeline, records, {}, 4)
        assert batch == [1]
        assert stage == 0
        assert not rest

    def test_duplicate_task_entries_join_once(self):
        records = {0: _record(0)}
        timeline = deque([(0, 0), (0, 0)])
        batch, _, rest = form_batch(timeline, records, {}, 4)
        assert batch == [0]
        assert not rest

    def test_empty_timeline(self):
        batch, stage, rest = form_batch(deque(), {}, {}, 4)
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
        model, policy, RuntimeConfig(num_workers=2, latency_constraint=60.0, **config)
    )
    runtime.submit(inputs)
    return runtime.run_until_complete(), list(runtime.batch_log)


class TestBatchedRuntimeEquivalence:
    @pytest.mark.parametrize("policy_cls", [FIFOPolicy, RoundRobinPolicy])
    def test_same_predictions_and_stage_counts(self, small_model, inputs, policy_cls):
        base, base_log = _serve(small_model, policy_cls(), inputs, max_batch=1)
        batched, batched_log = _serve(
            small_model, policy_cls(), inputs, max_batch=4, drain_window=0.01
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
            small_model, RoundRobinPolicy(), inputs, max_batch=4, drain_window=0.01
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
            small_model, RoundRobinPolicy(), inputs, max_batch=4, drain_window=0.01
        )
        for stage, tids in log:
            assert len(set(tids)) == len(tids)  # no task twice in one batch

    def test_evicted_tasks_never_in_later_batches(self, small_model, inputs):
        """Under an impossible deadline, dispatched batches must only ever
        contain tasks that were live at formation time; an evicted task may
        finish an in-flight stage but never join a *new* batch."""
        runtime = StagedInferenceRuntime(
            small_model,
            RoundRobinPolicy(),
            RuntimeConfig(
                num_workers=2,
                latency_constraint=0.03,
                max_batch=4,
                drain_window=0.005,
            ),
        )
        runtime.submit(np.asarray(inputs))
        results = runtime.run_until_complete()
        evicted = {r.task_id for r in results if r.evicted}
        # The run is timing-dependent, but the accounting must always hold:
        # a task's executed stages are exactly the batches it was part of.
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
