"""Tests for the scheduling policies."""

import numpy as np
import pytest

from repro.scheduler import (
    FIFOPolicy,
    GPConfidencePredictor,
    RoundRobinPolicy,
    RTDeepIoTPolicy,
    TaskView,
)


def view(task_id, stages_done=0, confidences=(), arrival=0.0, num_stages=3):
    return TaskView(
        task_id=task_id,
        arrival_time=arrival,
        deadline=arrival + 10.0,
        num_stages=num_stages,
        stages_done=stages_done,
        confidences=tuple(confidences),
    )


@pytest.fixture(scope="module")
def predictor():
    rng = np.random.default_rng(0)
    base = rng.uniform(0.2, 0.8, 300)
    mat = np.stack(
        [
            np.clip(base, 0, 1),
            np.clip(base + 0.15, 0, 1),
            np.clip(base + 0.25, 0, 1),
        ]
    )
    return GPConfidencePredictor(num_classes=10, seed=0).fit(mat)


class TestRTDeepIoT:
    def test_k_controls_timeline_length(self, predictor):
        tasks = [view(i) for i in range(5)]
        for k in (1, 2, 3):
            plan = RTDeepIoTPolicy(predictor, k=k).plan(tasks, 0.0)
            assert len(plan) == k

    def test_prefers_low_confidence_task(self, predictor):
        """A task whose confidence is already high gains little from another
        stage; the greedy scheduler should pick the uncertain one."""
        certain = view(0, stages_done=1, confidences=(0.95,))
        uncertain = view(1, stages_done=1, confidences=(0.40,))
        plan = RTDeepIoTPolicy(predictor, k=1).plan([certain, uncertain], 0.0)
        assert plan == [(1, 1)]

    def test_chained_lookahead_advances_frontier(self, predictor):
        """With one task and k=3 the plan must be its consecutive stages."""
        plan = RTDeepIoTPolicy(predictor, k=3).plan([view(0)], 0.0)
        assert plan == [(0, 0), (0, 1), (0, 2)]

    def test_never_plans_beyond_last_stage(self, predictor):
        almost_done = view(0, stages_done=2, confidences=(0.4, 0.5))
        plan = RTDeepIoTPolicy(predictor, k=5).plan([almost_done], 0.0)
        assert plan == [(0, 2)]

    def test_empty_when_all_done(self, predictor):
        done = view(0, stages_done=3, confidences=(0.4, 0.5, 0.6))
        assert RTDeepIoTPolicy(predictor, k=2).plan([done], 0.0) == []

    def test_invalid_k(self, predictor):
        with pytest.raises(ValueError):
            RTDeepIoTPolicy(predictor, k=0)

    def test_name_encodes_variant(self, predictor):
        assert RTDeepIoTPolicy(predictor, k=2).name == "RTDeepIoT-2"
        assert RTDeepIoTPolicy(predictor, k=3, dynamic=False).name == "RTDeepIoT-DC-3"

    def test_dc_variant_uses_observed_slope(self, predictor):
        """DC: a task whose last stage jumped a lot looks (wrongly) promising."""
        flat = view(0, stages_done=2, confidences=(0.50, 0.52))
        steep = view(1, stages_done=2, confidences=(0.30, 0.60))
        plan = RTDeepIoTPolicy(predictor, k=1, dynamic=False).plan([flat, steep], 0.0)
        assert plan == [(1, 2)]


class TestRoundRobin:
    def test_plans_one_stage_per_task(self):
        policy = RoundRobinPolicy()
        tasks = [view(i, stages_done=i % 2, confidences=(0.5,) * (i % 2)) for i in range(4)]
        plan = policy.plan(tasks, 0.0)
        assert sorted(t for t, _ in plan) == [0, 1, 2, 3]
        for tid, stage in plan:
            assert stage == tasks[tid].stages_done

    def test_rotation_between_plans(self):
        policy = RoundRobinPolicy()
        tasks = [view(i) for i in range(3)]
        first = policy.plan(tasks, 0.0)
        second = policy.plan(tasks, 1.0)
        assert first[0] != second[0]

    def test_skips_finished(self):
        done = view(0, stages_done=3, confidences=(0.1, 0.2, 0.3))
        live = view(1)
        assert RoundRobinPolicy().plan([done, live], 0.0) == [(1, 0)]

    def test_rotation_survives_a_shrinking_runnable_set(self):
        # Regression: the old positional cursor (index mod runnable count)
        # skewed the rotation whenever tasks left the runnable set between
        # plans — here it would jump from task 0 straight to task 2,
        # double-serving 2 and starving 1.
        policy = RoundRobinPolicy()
        first = policy.plan([view(0), view(1), view(2)], 0.0)
        assert first[0] == (0, 0)
        second = policy.plan([view(1), view(2)], 1.0)
        assert second[0] == (1, 0)

    def test_rotation_wraps_after_the_highest_id(self):
        policy = RoundRobinPolicy()
        tasks = [view(0), view(1)]
        assert policy.plan(tasks, 0.0)[0] == (0, 0)
        assert policy.plan(tasks, 1.0)[0] == (1, 0)
        assert policy.plan(tasks, 2.0)[0] == (0, 0)  # wraps, no skips

    def test_rotation_continues_when_last_served_departs(self):
        policy = RoundRobinPolicy()
        assert policy.plan([view(0), view(1), view(2)], 0.0)[0] == (0, 0)
        assert policy.plan([view(1), view(2)], 1.0)[0] == (1, 0)
        # Task 1 (the last head) finished too; resume after its id.
        assert policy.plan([view(0, stages_done=1, confidences=(0.5,)), view(2)], 2.0)[
            0
        ] == (2, 0)


class TestFIFO:
    def test_runs_oldest_to_completion(self):
        older = view(0, arrival=0.0)
        newer = view(1, arrival=1.0)
        plan = FIFOPolicy().plan([newer, older], 2.0)
        assert plan == [(0, 0), (0, 1), (0, 2)]

    def test_resumes_partially_done_task(self):
        partial = view(0, stages_done=1, confidences=(0.5,))
        assert FIFOPolicy().plan([partial], 0.0) == [(0, 1), (0, 2)]

    def test_empty(self):
        assert FIFOPolicy().plan([], 0.0) == []
