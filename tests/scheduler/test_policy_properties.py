"""Property-based invariants every scheduling policy must satisfy."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scheduler import (
    ConstantSlopePredictor,
    FIFOPolicy,
    GPConfidencePredictor,
    RoundRobinPolicy,
    RTDeepIoTPolicy,
    TaskView,
)


def _fit_predictors():
    rng = np.random.default_rng(0)
    base = rng.uniform(0.2, 0.8, 200)
    mat = np.stack([base, np.clip(base + 0.15, 0, 1), np.clip(base + 0.25, 0, 1)])
    gp = GPConfidencePredictor(num_classes=10, seed=0).fit(mat)
    dc = ConstantSlopePredictor(num_classes=10).fit(mat)
    return gp, dc


GP_PREDICTOR, DC_PREDICTOR = _fit_predictors()


def random_views(rng, n):
    views = []
    for tid in range(n):
        stages_done = int(rng.integers(0, 4))
        confs = tuple(
            float(c) for c in np.sort(rng.uniform(0.1, 1.0, stages_done))
        )
        views.append(
            TaskView(
                task_id=tid,
                arrival_time=float(rng.uniform(0, 5)),
                deadline=float(rng.uniform(6, 20)),
                num_stages=3,
                stages_done=stages_done,
                confidences=confs,
            )
        )
    return views


def policy_instances():
    return [
        RTDeepIoTPolicy(GP_PREDICTOR, k=1),
        RTDeepIoTPolicy(GP_PREDICTOR, k=3),
        RTDeepIoTPolicy(GP_PREDICTOR, k=2, dynamic=False),
        RoundRobinPolicy(),
        FIFOPolicy(),
    ]


@given(seed=st.integers(0, 5000), n=st.integers(0, 12))
@settings(max_examples=50, deadline=None)
def test_plans_are_valid_work(seed, n):
    """Every planned item must be executable: an unfinished task, stages in
    range, per-task stages consecutive starting at the task's frontier, and
    no duplicate (task, stage) pairs."""
    rng = np.random.default_rng(seed)
    views = random_views(rng, n)
    by_id = {v.task_id: v for v in views}
    for policy in policy_instances():
        plan = policy.plan(views, now=0.0)
        assert len(set(plan)) == len(plan), policy.name
        next_expected = {}
        for tid, stage in plan:
            view = by_id[tid]
            assert view.stages_done < view.num_stages, policy.name
            expected = next_expected.get(tid, view.stages_done)
            assert stage == expected, policy.name
            assert 0 <= stage < view.num_stages
            next_expected[tid] = stage + 1


@given(seed=st.integers(0, 5000))
@settings(max_examples=30, deadline=None)
def test_lookahead_never_exceeds_k(seed):
    rng = np.random.default_rng(seed)
    views = random_views(rng, 8)
    for k in (1, 2, 5):
        plan = RTDeepIoTPolicy(GP_PREDICTOR, k=k).plan(views, 0.0)
        assert len(plan) <= k


@given(seed=st.integers(0, 5000))
@settings(max_examples=30, deadline=None)
def test_empty_or_finished_views_produce_empty_plans(seed):
    rng = np.random.default_rng(seed)
    finished = [
        TaskView(task_id=i, arrival_time=0.0, deadline=10.0, num_stages=3,
                 stages_done=3, confidences=(0.3, 0.5, 0.7))
        for i in range(int(rng.integers(0, 4)))
    ]
    for policy in policy_instances():
        assert policy.plan([], 0.0) == []
        assert policy.plan(finished, 0.0) == []
