"""Equivalence oracles for the cheap scheduling hot path.

The scheduler's per-event work reuses what did not change: the scalar
confidence lookup, each task's bids between plans, a sorted capacity
ledger and each record's view.  Every test here pins that reuse to the
from-scratch computation it replaces, bit for bit (``docs/SCHEDULER.md``,
"Planning cost").
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gp import PiecewiseLinear
from repro.scheduler import GPConfidencePredictor, StageBudgetPlanner
from repro.scheduler.gen2 import _CapacityLedger
from repro.scheduler.task import StageOutcome, TaskRecord, TaskView

from .reference_planner import ReferenceLedger, bids_for, reference_plan

STAGES = 3


def _fit_predictor() -> GPConfidencePredictor:
    rng = np.random.default_rng(7)
    final = rng.uniform(0.45, 0.98, 60)
    confidences = np.stack([
        np.clip(final * (0.45 + 0.55 * (s + 1) / STAGES) + rng.normal(0, 0.02, 60), 0.05, 0.995)
        for s in range(STAGES)
    ])
    return GPConfidencePredictor(num_classes=10, max_fit_points=60, seed=0).fit(confidences)


PREDICTOR = _fit_predictor()


def _same_float(a: float, b: float) -> bool:
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


# ---------------------------------------------------------------------------
# Scalar lookup
# ---------------------------------------------------------------------------
EDGES = [0.0, 1.0, -0.0, -1.0, 2.0, -1e-300, 1e-300, np.nextafter(1.0, 2.0),
         np.nextafter(0.0, -1.0), 1e9, -1e9]


class TestScalarLookup:
    @pytest.mark.parametrize("pair", sorted(PREDICTOR._pls))
    def test_fitted_tables_match_interp_bit_for_bit(self, pair):
        table = PREDICTOR._pls[pair]
        rng = np.random.default_rng(list(pair))
        points = np.concatenate([
            rng.uniform(-0.5, 1.5, 20_000), rng.uniform(0.0, 1.0, 20_000),
            table.knots_x, EDGES,
        ])
        for x, expected in zip(points.tolist(), table(points).tolist()):
            assert _same_float(table.at(x), expected), x

    @settings(max_examples=200, deadline=None)
    @given(
        knots=st.lists(
            st.floats(-10, 10, allow_nan=False, allow_subnormal=False),
            min_size=2, max_size=12, unique=True,
        ),
        heights=st.lists(st.floats(-5, 5, allow_nan=False), min_size=12, max_size=12),
        points=st.lists(st.floats(-20, 20, allow_nan=False), max_size=30),
    )
    def test_random_tables_match_interp_bit_for_bit(self, knots, heights, points):
        xs = np.sort(np.array(knots))
        table = PiecewiseLinear(xs, np.array(heights[: len(xs)]))
        queries = np.array(points + EDGES + xs.tolist())
        for x, expected in zip(queries.tolist(), table(queries).tolist()):
            assert _same_float(table.at(x), expected), x

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64("nan")])
    def test_predict_rejects_a_non_finite_observation(self, bad):
        with pytest.raises(ValueError, match="finite"):
            PREDICTOR.predict(0, bad, 1)

    def test_predict_is_the_clipped_table_value(self):
        for x in np.linspace(-0.2, 1.2, 57).tolist():
            for a, b in sorted(PREDICTOR._pls):
                expected = float(np.clip(PREDICTOR._pls[(a, b)](x), 0.0, 1.0))
                assert _same_float(PREDICTOR.predict(a, x, b), expected)


# ---------------------------------------------------------------------------
# Capacity ledger and planner vs the from-scratch reference
# ---------------------------------------------------------------------------
# A coarse deadline grid makes equal deadlines (the ledger's merge path)
# common; the fine floats make near-equal ones (within the ledger's 1e-9).
deadlines = st.one_of(
    st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 9.0]),
    st.floats(-1.0, 15.0, allow_nan=False),
    st.sampled_from([2.0 + 1e-10, 2.0 - 1e-10, 3.0 + 5e-10]),
)


@settings(max_examples=200, deadline=None)
@given(
    workers=st.integers(1, 4),
    now=st.floats(0.0, 3.0, allow_nan=False),
    adds=st.lists(
        st.tuples(deadlines, st.sampled_from([0.1, 0.25, 0.5, 1.0, 1.3, 2.0])),
        max_size=40,
    ),
    copy_at=st.integers(0, 40),
)
def test_ledger_verdicts_match_the_resorting_ledger(workers, now, adds, copy_at):
    ledger = _CapacityLedger(workers, now)
    reference = ReferenceLedger(workers, now)
    for i, (deadline, cost) in enumerate(adds):
        if i == copy_at:
            # A copy carries the funded set and is independent of it.
            ledger = ledger.copy()
        assert ledger.try_add(deadline, cost) == reference.try_add(deadline, cost)
        # The kept prefix sums are the from-scratch left-to-right sums,
        # to the bit, so no later verdict can drift by a rounding.
        ordered = sorted(reference.alloc)
        assert ledger._deadlines == ordered
        assert ledger._costs == [reference.alloc[d] for d in ordered]
        assert ledger._sums == list(itertools.accumulate(ledger._costs))


def _views(draw, task_ids, num_stages_max=STAGES):
    views = []
    for tid in task_ids:
        num_stages = draw(st.integers(1, num_stages_max))
        done = draw(st.integers(0, num_stages))
        confs = sorted(draw(st.lists(
            st.floats(0.0, 1.0, allow_nan=False), min_size=done, max_size=done)))
        views.append(TaskView(
            task_id=tid, arrival_time=0.0, deadline=draw(deadlines),
            num_stages=num_stages, stages_done=done, confidences=tuple(confs),
        ))
    return views


def _assert_same_plan(plan, expected):
    assert plan.budgets == expected.budgets
    assert list(plan.order) == list(expected.order)
    assert (plan.demanded, plan.funded) == (expected.demanded, expected.funded)


def _changed(draw, view: TaskView) -> TaskView:
    """The same task after one change the planner must notice."""
    kind = draw(st.sampled_from(["stage", "cap", "confidence", "deadline"]))
    if kind == "stage" and view.stages_done < view.num_stages:
        low = view.latest_confidence or 0.0
        conf = draw(st.floats(low, 1.0, allow_nan=False))
        return dataclasses.replace(
            view, stages_done=view.stages_done + 1, confidences=view.confidences + (conf,))
    if kind == "cap" and view.num_stages > max(1, view.stages_done):
        return dataclasses.replace(view, num_stages=view.num_stages - 1)
    if kind == "confidence" and view.stages_done:
        conf = draw(st.floats(0.0, 1.0, allow_nan=False))
        return dataclasses.replace(view, confidences=view.confidences[:-1] + (conf,))
    return dataclasses.replace(view, deadline=draw(deadlines))


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    predictor=st.sampled_from([PREDICTOR, None]),
    workers=st.integers(1, 4),
    stage_time=st.sampled_from([0.3, 0.5, 1.0, 1.7]),
    mandatory=st.integers(1, 3),
)
def test_planner_equals_the_from_scratch_planner(
    data, predictor, workers, stage_time, mandatory
):
    """One planner across a run of plans (so reused bids are exercised)
    against a from-scratch plan of each step's views."""
    planner = StageBudgetPlanner(
        predictor=predictor, num_workers=workers, stage_time_s=stage_time,
        mandatory_stages=mandatory,
    )
    views = {v.task_id: v for v in _views(data.draw, range(data.draw(st.integers(0, 12))))}
    now = data.draw(st.floats(0.0, 2.0, allow_nan=False))
    for _ in range(data.draw(st.integers(1, 6))):
        present = [v for v in views.values() if data.draw(st.integers(0, 3))]
        _assert_same_plan(
            planner.plan_budgets(present, now),
            reference_plan(predictor, present, now, workers, stage_time, mandatory),
        )
        # The kept bids are this step's from-scratch bids, for this
        # step's tasks only.
        for view in present:
            fresh = bids_for(predictor, view, now, stage_time, mandatory)
            if fresh:
                assert planner._bids[view.task_id][1][: len(fresh)] == fresh
        assert set(planner._bids) <= {v.task_id for v in present}
        # Between plans some tasks change, the rest stay put.
        for tid in data.draw(st.lists(st.sampled_from(sorted(views)), unique=True)) if views else []:
            views[tid] = _changed(data.draw, views[tid])
        now += data.draw(st.sampled_from([0.0, 0.0, 0.25, 1.0]))


# ---------------------------------------------------------------------------
# Views and bids are rebuilt exactly when the record changes
# ---------------------------------------------------------------------------
class TestRebuiltOnChange:
    def record(self):
        return TaskRecord(task_id=4, arrival_time=0.0, deadline=20.0, num_stages=STAGES)

    def test_view_is_reused_until_the_record_changes(self):
        record = self.record()
        first = record.view()
        assert record.view() is first
        record.outcomes.append(StageOutcome(stage=0, prediction=1, confidence=0.5))
        after_stage = record.view()
        assert after_stage is not first
        assert (after_stage.stages_done, after_stage.confidences) == (1, (0.5,))
        assert record.view() is after_stage
        record.stage_cap = 2
        capped = record.view()
        assert capped is not after_stage and capped.num_stages == 2
        record.stage_cap = 3  # tightening-only: no change, no rebuild
        assert record.view() is capped

    def test_curve_follows_a_completed_stage_and_a_tightened_cap(self):
        planner = StageBudgetPlanner(predictor=PREDICTOR, num_workers=2, stage_time_s=1.0)
        record = self.record()

        def plan_and_bids():
            view = record.view()
            plan = planner.plan_budgets([view], 0.0)
            _assert_same_plan(plan, reference_plan(PREDICTOR, [view], 0.0, 2, 1.0))
            return planner._bids[record.task_id][1]

        fresh = plan_and_bids()
        assert plan_and_bids() is fresh  # nothing changed: bids reused
        assert [b.stage for b in fresh] == [0, 1, 2]
        record.outcomes.append(StageOutcome(stage=0, prediction=1, confidence=0.6))
        after_stage = plan_and_bids()
        assert [b.stage for b in after_stage] == [1, 2]
        assert after_stage[0].gain != fresh[1].gain
        record.stage_cap = 2
        capped = plan_and_bids()
        assert capped is not after_stage
        assert [b.stage for b in capped] == [1]

    def test_a_task_that_leaves_the_views_leaves_the_cache(self):
        planner = StageBudgetPlanner(predictor=PREDICTOR, num_workers=2, stage_time_s=1.0)
        a, b = self.record(), TaskRecord(task_id=5, arrival_time=0.0, deadline=9.0, num_stages=STAGES)
        planner.plan_budgets([a.view(), b.view()], 0.0)
        assert set(planner._bids) == {4, 5}
        planner.plan_budgets([b.view()], 0.0)
        assert set(planner._bids) == {5}
        planner.plan_budgets([], 0.0)
        assert planner._bids == {}
