"""From-scratch gen-2 planner: the reference the cached planner must equal.

Every ``plan_budgets`` here re-derives everything: each task's confidence
curve and bids on every call, and a capacity ledger that copies and
re-sorts its whole funded set on every ``try_add``.  It is the planner as
it was before :class:`~repro.scheduler.gen2.StageBudgetPlanner` learned to
reuse bids across plans and to keep its ledger sorted, and lives only in
``tests/``.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Sequence, Tuple

from repro.admission.shedding import reachable_stage
from repro.scheduler.gen2 import BudgetPlan, StageBid
from repro.scheduler.task import TaskView

_EPS = 1e-9


class ReferenceLedger:
    def __init__(self, num_workers: int, now: float) -> None:
        self.num_workers = num_workers
        self.now = now
        self.alloc: Dict[float, float] = {}

    def try_add(self, deadline: float, cost: float) -> bool:
        if deadline <= self.now + _EPS:
            return False
        tentative = dict(self.alloc)
        tentative[deadline] = tentative.get(deadline, 0.0) + cost
        cum = 0.0
        for d in sorted(tentative):
            cum += tentative[d]
            if d + _EPS >= deadline and cum > self.num_workers * (d - self.now) + _EPS:
                return False
        self.alloc = tentative
        return True


def confidence_curve(predictor, view: TaskView) -> List[float]:
    if predictor is None:
        held = view.latest_confidence or 0.0
        return [
            max(held, (s + 1) / view.num_stages)
            for s in range(view.stages_done, view.num_stages)
        ]
    if view.stages_done == 0:
        prev = predictor.baseline()
        estimate = predictor.prior
    else:
        prev = view.latest_confidence

        def estimate(s):
            return predictor.predict(view.stages_done - 1, view.latest_confidence, s)
    curve = []
    for s in range(view.stages_done, view.num_stages):
        prev = max(prev, float(estimate(s)))
        curve.append(prev)
    return curve


def bids_for(predictor, view, now, stage_time_s, mandatory_stages) -> List[StageBid]:
    feasible_count = reachable_stage(view, now, stage_time_s) + 1
    if feasible_count <= view.stages_done:
        return []
    curve = confidence_curve(predictor, view)
    if view.stages_done:
        prev = view.latest_confidence or 0.0
    else:
        prev = (predictor.baseline() if predictor else 0.0) or 0.0
    bids = []
    for i, stage in enumerate(range(view.stages_done, min(feasible_count, view.num_stages))):
        bids.append(StageBid(
            task_id=view.task_id, stage=stage, gain=max(0.0, curve[i] - prev),
            cost=stage_time_s, deadline=view.deadline,
            mandatory=stage < mandatory_stages,
        ))
        prev = curve[i]
    return bids


def reference_plan(
    predictor,
    views: Sequence[TaskView],
    now: float,
    num_workers: int,
    stage_time_s: float,
    mandatory_stages: int = 1,
) -> BudgetPlan:
    runnable = [v for v in views if v.next_stage is not None]
    budgets = {v.task_id: v.stages_done for v in runnable}
    if not runnable:
        return BudgetPlan(budgets=budgets, order=[])
    per_task = {
        v.task_id: bids_for(predictor, v, now, stage_time_s, mandatory_stages)
        for v in runnable
    }
    demanded = sum(v.num_stages - v.stages_done for v in runnable)
    ledger = ReferenceLedger(num_workers, now)
    order: List[Tuple[int, int]] = []
    funded = 0
    for view in sorted(runnable, key=lambda v: (v.deadline, v.task_id)):
        prefix = [b for b in per_task[view.task_id] if b.mandatory]
        if not prefix:
            continue
        trial = ReferenceLedger(num_workers, now)
        trial.alloc = dict(ledger.alloc)
        if all(trial.try_add(b.deadline, b.cost) for b in prefix):
            ledger.alloc = trial.alloc
            order.extend((b.task_id, b.stage) for b in prefix)
            budgets[view.task_id] = max(budgets[view.task_id], prefix[-1].stage + 1)
            funded += len(prefix)
    frontier: Dict[int, int] = {}
    heap: List[Tuple[float, int, int]] = []
    for tid, bids in per_task.items():
        idx = max(0, budgets[tid] - (bids[0].stage if bids else 0))
        frontier[tid] = idx
        if idx < len(bids):
            heapq.heappush(heap, (-bids[idx].density, tid, idx))
    while heap:
        _, tid, idx = heapq.heappop(heap)
        if frontier[tid] != idx:
            continue
        bid = per_task[tid][idx]
        if ledger.try_add(bid.deadline, bid.cost):
            order.append((bid.task_id, bid.stage))
            budgets[tid] = bid.stage + 1
            funded += 1
            frontier[tid] = idx + 1
            if idx + 1 < len(per_task[tid]):
                heapq.heappush(heap, (-per_task[tid][idx + 1].density, tid, idx + 1))
    return BudgetPlan(budgets=budgets, order=order, demanded=demanded, funded=funded)
