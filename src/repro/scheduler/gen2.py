"""Gen-2 imprecise-computation scheduling.

The authors' follow-up paper ("Scheduling Real-time Deep Learning Services
as Imprecise Computations") recasts a staged model as an *imprecise
computation*: a **mandatory prefix** every task must receive, plus
**optional refinement** stages whose utility is a function of both the
deadline and how many stages completed.  The first-generation scheduler in
:mod:`repro.scheduler.policies` plans one stage at a time by confidence
gain; this module plans **per-task stage budgets jointly across the whole
runnable queue**:

- :class:`StageBudgetPlanner` allocates worker capacity to stages by
  *marginal expected utility per unit cost*, reusing the fitted
  :class:`~repro.scheduler.confidence.ConfidencePredictor` and discounting
  by deadline feasibility (a stage that cannot finish before its task's
  deadline is never funded);
- :class:`Gen2Policy` wraps the planner as a drop-in
  :class:`~repro.scheduler.policies.SchedulingPolicy`: every ``plan()``
  re-plans the joint allocation (the runtime/simulator call it on every
  arrival and completion) and publishes the budgets in ``last_budgets``;
- :func:`apply_stage_budgets` turns a fresh plan into **preemption of
  optional stages**: an in-progress task whose remaining optional stages
  lost the capacity auction has its ``stage_cap`` tightened (the cap is
  tightening-only, enforced by :class:`~repro.scheduler.task.TaskRecord`) —
  the mandatory prefix and already-executed stages are never revoked;
- :func:`replan` is the one re-planning pass both serving loops call:
  ``plan()``, then the budgets as caps, then completion of every task
  revoked down to what it already ran.

Together with the anytime contract (``SimulationConfig.anytime`` /
``RuntimeConfig.anytime`` / ``InferRequest.anytime``: respond best-so-far
at the deadline, never late) this is the DeepRT-style serving tier that
holds SLOs under 2-3x overload — gated by ``make anytime``.  Full design
notes: ``docs/SCHEDULER.md``.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..admission.shedding import reachable_stage
from .confidence import ConfidencePredictor
from .policies import PlanItem, SchedulingPolicy
from .task import TaskRecord, TaskView, finish

_EPS = 1e-9


@dataclass(frozen=True)
class StageBid:
    """One candidate stage in the capacity auction."""

    task_id: int
    stage: int
    #: marginal expected utility of running this stage (predicted confidence
    #: after it minus predicted confidence before it; never negative).
    gain: float
    #: execution-time estimate of the stage, seconds.
    cost: float
    deadline: float
    #: part of the task's mandatory prefix (funded before any optional bid).
    mandatory: bool

    @property
    def density(self) -> float:
        """Marginal expected utility per unit cost — the auction's key."""
        return self.gain / max(self.cost, _EPS)


@dataclass
class BudgetPlan:
    """Outcome of one joint planning pass."""

    #: task id -> total stages the task is entitled to (executed + funded).
    budgets: Dict[int, int]
    #: funded stages in execution order (mandatory EDF prefix first, then
    #: optional stages by descending marginal utility per cost).
    order: List[PlanItem]
    #: stages demanded vs. funded — equal when the pool is uncontended.
    demanded: int = 0
    funded: int = 0

    @property
    def contended(self) -> bool:
        return self.funded < self.demanded


class _CapacityLedger:
    """Feasibility bookkeeping for the auction.

    A funded stage due by deadline ``d`` consumes worker time that must fit
    before ``d``: for every deadline in the funded set, the cumulative cost
    of stages due by then must not exceed ``num_workers * (deadline - now)``
    (the EDF-schedulability condition the planner enforces greedily).

    The funded deadlines are kept sorted, with each one's funded cost and
    the running (prefix) sum of costs up to it.  Adding cost at ``d`` only
    changes the sums from ``d`` on, so only that tail is re-summed, in the
    same left-to-right order as a from-scratch sum over the sorted set:
    the floats, and so every verdict, are the same.
    """

    def __init__(self, num_workers: int, now: float) -> None:
        self.num_workers = num_workers
        self.now = now
        self._deadlines: List[float] = []
        self._costs: List[float] = []  # funded cost per deadline
        self._sums: List[float] = []  # prefix sums of _costs

    def copy(self) -> "_CapacityLedger":
        other = _CapacityLedger(self.num_workers, self.now)
        other._deadlines = self._deadlines[:]
        other._costs = self._costs[:]
        other._sums = self._sums[:]
        return other

    def try_add(self, deadline: float, cost: float) -> bool:
        """Fund one stage due by ``deadline`` if it keeps the set feasible."""
        now = self.now
        if deadline <= now + _EPS:
            return False
        deadlines, costs = self._deadlines, self._costs
        i = bisect_left(deadlines, deadline)
        merge = i < len(deadlines) and deadlines[i] == deadline
        new_cost = (costs[i] if merge else 0.0) + cost
        cum = (self._sums[i - 1] if i else 0.0) + new_cost
        # Adding cost at `deadline` only raises cumulative load at
        # deadlines >= it; earlier ones hold what they held when they
        # were last checked, so they cannot newly violate.
        workers = self.num_workers
        if cum > workers * (deadline - now) + _EPS:
            return False
        tail = [cum]
        for j in range(i + 1 if merge else i, len(deadlines)):
            cum += costs[j]
            if cum > workers * (deadlines[j] - now) + _EPS:
                return False
            tail.append(cum)
        if merge:
            costs[i] = new_cost
        else:
            deadlines.insert(i, deadline)
            costs.insert(i, new_cost)
        self._sums[i:] = tail
        return True


@dataclass
class StageBudgetPlanner:
    """Jointly assigns per-task stage budgets across the runnable queue.

    Two-pass greedy auction over a worker-time ledger:

    1. **Mandatory pass** — each task's mandatory prefix (first
       ``mandatory_stages`` stages), earliest deadline first.  A prefix
       that cannot finish before its deadline is not funded (the capacity
       would be wasted; the task serves whatever it already holds under
       the anytime contract).
    2. **Optional pass** — remaining stages compete by marginal expected
       utility per unit cost, highest density first; a task's stage ``s+1``
       only becomes biddable once its stage ``s`` was funded (stages are
       sequential), and every funded stage must keep the whole set
       deadline-feasible.
    """

    predictor: Optional[ConfidencePredictor]
    num_workers: int = 2
    #: per-stage execution-time estimate, seconds (the auction's cost unit).
    stage_time_s: float = 1.0
    #: stages every task must receive before any optional stage is funded
    #: anywhere — the imprecise-computation mandatory prefix.
    mandatory_stages: int = 1

    def __post_init__(self) -> None:
        if self.num_workers < 1:
            raise ValueError("need at least one worker")
        if self.stage_time_s <= 0:
            raise ValueError("stage_time_s must be positive")
        if self.mandatory_stages < 1:
            raise ValueError("mandatory prefix needs at least one stage")
        #: task id -> (stages done, stage count, latest confidence,
        #: deadline) and the bids built from them, for the last plan's tasks.
        self._bids: Dict[int, tuple] = {}

    # ------------------------------------------------------------------
    def _confidence_curve(self, view: TaskView) -> List[float]:
        """Predicted confidence after each not-yet-run stage.

        Monotone envelope over the predictor's point estimates, so marginal
        gains are never negative (utility is non-decreasing in stages — the
        imprecise-computation axiom).
        """
        if self.predictor is None:
            held = view.latest_confidence or 0.0
            return [
                max(held, (s + 1) / view.num_stages)
                for s in range(view.stages_done, view.num_stages)
            ]
        if view.stages_done == 0:
            held = self.predictor.baseline()
            estimate = lambda s: self.predictor.prior(s)  # noqa: E731
        else:
            held = view.latest_confidence
            observed = view.stages_done - 1
            estimate = lambda s: self.predictor.predict(  # noqa: E731
                observed, view.latest_confidence, s
            )
        curve: List[float] = []
        prev = held
        for s in range(view.stages_done, view.num_stages):
            prev = max(prev, float(estimate(s)))
            curve.append(prev)
        return curve

    def _stage_bids(self, view: TaskView) -> List[StageBid]:
        """Bids for every not-yet-run stage of one task, in stage order."""
        curve = self._confidence_curve(view)
        held = (
            view.latest_confidence
            if view.stages_done
            else (self.predictor.baseline() if self.predictor else 0.0)
        )
        bids: List[StageBid] = []
        prev = held or 0.0
        for i, stage in enumerate(range(view.stages_done, view.num_stages)):
            gain = max(0.0, curve[i] - prev)
            prev = curve[i]
            bids.append(
                StageBid(
                    task_id=view.task_id,
                    stage=stage,
                    gain=gain,
                    cost=self.stage_time_s,
                    deadline=view.deadline,
                    mandatory=stage < self.mandatory_stages,
                )
            )
        return bids

    def _bids_for(
        self, view: TaskView, now: float, kept: Dict[int, tuple]
    ) -> List[StageBid]:
        """Feasible stage bids for one task, in stage order.

        A task's bids depend on ``now`` only through how many of them are
        feasible, so the full list is reused from the previous plan while
        the task's inputs to it are unchanged, and recorded in ``kept``.
        """
        feasible_count = reachable_stage(view, now, self.stage_time_s) + 1
        if feasible_count <= view.stages_done:
            return []
        key = (view.stages_done, view.num_stages, view.latest_confidence, view.deadline)
        entry = self._bids.get(view.task_id)
        if entry is None or entry[0] != key:
            entry = (key, self._stage_bids(view))
        kept[view.task_id] = entry
        return entry[1][: feasible_count - view.stages_done]

    def plan_budgets(self, views: Sequence[TaskView], now: float) -> BudgetPlan:
        runnable = [v for v in views if v.next_stage is not None]
        # Executed stages are owned unconditionally — a budget can never
        # fall below what already ran.
        budgets: Dict[int, int] = {v.task_id: v.stages_done for v in runnable}
        kept: Dict[int, tuple] = {}
        per_task: Dict[int, List[StageBid]] = {
            v.task_id: self._bids_for(v, now, kept) for v in runnable
        }
        # Only this plan's tasks stay: the reuse is bounded by the views.
        self._bids = kept
        if not runnable:
            return BudgetPlan(budgets=budgets, order=[])
        demanded = sum(
            v.num_stages - v.stages_done for v in runnable
        )
        ledger = _CapacityLedger(self.num_workers, now)
        mandatory_order: List[PlanItem] = []
        optional_order: List[PlanItem] = []
        funded = 0

        # Pass 1: mandatory prefixes, earliest deadline first.  All of a
        # task's mandatory stages are funded atomically — a half-funded
        # prefix delivers nothing the task does not already hold.
        for view in sorted(runnable, key=lambda v: (v.deadline, v.task_id)):
            prefix = [b for b in per_task[view.task_id] if b.mandatory]
            if not prefix:
                continue
            trial = ledger.copy()
            if all(trial.try_add(b.deadline, b.cost) for b in prefix):
                ledger = trial
                for b in prefix:
                    mandatory_order.append((b.task_id, b.stage))
                budgets[view.task_id] = max(
                    budgets[view.task_id], prefix[-1].stage + 1
                )
                funded += len(prefix)

        # Pass 2: optional stages by marginal utility per unit cost.  Only
        # the next unfunded stage of each task is biddable; funding it
        # unlocks the one after (stages are sequential).
        frontier: Dict[int, int] = {}
        heap: List[Tuple[float, int, int]] = []  # (-density, task_id, idx)
        for tid, bids in per_task.items():
            idx = budgets[tid] - (bids[0].stage if bids else 0)
            idx = max(0, idx)
            frontier[tid] = idx
            if idx < len(bids):
                heapq.heappush(heap, (-bids[idx].density, tid, idx))
        while heap:
            neg_density, tid, idx = heapq.heappop(heap)
            if frontier[tid] != idx:
                continue  # stale entry from an earlier frontier
            bid = per_task[tid][idx]
            if ledger.try_add(bid.deadline, bid.cost):
                optional_order.append((bid.task_id, bid.stage))
                budgets[tid] = bid.stage + 1
                funded += 1
                frontier[tid] = idx + 1
                if idx + 1 < len(per_task[tid]):
                    nxt = per_task[tid][idx + 1]
                    heapq.heappush(heap, (-nxt.density, tid, idx + 1))
            # An infeasible bid is dropped and never unlocks later stages
            # of its task (they would be even less feasible).
        return BudgetPlan(
            budgets=budgets,
            order=mandatory_order + optional_order,
            demanded=demanded,
            funded=funded,
        )


@dataclass
class Gen2Policy(SchedulingPolicy):
    """Imprecise-computation scheduler: joint budgets + optional preemption.

    A drop-in :class:`SchedulingPolicy` whose every ``plan()`` call runs the
    joint budget auction and publishes the result in ``last_budgets``; the
    simulator and runtime apply those budgets as tightening-only stage caps
    (see :func:`apply_stage_budgets`), which is how a newly arrived
    higher-marginal-utility task preempts an in-progress task's remaining
    *optional* stages — never its mandatory prefix, never stages already
    executed.
    """

    predictor: Optional[ConfidencePredictor]
    num_workers: int = 2
    stage_time_s: float = 1.0
    mandatory_stages: int = 1
    #: publish budgets for preemption; False plans budgets for ordering
    #: only (no caps are applied — an ablation knob).
    preempt: bool = True
    name: str = field(default="gen2", init=False)
    last_plan: Optional[BudgetPlan] = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        self._planner = StageBudgetPlanner(
            predictor=self.predictor,
            num_workers=self.num_workers,
            stage_time_s=self.stage_time_s,
            mandatory_stages=self.mandatory_stages,
        )
        self.plans_stage_budgets = bool(self.preempt)
        self.last_budgets = None

    def plan(self, tasks: Sequence[TaskView], now: float) -> List[PlanItem]:
        plan = self._planner.plan_budgets(tasks, now)
        self.last_plan = plan
        self.last_budgets = dict(plan.budgets) if self.preempt else None
        return list(plan.order)


def apply_stage_budgets(
    policy: SchedulingPolicy,
    records: Dict[int, TaskRecord],
    now: float,
    tel=None,
    scope: str = "scheduler",
    contended: bool = True,
) -> List[int]:
    """Turn a policy's freshly planned budgets into stage-cap preemptions.

    For every live task whose fresh budget is *below* its current stage
    entitlement, the ``stage_cap`` is tightened to the budget — revoking
    the remaining optional stages.  Floors guarantee the mandatory
    invariants: a cap never drops below one stage nor below what already
    executed.  Returns the preempted task ids.  Policies that do not plan
    budgets (``plans_stage_budgets`` unset) are a no-op, so calling this
    unconditionally after ``plan()`` is free for gen-1 policies.

    ``contended`` must reflect whether any task is *waiting* for an
    admission slot.  Revoking optional stages pays only through slot
    turnover — retiring a capped task admits a queued one.  With nobody
    waiting, a cap would be pure loss (the cap is tightening-only, so a
    transient plan deficit would permanently forfeit refinement a later
    lull could have funded) — so budgets plan the dispatch *order* but
    are not applied as caps.
    """
    if not getattr(policy, "plans_stage_budgets", False):
        return []
    if not contended:
        return []
    budgets = getattr(policy, "last_budgets", None) or {}
    preempted: List[int] = []
    for tid, budget in budgets.items():
        record = records.get(tid)
        if record is None or record.done:
            continue
        floor = max(1, record.stages_done)
        budget = max(int(budget), floor)
        if budget >= record.effective_stages:
            continue  # nothing to revoke (or would loosen — disallowed)
        record.stage_cap = budget
        preempted.append(tid)
        if tel is not None:
            tel.registry.counter(f"{scope}.stages_preempted").inc()
            tel.trace.degrade_cap(now, tid, stage_cap=budget)
    return preempted


def replan(
    policy: SchedulingPolicy,
    records: Dict[int, TaskRecord],
    views: Sequence[TaskView],
    now: float,
    tel,
    scope: str,
    contended: Optional[bool] = None,
) -> Tuple[List[PlanItem], List[int]]:
    """The re-planning pass the simulator and the runtime share.

    ``plan()`` over the live ``views``, the fresh budgets as stage caps
    (:func:`apply_stage_budgets`), then :func:`~repro.scheduler.task.finish`
    for every task revoked down to what it already ran.  Returns the
    timeline and the ids so finished.  ``contended`` differs by caller on
    purpose: the simulator passes whether its ingress queue is non-empty;
    ``None`` (the runtime, which has no queue) reads the plan's own
    capacity deficit after ``plan()``.
    """
    order = policy.plan(views, now)
    if contended is None:
        last_plan = getattr(policy, "last_plan", None)
        contended = bool(getattr(last_plan, "contended", True))
    finished: List[int] = []
    for tid in apply_stage_budgets(policy, records, now, tel, scope, contended):
        if records[tid].complete:
            finish(records[tid], now, tel, scope)
            finished.append(tid)
    return order, finished
