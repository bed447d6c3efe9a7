"""Scheduling policies: RTDeepIoT-k greedy, the DC variant, RR and FIFO.

A policy plans a short *timeline* of (task, stage) work items.  The greedy
algorithm of Section III: "starts from an empty set.  In each step, the
algorithm picks a stage of a task with the maximum differential utility
(where utility ... is set equal to the estimated confidence in results).
This selected stage is added to the future timeline.  A lookahead parameter
k specifies how many items will be added to the timeline before the
scheduler quits.  When the timeline has been executed, the algorithm
restarts again with the most recent utility estimates."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .confidence import ConfidencePredictor
from .task import TaskView

PlanItem = Tuple[int, int]  # (task_id, stage index)


class SchedulingPolicy:
    """Interface: produce the next timeline of work items."""

    name: str = "base"
    #: gen-2 protocol (:mod:`repro.scheduler.gen2`): a policy that jointly
    #: plans per-task stage budgets sets this True and publishes its latest
    #: allocation in ``last_budgets`` after every ``plan()`` call; the
    #: simulator/runtime then apply those budgets as tightening-only stage
    #: caps (preemption of optional stages).  Gen-1 policies leave both
    #: untouched and are entirely unaffected.
    plans_stage_budgets: bool = False
    last_budgets: Optional[Dict[int, int]] = None

    def plan(self, tasks: Sequence[TaskView], now: float) -> List[PlanItem]:
        raise NotImplementedError  # pragma: no cover

    @staticmethod
    def _runnable(tasks: Sequence[TaskView]) -> List[TaskView]:
        return [t for t in tasks if t.next_stage is not None]


@dataclass
class RTDeepIoTPolicy(SchedulingPolicy):
    """Greedy utility-maximizing scheduler with lookahead ``k``.

    ``dynamic=True`` (default) predicts future confidence with the fitted
    GP-based (or any) :class:`ConfidencePredictor`; ``dynamic=False`` gives
    the RTDeepIoT-DC-k variant: constant-slope extrapolation of the increase
    observed in the task's most recent stage.
    """

    predictor: ConfidencePredictor
    k: int = 1
    dynamic: bool = True

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("lookahead k must be >= 1")
        self.name = f"RTDeepIoT-{'' if self.dynamic else 'DC-'}{self.k}"

    # -- per-task utility bookkeeping ----------------------------------
    def _anchor(self, view: TaskView) -> Tuple[Optional[int], float, float]:
        """(observed_stage, observed_conf, slope) of a task's latest state."""
        if view.stages_done == 0:
            return None, self.predictor.baseline(), 0.0
        observed_stage = view.stages_done - 1
        observed_conf = view.confidences[-1]
        if view.stages_done >= 2:
            slope = view.confidences[-1] - view.confidences[-2]
        else:
            slope = observed_conf - self.predictor.baseline()
        return observed_stage, observed_conf, slope

    def _predicted_conf(
        self,
        view: TaskView,
        target_stage: int,
        anchor: Tuple[Optional[int], float, float],
    ) -> float:
        observed_stage, observed_conf, slope = anchor
        if observed_stage is None:
            if self.dynamic:
                return self.predictor.prior(target_stage)
            # DC cold start: same prior statistics.
            return self.predictor.prior(target_stage)
        if self.dynamic:
            return self.predictor.predict(observed_stage, observed_conf, target_stage)
        steps = target_stage - observed_stage
        return float(np.clip(observed_conf + slope * steps, 0.0, 1.0))

    def plan(self, tasks: Sequence[TaskView], now: float) -> List[PlanItem]:
        runnable = self._runnable(tasks)
        if not runnable:
            return []
        # Simulated per-task state during timeline construction:
        # (next stage to schedule, predicted confidence at current frontier).
        anchors = {t.task_id: self._anchor(t) for t in runnable}
        frontier: Dict[int, int] = {t.task_id: t.stages_done for t in runnable}
        current_conf: Dict[int, float] = {}
        for t in runnable:
            _, observed_conf, _ = anchors[t.task_id]
            current_conf[t.task_id] = observed_conf
        views = {t.task_id: t for t in runnable}

        timeline: List[PlanItem] = []
        for _ in range(self.k):
            best: Optional[Tuple[float, int]] = None
            for t in runnable:
                tid = t.task_id
                stage = frontier[tid]
                if stage >= t.num_stages:
                    continue
                predicted = self._predicted_conf(views[tid], stage, anchors[tid])
                gain = predicted - current_conf[tid]
                if best is None or gain > best[0]:
                    best = (gain, tid)
            if best is None:
                break
            _, tid = best
            stage = frontier[tid]
            predicted = self._predicted_conf(views[tid], stage, anchors[tid])
            timeline.append((tid, stage))
            frontier[tid] = stage + 1
            current_conf[tid] = predicted
        return timeline


@dataclass
class RoundRobinPolicy(SchedulingPolicy):
    """Stage-level round robin: one stage per in-flight task, rotating.

    "The scheduler will select a stage to run among all the deep learning
    services in a round-robin manner."
    """

    name: str = field(default="RR", init=False)
    #: task id served at the head of the previous plan; the next plan
    #: starts with the first runnable id *after* it.  A free-running index
    #: taken modulo the runnable count skews the rotation whenever the
    #: runnable set shrinks between plans (completed/evicted tasks shift
    #: every position, so the cursor lands on an arbitrary task and some
    #: tasks get double-served while others starve).
    _last_served: Optional[int] = field(default=None, init=False)

    def plan(self, tasks: Sequence[TaskView], now: float) -> List[PlanItem]:
        runnable = sorted(self._runnable(tasks), key=lambda t: t.task_id)
        if not runnable:
            return []
        # Resume after the task served last, by id — stable under a
        # changing runnable set, unlike a positional cursor.
        start = 0
        if self._last_served is not None:
            for i, t in enumerate(runnable):
                if t.task_id > self._last_served:
                    start = i
                    break
        ordered = runnable[start:] + runnable[:start]
        self._last_served = ordered[0].task_id
        return [(t.task_id, t.stages_done) for t in ordered]


@dataclass
class FIFOPolicy(SchedulingPolicy):
    """First-come-first-served, running every stage of a task to the end."""

    name: str = field(default="FIFO", init=False)

    def plan(self, tasks: Sequence[TaskView], now: float) -> List[PlanItem]:
        runnable = self._runnable(tasks)
        if not runnable:
            return []
        oldest = min(runnable, key=lambda t: (t.arrival_time, t.task_id))
        return [
            (oldest.task_id, s) for s in range(oldest.stages_done, oldest.num_stages)
        ]


@dataclass
class EDFPolicy(SchedulingPolicy):
    """Earliest-deadline-first, running the most urgent task to the end.

    The classic real-time baseline the gen-2 imprecise-computation
    scheduler is gated against: optimal for unit-utility jobs on one
    worker, but stage-blind — it spends capacity completing one task's
    optional refinement while other tasks' mandatory prefixes starve.
    """

    name: str = field(default="EDF", init=False)

    def plan(self, tasks: Sequence[TaskView], now: float) -> List[PlanItem]:
        runnable = self._runnable(tasks)
        if not runnable:
            return []
        urgent = min(runnable, key=lambda t: (t.deadline, t.arrival_time, t.task_id))
        return [
            (urgent.task_id, s) for s in range(urgent.stages_done, urgent.num_stages)
        ]
