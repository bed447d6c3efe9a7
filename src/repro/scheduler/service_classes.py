"""Multiple service classes and pricing (the paper's Sec. V future work).

"In reality, different applications will have different demands and
constraints.  For example, an interactive voice chatbot might have
significantly tighter latency constraints than an intrusion detection
camera. ...  The scheduler described in this paper needs to be modified to
support multiple service classes and account for different execution cost
and constraints.  An appropriate pricing structure may be needed that is
informed of the true resource cost imposed by clients of each class."

This module implements that modification:

- :class:`ServiceClass` — a named class with its own latency constraint,
  utility weight and per-stage price;
- :class:`ClassAwareRTDeepIoTPolicy` — the greedy scheduler with utility
  scaled by each task's class weight, and an urgency boost as a task's
  deadline approaches (tight-deadline classes get served first);
- :class:`PricingModel` — charges per executed stage at class rates, with a
  refund for tasks evicted before finishing a single stage (no answer, no
  charge), so revenue reflects the true resource cost per class.

:class:`~repro.scheduler.simulator.PoolSimulator` accepts per-task latency
constraints and class assignments through
:func:`assign_classes` / ``SimulationConfig`` extension points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .confidence import ConfidencePredictor
from .policies import PlanItem, RTDeepIoTPolicy, SchedulingPolicy
from .task import TaskView


@dataclass(frozen=True)
class ServiceClass:
    """A client class with its own constraints and economics."""

    name: str
    latency_constraint: float
    weight: float = 1.0
    price_per_stage: float = 1.0

    def __post_init__(self) -> None:
        if self.latency_constraint <= 0:
            raise ValueError("latency constraint must be positive")
        if self.weight <= 0:
            raise ValueError("weight must be positive")
        if self.price_per_stage < 0:
            raise ValueError("price cannot be negative")


#: two example classes matching the paper's motivating sentence.
INTERACTIVE = ServiceClass("interactive", latency_constraint=4.0, weight=3.0,
                           price_per_stage=3.0)
BATCH = ServiceClass("batch", latency_constraint=12.0, weight=1.0,
                     price_per_stage=1.0)


def assign_classes(
    num_tasks: int,
    classes: Sequence[ServiceClass],
    fractions: Sequence[float],
    seed: int = 0,
) -> List[ServiceClass]:
    """Randomly assign one class per task with the given mix fractions."""
    if len(classes) != len(fractions) or not classes:
        raise ValueError("classes and fractions must align and be non-empty")
    fractions = np.asarray(fractions, dtype=np.float64)
    if fractions.min() < 0 or abs(fractions.sum() - 1.0) > 1e-9:
        raise ValueError("fractions must be a distribution")
    rng = np.random.default_rng(seed)
    indices = rng.choice(len(classes), size=num_tasks, p=fractions)
    return [classes[i] for i in indices]


@dataclass
class ClassAwareRTDeepIoTPolicy(SchedulingPolicy):
    """Greedy utility scheduler with class weights and deadline urgency.

    The marginal utility of a stage is the predicted confidence gain (as in
    :class:`~repro.scheduler.policies.RTDeepIoTPolicy`) multiplied by the
    task's class weight, and further scaled by an urgency factor
    ``1 + urgency * max(0, 1 - slack/constraint)`` so work migrates toward
    tasks about to hit their (class-specific) deadline.
    """

    predictor: ConfidencePredictor
    task_classes: Dict[int, ServiceClass]
    k: int = 1
    urgency: float = 1.0
    default_class: ServiceClass = BATCH

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("lookahead k must be >= 1")
        if self.urgency < 0:
            raise ValueError("urgency must be non-negative")
        self.name = f"ClassAware-RTDeepIoT-{self.k}"
        self._inner = RTDeepIoTPolicy(self.predictor, k=1, dynamic=True)

    def _scale(self, view: TaskView, now: float) -> float:
        service_class = self.task_classes.get(view.task_id, self.default_class)
        slack = view.remaining_time(now)
        pressure = max(0.0, 1.0 - slack / service_class.latency_constraint)
        return service_class.weight * (1.0 + self.urgency * pressure)

    def plan(self, tasks: Sequence[TaskView], now: float) -> List[PlanItem]:
        runnable = self._runnable(tasks)
        if not runnable:
            return []
        anchors = {t.task_id: self._inner._anchor(t) for t in runnable}
        frontier = {t.task_id: t.stages_done for t in runnable}
        current = {t.task_id: anchors[t.task_id][1] for t in runnable}
        views = {t.task_id: t for t in runnable}
        timeline: List[PlanItem] = []
        for _ in range(self.k):
            best: Optional[Tuple[float, int]] = None
            for t in runnable:
                tid = t.task_id
                stage = frontier[tid]
                if stage >= t.num_stages:
                    continue
                predicted = self._inner._predicted_conf(views[tid], stage, anchors[tid])
                gain = (predicted - current[tid]) * self._scale(t, now)
                if best is None or gain > best[0]:
                    best = (gain, tid)
            if best is None:
                break
            _, tid = best
            stage = frontier[tid]
            predicted = self._inner._predicted_conf(views[tid], stage, anchors[tid])
            timeline.append((tid, stage))
            frontier[tid] = stage + 1
            current[tid] = predicted
        return timeline


@dataclass
class ClassBill:
    """Per-class revenue/served accounting."""

    served_tasks: int = 0
    evicted_unserved: int = 0
    stages_charged: int = 0
    revenue: float = 0.0


class PricingModel:
    """Charges per executed stage at class rates; no answer, no charge."""

    def __init__(self, task_classes: Dict[int, ServiceClass],
                 default_class: ServiceClass = BATCH) -> None:
        self.task_classes = task_classes
        self.default_class = default_class

    def bill(self, records) -> Dict[str, ClassBill]:
        """Aggregate an episode's :class:`TaskRecord` list into class bills."""
        bills: Dict[str, ClassBill] = {}
        for record in records:
            service_class = self.task_classes.get(record.task_id, self.default_class)
            entry = bills.setdefault(service_class.name, ClassBill())
            if record.stages_done == 0:
                entry.evicted_unserved += 1
                continue
            entry.served_tasks += 1
            entry.stages_charged += record.stages_done
            entry.revenue += record.stages_done * service_class.price_per_stage
        return bills
