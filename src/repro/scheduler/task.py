"""Task representations shared by the scheduler, simulator and runtime.

Also the task lifecycle both serving loops call: a task ends in exactly
one terminal state through :func:`finish`, :func:`expire` or :func:`shed`;
:func:`degrade` caps a live one.  Each transition updates the record,
counts under the caller's scope (``runtime.*`` / ``simulator.*``) and
emits at most one terminal trace event (``docs/SCHEDULER.md``, "Task
lifecycle").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional


@dataclass(frozen=True)
class StageOutcome:
    """Result of executing one stage of one task: (predicted value, confidence).

    This is exactly the tuple the paper's worker processes emit at the end of
    each stage and push to the scheduler over a named pipe.
    """

    stage: int
    prediction: int
    confidence: float
    correct: Optional[bool] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence must be in [0, 1], got {self.confidence}")
        if self.stage < 0:
            raise ValueError("stage must be non-negative")


@dataclass
class TaskRecord:
    """Full mutable record of a task inside the simulator/runtime."""

    task_id: int
    arrival_time: float
    deadline: float
    num_stages: int
    outcomes: List[StageOutcome] = field(default_factory=list)
    evicted: bool = False
    finish_time: Optional[float] = None
    #: dropped by admission control before receiving any service (overload
    #: shedding) — distinct from ``evicted``, which is a deadline miss.
    shed: bool = False
    #: served by the anytime contract: the best already-computed stage
    #: result was returned at the deadline instead of evicting the task.
    anytime_served: bool = False
    #: degrade-before-drop / gen-2 preemption: the task will be served only
    #: up to this stage (exclusive upper bound on stage count); ``None`` =
    #: full service.  Assignments are **tightening-only** — the property
    #: installed below this class enforces ``min(old, new)`` in one place.
    stage_cap: Optional[int] = None
    #: the last :meth:`view` and the (stages done, cap) it was built at.
    _view: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.deadline <= self.arrival_time:
            raise ValueError("deadline must be after arrival")
        if self.num_stages < 1:
            raise ValueError("a task needs at least one stage")

    def _get_stage_cap(self) -> Optional[int]:
        return self._stage_cap

    def _set_stage_cap(self, value: Optional[int]) -> None:
        """Tightening-only: a later degrade/preemption pass must never
        *raise* a previously assigned lower cap (``min(old, new)`` enforced
        here, the single authoritative place).  Assigning ``None`` is a
        no-op — a granted cap cannot be loosened back to full service.
        """
        old = getattr(self, "_stage_cap", None)
        if value is None:
            self._stage_cap = old
            return
        if value < 1:
            raise ValueError("stage_cap must be >= 1 when given")
        self._stage_cap = int(value) if old is None else min(old, int(value))

    @property
    def effective_stages(self) -> int:
        """Stages this task will actually be served (cap-aware)."""
        if self.stage_cap is None:
            return self.num_stages
        return min(self.num_stages, self.stage_cap)

    @property
    def stages_done(self) -> int:
        return len(self.outcomes)

    @property
    def next_stage(self) -> Optional[int]:
        if self.stages_done >= self.effective_stages:
            return None
        return self.stages_done

    @property
    def complete(self) -> bool:
        """All stages the task is *entitled to* ran (cap-aware)."""
        return self.stages_done >= self.effective_stages

    @property
    def fully_complete(self) -> bool:
        """Every stage of the full model ran — the non-degraded outcome."""
        return self.stages_done >= self.num_stages

    @property
    def done(self) -> bool:
        """No more work will happen (all stages ran, eviction, or shed)."""
        return self.complete or self.evicted or self.shed

    @property
    def latest_confidence(self) -> Optional[float]:
        return self.outcomes[-1].confidence if self.outcomes else None

    @property
    def latest_prediction(self) -> Optional[int]:
        return self.outcomes[-1].prediction if self.outcomes else None

    @property
    def final_correct(self) -> bool:
        """Service-level correctness: last completed stage's verdict.

        Tasks that never completed a stage produce no usable answer and count
        as incorrect ("no utility is accrued for tasks that are not
        completed").
        """
        if not self.outcomes:
            return False
        return bool(self.outcomes[-1].correct)

    def view(self) -> "TaskView":
        """The task as policies see it, rebuilt only when it changed.

        A view changes only when a stage completes (``outcomes`` is
        append-only) or the cap tightens, so the last one is handed out
        again while both stand.
        """
        key = (len(self.outcomes), self._stage_cap)
        if self._view is not None and self._view[0] == key:
            return self._view[1]
        # Policies see the cap-aware stage count, so a degraded task is
        # never planned past its early exit.
        view = TaskView(
            task_id=self.task_id,
            arrival_time=self.arrival_time,
            deadline=self.deadline,
            num_stages=self.effective_stages,
            stages_done=self.stages_done,
            confidences=tuple(o.confidence for o in self.outcomes),
        )
        self._view = (key, view)
        return view


# The dataclass-generated ``__init__``/``__repr__``/``__eq__`` captured the
# plain ``stage_cap`` field above; replacing the class attribute with a
# property afterwards routes *every* assignment — constructor included —
# through the tightening-only setter, so no call site can loosen a cap.
TaskRecord.stage_cap = property(TaskRecord._get_stage_cap, TaskRecord._set_stage_cap)


@dataclass(frozen=True)
class TaskView:
    """Immutable scheduling-visible snapshot of a task.

    Policies receive these — they can see confidence history but never the
    oracle correctness, mirroring the information available to the real
    system at run time.
    """

    task_id: int
    arrival_time: float
    deadline: float
    num_stages: int
    stages_done: int
    confidences: tuple

    @property
    def next_stage(self) -> Optional[int]:
        if self.stages_done >= self.num_stages:
            return None
        return self.stages_done

    @property
    def latest_confidence(self) -> Optional[float]:
        return self.confidences[-1] if self.confidences else None

    def remaining_time(self, now: float) -> float:
        return self.deadline - now


# -- task lifecycle: ``tel`` is the telemetry session or ``None`` ----------


def finish(record: TaskRecord, now: float, tel, scope: str) -> None:
    """Complete: every stage the task is entitled to ran (cap-aware)."""
    record.finish_time = now
    if tel is not None:
        tel.registry.counter(f"{scope}.tasks_completed").inc()
        tel.trace.complete(now, record.task_id, stages_done=record.stages_done)


def expire(
    record: TaskRecord,
    now: float,
    anytime: bool,
    tel,
    scope: str,
    evicted_at: Optional[float] = None,
) -> None:
    """The latency constraint ran out: serve best-so-far, or evict.

    Under the anytime contract a task holding at least one stage result is
    *served* it: the cap tightens to what actually ran (so ``complete``
    holds) and the response is stamped at the deadline itself — never
    late, even when the expiry is noticed after the fact.  Any other task
    is evicted, a deadline miss, with ``finish_time`` at ``evicted_at``
    (default ``now``).  Trace events are stamped at ``now`` either way,
    so a caller that learns of an eviction late (the simulator's
    expired-while-queued task, ``evicted_at`` = its deadline) never steps
    its trace back in time.
    """
    if anytime and record.outcomes:
        record.stage_cap = record.stages_done
        record.anytime_served = True
        record.finish_time = min(now, record.deadline)
        if tel is not None:
            tel.registry.counter(f"{scope}.anytime_served").inc()
            tel.trace.degraded(
                record.finish_time, record.task_id, record.outcomes[-1].stage
            )
        return
    record.evicted = True
    record.finish_time = now if evicted_at is None else evicted_at
    if tel is not None:
        tel.registry.counter(f"{scope}.deadline_misses").inc()
        tel.trace.deadline_miss(now, record.task_id, deadline=record.deadline)
        tel.trace.evict(now, record.task_id, stages_done=record.stages_done)


def shed(
    record: TaskRecord,
    now: float,
    expected_utility: float,
    tel,
    scope: str,
) -> None:
    """Drop the task under overload before it is served.

    ``finish_time`` stays ``None``: a shed task received no service, so
    it has no service latency.  ``expected_utility`` is the score the shed
    ranking used, logged on the ``load-shed`` event.
    """
    record.shed = True
    if tel is not None:
        tel.registry.counter(f"{scope}.tasks_shed").inc()
        tel.trace.load_shed(now, record.task_id, expected_utility=expected_utility)


def degrade(
    record: TaskRecord, cap: int, now: float, tel, scope: str
) -> None:
    """Degrade-before-drop: cap a live task at an early exit (not terminal)."""
    record.stage_cap = cap
    if tel is not None:
        tel.registry.counter(f"{scope}.tasks_degraded").inc()
        tel.trace.degrade_cap(now, record.task_id, stage_cap=cap)
