"""Typed trace log of scheduler events.

The paper's evaluation reasons about per-task trajectories — when a task
was admitted, which stages ran (and batched with whom), whether the daemon
evicted it at its latency constraint.  :class:`TraceLog` records exactly
those transitions as typed events so tests and the ``repro metrics`` CLI
can assert on scheduler behaviour instead of parsing ad-hoc logs.

The log is bounded (a deque) so a long-running service cannot grow it
without limit, and append is a single lock-protected deque.append — cheap
enough to leave on under load.
"""

from __future__ import annotations

import threading
from collections import Counter as _TallyCounter
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

#: The closed set of event kinds the scheduler stack emits.
ADMIT = "admit"
STAGE_DISPATCH = "stage-dispatch"
BATCH_FORM = "batch-form"
COMPLETE = "complete"
EVICT = "evict"
DEADLINE_MISS = "deadline-miss"
#: Fault-injection and recovery transitions (see :mod:`repro.faults`).
FAULT_INJECT = "fault-inject"
ITEM_RETRY = "item-retry"
RETRY = "retry"
DEGRADED = "degraded"
BREAKER_OPEN = "breaker-open"
BREAKER_CLOSE = "breaker-close"
#: Admission-control and overload-management transitions (see
#: :mod:`repro.admission`).
ADMISSION_REJECT = "admission-reject"
LOAD_SHED = "load-shed"
DEGRADE_CAP = "degrade-cap"

EVENT_KINDS = frozenset(
    {
        ADMIT,
        STAGE_DISPATCH,
        BATCH_FORM,
        COMPLETE,
        EVICT,
        DEADLINE_MISS,
        FAULT_INJECT,
        ITEM_RETRY,
        RETRY,
        DEGRADED,
        BREAKER_OPEN,
        BREAKER_CLOSE,
        ADMISSION_REJECT,
        LOAD_SHED,
        DEGRADE_CAP,
    }
)


@dataclass(frozen=True)
class TraceEvent:
    """One scheduler transition.

    ``seq`` is a per-log monotone sequence number: events with equal
    timestamps (common in the discrete-event simulator) still have a total
    order.  ``t`` is seconds since the episode started.
    """

    seq: int
    t: float
    kind: str
    task_id: Optional[int] = None
    stage: Optional[int] = None
    task_ids: Optional[Tuple[int, ...]] = None
    detail: Optional[Dict[str, float]] = None
    #: free-form name for events about a *named thing* rather than a task —
    #: an injection site, an endpoint, a fault kind.
    label: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ValueError(f"unknown trace event kind {self.kind!r}")

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {"seq": self.seq, "t": self.t, "kind": self.kind}
        if self.task_id is not None:
            out["task_id"] = self.task_id
        if self.stage is not None:
            out["stage"] = self.stage
        if self.task_ids is not None:
            out["task_ids"] = list(self.task_ids)
        if self.label is not None:
            out["label"] = self.label
        if self.detail:
            out["detail"] = dict(self.detail)
        return out


class TraceLog:
    """Bounded, thread-safe event log with typed append helpers."""

    def __init__(self, capacity: int = 10000) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._events: Deque[TraceEvent] = deque(maxlen=capacity)
        self._seq = 0
        self._dropped = 0
        self._lock = threading.Lock()

    # -- generic append ------------------------------------------------
    def record(
        self,
        kind: str,
        t: float,
        task_id: Optional[int] = None,
        stage: Optional[int] = None,
        task_ids: Optional[Tuple[int, ...]] = None,
        detail: Optional[Dict[str, float]] = None,
        label: Optional[str] = None,
    ) -> TraceEvent:
        with self._lock:
            event = TraceEvent(
                seq=self._seq, t=float(t), kind=kind, task_id=task_id,
                stage=stage, task_ids=task_ids, detail=detail, label=label,
            )
            self._seq += 1
            if len(self._events) == self.capacity:
                self._dropped += 1
            self._events.append(event)
            return event

    # -- typed helpers (one per scheduler transition) ------------------
    def admit(self, t: float, task_id: int, deadline: float) -> TraceEvent:
        return self.record(ADMIT, t, task_id=task_id, detail={"deadline": deadline})

    def batch_form(self, t: float, stage: int, task_ids: Tuple[int, ...]) -> TraceEvent:
        return self.record(BATCH_FORM, t, stage=stage, task_ids=tuple(task_ids))

    def stage_dispatch(
        self, t: float, stage: int, task_ids: Tuple[int, ...]
    ) -> TraceEvent:
        return self.record(
            STAGE_DISPATCH, t, stage=stage, task_ids=tuple(task_ids),
            detail={"batch_size": float(len(task_ids))},
        )

    def complete(self, t: float, task_id: int, stages_done: int) -> TraceEvent:
        return self.record(
            COMPLETE, t, task_id=task_id, detail={"stages_done": float(stages_done)}
        )

    def evict(self, t: float, task_id: int, stages_done: int) -> TraceEvent:
        return self.record(
            EVICT, t, task_id=task_id, detail={"stages_done": float(stages_done)}
        )

    def deadline_miss(self, t: float, task_id: int, deadline: float) -> TraceEvent:
        return self.record(
            DEADLINE_MISS, t, task_id=task_id, detail={"deadline": deadline}
        )

    # -- fault-injection / recovery transitions ------------------------
    def fault_inject(self, t: float, site: str, kind: str, index: int) -> TraceEvent:
        """A fault fired at ``site`` (its invocation index in ``detail``)."""
        return self.record(
            FAULT_INJECT, t, label=f"{site}:{kind}",
            detail={"invocation": float(index)},
        )

    def item_retry(self, t: float, stage: int, task_ids: Tuple[int, ...]) -> TraceEvent:
        """A stage batch's results were rejected; its tasks re-run."""
        return self.record(
            ITEM_RETRY, t, stage=stage, task_ids=tuple(task_ids),
            detail={"batch_size": float(len(task_ids))},
        )

    def retry(self, t: float, endpoint: str, attempt: int) -> TraceEvent:
        """A client retry of ``endpoint`` (attempt number 1-based)."""
        return self.record(
            RETRY, t, label=endpoint, detail={"attempt": float(attempt)}
        )

    def degraded(self, t: float, task_id: int, stage: int) -> TraceEvent:
        """A task was served from an early exit instead of its final stage."""
        return self.record(DEGRADED, t, task_id=task_id, stage=stage)

    def breaker_open(self, t: float, endpoint: str) -> TraceEvent:
        return self.record(BREAKER_OPEN, t, label=endpoint)

    def breaker_close(self, t: float, endpoint: str) -> TraceEvent:
        return self.record(BREAKER_CLOSE, t, label=endpoint)

    # -- admission-control / overload transitions -----------------------
    def admission_reject(
        self, t: float, key: str, reason: str, retry_after_s: float
    ) -> TraceEvent:
        """Admission refused a request at ``key`` (endpoint or model:id)."""
        return self.record(
            ADMISSION_REJECT, t, label=f"{key}:{reason}",
            detail={"retry_after_s": float(retry_after_s)},
        )

    def load_shed(self, t: float, task_id: int, expected_utility: float) -> TraceEvent:
        """An admitted task was dropped under overload (lowest utility first)."""
        return self.record(
            LOAD_SHED, t, task_id=task_id,
            detail={"expected_utility": float(expected_utility)},
        )

    def degrade_cap(self, t: float, task_id: int, stage_cap: int) -> TraceEvent:
        """A task was capped at an earlier exit stage instead of being shed."""
        return self.record(
            DEGRADE_CAP, t, task_id=task_id, detail={"stage_cap": float(stage_cap)}
        )

    # -- read side -----------------------------------------------------
    def events(self, kind: Optional[str] = None) -> List[TraceEvent]:
        with self._lock:
            snapshot = list(self._events)
        if kind is None:
            return snapshot
        return [e for e in snapshot if e.kind == kind]

    def counts(self) -> Dict[str, int]:
        """Events per kind (over the retained window)."""
        with self._lock:
            tally = _TallyCounter(e.kind for e in self._events)
        return dict(sorted(tally.items()))

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    @property
    def dropped(self) -> int:
        """Events pushed out of the bounded window so far."""
        with self._lock:
            return self._dropped

    def clear(self) -> None:
        with self._lock:
            self._events.clear()
            self._dropped = 0
