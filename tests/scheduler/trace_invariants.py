"""Task-lifecycle invariants over one episode's scheduler trace.

A test helper, not a test module: call :func:`check_lifecycle` on the
:class:`~repro.telemetry.trace.TraceLog` of a simulator or runtime episode.
It asserts, from the trace alone:

- every task the trace names has exactly one terminal event
  (``complete`` / ``degraded`` / ``evict`` / ``load-shed``);
- no stage dispatch and no second terminal event follows a task's
  terminal event;
- no served task (``complete`` / ``degraded``) finishes after the
  deadline its ``admit`` event announced;
- no task is served more stages than its effective cap (the tightest
  ``degrade-cap``, and ``num_stages`` when given).

Runtime deadlines are episode-relative and simulator deadlines absolute,
but both share the clock of every other event in their own trace, so the
comparison needs no conversion.
"""

from typing import Dict, Optional

from repro.telemetry.trace import (
    ADMIT,
    COMPLETE,
    DEGRADE_CAP,
    DEGRADED,
    EVICT,
    LOAD_SHED,
    STAGE_DISPATCH,
    TraceLog,
)

TERMINAL = frozenset({COMPLETE, DEGRADED, EVICT, LOAD_SHED})
_EPS = 1e-9


def served_stages(event) -> int:
    """Stages the served answer came from, read off its terminal event."""
    if event.kind == DEGRADED:
        return event.stage + 1
    return int(event.detail["stages_done"])


def check_lifecycle(trace: TraceLog, num_stages: Optional[int] = None) -> Dict[int, str]:
    """Assert the lifecycle invariants; returns task id -> terminal kind."""
    assert trace.dropped == 0, "the trace window overflowed; checks would be partial"
    named = set()
    terminal: Dict[int, object] = {}
    deadline: Dict[int, float] = {}
    cap: Dict[int, int] = {}
    for event in sorted(trace.events(), key=lambda e: e.seq):
        if event.kind == STAGE_DISPATCH:
            for tid in event.task_ids:
                named.add(tid)
                assert tid not in terminal, (
                    f"task {tid} dispatched at t={event.t} after its "
                    f"{terminal[tid].kind} event"
                )
            continue
        tid = event.task_id
        if tid is None:
            continue
        named.add(tid)
        if event.kind == ADMIT:
            deadline[tid] = event.detail["deadline"]
        elif event.kind == DEGRADE_CAP:
            cap[tid] = min(cap.get(tid, 10**9), int(event.detail["stage_cap"]))
        elif event.kind in TERMINAL:
            assert tid not in terminal, (
                f"task {tid}: {event.kind} after its {terminal[tid].kind} event"
            )
            terminal[tid] = event
    missing = sorted(named - terminal.keys())
    assert not missing, f"tasks without a terminal event: {missing}"
    for tid, event in terminal.items():
        if event.kind not in (COMPLETE, DEGRADED):
            continue
        if tid in deadline:
            assert event.t <= deadline[tid] + _EPS, (
                f"task {tid} served at t={event.t} after its deadline "
                f"{deadline[tid]}"
            )
        limit = min(cap.get(tid, 10**9), num_stages or 10**9)
        assert served_stages(event) <= limit, (
            f"task {tid} served {served_stages(event)} stages past its cap {limit}"
        )
    return {tid: event.kind for tid, event in terminal.items()}
