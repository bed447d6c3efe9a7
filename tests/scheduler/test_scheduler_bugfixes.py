"""Regression tests for the scheduler-tier timestamp/invariant bugfix sweep.

Three bugs, each with a test that failed before its fix:

1. ``StagedInferenceRuntime`` scored degrade/shed candidates with a
   hard-coded ``now=0.0`` inside ``select_shed``, so the deadline-
   feasibility discount saw every task as having its full latency budget
   left and mis-ranked near-deadline tasks.
2. The same path stamped every ``load_shed``/``degrade_cap`` trace event at
   ``t=0.0`` (the bug class PR 9 fixed for admission rejections).
3. ``TaskRecord.stage_cap`` was a plain attribute: a later degrade or
   preemption pass could silently *raise* a previously assigned lower cap.
   It is now a tightening-only property (``min(old, new)`` enforced in one
   place on ``TaskRecord``).

One ``t=0.0`` stamp is correct and pinned as such: the runtime's ``admit``
events, because every task of a ``run_until_complete`` episode arrives
when the episode starts.
"""

import numpy as np
import pytest

from repro import telemetry
from repro.admission import AdmissionConfig
from repro.nn import StagedResNet, StagedResNetConfig
from repro.scheduler import FIFOPolicy, RuntimeConfig, StagedInferenceRuntime
from repro.scheduler.task import StageOutcome, TaskRecord
from repro.telemetry.trace import ADMIT, COMPLETE, DEGRADE_CAP, LOAD_SHED

TINY = StagedResNetConfig(
    num_classes=4, image_size=8, stage_channels=(4, 8), blocks_per_stage=1, seed=0
)


def make_runtime(admission):
    return StagedInferenceRuntime(
        StagedResNet(TINY),
        FIFOPolicy(),
        RuntimeConfig(latency_constraint=60.0, admission=admission),
    )


def record(tid, arrival, deadline, confidences=()):
    r = TaskRecord(
        task_id=tid, arrival_time=arrival, deadline=deadline, num_stages=3
    )
    for stage, conf in enumerate(confidences):
        r.outcomes.append(
            StageOutcome(stage=stage, prediction=0, confidence=conf)
        )
    return r


class TestAdmissionScoredAtActualClock:
    """Bugfix 1: `select_shed` must see the runtime's real clock.

    Task 0 holds a weak stage-0 answer (0.2) and its deadline is nearly
    over; task 1 is fresh with plenty of slack.  Scored at the true
    ``now=2.0`` the near-deadline task can finish nothing new — its
    expected utility is the 0.2 it already holds, the lowest, so *it* is
    shed.  Scored at a hard-coded 0.0 (the old bug) both tasks look fully
    feasible, tie at the optimistic maximum, and the tie-break sheds the
    *newer* task 1 instead.
    """

    def test_near_deadline_task_sheds_first(self):
        runtime = make_runtime(AdmissionConfig(max_queue_depth=1))
        records = {
            0: record(0, arrival=0.0, deadline=2.5, confidences=(0.2,)),
            1: record(1, arrival=0.5, deadline=30.0),
        }
        runtime._apply_admission(
            records, runtime.config.admission, tel=None, now=2.0, stage_time_s=1.0
        )
        assert records[0].shed, "the infeasible near-deadline task must shed"
        assert not records[1].shed
        # Shed as in the simulator: no service, so no finish time.
        assert records[0].finish_time is None

    def test_shed_trace_reports_discounted_utility(self):
        with telemetry.session() as tel:
            runtime = make_runtime(AdmissionConfig(max_queue_depth=1))
            records = {
                0: record(0, arrival=0.0, deadline=2.5, confidences=(0.2,)),
                1: record(1, arrival=0.5, deadline=30.0),
            }
            runtime._apply_admission(
                records,
                runtime.config.admission,
                tel,
                now=2.0,
                stage_time_s=1.0,
            )
            (event,) = tel.trace.events(LOAD_SHED)
            # The logged utility is what the ranking actually used: the held
            # 0.2, not the optimistic full-horizon estimate.
            assert event.detail["expected_utility"] == pytest.approx(0.2)


class TestDegradeTracesStampedAtDecisionTime:
    """Bugfix 2: degrade/shed trace events carry the real decision time."""

    def test_degrade_cap_events_not_at_time_zero(self):
        with telemetry.session() as tel:
            runtime = make_runtime(
                AdmissionConfig(degrade_queue_depth=1, degrade_stage_cap=1)
            )
            records = {
                tid: record(tid, arrival=0.0, deadline=30.0) for tid in range(3)
            }
            runtime._apply_admission(
                records, runtime.config.admission, tel, now=3.5
            )
            events = tel.trace.events(DEGRADE_CAP)
            assert len(events) == 2  # three live tasks, soft bound of one
            for event in events:
                assert event.t == 3.5
            capped = [r for r in records.values() if r.stage_cap is not None]
            assert len(capped) == 2
            assert all(r.stage_cap == 1 for r in capped)

    def test_shed_events_stamped_at_decision_time(self):
        with telemetry.session() as tel:
            runtime = make_runtime(AdmissionConfig(max_queue_depth=1))
            records = {
                tid: record(tid, arrival=0.0, deadline=30.0) for tid in range(3)
            }
            runtime._apply_admission(
                records, runtime.config.admission, tel, now=1.25
            )
            events = tel.trace.events(LOAD_SHED)
            assert len(events) == 2
            for event in events:
                assert event.t == 1.25


class TestAdmitStampedAtEpisodeStart:
    def test_every_task_arrives_at_the_episode_origin(self):
        runtime = make_runtime(admission=None)
        runtime.submit(np.random.default_rng(0).normal(size=(4, 3, 8, 8)))
        with telemetry.session() as t:
            results = runtime.run_until_complete()
            admits = t.trace.events(ADMIT)
            completes = {e.task_id: e.t for e in t.trace.events(COMPLETE)}
        # Arrival 0.0 and deadline = constraint share one origin with
        # every later stamp: a completion's stamp is the task's elapsed.
        assert [(e.task_id, e.t) for e in admits] == [(i, 0.0) for i in range(4)]
        assert all(e.detail["deadline"] == 60.0 for e in admits)
        assert completes == {r.task_id: r.elapsed for r in results}
        assert all(0.0 < r.elapsed for r in results)


class TestStageCapTighteningOnly:
    """Bugfix 3: `TaskRecord.stage_cap` can tighten but never loosen."""

    def test_raising_a_cap_is_ignored(self):
        r = record(0, arrival=0.0, deadline=10.0)
        r.stage_cap = 2
        r.stage_cap = 3  # the old code would happily loosen to 3
        assert r.stage_cap == 2

    def test_lowering_a_cap_applies(self):
        r = record(0, arrival=0.0, deadline=10.0)
        r.stage_cap = 2
        r.stage_cap = 1
        assert r.stage_cap == 1

    def test_none_never_clears_a_granted_cap(self):
        r = record(0, arrival=0.0, deadline=10.0)
        r.stage_cap = 1
        r.stage_cap = None
        assert r.stage_cap == 1

    def test_constructor_assignment_goes_through_the_setter(self):
        r = TaskRecord(
            task_id=0, arrival_time=0.0, deadline=10.0, num_stages=3, stage_cap=2
        )
        assert r.stage_cap == 2
        r.stage_cap = 5
        assert r.stage_cap == 2

    def test_invalid_cap_rejected(self):
        r = record(0, arrival=0.0, deadline=10.0)
        with pytest.raises(ValueError, match="stage_cap"):
            r.stage_cap = 0

    def test_effective_stages_follow_the_tightened_cap(self):
        r = record(0, arrival=0.0, deadline=10.0, confidences=(0.4,))
        assert r.effective_stages == 3
        r.stage_cap = 2
        r.stage_cap = 3
        assert r.effective_stages == 2
        assert r.next_stage == 1
        r.stage_cap = 1
        assert r.complete  # one stage ran, cap is now one
