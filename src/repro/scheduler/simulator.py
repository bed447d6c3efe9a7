"""Discrete-event simulation of the Eugene worker pool (Sec. III-C).

The paper's proof-of-concept spawns a pool of worker processes; each runs one
stage of one task at a time, reports (prediction, confidence) to the
user-space scheduler through a named pipe, and a daemon process evicts tasks
whose latency constraint expires.  This module reproduces that architecture
as a deterministic discrete-event simulation so the Fig. 4 scalability
experiments are exactly repeatable: stage outcomes come from a precomputed
*oracle table* (the trained staged ResNet run over the test set), stage
durations come from a cost model, and the scheduling policy is pluggable.

Concurrency model: all tasks are backlogged at t=0 and at most
``concurrency`` are admitted ("in flight") at any instant — a task's latency
constraint starts at its admission.  When a task finishes or is evicted, the
next backlogged task is admitted immediately, keeping the system at the
target concurrency level, which is the x-axis of Fig. 4.

The task lifecycle is shared with :mod:`repro.scheduler.runtime`: a
deadline event, a task that expired while queued and the end-of-run
leftovers all go to :func:`~repro.scheduler.task.expire`, completions to
:func:`~repro.scheduler.task.finish`, ingress overload to
:func:`~repro.scheduler.task.shed` / :func:`~repro.scheduler.task.degrade`,
and re-planning to :func:`~repro.scheduler.gen2.replan`.  What stays here
is what the runtime lacks: the event heap, worker slots, slot turnover
after a task ends, and the ingress / rate-limit queue.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import telemetry
from ..admission import AdmissionConfig, TokenBucket, expected_utility, select_shed
from .gen2 import replan
from .policies import PlanItem, SchedulingPolicy
from .task import StageOutcome, TaskRecord, TaskView, degrade, expire, finish, shed


@dataclass(frozen=True)
class TaskOracle:
    """Precomputed per-stage outcomes for one task's input.

    ``confidences[s]``, ``predictions[s]`` and ``correct[s]`` describe what
    the staged model *would* report after executing stage ``s`` on this
    task's input.
    """

    confidences: Tuple[float, ...]
    predictions: Tuple[int, ...]
    correct: Tuple[bool, ...]

    def __post_init__(self) -> None:
        if not (len(self.confidences) == len(self.predictions) == len(self.correct)):
            raise ValueError("oracle arrays must have equal length")
        if len(self.confidences) == 0:
            raise ValueError("oracle needs at least one stage")

    @property
    def num_stages(self) -> int:
        return len(self.confidences)

    @staticmethod
    def table_from_outputs(outputs: dict) -> List["TaskOracle"]:
        """Build oracles from :func:`repro.nn.training.collect_stage_outputs`."""
        confs = outputs["confidences"]
        preds = outputs["predictions"]
        correct = outputs["correct"]
        n = confs.shape[1]
        return [
            TaskOracle(
                confidences=tuple(float(c) for c in confs[:, i]),
                predictions=tuple(int(p) for p in preds[:, i]),
                correct=tuple(bool(c) for c in correct[:, i]),
            )
            for i in range(n)
        ]


@dataclass
class SimulationConfig:
    """Parameters of one simulated serving episode."""

    num_workers: int = 4
    concurrency: int = 5
    #: execution time of each stage ("equal stage execution times" is the
    #: paper's optimality condition; pass unequal values to break it).
    stage_times: Sequence[float] = (1.0, 1.0, 1.0)
    #: per-task latency constraint, seconds from admission.
    latency_constraint: float = 4.0
    #: refuse to start a stage that cannot finish before the task's deadline
    #: (the daemon would kill it anyway and the work would be wasted).
    skip_doomed_stages: bool = True
    #: failure injection: probability a finished stage produced no usable
    #: result (worker crash / corrupted output).  The stage's time is spent,
    #: no outcome is recorded, and the task remains schedulable — the
    #: scheduler must absorb the retry.
    stage_failure_prob: float = 0.0
    failure_seed: int = 0
    #: admission control / overload management (:mod:`repro.admission`):
    #: bounds the arrived-but-unadmitted waiting queue, rate-limits ingress,
    #: and sheds/degrades excess work.  ``None`` (default) keeps the
    #: unbounded legacy behaviour bit-for-bit.
    admission: Optional[AdmissionConfig] = None
    #: anytime-inference contract (gen-2 imprecise computations): a task
    #: whose deadline fires with at least one completed stage is *served*
    #: its best-so-far early-exit result exactly at the deadline (degraded,
    #: never late) instead of being evicted; only tasks holding nothing
    #: still miss.  ``False`` (default) keeps the legacy eviction.
    anytime: bool = False

    def __post_init__(self) -> None:
        if self.num_workers < 1:
            raise ValueError("need at least one worker")
        if self.concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        if self.latency_constraint <= 0:
            raise ValueError("latency constraint must be positive")
        if any(t <= 0 for t in self.stage_times):
            raise ValueError("stage times must be positive")
        if not 0.0 <= self.stage_failure_prob < 1.0:
            raise ValueError("stage_failure_prob must be in [0, 1)")


@dataclass
class EpisodeResult:
    """Aggregate metrics of one simulated episode."""

    records: List[TaskRecord]
    makespan: float
    busy_time: float
    num_workers: int
    #: deepest the arrived-but-unadmitted waiting queue ever got, sampled
    #: at admission points (admission control bounds this; without it the
    #: queue grows with offered load).
    peak_queue_depth: int = 0

    @property
    def num_tasks(self) -> int:
        return len(self.records)

    @property
    def correct_flags(self) -> np.ndarray:
        return np.array([r.final_correct for r in self.records], dtype=bool)

    @property
    def accuracy(self) -> float:
        """Service classification accuracy — the Fig. 4 y-axis."""
        return float(self.correct_flags.mean())

    @property
    def stages_executed(self) -> np.ndarray:
        return np.array([r.stages_done for r in self.records], dtype=int)

    @property
    def num_evicted(self) -> int:
        return sum(1 for r in self.records if r.evicted)

    @property
    def num_fully_completed(self) -> int:
        return sum(1 for r in self.records if r.complete)

    @property
    def mean_final_confidence(self) -> float:
        confs = [r.latest_confidence for r in self.records if r.outcomes]
        return float(np.mean(confs)) if confs else 0.0

    def final_confidences(self, default: float = 0.0) -> np.ndarray:
        """Per-task confidence of the answer delivered (``default`` when a
        task produced no answer).  The spread of this vector is the paper's
        fairness measure: "a lower deviation means better fairness"."""
        return np.array(
            [
                r.latest_confidence if r.outcomes else default
                for r in self.records
            ]
        )

    @property
    def utilization(self) -> float:
        if self.makespan <= 0:
            return 0.0
        return self.busy_time / (self.makespan * self.num_workers)

    @property
    def latencies(self) -> np.ndarray:
        return np.array(
            [
                (r.finish_time - r.arrival_time)
                for r in self.records
                if r.finish_time is not None
            ]
        )

    # -- overload-management metrics (the `repro overload` experiment) -----
    @property
    def num_shed(self) -> int:
        """Tasks dropped by admission control before any service."""
        return sum(1 for r in self.records if r.shed)

    @property
    def num_degraded(self) -> int:
        """Tasks served under a degrade-mode stage cap."""
        return sum(1 for r in self.records if r.stage_cap is not None and not r.shed)

    @property
    def num_anytime_served(self) -> int:
        """Tasks the anytime contract served best-so-far at their deadline."""
        return sum(1 for r in self.records if r.anytime_served)

    @property
    def num_late(self) -> int:
        """Served answers delivered *after* their deadline.

        The anytime contract promises this is zero: a deadline-constrained
        task either responds by its deadline or counts as a miss — never
        both late and served.
        """
        return sum(
            1
            for r in self.records
            if r.outcomes
            and not r.evicted
            and not r.shed
            and r.finish_time is not None
            and r.finish_time > r.deadline + 1e-9
        )

    @property
    def mean_served_stage(self) -> float:
        """Average 0-based stage index answers were served from."""
        stages = [
            r.outcomes[-1].stage
            for r in self.records
            if r.outcomes and not r.evicted and not r.shed
        ]
        return float(np.mean(stages)) if stages else float("nan")

    @property
    def num_served(self) -> int:
        """Tasks that delivered an answer inside their deadline."""
        return sum(
            1 for r in self.records if r.outcomes and not r.evicted and not r.shed
        )

    @property
    def goodput(self) -> float:
        """Answers delivered inside their deadline, per unit time."""
        if self.makespan <= 0:
            return 0.0
        return self.num_served / self.makespan

    @property
    def shed_fraction(self) -> float:
        if not self.records:
            return 0.0
        return self.num_shed / len(self.records)

    @property
    def accrued_utility(self) -> float:
        """Total utility = summed confidence of answers delivered in time
        (the paper's objective; shed and evicted tasks accrue nothing)."""
        return float(
            sum(
                r.latest_confidence or 0.0
                for r in self.records
                if r.outcomes and not r.evicted and not r.shed
            )
        )

    def served_latency_percentile(self, q: float) -> float:
        """Latency percentile over *served* tasks only (p99 of admitted work
        is what admission control promises to bound)."""
        lat = [
            r.finish_time - r.arrival_time
            for r in self.records
            if r.finish_time is not None and r.outcomes and not r.evicted and not r.shed
        ]
        if not lat:
            return float("nan")
        return float(np.percentile(lat, q))


# Event kinds, ordered so simultaneous events resolve deterministically:
# stage completions first (they free capacity), then deadlines, then arrivals.
_STAGE_DONE = 0
_DEADLINE = 1
_ARRIVAL = 2


class PoolSimulator:
    """Runs one serving episode under a given policy.

    The simulator repeatedly asks the policy for a timeline of (task, stage)
    items ("when the timeline has been executed, the algorithm restarts again
    with the most recent utility estimates") and feeds free workers from that
    timeline, skipping items that became stale (task evicted / stage already
    run / cannot meet its deadline).
    """

    def __init__(
        self,
        oracles: Sequence[TaskOracle],
        policy: SchedulingPolicy,
        config: Optional[SimulationConfig] = None,
        task_latency_constraints: Optional[Sequence[float]] = None,
        arrival_times: Optional[Sequence[float]] = None,
    ) -> None:
        if not oracles:
            raise ValueError("need at least one task")
        self.oracles = list(oracles)
        self.policy = policy
        self.config = config or SimulationConfig()
        if arrival_times is not None:
            if len(arrival_times) != len(self.oracles):
                raise ValueError("arrival_times must align with oracles")
            if any(a < 0 for a in arrival_times):
                raise ValueError("arrival times must be non-negative")
            self.arrival_times = [float(a) for a in arrival_times]
        else:
            self.arrival_times = None
        if task_latency_constraints is not None:
            if len(task_latency_constraints) != len(self.oracles):
                raise ValueError(
                    "task_latency_constraints must align with oracles"
                )
            if any(c <= 0 for c in task_latency_constraints):
                raise ValueError("latency constraints must be positive")
            self.task_latency_constraints = [float(c) for c in task_latency_constraints]
        else:
            self.task_latency_constraints = None
        num_stages = self.oracles[0].num_stages
        if any(o.num_stages != num_stages for o in self.oracles):
            raise ValueError("all oracles must have the same stage count")
        if len(self.config.stage_times) != num_stages:
            raise ValueError(
                f"config has {len(self.config.stage_times)} stage times but "
                f"oracles have {num_stages} stages"
            )
        self.num_stages = num_stages

    # ------------------------------------------------------------------
    def run(self) -> EpisodeResult:
        cfg = self.config
        failure_rng = np.random.default_rng(cfg.failure_seed)
        tel = telemetry.active()
        records: Dict[int, TaskRecord] = {}
        active: Dict[int, TaskRecord] = {}
        # Admission order pops from the front for every admitted task, so the
        # backlog is a deque — list.pop(0) here was O(n) per admission.
        timeline: Deque[PlanItem] = deque()
        busy_time = 0.0
        makespan = 0.0
        counter = itertools.count()
        events: List[Tuple[float, int, int, tuple]] = []

        def arrival_of(tid: int) -> float:
            return self.arrival_times[tid] if self.arrival_times is not None else 0.0

        order = list(range(len(self.oracles)))
        if self.arrival_times is not None:
            order.sort(key=lambda tid: (arrival_of(tid), tid))
        backlog: Deque[int] = deque(order)

        # ---- admission control (disabled unless the config bounds it) ----
        adm = (
            cfg.admission
            if cfg.admission is not None and cfg.admission.bounded
            else None
        )
        bucket = (
            TokenBucket(adm.rate_limit_per_s, adm.burst)
            if adm is not None and adm.rate_limit_per_s is not None
            else None
        )
        rate_checked: set = set()
        peak_queue_depth = 0
        predictor = getattr(self.policy, "predictor", None)
        mean_stage_time = float(np.mean(cfg.stage_times))
        constraints = self.task_latency_constraints or (
            [cfg.latency_constraint] * len(self.oracles)
        )

        def waiting_ids(now: float) -> List[int]:
            """Arrived-but-unadmitted task ids (the ingress queue)."""
            out: List[int] = []
            for tid in backlog:  # sorted by arrival, so stop at the future
                if arrival_of(tid) > now + 1e-12:
                    break
                out.append(tid)
            return out

        def new_record(tid: int, now: float) -> TaskRecord:
            # Closed-loop (no arrival times): a task "arrives" when
            # admitted, matching the paper's constant-concurrency test.
            # Open-loop: the clock starts at the true arrival instant,
            # so queueing delay counts against the latency constraint.
            arrived = arrival_of(tid) if self.arrival_times is not None else now
            return TaskRecord(
                task_id=tid,
                arrival_time=arrived,
                deadline=arrived + constraints[tid],
                num_stages=self.num_stages,
            )

        def shed_task(
            tid: int, now: float, reason: str, view: Optional[TaskView] = None
        ) -> None:
            """Drop a waiting task before it receives any service."""
            backlog.remove(tid)
            records[tid] = new_record(tid, now)
            if tel is not None and reason == "rate-limit":
                tel.trace.admission_reject(
                    now, "simulator", reason, bucket.retry_after(now=now)
                )
            utility = (
                expected_utility(view, predictor, now, mean_stage_time)
                if view is not None
                else 0.0
            )
            shed(records[tid], now, utility, tel, "simulator")

        def manage_overload(now: float) -> None:
            """Rate-limit and queue-bound the ingress before admitting."""
            waiting = waiting_ids(now)
            if bucket is not None:
                for tid in list(waiting):
                    if tid in rate_checked:
                        continue
                    rate_checked.add(tid)
                    if not bucket.try_acquire(now=now):
                        shed_task(tid, now, reason="rate-limit")
                        waiting.remove(tid)
            depth = adm.max_queue_depth
            # Tasks about to be admitted into free concurrency slots don't
            # occupy the waiting queue — only the remainder is bounded.
            slots = max(0, cfg.concurrency - len(active))
            excess = len(waiting) - slots - (depth if depth is not None else len(waiting))
            if depth is not None and excess > 0:
                views = {tid: new_record(tid, now).view() for tid in waiting}
                to_shed = select_shed(
                    list(views.values()),
                    excess,
                    predictor=predictor,
                    now=now,
                    stage_time_s=mean_stage_time,
                    policy=adm.shed_policy,
                )
                for tid in to_shed:
                    shed_task(tid, now, reason="queue-full", view=views[tid])

        if tel is not None:
            tel.registry.counter("simulator.tasks_submitted").inc(len(self.oracles))
            tel.registry.counter("simulator.tasks_completed")
            tel.registry.counter("simulator.deadline_misses")
            tel.registry.counter("simulator.utility_accrued")

        def admit(now: float) -> None:
            nonlocal peak_queue_depth
            if adm is not None:
                manage_overload(now)
            while (
                backlog
                and len(active) < cfg.concurrency
                and arrival_of(backlog[0]) <= now + 1e-12
            ):
                tid = backlog.popleft()
                record = records[tid] = new_record(tid, now)
                if (
                    adm is not None
                    and adm.degrade_queue_depth is not None
                    and len(waiting_ids(now)) > adm.degrade_queue_depth
                ):
                    # Degrade-before-drop: admitted into a congested system,
                    # so cap the task at an early exit to turn capacity over
                    # faster.
                    degrade(record, adm.degrade_stage_cap, now, tel, "simulator")
                if record.deadline <= now:
                    # The latency constraint expired while the task queued:
                    # evicted as of its deadline, with nothing computed.
                    expire(
                        record, now, cfg.anytime, tel, "simulator",
                        evicted_at=record.deadline,
                    )
                    continue
                active[tid] = record
                if tel is not None:
                    tel.trace.admit(now, tid, deadline=record.deadline)
                heapq.heappush(
                    events, (record.deadline, _DEADLINE, next(counter), (tid,))
                )
            depth_now = len(waiting_ids(now))
            if depth_now > peak_queue_depth:
                peak_queue_depth = depth_now
            if tel is not None and adm is not None:
                tel.registry.gauge("simulator.queue_depth").set(depth_now)

        def release(tid: int, now: float) -> None:
            """Slot turnover: ``tid`` reached its terminal state, so its
            concurrency slot goes to the next backlogged task."""
            del active[tid]
            if replan_on_events:
                # Gen-2: a completion changes the joint budget picture;
                # drop the stale timeline so the next dispatch re-plans.
                timeline.clear()
            admit(now)

        in_flight: set = set()  # task ids with a stage currently executing
        #: gen-2 policies re-plan their joint budgets on every arrival and
        #: completion; gen-1 policies keep the cheaper drain-then-replan.
        replan_on_events = bool(getattr(self.policy, "plans_stage_budgets", False))

        def next_item(now: float) -> Optional[PlanItem]:
            """Pop the next valid work item, replanning at most once.

            A task with a stage already on a worker is never double-scheduled
            (its stages are sequential), so it is filtered both from stale
            timeline items and from the views handed to the policy.
            """
            nonlocal timeline
            for attempt in range(2):
                while timeline:
                    tid, stage = timeline.popleft()
                    record = active.get(tid)
                    if record is None or record.done or tid in in_flight:
                        continue
                    if record.next_stage != stage:
                        continue
                    duration = cfg.stage_times[stage]
                    if cfg.skip_doomed_stages and now + duration > record.deadline:
                        continue
                    return tid, stage
                if attempt == 0:
                    views = [
                        r.view()
                        for r in active.values()
                        if not r.done and r.task_id not in in_flight
                    ]
                    # Gen-2 caps pay through slot turnover, so they apply
                    # only while somebody is actually waiting for admission.
                    order, finished = replan(
                        self.policy, active, views, now, tel, "simulator",
                        contended=bool(waiting_ids(now)),
                    )
                    timeline = deque(order)
                    # Revoked down to its executed frontier, a task is
                    # complete now: its slot turns over at once instead of
                    # idling until the deadline daemon fires.
                    for ptid in finished:
                        release(ptid, now)
                    if not timeline:
                        return None
            return None

        running: Dict[int, Tuple[int, int]] = {}  # worker -> (tid, stage)
        free_workers = list(range(cfg.num_workers))

        def dispatch(now: float) -> None:
            nonlocal busy_time
            while free_workers:
                item = next_item(now)
                if item is None:
                    return
                worker = free_workers.pop()
                tid, stage = item
                duration = cfg.stage_times[stage]
                running[worker] = (tid, stage)
                in_flight.add(tid)
                busy_time += duration
                heapq.heappush(
                    events,
                    (now + duration, _STAGE_DONE, next(counter), (worker, tid, stage)),
                )

        if self.arrival_times is not None:
            for tid in backlog:
                heapq.heappush(
                    events, (arrival_of(tid), _ARRIVAL, next(counter), (tid,))
                )
        admit(0.0)
        dispatch(0.0)

        while events:
            now, kind, _, payload = heapq.heappop(events)
            if kind == _STAGE_DONE:
                makespan = max(makespan, now)
                worker, tid, stage = payload
                running.pop(worker, None)
                free_workers.append(worker)
                in_flight.discard(tid)
                failed = (
                    cfg.stage_failure_prob > 0.0
                    and failure_rng.random() < cfg.stage_failure_prob
                )
                record = records[tid]
                if failed:
                    pass  # time was spent, no result; task stays schedulable
                elif not record.done and now <= record.deadline + 1e-12:
                    oracle = self.oracles[tid]
                    previous_conf = record.latest_confidence or 0.0
                    record.outcomes.append(
                        StageOutcome(
                            stage=stage,
                            prediction=oracle.predictions[stage],
                            confidence=oracle.confidences[stage],
                            correct=oracle.correct[stage],
                        )
                    )
                    if tel is not None:
                        # Utility = confidence gain of the executed stage
                        # (the paper's service-utility objective).
                        gain = oracle.confidences[stage] - previous_conf
                        if gain > 0:
                            tel.registry.counter("simulator.utility_accrued").inc(gain)
                    if record.complete:
                        finish(record, now, tel, "simulator")
                        release(tid, now)
                dispatch(now)
            elif kind == _DEADLINE:
                (tid,) = payload
                record = active.get(tid)
                if record is not None:
                    # The daemon: the task leaves with the stages it ran.
                    # (A task that ends any other way is released at once,
                    # so an active task is never done here.)
                    makespan = max(makespan, now)
                    expire(record, now, cfg.anytime, tel, "simulator")
                    release(tid, now)
                dispatch(now)
            elif kind == _ARRIVAL:
                if replan_on_events:
                    # Gen-2: a new arrival may out-bid in-progress optional
                    # stages — force a fresh joint budget plan.
                    timeline.clear()
                admit(now)
                dispatch(now)

        # Tasks still active when events drain (shouldn't happen: deadlines
        # guarantee progress) expire at their deadline, and so do backlog
        # leftovers (possible only in open-loop corner cases), with no
        # stages executed.
        for tid, record in list(active.items()):
            expire(record, record.deadline, cfg.anytime, tel, "simulator")
            release(tid, record.deadline)
        for tid in backlog:
            record = records[tid] = new_record(tid, arrival_of(tid))
            expire(record, record.deadline, cfg.anytime, tel, "simulator")

        ordered = [records[tid] for tid in sorted(records)]
        return EpisodeResult(
            records=ordered,
            makespan=makespan,
            busy_time=busy_time,
            num_workers=cfg.num_workers,
            peak_queue_depth=peak_queue_depth,
        )


def run_episodes(
    oracles: Sequence[TaskOracle],
    policy_factory,
    config: SimulationConfig,
    episodes: int = 5,
    tasks_per_episode: int = 60,
    seed: int = 0,
) -> List[EpisodeResult]:
    """Run several episodes over random task subsets; returns their results.

    ``policy_factory`` must build a *fresh* policy per episode (policies may
    carry cursor state).  Episode task subsets are drawn with a seeded RNG so
    sweeps across policies see identical workloads.
    """
    rng = np.random.default_rng(seed)
    results = []
    for _ in range(episodes):
        idx = rng.choice(len(oracles), size=min(tasks_per_episode, len(oracles)), replace=False)
        subset = [oracles[i] for i in idx]
        sim = PoolSimulator(subset, policy_factory(), config)
        results.append(sim.run())
    return results
