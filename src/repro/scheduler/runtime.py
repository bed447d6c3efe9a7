"""User-space real-time inference runtime (the paper's scheduler loop).

Where :mod:`repro.scheduler.simulator` replays precomputed oracles for
deterministic experiments, this module actually executes a
:class:`~repro.nn.resnet.StagedResNet` stage by stage under the scheduler,
on the thread that calls :meth:`StagedInferenceRuntime.run_until_complete`.
Every turn of the scheduler loop does four things, in order:

1. sweep for expired tasks (``expire_overdue``);
2. form one same-stage batch, re-planning only when the timeline is empty
   ("restarts again with the most recent utility estimates");
3. run the batch: stem (stage 0 only), stage, softmax;
4. sweep again — a stage whose task passed its deadline meanwhile is
   discarded — then apply the results.

The task lifecycle is not this module's: every overdue task goes to the
shared :func:`~repro.scheduler.task.expire`, every completed one to
:func:`~repro.scheduler.task.finish`, admission overload to
:func:`~repro.scheduler.task.shed` / :func:`~repro.scheduler.task.degrade`,
and re-planning to :func:`~repro.scheduler.gen2.replan` — the same calls
:mod:`repro.scheduler.simulator` makes.  What stays here is what differs:
batch formation and the sweep's time to the nearest live deadline.

The paper runs stages in a pool of worker processes fed over named pipes.
Here that pool is the process-replica tier (:mod:`repro.cluster`): each
replica is a process, and inside one replica the stages run on the
scheduler thread.  Under the GIL, worker threads would add hand-offs but
no parallelism.  The paper's latency-constraint daemon is a role, not a
thread: the sweep is the one place a deadline is compared against the
clock, so a deadline is noticed at most one stage batch late.  That clock
is the runtime's injected :class:`~repro.clock.Clock` — real time by
default; under a :class:`~repro.clock.VirtualClock` every deadline, stall
and wait is virtual, and a run is a deterministic function of its inputs.

Implemented in user space, no OS support needed — the portability argument
of Section III.

Two inference-fast-path extensions beyond the paper's design:

- **No-grad stage execution.**  Stages run through the model's raw-ndarray
  :meth:`~repro.nn.resnet.StagedResNet.infer_stage` path, so serving never
  pays autograd-graph construction.
- **Micro-batching.**  When ``RuntimeConfig.max_batch > 1`` one stage
  execution serves up to ``max_batch`` tasks at the *same* stage (one BLAS
  matmul instead of ``B`` small ones); the per-task confidences are split
  back out of the batch afterwards.  Batches are formed right after the
  expiry sweep, so an evicted task can never appear in one.

Resilience (exercised by :mod:`repro.faults` and ``tests/faults/``):

- **Result validation.**  Stage results with non-finite confidences (the
  ``corrupt`` fault kind) are rejected and their tasks re-run rather than
  served.
- **Transient errors.**  An ``error`` fault raises
  :class:`~repro.faults.TransientServiceError` out of
  :meth:`~StagedInferenceRuntime.run_until_complete` (and so out of the
  service's ``infer()``), for the client's retry or the router's failover.
- **Graceful degradation.**  A task that cannot finish all stages inside
  its budget still reports the best already-computed stage's result,
  flagged via :attr:`RuntimeTaskResult.degraded` / ``served_stage``.

Injection site: ``runtime.stage``, consulted just before each stage batch
runs (``latency``/``hang`` stall inline, ``corrupt``, ``error``).  It
disarms to one global read + ``None`` check.  A crashed or hung stage
process is a replica-level fault (``cluster.replica.call``).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from .. import faults, telemetry
from ..admission import AdmissionConfig, expected_utility, select_shed
from ..clock import MONOTONIC, Clock
from ..nn import functional as F
from ..nn.resnet import StagedResNet
from .gen2 import replan
from .policies import SchedulingPolicy
from .task import StageOutcome, TaskRecord, degrade, expire, finish, shed

#: Named injection site this module consults (see docs/FAULTS.md).
STAGE_SITE = "runtime.stage"


@dataclass
class RuntimeConfig:
    #: seconds each task may stay in the system (the latency constraint).
    latency_constraint: float = 5.0
    #: maximum number of same-stage tasks coalesced into one batched stage
    #: execution (1 = the paper's one-image-per-stage behaviour).
    max_batch: int = 1
    #: admission control / overload management (:mod:`repro.admission`):
    #: bounds the admitted-but-unserved queue, degrading excess tasks to an
    #: early exit and shedding past the hard bound.  ``None`` (default)
    #: keeps the unbounded legacy behaviour — and the fast path untouched.
    admission: Optional[AdmissionConfig] = None
    #: anytime-inference contract (gen-2 imprecise computations): a task
    #: whose latency constraint expires with at least one completed stage is
    #: *served* its best-so-far early-exit result at the deadline (degraded,
    #: never late) instead of being evicted.  Only tasks that finished
    #: nothing at all still count as deadline misses.
    anytime: bool = False

    def __post_init__(self) -> None:
        if self.latency_constraint <= 0:
            raise ValueError("latency constraint must be positive")
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")


@dataclass
class RuntimeTaskResult:
    """Outcome of one task after the runtime drains."""

    task_id: int
    outcomes: List[StageOutcome]
    evicted: bool
    #: seconds from the episode start to the task's terminal state; 0.0
    #: for a shed task, which received no service.
    elapsed: float
    #: all stages ran inside the budget (the non-degraded happy path).
    completed: bool = False
    #: dropped by admission control before receiving any service; a shed
    #: task has no outcomes and counts toward neither goodput nor misses.
    shed: bool = False
    #: the anytime contract served this task's best-so-far early exit at
    #: its deadline (a degraded answer, delivered on time — never late).
    anytime_served: bool = False

    @property
    def prediction(self) -> Optional[int]:
        return self.outcomes[-1].prediction if self.outcomes else None

    @property
    def confidence(self) -> Optional[float]:
        return self.outcomes[-1].confidence if self.outcomes else None

    @property
    def served_stage(self) -> Optional[int]:
        """Which stage the served result came from (``None`` = no result)."""
        return self.outcomes[-1].stage if self.outcomes else None

    @property
    def degraded(self) -> bool:
        """Served from an early exit because later stages never finished
        inside the budget (fault, deadline, or a degrade-mode stage cap) —
        a result, but a weaker one."""
        return not self.completed and bool(self.outcomes)


def _eligible(records: Dict[int, TaskRecord], tid: int, stage: int) -> bool:
    """Can (tid, stage) be executed right now?"""
    record = records.get(tid)
    return record is not None and not record.done and record.next_stage == stage


def form_batch(
    timeline: Deque[tuple],
    records: Dict[int, TaskRecord],
    max_batch: int,
) -> Tuple[List[int], Optional[int], Deque[tuple]]:
    """Pop one same-stage micro-batch off the timeline.

    Scans from the front: the first eligible entry fixes the batch's stage;
    further eligible entries for the same stage join it (up to
    ``max_batch``); eligible entries for *other* stages keep their timeline
    position; stale entries (done, evicted, or whose stage no longer
    matches the task's next stage) are dropped, exactly as the unbatched
    scheduler dropped them.

    Returns ``(batch_task_ids, stage, remaining_timeline)``.  Only the
    scheduler loop evicts and only it forms batches, right after its
    sweep, which is what guarantees an evicted task can never appear in a
    formed batch.
    """
    batch: List[int] = []
    stage: Optional[int] = None
    leftovers: Deque[tuple] = deque()
    while timeline:
        tid, st = timeline.popleft()
        if not _eligible(records, tid, st):
            continue
        if stage is None:
            stage = st
            batch.append(tid)
        elif st == stage:
            # A duplicate entry for an already-batched (tid, stage) is
            # redundant now that the batch covers it: drop it.
            if tid not in batch:
                batch.append(tid)
        else:
            leftovers.append((tid, st))
        if len(batch) >= max_batch:
            break
    leftovers.extend(timeline)
    return batch, stage, leftovers


class StagedInferenceRuntime:
    """Executes submitted inputs through a staged model under a policy."""

    def __init__(
        self,
        model: StagedResNet,
        policy: SchedulingPolicy,
        config: Optional[RuntimeConfig] = None,
        clock: Clock = MONOTONIC,
    ) -> None:
        self.model = model
        self.policy = policy
        self.config = config or RuntimeConfig()
        self.clock = clock
        self._inputs: List[np.ndarray] = []
        #: (stage, task_ids) of every dispatched micro-batch, for the last
        #: :meth:`run_until_complete` call — introspection for tests/metrics.
        self.batch_log: List[Tuple[int, Tuple[int, ...]]] = []

    def submit(self, inputs: np.ndarray) -> List[int]:
        """Queue a batch of single-image tasks; returns their task ids."""
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.ndim != 4:
            raise ValueError("inputs must be (N, C, H, W)")
        start = len(self._inputs)
        for i in range(inputs.shape[0]):
            self._inputs.append(inputs[i : i + 1])
        return list(range(start, len(self._inputs)))

    # ------------------------------------------------------------------
    def _apply_admission(
        self,
        records: Dict[int, TaskRecord],
        admission: AdmissionConfig,
        tel,
        now: float,
        stage_time_s: float = 0.0,
    ) -> None:
        """Overload management over the submitted batch (before serving).

        Every submitted task beyond ``max_queue_depth`` is shed —
        lowest expected utility first, scored with the scheduling policy's
        own confidence predictor when it has one.  Survivors beyond
        ``degrade_queue_depth`` are capped at ``degrade_stage_cap`` stages
        (degrade-before-drop), composing with the runtime's existing
        graceful-degradation reporting.

        ``now`` is the runtime's actual clock (seconds since the episode
        started): the deadline-feasibility discount inside
        :func:`expected_utility` compares it against task deadlines, so a
        hard-coded 0.0 here mis-ranked near-deadline tasks and stamped
        every shed/degrade trace event at t=0.
        """
        live = [r for r in records.values() if not r.done]
        predictor = getattr(self.policy, "predictor", None)
        depth = admission.max_queue_depth
        if depth is not None and len(live) > depth:
            views = {r.task_id: r.view() for r in live}
            to_shed = select_shed(
                list(views.values()),
                len(live) - depth,
                predictor=predictor,
                now=now,
                stage_time_s=stage_time_s,
                policy=admission.shed_policy,
            )
            for tid in to_shed:
                utility = expected_utility(
                    views[tid], predictor, now=now, stage_time_s=stage_time_s
                )
                shed(records[tid], now, utility, tel, "runtime")
            live = [r for r in live if not r.shed]
        degrade_depth = admission.degrade_queue_depth
        if degrade_depth is not None and len(live) > degrade_depth:
            views = [r.view() for r in live]
            # The same utility ranking picks which survivors to degrade:
            # the lowest-expected-utility tasks lose the least by exiting
            # early, so they take the stage cap.
            to_degrade = select_shed(
                views,
                len(live) - degrade_depth,
                predictor=predictor,
                now=now,
                stage_time_s=stage_time_s,
                policy=admission.shed_policy,
            )
            for tid in to_degrade:
                degrade(records[tid], admission.degrade_stage_cap, now, tel, "runtime")

    # ------------------------------------------------------------------
    def run_until_complete(self) -> List[RuntimeTaskResult]:
        """Serve every submitted task to completion or eviction.

        Runs entirely on the calling thread and consumes the submitted
        inputs, also when a stage raises an injected transient error.
        """
        inputs, self._inputs = self._inputs, []
        if not inputs:
            return []
        self.model.eval()
        cfg = self.config
        clock = self.clock
        t0 = clock.now()
        self.batch_log = []
        tel = telemetry.active()

        records: Dict[int, TaskRecord] = {}
        features: Dict[int, np.ndarray] = {}

        if tel is not None:
            # Pre-create the episode counters so a clean run still exports
            # an explicit zero for misses rather than omitting the series.
            tel.registry.counter("runtime.tasks_submitted").inc(len(inputs))
            tel.registry.counter("runtime.tasks_completed")
            tel.registry.counter("runtime.deadline_misses")

        for tid in range(len(inputs)):
            records[tid] = TaskRecord(
                task_id=tid,
                arrival_time=0.0,
                deadline=cfg.latency_constraint,
                num_stages=self.model.num_stages,
            )
            if tel is not None:
                # Episode-relative arrival: every task arrives when the
                # episode starts (``submit`` only queues inputs, and each
                # deadline counts from the same origin as every later stamp).
                tel.trace.admit(0.0, tid, deadline=cfg.latency_constraint)

        if cfg.admission is not None and cfg.admission.bounded:
            # Scored at the runtime's actual clock (non-zero once model
            # warm-up and record setup have run), not a hard-coded t=0.
            self._apply_admission(
                records, cfg.admission, tel, now=clock.now() - t0
            )

        def expire_overdue(now: float, at_deadline: bool = False) -> float:
            """The latency-constraint daemon of Section III, as a sweep.

            Closes every live task whose deadline has passed — the one place
            a deadline is compared against the clock — through the shared
            :func:`expire` (served best-so-far under the anytime contract,
            else evicted).  A task is still live at its deadline instant
            unless ``at_deadline``: nothing will run it any more.  Returns
            the seconds to the next live deadline (``inf`` when no task is
            live).
            """
            nearest = math.inf
            for record in records.values():
                if record.done:
                    continue
                if now < record.deadline or (
                    now == record.deadline and not at_deadline
                ):
                    nearest = min(nearest, record.deadline)
                else:
                    expire(record, now, cfg.anytime, tel, "runtime")
            return nearest - now

        timeline: Deque[tuple] = deque()

        def next_batch(now: float) -> Tuple[List[int], Optional[int]]:
            """Form the next single-stage batch with at most one ``plan()``.

            Entries come off the timeline first; only when it yields
            nothing does the policy re-plan (one shared :func:`replan`;
            with no admission queue here, "contended" is the plan's own
            capacity deficit) and the timeline is read again.  The batch is
            then topped up from the other eligible tasks at its stage, in
            task-id order: RTDeepIoT-k plans one task's work at a time, so
            its timeline alone would end a batch at the first pick at
            another stage.
            """
            nonlocal timeline
            batch, stage, timeline = form_batch(timeline, records, cfg.max_batch)
            if not batch:
                candidates = [r.view() for r in records.values() if not r.done]
                order, _ = replan(
                    self.policy, records, candidates, now, tel, "runtime"
                )
                timeline.extend(order)
                batch, stage, timeline = form_batch(
                    timeline, records, cfg.max_batch
                )
            for tid in records:
                if len(batch) >= cfg.max_batch:
                    break
                if tid not in batch and _eligible(records, tid, stage):
                    batch.append(tid)
            return batch, stage

        while True:
            now = clock.now() - t0
            to_deadline = expire_overdue(now)
            if all(r.done for r in records.values()):
                break
            batch, stage = next_batch(now)
            if not batch:
                # The policy will run none of the live tasks: all they can
                # do is wait out their deadlines.
                clock.sleep(to_deadline)
                expire_overdue(clock.now() - t0, at_deadline=True)
                continue
            tids = tuple(batch)
            self.batch_log.append((stage, tids))
            if tel is not None:
                tel.registry.histogram("runtime.batch_occupancy", lo=0.5).observe(
                    len(tids)
                )
                live = sum(1 for r in records.values() if not r.done)
                queue_depth = live - len(tids)
                tel.registry.gauge("runtime.queue_depth").set(queue_depth)
                tel.registry.histogram("runtime.queue_depth", lo=0.5).observe(
                    queue_depth
                )
                tel.trace.stage_dispatch(now, stage, tids)
            decision = faults.inject(STAGE_SITE)
            if decision is not None:
                if decision.kind == faults.ERROR:
                    raise faults.TransientServiceError(
                        f"injected transient error at {STAGE_SITE} "
                        f"(invocation {decision.index})"
                    )
                if decision.kind in (faults.LATENCY, faults.HANG):
                    clock.sleep(decision.latency_s)
            start = clock.now()
            if stage == 0:
                feats = self.model.infer_stem(
                    np.concatenate([inputs[tid] for tid in tids], axis=0)
                )
            else:
                feats = np.concatenate([features[tid] for tid in tids], axis=0)
            new_features, logits = self.model.infer_stage(feats, stage)
            probs = F.softmax_infer(logits, axis=-1)
            predictions = probs.argmax(axis=-1)
            confidences = probs.max(axis=-1)
            if decision is not None and decision.kind == faults.CORRUPT:
                confidences = np.full_like(confidences, np.nan)
            if tel is not None:
                elapsed_ms = 1e3 * (clock.now() - start)
                tel.registry.histogram(
                    f"runtime.stage_latency_ms.stage{stage}"
                ).observe(elapsed_ms)
                tel.registry.histogram("runtime.stage_latency_ms.all").observe(
                    elapsed_ms
                )
            now = clock.now() - t0
            # A stage that finished past its task's deadline is discarded,
            # as the simulator does: the sweep closes the task first.
            expire_overdue(now)
            if not np.all(np.isfinite(confidences)):
                # Corrupted payload: reject the whole batch; its tasks stay
                # schedulable and re-run — a NaN confidence must never
                # reach the policy or a client.
                if tel is not None:
                    tel.registry.counter("runtime.corrupt_results").inc()
                    tel.trace.item_retry(now, stage, tids)
                continue
            for i, tid in enumerate(tids):
                record = records[tid]
                if record.done:
                    # Evicted, shed, or already served best-so-far by the
                    # anytime contract: a late stage result must never be
                    # appended after the response.
                    continue
                record.outcomes.append(
                    StageOutcome(
                        stage=stage,
                        prediction=int(predictions[i]),
                        confidence=float(confidences[i]),
                    )
                )
                features[tid] = new_features[i : i + 1].copy()
                if record.complete:
                    finish(record, now, tel, "runtime")

        results = []
        for tid in sorted(records):
            record = records[tid]
            results.append(
                RuntimeTaskResult(
                    task_id=tid,
                    outcomes=list(record.outcomes),
                    evicted=record.evicted,
                    elapsed=0.0 if record.shed else float(record.finish_time),
                    completed=record.fully_complete,
                    shed=record.shed,
                    anytime_served=record.anytime_served,
                )
            )
        return results
