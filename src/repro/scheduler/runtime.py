"""User-space real-time inference runtime (the paper's process-pool design).

Where :mod:`repro.scheduler.simulator` replays precomputed oracles for
deterministic experiments, this module actually executes a
:class:`~repro.nn.resnet.StagedResNet` stage by stage under the scheduler, in
threads (the Python analogue of the paper's worker-process pool):

- a pool of worker threads pulls (task, stage) work items from a queue,
  runs one network stage, and reports ``(prediction, confidence)`` back to
  the scheduler over a result queue — the role the paper gives to Linux
  named pipes;
- the scheduler loop re-plans with the freshest confidences whenever its
  timeline drains ("restarts again with the most recent utility estimates");
- the paper's latency-constraint daemon is a role, not a thread: the
  scheduler loop sweeps for expired tasks every turn and sleeps no longer
  than the next live deadline; a stage whose result arrives after eviction
  is discarded, the worker simply "returns to the pool".

Implemented in user space, no OS support needed — the portability argument
of Section III.

Two inference-fast-path extensions beyond the paper's design:

- **No-grad stage execution.**  Workers run stages through the model's
  raw-ndarray :meth:`~repro.nn.resnet.StagedResNet.infer_stage` path, so
  serving never pays autograd-graph construction.
- **Micro-batching.**  When ``RuntimeConfig.max_batch > 1`` the scheduler
  coalesces queued (task, stage) items for the *same* stage into one
  batched stage execution (one BLAS matmul instead of ``B`` small ones) and
  splits the per-task confidences back out of the batch afterwards.  An
  optional ``drain_window`` lets an undersized batch briefly wait for more
  same-stage work while other results are still in flight.  Batches are
  formed by the same thread that evicts, right after its expiry sweep, so
  an evicted task can never appear in a newly formed batch.

Resilience (exercised by :mod:`repro.faults` and ``tests/faults/``):

- **Lost-item watchdog.**  Every dispatched micro-batch is tracked until
  its result returns; an item outstanding longer than
  ``RuntimeConfig.item_timeout`` (a crashed/hung worker, a dropped result)
  is declared lost, its tasks are released back to the scheduler, and a
  late result for a reaped item is discarded as stale.
- **Worker respawn.**  A worker thread that dies (the ``crash`` fault
  kind) is detected and replaced, so pool capacity survives crashes.
- **Result validation.**  Stage results with non-finite confidences (the
  ``corrupt`` fault kind) are rejected and re-executed rather than served.
- **Graceful degradation.**  A task that cannot finish all stages inside
  its budget still reports the best already-computed stage's result,
  flagged via :attr:`RuntimeTaskResult.degraded` / ``served_stage``.

Injection sites: ``runtime.worker.stage`` (all fault kinds) and
``runtime.dispatch`` (``latency``/``hang`` only — the scheduler thread
must never die).  Both disarm to one global read + ``None`` check.
"""

from __future__ import annotations

import itertools
import math
import queue
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import faults, telemetry
from ..admission import AdmissionConfig, expected_utility, select_shed
from ..nn import functional as F
from ..nn.resnet import StagedResNet
from .gen2 import apply_stage_budgets
from .policies import SchedulingPolicy
from .task import StageOutcome, TaskRecord

#: Named injection sites this module consults (see docs/FAULTS.md).
WORKER_STAGE_SITE = "runtime.worker.stage"
DISPATCH_SITE = "runtime.dispatch"


@dataclass
class RuntimeConfig:
    num_workers: int = 2
    #: seconds each task may stay in the system (the latency constraint).
    latency_constraint: float = 5.0
    #: maximum number of same-stage tasks coalesced into one batched stage
    #: execution (1 = the paper's one-image-per-worker behaviour).
    max_batch: int = 1
    #: seconds an undersized batch may be held back waiting for more
    #: same-stage work while other results are still in flight (0 = never
    #: wait; dispatch whatever was coalesced immediately).
    drain_window: float = 0.0
    #: seconds a dispatched micro-batch may stay outstanding before the
    #: scheduler declares it lost (crashed/hung worker, dropped result) and
    #: releases its tasks for re-execution.  Generous by default: a healthy
    #: pool never trips it, so the disarmed behaviour is unchanged.
    item_timeout: float = 5.0
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
        if self.num_workers < 1:
            raise ValueError("need at least one worker")
        if self.latency_constraint <= 0:
            raise ValueError("latency constraint must be positive")
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.drain_window < 0:
            raise ValueError("drain_window must be non-negative")
        if self.drain_window > 0 and self.max_batch <= 1:
            raise ValueError(
                "drain_window > 0 requires max_batch > 1: a single-task "
                "batch can never grow, so holding it back only adds latency"
            )
        if self.item_timeout <= 0:
            raise ValueError("item_timeout must be positive")


@dataclass
class RuntimeTaskResult:
    """Outcome of one task after the runtime drains."""

    task_id: int
    outcomes: List[StageOutcome]
    evicted: bool
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


class _WorkItem:
    """One unit of worker work: a same-stage micro-batch of tasks."""

    __slots__ = ("item_id", "task_ids", "stage", "features", "needs_stem")

    def __init__(
        self,
        item_id: int,
        task_ids: Tuple[int, ...],
        stage: int,
        features: np.ndarray,
        needs_stem: bool,
    ) -> None:
        self.item_id = item_id
        self.task_ids = task_ids
        self.stage = stage
        self.features = features
        self.needs_stem = needs_stem


def _eligible(
    records: Dict[int, TaskRecord], in_flight: Dict[int, int], tid: int, stage: int
) -> bool:
    """Can (tid, stage) be executed right now?"""
    record = records.get(tid)
    return (
        record is not None
        and not record.done
        and tid not in in_flight
        and record.next_stage == stage
    )


def form_batch(
    timeline: Deque[tuple],
    records: Dict[int, TaskRecord],
    in_flight: Dict[int, int],
    max_batch: int,
) -> Tuple[List[int], Optional[int], Deque[tuple]]:
    """Pop one same-stage micro-batch off the timeline.

    Scans from the front: the first eligible entry fixes the batch's stage;
    further eligible entries for the same stage join it (up to
    ``max_batch``); eligible entries for *other* stages keep their timeline
    position; stale entries (done, evicted, already executing, or whose
    stage no longer matches the task's next stage) are dropped, exactly as
    the unbatched scheduler dropped them.

    Returns ``(batch_task_ids, stage, remaining_timeline)``.  Only the
    scheduler thread evicts and only it forms batches, which is what
    guarantees an evicted task can never appear in a formed batch.
    """
    batch: List[int] = []
    stage: Optional[int] = None
    leftovers: Deque[tuple] = deque()
    while timeline:
        tid, st = timeline.popleft()
        if not _eligible(records, in_flight, tid, st):
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


def _extract_stage(
    timeline: Deque[tuple],
    stage: int,
    need: int,
    records: Dict[int, TaskRecord],
    in_flight: Dict[int, int],
    exclude: set,
) -> Tuple[List[int], Deque[tuple]]:
    """Pull up to ``need`` eligible entries for ``stage`` out of the timeline.

    Used to top up a held-back (drain-window) batch.  Entries for other
    stages keep their position; stale entries are dropped.
    """
    taken: List[int] = []
    remaining: Deque[tuple] = deque()
    while timeline:
        tid, st = timeline.popleft()
        if not _eligible(records, in_flight, tid, st) or tid in exclude:
            continue
        if st == stage and len(taken) < need:
            taken.append(tid)
            exclude.add(tid)
        else:
            remaining.append((tid, st))
    return taken, remaining


class StagedInferenceRuntime:
    """Executes submitted inputs through a staged model under a policy."""

    def __init__(
        self,
        model: StagedResNet,
        policy: SchedulingPolicy,
        config: Optional[RuntimeConfig] = None,
    ) -> None:
        self.model = model
        self.policy = policy
        self.config = config or RuntimeConfig()
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
                record = records[tid]
                record.shed = True
                record.finish_time = now
                if tel is not None:
                    tel.registry.counter("runtime.tasks_shed").inc()
                    tel.trace.load_shed(
                        now,
                        tid,
                        expected_utility=expected_utility(
                            views[tid], predictor, now=now,
                            stage_time_s=stage_time_s,
                        ),
                    )
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
                records[tid].stage_cap = admission.degrade_stage_cap
                if tel is not None:
                    tel.registry.counter("runtime.tasks_degraded").inc()
                    tel.trace.degrade_cap(
                        now, tid, stage_cap=admission.degrade_stage_cap
                    )

    # ------------------------------------------------------------------
    def run_until_complete(self) -> List[RuntimeTaskResult]:
        """Serve every submitted task to completion or eviction."""
        # No lock: all task state below is read and written by the calling
        # (scheduler) thread only.  The only objects reachable from both a
        # worker and the scheduler are ``work_queue``, ``result_queue`` and
        # the read-only model (the process-wide faults / telemetry sessions
        # that workers also report to synchronise themselves).
        if not self._inputs:
            return []
        self.model.eval()
        cfg = self.config
        t0 = time.monotonic()
        self.batch_log = []
        tel = telemetry.active()

        records: Dict[int, TaskRecord] = {}
        features: Dict[int, np.ndarray] = {}
        work_queue: "queue.Queue[Optional[_WorkItem]]" = queue.Queue()
        result_queue: "queue.Queue[tuple]" = queue.Queue()

        if tel is not None:
            # Pre-create the episode counters so a clean run still exports
            # an explicit zero for misses rather than omitting the series.
            tel.registry.counter("runtime.tasks_submitted").inc(len(self._inputs))
            tel.registry.counter("runtime.tasks_completed")
            tel.registry.counter("runtime.deadline_misses")

        for tid, x in enumerate(self._inputs):
            records[tid] = TaskRecord(
                task_id=tid,
                arrival_time=0.0,
                deadline=cfg.latency_constraint,
                num_stages=self.model.num_stages,
            )
            if tel is not None:
                tel.trace.admit(0.0, tid, deadline=cfg.latency_constraint)

        if cfg.admission is not None and cfg.admission.bounded:
            # Scored at the runtime's actual clock (non-zero once model
            # warm-up and record setup have run), not a hard-coded t=0.
            self._apply_admission(
                records, cfg.admission, tel, now=time.monotonic() - t0
            )

        def worker_loop() -> None:
            for item in iter(work_queue.get, None):  # ``None`` = shut down
                decision = faults.inject(WORKER_STAGE_SITE)
                if decision is not None:
                    if decision.kind in (faults.LATENCY, faults.HANG):
                        # A slow (or apparently dead) worker: stall, then
                        # proceed.  A hang longer than item_timeout means the
                        # scheduler reaps the item and this result is stale.
                        time.sleep(decision.latency_s)
                    elif decision.kind == faults.CRASH:
                        # The worker process dies mid-item: thread exits
                        # without reporting; the supervisor respawns it and
                        # the watchdog requeues the lost item.
                        return
                    elif decision.kind in (faults.DROP, faults.ERROR):
                        # The stage result never reaches the scheduler (lost
                        # pipe write / transient executor error): swallow the
                        # item; the watchdog requeues its tasks.
                        continue
                start = time.perf_counter()
                feats = item.features
                if item.needs_stem:
                    feats = self.model.infer_stem(feats)
                new_features, logits = self.model.infer_stage(feats, item.stage)
                probs = F.softmax_infer(logits, axis=-1)
                predictions = probs.argmax(axis=-1)
                confidences = probs.max(axis=-1)
                if decision is not None and decision.kind == faults.CORRUPT:
                    confidences = np.full_like(confidences, np.nan)
                if tel is not None:
                    elapsed_ms = 1e3 * (time.perf_counter() - start)
                    tel.registry.histogram(
                        f"runtime.stage_latency_ms.stage{item.stage}"
                    ).observe(elapsed_ms)
                    tel.registry.histogram("runtime.stage_latency_ms.all").observe(
                        elapsed_ms
                    )
                result_queue.put(
                    (
                        item.item_id,
                        item.task_ids,
                        item.stage,
                        predictions,
                        confidences,
                        new_features,
                    )
                )

        def expire_overdue(now: float) -> float:
            """The latency-constraint daemon of Section III, as a sweep.

            Closes every live task whose deadline has passed — the one place
            a deadline is compared against the clock for eviction.  Under
            the anytime contract a task holding at least one stage result is
            *served* best-so-far at the deadline (degraded, never late);
            only a task with nothing computed is a deadline miss.  Returns
            the seconds to the next live deadline (``inf`` when no task is
            live), which bounds the scheduler's wait.
            """
            nearest = math.inf
            for record in records.values():
                if record.done:
                    continue
                tid = record.task_id
                if now <= record.deadline:
                    nearest = min(nearest, record.deadline)
                elif cfg.anytime and record.outcomes:
                    record.finalize_anytime(now)
                    if tel is not None:
                        tel.registry.counter("runtime.anytime_served").inc()
                        tel.trace.degraded(
                            record.finish_time, tid, record.outcomes[-1].stage
                        )
                else:
                    record.evicted = True
                    record.finish_time = now
                    if tel is not None:
                        tel.registry.counter("runtime.deadline_misses").inc()
                        tel.trace.deadline_miss(now, tid, deadline=record.deadline)
                        tel.trace.evict(now, tid, stages_done=record.stages_done)
            return nearest - now

        workers = [
            threading.Thread(target=worker_loop, daemon=True)
            for _ in range(cfg.num_workers)
        ]
        for w in workers:
            w.start()

        in_flight: Dict[int, int] = {}  # task_id -> stage being executed
        timeline: Deque[tuple] = deque()
        # Undersized batch waiting out the drain window: (tids, stage, t_formed).
        pending: Optional[Tuple[List[int], int, float]] = None
        # Dispatched micro-batches awaiting results:
        # item_id -> (task_ids, stage, dispatch time).  A result whose item
        # was already reaped by the watchdog is stale and discarded.
        outstanding: Dict[int, Tuple[Tuple[int, ...], int, float]] = {}
        item_ids = itertools.count()

        def dispatch(batch: Sequence[int], stage: int, now: float) -> None:
            """Hand a formed micro-batch to the worker pool."""
            decision = faults.inject(DISPATCH_SITE)
            if decision is not None and decision.kind in (faults.LATENCY, faults.HANG):
                # Only stalls make sense here: the scheduler thread itself
                # must never crash or drop work.
                time.sleep(decision.latency_s)
            tids = tuple(batch)
            if stage == 0:
                feats = np.concatenate([self._inputs[tid] for tid in tids], axis=0)
                needs_stem = True
            else:
                feats = np.concatenate([features[tid] for tid in tids], axis=0)
                needs_stem = False
            for tid in tids:
                in_flight[tid] = stage
            item_id = next(item_ids)
            outstanding[item_id] = (tids, stage, time.monotonic() - t0)
            self.batch_log.append((stage, tids))
            if tel is not None:
                tel.registry.histogram("runtime.batch_occupancy", lo=0.5).observe(
                    len(tids)
                )
                queue_depth = sum(
                    1
                    for r in records.values()
                    if not r.done and r.task_id not in in_flight
                )
                tel.registry.gauge("runtime.queue_depth").set(queue_depth)
                tel.registry.histogram("runtime.queue_depth", lo=0.5).observe(
                    queue_depth
                )
                tel.trace.stage_dispatch(now, stage, tids)
            work_queue.put(_WorkItem(item_id, tids, stage, feats, needs_stem))

        def next_batch(now: float) -> Tuple[List[int], Optional[int]]:
            """Form the next micro-batch, replanning as needed.

            Policies like FIFO and RTDeepIoT-k plan only one task's work at
            a time, so filling a batch requires replanning with the already
            batched tasks masked out: each fresh plan contributes its
            same-stage head items until the batch fills, the policy's next
            choice is a different stage, or no schedulable tasks remain.
            """
            nonlocal timeline
            batch: List[int] = []
            stage: Optional[int] = None
            replans = 0
            while True:
                if stage is None:
                    batch, stage, timeline = form_batch(
                        timeline, records, in_flight, cfg.max_batch
                    )
                    progressed = bool(batch)
                else:
                    extra, timeline = _extract_stage(
                        timeline,
                        stage,
                        cfg.max_batch - len(batch),
                        records,
                        in_flight,
                        set(batch),
                    )
                    batch.extend(extra)
                    progressed = bool(extra)
                if len(batch) >= cfg.max_batch:
                    break
                if not progressed and replans > 0:
                    break
                if replans >= cfg.max_batch:
                    break
                candidates = [
                    r.view()
                    for r in records.values()
                    if not r.done
                    and r.task_id not in in_flight
                    and r.task_id not in batch
                ]
                if not candidates:
                    break
                fresh = self.policy.plan(candidates, now)
                # Gen-2 preemption: freshly planned budgets tighten stage
                # caps (no-op for gen-1 policies).  A task revoked down to
                # its executed frontier is complete as of now.  The runtime
                # has no admission queue, so "contended" is the planner's
                # own capacity deficit: stages demanded but not fundable.
                preempted = apply_stage_budgets(
                    self.policy,
                    records,
                    now,
                    tel,
                    scope="runtime",
                    contended=bool(
                        getattr(
                            getattr(self.policy, "last_plan", None),
                            "contended",
                            True,
                        )
                    ),
                )
                for ptid in preempted:
                    revoked = records[ptid]
                    if revoked.complete and revoked.finish_time is None:
                        revoked.finish_time = now
                        if tel is not None:
                            tel.registry.counter("runtime.tasks_completed").inc()
                            tel.trace.complete(
                                now, ptid, stages_done=revoked.stages_done
                            )
                if not fresh:
                    break
                timeline.extend(fresh)
                replans += 1
            return batch, stage

        def refill(now: float) -> None:
            """Keep the workers fed; replan when the timeline drains.

            Runs right after ``expire_overdue(now)``: every live record is
            inside its deadline, so eligibility is all a batch must re-check.
            """
            nonlocal timeline, pending
            while len(outstanding) < cfg.num_workers:
                if pending is not None:
                    batch, stage, formed_at = pending
                    # Re-validate: eviction or completion may have struck
                    # while the batch waited out the drain window.
                    batch = [
                        tid for tid in batch
                        if _eligible(records, in_flight, tid, stage)
                    ]
                    if batch and len(batch) < cfg.max_batch:
                        extra, timeline = _extract_stage(
                            timeline,
                            stage,
                            cfg.max_batch - len(batch),
                            records,
                            in_flight,
                            set(batch),
                        )
                        batch.extend(extra)
                    if not batch:
                        pending = None
                        continue
                    expired = (now - formed_at) >= cfg.drain_window
                    if len(batch) >= cfg.max_batch or expired or not outstanding:
                        pending = None
                        dispatch(batch, stage, now)
                        continue
                    pending = (batch, stage, formed_at)
                    return
                batch, stage = next_batch(now)
                if not batch:
                    return
                if len(batch) < cfg.max_batch and cfg.drain_window > 0 and outstanding:
                    # Hold back: in-flight results may yield same-stage work.
                    pending = (batch, stage, now)
                    return
                dispatch(batch, stage, now)

        def reap_lost_items(now: float) -> None:
            """Release tasks of items outstanding past the timeout.

            A reaped item's tasks become schedulable again; a late result
            for it is recognised as stale (its id is gone) and discarded, so
            no stage can ever be applied twice.
            """
            for item_id, (tids, stage, dispatched_at) in list(outstanding.items()):
                if now - dispatched_at < cfg.item_timeout:
                    continue
                del outstanding[item_id]
                for tid in tids:
                    in_flight.pop(tid, None)
                if tel is not None:
                    tel.registry.counter("runtime.items_lost").inc()
                    tel.trace.item_retry(now, stage, tids)

        def respawn_dead_workers(now: float) -> None:
            """Replace crashed worker threads so pool capacity survives."""
            for i, w in enumerate(workers):
                if w.is_alive():
                    continue
                replacement = threading.Thread(target=worker_loop, daemon=True)
                workers[i] = replacement
                replacement.start()
                if tel is not None:
                    tel.registry.counter("runtime.worker_respawns").inc()
                    tel.trace.worker_respawn(now, i)

        try:
            while True:
                now = time.monotonic() - t0
                to_deadline = expire_overdue(now)
                refill(now)
                if not outstanding and all(r.done for r in records.values()):
                    break
                # Wake on a result, the idle / drain-window tick or the next
                # live deadline, whichever comes first.
                wait = min(0.005 if pending is not None else 0.05, to_deadline)
                try:
                    item_id, tids, stage, predictions, confidences, new_features = (
                        result_queue.get(timeout=wait)
                    )
                except queue.Empty:
                    # With a fault plan armed, items may be lost and workers
                    # dead; the next turn's refill re-issues what this frees.
                    if faults.active() is not None:
                        now = time.monotonic() - t0
                        reap_lost_items(now)
                        respawn_dead_workers(now)
                    continue
                now = time.monotonic() - t0
                # A stage that finished past its task's deadline is discarded,
                # as the simulator does: the sweep closes the task first.
                expire_overdue(now)
                if outstanding.pop(item_id, None) is None:
                    # Stale: the watchdog already reaped this item (its tasks
                    # may even be re-executing).  Discard.
                    if tel is not None:
                        tel.registry.counter("runtime.stale_results").inc()
                    continue
                if not np.all(np.isfinite(confidences)):
                    # Corrupted payload: reject the whole batch and release
                    # its tasks for re-execution — a NaN confidence must
                    # never reach the policy or a client.
                    for tid in tids:
                        in_flight.pop(tid, None)
                    if tel is not None:
                        tel.registry.counter("runtime.corrupt_results").inc()
                        tel.trace.item_retry(now, stage, tids)
                    continue
                for i, tid in enumerate(tids):
                    in_flight.pop(tid, None)
                    record = records[tid]
                    if record.done:
                        # Evicted, shed, or already served best-so-far by the
                        # anytime contract: a late stage result must never
                        # be appended after the response.
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
                        record.finish_time = now
                        if tel is not None:
                            tel.registry.counter("runtime.tasks_completed").inc()
                            tel.trace.complete(
                                now, tid, stages_done=record.stages_done
                            )
        finally:
            for _ in workers:
                work_queue.put(None)
            for w in workers:
                w.join(timeout=1.0)

        results = []
        for tid in sorted(records):
            record = records[tid]
            elapsed = record.finish_time if record.finish_time is not None else (
                time.monotonic() - t0
            )
            results.append(
                RuntimeTaskResult(
                    task_id=tid,
                    outcomes=list(record.outcomes),
                    evicted=record.evicted,
                    elapsed=float(elapsed),
                    completed=record.fully_complete,
                    shed=record.shed,
                    anytime_served=record.anytime_served,
                )
            )
        self._inputs = []
        return results
