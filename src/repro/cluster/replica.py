"""A thread-backed :class:`~repro.service.EugeneService` replica.

One replica owns one service instance and one worker thread; every call
routed to it is serialized through a queue and answered via a
:class:`~concurrent.futures.Future`.  That single-threaded-per-replica
model is the point — a replica has bounded serving capacity, so cluster
throughput comes from the *router* spreading work over N replicas, and
the scaling experiment can measure exactly that.

Two fault-injection sites make replicas killable under a deterministic
:class:`~repro.faults.FaultPlan`:

``cluster.replica.call``
    consulted once per queued endpoint call.  ``crash`` kills the whole
    replica (this and every queued call fail with
    :class:`ReplicaDownError`; the router ejects and re-replicates);
    ``error`` fails just this call; ``latency``/``hang`` stall it;
    ``drop`` executes the endpoint *for real* and then loses the answer
    (:class:`ResponseLostError`) — the at-least-once hazard the
    idempotency layer exists for.
``cluster.heartbeat``
    consulted by :meth:`ServiceReplica.ping`; any fired fault except a
    pure latency stall makes the beat miss, which is how a *partition*
    (alive but unreachable) is modelled distinctly from a crash.
"""

from __future__ import annotations

import copy
import queue
import threading
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Callable, Optional

from .. import faults
from ..clock import MONOTONIC, stopwatch
from ..faults import InjectedFault, TransientServiceError
from ..service.model_registry import ModelEntry
from ..service.server import EugeneService
from ..telemetry.metrics import MetricsRegistry

CALL_SITE = "cluster.replica.call"
HEARTBEAT_SITE = "cluster.heartbeat"

#: Bucket floor for the per-replica latency histogram (milliseconds).
_LATENCY_LO_MS = 1e-3

#: Synthetic service-time models.  ``sleep`` releases the GIL (I/O-bound
#: backend: thread replicas overlap it); ``spin`` holds it in a Python
#: loop (compute-bound backend: only real processes overlap it) — the
#: load the process-backend scaling gate measures.
WORK_SLEEP = "sleep"
WORK_SPIN = "spin"
WORK_KINDS = frozenset({WORK_SLEEP, WORK_SPIN})


def synthetic_work(seconds: float, kind: str = WORK_SLEEP) -> None:
    """Burn ``seconds`` of synthetic service time in the chosen mode."""
    if seconds <= 0:
        return
    if kind == WORK_SPIN:
        elapsed = stopwatch()
        acc = 0.0
        while elapsed() < seconds:
            acc += 1.0  # pure-Python arithmetic: the GIL never drops
    else:
        MONOTONIC.sleep(seconds)


class ReplicaDownError(TransientServiceError):
    """The replica died before answering; retry on a surviving holder."""


class ResponseLostError(TransientServiceError):
    """The replica *executed* the call but the answer was lost in
    transit — a retry is a redelivery, so dedup must catch it."""


@dataclass
class _Item:
    """One unit of queued work: an endpoint call or a control op."""

    future: Future
    endpoint: Optional[str] = None
    request: object = None
    fn: Optional[Callable[[], object]] = None


_STOP = object()


class ServiceReplica:
    """One service instance behind a single worker thread.

    ``synthetic_work_s`` adds a sleep to every endpoint call, modelling
    the device-independent service time of a real backend; because
    sleeps in different replica threads overlap, it is what makes the
    scaling experiment meaningful on a single-core host.
    """

    def __init__(
        self,
        replica_id: str,
        service: Optional[EugeneService] = None,
        *,
        seed: int = 0,
        synthetic_work_s: float = 0.0,
        work_kind: str = WORK_SLEEP,
    ) -> None:
        if not replica_id:
            raise ValueError("replica needs a non-empty id")
        if synthetic_work_s < 0:
            raise ValueError("synthetic_work_s must be non-negative")
        if work_kind not in WORK_KINDS:
            raise ValueError(
                f"unknown work_kind {work_kind!r}; choose from {sorted(WORK_KINDS)}"
            )
        self.replica_id = replica_id
        self.service = service or EugeneService(seed=seed)
        self.synthetic_work_s = synthetic_work_s
        self.work_kind = work_kind
        #: per-replica telemetry, merged into the router's cluster view.
        self.metrics = MetricsRegistry()
        self._queue: "queue.SimpleQueue[object]" = queue.SimpleQueue()
        self._lock = threading.Lock()
        self._alive = True
        self._outstanding = 0
        self._thread = threading.Thread(
            target=self._loop, name=f"replica-{replica_id}", daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def alive(self) -> bool:
        with self._lock:
            return self._alive

    @property
    def outstanding(self) -> int:
        """Accepted calls not yet answered (the queue-depth signal the
        least-outstanding and utility policies balance on)."""
        with self._lock:
            return self._outstanding

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, endpoint: str, request: object) -> Future:
        """Queue one endpoint call; resolves to its response (or error)."""
        return self._enqueue(_Item(Future(), endpoint=endpoint, request=request))

    def execute(self, fn: Callable[[], object]) -> Future:
        """Queue a control-plane operation (replication, re-keying).

        Runs on the worker thread, serialized with traffic, so control
        ops never race endpoint calls for the replica's registry — but
        bypasses the ``cluster.replica.call`` fault site and synthetic
        work: it models the router's management plane, not a client RPC.
        """
        return self._enqueue(_Item(Future(), fn=fn))

    def _enqueue(self, item: _Item) -> Future:
        with self._lock:
            if not self._alive:
                item.future.set_exception(
                    ReplicaDownError(f"replica {self.replica_id!r} is down")
                )
                return item.future
            self._outstanding += 1
        item.future.add_done_callback(self._settle)
        self._queue.put(item)
        return item.future

    def _settle(self, _future: Future) -> None:
        with self._lock:
            self._outstanding -= 1

    def call(
        self, endpoint: str, request: object, timeout: Optional[float] = None
    ):
        """Synchronous :meth:`submit`; blocks for the response."""
        return self.submit(endpoint, request).result(timeout)

    # ------------------------------------------------------------------
    # Control plane (backend-neutral surface the router programs against)
    # ------------------------------------------------------------------
    # A :class:`~repro.cluster.proc_replica.ProcessReplica` implements the
    # same seven methods over its control pipe, which is what lets the
    # router treat both backends identically.

    def has_model(self, model_id: str) -> bool:
        """Whether this replica currently holds ``model_id``."""
        if not self.alive:
            return False
        return model_id in self.service.registry

    def fetch_entry(self, model_id: str) -> ModelEntry:
        """The live registry entry (raises ``KeyError`` when absent)."""
        return self.service.registry.get(model_id)

    def install_entry(
        self, entry: ModelEntry, timeout: Optional[float] = None
    ) -> None:
        """Install a copy of ``entry``, replacing any same-id model.

        The copy is deep (process backends get one for free from
        pickling), so replicas never share mutable model state.
        """
        clone = copy.deepcopy(entry)

        def install():
            if clone.model_id in self.service.registry:
                self.service.registry.pop(clone.model_id)
            self.service.registry.install(clone)
            return None

        self.execute(install).result(timeout)

    def rekey(
        self, local_id: str, global_id: str, timeout: Optional[float] = None
    ) -> None:
        """Re-register a freshly trained model under its router id."""

        def do_rekey():
            entry = self.service.registry.pop(local_id)
            entry.model_id = global_id
            self.service.registry.install(entry)
            return None

        self.execute(do_rekey).result(timeout)

    def drop_model(
        self, model_id: str, timeout: Optional[float] = None
    ) -> None:
        """Forget ``model_id`` if held (idempotent)."""

        def drop():
            if model_id in self.service.registry:
                self.service.registry.pop(model_id)
            return None

        self.execute(drop).result(timeout)

    def predictor_for(self, model_id: str):
        """The model's confidence predictor, or ``None``."""
        if model_id not in self.service.registry:
            return None
        return self.service.registry.get(model_id).predictor

    def metrics_registry(self) -> MetricsRegistry:
        """This replica's metrics, ready to merge into a cluster view."""
        return self.metrics

    # ------------------------------------------------------------------
    # Liveness
    # ------------------------------------------------------------------
    def ping(self) -> bool:
        """Answer one heartbeat (unless dead or partitioned by a fault)."""
        if not self.alive:
            return False
        decision = faults.inject(HEARTBEAT_SITE)
        if decision is None:
            return True
        if decision.kind == faults.LATENCY:
            # A slow beat still arrives — only non-latency faults miss.
            MONOTONIC.sleep(decision.latency_s)
            return True
        return False

    def kill(self) -> None:
        """Simulate a crash: nothing queued or future is ever answered
        normally — every accepted-but-unserved call fails with
        :class:`ReplicaDownError` so callers know to fail over."""
        with self._lock:
            if not self._alive:
                return
            self._alive = False
        self._queue.put(_STOP)

    def shutdown(self, timeout: float = 2.0) -> None:
        """Graceful stop for tests: kill and join the worker."""
        self.kill()
        self._thread.join(timeout)

    # ------------------------------------------------------------------
    # Worker
    # ------------------------------------------------------------------
    def _loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is _STOP:
                break
            assert isinstance(item, _Item)
            if not self.alive:
                self._fail_down(item)
                continue
            if not self._run(item):
                break
        self._drain()

    def _drain(self) -> None:
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                return
            if item is not _STOP:
                self._fail_down(item)

    def _fail_down(self, item: _Item) -> None:
        item.future.set_exception(
            ReplicaDownError(f"replica {self.replica_id!r} is down")
        )

    def _run(self, item: _Item) -> bool:
        """Serve one item; returns ``False`` when the replica crashed."""
        if item.fn is not None:
            try:
                item.future.set_result(item.fn())
            except BaseException as error:  # control ops report, not kill
                item.future.set_exception(error)
            return True

        decision = faults.inject(CALL_SITE)
        if decision is not None:
            if decision.kind == faults.CRASH:
                with self._lock:
                    self._alive = False
                self.metrics.counter("replica.crashes").inc()
                item.future.set_exception(
                    ReplicaDownError(
                        f"replica {self.replica_id!r} crashed "
                        f"(injected at {CALL_SITE})"
                    )
                )
                return False
            if decision.kind == faults.ERROR:
                self.metrics.counter("replica.errors").inc()
                item.future.set_exception(
                    TransientServiceError(
                        f"injected transient error on replica "
                        f"{self.replica_id!r}"
                    )
                )
                return True
            if decision.kind in (faults.LATENCY, faults.HANG):
                MONOTONIC.sleep(decision.latency_s)
            elif decision.kind == faults.DROP:
                # The at-least-once hazard: execute, then lose the answer.
                try:
                    self._serve(item)
                except BaseException:
                    pass
                self.metrics.counter("replica.responses_lost").inc()
                item.future.set_exception(
                    ResponseLostError(
                        f"replica {self.replica_id!r} executed "
                        f"{item.endpoint!r} but the response was lost"
                    )
                )
                return True
            # CORRUPT has no meaning at the call boundary; proceed.

        try:
            result = self._serve(item)
        except BaseException as error:
            if isinstance(error, InjectedFault):
                self.metrics.counter("replica.errors").inc()
            item.future.set_exception(error)
        else:
            item.future.set_result(result)
        return True

    def _serve(self, item: _Item):
        elapsed = stopwatch()
        synthetic_work(self.synthetic_work_s, self.work_kind)
        result = getattr(self.service, item.endpoint)(item.request)
        elapsed_ms = elapsed() * 1000.0
        self.metrics.counter(f"replica.calls.{item.endpoint}").inc()
        self.metrics.histogram(
            "replica.latency_ms", lo=_LATENCY_LO_MS
        ).observe(elapsed_ms)
        return result
