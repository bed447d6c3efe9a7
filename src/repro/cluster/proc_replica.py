"""A process-backed :class:`~repro.service.EugeneService` replica.

Where :class:`~repro.cluster.replica.ServiceReplica` runs its service on
a thread (sharing the GIL with every other replica), this one runs a
full service in a ``multiprocessing`` child, which is what makes
``make cluster`` scale with physical cores on compute-bound load — and
what makes crash faults *real*: an injected crash is an actual
``Process.kill()``, and a heartbeat is an actual liveness probe that a
SIGKILL'd or wedged child fails.

The parent↔child protocol (:mod:`repro.cluster.transport`):

- **Work pipe** (parent → child): :class:`CallMsg` per endpoint call,
  :class:`ReleaseMsg` when the parent has consumed a response's shm
  blocks, :class:`StopMsg` to shut down.  Written only by the parent's
  *sender* thread, so message framing is never interleaved.
- **Result pipe** (child → parent): :class:`ResultMsg` per call, one
  final :class:`ByeMsg` (leak report + last metrics) on clean stop.
  Drained by the parent's *dispatcher* thread, which waits on the pipe
  **and** the child's sentinel — child death is detected immediately,
  in-flight futures fail with :class:`ReplicaDownError`, and (optional)
  auto-respawn brings a fresh child up.
- **Control pipe** (duplex): registry management (fetch/install/rekey/
  drop), predictor lookup, metrics snapshots and pings.  Served by a
  dedicated child thread so a long-running endpoint call cannot starve
  heartbeats, and correlated by ``ctrl_id`` so a timed-out request's
  late reply is discarded rather than mis-delivered.

ndarray payloads ride two single-writer :class:`~repro.cluster.shm.ShmArena`
segments (requests: parent-owned; responses: child-adopted).  The parent
*creates and unlinks both*, so a SIGKILL'd child can never orphan an OS
segment; on any exit path the parent reclaims in-flight request blocks
and records a post-mortem leak report that tests and the CI smoke job
assert empty.
"""

from __future__ import annotations

import itertools
import multiprocessing as mp
import os
import queue
import threading
from concurrent.futures import Future
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _connection_wait
from typing import Any, Dict, List, Optional, Tuple

from .. import faults
from ..clock import MONOTONIC, stopwatch, wait_until
from ..faults import TransientServiceError
from ..service.model_registry import ModelEntry
from ..service.server import EugeneService
from ..telemetry.metrics import MetricsRegistry
from .replica import (
    CALL_SITE,
    HEARTBEAT_SITE,
    WORK_KINDS,
    WORK_SLEEP,
    _LATENCY_LO_MS,
    ReplicaDownError,
    ResponseLostError,
    synthetic_work,
)
from .shm import ShmArena, ShmError, ShmLeakError
from .transport import (
    ByeMsg,
    CallMsg,
    CtrlMsg,
    CtrlReply,
    ReleaseMsg,
    ResultMsg,
    StopMsg,
    decode_payload,
    encode_payload,
    safe_exception,
)

#: Start methods in preference order.  ``forkserver`` is the default on
#: POSIX: children start from a clean single-threaded template process,
#: so the parent's worker threads (and any lock they hold in numpy/BLAS)
#: can never deadlock a fork — while subsequent starts stay cheap.
#: ``fork`` is never auto-picked for exactly that reason, but remains
#: available explicitly via ``REPRO_MP_START_METHOD=fork``.
_START_METHOD_PREFERENCE = ("forkserver", "spawn")

_context_cache: Dict[str, Any] = {}
_context_lock = threading.Lock()


def _mp_context(method: Optional[str] = None):
    method = method or os.environ.get("REPRO_MP_START_METHOD")
    if method is None:
        available = mp.get_all_start_methods()
        for candidate in _START_METHOD_PREFERENCE:
            if candidate in available:
                method = candidate
                break
        else:  # pragma: no cover - every platform has spawn
            method = "spawn"
    with _context_lock:
        context = _context_cache.get(method)
        if context is None:
            context = mp.get_context(method)
            if method == "forkserver":
                try:
                    # Load once in the template what every child would
                    # otherwise import at boot: numpy.random (numpy loads it
                    # on first use; each child seeds a generator) and
                    # pkgutil (runpy's re-run of the parent's main script).
                    context.set_forkserver_preload(
                        ["repro.cluster.proc_replica", "numpy.random", "pkgutil"]
                    )
                except Exception:  # pragma: no cover - preload is advisory
                    pass
            _context_cache[method] = context
    return context


@dataclass(frozen=True)
class _ChildSpec:
    """Everything a child needs to boot (picklable; no live handles)."""

    replica_id: str
    seed: int
    synthetic_work_s: float
    work_kind: str
    req_arena_name: str
    res_arena_name: str
    max_blocks: int


@dataclass
class _Pending:
    """Parent-side record of one in-flight call."""

    future: Future
    refs: Tuple = ()
    endpoint: str = ""
    dropped: bool = False
    corrupted: bool = False


_STOP = object()


# ----------------------------------------------------------------------
# Child process
# ----------------------------------------------------------------------
def _child_main(spec: _ChildSpec, work_recv, res_send, ctrl_conn) -> None:
    """Entry point of the replica child: serve loop + control thread."""
    # Fault plans are the *parent's* test harness state; with a ``fork``
    # start they would be inherited and fire twice (parent injects at
    # the call site, child again inside the service decorators).
    faults.uninstall()

    req_arena = ShmArena.attach(spec.req_arena_name, spec.max_blocks)
    res_arena = ShmArena.adopt(spec.res_arena_name, spec.max_blocks)
    service = EugeneService(seed=spec.seed)
    metrics = MetricsRegistry()
    # Serializes control-plane registry mutations with endpoint calls —
    # the process twin of ServiceReplica.execute's run-on-the-worker rule.
    registry_lock = threading.RLock()
    pending_release: Dict[int, Tuple] = {}

    def handle_ctrl(msg: CtrlMsg):
        op, args = msg.op, msg.args
        if op == "has":
            (model_id,) = args
            with registry_lock:
                return model_id in service.registry
        if op == "fetch":
            (model_id,) = args
            with registry_lock:
                return service.registry.get(model_id)
        if op == "install":
            (entry,) = args
            with registry_lock:
                if entry.model_id in service.registry:
                    service.registry.pop(entry.model_id)
                service.registry.install(entry)
            return None
        if op == "rekey":
            local_id, global_id = args
            with registry_lock:
                entry = service.registry.pop(local_id)
                entry.model_id = global_id
                service.registry.install(entry)
            return None
        if op == "drop":
            (model_id,) = args
            with registry_lock:
                if model_id in service.registry:
                    service.registry.pop(model_id)
            return None
        if op == "predictor":
            (model_id,) = args
            with registry_lock:
                if model_id not in service.registry:
                    return None
                return service.registry.get(model_id).predictor
        if op == "metrics":
            return metrics
        if op == "leak":
            return res_arena.leak_report()
        raise ValueError(f"unknown control op {op!r}")

    def ctrl_loop() -> None:
        while True:
            try:
                msg = ctrl_conn.recv()
            except (EOFError, OSError):
                return
            if msg.op == "ping":
                # Deliberately lock-free: a slow endpoint call must not
                # read as a missed heartbeat — liveness, not progress.
                reply = CtrlReply(msg.ctrl_id, True, value=True)
            else:
                try:
                    reply = CtrlReply(msg.ctrl_id, True, value=handle_ctrl(msg))
                except BaseException as error:
                    reply = CtrlReply(
                        msg.ctrl_id, False, error=safe_exception(error)
                    )
            try:
                ctrl_conn.send(reply)
            except (OSError, BrokenPipeError):
                return

    threading.Thread(
        target=ctrl_loop, name=f"{spec.replica_id}-ctrl", daemon=True
    ).start()

    def release(seq: int) -> None:
        for ref in pending_release.pop(seq, ()):
            try:
                res_arena.decref(ref.index, ref.generation)
            except ShmError:  # pragma: no cover - double release
                pass

    while True:
        try:
            msg = work_recv.recv()
        except (EOFError, OSError):
            return  # parent vanished: nothing left to serve
        if isinstance(msg, StopMsg):
            break
        if isinstance(msg, ReleaseMsg):
            release(msg.seq)
            continue
        assert isinstance(msg, CallMsg)
        elapsed = stopwatch()
        try:
            request = decode_payload(msg.payload, req_arena, copy_arrays=True)
            synthetic_work(spec.synthetic_work_s, spec.work_kind)
            with registry_lock:
                response = getattr(service, msg.endpoint)(request)
            elapsed_ms = elapsed() * 1000.0
            metrics.counter(f"replica.calls.{msg.endpoint}").inc()
            metrics.histogram(
                "replica.latency_ms", lo=_LATENCY_LO_MS
            ).observe(elapsed_ms)
            payload, refs = encode_payload(response, res_arena)
            if refs:
                pending_release[msg.seq] = tuple(refs)
            result = ResultMsg(seq=msg.seq, ok=True, payload=payload)
        except BaseException as error:
            result = ResultMsg(
                seq=msg.seq, ok=False, error=safe_exception(error)
            )
        try:
            res_send.send(result)
        except (OSError, BrokenPipeError):
            return
        except Exception as error:
            # The response itself failed to pickle: downgrade to an error
            # result so the call fails loudly instead of the pipe dying.
            release(msg.seq)
            try:
                res_send.send(
                    ResultMsg(seq=msg.seq, ok=False, error=safe_exception(error))
                )
            except Exception:  # pragma: no cover - pipe gone too
                return

    # Clean stop: every ReleaseMsg the parent queued ahead of StopMsg has
    # been applied, so anything still live here is a genuine leak.
    leaked = res_arena.leak_report()
    try:
        res_send.send(
            ByeMsg(
                leaked_blocks=len(leaked),
                leak_report=leaked,
                metrics=metrics,
            )
        )
    except (OSError, BrokenPipeError):  # pragma: no cover
        pass
    res_arena.close()
    req_arena.close()


# ----------------------------------------------------------------------
# Parent handle
# ----------------------------------------------------------------------
class ProcessReplica:
    """One service instance in a ``multiprocessing`` child.

    Drop-in peer of :class:`~repro.cluster.replica.ServiceReplica`: same
    submission surface (``submit``/``call``/``execute`` is replaced by
    the named control ops), same fault sites with the same semantics —
    except ``crash`` now really kills the child — and the same
    ``alive``/``outstanding``/``ping`` signals the router's health plane
    consumes.
    """

    def __init__(
        self,
        replica_id: str,
        *,
        seed: int = 0,
        synthetic_work_s: float = 0.0,
        work_kind: str = WORK_SLEEP,
        arena_bytes: int = 8 << 20,
        max_blocks: int = 256,
        start_method: Optional[str] = None,
        control_timeout_s: float = 30.0,
        ping_timeout_s: float = 2.0,
        auto_respawn: bool = False,
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
        self.synthetic_work_s = synthetic_work_s
        self.work_kind = work_kind
        self.auto_respawn = auto_respawn
        #: parent-side transport/fault telemetry; child serving metrics
        #: are merged in by :meth:`metrics_registry`.
        self.metrics = MetricsRegistry()
        self._seed = seed
        self._arena_bytes = arena_bytes
        self._max_blocks = max_blocks
        self._control_timeout_s = control_timeout_s
        self._ping_timeout_s = ping_timeout_s
        self._context = _mp_context(start_method)
        self._lock = threading.RLock()
        self._ctrl_lock = threading.Lock()
        self._seqs = itertools.count(1)
        self._ctrl_ids = itertools.count(1)
        self._outstanding = 0
        self._alive = False
        self._stopping = False
        self._expect_death = False
        self._proc = None
        self._pending: Dict[int, _Pending] = {}
        self._predictors: Dict[str, Any] = {}
        self._last_child_metrics: Optional[MetricsRegistry] = None
        self._bye: Optional[ByeMsg] = None
        self._postmortem: Optional[Dict[str, Any]] = None
        self._req_arena: Optional[ShmArena] = None
        self._res_arena: Optional[ShmArena] = None
        self._spawn()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _spawn(self) -> None:
        context = self._context
        req_arena = ShmArena.create(self._arena_bytes, self._max_blocks)
        res_arena = ShmArena.create(
            self._arena_bytes, self._max_blocks, owner=False
        )
        work_recv, work_send = context.Pipe(duplex=False)
        res_recv, res_send = context.Pipe(duplex=False)
        ctrl_parent, ctrl_child = context.Pipe()
        spec = _ChildSpec(
            replica_id=self.replica_id,
            seed=self._seed,
            synthetic_work_s=self.synthetic_work_s,
            work_kind=self.work_kind,
            req_arena_name=req_arena.name,
            res_arena_name=res_arena.name,
            max_blocks=self._max_blocks,
        )
        proc = context.Process(
            target=_child_main,
            args=(spec, work_recv, res_send, ctrl_child),
            name=f"replica-{self.replica_id}",
            daemon=True,
        )
        proc.start()
        # Drop the child's pipe ends so EOF propagates when it dies.
        work_recv.close()
        res_send.close()
        ctrl_child.close()
        with self._lock:
            self._req_arena = req_arena
            self._res_arena = res_arena
            self._work_send = work_send
            self._res_recv = res_recv
            self._ctrl = ctrl_parent
            self._proc = proc
            self._pending = {}
            self._predictors = {}
            self._bye = None
            self._postmortem = None
            self._stopping = False
            self._expect_death = False
            self._alive = True
            self._submitq: "queue.SimpleQueue[object]" = queue.SimpleQueue()
            submitq = self._submitq
        self._sender_thread = threading.Thread(
            target=self._sender_loop,
            args=(submitq, work_send),
            name=f"replica-{self.replica_id}-send",
            daemon=True,
        )
        self._dispatcher_thread = threading.Thread(
            target=self._dispatcher_loop,
            args=(res_recv, proc),
            name=f"replica-{self.replica_id}-recv",
            daemon=True,
        )
        self._sender_thread.start()
        self._dispatcher_thread.start()

    @property
    def pid(self) -> Optional[int]:
        proc = self._proc
        return proc.pid if proc is not None else None

    @property
    def alive(self) -> bool:
        with self._lock:
            return (
                self._alive
                and self._proc is not None
                and self._proc.is_alive()
            )

    @property
    def outstanding(self) -> int:
        with self._lock:
            return self._outstanding

    def kill(self) -> None:
        """Hard-kill the child (the crash fault, and the chaos lever)."""
        with self._lock:
            if not self._alive:
                return
            self._alive = False
            self._expect_death = True
            proc = self._proc
        if proc is not None and proc.is_alive():
            proc.kill()
        # The dispatcher notices the sentinel and runs the death path.

    def shutdown(self, timeout: float = 5.0) -> None:
        """Graceful stop: drain, leak-check, join, destroy the arenas."""
        with self._lock:
            already_dead = not self._alive
            self._stopping = not already_dead
            self._expect_death = True
        if already_dead:
            # Killed earlier (or died): just make sure the death path
            # finished its post-mortem so leak checks are deterministic.
            self._dispatcher_thread.join(timeout)
            with self._lock:
                if self._req_arena is not None:
                    self._finalize(clean=False)
            return
        deadline = MONOTONIC.now() + timeout
        wait_until(lambda: self.outstanding == 0, timeout, interval=0.001)
        with self._lock:
            self._alive = False
            self._submitq.put(_STOP)
        self._dispatcher_thread.join(max(0.1, deadline - MONOTONIC.now()))
        proc = self._proc
        if proc is not None:
            proc.join(max(0.1, deadline - MONOTONIC.now()))
            if proc.is_alive():  # pragma: no cover - wedged child
                proc.kill()
                proc.join(1.0)
        self._finalize(clean=True)

    def respawn(self, timeout: float = 5.0) -> None:
        """Bring up a fresh child after a death (the watchdog's lever)."""
        if threading.current_thread() is not self._dispatcher_thread:
            self._dispatcher_thread.join(timeout)
        with self._lock:
            if self._alive:
                return
            if self._req_arena is not None:
                # Death path has not finalized yet (or never ran).
                self._finalize(clean=False)
        self.metrics.counter("replica.respawns").inc()
        self._spawn()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, endpoint: str, request: object) -> Future:
        future: Future = Future()
        # The put happens under the replica lock: the death path enqueues
        # its stop sentinel under the same lock *after* flipping _alive,
        # so no call can ever land in the queue behind the sentinel and
        # silently never resolve.
        with self._lock:
            if not self._alive:
                future.set_exception(
                    ReplicaDownError(f"replica {self.replica_id!r} is down")
                )
                return future
            self._outstanding += 1
            future.add_done_callback(self._settle)
            self._submitq.put(
                ("call", next(self._seqs), endpoint, request, future)
            )
        return future

    def _settle(self, _future: Future) -> None:
        with self._lock:
            self._outstanding -= 1

    def call(
        self, endpoint: str, request: object, timeout: Optional[float] = None
    ):
        return self.submit(endpoint, request).result(timeout)

    # ------------------------------------------------------------------
    # Liveness
    # ------------------------------------------------------------------
    def ping(self) -> bool:
        """A real liveness probe: round-trip the control pipe.

        The fault site keeps its thread-backend semantics (any fired
        fault except a pure latency stall misses the beat); on top of
        that, a killed, wedged or unresponsive child genuinely fails the
        probe, which is what lets the health plane eject it.
        """
        if not self.alive:
            return False
        decision = faults.inject(HEARTBEAT_SITE)
        if decision is not None:
            if decision.kind != faults.LATENCY:
                return False
            MONOTONIC.sleep(decision.latency_s)
        try:
            return bool(self._control("ping", timeout=self._ping_timeout_s))
        except TransientServiceError:
            return False

    # ------------------------------------------------------------------
    # Control plane
    # ------------------------------------------------------------------
    def _control(self, op: str, *args, timeout: Optional[float] = None):
        timeout = self._control_timeout_s if timeout is None else timeout
        with self._ctrl_lock:
            with self._lock:
                if not self._alive:
                    raise ReplicaDownError(
                        f"replica {self.replica_id!r} is down"
                    )
                ctrl = self._ctrl
            ctrl_id = next(self._ctrl_ids)
            deadline = MONOTONIC.now() + timeout
            try:
                ctrl.send(CtrlMsg(ctrl_id=ctrl_id, op=op, args=args))
                while True:
                    remaining = deadline - MONOTONIC.now()
                    if remaining <= 0 or not ctrl.poll(max(0.0, remaining)):
                        raise ReplicaDownError(
                            f"replica {self.replica_id!r}: control op "
                            f"{op!r} timed out after {timeout:g}s"
                        )
                    reply = ctrl.recv()
                    if reply.ctrl_id != ctrl_id:
                        continue  # late reply of a timed-out predecessor
                    if reply.ok:
                        return reply.value
                    raise reply.error
            except (OSError, EOFError, BrokenPipeError) as error:
                raise ReplicaDownError(
                    f"replica {self.replica_id!r}: control channel broken "
                    f"({error})"
                ) from error

    def has_model(self, model_id: str) -> bool:
        try:
            return bool(self._control("has", model_id))
        except ReplicaDownError:
            return False

    def fetch_entry(self, model_id: str) -> ModelEntry:
        return self._control("fetch", model_id)

    def install_entry(
        self, entry: ModelEntry, timeout: Optional[float] = None
    ) -> None:
        self._predictors.pop(entry.model_id, None)
        self._control("install", entry, timeout=timeout)

    def rekey(
        self, local_id: str, global_id: str, timeout: Optional[float] = None
    ) -> None:
        self._predictors.pop(local_id, None)
        self._predictors.pop(global_id, None)
        self._control("rekey", local_id, global_id, timeout=timeout)

    def drop_model(
        self, model_id: str, timeout: Optional[float] = None
    ) -> None:
        self._predictors.pop(model_id, None)
        self._control("drop", model_id, timeout=timeout)

    def predictor_for(self, model_id: str):
        # Cached: the utility policy asks per routed call, and shipping a
        # GP predictor over the pipe each time would swamp the routing
        # cost.  Invalidated on install/rekey/drop and after calibrate.
        if model_id in self._predictors:
            return self._predictors[model_id]
        predictor = self._control("predictor", model_id)
        self._predictors[model_id] = predictor
        return predictor

    def metrics_registry(self) -> MetricsRegistry:
        """Parent transport metrics + the freshest child snapshot.

        A dead child cannot answer, so the last successfully shipped
        snapshot (including the final one in :class:`ByeMsg`) stands in
        — serving counts survive the replica they happened on.
        """
        merged = MetricsRegistry()
        merged.merge(self.metrics)
        child: Optional[MetricsRegistry] = None
        try:
            child = self._control("metrics")
        except TransientServiceError:
            child = None
        if child is not None:
            self._last_child_metrics = child
        elif self._last_child_metrics is not None:
            child = self._last_child_metrics
        if child is not None:
            merged.merge(child)
        return merged

    # ------------------------------------------------------------------
    # Shared-memory accounting
    # ------------------------------------------------------------------
    def shm_leak_report(self) -> Dict[str, Any]:
        """Live (or post-mortem) block accounting for both arenas."""
        with self._lock:
            if self._postmortem is not None:
                return dict(self._postmortem)
            req = self._req_arena
            res = self._res_arena
            return {
                "state": "running",
                "req_leaked": req.leak_report() if req is not None else [],
                "res_unreleased": res.leak_report() if res is not None else [],
                "segments_linked": True,
            }

    def assert_no_shm_leaks(self) -> None:
        """Raise :class:`~repro.cluster.shm.ShmLeakError` on any leak.

        After shutdown/death this checks the post-mortem record: zero
        unreclaimed request blocks, zero OS segments left linked, and —
        for a *clean* stop — zero response blocks the child still held.
        """
        report = self.shm_leak_report()
        problems = []
        if report["req_leaked"]:
            problems.append(f"request blocks leaked: {report['req_leaked']}")
        if report.get("state") == "stopped" and report["res_unreleased"]:
            problems.append(
                f"response blocks unreleased at clean stop: "
                f"{report['res_unreleased']}"
            )
        if not report.get("segments_linked", False):
            pass  # unlinked is the good outcome post-mortem
        elif report.get("state") in ("stopped", "died"):
            problems.append("shared-memory segments still linked")
        if problems:
            raise ShmLeakError(
                f"replica {self.replica_id!r}: " + "; ".join(problems)
            )

    # ------------------------------------------------------------------
    # Sender thread (parent → child)
    # ------------------------------------------------------------------
    def _sender_loop(self, submitq, work_send) -> None:
        while True:
            item = submitq.get()
            if item is _STOP:
                try:
                    work_send.send(StopMsg())
                except (OSError, BrokenPipeError):
                    pass
                return
            if item[0] == "release":
                try:
                    work_send.send(ReleaseMsg(seq=item[1]))
                except (OSError, BrokenPipeError):
                    pass
                continue
            _, seq, endpoint, request, future = item
            if future.done():
                continue  # already failed by a death drain
            proceed, fault_kind = self._apply_call_faults(future)
            if not proceed:
                continue
            self._encode_and_send(
                seq, endpoint, request, future, work_send, fault_kind
            )

    def _apply_call_faults(self, future: Future):
        """Consult ``cluster.replica.call``; returns ``(proceed, kind)``.

        Same decision table as the thread backend, with two upgrades:
        ``crash`` performs a real child ``kill()`` and ``corrupt``
        scribbles the request's shm generation tags (the child's decode
        then fails validation and the router fails over).
        """
        decision = faults.inject(CALL_SITE)
        if decision is None:
            return True, None
        if decision.kind == faults.CRASH:
            self.metrics.counter("replica.crashes").inc()
            future.set_exception(
                ReplicaDownError(
                    f"replica {self.replica_id!r} crashed (injected at "
                    f"{CALL_SITE}; child process killed)"
                )
            )
            self.kill()
            return False, None
        if decision.kind == faults.ERROR:
            self.metrics.counter("replica.errors").inc()
            future.set_exception(
                TransientServiceError(
                    f"injected transient error on replica {self.replica_id!r}"
                )
            )
            return False, None
        if decision.kind in (faults.LATENCY, faults.HANG):
            MONOTONIC.sleep(decision.latency_s)
            return True, None
        # DROP and CORRUPT tag the pending record in _encode_and_send.
        return True, decision.kind

    def _encode_and_send(
        self,
        seq: int,
        endpoint: str,
        request,
        future: Future,
        work_send,
        fault_kind: Optional[str] = None,
    ) -> None:
        dropped = fault_kind == faults.DROP
        corrupt = fault_kind == faults.CORRUPT
        fallbacks: List[str] = []
        try:
            with self._lock:
                if not self._alive:
                    raise ReplicaDownError(
                        f"replica {self.replica_id!r} is down"
                    )
                payload, refs = encode_payload(
                    request, self._req_arena, fallbacks=fallbacks
                )
                corrupted = False
                if corrupt and refs:
                    for ref in refs:
                        self._req_arena.corrupt_generation(ref.index)
                    self.metrics.counter("replica.shm_corruptions").inc()
                    corrupted = True
                self._pending[seq] = _Pending(
                    future=future,
                    refs=tuple(refs),
                    endpoint=endpoint,
                    dropped=dropped,
                    corrupted=corrupted,
                )
        except ReplicaDownError as error:
            future.set_exception(error)
            return
        except ShmError as error:
            future.set_exception(
                TransientServiceError(
                    f"shm transport failure on replica "
                    f"{self.replica_id!r}: {error}"
                )
            )
            return
        if fallbacks:
            self.metrics.counter("replica.transport.inline_fallbacks").inc(
                len(fallbacks)
            )
        try:
            work_send.send(CallMsg(seq=seq, endpoint=endpoint, payload=payload))
            self.metrics.counter("replica.transport.calls_sent").inc()
        except (OSError, BrokenPipeError, EOFError):
            with self._lock:
                pending = self._pending.pop(seq, None)
                if pending is not None:
                    self._free_request_refs(pending)
            if pending is not None and not future.done():
                future.set_exception(
                    ReplicaDownError(f"replica {self.replica_id!r} is down")
                )

    def _free_request_refs(self, pending: _Pending) -> None:
        """Reclaim a call's request blocks (restoring corrupted tags)."""
        arena = self._req_arena
        if arena is None:
            return
        for ref in pending.refs:
            try:
                if pending.corrupted:
                    # corrupt_generation is an XOR — applying it again
                    # restores the tag so the block can be freed.
                    arena.corrupt_generation(ref.index)
                arena.decref(ref.index, ref.generation)
            except ShmError:  # pragma: no cover - already reclaimed
                pass

    # ------------------------------------------------------------------
    # Dispatcher thread (child → parent + watchdog)
    # ------------------------------------------------------------------
    def _dispatcher_loop(self, res_recv, proc) -> None:
        sentinel = proc.sentinel
        while True:
            try:
                ready = _connection_wait([res_recv, sentinel])
            except OSError:  # pragma: no cover - pipe torn down
                ready = [sentinel]
            if res_recv in ready:
                try:
                    msg = res_recv.recv()
                except (EOFError, OSError):
                    self._on_child_exit(proc)
                    return
                self._handle_result(msg)
                continue
            # Sentinel fired: the child is gone.  Results it managed to
            # write before dying are still in the pipe — deliver them
            # (they were each served exactly once) before failing the rest.
            while True:
                try:
                    if not res_recv.poll(0):
                        break
                    msg = res_recv.recv()
                except (EOFError, OSError):
                    break
                self._handle_result(msg)
            self._on_child_exit(proc)
            return

    def _handle_result(self, msg) -> None:
        if isinstance(msg, ByeMsg):
            with self._lock:
                self._bye = msg
            if msg.metrics is not None:
                self._last_child_metrics = msg.metrics
            return
        with self._lock:
            pending = self._pending.pop(msg.seq, None)
            if pending is not None:
                self._free_request_refs(pending)
            submitq = self._submitq
            res_arena = self._res_arena
        if pending is None:
            return
        future = pending.future
        outcome_error: Optional[BaseException] = None
        outcome_value = None
        if pending.dropped:
            # The at-least-once hazard, process edition: the child served
            # the call for real; the answer is discarded here in transit.
            self.metrics.counter("replica.responses_lost").inc()
            outcome_error = ResponseLostError(
                f"replica {self.replica_id!r} executed "
                f"{pending.endpoint!r} but the response was lost"
            )
        elif not msg.ok:
            outcome_error = msg.error or TransientServiceError(
                f"replica {self.replica_id!r} failed with no error payload"
            )
        elif res_arena is None:
            outcome_error = ReplicaDownError(
                f"replica {self.replica_id!r} is down"
            )
        else:
            try:
                outcome_value = decode_payload(
                    msg.payload, res_arena, copy_arrays=True
                )
            except ShmError as error:
                self.metrics.counter("replica.transport.stale_reads").inc()
                outcome_error = (
                    error
                    if isinstance(error, TransientServiceError)
                    else TransientServiceError(str(error))
                )
        if pending.endpoint == "calibrate" and outcome_error is None:
            # Calibration refits the model's predictor child-side.
            self._predictors.clear()
        # Release *before* resolving the future: once outstanding hits
        # zero every release is already queued ahead of any StopMsg.
        if msg.ok:
            submitq.put(("release", msg.seq))
        if outcome_error is not None:
            future.set_exception(outcome_error)
        else:
            future.set_result(outcome_value)

    def _on_child_exit(self, proc) -> None:
        with self._lock:
            if proc is not self._proc:
                return  # a stale epoch's dispatcher; a respawn superseded it
            clean = self._stopping
            expected = self._expect_death or self._stopping
            self._alive = False
            drained = list(self._pending.values())
            self._pending.clear()
            for pending in drained:
                self._free_request_refs(pending)
            self._submitq.put(_STOP)  # unblock the sender thread
        for pending in drained:
            if not pending.future.done():
                pending.future.set_exception(
                    ReplicaDownError(
                        f"replica {self.replica_id!r} is down "
                        "(child process exited)"
                    )
                )
        proc.join(5.0)
        if not clean:
            self._finalize(clean=False)
            if not expected:
                self.metrics.counter("replica.unexpected_exits").inc()
                if self.auto_respawn:
                    self.respawn()

    def _finalize(self, clean: bool) -> None:
        """Tear down arenas and record the post-mortem leak report."""
        with self._lock:
            req, res = self._req_arena, self._res_arena
            if req is None:
                return
            self._req_arena = None
            self._res_arena = None
            bye = self._bye
            work_send = getattr(self, "_work_send", None)
            res_recv = getattr(self, "_res_recv", None)
            ctrl = getattr(self, "_ctrl", None)
        req_leaked = req.leak_report()
        if bye is not None:
            res_unreleased = list(bye.leak_report)
        else:
            # Killed child: read the table through the parent's handle.
            res_unreleased = res.leak_report()
        req.destroy()
        res.destroy()
        for conn in (work_send, res_recv, ctrl):
            if conn is not None:
                try:
                    conn.close()
                except OSError:  # pragma: no cover
                    pass
        with self._lock:
            self._postmortem = {
                "state": "stopped" if clean else "died",
                "req_leaked": req_leaked,
                "res_unreleased": res_unreleased,
                "segments_linked": self._segments_linked(req.name, res.name),
            }

    @staticmethod
    def _segments_linked(*names: str) -> bool:
        from multiprocessing import shared_memory

        for name in names:
            try:
                handle = shared_memory.SharedMemory(name=name)
            except FileNotFoundError:
                continue
            handle.close()
            return True
        return False
