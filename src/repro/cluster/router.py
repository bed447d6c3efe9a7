"""The replicated serving tier: N replicas behind one routing facade.

:class:`ServiceRouter` mirrors the :class:`~repro.service.EugeneService`
endpoint surface (request dataclass in, response dataclass out), so an
unchanged :class:`~repro.service.EugeneClient` can front a whole cluster.
Behind that surface it owns four concerns:

**Placement.**  Every model gets a router-global id (``g1``, ``g2``, …)
and lives on ``replication_factor`` replicas chosen by rendezvous
hashing (:mod:`repro.cluster.hashing`).  Training runs on one placement
replica; the freshly registered entry is re-keyed from the replica's
local id to the global id and copied to the remaining holders.  Every
placement change — registration, training, calibration, failover,
scale-up, drain, unpark — goes through one path, ``_place``.

**Balancing.**  Reads (classify / infer / profile / estimate / label)
go to one holder chosen by the configured policy — ``round-robin``,
``least-outstanding``, or ``utility`` (expected utility under the
model's own GP confidence predictor: a holder whose queue would eat the
request's latency budget scores by the earlier exit stage it could still
reach).  Healthy replicas are always preferred over suspect ones.

**Health & failover.**  Per-replica error/latency EWMAs (fed by every
routed call) and heartbeats (:meth:`ServiceRouter.tick`) drive a
three-state health judgment; a replica that crashes mid-call or misses
its heartbeat budget is ejected, its queued calls fail over to surviving
holders of the same model, and its placements are re-replicated from a
surviving copy to restore the replication factor.  Each replica sits
behind its own :class:`~repro.faults.CircuitBreaker`.

**Backpressure & dedup.**  An optional router-level
:class:`~repro.admission.AdmissionController` composes with per-replica
admission: the router gate runs first, and a replica-level
:class:`~repro.service.RejectedResponse` makes the router offer the call
to another holder before surfacing the rejection.  Mutating requests
carrying an idempotency key are deduped at the router too, so a client
retry that re-enters the router cannot re-run placement.
"""

from __future__ import annotations

import itertools
import threading
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

from ..admission import AdmissionController
from ..faults import CircuitBreaker, TransientServiceError
from ..service.messages import (
    CalibrateRequest,
    CalibrateResponse,
    ClassifyRequest,
    ClassifyResponse,
    DeepSenseTrainRequest,
    DeepSenseTrainResponse,
    DeleteRequest,
    DeleteResponse,
    EstimateRequest,
    EstimateResponse,
    EstimatorTrainRequest,
    EstimatorTrainResponse,
    InferRequest,
    InferResponse,
    LabelRequest,
    LabelResponse,
    ProfileRequest,
    ProfileResponse,
    ReduceRequest,
    ReduceResponse,
    RejectedResponse,
    TrainRequest,
    TrainResponse,
)
from ..service.model_registry import ModelEntry
from ..service.server import IdempotencyCache
from ..telemetry.metrics import BoundedLabels, MetricsRegistry
from ..clock import MONOTONIC, Clock, stopwatch, wait_until
from .hashing import place
from .health import STATUS_RANK, HealthConfig, ReplicaHealth
from .proc_replica import ProcessReplica
from .replica import WORK_SLEEP, ReplicaDownError, ServiceReplica

ROUND_ROBIN = "round-robin"
LEAST_OUTSTANDING = "least-outstanding"
UTILITY = "utility"

POLICIES = frozenset({ROUND_ROBIN, LEAST_OUTSTANDING, UTILITY})

THREAD_BACKEND = "thread"
PROCESS_BACKEND = "process"
BACKENDS = frozenset({THREAD_BACKEND, PROCESS_BACKEND})

#: per-replica circuit breaker: consecutive failures that open it, and
#: how long it stays open before a half-open probe.
BREAKER_FAILURE_THRESHOLD = 5
BREAKER_COOLDOWN_S = 0.05
#: how long :meth:`ServiceRouter.drain_replica` waits by default for
#: in-flight work to finish before removing the replica anyway, and how
#: often it looks.
DRAIN_TIMEOUT_S = 30.0
DRAIN_POLL_INTERVAL_S = 0.005
#: distinct tenant ids that get their own router metric series before
#: novel tenants fold into the ``__other__`` overflow series.
MAX_TENANT_SERIES = 256


class NoHealthyReplicaError(TransientServiceError):
    """Every candidate replica is down, open-circuited or failed.

    A :class:`~repro.faults.TransientServiceError` on purpose: replicas
    recover and circuits close, so a client-side retry policy fronting
    the router is the right reaction.
    """


@dataclass(frozen=True)
class RouterConfig:
    """Routing knobs; defaults suit the in-process test cluster."""

    replication_factor: int = 2
    policy: str = LEAST_OUTSTANDING
    #: per-replica call budget; ``None`` waits forever (chaos tests that
    #: inject ``hang`` faults should always set one).
    call_timeout_s: Optional[float] = None
    health: HealthConfig = field(default_factory=HealthConfig)

    def __post_init__(self) -> None:
        if self.replication_factor < 1:
            raise ValueError("replication_factor must be >= 1")
        if self.policy not in POLICIES:
            raise ValueError(
                f"unknown policy {self.policy!r}; choose from {sorted(POLICIES)}"
            )
        if self.call_timeout_s is not None and self.call_timeout_s <= 0:
            raise ValueError("call_timeout_s must be positive when given")


class _RegistryView:
    """Read-only registry facade resolving global ids across replicas.

    Lets code written against ``service.registry`` (e.g.
    :class:`~repro.service.EdgeDevice` fetching its reduced model) work
    unchanged when ``service`` is a router.
    """

    def __init__(self, router: "ServiceRouter") -> None:
        self._router = router

    def get(self, model_id: str) -> ModelEntry:
        router = self._router
        with router._lock:
            parked = router._parked.get(model_id)
        if parked is not None:
            return parked
        entry = router._fetch_entry(model_id, router.holders(model_id))
        if entry is None:
            raise KeyError(f"unknown model id {model_id!r}")
        return entry

    def __contains__(self, model_id: str) -> bool:
        return model_id in self._router.model_ids()

    def __len__(self) -> int:
        return len(self._router.model_ids())


class ServiceRouter:
    """Route the Eugene endpoint surface over N service replicas."""

    def __init__(
        self,
        replicas: Sequence[ServiceReplica],
        config: Optional[RouterConfig] = None,
        admission: Optional[AdmissionController] = None,
        clock: Clock = MONOTONIC,
    ) -> None:
        if not replicas:
            raise ValueError("a router needs at least one replica")
        ids = [r.replica_id for r in replicas]
        if len(set(ids)) != len(ids):
            raise ValueError("replica ids must be unique")
        self.config = config or RouterConfig()
        self.admission = admission
        self.clock = clock
        self.replicas: Dict[str, ServiceReplica] = {
            r.replica_id: r for r in replicas
        }
        self.health: Dict[str, ReplicaHealth] = {
            rid: ReplicaHealth(rid, self.config.health) for rid in ids
        }
        self._breakers: Dict[str, CircuitBreaker] = {
            rid: self._make_breaker() for rid in ids
        }
        #: router-level telemetry (failovers, ejections, dedup hits, …).
        self.metrics = MetricsRegistry()
        self._lock = threading.RLock()
        self._placement: Dict[str, List[str]] = {}
        self._children: Dict[str, Set[str]] = {}
        self._parent: Dict[str, str] = {}
        self._ejected: Set[str] = set()
        self._draining: Set[str] = set()
        #: metrics of replicas that have left the cluster, folded in
        #: exactly once so ``cluster_snapshot`` totals stay monotone
        #: across add → drain → re-add of the same replica id.
        self._retired = MetricsRegistry()
        self._retired_replicas: Set[int] = set()
        #: scale-to-zero store: entries of parked (idle) models, restored
        #: on the next request that names them.
        self._parked: Dict[str, ModelEntry] = {}
        self._last_served: Dict[str, float] = {}
        self._ids = itertools.count(1)
        self._rr = itertools.count()
        self._dedup = IdempotencyCache()
        #: bounded label space for tenant-keyed router metrics — tenant
        #: ids are caller-controlled, so unbounded cardinality must land
        #: in the ``__other__`` overflow series, not the registry.
        self._tenant_labels = BoundedLabels(MAX_TENANT_SERIES)

    def _make_breaker(self) -> CircuitBreaker:
        return CircuitBreaker(
            failure_threshold=BREAKER_FAILURE_THRESHOLD,
            cooldown_s=BREAKER_COOLDOWN_S,
            clock=self.clock,
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def __enter__(self) -> "ServiceRouter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def shutdown(self) -> None:
        for replica in list(self.replicas.values()):
            replica.shutdown()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def registry(self) -> _RegistryView:
        return _RegistryView(self)

    def model_ids(self) -> List[str]:
        with self._lock:
            return sorted(set(self._placement) | set(self._parked))

    def holders(self, model_id: str) -> List[str]:
        """Replicas currently holding ``model_id`` (primary first)."""
        with self._lock:
            if model_id not in self._placement:
                raise KeyError(f"unknown model id {model_id!r}")
            return list(self._placement[model_id])

    def ejected(self) -> List[str]:
        with self._lock:
            return sorted(self._ejected)

    def draining(self) -> List[str]:
        with self._lock:
            return sorted(self._draining)

    def parked_ids(self) -> List[str]:
        """Models currently scaled to zero (no live copy, entry retained)."""
        with self._lock:
            return sorted(self._parked)

    def active_replica_ids(self) -> List[str]:
        """Replicas that count as serving capacity: alive, not ejected.

        Draining replicas are *included* — they still burn
        replica-seconds and still serve their in-flight work — which is
        exactly the accounting an autoscaler's cost metric wants.
        """
        with self._lock:
            ejected = set(self._ejected)
        return [
            rid
            for rid, replica in self.replicas.items()
            if rid not in ejected and replica.alive
        ]

    def status(self) -> Dict[str, object]:
        """One structured snapshot of the cluster's health and placement."""
        with self._lock:
            placement = {gid: list(h) for gid, h in self._placement.items()}
            ejected = sorted(self._ejected)
            draining = sorted(self._draining)
            parked = sorted(self._parked)
        per_replica = {}
        for rid, replica in list(self.replicas.items()):
            health = self.health.get(rid)
            snap = health.snapshot() if health is not None else {}
            snap["alive"] = replica.alive
            snap["outstanding"] = replica.outstanding
            snap["models"] = sum(1 for h in placement.values() if rid in h)
            snap["draining"] = rid in draining
            per_replica[rid] = snap
        return {
            "replicas": per_replica,
            "models": len(placement) + len(parked),
            "placement": placement,
            "ejected": ejected,
            "draining": draining,
            "parked": parked,
        }

    def cluster_snapshot(self) -> Dict[str, Dict]:
        """Merged metrics across every replica plus the router itself.

        Built on :meth:`~repro.telemetry.metrics.MetricsRegistry.merge`,
        so per-replica latency histograms aggregate into one cluster-wide
        distribution with exact bucket counts.  When any request carried
        a tenant id, the snapshot also carries a ``"tenants"`` section:
        per tenant (bounded label space; late novel tenants aggregate
        under ``__other__``) the call/served/rejected counts, the shed
        fraction, goodput (served fraction of calls), and the latency
        quantiles of its served requests; plus the admission controller's
        *exact* per-tenant accounting when a router controller is
        installed.
        """
        merged = MetricsRegistry()
        for replica in list(self.replicas.values()):
            # metrics_registry() captures each source registry in one
            # critical section (and, for process replicas, folds in the
            # freshest child snapshot), so a racing writer can never be
            # observed half-applied in the merged view.
            merged.merge(replica.metrics_registry())
        # Replicas that left the cluster (drained or replaced) live on
        # here: totals never move backwards under dynamic topology.
        merged.merge(self._retired)
        merged.merge(self.metrics)
        snap = merged.snapshot()
        tenants = self._tenant_summary(snap)
        if tenants:
            snap["tenants"] = tenants
        return snap

    def _tenant_summary(self, snap: Dict[str, Dict]) -> Dict[str, Dict]:
        """Fold tenant-labelled series into one per-tenant summary."""
        counters = snap["counters"]
        histograms = snap["histograms"]
        tenants: Dict[str, Dict] = {}
        prefix = "router.tenant.calls."
        for name, calls in counters.items():
            if not name.startswith(prefix):
                continue
            t = name[len(prefix):]
            served = counters.get(f"router.tenant.served.{t}", 0.0)
            rejected = counters.get(f"router.tenant.rejected.{t}", 0.0)
            entry: Dict[str, object] = {
                "calls": calls,
                "served": served,
                "rejected": rejected,
                "shed_fraction": rejected / calls if calls else 0.0,
                "goodput": served / calls if calls else 0.0,
            }
            latency = histograms.get(f"router.tenant.latency_ms.{t}")
            if latency is not None:
                entry["latency_ms"] = {
                    k: latency[k]
                    for k in ("p50", "p95", "p99", "mean", "count")
                    if k in latency
                }
            tenants[t] = entry
        if self.admission is not None:
            for t, stats in self.admission.tenant_stats().items():
                tenants.setdefault(t, {})["admission"] = stats
        return tenants

    # ------------------------------------------------------------------
    # Endpoint surface (mirrors EugeneService)
    # ------------------------------------------------------------------
    def train(self, request: TrainRequest) -> TrainResponse:
        return self._train_like("train", request)

    def train_deepsense(
        self, request: DeepSenseTrainRequest
    ) -> DeepSenseTrainResponse:
        return self._train_like("train_deepsense", request)

    def train_estimator(
        self, request: EstimatorTrainRequest
    ) -> EstimatorTrainResponse:
        return self._train_like("train_estimator", request)

    def reduce(self, request: ReduceRequest) -> ReduceResponse:
        return self._routed("reduce", request, lambda: self._reduce(request))

    def delete(self, request: DeleteRequest) -> DeleteResponse:
        return self._routed("delete", request, lambda: self._delete(request))

    def calibrate(self, request: CalibrateRequest) -> CalibrateResponse:
        return self._routed(
            "calibrate", request, lambda: self._calibrate(request)
        )

    def classify(self, request: ClassifyRequest) -> ClassifyResponse:
        return self._routed(
            "classify", request, lambda: self._read("classify", request)
        )

    def infer(self, request: InferRequest) -> InferResponse:
        return self._routed(
            "infer", request, lambda: self._read("infer", request)
        )

    def profile(self, request: ProfileRequest) -> ProfileResponse:
        return self._routed(
            "profile", request, lambda: self._read("profile", request)
        )

    def estimate(self, request: EstimateRequest) -> EstimateResponse:
        return self._routed(
            "estimate", request, lambda: self._read("estimate", request)
        )

    def label(self, request: LabelRequest) -> LabelResponse:
        def handler():
            response, _rid = self._dispatch(
                "label",
                request,
                lambda: self._ordered("label", self._routable_ids(), request),
            )
            return response

        return self._routed("label", request, handler)

    # ------------------------------------------------------------------
    # Cluster-wide model management
    # ------------------------------------------------------------------
    def register_model(
        self,
        name: str,
        model,
        *,
        kind: str = "full",
        train_set=None,
        predictor=None,
        class_map=None,
        parent_id: Optional[str] = None,
    ) -> str:
        """Install a pre-built model on its placement replicas.

        The out-of-band twin of ``train`` for experiments and tests that
        bring their own model; returns the global model id.
        """
        gid = self._next_id()
        entry = ModelEntry(
            model_id=gid,
            name=name,
            model=model,
            kind=kind,
            train_set=train_set,
            predictor=predictor,
            class_map=class_map,
            parent_id=parent_id,
        )
        installed, _ = self._place(gid, self._routable_ids(), entry)
        if not installed:
            raise NoHealthyReplicaError(
                f"no replica could accept model {name!r}"
            )
        with self._lock:
            self._placement[gid] = installed
            if parent_id is not None:
                self._children.setdefault(parent_id, set()).add(gid)
                self._parent[gid] = parent_id
        self._touch(gid)
        return gid

    # ------------------------------------------------------------------
    # Health plane
    # ------------------------------------------------------------------
    def tick(self) -> Dict[str, object]:
        """One heartbeat round over every non-ejected replica.

        A replica that fails to answer accumulates missed beats; past
        ``health.max_missed_heartbeats`` it is ejected and its models
        re-replicated.  Returns :meth:`status` for convenience.
        """
        for rid, replica in list(self.replicas.items()):
            with self._lock:
                if rid in self._ejected:
                    continue
            if not replica.alive:
                # A corpse answers nothing ever again — no need to burn
                # the missed-beat budget on it like on a partition.
                self._on_replica_down(rid, reason="found dead on heartbeat")
                continue
            health = self.health.get(rid)
            if health is None:  # removed by a racing drain
                continue
            if replica.ping():
                health.heartbeat_ok()
            else:
                health.heartbeat_missed()
                if not health.routable:
                    self._on_replica_down(rid, reason="missed heartbeats")
        return self.status()

    def _on_replica_down(self, rid: str, reason: str) -> None:
        """Eject a dead/unreachable replica and re-replicate its models
        from surviving copies."""
        with self._lock:
            if rid in self._ejected or rid not in self.replicas:
                return
            self._ejected.add(rid)
        health = self.health.get(rid)
        if health is not None:
            health.mark_down(reason)
        self.metrics.counter("router.ejections").inc()
        survivors = self._routable_ids()
        for gid, holders in self._placements_on(rid):
            # A displaced copy (left behind by a rebalance or a drain)
            # still serves as a source when no listed holder survives.
            sources = [
                h
                for h in holders
                if h in survivors and self.replicas[h].has_model(gid)
            ] or [h for h in survivors if self.replicas[h].has_model(gid)]
            new_holders, _ = self._place(
                gid, survivors, sources, keep=sources[0] if sources else None
            )
            if new_holders:
                self._commit(gid, new_holders)
                self.metrics.counter("router.rereplications").inc()
                continue
            # Every copy died with its holders: the model is gone.
            with self._lock:
                self._placement.pop(gid, None)
            self.metrics.counter("router.models_lost").inc()

    # ------------------------------------------------------------------
    # Elastic topology (the autoscaler's surface)
    # ------------------------------------------------------------------
    def add_replica(self, replica) -> None:
        """Bring a new replica online (scale-up).

        The replica joins with fresh health and breaker state and starts
        receiving *new* placements immediately; call :meth:`rebalance`
        to also hand it its rendezvous share of existing models.  An id
        that previously served and left (ejected corpse, completed
        drain) may be reused: the departed replica's metrics were folded
        into the retired registry, so ``cluster_snapshot`` totals stay
        monotone across add → drain → re-add of the same id.
        """
        rid = replica.replica_id
        with self._lock:
            existing = self.replicas.get(rid)
            if (
                existing is not None
                and existing.alive
                and rid not in self._ejected
            ):
                raise ValueError(f"replica id {rid!r} is already active")
        if existing is not None:
            # Fold the predecessor's counters in before the new replica
            # takes over the id, so nothing is double- or under-counted.
            self._retire_metrics(existing)
        with self._lock:
            self.replicas[rid] = replica
            self.health[rid] = ReplicaHealth(rid, self.config.health)
            self._breakers[rid] = self._make_breaker()
            self._ejected.discard(rid)
            self._draining.discard(rid)
        self.metrics.counter("router.replicas_added").inc()

    def drain_replica(
        self, rid: str, timeout_s: Optional[float] = None
    ) -> Dict[str, object]:
        """Gracefully retire a replica (scale-down), losing nothing.

        Protocol: (1) mark the replica draining — it takes no new
        placements and other holders are preferred for reads; (2)
        re-replicate every model it holds onto the survivors, so each
        placement keeps its replication factor without it; (3) wait
        (bounded by ``timeout_s``, default ``DRAIN_TIMEOUT_S``)
        for its in-flight calls to finish; (4) fold its metrics into the
        retired registry, shut it down and remove it.  A replica that is
        killed mid-drain degrades to the crash path: its in-flight calls
        fail over to the survivors holding the copies step (2) already
        made, so the zero-lost invariant survives a SIGKILL.
        """
        with self._lock:
            if rid not in self.replicas:
                raise KeyError(f"unknown replica id {rid!r}")
            if rid in self._draining:
                raise ValueError(f"replica {rid!r} is already draining")
            if not set(self.active_replica_ids()) - self._draining - {rid}:
                raise ValueError(
                    f"cannot drain {rid!r}: it is the last live replica"
                )
            self._draining.add(rid)
        self.metrics.counter("router.drains_started").inc()
        started = self.clock.now()
        replica = self.replicas[rid]
        survivors = self._routable_ids()  # excludes the draining replica
        moved = 0
        for gid, holders in self._placements_on(rid):
            # The draining replica itself is a valid (often the only)
            # copy source: it is still alive and still answering.
            sources = [h for h in holders if h != rid] + [rid]
            installed, _ = self._place(gid, survivors, sources)
            if installed:  # else remove_replica() parks the entry
                self._commit(gid, installed)
                moved += 1
                self.metrics.counter("router.rereplications").inc()
        budget = timeout_s if timeout_s is not None else DRAIN_TIMEOUT_S
        drained = wait_until(
            lambda: replica.outstanding == 0 or not replica.alive,
            timeout=budget,
            interval=DRAIN_POLL_INTERVAL_S,
            clock=self.clock,
        )
        died = not replica.alive
        self.remove_replica(rid)
        self.metrics.counter("router.drains_completed").inc()
        if died:
            self.metrics.counter("router.drains_died_midway").inc()
        return {
            "replica_id": rid,
            "models_moved": moved,
            "drained_clean": bool(drained) and not died,
            "died_mid_drain": died,
            "duration_s": self.clock.now() - started,
        }

    def remove_replica(self, rid: str) -> None:
        """Tear a replica out of the cluster (post-drain, or a corpse).

        Placements that still reference it fall back to their other
        holders; a model whose *only* live copy sits on the departing
        replica is parked (entry pulled out, restored on next use) so it
        survives the removal — only a copy on a corpse is truly lost.
        """
        replica = self.replicas.get(rid)
        if replica is None:
            return
        for gid, holders in self._placements_on(rid):
            rest = [h for h in holders if h != rid]
            if rest:
                self._commit(gid, rest)
                continue
            entry = self._fetch_entry(gid, [rid])
            with self._lock:
                self._placement.pop(gid, None)
                if entry is not None:
                    self._parked[gid] = entry
            outcome = "lost" if entry is None else "parked"
            self.metrics.counter(f"router.models_{outcome}").inc()
        self._retire_metrics(replica)
        replica.shutdown()
        with self._lock:
            self.replicas.pop(rid, None)
            self.health.pop(rid, None)
            self._breakers.pop(rid, None)
            self._draining.discard(rid)
            self._ejected.discard(rid)
        self.metrics.counter("router.replicas_removed").inc()

    def rebalance(self) -> Dict[str, int]:
        """Re-run rendezvous placement over the current routable fleet.

        Called after a scale-up so the newcomer receives its ~1/N share
        of existing models.  Copies are *installed* on new rendezvous
        holders but never eagerly dropped from displaced ones — an
        in-flight read routed by the old placement must still find its
        copy, and a displaced copy is a re-replication source of last
        resort; stale copies cost memory, not correctness.  A calibrate
        drops them (their weights would be stale), and a delete or a park
        drops them with the rest.
        """
        routable = self._routable_ids()
        installed = 0
        moved = 0
        with self._lock:
            items = [(gid, list(h)) for gid, h in self._placement.items()]
        for gid, holders in items:
            new_holders, copies = self._place(gid, routable, holders)
            installed += copies
            moved += self._commit(gid, new_holders)
        self.metrics.counter("router.rebalances").inc()
        return {"models_moved": moved, "copies_installed": installed}

    def _retire_metrics(self, replica) -> None:
        """Fold a departing replica's counters into the retired registry
        exactly once (keyed by object identity, so a re-added id never
        double-counts its predecessor)."""
        key = id(replica)
        with self._lock:
            if key in self._retired_replicas:
                return
            self._retired_replicas.add(key)
        try:
            self._retired.merge(replica.metrics_registry())
        except Exception:  # a corpse with a broken transport still retires
            self._retired.merge(replica.metrics)

    # ------------------------------------------------------------------
    # Scale-to-zero (idle-model parking)
    # ------------------------------------------------------------------
    def idle_models(
        self, ttl_s: float, now: Optional[float] = None
    ) -> List[str]:
        """Placed models that served nothing for the last ``ttl_s``."""
        now = self.clock.now() if now is None else now
        with self._lock:
            return sorted(
                gid
                for gid in self._placement
                if now - self._last_served.get(gid, 0.0) >= ttl_s
            )

    def park_model(self, gid: str) -> bool:
        """Scale a model to zero: keep its entry, drop every live copy.

        Returns ``False`` if it was already parked.  Intended for *idle*
        models (see :meth:`idle_models`); the next request that names the
        model pays the unpark cold start instead of a KeyError.
        """
        with self._lock:
            if gid in self._parked:
                return False
            if gid not in self._placement:
                raise KeyError(f"unknown model id {gid!r}")
            holders = list(self._placement[gid])
        entry = self._fetch_entry(gid, holders)
        if entry is None:
            raise NoHealthyReplicaError(f"no live copy of {gid!r} to park")
        with self._lock:
            self._parked[gid] = entry
            self._placement.pop(gid, None)
        self._drop_copies(gid)
        self.metrics.counter("router.models_parked").inc()
        return True

    def unpark_model(self, gid: str) -> List[str]:
        """Restore a parked model onto the current fleet (model-level
        cold start); returns the new holders."""
        with self._lock:
            entry = self._parked.get(gid)
            if entry is None:
                if gid in self._placement:  # raced another unpark: done
                    return list(self._placement[gid])
                raise KeyError(f"model {gid!r} is not parked")
        started = self.clock.now()
        installed, _ = self._place(gid, self._routable_ids(), entry)
        if not installed:
            raise NoHealthyReplicaError(
                f"no replica could host unparked model {gid!r}"
            )
        now = self.clock.now()
        with self._lock:
            self._placement[gid] = installed
            self._parked.pop(gid, None)
            self._last_served[gid] = now
        self.metrics.counter("router.models_unparked").inc()
        self.metrics.histogram("router.unpark_ms", lo=1e-3).observe(
            (now - started) * 1000.0
        )
        return installed

    def _ensure_placed(self, model_id: Optional[str]) -> None:
        if model_id is None:
            return
        with self._lock:
            parked = model_id in self._parked
        if parked:
            self.unpark_model(model_id)

    def _touch(self, model_id: Optional[str]) -> None:
        if model_id is None:
            return
        now = self.clock.now()
        with self._lock:
            self._last_served[model_id] = now

    # ------------------------------------------------------------------
    # Routing internals
    # ------------------------------------------------------------------
    def _next_id(self) -> str:
        return f"g{next(self._ids)}"

    def _commit(self, gid: str, holders: List[str]) -> bool:
        """Make non-empty ``holders`` the placement of a still-placed
        ``gid``; returns whether the placement changed."""
        with self._lock:
            old = self._placement.get(gid)
            if not holders or old is None or old == holders:
                return False
            self._placement[gid] = holders
            return True

    def _placements_on(self, rid: str) -> List[Tuple[str, List[str]]]:
        """``(gid, holders)`` of every placement that lists ``rid``."""
        with self._lock:
            return [
                (gid, list(h)) for gid, h in self._placement.items() if rid in h
            ]

    def _routable_ids(self) -> List[str]:
        """Replicas eligible for *new* placements and routed calls.

        Draining replicas are excluded: they keep serving what they
        already hold (see :meth:`_ordered`) but take on nothing new.
        """
        with self._lock:
            excluded = self._ejected | self._draining
        return [
            rid
            for rid, replica in list(self.replicas.items())
            if rid not in excluded
            and replica.alive
            and rid in self.health
            and self.health[rid].routable
        ]

    def _routed(
        self, endpoint: str, request, handler: Callable[[], object]
    ):
        """Common wrapper: router dedup + router admission gate.

        Tenant-carrying requests additionally feed per-tenant series
        (calls / rejections / latency) through the bounded label space,
        which is what :meth:`cluster_snapshot` summarises per tenant.
        """
        self.metrics.counter(f"router.calls.{endpoint}").inc()
        tenant = getattr(request, "tenant", None)
        tlabel = (
            self._tenant_labels.resolve(tenant) if tenant is not None else None
        )
        if tlabel is not None:
            self.metrics.counter(f"router.tenant.calls.{tlabel}").inc()
        key = getattr(request, "idempotency_key", None)
        if key is not None:
            cached = self._dedup.get(endpoint, key)
            if cached is not None:
                self.metrics.counter(
                    f"router.deduplicated.{endpoint}"
                ).inc()
                return cached
        gate: Optional[Tuple[str, Optional[str], Optional[str]]] = None
        if self.admission is not None:
            model_id = getattr(request, "model_id", None)
            decision = self.admission.admit(
                endpoint, model_id=model_id, tenant=tenant
            )
            if not decision.admitted:
                self.metrics.counter(f"router.rejected.{endpoint}").inc()
                if tlabel is not None:
                    self.metrics.counter(
                        f"router.tenant.rejected.{tlabel}"
                    ).inc()
                return RejectedResponse(
                    endpoint=endpoint,
                    reason=decision.reason,
                    retry_after_s=decision.retry_after_s,
                    message=(
                        f"router: {endpoint!r} rejected "
                        f"({decision.reason} on {decision.key!r}); retry "
                        f"after {decision.retry_after_s:.3g}s"
                    ),
                )
            gate = (endpoint, model_id, tenant)
        elapsed = stopwatch()
        try:
            response = handler()
        finally:
            if gate is not None:
                self.admission.release(
                    gate[0], model_id=gate[1], tenant=gate[2]
                )
        if tlabel is not None:
            if isinstance(response, RejectedResponse):
                self.metrics.counter(f"router.tenant.rejected.{tlabel}").inc()
            else:
                self.metrics.counter(f"router.tenant.served.{tlabel}").inc()
                self.metrics.histogram(
                    f"router.tenant.latency_ms.{tlabel}"
                ).observe(1e3 * elapsed())
        if key is not None and not isinstance(response, RejectedResponse):
            self._dedup.put(endpoint, key, response)
        return response

    def _read(self, endpoint: str, request):
        # A parked (scaled-to-zero) model is restored on demand: the
        # first request after idleness pays the unpark cold start.
        self._ensure_placed(request.model_id)
        response, _rid = self._dispatch(
            endpoint,
            request,
            lambda: self._ordered(
                endpoint, self.holders(request.model_id), request
            ),
        )
        self._touch(request.model_id)
        return response

    def _dispatch(
        self,
        endpoint: str,
        request,
        candidates_fn: Callable[[], List[str]],
    ):
        """Offer the call to candidates in policy order until one serves.

        Returns ``(response, replica_id)``; a replica-level admission
        rejection is only surfaced once every candidate rejected or
        failed (``replica_id`` is then ``None``).  Candidates are
        recomputed every attempt, so an ejection triggered mid-loop
        (with its re-replication) immediately widens the options.
        """
        tried: Set[str] = set()
        rejected: Optional[RejectedResponse] = None
        last_error: Optional[Exception] = None
        for _ in range(max(1, len(self.replicas))):
            candidates = [
                rid for rid in candidates_fn() if rid not in tried
            ]
            if not candidates:
                break
            rid = candidates[0]
            tried.add(rid)
            breaker = self._breakers[rid]
            if not breaker.allow():
                continue
            replica = self.replicas[rid]
            health = self.health[rid]
            call_time = stopwatch()
            try:
                result = replica.call(
                    endpoint, request, timeout=self.config.call_timeout_s
                )
            except ReplicaDownError as error:
                breaker.record_failure()
                self.metrics.counter("router.failovers").inc()
                self._on_replica_down(rid, reason=str(error))
                last_error = error
                continue
            except FutureTimeoutError:
                breaker.record_failure()
                health.record_error()
                self.metrics.counter("router.failovers").inc()
                last_error = NoHealthyReplicaError(
                    f"replica {rid!r} exceeded the "
                    f"{self.config.call_timeout_s:g}s call budget"
                )
                continue
            except TransientServiceError as error:
                breaker.record_failure()
                health.record_error()
                self.metrics.counter("router.failovers").inc()
                last_error = error
                continue
            elapsed = call_time()
            if isinstance(result, RejectedResponse):
                # Backpressure is the replica protecting itself, not a
                # failure: keep its health intact, try another holder.
                health.record_success(elapsed)
                rejected = result
                continue
            breaker.record_success()
            health.record_success(elapsed)
            return result, rid
        if rejected is not None:
            return rejected, None
        raise NoHealthyReplicaError(
            f"no routable replica could serve {endpoint!r}"
            + (f" (last error: {last_error})" if last_error else "")
        )

    def _ordered(
        self, endpoint: str, candidate_ids: Sequence[str], request=None
    ) -> List[str]:
        # Observing a dead replica while selecting candidates is as good
        # as a failed call: condemn it now so its models re-replicate
        # instead of silently skipping it until the next heartbeat round.
        for rid in candidate_ids:
            replica = self.replicas.get(rid)
            if replica is not None and not replica.alive:
                self._on_replica_down(rid, reason="found dead while routing")
        with self._lock:
            ejected = set(self._ejected)
            draining = set(self._draining)
        alive = [
            rid
            for rid in candidate_ids
            if rid not in ejected
            and rid in self.replicas
            and self.replicas[rid].alive
            and rid in self.health
            and self.health[rid].routable
        ]
        # A draining replica is a last resort: traffic shifts to the
        # other holders, but until evacuation lands it can still serve
        # what only it holds — that is what makes drains lose nothing.
        preferred = [rid for rid in alive if rid not in draining]
        if preferred:
            alive = preferred
        if len(alive) <= 1:
            return alive
        if self.config.policy == ROUND_ROBIN:
            ranked = sorted(alive)
            start = next(self._rr) % len(ranked)
            rotated = ranked[start:] + ranked[:start]
            # Stable sort: healthy replicas first, rotation kept within
            # each health class.
            return sorted(
                rotated, key=lambda rid: STATUS_RANK[self.health[rid].status]
            )
        if self.config.policy == UTILITY:
            ordered = self._utility_ordered(alive, request)
            if ordered is not None:
                return ordered
        return sorted(
            alive,
            key=lambda rid: (
                STATUS_RANK[self.health[rid].status],
                self.replicas[rid].outstanding,
                rid,
            ),
        )

    def _utility_ordered(
        self, candidates: List[str], request
    ) -> Optional[List[str]]:
        """Deadline-aware ordering from the model's confidence curve.

        Expected wait on a replica is its queue depth times its latency
        EWMA; whatever remains of the request's latency budget bounds the
        exit stage the scheduler could still reach there, and the GP
        prior at that stage is the expected utility of sending the
        request its way.  Falls back to least-outstanding (``None``) when
        the request carries no budget or the model no predictor.
        """
        budget = getattr(request, "latency_constraint_s", None)
        model_id = getattr(request, "model_id", None)
        if budget is None or model_id is None:
            return None
        predictor = self._predictor_for(model_id)
        if predictor is None or not getattr(predictor, "num_stages", 0):
            return None
        stages = predictor.num_stages

        def expected_utility(rid: str) -> float:
            service_s = max(self.health[rid].latency_ewma_s, 1e-6)
            slack = budget - self.replicas[rid].outstanding * service_s
            if slack <= 0:
                return 0.0
            frac = min(1.0, slack / service_s)
            stage = max(0, min(stages - 1, int(round(frac * stages)) - 1))
            try:
                return float(predictor.prior(stage))
            except Exception:
                return 0.0

        return sorted(
            candidates,
            key=lambda rid: (
                STATUS_RANK[self.health[rid].status],
                -expected_utility(rid),
                self.replicas[rid].outstanding,
                rid,
            ),
        )

    def _predictor_for(self, model_id: str):
        with self._lock:
            holders = list(self._placement.get(model_id, ()))
        return self._first_answer(
            holders, lambda replica: replica.predictor_for(model_id)
        )

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def _train_like(self, endpoint: str, request):
        def handler():
            # Training runs on one of the new model's rendezvous holders.
            gid = self._next_id()
            rf = self.config.replication_factor
            response, rid = self._dispatch(
                endpoint,
                request,
                lambda: self._ordered(
                    endpoint, place(gid, self._routable_ids(), rf), request
                ),
            )
            if rid is not None:
                self._place_new(gid, rid, response)
                self._touch(gid)
            return response

        return self._routed(endpoint, request, handler)

    def _reduce(self, request: ReduceRequest):
        parent_gid = request.model_id
        response, rid = self._dispatch(
            "reduce",
            request,
            lambda: self._ordered("reduce", self.holders(parent_gid), request),
        )
        if rid is None:
            return response
        child_gid = self._next_id()
        if self._place_new(child_gid, rid, response):
            with self._lock:
                self._children.setdefault(parent_gid, set()).add(child_gid)
                self._parent[child_gid] = parent_gid
        return response

    def _place_new(self, gid: str, serving_rid: str, response) -> bool:
        """Re-key the model ``response`` names, just created on
        ``serving_rid``, to its global id and copy it to the remaining
        rendezvous holders; ``False`` when it was lost on the way."""
        self.replicas[serving_rid].rekey(
            response.model_id, gid, timeout=self.config.call_timeout_s
        )
        response.model_id = gid
        installed, _ = self._place(
            gid, self._routable_ids(), [serving_rid], keep=serving_rid
        )
        if not installed:
            # The only copy's replica failed before it could be copied.
            self.metrics.counter("router.models_lost").inc()
            return False
        with self._lock:
            self._placement[gid] = installed
        return True

    def _calibrate(self, request: CalibrateRequest):
        gid = request.model_id
        response, rid = self._dispatch(
            "calibrate",
            request,
            lambda: self._ordered("calibrate", self.holders(gid), request),
        )
        if rid is None:
            return response
        # Calibration rewrote the holder's entry in place (alphas,
        # predictor): refresh every other holder's copy from it, and drop
        # the displaced ones, so no failover can restore the old weights.
        with self._lock:
            holders = list(self._placement.get(gid, ()))
        self._place(gid, holders, [rid], keep=rid, refresh=True)
        # Read again: a holder that failed the refresh was re-replicated.
        with self._lock:
            holders = list(self._placement.get(gid, ()))
        self._drop_copies(gid, keep=holders)
        return response

    def _delete(self, request: DeleteRequest) -> DeleteResponse:
        gid = request.model_id
        with self._lock:
            if gid not in self._placement and gid not in self._parked:
                raise KeyError(f"unknown model id {gid!r}")
            children = sorted(self._children.get(gid, ()))
        if children and not request.cascade:
            ids = ", ".join(children)
            raise ValueError(
                f"model {gid!r} still has reduced children ({ids}); "
                "delete them first or pass cascade=True"
            )
        deleted: List[str] = []
        self._delete_subtree(gid, deleted)
        return DeleteResponse(deleted=tuple(deleted))

    def _delete_subtree(self, gid: str, out: List[str]) -> None:
        out.append(gid)
        with self._lock:
            children = sorted(self._children.get(gid, ()))
        for child in children:
            self._delete_subtree(child, out)
        self._drop_copies(gid)
        with self._lock:
            self._placement.pop(gid, None)
            self._parked.pop(gid, None)
            self._last_served.pop(gid, None)
            self._children.pop(gid, None)
            parent = self._parent.pop(gid, None)
            if parent is not None and parent in self._children:
                self._children[parent].discard(gid)

    # ------------------------------------------------------------------
    # Replication plumbing
    # ------------------------------------------------------------------
    def _drop_copies(self, gid: str, keep: Sequence[str] = ()) -> None:
        """Broadcast a drop to every live replica but ``keep`` — also to
        replicas a rebalance or a drain displaced, whose copies no
        placement lists.  A replica that dies mid-drop takes the copy
        with it, which is the outcome wanted."""
        with self._lock:
            rids = [rid for rid in self.replicas if rid not in keep]
        for rid in rids:
            replica = self.replicas.get(rid)
            if replica is None or not replica.alive:
                continue
            try:
                replica.drop_model(gid, timeout=self.config.call_timeout_s)
            except (TransientServiceError, FutureTimeoutError):
                pass

    def _place(
        self,
        gid: str,
        pool: Sequence[str],
        origin: Union[ModelEntry, Sequence[str]],
        keep: Optional[str] = None,
        refresh: bool = False,
    ) -> Tuple[List[str], int]:
        """The one placement path: walk ``pool`` in rendezvous rank
        (``keep`` first) until ``replication_factor`` replicas hold
        ``gid``; returns them in rank order and the copies made.

        A replica holding the model counts (unless ``refresh``); any
        other gets ``origin`` — an entry, or one fetched once from the
        first of its source replicas that answers — and a failed install
        passes to the next in rank.  A ``ReplicaDownError`` reports down
        the replica whose call raised, source or target, after the walk.
        """
        rf = self.config.replication_factor
        ranked = place(gid, pool, len(pool)) if pool else []
        if keep is not None:
            ranked = [keep] + [rid for rid in ranked if rid != keep]
        sources = None if isinstance(origin, ModelEntry) else list(origin)
        entry = origin if sources is None else None
        down: Dict[str, str] = {}
        holders: List[str] = []
        copies = 0
        for rid in ranked:
            if len(holders) == rf:
                break
            if rid in down:
                continue
            if rid == keep or (
                sources is not None
                and not refresh
                and self.replicas[rid].has_model(gid)
            ):
                holders.append(rid)
                continue
            if entry is None and sources:
                entry = self._fetch_entry(gid, sources, down)
                sources = []  # one fetch per placement
                holders = [h for h in holders if h not in down]
            if entry is None:
                continue
            try:
                # install_entry deep-copies (thread backend) or pickles
                # (process backend): replicas never share model state.
                self.replicas[rid].install_entry(
                    entry, timeout=self.config.call_timeout_s
                )
            except TransientServiceError as error:
                if isinstance(error, ReplicaDownError):
                    down[rid] = str(error)
                continue
            holders.append(rid)
            copies += 1
        for rid, reason in down.items():
            self._on_replica_down(rid, reason=reason)
        return holders, copies

    def _fetch_entry(self, gid: str, rids, down=None) -> Optional[ModelEntry]:
        return self._first_answer(rids, lambda r: r.fetch_entry(gid), down)

    def _first_answer(self, rids: Sequence[str], ask, down=None):
        """``ask(replica)`` of the first live replica in ``rids`` whose
        answer is not ``None``.  A ``KeyError`` (raced a delete) or a
        transient error (raced a death) moves on to the next replica; a
        ``ReplicaDownError`` is also noted in ``down`` (id -> reason)."""
        for rid in rids:
            replica = self.replicas.get(rid)
            if replica is None or not replica.alive:
                continue
            try:
                answer = ask(replica)
            except (KeyError, TransientServiceError) as error:
                if down is not None and isinstance(error, ReplicaDownError):
                    down[rid] = str(error)
                continue
            if answer is not None:
                return answer
        return None


def make_replica(
    replica_id: str,
    *,
    backend: str = THREAD_BACKEND,
    seed: int = 0,
    synthetic_work_s: float = 0.0,
    work_kind: str = WORK_SLEEP,
    start_method: Optional[str] = None,
    arena_bytes: int = 8 << 20,
    auto_respawn: bool = False,
):
    """Build one replica of the chosen backend — the unit of scale-up.

    ``make_cluster`` uses this for the initial fleet, and an
    :class:`~repro.cluster.autoscaler.Autoscaler` uses it (via the
    factory ``make_cluster`` attaches to the router) to spawn additional
    replicas online.
    """
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; choose from {sorted(BACKENDS)}"
        )
    common = dict(
        seed=seed, synthetic_work_s=synthetic_work_s, work_kind=work_kind
    )
    if backend == PROCESS_BACKEND:
        return ProcessReplica(
            replica_id,
            start_method=start_method,
            arena_bytes=arena_bytes,
            auto_respawn=auto_respawn,
            **common,
        )
    return ServiceReplica(replica_id, **common)


def make_cluster(
    num_replicas: int,
    *,
    backend: str = THREAD_BACKEND,
    seed: int = 0,
    synthetic_work_s: float = 0.0,
    work_kind: str = WORK_SLEEP,
    config: Optional[RouterConfig] = None,
    admission: Optional[AdmissionController] = None,
    start_method: Optional[str] = None,
    arena_bytes: int = 8 << 20,
    auto_respawn: bool = False,
    clock: Clock = MONOTONIC,
) -> ServiceRouter:
    """Spin up ``num_replicas`` replicas behind a router.

    ``backend="thread"`` keeps every replica a worker thread in this
    process (cheap, GIL-shared); ``backend="process"`` gives each replica
    its own ``multiprocessing`` child with shared-memory tensor
    transport — real core-level parallelism, real crash faults.  The
    router's surface and invariants are identical for both.

    The returned router carries a ``replica_factory`` attribute — a
    ``(replica_id, index) -> replica`` callable reproducing these
    construction parameters — which is what the autoscaler uses to grow
    the fleet with identically-configured replicas.
    """
    if num_replicas < 1:
        raise ValueError("num_replicas must be >= 1")

    def factory(replica_id: str, index: int):
        return make_replica(
            replica_id,
            backend=backend,
            seed=seed + index,
            synthetic_work_s=synthetic_work_s,
            work_kind=work_kind,
            start_method=start_method,
            arena_bytes=arena_bytes,
            auto_respawn=auto_respawn,
        )

    replicas = [factory(f"r{i}", i) for i in range(num_replicas)]
    router = ServiceRouter(
        replicas, config=config, admission=admission, clock=clock
    )
    router.replica_factory = factory
    router.backend = backend
    return router
