"""repro.cluster — the replicated serving tier (scaling Eugene out).

The paper pitches deep intelligence as a *service*; one
:class:`~repro.service.EugeneService` instance is the unit of that
service, and this package is what turns N of them into one:

- :class:`ServiceReplica` — one service instance behind one worker
  thread, with fault-injection sites (``cluster.replica.call``,
  ``cluster.heartbeat``) that make crashes, partitions and lost
  responses deterministic chaos-test material;
- :class:`ProcessReplica` — the same replica contract on a real
  ``multiprocessing`` child with shared-memory tensor transport
  (:class:`ShmArena`): true multi-core serving, real crash faults
  (an injected crash is an actual ``kill()``), heartbeats as genuine
  liveness probes, and a leak-checked shm block allocator;
- :class:`ServiceRouter` — placement by rendezvous hashing with a
  configurable replication factor, pluggable balancing policies
  (round-robin / least-outstanding / utility-aware on the scheduler's
  GP confidence predictions), per-replica health from heartbeats and
  error/latency EWMAs, ejection + failover + re-replication, and a
  cluster-wide metrics view built on ``MetricsRegistry.merge``;
- :func:`make_cluster` — the one-liner the experiments and the CLI use.

The router mirrors the service's endpoint surface, so the existing
:class:`~repro.service.EugeneClient` (retries, circuit breakers,
idempotency keys) fronts a cluster unchanged::

    from repro.cluster import make_cluster
    from repro.service import EugeneClient

    with make_cluster(4, synthetic_work_s=0.002) as router:
        client = EugeneClient(router)
        response = client.train(inputs, labels, epochs=2)
        client.classify(response.model_id, inputs)

See ``docs/CLUSTER.md`` for the design notes and invariants.
"""

from .autoscaler import (
    ACTIONS,
    HOLD,
    SCALE_DOWN,
    SCALE_UP,
    Autoscaler,
    AutoscalerConfig,
    ControllerState,
    Decision,
    LoadSnapshot,
    decide,
)
from .hashing import place, placement_score
from .health import (
    DOWN,
    HEALTHY,
    STATUS_RANK,
    SUSPECT,
    HealthConfig,
    ReplicaHealth,
)
from .proc_replica import ProcessReplica
from .replica import (
    CALL_SITE,
    HEARTBEAT_SITE,
    WORK_KINDS,
    WORK_SLEEP,
    WORK_SPIN,
    ReplicaDownError,
    ResponseLostError,
    ServiceReplica,
    synthetic_work,
)
from .router import (
    BACKENDS,
    LEAST_OUTSTANDING,
    POLICIES,
    PROCESS_BACKEND,
    ROUND_ROBIN,
    THREAD_BACKEND,
    UTILITY,
    NoHealthyReplicaError,
    RouterConfig,
    ServiceRouter,
    make_cluster,
    make_replica,
)
from .shm import (
    ShmAllocationError,
    ShmArena,
    ShmArrayRef,
    ShmError,
    ShmLeakError,
    ShmStaleBlockError,
)

__all__ = [
    "Autoscaler",
    "AutoscalerConfig",
    "ControllerState",
    "Decision",
    "LoadSnapshot",
    "decide",
    "SCALE_UP",
    "SCALE_DOWN",
    "HOLD",
    "ACTIONS",
    "place",
    "placement_score",
    "HealthConfig",
    "ReplicaHealth",
    "HEALTHY",
    "SUSPECT",
    "DOWN",
    "STATUS_RANK",
    "ServiceReplica",
    "ReplicaDownError",
    "ResponseLostError",
    "CALL_SITE",
    "HEARTBEAT_SITE",
    "ServiceRouter",
    "RouterConfig",
    "NoHealthyReplicaError",
    "make_cluster",
    "make_replica",
    "ROUND_ROBIN",
    "LEAST_OUTSTANDING",
    "UTILITY",
    "POLICIES",
    "ProcessReplica",
    "THREAD_BACKEND",
    "PROCESS_BACKEND",
    "BACKENDS",
    "WORK_SLEEP",
    "WORK_SPIN",
    "WORK_KINDS",
    "synthetic_work",
    "ShmArena",
    "ShmArrayRef",
    "ShmError",
    "ShmAllocationError",
    "ShmStaleBlockError",
    "ShmLeakError",
]
