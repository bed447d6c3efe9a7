"""The live half of the workload engine: replay a trace onto a real cluster.

The :class:`ClusterDriver` takes the same :class:`~repro.workload.trace.
Trace` the DES consumes and pushes it through a real
:func:`~repro.cluster.make_cluster` router with tenant-stamped
:class:`~repro.service.EugeneClient`\\ s — every request travels the full
path (client resilience → router dedup/admission → replica service →
response), exercising all 11 endpoints with payloads sized for volume.

Replay is closed-loop at maximum throughput (inter-arrival gaps are not
honoured — the trace supplies *which* tenant calls *what*, in order; the
point is volume and accounting, not wall-clock realism).  Every feeder
thread counts its own outcomes per tenant in plain integers, and
:meth:`ClusterDriver.run` cross-checks those exact client-side counts
against the router's ``cluster_snapshot()`` tenant section and the
admission controller's accounting — the "per-tenant accounting exact"
half of the ``make isolation`` gate.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..clock import stopwatch
from ..cluster import make_cluster
from ..cluster.router import RouterConfig, ServiceRouter
from ..faults import BackpressureError, CircuitBreaker, RetryPolicy
from ..nn.data import Dataset
from ..nn.resnet import StagedResNet, StagedResNetConfig
from ..service.client import EugeneClient
from .tenants import ENDPOINTS
from .trace import Trace

_TINY_STAGED = StagedResNetConfig(
    num_classes=3, image_size=8, stage_channels=(4, 8), blocks_per_stage=1,
    seed=0,
)


@dataclass
class TenantOutcome:
    """Client-side exact accounting for one tenant."""

    issued: int = 0
    ok: int = 0
    rejected: int = 0
    errors: int = 0

    def merge(self, other: "TenantOutcome") -> None:
        self.issued += other.issued
        self.ok += other.ok
        self.rejected += other.rejected
        self.errors += other.errors


@dataclass
class DriverReport:
    """Outcome of one replay: totals, per-tenant outcomes, checks."""

    requests: int
    per_tenant: Dict[str, TenantOutcome]
    elapsed_s: float
    accounting_exact: bool
    accounting_detail: str = ""
    snapshot: Dict = field(default_factory=dict)

    @property
    def throughput_per_s(self) -> float:
        return self.requests / self.elapsed_s if self.elapsed_s else 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "requests": self.requests,
            "elapsed_s": self.elapsed_s,
            "throughput_per_s": self.throughput_per_s,
            "accounting_exact": self.accounting_exact,
            "accounting_detail": self.accounting_detail,
            "per_tenant": {
                t: dict(o.__dict__) for t, o in self.per_tenant.items()
            },
        }


def _no_trip_breaker() -> CircuitBreaker:
    # The driver wants every rejection surfaced individually (rejections
    # are data here, not faults) — a breaker that effectively never opens.
    return CircuitBreaker(failure_threshold=1_000_000_000)


class ClusterDriver:
    """Replays a trace against a real router with per-tenant clients."""

    def __init__(
        self,
        trace: Trace,
        num_replicas: int = 2,
        num_threads: int = 8,
        backend: str = "thread",
        admission=None,
        config: Optional[RouterConfig] = None,
        seed: int = 0,
    ) -> None:
        if num_threads < 1:
            raise ValueError("num_threads must be >= 1")
        self.trace = trace
        self.num_replicas = num_replicas
        self.num_threads = num_threads
        self.backend = backend
        self.admission = admission
        self.config = config or RouterConfig(call_timeout_s=30.0)
        self.seed = seed

    # ------------------------------------------------------------------
    def _build_estimator_request(self, rng: np.random.Generator):
        from ..service.messages import EstimatorTrainRequest

        return EstimatorTrainRequest(
            inputs=rng.normal(size=(12, 3)),
            targets=rng.normal(size=12),
            hidden=4,
            steps=5,
            name="wl-estimator",
        )

    def _client(self, router: ServiceRouter, tenant: str) -> EugeneClient:
        return EugeneClient(
            router,
            retry_policy=RetryPolicy(max_attempts=1),
            breaker_factory=_no_trip_breaker,
            tenant=tenant,
        )

    def _sweep_endpoints(
        self, router: ServiceRouter, models: Dict[str, str],
        rng: np.random.Generator,
    ) -> None:
        """Touch every endpoint once up front (coverage, placement warm)."""
        client = self._client(router, "__setup__")
        x1 = rng.normal(size=(1, 3, 8, 8))
        xs = rng.normal(size=(6, 3, 8, 8))
        ys = rng.integers(0, 3, size=6)
        tr = client.train(xs, ys, model_config=_TINY_STAGED, epochs=1,
                          batch_size=6)
        client.classify(models["staged"], x1)
        client.profile(models["staged"])
        client.calibrate(models["staged"], xs, ys, epochs=1)
        client.label(xs[:4], ys[:4], xs[4:], num_classes=3,
                     method="self-training", rounds=1)
        reduced = client.reduce(models["staged"], width_fraction=0.5, epochs=1)
        client.infer(models["staged"], x1, latency_constraint_s=10.0)
        ds = client.train_deepsense(
            rng.normal(size=(8, 2, 3, 4)), rng.integers(0, 2, size=8), steps=2
        )
        client.estimate(models["estimator"], rng.normal(size=(2, 3)))
        client.delete(reduced.model_id)
        client.delete(tr.model_id, cascade=True)
        client.delete(ds.model_id)

    # ------------------------------------------------------------------
    def run(self, limit: Optional[int] = None) -> DriverReport:
        """Replay the trace; returns exact per-tenant accounting.

        ``limit`` caps the number of replayed arrivals (smoke runs).
        """
        trace = self.trace
        n = len(trace) if limit is None else min(limit, len(trace))
        router = make_cluster(
            self.num_replicas,
            backend=self.backend,
            seed=self.seed,
            admission=self.admission,
            config=self.config,
        )
        report: DriverReport
        with router:
            rng = np.random.default_rng(self.seed)
            inputs = rng.normal(size=(16, 3, 8, 8))
            labels = rng.integers(0, 3, size=16)
            staged = router.register_model(
                "wl-staged", StagedResNet(_TINY_STAGED),
                train_set=Dataset(inputs, labels),
            )
            est = router.train_estimator(self._build_estimator_request(rng))
            models = {"staged": staged, "estimator": est.model_id}
            self._sweep_endpoints(router, models, rng)
            setup_snapshot = router.cluster_snapshot()
            baseline = {
                t: dict(v)
                for t, v in setup_snapshot.get("tenants", {}).items()
            }
            # Disposable-model pool feeding ``delete`` (refilled by
            # ``reduce``/``train_estimator`` calls during the replay).
            disposables: deque = deque()
            outcomes: List[Dict[str, TenantOutcome]] = []
            replay_time = stopwatch()
            threads = []
            for j in range(self.num_threads):
                out: Dict[str, TenantOutcome] = {}
                outcomes.append(out)
                t = threading.Thread(
                    target=self._feed,
                    args=(router, models, disposables, out, j, n),
                    name=f"wl-feeder-{j}",
                    daemon=True,
                )
                threads.append(t)
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            elapsed = replay_time()
            merged: Dict[str, TenantOutcome] = {}
            for out in outcomes:
                for tenant, outcome in out.items():
                    merged.setdefault(tenant, TenantOutcome()).merge(outcome)
            snapshot = router.cluster_snapshot()
            exact, detail = self._check_accounting(
                merged, snapshot, baseline
            )
            report = DriverReport(
                requests=sum(o.issued for o in merged.values()),
                per_tenant=merged,
                elapsed_s=elapsed,
                accounting_exact=exact,
                accounting_detail=detail,
                snapshot=snapshot,
            )
        return report

    # ------------------------------------------------------------------
    def _feed(
        self,
        router: ServiceRouter,
        models: Dict[str, str],
        disposables: deque,
        out: Dict[str, TenantOutcome],
        thread_index: int,
        n: int,
    ) -> None:
        """One feeder thread: replays arrivals ``thread_index::T``."""
        trace = self.trace
        rng = np.random.default_rng((self.seed, thread_index))
        x1 = rng.normal(size=(1, 3, 8, 8))
        xs = rng.normal(size=(6, 3, 8, 8))
        ys = rng.integers(0, 3, size=6)
        xe = rng.normal(size=(1, 3))
        clients: Dict[str, EugeneClient] = {}
        staged = models["staged"]
        estimator = models["estimator"]

        def outcome(tenant: str) -> TenantOutcome:
            o = out.get(tenant)
            if o is None:
                o = out[tenant] = TenantOutcome()
            return o

        def call(tenant: str, fn) -> bool:
            """Issue one router call; returns True when served."""
            o = outcome(tenant)
            o.issued += 1
            try:
                fn()
            except BackpressureError:
                o.rejected += 1
                return False
            except Exception:
                o.errors += 1
                return False
            o.ok += 1
            return True

        for i in range(thread_index, n, self.num_threads):
            tenant = trace.tenant_names[trace.tenant_idx[i]]
            endpoint = ENDPOINTS[trace.endpoint_idx[i]]
            client = clients.get(tenant)
            if client is None:
                client = clients[tenant] = self._client(router, tenant)
            if endpoint == "classify":
                call(tenant, lambda: client.classify(staged, x1))
            elif endpoint == "estimate":
                call(tenant, lambda: client.estimate(estimator, xe))
            elif endpoint == "profile":
                call(tenant, lambda: client.profile(staged))
            elif endpoint == "infer":
                call(tenant, lambda: client.infer(
                    staged, x1, latency_constraint_s=10.0
                ))
            elif endpoint == "calibrate":
                call(tenant, lambda: client.calibrate(staged, xs, ys, epochs=1))
            elif endpoint == "label":
                call(tenant, lambda: client.label(
                    xs[:4], ys[:4], xs[4:], num_classes=3,
                    method="self-training", rounds=1,
                ))
            elif endpoint == "reduce":
                result = {}

                def _reduce():
                    result["r"] = client.reduce(
                        staged, width_fraction=0.5, epochs=1
                    )

                if call(tenant, _reduce):
                    disposables.append(result["r"].model_id)
            elif endpoint == "train_estimator":
                result = {}

                def _train_est():
                    result["r"] = client.train_estimator(
                        xe.repeat(8, axis=0), rng.normal(size=8),
                        hidden=2, steps=2,
                    )

                if call(tenant, _train_est):
                    disposables.append(result["r"].model_id)
            elif endpoint == "train":
                result = {}

                def _train():
                    result["r"] = client.train(
                        xs, ys, model_config=_TINY_STAGED, epochs=1,
                        batch_size=6,
                    )

                if call(tenant, _train):
                    disposables.append(result["r"].model_id)
            elif endpoint == "train_deepsense":
                result = {}

                def _train_ds():
                    result["r"] = client.train_deepsense(
                        rng.normal(size=(8, 2, 3, 4)),
                        rng.integers(0, 2, size=8),
                        steps=1,
                    )

                if call(tenant, _train_ds):
                    disposables.append(result["r"].model_id)
            elif endpoint == "delete":
                try:
                    victim = disposables.popleft()
                except IndexError:
                    victim = None
                if victim is None:
                    # Nothing to delete yet: create-and-delete a tiny
                    # estimator (two calls, both counted).
                    result = {}

                    def _mk():
                        result["r"] = client.train_estimator(
                            xe.repeat(8, axis=0), rng.normal(size=8),
                            hidden=2, steps=1,
                        )

                    if call(tenant, _mk):
                        victim = result["r"].model_id
                if victim is not None:
                    call(
                        tenant,
                        lambda: client.delete(victim, cascade=True),
                    )

    # ------------------------------------------------------------------
    def _check_accounting(
        self,
        merged: Dict[str, TenantOutcome],
        snapshot: Dict,
        baseline: Dict[str, Dict],
    ) -> "tuple[bool, str]":
        """Client-side exact counts must reconcile with the router's view.

        ``baseline`` holds the tenant section right after setup, so the
        replay-phase deltas are compared (the setup sweep used its own
        ``__setup__`` tenant, but registration/training calls also pass
        through ``_routed``).
        """
        problems = []
        tenants_section = snapshot.get("tenants", {})
        total_issued = sum(o.issued for o in merged.values())
        total_ok = sum(o.ok for o in merged.values())
        total_rejected = sum(o.rejected for o in merged.values())
        total_errors = sum(o.errors for o in merged.values())
        if total_ok + total_rejected + total_errors != total_issued:
            problems.append("outcome split does not sum to issued")
        for tenant, outcome in merged.items():
            entry = tenants_section.get(tenant)
            if entry is None:
                problems.append(f"router snapshot missing tenant {tenant}")
                continue
            base = baseline.get(tenant, {})
            calls = entry.get("calls", 0.0) - base.get("calls", 0.0)
            served = entry.get("served", 0.0) - base.get("served", 0.0)
            rejected = entry.get("rejected", 0.0) - base.get("rejected", 0.0)
            if int(calls) != outcome.issued:
                problems.append(
                    f"{tenant}: router calls {int(calls)} != issued "
                    f"{outcome.issued}"
                )
            if int(rejected) != outcome.rejected:
                problems.append(
                    f"{tenant}: router rejected {int(rejected)} != client "
                    f"rejected {outcome.rejected}"
                )
            # An endpoint error propagates as an exception: the router
            # counted the call but neither served nor rejected it.
            if int(served) != outcome.ok:
                problems.append(
                    f"{tenant}: router served {int(served)} != client ok "
                    f"{outcome.ok}"
                )
            if int(calls - served - rejected) != outcome.errors:
                problems.append(
                    f"{tenant}: router unaccounted "
                    f"{int(calls - served - rejected)} != client errors "
                    f"{outcome.errors}"
                )
        return (not problems, "; ".join(problems))
