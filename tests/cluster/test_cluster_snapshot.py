"""``cluster_snapshot``: one consistent metrics view of the whole tier.

Two contracts, one per backend:

- **Exactness when quiescent** — merged counters are the sums of the
  per-replica counters plus the router's own (thread backend, where the
  ground truth is directly readable).
- **Read-consistency under racing writers** — each replica registry is
  captured in one critical section, so a cross-instrument invariant a
  writer maintains (here: ``admitted >= served``) holds in every merged
  snapshot taken while writers hammer the registries.
- **Child registries are included** — in the process backend the serve
  counters live in *children*; the merged view must fold in their
  shipped snapshots, not just the parents' transport counters.
"""

import threading

import numpy as np

from repro.cluster import RouterConfig, make_cluster
from repro.service.messages import ClassifyRequest, TrainRequest

from .conftest import TINY


class TestExactness:
    def test_merged_counters_are_the_per_replica_sums(self, tiny_model):
        model, dataset, predictor = tiny_model
        with make_cluster(3, config=RouterConfig(replication_factor=2)) as router:
            gid = router.register_model(
                "sum", model, train_set=dataset, predictor=predictor
            )
            request = ClassifyRequest(model_id=gid, inputs=dataset.inputs[:2])
            for _ in range(9):
                router.classify(request)
            snap = router.cluster_snapshot()
            per_replica = sum(
                r.metrics.counter("replica.calls.classify").value
                for r in router.replicas.values()
            )
            assert per_replica == 9
            assert snap["counters"]["replica.calls.classify"] == 9
            # The router's own instruments ride along in the same view.
            assert snap["counters"]["router.calls.classify"] == 9

    def test_latency_histograms_aggregate_across_replicas(self, tiny_model):
        model, dataset, predictor = tiny_model
        with make_cluster(2, config=RouterConfig(replication_factor=2)) as router:
            gid = router.register_model(
                "hist", model, train_set=dataset, predictor=predictor
            )
            request = ClassifyRequest(model_id=gid, inputs=dataset.inputs[:2])
            for _ in range(6):
                router.classify(request)
            merged = router.cluster_snapshot()["histograms"]["replica.latency_ms"]
            assert merged["count"] == 6  # bucket counts added exactly


class TestReadConsistency:
    def test_snapshot_never_observes_a_torn_replica_registry(self):
        """Writers keep ``admitted >= served`` inside each replica registry;
        a merge that captured a registry mid-update would break it."""
        writers = 3
        with make_cluster(3) as router:
            registries = [r.metrics for r in router.replicas.values()]
            stop = threading.Event()

            def write(registry):
                admitted = registry.counter("admitted")
                served = registry.counter("served")
                for _ in range(400):
                    admitted.inc()
                    served.inc()
                stop.set()

            threads = [
                threading.Thread(target=write, args=(reg,)) for reg in registries
            ]
            for t in threads:
                t.start()
            try:
                snapshots = 0
                while not stop.is_set() or snapshots < 50:
                    counters = router.cluster_snapshot()["counters"]
                    a = counters.get("admitted", 0)
                    s = counters.get("served", 0)
                    assert a >= s, f"torn cluster view: served {s} > admitted {a}"
                    assert a - s <= writers
                    snapshots += 1
            finally:
                for t in threads:
                    t.join()


class TestDynamicTopology:
    """The autoscaler churns the fleet; the merged view must not wobble.

    Departing replicas fold their counters into the router's retired
    registry, so cluster totals are (a) monotone non-decreasing across
    any add/drain sequence and (b) *exact* — equal to the work actually
    served — even when the same replica id leaves and later rejoins as
    a brand-new object.
    """

    def _served(self, router):
        return router.cluster_snapshot()["counters"].get(
            "replica.calls.classify", 0
        )

    def test_totals_exact_across_add_drain_readd_thread(self, tiny_model):
        from repro.cluster import make_replica

        model, dataset, predictor = tiny_model
        with make_cluster(2, config=RouterConfig(replication_factor=2)) as router:
            gid = router.register_model(
                "churn", model, train_set=dataset, predictor=predictor
            )
            request = ClassifyRequest(model_id=gid, inputs=dataset.inputs[:2])
            seen = []
            for _ in range(4):
                router.classify(request)
            seen.append(self._served(router))
            assert seen[-1] == 4

            router.add_replica(make_replica("r2"))
            router.rebalance()
            for _ in range(4):
                router.classify(request)
            seen.append(self._served(router))
            assert seen[-1] == 8

            # Drain a serving holder: its counters move to the retired
            # registry, not out of the total.
            victim = router.holders(gid)[0]
            router.drain_replica(victim)
            seen.append(self._served(router))
            assert seen[-1] == 8

            for _ in range(4):
                router.classify(request)
            seen.append(self._served(router))
            assert seen[-1] == 12

            # The same id rejoins as a fresh object: its predecessor's
            # work must be counted exactly once, never twice.
            router.add_replica(make_replica(victim))
            router.rebalance()
            for _ in range(4):
                router.classify(request)
            seen.append(self._served(router))
            assert seen[-1] == 16
            assert seen == sorted(seen)  # monotone at every observation

    def test_totals_exact_across_drain_readd_process(self):
        rng = np.random.default_rng(0)
        inputs = rng.normal(size=(12, TINY.in_channels, 8, 8))
        labels = rng.integers(0, 3, size=12)
        config = RouterConfig(replication_factor=2, call_timeout_s=120.0)
        with make_cluster(2, backend="process", config=config) as router:
            from repro.cluster import make_replica

            gid = router.train(
                TrainRequest(
                    inputs=inputs, labels=labels, model_config=TINY, epochs=1
                )
            ).model_id
            request = ClassifyRequest(model_id=gid, inputs=inputs[:2])
            for _ in range(3):
                router.classify(request)
            assert self._served(router) == 3

            victim = router.holders(gid)[0]
            router.drain_replica(victim)
            # The child is gone, but its shipped counters survive in the
            # retired registry.
            assert self._served(router) == 3

            router.add_replica(make_replica(victim, backend="process"))
            router.rebalance()
            for _ in range(3):
                router.classify(request)
            assert self._served(router) == 6
        for replica in router.replicas.values():
            replica.assert_no_shm_leaks()


class TestProcessBackend:
    def test_child_serve_counters_fold_into_the_cluster_view(self):
        rng = np.random.default_rng(0)
        inputs = rng.normal(size=(12, TINY.in_channels, 8, 8))
        labels = rng.integers(0, 3, size=12)
        config = RouterConfig(replication_factor=1, call_timeout_s=120.0)
        with make_cluster(1, backend="process", config=config) as router:
            gid = router.train(
                TrainRequest(
                    inputs=inputs, labels=labels, model_config=TINY, epochs=1
                )
            ).model_id
            for _ in range(3):
                router.classify(ClassifyRequest(model_id=gid, inputs=inputs[:2]))
            counters = router.cluster_snapshot()["counters"]
            # These counts only exist inside the child process; seeing them
            # here proves the live child snapshot was fetched and merged.
            assert counters.get("replica.calls.train") == 1
            assert counters.get("replica.calls.classify") == 3
            # Parent-side transport accounting sits beside them.
            assert counters.get("replica.transport.calls_sent", 0) >= 4
        for replica in router.replicas.values():
            replica.assert_no_shm_leaks()
