"""Failover invariants under deterministic chaos.

The contracts pinned here are the cluster tier's whole reason to exist:

- **No request lost** — a replica crash (or kill) mid-stream fails the
  affected calls over to a surviving holder; every client call still
  returns a response.
- **No request double-served** — the crashed/lost call never counts
  twice: summed per-replica serve counters equal the number of logical
  requests, and a lost-response train (the at-least-once hazard) places
  exactly one model thanks to idempotency keys composing with the
  router's re-keying.
- **Partition ≠ crash** — a replica that is alive but unreachable
  (heartbeat faults) is ejected and stops receiving traffic; every
  request during the partition is served by survivors (shed XOR served,
  never silently dropped).
- **Re-replication** — after an ejection every placed model is restored
  to the replication factor on survivors, each holding a live copy.
- **Hung replica** — a call that outlives ``call_timeout_s`` (a stage
  stuck inside the replica) fails over to another holder, and the hung
  replica's breaker and health record the failure.
- **Blame** — when a copy fails because its *source* replica is down,
  that source is ejected, never the healthy target, and no replica that
  still holds the model leaves the placement over it.
"""

import threading

import pytest

from repro import faults
from repro.cluster import (
    CALL_SITE,
    HEARTBEAT_SITE,
    NoHealthyReplicaError,
    ReplicaDownError,
    RouterConfig,
    ServiceReplica,
    make_cluster,
    place,
)
from repro.faults import FaultPlan, FaultSpec, RetryPolicy
from repro.scheduler.runtime import STAGE_SITE
from repro.service import (
    CalibrateRequest,
    ClassifyRequest,
    EugeneClient,
    InferRequest,
)

from .conftest import TINY


def served_counts(router, endpoint="classify"):
    return {
        rid: replica.metrics.counter(f"replica.calls.{endpoint}").value
        for rid, replica in router.replicas.items()
    }


class TestCrashFailover:
    def test_crash_mid_stream_loses_and_doubles_nothing(self, tiny_model):
        model, dataset, predictor = tiny_model
        config = RouterConfig(replication_factor=2, policy="round-robin")
        plan = FaultPlan(
            seed=0, specs=[FaultSpec(CALL_SITE, faults.CRASH, at=(5,))]
        )
        with make_cluster(3, config=config) as router:
            gid = router.register_model(
                "crash", model, train_set=dataset, predictor=predictor
            )
            request = ClassifyRequest(
                model_id=gid, inputs=dataset.inputs[:2]
            )
            with faults.plan_session(plan):
                responses = [router.classify(request) for _ in range(20)]
            assert len(responses) == 20  # no request lost
            assert all(len(r.predictions) == 2 for r in responses)
            # ... and none double-served: the crashed invocation died
            # before serving, its retry served exactly once elsewhere.
            assert sum(served_counts(router).values()) == 20
            assert len(router.ejected()) == 1
            assert (
                router.metrics.counter("router.failovers").value == 1
            )

    def test_replication_factor_restored_after_crash(self, tiny_model):
        model, dataset, predictor = tiny_model
        config = RouterConfig(replication_factor=2)
        with make_cluster(3, config=config) as router:
            gid = router.register_model(
                "heal", model, train_set=dataset, predictor=predictor
            )
            victim = router.holders(gid)[0]
            router.replicas[victim].kill()
            router.tick()  # heartbeat round notices the corpse
            holders = router.holders(gid)
            assert victim not in holders
            assert len(holders) == 2
            for rid in holders:
                assert gid in router.replicas[rid].service.registry
            assert (
                router.metrics.counter("router.rereplications").value >= 1
            )

    def test_killed_replicas_queued_requests_fail_over(self, tiny_model):
        model, dataset, predictor = tiny_model
        config = RouterConfig(replication_factor=2)
        with make_cluster(2, config=config) as router:
            gid = router.register_model(
                "queue", model, train_set=dataset, predictor=predictor
            )
            request = ClassifyRequest(
                model_id=gid, inputs=dataset.inputs[:2]
            )
            victim = router.holders(gid)[0]
            results = []
            errors = []

            def drive():
                try:
                    results.append(router.classify(request))
                except Exception as error:  # pragma: no cover
                    errors.append(error)

            threads = [
                threading.Thread(target=drive) for _ in range(12)
            ]
            for i, t in enumerate(threads):
                t.start()
                if i == 5:
                    router.replicas[victim].kill()
            for t in threads:
                t.join(10.0)
            assert not errors
            assert len(results) == 12  # nothing lost
            assert all(len(r.predictions) == 2 for r in results)

    def test_cluster_of_one_crash_is_surfaced_as_transient(self, tiny_model):
        model, dataset, predictor = tiny_model
        plan = FaultPlan(
            seed=0, specs=[FaultSpec(CALL_SITE, faults.CRASH, at=(0,))]
        )
        with make_cluster(1) as router:
            gid = router.register_model(
                "alone", model, train_set=dataset, predictor=predictor
            )
            with faults.plan_session(plan):
                with pytest.raises(NoHealthyReplicaError):
                    router.classify(
                        ClassifyRequest(
                            model_id=gid, inputs=dataset.inputs[:2]
                        )
                    )
            assert router.metrics.counter("router.models_lost").value == 1


class TestResponseLoss:
    def test_lost_train_response_places_exactly_one_model(self, tiny_data):
        # The at-least-once hazard, end to end: the replica *executes*
        # the train but the answer is lost.  With no second holder to
        # fail over to, the router surfaces a transient error, the
        # client's retry redelivers, the service's idempotency window
        # recognises the key, and the router re-keys the single
        # already-trained model — one model, no orphan, no double train.
        inputs, labels = tiny_data
        plan = FaultPlan(
            seed=0, specs=[FaultSpec(CALL_SITE, faults.DROP, at=(0,))]
        )
        with make_cluster(1) as router:
            client = EugeneClient(
                router,
                retry_policy=RetryPolicy(max_attempts=3, base_delay_s=0.0),
            )
            with faults.plan_session(plan):
                response = client.train(
                    inputs, labels, model_config=TINY, epochs=1, name="once"
                )
            assert router.model_ids() == [response.model_id]
            registry = router.replicas["r0"].service.registry
            assert len(registry) == 1
            assert registry.get(response.model_id).name == "once"

    def test_lost_response_with_failover_places_exactly_one_copy_set(
        self, tiny_data
    ):
        # With a second holder available the router itself retries the
        # train elsewhere; exactly one model may end up *placed*.
        inputs, labels = tiny_data
        plan = FaultPlan(
            seed=0, specs=[FaultSpec(CALL_SITE, faults.DROP, at=(0,))]
        )
        with make_cluster(2) as router:
            client = EugeneClient(
                router,
                retry_policy=RetryPolicy(max_attempts=3, base_delay_s=0.0),
            )
            with faults.plan_session(plan):
                response = client.train(
                    inputs, labels, model_config=TINY, epochs=1
                )
            assert router.model_ids() == [response.model_id]
            for rid in router.holders(response.model_id):
                assert (
                    response.model_id
                    in router.replicas[rid].service.registry
                )


class TestPartition:
    def test_partitioned_replica_is_ejected_not_served(self, tiny_model):
        model, dataset, predictor = tiny_model
        config = RouterConfig(replication_factor=2)
        # r0 pings first each round: drop its beats until ejection.
        plan = FaultPlan(
            seed=0,
            specs=[FaultSpec(HEARTBEAT_SITE, faults.DROP, at=(0, 2, 4))],
        )
        with make_cluster(2, config=config) as router:
            gid = router.register_model(
                "part", model, train_set=dataset, predictor=predictor
            )
            with faults.plan_session(plan):
                for _ in range(3):
                    router.tick()
            assert router.ejected() == ["r0"]
            assert router.replicas["r0"].alive  # partitioned, not dead
            request = ClassifyRequest(
                model_id=gid, inputs=dataset.inputs[:2]
            )
            responses = [router.classify(request) for _ in range(5)]
            # Shed XOR served: every request has exactly one terminal
            # outcome, and none of them came from the partitioned side.
            assert all(len(r.predictions) == 2 for r in responses)
            counts = served_counts(router)
            assert counts["r1"] == 5
            # r0 may have served pre-partition traffic only (here: none).
            assert counts["r0"] == 0

    def test_latency_only_heartbeat_still_arrives(self, tiny_model):
        model, dataset, _ = tiny_model
        plan = FaultPlan(
            seed=0,
            specs=[
                FaultSpec(
                    HEARTBEAT_SITE,
                    faults.LATENCY,
                    at=(0, 1),
                    latency_s=0.001,
                )
            ],
        )
        with make_cluster(2) as router:
            router.register_model("slowbeat", model, train_set=dataset)
            with faults.plan_session(plan):
                router.tick()
            assert router.ejected() == []


class TestCallTimeoutFailover:
    def test_hung_holder_times_out_and_fails_over(self, tiny_model):
        model, dataset, predictor = tiny_model
        config = RouterConfig(replication_factor=2, call_timeout_s=0.5)
        # The first stage batch of the first infer — on whichever holder
        # the router offers it to first — stalls far past the call budget.
        plan = FaultPlan(
            seed=0,
            specs=[FaultSpec(STAGE_SITE, faults.HANG, at=(0,), latency_s=1.5)],
        )
        with make_cluster(2, config=config) as router:
            gid = router.register_model(
                "hang", model, train_set=dataset, predictor=predictor
            )
            with faults.plan_session(plan):
                response = router.infer(
                    InferRequest(model_id=gid, inputs=dataset.inputs[:2])
                )
            assert response.stages_executed == [model.num_stages] * 2
            assert router.metrics.counter("router.failovers").value >= 1
            hung = [
                rid for rid, h in router.health.items() if h.error_ewma > 0
            ]
            assert len(hung) == 1
            assert router._breakers[hung[0]]._consecutive_failures == 1
            (healthy,) = set(router.replicas) - set(hung)
            assert router._breakers[healthy]._consecutive_failures == 0


def fail_first_fetch(router, monkeypatch, kill=False):
    """Make the next ``fetch_entry`` on any replica raise
    ``ReplicaDownError`` (killing that replica first when ``kill``, as a
    source that dies mid-copy); returns the ids whose call raised."""
    raised = []
    for replica in router.replicas.values():

        def fetch(gid, replica=replica, real=replica.fetch_entry):
            if raised:
                return real(gid)
            raised.append(replica.replica_id)
            if kill:
                replica.kill()
            raise ReplicaDownError(f"replica {replica.replica_id!r} is down")

        monkeypatch.setattr(replica, "fetch_entry", fetch)
    return raised


class TestBlameTheFailedReplica:
    """A failed copy blames the replica whose call raised."""

    config = RouterConfig(replication_factor=2)

    @staticmethod
    def assert_fair(router, raised, gids):
        # Only the replica whose call raised is reported down, and it is.
        assert router.ejected() == sorted(raised)
        routable = router.active_replica_ids()
        want = min(router.config.replication_factor, len(routable))
        for gid in gids:
            holders = router.holders(gid)
            assert len(holders) == want, (gid, holders, routable)
            assert all(router.replicas[h].has_model(gid) for h in holders)

    def test_rebalance_blames_the_source(self, tiny_model, monkeypatch):
        model = tiny_model[0]
        with make_cluster(2, config=self.config) as router:
            # Place models until one ranks the newcomer among its holders,
            # so the rebalance has a copy to make.
            gids = [router.register_model("m", model)]
            while "r2" not in place(gids[-1], ["r0", "r1", "r2"], 2):
                gids.append(router.register_model("m", model))
            router.add_replica(ServiceReplica("r2"))
            raised = fail_first_fetch(router, monkeypatch)
            moved = router.rebalance()
            assert len(raised) == 1
            assert "r2" not in router.ejected()
            assert moved["copies_installed"] >= 1
            self.assert_fair(router, raised, gids)

    def test_train_blames_the_dying_source(self, tiny_data, monkeypatch):
        inputs, labels = tiny_data
        with make_cluster(3, config=self.config) as router:
            raised = fail_first_fetch(router, monkeypatch, kill=True)
            trained = EugeneClient(router).train(
                inputs, labels, model_config=TINY, epochs=1
            )
            assert len(raised) == 1
            self.assert_fair(router, raised, [])
            # The trained copy died with its replica before it could be
            # copied: the model is lost, and counted so.
            assert trained.model_id not in router.model_ids()
            assert router.metrics.counter("router.models_lost").value == 1

    def test_calibrate_blames_the_calibrated_holder(
        self, tiny_data, monkeypatch
    ):
        inputs, labels = tiny_data
        with make_cluster(3, config=self.config) as router:
            gid = EugeneClient(router).train(
                inputs, labels, model_config=TINY, epochs=1
            ).model_id
            raised = fail_first_fetch(router, monkeypatch)
            router.calibrate(CalibrateRequest(gid, inputs, labels, epochs=1))
            assert len(raised) == 1
            self.assert_fair(router, raised, [gid])
