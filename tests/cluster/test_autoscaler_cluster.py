"""Autoscaler against a live cluster: the actuation half of the loop.

``tests/cluster/test_autoscaler.py`` pins the pure policy on a virtual
timeline; here the decisions actually move a thread-backend fleet —
replicas join and drain online, placements follow, the pre-warm pool is
consumed and refilled, and idle models park to zero and cold-start back.
Everything runs on an injectable clock or an event gate, never a tuned
sleep.
"""

import threading

import pytest

from repro.clock import VirtualClock, wait_until
from repro.cluster import (
    Autoscaler,
    AutoscalerConfig,
    RouterConfig,
    make_cluster,
    make_replica,
)
from repro.service import ClassifyRequest


def classify(router, gid, inputs):
    return router.classify(ClassifyRequest(model_id=gid, inputs=inputs[:2]))


class TestElasticTopology:
    def test_added_replica_takes_its_rendezvous_share(self, tiny_model):
        model, dataset, predictor = tiny_model
        with make_cluster(2, config=RouterConfig(replication_factor=2)) as router:
            gids = [
                router.register_model(
                    f"m{i}", model, train_set=dataset, predictor=predictor
                )
                for i in range(6)
            ]
            router.add_replica(make_replica("r2"))
            assert "r2" in router.active_replica_ids()
            moved = router.rebalance()
            # With R=2 over 3 replicas, rendezvous hands the newcomer
            # ~2/3 of the 6 models in expectation; at least one lands.
            assert moved["copies_installed"] >= 1
            assert any("r2" in router.holders(g) for g in gids)
            for g in gids:  # every model still serves after the shuffle
                assert len(classify(router, g, dataset.inputs).predictions) == 2

    def test_drain_is_zero_loss_and_routes_around_the_drainer(
        self, tiny_model
    ):
        model, dataset, predictor = tiny_model
        with make_cluster(3, config=RouterConfig(replication_factor=2)) as router:
            gid = router.register_model(
                "drainme", model, train_set=dataset, predictor=predictor
            )
            victim = router.holders(gid)[0]
            # Hold the victim's worker so it has in-flight work when the
            # drain starts; the drain must wait for it, not cut it off.
            gate = threading.Event()
            blocker = router.replicas[victim].execute(gate.wait)
            result = {}
            drainer = threading.Thread(
                target=lambda: result.update(router.drain_replica(victim))
            )
            drainer.start()
            assert wait_until(lambda: victim in router.draining(), timeout=5.0)
            # Traffic during the drain is served by the survivors.
            for _ in range(4):
                assert len(classify(router, gid, dataset.inputs).predictions) == 2
            gate.set()
            blocker.result(5.0)
            drainer.join(timeout=10.0)
            assert not drainer.is_alive()
            assert result["drained_clean"] and not result["died_mid_drain"]
            assert victim not in router.replicas
            # Replication factor was restored on the survivors first.
            holders = router.holders(gid)
            assert len(holders) == 2 and victim not in holders
            assert len(classify(router, gid, dataset.inputs).predictions) == 2

    def test_drain_validation_errors(self, tiny_model):
        model, dataset, _ = tiny_model
        with make_cluster(2) as router:
            with pytest.raises(KeyError):
                router.drain_replica("no-such-replica")
            victim = "r0"
            gate = threading.Event()
            blocker = router.replicas[victim].execute(gate.wait)
            drainer = threading.Thread(
                target=lambda: router.drain_replica(victim)
            )
            drainer.start()
            assert wait_until(lambda: victim in router.draining(), timeout=5.0)
            with pytest.raises(ValueError):  # already draining
                router.drain_replica(victim)
            with pytest.raises(ValueError):  # r1 would be the last one
                router.drain_replica("r1")
            gate.set()
            blocker.result(5.0)
            drainer.join(timeout=10.0)
        with make_cluster(1) as router:
            with pytest.raises(ValueError):  # the only replica ever
                router.drain_replica("r0")

    def test_same_id_can_rejoin_after_a_drain(self, tiny_model):
        model, dataset, predictor = tiny_model
        with make_cluster(2) as router:
            gid = router.register_model(
                "phoenix", model, train_set=dataset, predictor=predictor
            )
            router.drain_replica("r1")
            assert "r1" not in router.replicas
            with pytest.raises(ValueError):  # r0 is still active
                router.add_replica(make_replica("r0"))
            router.add_replica(make_replica("r1"))
            router.rebalance()
            assert sorted(router.active_replica_ids()) == ["r0", "r1"]
            assert len(classify(router, gid, dataset.inputs).predictions) == 2


class TestScaleToZero:
    def test_park_then_first_request_pays_the_unpark(self, tiny_model):
        model, dataset, predictor = tiny_model
        with make_cluster(2) as router:
            gid = router.register_model(
                "lazy", model, train_set=dataset, predictor=predictor
            )
            assert router.park_model(gid)
            assert not router.park_model(gid)  # idempotent
            assert router.parked_ids() == [gid]
            assert gid in router.model_ids()  # parked, not deleted
            with pytest.raises(KeyError):
                router.holders(gid)  # ... but no live copy anywhere
            # The next request that names it unparks it transparently.
            assert len(classify(router, gid, dataset.inputs).predictions) == 2
            assert router.parked_ids() == []
            assert len(router.holders(gid)) >= 1
            counters = router.metrics.counters()
            assert counters.get("router.models_parked", 0) == 1
            assert counters.get("router.models_unparked", 0) == 1
            with pytest.raises(KeyError):
                router.park_model("g404")

    def test_idle_models_follow_the_injected_clock(self, tiny_model):
        model, dataset, predictor = tiny_model
        clock = VirtualClock()
        with make_cluster(2, clock=clock) as router:
            gid = router.register_model(
                "sleepy", model, train_set=dataset, predictor=predictor
            )
            classify(router, gid, dataset.inputs)
            assert router.idle_models(ttl_s=60.0) == []
            clock.advance(61.0)
            assert router.idle_models(ttl_s=60.0) == [gid]
            classify(router, gid, dataset.inputs)  # serving resets idleness
            assert router.idle_models(ttl_s=60.0) == []


class TestPrewarmPool:
    def test_pool_is_consumed_first_and_refilled(self):
        with make_cluster(1) as router:
            scaler = Autoscaler(
                router,
                AutoscalerConfig(
                    min_replicas=1, max_replicas=6, prewarm_pool_size=1
                ),
            )
            try:
                assert scaler.cost_snapshot()["prewarm_pool"] == 1.0
                added = scaler.scale_up(2)
                assert len(added) == 2
                counters = router.metrics.counters()
                # First join came from the pool, second was spawned cold.
                assert counters.get("autoscaler.joins.prewarmed", 0) == 1
                assert counters.get("autoscaler.joins.spawned", 0) == 1
                # The pool was topped back up after the burst.
                assert scaler.cost_snapshot()["prewarm_pool"] == 1.0
                hists = router.metrics.snapshot()["histograms"]
                assert "autoscaler.cold_start_ms.prewarmed" in hists
                assert "autoscaler.cold_start_ms.spawned" in hists
            finally:
                scaler.finalize()
            assert scaler.cost_snapshot()["prewarm_pool"] == 0.0


class TestControlLoopOnVirtualClock:
    def _config(self):
        return AutoscalerConfig(
            min_replicas=1,
            max_replicas=3,
            target_outstanding_per_replica=1.0,
            hysteresis_up=1,
            hysteresis_down=2,
            up_cooldown_s=1.0,
            down_cooldown_s=2.0,
            max_step_up=2,
            max_step_down=1,
        )

    def test_full_loop_tracks_load_up_and_back_down(self, tiny_model):
        model, dataset, predictor = tiny_model
        clock = VirtualClock()
        with make_cluster(1, clock=clock) as router:
            gid = router.register_model(
                "elastic", model, train_set=dataset, predictor=predictor
            )
            scaler = Autoscaler(router, self._config(), clock=clock)
            try:
                # Pin three no-op jobs on the only replica: sustained
                # pressure with no wall-clock sleeps anywhere.
                gate = threading.Event()
                blockers = [
                    router.replicas["r0"].execute(gate.wait) for _ in range(3)
                ]
                assert wait_until(
                    lambda: router.replicas["r0"].outstanding >= 3, timeout=5.0
                )
                decision = scaler.step()
                assert decision.action == "scale_up"
                assert len(router.active_replica_ids()) == 3
                # The newcomers hold their rendezvous share already.
                assert len(router.holders(gid)) == 2
                clock.advance(1.5)
                # Pressure persists but the fleet is at max: hold.
                assert scaler.step().action == "hold"
                gate.set()
                for b in blockers:
                    b.result(5.0)
                assert wait_until(
                    lambda: router.replicas["r0"].outstanding == 0, timeout=5.0
                )
                # Quiet now — two low observations arm the down streak,
                # then one drain per step (cooldown permitting).
                downs = 0
                for _ in range(10):
                    clock.advance(2.5)
                    if scaler.step().action == "scale_down":
                        downs += 1
                    if len(router.active_replica_ids()) == 1:
                        break
                assert downs == 2
                assert len(router.active_replica_ids()) == 1
                counters = router.metrics.counters()
                assert counters.get("router.drains_completed", 0) == 2
                assert counters.get("router.drains_died_midway", 0) == 0
                # Nothing was lost on the way down: the model still serves.
                assert len(classify(router, gid, dataset.inputs).predictions) == 2
                # Virtual time drove the cost integral too.
                assert scaler.finalize() > 0.0
            finally:
                scaler.finalize()

    def test_scale_downs_respect_the_cooldown_in_the_log(self, tiny_model):
        model, dataset, predictor = tiny_model
        clock = VirtualClock()
        with make_cluster(3, clock=clock) as router:
            router.register_model(
                "calm", model, train_set=dataset, predictor=predictor
            )
            scaler = Autoscaler(router, self._config(), clock=clock)
            try:
                for _ in range(12):
                    scaler.step()
                    clock.advance(0.5)  # finer than the 2 s down cooldown
                downs = [
                    d for d in scaler.decision_log()
                    if d["action"] == "scale_down"
                ]
                assert downs, "an idle oversized fleet must shrink"
                gaps = [
                    b["t"] - a["t"] for a, b in zip(downs, downs[1:])
                ]
                assert all(
                    gap >= self._config().down_cooldown_s for gap in gaps
                ), gaps
            finally:
                scaler.finalize()
