"""Autoscaling under chaos: drains that die, scale-ups under partition.

The elasticity invariants must survive the same abuse the steady-state
tier does:

- a **SIGKILL mid-drain** (process backend: a real corpse) degrades the
  graceful path to the crash path — the drain still completes, the
  models the evacuation step already copied keep serving, and every shm
  segment is reclaimed;
- **dropped heartbeats during a scale-up** eject a partitioned replica
  while the fleet is growing; traffic keeps flowing and the controller
  does not oscillate — every scale action in its log respects the
  configured cooldowns even with the health plane lying to it.
"""

import os
import signal
import threading

import numpy as np
import pytest

from repro import faults, telemetry
from repro.clock import VirtualClock, wait_until
from repro.cluster import (
    HEARTBEAT_SITE,
    Autoscaler,
    AutoscalerConfig,
    RouterConfig,
    make_cluster,
)
from repro.faults import FaultPlan, FaultSpec
from repro.nn.data import Dataset
from repro.nn.resnet import StagedResNet, StagedResNetConfig
from repro.nn.training import collect_stage_outputs
from repro.scheduler.confidence import GPConfidencePredictor
from repro.service import ClassifyRequest

TINY = StagedResNetConfig(
    num_classes=3, image_size=8, stage_channels=(4, 8), blocks_per_stage=1, seed=0
)


@pytest.fixture(autouse=True)
def clean_sessions():
    faults.uninstall()
    telemetry.disable()
    yield
    faults.uninstall()
    telemetry.disable()


@pytest.fixture(scope="module")
def tiny_model():
    rng = np.random.default_rng(0)
    inputs = rng.normal(size=(16, TINY.in_channels, 8, 8))
    labels = rng.integers(0, 3, size=16)
    model = StagedResNet(TINY)
    dataset = Dataset(inputs, labels)
    predictor = GPConfidencePredictor(num_classes=3, seed=0).fit(
        collect_stage_outputs(model, dataset)["confidences"]
    )
    return model, dataset, predictor


class TestSigkillMidDrain:
    def test_corpse_mid_drain_loses_nothing_and_leaks_nothing(
        self, tiny_model
    ):
        model, dataset, predictor = tiny_model
        config = RouterConfig(replication_factor=2, call_timeout_s=120.0)
        with make_cluster(
            3, backend="process", synthetic_work_s=0.2, config=config
        ) as router:
            gid = router.register_model(
                "mid-drain", model, train_set=dataset, predictor=predictor
            )
            victim = router.holders(gid)[0]
            replica = router.replicas[victim]
            # Give the victim in-flight work so the drain has to wait —
            # the window the SIGKILL lands in.
            probe = replica.submit(
                "classify", ClassifyRequest(model_id=gid, inputs=dataset.inputs[:2])
            )
            assert wait_until(lambda: replica.outstanding >= 1, timeout=10.0)
            result = {}
            drainer = threading.Thread(
                target=lambda: result.update(router.drain_replica(victim))
            )
            drainer.start()
            # Deterministic kill point: after the evacuation step has
            # re-homed the victim's placements onto the survivors.
            assert wait_until(
                lambda: victim not in router.holders(gid), timeout=30.0
            )
            os.kill(replica.pid, signal.SIGKILL)
            drainer.join(timeout=60.0)
            assert not drainer.is_alive()
            assert result["died_mid_drain"]
            counters = router.metrics.counters()
            assert counters.get("router.drains_completed", 0) == 1
            assert counters.get("router.drains_died_midway", 0) == 1
            # Our direct probe rode the corpse and may fail; *routed*
            # traffic must not — the copies evacuation made keep serving.
            with pytest.raises(Exception):
                probe.result(10)
            for _ in range(5):
                response = router.classify(
                    ClassifyRequest(model_id=gid, inputs=dataset.inputs[:2])
                )
                assert len(response.predictions) == 2
            assert victim not in router.replicas
        # The acceptance bar survives the corpse: zero leaked blocks,
        # including segments owned by the child that never shut down.
        for r in router.replicas.values():
            r.assert_no_shm_leaks()


class TestHeartbeatFaultsDuringScaleUp:
    def _config(self):
        return AutoscalerConfig(
            min_replicas=1,
            max_replicas=4,
            target_outstanding_per_replica=1.0,
            hysteresis_up=1,
            hysteresis_down=2,
            up_cooldown_s=1.0,
            down_cooldown_s=4.0,
            max_step_up=2,
            max_step_down=1,
        )

    def test_partition_during_scale_up_no_loss_no_oscillation(
        self, tiny_model
    ):
        model, dataset, predictor = tiny_model
        clock = VirtualClock()
        config = self._config()
        # r0 pings first every heartbeat round; the fleet grows from 2
        # to 4 after round one (the controller reacts to the pressure
        # below), so r0's beats land at site invocations 0, 2, 6 — all
        # dropped, ejecting it (max_missed_heartbeats=3) mid-scale-up.
        plan = FaultPlan(
            seed=0,
            specs=[FaultSpec(HEARTBEAT_SITE, faults.DROP, at=(0, 2, 6))],
        )
        with make_cluster(
            2, clock=clock, config=RouterConfig(replication_factor=2)
        ) as router:
            gid = router.register_model(
                "partitioned", model, train_set=dataset, predictor=predictor
            )
            scaler = Autoscaler(router, config, clock=clock)
            try:
                # Sustained pressure pinned on r1 only: r0 must stay free
                # so re-replication off the ejected partition and the
                # traffic below never queue behind a held worker.
                gate = threading.Event()
                blockers = [
                    router.replicas["r1"].execute(gate.wait) for _ in range(4)
                ]
                assert wait_until(
                    lambda: router.replicas["r1"].outstanding >= 4,
                    timeout=5.0,
                )
                request = ClassifyRequest(
                    model_id=gid, inputs=dataset.inputs[:2]
                )
                with faults.plan_session(plan):
                    for _ in range(4):
                        router.tick()
                        scaler.step()
                        clock.advance(1.1)
                        # Traffic flows throughout the partition + growth.
                        response = router.classify(request)
                        assert len(response.predictions) == 2
                assert router.ejected() == ["r0"]
                assert router.replicas["r0"].alive  # partitioned, not dead
                ups = [
                    d
                    for d in scaler.decision_log()
                    if d["action"] == "scale_up"
                ]
                assert ups, "sustained pressure must have grown the fleet"
                gate.set()
                for b in blockers:
                    b.result(5.0)
                # Quiet phase: let the controller settle back down.
                for _ in range(8):
                    clock.advance(2.5)
                    scaler.step()
                    response = router.classify(request)
                    assert len(response.predictions) == 2
                assert len(router.active_replica_ids()) == config.min_replicas
                log = scaler.decision_log()
                actions = [d for d in log if d["action"] != "hold"]
                # No oscillation: every consecutive pair of scale actions
                # respects the tighter of the two cooldowns, and every
                # scale_down waits out the full down cooldown since the
                # previous action of either direction.
                for a, b in zip(actions, actions[1:]):
                    gap = b["t"] - a["t"]
                    assert gap >= config.up_cooldown_s, (a, b)
                    if b["action"] == "scale_down":
                        assert gap >= config.down_cooldown_s, (a, b)
                downs = [d for d in actions if d["action"] == "scale_down"]
                assert downs, "the idle fleet must eventually shrink"
            finally:
                scaler.finalize()
